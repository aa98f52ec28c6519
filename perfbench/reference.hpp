// The benchmark's yardstick: the same two-layer GCN forward the library runs,
// Â·σ(Â·X·W⁰)·W¹, written as plain loops.
//
// It calls nothing in the library and is compiled with flags of its own
// (CMakeLists.txt), so a change to the library leaves its time alone, while a
// slower or faster host moves it much as it moves the library's forward. The
// end-to-end run times it right before and after each library forward and
// reports the library's time as a multiple of it. It keeps its own copy of
// every operand, 64-byte aligned, so that where the allocator happened to put
// the library's arrays in one run does not change its time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace perfbench {

/// A CSR matrix as raw arrays (the library's index and value types).
struct CsrView {
  std::int32_t rows = 0;
  std::span<const std::int64_t> indptr;
  std::span<const std::int32_t> indices;
  std::span<const float> values;
};

class ReferenceForward {
 public:
  /// Copies a, the a.rows × p features x and the p × p weights w0 and w1
  /// (dense operands row-major).
  ReferenceForward(const CsrView& a, std::int32_t p, const float* x,
                   const float* w0, const float* w1);

  /// out = a·relu(a·(x·w0))·w1 on OpenMP's current thread count.
  void run();

  /// The a.rows × p result of the last run(), row-major.
  [[nodiscard]] std::span<const float> output() const;

 private:
  struct FreeAligned {
    void operator()(void* p) const;
  };
  template <typename T>
  using Buffer = std::unique_ptr<T[], FreeAligned>;
  template <typename T>
  static Buffer<T> copy(const T* from, std::size_t n);

  std::int32_t rows_, p_;
  Buffer<std::int64_t> indptr_;
  Buffer<std::int32_t> indices_;
  Buffer<float> values_, x_, w0_, w1_, t1_, t2_, out_;
};

}  // namespace perfbench
