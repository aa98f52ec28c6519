#include "reference.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

namespace perfbench {
namespace {

constexpr std::size_t kAlign = 64;

/// out = a·w for n × p a and p × p w.
void dense_times_weight(const float* a, const float* w, std::int32_t n,
                        std::int32_t p, float* out) {
#pragma omp parallel for schedule(static)
  for (std::int32_t i = 0; i < n; ++i) {
    const float* ai = a + static_cast<std::size_t>(i) * p;
    float* oi = out + static_cast<std::size_t>(i) * p;
    std::fill(oi, oi + p, 0.0f);
    for (std::int32_t k = 0; k < p; ++k) {
      const float s = ai[k];
      const float* wk = w + static_cast<std::size_t>(k) * p;
      for (std::int32_t j = 0; j < p; ++j) oi[j] += s * wk[j];
    }
  }
}

/// out = a·b for CSR a and a.rows × p b; relu on the result when asked.
void sparse_times_dense(std::int32_t rows, const std::int64_t* indptr,
                        const std::int32_t* indices, const float* values,
                        const float* b, std::int32_t p, bool relu,
                        float* out) {
#pragma omp parallel for schedule(dynamic, 64)
  for (std::int32_t i = 0; i < rows; ++i) {
    float* oi = out + static_cast<std::size_t>(i) * p;
    std::fill(oi, oi + p, 0.0f);
    for (std::int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
      const float s = values[e];
      const float* bj = b + static_cast<std::size_t>(indices[e]) * p;
      for (std::int32_t j = 0; j < p; ++j) oi[j] += s * bj[j];
    }
    if (relu) {
      for (std::int32_t j = 0; j < p; ++j) oi[j] = std::max(oi[j], 0.0f);
    }
  }
}

}  // namespace

void ReferenceForward::FreeAligned::operator()(void* p) const { std::free(p); }

template <typename T>
ReferenceForward::Buffer<T> ReferenceForward::copy(const T* from,
                                                   std::size_t n) {
  const std::size_t bytes = (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
  void* p = std::aligned_alloc(kAlign, std::max(bytes, kAlign));
  if (p == nullptr) throw std::bad_alloc();
  if (from != nullptr) {
    std::memcpy(p, from, n * sizeof(T));
  } else {
    std::memset(p, 0, bytes);
  }
  return Buffer<T>(static_cast<T*>(p));
}

ReferenceForward::ReferenceForward(const CsrView& a, std::int32_t p,
                                   const float* x, const float* w0,
                                   const float* w1)
    : rows_(a.rows), p_(p) {
  const std::size_t dense = static_cast<std::size_t>(rows_) * p_;
  const std::size_t weight = static_cast<std::size_t>(p_) * p_;
  indptr_ = copy(a.indptr.data(), a.indptr.size());
  indices_ = copy(a.indices.data(), a.indices.size());
  values_ = copy(a.values.data(), a.values.size());
  x_ = copy(x, dense);
  w0_ = copy(w0, weight);
  w1_ = copy(w1, weight);
  t1_ = copy<float>(nullptr, dense);
  t2_ = copy<float>(nullptr, dense);
  out_ = copy<float>(nullptr, dense);
}

void ReferenceForward::run() {
  dense_times_weight(x_.get(), w0_.get(), rows_, p_, t1_.get());
  sparse_times_dense(rows_, indptr_.get(), indices_.get(), values_.get(),
                     t1_.get(), p_, /*relu=*/true, t2_.get());
  dense_times_weight(t2_.get(), w1_.get(), rows_, p_, t1_.get());
  sparse_times_dense(rows_, indptr_.get(), indices_.get(), values_.get(),
                     t1_.get(), p_, /*relu=*/false, out_.get());
}

std::span<const float> ReferenceForward::output() const {
  return {out_.get(), static_cast<std::size_t>(rows_) * p_};
}

}  // namespace perfbench
