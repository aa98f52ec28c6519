// In-memory span recorder for the benchmark's traced run.
//
// The benchmark records a span around each call it makes into a library
// layer (compress phases, kernels, forwards). Spans are kept in memory and
// written once, as Chrome-trace JSON, when the run ends. A span's self time
// is its duration minus the time its direct children cover.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the recorder was created
  double end_us = 0.0;
  int parent = -1;  ///< index of the enclosing span; -1 for a root span
  int run = 0;      ///< run id: spans of one operation share it
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span nested in the innermost open one; returns its id.
  int open(std::string name, int run);

  /// Closes span `id` (the innermost open one); returns its duration in ms.
  double close(int id);

  /// Per-call durations, in ms, grouped by span name.
  [[nodiscard]] std::map<std::string, std::vector<double>> durations_ms() const;

  /// Per-call self times (duration minus direct children), in ms, grouped by
  /// span name.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_ms() const;

  /// Writes every span as Chrome-trace "X" events; false when the file
  /// cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  [[nodiscard]] double now_us() const;

  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
};

/// Runs fn() inside span `name`; returns the span's duration in ms.
template <typename F>
double traced(SpanRecorder& rec, const char* name, int run, F&& fn) {
  const int id = rec.open(name, run);
  fn();
  return rec.close(id);
}

}  // namespace perfbench
