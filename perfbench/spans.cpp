#include "spans.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(clock::now() - origin_)
      .count();
}

int SpanRecorder::open(std::string name, int run) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  // Stamp last, so the recorder's own bookkeeping stays outside the span.
  spans_[static_cast<std::size_t>(id)].start_us = now_us();
  return id;
}

double SpanRecorder::close(int id) {
  const double end = now_us();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_us = end;
  return (span.end_us - span.start_us) / 1e3;
}

std::map<std::string, std::vector<double>> SpanRecorder::durations_ms() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    out[s.name].push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::self_ms() const {
  // Children are recorded by one thread and close before their parent, so
  // they never overlap: the covered time is the sum of their durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name].push_back((s.end_us - s.start_us - child_us[i]) / 1e3);
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::fixed << std::setprecision(3);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
       << "\"tid\": 1, \"ts\": " << s.start_us
       << ", \"dur\": " << (s.end_us - s.start_us) << ", \"args\": {\"id\": "
       << i << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
