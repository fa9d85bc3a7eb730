// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded in the benchmark's own code around its calls into
// each layer of olapdc (the socket round trip, DimService, the parsers,
// DIMSAT). Each span carries its name, start, end, parent and the
// request position it belongs to; nothing is written until the run
// ends, so recording costs one clock read and one vector append.

#ifndef OLAPDC_PERFBENCH_TRACE_H_
#define OLAPDC_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// A string literal; spans never own their names.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  /// 0 for a root span.
  uint32_t parent = 0;
  /// Position in the replayed sequence (-1 outside it).
  int32_t request = -1;
  int32_t round = 0;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span; returns its id (its index + 1).
  uint32_t Begin(const char* name, int32_t request, uint32_t parent = 0) {
    Span s;
    s.name = name;
    s.id = static_cast<uint32_t>(spans_.size()) + 1;
    s.parent = parent;
    s.request = request;
    s.round = round_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return s.id;
  }

  void End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

  /// Appends `other`'s spans (recorded on another thread) as spans of
  /// this tracer's current round, renumbering their ids.
  void Append(const Tracer& other) {
    const uint32_t offset = static_cast<uint32_t>(spans_.size());
    for (Span s : other.spans_) {
      s.id += offset;
      if (s.parent != 0) s.parent += offset;
      s.round = round_;
      spans_.push_back(s);
    }
  }

  void set_round(int32_t round) { round_ = round; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans of round `round`, one JSON object per line.
  bool WriteJsonl(const std::string& path, int32_t round) const;

 private:
  std::vector<Span> spans_;
  int32_t round_ = 0;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t request,
             uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // OLAPDC_PERFBENCH_TRACE_H_
