// In-memory span recorder for the traced run. A span is opened around each
// call the benchmark makes into a module's public functions; spans nest on
// the recording thread, carry the request id they belong to, and are kept in
// memory until the run ends, when SelfTimes() and WriteJson() read them.
//
// One Tracer is used from one thread at a time (the harness's load
// generator). Spans can also be added after the fact with explicit times,
// for work that ran on executor threads and whose timing the response
// reports (queue wait, run time).
#ifndef FAIRCLIQUE_PERFBENCH_TRACE_H_
#define FAIRCLIQUE_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;  // seconds, NowSeconds() clock
  double end = 0.0;
  int32_t parent = -1;  // index into the span list, -1 for a root
  uint32_t request = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per call.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span as a child of the innermost open span; returns its id
  /// (-1 when disabled).
  int32_t Begin(const char* name, uint32_t request);
  void End(int32_t id);

  /// Records a finished span with explicit times under `parent` (-1: root).
  int32_t Add(const char* name, uint32_t request, double start, double end,
              int32_t parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of a span minus the durations of its direct children, summed
  /// per span name over the spans of `request` (every request when 0).
  std::map<std::string, double> SelfTimes(uint32_t request = 0) const;

  /// Total duration of spans named `name` within `request`.
  double Total(const char* name, uint32_t request) const;

  /// Writes {"layers": {name: self_ms}, ..., "spans": [...]} to `path`.
  bool WriteJson(const std::string& path,
                 const std::map<std::string, double>& extra) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, uint32_t request)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // FAIRCLIQUE_PERFBENCH_TRACE_H_
