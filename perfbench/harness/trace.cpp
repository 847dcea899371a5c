#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name, uint32_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = NowSeconds();
  spans_.push_back(span);
  int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = NowSeconds();
  // Spans close in LIFO order; tolerate a caller that ends an outer span
  // first by popping everything above it.
  while (!open_.empty()) {
    int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

int32_t Tracer::Add(const char* name, uint32_t request, double start,
                    double end, int32_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::SelfTimes(uint32_t request) const {
  std::vector<double> child_total(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_total[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (request != 0 && span.request != request) continue;
    self[span.name] += (span.end - span.start) - child_total[i];
  }
  return self;
}

double Tracer::Total(const char* name, uint32_t request) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.request == request && std::string(span.name) == name) {
      total += span.end - span.start;
    }
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::map<std::string, double>& extra) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"self_ms_total\": {");
  bool first = true;
  for (const auto& [name, seconds] : SelfTimes()) {
    std::fprintf(f, "%s\n    \"%s\": %.6f", first ? "" : ",", name.c_str(),
                 seconds * 1e3);
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"per_layer\": {");
  first = true;
  for (const auto& [name, value] : extra) {
    std::fprintf(f, "%s\n    \"%s\": %.6g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"spans\": [");
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n    {\"id\": %zu, \"name\": \"%s\", \"request\": %u, "
                 "\"parent\": %d, \"start_ms\": %.4f, \"end_ms\": %.4f}",
                 i == 0 ? "" : ",", i, s.name, s.request, s.parent,
                 (s.start - origin) * 1e3, (s.end - origin) * 1e3);
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
