// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer's public functions; self
// time is a span's duration minus the part of it covered by its children.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< "<layer>.<call>", a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< index of the causing span, -1 for a root
  uint64_t request = 0;   ///< spans of one request share this id
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span; returns its index for Close and as a parent.
  int64_t Open(const char* name, int64_t now_ns, int64_t parent = -1,
               uint64_t request = 0) {
    spans_.push_back({name, now_ns, 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t span, int64_t now_ns) { spans_[span].end_ns = now_ns; }
  /// Records a finished span in one call.
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           int64_t parent = -1, uint64_t request = 0) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (the span name up to its first '.'), nanoseconds.
  std::map<std::string, int64_t> SelfTimeByLayer() const;

  /// Writes one JSON object per line: name, start, end, parent, request.
  bool Dump(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent). Index-aligned with `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
