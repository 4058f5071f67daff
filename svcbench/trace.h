// In-memory span recorder for the service benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around each call it
// makes into a module's public API (the TA's issuance, the client's
// round trips, the store's Open, ...). Each span has a name, start and
// end on the steady clock, the id of the span that caused it, and the
// id of the request it belongs to. Nothing is written until the run
// ends; Write() then dumps one JSON object per line.
//
// A disabled Tracer records nothing, so the untraced run pays one
// branch per call site.

#ifndef SVCBENCH_TRACE_H_
#define SVCBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace svcbench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span
  uint64_t request = 0;  ///< shared by every span of one request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Reserves a span id, so children can name a parent that has not
  /// ended yet. Returns 0 when disabled.
  uint64_t NewId() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  /// Records a finished span under a reserved id.
  void Record(const char* name, uint64_t id, uint64_t parent,
              uint64_t request, int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  }

  /// Records a finished span under a fresh id; returns the id.
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    const uint64_t id = NewId();
    Record(name, id, parent, request, start_ns, end_ns);
    return id;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Per span name: the mean self time in ms, i.e. the span's duration
  /// minus the part of it its children cover. Children of one parent
  /// never overlap in this benchmark, so "covered" is their clipped sum.
  std::map<std::string, double> MeanSelfMs() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<uint64_t, int64_t> child_ns;
    std::unordered_map<uint64_t, const Span*> by_id;
    for (const Span& s : spans_) by_id[s.id] = &s;
    for (const Span& s : spans_) {
      if (s.parent == 0) continue;
      auto it = by_id.find(s.parent);
      if (it == by_id.end()) continue;
      const Span& p = *it->second;
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) child_ns[p.id] += hi - lo;
    }
    std::map<std::string, std::pair<double, size_t>> acc;
    for (const Span& s : spans_) {
      const int64_t self =
          std::max<int64_t>(0, s.end_ns - s.start_ns - child_ns[s.id]);
      auto& slot = acc[s.name];
      slot.first += double(self) / 1e6;
      ++slot.second;
    }
    std::map<std::string, double> out;
    for (const auto& [name, slot] : acc) {
      out[name] = slot.first / double(slot.second);
    }
    return out;
  }

  /// Writes every span as one JSON line, times in microseconds since
  /// `origin_ns`. Returns false when the file cannot be written.
  bool Write(const std::string& path, int64_t origin_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"start_us\":" << double(s.start_ns - origin_ns) / 1e3
          << ",\"end_us\":" << double(s.end_ns - origin_ns) / 1e3 << "}\n";
    }
    return bool(out);
  }

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace svcbench

#endif  // SVCBENCH_TRACE_H_
