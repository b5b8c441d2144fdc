// In-memory span recorder for the traced benchmark runs.
//
// The benchmark wraps each call it makes into a layer's public function in a
// span (name, layer, start, end, parent, job). Spans stay in memory and are
// written once, at the end, as a Chrome trace-event file; per-layer self time
// is a span's duration minus the time its child spans cover. A disabled
// tracer records nothing, so untraced runs pay one branch per span.
#pragma once
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace transbench {

using bench_clock = std::chrono::steady_clock;

inline double seconds_since(bench_clock::time_point t0) {
  return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

struct span {
  std::string name;
  std::string layer;
  double start = 0.0; // seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;    // index into the owning tracer's spans, -1 = root
  int job = 0;        // spans of one job share this id
};

/// One tracer per thread; merge() folds several into one timeline.
class tracer {
public:
  tracer(bool enabled, bench_clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  int begin(std::string name, std::string layer, int job) {
    if (!enabled_) return -1;
    span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start = seconds_since(origin_);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
    stack_.pop_back();
  }

  /// RAII span: `auto s = t.scope("milp::solve", "milp", job);`
  class scoped {
  public:
    scoped(tracer& t, int id) : t_(t), id_(id) {}
    scoped(const scoped&) = delete;
    scoped& operator=(const scoped&) = delete;
    ~scoped() { t_.end(id_); }

  private:
    tracer& t_;
    int id_;
  };
  [[nodiscard]] scoped scope(std::string name, std::string layer, int job) {
    return scoped(*this, begin(std::move(name), std::move(layer), job));
  }

  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

  /// Append another tracer's spans (re-indexing their parents).
  void merge(const tracer& other) {
    const int offset = static_cast<int>(spans_.size());
    for (span s : other.spans_) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(std::move(s));
    }
  }

  /// Self seconds per layer: duration minus the child spans it encloses.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[spans_[i].layer] += spans_[i].end - spans_[i].start - child[i];
    return self;
  }

  /// Total wall of the root spans (the jobs).
  [[nodiscard]] double job_wall_seconds() const {
    double total = 0.0;
    for (const span& s : spans_)
      if (s.parent < 0) total += s.end - s.start;
    return total;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds); one
  /// timeline row per job.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"span\":%zu,\"parent\":%d,\"job\":%d}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                   s.start * 1e6, (s.end - s.start) * 1e6, s.job, i, s.parent,
                   s.job);
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

private:
  bool enabled_;
  bench_clock::time_point origin_;
  std::vector<span> spans_;
  std::vector<int> stack_;
};

} // namespace transbench
