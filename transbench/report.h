// Metric names, units, and the result line every workload prints.
//
// BENCHMARK.json lists the same names; `run.py --self-test` checks the two
// agree. Every end-to-end metric is printed by every workload (untraced
// runs); every per-layer metric by every traced run, 0 where the workload
// does not touch that layer.
#pragma once
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace transbench {

struct metric_def {
  const char* name;
  const char* unit;
};

inline const std::vector<metric_def>& end_to_end_metrics() {
  static const std::vector<metric_def> defs = {
      {"setup_s", "s"},          {"req_per_s", "1/s"},
      {"solve_s", "s"},          {"miss_p90_ms", "ms"},
      {"peak_rss_mb", "MB"},     {"exec_time_sum", "tu"},
      {"ok_share", "ratio"},
  };
  return defs;
}

/// Layers that spans are recorded for (self time is reported per layer).
inline const std::vector<std::string>& span_layers() {
  static const std::vector<std::string> layers = {
      "bench", "serve", "serialize", "sched", "milp",
      "lp",    "lu",    "arch",      "phys",  "sim"};
  return layers;
}

inline const std::vector<metric_def>& per_layer_metrics() {
  static const std::vector<metric_def> defs = [] {
    std::vector<metric_def> d = {
        // serve_mix, client side and the hit path
        {"serve.hit_p50_ms", "ms"},
        {"serve.hit_p99_ms", "ms"},
        {"serve.miss_p50_ms", "ms"},
        {"executor.hit_wait_ms", "ms"},
        {"cache.hit_service_ms", "ms"},
        {"serialize.flow_ms", "ms"},
        {"serialize.doc_kb", "KiB"},
        {"serve.transport_ms", "ms"},
        {"serve.bytes_out_per_req", "B"},
        // serve_mix, throughput and the miss tail
        {"cache.hit_ratio", "ratio"},
        {"cache.evictions", "count"},
        {"cache.coalesced_hits", "count"},
        {"cache.bytes", "B"},
        {"serve.shed", "count"},
        {"serve.framing_errors", "count"},
        {"executor.rejected_queue_full", "count"},
        // pipeline stages, summed over one pass of distinct jobs
        {"pipeline.schedule_s", "s"},
        {"pipeline.synthesize_s", "s"},
        {"pipeline.compress_s", "s"},
        {"pipeline.verify_s", "s"},
        // MILP tree search (exact_tree) and root phase (exact_root)
        {"milp.nodes", "count"},
        {"milp.nodes_per_s", "1/s"},
        {"milp.cuts_added", "count"},
        {"milp.presolve_rows_removed", "count"},
        {"milp.root_gap", "ratio"},
        {"milp.build_s", "s"},
        {"milp.presolve_s", "s"},
        {"milp.simplex_iterations", "count"},
        {"milp.strong_branch_probes", "count"},
        {"milp.cut_rounds", "count"},
        {"milp.cut_loop_s", "s"},
        {"milp.root_bound_lift", "objective"},
        {"milp.root_bound_sum", "objective"},
        // LP kernel, probed on the exact_root formulations
        {"lp.root_s", "s"},
        {"lp.iterations", "count"},
        {"lp.factorizations", "count"},
        {"lp.pivots_per_factorization", "ratio"},
        {"lp.dense_fallbacks", "count"},
        {"lp.primal_fallbacks", "count"},
        {"lu.factorize_ms", "ms"},
        {"lu.ftran_us", "us"},
        {"lu.btran_us", "us"},
        {"lu.fill_ratio", "ratio"},
        // chip quality, summed over distinct jobs
        {"arch.valves", "count"},
        {"arch.paths", "count"},
        {"arch.caches", "count"},
        {"arch.grid_grown", "count"},
        {"phys.compression_iterations", "count"},
        {"phys.area", "units2"},
        {"sim.transport_legs", "count"},
        {"sim.cached_samples", "count"},
        // trace bookkeeping
        {"trace.job_wall_s", "s"},
        {"trace.coverage", "ratio"},
    };
    static const std::vector<std::string> self_names = [] {
      std::vector<std::string> n;
      for (const std::string& layer : span_layers())
        n.push_back("self_s." + layer);
      return n;
    }();
    for (const std::string& n : self_names) d.push_back({n.c_str(), "s"});
    return d;
  }();
  return defs;
}

/// Nearest-rank percentile (p in (0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Everything one run measured; print() emits a human table and the final
/// JSON line.
struct run_report {
  std::string workload;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures; // first few failure messages
  std::vector<std::string> notes;    // sample counts and the like
  std::map<std::string, double> values;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  double& operator[](const std::string& name) { return values[name]; }

  void print(bool traced) const {
    const auto& defs = traced ? per_layer_metrics() : end_to_end_metrics();
    std::printf("# %s (%s): %ld operations, %ld failed\n", workload.c_str(),
                traced ? "traced, per-layer" : "end-to-end", attempted, failed);
    for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
    for (const std::string& f : failures) std::printf("# FAIL %s\n", f.c_str());
    for (const metric_def& d : defs)
      std::printf("%-34s %16.6f %s\n", d.name, lookup(d.name), d.unit);
    if (traced) {
      // The traced run's own end-to-end figures, for the tracing overhead.
      std::printf("# traced end-to-end:");
      for (const metric_def& d : end_to_end_metrics())
        std::printf(" %s=%.6g", d.name, lookup(d.name));
      std::printf("\n");
    }
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < defs.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, lookup(defs[i].name),
                  defs[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
  }

private:
  [[nodiscard]] double lookup(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

} // namespace transbench
