// The benchmark's workloads. Each fills a run_report with every metric it
// can measure; report.h decides which of them a run prints.
#pragma once
#include <cstdint>
#include <string>

#include "api/pipeline.h"
#include "report.h"
#include "trace.h"

namespace transbench {

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;      // self-test: small inputs, short run
  std::string cli;        // transtore_cli binary (serve_mix)
  std::string out_dir;    // traces and server socket
  std::string self_exe;   // this binary, for the setup probes
};

/// Adds one finished job's completion time and chip-quality counters: the
/// assay's simulated makespan, valves, paths, caches, whether the grid grew
/// past the one `options` asked for, compression and simulator counts.
inline void add_quality(run_report& r, const transtore::api::flow_result& f,
                        const transtore::api::pipeline_options& options) {
  const transtore::arch::chip& chip = f.architecture.result;
  r["exec_time_sum"] += f.stats->makespan;
  r["arch.valves"] += chip.valve_count();
  r["arch.paths"] += static_cast<double>(chip.paths.size());
  r["arch.caches"] += static_cast<double>(chip.caches.size());
  r["arch.grid_grown"] += chip.grid().width() > options.grid_width ||
                                  chip.grid().height() > options.grid_height
                              ? 1.0
                              : 0.0;
  r["phys.compression_iterations"] += f.layout.compression_iterations;
  r["phys.area"] += static_cast<double>(f.layout.after_compression.width) *
                    f.layout.after_compression.height;
  r["sim.transport_legs"] += f.stats->transport_legs;
  r["sim.cached_samples"] += f.stats->cached_samples;
}

/// Traced runs: per-layer self times, their coverage of the job wall time
/// (the "bench" layer is the benchmark's own code), and the Chrome trace
/// file <out_dir>/trace-<workload>-<seed>.json.
inline void report_trace(const run_options& o, run_report& r, const tracer& t) {
  if (!o.trace) return;
  const double wall = t.job_wall_seconds();
  double covered = 0.0;
  for (const auto& [layer, s] : t.self_seconds()) {
    r["self_s." + layer] = s;
    if (layer != "bench") covered += s;
  }
  r["trace.job_wall_s"] = wall;
  r["trace.coverage"] = wall > 0.0 ? covered / wall : 0.0;
  t.write_chrome(o.out_dir + "/trace-" + o.workload + "-" +
                 std::to_string(o.seed) + ".json");
}

/// serve_mix: closed-loop socket clients against `transtore_cli serve`.
void run_serve_mix(const run_options& o, run_report& r);

/// exact_tree: in-process api::pipeline runs proven optimal.
void run_exact_tree(const run_options& o, run_report& r);

/// exact_root: the root phase of the large scheduling MILPs.
void run_exact_root(const run_options& o, run_report& r);

/// Child side of the setup probe of an in-process workload: build its
/// inputs up to the first solve call, then print "ready".
void exact_setup_probe(const run_options& o);

/// Median launch-to-ready seconds of `probes` fresh setup-probe children.
double time_setup_probes(const run_options& o, int probes);

} // namespace transbench
