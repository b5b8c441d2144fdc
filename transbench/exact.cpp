// exact_tree and exact_root: in-process MILP workloads.
//
// exact_tree runs api::pipeline (combined engine, ILP limit far above any
// solve time) on small formulations the solver proves optimal: PCR, RA12,
// RA13 and six seeded relabelings of generated 9-operation assays, on two
// devices. PCR's
// schedule is also synthesized with the ILP architecture engine, and so is
// an annealed IVD schedule (IVD's own scheduling tree, ~80k nodes, is too
// long for a run). exact_root runs the root phase of the CPA and RA70
// scheduling MILPs: sched::build_scheduling_ilp, then milp::solve with
// max_nodes = 1 (presolve, cold root LP, cut rounds, root probes).
//
// A round is one pass over the job set; rounds repeat while another fits
// in the --seconds window (at least one), and times are medians over rounds.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/serialize.h"
#include "assay/benchmarks.h"
#include "assay/io.h"
#include "gen.h"
#include "milp/lu.h"
#include "milp/presolve.h"
#include "milp/simplex.h"
#include "milp/solver.h"
#include "proc.h"
#include "sched/ilp_scheduler.h"
#include "sched/list_scheduler.h"
#include "trace.h"
#include "workloads.h"

namespace transbench {
namespace {

using namespace transtore;

constexpr double unlimited_seconds = 3600.0;
/// Fresh launches per run; setup_s is their median.
constexpr int setup_probes = 25;

/// Keep running rounds while the next one (estimated by the slowest so far)
/// still ends inside the window.
bool another_round(double elapsed, const std::vector<double>& rounds,
                   double window) {
  const double slowest = *std::max_element(rounds.begin(), rounds.end());
  return elapsed + slowest <= window;
}

// ------------------------------------------------------------ exact_tree

struct tree_job {
  std::string name;
  assay::sequencing_graph graph;
  int devices = 2;
  /// combined = the scheduling MILP must be proven optimal; sa = a
  /// heuristic schedule that only feeds the architecture ILP.
  sched::schedule_engine schedule = sched::schedule_engine::combined;
  /// Architecture engines to synthesize the schedule with, one operation
  /// each; ILP syntheses must be proven optimal.
  std::vector<arch::synthesis_engine> arch;
};

std::vector<tree_job> tree_jobs(const run_options& o) {
  using sched::schedule_engine;
  const auto heuristic = arch::synthesis_engine::heuristic;
  const auto ilp = arch::synthesis_engine::ilp;
  std::vector<tree_job> jobs;
  jobs.push_back({"PCR", assay::make_pcr(), 1, schedule_engine::combined,
                  {heuristic, ilp}});
  if (!o.tiny) {
    jobs.push_back({"IVD", assay::make_ivd(), 2, schedule_engine::sa, {ilp}});
    for (const int ops : {12, 13})
      jobs.push_back({"RA" + std::to_string(ops),
                      assay::make_random_assay(ops, static_cast<std::uint64_t>(ops)),
                      2, schedule_engine::combined, {heuristic}});
  }
  // The seeded jobs are relabelings of fixed generated 9-operation
  // templates: the seed permutes operation order and names, not the DAG.
  // Random DAGs have heavy-tailed trees past ten operations (one
  // 12-operation seed took 43 s against a median under 1 s) and their
  // makespans differ, so fresh structure per seed would make solve_s and
  // exec_time_sum properties of the seed rather than of the program.
  const int generated = o.tiny ? 2 : 6;
  for (int i = 0; i < generated; ++i) {
    const std::string name = "G" + std::to_string(i);
    const protocol base = make_protocol(
        o.tiny ? 8 : 9, 0x7E3A11ULL + static_cast<std::uint64_t>(i), 3);
    jobs.push_back({name,
                    assay::parse_sequencing_graph(to_text(
                        name, relabel(base, mix_seed(o.seed, 500 + i)))),
                    2, schedule_engine::combined, {heuristic}});
  }
  prng rng(mix_seed(o.seed, 2));
  rng.shuffle(jobs);
  return jobs;
}

api::pipeline_options tree_options(const tree_job& j) {
  api::pipeline_options po;
  po.device_count = j.devices;
  po.schedule_engine = j.schedule;
  po.sched_ilp_time_limit = unlimited_seconds;
  po.arch_ilp_time_limit = unlimited_seconds;
  po.solver_threads = 1;
  return po;
}

/// Quality and MILP counters of one finished job.
struct tree_outcome {
  double seconds = 0.0;
  double stage_seconds[4] = {0, 0, 0, 0}; // schedule, synthesize, compress, verify
  double serialize_ms = 0.0;
  double doc_kb = 0.0;
  std::optional<api::flow_result> flow;
  std::string error;
};

/// Stages 2-4 plus serialization, shared by both job kinds.
void finish_tree_job(const api::scheduled& s, const api::pipeline_options& po,
                     const api::synthesize_overrides& over, bool expect_arch_ilp,
                     tracer& t, int job, tree_outcome& out) {
  auto timed = [&](int stage, const char* name, const char* layer, auto&& f) {
    const auto span = t.scope(name, layer, job);
    const auto t0 = bench_clock::now();
    auto v = f();
    out.stage_seconds[stage] += seconds_since(t0);
    return v;
  };
  auto y = timed(1, "scheduled::synthesize", "arch",
                 [&] { return s.synthesize(over); });
  if (!y.ok()) {
    out.error = "synthesize: " + y.message();
    return;
  }
  if (expect_arch_ilp &&
      (!y.value().architecture().used_ilp ||
       y.value().architecture().ilp_status != milp::solve_status::optimal)) {
    out.error = "architecture ILP not proven optimal";
    return;
  }
  auto c = timed(2, "synthesized::compress", "phys",
                 [&] { return y.value().compress(); });
  if (!c.ok()) {
    out.error = "compress: " + c.message();
    return;
  }
  auto v = timed(3, "compressed::verify", "sim",
                 [&] { return c.value().verify(); });
  if (!v.ok()) {
    out.error = "verify: " + v.message();
    return;
  }
  api::flow_result f = v.value().result();
  if (!f.stats || f.stats->makespan != f.scheduling.best.makespan()) {
    out.error = "simulator disagrees with the schedule";
    return;
  }
  const auto t0 = bench_clock::now();
  std::string doc;
  {
    const auto span = t.scope("api::serialize_flow", "serialize", job);
    doc = api::serialize_flow(s.graph(), po, f);
  }
  out.serialize_ms = seconds_since(t0) * 1e3;
  out.doc_kb = static_cast<double>(doc.size()) / 1024.0;
  out.flow = std::move(f);
}

// ------------------------------------------------------------ exact_root

struct root_job {
  std::string name;
  assay::sequencing_graph graph;
  int devices = 3;
};

std::vector<root_job> root_jobs(const run_options& o) {
  std::vector<root_job> jobs;
  if (o.tiny) {
    jobs.push_back({"RA12", assay::make_random_assay(12, 12), 2});
    jobs.push_back({"PCR", assay::make_pcr(), 1});
  } else {
    jobs.push_back({"CPA", assay::make_cpa(), 3});
    jobs.push_back({"RA70", assay::make_ra70(), 3});
  }
  prng rng(mix_seed(o.seed, 3));
  rng.shuffle(jobs);
  return jobs;
}

sched::scheduling_ilp build_root_model(const root_job& j, tracer& t, int job) {
  sched::list_scheduler_options lo;
  lo.device_count = j.devices;
  const sched::schedule warm = [&] {
    const auto span = t.scope("sched::schedule_with_list", "sched", job);
    return sched::schedule_with_list(j.graph, lo);
  }();
  sched::ilp_scheduler_options so;
  so.device_count = j.devices;
  so.warm_start = warm;
  const auto span = t.scope("sched::build_scheduling_ilp", "sched", job);
  return sched::build_scheduling_ilp(j.graph, so);
}

milp::solver_options root_options(const sched::scheduling_ilp& ilp) {
  milp::solver_options so;
  so.time_limit_seconds = unlimited_seconds;
  so.max_nodes = 1;
  so.threads = 1;
  so.warm_start = ilp.warm_assignment;
  return so;
}

/// One root phase: build the model, then milp::solve with max_nodes = 1.
struct root_solve {
  sched::scheduling_ilp ilp;
  milp::solution sol;
  double build_s = 0.0;
  double root_s = 0.0;
};

root_solve solve_root(const root_job& j, tracer& t, int job) {
  root_solve rs;
  const auto span = t.scope("job " + j.name, "bench", job);
  auto t0 = bench_clock::now();
  rs.ilp = build_root_model(j, t, job);
  rs.build_s = seconds_since(t0);
  t0 = bench_clock::now();
  {
    const auto s = t.scope("milp::solve (root)", "milp", job);
    rs.sol = milp::solve(rs.ilp.model, root_options(rs.ilp));
  }
  rs.root_s = seconds_since(t0);
  return rs;
}

/// Why a root phase's result is wrong, or "" when it passes.
std::string root_error(const root_solve& rs) {
  const milp::solution& sol = rs.sol;
  if (sol.interrupted) return "root phase interrupted";
  if (!sol.has_solution()) return "no incumbent";
  if (!rs.ilp.model.is_feasible(sol.values))
    return "incumbent infeasible for the original model";
  if (sol.root_bound > sol.objective + 1e-6 * std::max(1.0, std::abs(sol.objective)))
    return "root bound above the incumbent";
  return "";
}

/// The model in the simplex's standard form, from model's public accessors.
milp::lp_problem standard_form(const milp::model& m) {
  milp::lp_problem lp;
  lp.num_vars = m.variable_count();
  lp.num_rows = m.constraint_count();
  const double sign = m.sense() == milp::objective_sense::minimize ? 1.0 : -1.0;
  for (int j = 0; j < lp.num_vars; ++j) {
    const milp::var_info& v = m.variable_at(j);
    lp.cost.push_back(sign * m.objective_coefficients()[static_cast<std::size_t>(j)]);
    lp.lower.push_back(v.lower);
    lp.upper.push_back(v.upper);
  }
  std::vector<std::map<int, double>> columns(static_cast<std::size_t>(lp.num_vars));
  for (int i = 0; i < lp.num_rows; ++i) {
    const milp::row_info& row = m.constraint_at(i);
    lp.row_lower.push_back(row.lower);
    lp.row_upper.push_back(row.upper);
    for (const auto& [var, coef] : row.terms)
      columns[static_cast<std::size_t>(var)][i] += coef;
  }
  lp.col_start.push_back(0);
  for (const auto& col : columns) {
    for (const auto& [row, coef] : col) {
      lp.row_index.push_back(row);
      lp.value.push_back(coef);
    }
    lp.col_start.push_back(static_cast<int>(lp.row_index.size()));
  }
  return lp;
}

/// Cold LP of the presolved root, and the LU kernel on its final basis.
struct lp_probe {
  double presolve_s = 0.0;
  double lp_s = 0.0;
  double lp_objective = 0.0; // user sense, with the objective constant
  bool lp_optimal = false;
  milp::simplex_stats stats;
  long iterations = 0;
  double factorize_ms = 0.0;
  double ftran_us = 0.0;
  double btran_us = 0.0;
  double fill_ratio = 0.0;
};

lp_probe probe_lp_kernel(const milp::model& m, tracer& t, int job) {
  lp_probe p;
  milp::lp_problem lp;
  std::vector<bool> is_integer;
  {
    const auto span = t.scope("standard form", "bench", job);
    lp = standard_form(m);
    for (const milp::var_info& v : m.variables())
      is_integer.push_back(v.kind != milp::var_kind::continuous);
  }
  auto t0 = bench_clock::now();
  milp::presolved_problem pre;
  {
    const auto span = t.scope("milp::presolve", "milp", job);
    pre = milp::presolve(lp, is_integer);
  }
  p.presolve_s = seconds_since(t0);
  if (pre.infeasible) return p;

  const milp::lp_problem& red = pre.reduced;
  milp::simplex_solver solver(red);
  t0 = bench_clock::now();
  milp::lp_result res;
  {
    const auto span = t.scope("simplex_solver::solve (cold)", "lp", job);
    res = solver.solve(deadline(unlimited_seconds), false);
  }
  p.lp_s = seconds_since(t0);
  p.lp_optimal = res.status == milp::lp_status::optimal;
  const double sign = m.sense() == milp::objective_sense::minimize ? 1.0 : -1.0;
  p.lp_objective = sign * res.objective + m.objective_constant();
  p.stats = solver.stats();
  p.iterations = res.iterations;

  // Final basis as sparse columns: structural columns from the reduced
  // problem, slack columns -e_row (the simplex's convention).
  const int n = red.num_vars;
  const int rows = red.num_rows;
  std::vector<milp::basis_lu::sparse_column> basis;
  std::size_t basis_nonzeros = 0;
  for (const int col : solver.basic_columns()) {
    milp::basis_lu::sparse_column c;
    if (col < n) {
      std::map<int, double> merged;
      for (int k = red.col_start[static_cast<std::size_t>(col)];
           k < red.col_start[static_cast<std::size_t>(col) + 1]; ++k)
        merged[red.row_index[static_cast<std::size_t>(k)]] +=
            red.value[static_cast<std::size_t>(k)];
      c.assign(merged.begin(), merged.end());
    } else {
      c.emplace_back(col - n, -1.0);
    }
    basis_nonzeros += c.size();
    basis.push_back(std::move(c));
  }
  milp::basis_lu lu;
  std::vector<double> factorize_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto span = t.scope("basis_lu::factorize", "lu", job);
    t0 = bench_clock::now();
    if (!lu.factorize(rows, basis)) return p;
    factorize_ms.push_back(seconds_since(t0) * 1e3);
  }
  p.factorize_ms = median(factorize_ms);
  p.fill_ratio = static_cast<double>(lu.factor_nonzeros()) /
                 static_cast<double>(std::max<std::size_t>(1, basis_nonzeros));
  // Right-hand sides: structural columns in turn (ftran), unit rows (btran).
  const int solves = 200;
  std::vector<double> rhs(static_cast<std::size_t>(rows), 0.0);
  std::vector<double> x;
  {
    const auto span = t.scope("basis_lu::ftran", "lu", job);
    t0 = bench_clock::now();
    for (int s = 0; s < solves; ++s) {
      const int col = s % std::max(1, n);
      std::fill(rhs.begin(), rhs.end(), 0.0);
      for (int k = red.col_start[static_cast<std::size_t>(col)];
           k < red.col_start[static_cast<std::size_t>(col) + 1]; ++k)
        rhs[static_cast<std::size_t>(red.row_index[static_cast<std::size_t>(k)])] +=
            red.value[static_cast<std::size_t>(k)];
      lu.ftran(rhs, x);
    }
    p.ftran_us = seconds_since(t0) * 1e6 / solves;
  }
  {
    const auto span = t.scope("basis_lu::btran", "lu", job);
    t0 = bench_clock::now();
    for (int s = 0; s < solves; ++s) {
      std::fill(rhs.begin(), rhs.end(), 0.0);
      rhs[static_cast<std::size_t>(s % std::max(1, rows))] = 1.0;
      lu.btran(rhs, x);
    }
    p.btran_us = seconds_since(t0) * 1e6 / solves;
  }
  return p;
}

} // namespace

void exact_setup_probe(const run_options& o) {
  tracer off(false, bench_clock::now());
  if (o.workload == "exact_root") {
    for (const root_job& j : root_jobs(o)) {
      const sched::scheduling_ilp ilp = build_root_model(j, off, 0);
      if (ilp.model.constraint_count() == 0) std::_Exit(1);
    }
  } else {
    for (const tree_job& j : tree_jobs(o)) {
      const api::pipeline p(j.graph, tree_options(j));
      if (p.graph().operation_count() == 0) std::_Exit(1);
    }
  }
  std::printf("ready\n");
  std::fflush(stdout);
}

double time_setup_probes(const run_options& o, int probes) {
  std::vector<double> ready;
  for (int i = 0; i < probes; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) return 0.0;
    const auto t0 = bench_clock::now();
    const pid_t pid =
        spawn({o.self_exe, "--setup-probe", "--workload", o.workload, "--seed",
               std::to_string(o.seed), "--tiny", o.tiny ? "1" : "0"},
              fds[1]);
    ::close(fds[1]);
    char c = 0;
    const bool got = pid > 0 && ::read(fds[0], &c, 1) == 1;
    const double seconds = seconds_since(t0);
    ::close(fds[0]);
    const int rc = pid > 0 ? wait_child(pid) : -1;
    if (!got || rc != 0) return 0.0;
    ready.push_back(seconds);
  }
  return median(ready);
}

void run_exact_tree(const run_options& o, run_report& r) {
  r["setup_s"] = time_setup_probes(o, setup_probes);
  if (r["setup_s"] <= 0.0) r.fail("setup probe failed");
  const std::vector<tree_job> jobs = tree_jobs(o);
  const auto origin = bench_clock::now();
  tracer t(o.trace, origin);

  std::vector<double> round_seconds, job_ms;
  std::map<std::string, std::vector<double>> layer_seconds;
  int job_id = 0;
  do {
    const auto round_start = bench_clock::now();
    double stages[4] = {0, 0, 0, 0};
    long nodes = 0;
    int cuts = 0, presolved = 0;
    double gap = 0.0;
    int ilp_jobs = 0;
    std::vector<double> serialize_ms, doc_kb;
    const bool first_round = round_seconds.empty();
    auto finish = [&](const std::string& name, const tree_outcome& out,
                      const api::pipeline_options& po) {
      ++r.attempted;
      job_ms.push_back(out.seconds * 1e3);
      for (int s = 0; s < 4; ++s) stages[s] += out.stage_seconds[s];
      if (!out.error.empty()) {
        r.fail(name + ": " + out.error);
        return;
      }
      serialize_ms.push_back(out.serialize_ms);
      doc_kb.push_back(out.doc_kb);
      if (first_round) add_quality(r, *out.flow, po);
    };
    for (const tree_job& j : jobs) {
      const api::pipeline_options po = tree_options(j);
      const api::pipeline p(j.graph, po);
      std::optional<api::scheduled> scheduled;
      double schedule_seconds = 0.0;
      std::string schedule_error;
      for (std::size_t e = 0; e < j.arch.size(); ++e) {
        const bool ilp = j.arch[e] == arch::synthesis_engine::ilp;
        const std::string name = j.name + (ilp ? "/arch-ilp" : "");
        tree_outcome out;
        const int job = job_id++;
        {
          const auto span = t.scope("job " + name, "bench", job);
          const auto t0 = bench_clock::now();
          if (e == 0) {
            auto s = [&] {
              const auto stage = t.scope("pipeline::schedule", "sched", job);
              return p.schedule();
            }();
            schedule_seconds = out.stage_seconds[0] = seconds_since(t0);
            if (!s.ok()) {
              schedule_error = "schedule: " + s.message();
            } else if (j.schedule == sched::schedule_engine::combined) {
              const sched::scheduling_result& sr = s.value().scheduling();
              if (!sr.used_ilp || sr.ilp_status != milp::solve_status::optimal) {
                schedule_error = "scheduling ILP not proven optimal";
              } else {
                nodes += sr.ilp_nodes;
                cuts += sr.ilp_cuts_added;
                presolved += sr.ilp_presolve_rows_removed;
                gap += (sr.ilp_objective - sr.ilp_root_bound) /
                       std::max(1.0, std::abs(sr.ilp_objective));
                ++ilp_jobs;
              }
            }
            if (s.ok()) scheduled = s.value();
          }
          if (!schedule_error.empty()) {
            out.error = schedule_error;
          } else {
            api::synthesize_overrides over;
            over.engine = j.arch[e];
            finish_tree_job(*scheduled, po, over, ilp, t, job, out);
          }
          out.seconds = seconds_since(t0);
        }
        if (first_round)
          r.notes.push_back(name + ": " + std::to_string(out.seconds) + " s" +
                            (e == 0 ? " (schedule " +
                                          std::to_string(schedule_seconds) + " s)"
                                    : ""));
        finish(name, out, po);
      }
    }
    round_seconds.push_back(seconds_since(round_start));
    layer_seconds["pipeline.schedule_s"].push_back(stages[0]);
    layer_seconds["pipeline.synthesize_s"].push_back(stages[1]);
    layer_seconds["pipeline.compress_s"].push_back(stages[2]);
    layer_seconds["pipeline.verify_s"].push_back(stages[3]);
    layer_seconds["milp.nodes_per_s"].push_back(
        stages[0] > 0.0 ? static_cast<double>(nodes) / stages[0] : 0.0);
    layer_seconds["serialize.flow_ms"].push_back(median(serialize_ms));
    if (first_round) {
      r["milp.nodes"] = static_cast<double>(nodes);
      r["milp.cuts_added"] = cuts;
      r["milp.presolve_rows_removed"] = presolved;
      r["milp.root_gap"] = gap / std::max(1, ilp_jobs);
      r["serialize.doc_kb"] = mean(doc_kb);
    } else if (r["milp.nodes"] != static_cast<double>(nodes)) {
      r.fail("tree search is not deterministic across rounds");
    }
  } while (another_round(seconds_since(origin), round_seconds, o.seconds));

  const double solve = median(round_seconds);
  r.notes.push_back(std::to_string(round_seconds.size()) + " round(s) of " +
                    std::to_string(r.attempted / static_cast<long>(round_seconds.size())) +
                    " jobs");
  r["solve_s"] = solve;
  r["req_per_s"] =
      static_cast<double>(r.attempted - r.failed) /
      (solve * static_cast<double>(round_seconds.size()));
  r["miss_p90_ms"] = percentile(job_ms, 0.90);
  r["peak_rss_mb"] = self_peak_rss_mb();
  r["ok_share"] = static_cast<double>(r.attempted - r.failed) /
                  static_cast<double>(std::max(1L, r.attempted));
  for (const auto& [name, v] : layer_seconds) r[name] = median(v);
  report_trace(o, r, t);
}

void run_exact_root(const run_options& o, run_report& r) {
  r["setup_s"] = time_setup_probes(o, setup_probes);
  if (r["setup_s"] <= 0.0) r.fail("setup probe failed");
  const std::vector<root_job> jobs = root_jobs(o);
  const auto origin = bench_clock::now();
  tracer t(o.trace, origin);

  struct first_solve {
    double root_bound = 0.0;
    long iterations = 0;
    double seconds = 0.0;
  };
  std::map<std::string, first_solve> first;
  std::vector<double> round_seconds, job_ms, build_s, root_s;
  int job_id = 0;
  do {
    const auto round_start = bench_clock::now();
    double build = 0.0, root = 0.0;
    for (const root_job& j : jobs) {
      ++r.attempted;
      const root_solve rs = solve_root(j, t, job_id++);
      build += rs.build_s;
      root += rs.root_s;
      job_ms.push_back((rs.build_s + rs.root_s) * 1e3);
      const std::string error = root_error(rs);
      if (!error.empty()) {
        r.fail(j.name + ": " + error);
        continue;
      }
      const milp::solution& sol = rs.sol;
      if (!first.emplace(j.name, first_solve{sol.root_bound, sol.simplex_iterations,
                                             rs.root_s})
               .second)
        continue;
      r["exec_time_sum"] += sol.value(rs.ilp.makespan);
      r["milp.root_bound_sum"] += sol.root_bound;
      r["milp.simplex_iterations"] += static_cast<double>(sol.simplex_iterations);
      r["milp.strong_branch_probes"] += static_cast<double>(sol.strong_branch_probes);
      r["milp.cut_rounds"] += sol.cut_rounds;
      r["milp.cuts_added"] += sol.cuts_added;
      r["milp.presolve_rows_removed"] += sol.presolve_rows_removed;
      r["milp.nodes"] += static_cast<double>(sol.nodes_explored);
    }
    round_seconds.push_back(seconds_since(round_start));
    build_s.push_back(build);
    root_s.push_back(root);
  } while (another_round(seconds_since(origin), round_seconds, o.seconds));
  // Read before the checks below, which allocate models and LP copies of
  // their own.
  r["peak_rss_mb"] = self_peak_rss_mb();

  const double solve = median(round_seconds);
  r.notes.push_back(std::to_string(round_seconds.size()) + " round(s) of " +
                    std::to_string(jobs.size()) + " jobs");
  r["solve_s"] = solve;
  r["req_per_s"] = static_cast<double>(r.attempted - r.failed) /
                   (solve * static_cast<double>(round_seconds.size()));
  // Nearest-rank p90 of two jobs per round: the slower job's time.
  r["miss_p90_ms"] = percentile(job_ms, 0.90);
  r["milp.build_s"] = median(build_s);

  // Outside the measured window. The root phase must repeat: the quickest
  // formulation is solved once more (a second CPA root phase would double
  // the run) and must give the same root bound and iteration count.
  const root_job* again = nullptr;
  for (const root_job& j : jobs)
    if (first.count(j.name) != 0 &&
        (again == nullptr || first[j.name].seconds < first[again->name].seconds))
      again = &j;
  if (again != nullptr) {
    ++r.attempted;
    const root_solve rs = solve_root(*again, t, job_id++);
    const first_solve& f = first[again->name];
    if (rs.sol.root_bound != f.root_bound || rs.sol.simplex_iterations != f.iterations)
      r.fail(again->name + ": root phase is not deterministic across solves");
  }

  // The cold root LP of each formulation (the root bound must not fall
  // below it) and the LU kernel on its basis.
  double presolve = 0.0, lp = 0.0;
  for (const root_job& j : jobs) {
    if (first.count(j.name) == 0) continue;
    const int job = job_id++;
    const auto span = t.scope("probe " + j.name, "bench", job);
    const lp_probe p = probe_lp_kernel(build_root_model(j, t, job).model, t, job);
    const double bound = first[j.name].root_bound;
    if (!p.lp_optimal)
      r.fail(j.name + ": cold root LP not optimal");
    else if (p.lp_objective > bound + 1e-6 * std::max(1.0, std::abs(bound)))
      r.fail(j.name + ": cold LP objective above the root bound");
    presolve += p.presolve_s;
    lp += p.lp_s;
    r["milp.root_bound_lift"] += bound - p.lp_objective;
    r["lp.iterations"] += static_cast<double>(p.iterations);
    r["lp.factorizations"] += static_cast<double>(p.stats.lu_factorizations);
    r["lp.dense_fallbacks"] += static_cast<double>(p.stats.dense_fallbacks);
    r["lp.primal_fallbacks"] += static_cast<double>(p.stats.primal_fallbacks);
    r["lu.factorize_ms"] += p.factorize_ms;
    r["lu.ftran_us"] += p.ftran_us;
    r["lu.btran_us"] += p.btran_us;
    r["lu.fill_ratio"] = std::max(r["lu.fill_ratio"], p.fill_ratio);
  }
  r["milp.presolve_s"] = presolve;
  r["lp.root_s"] = lp;
  r["lp.pivots_per_factorization"] =
      r["lp.iterations"] / std::max(1.0, r["lp.factorizations"]);
  // Derived, not measured: root phase minus presolve and the cold LP.
  r["milp.cut_loop_s"] = std::max(0.0, median(root_s) - presolve - lp);
  r["ok_share"] = static_cast<double>(r.attempted - r.failed) /
                  static_cast<double>(std::max(1L, r.attempted));
  report_trace(o, r, t);
}

} // namespace transbench
