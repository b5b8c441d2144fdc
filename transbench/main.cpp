// transbench: runs one benchmark workload and prints its metrics.
//
//   transbench --workload serve_mix|exact_tree|exact_root --seed N
//              --seconds S --trace 0|1 --cli PATH --out-dir DIR [--tiny 1]
//
// Normally started by run.py, which builds this binary and transtore_cli
// first. The last stdout line is the JSON result (see report.h).
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace transbench;
  run_options o;
  bool setup_probe = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--setup-probe") {
      setup_probe = true;
      continue;
    }
    if (a + 1 >= argc) {
      std::fprintf(stderr, "transbench: missing value for %s\n", arg.c_str());
      return 2;
    }
    const std::string value = argv[++a];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::atof(value.c_str());
    else if (arg == "--trace") o.trace = value == "1";
    else if (arg == "--tiny") o.tiny = value == "1";
    else if (arg == "--cli") o.cli = value;
    else if (arg == "--out-dir") o.out_dir = value;
    else {
      std::fprintf(stderr, "transbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (o.workload != "serve_mix" && o.workload != "exact_tree" &&
      o.workload != "exact_root") {
    std::fprintf(stderr, "transbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  // Setup probes re-run this binary: argv[0] must be a path (run.py passes
  // an absolute one), not a name looked up in PATH.
  o.self_exe = argv[0];
  if (o.self_exe.find('/') == std::string::npos) {
    std::fprintf(stderr, "transbench: start it by path, not by name\n");
    return 2;
  }

  try {
    if (setup_probe) {
      exact_setup_probe(o);
      return 0;
    }
    if (o.out_dir.empty() || o.seconds <= 0.0 ||
        (o.workload == "serve_mix" && o.cli.empty())) {
      std::fprintf(stderr, "transbench: --out-dir, --seconds > 0 and (for "
                           "serve_mix) --cli are required\n");
      return 2;
    }
    ::mkdir(o.out_dir.c_str(), 0755);
    run_report r;
    r.workload = o.workload;
    if (o.workload == "serve_mix") run_serve_mix(o, r);
    else if (o.workload == "exact_tree") run_exact_tree(o, r);
    else run_exact_root(o, r);
    r.print(o.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "transbench: %s\n", e.what());
    return 1;
  }
}
