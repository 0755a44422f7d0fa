// perfbench: the repository benchmark binary. Usually launched through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload point_read|scan_update|fleet_route --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is the result object; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() != "0";
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (opts.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  if (opts.smoke) opts.seconds = 1;
  perfbench::HostSteal();  // sample host CPU steal from the start
  if (opts.workload == "point_read") return perfbench::RunPointRead(opts);
  if (opts.workload == "scan_update") return perfbench::RunScanUpdate(opts);
  if (opts.workload == "fleet_route") return perfbench::RunFleetRoute(opts);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               opts.workload.c_str());
  return 2;
}
