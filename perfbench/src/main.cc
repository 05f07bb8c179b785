// seabed_perfbench: the host-measured benchmark program (see ../README.md).
//
//   seabed_perfbench --workload ad_dashboard|bdb_batch|serve_ingest
//                    --seed N --seconds S --trace 0|1
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones.
#include <iostream>

#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = ParseOptions(argc, argv);
  if (options.plain && options.trace) {
    std::cerr << "seabed_perfbench: --plain has no layers to trace\n";
    return 2;
  }
  Metrics metrics;
  LayerStats layers;
  Checker checker(options.fault);
  WorkloadResult result;
  if (options.workload == "ad_dashboard") {
    result = RunAdDashboard(options, metrics, layers, checker);
  } else if (options.workload == "bdb_batch") {
    result = RunBdbBatch(options, metrics, layers, checker);
  } else if (options.workload == "serve_ingest") {
    result = RunServeIngest(options, metrics, layers, checker);
  } else {
    std::cerr << "seabed_perfbench: unknown workload " << options.workload << "\n";
    return 2;
  }
  // A traced run reports the per-layer metrics only; the end-to-end ones it
  // measured are inflated by the tracing and are dropped.
  Metrics layer_metrics;
  layers.WriteTo(layer_metrics);
  std::cout << "{\"correct\": " << (checker.ok() && result.attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": " << (options.trace ? layer_metrics : metrics).ToJson() << "}"
            << std::endl;
  return 0;
}
