// The benchmark's three workloads. Each builds its inputs from
// options.seed, times its own set-up and phases, checks every answer, and
// fills the end-to-end metrics (untraced) or the per-layer ones (traced).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "analyst.h"
#include "bench_util.h"
#include "trace.h"

namespace perfbench {

WorkloadResult RunAdDashboard(const Options& options, Metrics& metrics, LayerStats& layers,
                              Checker& checker);
WorkloadResult RunBdbBatch(const Options& options, Metrics& metrics, LayerStats& layers,
                           Checker& checker);
WorkloadResult RunServeIngest(const Options& options, Metrics& metrics, LayerStats& layers,
                              Checker& checker);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
