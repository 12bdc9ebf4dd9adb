// Standalone host-time probes for single layers, replaying what a workload
// fed them: memory-channel issues, route-table lookups, VRP program runs.

#ifndef PERFBENCH_SRC_LAYER_TIMINGS_H_
#define PERFBENCH_SRC_LAYER_TIMINGS_H_

#include "perfbench/src/workloads.h"

namespace perfbench {

// Per-packet memory traffic of the workload, from its traced repetitions.
struct MemoryMix {
  double dram_ops = 0;
  double sram_ops = 0;
  double scratch_ops = 0;
  double dram_bytes_per_op = 8;
};

// Each returns host nanoseconds per operation (0 when the workload gave the
// probe nothing to replay).
double MemIssueNs(const LayerInputs& in, const MemoryMix& mix);
double RouteLookupNs(const LayerInputs& in);
double VrpRunNs(const LayerInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYER_TIMINGS_H_
