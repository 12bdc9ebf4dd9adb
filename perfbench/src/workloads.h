// The four benchmark workloads. Each repetition of a workload runs one or
// more cases (table1 has eight, the others one); every case walks the same
// phases, so the driver can time, trace and check all of them alike.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/mem/memory_channel.h"
#include "src/route/prefix.h"
#include "src/route/route_table.h"
#include "src/vrp/isa.h"

namespace perfbench {

// What the standalone layer timings replay: the case's route table and
// destination stream, its installed VRP programs and the MPs they see, and
// its memory channels' configuration.
struct LayerInputs {
  std::vector<std::pair<npr::Prefix, npr::RouteEntry>> routes;
  std::vector<uint32_t> dsts;
  std::vector<npr::VrpProgram> programs;
  std::vector<std::vector<uint8_t>> mps;
  npr::MemoryChannelConfig dram;
  npr::MemoryChannelConfig sram;
  npr::MemoryChannelConfig scratch;
  bool has_memory = false;
};

class Case {
 public:
  virtual ~Case() = default;

  virtual const char* name() const = 0;

  // Setup phases, in order; each is one span of the traced run. Start also
  // attaches the governor/health monitor and builds the traffic sources.
  virtual void Construct() = 0;
  virtual void Routes() = 0;
  virtual void Install() = 0;
  virtual void Start() = 0;

  // Simulated warm-up, then slices() timed RunFor calls, then the drain to
  // quiescence (or to the end of the configured run).
  virtual void Warm() = 0;
  virtual int slices() const = 0;
  virtual void Slice() = 0;
  virtual void Drain() = 0;

  virtual Counters Read() = 0;
  // After Drain. Check returns "" when every correctness check passes.
  virtual std::string Check() = 0;
  virtual std::string Digest() = 0;
  // Offered packets neither transmitted nor in a named drop counter.
  virtual uint64_t Unaccounted() = 0;
  virtual void Inputs(LayerInputs* out) { (void)out; }
};

const std::vector<std::string>& WorkloadNames();
// Repetitions are timed single-threaded. A workload with a parallel mode
// (cluster8) is also run once at this many threads, min(4, nproc), and must
// reproduce the single-threaded digest; 1 means no such run.
int CheckThreads(const std::string& workload);
// The cases of one repetition; empty for an unknown workload name.
std::vector<std::unique_ptr<Case>> MakeCases(const std::string& workload, uint64_t seed,
                                             int threads);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
