#include "perfbench/src/layer_timings.h"

#include <cstdint>
#include <span>

#include "src/ixp/hash_unit.h"
#include "src/mem/backing_store.h"
#include "src/mem/memory_channel.h"
#include "src/route/route_table.h"
#include "src/sim/event_queue.h"
#include "src/vrp/interpreter.h"

namespace perfbench {
namespace {

// Keeps the optimizer from discarding results the probes never use.
volatile uint64_t g_sink = 0;

constexpr int kMemPackets = 20'000;
constexpr int kLookupRounds = 50;
constexpr int kVrpRounds = 20;

void Done(void* ctx) { ++*static_cast<uint64_t*>(ctx); }

// Issues `ops` accesses (carrying the fraction over in *carry), reads with
// a completion event and writes posted, as the stage loops do.
uint64_t IssueShare(npr::MemoryChannel& ch, double ops, uint32_t bytes, double* carry,
                    uint64_t* completions) {
  *carry += ops;
  uint64_t issued = 0;
  while (*carry >= 1.0) {
    *carry -= 1.0;
    const bool write = (issued & 1) != 0;
    ch.Issue(bytes, write, write ? npr::EventFn() : npr::EventFn(&Done, completions));
    ++issued;
  }
  return issued;
}

}  // namespace

double MemIssueNs(const LayerInputs& in, const MemoryMix& mix) {
  if (!in.has_memory) {
    return 0.0;
  }
  npr::EventQueue engine;
  npr::MemoryChannel dram(engine, in.dram);
  npr::MemoryChannel sram(engine, in.sram);
  npr::MemoryChannel scratch(engine, in.scratch);
  const uint32_t dram_bytes = static_cast<uint32_t>(mix.dram_bytes_per_op + 0.5);
  double carry[3] = {};
  uint64_t completions = 0;
  uint64_t issued = 0;
  const double t0 = WallNow();
  for (int p = 0; p < kMemPackets; ++p) {
    issued += IssueShare(dram, mix.dram_ops, dram_bytes, &carry[0], &completions);
    issued += IssueShare(sram, mix.sram_ops, 4, &carry[1], &completions);
    issued += IssueShare(scratch, mix.scratch_ops, 4, &carry[2], &completions);
    engine.RunAll();
  }
  const double t1 = WallNow();
  g_sink = g_sink + completions;
  return issued == 0 ? 0.0 : (t1 - t0) * 1e9 / static_cast<double>(issued);
}

double RouteLookupNs(const LayerInputs& in) {
  if (in.routes.empty() || in.dsts.empty()) {
    return 0.0;
  }
  npr::RouteTable table;
  for (const auto& [prefix, entry] : in.routes) {
    table.AddRoute(prefix, entry);
  }
  uint64_t ports = 0;
  const double t0 = WallNow();
  for (int round = 0; round < kLookupRounds; ++round) {
    for (uint32_t dst : in.dsts) {
      const auto result = table.Lookup(dst);
      ports += result.entry ? result.entry->out_port : 0xff;
    }
  }
  const double t1 = WallNow();
  g_sink = g_sink + ports;
  return (t1 - t0) * 1e9 / static_cast<double>(kLookupRounds * in.dsts.size());
}

double VrpRunNs(const LayerInputs& in) {
  if (in.programs.empty() || in.mps.empty()) {
    return 0.0;
  }
  npr::BackingStore sram("sram", 1u << 20);
  npr::HashUnit hash;
  npr::VrpInterpreter vrp(sram, hash);
  std::vector<std::vector<uint8_t>> mps = in.mps;
  uint64_t actions = 0;
  uint64_t runs = 0;
  const double t0 = WallNow();
  for (int round = 0; round < kVrpRounds; ++round) {
    for (size_t i = 0; i < in.programs.size(); ++i) {
      const uint32_t state_addr = 0x1000 + static_cast<uint32_t>(i) * 0x100;
      for (std::vector<uint8_t>& mp : mps) {
        actions += static_cast<uint64_t>(vrp.Run(in.programs[i], std::span<uint8_t>(mp),
                                                 state_addr).action);
        ++runs;
      }
    }
  }
  const double t1 = WallNow();
  g_sink = g_sink + actions;
  return (t1 - t0) * 1e9 / static_cast<double>(runs);
}

}  // namespace perfbench
