// Timing model for one memory (DRAM, SRAM, or Scratch).
//
// A channel is a single FIFO server: an access occupies the memory bus for
// ceil(bytes / width) bus cycles and completes after an additional fixed
// pipeline latency. Unloaded round-trip latencies therefore match the
// paper's Table 3 measurements, while sustained throughput saturates at the
// bus's peak bandwidth — which is what makes latency hiding by parallel
// hardware contexts (and its failure under contention) emerge naturally.

#ifndef SRC_MEM_MEMORY_CHANNEL_H_
#define SRC_MEM_MEMORY_CHANNEL_H_

#include <cstdint>
#include <string>
#include <utility>

#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace npr {

class FaultInjector;

struct MemoryChannelConfig {
  std::string name;
  // Bytes moved per bus cycle (DRAM: 8, SRAM/Scratch: 4).
  uint32_t width_bytes = 4;
  // Duration of one bus cycle.
  SimTime bus_cycle_ps = 10000;
  // Fixed pipeline latency added after the bus transfer completes.
  SimTime read_latency_ps = 0;
  SimTime write_latency_ps = 0;
  // Observability: which WaitClass a context blocked on this channel is
  // charged to (raw value of npr::WaitClass; plain int here so mem/ does
  // not depend on obs/). Defaults to kOther.
  uint8_t profile_class = 6;
};

class MemoryChannel {
 public:
  MemoryChannel(EventQueue& engine, MemoryChannelConfig config);

  MemoryChannel(const MemoryChannel&) = delete;
  MemoryChannel& operator=(const MemoryChannel&) = delete;

  // Issues an access of `bytes` bytes. `done` runs (via the event queue)
  // when the access completes; it may be empty for posted writes the issuer
  // does not wait on. Returns the completion time. Hot issuers pass no
  // `done` and schedule their own wake-up at the returned time (ScheduleRaw
  // or ScheduleResume): Issue schedules nothing else, so the wake-up gets
  // the sequence number `done` would have had.
  SimTime Issue(uint32_t bytes, bool is_write, EventFn done) {
    const SimTime done_at = IssueAt(bytes, is_write);
    if (done) {
      engine_.Schedule(done_at, std::move(done));
    }
    return done_at;
  }

  // Coalesces `n` back-to-back accesses of `bytes_each` issued at this
  // instant into one scheduled event: the per-access arithmetic (queue-wait
  // samples, busy-timeline advance, fault spikes, byte and op counters) is
  // identical to n sequential Issue calls, but only the final completion is
  // scheduled. `done` (optional) runs when the last access completes.
  // Returns that completion time.
  SimTime IssueBurst(uint32_t n, uint32_t bytes_each, bool is_write, EventFn done);

  // Round-trip latency an access issued right now would see (queueing
  // included), without actually issuing it. Computed from the same
  // busy-timeline helper Issue uses, so Peek and a subsequent Issue at the
  // same instant always agree (fault spikes excepted: they are drawn at
  // Issue time and extend the returned completion, never shorten it).
  SimTime PeekLatency(uint32_t bytes, bool is_write) const;

  // Unloaded round-trip latency for an access of `bytes` bytes.
  SimTime UnloadedLatency(uint32_t bytes, bool is_write) const;

  const MemoryChannelConfig& config() const { return config_; }

  // Fault injection: adds deterministic latency spikes to accesses.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  // --- statistics ---
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t bytes_moved() const { return bytes_moved_; }
  // Fraction of [window_start, now] the bus spent busy.
  double Utilization(SimTime window_start) const;
  // Queueing delay (time from issue to bus grant) over every access since
  // the last ResetStats, in ps: one sample per access, so there are
  // reads() + writes() of them.
  SimTime queue_wait_sum_ps() const { return queue_wait_sum_ps_; }
  SimTime queue_wait_max_ps() const { return queue_wait_max_ps_; }

  void ResetStats();

 private:
  SimTime Occupancy(uint32_t bytes) const;
  // The single definition of "when does the bus grant an access issued at
  // `at`": both Issue and PeekLatency go through here.
  SimTime GrantWait(SimTime at) const { return busy_until_ > at ? busy_until_ - at : 0; }
  // Books one access at now() on the busy timeline and the counters;
  // returns its completion time. Schedules nothing.
  SimTime IssueAt(uint32_t bytes, bool is_write);

  EventQueue& engine_;
  MemoryChannelConfig config_;
  FaultInjector* fault_ = nullptr;
  SimTime busy_until_ = 0;
  SimTime busy_accum_ = 0;

  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t bytes_moved_ = 0;
  SimTime queue_wait_sum_ps_ = 0;
  SimTime queue_wait_max_ps_ = 0;
};

}  // namespace npr

#endif  // SRC_MEM_MEMORY_CHANNEL_H_
