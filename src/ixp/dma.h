// DMA state machines moving MAC-packets between port memory and the FIFOs
// over the shared IX bus (§2.2, §3.2).
//
// There is a single receive DMA state machine (requests to it are not
// hardware-serialized — hence the input token ring) and a transmit DMA that
// drains output FIFO slots in strict circular order. Both contend for the
// one 64-bit x 66 MHz IX bus, which this model represents as a shared
// MemoryChannel.

#ifndef SRC_IXP_DMA_H_
#define SRC_IXP_DMA_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "src/ixp/hw_config.h"
#include "src/mem/memory_channel.h"
#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"

namespace npr {

class DmaEngine {
 public:
  // Both DMA front-ends share `ix_bus`.
  DmaEngine(EventQueue& engine, MemoryChannel& ix_bus, uint32_t setup_cycles)
      : engine_(engine), ix_bus_(ix_bus), setup_cycles_(setup_cycles) {}

  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  // Starts a transfer of `bytes` bytes; `done` runs when the data has fully
  // crossed the IX bus. Transfers queue FIFO on the bus. The pending request
  // rides in a deque rather than the setup event's capture so the event
  // itself stays allocation-free; setup delays are identical, so completions
  // pop in issue order.
  //
  // Note: folding the setup delay into the bus issue itself (measuring the
  // queue wait against the busy timeline at now + setup, with no setup
  // event) produces arithmetically identical completion times, but enqueues
  // the completion event earlier — which reorders same-instant event ties
  // under contention and breaks bit-identical replay. The two-event shape
  // is kept deliberately.
  void Transfer(uint32_t bytes, EventFn done) {
    pending_.push_back(Pending{bytes, std::move(done)});
    engine_.ScheduleRaw(engine_.now() + kIxpClock.ToTime(setup_cycles_), &DmaEngine::IssueHead,
                        this);
  }

  uint64_t transfers() const { return ix_bus_.writes(); }

 private:
  struct Pending {
    uint32_t bytes;
    EventFn done;
  };

  static void IssueHead(void* self_raw) {
    auto* self = static_cast<DmaEngine*>(self_raw);
    Pending p = std::move(self->pending_.front());
    self->pending_.pop_front();
    self->ix_bus_.Issue(p.bytes, /*is_write=*/true, std::move(p.done));
  }

  EventQueue& engine_;
  MemoryChannel& ix_bus_;
  const uint32_t setup_cycles_;
  std::deque<Pending> pending_;
};

// Builds the IX-bus channel from the hardware config.
inline MemoryChannelConfig MakeIxBusConfig(const HwConfig& hw) {
  return MemoryChannelConfig{
      .name = "ix_bus",
      .width_bytes = hw.ix_bus_width_bytes,
      .bus_cycle_ps = hw.ix_bus_cycle_ps,
      .read_latency_ps = 0,
      .write_latency_ps = 0,
  };
}

}  // namespace npr

#endif  // SRC_IXP_DMA_H_
