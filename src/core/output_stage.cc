#include "src/core/output_stage.h"

#include <algorithm>
#include <cassert>

#include "src/fault/fault_injector.h"
#include "src/obs/observer.h"

namespace npr {

namespace {
uint8_t ObsUnitOf(const HwContext& ctx) {
  return ContextUnit(static_cast<uint8_t>(ctx.engine().id()), static_cast<uint8_t>(ctx.index()));
}
}  // namespace

OutputStage::OutputStage(RouterCore& core)
    : core_(core), ring_(*core.engine, core.config->hw.token_pass_cycles) {}

void OutputStage::Start() {
  const RouterConfig& cfg = *core_.config;
  const int n_ctx = cfg.output_contexts();
  const int per_me = cfg.hw.contexts_per_me;
  const int n_me = (n_ctx + per_me - 1) / per_me;
  // Output MicroEngines come after the input stage's allocation.
  const int first_me = (cfg.input_contexts() + per_me - 1) / per_me;
  assert(first_me + n_me <= core_.chip->num_mes());

  members_.clear();
  streaming_.assign(static_cast<size_t>(n_ctx), Streaming{});
  for (int r = 0; r < n_ctx; ++r) {
    const int me = first_me + r % n_me;
    const int slot = r / n_me;
    members_.push_back(&core_.chip->me(me).context(slot));
  }
  member_index_.clear();
  for (int r = 0; r < n_ctx; ++r) {
    member_index_.push_back(ring_.AddMember(*members_[static_cast<size_t>(r)]));
  }
  if (cfg.output_fake_data) {
    // Build the eternal template packet once; the fake descriptor's buffer
    // is never re-allocated, so the lap check always passes.
    BufferMeta meta;
    meta.packet_id = 0;
    meta.ingress_time = 0;
    fake_desc_.buffer_addr = core_.buffers->Allocate(meta);
    fake_desc_.generation = core_.buffers->MetaFor(fake_desc_.buffer_addr).generation;
    fake_desc_.mp_count = 1;
    fake_desc_.frame_bytes = 64;
    fake_desc_.out_port = 0;
    fake_ready_ = true;
  }

  for (int r = 0; r < n_ctx; ++r) {
    HwContext* ctx = members_[static_cast<size_t>(r)];
    ctx->Install(ContextLoop(*ctx, member_index_[static_cast<size_t>(r)], r));
  }
}

void OutputStage::RestartContext(int out_ctx_index) {
  const int member = member_index_[static_cast<size_t>(out_ctx_index)];
  HwContext* ctx = members_[static_cast<size_t>(out_ctx_index)];
  // Idempotent: the health monitor and the scheduled restart can race; only
  // the first one reinstalls the loop (a crash marks the member down before
  // its loop co_returns, so member-up means the context is live).
  if (!ring_.member_down(member)) {
    return;
  }
  core_.stats->context_restarts += 1;
  ring_.SetMemberDown(member, false);
  ctx->Install(ContextLoop(*ctx, member, out_ctx_index));
}

void OutputStage::RecoverContext(int out_ctx_index) { RestartContext(out_ctx_index); }

bool OutputStage::ContextDown(int out_ctx_index) const {
  return ring_.member_down(member_index_[static_cast<size_t>(out_ctx_index)]);
}

SimTime OutputStage::ContextDownSincePs(int out_ctx_index) const {
  return ring_.member_down_since_ps(member_index_[static_cast<size_t>(out_ctx_index)]);
}

int OutputStage::active_streams() const {
  int n = 0;
  for (const Streaming& s : streaming_) {
    n += s.active ? 1 : 0;
  }
  return n;
}

void OutputStage::DeliverMpToPort(uint8_t port, const Mp& mp) {
  if (core_.config->port_mode == PortMode::kReal &&
      port < static_cast<uint8_t>(core_.ports.size())) {
    core_.ports[port]->TxAccept(mp);
  }
}

void OutputStage::DeliverHeadFromDma() {
  auto [port, mp] = std::move(dma_in_flight_.front());
  dma_in_flight_.pop_front();
  DeliverMpToPort(port, mp);
}

void OutputStage::CompletePacket(const PacketDescriptor& desc) {
  RouterStats& stats = *core_.stats;
  stats.forwarded += 1;
  stats.forward_rate.Record(core_.engine->now());
  const BufferMeta& meta = BufferMetaFor(core_, desc.buffer_addr);
  if (meta.ingress_time > 0) {
    const SimTime latency = core_.engine->now() - meta.ingress_time;
    stats.latency_ns.Add(static_cast<uint64_t>(latency / kPsPerNs));
  }
}

Task OutputStage::ContextLoop(HwContext& ctx, int member, int out_ctx_index) {
  const RouterConfig& cfg = *core_.config;
  const StageCosts& costs = cfg.costs;
  MemorySystem& mem = core_.chip->memory();
  StageStats& st = core_.stats->output;
  Streaming& cur = streaming_[static_cast<size_t>(out_ctx_index)];
  const auto& queues = core_.queues->QueuesForOutputContext(out_ctx_index);
  const uint32_t batch_max = 8;

  for (;;) {
    // Crash-safe point: no token is held. A mid-stream packet survives in
    // streaming_[out_ctx_index] and resumes after the restart.
    if (core_.fault != nullptr && core_.fault->ShouldCrashContext()) {
      core_.stats->context_crashes += 1;
      NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kFault, 0, ObsUnitOf(ctx),
                                     static_cast<uint16_t>(FaultKind::kContextCrash)));
      ring_.SetMemberDown(member, true);
      // A lost restart leaves the context down until a health monitor (if
      // attached) reinstalls it.
      if (!core_.fault->ShouldLoseRestart()) {
        OutputStage* self = this;
        core_.engine->ScheduleIn(core_.fault->context_restart_ps(),
                                 [self, out_ctx_index] { self->RestartContext(out_ctx_index); });
      }
      co_return;
    }
    // Token critical section: keep the strictly ordered transmit FIFO
    // slots in rotation (§3.3).
    co_await ring_.Acquire(member);
    co_await ctx.Compute(costs.out_cs + cfg.hw.output_token_overhead_cycles);
    st.reg_cycles += costs.out_cs;
    ring_.Release(member);

    if (!cur.active) {
      // select_queue (§3.4.1): fixed priority order over this context's
      // queues, with discipline-specific check costs.
      uint32_t select_cost = costs.out_select_queue;
      switch (cfg.output_servicing) {
        case OutputServicing::kSingleQueueBatching:
          if (cur.batch_remaining == 0) {
            // Head check once per batch (§3.4.3 batching optimization).
            co_await ctx.Read(mem.scratch(), 4);
            st.scratch_reads += 1;
          }
          break;
        case OutputServicing::kSingleQueueNoBatching:
          co_await ctx.Read(mem.scratch(), 4);
          st.scratch_reads += 1;
          select_cost += costs.out_head_check_cycles;
          break;
        case OutputServicing::kMultiQueueIndirection:
          // One readiness-word read summarizes all queues (§3.4.3).
          co_await ctx.Read(mem.scratch(), 4);
          st.scratch_reads += 1;
          select_cost += costs.out_indirection_cycles;
          break;
      }
      co_await ctx.Compute(select_cost);
      st.reg_cycles += select_cost;

      PacketQueue* chosen = nullptr;
      for (PacketQueue* q : queues) {
        if (q->empty()) {
          continue;
        }
        if (cfg.port_mode == PortMode::kReal) {
          const uint8_t port = core_.queues->PortOf(*q);
          if (port < core_.ports.size() && !core_.ports[port]->TxReady()) {
            continue;  // MAC backed up: keep pace with the line (§3.1)
          }
        }
        chosen = q;
        break;
      }
      const bool use_fake = chosen == nullptr && fake_ready_;
      if (chosen == nullptr && !use_fake) {
        core_.stats->output_idle_iters += 1;
        cur.batch_remaining = 0;
        co_await ctx.Compute(costs.out_loop);
        st.reg_cycles += costs.out_loop;
        co_await ctx.Yield();
        continue;
      }
      if (cfg.output_servicing == OutputServicing::kSingleQueueBatching &&
          cur.batch_remaining == 0) {
        cur.batch_remaining = use_fake
                                  ? batch_max
                                  : static_cast<uint32_t>(
                                        std::min<uint64_t>(chosen->size(), batch_max));
      }

      // Dequeue: descriptors are fetched in 16-byte SRAM bursts, one burst
      // per `dequeue_burst` packets.
      co_await ctx.Compute(costs.out_dequeue);
      st.reg_cycles += costs.out_dequeue;
      if (cur.pops_since_burst == 0) {
        co_await ctx.Read(mem.sram(), 16);
        st.sram_reads += 1;
      }
      cur.pops_since_burst = (cur.pops_since_burst + 1) % costs.dequeue_burst;
      ctx.Post(mem.sram(), 4);  // consume marker / queue credit
      st.sram_writes += 1;

      std::optional<PacketDescriptor> desc;
      if (use_fake) {
        desc = fake_desc_;
        desc->out_port = static_cast<uint8_t>(out_ctx_index % cfg.num_ports());
      } else {
        desc = chosen->Pop();
      }
      if (!desc) {
        continue;
      }
      if (!use_fake && chosen->empty() &&
          cfg.output_servicing == OutputServicing::kMultiQueueIndirection) {
        core_.queues->ClearReady(*chosen);
      }
      if (cur.batch_remaining > 0) {
        cur.batch_remaining -= 1;
      }

      // Buffer-lap check (§3.2.3): if the circular allocator already reused
      // this buffer, the packet is gone. (The stack pool has no such
      // hazard — lifetimes are explicit.)
      if (!BufferStillValid(core_, *desc)) {
        core_.stats->lost_overwritten += 1;
        core_.stats->output_lost_iters += 1;
        // The span carries the *successor* packet's id: the lapped packet's
        // id went with the overwritten buffer.
        NPR_OBS_HOOK(core_.obs,
                     Record(SpanPoint::kOutLostLap, BufferMetaFor(core_, desc->buffer_addr).packet_id,
                            ObsUnitOf(ctx), desc->out_port));
        continue;
      }
      cur.active = true;
      cur.desc = *desc;
      cur.next_mp = 0;
      cur.queue = chosen;
      NPR_OBS_HOOK(core_.obs,
                   Record(SpanPoint::kOutDequeued, BufferMetaFor(core_, desc->buffer_addr).packet_id,
                          ObsUnitOf(ctx), desc->out_port));
    }

    // Stream one MP: DRAM -> OUT_FIFO (two 32-byte reads), then enable the
    // slot for the transmit DMA.
    co_await ctx.Compute(costs.out_copy);
    st.reg_cycles += costs.out_copy;
    const uint32_t mp_addr = cur.desc.buffer_addr + static_cast<uint32_t>(cur.next_mp) * 64;
    // Two back-to-back 32-byte references issued as one pipelined burst:
    // the context swaps out once, not twice.
    co_await ctx.Read(mem.dram(), 64);
    st.dram_reads += 2;
    // Tail/slot bookkeeping in Scratch (Table 2: 2 reads / 2 writes per MP,
    // one read charged here and one in selection above on average).
    co_await ctx.Read(mem.scratch(), 4);
    st.scratch_reads += 1;
    ctx.PostBurst(mem.scratch(), 2, 4);
    st.scratch_writes += 2;

    Mp mp;
    mem.dram_store().Read(mp_addr, std::span<uint8_t>(mp.data));
    const BufferMeta& meta = BufferMetaFor(core_, cur.desc.buffer_addr);
    mp.tag.port = cur.desc.out_port;
    mp.tag.sop = cur.next_mp == 0;
    mp.tag.eop = cur.next_mp + 1 == cur.desc.mp_count;
    const uint32_t offset = static_cast<uint32_t>(cur.next_mp) * 64;
    mp.tag.bytes = static_cast<uint16_t>(
        std::min<uint32_t>(64, static_cast<uint32_t>(cur.desc.frame_bytes) - offset));
    mp.tag.packet_id = meta.packet_id;

    st.mps += 1;
    cur.next_mp += 1;

    if (cfg.dram_direct_path) {
      // §3.7 ablation: the transmit DMA pulls the MP from DRAM again.
      mem.dram().Issue(64, /*is_write=*/false, nullptr);
      st.dram_reads += 2;
    }
    const bool last = cur.next_mp == cur.desc.mp_count;
    if (cfg.port_mode == PortMode::kReal) {
      OutputStage* self = this;
      dma_in_flight_.emplace_back(cur.desc.out_port, mp);
      core_.chip->tx_dma().Transfer(64, [self] { self->DeliverHeadFromDma(); });
    }
    if (last) {
      st.packets += 1;
      CompletePacket(cur.desc);
      NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kPktTxComplete, meta.packet_id, ObsUnitOf(ctx),
                                     cur.desc.out_port));
      if (core_.stack_pool != nullptr) {
        // Return the buffer to the pool: an extra SRAM push (§3.2.3).
        ctx.Post(mem.sram(), 4);
        st.sram_writes += 1;
        ReleaseBuffer(core_, cur.desc.buffer_addr);
      }
      cur.active = false;
    }

    co_await ctx.Compute(costs.out_loop);
    st.reg_cycles += costs.out_loop;
  }
}

}  // namespace npr
