#include "src/core/strongarm_bridge.h"

#include <algorithm>

#include "src/core/overload.h"
#include "src/core/pentium_host.h"
#include "src/net/icmp.h"
#include "src/net/ipv4.h"
#include "src/obs/observer.h"
#include "src/sim/log.h"

namespace npr {
namespace {

constexpr size_t kHostBuffers = 64;

// Hands a packet the StrongARM finished, or the Pentium returned, to port
// desc.out_port's first queue: push, mark ready and record `enqueued`; on a
// full queue, count the drop, record it and release the buffer.
void Reenqueue(RouterCore& core, const PacketDescriptor& desc, SpanPoint enqueued) {
  PacketQueue& q = core.queues->QueueFor(0, desc.out_port, 0);
  if (q.Push(desc)) {
    core.queues->MarkReady(q);
    NPR_OBS_HOOK(core.obs, Record(enqueued, BufferMetaFor(core, desc.buffer_addr).packet_id,
                                  kUnitStrongArm, desc.out_port));
  } else {
    core.stats->dropped_queue_full += 1;
    NPR_OBS_HOOK(core.obs, Record(SpanPoint::kDropQueueFull,
                                  BufferMetaFor(core, desc.buffer_addr).packet_id,
                                  kUnitStrongArm, desc.out_port));
    ReleaseBuffer(core, desc.buffer_addr);
  }
}

// True when the buffered frame is OSPF-lite (IP proto 89): the governor's
// control carve-out extends to the bridge, so host-bound shedding under
// overload never eats a control frame. (Health shedding is different — it
// means the Pentium is dead, and nothing can process the frame anyway.)
bool IsControlBuffer(MemorySystem& mem, const PacketDescriptor& desc) {
  if (desc.frame_bytes < kEthHeaderBytes + kIpv4MinHeaderBytes) {
    return false;
  }
  uint8_t proto[1] = {0};
  mem.dram_store().Read(static_cast<uint32_t>(desc.buffer_addr + kEthHeaderBytes + 9), proto);
  return proto[0] == kIpProtoOspfLite;
}

}  // namespace

void NotifyBridge(StrongArmBridge& bridge) { bridge.Notify(); }

StrongArmBridge::StrongArmBridge(RouterCore& core, Classifier& classifier)
    : core_(core),
      classifier_(classifier),
      to_pentium_(kHostBuffers, kHostBuffers),
      from_pentium_(kHostBuffers, kHostBuffers) {
  // Pre-fill the free lists with host buffer pointers (§3.7: one queue of
  // pointers to empty buffers in Pentium memory per direction).
  for (size_t i = 0; i < kHostBuffers; ++i) {
    to_pentium_.free_q.Push(next_host_buffer_++);
    from_pentium_.free_q.Push(next_host_buffer_++);
  }
}

void StrongArmBridge::Start() { core_.chip->strongarm().Install(SaLoop()); }

void StrongArmBridge::Notify() {
  if (core_.config->sa_use_interrupts || feed_mode_) {
    core_.chip->strongarm().Wake();
  }
  // Polling mode: the StrongARM discovers work on its next poll.
}

void StrongArmBridge::EnableFeedMode(size_t frame_bytes, bool move_full_frame) {
  feed_mode_ = true;
  feed_frame_bytes_ = frame_bytes;
  feed_move_full_ = move_full_frame;
}

void StrongArmBridge::HandToPentium(const PacketDescriptor& desc, uint32_t bytes) {
  const uint32_t ptr = *to_pentium_.free_q.Pop();
  HostPacket hp{desc, bytes};
  // The DMA engine runs concurrently with the StrongARM: post the transfer;
  // completion publishes the pointer and rings the doorbell.
  StrongArmBridge* self = this;
  core_.host->pci().Issue(bytes, /*is_write=*/true, [self, ptr, hp] {
    self->staging_[ptr] = hp;
    self->to_pentium_.full_q.Push(ptr);
    if (self->core_.pentium != nullptr) {
      NotifyPentium(*self->core_.pentium);
    }
  });
  ++bridged_to_pentium_;
}

Task StrongArmBridge::SaLoop() {
  SoftCore& sa = core_.chip->strongarm();
  const HwConfig& hw = core_.config->hw;
  MemorySystem& mem = core_.chip->memory();
  // The forwarders the current local packet runs, kept across packets.
  std::vector<const FlowMeta*> to_run;

  for (;;) {
    bool did_work = false;

    // --- 0. Degraded mode: the health monitor declared the Pentium
    // unresponsive (or the overload governor reached stage 3), so
    // Pentium-bound packets are shed here instead of piling into the
    // bounded host queues (path A keeps its token-ring cadence; path B
    // resumes when the watchdog clears / the ladder descends). Health and
    // governor sheds are attributed separately.
    const bool health_shed = core_.health != nullptr && core_.health->ShedPentiumBound();
    bool gov_shed = core_.governor != nullptr && core_.governor->ShedHostBound();
    if (gov_shed && !health_shed && core_.sa_pentium_queue != nullptr) {
      // Governor-only shedding honors the control carve-out: a control frame
      // at the head of the line rides the normal bridge path below.
      const auto head = core_.sa_pentium_queue->PeekTail();
      if (head && IsControlBuffer(mem, *head)) {
        gov_shed = false;
      }
    }
    if ((health_shed || gov_shed) && core_.sa_pentium_queue != nullptr &&
        !core_.sa_pentium_queue->empty()) {
      co_await sa.Compute(hw.sa_dequeue_cycles);
      co_await sa.Read(mem.scratch(), 4);
      co_await sa.Read(mem.sram(), 4);
      auto desc = core_.sa_pentium_queue->Pop();
      if (desc) {
        if (health_shed) {
          core_.stats->pkts_shed_degraded += 1;
          NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kSaShedPe,
                                         BufferMetaFor(core_, desc->buffer_addr).packet_id,
                                         kUnitStrongArm, desc->out_port));
        } else {
          core_.stats->gov_shed_pe += 1;
          NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kSaShedGov,
                                         BufferMetaFor(core_, desc->buffer_addr).packet_id,
                                         kUnitStrongArm, desc->out_port));
        }
        ReleaseBuffer(core_, desc->buffer_addr);
      }
      did_work = true;
    } else if (core_.governor != nullptr && core_.governor->ShedSaLocal() &&
               core_.sa_local_queue != nullptr && !core_.sa_local_queue->empty()) {
      co_await sa.Compute(hw.sa_dequeue_cycles);
      co_await sa.Read(mem.scratch(), 4);
      co_await sa.Read(mem.sram(), 4);
      auto desc = core_.sa_local_queue->Pop();
      if (desc) {
        core_.stats->gov_shed_sa += 1;
        NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kSaShedGov,
                                       BufferMetaFor(core_, desc->buffer_addr).packet_id,
                                       kUnitStrongArm, desc->out_port));
        ReleaseBuffer(core_, desc->buffer_addr);
      }
      did_work = true;
    }

    // --- 1. Pentium-bound packets ---
    // Default policy (the paper's prototype): strict precedence over local
    // work. With sa_proportional_share, a stride scheduler splits the
    // StrongARM between the two queues by their configured shares (§4.1's
    // stated plan).
    bool take_pentium = true;
    if (core_.config->sa_proportional_share && core_.sa_local_queue != nullptr &&
        !core_.sa_local_queue->empty()) {
      take_pentium = pentium_pass_ <= local_pass_;
    }
    const bool pentium_ready = core_.config->enable_pentium && !to_pentium_.free_q.empty();
    if (!did_work && take_pentium && pentium_ready && core_.sa_pentium_queue != nullptr &&
        !core_.sa_pentium_queue->empty()) {
      co_await sa.Compute(hw.sa_dequeue_cycles);
      co_await sa.Read(mem.scratch(), 4);
      co_await sa.Read(mem.sram(), 4);
      auto desc = core_.sa_pentium_queue->Pop();
      if (desc) {
        const uint32_t extra_mps = desc->mp_count > 0 ? desc->mp_count - 1u : 0u;
        co_await sa.Compute(hw.sa_bridge_fixed_cycles +
                            hw.sa_bridge_per_extra_mp_cycles * extra_mps);
        // Only the first 64 bytes plus the 8-byte internal routing header
        // cross PCI eagerly; the body is fetched lazily by the Pentium if
        // its forwarder needs it (§3.7).
        HandToPentium(*desc,
                      std::min<uint32_t>(desc->frame_bytes, 64) + hw.pci_routing_header_bytes);
        NPR_OBS_HOOK(core_.obs,
                     Record(SpanPoint::kBridgeToPe, BufferMetaFor(core_, desc->buffer_addr).packet_id,
                            kUnitStrongArm, desc->out_port));
        if (core_.config->sa_proportional_share) {
          pentium_pass_ += 1.0 / core_.config->sa_pentium_share;
        }
        did_work = true;
      }
    }

    // --- 2. Pentium returns: re-enter the output queues ---
    if (!did_work && !from_pentium_.full_q.empty()) {
      co_await sa.Compute(hw.sa_enqueue_cycles);
      const uint32_t ptr = *from_pentium_.full_q.Pop();
      auto it = staging_.find(ptr);
      if (it != staging_.end()) {
        const HostPacket hp = it->second;
        staging_.erase(it);
        from_pentium_.free_q.Push(ptr);
        NPR_OBS_HOOK(core_.obs,
                     Record(SpanPoint::kPeReturned, BufferMetaFor(core_, hp.desc.buffer_addr).packet_id,
                            kUnitStrongArm, hp.desc.out_port));
        if (feed_mode_) {
          ++feed_roundtrips_;
        } else {
          co_await sa.Write(mem.sram(), 4);
          sa.PostBurst(mem.scratch(), 2, 4);
          Reenqueue(core_, hp.desc, SpanPoint::kSaReturnEnqueued);
        }
        ++returned_;
      }
      did_work = true;
    }

    // --- feed mode (Table 4): synthesize Pentium traffic at max rate ---
    if (!did_work && feed_mode_ && !to_pentium_.free_q.empty()) {
      BufferMeta meta;
      meta.packet_id = static_cast<uint32_t>(bridged_to_pentium_ + 1);
      meta.ingress_time = core_.engine->now();
      PacketDescriptor desc;
      desc.buffer_addr = core_.buffers->Allocate(meta);
      desc.frame_bytes = static_cast<uint16_t>(feed_frame_bytes_);
      desc.mp_count = static_cast<uint16_t>((feed_frame_bytes_ + 63) / 64);
      const uint32_t extra_mps = desc.mp_count - 1u;
      co_await sa.Compute(hw.sa_bridge_fixed_cycles +
                          hw.sa_bridge_per_extra_mp_cycles * extra_mps);
      HandToPentium(desc, (feed_move_full_ ? desc.frame_bytes
                                           : std::min<uint32_t>(desc.frame_bytes, 64)) +
                              hw.pci_routing_header_bytes);
      did_work = true;
    }

    // --- 3. Local forwarders (route misses, IP options, SA flows) ---
    if (!did_work && core_.sa_local_queue != nullptr && !core_.sa_local_queue->empty()) {
      if (core_.config->sa_use_interrupts) {
        // Interrupt mode (§3.6, the losing design): every packet delivery
        // raises an interrupt whose dispatch must be paid even under load.
        co_await sa.Compute(hw.sa_interrupt_overhead_cycles);
      }
      co_await sa.Compute(hw.sa_dequeue_cycles);
      co_await sa.Read(mem.scratch(), 4);
      co_await sa.Read(mem.sram(), 4);
      auto desc = core_.sa_local_queue->Pop();
      if (desc && BufferStillValid(core_, *desc)) {
        NPR_OBS_HOOK(core_.obs,
                     Record(SpanPoint::kSaDequeued, BufferMetaFor(core_, desc->buffer_addr).packet_id,
                            kUnitStrongArm, desc->out_port));
        // Pull the header MP into the StrongARM (it accesses DRAM
        // directly, §3.6).
        co_await sa.Read(mem.dram(), 32);
        co_await sa.Read(mem.dram(), 32);
        Packet packet = MaterializePacket(core_, core_.pool, *desc);
        pooled_live_ += packet.pooled() ? 1 : 0;

        bool forward = true;
        uint8_t out_port = desc->out_port;
        uint8_t icmp_type = 255;  // 255 = no error to generate
        uint8_t icmp_code = 0;

        // Per-flow SA forwarder, or the SA general chain.
        const FlowMeta* flow =
            desc->flow_handle != 0 ? core_.flow_table->Get(desc->flow_handle) : nullptr;
        core_.flow_table->ForwardersAt(Where::kStrongArm, flow, &to_run);

        // Route resolution: cache first, full CPE walk on a miss (the walk
        // is exactly what exceeds the VRP budget, §4.4).
        auto ip = Ipv4Header::Parse(packet.l3());
        bool addressed_to_router = false;
        if (ip && ip->dst == core_.config->router_ip) {
          // For-us traffic: answer pings, absorb the rest.
          addressed_to_router = true;
          forward = false;
          if (auto echo = BuildEchoReply(packet)) {
            co_await sa.Compute(300);  // echo turnaround
            pooled_live_ -= packet.pooled() ? 1 : 0;
            packet = std::move(*echo);
            pooled_live_ += packet.pooled() ? 1 : 0;
            ip = Ipv4Header::Parse(packet.l3());
            auto back = core_.route_table->Lookup(ip->dst);
            for (int i = 0; i < back.memory_accesses; ++i) {
              co_await sa.Read(mem.sram(), 4);
            }
            if (back.entry) {
              out_port = back.entry->out_port;
              RewriteEgressMacs(packet.bytes(), out_port, back.entry->next_hop_mac);
              forward = true;
              core_.stats->icmp_generated += 1;
            }
          }
        }
        if (addressed_to_router) {
          // handled above
        } else if (!ip) {
          forward = false;
        } else if (ip->has_options() && core_.sa_exception_handler != nullptr) {
          // Full IP handles option packets end to end (route, options, TTL,
          // checksum, MACs) at its declared ~660 cycles (§4.4).
          uint32_t cycles = 0;
          const NativeAction action =
              RunNative(core_, *core_.sa_exception_handler, nullptr, packet, &out_port, &cycles);
          co_await sa.Compute(cycles);
          forward = action == NativeAction::kForward;
        } else if (ip->ttl <= 1) {
          forward = false;
          icmp_type = kIcmpTimeExceeded;
          icmp_code = kIcmpCodeTtlExceeded;
        } else {
          RouteEntry entry;
          auto cached = core_.route_cache->Lookup(ip->dst, core_.route_table->epoch());
          if (cached) {
            co_await sa.Compute(10);
            entry = *cached;
          } else {
            RouteEntry resolved;
            const int accesses = classifier_.SlowPathResolve(ip->dst, &resolved);
            for (int i = 0; i < accesses; ++i) {
              co_await sa.Compute(56);  // per-level CPE processing
              co_await sa.Read(mem.sram(), 4);
            }
            auto again = core_.route_cache->Lookup(ip->dst, core_.route_table->epoch());
            if (!again) {
              forward = false;  // genuinely unroutable
              icmp_type = kIcmpDestUnreachable;
              icmp_code = kIcmpCodeHostUnreachable;
            } else {
              entry = *again;
            }
          }
          if (forward) {
            out_port = entry.out_port;
            // Minimal IP transform (full-IP / option handling is a
            // registered native forwarder and runs below).
            if (DecrementTtlInPlace(packet.l3())) {
              RewriteEgressMacs(packet.bytes(), out_port, entry.next_hop_mac);
            } else {
              forward = false;
            }
          }
        }

        for (const FlowMeta* f : to_run) {
          if (!forward) {
            break;
          }
          NativeForwarder* fw = core_.sa_forwarders->Get(f->native_index);
          if (fw == nullptr) {
            continue;
          }
          uint32_t cycles = 0;
          const NativeAction action = RunNative(core_, *fw, f, packet, &out_port, &cycles);
          co_await sa.Compute(cycles);
          if (action != NativeAction::kForward) {
            forward = false;
          }
        }

        if (forward) {
          // Write the modified header back and enqueue toward the output
          // stage like any other packet.
          mem.dram_store().Write(desc->buffer_addr, packet.bytes());
          sa.PostBurst(mem.dram(), 2, 32);
          co_await sa.Compute(hw.sa_enqueue_cycles);
          co_await sa.Write(mem.sram(), 4);
          sa.PostBurst(mem.scratch(), 2, 4);
          PacketDescriptor out = *desc;
          out.out_port = out_port;
          out.exceptional = false;
          Reenqueue(core_, out, SpanPoint::kSaForwarded);
        }
        // Originate the ICMP error for failed packets (RFC 792), routed
        // back toward the offender's source like any other packet.
        if (!forward && icmp_type != 255) {
          auto reply = BuildIcmpError(icmp_type, icmp_code, packet, core_.config->router_ip);
          if (reply) {
            auto reply_ip = Ipv4Header::Parse(reply->l3());
            auto back = core_.route_table->Lookup(reply_ip->dst);
            co_await sa.Compute(250);  // ICMP construction
            for (int i = 0; i < back.memory_accesses; ++i) {
              co_await sa.Read(mem.sram(), 4);
            }
            if (back.entry) {
              RewriteEgressMacs(reply->bytes(), back.entry->out_port, back.entry->next_hop_mac);
              BufferMeta bmeta;
              bmeta.packet_id = reply->id();
              bmeta.ingress_time = core_.engine->now();
              if (const std::optional<BufferGrant> grant = AllocateBuffer(core_, bmeta)) {
                mem.dram_store().Write(grant->addr, reply->bytes());
                sa.PostBurst(mem.dram(), 2, 32);
                PacketDescriptor icmp_desc;
                icmp_desc.buffer_addr = grant->addr;
                icmp_desc.frame_bytes = static_cast<uint16_t>(reply->size());
                icmp_desc.mp_count = static_cast<uint16_t>(reply->mp_count());
                icmp_desc.out_port = back.entry->out_port;
                icmp_desc.generation = grant->generation;
                co_await sa.Write(mem.sram(), 4);
                PacketQueue& iq = core_.queues->QueueFor(0, icmp_desc.out_port, 0);
                if (iq.Push(icmp_desc)) {
                  core_.queues->MarkReady(iq);
                  core_.stats->icmp_generated += 1;
                  core_.stats->icmp_originated += 1;
                  NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kIcmpOriginated, reply->id(),
                                                 kUnitStrongArm, icmp_desc.out_port));
                } else {
                  ReleaseBuffer(core_, icmp_desc.buffer_addr);
                }
              }
            }
          }
        }
        if (!forward) {
          core_.stats->sa_absorbed += 1;
          NPR_OBS_HOOK(core_.obs,
                       Record(SpanPoint::kSaAbsorbed,
                              BufferMetaFor(core_, desc->buffer_addr).packet_id, kUnitStrongArm,
                              desc->out_port));
          ReleaseBuffer(core_, desc->buffer_addr);
        }
        ++local_processed_;
        core_.stats->sa_local_processed += 1;
        if (core_.config->sa_proportional_share) {
          local_pass_ += 1.0 / core_.config->sa_local_share;
        }
        // `packet` dies at this scope's end; settle the pool ledger now
        // (host code — no suspension between here and the destructor).
        pooled_live_ -= packet.pooled() ? 1 : 0;
      } else if (desc) {
        // The circular buffer was lapped while the descriptor sat in the
        // exception queue; the packet content is gone. The span carries the
        // *successor* packet's id (the buffer was reused), so kSaLapped is a
        // non-erasing terminal; reconciliation accounts for it separately.
        core_.stats->sa_lapped += 1;
        NPR_OBS_HOOK(core_.obs,
                     Record(SpanPoint::kSaLapped,
                            BufferMetaFor(core_, desc->buffer_addr).packet_id, kUnitStrongArm,
                            desc->out_port));
      }
      did_work = true;
    }

    if (!did_work) {
      if (feed_mode_) {
        co_await sa.Block();  // doorbell-driven loop test: no dispatch cost
      } else if (core_.config->sa_use_interrupts) {
        co_await sa.Block();
        co_await sa.Compute(hw.sa_interrupt_overhead_cycles);
      } else {
        // Polling: a Scratch head-pointer read per idle pass.
        co_await sa.Compute(hw.sa_poll_gap_cycles);
        co_await sa.Read(mem.scratch(), 4);
      }
    }
  }
}

}  // namespace npr
