#include "src/core/pentium_host.h"

#include <algorithm>

#include "src/core/strongarm_bridge.h"
#include "src/fault/fault_injector.h"
#include "src/net/ipv4.h"
#include "src/obs/observer.h"

namespace npr {

void NotifyPentium(PentiumHost& host) { host.Notify(); }

PentiumHost::PentiumHost(RouterCore& core, StrongArmBridge& bridge)
    : core_(core), bridge_(bridge) {
  // Flow 0 carries control traffic; the paper allocates it enough share to
  // keep routing updates timely regardless of data load (§4.1).
  sched_.ConfigureFlow(0, 10.0);
}

void PentiumHost::Start() { core_.host->pentium().Install(PeLoop()); }

void PentiumHost::Notify() { core_.host->pentium().Wake(); }

Task PentiumHost::PeLoop() {
  SoftCore& pe = core_.host->pentium();
  const HwConfig& hw = core_.config->hw;
  MemorySystem& mem = core_.chip->memory();
  // The forwarders the current packet runs, kept across packets.
  std::vector<const FlowMeta*> to_run;

  for (;;) {
    bool did_work = false;

    // Injected hang: the Pentium burns cycles without touching a packet,
    // which is what the watchdog's stalled-progress check detects.
    if (core_.fault != nullptr) {
      const SimTime hang_ps = core_.fault->PentiumHangPs();
      if (hang_ps > 0) {
        co_await pe.Compute(static_cast<uint64_t>(hang_ps / pe.clock().cycle_ps));
      }
    }

    // --- intake: one I2O entry per pass, so service (below) is never
    // starved when the StrongARM refills the queue faster than the copy
    // cost drains it ---
    if (!bridge_.to_pentium().full_q.empty() && sched_.backlog() < kMaxBacklog) {
      auto ptr = bridge_.to_pentium().full_q.Pop();
      auto it = bridge_.staging().find(*ptr);
      if (it == bridge_.staging().end()) {
        continue;  // stale pointer; nothing staged
      }
      HostPacket hp = it->second;
      bridge_.staging().erase(it);
      bridge_.to_pentium().free_q.Push(*ptr);
      // Recycling a free buffer is the StrongARM's cue to start the next
      // DMA — without it the pipeline ping-pongs (SA would only wake on
      // return-path completions).
      NotifyBridge(bridge_);
      // Software-simulated I2O management plus the copy through the cache:
      // fitted to Table 4 (197 + 10.54 cycles/byte of frame). This is the
      // *entire* per-packet Pentium path cost of the loop test — the I2O
      // pointer pops and the return-side posting are inside the fit.
      co_await pe.Compute(hw.pentium_fixed_cycles +
                          static_cast<uint64_t>(hw.pentium_per_byte_cycles *
                                                static_cast<double>(hp.desc.frame_bytes)));
      sched_.Enqueue(hp.desc.flow_handle, hp);
      NPR_OBS_HOOK(core_.obs,
                   Record(SpanPoint::kPeIntake, BufferMetaFor(core_, hp.desc.buffer_addr).packet_id,
                          kUnitPentium, hp.desc.out_port));
      did_work = true;
    }

    // --- service: one packet from the proportional-share scheduler ---
    if (auto hp = sched_.Next()) {
      const FlowMeta* flow =
          hp->desc.flow_handle != 0 ? core_.flow_table->Get(hp->desc.flow_handle) : nullptr;

      Packet packet;
      bool have_bytes = false;
      bool forward = true;
      uint8_t out_port = hp->desc.out_port;
      // The frame leaves DRAM once, when a forwarder or the route lookup
      // first reads it.
      const auto load_bytes = [&] {
        if (!have_bytes) {
          packet = MaterializePacket(core_, /*pool=*/nullptr, hp->desc);
          have_bytes = true;
        }
      };

      if (!core_.flow_table->ForwardersAt(Where::kPentium, flow, &to_run) && !to_run.empty()) {
        ++control_processed_;
      }

      for (const FlowMeta* f : to_run) {
        if (!forward) {
          break;
        }
        NativeForwarder* fw = core_.pe_forwarders->Get(f->native_index);
        if (fw == nullptr) {
          continue;
        }
        load_bytes();
        // Lazy body fetch (§3.7): pull the rest of the frame across PCI
        // only when the forwarder declares it reads the body.
        if (fw->needs_packet_body() && hp->bytes_moved < hp->desc.frame_bytes) {
          const uint32_t rest = hp->desc.frame_bytes - std::min<uint32_t>(
                                                           hp->desc.frame_bytes, 64);
          if (rest > 0) {
            co_await pe.Read(core_.host->pci(), rest);
            co_await pe.Compute(static_cast<uint64_t>(hw.pentium_per_byte_cycles *
                                                      static_cast<double>(rest)));
            hp->bytes_moved += rest;
          }
        }
        uint32_t cycles = 0;
        const NativeAction action = RunNative(core_, *fw, f, packet, &out_port, &cycles);
        co_await pe.Compute(cycles);
        if (action == NativeAction::kDrop) {
          forward = false;
          ++dropped_;
        } else if (action == NativeAction::kConsume) {
          forward = false;  // absorbed (e.g. a routing update)
        }
      }

      // Per-flow data packets resolve their route here (classification on
      // the IXP said only "Pentium flow"; §4.5 passes the metadata along).
      if (forward && flow != nullptr) {
        load_bytes();
        auto ip = Ipv4Header::Parse(packet.l3());
        if (!ip) {
          forward = false;
        } else {
          auto lookup = core_.route_table->Lookup(ip->dst);
          co_await pe.Compute(static_cast<uint64_t>(40 * (lookup.memory_accesses + 1)));
          if (!lookup.entry || !DecrementTtlInPlace(packet.l3())) {
            forward = false;
          } else {
            out_port = lookup.entry->out_port;
            RewriteEgressMacs(packet.bytes(), out_port, lookup.entry->next_hop_mac);
          }
        }
      }

      ++processed_;
      core_.stats->pentium_processed += 1;
      NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kPeServiced,
                                     BufferMetaFor(core_, hp->desc.buffer_addr).packet_id,
                                     kUnitPentium, out_port));

      if (!forward && !(to_run.empty() && flow == nullptr)) {
        core_.stats->pe_absorbed += 1;
        NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kPeAbsorbed,
                                       BufferMetaFor(core_, hp->desc.buffer_addr).packet_id,
                                       kUnitPentium, out_port));
        ReleaseBuffer(core_, hp->desc.buffer_addr);  // dropped or consumed
      }
      // Return path: DMA the (possibly modified) packet back and publish
      // on the reverse I2O pair. In the Table 4 feed loop the packet is
      // echoed even though no forwarder ran.
      const bool echo = to_run.empty() && flow == nullptr;
      if (forward || echo) {
        if (have_bytes) {
          mem.dram_store().Write(hp->desc.buffer_addr, packet.bytes());
        }
        PacketDescriptor out_desc = hp->desc;
        out_desc.out_port = out_port;
        const uint32_t ptr = 0x80000000u | static_cast<uint32_t>(processed_ & 0xffffff);
        HostPacket back{out_desc, hp->bytes_moved};
        StrongArmBridge* bridge = &bridge_;
        core_.host->pci().Issue(hp->bytes_moved, /*is_write=*/true, [bridge, ptr, back] {
          bridge->staging()[ptr] = back;
          bridge->from_pentium().full_q.Push(ptr);
          NotifyBridge(*bridge);
        });
      }
      did_work = true;
    }

    if (!did_work) {
      co_await pe.Block();  // I2O doorbell wakes us
    }
  }
}

}  // namespace npr
