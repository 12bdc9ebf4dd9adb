#include "src/forwarders/native.h"

#include "src/net/ipv4.h"
#include "src/net/tcp.h"

namespace npr {

NativeAction FullIpForwarder::Process(NativeContext& ctx) {
  auto l3 = ctx.packet->l3();
  auto ip = Ipv4Header::Parse(l3);
  if (!ip || !Ipv4Header::Validate(l3)) {
    return NativeAction::kDrop;
  }
  if (ip->ttl <= 1) {
    // ICMP time-exceeded generation is left to the control plane.
    return NativeAction::kDrop;
  }

  // Option processing (§4.4: the full protocol "including options").
  if (ip->has_options()) {
    ++options_handled_;
    ctx.extra_cycles += static_cast<uint32_t>(ip->options_len) * 8;
    for (size_t i = 0; i + 1 < ip->options_len;) {
      const uint8_t type = ip->options[i];
      if (type == 0) {  // end of options
        break;
      }
      if (type == 1) {  // no-op
        ++i;
        continue;
      }
      const uint8_t len = ip->options[i + 1];
      if (len < 2 || i + len > ip->options_len) {
        return NativeAction::kDrop;  // malformed option
      }
      if (type == 7 && len >= 7) {
        // Record route: stamp this hop's address if the pointer has room.
        const uint8_t ptr = ip->options[i + 2];
        if (ptr >= 4 && static_cast<size_t>(ptr) + 3 <= len) {
          const size_t slot = i + ptr - 1;
          ip->options[slot] = 10;  // 10.x.y.z router address, first octet
          ip->options[slot + 1] = 0;
          ip->options[slot + 2] = 0;
          ip->options[slot + 3] = ctx.out_port;
          ip->options[i + 2] = static_cast<uint8_t>(ptr + 4);
        }
      }
      i += len;
    }
  }

  // Route, TTL, checksum, MAC rewrite.
  auto lookup = ctx.routes->Lookup(ip->dst);
  ctx.extra_cycles += static_cast<uint32_t>(lookup.memory_accesses) * 40;
  if (!lookup.entry) {
    return NativeAction::kDrop;
  }
  ctx.out_port = lookup.entry->out_port;

  ip->ttl -= 1;
  ip->Write(l3);  // recomputes the checksum from scratch (full IP path)

  RewriteEgressMacs(ctx.packet->bytes(), ctx.out_port, lookup.entry->next_hop_mac);

  // Update counters in flow state: [0] processed, [4] with-options.
  if (ctx.state_bytes >= 8 && ctx.sram != nullptr) {
    ctx.sram->WriteU32(ctx.state_addr, ctx.sram->ReadU32(ctx.state_addr) + 1);
    if (ip->has_options()) {
      ctx.sram->WriteU32(ctx.state_addr + 4, ctx.sram->ReadU32(ctx.state_addr + 4) + 1);
    }
  }
  ++processed_;
  return NativeAction::kForward;
}

NativeAction TcpProxyForwarder::Process(NativeContext& ctx) {
  auto l3 = ctx.packet->l3();
  auto ip = Ipv4Header::Parse(l3);
  if (!ip || ip->protocol != kIpProtoTcp) {
    return NativeAction::kForward;
  }
  auto l4 = l3.subspan(ip->header_bytes());
  auto tcp = TcpHeader::Parse(l4);
  if (!tcp) {
    return NativeAction::kDrop;
  }
  if (ctx.sram == nullptr || ctx.state_bytes < 20) {
    return NativeAction::kForward;
  }

  uint32_t phase = ctx.sram->ReadU32(ctx.state_addr);
  switch (phase) {
    case 0:  // expect SYN
      if (tcp->flags & kTcpFlagSyn) {
        ctx.sram->WriteU32(ctx.state_addr + 4, tcp->seq);
        ctx.sram->WriteU32(ctx.state_addr, 1);
      }
      break;
    case 1:  // expect the peer's ACK completing the handshake
      if (tcp->flags & kTcpFlagAck) {
        ctx.sram->WriteU32(ctx.state_addr + 8, tcp->ack);
        ctx.sram->WriteU32(ctx.state_addr, 2);
        ++handshakes_;
      }
      break;
    default: {
      // Established: inspect payload; once enough has been vetted, mark the
      // connection splice-eligible so the control half can push the data
      // path down to the MicroEngines.
      const size_t payload = l4.size() > tcp->header_bytes() ? l4.size() - tcp->header_bytes()
                                                             : 0;
      const uint32_t seen = ctx.sram->ReadU32(ctx.state_addr + 12) +
                            static_cast<uint32_t>(payload);
      ctx.sram->WriteU32(ctx.state_addr + 12, seen);
      ctx.extra_cycles += static_cast<uint32_t>(payload) / 2;  // content scan
      if (seen >= 128) {
        ctx.sram->WriteU32(ctx.state_addr + 16, 1);
      }
      break;
    }
  }
  return NativeAction::kForward;
}

}  // namespace npr
