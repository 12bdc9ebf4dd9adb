#include "src/net/ethernet.h"

#include <cstdio>
#include <cstring>

#include "src/net/wire.h"

namespace npr {

MacAddr PortMac(uint8_t port) { return MacAddr{0x02, 0x00, 0x00, 0x00, 0x00, port}; }

std::string MacToString(const MacAddr& mac) {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", mac[0], mac[1], mac[2], mac[3],
                mac[4], mac[5]);
  return buf;
}

std::optional<EthernetHeader> EthernetHeader::Parse(std::span<const uint8_t> frame) {
  if (frame.size() < kEthHeaderBytes) {
    return std::nullopt;
  }
  EthernetHeader h;
  std::memcpy(h.dst.data(), frame.data(), 6);
  std::memcpy(h.src.data(), frame.data() + 6, 6);
  h.ethertype = ReadBe16(frame, 12);
  return h;
}

void EthernetHeader::Write(std::span<uint8_t> frame) const {
  std::memcpy(frame.data(), dst.data(), 6);
  std::memcpy(frame.data() + 6, src.data(), 6);
  WriteBe16(frame, 12, ethertype);
}

void RewriteEgressMacs(std::span<uint8_t> frame, uint8_t out_port, const MacAddr& next_hop) {
  const MacAddr src = PortMac(out_port);
  std::memcpy(frame.data(), next_hop.data(), 6);
  std::memcpy(frame.data() + 6, src.data(), 6);
}

}  // namespace npr
