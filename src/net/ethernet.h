// Ethernet II framing.

#ifndef SRC_NET_ETHERNET_H_
#define SRC_NET_ETHERNET_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace npr {

using MacAddr = std::array<uint8_t, 6>;

inline constexpr size_t kEthHeaderBytes = 14;
inline constexpr size_t kEthMinFrame = 64;     // incl. FCS in the standard; we model payload min
inline constexpr size_t kEthMaxFrame = 1518;   // maximal Ethernet frame (§3.2.3)
inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr uint16_t kEtherTypeControl = 0x88b5;  // local experimental: control plane

// Per-port MAC address convention used throughout the repo: port p has
// address 02:00:00:00:00:0p (locally administered).
MacAddr PortMac(uint8_t port);
std::string MacToString(const MacAddr& mac);

struct EthernetHeader {
  MacAddr dst{};
  MacAddr src{};
  uint16_t ethertype = kEtherTypeIpv4;

  // Parses the first 14 bytes of `frame`; nullopt if too short.
  static std::optional<EthernetHeader> Parse(std::span<const uint8_t> frame);

  // Serializes into the first 14 bytes of `frame` (must be large enough).
  void Write(std::span<uint8_t> frame) const;
};

// Egress rewrite of a forwarded frame (§3.2): source = `out_port`'s MAC,
// destination = the next hop's; the EtherType stays. `frame` must hold the
// 14-byte header.
void RewriteEgressMacs(std::span<uint8_t> frame, uint8_t out_port, const MacAddr& next_hop);

}  // namespace npr

#endif  // SRC_NET_ETHERNET_H_
