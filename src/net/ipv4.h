// IPv4 header codec, validation, and forwarding-relevant helpers.

#ifndef SRC_NET_IPV4_H_
#define SRC_NET_IPV4_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace npr {

inline constexpr size_t kIpv4MinHeaderBytes = 20;
inline constexpr size_t kIpv4MaxOptionBytes = 40;  // IHL 15
inline constexpr uint8_t kIpProtoIcmp = 1;
inline constexpr uint8_t kIpProtoTcp = 6;
inline constexpr uint8_t kIpProtoUdp = 17;
inline constexpr uint8_t kIpProtoOspfLite = 89;  // control-plane protocol number

// Dotted-quad helpers; addresses are host-order uint32 throughout the repo.
// Ipv4FromString returns 0 for anything but exactly "a.b.c.d".
uint32_t Ipv4FromString(const std::string& dotted);
std::string Ipv4ToString(uint32_t addr);

// Strict readers: each takes what it reads off the front of `text` and
// leaves the rest for the caller. A number is one or more decimal digits
// (no sign, no whitespace) no greater than `max`; a dotted quad is four
// such octets (max 255) joined by '.'. On failure `text` is unspecified.
std::optional<uint32_t> ReadDecimal(std::string_view& text, uint32_t max);
std::optional<uint32_t> ReadDottedQuad(std::string_view& text);

struct Ipv4Header {
  uint8_t version = 4;
  uint8_t ihl = 5;  // header length in 32-bit words (>5 means options present)
  uint8_t tos = 0;
  uint16_t total_length = 0;
  uint16_t identification = 0;
  uint16_t flags_fragment = 0;
  uint8_t ttl = 64;
  uint8_t protocol = kIpProtoUdp;
  uint16_t checksum = 0;
  uint32_t src = 0;
  uint32_t dst = 0;
  // Raw option bytes: the first options_len, (ihl - 5) * 4 once parsed. A
  // fixed array, so parsing an option packet allocates nothing.
  std::array<uint8_t, kIpv4MaxOptionBytes> options{};
  uint8_t options_len = 0;

  size_t header_bytes() const { return static_cast<size_t>(ihl) * 4; }
  bool has_options() const { return ihl > 5; }

  // Parses (and bounds-checks) the header at the start of `data`.
  static std::optional<Ipv4Header> Parse(std::span<const uint8_t> data);

  // Serializes into `data` (must hold header_bytes()), computing the
  // checksum field.
  void Write(std::span<uint8_t> data);

  // Validation the router's classifier performs (§4.4): version, length
  // fields, and checksum. Operates on raw bytes.
  static bool Validate(std::span<const uint8_t> data);
};

// In-place fast-path transform on raw bytes: decrement TTL and update the
// checksum incrementally (RFC 1624). Returns false (packet must be dropped
// or sent to an error handler) if the TTL is already 0.
bool DecrementTtlInPlace(std::span<uint8_t> ip_header);

}  // namespace npr

#endif  // SRC_NET_IPV4_H_
