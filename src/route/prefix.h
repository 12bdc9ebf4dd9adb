// CIDR prefix type.

#ifndef SRC_ROUTE_PREFIX_H_
#define SRC_ROUTE_PREFIX_H_

#include <cstdint>
#include <optional>
#include <string>

namespace npr {

struct Prefix {
  uint32_t addr = 0;  // host byte order, canonical (bits beyond len are 0)
  uint8_t len = 0;    // 0..32

  // Parses exactly "a.b.c.d/len" (decimal digits only, octets <= 255,
  // len <= 32); rejects anything else, trailing text included.
  static std::optional<Prefix> Parse(const std::string& text);

  // Canonicalizes: masks addr to len bits.
  static Prefix Make(uint32_t addr, uint8_t len);

  uint32_t Mask() const { return len == 0 ? 0 : ~uint32_t{0} << (32 - len); }
  bool Contains(uint32_t ip) const { return (ip & Mask()) == addr; }

  std::string ToString() const;

  friend bool operator==(const Prefix&, const Prefix&) = default;
  friend auto operator<=>(const Prefix&, const Prefix&) = default;
};

}  // namespace npr

#endif  // SRC_ROUTE_PREFIX_H_
