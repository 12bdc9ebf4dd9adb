#include "src/route/prefix.h"

#include "src/net/ipv4.h"

namespace npr {

std::optional<Prefix> Prefix::Parse(const std::string& text) {
  std::string_view rest = text;
  const std::optional<uint32_t> addr = ReadDottedQuad(rest);
  if (!addr || rest.empty() || rest.front() != '/') {
    return std::nullopt;
  }
  rest.remove_prefix(1);
  const std::optional<uint32_t> len = ReadDecimal(rest, 32);
  if (!len || !rest.empty()) {
    return std::nullopt;
  }
  return Make(*addr, static_cast<uint8_t>(*len));
}

Prefix Prefix::Make(uint32_t addr, uint8_t len) {
  Prefix p;
  p.len = len;
  p.addr = addr & (len == 0 ? 0 : ~uint32_t{0} << (32 - len));
  return p;
}

std::string Prefix::ToString() const {
  return Ipv4ToString(addr) + "/" + std::to_string(len);
}

}  // namespace npr
