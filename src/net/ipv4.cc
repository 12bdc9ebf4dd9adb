#include "src/net/ipv4.h"

#include <cstdio>
#include <cstring>

#include "src/net/checksum.h"
#include "src/net/wire.h"

namespace npr {

uint32_t Ipv4FromString(const std::string& dotted) {
  std::string_view rest = dotted;
  const std::optional<uint32_t> addr = ReadDottedQuad(rest);
  return addr && rest.empty() ? *addr : 0;
}

std::optional<uint32_t> ReadDecimal(std::string_view& text, uint32_t max) {
  size_t i = 0;
  uint64_t value = 0;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    value = value * 10 + static_cast<uint64_t>(text[i] - '0');
    if (value > max) {  // stop before a long digit string can overflow
      return std::nullopt;
    }
  }
  if (i == 0) {
    return std::nullopt;
  }
  text.remove_prefix(i);
  return static_cast<uint32_t>(value);
}

std::optional<uint32_t> ReadDottedQuad(std::string_view& text) {
  uint32_t addr = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (text.empty() || text.front() != '.') {
        return std::nullopt;
      }
      text.remove_prefix(1);
    }
    const std::optional<uint32_t> value = ReadDecimal(text, 255);
    if (!value) {
      return std::nullopt;
    }
    addr = addr << 8 | *value;
  }
  return addr;
}

std::string Ipv4ToString(uint32_t addr) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", addr >> 24, (addr >> 16) & 0xff,
                (addr >> 8) & 0xff, addr & 0xff);
  return buf;
}

std::optional<Ipv4Header> Ipv4Header::Parse(std::span<const uint8_t> data) {
  if (data.size() < kIpv4MinHeaderBytes) {
    return std::nullopt;
  }
  Ipv4Header h;
  h.version = data[0] >> 4;
  h.ihl = data[0] & 0x0f;
  if (h.version != 4 || h.ihl < 5 || data.size() < h.header_bytes()) {
    return std::nullopt;
  }
  h.tos = data[1];
  h.total_length = ReadBe16(data, 2);
  h.identification = ReadBe16(data, 4);
  h.flags_fragment = ReadBe16(data, 6);
  h.ttl = data[8];
  h.protocol = data[9];
  h.checksum = ReadBe16(data, 10);
  h.src = ReadBe32(data, 12);
  h.dst = ReadBe32(data, 16);
  if (h.ihl > 5) {
    h.options_len = static_cast<uint8_t>(h.header_bytes() - kIpv4MinHeaderBytes);
    std::memcpy(h.options.data(), data.data() + kIpv4MinHeaderBytes, h.options_len);
  }
  return h;
}

void Ipv4Header::Write(std::span<uint8_t> data) {
  ihl = static_cast<uint8_t>(5 + options_len / 4);
  data[0] = static_cast<uint8_t>(version << 4 | ihl);
  data[1] = tos;
  WriteBe16(data, 2, total_length);
  WriteBe16(data, 4, identification);
  WriteBe16(data, 6, flags_fragment);
  data[8] = ttl;
  data[9] = protocol;
  WriteBe16(data, 10, 0);  // checksum computed below
  WriteBe32(data, 12, src);
  WriteBe32(data, 16, dst);
  std::memcpy(data.data() + kIpv4MinHeaderBytes, options.data(), options_len);
  checksum = InetChecksum(data.subspan(0, header_bytes()));
  WriteBe16(data, 10, checksum);
}

bool Ipv4Header::Validate(std::span<const uint8_t> data) {
  if (data.size() < kIpv4MinHeaderBytes) {
    return false;
  }
  const uint8_t version = data[0] >> 4;
  const uint8_t ihl = data[0] & 0x0f;
  if (version != 4 || ihl < 5) {
    return false;
  }
  const size_t header_bytes = static_cast<size_t>(ihl) * 4;
  if (data.size() < header_bytes) {
    return false;
  }
  const uint16_t total_length = ReadBe16(data, 2);
  if (total_length < header_bytes) {
    return false;
  }
  // A correct header checksums (one's-complement) to 0.
  return ChecksumPartial(data.subspan(0, header_bytes)) == 0xffff;
}

bool DecrementTtlInPlace(std::span<uint8_t> ip_header) {
  const uint8_t ttl = ip_header[8];
  if (ttl <= 1) {
    return false;
  }
  // TTL and protocol share a 16-bit checksum word (bytes 8-9).
  const uint16_t old_word = ReadBe16(ip_header, 8);
  ip_header[8] = static_cast<uint8_t>(ttl - 1);
  const uint16_t new_word = ReadBe16(ip_header, 8);
  const uint16_t old_sum = ReadBe16(ip_header, 10);
  WriteBe16(ip_header, 10, ChecksumIncremental16(old_sum, old_word, new_word));
  return true;
}

}  // namespace npr
