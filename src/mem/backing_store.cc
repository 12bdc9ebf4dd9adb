#include "src/mem/backing_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/fault/fault_injector.h"
#include "src/sim/log.h"

namespace npr {

BackingStore::BackingStore(std::string name, size_t size_bytes)
    : name_(std::move(name)),
      size_(size_bytes),
      data_(std::make_unique_for_overwrite<uint8_t[]>((size_bytes + kBlockBytes - 1) &
                                                      ~(kBlockBytes - 1))),
      // One bitmap word covers 64 blocks (4 KB).
      written_((size_bytes + 64 * kBlockBytes - 1) / (64 * kBlockBytes), 0) {}

bool BackingStore::RangeFailure(uint32_t addr, size_t len) const {
  ++oob_errors_;
  NPR_ERROR("%s: out-of-bounds access addr=%u len=%zu size=%zu", name_.c_str(), addr, len,
            size_);
  assert(false && "backing store out-of-bounds access");
  return false;
}

void BackingStore::FaultFlip(std::span<uint8_t> out) const {
  fault_->MaybeFlipReadBits(out);
}

void BackingStore::WriteSlow(uint32_t addr, std::span<const uint8_t> bytes) {
  if (!CheckRange(addr, bytes.size()) || bytes.empty()) {
    return;
  }
  const size_t last = (addr + bytes.size() - 1) >> kBlockShift;
  for (size_t block = addr >> kBlockShift; block <= last; ++block) {
    if (!IsWritten(block)) {
      std::memset(data_.get() + (block << kBlockShift), 0, kBlockBytes);
      written_[block >> 6] |= uint64_t{1} << (block & 63);
    }
  }
  std::memcpy(data_.get() + addr, bytes.data(), bytes.size());
}

void BackingStore::ReadSlow(uint32_t addr, std::span<uint8_t> out) const {
  if (!CheckRange(addr, out.size())) {
    std::memset(out.data(), 0, out.size());
    return;
  }
  if (out.empty()) {
    return;
  }
  const size_t end = addr + out.size();
  for (size_t pos = addr; pos < end;) {
    const size_t next = std::min(((pos >> kBlockShift) + 1) << kBlockShift, end);
    uint8_t* dst = out.data() + (pos - addr);
    if (IsWritten(pos >> kBlockShift)) {
      std::memcpy(dst, data_.get() + pos, next - pos);
    } else {
      std::memset(dst, 0, next - pos);
    }
    pos = next;
  }
  if (fault_ != nullptr) {
    FaultFlip(out);
  }
}

void BackingStore::Zero(uint32_t addr, size_t len) {
  if (!CheckRange(addr, len)) {
    return;
  }
  const size_t end = addr + len;
  for (size_t pos = addr; pos < end;) {
    const size_t block = pos >> kBlockShift;
    const size_t next = std::min((block + 1) << kBlockShift, end);
    if (IsWritten(block)) {
      if (next - pos == kBlockBytes) {
        written_[block >> 6] &= ~(uint64_t{1} << (block & 63));
      } else {
        std::memset(data_.get() + pos, 0, next - pos);
      }
    }
    pos = next;
  }
}

}  // namespace npr
