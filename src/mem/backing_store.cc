#include "src/mem/backing_store.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

#include "src/fault/fault_injector.h"
#include "src/sim/log.h"

namespace npr {
namespace {

// Slot numbers are 24 bits. A store of 512 MB written in full needs about
// 9.2M slots (blocks, tables, and the slab tails tables skip).
constexpr size_t kMaxStoreBytes = size_t{512} << 20;

}  // namespace

BackingStore::BackingStore(std::string name, size_t size_bytes)
    : name_(std::move(name)), size_(size_bytes) {
  // Holds in Release builds too: a larger store would wrap slot numbers and
  // alias blocks.
  if (size_bytes > kMaxStoreBytes) {
    NPR_ERROR("%s: %zu bytes exceeds the %zu-byte store limit", name_.c_str(), size_bytes,
              kMaxStoreBytes);
    std::abort();
  }
  const size_t max_slots = ((size_ + kBlockBytes - 1) >> kBlockShift) + regions() * kTableSlots;
  // The only memory cleared here: one directory word per region.
  dir_ = std::make_unique<uint8_t*[]>(regions());
  slab_bytes_ = std::min<size_t>(max_slots, kSlabSlots) << kBlockShift;
  // Every slab but the last leaves fewer than a table's slots unused.
  slabs_.reserve(max_slots / (kSlabSlots - kTableSlots) + 1);
}

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

size_t BackingStore::host_bytes() const {
  return regions() * sizeof(dir_[0]) + slabs_.capacity() * sizeof(slabs_[0]) +
         slabs_.size() * slab_bytes_;
}

uint32_t BackingStore::NewSlots(uint32_t n) {
  // A table never straddles two slabs: skip the tail of a slab too short
  // for it.
  if ((next_slot_ & (kSlabSlots - 1)) + n > kSlabSlots) {
    next_slot_ = (next_slot_ | (kSlabSlots - 1)) + 1;
  }
  if ((next_slot_ >> kSlabShift) == slabs_.size()) {
    slabs_.push_back(std::make_unique_for_overwrite<uint8_t[]>(slab_bytes_));
  }
  const uint32_t first = next_slot_;
  next_slot_ += n;
  assert(next_slot_ < (uint32_t{1} << 24) && "slot numbers are 24 bits");
  return first;
}

void BackingStore::SetSlot(uint8_t* table, size_t block, uint32_t slot) {
  uint8_t* entry = table + (block % kRegionBlocks) * kEntryBytes;
  const auto low = static_cast<uint16_t>(slot);
  std::memcpy(entry, &low, 2);
  entry[2] = static_cast<uint8_t>(slot >> 16);
}

uint8_t* BackingStore::BlockForWrite(size_t block) {
  if (const uint32_t slot = Slot(block)) {
    return SlotData(slot);
  }
  uint8_t*& table = dir_[block / kRegionBlocks];
  if (table == nullptr) {
    table = SlotData(NewSlots(kTableSlots));
    std::memset(table, 0, kTableSlots << kBlockShift);
  }
  const uint32_t slot = NewSlots(1);
  SetSlot(table, block, slot);
  uint8_t* data = SlotData(slot);
  std::memset(data, 0, kBlockBytes);
  return data;
}

void BackingStore::WriteSlow(uint32_t addr, std::span<const uint8_t> bytes) {
  if (!CheckRange(addr, bytes.size())) {
    return;
  }
  const size_t end = addr + bytes.size();
  for (size_t pos = addr; pos < end;) {
    const size_t next = std::min(((pos >> kBlockShift) + 1) << kBlockShift, end);
    std::memcpy(BlockForWrite(pos >> kBlockShift) + (pos & (kBlockBytes - 1)),
                bytes.data() + (pos - addr), next - pos);
    pos = next;
  }
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
    if (const uint32_t slot = Slot(pos >> kBlockShift)) {
      std::memcpy(dst, SlotData(slot) + (pos & (kBlockBytes - 1)), next - pos);
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
    const size_t next = std::min(((pos >> kBlockShift) + 1) << kBlockShift, end);
    if (const uint32_t slot = Slot(pos >> kBlockShift)) {
      std::memset(SlotData(slot) + (pos & (kBlockBytes - 1)), 0, next - pos);
    }
    pos = next;
  }
}

}  // namespace npr
