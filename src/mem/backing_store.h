// Functional (contents) model of a memory, separate from its timing model.
//
// The simulator keeps real bytes in simulated DRAM/SRAM/Scratch: packet
// payloads are actually written by the input stage and read back by the
// output stage, queue entries are real 32-bit words, and forwarder flow
// state lives at real SRAM addresses. This keeps the functional router
// honest — a corrupted pointer shows up as a corrupted packet, not as a
// silently-correct abstraction.
//
// Representation: host memory follows the 64-byte blocks (one MP each) a
// run writes, not the simulated addresses they span. Each written block
// lives in a 64 KB slab, packed in first-write order. A directory with one
// pointer per 64 KB region leads to that region's block table, and the
// tables are carved from the same slabs when the region's first block is
// written. A table entry is the block's 24-bit slot number (0: never
// written), so the paper's buffer ring, whose first MPs are 64 bytes in
// every 2 KB, keeps 3 KB of table per 32 blocks instead of a resident page
// per two blocks. A write allocates and zero-fills each unwritten block it
// touches, then copies; a read copies written blocks and returns zeros for
// the rest without allocating. So every byte reads as zero until written,
// exactly as if the store had been zero-filled when it was built, but a
// constructor clears only the directory (4 KB per 32 MB; docs/perf.md,
// "Router construction and footprint").

#ifndef SRC_MEM_BACKING_STORE_H_
#define SRC_MEM_BACKING_STORE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace npr {

class FaultInjector;

class BackingStore {
 public:
  BackingStore(std::string name, size_t size_bytes);

  size_t size() const { return size_; }
  const std::string& name() const { return name_; }

  // Byte-span accessors. Addresses are bounds-checked (assert in debug,
  // clamped no-op in release with an error counter). Inline: queue words
  // and MP payloads cross these on every simulated memory reference, and
  // nearly all of them fall inside one written block; every other access
  // (out of range, empty, unwritten or spanning blocks) goes out of line.
  void Write(uint32_t addr, std::span<const uint8_t> bytes) {
    if (const uint32_t slot = WrittenSlot(addr, bytes.size())) [[likely]] {
      std::memcpy(SlotData(slot) + (addr & (kBlockBytes - 1)), bytes.data(), bytes.size());
    } else {
      WriteSlow(addr, bytes);
    }
  }
  void Read(uint32_t addr, std::span<uint8_t> out) const {
    if (const uint32_t slot = WrittenSlot(addr, out.size())) [[likely]] {
      std::memcpy(out.data(), SlotData(slot) + (addr & (kBlockBytes - 1)), out.size());
      if (fault_ != nullptr) {
        FaultFlip(out);
      }
    } else {
      ReadSlow(addr, out);
    }
  }

  // 32-bit little-endian word accessors (queue entries, flow state words).
  void WriteU32(uint32_t addr, uint32_t value) {
    uint8_t bytes[4];
    std::memcpy(bytes, &value, 4);
    Write(addr, bytes);
  }
  uint32_t ReadU32(uint32_t addr) const {
    uint8_t bytes[4] = {};
    Read(addr, bytes);
    uint32_t value;
    std::memcpy(&value, bytes, 4);
    return value;
  }

  void WriteU64(uint32_t addr, uint64_t value) {
    uint8_t bytes[8];
    std::memcpy(bytes, &value, 8);
    Write(addr, bytes);
  }
  uint64_t ReadU64(uint32_t addr) const {
    uint8_t bytes[8] = {};
    Read(addr, bytes);
    uint64_t value;
    std::memcpy(&value, bytes, 8);
    return value;
  }

  // Zero-fills [addr, addr + len): the written blocks it covers are cleared
  // in place; unwritten ones already read as zero.
  void Zero(uint32_t addr, size_t len);

  // Number of accesses rejected for being out of bounds.
  uint64_t oob_errors() const { return oob_errors_; }

  // Host memory the store holds: directory, slab list and slabs (which
  // hold the block tables and the written blocks).
  size_t host_bytes() const;

  // Fault injection: single-bit flips on the data returned by Read(). The
  // stored bytes are untouched (a transient read disturbance).
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

 private:
  static constexpr unsigned kBlockShift = 6;  // 64-byte blocks
  static constexpr size_t kBlockBytes = size_t{1} << kBlockShift;
  static constexpr unsigned kRegionShift = 16;  // one directory word per 64 KB
  static constexpr size_t kRegionBytes = size_t{1} << kRegionShift;
  static constexpr size_t kRegionBlocks = size_t{1} << (kRegionShift - kBlockShift);
  static constexpr unsigned kSlabShift = 10;  // 1,024 blocks (64 KB) per slab
  static constexpr uint32_t kSlabSlots = uint32_t{1} << kSlabShift;
  // A table entry is a 3-byte slot number, so a table fills 48 slots.
  static constexpr size_t kEntryBytes = 3;
  static constexpr uint32_t kTableSlots = kRegionBlocks * kEntryBytes / kBlockBytes;

  size_t regions() const { return (size_ + kRegionBytes - 1) >> kRegionShift; }
  bool CheckRange(uint32_t addr, size_t len) const {
    if (static_cast<size_t>(addr) + len > size_) [[unlikely]] {
      return RangeFailure(addr, len);
    }
    return true;
  }
  // The slot of the block holding [addr, addr + len) if the range is
  // non-empty, in range, inside one block, and that block has been written;
  // otherwise 0.
  uint32_t WrittenSlot(uint32_t addr, size_t len) const {
    const size_t end = static_cast<size_t>(addr) + len;
    if (len == 0 || end > size_ || (addr >> kBlockShift) != ((end - 1) >> kBlockShift)) {
      return 0;
    }
    return Slot(addr >> kBlockShift);
  }
  // The slot of `block`, or 0 if it has never been written.
  uint32_t Slot(size_t block) const {
    const uint8_t* table = dir_[block / kRegionBlocks];
    if (table == nullptr) {
      return 0;
    }
    // Low two bytes as one host-endian load, as SetSlot stores them.
    const uint8_t* entry = table + (block % kRegionBlocks) * kEntryBytes;
    uint16_t low;
    std::memcpy(&low, entry, 2);
    return low | uint32_t{entry[2]} << 16;
  }
  uint8_t* SlotData(uint32_t slot) const {
    return slabs_[slot >> kSlabShift].get() + ((slot & (kSlabSlots - 1)) << kBlockShift);
  }

  // Cold halves, out of line: error reporting, fault-injection flips, the
  // accesses the inline test above does not take, and slot allocation.
  bool RangeFailure(uint32_t addr, size_t len) const;
  void FaultFlip(std::span<uint8_t> out) const;
  void WriteSlow(uint32_t addr, std::span<const uint8_t> bytes);
  void ReadSlow(uint32_t addr, std::span<uint8_t> out) const;
  // The stored copy of `block`, allocated and zero-filled if unwritten.
  uint8_t* BlockForWrite(size_t block);
  static void SetSlot(uint8_t* table, size_t block, uint32_t slot);
  // `n` consecutive slots inside one slab, in first-write order.
  uint32_t NewSlots(uint32_t n);

  std::string name_;
  size_t size_;
  // Per 64 KB region: its block table, or nullptr until a block is written.
  std::unique_ptr<uint8_t*[]> dir_;
  // 64 KB, or less when every block and table of the store fits one slab.
  size_t slab_bytes_ = 0;
  std::vector<std::unique_ptr<uint8_t[]>> slabs_;
  // The next free slot. A table comes first in every store, so a block's
  // slot is never 0.
  uint32_t next_slot_ = 0;
  FaultInjector* fault_ = nullptr;
  mutable uint64_t oob_errors_ = 0;
};

}  // namespace npr

#endif  // SRC_MEM_BACKING_STORE_H_
