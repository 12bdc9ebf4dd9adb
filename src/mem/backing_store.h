// Functional (contents) model of a memory, separate from its timing model.
//
// The simulator keeps real bytes in simulated DRAM/SRAM/Scratch: packet
// payloads are actually written by the input stage and read back by the
// output stage, queue entries are real 32-bit words, and forwarder flow
// state lives at real SRAM addresses. This keeps the functional router
// honest — a corrupted pointer shows up as a corrupted packet, not as a
// silently-correct abstraction.
//
// Representation: the bytes are allocated uninitialized, beside one bit per
// 64-byte block (one MP) recording whether the block has been written. A
// write zero-fills each unwritten block it touches, then copies; a read
// copies written blocks and returns zeros for unwritten ones without
// touching them. So every byte reads as zero until written, exactly as if
// the store had been zero-filled when it was built, but building a router
// costs its 64 KB-per-32 MB bitmap instead of zeroing 42 MB, and only the
// blocks a run writes ever become resident (docs/perf.md, "Router
// construction and footprint").

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
    if (InWrittenBlock(addr, bytes.size())) [[likely]] {
      std::memcpy(data_.get() + addr, bytes.data(), bytes.size());
    } else {
      WriteSlow(addr, bytes);
    }
  }
  void Read(uint32_t addr, std::span<uint8_t> out) const {
    if (InWrittenBlock(addr, out.size())) [[likely]] {
      std::memcpy(out.data(), data_.get() + addr, out.size());
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

  // Zero-fills [addr, addr + len): whole blocks go back to unwritten.
  void Zero(uint32_t addr, size_t len);

  // Number of accesses rejected for being out of bounds.
  uint64_t oob_errors() const { return oob_errors_; }

  // Fault injection: single-bit flips on the data returned by Read(). The
  // stored bytes are untouched (a transient read disturbance).
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

 private:
  static constexpr unsigned kBlockShift = 6;  // 64-byte blocks
  static constexpr size_t kBlockBytes = size_t{1} << kBlockShift;

  bool CheckRange(uint32_t addr, size_t len) const {
    if (static_cast<size_t>(addr) + len > size_) [[unlikely]] {
      return RangeFailure(addr, len);
    }
    return true;
  }
  // True if [addr, addr + len) is non-empty, in range, and inside one block
  // that has been written.
  bool InWrittenBlock(uint32_t addr, size_t len) const {
    const size_t end = static_cast<size_t>(addr) + len;
    return len != 0 && end <= size_ && (addr >> kBlockShift) == ((end - 1) >> kBlockShift) &&
           IsWritten(addr >> kBlockShift);
  }
  bool IsWritten(size_t block) const { return (written_[block >> 6] >> (block & 63)) & 1; }

  // Cold halves, out of line: error reporting, fault-injection flips, and
  // the accesses the inline test above does not take.
  bool RangeFailure(uint32_t addr, size_t len) const;
  void FaultFlip(std::span<uint8_t> out) const;
  void WriteSlow(uint32_t addr, std::span<const uint8_t> bytes);
  void ReadSlow(uint32_t addr, std::span<uint8_t> out) const;

  std::string name_;
  size_t size_;
  // size_ rounded up to whole blocks, uninitialized until a block is written.
  std::unique_ptr<uint8_t[]> data_;
  std::vector<uint64_t> written_;  // bit b: block b has been written
  FaultInjector* fault_ = nullptr;
  mutable uint64_t oob_errors_ = 0;
};

}  // namespace npr

#endif  // SRC_MEM_BACKING_STORE_H_
