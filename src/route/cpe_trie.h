// Longest-prefix match via controlled prefix expansion (Srinivasan &
// Varghese, TOCS 1999 — reference [22] of the paper).
//
// A fixed-stride multibit trie: each prefix is expanded to the next stride
// boundary, with longer prefixes overwriting the expansion of shorter ones
// (leaf pushing). Lookup inspects at most one node per stride level; the
// paper reports this algorithm costs ~236 cycles per packet on the
// StrongARM, far beyond the VRP budget, which is why full lookups run above
// the MicroEngines while the fast path uses a route cache.
//
// Host layout: host memory follows the slots a table writes, not the
// 2^stride slots a node spans. A node's slots live in 256-slot (2 KB)
// pages carved from 64 KB slabs; a page is taken and zeroed on the first
// write into it, and a read of a page never written sees an empty slot.
// So the stride-16 root of a table holding a handful of routes costs one
// or two pages, not 512 KB. MemoryBytes() still describes the hardware
// layout (docs/perf.md, "Router construction and footprint").

#ifndef SRC_ROUTE_CPE_TRIE_H_
#define SRC_ROUTE_CPE_TRIE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/route/prefix.h"

namespace npr {

class CpeTrie {
 public:
  // `strides` must sum to 32. The paper-era default {16, 8, 8} gives at
  // most three memory accesses per lookup.
  explicit CpeTrie(std::vector<int> strides = {16, 8, 8});

  // Inserts (or replaces) a prefix mapping to `value`. Value is an opaque
  // next-hop handle (index into the route table's entry array) below 2^24.
  void Insert(const Prefix& prefix, uint32_t value);

  // The longest remaining prefix that contains a withdrawn one.
  struct Covering {
    uint32_t value;
    uint8_t len;
  };
  // Withdraws an inserted prefix in place. The slots it owns take
  // `covering`'s value if that prefix lands in the same node (a shorter
  // level needs nothing: the lookup walk already falls back to it), and
  // nodes left with no value and no child are unlinked, deepest first.
  // The result is indistinguishable from a fresh build of what remains.
  void Remove(const Prefix& prefix, std::optional<Covering> covering);

  struct LookupResult {
    std::optional<uint32_t> value;
    int nodes_visited = 0;  // = memory accesses a hardware walk would make
  };
  LookupResult Lookup(uint32_t ip) const;

  // Live nodes; unlinked ones wait in a free list for the next insert.
  size_t node_count() const;
  size_t allocated_nodes() const;
  // Total table memory if each slot were a 4-byte SRAM word: 2^stride
  // words per live node, written or not.
  size_t MemoryBytes() const;

  // Slot pages in use (an unlinked node's pages wait in a free list).
  size_t pages() const { return pages_; }
  // Host memory the trie holds: slabs, slab list and page references.
  size_t host_bytes() const;

 private:
  // 8 bytes. A zeroed slot is empty: the root is node 0 and never a child,
  // so child 0 means none.
  struct Slot {
    uint32_t child;  // node, or 0
    // Next-hop handle << 8 | (length of the prefix that wrote it + 1), or 0
    // for none. Longer prefixes take priority, so a slot with no value
    // compares as shorter than every prefix.
    uint32_t value;

    static uint32_t Pack(uint32_t handle, uint8_t len) { return handle << 8 | (len + 1u); }
    uint32_t handle() const { return value >> 8; }
    uint32_t len_plus_one() const { return value & 0xff; }
  };
  static_assert(sizeof(Slot) == 8);
  static constexpr unsigned kPageShift = 8;  // 256 slots (2 KB) per page
  static constexpr uint32_t kPageSlots = uint32_t{1} << kPageShift;
  static constexpr unsigned kSlabShift = 5;  // 32 pages (64 KB) per slab
  static constexpr uint32_t kSlabPages = uint32_t{1} << kSlabShift;

  // A node smaller than a page uses the first 2^stride slots of one.
  uint32_t PagesPerNode(size_t level) const {
    const int stride = strides_[level];
    return stride > static_cast<int>(kPageShift) ? uint32_t{1} << (stride - kPageShift) : 1;
  }
  // Slot `idx` of `node`, or nullptr if its page was never written.
  Slot* Find(uint32_t node, uint32_t idx) const {
    Slot* page = page_refs_[node + (idx >> kPageShift)];
    return page == nullptr ? nullptr : page + (idx & (kPageSlots - 1));
  }
  // Page `page` of `node`, taken and zeroed if it was never written.
  Slot* PageForWrite(uint32_t node, uint32_t page);
  Slot* TakePage();
  // Calls fn(Slot&) on slots [first, end) of `node`, a page at a time.
  template <typename Fn>
  void ForEachSlot(uint32_t node, uint32_t first, uint32_t end, Fn fn);

  uint32_t NewNode(size_t level);
  void FreeNode(uint32_t node, size_t level);
  bool IsEmpty(uint32_t node, size_t level) const;
  void InsertAt(uint32_t node, size_t level, uint32_t addr, uint8_t len, uint32_t value,
                int bit_off);
  // Returns true when the node is left empty for its parent to unlink.
  bool RemoveAt(uint32_t node, size_t level, const Prefix& prefix,
                std::optional<Covering> covering, int bit_off);

  std::vector<int> strides_;
  // A node at `level` is named by the index of its first page reference:
  // it owns page_refs_[node, node + PagesPerNode(level)). A reference is
  // null until the page is written. The root is node 0.
  std::vector<Slot*> page_refs_;
  std::vector<uint32_t> carved_nodes_;            // nodes ever made, per level
  std::vector<std::vector<uint32_t>> free_nodes_;  // unlinked nodes, per level
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  uint32_t next_page_ = 0;  // pages carved from slabs so far
  // Freed pages, chained through the first 8 bytes of each.
  Slot* free_page_ = nullptr;
  size_t pages_ = 0;
};

}  // namespace npr

#endif  // SRC_ROUTE_CPE_TRIE_H_
