// Longest-prefix match via controlled prefix expansion (Srinivasan &
// Varghese, TOCS 1999 — reference [22] of the paper).
//
// A fixed-stride multibit trie: each prefix is expanded to the next stride
// boundary, with longer prefixes overwriting the expansion of shorter ones
// (leaf pushing). Lookup inspects at most one node per stride level; the
// paper reports this algorithm costs ~236 cycles per packet on the
// StrongARM, far beyond the VRP budget, which is why full lookups run above
// the MicroEngines while the fast path uses a route cache.

#ifndef SRC_ROUTE_CPE_TRIE_H_
#define SRC_ROUTE_CPE_TRIE_H_

#include <cstdint>
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
  // next-hop handle (index into the route table's entry array).
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
  size_t node_count() const { return nodes_.size() - free_nodes_.size(); }
  size_t allocated_nodes() const { return nodes_.size(); }
  // Total table memory if each slot were a 4-byte SRAM word.
  size_t MemoryBytes() const;

 private:
  struct Slot {
    int32_t child = -1;       // node index, or -1
    int32_t value = -1;       // next-hop handle, or -1
    uint8_t value_plen = 0;   // prefix length that wrote `value` (for priority)
  };
  struct Node {
    int level;
    std::vector<Slot> slots;  // empty while the node is free
  };

  int NewNode(int level);
  void InsertAt(int node_idx, uint32_t addr, uint8_t len, uint32_t value, int bit_off);
  // Returns true when the node is left empty for its parent to unlink.
  bool RemoveAt(int node_idx, const Prefix& prefix, std::optional<Covering> covering, int bit_off);

  std::vector<int> strides_;
  std::vector<Node> nodes_;
  std::vector<int> free_nodes_;
};

}  // namespace npr

#endif  // SRC_ROUTE_CPE_TRIE_H_
