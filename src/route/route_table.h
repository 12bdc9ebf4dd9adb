// Routing table: prefix -> (output port, next-hop MAC), backed by the CPE
// trie for longest-prefix match. Lives in SRAM on the real board (§2.2);
// the cycle cost of walking it is charged by whichever processor performs
// the lookup (StrongARM or Pentium — it exceeds the VRP budget, §4.4).

#ifndef SRC_ROUTE_ROUTE_TABLE_H_
#define SRC_ROUTE_ROUTE_TABLE_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/net/ethernet.h"
#include "src/route/cpe_trie.h"
#include "src/route/prefix.h"

namespace npr {

struct RouteEntry {
  uint8_t out_port = 0;
  MacAddr next_hop_mac{};
};

class RouteTable {
 public:
  RouteTable() = default;

  // Adds or replaces the route for `prefix`.
  void AddRoute(const Prefix& prefix, const RouteEntry& entry);
  // Convenience: "10.1.0.0/16" -> port with that port's link-peer MAC.
  bool AddRoute(const std::string& cidr, uint8_t out_port);

  // Withdraws a prefix. Returns false if it was not present.
  bool RemoveRoute(const Prefix& prefix);

  struct LookupResult {
    std::optional<RouteEntry> entry;
    int memory_accesses = 0;
  };
  LookupResult Lookup(uint32_t dst_ip) const;

  size_t size() const { return count_; }
  // Bumped on every mutation; route caches use it for invalidation.
  uint64_t epoch() const { return epoch_; }

  // All installed routes in prefix order (for diagnostics and the control
  // plane).
  std::vector<std::pair<Prefix, RouteEntry>> Dump() const;

  // The lookup structure, for its node and memory accounting.
  const CpeTrie& trie() const { return trie_; }
  // Entry slots in use or awaiting reuse by the next AddRoute.
  size_t entry_slots() const { return entries_.size(); }

 private:
  // One bucket of the prefix index: an installed prefix's key and its slot
  // in entries_. Key 0 marks an empty bucket (a key's low bits are len + 1).
  struct Bucket {
    uint64_t key;
    uint32_t entry;
  };
  static uint64_t KeyOf(const Prefix& prefix) {
    return uint64_t{prefix.addr} << 6 | (prefix.len + 1u);
  }
  // Fibonacci hashing: the top log2(buckets) bits of key * 2^64/phi.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                               (64 - std::countr_zero(index_.size())));
  }
  // The bucket holding `key`, or the empty bucket that ends its probe run.
  // The index must not be empty.
  size_t Probe(uint64_t key) const;
  void GrowIndex();
  void EraseBucket(size_t i);

  std::vector<RouteEntry> entries_;     // trie values index into this
  std::vector<uint32_t> free_entries_;  // withdrawn slots of entries_
  // Installed prefix -> slot in entries_: open addressing with linear
  // probing, a power-of-two bucket count, load at most 1/2, and deletion
  // by backward shift, so a probe run never holds a hole.
  std::vector<Bucket> index_;
  size_t count_ = 0;
  CpeTrie trie_;
  uint64_t epoch_ = 0;
};

}  // namespace npr

#endif  // SRC_ROUTE_ROUTE_TABLE_H_
