// Routing table: prefix -> (output port, next-hop MAC), backed by the CPE
// trie for longest-prefix match. Lives in SRAM on the real board (§2.2);
// the cycle cost of walking it is charged by whichever processor performs
// the lookup (StrongARM or Pentium — it exceeds the VRP budget, §4.4).

#ifndef SRC_ROUTE_ROUTE_TABLE_H_
#define SRC_ROUTE_ROUTE_TABLE_H_

#include <cstdint>
#include <map>
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

  size_t size() const { return entry_index_.size(); }
  // Bumped on every mutation; route caches use it for invalidation.
  uint64_t epoch() const { return epoch_; }

  // All installed routes (for diagnostics and the control plane).
  std::vector<std::pair<Prefix, RouteEntry>> Dump() const;

  // The lookup structure, for its node and memory accounting.
  const CpeTrie& trie() const { return trie_; }
  // Entry slots in use or awaiting reuse by the next AddRoute.
  size_t entry_slots() const { return entries_.size(); }

 private:
  std::vector<RouteEntry> entries_;        // trie values index into this
  std::vector<uint32_t> free_entries_;     // withdrawn slots of entries_
  std::map<Prefix, uint32_t> entry_index_; // installed prefix -> slot in entries_
  CpeTrie trie_;
  uint64_t epoch_ = 0;
};

}  // namespace npr

#endif  // SRC_ROUTE_ROUTE_TABLE_H_
