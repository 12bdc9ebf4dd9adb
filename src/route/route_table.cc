#include "src/route/route_table.h"

namespace npr {

void RouteTable::AddRoute(const Prefix& prefix, const RouteEntry& entry) {
  // Longer prefixes take priority wherever they overlap (the trie handles
  // it), so an insert only writes the new prefix's own slots; replacing an
  // existing prefix just rewrites its entry.
  auto [it, inserted] = entry_index_.try_emplace(prefix, 0);
  if (inserted) {
    if (free_entries_.empty()) {
      it->second = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      it->second = free_entries_.back();
      free_entries_.pop_back();
    }
    trie_.Insert(prefix, it->second);
  }
  entries_[it->second] = entry;
  ++epoch_;
}

bool RouteTable::AddRoute(const std::string& cidr, uint8_t out_port) {
  auto prefix = Prefix::Parse(cidr);
  if (!prefix) {
    return false;
  }
  RouteEntry entry;
  entry.out_port = out_port;
  entry.next_hop_mac = PortMac(out_port);
  AddRoute(*prefix, entry);
  return true;
}

bool RouteTable::RemoveRoute(const Prefix& prefix) {
  auto it = entry_index_.find(prefix);
  if (it == entry_index_.end()) {
    return false;
  }
  free_entries_.push_back(it->second);
  entry_index_.erase(it);
  // The withdrawn slots fall back to the longest remaining prefix that
  // contains this one: one probe per shorter length, longest first.
  std::optional<CpeTrie::Covering> covering;
  for (int len = prefix.len - 1; len >= 0 && !covering; --len) {
    auto cover = entry_index_.find(Prefix::Make(prefix.addr, static_cast<uint8_t>(len)));
    if (cover != entry_index_.end()) {
      covering = CpeTrie::Covering{cover->second, static_cast<uint8_t>(len)};
    }
  }
  trie_.Remove(prefix, covering);
  ++epoch_;
  return true;
}

RouteTable::LookupResult RouteTable::Lookup(uint32_t dst_ip) const {
  LookupResult result;
  auto hit = trie_.Lookup(dst_ip);
  result.memory_accesses = hit.nodes_visited;
  if (hit.value) {
    result.entry = entries_[*hit.value];
  }
  return result;
}

std::vector<std::pair<Prefix, RouteEntry>> RouteTable::Dump() const {
  std::vector<std::pair<Prefix, RouteEntry>> routes;
  routes.reserve(entry_index_.size());
  for (const auto& [prefix, index] : entry_index_) {
    routes.emplace_back(prefix, entries_[index]);
  }
  return routes;
}

}  // namespace npr
