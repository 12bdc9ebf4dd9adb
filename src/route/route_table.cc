#include "src/route/route_table.h"

#include <algorithm>
#include <cassert>

namespace npr {

size_t RouteTable::Probe(uint64_t key) const {
  const size_t mask = index_.size() - 1;
  size_t i = Home(key);
  while (index_[i].key != 0 && index_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void RouteTable::GrowIndex() {
  std::vector<Bucket> old = std::move(index_);
  index_.assign(old.empty() ? 16 : 2 * old.size(), Bucket{});
  for (const Bucket& bucket : old) {
    if (bucket.key != 0) {
      index_[Probe(bucket.key)] = bucket;
    }
  }
}

void RouteTable::EraseBucket(size_t hole) {
  // Backward shift: each later bucket of the probe run whose home is not
  // in (hole, j] moves back into the hole, so no run is ever cut short.
  const size_t mask = index_.size() - 1;
  for (size_t j = (hole + 1) & mask; index_[j].key != 0; j = (j + 1) & mask) {
    if (((j - Home(index_[j].key)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = Bucket{};
  --count_;
}

void RouteTable::AddRoute(const Prefix& prefix, const RouteEntry& entry) {
  // Longer prefixes take priority wherever they overlap (the trie handles
  // it), so an insert only writes the new prefix's own slots; replacing an
  // existing prefix just rewrites its entry.
  if (2 * (count_ + 1) > index_.size()) {
    GrowIndex();
  }
  const uint64_t key = KeyOf(prefix);
  Bucket& bucket = index_[Probe(key)];
  if (bucket.key == 0) {
    bucket.key = key;
    if (free_entries_.empty()) {
      // The trie packs an entry index into 24 bits of its slot.
      assert(entries_.size() < (size_t{1} << 24) && "route entry indices are 24 bits");
      bucket.entry = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      bucket.entry = free_entries_.back();
      free_entries_.pop_back();
    }
    ++count_;
    trie_.Insert(prefix, bucket.entry);
  }
  entries_[bucket.entry] = entry;
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
  if (index_.empty()) {
    return false;
  }
  const size_t i = Probe(KeyOf(prefix));
  if (index_[i].key == 0) {
    return false;
  }
  free_entries_.push_back(index_[i].entry);
  EraseBucket(i);
  // The withdrawn slots fall back to the longest remaining prefix that
  // contains this one: one probe per shorter length, longest first.
  std::optional<CpeTrie::Covering> covering;
  for (int len = prefix.len - 1; len >= 0 && !covering; --len) {
    const Bucket& cover = index_[Probe(KeyOf(Prefix::Make(prefix.addr, static_cast<uint8_t>(len))))];
    if (cover.key != 0) {
      covering = CpeTrie::Covering{cover.entry, static_cast<uint8_t>(len)};
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
  routes.reserve(count_);
  for (const Bucket& bucket : index_) {
    if (bucket.key != 0) {
      const Prefix prefix{static_cast<uint32_t>(bucket.key >> 6),
                          static_cast<uint8_t>((bucket.key & 63) - 1)};
      routes.emplace_back(prefix, entries_[bucket.entry]);
    }
  }
  std::sort(routes.begin(), routes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return routes;
}

}  // namespace npr
