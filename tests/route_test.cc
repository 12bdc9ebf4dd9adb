// Unit tests for routing: prefixes, the CPE trie (with a property-based
// comparison against a naive longest-prefix reference), route table, cache.

#include <gtest/gtest.h>

#include <map>

#include "src/net/ipv4.h"
#include "src/route/cpe_trie.h"
#include "src/route/prefix.h"
#include "src/route/route_cache.h"
#include "src/route/route_table.h"
#include "src/sim/random.h"

namespace npr {
namespace {

TEST(Prefix, ParseValid) {
  auto p = Prefix::Parse("10.1.0.0/16");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->addr, 0x0a010000u);
  EXPECT_EQ(p->len, 16);
  EXPECT_EQ(p->ToString(), "10.1.0.0/16");
}

TEST(Prefix, ParseCanonicalizes) {
  auto p = Prefix::Parse("10.1.2.3/16");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->addr, 0x0a010000u);  // host bits masked
}

TEST(Prefix, ParseRejectsGarbage) {
  EXPECT_FALSE(Prefix::Parse("10.1.0.0"));
  EXPECT_FALSE(Prefix::Parse("10.1.0.0/33"));
  EXPECT_FALSE(Prefix::Parse("999.1.0.0/8"));
  EXPECT_FALSE(Prefix::Parse("banana/8"));
}

TEST(Prefix, Contains) {
  auto p = *Prefix::Parse("192.168.0.0/24");
  EXPECT_TRUE(p.Contains(0xc0a80001));
  EXPECT_FALSE(p.Contains(0xc0a80101));
}

TEST(Prefix, DefaultRouteContainsEverything) {
  auto p = Prefix::Make(0, 0);
  EXPECT_TRUE(p.Contains(0));
  EXPECT_TRUE(p.Contains(0xffffffff));
}

// --- CpeTrie ---

TEST(CpeTrie, EmptyLookupMisses) {
  CpeTrie trie;
  auto r = trie.Lookup(0x0a000001);
  EXPECT_FALSE(r.value.has_value());
  EXPECT_EQ(r.nodes_visited, 1);
}

TEST(CpeTrie, ExactAndLongestMatch) {
  CpeTrie trie;
  trie.Insert(*Prefix::Parse("10.0.0.0/8"), 1);
  trie.Insert(*Prefix::Parse("10.1.0.0/16"), 2);
  trie.Insert(*Prefix::Parse("10.1.2.0/24"), 3);
  EXPECT_EQ(trie.Lookup(0x0a050505).value, 1u);
  EXPECT_EQ(trie.Lookup(0x0a010505).value, 2u);
  EXPECT_EQ(trie.Lookup(0x0a010205).value, 3u);
  EXPECT_FALSE(trie.Lookup(0x0b000001).value.has_value());
}

TEST(CpeTrie, LookupVisitsAtMostStrideLevels) {
  CpeTrie trie({16, 8, 8});
  trie.Insert(*Prefix::Parse("10.1.2.3/32"), 9);
  auto r = trie.Lookup(0x0a010203);
  EXPECT_EQ(r.value, 9u);
  EXPECT_LE(r.nodes_visited, 3);
}

TEST(CpeTrie, LongerPrefixWinsRegardlessOfInsertOrder) {
  for (bool long_first : {true, false}) {
    CpeTrie trie;
    if (long_first) {
      trie.Insert(*Prefix::Parse("10.1.0.0/16"), 2);
      trie.Insert(*Prefix::Parse("10.0.0.0/8"), 1);
    } else {
      trie.Insert(*Prefix::Parse("10.0.0.0/8"), 1);
      trie.Insert(*Prefix::Parse("10.1.0.0/16"), 2);
    }
    EXPECT_EQ(trie.Lookup(0x0a010001).value, 2u) << "long_first=" << long_first;
    EXPECT_EQ(trie.Lookup(0x0a020001).value, 1u);
  }
}

TEST(CpeTrie, DefaultRoute) {
  CpeTrie trie;
  trie.Insert(Prefix::Make(0, 0), 42);
  trie.Insert(*Prefix::Parse("10.0.0.0/8"), 1);
  EXPECT_EQ(trie.Lookup(0xdeadbeef).value, 42u);
  EXPECT_EQ(trie.Lookup(0x0a000001).value, 1u);
}

// Naive longest-prefix match over the prefixes of `routes` no longer than
// `max_len`: the matching value and its prefix length.
std::optional<CpeTrie::Covering> NaiveMatch(const std::map<Prefix, uint32_t>& routes, uint32_t ip,
                                            int max_len = 32) {
  std::optional<CpeTrie::Covering> best;
  for (const auto& [prefix, value] : routes) {
    if (prefix.len <= max_len && prefix.Contains(ip) && (!best || prefix.len > best->len)) {
      best = CpeTrie::Covering{value, prefix.len};
    }
  }
  return best;
}

// Probes `trie` against the naive reference: half the probes target
// installed prefixes to guarantee hits, the rest are uniform.
void ExpectMatchesReference(const CpeTrie& trie, const std::map<Prefix, uint32_t>& reference,
                            Rng& rng) {
  for (int q = 0; q < 300; ++q) {
    uint32_t ip;
    if (q % 2 == 0 && !reference.empty()) {
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.Uniform(reference.size())));
      ip = it->first.addr | (static_cast<uint32_t>(rng.Next()) & ~it->first.Mask());
    } else {
      ip = static_cast<uint32_t>(rng.Next());
    }
    std::optional<uint32_t> expect;
    if (auto match = NaiveMatch(reference, ip)) {
      expect = match->value;
    }
    EXPECT_EQ(trie.Lookup(ip).value, expect) << "ip=" << Ipv4ToString(ip);
  }
}

// Property test: against a naive reference implementation, over random
// prefix sets and random stride configurations.
class CpeTrieProperty : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(CpeTrieProperty, MatchesNaiveReferenceOnRandomSets) {
  Rng rng(0xfeedface);
  for (int trial = 0; trial < 10; ++trial) {
    CpeTrie trie(GetParam());
    std::map<Prefix, uint32_t> reference;
    for (int i = 0; i < 60; ++i) {
      const uint8_t len = static_cast<uint8_t>(rng.Range(4, 28));
      const Prefix p = Prefix::Make(static_cast<uint32_t>(rng.Next()), len);
      reference[p] = static_cast<uint32_t>(i);
      trie.Insert(p, static_cast<uint32_t>(i));
    }
    ExpectMatchesReference(trie, reference, rng);
  }
}

// Withdrawing a random third in place leaves the trie equal to the naive
// reference, and as small as a trie built from the survivors.
TEST_P(CpeTrieProperty, WithdrawalsMatchNaiveReference) {
  Rng rng(0xdecafbad);
  for (int trial = 0; trial < 5; ++trial) {
    std::map<Prefix, uint32_t> reference;
    size_t nodes = 0;
    size_t bytes = 0;
    {  // One trie at a time: a 24-bit root alone is 16M slots.
      CpeTrie trie(GetParam());
      for (int i = 0; i < 60; ++i) {
        // Nested lengths over a few shared /8s, so withdrawals fall back.
        const uint8_t len = static_cast<uint8_t>(rng.Range(4, 32));
        const uint32_t top = static_cast<uint32_t>(rng.Uniform(4)) << 24;
        const Prefix p =
            Prefix::Make(top | (static_cast<uint32_t>(rng.Next()) & 0x0003ff0f), len);
        reference[p] = static_cast<uint32_t>(i);
        trie.Insert(p, static_cast<uint32_t>(i));
      }
      std::vector<Prefix> installed;
      for (const auto& [prefix, value] : reference) {
        installed.push_back(prefix);
      }
      for (size_t k = 0; k < installed.size() / 3; ++k) {
        std::swap(installed[k], installed[k + rng.Uniform(installed.size() - k)]);
        const Prefix withdrawn = installed[k];
        reference.erase(withdrawn);
        trie.Remove(withdrawn, NaiveMatch(reference, withdrawn.addr, withdrawn.len - 1));
      }
      ExpectMatchesReference(trie, reference, rng);
      nodes = trie.node_count();
      bytes = trie.MemoryBytes();
    }
    CpeTrie fresh(GetParam());
    for (const auto& [prefix, value] : reference) {
      fresh.Insert(prefix, value);
    }
    EXPECT_EQ(nodes, fresh.node_count());
    EXPECT_EQ(bytes, fresh.MemoryBytes());
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, CpeTrieProperty,
                         ::testing::Values(std::vector<int>{16, 8, 8},
                                           std::vector<int>{8, 8, 8, 8},
                                           std::vector<int>{24, 8},
                                           std::vector<int>{12, 12, 8}),
                         [](const auto& info) {
                           std::string name;
                           for (int s : info.param) {
                             name += std::to_string(s) + "_";
                           }
                           name.pop_back();
                           return name;
                         });

TEST(CpeTrie, MemoryGrowsWithPrefixes) {
  CpeTrie trie;
  const size_t base = trie.MemoryBytes();
  trie.Insert(*Prefix::Parse("10.1.2.0/24"), 1);
  EXPECT_GT(trie.MemoryBytes(), base);
}

// --- RouteTable ---

TEST(RouteTable, AddLookupRemove) {
  RouteTable table;
  EXPECT_TRUE(table.AddRoute("10.3.0.0/16", 3));
  auto hit = table.Lookup(0x0a030101);
  ASSERT_TRUE(hit.entry);
  EXPECT_EQ(hit.entry->out_port, 3);
  EXPECT_EQ(hit.entry->next_hop_mac, PortMac(3));
  EXPECT_GE(hit.memory_accesses, 1);

  EXPECT_TRUE(table.RemoveRoute(*Prefix::Parse("10.3.0.0/16")));
  EXPECT_FALSE(table.Lookup(0x0a030101).entry);
  EXPECT_FALSE(table.RemoveRoute(*Prefix::Parse("10.3.0.0/16")));
}

TEST(RouteTable, EpochBumpsOnMutation) {
  RouteTable table;
  const uint64_t e0 = table.epoch();
  table.AddRoute("10.0.0.0/8", 0);
  EXPECT_GT(table.epoch(), e0);
  const uint64_t e1 = table.epoch();
  table.RemoveRoute(*Prefix::Parse("10.0.0.0/8"));
  EXPECT_GT(table.epoch(), e1);
}

TEST(RouteTable, ReplaceUpdatesEntry) {
  RouteTable table;
  table.AddRoute("10.0.0.0/8", 1);
  table.AddRoute("10.0.0.0/8", 5);
  EXPECT_EQ(table.Lookup(0x0a000001).entry->out_port, 5);
  EXPECT_EQ(table.size(), 1u);
}

TEST(RouteTable, DumpListsRoutes) {
  RouteTable table;
  table.AddRoute("10.0.0.0/8", 0);
  table.AddRoute("10.1.0.0/16", 1);
  EXPECT_EQ(table.Dump().size(), 2u);
}

TEST(RouteTable, RejectsMalformedCidr) {
  RouteTable table;
  EXPECT_FALSE(table.AddRoute("nonsense", 0));
}

// Every lookup of `table` (entry and memory accesses) equals that of a table
// built fresh from `routes` — inside each route, inside each candidate
// prefix whether installed or withdrawn, and at random addresses, which
// mostly miss — and the two are the same size.
void ExpectEqualsFreshBuild(const RouteTable& table, const std::map<Prefix, RouteEntry>& routes,
                            const std::vector<Prefix>& candidates, Rng& rng) {
  RouteTable fresh;
  std::vector<Prefix> inside = candidates;
  for (const auto& [prefix, entry] : routes) {
    fresh.AddRoute(prefix, entry);
    inside.push_back(prefix);
  }
  std::vector<uint32_t> probes;
  for (const Prefix& prefix : inside) {
    probes.push_back(prefix.addr | (static_cast<uint32_t>(rng.Next()) & ~prefix.Mask()));
  }
  for (int i = 0; i < 64; ++i) {
    probes.push_back(static_cast<uint32_t>(rng.Next()));
  }
  for (uint32_t ip : probes) {
    const auto got = table.Lookup(ip);
    const auto want = fresh.Lookup(ip);
    ASSERT_EQ(got.entry.has_value(), want.entry.has_value()) << Ipv4ToString(ip);
    if (got.entry) {
      EXPECT_EQ(got.entry->out_port, want.entry->out_port) << Ipv4ToString(ip);
      EXPECT_EQ(got.entry->next_hop_mac, want.entry->next_hop_mac) << Ipv4ToString(ip);
    }
    EXPECT_EQ(got.memory_accesses, want.memory_accesses) << Ipv4ToString(ip);
  }
  EXPECT_EQ(table.trie().node_count(), fresh.trie().node_count());
  EXPECT_EQ(table.trie().MemoryBytes(), fresh.trie().MemoryBytes());
  EXPECT_EQ(table.size(), routes.size());
}

TEST(RouteTable, WithdrawInPlaceMatchesFreshBuild) {
  Rng rng(0x5eed);
  // Candidates of every length over two /16s, a handful of /24s and a few
  // host bytes, so prefixes nest and share nodes at every level.
  std::vector<Prefix> candidates;
  for (int i = 0; i < 400; ++i) {
    uint32_t addr = 0x0a010000u + (static_cast<uint32_t>(rng.Uniform(2)) << 16);
    addr += static_cast<uint32_t>(rng.Uniform(4)) << 8;
    addr += static_cast<uint32_t>(rng.Uniform(8)) * 32;
    candidates.push_back(Prefix::Make(addr, static_cast<uint8_t>(rng.Range(0, 32))));
  }
  RouteTable table;
  std::map<Prefix, RouteEntry> routes;
  for (int step = 1; step <= 3000; ++step) {
    const Prefix p = candidates[rng.Uniform(candidates.size())];
    const uint8_t port = static_cast<uint8_t>(rng.Uniform(8));
    if (routes.count(p) != 0 && rng.Chance(0.5)) {
      const uint64_t epoch = table.epoch();
      ASSERT_TRUE(table.RemoveRoute(p));
      EXPECT_EQ(table.epoch(), epoch + 1);
      routes.erase(p);
    } else {
      table.AddRoute(p, RouteEntry{port, PortMac(port)});  // add or replace
      routes[p] = RouteEntry{port, PortMac(port)};
    }
    if (step % 100 == 0) {
      ExpectEqualsFreshBuild(table, routes, candidates, rng);
    }
  }

  // Withdrawing and re-adding one prefix reuses its nodes and entry slot.
  const Prefix flap = *Prefix::Parse("10.9.8.4/30");
  table.AddRoute(flap, RouteEntry{1, PortMac(1)});
  const size_t nodes = table.trie().allocated_nodes();
  const size_t live_nodes = table.trie().node_count();
  const size_t entries = table.entry_slots();
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ASSERT_TRUE(table.RemoveRoute(flap));
    table.AddRoute(flap, RouteEntry{1, PortMac(1)});
    ASSERT_EQ(table.trie().allocated_nodes(), nodes);
    ASSERT_EQ(table.trie().node_count(), live_nodes);
    ASSERT_EQ(table.entry_slots(), entries);
  }
  routes[flap] = RouteEntry{1, PortMac(1)};
  ExpectEqualsFreshBuild(table, routes, candidates, rng);
}

// --- RouteCache ---

TEST(RouteCache, MissThenHit) {
  RouteCache cache(8);
  RouteEntry entry{4, PortMac(4)};
  EXPECT_FALSE(cache.Lookup(0x0a000001, 1));
  cache.Insert(0x0a000001, entry, 1);
  auto hit = cache.Lookup(0x0a000001, 1);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->out_port, 4);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(RouteCache, EpochChangeInvalidatesEverything) {
  RouteCache cache(8);
  cache.Insert(0x0a000001, RouteEntry{4, PortMac(4)}, 1);
  EXPECT_TRUE(cache.Lookup(0x0a000001, 1));
  EXPECT_FALSE(cache.Lookup(0x0a000001, 2));  // routes changed
}

TEST(RouteCache, DirectMappedEviction) {
  // With a single slot, any second distinct key evicts the first.
  RouteCache cache(0);
  cache.Insert(1, RouteEntry{1, PortMac(1)}, 1);
  cache.Insert(2, RouteEntry{2, PortMac(2)}, 1);
  const bool first = cache.Lookup(1, 1).has_value();
  const bool second = cache.Lookup(2, 1).has_value();
  EXPECT_TRUE(second);
  EXPECT_FALSE(first);
}

TEST(RouteCache, HitRate) {
  RouteCache cache(10);
  cache.Insert(7, RouteEntry{0, PortMac(0)}, 1);
  for (int i = 0; i < 9; ++i) {
    cache.Lookup(7, 1);
  }
  cache.Lookup(8, 1);
  EXPECT_NEAR(cache.HitRate(), 0.9, 0.001);
}

}  // namespace
}  // namespace npr
