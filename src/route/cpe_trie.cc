#include "src/route/cpe_trie.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace npr {
namespace {

// Bits [off, off+k) of `addr`, most-significant first.
uint32_t ExtractBits(uint32_t addr, int off, int k) {
  if (k == 0) {
    return 0;
  }
  return (addr >> (32 - off - k)) & ((uint32_t{1} << k) - 1);
}

}  // namespace

CpeTrie::CpeTrie(std::vector<int> strides) : strides_(std::move(strides)) {
  assert(std::accumulate(strides_.begin(), strides_.end(), 0) == 32 &&
         "strides must cover exactly 32 bits");
  NewNode(0);
}

int CpeTrie::NewNode(int level) {
  const size_t slots = size_t{1} << strides_[static_cast<size_t>(level)];
  if (!free_nodes_.empty()) {
    const int idx = free_nodes_.back();
    free_nodes_.pop_back();
    Node& node = nodes_[static_cast<size_t>(idx)];
    node.level = level;
    node.slots.resize(slots);
    return idx;
  }
  nodes_.push_back(Node{level, std::vector<Slot>(slots)});
  return static_cast<int>(nodes_.size()) - 1;
}

void CpeTrie::Insert(const Prefix& prefix, uint32_t value) {
  InsertAt(0, prefix.addr, prefix.len, value, 0);
}

void CpeTrie::InsertAt(int node_idx, uint32_t addr, uint8_t len, uint32_t value, int bit_off) {
  const int level = nodes_[static_cast<size_t>(node_idx)].level;
  const int stride = strides_[static_cast<size_t>(level)];
  const int remaining = static_cast<int>(len) - bit_off;

  if (remaining <= stride) {
    // Controlled expansion: the prefix covers 2^(stride - remaining)
    // consecutive slots of this node. Longer prefixes take priority.
    const uint32_t hi = ExtractBits(addr, bit_off, remaining);
    const uint32_t span = uint32_t{1} << (stride - remaining);
    const uint32_t first = hi << (stride - remaining);
    auto& slots = nodes_[static_cast<size_t>(node_idx)].slots;
    for (uint32_t i = first; i < first + span; ++i) {
      Slot& slot = slots[i];
      if (slot.value < 0 || slot.value_plen <= len) {
        slot.value = static_cast<int32_t>(value);
        slot.value_plen = len;
      }
    }
    return;
  }

  const uint32_t idx = ExtractBits(addr, bit_off, stride);
  int child = nodes_[static_cast<size_t>(node_idx)].slots[idx].child;
  if (child < 0) {
    child = NewNode(level + 1);
    // NewNode may reallocate nodes_; re-resolve the slot reference.
    nodes_[static_cast<size_t>(node_idx)].slots[idx].child = child;
  }
  InsertAt(child, addr, len, value, bit_off + stride);
}

CpeTrie::LookupResult CpeTrie::Lookup(uint32_t ip) const {
  LookupResult result;
  int node_idx = 0;
  int bit_off = 0;
  while (true) {
    const Node& node = nodes_[static_cast<size_t>(node_idx)];
    ++result.nodes_visited;
    const int stride = strides_[static_cast<size_t>(node.level)];
    const uint32_t idx = ExtractBits(ip, bit_off, stride);
    const Slot& slot = node.slots[idx];
    if (slot.value >= 0) {
      result.value = static_cast<uint32_t>(slot.value);
    }
    if (slot.child < 0) {
      return result;
    }
    node_idx = slot.child;
    bit_off += stride;
  }
}

void CpeTrie::Remove(const Prefix& prefix, std::optional<Covering> covering) {
  RemoveAt(0, prefix, covering, 0);
}

bool CpeTrie::RemoveAt(int node_idx, const Prefix& prefix, std::optional<Covering> covering,
                       int bit_off) {
  const int stride = strides_[static_cast<size_t>(nodes_[static_cast<size_t>(node_idx)].level)];
  const int remaining = static_cast<int>(prefix.len) - bit_off;
  auto& slots = nodes_[static_cast<size_t>(node_idx)].slots;

  if (remaining <= stride) {
    // Only the slots the prefix still owns change hands; longer prefixes
    // keep theirs. A covering prefix lands here unless it ends at or above
    // this node's first bit (the root takes every length up to its stride).
    Slot fallback;
    if (covering && (bit_off == 0 || covering->len > bit_off)) {
      fallback.value = static_cast<int32_t>(covering->value);
      fallback.value_plen = covering->len;
    }
    const uint32_t span = uint32_t{1} << (stride - remaining);
    const uint32_t first = ExtractBits(prefix.addr, bit_off, remaining) << (stride - remaining);
    for (uint32_t i = first; i < first + span; ++i) {
      Slot& slot = slots[i];
      if (slot.value >= 0 && slot.value_plen == prefix.len) {
        slot.value = fallback.value;
        slot.value_plen = fallback.value_plen;
      }
    }
  } else {
    const uint32_t idx = ExtractBits(prefix.addr, bit_off, stride);
    const int child = slots[idx].child;
    if (child < 0 || !RemoveAt(child, prefix, covering, bit_off + stride)) {
      return false;  // this node keeps its child (or never had the prefix)
    }
    slots[idx].child = -1;
    nodes_[static_cast<size_t>(child)].slots.clear();
    free_nodes_.push_back(child);
  }
  // The root stays even when empty, as in a fresh trie.
  return node_idx != 0 && std::all_of(slots.begin(), slots.end(), [](const Slot& slot) {
           return slot.value < 0 && slot.child < 0;
         });
}

size_t CpeTrie::MemoryBytes() const {
  size_t slots = 0;
  for (const auto& node : nodes_) {
    slots += node.slots.size();
  }
  return slots * 4;  // one packed 32-bit word per slot in a hardware layout
}

}  // namespace npr
