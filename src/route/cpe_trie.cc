#include "src/route/cpe_trie.h"

#include <algorithm>
#include <cassert>
#include <cstring>
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

CpeTrie::CpeTrie(std::vector<int> strides)
    : strides_(std::move(strides)),
      carved_nodes_(strides_.size()),
      free_nodes_(strides_.size()) {
  assert(std::accumulate(strides_.begin(), strides_.end(), 0) == 32 &&
         "strides must cover exactly 32 bits");
  NewNode(0);
}

uint32_t CpeTrie::NewNode(size_t level) {
  std::vector<uint32_t>& free = free_nodes_[level];
  if (!free.empty()) {
    const uint32_t node = free.back();  // its page references are all null
    free.pop_back();
    return node;
  }
  const auto node = static_cast<uint32_t>(page_refs_.size());
  page_refs_.resize(page_refs_.size() + PagesPerNode(level), nullptr);
  ++carved_nodes_[level];
  return node;
}

void CpeTrie::FreeNode(uint32_t node, size_t level) {
  static_assert(sizeof(Slot) >= sizeof(Slot*));
  for (uint32_t p = 0; p < PagesPerNode(level); ++p) {
    Slot*& page = page_refs_[node + p];
    if (page != nullptr) {
      std::memcpy(page, &free_page_, sizeof(free_page_));
      free_page_ = page;
      page = nullptr;
      --pages_;
    }
  }
  free_nodes_[level].push_back(node);
}

CpeTrie::Slot* CpeTrie::TakePage() {
  Slot* page = free_page_;
  if (page != nullptr) {
    std::memcpy(&free_page_, page, sizeof(free_page_));
  } else {
    if ((next_page_ >> kSlabShift) == slabs_.size()) {
      slabs_.push_back(std::make_unique_for_overwrite<Slot[]>(kSlabPages << kPageShift));
    }
    page = slabs_.back().get() + ((next_page_ & (kSlabPages - 1)) << kPageShift);
    ++next_page_;
  }
  std::fill_n(page, kPageSlots, Slot{});
  ++pages_;
  return page;
}

CpeTrie::Slot* CpeTrie::PageForWrite(uint32_t node, uint32_t page) {
  Slot*& ref = page_refs_[node + page];
  if (ref == nullptr) {
    ref = TakePage();
  }
  return ref;
}

template <typename Fn>
void CpeTrie::ForEachSlot(uint32_t node, uint32_t first, uint32_t end, Fn fn) {
  for (uint32_t i = first; i < end;) {
    Slot* page = PageForWrite(node, i >> kPageShift);
    const uint32_t page_end = std::min(end, (i | (kPageSlots - 1)) + 1);
    for (; i < page_end; ++i) {
      fn(page[i & (kPageSlots - 1)]);
    }
  }
}

bool CpeTrie::IsEmpty(uint32_t node, size_t level) const {
  for (uint32_t p = 0; p < PagesPerNode(level); ++p) {
    const Slot* page = page_refs_[node + p];
    if (page != nullptr &&
        !std::all_of(page, page + kPageSlots,
                     [](const Slot& slot) { return slot.value == 0 && slot.child == 0; })) {
      return false;
    }
  }
  return true;
}

void CpeTrie::Insert(const Prefix& prefix, uint32_t value) {
  assert(value < (uint32_t{1} << 24) && "next-hop handles are 24 bits");
  InsertAt(0, 0, prefix.addr, prefix.len, value, 0);
}

void CpeTrie::InsertAt(uint32_t node, size_t level, uint32_t addr, uint8_t len, uint32_t value,
                       int bit_off) {
  const int stride = strides_[level];
  const int remaining = static_cast<int>(len) - bit_off;

  if (remaining <= stride) {
    // Controlled expansion: the prefix covers 2^(stride - remaining)
    // consecutive slots of this node. Longer prefixes take priority.
    const uint32_t first = ExtractBits(addr, bit_off, remaining) << (stride - remaining);
    const uint32_t packed = Slot::Pack(value, len);
    ForEachSlot(node, first, first + (uint32_t{1} << (stride - remaining)), [&](Slot& slot) {
      if (slot.len_plus_one() <= len + 1u) {
        slot.value = packed;
      }
    });
    return;
  }

  const uint32_t idx = ExtractBits(addr, bit_off, stride);
  Slot& slot = PageForWrite(node, idx >> kPageShift)[idx & (kPageSlots - 1)];
  if (slot.child == 0) {
    slot.child = NewNode(level + 1);  // slabs never move: `slot` stays valid
  }
  InsertAt(slot.child, level + 1, addr, len, value, bit_off + stride);
}

CpeTrie::LookupResult CpeTrie::Lookup(uint32_t ip) const {
  LookupResult result;
  uint32_t node = 0;
  int bit_off = 0;
  for (size_t level = 0;; ++level) {
    ++result.nodes_visited;
    const int stride = strides_[level];
    const Slot* slot = Find(node, ExtractBits(ip, bit_off, stride));
    if (slot == nullptr) {
      return result;  // a page never written holds only empty slots
    }
    if (slot->value != 0) {
      result.value = slot->handle();
    }
    if (slot->child == 0) {
      return result;
    }
    node = slot->child;
    bit_off += stride;
  }
}

void CpeTrie::Remove(const Prefix& prefix, std::optional<Covering> covering) {
  RemoveAt(0, 0, prefix, covering, 0);
}

bool CpeTrie::RemoveAt(uint32_t node, size_t level, const Prefix& prefix,
                       std::optional<Covering> covering, int bit_off) {
  const int stride = strides_[level];
  const int remaining = static_cast<int>(prefix.len) - bit_off;

  if (remaining <= stride) {
    // Only the slots the prefix still owns change hands; longer prefixes
    // keep theirs. A covering prefix lands here unless it ends at or above
    // this node's first bit (the root takes every length up to its stride).
    uint32_t fallback = 0;
    if (covering && (bit_off == 0 || covering->len > bit_off)) {
      fallback = Slot::Pack(covering->value, covering->len);
    }
    // An installed prefix took every page of its span, so this walks
    // written pages only.
    const uint32_t first = ExtractBits(prefix.addr, bit_off, remaining) << (stride - remaining);
    ForEachSlot(node, first, first + (uint32_t{1} << (stride - remaining)), [&](Slot& slot) {
      if (slot.len_plus_one() == prefix.len + 1u) {
        slot.value = fallback;
      }
    });
  } else {
    Slot* slot = Find(node, ExtractBits(prefix.addr, bit_off, stride));
    if (slot == nullptr || slot->child == 0 ||
        !RemoveAt(slot->child, level + 1, prefix, covering, bit_off + stride)) {
      return false;  // this node keeps its child (or never had the prefix)
    }
    FreeNode(slot->child, level + 1);
    slot->child = 0;
  }
  // The root stays even when empty, as in a fresh trie.
  return node != 0 && IsEmpty(node, level);
}

size_t CpeTrie::allocated_nodes() const {
  return std::accumulate(carved_nodes_.begin(), carved_nodes_.end(), size_t{0});
}

size_t CpeTrie::node_count() const {
  size_t live = allocated_nodes();
  for (const auto& free : free_nodes_) {
    live -= free.size();
  }
  return live;
}

size_t CpeTrie::MemoryBytes() const {
  size_t slots = 0;
  for (size_t level = 0; level < strides_.size(); ++level) {
    slots += (carved_nodes_[level] - free_nodes_[level].size()) << strides_[level];
  }
  return slots * 4;  // one packed 32-bit word per slot in a hardware layout
}

size_t CpeTrie::host_bytes() const {
  return slabs_.size() * (sizeof(Slot) << (kSlabShift + kPageShift)) +
         slabs_.capacity() * sizeof(slabs_[0]) + page_refs_.capacity() * sizeof(page_refs_[0]);
}

}  // namespace npr
