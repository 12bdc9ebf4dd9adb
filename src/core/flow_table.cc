#include "src/core/flow_table.h"

namespace npr {

uint32_t FlowTable::Insert(FlowMeta meta) {
  meta.fid = next_fid_++;
  if (!meta.key.all) {
    by_key_[meta.key] = meta.fid;
  }
  const uint32_t fid = meta.fid;
  by_fid_[fid] = std::move(meta);
  return fid;
}

bool FlowTable::Remove(uint32_t fid) {
  auto it = by_fid_.find(fid);
  if (it == by_fid_.end()) {
    return false;
  }
  if (!it->second.key.all) {
    // Only drop the key binding if this fid still owns it — a newer install
    // may have rebound the same tuple (e.g. a splicer replacing its proxy).
    auto key_it = by_key_.find(it->second.key);
    if (key_it != by_key_.end() && key_it->second == fid) {
      by_key_.erase(key_it);
    }
  }
  by_fid_.erase(it);
  return true;
}

const FlowMeta* FlowTable::Get(uint32_t fid) const {
  auto it = by_fid_.find(fid);
  return it == by_fid_.end() ? nullptr : &it->second;
}

FlowMeta* FlowTable::GetMutable(uint32_t fid) {
  auto it = by_fid_.find(fid);
  return it == by_fid_.end() ? nullptr : &it->second;
}

const FlowMeta* FlowTable::LookupTuple(const FlowKey& key) const {
  auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &by_fid_.at(it->second);
}

const FlowMeta* FlowTable::FindByProgram(uint32_t me_program_id) const {
  for (const auto& [fid, meta] : by_fid_) {
    if (meta.where == Where::kMicroEngine && meta.me_program_id == me_program_id) {
      return &meta;
    }
  }
  return nullptr;
}

std::vector<const FlowMeta*> FlowTable::All() const {
  std::vector<const FlowMeta*> out;
  out.reserve(by_fid_.size());
  for (const auto& [fid, meta] : by_fid_) {
    out.push_back(&meta);
  }
  return out;
}

bool FlowTable::ForwardersAt(Where where, const FlowMeta* flow,
                             std::vector<const FlowMeta*>* out) const {
  out->clear();
  if (flow != nullptr && flow->where == where) {
    out->push_back(flow);
    return true;
  }
  for (const auto& [fid, meta] : by_fid_) {
    if (meta.key.all && meta.where == where) {
      out->push_back(&meta);
    }
  }
  return false;
}

}  // namespace npr
