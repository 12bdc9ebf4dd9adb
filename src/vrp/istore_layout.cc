#include "src/vrp/istore_layout.h"

#include "src/sim/log.h"

namespace npr {

IStoreLayout::IStoreLayout(const HwConfig& hw)
    : capacity_(hw.istore_slots - hw.istore_ri_slots - hw.istore_classifier_slots),
      total_slots_(hw.istore_slots),
      write_cycles_per_instr_(hw.istore_write_cycles_per_instr) {}

std::optional<uint32_t> IStoreLayout::InstallPerFlow(const VrpProgram& program) {
  // Per-flow forwarders end in an indirect jump back to the RI epilogue
  // (one extra slot).
  const uint32_t slots = static_cast<uint32_t>(program.instructions()) + 1;
  if (used_ + slots > capacity_) {
    return std::nullopt;
  }
  used_ += slots;
  const uint32_t id = next_id_++;
  entries_[id] = Entry{program, /*general=*/false, slots, 0,
                       /*throttled=*/false, /*staged=*/{}, /*retained=*/{}};
  chain_stale_ = true;
  return id;
}

std::optional<uint32_t> IStoreLayout::InstallGeneral(const VrpProgram& program,
                                                     uint32_t state_addr) {
  // Generals fall through to the next one: no trailing jump slot.
  const uint32_t slots = static_cast<uint32_t>(program.instructions());
  if (used_ + slots > capacity_) {
    return std::nullopt;
  }
  used_ += slots;
  const uint32_t id = next_id_++;
  entries_[id] = Entry{program, /*general=*/true, slots, state_addr,
                       /*throttled=*/false, /*staged=*/{}, /*retained=*/{}};
  chain_stale_ = true;
  return id;
}

bool IStoreLayout::Remove(uint32_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return false;
  }
  used_ -= it->second.slots;
  // A remove mid-replacement drops both halves of the double buffer.
  if (it->second.staged) {
    used_ -= it->second.staged->slots;
  }
  if (it->second.retained) {
    used_ -= it->second.retained->slots;
  }
  entries_.erase(it);
  chain_stale_ = true;
  return true;
}

uint32_t IStoreLayout::SlotsFor(const Entry& entry, const VrpProgram& program) const {
  // Same trailing-jump rule as the original install path.
  return static_cast<uint32_t>(program.instructions()) + (entry.general ? 0 : 1);
}

bool IStoreLayout::StageReplace(uint32_t id, const VrpProgram& next, uint32_t next_state_addr) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    NPR_ERROR("istore: stage-replace on unknown handle %u", id);
    return false;
  }
  Entry& entry = it->second;
  if (entry.staged || entry.retained) {
    NPR_ERROR("istore: handle %u already has a replacement in flight", id);
    return false;
  }
  const uint32_t slots = SlotsFor(entry, next);
  if (used_ + slots > capacity_) {
    return false;
  }
  used_ += slots;
  entry.staged = Image{next, slots, next_state_addr};
  chain_stale_ = true;
  return true;
}

bool IStoreLayout::CancelReplace(uint32_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end() || !it->second.staged) {
    return false;
  }
  used_ -= it->second.staged->slots;
  it->second.staged.reset();
  chain_stale_ = true;
  return true;
}

bool IStoreLayout::CommitReplace(uint32_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end() || !it->second.staged) {
    return false;
  }
  Entry& entry = it->second;
  entry.retained = Image{std::move(entry.program), entry.slots, entry.state_addr};
  entry.program = std::move(entry.staged->program);
  entry.slots = entry.staged->slots;
  entry.state_addr = entry.staged->state_addr;
  entry.staged.reset();
  chain_stale_ = true;
  return true;
}

bool IStoreLayout::RevertReplace(uint32_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end() || !it->second.retained) {
    return false;
  }
  Entry& entry = it->second;
  used_ -= entry.slots;  // the new image's slots go back to the pool
  entry.program = std::move(entry.retained->program);
  entry.slots = entry.retained->slots;
  entry.state_addr = entry.retained->state_addr;
  entry.retained.reset();
  chain_stale_ = true;
  return true;
}

bool IStoreLayout::PromoteReplace(uint32_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end() || !it->second.retained) {
    return false;
  }
  used_ -= it->second.retained->slots;
  it->second.retained.reset();
  chain_stale_ = true;
  return true;
}

bool IStoreLayout::HasRetained(uint32_t id) const {
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.retained.has_value();
}

const VrpProgram* IStoreLayout::Staged(uint32_t id) const {
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.staged ? &it->second.staged->program : nullptr;
}

const VrpProgram* IStoreLayout::Get(uint32_t id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.program;
}

bool IStoreLayout::SetThrottled(uint32_t id, bool throttled) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    NPR_ERROR("istore: throttle(%s) on unknown handle %u ignored",
              throttled ? "on" : "off", id);
    return false;
  }
  it->second.throttled = throttled;
  chain_stale_ = true;
  return true;
}

bool IStoreLayout::IsThrottled(uint32_t id) const {
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.throttled;
}

const std::vector<IStoreLayout::GeneralEntry>& IStoreLayout::GeneralChain() const {
  if (chain_stale_) {
    // Stored in reverse order from the end of the store: the most recently
    // installed general executes first; the first-installed (minimal IP)
    // executes last.
    chain_.clear();
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      const Entry& entry = it->second;
      if (entry.general && !entry.throttled) {
        chain_.push_back(GeneralEntry{&entry.program, entry.state_addr, it->first});
      }
    }
    chain_stale_ = false;
  }
  return chain_;
}

uint64_t IStoreLayout::InstallCostCycles(const VrpProgram& program) const {
  return static_cast<uint64_t>(program.instructions()) * write_cycles_per_instr_;
}

uint64_t IStoreLayout::FullRewriteCostCycles() const {
  return static_cast<uint64_t>(total_slots_) * write_cycles_per_instr_;
}

}  // namespace npr
