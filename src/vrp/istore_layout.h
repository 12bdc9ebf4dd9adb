// MicroEngine ISTORE layout manager (Figure 11, §4.5).
//
// Each input context's 1024-slot instruction store holds, between the fixed
// router-infrastructure prologue and epilogue: the classifier, the per-flow
// forwarders, and the general forwarders. General forwarders are stored in
// reverse order from the end of the store so control falls from one to the
// next without hard-coded jump addresses; the last one (installed first) is
// always minimal IP. Per-flow forwarders end in an indirect jump through a
// MicroEngine register. Installation writes the store with
// instruction-level granularity at two memory accesses per instruction.

#ifndef SRC_VRP_ISTORE_LAYOUT_H_
#define SRC_VRP_ISTORE_LAYOUT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/ixp/hw_config.h"
#include "src/vrp/isa.h"

namespace npr {

class IStoreLayout {
 public:
  explicit IStoreLayout(const HwConfig& hw);

  // The kept chain points into entries_: a copy would point into this one.
  IStoreLayout(const IStoreLayout&) = delete;
  IStoreLayout& operator=(const IStoreLayout&) = delete;

  // Installs a per-flow forwarder (reached via classifier metadata).
  // Returns its handle, or nullopt if the extension region is full.
  std::optional<uint32_t> InstallPerFlow(const VrpProgram& program);

  // Installs a general forwarder (applied to every packet, executed before
  // all previously installed generals). `state_addr` is the SRAM address of
  // its (ALL-keyed) state.
  std::optional<uint32_t> InstallGeneral(const VrpProgram& program, uint32_t state_addr = 0);

  struct GeneralEntry {
    const VrpProgram* program;
    uint32_t state_addr;
    uint32_t id;  // install handle (trap attribution / quarantine)
  };

  // Frees a forwarder's slots. Returns false for unknown handles.
  bool Remove(uint32_t id);

  const VrpProgram* Get(uint32_t id) const;

  // Quarantine throttle: a throttled forwarder keeps its slots but is
  // skipped by the classify path (packets take the default IP transform)
  // until the throttle lifts. Returns false — and logs an error — for an
  // unknown handle: a throttle that silently lands nowhere would leave a
  // misbehaving (or overloading) forwarder running while its caller
  // believes it contained.
  bool SetThrottled(uint32_t id, bool throttled);
  bool IsThrottled(uint32_t id) const;

  // --- in-service replacement (hitless upgrade, src/core/upgrade.h) ---
  //
  // A staged image is the double-buffer half: its slots count against
  // capacity while staged, but Get()/GeneralChain() keep returning the
  // active image. CommitReplace swaps the two in one step — the handle, and
  // therefore every classifier/flow-table reference, never changes — and
  // retains the previous image so RevertReplace can swap back. Exactly one
  // of {staged, retained} exists at a time per handle.

  // Reserves slots for `next` beside the active image. Fails on unknown
  // handles, exhausted capacity, or if a replacement is already in flight.
  bool StageReplace(uint32_t id, const VrpProgram& next, uint32_t next_state_addr);
  // Discards a staged (not yet committed) image and frees its slots.
  bool CancelReplace(uint32_t id);
  // The staged image becomes active; the old image is retained for revert.
  bool CommitReplace(uint32_t id);
  // Swaps the retained old image back in and frees the new one's slots.
  bool RevertReplace(uint32_t id);
  // Drops the retained old image after a successful soak, freeing its slots.
  bool PromoteReplace(uint32_t id);
  // True while a committed-but-not-yet-promoted replacement holds both
  // halves (i.e. RevertReplace is still possible).
  bool HasRetained(uint32_t id) const;
  // The staged program (nullptr unless StageReplace is pending commit).
  const VrpProgram* Staged(uint32_t id) const;

  // General forwarders in execution (fall-through) order. The chain is
  // kept between calls: every mutator marks it stale and the next call
  // rebuilds it, so the classify path reads it without allocating. A loop
  // over the chain may call mutators (it keeps iterating the chain it
  // started with) but must not call GeneralChain() again before it ends:
  // that would rebuild the vector under it. HealthMonitor::OnVrpTrap
  // defers its ISTORE changes for the same reason.
  const std::vector<GeneralEntry>& GeneralChain() const;

  // Cycles the StrongARM needs to write this program into one ISTORE
  // (§4.5: two memory accesses per instruction, 40 cycles each).
  uint64_t InstallCostCycles(const VrpProgram& program) const;
  // Cycles to rewrite the entire store (classification changes, §4.5).
  uint64_t FullRewriteCostCycles() const;

  uint32_t extension_capacity() const { return capacity_; }
  uint32_t used_slots() const { return used_; }
  uint32_t free_slots() const { return capacity_ - used_; }

 private:
  struct Image {
    VrpProgram program;
    uint32_t slots = 0;
    uint32_t state_addr = 0;
  };

  struct Entry {
    VrpProgram program;
    bool general;
    uint32_t slots;
    uint32_t state_addr;
    bool throttled = false;
    // In-flight replacement: staged before commit, retained after.
    std::optional<Image> staged;
    std::optional<Image> retained;
  };

  uint32_t SlotsFor(const Entry& entry, const VrpProgram& program) const;

  const uint32_t capacity_;       // slots available to extensions (650)
  const uint32_t total_slots_;    // full store (1024)
  const uint32_t write_cycles_per_instr_;
  uint32_t used_ = 0;
  uint32_t next_id_ = 1;  // handles follow install order
  std::map<uint32_t, Entry> entries_;
  mutable std::vector<GeneralEntry> chain_;
  mutable bool chain_stale_ = true;
};

}  // namespace npr

#endif  // SRC_VRP_ISTORE_LAYOUT_H_
