// Flow/classification table (§4.5).
//
// The classifier hashes the IP and TCP headers, combines the hashes, and
// indexes a table whose entries carry: the key (for exact-match
// confirmation), where the forwarder runs, a reference to the forwarder
// (ISTORE offset / jump-table index), and the SRAM address of the flow
// state. install() binds keys to forwarders here; ALL-keyed ("general")
// forwarders apply to every packet.

#ifndef SRC_CORE_FLOW_TABLE_H_
#define SRC_CORE_FLOW_TABLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace npr {

// Processor level a forwarder runs on (§4.5's `where` argument).
enum class Where : uint8_t {
  kMicroEngine,  // ME: VRP program in the ISTORE
  kStrongArm,    // SA: native function from the StrongARM's fixed set
  kPentium,      // PE: native function from the Pentium jump table
};

struct FlowKey {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  bool all = false;  // the special ALL key

  static FlowKey All() {
    FlowKey k;
    k.all = true;
    return k;
  }
  static FlowKey Tuple(uint32_t src, uint32_t dst, uint16_t sport, uint16_t dport) {
    return FlowKey{src, dst, sport, dport, false};
  }

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;
};

struct FlowMeta {
  uint32_t fid = 0;
  FlowKey key;
  Where where = Where::kMicroEngine;
  uint32_t me_program_id = 0;  // IStoreLayout handle when where == kMicroEngine
  int native_index = -1;       // SA/PE jump-table index otherwise
  uint32_t state_addr = 0;     // SRAM address of flow state
  uint32_t state_bytes = 0;
  // Pentium admission parameters (§4.6).
  double reserved_pps = 0;
  double reserved_cpp = 0;
};

class FlowTable {
 public:
  // Returns the fid (also written into meta.fid).
  uint32_t Insert(FlowMeta meta);
  bool Remove(uint32_t fid);

  const FlowMeta* Get(uint32_t fid) const;
  // Mutable access for in-place rebinding (the upgrade orchestrator's
  // cutover flips state_addr/state_bytes without touching the key maps).
  FlowMeta* GetMutable(uint32_t fid);
  // Exact 4-tuple match (per-flow forwarders). Nullptr if none.
  const FlowMeta* LookupTuple(const FlowKey& key) const;
  // The StrongARM or Pentium forwarders a packet of `flow` (null: none)
  // runs at `where`: the flow's own if it is bound to `where`, else the
  // ALL-keyed forwarders of `where`, in fid order (ME generals live in the
  // ISTORE chain instead). Clears and fills `out`, so a caller that keeps
  // the vector stops allocating per packet. True when it chose the flow's
  // own forwarder.
  bool ForwardersAt(Where where, const FlowMeta* flow, std::vector<const FlowMeta*>* out) const;
  // Every installed flow, in fid order (the memory-bounds ledger walks the
  // state reservations).
  std::vector<const FlowMeta*> All() const;

  // Resolves a MicroEngine ISTORE handle back to its flow (quarantine
  // eviction goes through the fid-keyed control interface). Nullptr if no
  // installed flow references the program.
  const FlowMeta* FindByProgram(uint32_t me_program_id) const;

  size_t size() const { return by_fid_.size(); }

 private:
  uint32_t next_fid_ = 1;
  std::map<uint32_t, FlowMeta> by_fid_;
  std::map<FlowKey, uint32_t> by_key_;
};

}  // namespace npr

#endif  // SRC_CORE_FLOW_TABLE_H_
