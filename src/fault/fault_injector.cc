#include "src/fault/fault_injector.h"

#include "src/vrp/isa.h"

namespace npr {
namespace {

// Ethernet header size; bytes [14, 34) of a frame hold the IPv4 header.
constexpr size_t kEthHeader = 14;
constexpr size_t kIpHeaderEnd = kEthHeader + 20;

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, EventQueue& engine)
    : plan_(plan), engine_(engine), rng_(plan.seed) {
  if (plan_.context_crash_mean_ps > 0) {
    next_crash_at_ =
        engine_.now() +
        static_cast<SimTime>(rng_.Exponential(static_cast<double>(plan_.context_crash_mean_ps)));
  }
  if (plan_.pentium_hang_mean_ps > 0) {
    next_hang_at_ =
        engine_.now() +
        static_cast<SimTime>(rng_.Exponential(static_cast<double>(plan_.pentium_hang_mean_ps)));
  }
  if (plan_.link_down_mean_ps > 0) {
    next_link_down_at_ =
        engine_.now() +
        static_cast<SimTime>(rng_.Exponential(static_cast<double>(plan_.link_down_mean_ps)));
  }
  if (plan_.node_crash_mean_ps > 0) {
    next_node_crash_at_ =
        engine_.now() +
        static_cast<SimTime>(rng_.Exponential(static_cast<double>(plan_.node_crash_mean_ps)));
  }
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (uint64_t n : injected_) {
    total += n;
  }
  return total;
}

SimTime FaultInjector::MemExtraLatencyPs() {
  if (!armed_ || plan_.mem_latency_spike_p <= 0 || !rng_.Chance(plan_.mem_latency_spike_p)) {
    return 0;
  }
  Count(FaultKind::kMemLatencySpike);
  return plan_.mem_latency_spike_ps;
}

bool FaultInjector::MaybeFlipReadBits(std::span<uint8_t> out) {
  if (!armed_ || plan_.mem_bit_flip_p <= 0 || out.empty() || !rng_.Chance(plan_.mem_bit_flip_p)) {
    return false;
  }
  out[rng_.Uniform(out.size())] ^= static_cast<uint8_t>(1u << rng_.Uniform(8));
  Count(FaultKind::kMemBitFlip);
  return true;
}

FaultInjector::FrameFault FaultInjector::OnFrameRx(std::span<uint8_t> frame,
                                                   size_t* truncate_to) {
  if (!armed_) {
    return FrameFault::kNone;
  }
  if (plan_.frame_crc_p > 0 && rng_.Chance(plan_.frame_crc_p)) {
    Count(FaultKind::kFrameCrcDrop);
    return FrameFault::kCrcDrop;
  }
  if (plan_.frame_corrupt_p > 0 && frame.size() >= kIpHeaderEnd &&
      rng_.Chance(plan_.frame_corrupt_p)) {
    // Flip one bit inside the IPv4 header: the header checksum detects every
    // single-bit error, so the packet becomes a counted dropped_invalid.
    const size_t byte = kEthHeader + rng_.Uniform(kIpHeaderEnd - kEthHeader);
    frame[byte] ^= static_cast<uint8_t>(1u << rng_.Uniform(8));
    Count(FaultKind::kFrameCorrupt);
    return FrameFault::kCorrupt;
  }
  if (plan_.frame_truncate_p > 0 && frame.size() > kEthHeader + 2 &&
      rng_.Chance(plan_.frame_truncate_p)) {
    // Keep at least the Ethernet header plus one payload byte so the frame
    // still segments; anything shorter than a full IP header is dropped by
    // the classifier as invalid.
    *truncate_to = rng_.Range(kEthHeader + 1, frame.size() - 1);
    Count(FaultKind::kFrameTruncate);
    return FrameFault::kTruncate;
  }
  return FrameFault::kNone;
}

SimTime FaultInjector::RxStallPs() {
  if (!armed_ || plan_.rx_stall_p <= 0 || !rng_.Chance(plan_.rx_stall_p)) {
    return 0;
  }
  Count(FaultKind::kRxStall);
  return plan_.rx_stall_ps;
}

SimTime FaultInjector::TokenOfferDelayPs() {
  if (!armed_ || plan_.token_drop_p <= 0 || !rng_.Chance(plan_.token_drop_p)) {
    return 0;
  }
  Count(FaultKind::kTokenDrop);
  return plan_.token_redeliver_ps;
}

bool FaultInjector::ShouldLoseToken() {
  if (!armed_ || plan_.token_lost_p <= 0 || !rng_.Chance(plan_.token_lost_p)) {
    return false;
  }
  Count(FaultKind::kTokenLost);
  return true;
}

bool FaultInjector::ShouldCrashContext() {
  if (!armed_ || plan_.context_crash_mean_ps <= 0 || engine_.now() < next_crash_at_) {
    return false;
  }
  next_crash_at_ =
      engine_.now() +
      static_cast<SimTime>(rng_.Exponential(static_cast<double>(plan_.context_crash_mean_ps)));
  Count(FaultKind::kContextCrash);
  return true;
}

bool FaultInjector::ShouldLoseRestart() {
  if (!armed_ || plan_.restart_lost_p <= 0 || !rng_.Chance(plan_.restart_lost_p)) {
    return false;
  }
  Count(FaultKind::kRestartLost);
  return true;
}

SimTime FaultInjector::PentiumHangPs() {
  if (!armed_ || plan_.pentium_hang_mean_ps <= 0 || engine_.now() < next_hang_at_) {
    return 0;
  }
  next_hang_at_ =
      engine_.now() +
      static_cast<SimTime>(rng_.Exponential(static_cast<double>(plan_.pentium_hang_mean_ps)));
  last_hang_at_ = engine_.now();
  Count(FaultKind::kPentiumHang);
  return plan_.pentium_hang_ps;
}

FaultInjector::CtrlFault FaultInjector::OnCtrlMessage(SimTime* extra_delay_ps) {
  *extra_delay_ps = 0;
  if (!armed_) {
    return CtrlFault::kNone;
  }
  if (plan_.ctrl_drop_p > 0 && rng_.Chance(plan_.ctrl_drop_p)) {
    Count(FaultKind::kCtrlDrop);
    return CtrlFault::kDrop;
  }
  if (plan_.ctrl_dup_p > 0 && rng_.Chance(plan_.ctrl_dup_p)) {
    Count(FaultKind::kCtrlDup);
    return CtrlFault::kDup;
  }
  if (plan_.ctrl_delay_p > 0 && rng_.Chance(plan_.ctrl_delay_p)) {
    Count(FaultKind::kCtrlDelay);
    *extra_delay_ps = plan_.ctrl_delay_ps;
    return CtrlFault::kDelay;
  }
  return CtrlFault::kNone;
}

bool FaultInjector::ShouldTrapVrp() {
  if (!armed_ || plan_.vrp_trap_p <= 0 || !rng_.Chance(plan_.vrp_trap_p)) {
    return false;
  }
  Count(FaultKind::kVrpTrap);
  return true;
}

bool FaultInjector::ShouldCrashUpgrade() {
  if (!armed_ || plan_.upgrade_crash_p <= 0 || !rng_.Chance(plan_.upgrade_crash_p)) {
    return false;
  }
  Count(FaultKind::kUpgradeCrash);
  return true;
}

bool FaultInjector::MaybeCorruptImage(VrpProgram* program) {
  if (!armed_ || plan_.image_corrupt_p <= 0 || program == nullptr || program->code.empty() ||
      !rng_.Chance(plan_.image_corrupt_p)) {
    return false;
  }
  VrpInstr& instr = program->code[rng_.Uniform(program->code.size())];
  instr.imm ^= static_cast<int32_t>(1u << rng_.Uniform(32));
  Count(FaultKind::kImageCorrupt);
  return true;
}

bool FaultInjector::MaybeCorruptDescriptor(uint32_t* word) {
  if (!armed_ || plan_.desc_corrupt_p <= 0 || !rng_.Chance(plan_.desc_corrupt_p)) {
    return false;
  }
  // Only the low 24 bits are encoded descriptor state, and every one of them
  // participates in the sidecar cross-check, so each flip is detectable.
  *word ^= 1u << rng_.Uniform(24);
  Count(FaultKind::kDescCorrupt);
  return true;
}

SimTime FaultInjector::LinkDownPs() {
  if (!armed_ || plan_.link_down_mean_ps <= 0 || engine_.now() < next_link_down_at_) {
    return 0;
  }
  next_link_down_at_ =
      engine_.now() +
      static_cast<SimTime>(rng_.Exponential(static_cast<double>(plan_.link_down_mean_ps)));
  last_link_down_at_ = engine_.now();
  Count(FaultKind::kLinkDown);
  return plan_.link_down_ps;
}

bool FaultInjector::ShouldDropFabricFrame() {
  if (!armed_ || plan_.fabric_loss_p <= 0 || !rng_.Chance(plan_.fabric_loss_p)) {
    return false;
  }
  Count(FaultKind::kFabricFrameLoss);
  return true;
}

SimTime FaultInjector::NodeCrashPs() {
  if (!armed_ || plan_.node_crash_mean_ps <= 0 || engine_.now() < next_node_crash_at_) {
    return 0;
  }
  next_node_crash_at_ =
      engine_.now() +
      static_cast<SimTime>(rng_.Exponential(static_cast<double>(plan_.node_crash_mean_ps)));
  last_node_crash_at_ = engine_.now();
  Count(FaultKind::kNodeCrash);
  return plan_.node_crash_ps > 0 ? plan_.node_crash_ps : kForever;
}

}  // namespace npr
