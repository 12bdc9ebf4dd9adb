#include "src/core/overload.h"

#include <algorithm>
#include <bit>

#include "src/net/ipv4.h"
#include "src/obs/observer.h"

namespace npr {
namespace {

const std::set<uint32_t> kNoHotSources;

// Source IP from the frame's IP header (host order); 0 when the frame is
// too short to carry one (such frames are dropped by validation later — the
// governor just needs a stable policing key).
uint32_t SrcIpOf(const Packet& packet) {
  const auto l3 = packet.l3();
  if (l3.size() < kIpv4MinHeaderBytes) {
    return 0;
  }
  return static_cast<uint32_t>(l3[12]) << 24 | static_cast<uint32_t>(l3[13]) << 16 |
         static_cast<uint32_t>(l3[14]) << 8 | static_cast<uint32_t>(l3[15]);
}

bool IsControlFrame(const Packet& packet) {
  const auto l3 = packet.l3();
  return l3.size() >= kIpv4MinHeaderBytes && l3[9] == kIpProtoOspfLite;
}

}  // namespace

OverloadGovernor::OverloadGovernor(Router& router, OverloadConfig config)
    : router_(router),
      cfg_(config),
      rng_(config.seed),
      offered_(static_cast<size_t>(router.num_ports())) {
  router_.SetGovernor(this);
  router_.engine().ScheduleIn(cfg_.tick_ps, [this] { Tick(); });
}

OverloadGovernor::~OverloadGovernor() { router_.SetGovernor(nullptr); }

const std::set<uint32_t>& OverloadGovernor::hot_sources(uint8_t port) const {
  auto it = hot_.find(port);
  return it == hot_.end() ? kNoHotSources : it->second;
}

RxVerdict OverloadGovernor::AdmitFrame(uint8_t port, const Packet& packet,
                                       size_t rx_backlog_mps) {
  // Control carve-out first: OSPF-lite frames ride ahead of data and are
  // never shed, at any ladder stage.
  if (IsControlFrame(packet)) {
    ++control_admitted_;
    return RxVerdict::kAcceptPriority;
  }
  if (stage_ == 0) {
    return RxVerdict::kAccept;
  }

  const uint32_t src = SrcIpOf(packet);
  // Offered-load accounting feeds next tick's heavy-hitter set; counting
  // from stage 1 gives stage 2 a full tick of history on arrival.
  CountOffered(port, src);

  if (stage_ >= 4) {
    router_.stats().gov_quenched += 1;
    quench_by_src_[src] += 1;
    return RxVerdict::kDropQuench;
  }

  if (stage_ >= 2) {
    auto hot = hot_.find(port);
    if (hot != hot_.end() && hot->second.count(src) != 0 &&
        rng_.Chance(cfg_.hh_drop_p)) {
      router_.stats().gov_policed += 1;
      return RxVerdict::kDropPolice;
    }
  }

  // Stage 1+: RED on the port's receive backlog.
  const double capacity =
      static_cast<double>(router_.port(port).rx_buffer_capacity_mps());
  const double fill = capacity > 0 ? static_cast<double>(rx_backlog_mps) / capacity : 0.0;
  double p = 0.0;
  if (fill >= cfg_.red_max_fill) {
    p = cfg_.red_max_p;
  } else if (fill > cfg_.red_min_fill) {
    p = cfg_.red_max_p * (fill - cfg_.red_min_fill) /
        (cfg_.red_max_fill - cfg_.red_min_fill);
  }
  if (p > 0 && rng_.Chance(p)) {
    router_.stats().gov_red_dropped += 1;
    return RxVerdict::kDropRed;
  }
  return RxVerdict::kAccept;
}

double OverloadGovernor::Pressure() {
  double pressure = 0.0;
  for (int p = 0; p < router_.num_ports(); ++p) {
    const MacPort& port = router_.port(p);
    const double capacity = static_cast<double>(port.rx_buffer_capacity_mps());
    if (capacity > 0) {
      pressure = std::max(pressure, static_cast<double>(port.rx_backlog_mps()) / capacity);
    }
  }
  const PacketQueue* hosts[] = {&router_.sa_pentium_queue(), &router_.sa_local_queue()};
  for (const PacketQueue* q : hosts) {
    if (q->capacity() > 0) {
      pressure = std::max(pressure, static_cast<double>(q->size()) /
                                        static_cast<double>(q->capacity()));
    }
  }
  return pressure;
}

void OverloadGovernor::Tick() {
  RebuildHotSets();
  const double pressure = Pressure();

  if (stage_ < 4 && pressure >= cfg_.enter_fill[stage_ + 1]) {
    ++escalate_ticks_;
  } else {
    escalate_ticks_ = 0;
  }
  if (stage_ > 0 && pressure < cfg_.exit_fill[stage_]) {
    ++deescalate_ticks_;
  } else {
    deescalate_ticks_ = 0;
  }

  if (escalate_ticks_ >= cfg_.escalate_dwell_ticks) {
    escalate_ticks_ = 0;
    SetStage(stage_ + 1);
  } else if (deescalate_ticks_ >= cfg_.deescalate_dwell_ticks) {
    deescalate_ticks_ = 0;
    SetStage(stage_ - 1);
  }

  router_.engine().ScheduleIn(cfg_.tick_ps, [this] { Tick(); });
}

void OverloadGovernor::SetStage(int next) {
  if (next == stage_) {
    return;
  }
  const bool was_shedding_host = ShedHostBound();
  if (next > stage_) {
    ++escalations_;
    router_.stats().gov_escalations += 1;
    if (stage_ == 0) {
      overload_since_ps_ = router_.engine().now();
    }
  }
  stage_ = next;
  NPR_OBS_HOOK(router_.observer(),
               Record(SpanPoint::kGovStage, 0, kUnitGovernor,
                      static_cast<uint16_t>(stage_)));
  if (!was_shedding_host && ShedHostBound()) {
    ThrottleExtensions();
  } else if (was_shedding_host && !ShedHostBound()) {
    LiftThrottles();
  }
}

OverloadGovernor::SourceCount& OverloadGovernor::ProbeSource(std::vector<SourceCount>& buckets,
                                                             uint32_t src) {
  const size_t mask = buckets.size() - 1;
  size_t i = static_cast<size_t>((uint64_t{src} * 0x9e3779b97f4a7c15ULL) >>
                                 (64 - std::countr_zero(buckets.size())));
  while (buckets[i].frames != 0 && buckets[i].src != src) {
    i = (i + 1) & mask;
  }
  return buckets[i];
}

void OverloadGovernor::CountOffered(uint8_t port, uint32_t src) {
  OfferedTable& table = offered_[port];
  if (2 * (table.used + 1) > table.buckets.size()) {
    std::vector<SourceCount> old = std::move(table.buckets);
    table.buckets.assign(old.empty() ? 16 : 2 * old.size(), SourceCount{});
    for (const SourceCount& bucket : old) {
      if (bucket.frames != 0) {
        ProbeSource(table.buckets, bucket.src) = bucket;
      }
    }
  }
  SourceCount& bucket = ProbeSource(table.buckets, src);
  if (bucket.frames == 0) {
    bucket.src = src;
    ++table.used;
  }
  ++bucket.frames;
}

void OverloadGovernor::RebuildHotSets() {
  hot_.clear();
  for (size_t port = 0; port < offered_.size(); ++port) {
    OfferedTable& table = offered_[port];
    if (table.used == 0) {
      continue;
    }
    uint64_t total = 0;
    for (const SourceCount& bucket : table.buckets) {
      total += bucket.frames;
    }
    const uint64_t threshold =
        std::max<uint64_t>(cfg_.hh_min_frames,
                           static_cast<uint64_t>(cfg_.hh_share * static_cast<double>(total)));
    for (SourceCount& bucket : table.buckets) {
      if (bucket.frames != 0 && bucket.frames >= threshold) {
        hot_[static_cast<uint8_t>(port)].insert(bucket.src);
      }
      bucket = SourceCount{};
    }
    table.used = 0;
  }
}

void OverloadGovernor::ThrottleExtensions() {
  // Every active general extension in the chain is throttled (packets take
  // the default IP transform); only handles this governor set are tracked,
  // so a pre-existing quarantine throttle is left alone and never lifted
  // from here. SetThrottled only marks the kept chain stale, so the loop
  // walks the chain it started with.
  for (const auto& entry : router_.istore().GeneralChain()) {
    if (!router_.istore().IsThrottled(entry.id)) {
      router_.istore().SetThrottled(entry.id, true);
      throttled_by_gov_.insert(entry.id);
    }
  }
}

void OverloadGovernor::LiftThrottles() {
  for (uint32_t id : throttled_by_gov_) {
    // The program may have been evicted (health quarantine) while throttled;
    // lifting an unknown handle would be a logged error.
    if (router_.istore().Get(id) != nullptr) {
      router_.istore().SetThrottled(id, false);
    }
  }
  throttled_by_gov_.clear();
}

}  // namespace npr
