// Observer: the router-wide observability facade.
//
// Bundles the three tentpole pieces — per-packet span tracing, the
// cycle-accounting profiler, and the flight recorder — behind one object
// that Router::SetObserver wires into every hook site. With no observer
// attached a hook site is one null check, and the simulation is
// bit-identical to a run that attaches one.
//
// Record() is the hot path. It never allocates (the ring, the capture
// buffer, and the in-flight tracker are all pre-sized), never schedules
// events, and never touches an Rng, so attaching an observer cannot perturb
// simulated time.

#ifndef SRC_OBS_OBSERVER_H_
#define SRC_OBS_OBSERVER_H_

#include <cstdint>
#include <vector>

#include "src/obs/cycle_profiler.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/span.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

// Hook-site helper: a null-checked call. `obs` is an Observer*; `stmt` a
// member call.
#define NPR_OBS_HOOK(obs, stmt)        \
  do {                                 \
    if ((obs) != nullptr) (obs)->stmt; \
  } while (0)

namespace npr {

// Which forwarding path a packet took (§3 of the paper): A = pure
// MicroEngine, B = StrongARM exception path, C = Pentium via PCI/I2O.
enum class PathKind : uint8_t { kPathA = 0, kPathB, kPathC, kCount };
inline constexpr int kPathKindCount = static_cast<int>(PathKind::kCount);
const char* PathKindName(PathKind p);

// Pipeline stage boundaries for the per-stage latency histograms.
enum class HopKind : uint8_t {
  kInput = 0,   // ingress -> enqueue (input context residency)
  kQueueWait,   // enqueue -> dequeue (descriptor queue wait)
  kOutput,      // dequeue -> tx complete (output context residency)
  kSaService,   // StrongARM pickup -> verdict (path B service)
  kPeService,   // bridge DMA -> return DMA landed (path C round trip)
  kCount
};
inline constexpr int kHopKindCount = static_cast<int>(HopKind::kCount);
const char* HopKindName(HopKind h);

struct ObserverConfig {
  size_t ring_capacity = 4096;   // flight-recorder depth (span records)
  size_t capture_reserve = 0;    // >0: also append every record to capture()
  size_t tracker_slots = 1 << 14;  // in-flight table capacity (power of two)
};

class Observer {
 public:
  explicit Observer(EventQueue& engine, ObserverConfig cfg = {});

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  // --- hot path ---------------------------------------------------------
  // Stamps one span record at the current simulated time.
  void Record(SpanPoint point, uint32_t packet_id, uint8_t unit, uint16_t arg = 0);

  // Snapshots the flight-recorder ring (first trigger wins).
  void TriggerDump(const char* reason, uint32_t packet_id) {
    recorder_.TriggerDump(reason, packet_id, engine_.now());
  }

  // --- components -------------------------------------------------------
  CycleProfiler& profiler() { return profiler_; }
  const CycleProfiler& profiler() const { return profiler_; }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  // --- derived views ----------------------------------------------------
  uint64_t records() const { return records_; }
  uint64_t point_count(SpanPoint p) const { return point_counts_[static_cast<int>(p)]; }

  // End-to-end latency (ns) of forwarded packets, split by path taken.
  const Histogram& path_latency(PathKind p) const {
    return path_latency_[static_cast<int>(p)];
  }
  // Per-stage residency (ns).
  const Histogram& hop_latency(HopKind h) const { return hop_latency_[static_cast<int>(h)]; }

  // Packets with an open chain (ingress seen, no erasing terminal yet).
  uint64_t tracker_live() const { return tracker_live_; }
  // Records that could not be tracked because the table was full.
  uint64_t tracker_overflows() const { return tracker_overflows_; }

  // Full capture of every record, in order (enabled by capture_reserve).
  const std::vector<SpanRecord>& capture() const { return capture_; }
  bool capture_truncated() const { return capture_truncated_; }

 private:
  struct Track {
    uint32_t packet_id = 0;
    bool used = false;
    uint8_t path = 0;        // PathKind
    uint64_t ingress_ps = 0;
    uint64_t mark_ps = 0;    // last stage boundary
  };

  Track* Find(uint32_t packet_id);
  Track* FindOrCreate(uint32_t packet_id);
  void Erase(Track* t);
  void UpdateTrack(SpanPoint point, uint32_t packet_id, uint64_t now);

  EventQueue& engine_;
  FlightRecorder recorder_;
  CycleProfiler profiler_;

  std::vector<SpanRecord> capture_;
  size_t capture_reserve_ = 0;
  bool capture_truncated_ = false;

  std::vector<Track> tracker_;
  size_t tracker_mask_ = 0;
  uint64_t tracker_live_ = 0;
  uint64_t tracker_overflows_ = 0;

  uint64_t records_ = 0;
  uint64_t point_counts_[kSpanPointCount] = {};
  Histogram path_latency_[kPathKindCount];
  Histogram hop_latency_[kHopKindCount];
};

}  // namespace npr

#endif  // SRC_OBS_OBSERVER_H_
