// Host-side measurement plumbing for the npr benchmark: clocks, raw-sample
// percentiles, the public-counter snapshot read at every span boundary, and
// the in-memory span recorder behind the traced run.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace perfbench {

// Monotonic wall clock and process CPU (user + sys, getrusage), seconds.
double WallNow();
double CpuNow();
// Peak resident set size of this process so far, MiB.
double PeakRssMb();

// Percentiles are taken from the raw samples (nearest rank on a sorted
// copy), never from a bucketed histogram.
double Percentile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);
// The highest whole percentile that still leaves at least ten samples above
// it; 0 when there are too few samples for any.
int TailPercentile(size_t n);

// Every public counter the ledger needs, summed over the routers of a case.
// Cumulative values: spans store the difference between two reads.
constexpr int kMaxNodes = 8;
struct Counters {
  npr::SimTime now = 0;
  uint64_t events = 0;      // all engines
  uint64_t hub_events = 0;  // cluster hub engine only
  std::array<uint64_t, kMaxNodes> node_events{};
  uint64_t allocs = 0;
  uint64_t offered = 0;   // frames offered at external MAC ports
  uint64_t finished = 0;  // transmitted, completed, or in a named drop counter
  uint64_t input_pkts = 0;
  uint64_t exceptional = 0;
  uint64_t to_pentium = 0;
  uint64_t dram_ops = 0;
  uint64_t sram_ops = 0;
  uint64_t scratch_ops = 0;
  uint64_t dram_bytes = 0;
  uint64_t me_busy_cycles = 0;
  uint64_t sa_busy_cycles = 0;
  uint64_t num_mes = 0;
  uint64_t num_sas = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t route_epochs = 0;
  uint64_t vrp_traps = 0;
  uint64_t queue_drops = 0;
  uint64_t gov_drops = 0;
  uint64_t gov_escalations = 0;
  uint64_t rx_drops = 0;  // MAC-level drops of every kind
  uint64_t fabric_frames = 0;
  uint64_t pool_high_water = 0;
  uint64_t pool_slabs = 0;
  uint64_t recoveries = 0;
  uint64_t faults_injected = 0;

  Counters Minus(const Counters& before) const;
  // Sums another case's counters into this one (levels are summed too).
  void Add(const Counters& other);
};

// One span: a call the benchmark made into the program, with the counter
// deltas it caused. Children nest through `parent` (-1 for a root).
struct SpanRec {
  const char* name = "";
  int rep = 0;
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
  Counters delta;
};

// Records spans in memory while on; every call is a no-op while off, so the
// untraced run pays nothing but the branch.
class Tracer {
 public:
  using CounterFn = Counters (*)(void* ctx);

  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  void set_rep(int rep) { rep_ = rep; }
  // Where counters come from for the spans that follow (the current case).
  void set_source(CounterFn fn, void* ctx) {
    source_ = fn;
    source_ctx_ = ctx;
  }

  // Opens a span; returns its index (or -1 while off).
  int Begin(const char* name);
  void End(int index);

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer), index_(tracer.Begin(name)) {}
    ~Scope() { tracer_.End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  const std::vector<SpanRec>& spans() const { return spans_; }
  // Self time: the span's duration minus the time its direct children cover.
  std::vector<double> SelfSeconds() const;
  // Writes every span as JSON; returns false if the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  Counters Read() const;

  bool on_;
  int rep_ = 0;
  CounterFn source_ = nullptr;
  void* source_ctx_ = nullptr;
  std::vector<SpanRec> spans_;
  std::vector<Counters> open_before_;  // counters at Begin, one per open span
  std::vector<int> open_;              // indices of open spans, innermost last
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
