#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace npr::bench {
uint64_t AllocCount();  // bench/alloc_count.cc
}  // namespace npr::bench

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::vector<double> v = samples;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

int TailPercentile(size_t n) {
  // p leaves n - ceil(p/100 * n) samples above it; want that >= 10.
  for (int p = 99; p >= 1; --p) {
    const size_t at = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= at + 10) {
      return p;
    }
  }
  return 0;
}

Counters Counters::Minus(const Counters& b) const {
  Counters d = *this;
  d.now -= b.now;
  d.events -= b.events;
  d.hub_events -= b.hub_events;
  for (int k = 0; k < kMaxNodes; ++k) {
    d.node_events[k] -= b.node_events[k];
  }
  d.allocs -= b.allocs;
  d.offered -= b.offered;
  d.finished -= b.finished;
  d.input_pkts -= b.input_pkts;
  d.exceptional -= b.exceptional;
  d.to_pentium -= b.to_pentium;
  d.dram_ops -= b.dram_ops;
  d.sram_ops -= b.sram_ops;
  d.scratch_ops -= b.scratch_ops;
  d.dram_bytes -= b.dram_bytes;
  d.me_busy_cycles -= b.me_busy_cycles;
  d.sa_busy_cycles -= b.sa_busy_cycles;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.route_epochs -= b.route_epochs;
  d.vrp_traps -= b.vrp_traps;
  d.queue_drops -= b.queue_drops;
  d.gov_drops -= b.gov_drops;
  d.gov_escalations -= b.gov_escalations;
  d.rx_drops -= b.rx_drops;
  d.fabric_frames -= b.fabric_frames;
  d.recoveries -= b.recoveries;
  d.faults_injected -= b.faults_injected;
  // num_mes, num_sas, pool_high_water and pool_slabs are levels, not flows:
  // keep the value at the end of the span.
  return d;
}

void Counters::Add(const Counters& o) {
  now += o.now;
  events += o.events;
  hub_events += o.hub_events;
  for (int k = 0; k < kMaxNodes; ++k) {
    node_events[k] += o.node_events[k];
  }
  allocs += o.allocs;
  offered += o.offered;
  finished += o.finished;
  input_pkts += o.input_pkts;
  exceptional += o.exceptional;
  to_pentium += o.to_pentium;
  dram_ops += o.dram_ops;
  sram_ops += o.sram_ops;
  scratch_ops += o.scratch_ops;
  dram_bytes += o.dram_bytes;
  me_busy_cycles += o.me_busy_cycles;
  sa_busy_cycles += o.sa_busy_cycles;
  num_mes += o.num_mes;
  num_sas += o.num_sas;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  route_epochs += o.route_epochs;
  vrp_traps += o.vrp_traps;
  queue_drops += o.queue_drops;
  gov_drops += o.gov_drops;
  gov_escalations += o.gov_escalations;
  rx_drops += o.rx_drops;
  fabric_frames += o.fabric_frames;
  pool_high_water += o.pool_high_water;
  pool_slabs += o.pool_slabs;
  recoveries += o.recoveries;
  faults_injected += o.faults_injected;
}

Counters Tracer::Read() const {
  Counters c = source_ != nullptr ? source_(source_ctx_) : Counters{};
  c.allocs = npr::bench::AllocCount();
  return c;
}

int Tracer::Begin(const char* name) {
  if (!on_) {
    return -1;
  }
  SpanRec rec;
  rec.name = name;
  rec.rep = rep_;
  rec.parent = open_.empty() ? -1 : open_.back();
  open_before_.push_back(Read());
  rec.start_s = WallNow();
  spans_.push_back(rec);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) {
    return;
  }
  SpanRec& rec = spans_[static_cast<size_t>(index)];
  rec.end_s = WallNow();
  rec.delta = Read().Minus(open_before_.back());
  open_before_.pop_back();
  open_.pop_back();
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const SpanRec& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<double> self = SelfSeconds();
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    const Counters& d = s.delta;
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"rep\": %d, \"parent\": %d, "
                 "\"start_us\": %.3f, \"end_us\": %.3f, \"self_us\": %.3f, "
                 "\"sim_ps\": %lld, \"events\": %llu, \"allocs\": %llu, \"finished\": %llu, "
                 "\"dram_ops\": %llu, \"sram_ops\": %llu, \"scratch_ops\": %llu, "
                 "\"me_busy_cycles\": %llu, \"sa_busy_cycles\": %llu, \"cache_misses\": %llu, "
                 "\"fabric_frames\": %llu}%s\n",
                 i, s.name, s.rep, s.parent, (s.start_s - t0) * 1e6, (s.end_s - t0) * 1e6,
                 self[i] * 1e6, static_cast<long long>(d.now),
                 static_cast<unsigned long long>(d.events),
                 static_cast<unsigned long long>(d.allocs),
                 static_cast<unsigned long long>(d.finished),
                 static_cast<unsigned long long>(d.dram_ops),
                 static_cast<unsigned long long>(d.sram_ops),
                 static_cast<unsigned long long>(d.scratch_ops),
                 static_cast<unsigned long long>(d.me_busy_cycles),
                 static_cast<unsigned long long>(d.sa_busy_cycles),
                 static_cast<unsigned long long>(d.cache_misses),
                 static_cast<unsigned long long>(d.fabric_frames),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
