// Unit tests for the memory system: channel timing (Table 3), queueing,
// bandwidth, backing stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/ixp/hw_config.h"
#include "src/mem/memory_system.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"

namespace npr {
namespace {

class MemorySystemTest : public ::testing::Test {
 protected:
  MemorySystemTest() : mem_(engine_, HwConfig::Default().MakeMemoryConfig()) {}
  EventQueue engine_;
  MemorySystem mem_;
};

// Table 3 unloaded latencies, in IXP cycles.
struct LatencyCase {
  const char* memory;
  uint32_t bytes;
  bool write;
  int64_t expect_cycles;
};

// Without a printer gtest dumps the raw bytes, which hold the address of
// `memory`; ctest's discovered test names carry that dump. The name
// generator below already spells out memory, direction and size.
void PrintTo(const LatencyCase& c, std::ostream* os) { *os << c.expect_cycles << " cycles"; }

class Table3Latency : public MemorySystemTest,
                      public ::testing::WithParamInterface<LatencyCase> {};

TEST_P(Table3Latency, UnloadedLatencyMatchesTable3) {
  const LatencyCase& c = GetParam();
  MemoryChannel* ch = nullptr;
  if (std::string(c.memory) == "dram") {
    ch = &mem_.dram();
  } else if (std::string(c.memory) == "sram") {
    ch = &mem_.sram();
  } else {
    ch = &mem_.scratch();
  }
  EXPECT_EQ(kIxpClock.ToCycles(ch->UnloadedLatency(c.bytes, c.write)), c.expect_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllMemories, Table3Latency,
    ::testing::Values(LatencyCase{"dram", 32, false, 52}, LatencyCase{"dram", 32, true, 40},
                      LatencyCase{"sram", 4, false, 22}, LatencyCase{"sram", 4, true, 22},
                      LatencyCase{"scratch", 4, false, 16},
                      LatencyCase{"scratch", 4, true, 20}),
    [](const auto& info) {
      return std::string(info.param.memory) + (info.param.write ? "_write" : "_read") +
             std::to_string(info.param.bytes) + "B";
    });

TEST_F(MemorySystemTest, CompletionCallbackFiresAtLatency) {
  SimTime done_at = -1;
  mem_.sram().Issue(4, false, [&] { done_at = engine_.now(); });
  engine_.RunAll();
  EXPECT_EQ(done_at, kIxpClock.ToTime(22));
}

TEST_F(MemorySystemTest, BackToBackAccessesQueue) {
  // Two 32 B DRAM reads issued together: the second waits for the first's
  // bus occupancy (4 bus cycles = 40 ns), not its full latency.
  SimTime first = -1, second = -1;
  mem_.dram().Issue(32, false, [&] { first = engine_.now(); });
  mem_.dram().Issue(32, false, [&] { second = engine_.now(); });
  engine_.RunAll();
  EXPECT_EQ(first, 260 * kPsPerNs);          // 52 cycles
  EXPECT_EQ(second, (260 + 40) * kPsPerNs);  // + occupancy only
}

TEST_F(MemorySystemTest, DramPeakBandwidthIs6_4Gbps) {
  // Saturate with 64 B transfers for 1 ms and measure goodput.
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    mem_.dram().Issue(64, true, [] {});
  }
  engine_.RunAll();
  const double seconds = static_cast<double>(engine_.now()) / kPsPerSec;
  const double gbps = static_cast<double>(mem_.dram().bytes_moved()) * 8 / seconds / 1e9;
  EXPECT_NEAR(gbps, 6.4, 0.1);
}

TEST_F(MemorySystemTest, SramPeakBandwidthIs3_2Gbps) {
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    mem_.sram().Issue(4, true, [] {});
  }
  engine_.RunAll();
  const double seconds = static_cast<double>(engine_.now()) / kPsPerSec;
  const double gbps = static_cast<double>(mem_.sram().bytes_moved()) * 8 / seconds / 1e9;
  EXPECT_NEAR(gbps, 3.2, 0.1);
}

TEST_F(MemorySystemTest, UtilizationTracksLoad) {
  mem_.dram().Issue(32, false, nullptr);
  engine_.RunUntil(80 * kPsPerNs);  // occupancy is 40 ns of the 80 ns window
  EXPECT_NEAR(mem_.dram().Utilization(0), 0.5, 0.01);
}

TEST_F(MemorySystemTest, StatsCountAccesses) {
  mem_.scratch().Issue(4, false, nullptr);
  mem_.scratch().Issue(4, true, nullptr);
  mem_.scratch().Issue(4, true, nullptr);
  engine_.RunAll();
  EXPECT_EQ(mem_.scratch().reads(), 1u);
  EXPECT_EQ(mem_.scratch().writes(), 2u);
  EXPECT_EQ(mem_.scratch().bytes_moved(), 12u);
  mem_.ResetStats();
  EXPECT_EQ(mem_.scratch().reads(), 0u);
}

TEST_F(MemorySystemTest, QueueWaitRecordedUnderContention) {
  MemoryChannel& ch = mem_.sram();
  for (int i = 0; i < 10; ++i) {
    ch.Issue(4, false, nullptr);
  }
  engine_.RunAll();
  // Ten one-bus-cycle reads issued at one instant: the i-th waits i cycles.
  const SimTime cycle = ch.config().bus_cycle_ps;
  EXPECT_EQ(ch.reads(), 10u);
  EXPECT_EQ(ch.queue_wait_max_ps(), 9 * cycle);
  EXPECT_EQ(ch.queue_wait_sum_ps(), 45 * cycle);
  ch.ResetStats();
  EXPECT_EQ(ch.queue_wait_max_ps(), 0);
  EXPECT_EQ(ch.queue_wait_sum_ps(), 0);
}

TEST_F(MemorySystemTest, PeekLatencyAgreesWithIssueUnderBacklog) {
  // Regression: PeekLatency and Issue once computed the bus occupancy
  // independently and could disagree under a backlog. Both now go through
  // the same busy-timeline helper, so a fault-free Peek at any instant must
  // predict the very completion time the next Issue returns.
  MemoryChannel& ch = mem_.sram();
  for (int i = 0; i < 7; ++i) {
    ch.Issue(32, /*is_write=*/i % 2 == 0, nullptr);
  }
  for (uint32_t bytes : {4u, 8u, 32u, 64u}) {
    const SimTime peek = ch.PeekLatency(bytes, /*is_write=*/false);
    const SimTime done = ch.Issue(bytes, /*is_write=*/false, nullptr);
    EXPECT_EQ(done - engine_.now(), peek) << bytes << " bytes";
  }
}

TEST_F(MemorySystemTest, IssueBurstMatchesSequentialIssues) {
  // IssueBurst(n, b) must be arithmetically identical to n Issue(b) calls:
  // same final completion time, same op/byte counters, same queue-wait
  // samples — only the number of scheduled events differs.
  MemoryChannelConfig cfg;
  cfg.name = "burst";
  cfg.width_bytes = 4;
  cfg.bus_cycle_ps = 10000;
  cfg.write_latency_ps = 50000;
  MemoryChannel seq(engine_, cfg);
  MemoryChannel burst(engine_, cfg);
  seq.Issue(16, true, nullptr);  // pre-existing backlog on both
  burst.Issue(16, true, nullptr);

  SimTime seq_done = 0;
  for (int i = 0; i < 4; ++i) {
    seq_done = seq.Issue(8, true, nullptr);
  }
  const SimTime burst_done = burst.IssueBurst(4, 8, true, nullptr);
  EXPECT_EQ(burst_done, seq_done);
  EXPECT_EQ(burst.writes(), seq.writes());
  EXPECT_EQ(burst.bytes_moved(), seq.bytes_moved());
  EXPECT_EQ(burst.queue_wait_max_ps(), seq.queue_wait_max_ps());
  EXPECT_EQ(burst.queue_wait_sum_ps(), seq.queue_wait_sum_ps());
  engine_.RunAll();
  EXPECT_EQ(burst.Utilization(0), seq.Utilization(0));
}

TEST_F(MemorySystemTest, IssueBurstCompletionFiresOnce) {
  int fires = 0;
  const SimTime done = mem_.dram().IssueBurst(3, 64, false, [&] { ++fires; });
  engine_.RunAll();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(engine_.now(), done);
  EXPECT_EQ(mem_.dram().reads(), 3u);
}

// --- BackingStore ---

TEST(BackingStore, ReadWriteRoundTrip) {
  BackingStore store("test", 1024);
  const uint8_t data[] = {1, 2, 3, 4, 5};
  store.Write(100, data);
  uint8_t out[5] = {};
  store.Read(100, out);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i], data[i]);
  }
}

TEST(BackingStore, WordAccessors) {
  BackingStore store("test", 64);
  store.WriteU32(8, 0xdeadbeef);
  EXPECT_EQ(store.ReadU32(8), 0xdeadbeefu);
  store.WriteU64(16, 0x0123456789abcdefULL);
  EXPECT_EQ(store.ReadU64(16), 0x0123456789abcdefULL);
}

// Reads [addr, addr + len) back as a vector.
std::vector<uint8_t> ReadBytes(const BackingStore& store, uint32_t addr, size_t len) {
  std::vector<uint8_t> out(len, 0xaa);
  store.Read(addr, out);
  return out;
}

TEST(BackingStore, ZeroFills) {
  BackingStore store("test", 64);
  store.WriteU32(0, 0xffffffff);
  store.Zero(0, 4);
  EXPECT_EQ(store.ReadU32(0), 0u);

  // Across block boundaries and over never-written blocks: [48, 136) is
  // written (the tail of block 0, all of block 1, the head of block 2) and
  // block 3 never is; Zero(56, 144) covers part of block 0, blocks 1 and 2
  // whole, and part of block 3.
  BackingStore wide("test", 256);
  const std::vector<uint8_t> ones(136 - 48, 0xff);
  wide.Write(48, ones);
  wide.Zero(56, 144);
  std::vector<uint8_t> expect(256, 0);
  std::fill(expect.begin() + 48, expect.begin() + 56, 0xff);
  EXPECT_EQ(ReadBytes(wide, 0, 256), expect);
  // A block zeroed whole reads as zero around a later partial write too.
  const uint32_t word = 0x01020304;
  wide.WriteU32(72, word);
  std::memcpy(expect.data() + 72, &word, 4);
  EXPECT_EQ(ReadBytes(wide, 0, 256), expect);

  BackingStore fresh("test", 100);
  fresh.Zero(0, 100);
  EXPECT_EQ(ReadBytes(fresh, 0, 100), std::vector<uint8_t>(100, 0));
  EXPECT_EQ(fresh.oob_errors(), 0u);
}

TEST(BackingStore, InitiallyZeroed) {
  BackingStore store("test", 128);
  EXPECT_EQ(store.ReadU64(0), 0u);
  EXPECT_EQ(store.ReadU64(120), 0u);

  // A size that is not a whole number of 64-byte blocks: reads across the
  // partial last block, up to size(), are zero too.
  BackingStore odd("test", 100);
  EXPECT_EQ(odd.size(), 100u);
  EXPECT_EQ(ReadBytes(odd, 40, 60), std::vector<uint8_t>(60, 0));
  EXPECT_EQ(odd.ReadU32(96), 0u);
  odd.WriteU32(96, 0xa5a5a5a5);
  EXPECT_EQ(odd.ReadU32(96), 0xa5a5a5a5u);
  EXPECT_EQ(odd.ReadU32(92), 0u);
  EXPECT_EQ(odd.oob_errors(), 0u);
}

TEST(BackingStore, PartialWriteLeavesRestOfBlockZero) {
  BackingStore store("test", 4096);
  // A 4-byte write into a never-written block: its other 60 bytes read zero.
  const uint32_t word = 0xdeadbeef;
  store.WriteU32(64 + 8, word);
  std::vector<uint8_t> expect(64, 0);
  std::memcpy(expect.data() + 8, &word, 4);
  EXPECT_EQ(ReadBytes(store, 64, 64), expect);

  // The same after the block was filled with ones and zeroed whole, so its
  // stored bytes are not zero whatever the allocator handed out.
  const std::vector<uint8_t> ones(64, 0xff);
  store.Write(128, ones);
  store.Zero(128, 64);
  store.WriteU32(128 + 8, word);
  EXPECT_EQ(ReadBytes(store, 128, 64), expect);

  // Written, never-written, written: a read spanning [224, 416) returns
  // each part in place.
  const std::vector<uint8_t> low(32, 0x11);
  const std::vector<uint8_t> high(32, 0x22);
  store.Write(224, low);   // tail of block 3
  store.Write(384, high);  // head of block 6; blocks 4 and 5 stay unwritten
  std::vector<uint8_t> span(416 - 224, 0);
  std::fill(span.begin(), span.begin() + 32, 0x11);
  std::fill(span.end() - 32, span.end(), 0x22);
  EXPECT_EQ(ReadBytes(store, 224, 416 - 224), span);
}

TEST(BackingStore, ZeroLengthAccessAtEndIsNoOp) {
  for (size_t size : {size_t{128}, size_t{100}}) {
    BackingStore store("test", size);
    const auto end = static_cast<uint32_t>(size);
    store.Write(end, {});
    store.Read(end, {});
    store.Zero(end, 0);
    EXPECT_EQ(store.oob_errors(), 0u) << size;
    EXPECT_EQ(ReadBytes(store, 0, size), std::vector<uint8_t>(size, 0)) << size;
  }
}

TEST(BackingStore, FaultFlipLandsInNeverWrittenBytes) {
  // A read of bytes nobody wrote still consults the injector and comes back
  // with exactly one bit flipped; the stored bytes stay zero.
  EventQueue engine;
  FaultPlan plan;
  plan.mem_bit_flip_p = 1;
  FaultInjector fault(plan, engine);
  BackingStore store("test", 256);
  store.set_fault_injector(&fault);
  const auto popcount = [](const std::vector<uint8_t>& bytes) {
    int bits = 0;
    for (uint8_t b : bytes) {
      bits += std::popcount(b);
    }
    return bits;
  };
  EXPECT_EQ(popcount(ReadBytes(store, 64, 16)), 1);
  // Across a written and a never-written block: one flip over the whole read.
  store.WriteU32(60, 0);
  EXPECT_EQ(popcount(ReadBytes(store, 56, 16)), 1);
  EXPECT_EQ(fault.injected(FaultKind::kMemBitFlip), 2u);
  fault.set_armed(false);
  EXPECT_EQ(ReadBytes(store, 0, 256), std::vector<uint8_t>(256, 0));
}

// Out-of-range accesses assert unless NDEBUG is defined, so only NDEBUG
// builds (the default RelWithDebInfo among them) issue them below.
#ifdef NDEBUG
constexpr bool kOutOfRangeReturns = true;
#else
constexpr bool kOutOfRangeReturns = false;
#endif

// Seeded random Write/Read/WriteU32/ReadU64/Zero calls against a zero-filled
// vector: single-block, block-spanning and region-spanning (64 KB) accesses,
// zero-length accesses at size(), and out-of-range ones.
TEST(BackingStore, MatchesZeroFilledReference) {
  constexpr size_t kRegion = 64 << 10;
  Rng rng(0x5eed0b5);
  for (const size_t size : {size_t{100}, kRegion + 36, size_t{2} << 20}) {
    SCOPED_TRACE(size);
    BackingStore store("test", size);
    std::vector<uint8_t> ref(size, 0);
    uint64_t expect_oob = 0;
    // Accesses cluster around a few addresses, so reads meet earlier writes.
    std::vector<size_t> anchors = {0, size / 2, size};
    for (size_t region = kRegion; region < size && anchors.size() < 8; region += kRegion) {
      anchors.push_back(region);
    }
    for (int i = 0; i < 4; ++i) {
      anchors.push_back(rng.Uniform(size));
    }
    int spans_block = 0;
    int spans_region = 0;
    int at_end = 0;
    for (int op = 0; op < 12000; ++op) {
      const int kind = static_cast<int>(rng.Uniform(5));  // Write Read WriteU32 ReadU64 Zero
      const size_t anchor = anchors[rng.Uniform(anchors.size())];
      size_t addr = anchor - std::min<size_t>(anchor, rng.Uniform(200));
      addr = std::min(addr + rng.Uniform(200), size);
      size_t len = kind == 2 ? 4 : kind == 3 ? 8 : 0;
      if (len == 0) {
        switch (rng.Uniform(4)) {
          case 0:  // inside one block
            len = 1 + rng.Uniform(64 - addr % 64);
            break;
          case 1:  // zero length at the end
            addr = size;
            break;
          default:  // any length, often across blocks
            len = 1 + rng.Uniform(300);
            break;
        }
      }
      if (addr + len > size) {
        if (kOutOfRangeReturns) {
          ++expect_oob;
        } else if (kind == 2 || kind == 3) {
          addr = size - len;
        } else {
          len = size - addr;
        }
      }
      const bool ok = addr + len <= size;
      if (ok && len > 0) {
        spans_block += addr / 64 != (addr + len - 1) / 64;
        spans_region += addr / kRegion != (addr + len - 1) / kRegion;
      }
      at_end += addr == size && len == 0;
      const auto a = static_cast<uint32_t>(addr);
      if (kind == 0 || kind == 2) {
        std::vector<uint8_t> bytes(len);
        for (uint8_t& b : bytes) {
          b = static_cast<uint8_t>(rng.Next());
        }
        if (kind == 0) {
          store.Write(a, bytes);
        } else {
          uint32_t word;
          std::memcpy(&word, bytes.data(), 4);
          store.WriteU32(a, word);
        }
        if (ok) {
          std::copy(bytes.begin(), bytes.end(), ref.begin() + static_cast<ptrdiff_t>(addr));
        }
      } else if (kind == 4) {
        store.Zero(a, len);
        if (ok) {
          std::fill_n(ref.begin() + static_cast<ptrdiff_t>(addr), len, 0);
        }
      } else {
        std::vector<uint8_t> expect(len, 0);
        if (ok) {
          std::copy_n(ref.begin() + static_cast<ptrdiff_t>(addr), len, expect.begin());
        }
        if (kind == 1) {
          ASSERT_EQ(ReadBytes(store, a, len), expect) << "op " << op << " addr " << addr;
        } else {
          uint64_t word;
          std::memcpy(&word, expect.data(), 8);
          ASSERT_EQ(store.ReadU64(a), word) << "op " << op << " addr " << addr;
        }
      }
      ASSERT_EQ(store.oob_errors(), expect_oob) << "op " << op;
    }
    EXPECT_GT(spans_block, 0);
    EXPECT_GT(at_end, 0);
    EXPECT_EQ(spans_region > 0, size > kRegion);
    EXPECT_EQ(expect_oob > 0, kOutOfRangeReturns);
    for (size_t addr = 0; addr < size; addr += 4096) {
      const size_t len = std::min<size_t>(4096, size - addr);
      ASSERT_TRUE(std::equal(ref.begin() + static_cast<ptrdiff_t>(addr),
                             ref.begin() + static_cast<ptrdiff_t>(addr + len),
                             ReadBytes(store, static_cast<uint32_t>(addr), len).begin()))
          << addr;
    }
  }
}

// The paper's buffer ring: 8,192 DRAM buffers of 2 KB, each holding one
// minimum-size packet's 64-byte MP. Stored flat, those MPs would keep every
// 4 KB page of the ring's 16 MB resident; packed, they and their tables fit
// in 1.5 MB.
TEST(BackingStore, RingFirstMpsStayPacked) {
  BackingStore dram("dram", 32u << 20);
  // Before any write: the directory (one word per 64 KB) and the slab list.
  EXPECT_LE(dram.host_bytes(), size_t{16} << 10);
  std::vector<uint8_t> mp(64);
  for (uint32_t buf = 0; buf < 8192; ++buf) {
    std::fill(mp.begin(), mp.end(), static_cast<uint8_t>(buf * 7 + 1));
    dram.Write(buf * 2048, mp);
  }
  const size_t written = dram.host_bytes();
  EXPECT_GE(written, size_t{8192} * 64);
  EXPECT_LE(written, size_t{3} << 19);
  const std::vector<uint8_t> zeros(2048 - 64, 0);
  for (uint32_t buf = 0; buf < 8192; ++buf) {
    ASSERT_EQ(ReadBytes(dram, buf * 2048, 64),
              std::vector<uint8_t>(64, static_cast<uint8_t>(buf * 7 + 1)))
        << buf;
    ASSERT_EQ(ReadBytes(dram, buf * 2048 + 64, 2048 - 64), zeros) << buf;
  }
  EXPECT_EQ(dram.host_bytes(), written);
}

#ifdef NDEBUG
TEST(BackingStore, OutOfBoundsCountsError) {
  BackingStore store("test", 16);
  store.WriteU32(20, 1);  // out of bounds: rejected, counted
  EXPECT_EQ(store.oob_errors(), 1u);
  EXPECT_EQ(store.ReadU32(20), 0u);  // read also rejected -> zero
  EXPECT_EQ(store.oob_errors(), 2u);
}
#endif

}  // namespace
}  // namespace npr
