// Unit tests for the router core pieces: buffer allocation, packet queues,
// queue plan, classifier, flow table, proportional-share scheduler,
// admission control.

#include <gtest/gtest.h>

#include "src/core/admission.h"
#include "src/core/buffer_allocator.h"
#include "src/core/classifier.h"
#include "src/core/flow_table.h"
#include "src/core/packet_queue.h"
#include "src/core/prop_share.h"
#include "src/core/queue_plan.h"
#include "src/forwarders/native.h"
#include "src/forwarders/vrp_programs.h"
#include "src/net/traffic_gen.h"

namespace npr {
namespace {

// --- CircularBufferAllocator ---

TEST(CircularAllocator, RoundRobinAddresses) {
  CircularBufferAllocator alloc(0, 2048, 4);
  EXPECT_EQ(alloc.Allocate({}), 0u);
  EXPECT_EQ(alloc.Allocate({}), 2048u);
  EXPECT_EQ(alloc.Allocate({}), 4096u);
  EXPECT_EQ(alloc.Allocate({}), 6144u);
  EXPECT_EQ(alloc.Allocate({}), 0u);  // wrapped
  EXPECT_EQ(alloc.laps(), 1u);
}

TEST(CircularAllocator, LapInvalidatesOldGeneration) {
  CircularBufferAllocator alloc(0, 2048, 2);
  const uint32_t addr = alloc.Allocate({});
  const uint64_t gen = alloc.MetaFor(addr).generation;
  EXPECT_TRUE(alloc.StillValid(addr, gen));
  alloc.Allocate({});
  EXPECT_TRUE(alloc.StillValid(addr, gen));  // not yet lapped
  alloc.Allocate({});                        // reuses the first buffer
  EXPECT_FALSE(alloc.StillValid(addr, gen)) << "§3.2.3: one lap and the packet is lost";
}

TEST(CircularAllocator, MetaTravelsWithBuffer) {
  CircularBufferAllocator alloc(0, 2048, 8);
  BufferMeta meta;
  meta.packet_id = 99;
  meta.arrival_port = 3;
  meta.ingress_time = 1234;
  const uint32_t addr = alloc.Allocate(meta);
  EXPECT_EQ(alloc.MetaFor(addr).packet_id, 99u);
  EXPECT_EQ(alloc.MetaFor(addr).arrival_port, 3);
}

TEST(StackPool, AllocateFreeCycle) {
  StackBufferPool pool(0, 2048, 2);
  auto a = pool.Allocate({});
  auto b = pool.Allocate({});
  ASSERT_TRUE(a && b);
  EXPECT_NE(*a, *b);
  EXPECT_FALSE(pool.Allocate({}));  // exhausted — unlike the circular scheme
  EXPECT_EQ(pool.failed_allocations(), 1u);
  pool.Free(*a);
  EXPECT_TRUE(pool.Allocate({}));
}

// --- PacketQueue ---

class PacketQueueTest : public ::testing::Test {
 protected:
  PacketQueueTest()
      : sram_("sram", 4096), scratch_("scratch", 64),
        queue_(sram_, scratch_, 0, 0, 8, 1, 0, 2048) {}

  PacketDescriptor Desc(uint32_t buffer_index) {
    PacketDescriptor d;
    d.buffer_addr = buffer_index * 2048;
    d.mp_count = 1;
    d.out_port = 3;
    d.generation = 7;
    return d;
  }

  BackingStore sram_;
  BackingStore scratch_;
  PacketQueue queue_;
};

TEST_F(PacketQueueTest, FifoOrder) {
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue_.Push(Desc(i)));
  }
  for (uint32_t i = 0; i < 5; ++i) {
    auto d = queue_.Pop();
    ASSERT_TRUE(d);
    EXPECT_EQ(d->buffer_addr, i * 2048);
    EXPECT_EQ(d->out_port, 3);
    EXPECT_EQ(d->generation, 7u);
  }
  EXPECT_TRUE(queue_.empty());
}

TEST_F(PacketQueueTest, OverflowDropsAndCounts) {
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(queue_.Push(Desc(i)));
  }
  EXPECT_FALSE(queue_.Push(Desc(9)));
  EXPECT_EQ(queue_.drops(), 1u);
  EXPECT_EQ(queue_.size(), 8u);
}

TEST_F(PacketQueueTest, WrapsAroundRing) {
  for (int round = 0; round < 5; ++round) {
    for (uint32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(queue_.Push(Desc(i)));
    }
    for (uint32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(queue_.Pop());
    }
  }
  EXPECT_EQ(queue_.pushes(), 30u);
  EXPECT_EQ(queue_.pops(), 30u);
}

TEST_F(PacketQueueTest, HeadTailLiveInScratch) {
  queue_.Push(Desc(0));
  EXPECT_EQ(scratch_.ReadU32(queue_.head_scratch_addr()), 1u);
  EXPECT_EQ(scratch_.ReadU32(queue_.tail_scratch_addr()), 0u);
  queue_.Pop();
  EXPECT_EQ(scratch_.ReadU32(queue_.tail_scratch_addr()), 1u);
}

TEST_F(PacketQueueTest, EntriesAreRealSramWords) {
  queue_.Push(Desc(5));
  const uint32_t word = sram_.ReadU32(queue_.entry_sram_addr(0));
  const auto decoded = PacketDescriptor::Decode(word, 0, 2048);
  EXPECT_EQ(decoded.buffer_addr, 5u * 2048);
  EXPECT_EQ(decoded.out_port, 3);
}

TEST(PacketDescriptor, EncodeDecodeRoundTrip) {
  for (uint32_t index : {0u, 1u, 4095u, 8191u}) {
    for (uint16_t mps : {1, 24, 32}) {
      PacketDescriptor d;
      d.buffer_addr = index * 2048;
      d.mp_count = mps;
      d.out_port = static_cast<uint8_t>(index % 10);
      d.exceptional = index % 2 == 0;
      const auto decoded = PacketDescriptor::Decode(d.Encode(0, 2048), 0, 2048);
      EXPECT_EQ(decoded.buffer_addr, d.buffer_addr);
      EXPECT_EQ(decoded.mp_count, d.mp_count);
      EXPECT_EQ(decoded.out_port, d.out_port);
      EXPECT_EQ(decoded.exceptional, d.exceptional);
    }
  }
}

// --- QueuePlan ---

class QueuePlanTest : public ::testing::Test {
 protected:
  QueuePlanTest() : mem_(engine_, HwConfig::Default().MakeMemoryConfig()) {}

  std::unique_ptr<QueuePlan> Make(InputQueueing iq, int out_ctx = 8) {
    RouterConfig cfg;
    cfg.input_queueing = iq;
    sram_ = std::make_unique<Arena>(0, 2u << 20);
    scratch_ = std::make_unique<Arena>(0, 4096);
    return std::make_unique<QueuePlan>(engine_, mem_, cfg, *sram_, *scratch_, 16, out_ctx);
  }

  EventQueue engine_;
  MemorySystem mem_;
  std::unique_ptr<Arena> sram_;
  std::unique_ptr<Arena> scratch_;
};

TEST_F(QueuePlanTest, ProtectedSharesQueuesAcrossContexts) {
  auto plan = Make(InputQueueing::kProtectedPublic);
  PacketQueue& a = plan->QueueFor(0, 3, 0);
  PacketQueue& b = plan->QueueFor(15, 3, 0);
  EXPECT_EQ(&a, &b) << "I.2: all input contexts share the port queue";
  EXPECT_NE(plan->MutexFor(a), nullptr);
  EXPECT_EQ(plan->all_queues().size(), 8u);
}

TEST_F(QueuePlanTest, PrivateGivesEachContextItsOwn) {
  auto plan = Make(InputQueueing::kPrivatePerContext);
  PacketQueue& a = plan->QueueFor(0, 3, 0);
  PacketQueue& b = plan->QueueFor(1, 3, 0);
  EXPECT_NE(&a, &b) << "I.1: private queues, no sharing";
  EXPECT_EQ(plan->MutexFor(a), nullptr) << "I.1 avoids locks entirely";
  EXPECT_EQ(plan->all_queues().size(), 8u * 16u);
}

TEST_F(QueuePlanTest, PortsPartitionedOverOutputContexts) {
  auto plan = Make(InputQueueing::kProtectedPublic, 8);
  for (uint8_t p = 0; p < 8; ++p) {
    EXPECT_EQ(plan->OutputContextForPort(p), p % 8);
  }
  EXPECT_EQ(plan->QueuesForOutputContext(0).size(), 1u);
}

TEST_F(QueuePlanTest, ReadyBitsTrackQueueState) {
  auto plan = Make(InputQueueing::kProtectedPublic);
  PacketQueue& q = plan->QueueFor(0, 2, 0);
  EXPECT_FALSE(plan->IsReady(q));
  plan->MarkReady(q);
  EXPECT_TRUE(plan->IsReady(q));
  plan->ClearReady(q);
  EXPECT_FALSE(plan->IsReady(q));
}

TEST_F(QueuePlanTest, ReadyBitsStayDistinctBeyondOneWord) {
  // Input-only I.1 runs park all 8 x 16 private queues on one output
  // context: its readiness bit-array spans four words, one bit per queue.
  auto plan = Make(InputQueueing::kPrivatePerContext, 1);
  const auto& queues = plan->QueuesForOutputContext(0);
  ASSERT_EQ(queues.size(), 128u);
  for (size_t marked = 0; marked < queues.size(); ++marked) {
    plan->MarkReady(*queues[marked]);
    for (size_t i = 0; i < queues.size(); ++i) {
      ASSERT_EQ(plan->IsReady(*queues[i]), i == marked) << "marked " << marked << ", queue " << i;
    }
    plan->ClearReady(*queues[marked]);
  }
}

// --- FlowTable ---

TEST(FlowTable, InsertLookupRemove) {
  FlowTable table;
  FlowMeta meta;
  meta.key = FlowKey::Tuple(1, 2, 3, 4);
  meta.where = Where::kStrongArm;
  const uint32_t fid = table.Insert(meta);
  EXPECT_NE(fid, 0u);
  ASSERT_NE(table.Get(fid), nullptr);
  ASSERT_NE(table.LookupTuple(FlowKey::Tuple(1, 2, 3, 4)), nullptr);
  EXPECT_EQ(table.LookupTuple(FlowKey::Tuple(1, 2, 3, 5)), nullptr);
  EXPECT_TRUE(table.Remove(fid));
  EXPECT_EQ(table.LookupTuple(FlowKey::Tuple(1, 2, 3, 4)), nullptr);
  EXPECT_FALSE(table.Remove(fid));
}

TEST(FlowTable, RemoveDoesNotUnbindRekeyedTuple) {
  // Regression: installing a new flow on the same tuple (splicer replacing
  // its proxy) and then removing the old fid must keep the new binding.
  FlowTable table;
  FlowMeta proxy;
  proxy.key = FlowKey::Tuple(1, 2, 3, 4);
  proxy.where = Where::kPentium;
  const uint32_t proxy_fid = table.Insert(proxy);
  FlowMeta splicer;
  splicer.key = proxy.key;
  splicer.where = Where::kMicroEngine;
  const uint32_t splicer_fid = table.Insert(splicer);
  ASSERT_TRUE(table.Remove(proxy_fid));
  const FlowMeta* bound = table.LookupTuple(proxy.key);
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(bound->fid, splicer_fid);
  EXPECT_EQ(bound->where, Where::kMicroEngine);
}

TEST(FlowTable, GeneralsFilteredByWhere) {
  FlowTable table;
  FlowMeta sa;
  sa.key = FlowKey::All();
  sa.where = Where::kStrongArm;
  FlowMeta pe;
  pe.key = FlowKey::All();
  pe.where = Where::kPentium;
  table.Insert(sa);
  table.Insert(pe);
  std::vector<const FlowMeta*> run;
  EXPECT_FALSE(table.ForwardersAt(Where::kStrongArm, nullptr, &run));
  EXPECT_EQ(run.size(), 1u);
  EXPECT_FALSE(table.ForwardersAt(Where::kPentium, nullptr, &run));
  EXPECT_EQ(run.size(), 1u);
  EXPECT_FALSE(table.ForwardersAt(Where::kMicroEngine, nullptr, &run));
  EXPECT_EQ(run.size(), 0u);

  // A flow bound to a level runs only its own forwarder there; elsewhere it
  // runs that level's generals.
  FlowMeta own;
  own.key = FlowKey::Tuple(1, 2, 3, 4);
  own.where = Where::kPentium;
  const FlowMeta* bound = table.Get(table.Insert(own));
  EXPECT_TRUE(table.ForwardersAt(Where::kPentium, bound, &run));
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0], bound);
  EXPECT_FALSE(table.ForwardersAt(Where::kStrongArm, bound, &run));
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0]->where, Where::kStrongArm);
}

// --- PropShareScheduler ---

TEST(PropShare, ServesProportionally) {
  PropShareScheduler sched;
  sched.ConfigureFlow(1, 3.0);
  sched.ConfigureFlow(2, 1.0);
  for (int i = 0; i < 400; ++i) {
    sched.Enqueue(1, HostPacket{});
    sched.Enqueue(2, HostPacket{});
  }
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(sched.Next());
  }
  // Flow 1 (3 tickets) should have gotten ~3x the service of flow 2.
  EXPECT_NEAR(static_cast<double>(sched.served(1)) / static_cast<double>(sched.served(2)), 3.0,
              0.2);
}

TEST(PropShare, IdleFlowDoesNotHoardCredit) {
  PropShareScheduler sched;
  sched.ConfigureFlow(1, 1.0);
  sched.ConfigureFlow(2, 1.0);
  // Flow 1 runs alone for a while.
  for (int i = 0; i < 100; ++i) {
    sched.Enqueue(1, HostPacket{});
    sched.Next();
  }
  // Flow 2 wakes: it must not monopolize to "catch up".
  for (int i = 0; i < 100; ++i) {
    sched.Enqueue(1, HostPacket{});
    sched.Enqueue(2, HostPacket{});
  }
  uint64_t first_20_flow2 = 0;
  for (int i = 0; i < 20; ++i) {
    sched.Next();
  }
  first_20_flow2 = sched.served(2);
  EXPECT_LE(first_20_flow2, 12u);
  EXPECT_GE(first_20_flow2, 8u);
}

TEST(PropShare, EmptyReturnsNothing) {
  PropShareScheduler sched;
  EXPECT_FALSE(sched.Next());
}

TEST(PropShare, AutoRegistersUnknownFlows) {
  PropShareScheduler sched;
  sched.Enqueue(42, HostPacket{});
  EXPECT_TRUE(sched.Next());
  EXPECT_EQ(sched.served(42), 1u);
}

// --- AdmissionControl ---

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest() : istore_(cfg_.hw), admission_(cfg_, istore_) {}
  RouterConfig cfg_;
  IStoreLayout istore_;
  AdmissionControl admission_;
};

TEST_F(AdmissionTest, AcceptsTable5Forwarders) {
  for (auto builder : {BuildSynMonitor, BuildAckMonitor, BuildPortFilter}) {
    auto program = builder();
    auto r = admission_.CheckMicroEngine(program, /*general=*/true);
    EXPECT_TRUE(r.admitted) << r.reason;
  }
}

TEST_F(AdmissionTest, RejectsLoopingCode) {
  VrpProgram evil;
  evil.code = {VrpInstr{VrpOp::kNop, 0, 0, 0}, VrpInstr{VrpOp::kBeq, 7, 7, -1},
               VrpInstr{VrpOp::kSend, 0, 0, 0}};
  auto r = admission_.CheckMicroEngine(evil, true);
  EXPECT_FALSE(r.admitted);
  EXPECT_NE(r.reason.find("verification"), std::string::npos);
}

TEST_F(AdmissionTest, GeneralsAccumulateUntilBudgetExhausted) {
  // Generals run serially: their cycle costs sum (§4.6).
  auto block = BuildSyntheticBlocks(6);  // ~67 cycles each
  int admitted = 0;
  while (admitted < 10) {
    auto r = admission_.CheckMicroEngine(block, true);
    if (!r.admitted) {
      break;
    }
    auto handle = istore_.InstallGeneral(block, 0);
    ASSERT_TRUE(handle);
    admission_.CommitMicroEngine(*handle, r.worst_case, true);
    ++admitted;
  }
  EXPECT_GE(admitted, 2);
  EXPECT_LE(admitted, 4);  // 240-cycle budget / ~67 = 3
}

TEST_F(AdmissionTest, PerFlowForwardersRunLogicallyInParallel) {
  // Only the most expensive per-flow forwarder counts (§4.6): many can be
  // admitted even though their *sum* exceeds the budget.
  auto heavy = BuildSyntheticBlocks(15);  // ~166 cycles
  for (int i = 0; i < 3; ++i) {
    auto r = admission_.CheckMicroEngine(heavy, false);
    ASSERT_TRUE(r.admitted) << "flow " << i << ": " << r.reason;
    auto handle = istore_.InstallPerFlow(heavy);
    ASSERT_TRUE(handle);
    admission_.CommitMicroEngine(*handle, r.worst_case, false);
  }
  // But a general must fit on top of the *max* per-flow cost.
  auto general = BuildSyntheticBlocks(10);  // ~111 cycles; 166+111 > 240
  EXPECT_FALSE(admission_.CheckMicroEngine(general, true).admitted);
}

TEST_F(AdmissionTest, ReleaseRestoresBudget) {
  auto big = BuildSyntheticBlocks(20);
  auto r = admission_.CheckMicroEngine(big, true);
  ASSERT_TRUE(r.admitted);
  auto handle = istore_.InstallGeneral(big, 0);
  admission_.CommitMicroEngine(*handle, r.worst_case, true);
  EXPECT_FALSE(admission_.CheckMicroEngine(big, true).admitted);
  istore_.Remove(*handle);
  admission_.ReleaseMicroEngine(*handle);
  EXPECT_TRUE(admission_.CheckMicroEngine(big, true).admitted);
}

TEST_F(AdmissionTest, PentiumRateTimesCycles) {
  // 100 Kpps at 2000 cpp plus bridge overhead fits in 733 MHz...
  auto ok = admission_.CheckPentium(100'000, 2000);
  EXPECT_TRUE(ok.admitted) << ok.reason;
  admission_.CommitPentium(1, 100'000, 2000);
  // ...but five more of those exceed capacity.
  admission_.CommitPentium(2, 100'000, 2000);
  auto too_much = admission_.CheckPentium(150'000, 2000);
  EXPECT_FALSE(too_much.admitted);
}

TEST_F(AdmissionTest, PentiumPacketRateCap) {
  auto r = admission_.CheckPentium(600'000, 1);  // above the 534 Kpps path max
  EXPECT_FALSE(r.admitted);
  EXPECT_NE(r.reason.find("packet rate"), std::string::npos);
}

TEST_F(AdmissionTest, StrongArmReserveProtectsBridge) {
  NullForwarder cheap(100);
  // 80% of the StrongARM is reserved for bridging: 40 Mcycles/s available.
  EXPECT_TRUE(admission_.CheckStrongArm(cheap, 100'000).admitted);
  EXPECT_FALSE(admission_.CheckStrongArm(cheap, 600'000).admitted);
}

// --- Classifier ---

class ClassifierTest : public ::testing::Test {
 protected:
  ClassifierTest()
      : classifier_(ClassifierMode::kFlowTable, routes_, cache_, flows_, hash_) {
    routes_.AddRoute("10.1.0.0/16", 1);
    RouteEntry e{1, PortMac(1)};
    cache_.Insert(DstIpForPort(1, 1), e, routes_.epoch());
  }

  RouteTable routes_;
  RouteCache cache_;
  FlowTable flows_;
  HashUnit hash_;
  Classifier classifier_;
};

TEST_F(ClassifierTest, FastPathHitGoesToPort) {
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(1, 1);
  Packet p = BuildPacket(spec);
  auto out = classifier_.Classify(p.bytes());
  EXPECT_EQ(out.target, ClassifyOutcome::Target::kPort);
  EXPECT_EQ(out.out_port, 1);
}

TEST_F(ClassifierTest, CacheMissDivertsToStrongArm) {
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(1, 99);  // routable but not cached
  Packet p = BuildPacket(spec);
  auto out = classifier_.Classify(p.bytes());
  EXPECT_EQ(out.target, ClassifyOutcome::Target::kStrongArmLocal);
  EXPECT_STREQ(out.reason, "route-miss");
}

TEST_F(ClassifierTest, OptionsAreExceptional) {
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(1, 1);
  spec.ip_options = {0x07, 0x04, 0x04, 0x00};
  Packet p = BuildPacket(spec);
  auto out = classifier_.Classify(p.bytes());
  EXPECT_EQ(out.target, ClassifyOutcome::Target::kStrongArmLocal);
  EXPECT_STREQ(out.reason, "ip-options");
}

TEST_F(ClassifierTest, TtlExpiryIsExceptional) {
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(1, 1);
  spec.ttl = 1;
  Packet p = BuildPacket(spec);
  EXPECT_EQ(classifier_.Classify(p.bytes()).target,
            ClassifyOutcome::Target::kStrongArmLocal);
}

TEST_F(ClassifierTest, CorruptHeaderDropped) {
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(1, 1);
  Packet p = BuildPacket(spec);
  p.bytes()[16] ^= 0xff;  // corrupt total_length
  EXPECT_EQ(classifier_.Classify(p.bytes()).target, ClassifyOutcome::Target::kDrop);
}

TEST_F(ClassifierTest, ControlProtocolToPentium) {
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(1, 1);
  spec.protocol = kIpProtoOspfLite;
  Packet p = BuildPacket(spec);
  EXPECT_EQ(classifier_.Classify(p.bytes()).target, ClassifyOutcome::Target::kPentium);
}

TEST_F(ClassifierTest, FlowMatchRoutesToInstalledLevel) {
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(1, 1);
  spec.protocol = kIpProtoTcp;
  spec.src_port = 7777;
  spec.dst_port = 80;
  Packet p = BuildPacket(spec);

  FlowMeta meta;
  meta.key = FlowKey::Tuple(spec.src_ip, spec.dst_ip, 7777, 80);
  meta.where = Where::kPentium;
  flows_.Insert(meta);

  auto out = classifier_.Classify(p.bytes());
  EXPECT_EQ(out.target, ClassifyOutcome::Target::kPentium);
  ASSERT_NE(out.flow, nullptr);
  EXPECT_EQ(out.flow->where, Where::kPentium);
}

TEST_F(ClassifierTest, SlowPathResolveWarmsCache) {
  const uint32_t dst = DstIpForPort(1, 50);
  EXPECT_FALSE(cache_.Lookup(dst, routes_.epoch()));
  RouteEntry entry;
  const int accesses = classifier_.SlowPathResolve(dst, &entry);
  EXPECT_GE(accesses, 1);
  EXPECT_EQ(entry.out_port, 1);
  EXPECT_TRUE(cache_.Lookup(dst, routes_.epoch()));
}

}  // namespace
}  // namespace npr
