// Unit tests for the VRP: assembler, static verifier (the admission
// mechanism), interpreter semantics, budget math, ISTORE layout.

#include <gtest/gtest.h>

#include "src/ixp/hash_unit.h"
#include "src/mem/backing_store.h"
#include "src/vrp/assembler.h"
#include "src/vrp/budget.h"
#include "src/vrp/interpreter.h"
#include "src/vrp/istore_layout.h"
#include "src/vrp/verifier.h"

namespace npr {
namespace {

VrpProgram MustAssemble(const std::string& src) {
  auto result = Assemble("test", src);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

// --- assembler ---

TEST(Assembler, BasicProgram) {
  auto p = MustAssemble(R"(
    .state 8
    movi r0, 5
    addi r0, -2
    send
  )");
  EXPECT_EQ(p.code.size(), 3u);
  EXPECT_EQ(p.flow_state_bytes, 8u);
  EXPECT_EQ(p.code[0].op, VrpOp::kMovI);
  EXPECT_EQ(p.code[1].imm, -2);
}

TEST(Assembler, CommentsAndLabels) {
  auto p = MustAssemble(R"(
    ; header comment
    movi r0, 1        # trailing comment
    beq r0, r7, done
    movi r1, 2
    done: send
  )");
  EXPECT_EQ(p.code.size(), 4u);
  EXPECT_EQ(p.code[1].op, VrpOp::kBeq);
  EXPECT_EQ(p.code[1].imm, 2);  // forward by two instructions
}

TEST(Assembler, HexImmediates) {
  auto p = MustAssemble("andi r0, 0xff\nsend\n");
  EXPECT_EQ(p.code[0].imm, 255);
}

TEST(Assembler, RejectsUnknownMnemonic) {
  auto r = Assemble("bad", "frobnicate r0\nsend\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown mnemonic"), std::string::npos);
}

TEST(Assembler, RejectsBackwardBranch) {
  auto r = Assemble("bad", R"(
    top: movi r0, 1
    beq r0, r7, top
    send
  )");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("backward"), std::string::npos);
}

TEST(Assembler, RejectsUnknownLabel) {
  auto r = Assemble("bad", "beq r0, r1, nowhere\nsend\n");
  EXPECT_FALSE(r.ok);
}

TEST(Assembler, RejectsDuplicateLabel) {
  auto r = Assemble("bad", "x: movi r0, 1\nx: send\n");
  EXPECT_FALSE(r.ok);
}

TEST(Assembler, RejectsBadStateDirective) {
  EXPECT_FALSE(Assemble("bad", ".state 7\nsend\n").ok);
  EXPECT_FALSE(Assemble("bad", ".state -4\nsend\n").ok);
}

TEST(Assembler, RejectsEmpty) { EXPECT_FALSE(Assemble("bad", "; nothing\n").ok); }

TEST(Assembler, RejectsWrongArity) {
  EXPECT_FALSE(Assemble("bad", "add r0\nsend\n").ok);
  EXPECT_FALSE(Assemble("bad", "send r0\n").ok);
}

// --- verifier ---

TEST(Verifier, AcceptsStraightLine) {
  auto p = MustAssemble(".state 4\nmovi r0, 1\nldsram r1, 0\nhash r2, r0\nsend\n");
  auto v = VerifyProgram(p);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.instructions, 4u);
  EXPECT_EQ(v.worst_case.cycles, 4u);
  EXPECT_EQ(v.worst_case.sram_reads, 1u);
  EXPECT_EQ(v.worst_case.hashes, 1u);
}

TEST(Verifier, BranchDelayCounted) {
  auto p = MustAssemble("movi r0, 1\nbeq r0, r7, l\nnop\nl: send\n");
  auto v = VerifyProgram(p);
  ASSERT_TRUE(v.ok);
  // movi(1) + beq(2) + max(nop path, taken path): fall-through costs
  // nop(1)+send(1)=2, taken costs send(1)=1 -> total 1+2+2 = 5.
  EXPECT_EQ(v.worst_case.cycles, 5u);
}

TEST(Verifier, WorstCaseTakesMaxOverPaths) {
  auto p = MustAssemble(R"(
    .state 16
    movi r0, 1
    beq r0, r7, cheap
    ldsram r1, 0
    ldsram r2, 4
    ldsram r3, 8
    cheap: send
  )");
  auto v = VerifyProgram(p);
  ASSERT_TRUE(v.ok);
  EXPECT_EQ(v.worst_case.sram_reads, 3u);  // expensive path dominates
}

TEST(Verifier, RejectsMissingTerminator) {
  VrpProgram p;
  p.code = {VrpInstr{VrpOp::kMovI, 0, 0, 1}};
  EXPECT_FALSE(VerifyProgram(p).ok);
}

TEST(Verifier, RejectsHandCraftedBackwardBranch) {
  VrpProgram p;
  p.code = {VrpInstr{VrpOp::kNop, 0, 0, 0}, VrpInstr{VrpOp::kBeq, 0, 0, -1},
            VrpInstr{VrpOp::kSend, 0, 0, 0}};
  EXPECT_FALSE(VerifyProgram(p).ok);
}

TEST(Verifier, RejectsRegisterOutOfRange) {
  VrpProgram p;
  p.code = {VrpInstr{VrpOp::kMovI, 9, 0, 1}, VrpInstr{VrpOp::kSend, 0, 0, 0}};
  EXPECT_FALSE(VerifyProgram(p).ok);
}

TEST(Verifier, RejectsPacketRegisterOutOfRange) {
  VrpProgram p;
  p.code = {VrpInstr{VrpOp::kLdPkt, 0, 16, 0}, VrpInstr{VrpOp::kSend, 0, 0, 0}};
  EXPECT_FALSE(VerifyProgram(p).ok);
}

TEST(Verifier, RejectsFlowStateOutOfBounds) {
  VrpProgram p;
  p.flow_state_bytes = 4;
  p.code = {VrpInstr{VrpOp::kLdSram, 0, 0, 4}, VrpInstr{VrpOp::kSend, 0, 0, 0}};
  EXPECT_FALSE(VerifyProgram(p).ok);
  p.code[0].imm = 2;  // misaligned
  EXPECT_FALSE(VerifyProgram(p).ok);
  p.code[0].imm = 0;
  EXPECT_TRUE(VerifyProgram(p).ok);
}

// --- interpreter ---

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest() : sram_("sram", 4096), interp_(sram_, hash_) {}

  VrpOutcome Run(const std::string& src, const VrpBudget* budget = nullptr) {
    auto p = MustAssemble(src);
    return interp_.Run(p, mp_, 256, budget);
  }

  uint32_t MpWord(int i) const {
    return static_cast<uint32_t>(mp_[static_cast<size_t>(i) * 4]) << 24 |
           static_cast<uint32_t>(mp_[static_cast<size_t>(i) * 4 + 1]) << 16 |
           static_cast<uint32_t>(mp_[static_cast<size_t>(i) * 4 + 2]) << 8 |
           mp_[static_cast<size_t>(i) * 4 + 3];
  }

  BackingStore sram_;
  HashUnit hash_;
  VrpInterpreter interp_;
  std::array<uint8_t, 64> mp_{};
};

TEST_F(InterpreterTest, AluAndStore) {
  auto out = Run(R"(
    movi r0, 10
    addi r0, 5
    mov r1, r0
    shl r1, 4
    stpkt r1, p2
    send
  )");
  EXPECT_EQ(out.action, VrpAction::kSend);
  EXPECT_EQ(MpWord(2), 15u << 4);
  EXPECT_EQ(out.metered.cycles, 6u);
}

struct AluCase {
  const char* op;
  uint32_t a, b, expect;
};

// Without a printer gtest dumps the raw bytes, which hold the address of `op`
// and so change on every run; ctest's discovered test names carry that dump.
void PrintTo(const AluCase& c, std::ostream* os) {
  *os << c.op << "(" << c.a << ", " << c.b << ") = " << c.expect;
}

class AluSemantics : public InterpreterTest, public ::testing::WithParamInterface<AluCase> {};

TEST_P(AluSemantics, BinaryOp) {
  const AluCase& c = GetParam();
  auto out = Run("movi r0, " + std::to_string(c.a) + "\nmovi r1, " + std::to_string(c.b) +
                 "\n" + c.op + " r0, r1\nstpkt r0, p0\nsend\n");
  EXPECT_EQ(out.action, VrpAction::kSend);
  EXPECT_EQ(MpWord(0), c.expect) << c.op;
}

INSTANTIATE_TEST_SUITE_P(Ops, AluSemantics,
                         ::testing::Values(AluCase{"add", 7, 3, 10}, AluCase{"sub", 7, 3, 4},
                                           AluCase{"and", 12, 10, 8}, AluCase{"or", 12, 10, 14},
                                           AluCase{"xor", 12, 10, 6}, AluCase{"mov", 7, 3, 3}),
                         [](const auto& info) { return info.param.op; });

TEST_F(InterpreterTest, PacketReadSeesBigEndianWords) {
  mp_[4] = 0x11;
  mp_[5] = 0x22;
  mp_[6] = 0x33;
  mp_[7] = 0x44;
  auto out = Run("ldpkt r0, p1\nstpkt r0, p3\nsend\n");
  EXPECT_EQ(out.action, VrpAction::kSend);
  EXPECT_EQ(MpWord(3), 0x11223344u);
}

TEST_F(InterpreterTest, FlowStatePersistsAcrossRuns) {
  const std::string src = ".state 4\nldsram r0, 0\naddi r0, 1\nstsram r0, 0\nsend\n";
  for (int i = 0; i < 5; ++i) {
    Run(src);
  }
  EXPECT_EQ(sram_.ReadU32(256), 5u);
}

TEST_F(InterpreterTest, BranchesTakenAndNot) {
  auto taken = Run("movi r0, 5\nmovi r1, 5\nbeq r0, r1, yes\ndrop\nyes: send\n");
  EXPECT_EQ(taken.action, VrpAction::kSend);
  auto not_taken = Run("movi r0, 5\nmovi r1, 6\nbeq r0, r1, yes\ndrop\nyes: send\n");
  EXPECT_EQ(not_taken.action, VrpAction::kDrop);
}

TEST_F(InterpreterTest, UnsignedComparisons) {
  auto blt = Run("movi r0, 2\nmovi r1, 3\nblt r0, r1, yes\ndrop\nyes: send\n");
  EXPECT_EQ(blt.action, VrpAction::kSend);
  // 0xffffffff as unsigned is huge: blt must not treat it as -1.
  auto big = Run("movi r0, -1\nmovi r1, 3\nblt r0, r1, yes\ndrop\nyes: send\n");
  EXPECT_EQ(big.action, VrpAction::kDrop);
}

TEST_F(InterpreterTest, SetQueueReported) {
  auto out = Run("setq 3\nsend\n");
  ASSERT_TRUE(out.queue);
  EXPECT_EQ(*out.queue, 3u);
}

TEST_F(InterpreterTest, ExceptAction) {
  EXPECT_EQ(Run("except\n").action, VrpAction::kExcept);
}

TEST_F(InterpreterTest, HashMetered) {
  auto out = Run("movi r0, 99\nhash r1, r0\nhash r2, r1\nsend\n");
  EXPECT_EQ(out.metered.hashes, 2u);
}

TEST_F(InterpreterTest, BudgetTrapOnCycleOverrun) {
  VrpBudget tiny;
  tiny.cycles = 3;
  auto out = Run("movi r0, 1\nmovi r1, 1\nmovi r2, 1\nmovi r3, 1\nsend\n", &tiny);
  EXPECT_EQ(out.action, VrpAction::kTrap);
  EXPECT_EQ(interp_.traps(), 1u);
}

TEST_F(InterpreterTest, BudgetTrapOnSramOverrun) {
  VrpBudget tiny;
  tiny.sram_transfers = 1;
  auto out = Run(".state 8\nldsram r0, 0\nldsram r1, 4\nsend\n", &tiny);
  EXPECT_EQ(out.action, VrpAction::kTrap);
}

TEST_F(InterpreterTest, WithinBudgetDoesNotTrap) {
  const VrpBudget budget = VrpBudget::Prototype();
  auto out = Run(".state 4\nldsram r0, 0\nsend\n", &budget);
  EXPECT_EQ(out.action, VrpAction::kSend);
}

TEST_F(InterpreterTest, UnverifiedLoopTrapsAtRuntime) {
  // Hand-crafted backward branch (the assembler would reject it): the
  // runtime safety net must trap, not hang.
  VrpProgram p;
  p.name = "evil";
  p.code = {VrpInstr{VrpOp::kNop, 0, 0, 0}, VrpInstr{VrpOp::kBeq, 7, 7, -1},
            VrpInstr{VrpOp::kSend, 0, 0, 0}};
  auto out = interp_.Run(p, mp_, 0, nullptr);
  EXPECT_EQ(out.action, VrpAction::kTrap);
}

TEST_F(InterpreterTest, FallOffEndTraps) {
  VrpProgram p;
  p.code = {VrpInstr{VrpOp::kNop, 0, 0, 0}};
  EXPECT_EQ(interp_.Run(p, mp_, 0, nullptr).action, VrpAction::kTrap);
}

// --- budget ---

TEST(Budget, PrototypeMatchesPaper) {
  auto b = VrpBudget::Prototype();
  EXPECT_EQ(b.cycles, 240u);
  EXPECT_EQ(b.sram_transfers, 24u);
  EXPECT_EQ(b.hashes, 3u);
  EXPECT_EQ(b.istore_slots, 650u);
}

TEST(Budget, ScalesDownWithLineRate) {
  auto full = VrpBudget::ForForwardingRate(1.128);
  auto half = VrpBudget::ForForwardingRate(2.0);
  EXPECT_GT(full.cycles, half.cycles);
  // At the 3.47 Mpps maximum there is no headroom at all.
  auto max = VrpBudget::ForForwardingRate(3.47);
  EXPECT_EQ(max.cycles, 0u);
}

TEST(Budget, PrototypeRateGivesRoughlyPaperBudget) {
  auto b = VrpBudget::ForForwardingRate(1.128);
  EXPECT_NEAR(b.cycles, 240.0, 40.0);
  EXPECT_NEAR(b.sram_transfers, 24.0, 5.0);
}

TEST(Budget, AdmitsChecksEveryDimension) {
  VrpBudget b;
  VrpCost fits{100, 2, 2, 1};
  EXPECT_TRUE(b.Admits(fits));
  VrpCost cycles_heavy{500, 0, 0, 0};
  EXPECT_FALSE(b.Admits(cycles_heavy));
  VrpCost sram_heavy{10, 20, 20, 0};
  EXPECT_FALSE(b.Admits(sram_heavy));
  VrpCost hash_heavy{10, 0, 0, 4};
  EXPECT_FALSE(b.Admits(hash_heavy));
  VrpCost extra{200, 0, 0, 0};
  EXPECT_FALSE(b.Admits(fits, extra));  // 100+200 > 240
}

// --- ISTORE layout ---

TEST(IStoreLayout, CapacityMatchesPaper) {
  IStoreLayout layout(HwConfig::Default());
  EXPECT_EQ(layout.extension_capacity(), 650u);  // §4.3
  EXPECT_EQ(layout.free_slots(), 650u);
}

TEST(IStoreLayout, InstallCostsMatchSection45) {
  IStoreLayout layout(HwConfig::Default());
  VrpProgram ten;
  ten.code.resize(10);
  EXPECT_EQ(layout.InstallCostCycles(ten), 800u);          // "takes 800 cycles"
  EXPECT_GT(layout.FullRewriteCostCycles(), 80'000u);      // "over 80,000 cycles"
}

TEST(IStoreLayout, PerFlowTakesExtraJumpSlot) {
  IStoreLayout layout(HwConfig::Default());
  VrpProgram p;
  p.code.resize(10);
  auto id = layout.InstallPerFlow(p);
  ASSERT_TRUE(id);
  EXPECT_EQ(layout.used_slots(), 11u);  // + indirect jump
  layout.Remove(*id);
  EXPECT_EQ(layout.used_slots(), 0u);
}

TEST(IStoreLayout, GeneralChainIsReverseInstallOrder) {
  IStoreLayout layout(HwConfig::Default());
  VrpProgram ip;
  ip.name = "ip";
  ip.code.resize(5);
  VrpProgram counter;
  counter.name = "counter";
  counter.code.resize(5);
  layout.InstallGeneral(ip, 100);
  layout.InstallGeneral(counter, 200);
  auto chain = layout.GeneralChain();
  ASSERT_EQ(chain.size(), 2u);
  // Most recently installed executes first; IP (installed first) is last.
  EXPECT_EQ(chain[0].program->name, "counter");
  EXPECT_EQ(chain[0].state_addr, 200u);
  EXPECT_EQ(chain[1].program->name, "ip");
}

TEST(IStoreLayout, RejectsWhenFull) {
  IStoreLayout layout(HwConfig::Default());
  VrpProgram big;
  big.code.resize(651);
  EXPECT_FALSE(layout.InstallGeneral(big, 0));
  big.code.resize(650);
  EXPECT_TRUE(layout.InstallGeneral(big, 0));
  VrpProgram one;
  one.code.resize(1);
  EXPECT_FALSE(layout.InstallGeneral(one, 0));
}

TEST(IStoreLayout, RemoveUnknownFails) {
  IStoreLayout layout(HwConfig::Default());
  EXPECT_FALSE(layout.Remove(1234));
}

TEST(Disassemble, ContainsMnemonics) {
  auto p = MustAssemble("movi r0, 1\nhash r1, r0\nsend\n");
  const std::string text = Disassemble(p);
  EXPECT_NE(text.find("movi"), std::string::npos);
  EXPECT_NE(text.find("hash"), std::string::npos);
  EXPECT_NE(text.find("send"), std::string::npos);
}

}  // namespace
}  // namespace npr
