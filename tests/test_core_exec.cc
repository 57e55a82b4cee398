/** Core executor: single-lane semantics, SIMD lanes, incidental ops. */

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "nvp/core.h"

using namespace inc;
using namespace inc::nvp;

namespace
{

struct Fixture
{
    isa::Program program;
    DataMemory mem{util::Rng(1), 8192};
    std::unique_ptr<Core> core;

    explicit Fixture(const std::string &asm_text,
                     CoreConfig cfg = CoreConfig{})
        : program(isa::assembleOrDie(asm_text))
    {
        core = std::make_unique<Core>(&program, &mem, cfg, util::Rng(2));
    }

    /** Step until halt (bounded). */
    std::uint64_t runToHalt(std::uint64_t cap = 100000)
    {
        std::uint64_t steps = 0;
        while (!core->halted() && steps < cap) {
            core->step();
            ++steps;
        }
        return steps;
    }
};

} // namespace

TEST(CoreExec, StraightLineArithmetic)
{
    Fixture f(R"(
        ldi r1, 7
        ldi r2, 5
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        halt
    )");
    f.runToHalt();
    EXPECT_EQ(f.core->regs().read(0, 3), 12);
    EXPECT_EQ(f.core->regs().read(0, 4), 2);
    EXPECT_EQ(f.core->regs().read(0, 5), 35);
}

TEST(CoreExec, LoopsAndBranches)
{
    Fixture f(R"(
        ldi r1, 10
        ldi r2, 0
    loop:
        add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    )");
    f.runToHalt();
    EXPECT_EQ(f.core->regs().read(0, 2), 55);
}

TEST(CoreExec, MemoryAndJal)
{
    Fixture f(R"(
        ldi r1, 100
        ldi r2, 0x1234
        st16 r2, 0(r1)
        ld16 r3, 0(r1)
        ld8 r4, 0(r1)
        ld8 r5, 1(r1)
        jal r6, over
        nop
    over:
        halt
    )");
    f.runToHalt();
    EXPECT_EQ(f.core->regs().read(0, 3), 0x1234);
    EXPECT_EQ(f.core->regs().read(0, 4), 0x34); // little endian
    EXPECT_EQ(f.core->regs().read(0, 5), 0x12);
    EXPECT_EQ(f.core->regs().read(0, 6), 7); // return address
}

TEST(CoreExec, SignExtendingLoad)
{
    Fixture f(R"(
        ldi r1, 200
        ldi r2, 0xFF
        st8 r2, 0(r1)
        ld8s r3, 0(r1)
        ld8 r4, 0(r1)
        halt
    )");
    f.runToHalt();
    EXPECT_EQ(f.core->regs().read(0, 3), 0xFFFF);
    EXPECT_EQ(f.core->regs().read(0, 4), 0x00FF);
}

TEST(CoreExec, TakenBranchCostsExtraCycle)
{
    Fixture f(R"(
        beq r0, r0, target
        nop
    target:
        halt
    )");
    const auto s = f.core->step();
    EXPECT_EQ(s.cycles, isa::opCycles(isa::Op::beq) + 1);
    EXPECT_EQ(f.core->pc(), 2);
}

TEST(CoreExec, MarkResumeRecordsArchitecturalState)
{
    Fixture f(R"(
        ldi r15, 3
        markrp r15, 0x0806
        halt
    )");
    f.core->step();
    EXPECT_FALSE(f.core->hasResumePoint());
    const auto s = f.core->step();
    EXPECT_TRUE(s.mark_resume);
    EXPECT_EQ(s.resume_frame_value, 3);
    EXPECT_TRUE(f.core->hasResumePoint());
    EXPECT_EQ(f.core->resumePc(), 1);
    EXPECT_EQ(f.core->frameReg(), 15);
    EXPECT_EQ(f.core->matchMask(), 0x0806);
}

TEST(CoreExec, AcSetClrAndEnable)
{
    Fixture f(R"(
        acset 0x0006
        acclr 0x0002
        acen 1
        halt
    )");
    f.core->step();
    EXPECT_EQ(f.core->regs().acMask(), 0x0006);
    f.core->step();
    EXPECT_EQ(f.core->regs().acMask(), 0x0004);
    EXPECT_FALSE(f.core->acEnabled());
    f.core->step();
    EXPECT_TRUE(f.core->acEnabled());
}

TEST(CoreExec, LanesExecuteInLockstep)
{
    Fixture f(R"(
        ldi r1, 1
        add r2, r2, r1
        add r2, r2, r1
        halt
    )");
    // Activate lane 1 with r1 = 10 before execution.
    RegSnapshot regs{};
    regs[1] = 10;
    f.core->activateLane(1, regs, 8, 42);
    EXPECT_EQ(f.core->activeLaneCount(), 2);

    const auto s0 = f.core->step(); // ldi affects both lanes
    EXPECT_EQ(s0.lanes_committed, 2);
    f.core->step();
    f.core->step();
    // Lane 0: r1=1 -> r2=2. Lane 1: ldi also set its r1=1... both lanes
    // execute the same instruction stream on their own registers.
    EXPECT_EQ(f.core->regs().read(0, 2), 2);
    EXPECT_EQ(f.core->regs().read(1, 2), 2);
    EXPECT_EQ(f.core->lane(1).frame, 42);
    EXPECT_EQ(f.core->totalInstret(), 6u); // 3 steps x 2 lanes
}

TEST(CoreExec, LaneStoresArbitrateInVersionedRegions)
{
    Fixture f(R"(
        ldi r1, 4096
        ldi r2, 77
        st8 r2, 0(r1)
        halt
    )");
    f.mem.addVersionedRegion(4096, 64);
    RegSnapshot regs{};
    f.core->activateLane(1, regs, 3, 1); // low-precision lane
    f.runToHalt();
    // Both lanes stored 77 at 4096 (lane regs identical after ldi); the
    // main version keeps lane 0's full-precision tag.
    EXPECT_EQ(f.mem.hostRead8(4096), 77);
    EXPECT_EQ(f.mem.precisionAt(4096), 8);
}

TEST(CoreExec, DeactivateLaneClearsItsVersions)
{
    Fixture f("halt\n");
    f.mem.addVersionedRegion(4096, 16);
    RegSnapshot regs{};
    f.core->activateLane(2, regs, 4, 9);
    f.mem.store8(2, 4096, 5, 4, false);
    f.core->deactivateLane(2);
    EXPECT_EQ(f.mem.load8(2, 4096, 8, false), f.mem.hostRead8(4096));
    EXPECT_EQ(f.core->activeLaneCount(), 1);
}

TEST(CoreExec, ActiveLaneCountMatchesALaneScan)
{
    Fixture f("halt\n");
    const auto scan = [&f] {
        int n = 0;
        for (int i = 0; i < kMaxLanes; ++i)
            n += f.core->lane(i).active ? 1 : 0;
        return n;
    };
    const auto expectCount = [&](int want) {
        EXPECT_EQ(scan(), want);
        EXPECT_EQ(f.core->activeLaneCount(), scan());
    };
    expectCount(1);
    RegSnapshot regs{};
    f.core->activateLane(1, regs, 4, 0);
    expectCount(2);
    f.core->activateLane(3, regs, 4, 1);
    expectCount(3);
    f.core->deactivateLane(1);
    expectCount(2);
    f.core->deactivateLane(1); // already inactive: no-op
    expectCount(2);
    f.core->activateLane(1, regs, 4, 2);
    f.core->activateLane(2, regs, 4, 3);
    expectCount(4);
    f.core->deactivateAllLanes();
    expectCount(1);
}

TEST(CoreExec, IncidentalBitsSum)
{
    Fixture f("halt\n");
    RegSnapshot regs{};
    f.core->activateLane(1, regs, 3, 0);
    f.core->activateLane(2, regs, 5, 1);
    EXPECT_EQ(f.core->incidentalBitsSum(), 8);
    f.core->setLaneBits(1, 7);
    EXPECT_EQ(f.core->incidentalBitsSum(), 12);
}

TEST(CoreExec, AssembleInstructionDrivesMergeFsm)
{
    Fixture f(R"(
        ldi r1, 4096
        ldi r2, 2
        assem r1, r2, higherbits
        halt
    )");
    f.mem.addVersionedRegion(4096, 16);
    f.mem.store8(1, 4096, 9, 6, false);
    f.mem.store8(0, 4096, 3, 2, false);
    std::uint32_t merged = 0;
    while (!f.core->halted()) {
        const auto s = f.core->step();
        merged += s.assemble_bytes;
    }
    EXPECT_EQ(merged, 2u);
    EXPECT_EQ(f.mem.hostRead8(4096), 9); // version 1 had higher precision
}

TEST(CoreExec, HaltedCoreStaysHalted)
{
    Fixture f("halt\n");
    f.runToHalt();
    const auto s = f.core->step();
    EXPECT_TRUE(s.halted);
    EXPECT_EQ(s.lanes_committed, 0);
}

TEST(CoreExec, NoiseRespectsAcGating)
{
    // With AC enabled, 2 bits, and r1 AC-flagged, repeated adds of zero
    // should produce noisy low bits; r2 (not flagged) stays exact.
    Fixture f(R"(
        acen 1
        acset 0x0002
        ldi r1, 0x80
        ldi r2, 0x80
    loop:
        add r1, r1, r0
        add r2, r2, r0
        beq r0, r0, loop
    )");
    f.core->setMainBits(2);
    for (int i = 0; i < 4; ++i)
        f.core->step(); // prologue: acen, acset, two ldi
    bool r1_noisy = false;
    for (int i = 0; i < 400 && !f.core->halted(); ++i) {
        f.core->step();
        if (f.core->regs().read(0, 1) != 0x80)
            r1_noisy = true;
        ASSERT_EQ(f.core->regs().read(0, 2), 0x80);
    }
    EXPECT_TRUE(r1_noisy);
}
