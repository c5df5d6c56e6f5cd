/**
 * @file
 * KernelBuilder unit tests: register pool policies, scratchpad
 * allocation and deduplication, broadcast caching, and the twiddle
 * materialisation strategies (broadcast / compose / plan load).
 */

#include <gtest/gtest.h>

#include "codegen/builder.hh"
#include "modmath/primegen.hh"

namespace rpu {
namespace {

constexpr unsigned VL = arch::kVectorLength;

struct BuilderFixture : testing::Test
{
    BuilderFixture()
        : mod(nttPrime(60, 1024)), tw(mod, 1024)
    {
    }

    Modulus mod;
    TwiddleTable tw;
};

TEST_F(BuilderFixture, FifoPoolMaximisesReuseDistance)
{
    KernelBuilder b(tw, /*optimized=*/true);
    const unsigned r1 = b.allocReg();
    const unsigned r2 = b.allocReg();
    b.freeReg(r1);
    // FIFO: the next allocations drain the untouched pool before
    // recycling r1.
    for (int i = 0; i < 50; ++i)
        EXPECT_NE(b.allocReg(), r1);
    (void)r2;
}

TEST_F(BuilderFixture, LifoPoolRecyclesImmediately)
{
    KernelBuilder b(tw, /*optimized=*/false);
    const unsigned r1 = b.allocReg();
    b.freeReg(r1);
    EXPECT_EQ(b.allocReg(), r1);
}

TEST_F(BuilderFixture, DoubleFreePanics)
{
    KernelBuilder b(tw, true);
    const unsigned r = b.allocReg();
    b.freeReg(r);
    EXPECT_DEATH(b.freeReg(r), "double free");
}

TEST_F(BuilderFixture, PoolExhaustionPanics)
{
    KernelBuilder b(tw, true);
    for (int i = 0; i < 63; ++i)
        b.allocReg();
    EXPECT_DEATH(b.allocReg(), "exhausted");
}

TEST_F(BuilderFixture, SdmScalarDeduplicates)
{
    KernelBuilder b(tw, true);
    const uint64_t a1 = b.sdmScalar(42);
    const uint64_t a2 = b.sdmScalar(43);
    EXPECT_NE(a1, a2);
    EXPECT_EQ(b.sdmScalar(42), a1);
    EXPECT_EQ(b.sdmImage()[a1], u128(42));
}

TEST_F(BuilderFixture, TwPlanDeduplicates)
{
    KernelBuilder b(tw, true);
    std::vector<u128> p1(VL, 7), p2(VL, 8);
    const uint64_t o1 = b.twPlanVector(p1.data());
    const uint64_t o2 = b.twPlanVector(p2.data());
    EXPECT_NE(o1, o2);
    EXPECT_EQ(b.twPlanVector(p1.data()), o1);
    EXPECT_EQ(b.twPlanImage().size(), 2 * VL);
}

TEST_F(BuilderFixture, BroadcastCachingUnderOptimized)
{
    KernelBuilder b(tw, true);
    const TwiddleRef r1 = b.emitBroadcast(99);
    const size_t after_first = b.program().size();
    const TwiddleRef r2 = b.emitBroadcast(99);
    EXPECT_EQ(b.program().size(), after_first); // no new instruction
    EXPECT_EQ(r1.reg, r2.reg);
    EXPECT_FALSE(r2.transient);
}

TEST_F(BuilderFixture, NoBroadcastCachingUnderNaive)
{
    KernelBuilder b(tw, false);
    const TwiddleRef r1 = b.emitBroadcast(99);
    b.releaseTwiddle(r1);
    const size_t after_first = b.program().size();
    const TwiddleRef r2 = b.emitBroadcast(99);
    EXPECT_GT(b.program().size(), after_first); // re-broadcast
    EXPECT_TRUE(r2.transient);
    b.releaseTwiddle(r2);
}

TEST_F(BuilderFixture, BroadcastCacheEvictsLru)
{
    KernelBuilder b(tw, true);
    const TwiddleRef first = b.emitBroadcast(1000);
    for (unsigned v = 0; v < KernelBuilder::kBroadcastCacheCap; ++v)
        b.emitBroadcast(2000 + v);
    // The first entry has been evicted; rebroadcasting emits anew.
    const size_t before = b.program().size();
    const TwiddleRef again = b.emitBroadcast(1000);
    EXPECT_GT(b.program().size(), before);
    (void)first;
    (void)again;
}

TEST_F(BuilderFixture, ConstantPatternBecomesBroadcast)
{
    KernelBuilder b(tw, true);
    const TwiddleRef r = b.twiddleReg(std::vector<u128>(VL, 5).data());
    EXPECT_EQ(b.program()[b.program().size() - 1].op, Opcode::VBCAST);
    b.releaseTwiddle(r);
}

TEST_F(BuilderFixture, CyclicPatternComposes)
{
    // [a, b, a, b, ...] = UNPKLO(bcast a, bcast b): 3 instructions.
    KernelBuilder b(tw, true);
    std::vector<u128> pattern(VL);
    for (unsigned i = 0; i < VL; ++i)
        pattern[i] = (i % 2) ? 11 : 10;
    const size_t before = b.program().size();
    const TwiddleRef r = b.twiddleReg(pattern.data());
    EXPECT_EQ(b.program().size() - before, 3u);
    EXPECT_EQ(b.program()[b.program().size() - 1].op, Opcode::UNPKLO);
    EXPECT_TRUE(b.twPlanImage().empty()); // no plan vector used
    b.releaseTwiddle(r);
}

TEST_F(BuilderFixture, Cyclic4Composes)
{
    KernelBuilder b(tw, true);
    std::vector<u128> pattern(VL);
    for (unsigned i = 0; i < VL; ++i)
        pattern[i] = 20 + i % 4;
    const size_t before = b.program().size();
    const TwiddleRef r = b.twiddleReg(pattern.data());
    // 4 broadcasts + 3 unpacks.
    EXPECT_EQ(b.program().size() - before, 7u);
    b.releaseTwiddle(r);
}

TEST_F(BuilderFixture, WidePatternFallsBackToPlanLoad)
{
    // 512 distinct values exceed the compose budget: one vload from
    // the twiddle-plan region.
    KernelBuilder b(tw, true);
    std::vector<u128> pattern(VL);
    for (unsigned i = 0; i < VL; ++i)
        pattern[i] = 100 + i;
    const size_t before = b.program().size();
    const TwiddleRef r = b.twiddleReg(pattern.data());
    EXPECT_EQ(b.program().size() - before, 1u);
    EXPECT_EQ(b.program()[before].op, Opcode::VLOAD);
    EXPECT_EQ(b.program()[before].rm, KernelBuilder::kTwPlanAreg);
    EXPECT_EQ(b.twPlanImage().size(), VL);
    b.releaseTwiddle(r);
}

TEST_F(BuilderFixture, ComposeDisabledForcesPlanLoads)
{
    KernelBuilder b(tw, true, 0, /*compose=*/false);
    std::vector<u128> pattern(VL);
    for (unsigned i = 0; i < VL; ++i)
        pattern[i] = (i % 2) ? 11 : 10;
    const size_t before = b.program().size();
    const TwiddleRef r = b.twiddleReg(pattern.data());
    EXPECT_EQ(b.program().size() - before, 1u);
    EXPECT_EQ(b.program()[before].op, Opcode::VLOAD);
    b.releaseTwiddle(r);
}

TEST_F(BuilderFixture, RunPatternFallsBackToPlanLoad)
{
    // Runs [a x256, b x256] are NOT recursively interleave-constant:
    // composition must refuse and use a plan vector.
    KernelBuilder b(tw, true);
    std::vector<u128> pattern(VL);
    for (unsigned i = 0; i < VL; ++i)
        pattern[i] = i < VL / 2 ? 1 : 2;
    const size_t before = b.program().size();
    const TwiddleRef r = b.twiddleReg(pattern.data());
    EXPECT_EQ(b.program().size() - before, 1u);
    EXPECT_EQ(b.program()[before].op, Opcode::VLOAD);
    b.releaseTwiddle(r);
}

TEST_F(BuilderFixture, DataRegionSwitching)
{
    KernelBuilder b(tw, true);
    b.emitPrologue(false);
    EXPECT_EQ(b.dataBase(), 0u);
    b.beginDataRegion(4, 1024);
    EXPECT_EQ(b.dataBase(), 1024u);
    const unsigned r = b.allocReg();
    b.emitDataLoad(r, 1);
    const Instruction &last = b.program()[b.program().size() - 1];
    EXPECT_EQ(last.op, Opcode::VLOAD);
    EXPECT_EQ(last.rm, 4);
    EXPECT_EQ(last.address, 512u);
    b.freeReg(r);
}

TEST_F(BuilderFixture, ReservedAregRejected)
{
    KernelBuilder b(tw, true);
    EXPECT_DEATH(b.beginDataRegion(KernelBuilder::kTwPlanAreg, 0),
                 "reserved");
}

TEST_F(BuilderFixture, TowerSwitchingChangesModReg)
{
    KernelBuilder b(tw, true);
    b.emitPrologue(false);
    EXPECT_EQ(b.modReg(), KernelBuilder::kModReg);
    b.beginTower(12345, 7);
    EXPECT_EQ(b.modReg(), 7u);
    const unsigned x = b.allocReg();
    const unsigned y = b.allocReg();
    const unsigned w = b.allocReg();
    const unsigned p = b.allocReg();
    const unsigned q = b.allocReg();
    b.oracle().setContiguous(x, 0);
    b.oracle().setContiguous(y, 512);
    b.emitButterfly(p, q, x, y, w);
    EXPECT_EQ(b.program()[b.program().size() - 1].rm, 7);
}

TEST_F(BuilderFixture, InverseButterflyShape)
{
    KernelBuilder b(tw, true);
    b.emitPrologue(true);
    const unsigned x = b.allocReg();
    const unsigned y = b.allocReg();
    const unsigned w = b.allocReg();
    const unsigned p = b.allocReg();
    const unsigned q = b.allocReg();
    b.oracle().setContiguous(x, 0);
    b.oracle().setContiguous(y, 512);
    const size_t before = b.program().size();
    b.emitInverseButterfly(p, q, x, y, w);
    ASSERT_EQ(b.program().size() - before, 3u);
    EXPECT_EQ(b.program()[before].op, Opcode::VSUBMOD);
    EXPECT_EQ(b.program()[before + 1].op, Opcode::VADDMOD);
    EXPECT_EQ(b.program()[before + 2].op, Opcode::VMULMOD);
    // Positions preserved through the commit.
    EXPECT_EQ(b.oracle().tags(p)[0], 0u);
    EXPECT_EQ(b.oracle().tags(q)[0], 512u);
}

} // namespace
} // namespace rpu
