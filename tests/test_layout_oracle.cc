/**
 * @file
 * Direct tests of the LayoutOracle: position tracking through
 * shuffles, butterfly pairing validation, twiddle-pattern derivation
 * against hand computation, and store placement checking.
 */

#include <gtest/gtest.h>

#include <array>
#include <utility>

#include "codegen/layout_oracle.hh"
#include "modmath/primegen.hh"

namespace rpu {
namespace {

constexpr unsigned VL = arch::kVectorLength;
using Pattern = std::array<u128, VL>;

class OracleTest : public testing::Test
{
  protected:
    OracleTest()
        : mod(nttPrime(60, 1024)), tw(mod, 1024), oracle(1024)
    {
    }

    Modulus mod;
    TwiddleTable tw;
    LayoutOracle oracle;
};

TEST_F(OracleTest, ContiguousTags)
{
    oracle.setContiguous(3, 512);
    const auto &t = oracle.tags(3);
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(t[i], 512 + i);
    EXPECT_TRUE(oracle.tracked(3));
    oracle.clear(3);
    EXPECT_FALSE(oracle.tracked(3));
}

TEST_F(OracleTest, UntrackedAccessPanics)
{
    EXPECT_DEATH(oracle.tags(5), "not layout-tracked");
}

TEST_F(OracleTest, OutOfRangeTagPanics)
{
    LayoutOracle::Tags t;
    t.fill(1024); // == n, out of range
    EXPECT_DEATH(oracle.setTags(1, t), "out of range");
}

TEST_F(OracleTest, ContiguousRunPastRingPanics)
{
    // 513..1024: the last lane would hold position n.
    oracle.setContiguous(1, 512); // 512..1023 fits exactly
    EXPECT_DEATH(oracle.setContiguous(2, 513), "out of range");
}

TEST_F(OracleTest, ShufflePermutations)
{
    oracle.setContiguous(1, 0);
    oracle.setContiguous(2, 512);
    oracle.applyShuffle(Opcode::UNPKLO, 3, 1, 2);
    oracle.applyShuffle(Opcode::UNPKHI, 4, 1, 2);
    EXPECT_EQ(oracle.tags(3)[0], 0u);
    EXPECT_EQ(oracle.tags(3)[1], 512u);
    EXPECT_EQ(oracle.tags(3)[510], 255u);
    EXPECT_EQ(oracle.tags(3)[511], 767u);
    EXPECT_EQ(oracle.tags(4)[0], 256u);
    EXPECT_EQ(oracle.tags(4)[1], 768u);

    // PK pair undoes the UNPK pair.
    oracle.applyShuffle(Opcode::PKLO, 5, 3, 4);
    oracle.applyShuffle(Opcode::PKHI, 6, 3, 4);
    EXPECT_EQ(oracle.tags(5), oracle.tags(1));
    EXPECT_EQ(oracle.tags(6), oracle.tags(2));
}

TEST_F(OracleTest, VerticalButterflyTwiddles)
{
    // Stage 0 on a 1024-ring: gap 512, one block, one twiddle
    // rootPower(1) for every lane.
    oracle.setContiguous(1, 0);
    oracle.setContiguous(2, 512);
    Pattern pattern;
    oracle.butterflyTwiddles(tw, 0, 1, 2, pattern.data());
    for (u128 v : pattern)
        EXPECT_EQ(v, tw.rootPower(1));
}

TEST_F(OracleTest, IntraButterflyTwiddlesAfterUnpack)
{
    // After the first intra unpack the stage-1 (gap 256) butterflies
    // alternate between blocks 0 and 1: pattern [w(2), w(3), ...].
    oracle.setContiguous(1, 0);
    oracle.setContiguous(2, 512);
    oracle.applyShuffle(Opcode::UNPKLO, 3, 1, 2);
    oracle.applyShuffle(Opcode::UNPKHI, 4, 1, 2);
    Pattern pattern;
    oracle.butterflyTwiddles(tw, 1, 3, 4, pattern.data());
    for (unsigned lane = 0; lane < VL; ++lane)
        EXPECT_EQ(pattern[lane], tw.rootPower(2 + lane % 2)) << lane;
}

TEST_F(OracleTest, InverseTwiddlesAreInverses)
{
    oracle.setContiguous(1, 0);
    oracle.setContiguous(2, 512);
    Pattern fwd, inv;
    oracle.butterflyTwiddles(tw, 0, 1, 2, fwd.data());
    oracle.inverseButterflyTwiddles(tw, 0, 1, 2, inv.data());
    for (unsigned lane = 0; lane < VL; ++lane)
        EXPECT_EQ(mod.mul(fwd[lane], inv[lane]), u128(1));
}

TEST_F(OracleTest, BadPairingPanics)
{
    // Pairing (0..511) with (0..511) is never a valid butterfly.
    oracle.setContiguous(1, 0);
    oracle.setContiguous(2, 0);
    Pattern pattern;
    EXPECT_DEATH(oracle.butterflyTwiddles(tw, 0, 1, 2, pattern.data()),
                 "pairing broken");
}

TEST_F(OracleTest, WrongStagePanicsRightStagePasses)
{
    // Positions (512.., 1536..) differ by 1024 = the stage-0 gap of
    // n=2048, with correct block alignment, so stage 0 validates;
    // stage 1 (gap 512) must reject the same pairing.
    LayoutOracle big(2048);
    const Modulus mod2(nttPrime(60, 2048));
    const TwiddleTable tw2(mod2, 2048);
    big.setContiguous(1, 512);
    big.setContiguous(2, 1536);
    Pattern ok;
    big.butterflyTwiddles(tw2, 0, 1, 2, ok.data());
    EXPECT_EQ(ok[0], tw2.rootPower(1));
    EXPECT_DEATH(big.butterflyTwiddles(tw2, 1, 1, 2, ok.data()),
                 "pairing broken");
}

TEST_F(OracleTest, MisalignedBlockPanics)
{
    // Positions (512.., 1024..) have the stage-1 gap of 512 for
    // n=2048, but 512 sits in the upper half of its 1024-wide block:
    // that pairing would double-butterfly the block.
    LayoutOracle big(2048);
    const Modulus mod2(nttPrime(60, 2048));
    const TwiddleTable tw2(mod2, 2048);
    big.setContiguous(1, 512);
    big.setContiguous(2, 1024);
    Pattern pattern;
    EXPECT_DEATH(big.butterflyTwiddles(tw2, 1, 1, 2, pattern.data()),
                 "pairing broken");
}

TEST_F(OracleTest, CommitButterflyPreservesPositions)
{
    oracle.setContiguous(1, 0);
    oracle.setContiguous(2, 512);
    oracle.commitButterfly(1, 2, 7, 8);
    EXPECT_EQ(oracle.tags(7)[0], 0u);
    EXPECT_EQ(oracle.tags(8)[0], 512u);
}

TEST_F(OracleTest, InPlaceCommitKeepsBothRegisters)
{
    oracle.setContiguous(1, 0);
    oracle.setContiguous(2, 512);
    const LayoutOracle::Tags a = oracle.tags(1);
    const LayoutOracle::Tags b = oracle.tags(2);
    oracle.commitButterfly(1, 2, 1, 2);
    EXPECT_EQ(oracle.tags(1), a);
    EXPECT_EQ(oracle.tags(2), b);
    // Swapped outputs exchange the rows.
    oracle.commitButterfly(1, 2, 2, 1);
    EXPECT_EQ(oracle.tags(2), a);
    EXPECT_EQ(oracle.tags(1), b);
}

TEST_F(OracleTest, CommitToOneRegisterKeepsTheDifference)
{
    // When both outputs name one register the difference lands last.
    oracle.setContiguous(1, 0);
    oracle.setContiguous(2, 512);
    const LayoutOracle::Tags b = oracle.tags(2);
    oracle.commitButterfly(1, 2, 2, 2);
    EXPECT_EQ(oracle.tags(2), b);
    EXPECT_EQ(oracle.tags(1)[0], 0u);
}

TEST_F(OracleTest, CheckStoreContiguous)
{
    oracle.setContiguous(1, 512);
    oracle.checkStore(1, 512, AddrMode::CONTIGUOUS, 0); // ok
    EXPECT_DEATH(oracle.checkStore(1, 0, AddrMode::CONTIGUOUS, 0),
                 "misplacement");
}

TEST_F(OracleTest, CheckStoreContiguousMisplacedMidRegister)
{
    // Only lane 300 is out of place: the whole run must be checked.
    oracle.setContiguous(1, 0);
    LayoutOracle::Tags t = oracle.tags(1);
    std::swap(t[300], t[301]);
    oracle.setTags(4, t);
    EXPECT_DEATH(oracle.checkStore(4, 0, AddrMode::CONTIGUOUS, 0),
                 "lane 300 holds position 301");
}

TEST_F(OracleTest, CheckStoreStrided)
{
    // Even positions in lane order: a stride-2 store places them.
    LayoutOracle::Tags t;
    for (unsigned i = 0; i < VL; ++i)
        t[i] = 2 * i;
    oracle.setTags(1, t);
    oracle.checkStore(1, 0, AddrMode::STRIDED, 1); // ok
    EXPECT_DEATH(oracle.checkStore(1, 0, AddrMode::CONTIGUOUS, 0),
                 "misplacement");
}

} // namespace
} // namespace rpu
