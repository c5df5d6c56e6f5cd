/**
 * @file
 * Functional simulator tests: exact semantics of every B512
 * instruction, all four addressing modes, destination aliasing in
 * both host-SIMD modes and both lane words, 124- and 128-bit moduli on
 * non-canonical lanes against the wide-integer oracle, bounds faulting
 * (bulk and partial), state reset, and a seeded differential fuzzer
 * against a plain u128 reference interpreter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "isa/assembler.hh"
#include "modmath/primegen.hh"
#include "modmath/simd.hh"
#include "sim/functional/executor.hh"
#include "wide/u256.hh"

namespace rpu {
namespace {

constexpr unsigned VL = arch::kVectorLength;

/** A vector register's lanes, widened to u128. */
using Vreg = std::array<u128, VL>;

template <typename Word>
Vreg
widened(const std::array<Word, VL> &lanes)
{
    Vreg out;
    std::copy(lanes.begin(), lanes.end(), out.begin());
    return out;
}

/** Typed-test names for lane words. */
struct LaneWordNames
{
    template <typename Word>
    static std::string
    GetName(int)
    {
        return std::is_same_v<Word, u128> ? "u128" : "u64";
    }
};

using LaneWords = testing::Types<uint64_t, u128>;

/** Call @p f with a value of the lane word @p bits (64 or 128) wide. */
template <typename F>
void
withLaneWord(unsigned bits, F &&f)
{
    if (bits == 64)
        f(uint64_t{});
    else
        f(u128{});
}

class FunctionalSim : public testing::Test
{
  protected:
    FunctionalSim() : state(arch::kVdmDefaultBytes), sim(state)
    {
        // A small NTT prime keeps arithmetic checkable by hand.
        q = nttPrime(60, 1024);
        state.setMreg(1, q);
        state.setAreg(0, 0);
        for (unsigned i = 0; i < 4096; ++i)
            state.writeVdm(i, u128(i) % q);
    }

    ArchState state;
    FunctionalSimulator sim;
    u128 q;
};

TEST_F(FunctionalSim, VloadContiguous)
{
    sim.step(Instruction::vload(2, 0, 100));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(2)[i], u128(100 + i));
}

TEST_F(FunctionalSim, VloadStrided)
{
    sim.step(Instruction::vload(2, 0, 0, AddrMode::STRIDED, 2));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(2)[i], u128(4 * i));
}

TEST_F(FunctionalSim, VloadStridedSkip)
{
    // Runs of 4, skipping 4: lanes 0..3 -> words 0..3, lanes 4..7 ->
    // words 8..11, ...
    sim.step(Instruction::vload(2, 0, 0, AddrMode::STRIDED_SKIP, 2));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(2)[i], u128((i / 4) * 8 + i % 4));
}

TEST_F(FunctionalSim, VloadRepeated)
{
    // Each word replicated 8 times.
    sim.step(Instruction::vload(2, 0, 0, AddrMode::REPEATED, 3));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(2)[i], u128(i / 8));
}

TEST_F(FunctionalSim, VloadUsesArfBase)
{
    state.setAreg(5, 1000);
    sim.step(Instruction::vload(2, 5, 24));
    EXPECT_EQ(state.vreg(2)[0], u128(1024));
}

TEST_F(FunctionalSim, VstoreContiguousAndStrided)
{
    sim.step(Instruction::vload(2, 0, 0));
    sim.step(Instruction::vstore(2, 0, 2048));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.readVdm(2048 + i), u128(i));

    sim.step(Instruction::vstore(2, 0, 3000, AddrMode::STRIDED, 1));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.readVdm(3000 + 2 * i), u128(i));
}

TEST_F(FunctionalSim, ScalarLoads)
{
    state.writeSdm(10, 777);
    state.writeSdm(11, 888);
    state.writeSdm(12, 999);
    sim.step(Instruction::sload(3, 10));
    sim.step(Instruction::mload(4, 11));
    sim.step(Instruction::aload(5, 12));
    EXPECT_EQ(state.sreg(3), u128(777));
    EXPECT_EQ(state.mreg(4), u128(888));
    EXPECT_EQ(state.areg(5), 999u);
}

TEST_F(FunctionalSim, Broadcast)
{
    state.writeSdm(20, 4242);
    state.setAreg(3, 16);
    sim.step(Instruction::vbcast(6, 3, 4)); // SDM[16 + 4]
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(6)[i], u128(4242));
}

TEST_F(FunctionalSim, VectorVectorArithmetic)
{
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::vv(Opcode::VADDMOD, 3, 1, 2, 1));
    sim.step(Instruction::vv(Opcode::VSUBMOD, 4, 2, 1, 1));
    sim.step(Instruction::vv(Opcode::VMULMOD, 5, 1, 2, 1));
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i) {
        EXPECT_EQ(state.vreg(3)[i], mod.add(i, 512 + i));
        EXPECT_EQ(state.vreg(4)[i], u128(512));
        EXPECT_EQ(state.vreg(5)[i], mod.mul(i, 512 + i));
    }
}

TEST_F(FunctionalSim, VectorScalarArithmetic)
{
    state.setSreg(9, 7);
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vs_(Opcode::VSADDMOD, 2, 1, 9, 1));
    sim.step(Instruction::vs_(Opcode::VSSUBMOD, 3, 1, 9, 1));
    sim.step(Instruction::vs_(Opcode::VSMULMOD, 4, 1, 9, 1));
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i) {
        EXPECT_EQ(state.vreg(2)[i], mod.add(i, 7));
        EXPECT_EQ(state.vreg(3)[i], mod.sub(i, 7));
        EXPECT_EQ(state.vreg(4)[i], mod.mul(i, 7));
    }
}

TEST_F(FunctionalSim, ButterflySemantics)
{
    sim.step(Instruction::vload(1, 0, 0));    // a
    sim.step(Instruction::vload(2, 0, 512));  // b
    sim.step(Instruction::vload(3, 0, 1024)); // w
    sim.step(Instruction::butterfly(4, 5, 1, 2, 3, 1));
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i) {
        const u128 t = mod.mul(u128(1024 + i), u128(512 + i));
        EXPECT_EQ(state.vreg(4)[i], mod.add(i, t));
        EXPECT_EQ(state.vreg(5)[i], mod.sub(i, t));
    }
}

TEST_F(FunctionalSim, ButterflyInPlaceAliasing)
{
    // vd == vs and vd1 == vt: hardware reads before writing.
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::vload(3, 0, 1024));
    sim.step(Instruction::butterfly(1, 2, 1, 2, 3, 1));
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i) {
        const u128 t = mod.mul(u128(1024 + i), u128(512 + i));
        EXPECT_EQ(state.vreg(1)[i], mod.add(i, t));
        EXPECT_EQ(state.vreg(2)[i], mod.sub(i, t));
    }
}

TEST_F(FunctionalSim, ShuffleSemantics)
{
    sim.step(Instruction::vload(1, 0, 0));   // 0..511
    sim.step(Instruction::vload(2, 0, 512)); // 512..1023
    sim.step(Instruction::shuffle(Opcode::UNPKLO, 3, 1, 2));
    sim.step(Instruction::shuffle(Opcode::UNPKHI, 4, 1, 2));
    sim.step(Instruction::shuffle(Opcode::PKLO, 5, 1, 2));
    sim.step(Instruction::shuffle(Opcode::PKHI, 6, 1, 2));
    for (unsigned i = 0; i < VL / 2; ++i) {
        EXPECT_EQ(state.vreg(3)[2 * i], u128(i));
        EXPECT_EQ(state.vreg(3)[2 * i + 1], u128(512 + i));
        EXPECT_EQ(state.vreg(4)[2 * i], u128(256 + i));
        EXPECT_EQ(state.vreg(4)[2 * i + 1], u128(768 + i));
        EXPECT_EQ(state.vreg(5)[i], u128(2 * i));
        EXPECT_EQ(state.vreg(5)[VL / 2 + i], u128(512 + 2 * i));
        EXPECT_EQ(state.vreg(6)[i], u128(2 * i + 1));
        EXPECT_EQ(state.vreg(6)[VL / 2 + i], u128(512 + 2 * i + 1));
    }
}

TEST_F(FunctionalSim, PackUndoesUnpack)
{
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::shuffle(Opcode::UNPKLO, 3, 1, 2));
    sim.step(Instruction::shuffle(Opcode::UNPKHI, 4, 1, 2));
    sim.step(Instruction::shuffle(Opcode::PKLO, 5, 3, 4));
    sim.step(Instruction::shuffle(Opcode::PKHI, 6, 3, 4));
    EXPECT_EQ(state.vreg(5), state.vreg(1));
    EXPECT_EQ(state.vreg(6), state.vreg(2));
}

TEST_F(FunctionalSim, ShuffleSelfAliasing)
{
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::shuffle(Opcode::UNPKLO, 1, 1, 2)); // vd == vs
    for (unsigned i = 0; i < VL / 2; ++i) {
        EXPECT_EQ(state.vreg(1)[2 * i], u128(i));
        EXPECT_EQ(state.vreg(1)[2 * i + 1], u128(512 + i));
    }
}

TEST_F(FunctionalSim, CountsAreTracked)
{
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::butterfly(3, 4, 1, 2, 2, 1));
    sim.step(Instruction::shuffle(Opcode::PKLO, 5, 3, 4));
    sim.step(Instruction::vstore(5, 0, 2048));
    const FunctionalCounts &c = sim.counts();
    EXPECT_EQ(c.instructions, 5u);
    EXPECT_EQ(c.vdmWordsRead, 2u * VL);
    EXPECT_EQ(c.vdmWordsWritten, VL);
    EXPECT_EQ(c.laneMuls, VL);
    EXPECT_EQ(c.laneAdds, 2u * VL);
    EXPECT_EQ(c.shuffleWords, VL);
}

// -- VDM bounds faults, both lane words ----------------------------------

template <typename Word>
class VdmFaults : public testing::Test
{
  protected:
    VdmFaults() : state(arch::kVdmDefaultBytes), sim(state) {}

    BasicArchState<Word> state;
    BasicFunctionalSimulator<Word> sim;
};

TYPED_TEST_SUITE(VdmFaults, LaneWords, LaneWordNames);

TYPED_TEST(VdmFaults, RepeatedStoreFaults)
{
    auto &sim = this->sim;
    sim.step(Instruction::vload(2, 0, 0));
    EXPECT_EXIT(sim.step(Instruction::vstore(2, 0, 0,
                                             AddrMode::REPEATED, 1)),
                testing::ExitedWithCode(1), "REPEATED");
}

TYPED_TEST(VdmFaults, VdmOutOfBoundsFaults)
{
    auto &state = this->state;
    state.setAreg(7, state.vdmWords());
    EXPECT_EXIT(this->sim.step(Instruction::vload(2, 7, 0)),
                testing::ExitedWithCode(1), "out of bounds");
}

TYPED_TEST(VdmFaults, PartiallyOutOfBoundsAccessFaults)
{
    auto &state = this->state;
    auto &sim = this->sim;
    // Lane 0 is in range, lane 511 is not: the bulk range check must
    // route these to the word-at-a-time path and its fault.
    const uint64_t words = state.vdmWords();
    state.setAreg(7, words - 600);
    EXPECT_EXIT(sim.step(Instruction::vload(2, 7, 0, AddrMode::STRIDED, 1)),
                testing::ExitedWithCode(1), "out of bounds");
    EXPECT_EXIT(
        sim.step(Instruction::vload(2, 7, 0, AddrMode::STRIDED_SKIP, 2)),
        testing::ExitedWithCode(1), "out of bounds");
    EXPECT_EXIT(
        sim.step(Instruction::vstore(2, 7, 0, AddrMode::STRIDED, 1)),
        testing::ExitedWithCode(1), "out of bounds");
    EXPECT_EXIT(
        sim.step(Instruction::vstore(2, 7, 0, AddrMode::STRIDED_SKIP, 2)),
        testing::ExitedWithCode(1), "out of bounds");
    EXPECT_EXIT(sim.step(Instruction::vstore(2, 7, 0,
                                             AddrMode::REPEATED, 1)),
                testing::ExitedWithCode(1), "REPEATED");

    // Lane 511 on the last word exactly: in bounds, no fault.
    state.setAreg(7, words - 1 - 2 * (VL - 1));
    sim.step(Instruction::vload(2, 7, 0));
    sim.step(Instruction::vstore(2, 7, 0, AddrMode::STRIDED, 1));
    sim.step(Instruction::vload(3, 7, 0, AddrMode::STRIDED, 1));
    EXPECT_EQ(state.vreg(3), state.vreg(2));
    EXPECT_EQ(state.readVdm(words - 1), state.vreg(2)[VL - 1]);
}

TYPED_TEST(VdmFaults, LargestModeValueStridedAccessFaults)
{
    // VALUE 63 puts lane 1 at 2^63 words: the word-at-a-time path
    // faults there, with no shift past the word width.
    auto &sim = this->sim;
    EXPECT_EXIT(sim.step(Instruction::vload(2, 0, 0, AddrMode::STRIDED, 63)),
                testing::ExitedWithCode(1), "out of bounds");
    EXPECT_EXIT(
        sim.step(Instruction::vstore(2, 0, 0, AddrMode::STRIDED, 63)),
        testing::ExitedWithCode(1), "out of bounds");
}

TYPED_TEST(VdmFaults, BulkAccessNearTopOfAddressSpaceFaults)
{
    auto &state = this->state;
    auto &sim = this->sim;
    // word_addr + count wraps past 2^64 here; the checks must not.
    const uint64_t top = ~uint64_t(0);
    const std::vector<u128> data(8, 1);
    EXPECT_EXIT(state.loadVdm(top - 3, data), testing::ExitedWithCode(1),
                "out of bounds");
    EXPECT_EXIT((void)state.dumpVdm(top - 3, 8),
                testing::ExitedWithCode(1), "out of bounds");
    EXPECT_EXIT((void)state.dumpVdm(4, top), testing::ExitedWithCode(1),
                "out of bounds");
    EXPECT_EQ(state.vdmSpan(top - 3, 8), nullptr);
    EXPECT_EQ(state.vdmSpan(4, top), nullptr);
    EXPECT_EQ(state.vdmSpanForWrite(top - 3, 8), nullptr);

    state.setAreg(7, top - 3);
    EXPECT_EXIT(sim.step(Instruction::vload(2, 7, 0)),
                testing::ExitedWithCode(1), "out of bounds");
    EXPECT_EXIT(sim.step(Instruction::vstore(2, 7, 0)),
                testing::ExitedWithCode(1), "out of bounds");
}

// -- Parameterised load/store round trips over the mode grid -----------

struct ModeCase
{
    AddrMode mode;
    unsigned value;
};

/** A load/store case on a lane word (64 or 128 bits). */
using ModeParam = std::tuple<unsigned, ModeCase>;

class LoadStoreModes : public testing::TestWithParam<ModeParam>
{
  protected:
    const ModeCase &modeCase() const { return std::get<1>(GetParam()); }

    /** Run @p body(state, sim) on a prepared state of the lane word. */
    template <typename Body>
    void
    withState(Body &&body)
    {
        withLaneWord(std::get<0>(GetParam()), [&](auto word) {
            using Word = decltype(word);
            BasicArchState<Word> state(arch::kVdmDefaultBytes);
            BasicFunctionalSimulator<Word> sim(state);
            state.setAreg(0, 0);
            for (unsigned i = 0; i < 65536; ++i)
                state.writeVdm(i, u128(i) * 3 + 1);
            body(state, sim);
        });
    }
};

TEST_P(LoadStoreModes, LoadMatchesLaneOffsets)
{
    const auto &c = modeCase();
    withState([&](auto &state, auto &sim) {
        sim.step(Instruction::vload(1, 0, 64, c.mode, uint8_t(c.value)));
        for (unsigned i = 0; i < VL; ++i) {
            const uint64_t addr =
                64 + FunctionalSimulator::laneOffset(c.mode, c.value, i);
            EXPECT_EQ(state.vreg(1)[i], u128(addr) * 3 + 1)
                << "lane " << i;
        }
    });
}

TEST_P(LoadStoreModes, StoreThenLoadRoundTrips)
{
    const auto &c = modeCase();
    if (c.mode == AddrMode::REPEATED)
        GTEST_SKIP() << "stores do not support REPEATED";
    withState([&](auto &state, auto &sim) {
        sim.step(Instruction::vload(1, 0, 0));
        sim.step(
            Instruction::vstore(1, 0, 32768, c.mode, uint8_t(c.value)));
        sim.step(
            Instruction::vload(2, 0, 32768, c.mode, uint8_t(c.value)));
        EXPECT_EQ(state.vreg(2), state.vreg(1));
    });
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LoadStoreModes,
    testing::Combine(testing::Values(64u, 128u),
                     testing::Values(ModeCase{AddrMode::CONTIGUOUS, 0},
                                     ModeCase{AddrMode::STRIDED, 1},
                                     ModeCase{AddrMode::STRIDED, 3},
                                     ModeCase{AddrMode::STRIDED, 6},
                                     ModeCase{AddrMode::STRIDED_SKIP, 1},
                                     ModeCase{AddrMode::STRIDED_SKIP, 4},
                                     ModeCase{AddrMode::STRIDED_SKIP, 8},
                                     ModeCase{AddrMode::REPEATED, 1},
                                     ModeCase{AddrMode::REPEATED, 5},
                                     ModeCase{AddrMode::REPEATED, 9})),
    [](const auto &info) {
        const ModeCase &c = std::get<1>(info.param);
        return "u" + std::to_string(std::get<0>(info.param)) + "_" +
               addrModeName(c.mode) + "_v" + std::to_string(c.value);
    });

TEST_F(FunctionalSim, ModulusSwitchingMidProgram)
{
    // The MRF allows per-instruction modulus selection: the same
    // (reduced) operands multiplied under two different moduli in
    // consecutive instructions. Operands must be reduced with respect
    // to the modulus used — the architectural contract.
    const u128 q2 = 257;
    state.setMreg(2, q2);
    for (unsigned i = 0; i < VL; ++i) {
        state.writeVdm(8000 + i, (i * 7 + 3) % 200);
        state.writeVdm(9000 + i, (i * 11 + 5) % 200);
    }
    sim.step(Instruction::vload(1, 0, 8000));
    sim.step(Instruction::vload(2, 0, 9000));
    sim.step(Instruction::vv(Opcode::VMULMOD, 3, 1, 2, 1));
    sim.step(Instruction::vv(Opcode::VMULMOD, 4, 1, 2, 2));
    const Modulus m1(q), m2(q2);
    for (unsigned i = 0; i < VL; ++i) {
        const u128 a = state.vreg(1)[i];
        const u128 b = state.vreg(2)[i];
        EXPECT_EQ(state.vreg(3)[i], m1.mul(a, b));
        EXPECT_EQ(state.vreg(4)[i], m2.mul(a, b));
    }
}

TEST_F(FunctionalSim, AssembledProgramRuns)
{
    const Program p = assemble("vload v1, a0, 0, contig\n"
                               "vload v2, a0, 512, contig\n"
                               "vaddmod v3, v1, v2, m1\n"
                               "vstore v3, a0, 2048, contig\n");
    sim.run(p);
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.readVdm(2048 + i), mod.add(i, 512 + i));
}

// -- State reset ---------------------------------------------------------

/** Every architecturally visible word of @p a equals that of @p b. */
template <typename State>
void
expectSameState(const State &a, const State &b)
{
    ASSERT_EQ(a.vdmWords(), b.vdmWords());
    EXPECT_EQ(a.dumpVdm(0, a.vdmWords()), b.dumpVdm(0, b.vdmWords()));
    for (uint64_t i = 0; i < arch::kSdmWords; ++i)
        EXPECT_EQ(a.readSdm(i), b.readSdm(i)) << "SDM word " << i;
    for (unsigned i = 0; i < arch::kNumVregs; ++i)
        EXPECT_EQ(a.vreg(i), b.vreg(i)) << "v" << i;
    for (unsigned i = 0; i < arch::kNumSregs; ++i)
        EXPECT_EQ(a.sreg(i), b.sreg(i)) << "s" << i;
    for (unsigned i = 0; i < arch::kNumAregs; ++i)
        EXPECT_EQ(a.areg(i), b.areg(i)) << "a" << i;
    for (unsigned i = 0; i < arch::kNumMregs; ++i)
        EXPECT_EQ(a.mreg(i), b.mreg(i)) << "m" << i;
    EXPECT_EQ(a.truncated(), b.truncated());
}

template <typename Word>
class ArchStateReset : public testing::Test
{
};

TYPED_TEST_SUITE(ArchStateReset, LaneWords, LaneWordNames);

TYPED_TEST(ArchStateReset, ReusedStateMatchesAFreshOne)
{
    using Word = TypeParam;
    constexpr size_t kBytes = 4096 * arch::kWordBytes;
    const BasicArchState<Word> fresh(kBytes);
    BasicArchState<Word> used(kBytes);

    // Two rounds with disjoint footprints: the second must not
    // inherit the first round's dirty range or registers.
    for (uint64_t round = 0; round < 2; ++round) {
        const uint64_t at = round * 2000;
        used.writeVdm(at + 5, 1);
        // A word no u64 lane holds: the truncation record must reset.
        used.writeVdm(at + 6, (u128(1) << 64) + 1);
        used.loadVdm(at + 100, std::vector<u128>(300, round + 2));
        Word *w = used.vdmSpanForWrite(at + 1500, 10);
        ASSERT_NE(w, nullptr);
        std::fill(w, w + 10, Word(7));
        used.writeSdm(at % arch::kSdmWords + 3, 11);
        used.vreg(unsigned(round * 63))[VL - 1] = 9;
        used.vreg(unsigned(round + 1)).fill(4);
        used.setSreg(unsigned(round + 60), 5);
        used.setAreg(unsigned(round + 30), 6);
        used.setMreg(unsigned(round), 8);
        EXPECT_EQ(used.truncated(), (std::is_same_v<Word, uint64_t>));
        used.reset();
        expectSameState(used, fresh);
    }
}

// -- The reference interpreter ------------------------------------------

/** a * b mod q by the 256-bit long-division oracle. */
u128
mulOracle(u128 a, u128 b, u128 q)
{
    return mod256by128(mulWide(a, b), q);
}

/**
 * The lane adder on any inputs: the 129-bit sum less q when it reaches
 * q, truncated to 128 bits.
 */
u128
addOracle(u128 a, u128 b, u128 q)
{
    U256 sum = U256::fromU128(a);
    addWithCarry(sum, U256::fromU128(b));
    if (sum >= U256::fromU128(q))
        subWithBorrow(sum, U256::fromU128(q));
    return sum.lo;
}

/** The lane subtracter on any inputs: a - b, plus q when a < b. */
u128
subOracle(u128 a, u128 b, u128 q)
{
    U256 diff = U256::fromU128(a);
    if (a < b)
        addWithCarry(diff, U256::fromU128(q));
    subWithBorrow(diff, U256::fromU128(b));
    return diff.lo;
}

/**
 * The reference machine: each instruction written out plainly on u128
 * lanes, one lane at a time, with the 256-bit oracles for arithmetic
 * and no bulk paths. A lane word narrower than 128 bits is modelled by
 * masking every value that enters a lane and recording whether bits
 * were lost, which is BasicArchState's truncation contract.
 */
struct RefMachine
{
    RefMachine(size_t vdm_words, unsigned lane_bits)
        : vdm(vdm_words, 0), sdm(arch::kSdmWords, 0),
          vrf(arch::kNumVregs, Vreg{}), srf(arch::kNumSregs, 0),
          arf(arch::kNumAregs, 0), mrf(arch::kNumMregs, 0),
          mask(lane_bits == 128 ? ~u128(0) : (u128(1) << lane_bits) - 1)
    {
    }

    u128
    lane(u128 v)
    {
        truncated |= (v & ~mask) != 0;
        return v & mask;
    }

    static uint64_t
    offset(AddrMode mode, unsigned value, unsigned i)
    {
        switch (mode) {
          case AddrMode::CONTIGUOUS:
            return i;
          case AddrMode::STRIDED:
            return uint64_t(i) << value;
          case AddrMode::STRIDED_SKIP: {
            const uint64_t run = uint64_t(1) << value;
            return i / run * 2 * run + i % run;
          }
          case AddrMode::REPEATED:
            return uint64_t(i) >> value;
        }
        return 0;
    }

    /** Execute @p in; false when it faults (and does nothing). */
    bool
    step(const Instruction &in)
    {
        constexpr unsigned H = VL / 2;
        switch (in.op) {
          case Opcode::VLOAD:
          case Opcode::VSTORE: {
            if (in.op == Opcode::VSTORE && in.mode == AddrMode::REPEATED)
                return false;
            std::vector<uint64_t> addr(VL);
            for (unsigned i = 0; i < VL; ++i) {
                addr[i] = arf[in.rm] + in.address +
                          offset(in.mode, in.modeValue, i);
                if (addr[i] >= vdm.size())
                    return false;
            }
            for (unsigned i = 0; i < VL; ++i) {
                if (in.op == Opcode::VLOAD)
                    vrf[in.vd][i] = vdm[addr[i]];
                else
                    vdm[addr[i]] = vrf[in.vs][i];
            }
            return true;
          }
          case Opcode::VBCAST:
            vrf[in.vd].fill(lane(sdm.at(arf[in.rm] + in.address)));
            return true;
          case Opcode::SLOAD:
            srf[in.rt] = sdm.at(in.address);
            return true;
          case Opcode::MLOAD:
            mrf[in.rt] = sdm.at(in.address);
            return true;
          case Opcode::ALOAD:
            arf[in.rt] = uint64_t(sdm.at(in.address));
            return true;
          default:
            break;
        }
        const Vreg a = vrf[in.vs], b = vrf[in.vt], w = vrf[in.vt1];
        const u128 q = mrf[in.rm], s = srf[in.rt];
        Vreg out{}, out1{};
        for (unsigned i = 0; i < VL; ++i) {
            if (in.isButterfly()) {
                const u128 t = mulOracle(w[i], b[i], q);
                out[i] = lane(addOracle(a[i], t, q));
                out1[i] = lane(subOracle(a[i], t, q));
                continue;
            }
            switch (in.op) {
              case Opcode::VADDMOD: out[i] = addOracle(a[i], b[i], q); break;
              case Opcode::VSUBMOD: out[i] = subOracle(a[i], b[i], q); break;
              case Opcode::VMULMOD: out[i] = mulOracle(a[i], b[i], q); break;
              case Opcode::VSADDMOD: out[i] = addOracle(a[i], s, q); break;
              case Opcode::VSSUBMOD: out[i] = subOracle(a[i], s, q); break;
              case Opcode::VSMULMOD: out[i] = mulOracle(a[i], s, q); break;
              case Opcode::UNPKLO: out[i] = (i % 2 ? b : a)[i / 2]; break;
              case Opcode::UNPKHI: out[i] = (i % 2 ? b : a)[H + i / 2]; break;
              case Opcode::PKLO:
                out[i] = i < H ? a[2 * i] : b[2 * (i - H)];
                break;
              case Opcode::PKHI:
                out[i] = i < H ? a[2 * i + 1] : b[2 * (i - H) + 1];
                break;
              default:
                ADD_FAILURE() << "no reference for " << in.toString();
            }
            out[i] = lane(out[i]); // a no-op for moved lanes
        }
        vrf[in.vd] = out;
        if (in.isButterfly())
            vrf[in.vd1] = out1; // the difference lands last
        return true;
    }

    std::vector<u128> vdm;
    std::vector<u128> sdm;
    std::vector<Vreg> vrf;
    std::vector<u128> srf;
    std::vector<uint64_t> arf;
    std::vector<u128> mrf;
    u128 mask;
    bool truncated = false;
};

/**
 * Step @p in on @p sim and on a reference machine holding @p state's
 * registers: every vector register and the truncation record must
 * agree afterwards.
 */
template <typename Word>
void
expectStepMatchesReference(BasicArchState<Word> &state,
                           BasicFunctionalSimulator<Word> &sim,
                           const Instruction &in)
{
    const BasicArchState<Word> &view = state;
    RefMachine want(0, 8 * sizeof(Word));
    for (unsigned r = 0; r < arch::kNumVregs; ++r)
        want.vrf[r] = widened(view.vreg(r));
    want.srf[in.rt] = view.sreg(in.rt);
    want.mrf[in.rm] = view.mreg(in.rm);
    want.truncated = view.truncated();
    ASSERT_TRUE(want.step(in)) << in.toString();

    sim.step(in);
    for (unsigned r = 0; r < arch::kNumVregs; ++r) {
        EXPECT_EQ(widened(view.vreg(r)), want.vrf[r])
            << in.toString() << ": v" << r;
    }
    EXPECT_EQ(view.truncated(), want.truncated) << in.toString();
}

// -- Host-SIMD modes and lane words ------------------------------------

/** Restores the host-SIMD mode on scope exit (tests must not leak). */
class ModeGuard
{
  public:
    explicit ModeGuard(simd::HostSimdMode mode)
        : saved_(simd::hostSimdMode())
    {
        simd::setHostSimdMode(mode);
    }
    ~ModeGuard() { simd::setHostSimdMode(saved_); }

  private:
    simd::HostSimdMode saved_;
};

/** A typed-test configuration: a lane word and a host-SIMD mode. */
template <typename W, simd::HostSimdMode M>
struct Lanes
{
    using Word = W;
    static constexpr simd::HostSimdMode kMode = M;
};

using LaneConfigs =
    testing::Types<Lanes<uint64_t, simd::HostSimdMode::Scalar>,
                   Lanes<uint64_t, simd::HostSimdMode::Native>,
                   Lanes<u128, simd::HostSimdMode::Scalar>,
                   Lanes<u128, simd::HostSimdMode::Native>>;

struct LaneConfigNames
{
    template <typename Config>
    static std::string
    GetName(int)
    {
        return LaneWordNames::GetName<typename Config::Word>(0) +
               (Config::kMode == simd::HostSimdMode::Scalar ? "_scalar"
                                                            : "_native");
    }
};

// -- Destination aliasing and non-canonical lanes -----------------------

template <typename Config>
class LaneAliasing : public testing::Test
{
  protected:
    using Word = typename Config::Word;

    LaneAliasing()
        : guard(Config::kMode), sim(state), q(nttPrime(60, 1024))
    {
        state.setMreg(1, q);
        state.setSreg(9, q - 5);
        state.setSreg(10, q + 3); // non-canonical scalar
        for (unsigned r = 1; r <= 4; ++r) {
            for (unsigned i = 0; i < VL; ++i) {
                state.vreg(r)[i] =
                    Word(u128(i + 1) * 0x9E3779B97F4A7C15ull * r % q);
            }
        }
    }

    /**
     * Make register @p r non-canonical: lanes i % 3 == 0 hold q + i
     * and lanes i % 3 == 1 hold values past 2^64 (u128) or at the top
     * of the u64 range, where lane sums and differences no longer fit.
     */
    void
    makeNonCanonical(unsigned r)
    {
        for (unsigned i = 0; i < VL; i += 3) {
            state.vreg(r)[i] = Word(q + i);
            if (i + 1 < VL) {
                state.vreg(r)[i + 1] = std::is_same_v<Word, u128>
                                           ? Word((u128(1) << 64) + i)
                                           : Word(~uint64_t(0) - i);
            }
        }
    }

    void
    stepAndCheck(const Instruction &in)
    {
        expectStepMatchesReference(state, sim, in);
    }

    ModeGuard guard;
    BasicArchState<Word> state;
    BasicFunctionalSimulator<Word> sim;
    u128 q;
};

TYPED_TEST_SUITE(LaneAliasing, LaneConfigs, LaneConfigNames);

TYPED_TEST(LaneAliasing, LaneWiseOpsWithDestinationAliasingASource)
{
    for (Opcode op : {Opcode::VADDMOD, Opcode::VSUBMOD, Opcode::VMULMOD}) {
        this->stepAndCheck(Instruction::vv(op, 1, 1, 2, 1)); // vd == vs
        this->stepAndCheck(Instruction::vv(op, 2, 1, 2, 1)); // vd == vt
        this->stepAndCheck(Instruction::vv(op, 3, 3, 3, 1)); // vd == vs == vt
    }
    for (Opcode op :
         {Opcode::VSADDMOD, Opcode::VSSUBMOD, Opcode::VSMULMOD})
        this->stepAndCheck(Instruction::vs_(op, 1, 1, 9, 1)); // vd == vs
}

TYPED_TEST(LaneAliasing, ButterflyWithCrossedAliasing)
{
    this->stepAndCheck(Instruction::butterfly(3, 1, 1, 2, 3, 1)); // vd == vt1, vd1 == vs
    this->stepAndCheck(Instruction::butterfly(2, 3, 1, 2, 3, 1)); // vd == vt, vd1 == vt1
    this->stepAndCheck(Instruction::butterfly(1, 2, 1, 2, 3, 1)); // vd == vs, vd1 == vt
    this->stepAndCheck(Instruction::butterfly(4, 4, 1, 2, 3, 1)); // vd == vd1
    this->stepAndCheck(Instruction::butterfly(5, 6, 1, 2, 3, 1)); // no aliasing
}

TYPED_TEST(LaneAliasing, ShufflesWithDestinationAliasingASource)
{
    for (Opcode op : {Opcode::UNPKLO, Opcode::UNPKHI, Opcode::PKLO,
                      Opcode::PKHI}) {
        this->stepAndCheck(Instruction::shuffle(op, 2, 1, 2)); // vd == vt
        this->stepAndCheck(Instruction::shuffle(op, 1, 1, 2)); // vd == vs
        this->stepAndCheck(Instruction::shuffle(op, 3, 3, 3)); // vd == vs == vt
        this->stepAndCheck(Instruction::shuffle(op, 5, 1, 2)); // no aliasing
    }
}

TYPED_TEST(LaneAliasing, NonCanonicalLanesTakeTheExactPath)
{
    // The narrow kernels are exact only on canonical lanes; the
    // canonical guard must send these through the exact path in both
    // modes, so the results match the u128 reference either way (to
    // the lane word, with the truncation recorded).
    this->makeNonCanonical(1);
    for (Opcode op : {Opcode::VADDMOD, Opcode::VSUBMOD, Opcode::VMULMOD}) {
        this->stepAndCheck(Instruction::vv(op, 5, 1, 2, 1)); // vs non-canonical
        this->stepAndCheck(Instruction::vv(op, 6, 2, 1, 1)); // vt non-canonical
    }
    this->stepAndCheck(Instruction::butterfly(5, 6, 1, 2, 3, 1));
    this->stepAndCheck(Instruction::butterfly(5, 6, 2, 1, 3, 1));
    this->stepAndCheck(Instruction::butterfly(5, 6, 2, 3, 1, 1)); // twiddles
    this->stepAndCheck(Instruction::vs_(Opcode::VSMULMOD, 5, 1, 9, 1));
    this->stepAndCheck(Instruction::vs_(Opcode::VSMULMOD, 6, 2, 10, 1));
    this->stepAndCheck(Instruction::vs_(Opcode::VSADDMOD, 7, 1, 10, 1));
}

// -- Wide moduli with non-canonical lanes, both SIMD modes ------------

struct WideCase
{
    simd::HostSimdMode mode;
    unsigned bits; ///< 124: q normalised by a shift; 128: top bit set
};

class WideLanes : public testing::TestWithParam<WideCase>
{
  protected:
    WideLanes()
        : guard(GetParam().mode), sim(state),
          q(GetParam().bits == 128 ? ~u128(0) - 158
                                   : nttPrime(GetParam().bits, 1024))
    {
        state.setMreg(1, q);
        state.setSreg(9, q - 5);
        state.setSreg(10, ~u128(0) - 7); // non-canonical scalar
        Rng rng(GetParam().bits);
        // Every register mixes canonical lanes with lanes in [q, 2q)
        // and lanes anywhere up to 2^128 - 1.
        for (unsigned r = 1; r <= 3; ++r) {
            for (unsigned i = 0; i < VL; ++i) {
                u128 v = rng.below128(q);
                if (i % 4 == 1)
                    v += q; // wraps past 2^128 only for the 128-bit q
                else if (i % 4 == 2)
                    v = rng.next128();
                else if (i % 4 == 3)
                    v = ~u128(0) - i;
                state.vreg(r)[i] = v;
            }
        }
    }

    void
    stepAndCheck(const Instruction &in)
    {
        expectStepMatchesReference(state, sim, in);
    }

    ModeGuard guard;
    ArchState state;
    FunctionalSimulator sim;
    u128 q;
};

TEST_P(WideLanes, EveryComputeOpMatchesTheWideOracle)
{
    for (Opcode op : {Opcode::VADDMOD, Opcode::VSUBMOD, Opcode::VMULMOD})
        stepAndCheck(Instruction::vv(op, 5, 1, 2, 1));
    for (Opcode op :
         {Opcode::VSADDMOD, Opcode::VSSUBMOD, Opcode::VSMULMOD}) {
        stepAndCheck(Instruction::vs_(op, 6, 1, 9, 1));
        stepAndCheck(Instruction::vs_(op, 7, 2, 10, 1)); // s >= q
    }
    stepAndCheck(Instruction::butterfly(5, 6, 1, 2, 3, 1));
    stepAndCheck(Instruction::butterfly(7, 8, 3, 1, 2, 1));
    // In place: destinations alias the sources lane for lane.
    stepAndCheck(Instruction::vv(Opcode::VMULMOD, 1, 1, 2, 1));
    stepAndCheck(Instruction::butterfly(2, 3, 2, 3, 1, 1));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndWidths, WideLanes,
    testing::Values(WideCase{simd::HostSimdMode::Scalar, 124},
                    WideCase{simd::HostSimdMode::Scalar, 128},
                    WideCase{simd::HostSimdMode::Native, 124},
                    WideCase{simd::HostSimdMode::Native, 128}),
    [](const auto &info) {
        return std::string(info.param.mode == simd::HostSimdMode::Scalar
                               ? "scalar"
                               : "native") +
               std::to_string(info.param.bits);
    });

// -- Differential fuzzing against the reference interpreter --------------

constexpr size_t kFuzzVdmWords = 8192;
constexpr unsigned kFuzzSteps = 48;

/**
 * Seeded random programs and initial states for the fuzzer. VDM words
 * [0, 3072) are canonical for both narrow primes m0 and m1, words up
 * to 6144 for m0, and the rest are non-canonical: in [q, 2q), at the
 * top of the u64 range, or (in one program of eight) at or past 2^64.
 * m2..m5 are a tiny odd modulus, an even one, a 63-bit one outside
 * the narrow-kernel domain and a 124-bit prime. a0..a2 are in-bounds
 * bases; a3 sits 300 words below the top of VDM and a4 near 2^64, for
 * the one faulting access of a faulting program.
 */
class ProgramFuzzer
{
  public:
    explicit ProgramFuzzer(uint64_t seed) : rng_(seed) {}

    /** Fill VDM, SDM and the scalar registers of both machines. */
    template <typename State>
    void
    initialise(State &state, RefMachine &ref)
    {
        static const u128 q0 = nttPrime(60, 1024);
        static const u128 q1 = nttPrime(45, 1024);
        static const u128 q5 = nttPrime(124, 1024);
        const u128 moduli[] = {q0, q1, 257, (u128(1) << 40) + 2,
                               (u128(1) << 63) - 25, q5};
        const bool wide = rng_.below64(8) == 0;
        std::vector<u128> vdm(kFuzzVdmWords);
        for (size_t i = 0; i < vdm.size(); ++i) {
            if (i < 3072)
                vdm[i] = rng_.below128(q1);
            else if (i < 6144)
                vdm[i] = rng_.below128(q0);
            else if (i % 3 == 0)
                vdm[i] = q0 + rng_.below128(q0);
            else if (i % 3 == 1)
                vdm[i] = ~uint64_t(0) - rng_.below64(1u << 20);
            else
                vdm[i] = wide ? rng_.next128() : rng_.below128(q0);
        }
        state.loadVdm(0, vdm);
        for (size_t i = 0; i < vdm.size(); ++i)
            ref.vdm[i] = ref.lane(vdm[i]);

        // SDM: moduli, then scalars and broadcast values (canonical,
        // non-canonical, wide), then in-bounds ALOAD bases.
        std::vector<u128> sdm(64);
        for (unsigned i = 0; i < 6; ++i)
            sdm[i] = moduli[i];
        const u128 scalars[] = {3, q0 - 1, q0 + 3, ~uint64_t(0),
                                (u128(1) << 64) + 5, q1 - 2, 0, 1};
        for (unsigned i = 0; i < 8; ++i)
            sdm[6 + i] = scalars[i];
        for (unsigned i = 14; i < 16; ++i)
            sdm[i] = rng_.below64(513);
        for (unsigned i = 16; i < 64; ++i)
            sdm[i] = rng_.below64(4) ? rng_.below128(q1) : rng_.next128();
        for (unsigned i = 0; i < sdm.size(); ++i) {
            state.writeSdm(i, sdm[i]);
            ref.sdm[i] = sdm[i];
        }
        for (unsigned i = 0; i < 6; ++i) {
            state.setMreg(i, moduli[i]);
            ref.mrf[i] = moduli[i];
        }
        for (unsigned i = 0; i < 8; ++i) {
            state.setSreg(i, scalars[i]);
            ref.srf[i] = scalars[i];
        }
        const uint64_t bases[] = {0, 64, 512, kFuzzVdmWords - 300,
                                  ~uint64_t(0) - 2};
        for (unsigned i = 0; i < 5; ++i) {
            state.setAreg(i, bases[i]);
            ref.arf[i] = bases[i];
        }
    }

    /**
     * kFuzzSteps instructions; with @p fault_at < kFuzzSteps, the
     * instruction there faults (a VDM access out of bounds or a
     * REPEATED store).
     */
    Program
    program(unsigned fault_at)
    {
        Program p("fuzz");
        for (unsigned i = 0; i < kFuzzSteps; ++i)
            p.append(i == fault_at ? faulting() : instruction());
        return p;
    }

  private:
    /** Mostly v0..v7, so operands alias often; sometimes v56..v63. */
    uint8_t
    reg()
    {
        return uint8_t(rng_.below64(20) ? rng_.below64(8)
                                        : 56 + rng_.below64(8));
    }

    /** m0 mostly; every other modulus now and then. */
    uint8_t
    modulus()
    {
        const uint64_t r = rng_.below64(20);
        return uint8_t(r < 12 ? 0 : r < 15 ? 1 : r - 14);
    }

    /** An in-bounds vector access from base a0..a2. */
    Instruction
    access(bool store)
    {
        const AddrMode modes[] = {AddrMode::CONTIGUOUS, AddrMode::STRIDED,
                                  AddrMode::STRIDED_SKIP,
                                  AddrMode::REPEATED};
        const AddrMode mode = modes[rng_.below64(store ? 3 : 4)];
        unsigned value = 0;
        if (mode == AddrMode::STRIDED)
            value = unsigned(rng_.below64(4));
        else if (mode != AddrMode::CONTIGUOUS)
            // Past 31, the bulk paths step aside for word at a time.
            value = unsigned(rng_.below64(4) ? rng_.below64(10)
                                             : 32 + rng_.below64(32));
        const uint64_t span = RefMachine::offset(mode, value, VL - 1) + 1;
        const uint8_t base = uint8_t(rng_.below64(3));
        const uint32_t addr =
            uint32_t(rng_.below64(kFuzzVdmWords - 512 - span + 1));
        return store ? Instruction::vstore(reg(), base, addr, mode,
                                           uint8_t(value))
                     : Instruction::vload(reg(), base, addr, mode,
                                          uint8_t(value));
    }

    Instruction
    instruction()
    {
        const uint64_t r = rng_.below64(100);
        if (r < 20)
            return access(false);
        if (r < 30)
            return access(true);
        if (r < 34)
            return Instruction::vbcast(reg(), 0,
                                       uint32_t(6 + rng_.below64(58)));
        if (r < 35)
            return Instruction::sload(uint8_t(rng_.below64(8)),
                                      uint32_t(6 + rng_.below64(58)));
        if (r < 36)
            return Instruction::mload(uint8_t(rng_.below64(6)),
                                      uint32_t(rng_.below64(6)));
        if (r < 37)
            return Instruction::aload(uint8_t(rng_.below64(3)),
                                      uint32_t(14 + rng_.below64(2)));
        if (r < 62) {
            const Opcode ops[] = {Opcode::VADDMOD, Opcode::VSUBMOD,
                                  Opcode::VMULMOD};
            return Instruction::vv(ops[rng_.below64(3)], reg(), reg(),
                                   reg(), modulus());
        }
        if (r < 72) {
            const Opcode ops[] = {Opcode::VSADDMOD, Opcode::VSSUBMOD,
                                  Opcode::VSMULMOD};
            return Instruction::vs_(ops[rng_.below64(3)], reg(), reg(),
                                    uint8_t(rng_.below64(8)), modulus());
        }
        if (r < 87) {
            return Instruction::butterfly(reg(), reg(), reg(), reg(),
                                          reg(), modulus());
        }
        const Opcode ops[] = {Opcode::UNPKLO, Opcode::UNPKHI, Opcode::PKLO,
                              Opcode::PKHI};
        return Instruction::shuffle(ops[rng_.below64(4)], reg(), reg(),
                                    reg());
    }

    Instruction
    faulting()
    {
        switch (rng_.below64(5)) {
          case 0: // contiguous across the top of VDM
            return Instruction::vload(reg(), 3, 0);
          case 1: // strided-skip, partly past the top
            return Instruction::vstore(reg(), 3, 0, AddrMode::STRIDED_SKIP,
                                       3);
          case 2: // lane 1 far out, on the word-at-a-time path
            return Instruction::vload(reg(), 0, 0, AddrMode::STRIDED, 40);
          case 3: // base near 2^64
            return Instruction::vstore(reg(), 4, 0);
          default:
            return Instruction::vstore(reg(), 0, 0, AddrMode::REPEATED, 1);
        }
    }

    Rng rng_;
};

template <typename Config>
class DifferentialFuzz : public testing::Test
{
  protected:
    using Word = typename Config::Word;
    static constexpr unsigned kLaneBits = 8 * sizeof(Word);

    DifferentialFuzz() : guard(Config::kMode) {}

    /** Both machines agree on every architecturally visible word. */
    static void
    expectSame(const BasicArchState<Word> &state, const RefMachine &ref,
               uint64_t seed)
    {
        EXPECT_EQ(state.dumpVdm(0, state.vdmWords()), ref.vdm)
            << "seed " << seed;
        for (unsigned r = 0; r < arch::kNumVregs; ++r)
            EXPECT_EQ(widened(state.vreg(r)), ref.vrf[r])
                << "seed " << seed << ": v" << r;
        for (unsigned i = 0; i < arch::kNumSregs; ++i)
            EXPECT_EQ(state.sreg(i), ref.srf[i]) << "seed " << seed;
        for (unsigned i = 0; i < arch::kNumAregs; ++i)
            EXPECT_EQ(state.areg(i), ref.arf[i]) << "seed " << seed;
        for (unsigned i = 0; i < arch::kNumMregs; ++i)
            EXPECT_EQ(state.mreg(i), ref.mrf[i]) << "seed " << seed;
        EXPECT_EQ(state.truncated(), ref.truncated) << "seed " << seed;
    }

    ModeGuard guard;
};

TYPED_TEST_SUITE(DifferentialFuzz, LaneConfigs, LaneConfigNames);

TYPED_TEST(DifferentialFuzz, RandomProgramsMatchTheReference)
{
    using Word = typename TestFixture::Word;
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        ProgramFuzzer fuzz(seed);
        BasicArchState<Word> state(kFuzzVdmWords * arch::kWordBytes);
        RefMachine ref(kFuzzVdmWords, TestFixture::kLaneBits);
        fuzz.initialise(state, ref);
        ASSERT_EQ(state.truncated(), ref.truncated) << "seed " << seed;
        BasicFunctionalSimulator<Word> sim(state);
        const Program prog = fuzz.program(kFuzzSteps);
        for (const Instruction &in : prog.instructions()) {
            ASSERT_TRUE(ref.step(in)) << "seed " << seed << ": "
                                      << in.toString();
            sim.step(in);
            // The record is sticky: check it where it first turns.
            ASSERT_EQ(state.truncated(), ref.truncated)
                << "seed " << seed << ": " << in.toString();
        }
        this->expectSame(state, ref, seed);
    }
}

TYPED_TEST(DifferentialFuzz, BothMachinesFaultOnTheSameAccess)
{
    using Word = typename TestFixture::Word;
    for (uint64_t seed = 101; seed <= 106; ++seed) {
        ProgramFuzzer fuzz(seed);
        BasicArchState<Word> state(kFuzzVdmWords * arch::kWordBytes);
        RefMachine ref(kFuzzVdmWords, TestFixture::kLaneBits);
        fuzz.initialise(state, ref);
        const unsigned fault_at = unsigned(seed * 7 % kFuzzSteps);
        const Program prog = fuzz.program(fault_at);
        BasicFunctionalSimulator<Word> sim(state);
        for (unsigned i = 0; i < fault_at; ++i) {
            ASSERT_TRUE(ref.step(prog.instructions()[i])) << "seed " << seed;
            sim.step(prog.instructions()[i]);
        }
        this->expectSame(state, ref, seed);
        const Instruction &bad = prog.instructions()[fault_at];
        ASSERT_FALSE(ref.step(bad)) << "seed " << seed;
        EXPECT_EXIT(sim.step(bad), testing::ExitedWithCode(1),
                    "out of bounds|REPEATED")
            << "seed " << seed << ": " << bad.toString();
    }
}

} // namespace
} // namespace rpu
