/**
 * @file
 * Functional simulator tests: exact semantics of every B512
 * instruction, all four addressing modes, destination aliasing in
 * both host-SIMD modes, 124- and 128-bit moduli on non-canonical lanes
 * against the wide-integer oracle, bounds faulting (bulk and partial),
 * and state reset.
 */

#include <gtest/gtest.h>

#include <utility>

#include "isa/assembler.hh"
#include "modmath/primegen.hh"
#include "modmath/simd.hh"
#include "sim/functional/executor.hh"
#include "wide/u256.hh"

namespace rpu {
namespace {

constexpr unsigned VL = arch::kVectorLength;

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

TEST_F(FunctionalSim, RepeatedStoreFaults)
{
    sim.step(Instruction::vload(2, 0, 0));
    EXPECT_EXIT(sim.step(Instruction::vstore(2, 0, 0,
                                             AddrMode::REPEATED, 1)),
                testing::ExitedWithCode(1), "REPEATED");
}

TEST_F(FunctionalSim, VdmOutOfBoundsFaults)
{
    state.setAreg(7, state.vdmWords());
    EXPECT_EXIT(sim.step(Instruction::vload(2, 7, 0)),
                testing::ExitedWithCode(1), "out of bounds");
}

TEST_F(FunctionalSim, PartiallyOutOfBoundsAccessFaults)
{
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

TEST_F(FunctionalSim, BulkAccessNearTopOfAddressSpaceFaults)
{
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

// -- Parameterised load/store round trips over the mode grid -----------

struct ModeCase
{
    AddrMode mode;
    unsigned value;
};

class LoadStoreModes : public testing::TestWithParam<ModeCase>
{
  protected:
    LoadStoreModes() : state(arch::kVdmDefaultBytes), sim(state)
    {
        state.setAreg(0, 0);
        for (unsigned i = 0; i < 65536; ++i)
            state.writeVdm(i, u128(i) * 3 + 1);
    }

    ArchState state;
    FunctionalSimulator sim;
};

TEST_P(LoadStoreModes, LoadMatchesLaneOffsets)
{
    const auto &c = GetParam();
    sim.step(Instruction::vload(1, 0, 64, c.mode, uint8_t(c.value)));
    for (unsigned i = 0; i < VL; ++i) {
        const uint64_t addr =
            64 + FunctionalSimulator::laneOffset(c.mode, c.value, i);
        EXPECT_EQ(state.vreg(1)[i], u128(addr) * 3 + 1) << "lane " << i;
    }
}

TEST_P(LoadStoreModes, StoreThenLoadRoundTrips)
{
    const auto &c = GetParam();
    if (c.mode == AddrMode::REPEATED)
        GTEST_SKIP() << "stores do not support REPEATED";
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vstore(1, 0, 32768, c.mode, uint8_t(c.value)));
    sim.step(Instruction::vload(2, 0, 32768, c.mode, uint8_t(c.value)));
    EXPECT_EQ(state.vreg(2), state.vreg(1));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LoadStoreModes,
    testing::Values(ModeCase{AddrMode::CONTIGUOUS, 0},
                    ModeCase{AddrMode::STRIDED, 1},
                    ModeCase{AddrMode::STRIDED, 3},
                    ModeCase{AddrMode::STRIDED, 6},
                    ModeCase{AddrMode::STRIDED_SKIP, 1},
                    ModeCase{AddrMode::STRIDED_SKIP, 4},
                    ModeCase{AddrMode::STRIDED_SKIP, 8},
                    ModeCase{AddrMode::REPEATED, 1},
                    ModeCase{AddrMode::REPEATED, 5},
                    ModeCase{AddrMode::REPEATED, 9}),
    [](const auto &info) {
        return addrModeName(info.param.mode) + "_v" +
               std::to_string(info.param.value);
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
void
expectSameState(const ArchState &a, const ArchState &b)
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
}

TEST(ArchStateReset, ReusedStateMatchesAFreshOne)
{
    constexpr size_t kBytes = 4096 * arch::kWordBytes;
    const ArchState fresh(kBytes);
    ArchState used(kBytes);

    // Two rounds with disjoint footprints: the second must not
    // inherit the first round's dirty range or registers.
    for (uint64_t round = 0; round < 2; ++round) {
        const uint64_t at = round * 2000;
        used.writeVdm(at + 5, 1);
        used.loadVdm(at + 100, std::vector<u128>(300, round + 2));
        u128 *w = used.vdmSpanForWrite(at + 1500, 10);
        ASSERT_NE(w, nullptr);
        std::fill(w, w + 10, u128(7));
        used.writeSdm(at % arch::kSdmWords + 3, 11);
        used.vreg(unsigned(round * 63))[VL - 1] = 9;
        used.vreg(unsigned(round + 1)).fill(4);
        used.setSreg(unsigned(round + 60), 5);
        used.setAreg(unsigned(round + 30), 6);
        used.setMreg(unsigned(round), 8);
        used.reset();
        expectSameState(used, fresh);
    }
}

// -- Destination aliasing and non-canonical lanes, both SIMD modes ------

using Vreg = ArchState::Vreg;

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

/**
 * The lane-wise u128 reference for one compute or shuffle step, taken
 * from the registers as they stood before it: each register the step
 * writes, with its expected contents, in write order.
 */
std::vector<std::pair<unsigned, Vreg>>
referenceStep(const std::vector<Vreg> &before, const Instruction &in,
              const Modulus &mod, u128 s)
{
    constexpr unsigned H = VL / 2;
    const Vreg &a = before[in.vs];
    const Vreg &b = before[in.vt];
    Vreg out{}, out1{};
    for (unsigned i = 0; i < VL; ++i) {
        if (in.isButterfly()) {
            const u128 t = mod.mul(before[in.vt1][i], b[i]);
            out[i] = mod.add(a[i], t);
            out1[i] = mod.sub(a[i], t);
            continue;
        }
        switch (in.op) {
          case Opcode::VADDMOD: out[i] = mod.add(a[i], b[i]); break;
          case Opcode::VSUBMOD: out[i] = mod.sub(a[i], b[i]); break;
          case Opcode::VMULMOD: out[i] = mod.mul(a[i], b[i]); break;
          case Opcode::VSADDMOD: out[i] = mod.add(a[i], s); break;
          case Opcode::VSSUBMOD: out[i] = mod.sub(a[i], s); break;
          case Opcode::VSMULMOD: out[i] = mod.mul(a[i], s); break;
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
    }
    if (in.isButterfly())
        return {{in.vd, out}, {in.vd1, out1}};
    return {{in.vd, out}};
}

class LaneAliasing : public testing::TestWithParam<simd::HostSimdMode>
{
  protected:
    LaneAliasing()
        : guard(GetParam()), sim(state), q(nttPrime(60, 1024)), mod(q)
    {
        state.setMreg(1, q);
        state.setSreg(9, q - 5);
        state.setSreg(10, q + 3); // non-canonical scalar
        for (unsigned r = 1; r <= 4; ++r) {
            for (unsigned i = 0; i < VL; ++i) {
                state.vreg(r)[i] =
                    u128(i + 1) * 0x9E3779B97F4A7C15ull * r % q;
            }
        }
    }

    /**
     * Make register @p r non-canonical: lanes i % 3 == 0 hold q + i
     * and lanes i % 3 == 1 hold 2^64 + i, which a u64 narrowing would
     * silently truncate.
     */
    void
    makeNonCanonical(unsigned r)
    {
        for (unsigned i = 0; i < VL; i += 3) {
            state.vreg(r)[i] = q + i;
            if (i + 1 < VL)
                state.vreg(r)[i + 1] = (u128(1) << 64) + i;
        }
    }

    /** Step @p in; every register must match the reference. */
    void
    stepAndCheck(const Instruction &in)
    {
        const ArchState &view = state;
        std::vector<Vreg> want;
        for (unsigned r = 0; r < arch::kNumVregs; ++r)
            want.push_back(view.vreg(r));
        const auto written =
            referenceStep(want, in, mod, view.sreg(in.rt));
        for (const auto &[reg, value] : written)
            want[reg] = value;

        sim.step(in);
        for (unsigned r = 0; r < arch::kNumVregs; ++r)
            EXPECT_EQ(view.vreg(r), want[r]) << in.toString() << ": v" << r;
    }

    ModeGuard guard;
    ArchState state;
    FunctionalSimulator sim;
    u128 q;
    Modulus mod;
};

TEST_P(LaneAliasing, LaneWiseOpsWithDestinationAliasingASource)
{
    for (Opcode op : {Opcode::VADDMOD, Opcode::VSUBMOD, Opcode::VMULMOD}) {
        stepAndCheck(Instruction::vv(op, 1, 1, 2, 1)); // vd == vs
        stepAndCheck(Instruction::vv(op, 2, 1, 2, 1)); // vd == vt
        stepAndCheck(Instruction::vv(op, 3, 3, 3, 1)); // vd == vs == vt
    }
    for (Opcode op :
         {Opcode::VSADDMOD, Opcode::VSSUBMOD, Opcode::VSMULMOD})
        stepAndCheck(Instruction::vs_(op, 1, 1, 9, 1)); // vd == vs
}

TEST_P(LaneAliasing, ButterflyWithCrossedAliasing)
{
    stepAndCheck(Instruction::butterfly(3, 1, 1, 2, 3, 1)); // vd == vt1, vd1 == vs
    stepAndCheck(Instruction::butterfly(2, 3, 1, 2, 3, 1)); // vd == vt, vd1 == vt1
    stepAndCheck(Instruction::butterfly(1, 2, 1, 2, 3, 1)); // vd == vs, vd1 == vt
    stepAndCheck(Instruction::butterfly(4, 4, 1, 2, 3, 1)); // vd == vd1
}

TEST_P(LaneAliasing, ShufflesWithDestinationAliasingASource)
{
    for (Opcode op : {Opcode::UNPKLO, Opcode::UNPKHI, Opcode::PKLO,
                      Opcode::PKHI}) {
        stepAndCheck(Instruction::shuffle(op, 2, 1, 2)); // vd == vt
        stepAndCheck(Instruction::shuffle(op, 1, 1, 2)); // vd == vs
        stepAndCheck(Instruction::shuffle(op, 3, 3, 3)); // vd == vs == vt
        stepAndCheck(Instruction::shuffle(op, 5, 1, 2)); // no aliasing
    }
}

TEST_P(LaneAliasing, NonCanonicalLanesTakeTheExactPath)
{
    // The narrow kernels are exact only on canonical lanes; the
    // canonical guard must send these through the u128 path in both
    // modes, so the results match the u128 reference either way.
    makeNonCanonical(1);
    for (Opcode op : {Opcode::VADDMOD, Opcode::VSUBMOD, Opcode::VMULMOD}) {
        stepAndCheck(Instruction::vv(op, 5, 1, 2, 1)); // vs non-canonical
        stepAndCheck(Instruction::vv(op, 6, 2, 1, 1)); // vt non-canonical
    }
    stepAndCheck(Instruction::butterfly(5, 6, 1, 2, 3, 1));
    stepAndCheck(Instruction::butterfly(5, 6, 2, 1, 3, 1));
    stepAndCheck(Instruction::butterfly(5, 6, 2, 3, 1, 1)); // twiddles
    stepAndCheck(Instruction::vs_(Opcode::VSMULMOD, 5, 1, 9, 1));
    stepAndCheck(Instruction::vs_(Opcode::VSMULMOD, 6, 2, 10, 1));
    stepAndCheck(Instruction::vs_(Opcode::VSADDMOD, 7, 1, 10, 1));
}

// -- Wide moduli with non-canonical lanes, both SIMD modes ------------

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

    /** Step @p in and check its destinations lane by lane. */
    void
    stepAndCheck(const Instruction &in)
    {
        const ArchState &view = state;
        const Vreg a = view.vreg(in.vs);
        const Vreg b = view.vreg(in.vt);
        const Vreg w = view.vreg(in.vt1);
        const u128 s = view.sreg(in.rt);
        Vreg want{}, want1{};
        for (unsigned i = 0; i < VL; ++i) {
            if (in.isButterfly()) {
                const u128 t = mulOracle(w[i], b[i], q);
                want[i] = addOracle(a[i], t, q);
                want1[i] = subOracle(a[i], t, q);
                continue;
            }
            switch (in.op) {
              case Opcode::VADDMOD: want[i] = addOracle(a[i], b[i], q); break;
              case Opcode::VSUBMOD: want[i] = subOracle(a[i], b[i], q); break;
              case Opcode::VMULMOD: want[i] = mulOracle(a[i], b[i], q); break;
              case Opcode::VSADDMOD: want[i] = addOracle(a[i], s, q); break;
              case Opcode::VSSUBMOD: want[i] = subOracle(a[i], s, q); break;
              case Opcode::VSMULMOD: want[i] = mulOracle(a[i], s, q); break;
              default:
                ADD_FAILURE() << "no oracle for " << in.toString();
            }
        }
        sim.step(in);
        EXPECT_EQ(view.vreg(in.vd), want) << in.toString();
        if (in.isButterfly()) {
            EXPECT_EQ(view.vreg(in.vd1), want1) << in.toString();
        }
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

INSTANTIATE_TEST_SUITE_P(
    HostSimdModes, LaneAliasing,
    testing::Values(simd::HostSimdMode::Scalar,
                    simd::HostSimdMode::Native),
    [](const auto &info) {
        return std::string(info.param == simd::HostSimdMode::Scalar
                               ? "scalar"
                               : "native");
    });

} // namespace
} // namespace rpu
