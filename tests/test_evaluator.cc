/**
 * @file
 * Scheme-generic ct x ct multiply tests: gadget digit decomposition
 * edges (recomposition identity across digit bases, partial last
 * digits, replicated towers), BFV mulCt correctness pinned against
 * the naive negacyclic product and the independent wide-integer
 * reference decrypt, bit-identity across every backend and both
 * host-SIMD modes, noise growth across a 4-deep multiply chain, the
 * CKKS mulCt / rescale interplay (including a key-switch at a
 * dropped level reading the key through its tower prefix), and the
 * key-switch transform ledger: per relinearisation, exactly one
 * batched inverse pass plus digits * towers forward re-entry NTTs,
 * all annotated as keySwitchTransforms so workload elision ratios
 * stay meaningful.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "modmath/simd.hh"
#include "rlwe/bfv.hh"
#include "rlwe/ckks.hh"
#include "rlwe_test_util.hh"
#include "rpu/device.hh"
#include "wide/biguint.hh"

namespace rpu {
namespace {

using Cplx = std::complex<double>;
using testutil::naiveNegacyclicModT;

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

RlweParams
smallParams()
{
    RlweParams p;
    p.n = 1024;
    p.towers = 2;
    p.towerBits = 50;
    p.plaintextModulus = 65537;
    p.noiseBound = 4;
    return p;
}

std::vector<uint64_t>
randomMessage(const RlweParams &p, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> m(p.n);
    for (auto &v : m)
        v = rng.below64(p.plaintextModulus);
    return m;
}

std::vector<Cplx>
randomSlots(size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Cplx> v(count);
    for (auto &s : v) {
        s = {double(rng.below64(2000)) / 1000.0 - 1.0,
             double(rng.below64(2000)) / 1000.0 - 1.0};
    }
    return v;
}

void
expectWithinRelative(const std::vector<Cplx> &got,
                     const std::vector<Cplx> &want, double rel)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_LE(std::abs(got[i] - want[i]),
                  rel * std::max(1.0, std::abs(want[i])))
            << "slot " << i;
    }
}

void
expectBitIdentical(const Ciphertext &got, const Ciphertext &want,
                   const char *label)
{
    ASSERT_EQ(got.towers(), want.towers()) << label;
    EXPECT_EQ(got.domain(), want.domain()) << label;
    for (size_t t = 0; t < got.towers(); ++t) {
        EXPECT_EQ(got.c0.towers[t], want.c0.towers[t])
            << label << " c0 tower " << t;
        EXPECT_EQ(got.c1.towers[t], want.c1.towers[t])
            << label << " c1 tower " << t;
    }
}

// ----------------------------------------------------------------------
// Gadget decomposition edges
// ----------------------------------------------------------------------

TEST(GadgetDecompose, RecompositionIdentityAcrossDigitBases)
{
    // 50-bit towers make every base's last digit partial: 5 digits
    // of 2^10, 4 of 2^16 (2-bit last digit), 3 of 2^20 (10-bit last
    // digit). Recomposition sum_j d_j * B^j must reproduce every
    // tower residue exactly, and every digit polynomial's towers
    // must be identical replicas (digit values sit below every
    // chain prime).
    BfvContext ctx(smallParams());
    const ResidueOps &ops = ctx.evaluator().ops();
    const size_t L = ctx.params().towers;
    const uint64_t n = ctx.params().n;

    Rng rng(71);
    ResiduePoly p;
    p.domain = ResidueDomain::Coeff;
    p.towers.resize(L);
    for (size_t t = 0; t < L; ++t) {
        p.towers[t].resize(n);
        for (auto &v : p.towers[t])
            v = rng.below128(ctx.basis().prime(t));
    }

    for (unsigned digitBits : {10u, 16u, 20u}) {
        const auto digits = ops.digitDecompose(p, digitBits, L);

        size_t idx = 0;
        for (size_t t = 0; t < L; ++t) {
            const size_t dcount = ops.digitCount(t, digitBits);
            // 50-bit primes: the split never divides evenly for
            // these bases, so the last digit is partial.
            ASSERT_EQ(dcount, (50 + digitBits - 1) / digitBits);
            for (size_t j = 0; j < dcount; ++j, ++idx) {
                const ResiduePoly &d = digits[idx];
                EXPECT_FALSE(d.inEval());
                ASSERT_EQ(d.towerCount(), L);
                for (size_t u = 1; u < L; ++u)
                    EXPECT_EQ(d.towers[u], d.towers[0])
                        << "digit towers must be replicas";
            }
            for (size_t i = 0; i < n; ++i) {
                // Exact integer recomposition, no modular wrap: the
                // digits are the base-B expansion of the residue.
                u128 acc = 0;
                for (size_t j = 0; j < dcount; ++j) {
                    acc += digits[idx - dcount + j].towers[t][i]
                           << (j * digitBits);
                }
                ASSERT_EQ(acc, p.towers[t][i])
                    << "base 2^" << digitBits << " tower " << t
                    << " coeff " << i;
            }
        }
        EXPECT_EQ(idx, digits.size());
    }
}

TEST(GadgetDecompose, DigitValuesStayBelowTheBase)
{
    BfvContext ctx(smallParams());
    const ResidueOps &ops = ctx.evaluator().ops();
    const size_t L = ctx.params().towers;

    Rng rng(72);
    ResiduePoly p;
    p.domain = ResidueDomain::Coeff;
    p.towers.resize(L);
    for (size_t t = 0; t < L; ++t) {
        p.towers[t].resize(ctx.params().n);
        for (auto &v : p.towers[t])
            v = rng.below128(ctx.basis().prime(t));
    }
    for (unsigned digitBits : {10u, 16u, 20u}) {
        const u128 base = u128(1) << digitBits;
        for (const ResiduePoly &d :
             ops.digitDecompose(p, digitBits, L)) {
            for (const auto &tower : d.towers) {
                for (u128 v : tower)
                    ASSERT_LT(v, base);
            }
        }
    }
}

// ----------------------------------------------------------------------
// BFV ct x ct
// ----------------------------------------------------------------------

TEST(BfvMulCt, DecryptsToNegacyclicProduct)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const RelinKey rk = ctx.makeRelinKey(sk, 16);
    const auto a = randomMessage(ctx.params(), 81);
    const auto b = randomMessage(ctx.params(), 82);

    const Ciphertext ct =
        ctx.mulCt(ctx.encrypt(sk, a), ctx.encrypt(sk, b), rk);
    // Stays degree 1, Eval-resident, on the ciphertext chain.
    EXPECT_EQ(ct.towers(), ctx.params().towers);
    EXPECT_EQ(ct.domain(), ResidueDomain::Eval);

    const auto got = ctx.decrypt(sk, ct);
    EXPECT_EQ(got, naiveNegacyclicModT(
                       a, b, ctx.params().plaintextModulus));
    // The independent wide-integer reference decrypt must agree bit
    // for bit — it shares nothing with the RNS tower path.
    EXPECT_EQ(ctx.decryptWideReference(sk, ct), got);
}

TEST(BfvMulCt, CoeffResidentOperandsMultiplyIdentically)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const RelinKey rk = ctx.makeRelinKey(sk, 16);
    const auto a = randomMessage(ctx.params(), 83);
    const auto b = randomMessage(ctx.params(), 84);

    const Ciphertext ct_a = ctx.encrypt(sk, a);
    const Ciphertext ct_b = ctx.encrypt(sk, b);
    const Ciphertext want = ctx.mulCt(ct_a, ct_b, rk);

    Ciphertext ca = ct_a, cb = ct_b;
    ctx.toCoeff(ca);
    ctx.toCoeff(cb);
    expectBitIdentical(ctx.mulCt(ca, cb, rk), want, "coeff operands");
}

TEST(BfvMulCt, BitIdenticalAcrossBackendsAndSimdModes)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const RelinKey rk = ctx.makeRelinKey(sk, 16);
    const auto a = randomMessage(ctx.params(), 85);
    const auto b = randomMessage(ctx.params(), 86);
    const auto expected =
        naiveNegacyclicModT(a, b, ctx.params().plaintextModulus);

    const Ciphertext ct_a = ctx.encrypt(sk, a);
    const Ciphertext ct_b = ctx.encrypt(sk, b);
    const Ciphertext host_ct = ctx.mulCt(ct_a, ct_b, rk);
    ASSERT_EQ(ctx.decrypt(sk, host_ct), expected);

    for (simd::HostSimdMode mode :
         {simd::HostSimdMode::Scalar, simd::HostSimdMode::Native}) {
        ModeGuard guard(mode);
        const char *mode_name = simd::hostSimdModeName();

        // Host path under this mode.
        expectBitIdentical(ctx.mulCt(ct_a, ct_b, rk), host_ct,
                           mode_name);

        const auto run_device = [&](std::shared_ptr<RpuDevice> device,
                                    const char *label) {
            ctx.attachDevice(device);
            const Ciphertext ct = ctx.mulCt(ct_a, ct_b, rk);
            expectBitIdentical(ct, host_ct, label);
            EXPECT_EQ(ctx.decrypt(sk, ct), expected) << label;
            EXPECT_EQ(ctx.decryptWideReference(sk, ct), expected)
                << label;
        };
        run_device(std::make_shared<RpuDevice>(), "functional-sim");
        run_device(std::make_shared<RpuDevice>(
                       std::make_unique<CpuReferenceBackend>()),
                   "cpu-reference");
    }
}

TEST(BfvMulCt, NoiseBoundedAcrossFourDeepMultiplyChain)
{
    // Four chained ct x ct multiplies on a q ~ 2^180 chain: the
    // budget must shrink every level but stay positive through
    // depth 4, and every intermediate must decrypt exactly.
    RlweParams params;
    params.n = 1024;
    params.towers = 4;
    params.towerBits = 45;
    params.plaintextModulus = 65537;
    params.noiseBound = 4;

    BfvContext ctx(params);
    const SecretKey sk = ctx.keygen();
    const RelinKey rk = ctx.makeRelinKey(sk, 16);

    std::vector<uint64_t> expected = randomMessage(params, 90);
    Ciphertext ct = ctx.encrypt(sk, expected);
    double budget = ctx.noiseBudgetBits(sk, ct, expected);
    EXPECT_GT(budget, 100.0);

    for (int depth = 1; depth <= 4; ++depth) {
        const auto m = randomMessage(params, 90 + uint64_t(depth));
        ct = ctx.mulCt(ct, ctx.encrypt(sk, m), rk);
        expected = naiveNegacyclicModT(expected, m,
                                       params.plaintextModulus);

        ASSERT_EQ(ctx.decrypt(sk, ct), expected)
            << "depth " << depth;
        const double remaining =
            ctx.noiseBudgetBits(sk, ct, expected);
        EXPECT_LT(remaining, budget) << "depth " << depth;
        EXPECT_GT(remaining, 0.0) << "depth " << depth;
        budget = remaining;
    }
}

// ----------------------------------------------------------------------
// CKKS ct x ct and the rescale interplay
// ----------------------------------------------------------------------

CkksParams
ckksParams()
{
    CkksParams p;
    p.n = 1024;
    p.towers = 3;
    p.towerBits = 45;
    p.scale = 1099511627776.0; // 2^40
    p.noiseBound = 4;
    return p;
}

TEST(CkksMulCt, RescaleInterplayApproximatesSlotProducts)
{
    CkksContext ctx(ckksParams());
    const CkksSecretKey sk = ctx.keygen();
    const RelinKey rk = ctx.makeRelinKey(sk, 16);
    const auto x = randomSlots(ctx.slots(), 31);
    const auto y = randomSlots(ctx.slots(), 32);

    const CkksCiphertext prod =
        ctx.mulCt(ctx.encrypt(sk, x), ctx.encrypt(sk, y), rk);
    EXPECT_EQ(prod.towers(), ctx.params().towers);
    EXPECT_DOUBLE_EQ(prod.scale,
                     ctx.params().scale * ctx.params().scale);

    std::vector<Cplx> want(ctx.slots());
    for (size_t i = 0; i < want.size(); ++i)
        want[i] = x[i] * y[i];
    const double rel = std::ldexp(1.0, -20);
    expectWithinRelative(ctx.decrypt(sk, prod), want, rel);

    // Rescale divides the scale back down and drops a tower, like
    // after mulPlain; the slots must survive the pair of ops.
    const CkksCiphertext dropped = ctx.rescale(prod);
    EXPECT_EQ(dropped.towers(), prod.towers() - 1);
    expectWithinRelative(ctx.decrypt(sk, dropped), want, rel);

    // A second multiply at the dropped level key-switches through
    // the full-chain key's tower prefix.
    const CkksCiphertext sq = ctx.mulCt(dropped, dropped, rk);
    EXPECT_EQ(sq.towers(), dropped.towers());
    std::vector<Cplx> want_sq(ctx.slots());
    for (size_t i = 0; i < want_sq.size(); ++i)
        want_sq[i] = want[i] * want[i];
    expectWithinRelative(ctx.decrypt(sk, sq), want_sq,
                         std::ldexp(1.0, -16));
}

TEST(CkksMulCt, KeySwitchLedgerMatchesPrediction)
{
    // The relinearisation ledger, predicted from first principles:
    // the tensor product is 4 pointwise tower products per tower
    // with all 4 operand conversions elided; the key-switch is one
    // batched inverse pass over the towers (c2's digit split), one
    // forward re-entry per (digit, tower), and 2 * digits pointwise
    // inner-product pairs — every one of those transforms annotated
    // as key-switch plumbing, leaving the workload transform count
    // at zero.
    CkksContext ctx(ckksParams());
    const CkksSecretKey sk = ctx.keygen();
    const RelinKey rk = ctx.makeRelinKey(sk, 16);
    const auto x = randomSlots(ctx.slots(), 33);
    const auto y = randomSlots(ctx.slots(), 34);
    const CkksCiphertext ct_x = ctx.encrypt(sk, x);
    const CkksCiphertext ct_y = ctx.encrypt(sk, y);

    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);

    const size_t L = ctx.params().towers;
    const uint64_t digits = rk.totalDigits(L);
    device->resetCounters();
    const CkksCiphertext prod = ctx.mulCt(ct_x, ct_y, rk);
    (void)prod;
    const DeviceStats s = device->stats();

    EXPECT_EQ(s.inverseTransforms, L);
    EXPECT_EQ(s.forwardTransforms, digits * L);
    EXPECT_EQ(s.keySwitchTransforms, (digits + 1) * L);
    EXPECT_EQ(s.workloadTransforms(), 0u);
    EXPECT_EQ(s.pointwiseMuls, 4 * L + 2 * digits * L);
    EXPECT_EQ(s.transformsElided, 4 * L);
}

TEST(BfvMulCt, SmallerDigitBaseCostsMoreTransforms)
{
    // The digit-base knob, visible in the ledger: halving the digit
    // width roughly doubles the re-entry forward NTTs and the
    // inner-product launches of a multiply.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto a = randomMessage(ctx.params(), 95);
    const auto b = randomMessage(ctx.params(), 96);
    const Ciphertext ct_a = ctx.encrypt(sk, a);
    const Ciphertext ct_b = ctx.encrypt(sk, b);

    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);

    uint64_t previous = 0;
    for (unsigned digitBits : {20u, 10u}) {
        const RelinKey rk = ctx.makeRelinKey(sk, digitBits);
        device->resetCounters();
        const Ciphertext ct = ctx.mulCt(ct_a, ct_b, rk);
        const DeviceStats s = device->stats();
        EXPECT_EQ(ctx.decrypt(sk, ct),
                  naiveNegacyclicModT(
                      a, b, ctx.params().plaintextModulus))
            << "base 2^" << digitBits;
        // Key-switch plumbing = the digit re-entry forwards plus
        // c2's split inverse (elided here: the scale-and-round hook
        // returns c2 already in Coeff).
        const uint64_t L = ctx.params().towers;
        EXPECT_EQ(s.keySwitchTransforms,
                  rk.totalDigits(L) * L);
        if (previous != 0)
            EXPECT_GT(s.keySwitchTransforms, previous);
        previous = s.keySwitchTransforms;
    }
}

} // namespace
} // namespace rpu
