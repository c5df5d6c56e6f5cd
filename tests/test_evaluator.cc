/**
 * @file
 * Ciphertext x ciphertext multiply tests: gadget digit decomposition
 * edges (recomposition identity across digit bases, partial last
 * digits, replicated towers), the CKKS mulCt / rescale interplay
 * (including a key-switch at a dropped level reading the key through
 * its tower prefix), and the key-switch transform ledger at every
 * digit base: per relinearisation, exactly one batched inverse pass
 * plus digits * towers forward re-entry NTTs, all annotated as
 * keySwitchTransforms so workload elision ratios stay meaningful.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "rlwe/ckks.hh"
#include "rpu/device.hh"

namespace rpu {
namespace {

using Cplx = std::complex<double>;

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

/** Two 50-bit towers: every digit base below splits a tower with a
 *  partial last digit. */
CkksParams
gadgetParams()
{
    CkksParams p;
    p.n = 1024;
    p.towers = 2;
    p.towerBits = 50;
    return p;
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
    CkksContext ctx(gadgetParams());
    const ResidueOps &ops = ctx.residueOps();
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
    CkksContext ctx(gadgetParams());
    const ResidueOps &ops = ctx.residueOps();
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

    const CkksCiphertext ct_x = ctx.encrypt(sk, x);
    const CkksCiphertext ct_y = ctx.encrypt(sk, y);
    const CkksCiphertext prod = ctx.mulCt(ct_x, ct_y, rk);
    EXPECT_EQ(prod.towers(), ctx.params().towers);
    EXPECT_EQ(prod.domain(), ResidueDomain::Eval);
    EXPECT_DOUBLE_EQ(prod.scale,
                     ctx.params().scale * ctx.params().scale);

    // Coeff-resident operands convert on copies and multiply to the
    // same ciphertext bit for bit.
    CkksCiphertext coeff_x = ct_x, coeff_y = ct_y;
    ctx.toCoeff(coeff_x);
    ctx.toCoeff(coeff_y);
    const CkksCiphertext via_coeff = ctx.mulCt(coeff_x, coeff_y, rk);
    EXPECT_EQ(via_coeff.c0, prod.c0);
    EXPECT_EQ(via_coeff.c1, prod.c1);

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
    //
    // The prediction holds at every digit base, and the base is the
    // noise-vs-work knob: a smaller base means more digits, so more
    // key-switch transforms. On 45-bit towers 2^20 and 2^16 both
    // split a tower into 3 digits; on 50-bit towers the three bases
    // take 3, 4 and 5, so there the count strictly grows.
    for (unsigned towerBits : {45u, 50u}) {
        CkksParams params = ckksParams();
        params.towerBits = towerBits;
        CkksContext ctx(params);
        const CkksSecretKey sk = ctx.keygen();
        const CkksCiphertext ct_x =
            ctx.encrypt(sk, randomSlots(ctx.slots(), 33));
        const CkksCiphertext ct_y =
            ctx.encrypt(sk, randomSlots(ctx.slots(), 34));

        const auto device = std::make_shared<RpuDevice>();
        ctx.attachDevice(device);

        const size_t L = params.towers;
        uint64_t previous = 0;
        for (unsigned digitBits : {20u, 16u, 10u}) {
            const RelinKey rk = ctx.makeRelinKey(sk, digitBits);
            const uint64_t digits = rk.totalDigits(L);
            ASSERT_EQ(digits,
                      L * ((towerBits + digitBits - 1) / digitBits));
            device->resetCounters();
            const CkksCiphertext prod = ctx.mulCt(ct_x, ct_y, rk);
            (void)prod;
            const DeviceStats s = device->stats();

            EXPECT_EQ(s.inverseTransforms, L);
            EXPECT_EQ(s.forwardTransforms, digits * L);
            // c2 leaves the tensor product in Eval, so its split
            // inverse is key-switch plumbing too.
            EXPECT_EQ(s.keySwitchTransforms, (digits + 1) * L);
            EXPECT_EQ(s.workloadTransforms(), 0u);
            EXPECT_EQ(s.pointwiseMuls, 4 * L + 2 * digits * L);
            EXPECT_EQ(s.transformsElided, 4 * L);

            if (towerBits == 50)
                EXPECT_GT(s.keySwitchTransforms, previous)
                    << "base 2^" << digitBits;
            else
                EXPECT_GE(s.keySwitchTransforms, previous)
                    << "base 2^" << digitBits;
            previous = s.keySwitchTransforms;
        }
    }
}

} // namespace
} // namespace rpu
