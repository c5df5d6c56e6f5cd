/**
 * @file
 * RNS/CRT tests: decompose/reconstruct round trips, ring homomorphism
 * across towers (paper section II-B), and the fixed-limb lift against
 * a BigUInt reference.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "rns/crt.hh"

namespace rpu {
namespace {

TEST(RnsBasis, CompositeModulus)
{
    const RnsBasis basis({u128(7), u128(11), u128(13)});
    EXPECT_EQ(basis.towers(), 3u);
    EXPECT_EQ(basis.q().toDecimal(), "1001");
}

TEST(RnsBasis, RejectsNonCoprime)
{
    EXPECT_EXIT(RnsBasis({u128(6), u128(9)}),
                testing::ExitedWithCode(1), "co-prime");
}

TEST(RnsBasis, NttBasisWidth)
{
    // The paper's example: wide moduli out of many 128-bit towers.
    const RnsBasis basis = RnsBasis::nttBasis(124, 1024, 4);
    EXPECT_EQ(basis.towers(), 4u);
    EXPECT_GE(basis.qBits(), 4 * 123u);
}

TEST(Crt, SmallHandComputed)
{
    const RnsBasis basis({u128(3), u128(5), u128(7)});
    const CrtContext crt(basis);
    // x = 23: residues (2, 3, 2).
    const auto res = crt.decompose(BigUInt(23));
    EXPECT_EQ(res[0], u128(2));
    EXPECT_EQ(res[1], u128(3));
    EXPECT_EQ(res[2], u128(2));
    EXPECT_EQ(crt.reconstruct(res).toDecimal(), "23");
}

TEST(Crt, RoundTripWideValues)
{
    const RnsBasis basis = RnsBasis::nttBasis(124, 1024, 5);
    const CrtContext crt(basis);
    Rng rng(20);
    for (int i = 0; i < 50; ++i) {
        BigUInt x = BigUInt::fromU128(rng.next128());
        for (int k = 0; k < 4; ++k)
            x = x * BigUInt::fromU128(rng.next128());
        x = x % basis.q();
        EXPECT_EQ(crt.reconstruct(crt.decompose(x)), x);
    }
}

TEST(Crt, AdditionHomomorphism)
{
    const RnsBasis basis = RnsBasis::nttBasis(124, 1024, 3);
    const CrtContext crt(basis);
    Rng rng(21);
    for (int i = 0; i < 30; ++i) {
        const BigUInt a =
            (BigUInt::fromU128(rng.next128()) * BigUInt::fromU128(
                 rng.next128())) % basis.q();
        const BigUInt b =
            (BigUInt::fromU128(rng.next128()) * BigUInt::fromU128(
                 rng.next128())) % basis.q();
        auto ra = crt.decompose(a);
        const auto rb = crt.decompose(b);
        for (size_t t = 0; t < basis.towers(); ++t)
            ra[t] = basis.modulus(t).add(ra[t], rb[t]);
        EXPECT_EQ(crt.reconstruct(ra), (a + b) % basis.q());
    }
}

TEST(Crt, MultiplicationHomomorphism)
{
    const RnsBasis basis = RnsBasis::nttBasis(124, 1024, 3);
    const CrtContext crt(basis);
    Rng rng(22);
    for (int i = 0; i < 30; ++i) {
        const BigUInt a =
            BigUInt::fromU128(rng.next128()) % basis.q();
        const BigUInt b =
            BigUInt::fromU128(rng.next128()) % basis.q();
        auto ra = crt.decompose(a);
        const auto rb = crt.decompose(b);
        for (size_t t = 0; t < basis.towers(); ++t)
            ra[t] = basis.modulus(t).mul(ra[t], rb[t]);
        EXPECT_EQ(crt.reconstruct(ra), (a * b) % basis.q());
    }
}

TEST(Crt, PolyDecomposeReconstruct)
{
    const RnsBasis basis = RnsBasis::nttBasis(124, 1024, 3);
    const CrtContext crt(basis);
    Rng rng(23);
    std::vector<BigUInt> coeffs(64);
    for (auto &c : coeffs) {
        c = (BigUInt::fromU128(rng.next128()) *
             BigUInt::fromU128(rng.next128())) % basis.q();
    }
    const auto towers = crt.decomposePoly(coeffs);
    EXPECT_EQ(towers.size(), 3u);
    EXPECT_EQ(towers[0].size(), 64u);
    EXPECT_EQ(crt.reconstructPoly(towers), coeffs);
}

TEST(Crt, TowerIndependence)
{
    // The paper's point: each tower operates independently. Perturb
    // one tower's residue and only that residue class changes.
    const RnsBasis basis = RnsBasis::nttBasis(60, 1024, 3);
    const CrtContext crt(basis);
    auto res = crt.decompose(BigUInt(12345));
    res[1] = basis.modulus(1).add(res[1], 1);
    const BigUInt x = crt.reconstruct(res);
    EXPECT_EQ((x % BigUInt::fromU128(basis.prime(0))).low128(),
              u128(12345 % basis.prime(0)));
    EXPECT_EQ((x % BigUInt::fromU128(basis.prime(1))).low128(),
              basis.modulus(1).add(u128(12345 % basis.prime(1)), 1));
    EXPECT_EQ((x % BigUInt::fromU128(basis.prime(2))).low128(),
              u128(12345 % basis.prime(2)));
}

/**
 * The reference for CrtContext's fixed-limb core: the CRT sum
 * sum_i [r_i (Q/q_i)^-1]_{q_i} (Q/q_i) mod Q in BigUInt throughout.
 */
BigUInt
bigUIntLift(const RnsBasis &basis, const std::vector<u128> &residues)
{
    const BigUInt &q = basis.q();
    BigUInt acc;
    for (size_t i = 0; i < basis.towers(); ++i) {
        const BigUInt qi = BigUInt::fromU128(basis.prime(i));
        const BigUInt q_over = q / qi;
        const BigUInt inv = BigUInt::fromU128(
            basis.modulus(i).inv((q_over % qi).low128()));
        acc = acc + q_over * ((BigUInt::fromU128(residues[i]) * inv) % qi);
    }
    return acc % q;
}

/** The centred value as a double via BigUInt: -(Q - x) above floor(Q/2). */
double
bigUIntCentred(const BigUInt &q, const BigUInt &x)
{
    return x > (q >> 1) ? -(q - x).toDouble() : x.toDouble();
}

TEST(Crt, FixedLimbLiftMatchesBigUIntReference)
{
    std::vector<std::unique_ptr<RnsBasis>> bases;
    bases.push_back(std::make_unique<RnsBasis>(
        std::vector<u128>{u128(3), u128(5), u128(7)}));
    for (unsigned bits : {30u, 45u, 62u, 124u}) {
        for (size_t towers = 1; towers <= 6; ++towers) {
            bases.push_back(std::make_unique<RnsBasis>(
                RnsBasis::nttBasis(bits, 1024, towers)));
        }
    }

    Rng rng(24);
    for (const auto &basis : bases) {
        const CrtContext crt(*basis);
        const BigUInt &q = basis->q();
        const size_t L = basis->towers();
        SCOPED_TRACE(testing::Message() << L << " towers, Q of "
                                        << basis->qBits() << " bits");

        // The edges of [0, Q) and of the centring, then random
        // residue vectors.
        const BigUInt half = q >> 1;
        const std::vector<BigUInt> edges = {BigUInt(0), BigUInt(1),
                                            q - BigUInt(1), half,
                                            half + BigUInt(1)};
        CrtContext::TowerPoly towers(L);
        for (const BigUInt &x : edges) {
            const auto r = crt.decompose(x);
            for (size_t t = 0; t < L; ++t)
                towers[t].push_back(r[t]);
        }
        for (int k = 0; k < 64; ++k) {
            for (size_t t = 0; t < L; ++t)
                towers[t].push_back(rng.below128(basis->prime(t)));
        }

        const auto wide = crt.reconstructPoly(towers);
        const auto centred = crt.liftCentred(towers);
        ASSERT_EQ(wide.size(), towers[0].size());
        ASSERT_EQ(centred.size(), towers[0].size());
        for (size_t c = 0; c < wide.size(); ++c) {
            std::vector<u128> r(L);
            for (size_t t = 0; t < L; ++t)
                r[t] = towers[t][c];
            const BigUInt want = bigUIntLift(*basis, r);
            if (c < edges.size()) {
                EXPECT_EQ(want, edges[c]) << "coefficient " << c;
            }
            EXPECT_EQ(crt.reconstruct(r), want) << "coefficient " << c;
            EXPECT_EQ(wide[c], want) << "coefficient " << c;
            EXPECT_EQ(std::bit_cast<uint64_t>(centred[c]),
                      std::bit_cast<uint64_t>(bigUIntCentred(q, want)))
                << "coefficient " << c << ": " << centred[c];
        }
    }
}

TEST(Crt, LiftRejectsMismatchedTowers)
{
    const RnsBasis basis({u128(3), u128(5), u128(7)});
    const CrtContext crt(basis);
    const CrtContext::TowerPoly two(2, std::vector<u128>(4, 0));
    EXPECT_DEATH((void)crt.liftCentred(two), "tower count mismatch");
    CrtContext::TowerPoly ragged(3, std::vector<u128>(4, 0));
    ragged[2].pop_back();
    EXPECT_DEATH((void)crt.reconstructPoly(ragged), "ragged");
}

} // namespace
} // namespace rpu
