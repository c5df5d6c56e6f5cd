/**
 * @file
 * Integration of the RNS and NTT layers: the paper's Fig. 1 pipeline
 * decomposes wide-modulus polynomials into towers, multiplies each
 * tower independently with NTTs, and reconstructs via CRT. This must
 * equal the wide-integer negacyclic product computed directly with
 * BigUInt arithmetic — a cross-layer oracle exercising wide/, rns/,
 * poly/ and (in the RPU variant) codegen/ + sim/ together.
 */

#include <gtest/gtest.h>

#include "rns/crt.hh"
#include "rpu/runner.hh"

namespace rpu {
namespace {

/** Naive negacyclic product over Z_Q with BigUInt coefficients. */
std::vector<BigUInt>
negacyclicMulBig(const BigUInt &q, const std::vector<BigUInt> &a,
                 const std::vector<BigUInt> &b)
{
    const size_t n = a.size();
    std::vector<BigUInt> r(n);
    for (size_t i = 0; i < n; ++i) {
        if (a[i].isZero())
            continue;
        for (size_t j = 0; j < n; ++j) {
            const BigUInt p = (a[i] * b[j]) % q;
            const size_t k = i + j;
            if (k < n) {
                r[k] = (r[k] + p) % q;
            } else {
                // x^n == -1: subtract, i.e. add q - p.
                r[k - n] = (r[k - n] + (q - p)) % q;
            }
        }
    }
    return r;
}

class RnsNttIntegration : public testing::TestWithParam<size_t>
{
};

TEST_P(RnsNttIntegration, TowerProductsReconstructToWideProduct)
{
    const size_t towers = GetParam();
    const uint64_t n = 64; // keep the O(n^2) BigUInt oracle fast
    const RnsBasis basis = RnsBasis::nttBasis(60, n, towers);
    const CrtContext crt(basis);

    // Random wide-coefficient polynomials mod Q.
    Rng rng(towers * 7);
    std::vector<BigUInt> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = (BigUInt::fromU128(rng.next128()) *
                BigUInt::fromU128(rng.next128())) % basis.q();
        b[i] = (BigUInt::fromU128(rng.next128()) *
                BigUInt::fromU128(rng.next128())) % basis.q();
    }

    // Tower-wise NTT products.
    const auto ta = crt.decomposePoly(a);
    const auto tb = crt.decomposePoly(b);
    CrtContext::TowerPoly tr(towers);
    for (size_t t = 0; t < towers; ++t) {
        const Modulus &mod = basis.modulus(t);
        const TwiddleTable tw(mod, n);
        const NttContext ntt(tw);
        tr[t] = negacyclicMulNtt(ntt, ta[t], tb[t]);
    }

    EXPECT_EQ(crt.reconstructPoly(tr),
              negacyclicMulBig(basis.q(), a, b));
}

INSTANTIATE_TEST_SUITE_P(TowerCounts, RnsNttIntegration,
                         testing::Values(1u, 2u, 3u, 5u));

TEST(RnsNttIntegration, WideProductOnTheRpu)
{
    // Same property with the tower products executed by generated
    // B512 kernels on the functional simulator: the full Fig. 1
    // compute path on the RPU.
    const uint64_t n = 1024;
    const size_t towers = 2;
    const RnsBasis basis = RnsBasis::nttBasis(60, n, towers);
    const CrtContext crt(basis);

    Rng rng(11);
    std::vector<BigUInt> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = BigUInt::fromU128(rng.next128()) % basis.q();
        b[i] = BigUInt::fromU128(rng.next128()) % basis.q();
    }
    const auto ta = crt.decomposePoly(a);
    const auto tb = crt.decomposePoly(b);

    CrtContext::TowerPoly tr(towers);
    for (size_t t = 0; t < towers; ++t) {
        NttRunner runner =
            NttRunner::withModulus(n, basis.prime(t));
        const KernelImage kernel = runner.makePolyMulKernel();
        tr[t] = runner.executePolyMul(kernel, ta[t], tb[t]);
    }
    const auto via_rpu = crt.reconstructPoly(tr);

    // Reference: tower products with the host reference NTT.
    CrtContext::TowerPoly ref(towers);
    for (size_t t = 0; t < towers; ++t) {
        const TwiddleTable tw(basis.modulus(t), n);
        const NttContext ntt(tw);
        ref[t] = negacyclicMulNtt(ntt, ta[t], tb[t]);
    }
    EXPECT_EQ(via_rpu, crt.reconstructPoly(ref));
}

TEST(RnsNttIntegration, ThirteenTowerExample)
{
    // The paper's section II-B example: a very wide modulus split
    // into many towers of (up to) 128-bit elements. 13 towers of
    // 120-bit primes give a ~1560-bit composite modulus.
    const RnsBasis basis = RnsBasis::nttBasis(120, 1024, 13);
    EXPECT_EQ(basis.towers(), 13u);
    EXPECT_GE(basis.qBits(), 13 * 119u);
    const CrtContext crt(basis);
    Rng rng(13);
    BigUInt x;
    for (int i = 0; i < 13; ++i)
        x = (x << 100) + BigUInt::fromU128(rng.next128());
    x = x % basis.q();
    EXPECT_EQ(crt.reconstruct(crt.decompose(x)), x);
}

} // namespace
} // namespace rpu
