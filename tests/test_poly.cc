/**
 * @file
 * Reference NTT tests: round trips, the convolution theorem against a
 * naive negacyclic product, linearity, and agreement between the
 * Montgomery fast path and the plain-arithmetic variant.
 */

#include <gtest/gtest.h>

#include "modmath/primegen.hh"
#include "poly/polynomial.hh"

namespace rpu {
namespace {

struct Ring
{
    std::unique_ptr<Modulus> mod;
    std::unique_ptr<TwiddleTable> tw;
    std::unique_ptr<NttContext> ntt;

    Ring(uint64_t n, unsigned bits)
    {
        mod = std::make_unique<Modulus>(nttPrime(bits, n));
        tw = std::make_unique<TwiddleTable>(*mod, n);
        ntt = std::make_unique<NttContext>(*tw);
    }
};

class NttSizes : public testing::TestWithParam<std::pair<uint64_t, unsigned>>
{
};

TEST_P(NttSizes, ForwardInverseRoundTrip)
{
    const auto [n, bits] = GetParam();
    Ring ring(n, bits);
    Rng rng(n);
    const std::vector<u128> original = randomPoly(*ring.mod, n, rng);
    std::vector<u128> x = original;
    ring.ntt->forward(x);
    EXPECT_NE(x, original); // transform must do something
    ring.ntt->inverse(x);
    EXPECT_EQ(x, original);
}

TEST_P(NttSizes, ConvolutionTheorem)
{
    const auto [n, bits] = GetParam();
    if (n > 2048)
        GTEST_SKIP() << "naive O(n^2) oracle too slow above 2048";
    Ring ring(n, bits);
    Rng rng(n + 1);
    const auto a = randomPoly(*ring.mod, n, rng);
    const auto b = randomPoly(*ring.mod, n, rng);
    EXPECT_EQ(negacyclicMulNtt(*ring.ntt, a, b),
              negacyclicMulNaive(*ring.mod, a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NttSizes,
    testing::Values(std::pair{4ull, 60u}, std::pair{16ull, 60u},
                    std::pair{64ull, 124u}, std::pair{256ull, 124u},
                    std::pair{1024ull, 124u}, std::pair{2048ull, 124u},
                    std::pair{4096ull, 124u}, std::pair{65536ull, 124u}));

TEST(Ntt, PlainAndMontgomeryPathsAgree)
{
    // (65536, 128) is the design sweep's ring, where the plain loop's
    // mul() takes the shift-free branch.
    for (auto [n, bits] : {std::pair{1024ull, 124u},
                           std::pair{65536ull, 128u}}) {
        Ring ring(n, bits);
        Rng rng(2);
        std::vector<u128> a = randomPoly(*ring.mod, n, rng);
        std::vector<u128> b = a;
        ring.ntt->forward(a);
        ring.ntt->forwardPlain(b);
        EXPECT_EQ(a, b) << "n=" << n;
        ring.ntt->inverse(a);
        ring.ntt->inversePlain(b);
        EXPECT_EQ(a, b) << "n=" << n;
    }
}

TEST(Ntt, Linearity)
{
    Ring ring(1024, 124);
    Rng rng(3);
    const auto a = randomPoly(*ring.mod, 1024, rng);
    const auto b = randomPoly(*ring.mod, 1024, rng);
    const u128 c = rng.below128(ring.mod->value());

    // NTT(c*a + b) == c*NTT(a) + NTT(b)
    std::vector<u128> lhs =
        polyAdd(*ring.mod, polyScale(*ring.mod, c, a), b);
    ring.ntt->forward(lhs);

    std::vector<u128> fa = a, fb = b;
    ring.ntt->forward(fa);
    ring.ntt->forward(fb);
    const std::vector<u128> rhs =
        polyAdd(*ring.mod, polyScale(*ring.mod, c, fa), fb);
    EXPECT_EQ(lhs, rhs);
}

TEST(Ntt, DeltaTransformsToRootPowers)
{
    // NTT(delta at x^0) = all ones: x^0 evaluates to 1 everywhere.
    Ring ring(1024, 124);
    std::vector<u128> delta(1024, 0);
    delta[0] = 1;
    ring.ntt->forward(delta);
    for (u128 v : delta)
        EXPECT_EQ(v, u128(1));
}

TEST(Ntt, ConstantPolynomial)
{
    // Inverse of the all-ones vector is the delta.
    Ring ring(1024, 124);
    std::vector<u128> ones(1024, 1);
    ring.ntt->inverse(ones);
    EXPECT_EQ(ones[0], u128(1));
    for (size_t i = 1; i < ones.size(); ++i)
        EXPECT_EQ(ones[i], u128(0));
}

TEST(Ntt, NegacyclicWraparound)
{
    // x^(n-1) * x = x^n = -1: the naive and NTT products must agree on
    // the sign flip.
    Ring ring(1024, 124);
    std::vector<u128> a(1024, 0), b(1024, 0);
    a[1023] = 1;
    b[1] = 1;
    const auto prod = negacyclicMulNtt(*ring.ntt, a, b);
    EXPECT_EQ(prod[0], ring.mod->value() - 1); // -1
    for (size_t i = 1; i < prod.size(); ++i)
        EXPECT_EQ(prod[i], u128(0));
}

TEST(Twiddle, TableInvariants)
{
    Ring ring(1024, 124);
    const TwiddleTable &tw = *ring.tw;
    const Modulus &mod = *ring.mod;

    // rootPower(1) = psi^bitrev(1) = psi^(n/2); its square is
    // psi^n = -1 by the negacyclic defining property.
    EXPECT_EQ(mod.mul(tw.rootPower(1), tw.rootPower(1)),
              mod.value() - 1);
    // psi itself sits at the bit-reversed slot of n/2.
    EXPECT_EQ(tw.rootPower(512), tw.psi());
    for (size_t j = 1; j < 32; ++j) {
        EXPECT_EQ(mod.mul(tw.rootPower(j), tw.invRootPower(j)), u128(1));
        EXPECT_EQ(mod.mulMontNormal(tw.rootPowerMont(j), u128(1)),
                  tw.rootPower(j));
    }
    EXPECT_EQ(mod.mul(tw.nInv(), u128(1024) % mod.value()), u128(1));
}

TEST(Poly, AddSubPointwise)
{
    Ring ring(1024, 124);
    Rng rng(4);
    const auto a = randomPoly(*ring.mod, 1024, rng);
    const auto b = randomPoly(*ring.mod, 1024, rng);
    EXPECT_EQ(polySub(*ring.mod, polyAdd(*ring.mod, a, b), b), a);
    const auto p = polyPointwise(*ring.mod, a, b);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(p[i], ring.mod->mul(a[i], b[i]));
}

} // namespace
} // namespace rpu
