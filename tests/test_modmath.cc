/**
 * @file
 * Modular-arithmetic tests: the preinverted-division multiply, the
 * Montgomery twiddle path and add/sub against the binary-long-division
 * oracle (every modulus width, unreduced operands), primality testing
 * against known primes/composites, and NTT-friendly prime generation
 * invariants.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "modmath/mod64.hh"
#include "modmath/modulus.hh"
#include "modmath/primality.hh"
#include "modmath/primegen.hh"
#include "wide/u256.hh"

namespace rpu {
namespace {

/** Independent multiply oracle: full product then long division. */
u128
mulOracle(u128 a, u128 b, u128 q)
{
    return mod256by128(mulWide(a % q, b % q), q);
}

class ModulusWidths : public testing::TestWithParam<unsigned>
{
};

TEST_P(ModulusWidths, MulMatchesOracle)
{
    const unsigned bits = GetParam();
    Rng rng(bits);
    for (int trial = 0; trial < 20; ++trial) {
        u128 q = rng.next128() | 1;
        if (bits < 128)
            q = (q % ((u128(1) << bits) - 3)) + 3;
        q |= 1;
        const Modulus mod(q);
        for (int i = 0; i < 50; ++i) {
            const u128 a = rng.below128(q);
            const u128 b = rng.below128(q);
            EXPECT_EQ(mod.mul(a, b), mulOracle(a, b, q));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, ModulusWidths,
                         testing::Values(8u, 16u, 31u, 62u, 64u, 100u,
                                         127u, 128u));

TEST(Modulus, AddSub)
{
    Rng rng(3);
    for (int t = 0; t < 50; ++t) {
        const u128 q = rng.next128() | 1;
        const Modulus mod(q);
        const u128 a = rng.below128(q);
        const u128 b = rng.below128(q);
        const u128 s = mod.add(a, b);
        EXPECT_LT(s, q);
        EXPECT_EQ(mod.sub(s, b), a);
        EXPECT_EQ(mod.sub(a, a), u128(0));
        EXPECT_EQ(mod.add(a, mod.neg(a)), u128(0));
    }
}

TEST(Modulus, AddHandles128BitOverflow)
{
    // q close to 2^128: a + b wraps the native type.
    const u128 q = ~u128(0) - 158; // odd
    const Modulus mod(q);
    const u128 a = q - 1;
    const u128 b = q - 2;
    EXPECT_EQ(mod.add(a, b), mulOracle(1, (q - 3) % q, q));
}

TEST(Modulus, EvenModulusGenericPath)
{
    Rng rng(4);
    for (int t = 0; t < 10; ++t) {
        const u128 q = (rng.next128() | 2) & ~u128(1);
        const Modulus mod(q);
        for (int i = 0; i < 20; ++i) {
            const u128 a = rng.below128(q);
            const u128 b = rng.below128(q);
            EXPECT_EQ(mod.mul(a, b), mulOracle(a, b, q));
        }
    }
}

// -- Every width, odd and even, arbitrary (unreduced) operands --------

/** a + b for a reduced pair, by the 256-bit oracle. */
u128
addOracle(u128 a, u128 b, u128 q)
{
    U256 sum = U256::fromU128(a);
    addWithCarry(sum, U256::fromU128(b));
    return mod256by128(sum, q);
}

/**
 * add() on any inputs: the 129-bit sum less q when it reaches q,
 * truncated to 128 bits (one conditional subtraction).
 */
u128
addOneSubtraction(u128 a, u128 b, u128 q)
{
    U256 sum = U256::fromU128(a);
    addWithCarry(sum, U256::fromU128(b));
    if (sum >= U256::fromU128(q))
        subWithBorrow(sum, U256::fromU128(q));
    return sum.lo;
}

/** sub() on any inputs: a - b, plus q when a < b, mod 2^128. */
u128
subOneAddition(u128 a, u128 b, u128 q)
{
    U256 diff = U256::fromU128(a);
    if (a < b)
        addWithCarry(diff, U256::fromU128(q));
    subWithBorrow(diff, U256::fromU128(b));
    return diff.lo;
}

/** A few moduli of exactly @p bits bits, odd and even. */
std::vector<u128>
modulusSample(unsigned bits, Rng &rng)
{
    const u128 top = u128(1) << (bits - 1);
    const u128 low = bits == 128 ? ~u128(0) >> 1 : top - 1;
    std::vector<u128> qs = {top, top | low, top | 1};
    for (int i = 0; i < 2; ++i) {
        const u128 q = top | (rng.next128() & low);
        qs.push_back(q | 1);
        qs.push_back(q & ~u128(1));
    }
    return qs;
}

/**
 * Operands that stress the reduction: edges around q (q - 1 gives the
 * largest product of reduced operands) and up to 2^128 - 1.
 */
std::vector<u128>
operandSample(u128 q, Rng &rng)
{
    std::vector<u128> ops = {0,     1,     q - 1,        q,
                             q + 1, 2 * q, ~u128(0) - 1, ~u128(0)};
    for (int i = 0; i < 4; ++i) {
        ops.push_back(rng.below128(q));     // reduced
        ops.push_back(rng.next128());       // anywhere
        ops.push_back(q + rng.below128(q)); // in [q, 2q), mod 2^128
    }
    return ops;
}

/** Check every operation on one modulus against the oracles. */
void
expectExactOn(u128 q, Rng &rng)
{
    const Modulus mod(q);
    const std::vector<u128> ops = operandSample(q, rng);
    for (u128 a : ops) {
        EXPECT_EQ(mod.reduce(a), mod256by128(U256::fromU128(a), q));
        for (u128 b : ops) {
            ASSERT_EQ(mod.mul(a, b), mod256by128(mulWide(a, b), q))
                << "q=" << uint64_t(q >> 64) << ":" << uint64_t(q);
            EXPECT_EQ(mod.add(a, b), addOneSubtraction(a, b, q));
            EXPECT_EQ(mod.sub(a, b), subOneAddition(a, b, q));
            if (a < q && b < q) {
                EXPECT_EQ(mod.add(a, b), addOracle(a, b, q));
            }
        }
    }
}

TEST(ModulusOracle, EveryWidthOddAndEvenAnyOperands)
{
    Rng rng(11);
    for (unsigned bits = 2; bits <= 128; ++bits)
        for (u128 q : modulusSample(bits, rng))
            expectExactOn(q, rng);
    // Named edges: 2^64 +- small, either side of 2^127, near 2^128.
    const u128 two64 = u128(1) << 64;
    const u128 two127 = u128(1) << 127;
    for (u128 q : {two64 - 59, two64 + 13, two127 - 1, two127 + 1,
                   ~u128(0) - 158, ~u128(0) - 1})
        expectExactOn(q, rng);
    // The design sweep's primes are full-width, so its products take
    // mul()'s shift-free branch.
    for (uint64_t n : {1024u, 4096u, 16384u, 65536u}) {
        const u128 q = nttPrime(128, n);
        EXPECT_EQ(Modulus(q).bits(), 128u) << "n=" << n;
        expectExactOn(q, rng);
    }
}

TEST(Modulus, PowMatchesRepeatedMul)
{
    const Modulus mod((u128(1) << 61) - 1); // Mersenne prime
    Rng rng(5);
    const u128 a = rng.below128(mod.value());
    u128 acc = 1;
    for (unsigned e = 0; e < 30; ++e) {
        EXPECT_EQ(mod.pow(a, e), acc);
        acc = mod.mul(acc, a);
    }
}

TEST(Modulus, FermatInverse)
{
    const u128 q = nttPrime(80, 1024);
    const Modulus mod(q);
    Rng rng(6);
    for (int i = 0; i < 50; ++i) {
        const u128 a = 1 + rng.below128(q - 1);
        EXPECT_EQ(mod.mul(a, mod.inv(a)), u128(1));
    }
}

TEST(Modulus, MontgomeryFormRoundTrip)
{
    const u128 q = nttPrime(120, 2048);
    const Modulus mod(q);
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        const u128 a = rng.below128(q);
        const u128 b = rng.below128(q);
        // mulMontNormal(toMont(a), b) == a*b mod q
        EXPECT_EQ(mod.mulMontNormal(mod.toMont(a), b), mod.mul(a, b));
    }
}

// ----------------------------------------------------------------------

TEST(Modulus64, MulShoupMatchesPlain)
{
    const Modulus64 mod((uint64_t(1) << 61) - 1);
    Rng rng(8);
    for (int i = 0; i < 200; ++i) {
        const uint64_t w = rng.below64(mod.value());
        const uint64_t a = rng.below64(mod.value());
        const uint64_t ws = mod.shoupPrecompute(w);
        EXPECT_EQ(mod.mulShoup(w, ws, a), mod.mul(w, a));
    }
}

TEST(Modulus64, PowAndInverse)
{
    const Modulus64 mod(0x1fffffffffe00001ull); // 61-bit NTT prime
    Rng rng(9);
    for (int i = 0; i < 20; ++i) {
        const uint64_t a = 1 + rng.below64(mod.value() - 1);
        EXPECT_EQ(mod.mul(a, mod.inv(a)), 1ull);
    }
}

// ----------------------------------------------------------------------

TEST(Primality, KnownSmallPrimes)
{
    for (uint64_t p : {2ull, 3ull, 5ull, 97ull, 101ull, 65537ull})
        EXPECT_TRUE(isPrime(p)) << p;
    for (uint64_t c : {1ull, 4ull, 91ull, 561ull, 41041ull, 825265ull})
        EXPECT_FALSE(isPrime(c)) << c; // includes Carmichael numbers
}

TEST(Primality, KnownLargePrimes)
{
    EXPECT_TRUE(isPrime((u128(1) << 61) - 1));  // Mersenne 61
    EXPECT_TRUE(isPrime((u128(1) << 89) - 1));  // Mersenne 89
    EXPECT_TRUE(isPrime((u128(1) << 107) - 1)); // Mersenne 107
    EXPECT_TRUE(isPrime((u128(1) << 127) - 1)); // Mersenne 127
    EXPECT_FALSE(isPrime((u128(1) << 67) - 1)); // 2^67-1 is composite
    EXPECT_FALSE(isPrime((u128(1) << 83) - 1));
}

TEST(Primality, ProductsOfLargePrimes)
{
    const u128 p1 = (u128(1) << 61) - 1;
    const u128 p2 = (u128(1) << 59) - 55; // random-ish odd composite base
    EXPECT_FALSE(isPrime(p1 * p1));
    EXPECT_FALSE(isPrime(p1 * 3));
    (void)p2;
}

// ----------------------------------------------------------------------

class PrimegenSizes
    : public testing::TestWithParam<std::pair<unsigned, uint64_t>>
{
};

TEST_P(PrimegenSizes, PrimeHasNttForm)
{
    const auto [bits, n] = GetParam();
    const u128 q = nttPrime(bits, n);
    EXPECT_TRUE(isPrime(q));
    EXPECT_EQ((q - 1) % (u128(2) * n), u128(0));
    EXPECT_LT(q, bits == 128 ? ~u128(0) : u128(1) << bits);
    EXPECT_GE(q, u128(1) << (bits - 1)); // full requested width
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PrimegenSizes,
    testing::Values(std::pair{20u, 1024ull}, std::pair{60u, 1024ull},
                    std::pair{60u, 65536ull}, std::pair{124u, 4096ull},
                    std::pair{124u, 65536ull}, std::pair{128u, 65536ull}));

TEST(Primegen, DistinctPrimes)
{
    const auto primes = nttPrimes(62, 4096, 5);
    ASSERT_EQ(primes.size(), 5u);
    for (size_t i = 0; i < primes.size(); ++i) {
        EXPECT_TRUE(isPrime(primes[i]));
        for (size_t j = i + 1; j < primes.size(); ++j)
            EXPECT_NE(primes[i], primes[j]);
    }
}

TEST(Primegen, PrimitiveRootOrder)
{
    for (uint64_t n : {1024ull, 4096ull}) {
        const u128 q = nttPrime(90, n);
        const Modulus mod(q);
        const u128 psi = primitiveRoot2n(q, n);
        // psi^n == -1 and psi^2n == 1: exact order 2n.
        EXPECT_EQ(mod.pow(psi, n), q - 1);
        EXPECT_EQ(mod.pow(psi, u128(2) * n), u128(1));
        EXPECT_NE(mod.pow(psi, n / 2), q - 1);
    }
}

} // namespace
} // namespace rpu
