/**
 * @file
 * RNS-resident BFV scheme tests: encrypt/decrypt round trips,
 * homomorphic addition/subtraction, plaintext multiplication,
 * noise-budget behaviour, bit-identity of the Eval-resident tower
 * path against the retained wide-modulus reference decrypt on every
 * backend, and the chained-op transform ledger (zero device forward
 * NTTs after encryption).
 */

#include <gtest/gtest.h>

#include "rlwe/bfv.hh"
#include "rlwe_test_util.hh"
#include "rpu/device.hh"
#include "wide/biguint.hh"

namespace rpu {
namespace {

using testutil::naiveNegacyclicModT;

RlweParams
smallParams()
{
    RlweParams p;
    p.n = 1024;
    p.towers = 2;
    p.towerBits = 50; // q ~ 2^100, the pre-RNS default width
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

TEST(Bfv, EncryptDecryptRoundTrip)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto msg = randomMessage(ctx.params(), seed);
        const Ciphertext ct = ctx.encrypt(sk, msg);
        // Born evaluation-resident, over the full chain.
        EXPECT_EQ(ct.domain(), ResidueDomain::Eval);
        EXPECT_EQ(ct.towers(), ctx.params().towers);
        EXPECT_EQ(ctx.decrypt(sk, ct), msg);
    }
}

TEST(Bfv, CoeffResidentCiphertextDecryptsIdentically)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto msg = randomMessage(ctx.params(), 21);
    Ciphertext ct = ctx.encrypt(sk, msg);
    Ciphertext coeff = ct;
    ctx.toCoeff(coeff);
    EXPECT_EQ(coeff.domain(), ResidueDomain::Coeff);
    EXPECT_EQ(ctx.decrypt(sk, coeff), msg);
    // And the round trip restores the towers bit for bit.
    ctx.toEval(coeff);
    EXPECT_EQ(coeff.c0, ct.c0);
    EXPECT_EQ(coeff.c1, ct.c1);
}

TEST(Bfv, CiphertextIsNotPlaintext)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto msg = randomMessage(ctx.params(), 4);
    Ciphertext ct = ctx.encrypt(sk, msg);
    ctx.toCoeff(ct);

    // c0 alone must not decode to the message (it is masked by a*s):
    // reconstruct it wide and peel the message estimate off Delta.
    const std::vector<BigUInt> c0w =
        ctx.crt().reconstructPoly(ct.c0.towers);
    const uint64_t t = ctx.params().plaintextModulus;
    size_t matches = 0;
    for (size_t i = 0; i < msg.size(); ++i) {
        const uint64_t est =
            ((c0w[i] / ctx.delta()) % BigUInt(t)).low64();
        if (est == msg[i])
            ++matches;
    }
    EXPECT_LT(matches, msg.size() / 4);
}

TEST(Bfv, WrongKeyFails)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const SecretKey other = ctx.keygen();
    const auto msg = randomMessage(ctx.params(), 5);
    const Ciphertext ct = ctx.encrypt(sk, msg);
    EXPECT_NE(ctx.decrypt(other, ct), msg);
}

TEST(Bfv, HomomorphicAddition)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto a = randomMessage(ctx.params(), 6);
    const auto b = randomMessage(ctx.params(), 7);
    const Ciphertext sum = ctx.add(ctx.encrypt(sk, a), ctx.encrypt(sk, b));

    std::vector<uint64_t> expected(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        expected[i] = (a[i] + b[i]) % ctx.params().plaintextModulus;
    EXPECT_EQ(ctx.decrypt(sk, sum), expected);
}

TEST(Bfv, HomomorphicSubtraction)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto a = randomMessage(ctx.params(), 8);
    const auto b = randomMessage(ctx.params(), 9);
    const Ciphertext diff =
        ctx.sub(ctx.encrypt(sk, a), ctx.encrypt(sk, b));

    const uint64_t t = ctx.params().plaintextModulus;
    std::vector<uint64_t> expected(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        expected[i] = (a[i] + t - b[i]) % t;
    EXPECT_EQ(ctx.decrypt(sk, diff), expected);
}

TEST(Bfv, ManyAdditionsStayDecryptable)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto base = randomMessage(ctx.params(), 10);
    Ciphertext acc = ctx.encrypt(sk, base);
    std::vector<uint64_t> expected = base;
    for (int round = 0; round < 16; ++round) {
        const auto m = randomMessage(ctx.params(), 100 + round);
        acc = ctx.add(acc, ctx.encrypt(sk, m));
        for (size_t i = 0; i < expected.size(); ++i)
            expected[i] =
                (expected[i] + m[i]) % ctx.params().plaintextModulus;
    }
    EXPECT_EQ(ctx.decrypt(sk, acc), expected);
}

TEST(Bfv, PlaintextMultiplyByMonomial)
{
    // Multiplying by x rotates coefficients with a negacyclic sign
    // flip; with messages reduced mod t the wrap becomes t - m.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto msg = randomMessage(ctx.params(), 11);

    std::vector<uint64_t> monomial(ctx.params().n, 0);
    monomial[1] = 1; // x
    const Ciphertext prod =
        ctx.mulPlain(ctx.encrypt(sk, msg), monomial);
    const auto got = ctx.decrypt(sk, prod);

    const uint64_t t = ctx.params().plaintextModulus;
    for (size_t i = 1; i < msg.size(); ++i)
        EXPECT_EQ(got[i], msg[i - 1]) << i;
    EXPECT_EQ(got[0], (t - msg.back()) % t);
}

TEST(Bfv, PlaintextMultiplyByConstant)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto msg = randomMessage(ctx.params(), 12);

    std::vector<uint64_t> three(ctx.params().n, 0);
    three[0] = 3;
    const auto got = ctx.decrypt(sk, ctx.mulPlain(ctx.encrypt(sk, msg),
                                                  three));
    for (size_t i = 0; i < msg.size(); ++i)
        EXPECT_EQ(got[i], (3 * msg[i]) % ctx.params().plaintextModulus);
}

TEST(Bfv, NoiseBudgetDecreasesWithWork)
{
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto msg = randomMessage(ctx.params(), 13);
    const Ciphertext fresh = ctx.encrypt(sk, msg);
    const double fresh_budget = ctx.noiseBudgetBits(sk, fresh, msg);
    EXPECT_GT(fresh_budget, 20.0);

    // Plaintext multiplication grows noise by ~log2(n * t) bits; use
    // a sparse plaintext so the naive expected product stays cheap.
    std::vector<uint64_t> plain(ctx.params().n, 0);
    plain[0] = 12345;
    plain[7] = 321;
    plain[500] = 65000;
    const Ciphertext worked = ctx.mulPlain(fresh, plain);
    const auto expected = naiveNegacyclicModT(
        msg, plain, ctx.params().plaintextModulus);

    const double worked_budget =
        ctx.noiseBudgetBits(sk, worked, expected);
    EXPECT_LT(worked_budget, fresh_budget);
    EXPECT_GT(worked_budget, 0.0); // still decryptable
    EXPECT_EQ(ctx.decrypt(sk, worked), expected);
}

TEST(RlweParams, Validation)
{
    RlweParams p = smallParams();
    p.n = 1000; // not a power of two
    EXPECT_EXIT(p.validate(), testing::ExitedWithCode(1), "power of two");
    p = smallParams();
    p.towers = 0;
    EXPECT_EXIT(p.validate(), testing::ExitedWithCode(1), "tower");
    p = smallParams();
    p.towerBits = 20;
    EXPECT_EXIT(p.validate(), testing::ExitedWithCode(1), "towerBits");
}

// ----------------------------------------------------------------------
// RNS residency: the Eval-resident tower path vs the wide reference
// ----------------------------------------------------------------------

/**
 * The chained workload the RNS-resident representation exists for:
 * encrypt -> add -> mulPlain -> add against a once-encoded plaintext.
 */
Ciphertext
chainedOps(const BfvContext &ctx, const Ciphertext &ct_a,
           const Ciphertext &ct_b, const BfvPlaintext &pt)
{
    return ctx.add(ctx.mulPlain(ctx.add(ct_a, ct_b), pt), ct_b);
}

std::vector<uint64_t>
chainedExpected(const BfvContext &ctx, const std::vector<uint64_t> &a,
                const std::vector<uint64_t> &b,
                const std::vector<uint64_t> &p)
{
    const uint64_t t = ctx.params().plaintextModulus;
    std::vector<uint64_t> sum(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        sum[i] = (a[i] + b[i]) % t;
    std::vector<uint64_t> out = naiveNegacyclicModT(sum, p, t);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = (out[i] + b[i]) % t;
    return out;
}

TEST(BfvResidency, WideReferenceDecryptMatchesRnsDecryptOnEveryBackend)
{
    // Bit-identity of the Eval-resident tower path against the
    // retained wide-modulus reference decrypt (which reconstructs
    // both components first and never touches the per-tower NTT
    // path), across the host path, the functional simulator and the
    // CPU reference backend — and tower bit-identity of the chained
    // ciphertexts across all three.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto a = randomMessage(ctx.params(), 31);
    const auto b = randomMessage(ctx.params(), 32);
    std::vector<uint64_t> p(ctx.params().n, 0);
    p[0] = 3;
    p[1] = 65535;
    p[900] = 17;

    const Ciphertext ct_a = ctx.encrypt(sk, a);
    const Ciphertext ct_b = ctx.encrypt(sk, b);
    const auto expected = chainedExpected(ctx, a, b, p);

    // Host path (no device).
    const Ciphertext host_ct =
        chainedOps(ctx, ct_a, ct_b, ctx.encodePlain(p));
    const auto host_plain = ctx.decrypt(sk, host_ct);
    EXPECT_EQ(host_plain, expected);
    EXPECT_EQ(ctx.decryptWideReference(sk, host_ct), host_plain);

    const auto run_device = [&](std::shared_ptr<RpuDevice> device,
                                const char *label) {
        ctx.attachDevice(device);
        const Ciphertext ct =
            chainedOps(ctx, ct_a, ct_b, ctx.encodePlain(p));
        ASSERT_EQ(ct.towers(), host_ct.towers()) << label;
        for (size_t t = 0; t < ct.towers(); ++t) {
            EXPECT_EQ(ct.c0.towers[t], host_ct.c0.towers[t])
                << label << " tower " << t;
            EXPECT_EQ(ct.c1.towers[t], host_ct.c1.towers[t])
                << label << " tower " << t;
        }
        const auto got = ctx.decrypt(sk, ct);
        EXPECT_EQ(got, expected) << label;
        EXPECT_EQ(ctx.decryptWideReference(sk, ct), got) << label;
    };
    run_device(std::make_shared<RpuDevice>(), "functional-sim");
    run_device(std::make_shared<RpuDevice>(
                   std::make_unique<CpuReferenceBackend>()),
               "cpu-reference");
}

TEST(BfvResidency, ChainedBfvAddMulPlainIssuesMinimalTransforms)
{
    // The acceptance check for BFV RNS residency: across a chained
    // encrypt -> add -> mulPlain -> add against a pre-encoded
    // plaintext, the device issues *zero* forward (and inverse) NTT
    // launches — the adds are host tower arithmetic, the multiply is
    // one tiled pointwise launch — while the elision ledger records the
    // conversions the old wide-modulus representation used to pay on
    // every single product.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();
    const auto a = randomMessage(ctx.params(), 41);
    const auto b = randomMessage(ctx.params(), 42);
    std::vector<uint64_t> p(ctx.params().n, 0);
    p[0] = 2;
    p[3] = 1;

    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);

    // Setup: encode once (the plaintext's only transform) + encrypt
    // (host-side; the device issues no launch at all).
    const BfvPlaintext pt = ctx.encodePlain(p);
    const Ciphertext ct_a = ctx.encrypt(sk, a);
    const Ciphertext ct_b = ctx.encrypt(sk, b);

    device->resetCounters();
    const Ciphertext out = chainedOps(ctx, ct_a, ct_b, pt);

    const size_t L = ctx.params().towers;
    const DeviceStats s = device->stats();
    EXPECT_EQ(s.forwardTransforms, 0u)
        << "a forward NTT ran inside the chained hot path";
    EXPECT_EQ(s.inverseTransforms, 0u)
        << "an inverse NTT ran inside the chained hot path";
    EXPECT_EQ(s.pointwiseMuls, 2 * L);
    // 2 -> 1: serial path now tiles across items (both components in
    // one pointwise launch).
    EXPECT_EQ(s.launches, 1u);
    EXPECT_EQ(s.transformsElided, 2 * L);

    // And the chain still computes (a+b)*p + b mod t.
    EXPECT_EQ(ctx.decrypt(sk, out), chainedExpected(ctx, a, b, p));
}

TEST(BfvResidency, EncodePlainPaysExactlyOneBatchedForwardTransform)
{
    BfvContext ctx(smallParams());
    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);

    std::vector<uint64_t> p(ctx.params().n, 7);
    device->resetCounters();
    const BfvPlaintext pt = ctx.encodePlain(p);
    EXPECT_TRUE(pt.rp.inEval());

    const size_t L = ctx.params().towers;
    const DeviceStats s = device->stats();
    EXPECT_EQ(s.launches, 1u);
    EXPECT_EQ(s.forwardTransforms, L);
    EXPECT_EQ(s.inverseTransforms, 0u);
}

} // namespace
} // namespace rpu
