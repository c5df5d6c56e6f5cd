/**
 * @file
 * Bit-identity and bounds tests for the vectorised host math layer.
 *
 * The narrow (u64) kernel set must be element-for-element identical
 * to the exact u128 `Modulus` arithmetic for canonical inputs — that
 * is the contract that lets RPU_HOST_SIMD switch freely between modes.
 * This file fuzzes every batch kernel against the `Modulus` oracle
 * across ~20 NTT primes of widths spanning the narrow domain, drives the
 * lazy butterfly kernels at their reduction boundaries, checks the
 * transforms stage-for-stage across ring dimensions that cross the
 * cache-blocking tile, and runs full BFV and CKKS pipelines under
 * both modes on every execution backend, demanding bit-identical
 * ciphertexts, decrypts, and device ledgers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "modmath/primegen.hh"
#include "modmath/simd.hh"
#include "poly/ntt.hh"
#include "poly/polynomial.hh"
#include "rlwe/bfv.hh"
#include "rlwe/ckks.hh"
#include "rpu/device.hh"

namespace rpu {
namespace {

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
 * ~20 NTT primes spanning the narrow domain, biased toward the upper
 * boundary (61 bits) where lazy sums are tightest. All satisfy
 * q == 1 (mod 2n) for n = 64 so the same set serves the butterfly
 * kernels with real twiddle factors.
 */
std::vector<uint64_t>
fuzzPrimes()
{
    std::vector<uint64_t> qs;
    for (unsigned bits : {30u, 35u, 40u, 45u, 50u, 55u, 59u, 61u}) {
        for (const u128 q : nttPrimes(bits, 64, bits >= 55 ? 3 : 2))
            qs.push_back(uint64_t(q));
    }
    return qs;
}

/** Span lengths exercising tails: below, at, and across lane widths. */
const std::vector<size_t> kLens = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 100};

/**
 * Canonical fuzz inputs with the boundary classes planted up front:
 * 0, 1, q-1, and the half-modulus pair (the `wide == Q>>1` class).
 */
std::vector<uint64_t>
boundaryVector(size_t len, uint64_t q, Rng &rng)
{
    std::vector<uint64_t> v(len);
    const uint64_t specials[] = {0, 1, q - 1, q >> 1, (q >> 1) + 1};
    for (size_t i = 0; i < len; ++i)
        v[i] = i < 5 ? specials[i] % q : uint64_t(rng.below128(q));
    return v;
}

TEST(NarrowModulus, ConstantsMatchOracle)
{
    for (const uint64_t q : fuzzPrimes()) {
        const simd::NarrowModulus nm(q);
        const Modulus mod(q);
        EXPECT_EQ(q * nm.qInvNeg, uint64_t(0) - 1) << "q=" << q;
        EXPECT_EQ(u128(nm.r2), mod.pow(2, 128)) << "q=" << q;

        Rng rng(q);
        const uint64_t vals[] = {0, 1, q - 1, q >> 1,
                                 uint64_t(rng.below128(q)),
                                 uint64_t(rng.below128(q))};
        for (const uint64_t a : vals) {
            for (const uint64_t b : vals) {
                EXPECT_EQ(u128(simd::mulMontMod64(a, b, nm)),
                          mod.mul(a, b))
                    << "q=" << q << " a=" << a << " b=" << b;
            }
        }
    }
}

TEST(NarrowKernels, SpansMatchU128Reference)
{
    for (const uint64_t q : fuzzPrimes()) {
        const simd::NarrowModulus nm(q);
        const Modulus mod(q);
        Rng rng(q ^ 0x5eed);
        for (const size_t len : kLens) {
            const auto a = boundaryVector(len, q, rng);
            const auto b = boundaryVector(len, q, rng);
            const uint64_t w = uint64_t(rng.below128(q));
            const uint64_t ws = simd::shoupPrecompute64(w, q);

            std::vector<uint64_t> out(len), sum(len), diff(len);
            simd::mulModSpan(a.data(), b.data(), out.data(), len, nm);
            for (size_t i = 0; i < len; ++i)
                EXPECT_EQ(u128(out[i]), mod.mul(a[i], b[i]))
                    << "q=" << q << " len=" << len << " i=" << i;

            simd::addModSpan(a.data(), b.data(), out.data(), len, q);
            for (size_t i = 0; i < len; ++i)
                EXPECT_EQ(u128(out[i]), mod.add(a[i], b[i]));

            simd::subModSpan(a.data(), b.data(), out.data(), len, q);
            for (size_t i = 0; i < len; ++i)
                EXPECT_EQ(u128(out[i]), mod.sub(a[i], b[i]));

            simd::mulShoupSpan(a.data(), out.data(), len, w, ws, q);
            for (size_t i = 0; i < len; ++i)
                EXPECT_EQ(u128(out[i]), mod.mul(w, a[i]));

            simd::butterflyMulModSpan(a.data(), b.data(), a.data(),
                                      sum.data(), diff.data(), len, nm);
            for (size_t i = 0; i < len; ++i) {
                const u128 t = mod.mul(a[i], b[i]);
                EXPECT_EQ(u128(sum[i]), mod.add(a[i], t));
                EXPECT_EQ(u128(diff[i]), mod.sub(a[i], t));
            }
        }
    }
}

TEST(NarrowKernels, LazyButterflyBoundsAtDomainEdges)
{
    // The lazy kernels accept the *unreduced* inter-stage domains:
    // [0, 4q) into a forward pass, [0, 2q) into an inverse pass. Feed
    // the extreme representatives directly and check both the output
    // bounds and the values mod q.
    for (const uint64_t q : fuzzPrimes()) {
        if (q >= (uint64_t(1) << 61))
            continue; // 4q-1 must fit the test's value list in u64
        const Modulus mod(q);
        Rng rng(q ^ 0xb0b);
        const uint64_t w = uint64_t(rng.below128(q));
        const uint64_t ws = simd::shoupPrecompute64(w, q);

        const size_t len = 9; // vector body plus tail on every ISA
        std::vector<uint64_t> lo(len), hi(len);
        const uint64_t edges[] = {0,         1,         q - 1,
                                  q,         2 * q - 1, 2 * q,
                                  4 * q - 1, q >> 1,    3 * q};
        for (size_t i = 0; i < len; ++i) {
            lo[i] = edges[i];
            hi[i] = edges[len - 1 - i];
        }

        auto flo = lo, fhi = hi;
        simd::forwardButterflyLazySpan(flo.data(), fhi.data(), len, w,
                                       ws, q);
        for (size_t i = 0; i < len; ++i) {
            ASSERT_LT(flo[i], 4 * q);
            ASSERT_LT(fhi[i], 4 * q);
            const u128 t = mod.mul(w, mod.reduce(hi[i]));
            EXPECT_EQ(mod.reduce(flo[i]),
                      mod.add(mod.reduce(lo[i]), t));
            EXPECT_EQ(mod.reduce(fhi[i]),
                      mod.sub(mod.reduce(lo[i]), t));
        }
        simd::canonicalizeSpan(flo.data(), len, q);
        for (size_t i = 0; i < len; ++i)
            EXPECT_LT(flo[i], q);

        std::vector<uint64_t> ilo(len), ihi(len);
        for (size_t i = 0; i < len; ++i) {
            ilo[i] = edges[i] % (2 * q); // inverse domain is [0, 2q)
            ihi[i] = edges[len - 1 - i] % (2 * q);
        }
        auto glo = ilo, ghi = ihi;
        simd::inverseButterflyLazySpan(glo.data(), ghi.data(), len, w,
                                       ws, q);
        for (size_t i = 0; i < len; ++i) {
            ASSERT_LT(glo[i], 2 * q);
            ASSERT_LT(ghi[i], 2 * q);
            const u128 a = mod.reduce(ilo[i]);
            const u128 b = mod.reduce(ihi[i]);
            EXPECT_EQ(mod.reduce(glo[i]), mod.add(a, b));
            EXPECT_EQ(mod.reduce(ghi[i]), mod.mul(w, mod.sub(a, b)));
        }
    }
}

TEST(NttModes, TransformsBitIdenticalAcrossTileBoundary)
{
    // n = 8192 crosses the kNttTileElems cache-blocking boundary;
    // the small sizes exercise the single-block degenerate case.
    for (const uint64_t n : {4ull, 8ull, 1024ull, 4096ull, 8192ull}) {
        const Modulus mod(nttPrime(45, n));
        const TwiddleTable tw(mod, n);
        const NttContext ctx(tw);
        Rng rng(n);
        const auto x = randomPoly(mod, n, rng);

        std::vector<u128> fwd_s = x, fwd_v = x;
        {
            ModeGuard g(simd::HostSimdMode::Scalar);
            EXPECT_FALSE(ctx.narrowPathActive());
            ctx.forward(fwd_s);
        }
        {
            ModeGuard g(simd::HostSimdMode::Native);
            EXPECT_TRUE(ctx.narrowPathActive());
            ctx.forward(fwd_v);
        }
        EXPECT_EQ(fwd_s, fwd_v) << "n=" << n;

        std::vector<u128> inv_s = fwd_s, inv_v = fwd_s;
        {
            ModeGuard g(simd::HostSimdMode::Scalar);
            ctx.inverse(inv_s);
        }
        {
            ModeGuard g(simd::HostSimdMode::Native);
            ctx.inverse(inv_v);
        }
        EXPECT_EQ(inv_s, inv_v) << "n=" << n;
        EXPECT_EQ(inv_v, x) << "round trip must be the identity";

        // And the always-scalar plain variant agrees with both.
        std::vector<u128> plain = x;
        ctx.forwardPlain(plain);
        EXPECT_EQ(plain, fwd_v);
    }
}

TEST(NttModes, WideModulusStaysOnScalarPathInNativeMode)
{
    // A 100-bit prime is outside the narrow domain: native mode must
    // keep the u128 reference path (and still be correct).
    const uint64_t n = 64;
    const Modulus mod(nttPrime(100, n));
    ASSERT_EQ(mod.narrow(), nullptr);
    const TwiddleTable tw(mod, n);
    const NttContext ctx(tw);
    ModeGuard g(simd::HostSimdMode::Native);
    EXPECT_FALSE(ctx.narrowPathActive());

    Rng rng(99);
    const auto a = randomPoly(mod, n, rng);
    const auto b = randomPoly(mod, n, rng);
    EXPECT_EQ(negacyclicMulNtt(ctx, a, b),
              negacyclicMulNaive(mod, a, b));
}

TEST(PolyOps, PointwiseAndScaleBitIdenticalAcrossModes)
{
    for (const uint64_t n : {8ull, 1000ull, 1024ull, 1025ull, 4096ull}) {
        const Modulus mod(nttPrime(45, 4096));
        Rng rng(n ^ 0xf00d);
        const auto a = randomPoly(mod, n, rng);
        const auto b = randomPoly(mod, n, rng);
        const u128 s = rng.below128(mod.value());

        std::vector<u128> pw_s, pw_v, sc_s, sc_v;
        {
            ModeGuard g(simd::HostSimdMode::Scalar);
            pw_s = polyPointwise(mod, a, b);
            sc_s = polyScale(mod, s, a);
        }
        {
            ModeGuard g(simd::HostSimdMode::Native);
            pw_v = polyPointwise(mod, a, b);
            sc_v = polyScale(mod, s, a);
        }
        EXPECT_EQ(pw_s, pw_v) << "n=" << n;
        EXPECT_EQ(sc_s, sc_v) << "n=" << n;
    }
}

/** Every counter of two device ledgers must agree. */
void
expectStatsEqual(const DeviceStats &a, const DeviceStats &b)
{
    EXPECT_EQ(a.launches, b.launches);
    EXPECT_EQ(a.forwardTransforms, b.forwardTransforms);
    EXPECT_EQ(a.inverseTransforms, b.inverseTransforms);
    EXPECT_EQ(a.pointwiseMuls, b.pointwiseMuls);
    EXPECT_EQ(a.transformsElided, b.transformsElided);
}

/**
 * The full BFV hot path under one mode: fresh contexts (same seeds),
 * encrypt -> add -> mulPlain -> decrypt on the given device. Returns
 * the chain ciphertext (in coefficient form) and the decrypt.
 */
struct BfvRun
{
    Ciphertext chain;
    std::vector<uint64_t> decrypted;
    DeviceStats stats;
};

BfvRun
runBfvChain(simd::HostSimdMode mode, size_t towers,
            const std::shared_ptr<RpuDevice> &device)
{
    ModeGuard g(mode);
    RlweParams params;
    params.n = 1024;
    params.towers = towers;
    params.towerBits = 45;
    params.plaintextModulus = 65537;
    params.noiseBound = 4;

    BfvContext ctx(params, /*seed=*/7);
    if (device) {
        device->resetCounters();
        ctx.attachDevice(device);
    }
    const SecretKey sk = ctx.keygen();

    Rng rng(1234);
    std::vector<uint64_t> a(params.n), b(params.n), p(params.n);
    for (size_t i = 0; i < params.n; ++i) {
        a[i] = rng.below64(params.plaintextModulus);
        b[i] = rng.below64(params.plaintextModulus);
        p[i] = rng.below64(params.plaintextModulus);
    }

    BfvRun run;
    run.chain = ctx.add(
        ctx.mulPlain(ctx.add(ctx.encrypt(sk, a), ctx.encrypt(sk, b)),
                     ctx.encodePlain(p)),
        ctx.encrypt(sk, b));
    run.decrypted = ctx.decrypt(sk, run.chain);
    ctx.toCoeff(run.chain);
    if (device)
        run.stats = device->stats();
    return run;
}

void
expectBfvRunsIdentical(const BfvRun &s, const BfvRun &v)
{
    EXPECT_EQ(s.decrypted, v.decrypted);
    ASSERT_EQ(s.chain.towers(), v.chain.towers());
    EXPECT_EQ(s.chain.c0.towers, v.chain.c0.towers);
    EXPECT_EQ(s.chain.c1.towers, v.chain.c1.towers);
}

TEST(Pipelines, BfvChainBitIdenticalAcrossModesAndBackends)
{
    for (const size_t towers : {size_t(1), size_t(3)}) {
        // Host-only (no device attached).
        const BfvRun host_s =
            runBfvChain(simd::HostSimdMode::Scalar, towers, nullptr);
        const BfvRun host_v =
            runBfvChain(simd::HostSimdMode::Native, towers, nullptr);
        expectBfvRunsIdentical(host_s, host_v);

        // Functional-sim backend, serial and pooled.
        const auto serial = std::make_shared<RpuDevice>();
        const BfvRun ser_s =
            runBfvChain(simd::HostSimdMode::Scalar, towers, serial);
        const BfvRun ser_v =
            runBfvChain(simd::HostSimdMode::Native, towers, serial);
        expectBfvRunsIdentical(ser_s, ser_v);
        expectStatsEqual(ser_s.stats, ser_v.stats);
        expectBfvRunsIdentical(host_s, ser_v);

        const auto pooled = std::make_shared<RpuDevice>();
        pooled->setParallelism(4);
        const BfvRun pool_v =
            runBfvChain(simd::HostSimdMode::Native, towers, pooled);
        expectBfvRunsIdentical(ser_s, pool_v);

        // CPU-reference backend (the non-simulator executor).
        const auto cpuref = std::make_shared<RpuDevice>(
            std::make_unique<CpuReferenceBackend>());
        const BfvRun ref_s =
            runBfvChain(simd::HostSimdMode::Scalar, towers, cpuref);
        const BfvRun ref_v =
            runBfvChain(simd::HostSimdMode::Native, towers, cpuref);
        expectBfvRunsIdentical(ref_s, ref_v);
        expectStatsEqual(ref_s.stats, ref_v.stats);
        expectBfvRunsIdentical(host_s, ref_v);
    }
}

/** CKKS encrypt -> mulPlain -> rescale under one mode. */
CkksCiphertext
runCkksChain(simd::HostSimdMode mode,
             const std::shared_ptr<RpuDevice> &device)
{
    ModeGuard g(mode);
    CkksParams params;
    params.n = 1024;
    params.towers = 3;
    params.towerBits = 45;
    params.scale = 1099511627776.0; // 2^40
    params.noiseBound = 4;

    CkksContext ctx(params, /*seed=*/11);
    if (device)
        ctx.attachDevice(device);
    const CkksSecretKey sk = ctx.keygen();

    std::vector<std::complex<double>> z(ctx.slots()), w(ctx.slots());
    for (size_t i = 0; i < z.size(); ++i) {
        z[i] = std::complex<double>(double(i % 17) / 4.0, double(i % 5) - 2.0);
        w[i] = std::complex<double>(1.5, double(i % 3) / 2.0);
    }
    CkksCiphertext out =
        ctx.rescale(ctx.mulPlain(ctx.encrypt(sk, z), w));
    ctx.toCoeff(out);
    return out;
}

TEST(Pipelines, CkksMulRescaleBitIdenticalAcrossModes)
{
    const CkksCiphertext host_s =
        runCkksChain(simd::HostSimdMode::Scalar, nullptr);
    const CkksCiphertext host_v =
        runCkksChain(simd::HostSimdMode::Native, nullptr);
    ASSERT_EQ(host_s.towers(), host_v.towers());
    EXPECT_EQ(host_s.c0.towers, host_v.c0.towers);
    EXPECT_EQ(host_s.c1.towers, host_v.c1.towers);
    EXPECT_DOUBLE_EQ(host_s.scale, host_v.scale);

    const auto device = std::make_shared<RpuDevice>();
    const CkksCiphertext dev_s =
        runCkksChain(simd::HostSimdMode::Scalar, device);
    const CkksCiphertext dev_v =
        runCkksChain(simd::HostSimdMode::Native, device);
    EXPECT_EQ(dev_s.c0.towers, dev_v.c0.towers);
    EXPECT_EQ(dev_s.c1.towers, dev_v.c1.towers);
    EXPECT_EQ(host_s.c0.towers, dev_v.c0.towers);
    EXPECT_EQ(host_s.c1.towers, dev_v.c1.towers);
}

} // namespace
} // namespace rpu
