/**
 * @file
 * The CKKS subsystem: canonical-embedding encoder round-trips, the
 * RNS-native scheme (encrypt/decrypt, add, mulPlain, rescale), exact
 * RNS rescaling against a wide-integer reference, device-vs-host
 * bit-identity for every homomorphic op that dispatches to the RPU,
 * and the batch forms: a batch of k equals k single calls.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <vector>

#include "rlwe/ckks.hh"
#include "rlwe/ckks_encoder.hh"
#include "rpu/device.hh"
#include "rpu/topology.hh"
#include "wide/biguint.hh"

namespace rpu {
namespace {

using Cplx = std::complex<double>;

/** Deterministic slot values in the unit disc. */
std::vector<Cplx>
randomSlots(size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Cplx> v(count);
    for (auto &z : v)
        z = {2.0 * rng.nextDouble() - 1.0, 2.0 * rng.nextDouble() - 1.0};
    return v;
}

double
maxSlotError(const std::vector<Cplx> &got, const std::vector<Cplx> &want)
{
    EXPECT_EQ(got.size(), want.size());
    double worst = 0.0;
    for (size_t i = 0; i < want.size(); ++i)
        worst = std::max(worst, std::abs(got[i] - want[i]));
    return worst;
}

// ----------------------------------------------------------------------
// Encoder
// ----------------------------------------------------------------------

class EncoderRoundTrip
    : public testing::TestWithParam<std::tuple<uint64_t, double>>
{
};

TEST_P(EncoderRoundTrip, ErrorWithinRoundingBound)
{
    const uint64_t n = std::get<0>(GetParam());
    const double scale = std::get<1>(GetParam());
    CkksEncoder enc(n);
    ASSERT_EQ(enc.slots(), n / 2);

    const auto values = randomSlots(enc.slots(), n + uint64_t(scale));
    const auto coeffs = enc.encode(values, scale);
    const auto decoded = enc.decode(coeffs, scale);

    // Each coefficient rounds by at most 1/2; decoding sums n of them
    // against unit-modulus roots, so n/(2*scale) bounds the error
    // deterministically (the typical error is ~sqrt(n)/(2*scale)).
    const double bound = double(n) / (2.0 * scale) + 1e-9;
    EXPECT_LT(maxSlotError(decoded, values), bound);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndScales, EncoderRoundTrip,
    testing::Combine(testing::Values(1024ull, 2048ull, 4096ull),
                     testing::Values(1073741824.0,      // 2^30
                                     1099511627776.0,   // 2^40
                                     1125899906842624.0 // 2^50
                                     )));

TEST(CkksEncoder, MatchesNaiveEmbeddingEvaluation)
{
    // The twisted-FFT decode must agree with evaluating the
    // polynomial directly at the primitive roots zeta^(5^j).
    const uint64_t n = 16;
    const double scale = 1048576.0; // 2^20
    CkksEncoder enc(n);
    const auto values = randomSlots(enc.slots(), 99);
    const auto coeffs = enc.encode(values, scale);

    const double pi = 3.141592653589793238462643383279502884;
    uint64_t power = 1;
    for (size_t j = 0; j < enc.slots(); ++j) {
        Cplx acc{0.0, 0.0};
        for (uint64_t k = 0; k < n; ++k) {
            const double angle =
                pi * double((power * k) % (2 * n)) / double(n);
            acc += double(coeffs[k]) *
                   Cplx{std::cos(angle), std::sin(angle)};
        }
        const Cplx direct = acc / scale;
        const Cplx via_fft = enc.decode(coeffs, scale)[j];
        EXPECT_LT(std::abs(direct - via_fft), 1e-9)
            << "slot " << j;
        power = (power * 5) % (2 * n);
    }
}

TEST(CkksEncoder, PartialSlotVectorsPadWithZero)
{
    CkksEncoder enc(1024);
    const std::vector<Cplx> two = {{1.5, -0.25}, {0.0, 2.0}};
    const auto decoded =
        enc.decode(enc.encode(two, 1099511627776.0), 1099511627776.0);
    EXPECT_LT(std::abs(decoded[0] - two[0]), 1e-6);
    EXPECT_LT(std::abs(decoded[1] - two[1]), 1e-6);
    for (size_t j = 2; j < enc.slots(); ++j)
        EXPECT_LT(std::abs(decoded[j]), 1e-6) << "slot " << j;
}

// ----------------------------------------------------------------------
// Scheme: host path
// ----------------------------------------------------------------------

CkksParams
smallParams()
{
    CkksParams p;
    p.n = 1024;
    p.towers = 3;
    p.towerBits = 45;
    p.scale = 1099511627776.0; // 2^40
    p.noiseBound = 4;
    return p;
}

/** |got - want| <= 2^-20 * max(1, |want|) on every slot. */
void
expectWithinRelative(const std::vector<Cplx> &got,
                     const std::vector<Cplx> &want)
{
    const double rel = std::ldexp(1.0, -20);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_LE(std::abs(got[i] - want[i]),
                  rel * std::max(1.0, std::abs(want[i])))
            << "slot " << i;
    }
}

TEST(Ckks, EncryptDecryptRoundTrip)
{
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    const auto values = randomSlots(ctx.slots(), 7);

    const CkksCiphertext ct = ctx.encrypt(sk, values);
    EXPECT_EQ(ct.towers(), ctx.params().towers);
    EXPECT_EQ(ct.scale, ctx.params().scale);
    expectWithinRelative(ctx.decrypt(sk, ct), values);
}

TEST(Ckks, HomomorphicAdd)
{
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    const auto za = randomSlots(ctx.slots(), 11);
    const auto zb = randomSlots(ctx.slots(), 13);

    const CkksCiphertext sum =
        ctx.add(ctx.encrypt(sk, za), ctx.encrypt(sk, zb));
    std::vector<Cplx> want(ctx.slots());
    for (size_t i = 0; i < want.size(); ++i)
        want[i] = za[i] + zb[i];
    expectWithinRelative(ctx.decrypt(sk, sum), want);
}

TEST(Ckks, MulPlainAndRescaleApproximateSlotProducts)
{
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    const auto z = randomSlots(ctx.slots(), 17);
    const auto w = randomSlots(ctx.slots(), 19);

    const CkksCiphertext ct = ctx.encrypt(sk, z);
    const CkksCiphertext prod = ctx.mulPlain(ct, w);
    EXPECT_DOUBLE_EQ(prod.scale,
                     ctx.params().scale * ctx.params().scale);

    std::vector<Cplx> want(ctx.slots());
    for (size_t i = 0; i < want.size(); ++i)
        want[i] = z[i] * w[i];
    expectWithinRelative(ctx.decrypt(sk, prod), want);

    // Rescale drops one tower and divides the scale back down; the
    // slots must survive both.
    const CkksCiphertext dropped = ctx.rescale(prod);
    EXPECT_EQ(dropped.towers(), prod.towers() - 1);
    EXPECT_LT(dropped.scale, prod.scale);
    expectWithinRelative(ctx.decrypt(sk, dropped), want);
}

TEST(Ckks, RescaleMatchesWideIntegerReference)
{
    // The RNS rescale must be the exact per-tower image of the
    // wide-integer map V -> (V - centred(V mod q_l)) / q_l.
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    CkksCiphertext ct =
        ctx.mulPlain(ctx.encrypt(sk, randomSlots(ctx.slots(), 23)),
                     randomSlots(ctx.slots(), 29));
    CkksCiphertext scaled = ctx.rescale(ct);

    // The chain runs evaluation-resident; the wide-integer reference
    // speaks coefficients, so compare both in coefficient form.
    ctx.toCoeff(ct);
    ctx.toCoeff(scaled);

    const size_t L = ct.towers();
    const CrtContext &crt = ctx.crt(L);
    const BigUInt &big_q = ctx.prefixBasis(L).q();
    const BigUInt q_l = BigUInt::fromU128(ctx.basis().prime(L - 1));
    const BigUInt half_l = q_l >> 1;

    const std::vector<std::vector<u128>> *comps[2] = {&ct.c0.towers,
                                                      &ct.c1.towers};
    const std::vector<std::vector<u128>> *outs[2] = {&scaled.c0.towers,
                                                     &scaled.c1.towers};
    for (size_t c = 0; c < 2; ++c) {
        for (size_t i = 0; i < ctx.params().n; ++i) {
            std::vector<u128> residues(L);
            for (size_t t = 0; t < L; ++t)
                residues[t] = (*comps[c])[t][i];
            const BigUInt v = crt.reconstruct(residues);

            // Centred remainder mod q_l, then exact division.
            const BigUInt rem = v % q_l;
            BigUInt shifted = v;
            if (rem > half_l)
                shifted = shifted + (q_l - rem);
            else
                shifted = (shifted + big_q) - rem; // stay non-negative
            const auto [quot, exact_rem] = shifted.divmod(q_l);
            ASSERT_TRUE(exact_rem.isZero())
                << "component " << c << " coefficient " << i;

            for (size_t t = 0; t + 1 < L; ++t) {
                const BigUInt qt =
                    BigUInt::fromU128(ctx.basis().prime(t));
                EXPECT_EQ((quot % qt).low128(), (*outs[c])[t][i])
                    << "component " << c << " tower " << t
                    << " coefficient " << i;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Scheme: device path
// ----------------------------------------------------------------------

TEST(CkksOnDevice, MulPlainBitIdenticalToHostOnEveryTower)
{
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    const auto z = randomSlots(ctx.slots(), 31);
    const auto w = randomSlots(ctx.slots(), 37);
    const CkksCiphertext ct = ctx.encrypt(sk, z);
    EXPECT_EQ(ct.domain(), ResidueDomain::Eval);

    const CkksCiphertext via_host = ctx.mulPlain(ct, w); // no device

    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);
    const CkksCiphertext via_rpu = ctx.mulPlain(ct, w);

    ASSERT_EQ(via_rpu.towers(), via_host.towers());
    EXPECT_EQ(via_rpu.domain(), ResidueDomain::Eval);
    for (size_t t = 0; t < via_host.towers(); ++t) {
        EXPECT_EQ(via_rpu.c0.towers[t], via_host.c0.towers[t])
            << "tower " << t;
        EXPECT_EQ(via_rpu.c1.towers[t], via_host.c1.towers[t])
            << "tower " << t;
    }
    EXPECT_DOUBLE_EQ(via_rpu.scale, via_host.scale);

    // The device really did the work, and only the minimal work: one
    // batched forward transform for the plaintext encode, then one
    // tiled pointwise launch for both ciphertext components — the
    // Eval-resident ciphertext itself was never transformed (the
    // elision ledger shows both components skipped).
    const size_t L = ctx.params().towers;
    const DeviceStats s = device->stats();
    // 3 -> 2: the serial path now tiles across items.
    EXPECT_EQ(s.launches, 2u);
    EXPECT_EQ(s.towerLaunches, 3 * L);
    EXPECT_EQ(s.kernelMisses, 2u);
    EXPECT_EQ(s.forwardTransforms, L);
    EXPECT_EQ(s.inverseTransforms, 0u);
    EXPECT_EQ(s.pointwiseMuls, 2 * L);
    EXPECT_EQ(s.transformsElided, 2 * L);

    // And the result decrypts to the slot products.
    std::vector<Cplx> want(ctx.slots());
    for (size_t i = 0; i < want.size(); ++i)
        want[i] = z[i] * w[i];
    expectWithinRelative(ctx.decrypt(sk, via_rpu), want);
}

TEST(CkksOnDevice, RescaleBitIdenticalToHostOnEveryTower)
{
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    const CkksCiphertext prod =
        ctx.mulPlain(ctx.encrypt(sk, randomSlots(ctx.slots(), 41)),
                     randomSlots(ctx.slots(), 43));

    const CkksCiphertext via_host = ctx.rescale(prod); // no device

    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);
    const CkksCiphertext via_rpu = ctx.rescale(prod);

    ASSERT_EQ(via_rpu.towers(), via_host.towers());
    for (size_t t = 0; t < via_host.towers(); ++t) {
        EXPECT_EQ(via_rpu.c0.towers[t], via_host.c0.towers[t])
            << "tower " << t;
        EXPECT_EQ(via_rpu.c1.towers[t], via_host.c1.towers[t])
            << "tower " << t;
    }
    EXPECT_DOUBLE_EQ(via_rpu.scale, via_host.scale);

    // An Eval-resident rescale's only device work is the forced
    // return to coefficients of the *dropped* tower: both components'
    // inverse NTTs in one tiled launch, zero forward transforms.
    const DeviceStats s = device->stats();
    // 2 -> 1: the serial path now tiles across items.
    EXPECT_EQ(s.launches, 1u);
    EXPECT_EQ(s.kernelMisses, 1u);
    EXPECT_EQ(s.inverseTransforms, 2u);
    EXPECT_EQ(s.forwardTransforms, 0u);
}

TEST(CkksOnDevice, RescaleCommutesWithDomainTransitions)
{
    // toCoeff(rescale(Eval ct)) must equal rescale(toCoeff(ct)) bit
    // for bit: the evaluation-domain rescale is the same exact RNS
    // map, just computed without leaving residency.
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    const CkksCiphertext prod =
        ctx.mulPlain(ctx.encrypt(sk, randomSlots(ctx.slots(), 63)),
                     randomSlots(ctx.slots(), 65));
    ASSERT_EQ(prod.domain(), ResidueDomain::Eval);

    CkksCiphertext via_eval = ctx.rescale(prod);
    EXPECT_EQ(via_eval.domain(), ResidueDomain::Eval);
    ctx.toCoeff(via_eval);

    CkksCiphertext coeff_prod = prod;
    ctx.toCoeff(coeff_prod);
    const CkksCiphertext via_coeff = ctx.rescale(coeff_prod);
    EXPECT_EQ(via_coeff.domain(), ResidueDomain::Coeff);

    ASSERT_EQ(via_eval.towers(), via_coeff.towers());
    for (size_t t = 0; t < via_eval.towers(); ++t) {
        EXPECT_EQ(via_eval.c0.towers[t], via_coeff.c0.towers[t])
            << "tower " << t;
        EXPECT_EQ(via_eval.c1.towers[t], via_coeff.c1.towers[t])
            << "tower " << t;
    }
    EXPECT_DOUBLE_EQ(via_eval.scale, via_coeff.scale);
}

TEST(CkksOnDevice, ChainedMulPlainRescaleIssuesMinimalTransforms)
{
    // The acceptance check for evaluation-domain residency: across a
    // chained mulPlain -> rescale -> mulPlain with a pre-encoded
    // plaintext, the device issues *zero* forward-NTT launches —
    // only the rescale's two dropped-tower inverse transforms and
    // the pointwise products — while the elision ledger records the
    // conversions a coefficient-resident system would have paid.
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    const auto z = randomSlots(ctx.slots(), 67);
    const auto w = randomSlots(ctx.slots(), 69);

    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);

    // Setup: encode once (the plaintext's only transform, reused at
    // every level through its tower prefix) and encrypt.
    const CkksPlaintext pt = ctx.encodePlain(w);
    const CkksCiphertext ct = ctx.encrypt(sk, z);

    device->resetCounters();
    const CkksCiphertext p1 = ctx.mulPlain(ct, pt);
    const CkksCiphertext r1 = ctx.rescale(p1);
    const CkksCiphertext p2 = ctx.mulPlain(r1, pt);

    const size_t L = ctx.params().towers;
    const size_t l = L - 1;
    const DeviceStats s = device->stats();
    EXPECT_EQ(s.forwardTransforms, 0u)
        << "a forward NTT ran inside the chained hot path";
    EXPECT_EQ(s.inverseTransforms, 2u); // rescale's dropped tower x2
    EXPECT_EQ(s.pointwiseMuls, 2 * L + 2 * l);
    // 6 -> 3: serial path now tiles across items —
    // pointwise + intt + pointwise, one launch each.
    EXPECT_EQ(s.launches, 3u);
    EXPECT_EQ(s.transformsElided, 2 * L + 2 * l);

    // The chain still computes z * w * w at the right scale.
    std::vector<Cplx> want(ctx.slots());
    for (size_t i = 0; i < want.size(); ++i)
        want[i] = z[i] * w[i] * w[i];
    expectWithinRelative(ctx.decrypt(sk, p2), want);
}

TEST(CkksOnDevice, ParallelDeviceBitIdenticalToSerial)
{
    // The full pipeline — encrypt, device mulPlain, device rescale,
    // decrypt — across worker pools must match the serial device and
    // the host path bit for bit.
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    const auto z = randomSlots(ctx.slots(), 47);
    const auto w = randomSlots(ctx.slots(), 53);
    const CkksCiphertext ct = ctx.encrypt(sk, z);

    const CkksCiphertext host_prod = ctx.mulPlain(ct, w);
    const CkksCiphertext host_scaled = ctx.rescale(host_prod);

    const auto device = std::make_shared<RpuDevice>();
    device->setParallelism(4);
    ctx.attachDevice(device);
    const CkksCiphertext pool_prod = ctx.mulPlain(ct, w);
    const CkksCiphertext pool_scaled = ctx.rescale(pool_prod);

    for (size_t t = 0; t < host_prod.towers(); ++t) {
        EXPECT_EQ(pool_prod.c0.towers[t], host_prod.c0.towers[t])
            << "tower " << t;
        EXPECT_EQ(pool_prod.c1.towers[t], host_prod.c1.towers[t])
            << "tower " << t;
    }
    for (size_t t = 0; t < host_scaled.towers(); ++t) {
        EXPECT_EQ(pool_scaled.c0.towers[t], host_scaled.c0.towers[t])
            << "tower " << t;
        EXPECT_EQ(pool_scaled.c1.towers[t], host_scaled.c1.towers[t])
            << "tower " << t;
    }

    // Parallel mulPlain fans one launch per (component, tower).
    device->setParallelism(1);
    const CkksCiphertext serial_prod = ctx.mulPlain(ct, w);
    for (size_t t = 0; t < serial_prod.towers(); ++t) {
        EXPECT_EQ(serial_prod.c0.towers[t], host_prod.c0.towers[t]);
        EXPECT_EQ(serial_prod.c1.towers[t], host_prod.c1.towers[t]);
    }
}

TEST(CkksOnDevice, CpuReferenceBackendMatchesFunctionalSim)
{
    CkksContext ctx(smallParams());
    const CkksSecretKey sk = ctx.keygen();
    const auto z = randomSlots(ctx.slots(), 59);
    const auto w = randomSlots(ctx.slots(), 61);
    const CkksCiphertext ct = ctx.encrypt(sk, z);

    ctx.attachDevice(std::make_shared<RpuDevice>());
    const CkksCiphertext via_sim = ctx.rescale(ctx.mulPlain(ct, w));

    ctx.attachDevice(std::make_shared<RpuDevice>(
        std::make_unique<CpuReferenceBackend>()));
    const CkksCiphertext via_ref = ctx.rescale(ctx.mulPlain(ct, w));

    for (size_t t = 0; t < via_sim.towers(); ++t) {
        EXPECT_EQ(via_sim.c0.towers[t], via_ref.c0.towers[t])
            << "tower " << t;
        EXPECT_EQ(via_sim.c1.towers[t], via_ref.c1.towers[t])
            << "tower " << t;
    }
}

// ----------------------------------------------------------------------
// Batch forms
// ----------------------------------------------------------------------

void
expectSameCiphertext(const CkksCiphertext &got, const CkksCiphertext &want,
                     const std::string &where)
{
    EXPECT_EQ(got.c0, want.c0) << where;
    EXPECT_EQ(got.c1, want.c1) << where;
    EXPECT_EQ(got.scale, want.scale) << where;
}

/** Launches a batch's declared stages cost: their tile groups. */
uint64_t
declaredLaunches(const std::vector<StageShape> &stages)
{
    uint64_t launches = 0;
    for (const StageShape &stage : stages)
        launches += DispatchTiles::cut(stage.moduli).size();
    return launches;
}

/** Alternate every stage's tile groups across two devices. */
std::vector<std::vector<size_t>>
alternatingPlans(const std::vector<StageShape> &stages)
{
    std::vector<std::vector<size_t>> plans;
    for (const StageShape &stage : stages) {
        plans.emplace_back(DispatchTiles::cut(stage.moduli).size());
        for (size_t g = 0; g < plans.back().size(); ++g)
            plans.back()[g] = g % 2;
    }
    return plans;
}

TEST(CkksBatch, BatchOfKEqualsKSingleCalls)
{
    // Five tenants: one parameter set (one chain), distinct seeds, so
    // distinct secret and relinearisation keys. A batch of k of their
    // operands through one context's batch forms must equal each
    // tenant's own single calls bit for bit — mulPlain->rescale and
    // mulCt->rescale, on serial, pooled and CPU-reference devices and
    // routed across a 2-device topology — and must cost exactly the
    // launches its declared shapes tile into, whatever k is.
    const size_t tenants = 5;
    std::vector<std::unique_ptr<CkksContext>> ctxs;
    std::vector<CkksSecretKey> sks;
    std::vector<RelinKey> rks;
    std::vector<CkksCiphertext> as, bs;
    std::vector<std::vector<Cplx>> ws;
    for (size_t i = 0; i < tenants; ++i) {
        ctxs.push_back(std::make_unique<CkksContext>(smallParams(), 71 + i));
        sks.push_back(ctxs[i]->keygen());
        rks.push_back(ctxs[i]->makeRelinKey(sks[i], 30));
        as.push_back(ctxs[i]->encrypt(sks[i], randomSlots(32, 300 + i)));
        bs.push_back(ctxs[i]->encrypt(sks[i], randomSlots(32, 400 + i)));
        ws.push_back(randomSlots(32, 500 + i));
    }
    const size_t L = smallParams().towers;
    const CkksContext &batch = *ctxs[0];

    enum class Kind { Serial, Pooled, CpuReference, Routed };
    for (const Kind kind :
         {Kind::Serial, Kind::Pooled, Kind::CpuReference, Kind::Routed}) {
        auto topo = std::make_shared<RpuTopology>(2);
        std::shared_ptr<RpuDevice> device = topo->device(0);
        if (kind == Kind::Pooled)
            device->setParallelism(4);
        if (kind == Kind::CpuReference)
            device = std::make_shared<RpuDevice>(
                std::make_unique<CpuReferenceBackend>());
        for (auto &ctx : ctxs)
            ctx->attachDevice(device);

        for (const size_t k : {1, 2, 3, 5}) {
            const std::string where =
                "kind " + std::to_string(int(kind)) + " k " +
                std::to_string(k);
            std::vector<const CkksCiphertext *> va, vb;
            std::vector<const std::vector<Cplx> *> vw;
            std::vector<const RelinKey *> vk;
            for (size_t i = 0; i < k; ++i) {
                va.push_back(&as[i]);
                vb.push_back(&bs[i]);
                vw.push_back(&ws[i]);
                vk.push_back(&rks[i]);
            }

            for (const CkksOp op :
                 {CkksOp::MulPlainRescale, CkksOp::MulCtRescale}) {
                std::vector<CkksCiphertext> want;
                for (size_t i = 0; i < k; ++i) {
                    const CkksContext &own = *ctxs[i];
                    want.push_back(own.rescale(
                        op == CkksOp::MulPlainRescale
                            ? own.mulPlain(as[i], own.encodePlain(ws[i], L))
                            : own.mulCt(as[i], bs[i], rks[i])));
                }

                const std::vector<StageShape> stages =
                    batch.launchShapes(op, k, L, 30);
                std::unique_ptr<DispatchRoute> route;
                if (kind == Kind::Routed)
                    route = std::make_unique<DispatchRoute>(
                        *topo, 1, stages, alternatingPlans(stages));
                const RpuTopology::Snapshot before = topo->snapshot();
                const DeviceStats own_before = device->stats();
                std::vector<CkksCiphertext> prods;
                if (op == CkksOp::MulPlainRescale) {
                    const auto pts = batch.encodePlain(vw, L, route.get());
                    prods = batch.mulPlain(va, viewsOf(pts), route.get());
                } else {
                    prods = batch.mulCt(va, vb, vk, route.get());
                }
                const auto got =
                    batch.rescale(viewsOf(prods), route.get());
                const uint64_t launches =
                    kind == Kind::CpuReference
                        ? device->statsSince(own_before).launches
                        : RpuTopology::aggregate(topo->since(before))
                              .launches;

                ASSERT_EQ(got.size(), k) << where;
                for (size_t i = 0; i < k; ++i)
                    expectSameCiphertext(got[i], want[i],
                                         where + " item " +
                                             std::to_string(i));
                EXPECT_EQ(launches, declaredLaunches(stages)) << where;
                if (route) {
                    EXPECT_TRUE(route->complete()) << where;
                }
            }
        }
    }
}

} // namespace
} // namespace rpu
