/**
 * @file
 * Domain-tagged residue polynomials: Eval <-> Coeff round trips pin
 * bit-identity on every tower across the host transforms, the serial
 * functional simulator, a pooled device, and the CPU reference
 * backend; the elision ledger records exactly the conversions a
 * domain-aware caller skips; and the evaluation-domain pointwise
 * product matches the fused negacyclic product end to end.
 */

#include <gtest/gtest.h>

#include "modmath/primegen.hh"
#include "poly/polynomial.hh"
#include "rlwe/residue_poly.hh"
#include "rpu/device.hh"

namespace rpu {
namespace {

constexpr uint64_t kN = 1024;

struct Fixture
{
    RnsBasis basis;
    std::vector<std::unique_ptr<TwiddleTable>> twiddles;
    std::vector<std::unique_ptr<NttContext>> ntts;
    ResidueOps ops;

    explicit Fixture(size_t towers, unsigned bits = 58)
        : basis(RnsBasis::nttBasis(bits, kN, towers)),
          ops(kN, &basis)
    {
        std::vector<const NttContext *> host;
        for (size_t t = 0; t < towers; ++t) {
            twiddles.push_back(std::make_unique<TwiddleTable>(
                basis.modulus(t), kN));
            ntts.push_back(std::make_unique<NttContext>(*twiddles[t]));
            host.push_back(ntts[t].get());
        }
        ops.setHostTransforms(std::move(host));
    }

    ResiduePoly
    randomCoeffPoly(uint64_t seed, size_t towers) const
    {
        Rng rng(seed);
        ResiduePoly p;
        p.domain = ResidueDomain::Coeff;
        for (size_t t = 0; t < towers; ++t)
            p.towers.push_back(
                randomPoly(basis.modulus(t), kN, rng));
        return p;
    }
};

TEST(ResiduePoly, RoundTripBitIdenticalOnEveryBackend)
{
    const size_t towers = 3;
    Fixture fx(towers);
    const ResiduePoly original = fx.randomCoeffPoly(7, towers);

    // Host-transform reference round trip.
    ResiduePoly host_poly = original;
    fx.ops.toEval(host_poly);
    EXPECT_TRUE(host_poly.inEval());
    const ResiduePoly host_eval = host_poly;
    fx.ops.toCoeff(host_poly);
    EXPECT_EQ(host_poly, original);

    // Serial device, pooled device, CPU reference backend: the same
    // transitions, bit-identical towers in both domains.
    const auto run_device = [&](std::shared_ptr<RpuDevice> device,
                                const char *label) {
        Fixture dfx(towers);
        device->setParallelism(
            std::string(label) == "pooled" ? 4 : 1);
        dfx.ops.setDevice(device);
        ResiduePoly p = original;
        dfx.ops.toEval(p);
        for (size_t t = 0; t < towers; ++t) {
            EXPECT_EQ(p.towers[t], host_eval.towers[t])
                << label << " tower " << t;
        }
        dfx.ops.toCoeff(p);
        for (size_t t = 0; t < towers; ++t) {
            EXPECT_EQ(p.towers[t], original.towers[t])
                << label << " tower " << t;
        }
    };
    run_device(std::make_shared<RpuDevice>(), "serial");
    run_device(std::make_shared<RpuDevice>(), "pooled");
    run_device(std::make_shared<RpuDevice>(
                   std::make_unique<CpuReferenceBackend>()),
               "cpu-reference");
}

TEST(ResiduePoly, ConvertElidesResidentOperandsAndCountsThem)
{
    const size_t towers = 2;
    Fixture fx(towers);
    const auto device = std::make_shared<RpuDevice>();
    fx.ops.setDevice(device);

    ResiduePoly a = fx.randomCoeffPoly(11, towers);
    ResiduePoly b = fx.randomCoeffPoly(13, towers);
    fx.ops.toEval(a); // a is now resident
    device->resetCounters();

    // Mixed batch: a is already Eval (elided), b converts.
    fx.ops.convert({&a, &b}, ResidueDomain::Eval);
    const DeviceStats s = device->stats();
    EXPECT_EQ(s.transformsElided, towers);
    EXPECT_EQ(s.forwardTransforms, towers);
    EXPECT_TRUE(a.inEval());
    EXPECT_TRUE(b.inEval());

    // Fully resident batch: no launch at all, everything elided.
    device->resetCounters();
    fx.ops.convert({&a, &b}, ResidueDomain::Eval);
    EXPECT_EQ(device->stats().launches, 0u);
    EXPECT_EQ(device->stats().transformsElided, 2 * towers);
}

TEST(ResiduePoly, EvalPointwiseMatchesFusedNegacyclicProduct)
{
    // NTT -> pointwise -> INTT through ResidueOps must reproduce the
    // fused single-launch negacyclic product bit for bit: the domain
    // machinery changes the dispatch, never the math.
    const size_t towers = 3;
    Fixture fx(towers);
    const auto device = std::make_shared<RpuDevice>();
    fx.ops.setDevice(device);

    ResiduePoly a = fx.randomCoeffPoly(17, towers);
    ResiduePoly b = fx.randomCoeffPoly(19, towers);
    const ResiduePoly a0 = a;
    const ResiduePoly b0 = b;

    fx.ops.convert({&a, &b}, ResidueDomain::Eval);
    ResiduePoly prod = std::move(fx.ops.mulEvalPairs({&a}, {&b})[0]);
    fx.ops.toCoeff(prod);

    const std::vector<u128> primes = fx.basis.primes();
    std::vector<std::vector<u128>> in;
    for (size_t t = 0; t < towers; ++t) {
        in.push_back(a0.towers[t]);
        in.push_back(b0.towers[t]);
    }
    const auto fused = device->launch(
        device->kernel(KernelKind::BatchedPolyMul, kN, primes), in);
    for (size_t t = 0; t < towers; ++t)
        EXPECT_EQ(prod.towers[t], fused[t]) << "tower " << t;
}

TEST(ResiduePoly, AddSubRoundTripInBothDomains)
{
    // sub is add's exact inverse, tower for tower, in either
    // residency — the algebra the RNS-resident BFV add/sub ride on.
    const size_t towers = 2;
    Fixture fx(towers);
    ResiduePoly a = fx.randomCoeffPoly(37, towers);
    ResiduePoly b = fx.randomCoeffPoly(41, towers);

    const ResiduePoly coeff_rt = fx.ops.sub(fx.ops.add(a, b), b);
    EXPECT_EQ(coeff_rt, a);

    fx.ops.convert({&a, &b}, ResidueDomain::Eval);
    const ResiduePoly eval_rt = fx.ops.sub(fx.ops.add(a, b), b);
    EXPECT_EQ(eval_rt, a);
    EXPECT_TRUE(eval_rt.inEval());
}

TEST(ResiduePoly, SharedRightOperandAndPrefixLevels)
{
    // Pairs sharing one plaintext, at two different levels: the
    // lower level uses the plaintext's tower prefix, matching a
    // per-level host computation exactly.
    const size_t towers = 3;
    Fixture fx(towers);

    ResiduePoly x = fx.randomCoeffPoly(23, towers);
    ResiduePoly y = fx.randomCoeffPoly(29, towers);
    ResiduePoly pt = fx.randomCoeffPoly(31, towers);
    fx.ops.convert({&x, &y, &pt}, ResidueDomain::Eval);

    const std::vector<const ResiduePoly *> views = {&x, &y};
    std::vector<ResiduePoly> both =
        fx.ops.mulEvalPairs(views, {&pt, &pt});
    ASSERT_EQ(both.size(), 2u);
    for (size_t t = 0; t < towers; ++t) {
        EXPECT_EQ(both[0].towers[t],
                  polyPointwise(fx.basis.modulus(t), x.towers[t],
                                pt.towers[t]));
        EXPECT_EQ(both[1].towers[t],
                  polyPointwise(fx.basis.modulus(t), y.towers[t],
                                pt.towers[t]));
    }

    // A lower-level operand against the same full-chain plaintext:
    // the towers parameter selects the prefix, no copy needed.
    const ResiduePoly x_low = x.prefix(towers - 1);
    const std::vector<ResiduePoly> low_v =
        fx.ops.mulEvalPairs({&x_low}, {&pt}, towers - 1);
    const ResiduePoly &low = low_v[0];
    ASSERT_EQ(low.towerCount(), towers - 1);
    for (size_t t = 0; t + 1 < towers; ++t) {
        EXPECT_EQ(low.towers[t], both[0].towers[t])
            << "prefix tower " << t;
    }
}

} // namespace
} // namespace rpu
