/**
 * @file
 * Tests for the fused polynomial-multiplication kernel and the
 * multi-tower batched NTT (the MRF / instruction-granularity modulus
 * switching feature of paper section IV-B5), including the tower
 * budget every batched generator shares.
 */

#include <gtest/gtest.h>

#include "modmath/primegen.hh"
#include "rpu/runner.hh"
#include "sim/cycle/simulator.hh"
#include "sim/functional/executor.hh"

namespace rpu {
namespace {

class PolyMulSizes : public testing::TestWithParam<uint64_t>
{
};

TEST_P(PolyMulSizes, MatchesNttProduct)
{
    NttRunner runner(GetParam(), 124);
    const KernelImage kernel = runner.makePolyMulKernel();
    EXPECT_TRUE(runner.verifyPolyMul(kernel));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PolyMulSizes,
                         testing::Values(1024ull, 2048ull, 4096ull,
                                         16384ull));

TEST(PolyMul, MatchesNaiveOracle)
{
    NttRunner runner(1024, 124);
    const KernelImage kernel = runner.makePolyMulKernel();
    Rng rng(3);
    const auto a = randomPoly(runner.modulus(), 1024, rng);
    const auto b = randomPoly(runner.modulus(), 1024, rng);
    EXPECT_EQ(runner.executePolyMul(kernel, a, b),
              negacyclicMulNaive(runner.modulus(), a, b));
}

TEST(PolyMul, UnoptimizedFlavourAlsoCorrect)
{
    NttRunner runner(2048, 124);
    const KernelImage kernel =
        runner.makePolyMulKernel({.optimized = false});
    EXPECT_TRUE(runner.verifyPolyMul(kernel));
}

TEST(PolyMul, MultiplicationByOne)
{
    NttRunner runner(1024, 124);
    const KernelImage kernel = runner.makePolyMulKernel();
    Rng rng(4);
    const auto a = randomPoly(runner.modulus(), 1024, rng);
    std::vector<u128> one(1024, 0);
    one[0] = 1;
    EXPECT_EQ(runner.executePolyMul(kernel, a, one), a);
}

TEST(PolyMul, FusedCheaperThanThreeLaunches)
{
    // The fused kernel shares twiddle state and overlaps the two
    // forward transforms; it must beat three separate kernel launches
    // (2x forward + 1x inverse) on the cycle simulator.
    NttRunner runner(4096, 124);
    const RpuConfig cfg;
    NttCodegenOptions opts;
    opts.scheduleConfig = cfg;

    const KernelImage fused = runner.makePolyMulKernel(opts);
    const KernelMetrics fused_m = runner.evaluateProgram(
        fused.program, fused.vdmBytesRequired, cfg);

    const NttKernel fwd = runner.makeKernel(opts);
    NttCodegenOptions inv_opts = opts;
    inv_opts.inverse = true;
    const NttKernel inv = runner.makeKernel(inv_opts);
    const uint64_t three_launch =
        2 * runner.evaluate(fwd, cfg).cycle.cycles +
        runner.evaluate(inv, cfg).cycle.cycles;

    EXPECT_LT(fused_m.cycle.cycles, three_launch);
}

TEST(PolyMul, InstructionAccounting)
{
    // Fused mix = 2 forward NTTs + n/512 pointwise multiplies +
    // 1 inverse NTT (3 CIs per butterfly) + n/512 scalings.
    NttRunner runner(2048, 124);
    const KernelImage kernel = runner.makePolyMulKernel();
    const InstructionMix mix = kernel.program.mix();
    const uint64_t fwd_bflies = (2048 / 1024) * 11; // (n/1024) log2 n
    EXPECT_EQ(mix.butterflies, 2 * fwd_bflies);
    // Dyadic products: n/512 vmulmods beyond the butterflies.
    const uint64_t dyadic = 2048 / 512;
    EXPECT_GE(mix.compute,
              2 * fwd_bflies + dyadic + 3 * fwd_bflies + dyadic);
}

TEST(PolyMul, RejectsInverseOption)
{
    NttRunner runner(1024, 60);
    EXPECT_EXIT(runner.makePolyMulKernel({.inverse = true}),
                testing::ExitedWithCode(1), "no inverse");
}

// ----------------------------------------------------------------------

std::vector<std::vector<u128>>
executeBatched(const KernelImage &kernel,
               const std::vector<std::vector<u128>> &inputs)
{
    ArchState state(kernel.vdmBytesRequired);
    for (size_t i = 0; i < kernel.sdmImage.size(); ++i)
        state.writeSdm(i, kernel.sdmImage[i]);
    state.loadVdm(kernel.twPlanBase, kernel.twPlanImage);
    for (size_t t = 0; t < inputs.size(); ++t)
        state.loadVdm(kernel.regions[t].base, inputs[t]);
    FunctionalSimulator sim(state);
    sim.run(kernel.program);
    std::vector<std::vector<u128>> outs;
    for (size_t t = 0; t < inputs.size(); ++t)
        outs.push_back(state.dumpVdm(kernel.regions[t].base, kernel.n));
    return outs;
}

class BatchedTowers : public testing::TestWithParam<size_t>
{
};

TEST_P(BatchedTowers, EachTowerMatchesItsReference)
{
    const size_t towers = GetParam();
    const uint64_t n = 2048;
    const auto primes = nttPrimes(100, n, towers);

    std::vector<std::unique_ptr<Modulus>> mods;
    std::vector<std::unique_ptr<TwiddleTable>> tables;
    std::vector<const TwiddleTable *> ptrs;
    for (u128 q : primes) {
        mods.push_back(std::make_unique<Modulus>(q));
        tables.push_back(std::make_unique<TwiddleTable>(*mods.back(), n));
        ptrs.push_back(tables.back().get());
    }

    const KernelImage kernel = generateBatchedNtt(ptrs);
    ASSERT_EQ(kernel.moduli.size(), towers);

    Rng rng(towers);
    std::vector<std::vector<u128>> inputs;
    for (size_t t = 0; t < towers; ++t)
        inputs.push_back(randomPoly(*mods[t], n, rng));

    const auto outputs = executeBatched(kernel, inputs);
    for (size_t t = 0; t < towers; ++t) {
        std::vector<u128> expected = inputs[t];
        NttContext(*tables[t]).forward(expected);
        EXPECT_EQ(outputs[t], expected) << "tower " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Counts, BatchedTowers,
                         testing::Values(1u, 2u, 3u, 4u));

TEST(Batched, TowersInterleaveOnTheRpu)
{
    // Two independent towers in one program should finish in well
    // under 2x a single tower's cycles: the paper's motivation for
    // the MRF.
    const uint64_t n = 4096;
    const auto primes = nttPrimes(100, n, 2);
    Modulus m0(primes[0]), m1(primes[1]);
    TwiddleTable t0(m0, n), t1(m1, n);

    RpuConfig cfg;
    NttCodegenOptions opts;
    opts.scheduleConfig = cfg;

    const KernelImage two = generateBatchedNtt({&t0, &t1}, opts);
    const KernelImage one = generateBatchedNtt({&t0}, opts);

    RpuConfig run = cfg;
    run.vdmBytes = std::max(run.vdmBytes, two.vdmBytesRequired);
    const uint64_t c2 = simulateCycles(two.program, run).cycles;
    const uint64_t c1 = simulateCycles(one.program, run).cycles;
    EXPECT_LT(double(c2), 1.85 * double(c1));
    EXPECT_GT(double(c2), 1.05 * double(c1));
}

TEST(Batched, RejectsMismatchedDimensions)
{
    const u128 qa = nttPrime(80, 1024);
    const u128 qb = nttPrime(80, 2048);
    Modulus ma(qa), mb(qb);
    TwiddleTable ta(ma, 1024), tb(mb, 2048);
    EXPECT_EXIT(generateBatchedNtt({&ta, &tb}),
                testing::ExitedWithCode(1), "dimension");
}

TEST(Batched, EveryGeneratorTakesTheTowerBudgetAndNoMore)
{
    // kMaxBatchedTowers is the register budget every generator shares
    // (and the tile size RpuDevice::dispatch cuts at): a full batch
    // generates, one tower more is a user error.
    const uint64_t n = 1024;
    const Modulus mod(nttPrime(50, n));
    const TwiddleTable tw(mod, n);
    const std::vector<const TwiddleTable *> full(kMaxBatchedTowers, &tw);
    const std::vector<const TwiddleTable *> over(kMaxBatchedTowers + 1,
                                                 &tw);
    ASSERT_EQ(kMaxBatchedTowers, 16u);

    NttCodegenOptions inverse;
    inverse.inverse = true;
    EXPECT_EQ(generateBatchedNtt(full).moduli.size(), kMaxBatchedTowers);
    EXPECT_EQ(generateBatchedNtt(full, inverse).moduli.size(),
              kMaxBatchedTowers);
    EXPECT_EQ(generateBatchedPolyMul(full).moduli.size(),
              kMaxBatchedTowers);
    EXPECT_EQ(generateBatchedPointwiseMul(full).moduli.size(),
              kMaxBatchedTowers);

    EXPECT_EXIT(generateBatchedNtt(over), testing::ExitedWithCode(1),
                "at most 16 towers, got 17");
    EXPECT_EXIT(generateBatchedNtt(over, inverse),
                testing::ExitedWithCode(1), "at most 16 towers, got 17");
    EXPECT_EXIT(generateBatchedPolyMul(over), testing::ExitedWithCode(1),
                "at most 16 towers, got 17");
    EXPECT_EXIT(generateBatchedPointwiseMul(over),
                testing::ExitedWithCode(1), "at most 16 towers, got 17");
}

} // namespace
} // namespace rpu
