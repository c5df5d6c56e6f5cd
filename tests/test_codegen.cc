/**
 * @file
 * Code generator tests: every generated kernel must reproduce the
 * reference NTT bit-exactly on the functional simulator, respect the
 * 64-register VRF, fit its scratchpad budgets, and match the
 * instruction-count identities the algorithm implies.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <functional>
#include <memory>
#include <thread>

#include "codegen/ntt_codegen.hh"
#include "common/bitops.hh"
#include "isa/encoding.hh"
#include "modmath/primegen.hh"
#include "rpu/runner.hh"
#include "sim/cycle/simulator.hh"

namespace rpu {
namespace {

struct CodegenCase
{
    uint64_t n;
    bool inverse;
    bool optimized;
};

std::string
caseName(const testing::TestParamInfo<CodegenCase> &info)
{
    const auto &c = info.param;
    return std::string(c.inverse ? "intt" : "ntt") + std::to_string(c.n) +
           (c.optimized ? "_opt" : "_naive");
}

class CodegenRoundTrip : public testing::TestWithParam<CodegenCase>
{
};

TEST_P(CodegenRoundTrip, MatchesReference)
{
    const auto &c = GetParam();
    NttRunner runner(c.n, 124);
    NttCodegenOptions opts;
    opts.inverse = c.inverse;
    opts.optimized = c.optimized;
    const NttKernel kernel = runner.makeKernel(opts);
    EXPECT_TRUE(runner.verify(kernel));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CodegenRoundTrip,
    testing::Values(CodegenCase{1024, false, true},
                    CodegenCase{1024, false, false},
                    CodegenCase{1024, true, true},
                    CodegenCase{2048, false, true},
                    CodegenCase{2048, true, false},
                    CodegenCase{4096, false, true},
                    CodegenCase{4096, true, true},
                    CodegenCase{8192, false, true},
                    CodegenCase{8192, false, false},
                    CodegenCase{16384, false, true},
                    CodegenCase{16384, true, true},
                    CodegenCase{32768, false, true},
                    CodegenCase{65536, false, true},
                    CodegenCase{65536, false, false},
                    CodegenCase{65536, true, true}),
    caseName);

TEST(Codegen, ButterflyCountIdentity)
{
    // Forward CIs are all butterflies: (n/1024) * log2(n) of them —
    // the paper quotes exactly 1024 for the 64K NTT.
    for (uint64_t n : {1024ull, 4096ull, 65536ull}) {
        NttRunner runner(n, 124);
        const NttKernel k = runner.makeKernel();
        const InstructionMix mix = k.program.mix();
        EXPECT_EQ(mix.butterflies, (n / 1024) * log2Floor(n))
            << "n=" << n;
    }
}

TEST(Codegen, SixtyFourKMixMatchesPaperScale)
{
    NttRunner runner(65536, 124);
    const NttKernel k = runner.makeKernel();
    const InstructionMix mix = k.program.mix();
    EXPECT_EQ(mix.butterflies, 1024u); // paper: 1024 CIs
    // Paper reports 1920 SIs; same order of magnitude is required.
    EXPECT_GT(mix.shuffles, 1000u);
    EXPECT_LT(mix.shuffles, 4000u);
}

TEST(Codegen, RoundTripForwardInverse)
{
    NttRunner runner(4096, 124);
    const NttKernel fwd = runner.makeKernel({.inverse = false});
    const NttKernel inv = runner.makeKernel({.inverse = true});

    Rng rng(7);
    const std::vector<u128> input =
        randomPoly(runner.modulus(), runner.n(), rng);
    const std::vector<u128> transformed = runner.execute(fwd, input);
    const std::vector<u128> recovered = runner.execute(inv, transformed);
    EXPECT_EQ(recovered, input);
}

TEST(Codegen, VdmBudget64k)
{
    // The flagship 64K kernel must fit the paper's 4 MiB VDM.
    NttRunner runner(65536, 124);
    const NttKernel k = runner.makeKernel();
    EXPECT_LE(k.vdmBytesRequired, arch::kVdmDefaultBytes);
}

TEST(Codegen, SdmBudget)
{
    for (uint64_t n : {1024ull, 65536ull}) {
        NttRunner runner(n, 124);
        for (bool inverse : {false, true}) {
            const NttKernel k =
                runner.makeKernel({.inverse = inverse});
            EXPECT_LE(k.sdmImage.size(), arch::kSdmWords) << "n=" << n;
        }
    }
}

TEST(Codegen, DeterministicGeneration)
{
    NttRunner runner(2048, 124);
    const NttKernel a = runner.makeKernel();
    const NttKernel b = runner.makeKernel();
    ASSERT_EQ(a.program.size(), b.program.size());
    for (size_t i = 0; i < a.program.size(); ++i)
        EXPECT_EQ(a.program[i], b.program[i]) << "at " << i;
}

// -- Bit-identity contract --------------------------------------------
//
// Generation must be a pure function of (ring, options): the digests
// below pin the encoded program, both memory images, the VDM size and
// the modelled cycles of a set of kernels. They were computed once
// from the original generator; a digest that moves means the output
// changed, which is a failure, never an update.

/** 64-bit FNV-1a over little-endian words. */
class Fnv1a
{
  public:
    void
    add(uint64_t w)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (w >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(u128 w)
    {
        add(uint64_t(w));
        add(uint64_t(w >> 64));
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t
kernelDigest(const KernelImage &k, const RpuConfig &cfg)
{
    Fnv1a h;
    h.add(uint64_t(k.program.size()));
    for (const Instruction &instr : k.program.instructions())
        h.add(encode(instr));
    h.add(uint64_t(k.twPlanImage.size()));
    for (u128 w : k.twPlanImage)
        h.add(w);
    h.add(uint64_t(k.sdmImage.size()));
    for (u128 w : k.sdmImage)
        h.add(w);
    h.add(uint64_t(k.vdmBytesRequired));
    h.add(simulateCycles(k.program, cfg).cycles);
    return h.value();
}

/** One ring; the table keeps a reference to the modulus. */
struct Ring
{
    Ring(u128 q, uint64_t n) : mod(q), tw(mod, n) {}

    Modulus mod;
    TwiddleTable tw;
};

RpuConfig
designPoint(unsigned hples, unsigned banks)
{
    RpuConfig cfg;
    cfg.numHples = hples;
    cfg.numBanks = banks;
    return cfg;
}

/** Digest of one one-tower NTT kernel generated for @p cfg. */
uint64_t
nttDigest(const TwiddleTable &tw, bool inverse, const RpuConfig &cfg,
          bool optimized = true, bool compose = true)
{
    NttCodegenOptions opts;
    opts.inverse = inverse;
    opts.optimized = optimized;
    opts.twiddleCompose = compose;
    opts.scheduleConfig = cfg;
    return kernelDigest(generateBatchedNtt({&tw}, opts), cfg);
}

struct GoldenCase
{
    std::string name;
    uint64_t digest;
};

/** Digests of every pinned kernel, in a fixed order. */
std::vector<GoldenCase>
computeGoldenDigests()
{
    std::vector<GoldenCase> out;
    const RpuConfig points[] = {designPoint(4, 32), designPoint(128, 128),
                                designPoint(256, 256)};
    const struct
    {
        uint64_t n;
        unsigned bits;
    } rings[] = {{1024, 45}, {16384, 128}, {65536, 128}};
    for (const auto &r : rings) {
        const Ring ring(nttPrime(r.bits, r.n), r.n);
        for (const RpuConfig &cfg : points) {
            for (bool inverse : {false, true}) {
                out.push_back({std::string(inverse ? "intt" : "ntt") +
                                   std::to_string(r.n) + "@" + cfg.name(),
                               nttDigest(ring.tw, inverse, cfg)});
            }
        }
    }

    const RpuConfig cfg = designPoint(128, 128);
    {
        const Ring ring(nttPrime(128, 16384), 16384);
        for (bool inverse : {false, true}) {
            const std::string dir = inverse ? "intt" : "ntt";
            out.push_back({dir + "16384_naive",
                           nttDigest(ring.tw, inverse, cfg, false)});
            out.push_back({dir + "16384_nocompose",
                           nttDigest(ring.tw, inverse, cfg, true, false)});
        }
    }
    {
        const Ring ring(nttPrime(128, 4096), 4096);
        NttCodegenOptions opts;
        opts.scheduleConfig = cfg;
        out.push_back({"polymul4096",
                       kernelDigest(generateBatchedPolyMul({&ring.tw}, opts),
                                    cfg)});
    }
    {
        std::vector<std::unique_ptr<Ring>> towers;
        std::vector<const TwiddleTable *> tables;
        for (u128 q : nttPrimes(45, 1024, 3)) {
            towers.push_back(std::make_unique<Ring>(q, 1024));
            tables.push_back(&towers.back()->tw);
        }
        NttCodegenOptions opts;
        opts.scheduleConfig = cfg;
        out.push_back({"batched_ntt1024x3",
                       kernelDigest(generateBatchedNtt(tables, opts), cfg)});
        out.push_back({"batched_pointwise1024x3",
                       kernelDigest(generateBatchedPointwiseMul(tables, opts),
                                    cfg)});
        out.push_back({"batched_polymul1024x3",
                       kernelDigest(generateBatchedPolyMul(tables, opts),
                                    cfg)});
        opts.inverse = true;
        out.push_back({"batched_intt1024x3",
                       kernelDigest(generateBatchedNtt(tables, opts), cfg)});
    }
    return out;
}

TEST(Codegen, GoldenDigests)
{
    const GoldenCase pinned[] = {
        {"ntt1024@(4, 32)", 0xc70ece05d583f093ull},
        {"intt1024@(4, 32)", 0x37accbff3419008dull},
        {"ntt1024@(128, 128)", 0x93955e38312e43bdull},
        {"intt1024@(128, 128)", 0x8d8dc3e1c4c76294ull},
        {"ntt1024@(256, 256)", 0x779a4aa1c2ba3cc9ull},
        {"intt1024@(256, 256)", 0xba1de7483a313f49ull},
        {"ntt16384@(4, 32)", 0x90fa81030a5dca01ull},
        {"intt16384@(4, 32)", 0x4d2366d617c285abull},
        {"ntt16384@(128, 128)", 0x0828273cb9bf94a8ull},
        {"intt16384@(128, 128)", 0x62d9112cb0151126ull},
        {"ntt16384@(256, 256)", 0x7e50e5921b246723ull},
        {"intt16384@(256, 256)", 0xaefba8862cfb6be2ull},
        {"ntt65536@(4, 32)", 0x7d435124f9d5df71ull},
        {"intt65536@(4, 32)", 0xa4a24b8ecd43cdf5ull},
        {"ntt65536@(128, 128)", 0x16d171aa65c337c3ull},
        {"intt65536@(128, 128)", 0xef37559a2ca0bd15ull},
        {"ntt65536@(256, 256)", 0x65c004859c00f394ull},
        {"intt65536@(256, 256)", 0x1252b5285b1ec79dull},
        {"ntt16384_naive", 0x542fa481e030b0b8ull},
        {"ntt16384_nocompose", 0x53a20c0eaa9294e2ull},
        {"intt16384_naive", 0x3a76be8c02f88ffdull},
        {"intt16384_nocompose", 0xe97ca0605a8187c0ull},
        // The fused product is the one-tower BatchedPolyMul program,
        // which reloads a0 before tower 0's forward transform: 969
        // instructions and 2921 cycles, one of each more than the
        // single-ring polymul this digest first pinned.
        {"polymul4096", 0x8d82d7358aa112c8ull},
        // The batched transforms emit their towers in lockstep (see
        // Codegen.LockstepBatchedNtt): same instruction count and mix,
        // reordered and reassigned registers, 741 -> 527 cycles
        // forward and 771 -> 556 inverse.
        {"batched_ntt1024x3", 0xd46a17378d1a750eull},
        {"batched_pointwise1024x3", 0x998c5b7e9b3c1162ull},
        {"batched_polymul1024x3", 0x107a05852819432cull},
        {"batched_intt1024x3", 0x5ec5758b708a5ee3ull},
    };
    const std::vector<GoldenCase> got = computeGoldenDigests();
    ASSERT_EQ(got.size(), std::size(pinned));
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, pinned[i].name);
        EXPECT_EQ(got[i].digest, pinned[i].digest)
            << got[i].name << " digest 0x" << std::hex << got[i].digest;
    }
}

TEST(Codegen, LockstepBatchedNtt)
{
    // Lockstep emission reorders a batched transform and reassigns its
    // registers; every tower still runs the one-tower program body, so
    // the instruction counts are those of tower-after-tower emission
    // (206 / 275 at 3 towers, 1090 / 1458 at 16), while the cycles
    // fall from 741 / 771 and 3364 / 3630.
    const struct
    {
        size_t towers;
        bool inverse;
        size_t instructions;
        uint64_t cycles;
    } pinned[] = {{3, false, 206, 527},
                  {3, true, 275, 556},
                  {16, false, 1090, 2226},
                  {16, true, 1458, 2710}};
    const RpuConfig cfg = designPoint(128, 128);
    for (const auto &p : pinned) {
        std::vector<std::unique_ptr<Ring>> rings;
        std::vector<const TwiddleTable *> tables;
        for (u128 q : nttPrimes(45, 1024, p.towers)) {
            rings.push_back(std::make_unique<Ring>(q, 1024));
            tables.push_back(&rings.back()->tw);
        }
        NttCodegenOptions opts;
        opts.inverse = p.inverse;
        opts.scheduleConfig = cfg;
        const KernelImage batch = generateBatchedNtt(tables, opts);
        const KernelImage one = generateBatchedNtt({tables[0]}, opts);
        SCOPED_TRACE(testing::Message()
                     << p.towers << " towers "
                     << (p.inverse ? "inverse" : "forward"));

        EXPECT_EQ(batch.program.size(), p.instructions);
        EXPECT_EQ(simulateCycles(batch.program, cfg).cycles, p.cycles);

        // The mix is the one-tower body per tower plus each further
        // tower's MLOAD and ALOAD (and SLOAD of n^-1 inverse).
        const InstructionMix m = batch.program.mix();
        const InstructionMix m1 = one.program.mix();
        const uint64_t t = p.towers;
        EXPECT_EQ(m.loads, t * m1.loads);
        EXPECT_EQ(m.stores, t * m1.stores);
        EXPECT_EQ(m.broadcasts, t * m1.broadcasts);
        EXPECT_EQ(m.compute, t * m1.compute);
        EXPECT_EQ(m.butterflies, t * m1.butterflies);
        EXPECT_EQ(m.shuffles, t * m1.shuffles);
        EXPECT_EQ(m.scalarLs, m1.scalarLs + (t - 1) * (p.inverse ? 3 : 2));
    }
}

TEST(Codegen, ConcurrentGenerationMatchesSerial)
{
    // Distinct kernels generate concurrently on a device
    // (RpuDevice::kernel), so generation must share no mutable state.
    const Ring ring(nttPrime(128, 16384), 16384);
    const RpuConfig cfgs[] = {designPoint(4, 32), designPoint(256, 256)};
    uint64_t serial[2], parallel[2];
    for (unsigned t = 0; t < 2; ++t)
        serial[t] = nttDigest(ring.tw, t == 1, cfgs[t]);
    std::thread workers[2];
    for (unsigned t = 0; t < 2; ++t) {
        workers[t] = std::thread([&, t] {
            parallel[t] = nttDigest(ring.tw, t == 1, cfgs[t]);
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(parallel[0], serial[0]);
    EXPECT_EQ(parallel[1], serial[1]);
}

TEST(Codegen, RejectsTinyRings)
{
    // n = 512 is a single vector register; the generator requires two.
    EXPECT_DEATH(
        {
            NttRunner runner(512, 60);
            runner.makeKernel();
        },
        "");
}

} // namespace
} // namespace rpu
