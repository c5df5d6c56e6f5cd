/**
 * @file
 * Generator differential fuzzer: seeded kernels of every generated
 * kind, checked against the host reference.
 *
 * Each seed draws one configuration from the generators' space —
 * kind (batched forward/inverse NTT, pointwise, polymul), ring
 * dimension (1K to 16K, 64K on a few seeds), 1 to 16 towers whose
 * moduli mix 30- to 62-bit and 124-bit primes in one image, naive or
 * optimized emission, twiddle composition on or off, and the design
 * point the scheduler targets. The kernel is generated directly (no
 * device cache), its memory plan is checked against its VDM size,
 * and it is launched on the functional simulator under both lane
 * words and on the CPU reference backend; every launch must equal
 * testutil::hostDispatch, which shares no code with the device. The
 * same key through two devices' kernel caches must give the same
 * program and the same modelled cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "host_reference.hh"
#include "modmath/primegen.hh"
#include "modmath/simd.hh"
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

/** One seeded point of the generators' configuration space. */
struct FuzzCase
{
    KernelKind kind = KernelKind::BatchedForwardNtt;
    uint64_t n = 0;
    std::vector<unsigned> bits; ///< one modulus width per tower
    NttCodegenOptions opts;

    std::string
    describe() const
    {
        static const char *const kKinds[] = {"ntt", "intt", "pointwise",
                                             "polymul"};
        std::ostringstream os;
        os << kKinds[int(kind)] << " n=" << n << " towers=" << bits.size()
           << " bits=[";
        for (size_t t = 0; t < bits.size(); ++t)
            os << (t ? "," : "") << bits[t];
        os << "] " << (opts.optimized ? "optimized" : "naive")
           << (opts.twiddleCompose ? " compose" : " nocompose") << " @"
           << opts.scheduleConfig.name();
        return os.str();
    }
};

FuzzCase
drawCase(unsigned seed)
{
    Rng rng(0xf022c0de00000000ull + seed);
    FuzzCase c;
    c.kind = KernelKind(seed % unsigned(KernelKind::kCount));
    c.opts.inverse = c.kind == KernelKind::BatchedInverseNtt;

    // Every ninth seed (so every kind in turn) is a 64K ring with at
    // most two towers; the rest spread over 1K..16K, the served 1K to
    // 4K rings twice as often as 8K and 16K.
    c.n = seed % 9 == 8 ? 65536 : uint64_t(1024) << (rng.below64(8) % 5);
    c.opts.optimized = rng.below64(4) != 0;
    c.opts.twiddleCompose = rng.below64(3) != 0;

    // The SDM's scalar budget bounds the batch: composed twiddle
    // leaves take about n/64 scalars per transform per tower. A 64K
    // polymul has no composed form that fits even for one tower.
    const uint64_t transforms =
        c.kind == KernelKind::PointwiseMulBatched ? 0
        : c.kind == KernelKind::BatchedPolyMul    ? 2
                                                  : 1;
    size_t max_towers = std::min<size_t>(
        kMaxBatchedTowers, arch::kSdmWords / (transforms * c.n / 64 + 4));
    if (!c.opts.twiddleCompose || max_towers == 0) {
        c.opts.twiddleCompose = false;
        max_towers = kMaxBatchedTowers;
    }
    if (c.n == 65536)
        max_towers = std::min<size_t>(max_towers, 2);
    const size_t towers = 1 + rng.below64(max_towers);

    // All narrow, all wide, or a mix of both in one image.
    const uint64_t widths = rng.below64(3);
    for (size_t t = 0; t < towers; ++t) {
        const bool wide =
            widths == 1 || (widths == 2 && rng.below64(3) == 0);
        c.bits.push_back(wide ? 124u : unsigned(30 + rng.below64(33)));
    }

    static const unsigned kPoints[][2] = {{4, 32}, {128, 128}, {256, 256}};
    const auto &point = kPoints[rng.below64(3)];
    c.opts.scheduleConfig.numHples = point[0];
    c.opts.scheduleConfig.numBanks = point[1];
    return c;
}

/** Distinct NTT primes: the k-th tower of width b gets the k-th prime. */
std::vector<u128>
primesFor(const FuzzCase &c)
{
    std::map<unsigned, size_t> per_width;
    for (unsigned b : c.bits)
        ++per_width[b];
    std::map<unsigned, std::vector<u128>> pool;
    for (const auto &[b, count] : per_width)
        pool[b] = nttPrimes(b, c.n, count);
    std::vector<u128> moduli;
    for (unsigned b : c.bits) {
        moduli.push_back(pool[b].back());
        pool[b].pop_back();
    }
    return moduli;
}

KernelImage
generate(const FuzzCase &c, const std::vector<const TwiddleTable *> &tw)
{
    switch (c.kind) {
    case KernelKind::BatchedForwardNtt:
    case KernelKind::BatchedInverseNtt:
        return generateBatchedNtt(tw, c.opts);
    case KernelKind::PointwiseMulBatched:
        return generateBatchedPointwiseMul(tw, c.opts);
    default:
        return generateBatchedPolyMul(tw, c.opts);
    }
}

/** The image's windows lie inside its VDM size and do not overlap. */
void
checkMemoryPlan(const KernelImage &image, size_t towers)
{
    const size_t per_tower =
        image.kind == KernelKind::PointwiseMulBatched ||
                image.kind == KernelKind::BatchedPolyMul
            ? 2
            : 1;
    ASSERT_EQ(image.regions.size(), per_tower * towers);
    ASSERT_EQ(image.moduli.size(), towers);
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    for (const DataRegion &r : image.regions) {
        EXPECT_EQ(r.words, image.n) << r.name;
        spans.emplace_back(r.base, r.base + r.words);
    }
    spans.emplace_back(image.twPlanBase,
                       image.twPlanBase + image.twPlanImage.size());
    std::sort(spans.begin(), spans.end());
    for (size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].second, spans[i].first)
            << "overlapping VDM windows";

    EXPECT_GE(image.vdmBytesRequired, arch::kVdmDefaultBytes);
    EXPECT_LE(image.vdmBytesRequired, arch::kVdmMaxBytes);
    EXPECT_LE(spans.back().second * arch::kWordBytes,
              image.vdmBytesRequired);
    EXPECT_LE(image.sdmImage.size(), arch::kSdmWords);
}

/** What the kernel must return, one vector per output region. */
std::vector<std::vector<u128>>
expected(const FuzzCase &c, const std::vector<u128> &moduli,
         const std::vector<std::vector<u128>> &inputs)
{
    const std::vector<std::vector<u128>> item_moduli{moduli};
    TowerItems a(1), b(1);
    const bool two_operands = c.kind == KernelKind::PointwiseMulBatched ||
                              c.kind == KernelKind::BatchedPolyMul;
    for (size_t t = 0; t < moduli.size(); ++t) {
        if (two_operands) {
            a[0].push_back(inputs[2 * t]);
            b[0].push_back(inputs[2 * t + 1]);
        } else {
            a[0].push_back(inputs[t]);
        }
    }
    using testutil::hostDispatch;
    switch (c.kind) {
    case KernelKind::BatchedForwardNtt:
        return hostDispatch(RingOp::Forward, c.n, item_moduli, a)[0];
    case KernelKind::BatchedInverseNtt:
        return hostDispatch(RingOp::Inverse, c.n, item_moduli, a)[0];
    case KernelKind::PointwiseMulBatched:
        return hostDispatch(RingOp::Pointwise, c.n, item_moduli, a, b)[0];
    default:
        break;
    }
    const TowerItems fa =
        hostDispatch(RingOp::Forward, c.n, item_moduli, std::move(a));
    const TowerItems fb =
        hostDispatch(RingOp::Forward, c.n, item_moduli, std::move(b));
    const TowerItems prod =
        hostDispatch(RingOp::Pointwise, c.n, item_moduli, fa, fb);
    return hostDispatch(RingOp::Inverse, c.n, item_moduli, prod)[0];
}

class CodegenFuzz : public testing::TestWithParam<unsigned>
{
};

TEST_P(CodegenFuzz, KernelMatchesHostReference)
{
    const FuzzCase c = drawCase(GetParam());
    SCOPED_TRACE(c.describe());
    const std::vector<u128> moduli = primesFor(c);

    RpuDevice sim;
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());
    std::vector<const TwiddleTable *> tw;
    for (u128 q : moduli)
        tw.push_back(&sim.twiddleTable(c.n, q));
    const KernelImage image = generate(c, tw);
    ASSERT_EQ(image.kind, c.kind);
    ASSERT_EQ(image.moduli, moduli);
    checkMemoryPlan(image, moduli.size());

    // Region t's words are canonical in tower t's modulus.
    Rng rng(GetParam());
    std::vector<std::vector<u128>> inputs;
    for (const DataRegion *r : image.inputRegions()) {
        const size_t t = size_t(std::stoul(r->name.substr(1)));
        std::vector<u128> x(r->words);
        for (u128 &v : x)
            v = rng.below128(moduli[t]);
        inputs.push_back(std::move(x));
    }
    const std::vector<std::vector<u128>> want = expected(c, moduli, inputs);

    const bool narrow =
        *std::max_element(c.bits.begin(), c.bits.end()) <=
        simd::kMaxNarrowModulusBits;
    {
        const ModeGuard native(simd::HostSimdMode::Native);
        EXPECT_EQ(FunctionalSimBackend::laneWordFor(image),
                  narrow ? LaneWord::U64 : LaneWord::U128);
        EXPECT_TRUE(sim.launch(image, inputs) == want)
            << "functional simulator, native lanes";
    }
    if (narrow) {
        const ModeGuard scalar(simd::HostSimdMode::Scalar);
        EXPECT_EQ(FunctionalSimBackend::laneWordFor(image), LaneWord::U128);
        EXPECT_TRUE(sim.launch(image, inputs) == want)
            << "functional simulator, u128 lanes";
    }
    EXPECT_TRUE(ref.launch(image, inputs) == want) << "CPU reference";

    // A device's kernel cache generates the same program for the same
    // key, and every device stamps it with the same modelled cycles.
    const KernelImage &cached = sim.kernel(c.kind, c.n, moduli, c.opts);
    EXPECT_TRUE(cached.program.instructions() ==
                image.program.instructions());
    EXPECT_EQ(cached.modelCycles,
              ref.kernel(c.kind, c.n, moduli, c.opts).modelCycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodegenFuzz, testing::Range(0u, 64u));

} // namespace
} // namespace rpu
