/**
 * @file
 * The RpuDevice backend layer: kernel-cache semantics, shared numeric
 * context caches, backend equivalence (functional simulator vs CPU
 * reference baseline), batched tower launches, launch-state reuse,
 * u64 lane words, and one device shared by a CKKS context and an
 * NttRunner workbench.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "host_reference.hh"
#include "modmath/primegen.hh"
#include "modmath/simd.hh"
#include "rlwe/ckks.hh"
#include "rpu/device.hh"
#include "rpu/runner.hh"

namespace rpu {
namespace {

TEST(KernelCache, HitMissSemantics)
{
    RpuDevice dev;
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);

    const KernelImage &fwd = dev.kernel(KernelKind::BatchedForwardNtt, n, {q});
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, 0u);

    // Same spec: a hit, and the very same image.
    const KernelImage &again =
        dev.kernel(KernelKind::BatchedForwardNtt, n, {q});
    EXPECT_EQ(&fwd, &again);
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, 1u);

    // Different kind, codegen flavour, or modulus: all misses.
    dev.kernel(KernelKind::BatchedInverseNtt, n, {q});
    dev.kernel(KernelKind::BatchedForwardNtt, n, {q}, {.optimized = false});
    dev.kernel(KernelKind::BatchedForwardNtt, n, {nttPrime(59, n)});
    EXPECT_EQ(dev.counters().kernelMisses, 4u);
    EXPECT_EQ(dev.cachedKernels(), 4u);

    // A different design point reschedules, so it is a distinct kernel.
    NttCodegenOptions opts;
    opts.scheduleConfig.numHples = 32;
    dev.kernel(KernelKind::BatchedForwardNtt, n, {q}, opts);
    EXPECT_EQ(dev.counters().kernelMisses, 5u);

    // ... but unoptimized generation never consults the design point,
    // so sweeping it must keep hitting the one unoptimized kernel.
    NttCodegenOptions unopt;
    unopt.optimized = false;
    unopt.scheduleConfig.numHples = 32;
    dev.kernel(KernelKind::BatchedForwardNtt, n, {q}, unopt);
    EXPECT_EQ(dev.counters().kernelMisses, 5u);
    EXPECT_EQ(dev.counters().kernelHits, 2u);
}

TEST(KernelCache, LaunchesShareKernelsAndModulusContexts)
{
    RpuDevice dev;
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);
    Rng rng(7);
    const auto x = randomPoly(Modulus(q), n, rng);

    dev.dispatch(RingOp::Forward, n, {{q}}, {{x}});
    const size_t contexts_after_first = dev.modulusCache().size();
    EXPECT_GT(contexts_after_first, 0u);

    dev.dispatch(RingOp::Forward, n, {{q}}, {{x}});
    // Second launch: kernel cache hit, and no Montgomery context is
    // rebuilt (the per-launch rebuild this layer was added to fix).
    EXPECT_EQ(dev.counters().launches, 2u);
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, 1u);
    EXPECT_EQ(dev.modulusCache().size(), contexts_after_first);
}

class BackendEquivalence : public testing::TestWithParam<uint64_t>
{
};

TEST_P(BackendEquivalence, FunctionalSimMatchesCpuReference)
{
    const uint64_t n = GetParam();
    const u128 q = nttPrime(100, n);
    RpuDevice sim; // default: functional simulator
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());

    Rng rng(n);
    const auto a = randomPoly(Modulus(q), n, rng);
    const auto b = randomPoly(Modulus(q), n, rng);

    // Forward, inverse, and the fused negacyclic product must be
    // bit-identical across backends, and the transforms must match
    // the host reference.
    const auto one = [&](RpuDevice &dev, RingOp op,
                         const std::vector<u128> &x) {
        return dev.dispatch(op, n, {{q}}, {{x}})[0][0];
    };
    const auto host = [&](RingOp op, const std::vector<u128> &x) {
        return testutil::hostDispatch(op, n, {{q}}, {{x}})[0][0];
    };
    const auto fwd_sim = one(sim, RingOp::Forward, a);
    EXPECT_EQ(fwd_sim, host(RingOp::Forward, a));
    EXPECT_EQ(fwd_sim, one(ref, RingOp::Forward, a));
    const auto inv_sim = one(sim, RingOp::Inverse, fwd_sim);
    EXPECT_EQ(inv_sim, host(RingOp::Inverse, fwd_sim));
    EXPECT_EQ(inv_sim, one(ref, RingOp::Inverse, fwd_sim));
    const auto polyMul = [&](RpuDevice &dev) {
        return dev.launch(dev.kernel(KernelKind::BatchedPolyMul, n, {q}),
                          {a, b})[0];
    };
    EXPECT_EQ(polyMul(sim), polyMul(ref));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BackendEquivalence,
                         testing::Values(1024ull, 2048ull, 4096ull));

/** One BatchedPolyMul launch over @p primes: region order t0.a, t0.b,
 *  t1.a, t1.b, ...; returns one product per tower. */
std::vector<std::vector<u128>>
batchedPolyMul(RpuDevice &dev, uint64_t n, const std::vector<u128> &primes,
               const std::vector<std::vector<u128>> &a,
               const std::vector<std::vector<u128>> &b)
{
    std::vector<std::vector<u128>> in;
    for (size_t t = 0; t < primes.size(); ++t) {
        in.push_back(a[t]);
        in.push_back(b[t]);
    }
    return dev.launch(dev.kernel(KernelKind::BatchedPolyMul, n, primes),
                      in);
}

TEST(BatchedPolyMul, MatchesPerTowerReference)
{
    const uint64_t n = 1024;
    const size_t towers = 3;
    const auto primes = nttPrimes(60, n, towers);

    RpuDevice dev;
    Rng rng(21);
    std::vector<std::vector<u128>> a, b;
    for (u128 q : primes) {
        const Modulus mod(q);
        a.push_back(randomPoly(mod, n, rng));
        b.push_back(randomPoly(mod, n, rng));
    }

    const auto products = batchedPolyMul(dev, n, primes, a, b);
    ASSERT_EQ(products.size(), towers);
    EXPECT_EQ(dev.counters().launches, 1u);
    EXPECT_EQ(dev.counters().towerLaunches, towers);

    for (size_t t = 0; t < towers; ++t) {
        const Modulus mod(primes[t]);
        const TwiddleTable tw(mod, n);
        const NttContext ntt(tw);
        EXPECT_EQ(products[t], negacyclicMulNtt(ntt, a[t], b[t]))
            << "tower " << t;
    }
}

TEST(BatchedPolyMul, EquivalentAcrossBackends)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(58, n, 2);
    RpuDevice sim;
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());

    Rng rng(5);
    std::vector<std::vector<u128>> a, b;
    for (u128 q : primes) {
        const Modulus mod(q);
        a.push_back(randomPoly(mod, n, rng));
        b.push_back(randomPoly(mod, n, rng));
    }
    EXPECT_EQ(batchedPolyMul(sim, n, primes, a, b),
              batchedPolyMul(ref, n, primes, a, b));
}

TEST(KernelCache, EveryScheduleFieldIsKeyed)
{
    // Regression for a key that omitted an RpuConfig field: two
    // design points differing in any single field must never alias
    // to one cached kernel.
    RpuDevice dev;
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);

    NttCodegenOptions base;
    dev.kernel(KernelKind::BatchedForwardNtt, n, {q}, base);

    const std::vector<std::function<void(RpuConfig &)>> mutations = {
        [](RpuConfig &c) { c.numHples = 64; },
        [](RpuConfig &c) { c.numBanks = 64; },
        [](RpuConfig &c) { c.vdmBytes = 8ull << 20; },
        [](RpuConfig &c) { c.mulLatency = 7; },
        [](RpuConfig &c) { c.mulII = 2; },
        [](RpuConfig &c) { c.addLatency = 3; },
        [](RpuConfig &c) { c.shuffleLatency = 5; },
        [](RpuConfig &c) { c.lsLatency = 5; },
        [](RpuConfig &c) { c.sdmLatency = 3; },
        [](RpuConfig &c) { c.queueDepth = 4; },
        [](RpuConfig &c) { c.dispatchWidth = 2; },
        [](RpuConfig &c) { c.exclusiveReaders = true; },
    };
    uint64_t expected_misses = 1;
    for (const auto &mutate : mutations) {
        NttCodegenOptions opts = base;
        mutate(opts.scheduleConfig);
        dev.kernel(KernelKind::BatchedForwardNtt, n, {q}, opts);
        ++expected_misses;
        EXPECT_EQ(dev.counters().kernelMisses, expected_misses)
            << "a scheduleConfig field is missing from the kernel key";
        // Requesting the same mutated config again must hit.
        dev.kernel(KernelKind::BatchedForwardNtt, n, {q}, opts);
    }
    EXPECT_EQ(dev.counters().kernelHits, mutations.size());
}

TEST(LaunchAll, MatchesIndividualLaunches)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(60, n, 2);
    RpuDevice dev;

    Rng rng(9);
    std::vector<LaunchRequest> batch;
    for (u128 q : primes) {
        const KernelImage &k =
            dev.kernel(KernelKind::BatchedPolyMul, n, {q});
        const Modulus mod(q);
        batch.push_back(
            {&k, {randomPoly(mod, n, rng), randomPoly(mod, n, rng)}});
    }

    const auto results = dev.launchAll(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(results[i],
                  dev.launch(*batch[i].image, batch[i].inputs));
    }
}

// ----------------------------------------------------------------------
// Concurrent callers on one device
// ----------------------------------------------------------------------

TEST(ParallelLaunch, ConcurrentCallersStress)
{
    // >= 4 host threads hammer one device concurrently — kernel
    // cache, context caches, counters, and the backend's state free
    // list all see contention; every result must still be exact.
    const uint64_t n = 1024;
    const size_t callers = 4;
    const size_t rounds = 3;
    const auto primes = nttPrimes(59, n, callers);

    RpuDevice dev;

    std::vector<std::thread> threads;
    std::vector<int> failures(callers, 0);
    for (size_t c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            // Each caller works a different modulus, so kernel
            // generation, twiddle tables, and Montgomery contexts are
            // first touched under contention.
            const u128 q = primes[c];
            const Modulus mod(q);
            const TwiddleTable tw(mod, n);
            const NttContext ntt(tw);
            Rng rng(100 + c);
            for (size_t r = 0; r < rounds; ++r) {
                const auto a = randomPoly(mod, n, rng);
                const auto b = randomPoly(mod, n, rng);
                const auto got = dev.launch(
                    dev.kernel(KernelKind::BatchedPolyMul, n, {q}), {a, b})[0];
                if (got != negacyclicMulNtt(ntt, a, b))
                    ++failures[c];
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t c = 0; c < callers; ++c)
        EXPECT_EQ(failures[c], 0) << "caller " << c;

    // Every launch was counted exactly once despite the contention.
    EXPECT_EQ(dev.counters().launches, callers * rounds);
    EXPECT_EQ(dev.counters().kernelMisses, callers);
}

/**
 * A functional-simulator backend whose execute() blocks until
 * @p expected launches have entered it. A device counts a launch
 * (contention term included) before handing it to the backend, so
 * with two callers the second launch is provably counted while the
 * first is still in flight — the overlap the contention ledger
 * charges, made deterministic.
 */
class RendezvousBackend : public ExecutionBackend
{
  public:
    explicit RendezvousBackend(size_t expected) : expected_(expected) {}

    const char *name() const override { return "rendezvous"; }

    std::vector<std::vector<u128>>
    execute(RpuDevice &dev, const KernelImage &image,
            const std::vector<std::vector<u128>> &inputs) override
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ++entered_;
            cv_.notify_all();
            // Bounded, so a device that serialised its callers fails
            // the assertions below instead of hanging the suite.
            cv_.wait_for(lock, std::chrono::seconds(30),
                         [&] { return entered_ >= expected_; });
        }
        return inner_.execute(dev, image, inputs);
    }

  private:
    const size_t expected_;
    size_t entered_ = 0;
    std::mutex mutex_;
    std::condition_variable cv_;
    FunctionalSimBackend inner_;
};

TEST(ParallelLaunch, ContentionLedgerChargesOverlappingCallers)
{
    // Two host threads each launch one kernel on one device, and the
    // rendezvous holds both in flight together: exactly one launch
    // (whichever is counted second) runs at two-lane occupancy and
    // pays one staging term on top of its compute; the other is
    // uncontended.
    const uint64_t n = 1024;
    const u128 q = nttPrime(59, n);
    RpuDevice dev(std::make_unique<RendezvousBackend>(2));
    const KernelImage &k = dev.kernel(KernelKind::BatchedPolyMul, n, {q});
    ASSERT_GT(k.modelCycles, 0u);

    const Modulus mod(q);
    const NttContext ntt(dev.twiddleTable(n, q));
    std::vector<std::vector<u128>> a(2), b(2), got(2);
    Rng rng(61);
    for (size_t c = 0; c < 2; ++c) {
        a[c] = randomPoly(mod, n, rng);
        b[c] = randomPoly(mod, n, rng);
    }
    std::vector<std::thread> threads;
    for (size_t c = 0; c < 2; ++c)
        threads.emplace_back(
            [&, c] { got[c] = dev.launch(k, {a[c], b[c]})[0]; });
    for (std::thread &t : threads)
        t.join();
    for (size_t c = 0; c < 2; ++c)
        EXPECT_EQ(got[c], negacyclicMulNtt(ntt, a[c], b[c]));

    uint64_t words = 0;
    for (const DataRegion *r : k.inputRegions())
        words += r->words;
    for (const DataRegion *r : k.outputRegions())
        words += r->words;
    const DeviceStats s = dev.stats();
    EXPECT_EQ(s.launches, 2u);
    EXPECT_EQ(s.contendedLaunches, 1u);
    EXPECT_EQ(s.maxOccupiedLanes, 2u);
    EXPECT_EQ(s.cycleTotal(), 2 * k.modelCycles);
    EXPECT_EQ(s.stagingCycleTotal(),
              2 * dev.contentionModel().stagingCycles(words));
    EXPECT_GT(dev.contentionModel().stagingCycles(words), 0u);
    EXPECT_EQ(s.busyCycleTotal() - s.cycleTotal(),
              dev.contentionModel().stagingCycles(words));
}

TEST(KernelCache, SameKeyRaceGeneratesOnce)
{
    // Many threads racing for one kernel: the generation-in-progress
    // set must hand every waiter the single generated image — one
    // miss, every other request a hit.
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);
    const size_t callers = 4;
    RpuDevice dev;

    std::vector<std::thread> threads;
    std::vector<const KernelImage *> images(callers, nullptr);
    for (size_t c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            images[c] = &dev.kernel(KernelKind::BatchedForwardNtt, n, {q});
        });
    }
    for (auto &t : threads)
        t.join();

    for (size_t c = 1; c < callers; ++c)
        EXPECT_EQ(images[c], images[0]) << "caller " << c;
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, callers - 1);
    EXPECT_EQ(dev.cachedKernels(), 1u);
}

TEST(KernelCache, DistinctKeysGenerateConcurrently)
{
    // Distinct kernels generated from concurrent threads: every
    // generation is a miss (no spurious waiting or duplication), and
    // each thread's kernel computes the right transform.
    const uint64_t n = 1024;
    const size_t callers = 3;
    const auto primes = nttPrimes(57, n, callers);
    RpuDevice dev;

    std::vector<std::thread> threads;
    std::vector<int> failures(callers, 0);
    for (size_t c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            const u128 q = primes[c];
            const KernelImage &k =
                dev.kernel(KernelKind::BatchedForwardNtt, n, {q});
            Rng rng(73 + c);
            std::vector<u128> x = randomPoly(Modulus(q), n, rng);
            const auto got = dev.launch(k, {x})[0];
            const Modulus mod(q);
            const TwiddleTable tw(mod, n);
            const NttContext ntt(tw);
            ntt.forward(x);
            if (got != x)
                ++failures[c];
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t c = 0; c < callers; ++c)
        EXPECT_EQ(failures[c], 0) << "caller " << c;
    EXPECT_EQ(dev.counters().kernelMisses, callers);
    EXPECT_EQ(dev.cachedKernels(), callers);
}

// ----------------------------------------------------------------------
// Pointwise kernels and the domain-boundary dispatch paths
// ----------------------------------------------------------------------

TEST(CpuReference, EveryKernelKindHasAHandler)
{
    // The reference backend's kind -> handler table must cover every
    // KernelKind: a new kind merged without a reference handler fails
    // here, in ctest, instead of fataling at the first launch of a
    // production run.
    for (int k = 0; k < int(KernelKind::kCount); ++k) {
        EXPECT_TRUE(CpuReferenceBackend::handles(KernelKind(k)))
            << "KernelKind " << k
            << " has no CpuReferenceBackend handler";
    }
}

TEST(PointwiseKernel, MatchesHostPointwiseAcrossBackends)
{
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);
    RpuDevice sim;
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());

    Rng rng(83);
    const Modulus mod(q);
    const auto a = randomPoly(mod, n, rng);
    const auto b = randomPoly(mod, n, rng);

    const auto expected = polyPointwise(mod, a, b);
    for (RpuDevice *dev : {&sim, &ref}) {
        EXPECT_EQ(dev->dispatch(RingOp::Pointwise, n, {{q}}, {{a}},
                                {{b}})[0][0],
                  expected)
            << dev->backend().name();
    }

    // The generated program really has no butterfly stages: it is a
    // small fraction of the fused polymul's size.
    const KernelImage &pw =
        sim.kernel(KernelKind::PointwiseMulBatched, n, {q});
    const KernelImage &mul = sim.kernel(KernelKind::BatchedPolyMul, n, {q});
    EXPECT_LT(10 * pw.program.size(), mul.program.size());
}

TEST(PointwiseKernel, BatchedMatchesPerTowerAcrossBackends)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(58, n, 3);
    RpuDevice sim;
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());

    Rng rng(89);
    TowerItems a(1), b(1);
    for (u128 q : primes) {
        const Modulus mod(q);
        a[0].push_back(randomPoly(mod, n, rng));
        b[0].push_back(randomPoly(mod, n, rng));
    }

    for (RpuDevice *dev : {&sim, &ref}) {
        const auto out =
            dev->dispatch(RingOp::Pointwise, n, {primes}, a, b);
        ASSERT_EQ(out.size(), 1u);
        const auto &towers = out[0];
        ASSERT_EQ(towers.size(), primes.size());
        for (size_t t = 0; t < primes.size(); ++t) {
            EXPECT_EQ(towers[t],
                      polyPointwise(Modulus(primes[t]), a[0][t],
                                    b[0][t]))
                << dev->backend().name() << " tower " << t;
        }
    }
}

TEST(TransformTowers, BatchedInverseUndoesBatchedForward)
{
    // Eval <-> Coeff round trip, bit-identical on every tower, on the
    // functional simulator and the CPU reference backend — the
    // transition ResidueOps issues at domain boundaries.
    const uint64_t n = 1024;
    const auto primes = nttPrimes(59, n, 3);

    Rng rng(97);
    std::vector<std::vector<u128>> original;
    for (u128 q : primes)
        original.push_back(randomPoly(Modulus(q), n, rng));

    const auto round_trip = [&](RpuDevice &dev) {
        auto ys = dev.dispatch(RingOp::Forward, n, {primes}, {original});
        // The evaluation form is not the coefficient form.
        EXPECT_NE(ys[0], original) << dev.backend().name();
        return dev.dispatch(RingOp::Inverse, n, {primes},
                            std::move(ys))[0];
    };

    RpuDevice sim;
    EXPECT_EQ(round_trip(sim), original);

    RpuDevice ref(std::make_unique<CpuReferenceBackend>());
    EXPECT_EQ(round_trip(ref), original);
}

TEST(DeviceStats, AggregatesLaunchesTransformsAndCycles)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(60, n, 2);
    RpuDevice dev;

    Rng rng(101);
    std::vector<std::vector<u128>> a, b;
    for (u128 q : primes) {
        const Modulus mod(q);
        a.push_back(randomPoly(mod, n, rng));
        b.push_back(randomPoly(mod, n, rng));
    }

    // One batched polymul launch (2 fwd + 1 inv + 1 pointwise per
    // tower) plus one explicitly elided conversion.
    batchedPolyMul(dev, n, primes, a, b);
    dev.noteElidedTransforms(primes.size());
    {
        const DeviceStats s = dev.stats();
        EXPECT_EQ(s.launches, 1u);
        EXPECT_EQ(s.towerLaunches, primes.size());
        EXPECT_EQ(s.forwardTransforms, 2 * primes.size());
        EXPECT_EQ(s.inverseTransforms, primes.size());
        EXPECT_EQ(s.pointwiseMuls, primes.size());
        EXPECT_EQ(s.transformsElided, primes.size());
        EXPECT_EQ(s.transformsIssued(), 3 * primes.size());
        // The cycle ledger folds in the kernel's modelled cost, stamped
        // on the cached image at generation; one launch at a time
        // stages behind compute, so busy cycles equal the total.
        const KernelImage &k = dev.kernel(KernelKind::BatchedPolyMul, n,
                                          primes);
        EXPECT_GT(k.modelCycles, 0u);
        EXPECT_EQ(s.cycleTotal(), k.modelCycles);
        EXPECT_GT(s.stagingCycleTotal(), 0u);
        EXPECT_EQ(s.busyCycleTotal(), s.cycleTotal());
        EXPECT_EQ(s.contendedLaunches, 0u);
        EXPECT_EQ(s.maxOccupiedLanes, 1u);
        EXPECT_FALSE(s.summary().empty());
    }

    // resetCounters clears the whole snapshot.
    dev.resetCounters();
    const DeviceStats cleared = dev.stats();
    EXPECT_EQ(cleared.launches, 0u);
    EXPECT_EQ(cleared.transformsIssued(), 0u);
    EXPECT_EQ(cleared.transformsElided, 0u);
    EXPECT_EQ(cleared.cycleTotal(), 0u);
    EXPECT_EQ(cleared.stagingCycleTotal(), 0u);
    EXPECT_EQ(cleared.busyCycleTotal(), 0u);
}

TEST(CkksOnDevice, SharedDeviceAccumulatesAcrossContexts)
{
    // One device can serve a scheme context and an NttRunner
    // workbench at once; its caches and counters are shared.
    const auto device = std::make_shared<RpuDevice>();
    CkksParams params;
    params.n = 1024;
    params.towers = 2;
    params.towerBits = 50;
    CkksContext ctx(params);
    ctx.attachDevice(device);
    NttRunner runner = NttRunner::withModulus(
        params.n, ctx.basis().prime(0), device);

    // encrypt is born Eval on the host (no launch); mulPlain against
    // raw slot values is encodePlain's one batched forward launch
    // plus one tiled pointwise launch for both components.
    const CkksSecretKey sk = ctx.keygen();
    const std::vector<std::complex<double>> ones(ctx.slots(), 1.0);
    const std::vector<std::complex<double>> twos(ctx.slots(), 2.0);
    ctx.mulPlain(ctx.encrypt(sk, ones), twos);
    EXPECT_EQ(device->counters().launches, 2u);

    // The workbench's forward NTT is the third launch.
    const NttKernel fwd = runner.makeKernel();
    Rng rng(41);
    runner.execute(fwd, randomPoly(Modulus(ctx.basis().prime(0)),
                                   params.n, rng));
    EXPECT_EQ(device->counters().launches, 3u);
    EXPECT_GT(device->modulusCache().size(), 0u);
}

// ----------------------------------------------------------------------
// Launch-state reuse
// ----------------------------------------------------------------------

constexpr size_t kReuseVdmBytes = 8192 * arch::kWordBytes;
constexpr unsigned kLanes = arch::kVectorLength;

/**
 * Launch A: leaves state behind everywhere a later launch on a reused
 * ArchState could see it. It stores its input outside its own regions
 * (VDM words 4096..4607), fills SDM words 0..7 from its image, and
 * sets v1, v5, v7, s3, a3 and m1.
 */
KernelImage
stateDirtyingKernel(u128 q)
{
    KernelImage k;
    k.program = Program("dirty_state");
    k.moduli = {q};
    k.vdmBytesRequired = kReuseVdmBytes;
    k.regions = {{"a", 0, kLanes, true, false},
                 {"a.out", 1024, kLanes, false, true}};
    k.sdmImage = {q, 77, 2048, 3, 4, 99, 6, 7};
    Program &p = k.program;
    p.append(Instruction::mload(1, 0));
    p.append(Instruction::sload(3, 1));
    p.append(Instruction::aload(3, 2));
    p.append(Instruction::vload(1, 0, 0));
    p.append(Instruction::vbcast(7, 0, 5));
    p.append(Instruction::shuffle(Opcode::UNPKLO, 5, 1, 7));
    p.append(Instruction::vstore(1, 0, 4096));
    p.append(Instruction::vstore(5, 0, 1024));
    return k;
}

/**
 * Launch B: copies into its output region what a fresh state holds
 * where A left state behind — v1, VDM word 4096.., SDM word 5,
 * s3 (as v5 + s3 mod q, v5 unwritten), the a3-based load (which would
 * hit B's own nonzero input at 6144 were a3 stale), and v7. On a
 * correctly reset state every output word is zero.
 */
KernelImage
stateReadingKernel(u128 q)
{
    KernelImage k;
    k.program = Program("read_state");
    k.moduli = {q};
    k.vdmBytesRequired = kReuseVdmBytes;
    k.regions = {{"in", 6144, kLanes, true, false},
                 {"out", 1024, 6 * kLanes, false, true}};
    k.sdmImage = {q};
    Program &p = k.program;
    p.append(Instruction::vstore(1, 0, 1024));
    p.append(Instruction::vload(2, 0, 4096));
    p.append(Instruction::vstore(2, 0, 1024 + kLanes));
    p.append(Instruction::vbcast(3, 0, 5));
    p.append(Instruction::vstore(3, 0, 1024 + 2 * kLanes));
    p.append(Instruction::mload(1, 0));
    p.append(Instruction::vs_(Opcode::VSADDMOD, 4, 5, 3, 1));
    p.append(Instruction::vstore(4, 0, 1024 + 3 * kLanes));
    p.append(Instruction::vload(6, 3, 4096));
    p.append(Instruction::vstore(6, 0, 1024 + 4 * kLanes));
    p.append(Instruction::vstore(7, 0, 1024 + 5 * kLanes));
    return k;
}

TEST(StateReuse, LaterLaunchSeesOnlyZeros)
{
    const u128 q = nttPrime(60, 1024);
    const KernelImage dirty = stateDirtyingKernel(q);
    const KernelImage reader = stateReadingKernel(q);
    const std::vector<u128> a_in(kLanes, 12345);
    const std::vector<u128> b_in(kLanes, 6789);

    // Serial: one launch at a time, so B runs on the state A used.
    RpuDevice serial;
    const auto a_out = serial.launch(dirty, {a_in});
    const auto b_out = serial.launch(reader, {b_in});
    ASSERT_EQ(b_out.size(), 1u);
    EXPECT_EQ(b_out[0], std::vector<u128>(6 * kLanes, 0));
    ASSERT_EQ(a_out.size(), 1u);
    EXPECT_EQ(a_out[0][0], u128(12345)); // A really ran
    EXPECT_EQ(a_out[0][1], u128(99));

    // An interleaved batch reuses the same state launch after launch;
    // every result must match the first pair bit for bit.
    std::vector<LaunchRequest> batch;
    for (int i = 0; i < 12; ++i) {
        batch.push_back({&dirty, {a_in}});
        batch.push_back({&reader, {b_in}});
    }
    const auto results = serial.launchAll(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i % 2 ? b_out : a_out) << "launch " << i;
}

// ----------------------------------------------------------------------
// Lane word: u64 lanes for narrow-modulus images, u128 otherwise
// ----------------------------------------------------------------------

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

TEST(LaneWord, NarrowImagesRunOnU64Lanes)
{
    const ModeGuard native(simd::HostSimdMode::Native);
    const uint64_t n = 1024;
    RpuDevice dev;
    const auto word = [&](unsigned bits) {
        return FunctionalSimBackend::laneWordFor(
            dev.kernel(KernelKind::PointwiseMulBatched, n,
                       nttPrimes(bits, n, 2)));
    };
    EXPECT_EQ(word(45), LaneWord::U64);
    EXPECT_EQ(word(62), LaneWord::U64);
    EXPECT_EQ(word(124), LaneWord::U128);

    KernelImage image = dev.kernel(KernelKind::PointwiseMulBatched, n,
                                   {nttPrime(45, n)});
    ASSERT_EQ(FunctionalSimBackend::laneWordFor(image), LaneWord::U64);
    image.moduli.push_back((u128(1) << 40) + 2); // even: no narrow kernels
    EXPECT_EQ(FunctionalSimBackend::laneWordFor(image), LaneWord::U128);
    image.moduli.pop_back();
    image.sdmImage.push_back(u128(1) << 64); // a constant no u64 holds
    EXPECT_EQ(FunctionalSimBackend::laneWordFor(image), LaneWord::U128);
    image.sdmImage.pop_back();

    // RPU_HOST_SIMD=scalar keeps every launch on the u128 reference.
    const ModeGuard scalar(simd::HostSimdMode::Scalar);
    EXPECT_EQ(FunctionalSimBackend::laneWordFor(image), LaneWord::U128);
}

struct LaneCase
{
    simd::HostSimdMode mode;
    unsigned bits;
    LaneWord word; ///< the lane word the launch must run on
};

class LaneWordEquivalence : public testing::TestWithParam<LaneCase>
{
};

TEST_P(LaneWordEquivalence, EveryKindMatchesTheCpuReference)
{
    const LaneCase &c = GetParam();
    const ModeGuard guard(c.mode);
    const uint64_t n = 1024;
    const auto primes = nttPrimes(c.bits, n, 2);
    RpuDevice sim;
    RpuDevice ref(std::make_unique<CpuReferenceBackend>());
    Rng rng(c.bits);
    for (int k = 0; k < int(KernelKind::kCount); ++k) {
        const KernelKind kind = KernelKind(k);
        const KernelImage &image = sim.kernel(kind, n, primes);
        EXPECT_EQ(FunctionalSimBackend::laneWordFor(image), c.word)
            << "kind " << k;
        // Below every tower's modulus, so canonical in each.
        std::vector<std::vector<u128>> inputs;
        for (const DataRegion *r : image.inputRegions()) {
            std::vector<u128> x(r->words);
            for (u128 &v : x)
                v = rng.below128(primes[1]);
            inputs.push_back(std::move(x));
        }
        EXPECT_EQ(sim.launch(image, inputs),
                  ref.launch(ref.kernel(kind, n, primes), inputs))
            << "kind " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, LaneWordEquivalence,
    testing::Values(
        LaneCase{simd::HostSimdMode::Native, 45, LaneWord::U64},
        LaneCase{simd::HostSimdMode::Native, 62, LaneWord::U64},
        LaneCase{simd::HostSimdMode::Scalar, 45, LaneWord::U128},
        LaneCase{simd::HostSimdMode::Native, 124, LaneWord::U128}),
    [](const auto &info) {
        return std::string(info.param.mode == simd::HostSimdMode::Scalar
                               ? "scalar"
                               : "native") +
               std::to_string(info.param.bits);
    });

TEST(LaneWord, LanesThatDoNotFitRerunOnU128)
{
    const uint64_t n = 1024;
    const u128 q = nttPrime(45, n);
    Rng rng(3);
    std::vector<u128> a = randomPoly(Modulus(q), n, rng);
    const std::vector<u128> b = randomPoly(Modulus(q), n, rng);
    a[17] = (u128(1) << 64) + 5; // a staged word no u64 lane holds

    // Lanes that fit in 64 bits but whose modular sums do not (an
    // inverse NTT adds two such lanes in its first stage). Here the
    // sums land in the output, where no u64 lane could hold them.
    KernelImage sum;
    sum.program = Program("wide_sum");
    sum.moduli = {q};
    sum.vdmBytesRequired = kReuseVdmBytes;
    sum.regions = {{"x", 0, kLanes, true, false},
                   {"y", 512, kLanes, true, false},
                   {"out", 1024, kLanes, false, true}};
    sum.sdmImage = {q};
    sum.program.append(Instruction::mload(1, 0));
    sum.program.append(Instruction::vload(1, 0, 0));
    sum.program.append(Instruction::vload(2, 0, 512));
    sum.program.append(Instruction::vv(Opcode::VADDMOD, 3, 1, 2, 1));
    sum.program.append(Instruction::vstore(3, 0, 1024));
    std::vector<u128> x(kLanes), y(kLanes);
    for (unsigned i = 0; i < kLanes; ++i) {
        x[i] = ~uint64_t(0) - i;
        y[i] = ~uint64_t(0) - 2 * i;
    }

    const auto launches = [&](RpuDevice &dev) {
        std::vector<std::vector<std::vector<u128>>> out;
        out.push_back(dev.launch(
            dev.kernel(KernelKind::PointwiseMulBatched, n, {q}), {a, b}));
        out.push_back(dev.launch(sum, {x, y}));
        return out;
    };
    std::vector<std::vector<std::vector<u128>>> got;
    {
        const ModeGuard native(simd::HostSimdMode::Native);
        ASSERT_EQ(FunctionalSimBackend::laneWordFor(sum), LaneWord::U64);
        RpuDevice narrow;
        got = launches(narrow);
        EXPECT_EQ(narrow.stats().launches, 2u);
    }
    for (unsigned i = 0; i < kLanes; ++i)
        ASSERT_EQ(got[1][0][i], x[i] + y[i] - q) << "lane " << i;

    const ModeGuard scalar(simd::HostSimdMode::Scalar);
    RpuDevice wide;
    EXPECT_EQ(got, launches(wide));
}

} // namespace
} // namespace rpu
