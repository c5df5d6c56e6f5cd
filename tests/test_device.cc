/**
 * @file
 * The RpuDevice backend layer: kernel-cache semantics, shared numeric
 * context caches, backend equivalence (functional simulator vs CPU
 * reference baseline), batched tower launches, and the BFV RNS-tower
 * multiply path that makes the simulated RPU the execution engine of
 * the HE pipeline.
 */

#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "modmath/primegen.hh"
#include "rlwe/bfv.hh"
#include "rlwe_test_util.hh"
#include "rpu/device.hh"
#include "rpu/runner.hh"

namespace rpu {
namespace {

TEST(KernelCache, HitMissSemantics)
{
    RpuDevice dev;
    const uint64_t n = 1024;
    const u128 q = nttPrime(60, n);

    const KernelImage &fwd = dev.kernel(KernelKind::ForwardNtt, n, {q});
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, 0u);

    // Same spec: a hit, and the very same image.
    const KernelImage &again =
        dev.kernel(KernelKind::ForwardNtt, n, {q});
    EXPECT_EQ(&fwd, &again);
    EXPECT_EQ(dev.counters().kernelMisses, 1u);
    EXPECT_EQ(dev.counters().kernelHits, 1u);

    // Different kind, codegen flavour, or modulus: all misses.
    dev.kernel(KernelKind::InverseNtt, n, {q});
    dev.kernel(KernelKind::ForwardNtt, n, {q}, {.optimized = false});
    dev.kernel(KernelKind::ForwardNtt, n, {nttPrime(59, n)});
    EXPECT_EQ(dev.counters().kernelMisses, 4u);
    EXPECT_EQ(dev.cachedKernels(), 4u);

    // A different design point reschedules, so it is a distinct kernel.
    NttCodegenOptions opts;
    opts.scheduleConfig.numHples = 32;
    dev.kernel(KernelKind::ForwardNtt, n, {q}, opts);
    EXPECT_EQ(dev.counters().kernelMisses, 5u);

    // ... but unoptimized generation never consults the design point,
    // so sweeping it must keep hitting the one unoptimized kernel.
    NttCodegenOptions unopt;
    unopt.optimized = false;
    unopt.scheduleConfig.numHples = 32;
    dev.kernel(KernelKind::ForwardNtt, n, {q}, unopt);
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

    dev.ntt(n, q, x);
    const size_t contexts_after_first = dev.modulusCache().size();
    EXPECT_GT(contexts_after_first, 0u);

    dev.ntt(n, q, x);
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
    // bit-identical across backends.
    const auto fwd_sim = sim.ntt(n, q, a);
    EXPECT_EQ(fwd_sim, ref.ntt(n, q, a));
    EXPECT_EQ(sim.ntt(n, q, fwd_sim, true),
              ref.ntt(n, q, fwd_sim, true));
    const auto polyMul = [&](RpuDevice &dev) {
        return dev.launch(dev.kernel(KernelKind::PolyMul, n, {q}),
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
    dev.kernel(KernelKind::ForwardNtt, n, {q}, base);

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
        dev.kernel(KernelKind::ForwardNtt, n, {q}, opts);
        ++expected_misses;
        EXPECT_EQ(dev.counters().kernelMisses, expected_misses)
            << "a scheduleConfig field is missing from the kernel key";
        // Requesting the same mutated config again must hit.
        dev.kernel(KernelKind::ForwardNtt, n, {q}, opts);
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
            dev.kernel(KernelKind::PolyMul, n, {q});
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
// Parallel launches
// ----------------------------------------------------------------------

/** A batch of per-tower fused products over distinct moduli. */
std::vector<LaunchRequest>
towerBatch(RpuDevice &dev, uint64_t n, const std::vector<u128> &primes,
           uint64_t seed)
{
    Rng rng(seed);
    std::vector<LaunchRequest> batch;
    for (u128 q : primes) {
        const KernelImage &k = dev.kernel(KernelKind::PolyMul, n, {q});
        const Modulus mod(q);
        batch.push_back(
            {&k, {randomPoly(mod, n, rng), randomPoly(mod, n, rng)}});
    }
    return batch;
}

TEST(ParallelLaunch, BitIdenticalToSerial)
{
    const uint64_t n = 1024;
    const auto primes = nttPrimes(60, n, 6);
    RpuDevice dev;
    const auto batch = towerBatch(dev, n, primes, 17);

    EXPECT_EQ(dev.parallelism(), 1u);
    const auto serial = dev.launchAll(batch);

    dev.setParallelism(4);
    EXPECT_EQ(dev.parallelism(), 4u);
    const auto parallel = dev.launchAll(batch);

    // Same batch, worker pool on: request-ordered and bit-identical.
    EXPECT_EQ(parallel, serial);

    // Determinism across repeated parallel runs.
    EXPECT_EQ(dev.launchAll(batch), serial);

    dev.setParallelism(1);
    EXPECT_EQ(dev.parallelism(), 1u);
    EXPECT_EQ(dev.launchAll(batch), serial);
}

TEST(ParallelLaunch, DispatchGroupsOverlapOnThePool)
{
    // 8 items x 3 towers tile into two groups: a serial device runs
    // them back to back, a pooled device runs them as one launchAll
    // across two workers — same launches, same results.
    const uint64_t n = 1024;
    const auto primes = nttPrimes(58, n, 3);
    const std::vector<std::vector<u128>> moduli(8, primes);

    Rng rng(23);
    TowerItems xs(moduli.size());
    for (auto &item : xs)
        for (u128 q : primes)
            item.push_back(randomPoly(Modulus(q), n, rng));

    RpuDevice serial_dev;
    const auto serial =
        serial_dev.dispatch(RingOp::Forward, n, moduli, xs);

    RpuDevice parallel_dev;
    parallel_dev.setParallelism(4);
    const auto parallel =
        parallel_dev.dispatch(RingOp::Forward, n, moduli, xs);
    EXPECT_EQ(parallel, serial);

    // ceil(24 / 16) launches either way; the pooled ones ran on
    // workers, never inline, two lanes at once.
    EXPECT_EQ(serial_dev.counters().launches, 2u);
    const DeviceStats s = parallel_dev.stats();
    EXPECT_EQ(s.launches, 2u);
    EXPECT_EQ(s.towerLaunches, 24u);
    EXPECT_EQ(s.perWorkerLaunches[0], 0u);
    EXPECT_EQ(s.maxOccupiedLanes, 2u);
}

TEST(ParallelLaunch, ConcurrentCallersStress)
{
    // >= 4 host threads hammer one 4-worker device concurrently —
    // kernel cache, context caches, counters, and the worker pool all
    // see contention; every result must still be exact.
    const uint64_t n = 1024;
    const size_t callers = 4;
    const size_t rounds = 3;
    const auto primes = nttPrimes(59, n, callers);

    RpuDevice dev;
    dev.setParallelism(4);

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
                    dev.kernel(KernelKind::PolyMul, n, {q}), {a, b})[0];
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
            images[c] = &dev.kernel(KernelKind::ForwardNtt, n, {q});
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
                dev.kernel(KernelKind::ForwardNtt, n, {q});
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
// BFV on the device
// ----------------------------------------------------------------------

RlweParams
smallParams()
{
    RlweParams p;
    p.n = 1024;
    p.towers = 2;
    p.towerBits = 50;
    p.plaintextModulus = 65537;
    p.noiseBound = 4;
    return p;
}

TEST(BfvOnDevice, PlaintextMultiplyExecutesOnTheRpu)
{
    // The acceptance check: an HE multiply must actually run on the
    // simulated RPU through the device (non-zero launch and cache
    // counters) and produce ciphertexts identical to the host
    // pointwise path, tower for tower.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();

    Rng rng(33);
    std::vector<uint64_t> msg(ctx.params().n);
    for (auto &v : msg)
        v = rng.below64(ctx.params().plaintextModulus);
    std::vector<uint64_t> plain(ctx.params().n, 0);
    plain[0] = 2;
    plain[5] = 40000;
    const Ciphertext ct = ctx.encrypt(sk, msg);

    // Host reference path first (no device attached yet).
    const Ciphertext via_host = ctx.mulPlain(ct, plain);

    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);
    const Ciphertext via_rpu = ctx.mulPlain(ct, plain);

    // Identical ciphertexts, bit for bit, still Eval-resident.
    EXPECT_EQ(via_rpu.c0, via_host.c0);
    EXPECT_EQ(via_rpu.c1, via_host.c1);
    EXPECT_EQ(via_rpu.domain(), ResidueDomain::Eval);

    // The device did the work, and only the minimal work: one
    // batched forward transform for the plaintext encode, then one
    // tiled pointwise launch for both ciphertext components — the
    // Eval-resident ciphertext itself was never transformed (the
    // elision ledger shows both components skipped).
    const size_t towers = ctx.basis().towers();
    {
        const DeviceStats s = device->stats();
        // 3 -> 2: the serial path now tiles across items (both
        // components share one pointwise launch).
        EXPECT_EQ(s.launches, 2u);
        EXPECT_EQ(s.kernelMisses, 2u);
        EXPECT_EQ(s.towerLaunches, 3 * towers);
        EXPECT_EQ(s.forwardTransforms, towers);
        EXPECT_EQ(s.inverseTransforms, 0u);
        EXPECT_EQ(s.pointwiseMuls, 2 * towers);
        EXPECT_EQ(s.transformsElided, 2 * towers);
    }

    // A second multiply reuses both cached kernels.
    const Ciphertext again = ctx.mulPlain(ct, plain);
    EXPECT_EQ(again.c0, via_host.c0);
    const DeviceCounters &c = device->counters();
    EXPECT_EQ(c.launches, 4u); // 6 -> 4: serial path tiles across items
    EXPECT_EQ(c.kernelMisses, 2u);
    EXPECT_EQ(c.kernelHits, 2u);

    // And the result still decrypts correctly.
    EXPECT_EQ(ctx.decrypt(sk, via_rpu),
              testutil::naiveNegacyclicModT(
                  msg, plain, ctx.params().plaintextModulus));
}

TEST(BfvOnDevice, ParallelDeviceBitIdenticalToSerial)
{
    // The whole Eval-resident pipeline on a pooled device must be
    // bit-identical to both the serial device and the host path.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();

    Rng rng(51);
    std::vector<uint64_t> msg(ctx.params().n), plain(ctx.params().n);
    for (auto &v : msg)
        v = rng.below64(ctx.params().plaintextModulus);
    for (auto &v : plain)
        v = rng.below64(ctx.params().plaintextModulus);
    const Ciphertext ct = ctx.encrypt(sk, msg);
    const Ciphertext via_host = ctx.mulPlain(ct, plain); // no device

    const auto device = std::make_shared<RpuDevice>();
    device->setParallelism(4);
    ctx.attachDevice(device);
    const Ciphertext via_pool = ctx.mulPlain(ct, plain);
    EXPECT_EQ(via_pool.c0, via_host.c0);
    EXPECT_EQ(via_pool.c1, via_host.c1);

    // 6 -> 2: a pooled device runs the same tile groups as a serial
    // one (the per-tower fan-out is gone) — the encode's forward
    // launch plus one pointwise launch for both components.
    EXPECT_EQ(device->counters().launches, 2u);

    device->setParallelism(1);
    const Ciphertext via_serial = ctx.mulPlain(ct, plain);
    EXPECT_EQ(via_serial.c0, via_pool.c0);
    EXPECT_EQ(via_serial.c1, via_pool.c1);
}

TEST(BfvOnDevice, EvalResidentPathMatchesAcrossBackends)
{
    // Backend-equivalence for the full encode + pointwise-multiply
    // path: the functional simulator and the CPU reference baseline
    // must both reproduce the host-path ciphertexts bit for bit.
    BfvContext ctx(smallParams());
    const SecretKey sk = ctx.keygen();

    Rng rng(53);
    std::vector<uint64_t> msg(ctx.params().n), plain(ctx.params().n);
    for (auto &v : msg)
        v = rng.below64(ctx.params().plaintextModulus);
    for (auto &v : plain)
        v = rng.below64(ctx.params().plaintextModulus);
    const Ciphertext ct = ctx.encrypt(sk, msg);
    const Ciphertext reference = ctx.mulPlain(ct, plain); // no device

    ctx.attachDevice(
        std::make_shared<RpuDevice>(
            std::make_unique<CpuReferenceBackend>()));
    const Ciphertext via_cpu_ref = ctx.mulPlain(ct, plain);
    EXPECT_EQ(via_cpu_ref.c0, reference.c0);
    EXPECT_EQ(via_cpu_ref.c1, reference.c1);

    ctx.attachDevice(std::make_shared<RpuDevice>());
    const Ciphertext via_sim = ctx.mulPlain(ct, plain);
    EXPECT_EQ(via_sim.c0, reference.c0);
    EXPECT_EQ(via_sim.c1, reference.c1);
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
    EXPECT_EQ(sim.pointwiseMul(n, q, a, b), expected);
    EXPECT_EQ(ref.pointwiseMul(n, q, a, b), expected);

    // The generated program really has no butterfly stages: it is a
    // small fraction of the fused polymul's size.
    const KernelImage &pw = sim.kernel(KernelKind::PointwiseMul, n, {q});
    const KernelImage &mul = sim.kernel(KernelKind::PolyMul, n, {q});
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
    // Eval <-> Coeff round trip, bit-identical on every tower, across
    // the serial device, a pooled device, and the CPU reference
    // backend — the transition ResidueOps issues at domain
    // boundaries.
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

    RpuDevice serial;
    EXPECT_EQ(round_trip(serial), original);

    RpuDevice pooled;
    pooled.setParallelism(4);
    EXPECT_EQ(round_trip(pooled), original);

    RpuDevice ref(std::make_unique<CpuReferenceBackend>());
    EXPECT_EQ(round_trip(ref), original);
}

TEST(DeviceStats, AggregatesLaunchesTransformsAndWorkers)
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

    // Serial: one batched polymul launch (2 fwd + 1 inv + 1 pointwise
    // per tower) plus one explicitly elided conversion.
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
        // Serial launches attribute to slot 0 (the calling thread).
        ASSERT_EQ(s.perWorkerLaunches.size(), 1u);
        EXPECT_EQ(s.perWorkerLaunches[0], 1u);
        // The cycle ledger folds the kernel's modelled cost into the
        // same slot: one lane did everything, so the makespan IS the
        // total.
        ASSERT_EQ(s.perWorkerCycles.size(), 1u);
        EXPECT_GT(s.perWorkerCycles[0], 0u);
        EXPECT_EQ(s.cycleTotal(), s.perWorkerCycles[0]);
        EXPECT_EQ(s.makespanCycles(), s.cycleTotal());
        EXPECT_FALSE(s.summary().empty());
    }

    // Pooled: a batch of per-tower launches spread across workers;
    // the per-worker ledger must account for every launch exactly
    // once.
    const auto batch = towerBatch(dev, n, primes, 101);
    dev.resetCounters();
    dev.setParallelism(2);
    dev.launchAll(batch);
    {
        const DeviceStats s = dev.stats();
        EXPECT_EQ(s.launches, primes.size());
        ASSERT_EQ(s.perWorkerLaunches.size(), 3u); // inline + 2 workers
        uint64_t attributed = 0;
        for (uint64_t w : s.perWorkerLaunches)
            attributed += w;
        EXPECT_EQ(attributed, s.launches);
        // Worker launches never attribute to the inline slot.
        EXPECT_EQ(s.perWorkerLaunches[0], 0u);
        // Per-worker cycles follow the launches: nothing on the
        // inline slot, every launch's modelled cost on some worker,
        // and the makespan (busiest lane) bounded by the total.
        ASSERT_EQ(s.perWorkerCycles.size(), 3u);
        EXPECT_EQ(s.perWorkerCycles[0], 0u);
        EXPECT_GT(s.cycleTotal(), 0u);
        EXPECT_GT(s.makespanCycles(), 0u);
        EXPECT_LE(s.makespanCycles(), s.cycleTotal());
    }

    // The per-kernel cost the ledger folds in is stamped on the
    // cached image at generation and stable across launches.
    const KernelImage &k = dev.kernel(KernelKind::PolyMul, n,
                                      {primes[0]});
    EXPECT_GT(k.modelCycles, 0u);

    // resetCounters clears the whole snapshot.
    dev.resetCounters();
    const DeviceStats cleared = dev.stats();
    EXPECT_EQ(cleared.launches, 0u);
    EXPECT_EQ(cleared.transformsIssued(), 0u);
    EXPECT_EQ(cleared.transformsElided, 0u);
    EXPECT_EQ(cleared.cycleTotal(), 0u);
    for (uint64_t w : cleared.perWorkerLaunches)
        EXPECT_EQ(w, 0u);
}

TEST(BfvOnDevice, SharedDeviceAccumulatesAcrossContexts)
{
    // One device can serve several scheme contexts (and NttRunner
    // workbenches); its caches are shared.
    const auto device = std::make_shared<RpuDevice>();
    BfvContext ctx(smallParams());
    ctx.attachDevice(device);
    NttRunner runner = NttRunner::withModulus(
        ctx.params().n, ctx.basis().prime(0), device);

    // encode (1 batched forward launch) + mulPlain (1 tiled
    // pointwise launch for both components).
    const SecretKey sk = ctx.keygen();
    std::vector<uint64_t> msg(ctx.params().n, 1), plain(ctx.params().n,
                                                        2);
    ctx.mulPlain(ctx.encrypt(sk, msg), plain);

    const NttKernel fwd = runner.makeKernel();
    Rng rng(41);
    runner.execute(fwd, randomPoly(Modulus(ctx.basis().prime(0)),
                                   ctx.params().n, rng));
    // 4 -> 3: the serial path now tiles across items.
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

    // Pooled: an interleaved batch on four workers reuses states in
    // whatever order the workers pick them up; the results must match
    // the serial ones bit for bit.
    RpuDevice pooled;
    pooled.setParallelism(4);
    std::vector<LaunchRequest> batch;
    for (int i = 0; i < 12; ++i) {
        batch.push_back({&dirty, {a_in}});
        batch.push_back({&reader, {b_in}});
    }
    const auto results = pooled.launchAll(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i % 2 ? b_out : a_out) << "launch " << i;
}

} // namespace
} // namespace rpu
