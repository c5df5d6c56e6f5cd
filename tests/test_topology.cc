/**
 * @file
 * RpuTopology and the multi-RPU serving path: shared kernel caches
 * across devices ("generate once, launch anywhere"), the
 * HBM-contention refinement of the per-worker cycle ledger, the
 * topology stats roll-up (padding-correct summing, makespan as a max
 * over devices), bit-identity of the sharded tiled dispatch against
 * per-item single-ring launches, the makespan scheduler's placement rules
 * (paused devices never selected, load-correcting bookings), and the
 * load-bearing degeneracy: a 1-device-topology server is
 * bit-identical — outputs and launch ledger — to the single-device
 * server.
 */

#include <gtest/gtest.h>

#include <complex>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "modmath/primegen.hh"
#include "modmath/simd.hh"
#include "model/contention.hh"
#include "rlwe/ckks.hh"
#include "rpu/device.hh"
#include "rpu/topology.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"

namespace rpu {
namespace {

using serve::HeServer;
using serve::MakespanScheduler;
using serve::RequestOp;
using serve::ServeConfig;
using serve::ServeResponse;
using serve::SubmitStatus;

using Cplx = std::complex<double>;

CkksParams
topoParams()
{
    CkksParams p;
    p.n = 1024;
    p.towers = 3;
    p.towerBits = 45;
    p.scale = 1099511627776.0; // 2^40
    p.noiseBound = 4;
    return p;
}

std::vector<Cplx>
slotValues(size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Cplx> v(count);
    for (auto &z : v)
        z = {2.0 * rng.nextDouble() - 1.0, 2.0 * rng.nextDouble() - 1.0};
    return v;
}

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

/** @p items coalesced-transform inputs over the standard 3-tower
 *  basis: items x towers regions of ring randomness. */
std::vector<std::vector<std::vector<u128>>>
coalescedInputs(size_t items, const std::vector<u128> &primes,
                uint64_t n, uint64_t seed)
{
    std::vector<std::vector<std::vector<u128>>> xs(items);
    for (size_t i = 0; i < items; ++i) {
        for (size_t t = 0; t < primes.size(); ++t) {
            std::vector<u128> region(n);
            Rng rng(seed + 1000 * i + t);
            for (auto &x : region)
                x = rng.below64(uint64_t(primes[t]));
            xs[i].push_back(std::move(region));
        }
    }
    return xs;
}

// ----------------------------------------------------------------------
// HbmContentionModel
// ----------------------------------------------------------------------

TEST(HbmContentionModel, SingleLaneReproducesTheCycleLedgerExactly)
{
    HbmContentionModel m;
    // Fully overlapped staging at one occupant: busy == compute, no
    // matter how much data moved.
    EXPECT_EQ(m.busyCycles(1234, 1u << 20, 1), 1234u);
    EXPECT_EQ(m.busyCycles(1234, 1u << 20, 0), 1234u);
    EXPECT_EQ(m.stagingCycles(0), 0u);
    EXPECT_GE(m.stagingCycles(1), 1u);
}

TEST(HbmContentionModel, EachExtraLaneReexposesStagingOnce)
{
    HbmContentionModel m;
    const uint64_t words = 4096;
    const uint64_t staging = m.stagingCycles(words);
    ASSERT_GT(staging, 0u);
    EXPECT_EQ(m.busyCycles(1000, words, 2), 1000 + staging);
    EXPECT_EQ(m.busyCycles(1000, words, 4), 1000 + 3 * staging);
}

// ----------------------------------------------------------------------
// Shared caches across the topology
// ----------------------------------------------------------------------

TEST(RpuTopology, KernelGeneratedOnDeviceZeroIsACacheHitOnDeviceOne)
{
    RpuTopology topo(2);
    const CkksContext ctx(topoParams(), 5);
    const std::vector<u128> primes = ctx.basis().primes();

    (void)topo.device(0)->kernel(KernelKind::BatchedForwardNtt, 1024,
                                 primes);
    const DeviceStats d0 = topo.device(0)->stats();
    EXPECT_EQ(d0.kernelMisses, 1u);

    // Same key from the other device: a hit on the shared bundle —
    // no regeneration, no second cycle simulation.
    (void)topo.device(1)->kernel(KernelKind::BatchedForwardNtt, 1024,
                                 primes);
    const DeviceStats d1 = topo.device(1)->stats();
    EXPECT_EQ(d1.kernelMisses, 0u);
    EXPECT_EQ(d1.kernelHits, 1u);
    EXPECT_EQ(topo.device(0)->cachedKernels(),
              topo.device(1)->cachedKernels());
}

// ----------------------------------------------------------------------
// DeviceStats aggregation across a device set
// ----------------------------------------------------------------------

TEST(RpuTopology, StatsSumPadsPerWorkerVectorsAcrossDevices)
{
    DeviceStats narrow;
    narrow.launches = 2;
    narrow.perWorkerLaunches = {2};
    narrow.perWorkerCycles = {100};
    narrow.perWorkerStagingCycles = {10};
    narrow.perWorkerBusyCycles = {100};
    narrow.maxOccupiedLanes = 1;

    DeviceStats wide;
    wide.launches = 3;
    wide.perWorkerLaunches = {0, 1, 2};
    wide.perWorkerCycles = {0, 40, 80};
    wide.perWorkerStagingCycles = {0, 4, 8};
    wide.perWorkerBusyCycles = {0, 44, 88};
    wide.maxOccupiedLanes = 2;

    const DeviceStats sum = narrow + wide;
    EXPECT_EQ(sum.launches, 5u);
    ASSERT_EQ(sum.perWorkerLaunches.size(), 3u);
    EXPECT_EQ(sum.perWorkerLaunches[0], 2u);
    EXPECT_EQ(sum.perWorkerLaunches[1], 1u);
    EXPECT_EQ(sum.perWorkerCycles[0], 100u);
    EXPECT_EQ(sum.perWorkerCycles[2], 80u);
    EXPECT_EQ(sum.cycleTotal(), 220u);
    EXPECT_EQ(sum.stagingCycleTotal(), 22u);
    EXPECT_EQ(sum.busyCycleTotal(), 232u);
    // High-water marks don't add.
    EXPECT_EQ(sum.maxOccupiedLanes, 2u);
}

TEST(RpuTopology, WindowedStatsSumAndMakespanIsTheDeviceMax)
{
    RpuTopology topo(2);
    const CkksContext ctx(topoParams(), 5);
    const std::vector<u128> primes = ctx.basis().primes();
    const uint64_t n = 1024;

    const RpuTopology::Snapshot before = topo.snapshot();
    auto xs = coalescedInputs(2, primes, n, 17);
    (void)topo.device(0)->dispatch(RingOp::Forward, n, {primes, primes},
                                   std::move(xs));
    auto ys = coalescedInputs(1, primes, n, 18);
    (void)topo.device(1)->dispatch(RingOp::Forward, n, {primes},
                                   std::move(ys));

    const RpuTopology::Snapshot window = topo.since(before);
    ASSERT_EQ(window.size(), 2u);
    EXPECT_GT(window[0].launches, 0u);
    EXPECT_GT(window[1].launches, 0u);

    const DeviceStats sum = RpuTopology::aggregate(window);
    EXPECT_EQ(sum.launches,
              window[0].launches + window[1].launches);
    EXPECT_EQ(sum.cycleTotal(),
              window[0].cycleTotal() + window[1].cycleTotal());

    // The topology makespan is a max over devices, not a sum: with
    // both serial devices busy the window's wall clock is the slower
    // device, and it is strictly less than the serialised total.
    const uint64_t makespan = RpuTopology::makespanCycles(window);
    EXPECT_EQ(makespan, std::max(window[0].busyMakespanCycles(),
                                 window[1].busyMakespanCycles()));
    EXPECT_LT(makespan, sum.busyCycleTotal());
}

// ----------------------------------------------------------------------
// Contention ledger: strict only under concurrent lanes
// ----------------------------------------------------------------------

TEST(RpuTopology, ContentionLedgerIsStrictExactlyWhenLanesOverlap)
{
    const CkksContext ctx(topoParams(), 5);
    const std::vector<u128> primes = ctx.basis().primes();
    const uint64_t n = 1024;

    // 6 items x 3 towers tile into two groups: one lane at a time on
    // a serial device, two concurrent lanes on a pooled one.
    const auto run = [&](unsigned workers) {
        auto device = std::make_shared<RpuDevice>();
        if (workers > 1)
            device->setParallelism(workers);
        (void)device->dispatch(
            RingOp::Forward, n,
            std::vector<std::vector<u128>>(6, primes),
            coalescedInputs(6, primes, n, 23));
        return device->stats();
    };

    const DeviceStats serial = run(1);
    EXPECT_EQ(serial.busyMakespanCycles(), serial.makespanCycles());
    EXPECT_EQ(serial.contendedLaunches, 0u);
    EXPECT_EQ(serial.maxOccupiedLanes, 1u);

    const DeviceStats pooled = run(4);
    EXPECT_GT(pooled.contendedLaunches, 0u);
    EXPECT_GT(pooled.busyMakespanCycles(), pooled.makespanCycles());
    EXPECT_EQ(pooled.maxOccupiedLanes, 2u);
}

// ----------------------------------------------------------------------
// Tiled dispatch across devices
// ----------------------------------------------------------------------

TEST(RpuTopology, ShardedDispatchMatchesPerItemSingleRingLaunches)
{
    // Items of 3, 5, 9 and 1 towers: 18 towers tile into two groups,
    // the boundary inside the 9-tower item. Every op, placed by a
    // non-uniform plan in either order, must match per-item
    // single-ring launches bit for bit under both host-SIMD modes,
    // and each device must pay exactly its planned group.
    const uint64_t n = 1024;
    const std::vector<size_t> counts = {3, 5, 9, 1};
    const auto primes = nttPrimes(50, n, 9);
    std::vector<std::vector<u128>> moduli;
    TowerItems xs, a, b;
    Rng rng(91);
    for (size_t i = 0; i < counts.size(); ++i) {
        moduli.emplace_back();
        xs.emplace_back();
        a.emplace_back();
        b.emplace_back();
        for (size_t t = 0; t < counts[i]; ++t) {
            const u128 q = primes[(i + t) % primes.size()];
            moduli[i].push_back(q);
            xs[i].push_back(randomPoly(Modulus(q), n, rng));
            a[i].push_back(randomPoly(Modulus(q), n, rng));
            b[i].push_back(randomPoly(Modulus(q), n, rng));
        }
    }
    ASSERT_EQ(DispatchTiles::cut(moduli).size(), 2u);

    RpuDevice single;
    TowerItems want_fwd = xs, want_inv = xs, want_pw = a;
    for (size_t i = 0; i < moduli.size(); ++i) {
        for (size_t t = 0; t < moduli[i].size(); ++t) {
            const u128 q = moduli[i][t];
            want_fwd[i][t] = single.ntt(n, q, xs[i][t]);
            want_inv[i][t] = single.ntt(n, q, xs[i][t], true);
            want_pw[i][t] = single.pointwiseMul(n, q, a[i][t], b[i][t]);
        }
    }

    for (const auto mode :
         {simd::HostSimdMode::Scalar, simd::HostSimdMode::Native}) {
        const ModeGuard guard(mode);
        for (const std::vector<size_t> &plan :
             {std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}}) {
            RpuTopology topo(2);
            const RpuTopology::Snapshot before = topo.snapshot();
            EXPECT_EQ(topo.dispatch(plan, RingOp::Forward, n, moduli, xs),
                      want_fwd);
            EXPECT_EQ(topo.dispatch(plan, RingOp::Inverse, n, moduli, xs),
                      want_inv);
            EXPECT_EQ(
                topo.dispatch(plan, RingOp::Pointwise, n, moduli, a, b),
                want_pw);
            const RpuTopology::Snapshot window = topo.since(before);
            EXPECT_EQ(window[0].launches, 3u);
            EXPECT_EQ(window[1].launches, 3u);
            EXPECT_EQ(RpuTopology::aggregate(window).pointwiseMuls, 18u);
        }
    }
}

TEST(RpuTopology, UniformPlanIsTheDeviceOwnDispatch)
{
    const CkksContext ctx(topoParams(), 5);
    const std::vector<u128> primes = ctx.basis().primes();
    const uint64_t n = 1024;
    // 8 items x 3 towers = 24 towers -> 2 tile groups.
    const std::vector<std::vector<u128>> moduli(8, primes);

    RpuDevice single;
    const auto want = single.dispatch(RingOp::Forward, n, moduli,
                                      coalescedInputs(8, primes, n, 51));

    RpuTopology topo(2);
    const RpuTopology::Snapshot before = topo.snapshot();
    const auto got = topo.dispatch({1, 1}, RingOp::Forward, n, moduli,
                                   coalescedInputs(8, primes, n, 51));
    EXPECT_EQ(got, want);
    const RpuTopology::Snapshot window = topo.since(before);
    EXPECT_EQ(window[0].launches, 0u);
    EXPECT_EQ(window[1].launches, single.stats().launches);
}

// ----------------------------------------------------------------------
// MakespanScheduler
// ----------------------------------------------------------------------

/** One stage of @p groups full tile groups. */
std::vector<StageShape>
stageOfGroups(size_t groups)
{
    const std::vector<u128> primes = nttPrimes(45, 1024, 1);
    return {{RingOp::Forward,
             std::vector<std::vector<u128>>(
                 groups * RpuDevice::kMaxBatchedTowers, primes)}};
}

TEST(MakespanScheduler, OneDeviceTopologyAlwaysPlacesOnDeviceZero)
{
    auto topo = std::make_shared<RpuTopology>(1);
    MakespanScheduler sched(topo);
    for (int i = 0; i < 4; ++i) {
        auto p = sched.place(RequestOp::MulPlainRescale, "c", 8);
        EXPECT_EQ(p.device, 0u);
        EXPECT_EQ(sched.splitPlans(p, RequestOp::MulPlainRescale, "c", 8,
                                   stageOfGroups(3)),
                  (std::vector<std::vector<size_t>>{{0, 0, 0}}));
        sched.complete(p, RequestOp::MulPlainRescale, "c", 8, 1000,
                       100);
    }
}

TEST(MakespanScheduler, PlacementsBalanceAndBookingsAreCorrected)
{
    auto topo = std::make_shared<RpuTopology>(2);
    MakespanScheduler sched(topo);
    const auto op = RequestOp::MulPlainRescale;

    // Bootstrap: no estimate yet, ties break to device 0; the
    // completion seeds the estimate and leaves real load behind.
    const auto p0 = sched.place(op, "c", 8);
    EXPECT_EQ(p0.device, 0u);
    sched.complete(p0, op, "c", 8, 8000, 800);
    EXPECT_EQ(sched.load(0), 8000u);

    // Next chunk of the same class: device 1 is now cheaper.
    const auto p1 = sched.place(op, "c", 8);
    EXPECT_EQ(p1.device, 1u);
    EXPECT_GT(p1.booked, 0u);
    sched.complete(p1, op, "c", 8, 8000, 800);

    // Balanced again; makespan projection is the max.
    EXPECT_EQ(sched.load(0), sched.load(1));
    EXPECT_EQ(sched.modelledMakespan(), sched.load(0));
}

TEST(MakespanScheduler, PausedDeviceIsNeverSelected)
{
    auto topo = std::make_shared<RpuTopology>(3);
    // Without the split policy, stage plans round-robin their groups.
    MakespanScheduler sched(topo, serve::SchedulerPolicy{true, false});
    const auto op = RequestOp::MulPlainRescale;
    sched.pause(0);
    EXPECT_TRUE(sched.paused(0));

    for (int i = 0; i < 6; ++i) {
        auto p = sched.place(op, "c", 4);
        EXPECT_NE(p.device, 0u);
        // Stage plans skip it too, no matter how many groups.
        const auto plans = sched.splitPlans(p, op, "c", 4,
                                            stageOfGroups(5));
        ASSERT_EQ(plans.size(), 1u);
        EXPECT_EQ(plans[0].size(), 5u);
        for (size_t d : plans[0])
            EXPECT_NE(d, 0u);
        sched.complete(p, op, "c", 4, 4000, 400);
    }

    sched.resume(0);
    EXPECT_FALSE(sched.paused(0));
    // With devices 1 and 2 loaded, the resumed idle device wins.
    EXPECT_EQ(sched.place(op, "c", 4).device, 0u);
}

TEST(MakespanScheduler, EwmaSeedsExactlyAndConvergesAfterWrongFirstSample)
{
    auto topo = std::make_shared<RpuTopology>(2);
    MakespanScheduler sched(topo);
    const auto op = RequestOp::MulPlainRescale;

    // Cold start: no estimate yet books only the nominal cycle (so a
    // batch still spreads), and the first completion seeds the
    // estimate exactly rather than EWMA-blending it with zero.
    const auto p0 = sched.place(op, "c", 8);
    EXPECT_EQ(p0.booked, 1u);
    sched.complete(p0, op, "c", 8, 80000, 800); // 10x the true cost
    EXPECT_EQ(sched.place(op, "c", 8).booked, 80000u);

    // Feed the true cost (1000/request); the deliberately wrong first
    // sample must wash out of the booking within a few dozen chunks.
    for (int i = 0; i < 21; ++i) {
        const auto p = sched.place(op, "c", 8);
        sched.complete(p, op, "c", 8, 8000, 800);
    }
    const auto converged = sched.place(op, "c", 8);
    EXPECT_GE(converged.booked, 8000u);
    EXPECT_LE(converged.booked, 8800u); // within 10% of the true cost
}

TEST(MakespanScheduler, FailedChunkReleasesBookingButSkipsEwma)
{
    auto topo = std::make_shared<RpuTopology>(2);
    MakespanScheduler sched(topo);
    const auto op = RequestOp::MulPlainRescale;

    const auto p0 = sched.place(op, "c", 8);
    sched.complete(p0, op, "c", 8, 8000, 800);
    const uint64_t seeded = sched.place(op, "c", 8).booked;
    EXPECT_EQ(seeded, 8000u);

    // A chunk that dies partway measures a nonsense window. The
    // booking must still be released (the load ledger reflects the
    // cycles the attempt paid), but the estimate must not move — a
    // partial window is not a cost sample.
    const auto p1 = sched.place(op, "c", 8);
    std::vector<uint64_t> busy(2, 0);
    busy[p1.device] = 999999;
    sched.complete(p1, op, "c", 8, busy, 0, /*failed=*/true);
    EXPECT_GE(sched.load(p1.device), 999999u);
    EXPECT_EQ(sched.place(op, "c", 8).booked, seeded);
}

TEST(MakespanScheduler, PlaceBatchBooksLongestChunksFirst)
{
    // Two classes with 10x different learned costs, two devices with
    // unequal loads. Lookahead must book the expensive chunk onto the
    // emptier device before the cheap one can squat there; greedy in
    // pop order stacks both on it.
    const auto op = RequestOp::MulPlainRescale;
    const auto seed = [&](MakespanScheduler &sched) {
        const auto pb = sched.place(op, "big", 1);
        sched.complete(pb, op, "big", 1, 1000, 0); // device 0: load 1000
        const auto ps = sched.place(op, "small", 1);
        sched.complete(ps, op, "small", 1, 100, 0); // device 1: load 100
    };
    const std::vector<MakespanScheduler::ChunkDesc> batch = {
        {op, "small", 1}, {op, "big", 1}};

    auto topo = std::make_shared<RpuTopology>(2);
    MakespanScheduler lpt(topo, serve::SchedulerPolicy::all());
    seed(lpt);
    const auto spread = lpt.placeBatch(batch);
    EXPECT_EQ(spread[1].device, 1u); // big books first, takes the idle
    EXPECT_EQ(spread[0].device, 0u); // small lands beside the old load

    MakespanScheduler greedy(topo, serve::SchedulerPolicy::greedy());
    seed(greedy);
    const auto stacked = greedy.placeBatch(batch);
    EXPECT_EQ(stacked[0].device, 1u); // pop order: small takes the idle
    EXPECT_EQ(stacked[1].device, 1u); // ...and big piles on behind it
}

TEST(MakespanScheduler, SplitPlansConserveBookingsAndSkipPaused)
{
    auto topo = std::make_shared<RpuTopology>(4);
    MakespanScheduler sched(topo);
    const auto op = RequestOp::MulPlainRescale;
    sched.pause(3);

    const auto p0 = sched.place(op, "c", 8);
    sched.complete(p0, op, "c", 8, 8000, 800); // seed the estimate
    auto p = sched.place(op, "c", 8);
    EXPECT_EQ(p.booked, 8000u);

    // The coalesced chunk's three stages as the batch declares them:
    // 24 entry towers, 48 pointwise towers, 16 dropped towers.
    const CkksContext ctx(topoParams(), 5);
    const auto plans = sched.splitPlans(
        p, op, "c", 8,
        ctx.launchShapes(op, 8, ctx.params().towers));
    ASSERT_EQ(plans.size(), 3u);
    EXPECT_EQ(plans[0].size(), 2u);
    EXPECT_EQ(plans[1].size(), 3u);
    EXPECT_EQ(plans[2].size(), 1u);

    // The whole-chunk booking became per-group bookings summing back
    // to the chunk's estimated cost (up to per-group rounding), and
    // the paused device took none of them.
    EXPECT_EQ(p.booked, 0u);
    ASSERT_EQ(p.stageBooked.size(), 4u);
    uint64_t rebooked = 0;
    for (uint64_t b : p.stageBooked)
        rebooked += b;
    EXPECT_GE(rebooked, 8000u - 6);
    EXPECT_LE(rebooked, 8000u + 6);
    EXPECT_EQ(p.stageBooked[3], 0u);
    size_t distinct = 0;
    for (uint64_t b : p.stageBooked)
        distinct += b > 0 ? 1 : 0;
    EXPECT_GE(distinct, 2u);
    for (const auto &plan : plans)
        for (size_t d : plan)
            EXPECT_NE(d, 3u);

    // Completion releases every per-device booking and replaces it
    // with the measured per-device cost.
    sched.complete(p, op, "c", 8, std::vector<uint64_t>{100, 200, 300, 0},
                   60, false);
    EXPECT_EQ(sched.load(0) + sched.load(1) + sched.load(2) +
                  sched.load(3),
              8000u + 600u);
}

// ----------------------------------------------------------------------
// Device-set serving
// ----------------------------------------------------------------------

struct Issued
{
    uint64_t tenant = 0;
    uint64_t seq = 0;
    RequestOp op = RequestOp::MulPlainRescale;
    std::vector<Cplx> a, b;
    std::future<ServeResponse> response;
};

ServeConfig
topoServeConfig()
{
    ServeConfig cfg;
    cfg.queueCapacity = 64;
    cfg.maxBatch = 16;
    cfg.maxPerTenant = 4;
    cfg.maxCoalesce = 8;
    cfg.startPaused = true; // deterministic drain via shutdown()
    return cfg;
}

std::vector<Issued>
issueMixedSet(HeServer &server, size_t perTenant)
{
    std::vector<Issued> out;
    for (size_t r = 0; r < perTenant; ++r) {
        for (uint64_t t = 1; t <= 4; ++t) {
            Issued p;
            p.tenant = t;
            p.seq = r;
            p.op = (r % 3 == 2) ? RequestOp::MulCtRescale
                                : RequestOp::MulPlainRescale;
            p.a = slotValues(16, 100 * t + r);
            p.b = slotValues(16, 900 * t + r);
            auto sub = server.submit(t, p.op, p.a, p.b);
            EXPECT_EQ(sub.status, SubmitStatus::Accepted);
            p.response = std::move(sub.response);
            out.push_back(std::move(p));
        }
    }
    return out;
}

TEST(HeServerTopology, OneDeviceTopologyMatchesSingleDeviceServer)
{
    // The degeneracy that keeps PR 8's guarantees intact: the same
    // request set through (a) the single-device constructor and
    // (b) an explicit 1-device topology must produce identical
    // responses AND an identical device launch ledger — same chunks,
    // same coalesced launches, same per-worker attribution.
    std::vector<std::vector<Cplx>> values[2];
    DeviceStats ledger[2];
    for (int pass = 0; pass < 2; ++pass) {
        auto topo = std::make_shared<RpuTopology>(1);
        auto server =
            pass == 0
                ? std::make_unique<HeServer>(topoServeConfig(),
                                             topo->device(0))
                : std::make_unique<HeServer>(topoServeConfig(), topo);
        for (uint64_t id = 1; id <= 4; ++id)
            server->addTenant({id, topoParams(), 30});
        auto issued = issueMixedSet(*server, 6);
        const DeviceStats before = topo->device(0)->stats();
        server->shutdown();
        ledger[pass] = topo->device(0)->stats() - before;
        for (auto &p : issued)
            values[pass].push_back(p.response.get().values);
    }
    EXPECT_EQ(values[0], values[1]);
    EXPECT_EQ(ledger[0].launches, ledger[1].launches);
    EXPECT_EQ(ledger[0].cycleTotal(), ledger[1].cycleTotal());
    EXPECT_EQ(ledger[0].busyCycleTotal(), ledger[1].busyCycleTotal());
    EXPECT_EQ(ledger[0].perWorkerLaunches, ledger[1].perWorkerLaunches);
    EXPECT_EQ(ledger[0].pointwiseMuls, ledger[1].pointwiseMuls);
    EXPECT_EQ(ledger[0].forwardTransforms,
              ledger[1].forwardTransforms);
    EXPECT_EQ(ledger[0].inverseTransforms,
              ledger[1].inverseTransforms);
}

TEST(HeServerTopology, TwoDeviceServingIsBitIdenticalToSerial)
{
    // Four tenants x six requests in two popped batches: the first
    // batch's 15 MulPlainRescale requests cut into chunks of 8, 4, 2
    // and 1 beside one MulCtRescale request, the second runs four
    // more MulCtRescale requests and a chunk of 4. On 1- and 2-device
    // topologies, under every scheduler tier and both host-SIMD
    // modes, every response must equal the serial reference.
    std::vector<std::vector<Cplx>> reference;
    const auto caches = std::make_shared<DeviceCaches>();
    const auto device = [&] {
        return std::make_shared<RpuDevice>(
            std::make_unique<FunctionalSimBackend>(), caches);
    };
    for (const auto mode :
         {simd::HostSimdMode::Scalar, simd::HostSimdMode::Native}) {
        const ModeGuard guard(mode);
        for (const size_t devices : {1, 2}) {
            for (const serve::SchedulerPolicy policy :
                 {serve::SchedulerPolicy::greedy(),
                  serve::SchedulerPolicy{true, false},
                  serve::SchedulerPolicy::all()}) {
                const std::string where =
                    std::string(policy.name()) + " on " +
                    std::to_string(devices) + " device(s), mode " +
                    std::to_string(int(mode));
                std::vector<std::shared_ptr<RpuDevice>> set;
                for (size_t d = 0; d < devices; ++d)
                    set.push_back(device());
                auto topo = RpuTopology::adopt(set);
                ServeConfig cfg = topoServeConfig();
                cfg.policy = policy;
                HeServer server(cfg, topo);
                for (uint64_t id = 1; id <= 4; ++id)
                    server.addTenant({id, topoParams(), 30});

                const RpuTopology::Snapshot before = topo->snapshot();
                std::vector<Issued> issued;
                for (uint64_t r = 0; r < 6; ++r) {
                    for (uint64_t t = 1; t <= 4; ++t) {
                        Issued p;
                        p.tenant = t;
                        p.seq = r;
                        p.op = (r == 3 && t == 4) || r == 4
                                   ? RequestOp::MulCtRescale
                                   : RequestOp::MulPlainRescale;
                        p.a = slotValues(16, 100 * t + r);
                        p.b = slotValues(16, 900 * t + r);
                        auto sub = server.submit(t, p.op, p.a, p.b);
                        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
                        p.response = std::move(sub.response);
                        issued.push_back(std::move(p));
                    }
                }
                server.shutdown();
                const RpuTopology::Snapshot window = topo->since(before);

                if (reference.empty()) {
                    for (const Issued &p : issued)
                        reference.push_back(
                            server.tenant(p.tenant)->runSerial(
                                p.op, p.a, p.b, p.seq));
                }
                std::set<size_t> chunk_sizes;
                for (size_t i = 0; i < issued.size(); ++i) {
                    const ServeResponse resp = issued[i].response.get();
                    chunk_sizes.insert(resp.chunkRequests);
                    EXPECT_EQ(resp.values, reference[i]) << where;
                }
                EXPECT_EQ(chunk_sizes, (std::set<size_t>{1, 2, 4, 8}))
                    << where;
                // Every device carried real work, so the identity above
                // is a statement about cross-device execution, not a
                // vacuous pass.
                for (const DeviceStats &d : window)
                    EXPECT_GT(d.launches, 0u) << where;
            }
        }
    }
}

TEST(HeServerTopology, PausedDeviceExecutesNothing)
{
    // A device drained for maintenance before any work arrives: with
    // one or two dispatchers draining the shared chunk queue, it sees
    // no placement and no split stage, and every response still equals
    // the serial reference.
    for (const unsigned dispatchers : {1u, 2u}) {
        const std::string where =
            std::to_string(dispatchers) + " dispatcher(s)";
        auto topo = std::make_shared<RpuTopology>(3);
        ServeConfig cfg = topoServeConfig();
        cfg.dispatchers = dispatchers;
        HeServer server(cfg, topo);
        for (uint64_t id = 1; id <= 4; ++id)
            server.addTenant({id, topoParams(), 30});
        ASSERT_NE(server.scheduler(), nullptr);
        server.scheduler()->pause(1);

        const RpuTopology::Snapshot before = topo->snapshot();
        auto issued = issueMixedSet(server, 3);
        server.shutdown();
        // Before the serial references, which run on device 0.
        const RpuTopology::Snapshot window = topo->since(before);
        for (auto &p : issued) {
            const ServeResponse resp = p.response.get();
            EXPECT_EQ(resp.values, server.tenant(p.tenant)->runSerial(
                                       p.op, p.a, p.b, p.seq))
                << where;
        }
        EXPECT_EQ(server.stats().failed, 0u) << where;

        EXPECT_GT(window[0].launches, 0u) << where;
        EXPECT_GT(window[2].launches, 0u) << where;
        EXPECT_EQ(window[1].launches, 0u) << where;
        EXPECT_EQ(window[1].cycleTotal(), 0u) << where;

        // Conservation: with one dispatcher each chunk's window holds
        // only its own launches, so once every booking is corrected the
        // scheduler's ledger equals the measured busy cycles exactly.
        if (dispatchers == 1) {
            for (size_t d = 0; d < window.size(); ++d) {
                EXPECT_EQ(server.scheduler()->load(d),
                          window[d].busyCycleTotal())
                    << "device " << d;
            }
        }
    }
}

TEST(HeServerTopology, SplitChunkIsBitIdenticalToUnsplitAndSpreads)
{
    // One coalesced chunk (2 tenants x 4 requests, all compatible)
    // through a 4-device topology, with and without the split policy.
    // Splitting changes only *where* stage groups execute — the
    // responses must match the unsplit server and the serial
    // reference bit for bit, while the split ledger shows the chunk's
    // stages actually spread.
    std::vector<std::vector<Cplx>> values[2];
    for (int pass = 0; pass < 2; ++pass) {
        auto topo = std::make_shared<RpuTopology>(4);
        ServeConfig cfg = topoServeConfig();
        cfg.policy = pass == 0 ? serve::SchedulerPolicy::all()
                               : serve::SchedulerPolicy{true, false};
        HeServer server(cfg, topo);
        for (uint64_t id = 1; id <= 2; ++id)
            server.addTenant({id, topoParams(), 30});

        std::vector<Issued> issued;
        for (uint64_t t = 1; t <= 2; ++t) {
            for (uint64_t r = 0; r < 4; ++r) {
                Issued p;
                p.tenant = t;
                p.seq = r;
                p.a = slotValues(16, 100 * t + r);
                p.b = slotValues(16, 900 * t + r);
                auto sub = server.submit(t, p.op, p.a, p.b);
                ASSERT_EQ(sub.status, SubmitStatus::Accepted);
                p.response = std::move(sub.response);
                issued.push_back(std::move(p));
            }
        }
        const RpuTopology::Snapshot before = topo->snapshot();
        server.shutdown();

        for (auto &p : issued) {
            const ServeResponse resp = p.response.get();
            EXPECT_EQ(resp.values, server.tenant(p.tenant)->runSerial(
                                       p.op, p.a, p.b, p.seq));
            values[pass].push_back(resp.values);
        }
        const auto stats = server.stats();
        EXPECT_EQ(stats.failed, 0u);
        if (pass == 0) {
            EXPECT_GE(stats.splitChunks, 1u);
            const RpuTopology::Snapshot window = topo->since(before);
            size_t active = 0;
            for (const auto &d : window)
                active += d.launches > 0 ? 1 : 0;
            EXPECT_GE(active, 2u);
        } else {
            EXPECT_EQ(stats.splitChunks, 0u);
        }
    }
    EXPECT_EQ(values[0], values[1]);
}

TEST(HeServerTopology, TwoDispatchersWithSharedChunkQueueDrainCorrectly)
{
    // Two dispatcher threads over a 4-device topology with every
    // policy on: both drain one shared chunk queue, so which
    // dispatcher executes a chunk and when is racy — but every
    // accepted request must still complete bit-identically to the
    // serial reference.
    auto topo = std::make_shared<RpuTopology>(4);
    ServeConfig cfg = topoServeConfig();
    cfg.dispatchers = 2;
    HeServer server(cfg, topo);
    for (uint64_t id = 1; id <= 4; ++id)
        server.addTenant({id, topoParams(), 30});

    auto issued = issueMixedSet(server, 6);
    server.shutdown();

    for (auto &p : issued) {
        const ServeResponse resp = p.response.get();
        EXPECT_EQ(resp.values, server.tenant(p.tenant)->runSerial(
                                   p.op, p.a, p.b, p.seq));
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.accepted, issued.size());
    EXPECT_EQ(stats.completed, issued.size());
}

} // namespace
} // namespace rpu
