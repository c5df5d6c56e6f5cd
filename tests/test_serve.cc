/**
 * @file
 * The multi-tenant serving front-end: admission backpressure and
 * graceful-drain semantics of the bounded queue, the round-robin
 * fairness bound under a hog tenant, deterministic session seeding,
 * DeviceStats windowed deltas, the tiled device dispatch, and —
 * the load-bearing property — bit-identity of cross-tenant coalesced
 * execution against per-tenant serial execution, with the
 * ledger-verified launch-count reduction that motivates it. Also:
 * malformed submits are rejected with a status, and prewarm() covers
 * every kernel a drain launches.
 */

#include <gtest/gtest.h>

#include <complex>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "modmath/primegen.hh"
#include "modmath/simd.hh"
#include "rpu/device.hh"
#include "rpu/topology.hh"
#include "serve/server.hh"

namespace rpu {
namespace {

using serve::BoundedRequestQueue;
using serve::HeServer;
using serve::RequestOp;
using serve::ServeConfig;
using serve::ServeRequest;
using serve::SchedulerPolicy;
using serve::ServeResponse;
using serve::Session;
using serve::SubmitStatus;
using serve::TenantConfig;

using Cplx = std::complex<double>;

CkksParams
serveParams()
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

ServeRequest
makeRequest(uint64_t tenant, uint64_t seq)
{
    ServeRequest req;
    req.tenant = tenant;
    req.seq = seq;
    req.op = RequestOp::MulPlainRescale;
    req.submitted = std::chrono::steady_clock::now();
    return req;
}

// ----------------------------------------------------------------------
// BoundedRequestQueue
// ----------------------------------------------------------------------

TEST(BoundedRequestQueue, RejectsWhenFullWithoutConsumingRequest)
{
    BoundedRequestQueue q(2);
    ServeRequest r0 = makeRequest(1, 0);
    ServeRequest r1 = makeRequest(2, 0);
    EXPECT_EQ(q.push(r0), SubmitStatus::Accepted);
    EXPECT_EQ(q.push(r1), SubmitStatus::Accepted);
    EXPECT_EQ(q.depth(), 2u);

    ServeRequest r2 = makeRequest(1, 1);
    EXPECT_EQ(q.push(r2), SubmitStatus::RejectedFull);
    EXPECT_EQ(q.depth(), 2u);
    // A rejected request keeps its promise: the caller can still
    // fulfil or drop it, and the future stays usable.
    auto fut = r2.done.get_future();
    r2.done.set_value(ServeResponse{});
    EXPECT_NO_THROW(fut.get());
}

TEST(BoundedRequestQueue, RejectsAfterCloseAndDrainsRemainder)
{
    BoundedRequestQueue q(8);
    ServeRequest r0 = makeRequest(1, 0);
    ServeRequest r1 = makeRequest(1, 1);
    ASSERT_EQ(q.push(r0), SubmitStatus::Accepted);
    ASSERT_EQ(q.push(r1), SubmitStatus::Accepted);

    q.close();
    ServeRequest late = makeRequest(2, 0);
    EXPECT_EQ(q.push(late), SubmitStatus::RejectedShutdown);

    // Closed but not empty: consumers still drain everything...
    auto batch = q.popBatch(16, 16);
    EXPECT_EQ(batch.size(), 2u);
    // ...and only then does popBatch report exhaustion.
    EXPECT_TRUE(q.popBatch(16, 16).empty());
}

TEST(BoundedRequestQueue, RoundRobinSweepBoundsPerTenantTake)
{
    BoundedRequestQueue q(64);
    for (uint64_t s = 0; s < 8; ++s) {
        ServeRequest hog = makeRequest(7, s);
        ASSERT_EQ(q.push(hog), SubmitStatus::Accepted);
    }
    ServeRequest victim = makeRequest(9, 0);
    ASSERT_EQ(q.push(victim), SubmitStatus::Accepted);

    // The hog's lane was created first, yet the victim's head-of-line
    // request rides in the very first batch: the sweep caps the hog
    // at maxPerTenant and moves on.
    auto batch = q.popBatch(4, 2);
    ASSERT_EQ(batch.size(), 3u);
    size_t hog_taken = 0, victim_taken = 0;
    for (const auto &r : batch) {
        if (r.tenant == 7)
            ++hog_taken;
        else if (r.tenant == 9)
            ++victim_taken;
    }
    EXPECT_EQ(hog_taken, 2u);
    EXPECT_EQ(victim_taken, 1u);
}

// ----------------------------------------------------------------------
// DeviceStats deltas (satellite: operator- / statsSince)
// ----------------------------------------------------------------------

TEST(DeviceStatsDelta, StatsSinceIsolatesOneWindow)
{
    RpuDevice dev;
    const uint64_t n = 1024;
    const u128 q = 0x3001;
    const auto x = std::vector<u128>(n, 5);

    (void)dev.ntt(n, q, x); // pre-window activity
    const DeviceStats before = dev.stats();

    (void)dev.ntt(n, q, x);
    (void)dev.pointwiseMul(n, q, x, x);

    const DeviceStats delta = dev.statsSince(before);
    EXPECT_EQ(delta.launches, 2u);
    EXPECT_EQ(delta.forwardTransforms, 1u);
    EXPECT_EQ(delta.pointwiseMuls, 1u);
    // The window's kernels were already cached by the warmup call.
    EXPECT_EQ(delta.kernelMisses, 1u); // pointwise kernel was new
    EXPECT_GT(delta.cycleTotal(), 0u);

    // Subtracting a snapshot from itself is the zero window.
    const DeviceStats now = dev.stats();
    const DeviceStats zero = now - now;
    EXPECT_EQ(zero.launches, 0u);
    EXPECT_EQ(zero.cycleTotal(), 0u);
}

TEST(DeviceStatsDelta, PerWorkerVectorsPadWhenPoolWidens)
{
    RpuDevice dev;
    const uint64_t n = 1024;
    const u128 q = 0x3001;
    const auto x = std::vector<u128>(n, 3);

    const DeviceStats before = dev.stats(); // narrow snapshot
    dev.setParallelism(4);                  // pool widens the vectors
    (void)dev.ntt(n, q, x);

    const DeviceStats delta = dev.statsSince(before);
    EXPECT_EQ(delta.launches, 1u);
    uint64_t launches_across_lanes = 0;
    for (uint64_t l : delta.perWorkerLaunches)
        launches_across_lanes += l;
    EXPECT_EQ(launches_across_lanes, 1u);
}

// ----------------------------------------------------------------------
// Tiled device dispatch
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

TEST(CoalescedLaunches, BitIdenticalToPerItemLaunchesInOneLaunch)
{
    RpuDevice dev;
    const uint64_t n = 1024;
    // Ragged tower counts across items are the serving case: tenants
    // at different chain depths share one dispatch.
    const std::vector<std::vector<u128>> moduli = {
        {0x3001, 0xa001}, {0x3001, 0xa001, 0x10001}, {0x3001}};

    std::vector<std::vector<std::vector<u128>>> xs, a, b;
    uint64_t fill = 1;
    for (const auto &chain : moduli) {
        std::vector<std::vector<u128>> item, ia, ib;
        for (u128 q : chain) {
            std::vector<u128> t(n), ta(n), tb(n);
            for (uint64_t i = 0; i < n; ++i) {
                t[i] = (fill * 37 + i * 11) % uint64_t(q);
                ta[i] = (fill * 53 + i * 7) % uint64_t(q);
                tb[i] = (fill * 71 + i * 13) % uint64_t(q);
            }
            ++fill;
            item.push_back(std::move(t));
            ia.push_back(std::move(ta));
            ib.push_back(std::move(tb));
        }
        xs.push_back(std::move(item));
        a.push_back(std::move(ia));
        b.push_back(std::move(ib));
    }

    // Per-item reference via the single-ring convenience ops.
    auto expect_fwd = xs;
    auto expect_pw = a;
    for (size_t i = 0; i < moduli.size(); ++i) {
        for (size_t t = 0; t < moduli[i].size(); ++t) {
            expect_fwd[i][t] = dev.ntt(n, moduli[i][t], xs[i][t]);
            expect_pw[i][t] =
                dev.pointwiseMul(n, moduli[i][t], a[i][t], b[i][t]);
        }
    }

    DeviceStats before = dev.stats();
    const auto fwd = dev.dispatch(RingOp::Forward, n, moduli, xs);
    DeviceStats delta = dev.statsSince(before);
    EXPECT_EQ(delta.launches, 1u);
    EXPECT_EQ(delta.forwardTransforms, 6u); // 2 + 3 + 1 towers
    EXPECT_EQ(fwd, expect_fwd);

    // Round-trip through the coalesced inverse as well.
    before = dev.stats();
    const auto back = dev.dispatch(RingOp::Inverse, n, moduli, fwd);
    delta = dev.statsSince(before);
    EXPECT_EQ(delta.launches, 1u);
    EXPECT_EQ(delta.inverseTransforms, 6u);
    EXPECT_EQ(back, xs);

    before = dev.stats();
    const auto pw = dev.dispatch(RingOp::Pointwise, n, moduli, a, b);
    delta = dev.statsSince(before);
    EXPECT_EQ(delta.launches, 1u);
    EXPECT_EQ(delta.pointwiseMuls, 6u);
    EXPECT_EQ(pw, expect_pw);
}

TEST(CoalescedLaunches, TileBoundaryMidItemOnEveryDeviceKind)
{
    // Items of 3, 5, 9 and 1 towers: 18 towers tile into two groups,
    // and the kMaxBatchedTowers boundary falls inside the 9-tower
    // item. Every op must match per-item single-ring launches bit for
    // bit on a serial device, a 4-worker pooled device and the CPU
    // reference backend, under both host-SIMD modes.
    const uint64_t n = 1024;
    const std::vector<size_t> counts = {3, 5, 9, 1};
    const auto primes = nttPrimes(50, n, 9);
    std::vector<std::vector<u128>> moduli;
    TowerItems xs, a, b;
    Rng rng(77);
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
        RpuDevice serial;
        RpuDevice pooled;
        pooled.setParallelism(4);
        RpuDevice cpu_ref(std::make_unique<CpuReferenceBackend>());
        for (RpuDevice *dev : {&serial, &pooled, &cpu_ref}) {
            const std::string where =
                std::string(dev->backend().name()) + " x" +
                std::to_string(dev->parallelism()) + " " +
                simd::hostSimdModeName();
            const DeviceStats before = dev->stats();
            EXPECT_EQ(dev->dispatch(RingOp::Forward, n, moduli, xs),
                      want_fwd)
                << where;
            EXPECT_EQ(dev->dispatch(RingOp::Inverse, n, moduli, xs),
                      want_inv)
                << where;
            EXPECT_EQ(dev->dispatch(RingOp::Pointwise, n, moduli, a, b),
                      want_pw)
                << where;
            const DeviceStats d = dev->statsSince(before);
            EXPECT_EQ(d.launches, 6u) << where; // 2 groups per op
            EXPECT_EQ(d.forwardTransforms, 18u) << where;
            EXPECT_EQ(d.inverseTransforms, 18u) << where;
            EXPECT_EQ(d.pointwiseMuls, 18u) << where;
        }
    }
}

// ----------------------------------------------------------------------
// Session determinism (satellite: derived seeding)
// ----------------------------------------------------------------------

TEST(ServeSession, SeedingIsDerivedAndReproducible)
{
    // Adjacent tenant ids map to unrelated master seeds.
    EXPECT_NE(Session::deriveSeed(1), Session::deriveSeed(2));
    EXPECT_EQ(Session::deriveSeed(7), Session::deriveSeed(7));

    TenantConfig cfg;
    cfg.id = 42;
    cfg.params = serveParams();
    Session s1(cfg, nullptr);
    Session s2(cfg, nullptr);

    // Two sessions with the same id are bit-identical worlds: same
    // request streams, same keys, hence same decrypted outputs.
    EXPECT_EQ(s1.requestRng(0).next64(), s2.requestRng(0).next64());
    EXPECT_NE(s1.requestRng(0).next64(), s1.requestRng(1).next64());
    EXPECT_EQ(s1.kernelClass(), s2.kernelClass());

    const auto a = slotValues(8, 101);
    const auto b = slotValues(8, 202);
    EXPECT_EQ(s1.runSerial(RequestOp::MulPlainRescale, a, b, 3),
              s2.runSerial(RequestOp::MulPlainRescale, a, b, 3));
    EXPECT_EQ(s1.runSerial(RequestOp::MulCtRescale, a, b, 4),
              s2.runSerial(RequestOp::MulCtRescale, a, b, 4));
}

// ----------------------------------------------------------------------
// HeServer
// ----------------------------------------------------------------------

struct Expected
{
    uint64_t tenant = 0;
    uint64_t seq = 0;
    RequestOp op = RequestOp::MulPlainRescale;
    std::vector<Cplx> a, b;
    std::future<ServeResponse> response;
};

/** Submit a fixed mixed-op request set across @p tenants tenants. */
std::vector<Expected>
submitMixedSet(HeServer &server, size_t tenants, size_t perTenant)
{
    std::vector<Expected> out;
    for (size_t r = 0; r < perTenant; ++r) {
        for (size_t t = 0; t < tenants; ++t) {
            Expected e;
            e.tenant = t + 1;
            e.op = (r % 3 == 2) ? RequestOp::MulCtRescale
                                : RequestOp::MulPlainRescale;
            e.a = slotValues(8, 1000 + 10 * t + r);
            e.b = slotValues(8, 2000 + 10 * t + r);
            auto sub = server.submit(e.tenant, e.op, e.a, e.b);
            EXPECT_EQ(sub.status, SubmitStatus::Accepted);
            e.seq = r; // per-tenant seqs are assigned in submit order
            e.response = std::move(sub.response);
            out.push_back(std::move(e));
        }
    }
    return out;
}

TEST(HeServer, CrossTenantCoalescingIsBitIdenticalToSerial)
{
    // Four tenants x six requests, popped as two batches of 16 and 8
    // (maxPerTenant 4). The first batch's 15 MulPlainRescale requests
    // cut into chunks of 8, 4, 2 and 1 — every size up to maxCoalesce
    // — beside one MulCtRescale request; the second batch runs four
    // more MulCtRescale requests and a chunk of 4. Through a single
    // device and a 2-device topology, every scheduler tier and both
    // host-SIMD modes, each response must equal the per-tenant serial
    // reference bit for bit.
    struct Issued
    {
        uint64_t tenant, seq;
        RequestOp op;
        std::vector<Cplx> a, b;
    };
    std::vector<Issued> set;
    for (uint64_t r = 0; r < 6; ++r) {
        for (uint64_t t = 1; t <= 4; ++t) {
            const bool ct = (r == 3 && t == 4) || r == 4;
            set.push_back({t, r,
                           ct ? RequestOp::MulCtRescale
                              : RequestOp::MulPlainRescale,
                           slotValues(8, 1000 + 10 * t + r),
                           slotValues(8, 2000 + 10 * t + r)});
        }
    }
    std::vector<std::vector<Cplx>> reference;
    // One kernel cache for every server, so each configuration pays
    // serving, not codegen.
    const auto caches = std::make_shared<DeviceCaches>();
    const auto device = [&] {
        return std::make_shared<RpuDevice>(
            std::make_unique<FunctionalSimBackend>(), caches);
    };

    for (const auto mode :
         {simd::HostSimdMode::Scalar, simd::HostSimdMode::Native}) {
        const ModeGuard guard(mode);
        for (const size_t devices : {1, 2}) {
            for (const SchedulerPolicy policy :
                 {SchedulerPolicy::greedy(), SchedulerPolicy{true, false, false},
                  SchedulerPolicy{true, true, false},
                  SchedulerPolicy::all()}) {
                const std::string where =
                    std::string(policy.name()) + " on " +
                    std::to_string(devices) + " device(s), mode " +
                    std::to_string(int(mode));
                ServeConfig cfg;
                cfg.startPaused = true; // deterministic batches
                cfg.maxBatch = 16;
                cfg.maxPerTenant = 4;
                cfg.maxCoalesce = 8;
                cfg.policy = policy;
                auto server =
                    devices == 1
                        ? std::make_unique<HeServer>(cfg, device())
                        : std::make_unique<HeServer>(
                              cfg, RpuTopology::adopt({device(), device()}));
                for (uint64_t id = 1; id <= 4; ++id)
                    server->addTenant({id, serveParams(), 30});
                if (reference.empty()) {
                    for (const Issued &e : set)
                        reference.push_back(
                            server->tenant(e.tenant)->runSerial(
                                e.op, e.a, e.b, e.seq));
                }

                std::vector<std::future<ServeResponse>> futures;
                for (const Issued &e : set) {
                    auto sub = server->submit(e.tenant, e.op, e.a, e.b);
                    ASSERT_EQ(sub.status, SubmitStatus::Accepted) << where;
                    futures.push_back(std::move(sub.response));
                }
                server->shutdown();

                std::set<size_t> mulplain_chunks;
                for (size_t i = 0; i < set.size(); ++i) {
                    const ServeResponse resp = futures[i].get();
                    EXPECT_EQ(resp.tenant, set[i].tenant);
                    EXPECT_EQ(resp.seq, set[i].seq);
                    EXPECT_EQ(resp.values, reference[i])
                        << where << ": tenant " << set[i].tenant
                        << " seq " << set[i].seq;
                    if (set[i].op == RequestOp::MulPlainRescale)
                        mulplain_chunks.insert(resp.chunkRequests);
                    else
                        EXPECT_EQ(resp.chunkRequests, 1u) << where;
                }
                EXPECT_EQ(mulplain_chunks, (std::set<size_t>{1, 2, 4, 8}))
                    << where;
                EXPECT_EQ(server->stats().completed, set.size()) << where;
                EXPECT_EQ(server->stats().failed, 0u) << where;
            }
        }
    }
}

TEST(HeServer, CoalescingDoesNotDependOnDeviceParallelism)
{
    // Same request set against a pooled device: per-request RNG
    // derivation means service order and worker fan-out change
    // nothing observable.
    ServeConfig cfg;
    cfg.startPaused = true;
    auto device = std::make_shared<RpuDevice>();
    device->setParallelism(4);
    HeServer server(cfg, device);
    for (uint64_t id = 1; id <= 4; ++id)
        server.addTenant({id, serveParams(), 30});

    auto expected = submitMixedSet(server, 4, 2);
    server.shutdown(); // drains the paused server

    for (auto &e : expected) {
        ServeResponse resp = e.response.get();
        const Session *sess = server.tenant(e.tenant);
        ASSERT_NE(sess, nullptr);
        EXPECT_EQ(resp.values, sess->runSerial(e.op, e.a, e.b, e.seq));
    }
}

TEST(HeServer, CoalescingReducesLaunchesOnTheLedger)
{
    const size_t tenants = 4, per_tenant = 4;
    uint64_t launches_off = 0, launches_on = 0;
    std::vector<std::vector<Cplx>> values_off, values_on;

    for (bool coalesce : {false, true}) {
        ServeConfig cfg;
        cfg.startPaused = true;
        cfg.coalesce = coalesce;
        cfg.maxBatch = 16;
        cfg.maxPerTenant = 4;
        cfg.maxCoalesce = 8;
        auto device = std::make_shared<RpuDevice>();
        HeServer server(cfg, device);
        for (uint64_t id = 1; id <= tenants; ++id)
            server.addTenant({id, serveParams(), 30});

        std::vector<std::future<ServeResponse>> futures;
        for (size_t r = 0; r < per_tenant; ++r) {
            for (size_t t = 0; t < tenants; ++t) {
                auto sub = server.submit(
                    t + 1, RequestOp::MulPlainRescale,
                    slotValues(8, 10 * t + r), slotValues(8, 90 + r));
                ASSERT_EQ(sub.status, SubmitStatus::Accepted);
                futures.push_back(std::move(sub.response));
            }
        }
        const DeviceStats before = device->stats();
        server.shutdown();
        const DeviceStats delta = device->statsSince(before);

        auto &values = coalesce ? values_on : values_off;
        for (auto &f : futures)
            values.push_back(f.get().values);
        (coalesce ? launches_on : launches_off) = delta.launches;

        // Same semantic work either way (both ciphertext components
        // multiply across every tower); the ledger proves it.
        EXPECT_EQ(delta.pointwiseMuls,
                  tenants * per_tenant * 2 * serveParams().towers);
    }

    // The point of the subsystem: strictly fewer device launches for
    // identical results. 16 serial mul-plain requests cost 3 launches
    // each (80 -> 48: the serial path now tiles across items, one
    // launch per dispatch); the set coalesces into two chunks of 8,
    // each three dispatches split at the 16-tower batched-kernel
    // budget — ceil(24/16) + ceil(48/16) + ceil(16/16) = 6 launches a
    // chunk.
    EXPECT_EQ(values_on, values_off);
    EXPECT_EQ(launches_off, 3u * tenants * per_tenant);
    EXPECT_EQ(launches_on, 12u);
}

TEST(HeServer, FairnessBoundHoldsUnderHogTenant)
{
    ServeConfig cfg;
    cfg.startPaused = true;
    cfg.maxBatch = 4;
    cfg.maxPerTenant = 2;
    cfg.maxCoalesce = 4;
    cfg.queueCapacity = 64;
    HeServer server(cfg, std::make_shared<RpuDevice>());
    server.addTenant({1, serveParams(), 30}); // hog
    server.addTenant({2, serveParams(), 30}); // victim

    const auto a = slotValues(8, 5);
    const auto b = slotValues(8, 6);
    std::vector<std::future<ServeResponse>> hog, victim;
    for (int i = 0; i < 24; ++i) {
        auto sub = server.submit(1, RequestOp::MulPlainRescale, a, b);
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        hog.push_back(std::move(sub.response));
    }
    for (int i = 0; i < 4; ++i) {
        auto sub = server.submit(2, RequestOp::MulPlainRescale, a, b);
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        victim.push_back(std::move(sub.response));
    }
    server.shutdown();

    // Despite arriving behind 24 hog requests, the victim is served
    // within the first two dispatches: each sweep takes at most
    // maxPerTenant from the hog before visiting the victim's lane.
    uint64_t victim_last = 0, hog_last = 0;
    for (auto &f : victim)
        victim_last = std::max(victim_last, f.get().dispatchIndex);
    for (auto &f : hog)
        hog_last = std::max(hog_last, f.get().dispatchIndex);
    EXPECT_LE(victim_last, 1u);
    EXPECT_GE(hog_last, 5u);
}

TEST(HeServer, BackpressureRejectsWithStatusAndServesTheRest)
{
    ServeConfig cfg;
    cfg.startPaused = true;
    cfg.queueCapacity = 4;
    HeServer server(cfg, std::make_shared<RpuDevice>());
    server.addTenant({1, serveParams(), 30});

    const auto a = slotValues(8, 1);
    const auto b = slotValues(8, 2);
    std::vector<std::future<ServeResponse>> accepted;
    size_t rejected = 0;
    for (int i = 0; i < 6; ++i) {
        auto sub = server.submit(1, RequestOp::MulPlainRescale, a, b);
        if (sub.status == SubmitStatus::Accepted)
            accepted.push_back(std::move(sub.response));
        else if (sub.status == SubmitStatus::RejectedFull)
            ++rejected;
    }
    EXPECT_EQ(accepted.size(), 4u);
    EXPECT_EQ(rejected, 2u);
    EXPECT_EQ(server.stats().rejectedFull, 2u);
    EXPECT_EQ(server.tenant(1)->accounting().rejectedFull, 2u);

    server.shutdown();
    for (auto &f : accepted)
        EXPECT_FALSE(f.get().values.empty());
    EXPECT_EQ(server.stats().completed, 4u);

    // After shutdown, submits report RejectedShutdown.
    auto late = server.submit(1, RequestOp::MulPlainRescale, a, b);
    EXPECT_EQ(late.status, SubmitStatus::RejectedShutdown);
}

TEST(HeServer, ShutdownDrainsEveryAcceptedFuture)
{
    ServeConfig cfg;
    cfg.startPaused = true;
    HeServer server(cfg, std::make_shared<RpuDevice>());
    for (uint64_t id = 1; id <= 3; ++id)
        server.addTenant({id, serveParams(), 30});

    const auto a = slotValues(8, 3);
    const auto b = slotValues(8, 4);
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 9; ++i) {
        auto sub =
            server.submit(1 + i % 3, RequestOp::MulPlainRescale, a, b);
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        futures.push_back(std::move(sub.response));
    }

    // Shutdown on a paused server still drains: every accepted
    // future resolves with a value, none is broken.
    server.shutdown();
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_FALSE(f.get().values.empty());
    }
    EXPECT_EQ(server.stats().completed, 9u);
    EXPECT_EQ(server.stats().failed, 0u);
}

TEST(HeServer, AccountingSplitsDeviceDeltasAcrossTenants)
{
    ServeConfig cfg;
    cfg.startPaused = true;
    cfg.coalesce = false; // serial chunks: shares divide exactly
    auto device = std::make_shared<RpuDevice>();
    HeServer server(cfg, device);
    server.addTenant({1, serveParams(), 30});
    server.addTenant({2, serveParams(), 30});

    const auto a = slotValues(8, 7);
    const auto b = slotValues(8, 8);
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(
            server.submit(1, RequestOp::MulPlainRescale, a, b).status,
            SubmitStatus::Accepted);
    }
    ASSERT_EQ(server.submit(2, RequestOp::MulPlainRescale, a, b).status,
              SubmitStatus::Accepted);
    const DeviceStats before = device->stats();
    server.shutdown();
    const DeviceStats total = device->statsSince(before);

    const auto acct1 = server.tenant(1)->accounting();
    const auto acct2 = server.tenant(2)->accounting();
    EXPECT_EQ(acct1.completed, 4u);
    EXPECT_EQ(acct2.completed, 1u);

    // Tower-granular semantic counters are exact per request (a
    // mul-plain multiplies both components across every tower)...
    const uint64_t towers = serveParams().towers;
    EXPECT_EQ(acct1.pointwiseMuls, 4u * 2 * towers);
    EXPECT_EQ(acct2.pointwiseMuls, 1u * 2 * towers);
    EXPECT_EQ(acct1.pointwiseMuls + acct2.pointwiseMuls,
              total.pointwiseMuls);
    // ...and the shares add up to the device's window — here exactly
    // 3 serial launches per request (5 -> 3: the serial path now
    // tiles across items).
    EXPECT_NEAR(acct1.launchShare + acct2.launchShare,
                double(total.launches), 1e-9);
    EXPECT_NEAR(acct1.cycleShare + acct2.cycleShare,
                double(total.cycleTotal()), 1e-6);
    EXPECT_NEAR(acct1.launchShare, 12.0, 1e-9);
    EXPECT_NEAR(acct2.launchShare, 3.0, 1e-9);
}

TEST(HeServer, UnknownTenantIsRejectedAndServingContinues)
{
    ServeConfig cfg;
    cfg.startPaused = true;
    HeServer server(cfg, std::make_shared<RpuDevice>());
    server.addTenant({1, serveParams(), 30});

    const auto a = slotValues(8, 11);
    const auto b = slotValues(8, 12);
    // A client's unknown tenant id is its error: a status, never an
    // abort, and nothing is queued or charged to a session.
    const auto bad = server.submit(99, RequestOp::MulPlainRescale, a, b);
    EXPECT_EQ(bad.status, SubmitStatus::RejectedInvalid);
    EXPECT_STREQ(serve::submitStatusName(bad.status), "rejected-invalid");
    EXPECT_EQ(server.stats().rejectedInvalid, 1u);
    EXPECT_EQ(server.stats().accepted, 0u);

    // The server then serves the next valid request as usual.
    auto good = server.submit(1, RequestOp::MulPlainRescale, a, b);
    ASSERT_EQ(good.status, SubmitStatus::Accepted);
    server.shutdown();
    EXPECT_EQ(good.response.get().values,
              server.tenant(1)->runSerial(RequestOp::MulPlainRescale, a,
                                          b, 0));
    EXPECT_EQ(server.stats().completed, 1u);
    EXPECT_EQ(server.stats().failed, 0u);
    EXPECT_EQ(server.tenant(1)->accounting().accepted, 1u);
}

TEST(HeServer, PrewarmCoversEveryKernelADrainLaunches)
{
    // Both ops, two kernel classes (3- and 5-tower chains) and a
    // 2-device topology: after prewarm(), serving a mixed drain —
    // coalesced chunks of several sizes, relinearising requests,
    // stages routed to either device — generates no kernel at all.
    auto topo = std::make_shared<RpuTopology>(2);
    ServeConfig cfg;
    cfg.startPaused = true;
    HeServer server(cfg, topo);
    CkksParams wide = serveParams();
    wide.towers = 5;
    server.addTenant({1, serveParams(), 30});
    server.addTenant({2, serveParams(), 30});
    server.addTenant({3, wide, 30});
    server.addTenant({4, wide, 30});
    server.prewarm();

    const RpuTopology::Snapshot before = topo->snapshot();
    std::vector<std::future<ServeResponse>> futures;
    for (uint64_t r = 0; r < 8; ++r) {
        for (uint64_t t = 1; t <= 4; ++t) {
            const RequestOp op = (r + t) % 3 == 0
                                     ? RequestOp::MulCtRescale
                                     : RequestOp::MulPlainRescale;
            auto sub = server.submit(t, op, slotValues(8, 10 * t + r),
                                     slotValues(8, 90 + r));
            ASSERT_EQ(sub.status, SubmitStatus::Accepted);
            futures.push_back(std::move(sub.response));
        }
    }
    server.shutdown();
    for (auto &f : futures)
        EXPECT_FALSE(f.get().values.empty());

    const RpuTopology::Snapshot window = topo->since(before);
    EXPECT_GT(window[0].launches, 0u);
    EXPECT_GT(window[1].launches, 0u);
    EXPECT_EQ(RpuTopology::aggregate(window).kernelMisses, 0u);
    EXPECT_GT(server.stats().coalescedChunks, 0u);
    EXPECT_EQ(server.stats().failed, 0u);
}

} // namespace
} // namespace rpu
