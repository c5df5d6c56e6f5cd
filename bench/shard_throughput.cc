/**
 * @file
 * Multi-RPU sharding: capacity-planning sweep over device count and
 * scheduler policy.
 *
 * The serving question behind an RpuTopology is "how many RPUs does
 * this traffic need?" — this harness answers it on the cycle model,
 * with the wall clock along for context. Four phases, each PASS-gated:
 *
 *  1. Bit-identity on a device set. A fixed mixed mulPlain/mulCt
 *     request set across four tenants runs through a 2-device-topology
 *     server with coalescing on; every response must equal the
 *     per-tenant *serial* single-context reference
 *     (Session::runSerial) exactly, while the topology ledger proves
 *     both devices actually executed work. "Generate once, launch
 *     anywhere" is asserted on the same run: after prewarm, device 1
 *     records zero kernel-cache misses.
 *
 *  2. Contention observability. The per-device HBM-contention ledger
 *     must be a real refinement of the PR 5 per-worker cycle ledger:
 *     on a serial device the busy makespan equals the plain compute
 *     makespan exactly (staging fully overlapped at one lane), and on
 *     a pooled device running concurrent lanes it strictly exceeds it
 *     (each extra occupant re-exposes staging traffic).
 *
 *  3. Policy-ablation capacity replay. The same fixed mulPlain
 *     request set replays against 1/2/4/8-device topologies through a
 *     paused server (deterministic chunk composition, serial devices,
 *     one dispatcher), once per scheduler policy tier — greedy,
 *     +lookahead, +split, +steal (cumulative; see SchedulerPolicy) —
 *     and the topology-wide makespan window prices each
 *     configuration: modelled sustained throughput = requests /
 *     makespan seconds at the 64-bank design clock. Gates: results
 *     bit-identical to runSerial in every cell, the summed busy total
 *     conserved across every device count *and* policy (placement
 *     only moves launches, never changes them), 1→2-device scaling
 *     >= 1.6x per tier, and — on the full request budget — the
 *     all-policies tier reaching >= 7.0x at 8 devices (the greedy
 *     baseline's chunk granularity caps it at 6.00x; chunk splitting
 *     is what lifts the ceiling).
 *
 *  4. Open-loop sweep vs device count. The Poisson open-loop
 *     generator (shared with serve_throughput via bench_util.hh)
 *     offers a fixed arrival rate calibrated off the serial path to
 *     every device count and reports sustained ops/s and p50/p99/p999
 *     total latency, with responses spot-checked against the serial
 *     reference. Wall-clock rows are informational (machine- and
 *     sanitizer-dependent); the scaling gate lives in phase 3 where
 *     the cycle model makes it deterministic.
 *
 * RPU_SHARD_REQUESTS scales the replay/open-loop request counts down
 * for sanitizer jobs (the 8-device >= 7.0x gate needs the full
 * 96-request budget and is skipped below it). RPU_SHARD_POLICY
 * restricts the run to one tier (greedy|lookahead|split|steal) — CI
 * uses this to keep the greedy baseline as a regression anchor while
 * exercising every policy end to end. The binary exits 1 on any
 * divergence; CI treats that as a job failure.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "model/frequency.hh"
#include "rpu/device.hh"
#include "rpu/topology.hh"
#include "serve/server.hh"

namespace rpu {
namespace {

using bench::fail;
using bench::serveTenantParams;
using bench::slotValues;

using serve::HeServer;
using serve::RequestOp;
using serve::SchedulerPolicy;
using serve::ServeConfig;
using serve::ServeResponse;
using serve::Session;
using serve::SubmitStatus;
using serve::TenantConfig;

using Cplx = std::complex<double>;
using Pending = bench::PendingServe;

constexpr size_t kTenants = 4;
const std::vector<size_t> kDeviceCounts = {1, 2, 4, 8};

/** The cumulative ablation tiers phase 3 sweeps. */
struct PolicyTier
{
    const char *name;
    SchedulerPolicy policy;
};

const std::vector<PolicyTier> &
policyTiers()
{
    static const std::vector<PolicyTier> tiers = {
        {"greedy", SchedulerPolicy::greedy()},
        {"+lookahead", {true, false, false}},
        {"+split", {true, true, false}},
        {"+steal", SchedulerPolicy::all()},
    };
    return tiers;
}

/** RPU_SHARD_POLICY selects one tier; unset/"all" runs all four. */
std::vector<PolicyTier>
selectedTiers()
{
    const char *env = std::getenv("RPU_SHARD_POLICY");
    if (!env || std::strcmp(env, "all") == 0)
        return policyTiers();
    for (const PolicyTier &t : policyTiers()) {
        // Match with or without the '+' prefix.
        if (std::strcmp(env, t.name) == 0 ||
            (t.name[0] == '+' && std::strcmp(env, t.name + 1) == 0))
            return {t};
    }
    fail("RPU_SHARD_POLICY must be greedy|lookahead|split|steal|all");
}

std::unique_ptr<HeServer>
makeServer(const std::shared_ptr<RpuTopology> &topology,
           const SchedulerPolicy &policy, bool paused,
           size_t queueCapacity)
{
    ServeConfig cfg;
    cfg.queueCapacity = queueCapacity;
    cfg.maxBatch = 16;
    cfg.maxPerTenant = 4;
    cfg.maxCoalesce = 8;
    cfg.coalesce = true;
    cfg.policy = policy;
    cfg.startPaused = paused;
    auto server = std::make_unique<HeServer>(cfg, topology);
    for (uint64_t id = 1; id <= kTenants; ++id)
        server->addTenant({id, serveTenantParams(), 30});
    return server;
}

size_t
requestBudget(size_t dflt)
{
    if (const char *env = std::getenv("RPU_SHARD_REQUESTS"))
        return std::max(32ul, std::strtoul(env, nullptr, 10));
    return dflt;
}

/** Modelled ops/s of a replay window: requests over the topology
 *  makespan priced at the 64-bank design clock. */
double
modelledOpsPerSec(size_t requests, uint64_t makespan)
{
    if (makespan == 0)
        return 0.0;
    const double hz = rpuFrequencyGhz(64) * 1e9;
    return double(requests) / (double(makespan) / hz);
}

// ----------------------------------------------------------------------
// Phase 1: bit-identity + shared kernel cache on a 2-device topology
// ----------------------------------------------------------------------

void
phaseBitIdentity(const SchedulerPolicy &policy)
{
    // Two passes of the same mixed set shapes (fresh seqs): prewarm
    // generates every declared shape on device 0, and pass 1 serves
    // the first requests on whichever device a chunk landed.
    // Pass 2 must then run entirely out of the shared cache on every
    // device — a hit even when the generating device differs, which
    // is exactly "generate once, launch anywhere". Holding under the
    // split policy too matters: split plans route single stage groups
    // to devices that never saw the whole chunk.
    bench::header("phase 1: device-set serving vs serial reference");
    auto topology = std::make_shared<RpuTopology>(2);
    const auto runPass = [&](HeServer &server, size_t passIdx) {
        std::vector<Pending> pending;
        for (size_t r = 0; r < 6; ++r) {
            for (uint64_t t = 1; t <= kTenants; ++t) {
                Pending p;
                p.tenant = t;
                p.seq = 6 * passIdx + r;
                p.op = (r % 3 == 2) ? RequestOp::MulCtRescale
                                    : RequestOp::MulPlainRescale;
                p.a = slotValues(16, 100 * t + p.seq);
                p.b = slotValues(16, 900 * t + p.seq);
                auto sub = server.submit(t, p.op, p.a, p.b);
                if (sub.status != SubmitStatus::Accepted)
                    fail("bit-identity submit rejected (queue sized "
                         "wrong)");
                p.response = std::move(sub.response);
                pending.push_back(std::move(p));
            }
        }
        server.start(); // no-op after pass 1; futures gate the drain
        for (auto &p : pending) {
            ServeResponse resp = p.response.get();
            const Session *sess = server.tenant(p.tenant);
            if (resp.values != sess->runSerial(p.op, p.a, p.b, p.seq))
                fail("device-set response diverges from serial "
                     "reference");
        }
        return pending.size();
    };

    auto server = makeServer(topology, policy, true, 64);
    server->prewarm();
    const size_t served = runPass(*server, 0);

    const RpuTopology::Snapshot warm = topology->snapshot();
    runPass(*server, 1);
    server->shutdown();
    const RpuTopology::Snapshot window = topology->since(warm);

    // Both devices must have executed real work — otherwise the
    // "multi-device" identity statement is vacuous — and the warm
    // pass must be all cache hits on every device: each kernel was
    // generated once, somewhere in the topology, in pass 1.
    for (size_t d = 0; d < window.size(); ++d) {
        if (window[d].launches == 0)
            fail("a topology device executed no launches");
        std::printf("  device %zu: %5llu launches, %9llu modelled "
                    "cycles, warm-pass kernel hits %llu misses %llu\n",
                    d, (unsigned long long)window[d].launches,
                    (unsigned long long)window[d].cycleTotal(),
                    (unsigned long long)window[d].kernelHits,
                    (unsigned long long)window[d].kernelMisses);
        if (window[d].kernelMisses != 0)
            fail("warm pass missed the shared kernel cache");
        if (window[d].kernelHits == 0)
            fail("warm pass never consulted the kernel cache");
    }
    std::printf("  2 x %zu requests bit-identical to runSerial across "
                "2 devices; generate once, launch anywhere holds\n",
                served);
}

// ----------------------------------------------------------------------
// Phase 2: the contention term is observable and only when contended
// ----------------------------------------------------------------------

void
phaseContention()
{
    bench::header("phase 2: HBM contention ledger vs PR 5 cycle ledger");
    const uint64_t n = 1024;
    const size_t items = 8;

    // One tiled forward dispatch over 8 items x 3 towers: 24 towers
    // cut into 2 tile groups. On a serial device that's 2 launches
    // with a single occupant each; a pooled device runs them as one
    // launchAll whose structural occupancy is min(workers, 2) lanes.
    const auto run = [&](unsigned workers) {
        auto device = std::make_shared<RpuDevice>();
        if (workers > 1)
            device->setParallelism(workers);
        const CkksContext ctx(serveTenantParams(), 7);
        const std::vector<u128> moduli = ctx.basis().primes();
        std::vector<std::vector<std::vector<u128>>> xs(items);
        for (size_t i = 0; i < items; ++i) {
            for (size_t t = 0; t < moduli.size(); ++t) {
                std::vector<u128> region(n);
                Rng rng(1000 * i + t);
                for (auto &x : region)
                    x = rng.below64(uint64_t(moduli[t]));
                xs[i].push_back(std::move(region));
            }
        }
        (void)device->dispatch(
            RingOp::Forward, n,
            std::vector<std::vector<u128>>(items, moduli), std::move(xs));
        return device->stats();
    };

    const DeviceStats serial = run(1);
    if (serial.busyMakespanCycles() != serial.makespanCycles())
        fail("uncontended busy makespan diverges from the cycle ledger");
    if (serial.contendedLaunches != 0)
        fail("serial device recorded contended launches");

    const DeviceStats pooled = run(4);
    if (pooled.contendedLaunches == 0)
        fail("pooled batched launches never contended");
    if (pooled.busyMakespanCycles() <= pooled.makespanCycles())
        fail("contended busy makespan does not exceed the uncontended "
             "cycle-ledger makespan");

    std::printf("  serial: makespan %llu == busy makespan %llu "
                "(staging %llu cyc fully overlapped)\n",
                (unsigned long long)serial.makespanCycles(),
                (unsigned long long)serial.busyMakespanCycles(),
                (unsigned long long)serial.stagingCycleTotal());
    std::printf("  pooled: makespan %llu <  busy makespan %llu "
                "(%llu contended launches, peak %llu lanes)\n",
                (unsigned long long)pooled.makespanCycles(),
                (unsigned long long)pooled.busyMakespanCycles(),
                (unsigned long long)pooled.contendedLaunches,
                (unsigned long long)pooled.maxOccupiedLanes);
}

// ----------------------------------------------------------------------
// Phase 3: policy-ablation modelled capacity replay vs device count
// ----------------------------------------------------------------------

struct ReplayRow
{
    size_t devices = 0;
    uint64_t makespan = 0;  ///< topology busy makespan, cycles
    uint64_t busyTotal = 0; ///< summed busy cycles (work conserved)
    double modelled = 0;    ///< modelled sustained ops/s
    uint64_t split = 0;     ///< chunks whose stages spread devices
    uint64_t stolen = 0;    ///< chunks re-claimed by idle dispatchers
};

ReplayRow
runReplay(const SchedulerPolicy &policy, size_t deviceCount,
          size_t requests)
{
    auto topology = std::make_shared<RpuTopology>(deviceCount);
    auto server = makeServer(topology, policy, true, requests);
    server->prewarm();

    std::vector<Pending> pending;
    pending.reserve(requests);
    std::vector<uint64_t> seqs(kTenants, 0);
    for (size_t i = 0; i < requests; ++i) {
        const uint64_t tenant = 1 + i % kTenants;
        Pending p;
        p.tenant = tenant;
        p.seq = seqs[tenant - 1]++;
        p.op = RequestOp::MulPlainRescale;
        p.a = slotValues(16, 40 * tenant + p.seq);
        p.b = slotValues(16, 7000 + p.seq);
        auto sub = server->submit(tenant, p.op, p.a, p.b);
        if (sub.status != SubmitStatus::Accepted)
            fail("replay submit rejected (queue sized wrong)");
        p.response = std::move(sub.response);
        pending.push_back(std::move(p));
    }

    const RpuTopology::Snapshot before = topology->snapshot();
    server->shutdown(); // the drain is the replay
    const RpuTopology::Snapshot window = topology->since(before);

    for (auto &p : pending) {
        ServeResponse resp = p.response.get();
        const Session *sess = server->tenant(p.tenant);
        if (resp.values != sess->runSerial(p.op, p.a, p.b, p.seq))
            fail("replay response diverges from serial reference");
    }

    ReplayRow row;
    row.devices = deviceCount;
    row.makespan = RpuTopology::makespanCycles(window);
    row.busyTotal = RpuTopology::aggregate(window).busyCycleTotal();
    row.modelled = modelledOpsPerSec(requests, row.makespan);
    row.split = server->stats().splitChunks;
    row.stolen = server->stats().stolenChunks;
    return row;
}

void
phaseModelledCapacity(const std::vector<PolicyTier> &tiers,
                      size_t requests)
{
    bench::header(
        "phase 3: policy-ablation capacity replay (cycle model)");
    std::printf("  %zu mulPlain requests, %zu tenants, serial devices, "
                "one dispatcher\n\n",
                requests, kTenants);
    std::printf("  %-11s %8s %14s %14s %14s %7s\n", "policy", "devices",
                "makespan cyc", "busy total", "modelled op/s", "scale");
    bench::rule('-', 76);

    // Busy-total conservation is the correctness anchor: every policy
    // may only move launches between devices, never change what is
    // launched, so the summed busy cycles must match the 1-device
    // greedy figure in every cell.
    uint64_t busy_anchor = 0;
    for (const PolicyTier &tier : tiers) {
        std::vector<ReplayRow> rows;
        for (size_t d : kDeviceCounts) {
            rows.push_back(runReplay(tier.policy, d, requests));
            const ReplayRow &r = rows.back();
            std::printf("  %-11s %8zu %14llu %14llu %14.1f %6.2fx\n",
                        tier.name, r.devices,
                        (unsigned long long)r.makespan,
                        (unsigned long long)r.busyTotal, r.modelled,
                        r.modelled / rows.front().modelled);
            if (busy_anchor == 0)
                busy_anchor = r.busyTotal;
            if (r.busyTotal != busy_anchor)
                fail("busy total not conserved across the ablation "
                     "(a policy changed the work, not just its place)");
        }

        const double scale12 = rows[1].modelled / rows[0].modelled;
        if (!(scale12 >= 1.6))
            fail("modelled throughput scales < 1.6x from 1 to 2 "
                 "devices");
        const ReplayRow &r8 = rows.back();
        const double scale8 = r8.modelled / rows.front().modelled;
        std::printf("  %-11s 1->2: %.2fx (gate >= 1.60x); 8-dev: "
                    "%.2fx; split %llu, stolen %llu chunks\n",
                    tier.name, scale12, scale8,
                    (unsigned long long)r8.split,
                    (unsigned long long)r8.stolen);
        // The headline gate: with every policy on, chunk splitting
        // must lift 8-device scaling past the 6.00x chunk-granularity
        // ceiling. Only meaningful on the full request budget — the
        // reduced sanitizer run has too few chunks per device for the
        // balance to converge.
        if (tier.policy.split && tier.policy.steal) {
            if (requests >= 96 && !(scale8 >= 7.0))
                fail("all-policy 8-device modelled scaling < 7.0x");
            if (requests < 96)
                std::printf("  (8-device >= 7.0x gate skipped below "
                            "the 96-request budget)\n");
        }
    }
}

// ----------------------------------------------------------------------
// Phase 4: open-loop Poisson sweep vs device count (wall clock)
// ----------------------------------------------------------------------

void
phaseOpenLoop(const SchedulerPolicy &policy, size_t requests)
{
    bench::header("phase 4: open-loop Poisson sweep vs device count");
    const double capacity =
        bench::calibrateServeCapacity(std::make_shared<RpuDevice>());
    const double rate = 1.5 * capacity;
    std::printf("  calibrated serial capacity %.1f ops/s; offering "
                "%.1f ops/s (1.5x) to every device count\n\n",
                capacity, rate);

    std::printf("  %8s %10s %10s %9s %9s %10s %10s %10s\n", "devices",
                "offered/s", "sustained", "accepted", "rejected",
                "p50 us", "p99 us", "p999 us");
    bench::rule('-', 84);
    for (size_t d : kDeviceCounts) {
        auto topology = std::make_shared<RpuTopology>(d);
        auto server = makeServer(topology, policy, false, 64);
        server->prewarm();
        bench::OpenLoopRow r =
            bench::runServeOpenLoop(*server, rate, requests, kTenants);
        r.devices = d;
        std::printf("  %8zu %10.1f %10.1f %9zu %9zu %10.0f %10.0f "
                    "%10.0f\n",
                    r.devices, r.offered, r.sustained, r.accepted,
                    r.rejected, r.p50, r.p99, r.p999);
        if (r.accepted == 0)
            fail("open-loop run accepted no requests");
    }
    std::printf("  (wall-clock rows are informational; the scaling "
                "gate is phase 3's cycle model)\n");
}

} // namespace
} // namespace rpu

int
main()
{
    std::printf("Multi-RPU sharding: contention-aware capacity "
                "planning\n%zu tenants, CKKS n=1024, 3 towers, "
                "device counts 1/2/4/8, shared kernel caches\n",
                rpu::kTenants);

    const size_t requests = rpu::requestBudget(96);
    const std::vector<rpu::PolicyTier> tiers = rpu::selectedTiers();
    // Phases 1 and 4 exercise one policy end to end: the selected
    // tier's when RPU_SHARD_POLICY narrows the run, the full stack
    // otherwise.
    const rpu::SchedulerPolicy primary =
        tiers.size() == 1 ? tiers.front().policy
                          : rpu::SchedulerPolicy::all();
    std::printf("scheduler policy tiers: ");
    for (const rpu::PolicyTier &t : tiers)
        std::printf("%s ", t.name);
    std::printf("\n");

    rpu::phaseBitIdentity(primary);
    rpu::phaseContention();
    rpu::phaseModelledCapacity(tiers, requests);
    rpu::phaseOpenLoop(primary, requests);

    std::printf("\nPASS: device-set serving bit-identical to per-tenant "
                "serial execution under every\nscheduler policy, busy "
                "total conserved across the ablation, modelled "
                "throughput\nscales >= 1.6x from 1 to 2 devices, shared "
                "kernel cache hit across devices\n");
    return 0;
}
