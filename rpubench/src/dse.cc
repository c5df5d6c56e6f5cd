/**
 * @file
 * dse_ntt64k: the architect's loop on the paper's headline kernel.
 * For every point of the Fig. 3/4 grid (7 HPLE counts x 4 bank
 * counts), generate and schedule the optimized 64K-point, 128-bit
 * NTT, cycle-simulate it at that design point, and verify it
 * bit-exact on the functional simulator. Sweeps repeat for --seconds;
 * every kernel is generated afresh, so nothing is served from a
 * kernel cache.
 */


#include "harness.hh"
#include "rpu/runner.hh"

namespace rpubench {
namespace {

const std::vector<unsigned> kHples = {4, 8, 16, 32, 64, 128, 256};
const std::vector<unsigned> kBanks = {32, 64, 128, 256};

struct PointTimes
{
    double codegenMs = 0, cycleMs = 0, verifyMs = 0, totalMs = 0;
};

} // namespace

Report
runDseNtt64k(const Options &opt, Tracer &tracer)
{
    Report report;
    tracer.enable(opt.trace);
    const auto t0 = Clock::now();
    auto clock = opt.trace ? std::make_shared<BackendClock>() : nullptr;
    auto device =
        makeDevice(0, std::make_shared<rpu::DeviceCaches>(), clock, tracer);
    rpu::NttRunner runner(65536, 128, device);
    const auto t1 = Clock::now();
    report.setupSeconds = std::chrono::duration<double>(t1 - t0).count();
    tracer.span("setup.ntt_runner", t0, t1);
    if (opt.setupOnly)
        return report;

    const size_t points = kHples.size() * kBanks.size();
    std::vector<uint64_t> gridCycles; // sweep 0, grid order
    rpu::CycleStats best;             // at (128 HPLEs, 128 banks)
    // Per-point latency: p50 / p90 of each untraced sweep, reported as
    // medians over sweeps (as serving reports segments), so a burst of
    // host CPU steal moves them no more than it moves one sweep.
    std::vector<double> tput, tputTraced, cpuMs, sweepP50, sweepP90,
        latencyMs;
    std::vector<PointTimes> traced;
    double instructions = 0;
    size_t failedVerify = 0, cycleDrift = 0, sweeps = 0;
    const auto devBefore = device->stats();
    BackendClock::Reading backend;

    const auto start = Clock::now();
    while (sweeps < 3 || secondsSince(start) < opt.seconds) {
        const bool tracedSweep = opt.trace && sweeps % 2 == 1;
        tracer.enable(tracedSweep);
        const auto b0 = clock ? clock->read() : BackendClock::Reading{};
        const double cpu0 = processCpuSeconds();
        const auto sweepStart = Clock::now();
        std::vector<double> sweepMs;
        size_t idx = 0;
        for (unsigned h : kHples) {
            for (unsigned b : kBanks) {
                rpu::RpuConfig cfg;
                cfg.numHples = h;
                cfg.numBanks = b;
                rpu::NttCodegenOptions opts;
                opts.scheduleConfig = cfg;

                const auto a = Clock::now();
                const rpu::NttKernel kernel = runner.makeKernel(opts);
                const auto c = Clock::now();
                const rpu::KernelMetrics m = runner.evaluate(kernel, cfg);
                const auto d = Clock::now();
                const bool ok = runner.verify(
                    kernel, opt.seed * 1000003 + sweeps * 1009 + idx);
                const auto e = Clock::now();

                if (!ok)
                    ++failedVerify;
                if (sweeps == 0)
                    gridCycles.push_back(m.cycle.cycles);
                else if (gridCycles[idx] != m.cycle.cycles)
                    ++cycleDrift;
                if (h == 128 && b == 128)
                    best = m.cycle;
                if (tracedSweep) {
                    traced.push_back({msBetween(a, c), msBetween(c, d),
                                      msBetween(d, e), msBetween(a, e)});
                    instructions += double(kernel.program.size());
                    const uint64_t id = tracer.nextId();
                    const std::string rid =
                        std::to_string(h) + "x" + std::to_string(b);
                    tracer.span("codegen", a, c, id, rid);
                    tracer.span("sim.cycle", c, d, id, rid);
                    tracer.span("dse.verify", d, e, id, rid);
                    tracer.span("dse.point", a, e, 0, rid, id);
                } else {
                    sweepMs.push_back(msBetween(a, e));
                }
                ++idx;
            }
        }
        const double sweepS = secondsSince(sweepStart);
        (tracedSweep ? tputTraced : tput).push_back(double(points) / sweepS);
        if (!tracedSweep) {
            cpuMs.push_back((processCpuSeconds() - cpu0) * 1e3 /
                            double(points));
            sweepP50.push_back(percentile(sweepMs, 0.50));
            sweepP90.push_back(percentile(sweepMs, 0.90));
            latencyMs.insert(latencyMs.end(), sweepMs.begin(), sweepMs.end());
        }
        if (clock && tracedSweep) {
            const auto r = clock->read() - b0;
            backend.nanos += r.nanos;
            backend.calls += r.calls;
        }
        ++sweeps;
    }
    const rpu::DeviceStats dev = device->statsSince(devBefore);

    report.attempted = sweeps * points;
    report.failed = failedVerify;
    if (failedVerify)
        report.violate(std::to_string(failedVerify) +
                       " design points failed NttRunner::verify");
    if (cycleDrift)
        report.violate("cycle model gave different cycles for one design "
                       "point across sweeps");

    double cyclesSum = 0;
    for (uint64_t c : gridCycles)
        cyclesSum += double(c);
    report.notes.push_back(
        std::to_string(sweeps) + " sweeps of " + std::to_string(points) +
        " design points; p90 per point " +
        std::to_string(median(sweepP90)) + " ms (sweep median), p99 " +
        std::to_string(percentile(latencyMs, 0.99)) + " ms over " +
        std::to_string(latencyMs.size()) + " samples");
    report.endToEnd = {
        {"setup_s", report.setupSeconds, "s", "wall"},
        {"throughput_ops_s", median(tput), "ops/s", "wall"},
        {"host_cpu_ms_per_op", median(cpuMs), "ms", "cpu"},
        {"p50_ms", median(sweepP50), "ms", "wall"},
        {"modelled_cycles_per_op", cyclesSum / double(points), "cycles",
         "modelled"},
        {"peak_rss_mb", peakRssMb(), "MiB", "-"},
    };
    if (!opt.trace)
        return report;

    double codegen = 0, cycle = 0, verify = 0, total = 0;
    for (const PointTimes &p : traced) {
        codegen += p.codegenMs;
        cycle += p.cycleMs;
        verify += p.verifyMs;
        total += p.totalMs;
    }
    const double n = double(traced.size());
    const double ops = double(report.attempted);
    auto &L = report.perLayer;
    L.push_back({"rpu.launches_per_op", double(dev.launches) / ops, "count",
                 "-"});
    L.push_back({"rpu.towers_per_op", double(dev.towerLaunches) / ops,
                 "count", "-"});
    L.push_back({"rpu.staged_words_per_op", double(dev.stagedWords) / ops,
                 "words", "-"});
    L.push_back({"rpu.staging_cycles_per_op",
                 double(dev.stagingCycleTotal()) / ops, "cycles",
                 "modelled"});
    L.push_back({"rpu.contended_launches", double(dev.contendedLaunches),
                 "count", "-"});
    L.push_back({"rpu.device_busy_imbalance", 1.0, "ratio", "modelled"});
    L.push_back({"rpu.kernel_misses_warm", double(dev.kernelMisses),
                 "count", "-"});
    L.push_back({"sim.functional.ms_per_op", backend.ms() / n, "ms",
                 "wall"});
    L.push_back({"sim.functional.calls_per_op", double(backend.calls) / n,
                 "count", "-"});
    L.push_back({"sim.functional.frac_of_service", backend.ms() / total,
                 "ratio", "wall"});
    L.push_back({"setup.topology_ms", report.setupSeconds * 1e3, "ms",
                 "wall"});
    L.push_back({"codegen.ms_per_op", codegen / n, "ms", "wall"});
    L.push_back({"codegen.instructions", instructions / n, "count", "-"});
    L.push_back({"sim.cycle.ms_per_op", cycle / n, "ms", "wall"});
    L.push_back({"sim.cycle.best_cycles", double(best.cycles), "cycles",
                 "modelled"});
    L.push_back({"sim.cycle.dispatch_cycles", double(best.dispatchCycles),
                 "cycles", "modelled"});
    L.push_back({"sim.cycle.busyboard_stall_cycles",
                 double(best.busyboardStallCycles), "cycles", "modelled"});
    L.push_back({"sim.cycle.queue_full_stall_cycles",
                 double(best.queueFullStallCycles), "cycles", "modelled"});
    L.push_back({"sim.cycle.drain_cycles", double(best.drainCycles),
                 "cycles", "modelled"});
    L.push_back({"dse.verify_ms_per_op", verify / n, "ms", "wall"});
    L.push_back({"dse.point_p90_ms", median(sweepP90), "ms", "wall"});
    L.push_back({"trace.overhead_frac",
                 median(tput) / median(tputTraced) - 1.0, "ratio", "wall"});
    return report;
}

} // namespace rpubench
