#include "harness.hh"

#include <cstdio>
#include <ctime>
#include <sys/resource.h>

namespace rpubench {

void
Report::violate(const std::string &what)
{
    correct = false;
    notes.push_back("GATE VIOLATED: " + what);
    std::fprintf(stderr, "rpubench: gate violated: %s\n", what.c_str());
}

uint64_t
Tracer::record(Span s)
{
    if (!enabled())
        return 0;
    if (s.id == 0)
        s.id = nextId();
    const uint64_t id = s.id;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return id;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"traceEvents\":[\n");
    // Trace rows: 0 for the harness, 1 + d for device d. Row names
    // first, so Perfetto labels them.
    int max_device = -1;
    for (const Span &s : spans_)
        max_device = std::max(max_device, s.device);
    std::fprintf(f, "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                    "\"thread_name\",\"args\":{\"name\":\"harness\"}},\n");
    for (int d = 0; d <= max_device; ++d) {
        std::fprintf(f,
                     "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
                     "\"thread_name\",\"args\":{\"name\":\"rpu%d\"}},\n",
                     d + 1, d);
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Span names and request ids are harness-chosen identifiers
        // (letters, digits, '.', '_', ':'), so they need no escaping.
        std::fprintf(f,
                     "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,"
                     "\"request\":\"%s\",\"device\":%d}}%s\n",
                     s.device + 1, s.name.c_str(),
                     us(s.start), us(s.end) - us(s.start),
                     (unsigned long long)s.id,
                     (unsigned long long)s.parent, s.request.c_str(),
                     s.device, i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

std::vector<std::vector<rpu::u128>>
TimedBackend::execute(rpu::RpuDevice &dev, const rpu::KernelImage &image,
                      const std::vector<std::vector<rpu::u128>> &inputs)
{
    if (!tracer_.enabled())
        return inner_.execute(dev, image, inputs);
    const auto t0 = Clock::now();
    auto out = inner_.execute(dev, image, inputs);
    const auto t1 = Clock::now();
    clock_->nanos.fetch_add(uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    clock_->calls.fetch_add(1);
    Span s;
    s.name = "sim.functional.execute";
    s.start = t0;
    s.end = t1;
    s.device = device_;
    tracer_.record(std::move(s));
    return out;
}

std::shared_ptr<rpu::RpuDevice>
makeDevice(int index, const std::shared_ptr<rpu::DeviceCaches> &caches,
           const std::shared_ptr<BackendClock> &clock, Tracer &tracer)
{
    std::unique_ptr<rpu::ExecutionBackend> backend;
    if (clock)
        backend = std::make_unique<TimedBackend>(index, clock, tracer);
    else
        backend = std::make_unique<rpu::FunctionalSimBackend>();
    return std::make_shared<rpu::RpuDevice>(std::move(backend), caches);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

double
processCpuSeconds()
{
    struct timespec ts = {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

const std::vector<Metric> &
perLayerCatalogue()
{
    static const std::vector<Metric> catalogue = {
        // serve: latency split and dispatch shape
        {"serve.queue_wait_p50_ms", 0, "ms", "wall"},
        {"serve.queue_wait_p90_ms", 0, "ms", "wall"},
        {"serve.service_p50_ms", 0, "ms", "wall"},
        {"serve.open_p50_ms", 0, "ms", "wall"},
        {"serve.open_p90_ms", 0, "ms", "wall"},
        {"serve.open_p99_ms", 0, "ms", "wall"},
        {"serve.latency_samples", 0, "count", "-"},
        {"serve.submit_us", 0, "us", "wall"},
        {"serve.requests_per_chunk", 0, "count", "-"},
        {"serve.coalesced_frac", 0, "ratio", "-"},
        {"serve.stolen_chunks", 0, "count", "-"},
        {"serve.split_chunks", 0, "count", "-"},
        {"serve.warmup.sent", 0, "count", "-"},
        {"serve.warmup.ok", 0, "count", "-"},
        {"serve.warmup.rejected", 0, "count", "-"},
        {"serve.warmup.failed", 0, "count", "-"},
        {"serve.drain.sent", 0, "count", "-"},
        {"serve.drain.ok", 0, "count", "-"},
        {"serve.drain.rejected", 0, "count", "-"},
        {"serve.drain.failed", 0, "count", "-"},
        {"serve.closed.sent", 0, "count", "-"},
        {"serve.closed.ok", 0, "count", "-"},
        {"serve.closed.rejected", 0, "count", "-"},
        {"serve.closed.failed", 0, "count", "-"},
        {"serve.open.sent", 0, "count", "-"},
        {"serve.open.ok", 0, "count", "-"},
        {"serve.open.rejected", 0, "count", "-"},
        {"serve.open.failed", 0, "count", "-"},
        // open-loop generator health
        {"gen.late_p90_ms", 0, "ms", "wall"},
        {"gen.late_max_ms", 0, "ms", "wall"},
        // rpu: device ledger over the measured windows
        {"rpu.launches_per_op", 0, "count", "-"},
        {"rpu.towers_per_op", 0, "count", "-"},
        {"rpu.staged_words_per_op", 0, "words", "-"},
        {"rpu.staging_cycles_per_op", 0, "cycles", "modelled"},
        {"rpu.contended_launches", 0, "count", "-"},
        {"rpu.device_busy_imbalance", 0, "ratio", "modelled"},
        {"rpu.kernel_misses_warm", 0, "count", "-"},
        {"rpu.kernel_misses_warmup", 0, "count", "-"},
        // sim.functional: the timed backend decorator
        {"sim.functional.ms_per_op", 0, "ms", "wall"},
        {"sim.functional.calls_per_op", 0, "count", "-"},
        {"sim.functional.frac_of_service", 0, "ratio", "wall"},
        // rlwe: serial replay of a request sample, call by call
        {"rlwe.encrypt_ms", 0, "ms", "wall"},
        {"rlwe.encode_ms", 0, "ms", "wall"},
        {"rlwe.mulplain_ms", 0, "ms", "wall"},
        {"rlwe.mulct_ms", 0, "ms", "wall"},
        {"rlwe.rescale_ms", 0, "ms", "wall"},
        {"rlwe.decrypt_ms", 0, "ms", "wall"},
        {"rlwe.host_ms_per_op", 0, "ms", "wall"},
        // setup: cold start split
        {"setup.topology_ms", 0, "ms", "wall"},
        {"setup.tenants_ms", 0, "ms", "wall"},
        {"setup.prewarm_ms", 0, "ms", "wall"},
        {"setup.warmup_ms", 0, "ms", "wall"},
        // codegen / cycle model / verification (design sweep)
        {"codegen.ms_per_op", 0, "ms", "wall"},
        {"codegen.instructions", 0, "count", "-"},
        {"sim.cycle.ms_per_op", 0, "ms", "wall"},
        {"sim.cycle.best_cycles", 0, "cycles", "modelled"},
        {"sim.cycle.dispatch_cycles", 0, "cycles", "modelled"},
        {"sim.cycle.busyboard_stall_cycles", 0, "cycles", "modelled"},
        {"sim.cycle.queue_full_stall_cycles", 0, "cycles", "modelled"},
        {"sim.cycle.drain_cycles", 0, "cycles", "modelled"},
        {"dse.verify_ms_per_op", 0, "ms", "wall"},
        {"dse.point_p90_ms", 0, "ms", "wall"},
        // tracing itself
        {"trace.overhead_frac", 0, "ratio", "wall"},
        {"trace.spans", 0, "count", "-"},
    };
    return catalogue;
}

} // namespace rpubench
