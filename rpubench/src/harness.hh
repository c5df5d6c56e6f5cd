/**
 * @file
 * Shared plumbing of the repository benchmark: run options, metric
 * reports on two clocks, in-memory spans exported as Chrome
 * trace-event JSON, and the timing ExecutionBackend decorator the
 * traced runs put in front of the functional simulator.
 *
 * Everything here is measured from outside the library: spans wrap
 * calls into public functions, and the only hook inside the launch
 * path is an ExecutionBackend handed to RpuDevice's public
 * constructor.
 */

#ifndef RPUBENCH_HARNESS_HH
#define RPUBENCH_HARNESS_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rpu/device.hh"

namespace rpubench {

using Clock = std::chrono::steady_clock;

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;  ///< set up, gate, print setup_s, exit
    std::string traceOut;    ///< Chrome trace path (traced runs)
};

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** p-th percentile (ceil-rank, inclusive) of an unsorted sample. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = size_t(std::ceil(p * double(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? size_t(0) : rank - 1)];
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

/** One reported number: the clock says whether it is host wall time
 *  ("wall"), host CPU time of the process's threads ("cpu"), RPU
 *  cycles from the cycle model ("modelled"), or none ("-": counts,
 *  ratios, memory). */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string clock;
};

/** What a workload run hands back to main(). */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double setupSeconds = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<std::string> notes; ///< extra human-readable lines

    /** Record a violated correctness gate (reported, never fatal
     *  mid-run, so every gate of a run is checked and listed). */
    void violate(const std::string &what);
};

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/** One closed span; ids start at 1, parent 0 means a root. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    Clock::time_point start, end;
    std::string request; ///< e.g. "tenant:seq:op", empty when none
    int device = -1;     ///< RPU index, -1 for harness spans
};

/**
 * In-memory span store. Recording is off until enable(); while off
 * every call is a cheap no-op, so the traced run can alternate
 * traced and untraced windows to measure its own overhead.
 */
class Tracer
{
  public:
    void enable(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(); }

    /** Reserve an id for a span whose children close before it. */
    uint64_t nextId() { return next_id_.fetch_add(1); }

    /** Record a closed span (id 0 = allocate one); returns its id,
     *  or 0 when recording is off. */
    uint64_t record(Span s);

    /** record() for a harness span. */
    uint64_t
    span(const char *name, Clock::time_point start, Clock::time_point end,
         uint64_t parent = 0, std::string request = {}, uint64_t id = 0)
    {
        Span s;
        s.id = id;
        s.parent = parent;
        s.name = name;
        s.start = start;
        s.end = end;
        s.request = std::move(request);
        return record(std::move(s));
    }

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeJson(const std::string &path) const;

    size_t size() const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    Clock::time_point origin_ = Clock::now();
};

// ----------------------------------------------------------------------
// Timing decorator for the functional simulator
// ----------------------------------------------------------------------

/** Host time and call count spent inside the functional simulator. */
struct BackendClock
{
    std::atomic<uint64_t> nanos{0};
    std::atomic<uint64_t> calls{0};

    struct Reading
    {
        uint64_t nanos = 0, calls = 0;
        double ms() const { return double(nanos) * 1e-6; }
    };
    Reading read() const { return {nanos.load(), calls.load()}; }
};

inline BackendClock::Reading
operator-(BackendClock::Reading a, BackendClock::Reading b)
{
    return {a.nanos - b.nanos, a.calls - b.calls};
}

/**
 * ExecutionBackend decorator: forwards to FunctionalSimBackend and,
 * while the tracer records, times each execute() into a shared
 * BackendClock and a span on the device's trace row.
 */
class TimedBackend : public rpu::ExecutionBackend
{
  public:
    TimedBackend(int device, std::shared_ptr<BackendClock> clock,
                 Tracer &tracer)
        : device_(device), clock_(std::move(clock)), tracer_(tracer)
    {
    }

    const char *name() const override { return inner_.name(); }

    std::vector<std::vector<rpu::u128>>
    execute(rpu::RpuDevice &dev, const rpu::KernelImage &image,
            const std::vector<std::vector<rpu::u128>> &inputs) override;

  private:
    rpu::FunctionalSimBackend inner_;
    int device_;
    std::shared_ptr<BackendClock> clock_;
    Tracer &tracer_;
};

/** A serial functional-simulator device over @p caches: timed through
 *  @p clock when @p clock is non-null, the plain backend otherwise. */
std::shared_ptr<rpu::RpuDevice>
makeDevice(int index, const std::shared_ptr<rpu::DeviceCaches> &caches,
           const std::shared_ptr<BackendClock> &clock, Tracer &tracer);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** CPU time of all this process's threads, in seconds. */
double processCpuSeconds();

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

Report runServeMulPlain(const Options &opt, Tracer &tracer);
Report runServeMixed2Dev(const Options &opt, Tracer &tracer);
Report runDseNtt64k(const Options &opt, Tracer &tracer);

/** Every per-layer metric the traced run prints, in print order,
 *  with its unit and clock; workloads that do not exercise a layer
 *  report it as 0. */
const std::vector<Metric> &perLayerCatalogue();

} // namespace rpubench

#endif // RPUBENCH_HARNESS_HH
