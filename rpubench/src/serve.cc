/**
 * @file
 * The two serving workloads: HeServer over an RpuTopology, driven by
 * a seeded request stream.
 *
 * A run has these phases after set-up, all on the warm topology:
 *
 *  1. Drain windows (throughput_ops_s, host_cpu_ms_per_op,
 *     modelled_cycles_per_op): a fresh startPaused server is
 *     preloaded with a fixed number of requests, then started;
 *     completions over the time from start() to the last response is
 *     one window's closed-loop ceiling. Windows repeat for a fixed
 *     share of --seconds and the median window is reported.
 *  2. Closed loop (p50_ms): one request in flight per dispatcher, the
 *     next sent as soon as one returns. p50 is taken over every 24
 *     completions and the median reported.
 *  3. Open loop (serve.open_*): Poisson arrivals at the workload's
 *     fixed rate, low enough that a request seldom finds its
 *     dispatcher busy, each timed from its due time. On a shared
 *     host these figures move with CPU steal far more than the
 *     closed-loop ones, so they are reported per layer.
 *  4. Traced runs only: a serial replay of a request sample through
 *     CkksContext calls on a timed device (the rlwe.* layer).
 *
 * Every drain and warm-up response and every fourth closed- and
 * open-loop response is checked against Session::runSerial.
 *
 * Nothing here is calibrated in the run: rates, window sizes and the
 * request mix are constants; --seed fixes request order, payloads and
 * arrival times. All checks run after the last timed phase.
 */

#include <cmath>
#include <complex>
#include <cstring>
#include <future>
#include <map>
#include <thread>

#include "common/random.hh"
#include "harness.hh"
#include "rpu/topology.hh"
#include "serve/server.hh"

namespace rpubench {
namespace {

using rpu::RpuTopology;
using rpu::serve::HeServer;
using rpu::serve::RequestOp;
using rpu::serve::ServeConfig;
using rpu::serve::ServerStats;
using rpu::serve::ServeResponse;
using rpu::serve::Session;
using rpu::serve::SubmitStatus;
using Slots = std::vector<std::complex<double>>;

struct TenantSpec
{
    uint64_t id;
    size_t towers;
};

/** Requests of one (tenant, op) in every block of the stream. */
struct Share
{
    uint64_t tenant;
    RequestOp op;
    size_t count;
};

struct ServeSpec
{
    size_t devices;
    unsigned dispatchers;
    std::vector<TenantSpec> tenants;
    std::vector<Share> block; ///< the request mix, exactly, per block
    double rateOpsS;          ///< open-loop Poisson arrival rate
    size_t drainRequests;     ///< requests preloaded per drain window
    double drainShare;        ///< share of --seconds spent draining
};

/** The serving tenants' parameter set: CKKS n=1024, 45-bit towers,
 *  scale 2^40 (the repository's serving benches use 3 towers). */
rpu::CkksParams
tenantParams(size_t towers)
{
    rpu::CkksParams p;
    p.n = 1024;
    p.towers = towers;
    p.towerBits = 45;
    p.scale = 1099511627776.0; // 2^40
    p.noiseBound = 4;
    return p;
}

struct Request
{
    uint64_t tenant = 0;
    RequestOp op = RequestOp::MulPlainRescale;
    Slots a, b;
};

Slots
slotValues(rpu::Rng &rng)
{
    Slots v(16);
    for (auto &z : v)
        z = {2.0 * rng.nextDouble() - 1.0, 2.0 * rng.nextDouble() - 1.0};
    return v;
}

/**
 * The seeded request stream: blocks holding exactly the spec's mix,
 * each shuffled by the seed, so every drain window carries the same
 * work whatever the seed, and the seed alone fixes order and payloads.
 */
class RequestStream
{
  public:
    RequestStream(const ServeSpec &spec, uint64_t seed)
        : spec_(spec), rng_(seed)
    {
    }

    Request
    next()
    {
        if (pos_ == order_.size())
            refill();
        Request r;
        r.tenant = order_[pos_].tenant;
        r.op = order_[pos_].op;
        ++pos_;
        r.a = slotValues(rng_);
        r.b = slotValues(rng_);
        return r;
    }

    rpu::Rng &rng() { return rng_; }

  private:
    void
    refill()
    {
        order_.clear();
        for (const Share &s : spec_.block)
            for (size_t i = 0; i < s.count; ++i)
                order_.push_back(s);
        for (size_t i = order_.size(); i > 1; --i) // Fisher-Yates
            std::swap(order_[i - 1], order_[rng_.next64() % i]);
        pos_ = 0;
    }

    const ServeSpec &spec_;
    rpu::Rng rng_;
    std::vector<Share> order_;
    size_t pos_ = 0;
};

/** One submitted request and what came back for it. */
struct Pending
{
    Request req;
    bool accepted = false;
    bool ok = false; ///< resolved with a value (not an exception)
    std::future<ServeResponse> future;
    ServeResponse resp;
    Clock::time_point due, sent;
    double submitUs = 0;
};

void
submit(HeServer &server, Pending &p)
{
    p.sent = Clock::now();
    auto sub = server.submit(p.req.tenant, p.req.op, p.req.a, p.req.b);
    p.submitUs = std::chrono::duration<double, std::micro>(Clock::now() -
                                                           p.sent)
                     .count();
    p.accepted = sub.status == SubmitStatus::Accepted;
    if (p.accepted)
        p.future = std::move(sub.response);
}

void
collect(Pending &p)
{
    if (!p.accepted)
        return;
    try {
        p.resp = p.future.get();
        p.ok = true;
    } catch (...) {
        p.ok = false;
    }
}

/** FNV-1a over the bits of decrypted slots: equal digests stand for
 *  bit-identical results, without keeping every result in memory. */
uint64_t
digestOf(const Slots &values)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &z : values) {
        for (double part : {z.real(), z.imag()}) {
            uint64_t bits = 0;
            std::memcpy(&bits, &part, sizeof bits);
            for (int i = 0; i < 8; ++i) {
                h ^= (bits >> (8 * i)) & 0xff;
                h *= 0x100000001b3ull;
            }
        }
    }
    return h;
}

/** What the end-of-run check needs from one served request. */
struct Served
{
    const char *phase;
    Request req;
    uint64_t seq = 0;
    uint64_t digest = 0;
    bool ok = false;
};

Served
servedFrom(const char *phase, const Pending &p)
{
    return {phase, p.req, p.resp.seq, p.ok ? digestOf(p.resp.values) : 0,
            p.ok};
}

/** Phase counts, as the serve.<phase>.* metrics report them. */
struct PhaseCounts
{
    uint64_t sent = 0, ok = 0, rejected = 0, failed = 0;

    void
    add(const Pending &p)
    {
        ++sent;
        if (!p.accepted)
            ++rejected;
        else if (p.ok)
            ++ok;
        else
            ++failed;
    }
};

/**
 * Re-derive every listed response through Session::runSerial of
 * @p server's tenant with the same id, on three threads. Sessions
 * with equal (id, parameters) are bit-identical worlds, so any
 * server's sessions serve as the reference. Reports each divergent
 * (or never resolved) response and returns how many there were.
 */
size_t
checkServed(const HeServer &server, const std::vector<Served> &items,
            Report &report)
{
    std::atomic<size_t> next{0};
    std::vector<char> bad(items.size(), 0);
    const auto worker = [&] {
        for (size_t i = next++; i < items.size(); i = next++) {
            const Served &s = items[i];
            try {
                const Session *sess = server.tenant(s.req.tenant);
                bad[i] = !s.ok || !sess ||
                         digestOf(sess->runSerial(s.req.op, s.req.a,
                                                  s.req.b, s.seq)) !=
                             s.digest;
            } catch (...) {
                bad[i] = 1;
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();
    size_t count = 0;
    for (size_t i = 0; i < items.size(); ++i) {
        if (bad[i] && ++count <= 5)
            report.violate(std::string(items[i].phase) + " response " +
                           std::to_string(items[i].req.tenant) + ":" +
                           std::to_string(items[i].seq) +
                           " differs from Session::runSerial");
    }
    if (count > 5)
        report.violate(std::to_string(count) + " of " +
                       std::to_string(items.size()) +
                       " checked responses differ from Session::runSerial");
    return count;
}

/** The warm device set: a topology whose devices share one cache
 *  bundle, timed through one BackendClock in traced runs. */
struct Rig
{
    std::shared_ptr<BackendClock> clock; ///< null when untraced
    std::shared_ptr<RpuTopology> topology;
};

std::unique_ptr<HeServer>
makeServer(const ServeSpec &spec, const Rig &rig, bool paused)
{
    ServeConfig cfg;
    cfg.queueCapacity = 256;
    cfg.dispatchers = spec.dispatchers;
    cfg.coalesce = true;
    cfg.startPaused = paused;
    auto server = std::make_unique<HeServer>(cfg, rig.topology);
    for (const TenantSpec &t : spec.tenants)
        server->addTenant({t.id, tenantParams(t.towers), 30});
    return server;
}

std::string
requestId(const Pending &p)
{
    return std::to_string(p.req.tenant) + ":" +
           std::to_string(p.resp.seq) +
           (p.req.op == RequestOp::MulCtRescale ? ":mulct" : ":mulplain");
}

/** One drain window's measurements. */
struct DrainWindow
{
    bool traced = false;
    double seconds = 0;
    double cpuSeconds = 0; ///< all threads' CPU time over the window
    size_t requests = 0;
    uint64_t makespan = 0;
    RpuTopology::Snapshot window;
    ServerStats stats;
    BackendClock::Reading backend;
    PhaseCounts counts;
};

DrainWindow
runDrainWindow(const ServeSpec &spec, const Rig &rig,
               RequestStream &stream, std::vector<Served> &checks,
               Tracer &tracer)
{
    DrainWindow w;
    w.traced = tracer.enabled();
    auto server = makeServer(spec, rig, /*paused=*/true);
    server->prewarm(); // all cache hits: builds the exec contexts

    std::vector<Pending> pending(spec.drainRequests);
    for (Pending &p : pending) {
        p.req = stream.next();
        submit(*server, p);
    }

    const auto before = rig.topology->snapshot();
    const auto b0 = rig.clock ? rig.clock->read() : BackendClock::Reading{};
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    server->start();
    for (Pending &p : pending)
        collect(p);
    const auto t1 = Clock::now();
    w.cpuSeconds = processCpuSeconds() - cpu0;
    server->shutdown();
    w.window = rig.topology->since(before);
    if (rig.clock)
        w.backend = rig.clock->read() - b0;
    tracer.span("serve.drain_window", t0, t1);

    w.seconds = std::chrono::duration<double>(t1 - t0).count();
    w.requests = pending.size();
    w.makespan = RpuTopology::makespanCycles(w.window);
    w.stats = server->stats();

    for (const Pending &p : pending) {
        w.counts.add(p);
        checks.push_back(servedFrom("drain", p));
    }
    return w;
}

struct OpenLoop
{
    std::vector<double> latencyMs, queueMs, serviceMs, lateMs, submitUs;
    /** p50 and p90 latency of each run of kSegment consecutive
     *  arrivals (about 2-3 s), reported as medians, so a few seconds
     *  of host interference move them no more than they move one
     *  drain window. */
    std::vector<double> segmentP50, segmentP90;
    PhaseCounts counts;
    uint64_t kernelMisses = 0;
};

/** Arrivals per latency segment; a whole number of request blocks. */
constexpr size_t kSegment = 24;

/** Poisson arrivals at spec.rateOpsS for @p seconds on @p server
 *  (started, warm); latency is timed from each arrival's due time. */
OpenLoop
runOpenLoop(const ServeSpec &spec, const Rig &rig, HeServer &server,
            RequestStream &stream, double seconds,
            std::vector<Served> &checks, Tracer &tracer)
{
    OpenLoop ol;
    // Whole segments only, so each one carries the mix exactly.
    const size_t arrivals =
        kSegment * std::max<size_t>(1, size_t(std::llround(
                                           spec.rateOpsS * seconds /
                                           double(kSegment))));
    std::vector<Pending> pending(arrivals);
    // Inputs and the arrival schedule are made before the clock starts.
    double offset = 0;
    std::vector<double> offsets(arrivals);
    for (size_t i = 0; i < arrivals; ++i) {
        pending[i].req = stream.next();
        offset += -std::log(1.0 - stream.rng().nextDouble()) / spec.rateOpsS;
        offsets[i] = offset;
    }

    const auto before = rig.topology->snapshot();
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    for (size_t i = 0; i < arrivals; ++i) {
        Pending &p = pending[i];
        p.due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(offsets[i]));
        std::this_thread::sleep_until(p.due);
        submit(server, p);
    }
    for (Pending &p : pending)
        collect(p);
    ol.kernelMisses = RpuTopology::aggregate(
                          rig.topology->since(before))
                          .kernelMisses;

    std::vector<double> segment;
    for (size_t i = 0; i < pending.size(); ++i) {
        if (i % kSegment == 0 && !segment.empty()) {
            ol.segmentP50.push_back(percentile(segment, 0.50));
            ol.segmentP90.push_back(percentile(segment, 0.90));
            segment.clear();
        }
        Pending &p = pending[i];
        ol.counts.add(p);
        ol.lateMs.push_back(msBetween(p.due, p.sent));
        ol.submitUs.push_back(p.submitUs);
        if (!p.ok)
            continue;
        const double queue = p.resp.queueMicros * 1e-3;
        const double service = p.resp.serviceMicros * 1e-3;
        ol.latencyMs.push_back(msBetween(p.due, p.sent) +
                               p.resp.totalMicros * 1e-3);
        segment.push_back(ol.latencyMs.back());
        ol.queueMs.push_back(queue);
        ol.serviceMs.push_back(service);
        if (i % 4 == 0)
            checks.push_back(servedFrom("open-loop", p));
        if (tracer.enabled()) {
            const auto at = [&](double ms) {
                return p.sent +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(ms));
            };
            const std::string rid = requestId(p);
            const uint64_t id = tracer.nextId();
            tracer.span("serve.submit", p.sent,
                        at(p.submitUs * 1e-3), id, rid);
            tracer.span("serve.queue", p.sent, at(queue), id, rid);
            tracer.span("serve.service", at(queue),
                        at(queue + service), id, rid);
            tracer.span("serve.request", p.due,
                        at(p.resp.totalMicros * 1e-3), 0, rid, id);
        }
    }
    ol.segmentP50.push_back(percentile(segment, 0.50));
    ol.segmentP90.push_back(percentile(segment, 0.90));
    return ol;
}

struct ClosedLoop
{
    std::vector<double> segmentP50; ///< per kSegment completions
    PhaseCounts counts;
    uint64_t kernelMisses = 0;
};

/**
 * Closed loop with one request in flight per dispatcher, for
 * @p seconds on @p server (started, warm): the client resends as soon
 * as a response arrives, so no request waits for a busy dispatcher
 * and the host never idles between requests. One client thread polls
 * the in-flight responses rather than blocking on one, so a response
 * is seen without a thread wake-up, whose cost on a shared host
 * depends on the neighbours. Latency is submit to response.
 */
ClosedLoop
runClosedLoop(const ServeSpec &spec, const Rig &rig, HeServer &server,
              uint64_t seed, double seconds, std::vector<Served> &checks)
{
    ClosedLoop cl;
    RequestStream stream(spec, seed * 7919 + 1);
    std::vector<double> latencyMs;
    const auto before = rig.topology->snapshot();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<Pending> inflight(spec.dispatchers);
    for (Pending &p : inflight) {
        p.req = stream.next();
        submit(server, p);
    }
    for (size_t open = inflight.size(); open > 0;) {
        for (Pending &p : inflight) {
            if (p.sent == Clock::time_point{} ||
                (p.accepted && p.future.wait_for(std::chrono::seconds(0)) !=
                                   std::future_status::ready))
                continue;
            const auto done = Clock::now();
            collect(p);
            cl.counts.add(p);
            if (p.ok) {
                latencyMs.push_back(msBetween(p.sent, done));
                if (cl.counts.sent % 4 == 1)
                    checks.push_back(servedFrom("closed-loop", p));
            }
            p = Pending{};
            if (done < deadline) {
                p.req = stream.next();
                submit(server, p);
            } else {
                --open; // slot retired: sent stays unset
            }
        }
    }
    cl.kernelMisses =
        RpuTopology::aggregate(rig.topology->since(before)).kernelMisses;
    for (size_t i = 0; i + kSegment <= latencyMs.size(); i += kSegment)
        cl.segmentP50.push_back(percentile(
            std::vector<double>(latencyMs.begin() + i,
                                latencyMs.begin() + i + kSegment),
            0.50));
    return cl;
}

/** Set-up: topology, tenants (keygen), prewarm, and a warm-up pass
 *  that sends every (tenant, op) of the mix once, so kernels
 *  prewarm() does not generate are built before anything is timed. */
struct SetUp
{
    Rig rig;
    std::unique_ptr<HeServer> server;
    double topologyMs = 0, tenantsMs = 0, prewarmMs = 0, warmupMs = 0;
    double seconds = 0;
    PhaseCounts warmup;
    uint64_t warmupMisses = 0;
    std::vector<Served> warmupServed;
};

SetUp
setUp(const ServeSpec &spec, bool traced, uint64_t seed, Tracer &tracer)
{
    SetUp su;
    const auto t0 = Clock::now();
    if (traced)
        su.rig.clock = std::make_shared<BackendClock>();
    auto caches = std::make_shared<rpu::DeviceCaches>();
    std::vector<std::shared_ptr<rpu::RpuDevice>> devices;
    for (size_t d = 0; d < spec.devices; ++d)
        devices.push_back(makeDevice(int(d), caches, su.rig.clock, tracer));
    su.rig.topology = RpuTopology::adopt(std::move(devices));
    const auto t1 = Clock::now();
    su.server = makeServer(spec, su.rig, /*paused=*/false);
    const auto t2 = Clock::now();
    su.server->prewarm();
    const auto t3 = Clock::now();

    const auto before = su.rig.topology->snapshot();
    rpu::Rng rng(seed ^ 0x5741524d55505eull);
    std::vector<Pending> warm;
    for (const Share &s : spec.block) {
        Pending p;
        p.req.tenant = s.tenant;
        p.req.op = s.op;
        p.req.a = slotValues(rng);
        p.req.b = slotValues(rng);
        warm.push_back(std::move(p));
    }
    for (Pending &p : warm)
        submit(*su.server, p);
    for (Pending &p : warm)
        collect(p);
    const auto t4 = Clock::now();
    su.warmupMisses =
        RpuTopology::aggregate(su.rig.topology->since(before)).kernelMisses;

    su.topologyMs = msBetween(t0, t1);
    su.tenantsMs = msBetween(t1, t2);
    su.prewarmMs = msBetween(t2, t3);
    su.warmupMs = msBetween(t3, t4);
    su.seconds = std::chrono::duration<double>(t4 - t0).count();
    tracer.span("setup.topology", t0, t1);
    tracer.span("setup.tenants", t1, t2);
    tracer.span("setup.prewarm", t2, t3);
    tracer.span("setup.warmup", t3, t4);

    for (const Pending &p : warm) {
        su.warmup.add(p);
        su.warmupServed.push_back(servedFrom("warm-up", p));
    }
    return su;
}

/** Per-call host time of the rlwe layer: a serial replay of
 *  @p samples stream requests through CkksContext, mirroring
 *  Session::runSerialWith call for call, on a timed serial device
 *  over the topology's warm caches. */
void
replayRlwe(const ServeSpec &spec, const SetUp &su, RequestStream &stream,
           size_t samples, Tracer &tracer, Report &report)
{
    auto clock = std::make_shared<BackendClock>();
    auto device = makeDevice(int(spec.devices), su.rig.topology->caches(),
                             clock, tracer);
    std::map<size_t, std::unique_ptr<rpu::CkksContext>> contexts;
    for (const TenantSpec &t : spec.tenants) {
        if (!contexts.count(t.towers)) {
            contexts[t.towers] =
                std::make_unique<rpu::CkksContext>(tenantParams(t.towers));
            contexts[t.towers]->attachDevice(device);
        }
    }

    std::map<std::string, double> ms;
    double callMs = 0;
    size_t mismatches = 0;
    const auto b0 = clock->read();
    for (size_t i = 0; i < samples; ++i) {
        const Request r = stream.next();
        const Session *sess = su.server->tenant(r.tenant);
        size_t towers = 0;
        for (const TenantSpec &t : spec.tenants)
            if (t.id == r.tenant)
                towers = t.towers;
        const rpu::CkksContext &ctx = *contexts.at(towers);
        const uint64_t seq = 1000000 + i; // unused by the server
        const std::string rid = std::to_string(r.tenant) + ":" +
                                std::to_string(seq);
        const uint64_t parent = tracer.nextId();
        const auto timed = [&](const char *name, auto &&fn) {
            const auto a = Clock::now();
            auto out = fn();
            const auto b = Clock::now();
            ms[name] += msBetween(a, b);
            callMs += msBetween(a, b);
            tracer.span(name, a, b, parent, rid);
            return out;
        };

        const auto start = Clock::now();
        rpu::Rng rng = sess->requestRng(seq);
        rpu::CkksCiphertext ct = timed("rlwe.encrypt", [&] {
            return ctx.encrypt(sess->secretKey(), r.a, rng);
        });
        rpu::CkksCiphertext prod;
        if (r.op == RequestOp::MulPlainRescale) {
            auto pt = timed("rlwe.encode", [&] {
                return ctx.encodePlain(r.b, ct.towers());
            });
            prod = timed("rlwe.mulplain",
                         [&] { return ctx.mulPlain(ct, pt); });
        } else {
            auto ct_b = timed("rlwe.encrypt", [&] {
                return ctx.encrypt(sess->secretKey(), r.b, rng);
            });
            prod = timed("rlwe.mulct", [&] {
                return ctx.mulCt(ct, ct_b, sess->relinKey());
            });
        }
        auto resc = timed("rlwe.rescale", [&] { return ctx.rescale(prod); });
        auto out = timed("rlwe.decrypt", [&] {
            return ctx.decrypt(sess->secretKey(), resc);
        });
        tracer.span("rlwe.request", start, Clock::now(), 0, rid,
                    parent);
        if (out != sess->runSerial(r.op, r.a, r.b, seq))
            ++mismatches;
    }
    const double backendMs = (clock->read() - b0).ms();
    if (mismatches)
        report.violate(std::to_string(mismatches) +
                       " rlwe replay results differ from runSerial");
    const double n = double(samples);
    for (const char *name : {"rlwe.encrypt", "rlwe.encode", "rlwe.mulplain",
                             "rlwe.mulct", "rlwe.rescale", "rlwe.decrypt"})
        report.perLayer.push_back(
            {std::string(name) + "_ms", ms[name] / n, "ms", "wall"});
    report.perLayer.push_back(
        {"rlwe.host_ms_per_op", (callMs - backendMs) / n, "ms", "wall"});
}

void
addPhase(Report &report, const char *phase, const PhaseCounts &c)
{
    const std::string p = std::string("serve.") + phase + ".";
    report.perLayer.push_back({p + "sent", double(c.sent), "count", "-"});
    report.perLayer.push_back({p + "ok", double(c.ok), "count", "-"});
    report.perLayer.push_back(
        {p + "rejected", double(c.rejected), "count", "-"});
    report.perLayer.push_back({p + "failed", double(c.failed), "count", "-"});
    report.attempted += c.sent;
    report.failed += c.rejected + c.failed;
}

Report
runServe(const ServeSpec &spec, const Options &opt, Tracer &tracer)
{
    Report report;
    tracer.enable(opt.trace);
    SetUp su = setUp(spec, opt.trace, opt.seed, tracer);
    report.setupSeconds = su.seconds;
    if (su.warmup.ok != su.warmup.sent)
        report.violate("warm-up requests rejected or failed");
    std::vector<Served> checks = std::move(su.warmupServed);
    size_t block = 0;
    for (const Share &s : spec.block)
        block += s.count;
    if (kSegment % block != 0)
        report.violate("latency segment is not a whole number of blocks");
    if (opt.setupOnly) {
        report.attempted = su.warmup.sent;
        report.failed = checkServed(*su.server, checks, report);
        return report;
    }

    // Phase 1: drain windows. The traced run alternates untraced and
    // traced windows; the per-layer figures come from traced ones.
    RequestStream stream(spec, opt.seed);
    std::vector<DrainWindow> windows;
    const auto drainStart = Clock::now();
    while (windows.size() < 4 ||
           secondsSince(drainStart) < spec.drainShare * opt.seconds) {
        tracer.enable(opt.trace && windows.size() % 2 == 1);
        windows.push_back(
            runDrainWindow(spec, su.rig, stream, checks, tracer));
    }

    // Phase 2: closed loop, then phase 3: open loop, both on the
    // set-up server, splitting the rest of the run evenly.
    const double rest = 0.5 * (1.0 - spec.drainShare) * opt.seconds;
    tracer.enable(false);
    const auto openBefore = su.server->stats();
    ClosedLoop cl =
        runClosedLoop(spec, su.rig, *su.server, opt.seed, rest, checks);
    tracer.enable(opt.trace);
    OpenLoop ol =
        runOpenLoop(spec, su.rig, *su.server, stream, rest, checks, tracer);
    su.server->shutdown();
    const ServerStats openStats = su.server->stats();
    const double peakRss = peakRssMb(); // before the checks allocate

    // Gates, once every timed phase is over.
    report.failed += checkServed(*su.server, checks, report);
    PhaseCounts drain;
    uint64_t warmMisses = ol.kernelMisses + cl.kernelMisses;
    for (const DrainWindow &w : windows) {
        drain.sent += w.counts.sent;
        drain.ok += w.counts.ok;
        drain.rejected += w.counts.rejected;
        drain.failed += w.counts.failed;
        warmMisses += RpuTopology::aggregate(w.window).kernelMisses;
        if (w.stats.completed != w.stats.accepted || w.stats.failed != 0 ||
            w.counts.ok != w.requests)
            report.violate("drain window: accepted != completed or a "
                           "request failed");
    }
    if (openStats.completed - openBefore.completed !=
            openStats.accepted - openBefore.accepted ||
        openStats.failed != openBefore.failed)
        report.violate("closed/open loop: accepted != completed or a "
                       "request failed");
    if (warmMisses != 0)
        report.violate("kernel-cache misses after set-up: " +
                       std::to_string(warmMisses));
    addPhase(report, "warmup", su.warmup);
    addPhase(report, "drain", drain);
    addPhase(report, "closed", cl.counts);
    addPhase(report, "open", ol.counts);

    // End-to-end metrics (untraced windows only in a traced run).
    std::vector<double> tput, cpuMs, cyclesPerOp, tputTraced;
    for (const DrainWindow &w : windows) {
        (w.traced ? tputTraced : tput)
            .push_back(double(w.requests) / w.seconds);
        if (!w.traced)
            cpuMs.push_back(w.cpuSeconds * 1e3 / double(w.requests));
        cyclesPerOp.push_back(double(w.makespan) / double(w.requests));
    }
    const double openP50 = median(ol.segmentP50);
    const double openP90 = median(ol.segmentP90);
    const double openP99 = percentile(ol.latencyMs, 0.99);
    report.notes.push_back(
        "closed loop: " + std::to_string(cl.counts.sent) + " requests, " +
        std::to_string(spec.dispatchers) + " in flight");
    report.notes.push_back(
        "open loop: " + std::to_string(ol.counts.sent) + " arrivals at " +
        std::to_string(spec.rateOpsS) + " ops/s; p50 " +
        std::to_string(openP50) + " ms, p90 " + std::to_string(openP90) +
        " ms (segment medians), p99 " + std::to_string(openP99) +
        " ms over " +
        std::to_string(ol.latencyMs.size()) + " samples; " +
        std::to_string(windows.size()) + " drain windows of " +
        std::to_string(spec.drainRequests) + " requests");
    report.endToEnd = {
        {"setup_s", su.seconds, "s", "wall"},
        {"throughput_ops_s", median(tput), "ops/s", "wall"},
        {"host_cpu_ms_per_op", median(cpuMs), "ms", "cpu"},
        {"p50_ms", median(cl.segmentP50), "ms", "wall"},
        {"modelled_cycles_per_op", median(cyclesPerOp), "cycles",
         "modelled"},
        {"peak_rss_mb", peakRss, "MiB", "-"},
    };
    if (!opt.trace)
        return report;

    // Per-layer metrics over the traced drain windows.
    double reqs = 0, wallMs = 0, chunks = 0, coalesced = 0, stolen = 0,
           split = 0;
    rpu::DeviceStats agg;
    std::vector<double> busy(spec.devices, 0.0);
    BackendClock::Reading backend;
    for (const DrainWindow &w : windows) {
        if (!w.traced)
            continue;
        reqs += double(w.requests);
        wallMs += w.seconds * 1e3;
        chunks += double(w.stats.chunks);
        coalesced += double(w.stats.coalescedRequests);
        stolen += double(w.stats.stolenChunks);
        split += double(w.stats.splitChunks);
        agg += RpuTopology::aggregate(w.window);
        for (size_t d = 0; d < spec.devices; ++d)
            busy[d] += double(w.window[d].busyCycleTotal());
        backend.nanos += w.backend.nanos;
        backend.calls += w.backend.calls;
    }
    const double lanes =
        double(std::min<size_t>(spec.devices, spec.dispatchers));
    auto &L = report.perLayer;
    L.push_back({"serve.queue_wait_p50_ms", percentile(ol.queueMs, 0.5),
                 "ms", "wall"});
    L.push_back({"serve.queue_wait_p90_ms", percentile(ol.queueMs, 0.9),
                 "ms", "wall"});
    L.push_back({"serve.service_p50_ms", percentile(ol.serviceMs, 0.5),
                 "ms", "wall"});
    L.push_back({"serve.open_p50_ms", openP50, "ms", "wall"});
    L.push_back({"serve.open_p90_ms", openP90, "ms", "wall"});
    L.push_back({"serve.open_p99_ms", openP99, "ms", "wall"});
    L.push_back({"serve.latency_samples", double(ol.latencyMs.size()),
                 "count", "-"});
    L.push_back({"serve.submit_us", median(ol.submitUs), "us", "wall"});
    L.push_back({"serve.requests_per_chunk", reqs / chunks, "count", "-"});
    L.push_back({"serve.coalesced_frac", coalesced / reqs, "ratio", "-"});
    L.push_back({"serve.stolen_chunks", stolen, "count", "-"});
    L.push_back({"serve.split_chunks", split, "count", "-"});
    L.push_back({"gen.late_p90_ms", percentile(ol.lateMs, 0.9), "ms",
                 "wall"});
    L.push_back({"gen.late_max_ms", percentile(ol.lateMs, 1.0), "ms",
                 "wall"});
    L.push_back({"rpu.launches_per_op", double(agg.launches) / reqs,
                 "count", "-"});
    L.push_back({"rpu.towers_per_op", double(agg.towerLaunches) / reqs,
                 "count", "-"});
    L.push_back({"rpu.staged_words_per_op", double(agg.stagedWords) / reqs,
                 "words", "-"});
    L.push_back({"rpu.staging_cycles_per_op",
                 double(agg.stagingCycleTotal()) / reqs, "cycles",
                 "modelled"});
    L.push_back({"rpu.contended_launches", double(agg.contendedLaunches),
                 "count", "-"});
    L.push_back({"rpu.device_busy_imbalance",
                 *std::max_element(busy.begin(), busy.end()) /
                     std::max(1.0, mean(busy)),
                 "ratio", "modelled"});
    L.push_back({"rpu.kernel_misses_warm", double(warmMisses), "count",
                 "-"});
    L.push_back({"rpu.kernel_misses_warmup", double(su.warmupMisses),
                 "count", "-"});
    L.push_back({"sim.functional.ms_per_op", backend.ms() / reqs, "ms",
                 "wall"});
    L.push_back({"sim.functional.calls_per_op", double(backend.calls) / reqs,
                 "count", "-"});
    L.push_back({"sim.functional.frac_of_service",
                 backend.ms() / (wallMs * lanes), "ratio", "wall"});
    L.push_back({"setup.topology_ms", su.topologyMs, "ms", "wall"});
    L.push_back({"setup.tenants_ms", su.tenantsMs, "ms", "wall"});
    L.push_back({"setup.prewarm_ms", su.prewarmMs, "ms", "wall"});
    L.push_back({"setup.warmup_ms", su.warmupMs, "ms", "wall"});
    L.push_back({"trace.overhead_frac",
                 median(tput) / median(tputTraced) - 1.0, "ratio", "wall"});

    // Phase 3: the rlwe layer, call by call.
    replayRlwe(spec, su, stream, 16, tracer, report);
    return report;
}

} // namespace

/** 4 tenants of one kernel class, MulPlainRescale only, one serial
 *  device and one dispatcher: coalescing and host HE work carry it. */
Report
runServeMulPlain(const Options &opt, Tracer &tracer)
{
    constexpr auto P = RequestOp::MulPlainRescale;
    static const ServeSpec spec = {
        /*devices=*/1,
        /*dispatchers=*/1,
        {{1, 3}, {2, 3}, {3, 3}, {4, 3}},
        {{1, P, 1}, {2, P, 1}, {3, P, 1}, {4, P, 1}},
        /*rateOpsS=*/12.0,
        /*drainRequests=*/64,
        /*drainShare=*/0.35,
    };
    return runServe(spec, opt, tracer);
}

/** Two serial devices and dispatchers, two kernel classes (3 and 5
 *  towers), a hog tenant with half the traffic, 3 in 4 requests
 *  MulCtRescale: the uncoalesced path with relinearisation,
 *  placement, split and steal. */
Report
runServeMixed2Dev(const Options &opt, Tracer &tracer)
{
    constexpr auto P = RequestOp::MulPlainRescale;
    constexpr auto C = RequestOp::MulCtRescale;
    static const ServeSpec spec = {
        /*devices=*/2,
        /*dispatchers=*/2,
        {{1, 3}, {2, 3}, {3, 5}, {4, 5}},
        {{1, C, 9}, {1, P, 3}, {2, C, 3}, {2, P, 1},
         {3, C, 3}, {3, P, 1}, {4, C, 3}, {4, P, 1}},
        /*rateOpsS=*/10.0,
        /*drainRequests=*/96,
        /*drainShare=*/0.35,
    };
    return runServe(spec, opt, tracer);
}

} // namespace rpubench
