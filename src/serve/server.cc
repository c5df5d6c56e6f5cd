#include "serve/server.hh"

#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "rpu/device.hh"
#include "rpu/topology.hh"

namespace rpu {
namespace serve {

namespace {

double
micros(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

/** Largest power of two <= @p v (v >= 1). */
size_t
pow2Floor(size_t v)
{
    size_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

/**
 * Whether @p values can be encoded by @p sess's encoder without
 * tripping its internal checks: at most slots() values, every
 * component finite, and |v| * scale < 2^61. The encoder's inverse FFT
 * is 1/n-normalised, so every coefficient is bounded by
 * max|v| * scale; 2^61 leaves a margin below its 2^62 limit.
 */
bool
valuesFit(const Session &sess,
          const std::vector<std::complex<double>> &values)
{
    if (values.size() > sess.ctx().slots())
        return false;
    const double limit = std::ldexp(1.0, 61) / sess.config().params.scale;
    // A NaN component fails the comparison; an infinite one exceeds
    // the limit.
    for (const std::complex<double> &v : values) {
        if (!(std::abs(v) < limit))
            return false;
    }
    return true;
}

} // namespace

HeServer::HeServer(const ServeConfig &cfg,
                   std::shared_ptr<RpuDevice> device)
    : HeServer(cfg, device ? RpuTopology::adopt({std::move(device)})
                           : std::shared_ptr<RpuTopology>())
{
}

HeServer::HeServer(const ServeConfig &cfg,
                   std::shared_ptr<RpuTopology> topology)
    : cfg_(cfg), topology_(std::move(topology)),
      queue_(cfg.queueCapacity)
{
    rpu_assert(cfg_.maxBatch >= 1 && cfg_.maxPerTenant >= 1 &&
                   cfg_.maxCoalesce >= 1,
               "batch bounds must be positive");
    rpu_assert(cfg_.dispatchers >= 1, "need at least one dispatcher");
    if (topology_) {
        scheduler_ =
            std::make_unique<MakespanScheduler>(topology_, cfg_.policy);
        device_ = topology_->device(0);
    }
    if (!cfg_.startPaused)
        start();
}

void
HeServer::start()
{
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (started_ || shut_down_)
        return;
    started_ = true;
    dispatchers_.reserve(cfg_.dispatchers);
    for (unsigned i = 0; i < cfg_.dispatchers; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
}

HeServer::~HeServer()
{
    shutdown();
}

Session &
HeServer::addTenant(const TenantConfig &cfg)
{
    // Key generation is heavy; build the session outside the lock and
    // only the registration itself races with dispatcher lookups.
    auto session = std::make_unique<Session>(cfg, device_);
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto &s : sessions_) {
        rpu_assert(s->id() != cfg.id, "tenant %llu already exists",
                   (unsigned long long)cfg.id);
    }
    sessions_.push_back(std::move(session));
    return *sessions_.back();
}

Session *
HeServer::tenant(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto &s : sessions_) {
        if (s->id() == id)
            return s.get();
    }
    return nullptr;
}

Submission
HeServer::submit(uint64_t tenant_id, RequestOp op,
                 std::vector<std::complex<double>> a,
                 std::vector<std::complex<double>> b)
{
    Submission sub;
    Session *sess = tenant(tenant_id);
    if (sess == nullptr || !valuesFit(*sess, a) || !valuesFit(*sess, b)) {
        // A client's bad id or values are its error, not the server's:
        // reject with a status — before the encoder's asserts could
        // abort every tenant's server in a dispatcher — and keep
        // serving everyone else. No seq is taken, so later requests'
        // randomness does not shift.
        sub.status = SubmitStatus::RejectedInvalid;
        ++rejected_invalid_;
        return sub;
    }

    ServeRequest req;
    req.tenant = tenant_id;
    // Assigned whether or not admission succeeds: the sequence
    // number (and with it the request's derived RNG stream) must
    // never depend on queue occupancy, or rejected submissions would
    // shift every later request's randomness and break reproducible
    // replay. Bit-identity harnesses run with no rejections.
    req.seq = sess->nextSeq();
    req.op = op;
    req.a = std::move(a);
    req.b = std::move(b);
    req.submitted = std::chrono::steady_clock::now();

    // The future must exist before push: a dispatcher may pop and
    // fulfil the request before push even returns.
    sub.response = req.done.get_future();
    sub.status = queue_.push(req);
    sess->noteSubmission(sub.status);
    switch (sub.status) {
      case SubmitStatus::Accepted:
        ++accepted_;
        break;
      case SubmitStatus::RejectedFull:
        ++rejected_full_;
        break;
      case SubmitStatus::RejectedShutdown:
        ++rejected_shutdown_;
        break;
      case SubmitStatus::RejectedInvalid:
        break; // only the checks above reject so
    }
    return sub;
}

size_t
HeServer::chunkCap(RequestOp op) const
{
    // Only MulPlainRescale coalesces: a coalesced MulCtRescale chunk
    // would launch kernel shapes no serial request does. Chunk sizes
    // are powers of two so the kernel cache stays logarithmic in
    // maxCoalesce per class and stage.
    const bool coalescable = cfg_.coalesce && device_ != nullptr &&
                             op == RequestOp::MulPlainRescale;
    return coalescable ? pow2Floor(cfg_.maxCoalesce) : 1;
}

void
HeServer::prewarm()
{
    if (!device_)
        return;
    std::vector<Session *> sessions;
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        for (const auto &s : sessions_)
            sessions.push_back(s.get());
    }

    // Every chunk the server can cut — each op, each chunk size —
    // launches exactly its declared stage shapes, cut by the helper
    // the dispatch itself uses. The topology's devices share one
    // cache bundle ("generate once, launch anywhere"), so warming on
    // device 0 warms them all.
    for (const Session *s : sessions) {
        const uint64_t n = s->config().params.n;
        for (RequestOp op :
             {RequestOp::MulPlainRescale, RequestOp::MulCtRescale}) {
            for (size_t k = 1; k <= chunkCap(op); k *= 2) {
                for (const StageShape &stage : s->launchShapes(op, k)) {
                    for (const auto &group :
                         DispatchTiles::cut(stage.moduli))
                        device_->kernel(batchedKind(stage.op), n, group);
                }
            }
        }
    }
}

void
HeServer::shutdown()
{
    // A paused server still drains: whatever was admitted before the
    // close gets dispatched and every accepted future resolves.
    start();
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_)
        return;
    queue_.close();
    for (std::thread &t : dispatchers_) {
        if (t.joinable())
            t.join();
    }
    shut_down_ = true;
}

ServerStats
HeServer::stats() const
{
    ServerStats s;
    s.accepted = accepted_;
    s.rejectedFull = rejected_full_;
    s.rejectedShutdown = rejected_shutdown_;
    s.rejectedInvalid = rejected_invalid_;
    s.completed = completed_;
    s.failed = failed_;
    s.dispatches = dispatches_;
    s.chunks = chunks_;
    s.coalescedChunks = coalesced_chunks_;
    s.coalescedRequests = coalesced_requests_;
    s.splitChunks = split_chunks_;
    return s;
}

void
HeServer::dispatchLoop()
{
    for (;;) {
        // The bounded pop keeps this dispatcher responsive to chunks
        // another dispatcher queued (none waits longer than the poll
        // period for an idle dispatcher) without busy-spinning an
        // idle server.
        bool closed = false;
        std::vector<ServeRequest> batch = queue_.popBatchFor(
            cfg_.maxBatch, cfg_.maxPerTenant,
            std::chrono::milliseconds(1), closed);
        if (!batch.empty())
            enqueueBatch(std::move(batch));

        // Drain the shared FIFO from its front until it is empty.
        // Whoever queues chunks also drains them, so a dispatcher
        // that leaves below can strand nothing.
        for (;;) {
            PendingChunk pc;
            {
                std::lock_guard<std::mutex> lock(fifo_mutex_);
                if (fifo_.empty())
                    break;
                pc = std::move(fifo_.front());
                fifo_.pop_front();
            }
            executeChunk(std::move(pc));
        }
        if (closed)
            return; // queue closed and drained, FIFO empty
    }
}

void
HeServer::enqueueBatch(std::vector<ServeRequest> batch)
{
    const uint64_t dispatch_index = dispatches_.fetch_add(1);
    const auto popped = std::chrono::steady_clock::now();

    // Group the batch by (op, kernel class), preserving pop
    // order within each group — the fairness the queue
    // established survives grouping because groups execute in
    // first-appearance order.
    struct Group
    {
        RequestOp op;
        const std::string *cls;
        std::vector<ServeRequest> reqs;
    };
    std::vector<Group> groups;
    for (ServeRequest &req : batch) {
        Session *sess = tenant(req.tenant);
        const std::string &cls = sess->kernelClass();
        Group *g = nullptr;
        for (Group &cand : groups) {
            if (cand.op == req.op && *cand.cls == cls) {
                g = &cand;
                break;
            }
        }
        if (!g) {
            groups.push_back(Group{req.op, &cls, {}});
            g = &groups.back();
        }
        g->reqs.push_back(std::move(req));
    }

    // Cut each group into chunks of power-of-two sizes (see
    // chunkCap).
    std::vector<PendingChunk> cut;
    for (Group &g : groups) {
        const size_t cap = chunkCap(g.op);
        size_t idx = 0;
        while (idx < g.reqs.size()) {
            size_t take = cap;
            while (take > g.reqs.size() - idx)
                take /= 2;
            PendingChunk pc;
            pc.chunk.reserve(take);
            for (size_t j = 0; j < take; ++j)
                pc.chunk.push_back(std::move(g.reqs[idx + j]));
            idx += take;
            pc.dispatchIndex = dispatch_index;
            pc.popped = popped;
            cut.push_back(std::move(pc));
        }
    }

    // Lookahead books the whole batch's chunks jointly up front. The
    // plain greedy tier keeps the place-at-execute-time flow —
    // completions landing between placements and all — so it stays
    // the exact regression baseline.
    if (scheduler_ && cfg_.policy.lookahead) {
        std::vector<MakespanScheduler::ChunkDesc> descs;
        descs.reserve(cut.size());
        for (const PendingChunk &pc : cut) {
            descs.push_back(
                {pc.chunk[0].op,
                 tenant(pc.chunk[0].tenant)->kernelClass(),
                 pc.chunk.size()});
        }
        std::vector<MakespanScheduler::Placement> placements =
            scheduler_->placeBatch(descs);
        for (size_t i = 0; i < cut.size(); ++i) {
            cut[i].placement = placements[i];
            cut[i].placed = true;
        }
    }

    std::lock_guard<std::mutex> lock(fifo_mutex_);
    for (PendingChunk &pc : cut)
        fifo_.push_back(std::move(pc));
}

void
HeServer::executeChunk(PendingChunk pc)
{
    std::vector<ServeRequest> &chunk = pc.chunk;
    const uint64_t dispatchIndex = pc.dispatchIndex;
    const auto popped = pc.popped;
    const size_t k = chunk.size();
    const RequestOp op = chunk[0].op;
    ++chunks_;
    if (k > 1) {
        ++coalesced_chunks_;
        coalesced_requests_ += k;
    }

    std::vector<Session *> sessions(k);
    std::vector<ServeResponse> responses(k);
    for (size_t i = 0; i < k; ++i) {
        sessions[i] = tenant(chunk[i].tenant);
        responses[i].tenant = chunk[i].tenant;
        responses[i].seq = chunk[i].seq;
        responses[i].dispatchIndex = dispatchIndex;
        responses[i].chunkRequests = k;
    }

    // Place the chunk before touching the device: the scheduler books
    // its estimated cost onto the chosen device's load ledger, and
    // the booking is corrected to the measured window on completion.
    // Batch-placed (lookahead) chunks arrive already booked.
    // On a 1-device topology this is always device 0 with uniform
    // plans.
    MakespanScheduler::Placement placement = std::move(pc.placement);
    const std::string &cls = sessions[0]->kernelClass();
    if (scheduler_ && !pc.placed)
        placement = scheduler_->place(op, cls, k);

    const RpuTopology::Snapshot before =
        topology_ ? topology_->snapshot() : RpuTopology::Snapshot{};
    try {
        // Every chunk runs the one pipeline: encrypt on the host, the
        // batched op with its stages on the scheduler's plans, decrypt
        // on the host. Host-only servers run it on the host.
        const std::vector<const Session *> members(sessions.begin(),
                                                   sessions.end());
        std::vector<const ServeRequest *> reqs(k);
        for (size_t i = 0; i < k; ++i)
            reqs[i] = &chunk[i];
        std::vector<std::vector<std::complex<double>>> values;
        if (scheduler_) {
            std::vector<StageShape> stages =
                sessions[0]->launchShapes(op, k);
            std::vector<std::vector<size_t>> plans =
                scheduler_->splitPlans(placement, op, cls, k, stages);
            bool spread = false;
            for (const auto &plan : plans)
                for (size_t d : plan)
                    spread = spread || d != placement.device;
            if (spread && scheduler_->policy().split)
                ++split_chunks_;
            DispatchRoute route(*topology_, placement.device,
                                std::move(stages), std::move(plans));
            values = Session::runBatch(op, members, reqs, &route);
            rpu_assert(route.complete(),
                       "batch issued fewer stages than it declared");
        } else {
            values = Session::runBatch(op, members, reqs);
        }
        for (size_t i = 0; i < k; ++i)
            responses[i].values = std::move(values[i]);
    } catch (...) {
        const std::exception_ptr err = std::current_exception();
        if (scheduler_) {
            // Release the bookings and in-flight slot; whatever device
            // work the failed attempt did pay is the measured cost,
            // but a partial window must not feed the EWMA estimate
            // (failed = true), or one failure would poison every
            // later placement of the class.
            const RpuTopology::Snapshot window =
                topology_->since(before);
            std::vector<uint64_t> busy(window.size(), 0);
            for (size_t d = 0; d < window.size(); ++d)
                busy[d] = window[d].busyCycleTotal();
            scheduler_->complete(
                placement, op, cls, k, busy,
                RpuTopology::aggregate(window).stagingCycleTotal(),
                /*failed=*/true);
        }
        for (size_t i = 0; i < k; ++i) {
            sessions[i]->noteFailed();
            ++failed_;
            chunk[i].done.set_exception(err);
        }
        return;
    }
    const RpuTopology::Snapshot window =
        topology_ ? topology_->since(before) : RpuTopology::Snapshot{};
    const DeviceStats delta = RpuTopology::aggregate(window);
    if (scheduler_) {
        // Credit each device the cycles it actually spent — under the
        // split policy a chunk's stages land on several devices, and
        // crediting the placement device alone would skew the ledger.
        std::vector<uint64_t> busy(window.size(), 0);
        for (size_t d = 0; d < window.size(); ++d)
            busy[d] = window[d].busyCycleTotal();
        scheduler_->complete(placement, op, cls, k, busy,
                             delta.stagingCycleTotal(), /*failed=*/false);
    }

    const auto end = std::chrono::steady_clock::now();
    for (size_t i = 0; i < k; ++i) {
        responses[i].queueMicros = micros(popped - chunk[i].submitted);
        responses[i].serviceMicros = micros(end - popped);
        responses[i].totalMicros = micros(end - chunk[i].submitted);
        sessions[i]->noteCompleted(k, delta);
        ++completed_;
        chunk[i].done.set_value(std::move(responses[i]));
    }
}

} // namespace serve
} // namespace rpu
