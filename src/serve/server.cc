#include "serve/server.hh"

#include <chrono>
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
        pending_.resize(topology_->size());
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

const CkksContext &
HeServer::execContext(const Session &sess, size_t device)
{
    rpu_assert(topology_ != nullptr && device < topology_->size(),
               "no topology device %zu", device);
    if (device == 0)
        return sess.ctx(); // sessions attach device 0 themselves

    // One replica per (kernel class, device): contexts are
    // deterministic per parameter set, so any same-class session's
    // keys and request randomness work against it unchanged (the
    // replica's own seed never feeds a request — see runSerialWith).
    // Like the sessions, a replica is exercised by one dispatcher at
    // a time in the deterministic single-dispatcher configuration.
    const std::string key =
        sess.kernelClass() + "|d" + std::to_string(device);
    std::lock_guard<std::mutex> lock(exec_ctx_mutex_);
    auto it = exec_ctx_.find(key);
    if (it == exec_ctx_.end()) {
        auto ctx = std::make_unique<CkksContext>(sess.config().params);
        ctx->attachDevice(topology_->device(device));
        it = exec_ctx_.emplace(key, std::move(ctx)).first;
    }
    return *it->second;
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
    Session *sess = tenant(tenant_id);
    rpu_assert(sess != nullptr, "unknown tenant %llu",
               (unsigned long long)tenant_id);

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

    Submission sub;
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
    }
    return sub;
}

void
HeServer::prewarm()
{
    if (!device_)
        return;

    // One representative session per kernel class.
    std::vector<Session *> reps;
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        for (const auto &s : sessions_) {
            bool seen = false;
            for (Session *r : reps)
                seen = seen || r->kernelClass() == s->kernelClass();
            if (!seen)
                reps.push_back(s.get());
        }
    }

    for (Session *s : reps) {
        const uint64_t n = s->config().params.n;
        const std::vector<u128> primes = s->ctx().basis().primes();
        const u128 q_l = primes.back();

        // Build the cross-device execution contexts up front so a
        // routed first request doesn't pay context construction.
        // Kernels themselves only need warming once: the topology's
        // devices share one cache bundle ("generate once, launch
        // anywhere").
        if (topology_) {
            for (size_t d = 1; d < topology_->size(); ++d)
                execContext(*s, d);
        }

        // A MulPlainRescale chunk of k requests runs three tiled
        // dispatches — plaintext entry (k items over the chain),
        // component products (2k items) and dropped-tower inverses
        // (2k single-tower items) — and a serial request is exactly
        // the k = 1 shape. Chunks come in power-of-two sizes, so warm
        // those shapes' tile groups, cut by the helper the dispatch
        // itself uses: the cache stays logarithmic in maxCoalesce per
        // class and stage, not one entry per observed batch size.
        const auto warm = [&](RingOp op, size_t items,
                              const std::vector<u128> &chain) {
            const std::vector<std::vector<u128>> moduli(items, chain);
            for (const auto &group : DispatchTiles::cut(moduli))
                device_->kernel(batchedKind(op), n, group);
        };
        const size_t max_k =
            cfg_.coalesce ? pow2Floor(cfg_.maxCoalesce) : 1;
        for (size_t k = 1; k <= max_k; k *= 2) {
            warm(RingOp::Forward, k, primes);
            warm(RingOp::Pointwise, 2 * k, primes);
            warm(RingOp::Inverse, 2 * k, {q_l});
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
    s.completed = completed_;
    s.failed = failed_;
    s.dispatches = dispatches_;
    s.chunks = chunks_;
    s.coalescedChunks = coalesced_chunks_;
    s.coalescedRequests = coalesced_requests_;
    s.splitChunks = split_chunks_;
    s.stolenChunks = stolen_chunks_;
    return s;
}

void
HeServer::dispatchLoop()
{
    const bool stealing = scheduler_ != nullptr && cfg_.policy.steal;
    for (;;) {
        if (!stealing) {
            std::vector<ServeRequest> batch =
                queue_.popBatch(cfg_.maxBatch, cfg_.maxPerTenant);
            if (batch.empty())
                return; // closed and drained
            dispatchBatch(std::move(batch));
            continue;
        }

        // Steal policy: the dispatcher polls two work sources — the
        // admission queue and the per-device pending lists. The
        // bounded pop keeps the thief responsive (a chunk never waits
        // longer than the poll period for an idle dispatcher) without
        // busy-spinning an idle server.
        bool closed = false;
        std::vector<ServeRequest> batch = queue_.popBatchFor(
            cfg_.maxBatch, cfg_.maxPerTenant,
            std::chrono::milliseconds(1), closed);
        if (!batch.empty()) {
            dispatchBatch(std::move(batch));
            continue;
        }
        if (stealOne())
            continue;
        if (closed)
            return; // drained: queue closed and nothing left to steal
    }
}

void
HeServer::dispatchBatch(std::vector<ServeRequest> batch)
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

    // Cut each group into chunks. Only MulPlainRescale coalesces
    // (the ct x ct relinearisation pipeline stays per-request);
    // chunk sizes are powers of two so the kernel cache stays
    // bounded (see prewarm).
    std::vector<PendingChunk> cut;
    for (Group &g : groups) {
        const bool coalescable = cfg_.coalesce && device_ != nullptr &&
                                 g.op == RequestOp::MulPlainRescale;
        const size_t cap =
            coalescable ? pow2Floor(cfg_.maxCoalesce) : 1;
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

    // Lookahead (and the steal policy, which needs placements before
    // chunks can sit on a pending list) books the whole batch's
    // chunks jointly up front. The plain greedy tier keeps the
    // original place-at-execute-time flow — completions landing
    // between placements and all — so it stays the exact regression
    // baseline.
    if (scheduler_ && (cfg_.policy.lookahead || cfg_.policy.steal)) {
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

    if (scheduler_ && cfg_.policy.steal) {
        // Park the placed chunks on their devices' pending lists,
        // then drain in global FIFO order. With one dispatcher this
        // executes exactly the sequence the direct path would; with
        // several, idle dispatchers pull from the lists concurrently.
        {
            std::lock_guard<std::mutex> lock(pending_mutex_);
            for (PendingChunk &pc : cut) {
                pc.ordinal = next_ordinal_++;
                pending_[pc.placement.device].push_back(std::move(pc));
            }
        }
        drainPending();
        return;
    }
    for (PendingChunk &pc : cut)
        executeChunk(std::move(pc));
}

void
HeServer::drainPending()
{
    for (;;) {
        PendingChunk pc;
        {
            std::lock_guard<std::mutex> lock(pending_mutex_);
            std::deque<PendingChunk> *oldest = nullptr;
            for (std::deque<PendingChunk> &dq : pending_) {
                if (dq.empty())
                    continue;
                if (!oldest ||
                    dq.front().ordinal < oldest->front().ordinal)
                    oldest = &dq;
            }
            if (!oldest)
                return;
            pc = std::move(oldest->front());
            oldest->pop_front();
        }
        executeChunk(std::move(pc));
    }
}

bool
HeServer::stealOne()
{
    PendingChunk pc;
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        // Victim: the most-loaded device that still has unstarted
        // chunks parked — relieving it is the biggest makespan win.
        size_t victim = pending_.size();
        uint64_t worst = 0;
        for (size_t d = 0; d < pending_.size(); ++d) {
            if (pending_[d].empty())
                continue;
            const uint64_t l = scheduler_->load(d);
            if (victim == pending_.size() || l > worst) {
                victim = d;
                worst = l;
            }
        }
        if (victim == pending_.size())
            return false;
        pc = std::move(pending_[victim].front());
        pending_[victim].pop_front();
    }
    const std::string &cls = tenant(pc.chunk[0].tenant)->kernelClass();
    if (scheduler_->rehome(pc.placement, pc.chunk[0].op, cls,
                           pc.chunk.size()))
        ++stolen_chunks_;
    executeChunk(std::move(pc));
    return true;
}

void
HeServer::executeChunk(PendingChunk pc)
{
    std::vector<ServeRequest> &chunk = pc.chunk;
    const uint64_t dispatchIndex = pc.dispatchIndex;
    const auto popped = pc.popped;
    const size_t k = chunk.size();
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
    // Batch-placed (lookahead/steal) chunks arrive already booked.
    // On a 1-device topology this is always device 0 with a uniform
    // plan — the PR 8 path, bit-identical launches and all.
    MakespanScheduler::Placement placement = std::move(pc.placement);
    const std::string &cls = sessions[0]->kernelClass();
    if (scheduler_ && !pc.placed)
        placement = scheduler_->place(chunk[0].op, cls, k);

    const RpuTopology::Snapshot before =
        topology_ ? topology_->snapshot() : RpuTopology::Snapshot{};
    try {
        if (k == 1) {
            if (placement.device == 0) {
                // The per-tenant serial reference path, verbatim: the
                // bit-identity statement "coalesced equals serial" is
                // about the branch below, not two copies of this one.
                responses[0].values = sessions[0]->runSerial(
                    chunk[0].op, chunk[0].a, chunk[0].b, chunk[0].seq);
            } else {
                // Same pipeline, same keys, same request randomness —
                // only the attached device differs.
                responses[0].values = sessions[0]->runSerialWith(
                    execContext(*sessions[0], placement.device),
                    chunk[0].op, chunk[0].a, chunk[0].b, chunk[0].seq);
            }
        } else {
            coalescedMulPlain(placement, chunk, sessions, responses);
        }
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
                placement, chunk[0].op, cls, k, busy,
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
        scheduler_->complete(placement, chunk[0].op, cls, k, busy,
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

void
HeServer::coalescedMulPlain(MakespanScheduler::Placement &placement,
                            std::vector<ServeRequest> &chunk,
                            std::vector<Session *> &sessions,
                            std::vector<ServeResponse> &responses)
{
    // The cross-tenant batched MulPlainRescale pipeline: the same
    // math and the same three dispatches as Session::runSerial (encode
    // entry, both component products, both dropped-tower inverses),
    // each merged across the chunk.
    // Bit-identity with the serial path rests on the batched kernel
    // kinds computing each region's ring independently — the same
    // per-region math whether a tower rides its own launch or a
    // tiled one (test_serve pins this end to end). Each stage's tile
    // groups spread across the topology per the scheduler's stage
    // plan; on a 1-device topology every plan is uniform and each
    // stage is exactly the device's own dispatch.
    const size_t k = chunk.size();
    const uint64_t n = sessions[0]->config().params.n;

    // Host half, per request: encrypt and encode (Coeff — the
    // evaluation-domain entry is what gets coalesced).
    std::vector<CkksCiphertext> cts(k);
    std::vector<CkksPlaintext> pts(k);
    std::vector<std::vector<u128>> moduli(k);
    for (size_t i = 0; i < k; ++i) {
        const CkksContext &ctx = sessions[i]->ctx();
        Rng rng = sessions[i]->requestRng(chunk[i].seq);
        cts[i] = ctx.encrypt(sessions[i]->secretKey(), chunk[i].a, rng);
        pts[i] =
            ctx.encodePlainCoeff(chunk[i].b, cts[i].towers());
        moduli[i] = ctx.basis().primes();
    }

    size_t entry_towers = 0;
    for (size_t i = 0; i < k; ++i)
        entry_towers += moduli[i].size();

    // Per-stage device plans, fixed before the first launch. Under
    // the split policy the scheduler assigns all three stages' tile
    // groups jointly to the least-loaded devices (re-shaping the
    // chunk's booking to match); otherwise each stage round-robins
    // its groups from the placement device via the legacy stagePlan.
    // Loads can't move between the three launches of one chunk in the
    // deterministic single-dispatcher configuration, so planning up
    // front is behaviour-identical to planning per stage.
    std::vector<std::vector<size_t>> plans;
    if (scheduler_->policy().split) {
        plans = scheduler_->splitPlans(
            placement, chunk[0].op, sessions[0]->kernelClass(), k,
            {RpuTopology::groupWeights(
                 entry_towers, MakespanScheduler::kForwardTowerWeight),
             RpuTopology::groupWeights(
                 2 * entry_towers,
                 MakespanScheduler::kPointwiseTowerWeight),
             RpuTopology::groupWeights(
                 2 * k, MakespanScheduler::kInverseTowerWeight)});
    } else {
        plans = {
            scheduler_->stagePlan(placement,
                                  RpuTopology::tileGroups(entry_towers)),
            scheduler_->stagePlan(
                placement, RpuTopology::tileGroups(2 * entry_towers)),
            scheduler_->stagePlan(placement,
                                  RpuTopology::tileGroups(2 * k))};
    }
    if (scheduler_->policy().split) {
        bool spread = false;
        for (const auto &plan : plans)
            for (size_t d : plan)
                spread = spread || d != placement.device;
        if (spread)
            ++split_chunks_;
    }

    // Launch 1: every tenant's plaintext enters Eval together.
    std::vector<std::vector<std::vector<u128>>> pt_in(k);
    for (size_t i = 0; i < k; ++i)
        pt_in[i] = std::move(pts[i].rp.towers);
    auto pt_eval = topology_->dispatch(plans[0], RingOp::Forward, n,
                                       moduli, std::move(pt_in));

    // Launch 2: both components of every ciphertext against its
    // plaintext — 2k items. The ciphertexts are read in place just
    // like the serial path's mulPlainPair, and the same elisions are
    // reported so the issued-vs-elided ledger stays comparable.
    std::vector<std::vector<u128>> pw_moduli(2 * k);
    std::vector<std::vector<std::vector<u128>>> lhs(2 * k),
        rhs(2 * k);
    for (size_t i = 0; i < k; ++i) {
        pw_moduli[2 * i] = moduli[i];
        pw_moduli[2 * i + 1] = moduli[i];
        lhs[2 * i] = std::move(cts[i].c0.towers);
        lhs[2 * i + 1] = std::move(cts[i].c1.towers);
        rhs[2 * i] = pt_eval[i];
        rhs[2 * i + 1] = std::move(pt_eval[i]);
        sessions[i]->ctx().residueOps().noteElidedConversions(
            2 * moduli[i].size());
    }
    auto prods = topology_->dispatch(plans[1], RingOp::Pointwise, n,
                                     pw_moduli, std::move(lhs),
                                     std::move(rhs));

    std::vector<CkksCiphertext> prod(k);
    for (size_t i = 0; i < k; ++i) {
        prod[i].scale = cts[i].scale * pts[i].scale;
        prod[i].c0 = ResiduePoly(ResidueDomain::Eval,
                                 std::move(prods[2 * i]));
        prod[i].c1 = ResiduePoly(ResidueDomain::Eval,
                                 std::move(prods[2 * i + 1]));
    }

    // Launch 3: every component's dropped tower leaves Eval together
    // — 2k single-tower items.
    std::vector<std::vector<u128>> inv_moduli(2 * k);
    std::vector<std::vector<std::vector<u128>>> inv_in(2 * k);
    for (size_t i = 0; i < k; ++i) {
        inv_moduli[2 * i] = {moduli[i].back()};
        inv_moduli[2 * i + 1] = {moduli[i].back()};
        inv_in[2 * i] = {prod[i].c0.towers.back()};
        inv_in[2 * i + 1] = {prod[i].c1.towers.back()};
    }
    auto dropped = topology_->dispatch(plans[2], RingOp::Inverse, n,
                                       inv_moduli, std::move(inv_in));

    // Host half, per request: finish the rescale and decrypt.
    for (size_t i = 0; i < k; ++i) {
        const CkksContext &ctx = sessions[i]->ctx();
        std::vector<std::vector<u128>> dr;
        dr.push_back(std::move(dropped[2 * i][0]));
        dr.push_back(std::move(dropped[2 * i + 1][0]));
        responses[i].values = ctx.decrypt(
            sessions[i]->secretKey(),
            ctx.rescaleFromDropped(prod[i], dr));
    }
}

} // namespace serve
} // namespace rpu
