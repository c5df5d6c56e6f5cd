/**
 * @file
 * HeServer: the multi-tenant HE serving front-end.
 *
 * The paper's thesis is that the ring processor pays off when it is
 * kept saturated with polynomial work; the serving layer is where
 * that saturation comes from in a "millions of users" deployment.
 * This front-end stacks four pieces over RpuTopology/CkksContext:
 *
 *  - Admission: a BoundedRequestQueue with per-tenant lanes —
 *    non-blocking submit that rejects with a status under
 *    backpressure, shutdown or a malformed request (an unknown
 *    tenant), round-robin draining with a per-batch per-tenant cap
 *    (the fairness bound).
 *
 *  - Scheduling: dispatcher threads pop batches, group them by
 *    (op, kernel class) and cut each group into chunks of
 *    power-of-two sizes up to maxCoalesce (MulPlainRescale only;
 *    MulCtRescale chunks hold one request). Every chunk is then
 *    *placed*: a MakespanScheduler routes it to the device of the
 *    RpuTopology minimising the projected contention-aware makespan.
 *    The ServeConfig's SchedulerPolicy stacks three refinements on
 *    that greedy baseline (see scheduler.hh): lookahead books the
 *    whole popped batch's chunks jointly longest-first; split spreads
 *    one chunk's stage groups across idle devices; steal parks placed
 *    chunks on per-device pending lists so an idle dispatcher can
 *    re-claim work from the most-loaded device (bookings moved
 *    atomically). A 1-device topology degenerates to the
 *    single-device path exactly under every policy (always device 0,
 *    uniform plans, identical launches and ledger).
 *
 *  - Execution: one pipeline for every chunk, whatever its op and
 *    size — Session::runBatch: encrypt on the host, the batched CKKS
 *    op and rescale, decrypt on the host. The batch declares its
 *    launch shapes (CkksContext::launchShapes); the scheduler plans
 *    each stage's tile groups from that declaration (splitPlans) and
 *    the chunk's DispatchRoute sends every stage to
 *    RpuTopology::dispatch on its plan, asserting it matches. A chunk
 *    of k compatible MulPlainRescale requests — typically from
 *    *different tenants*, since each tenant's lane is capped per
 *    batch — so pays the three dispatches a single request pays
 *    (plaintext Eval entry, both-component pointwise multiply,
 *    dropped-tower inverse), each split only where the batched-kernel
 *    tower budget forces it, with k items instead of one. Launch-count
 *    reduction is the whole point and is ledger-verified by bench and
 *    tests; results are bit-identical to Session::runSerial (the
 *    batch of one) because the batched kernels compute each region's
 *    ring independently and all randomness is (tenant, seq)-derived.
 *    A chunk of one stays on its placement device for every stage.
 *    prewarm() warms the declared shapes of every chunk the server
 *    can cut. The serving layer holds no scheme math of its own.
 *
 *  - Accounting: the dispatcher snapshots the topology around every
 *    chunk, aggregates the per-device windows (see
 *    RpuTopology::since/aggregate) and splits the delta across the
 *    chunk's requests into each tenant's ledger (exact with one
 *    dispatcher; documented approximate with several, since windows
 *    then interleave). The same window's busy/staging totals feed
 *    back into the scheduler's cost estimates.
 *
 * Shutdown is a graceful drain: the queue closes (new submits get
 * RejectedShutdown), dispatchers finish everything already admitted
 * — every accepted future resolves — then exit.
 */

#ifndef RPU_SERVE_SERVER_HH
#define RPU_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/queue.hh"
#include "serve/scheduler.hh"
#include "serve/session.hh"

namespace rpu {

class RpuDevice;
class RpuTopology;

namespace serve {

/** Serving knobs; the defaults suit the bench's request sizes. */
struct ServeConfig
{
    size_t queueCapacity = 256; ///< admission bound (backpressure)
    size_t maxBatch = 16;       ///< requests popped per dispatch
    size_t maxPerTenant = 4;    ///< per-tenant cap per dispatch (fairness)
    size_t maxCoalesce = 8;     ///< requests per coalesced device chunk
    unsigned dispatchers = 1;   ///< dispatcher threads
    bool coalesce = true;       ///< cross-tenant launch coalescing

    /** Which placement policies stack on the greedy baseline (all on
     *  by default; SchedulerPolicy::greedy() is the PR 9 behaviour).
     *  Irrelevant to host-only servers. See scheduler.hh. */
    SchedulerPolicy policy;

    /** Don't start dispatchers in the constructor; the first start()
     *  (or shutdown(), which drains) does. Lets tests and ledger
     *  harnesses queue a known request set before any dispatch, so
     *  batch composition is deterministic. */
    bool startPaused = false;
};

/** Server-wide counters (per-tenant ones live in each Session). */
struct ServerStats
{
    uint64_t accepted = 0;
    uint64_t rejectedFull = 0;
    uint64_t rejectedShutdown = 0;
    uint64_t rejectedInvalid = 0; ///< malformed submits (unknown tenant)
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t dispatches = 0;        ///< batches popped
    uint64_t chunks = 0;            ///< device chunks executed
    uint64_t coalescedChunks = 0;   ///< chunks with > 1 request
    uint64_t coalescedRequests = 0; ///< requests inside those
    uint64_t splitChunks = 0;       ///< chunks whose stages spread devices
    uint64_t stolenChunks = 0;      ///< chunks re-claimed by idle dispatchers
};

/** What submit() hands back. */
struct Submission
{
    SubmitStatus status = SubmitStatus::RejectedShutdown;
    /** Valid only when status == Accepted (a rejected request's
     *  promise is destroyed with it; don't wait on this then). */
    std::future<ServeResponse> response;
};

/** See the file comment. */
class HeServer
{
  public:
    /** Single-device server: wraps @p device (may be null for
     *  host-only execution) into a degenerate 1-device topology. */
    HeServer(const ServeConfig &cfg, std::shared_ptr<RpuDevice> device);

    /** Device-set server: chunks place across @p topology's devices
     *  via the makespan scheduler. Tenants' sessions attach device 0;
     *  a chunk's stages reach any device through its dispatch
     *  route. */
    HeServer(const ServeConfig &cfg,
             std::shared_ptr<RpuTopology> topology);

    ~HeServer(); ///< graceful shutdown() if still running

    const ServeConfig &config() const { return cfg_; }

    /** Device 0 of the topology (null for host-only servers). */
    std::shared_ptr<RpuDevice> device() const { return device_; }

    /** The device set (null for host-only servers). */
    const std::shared_ptr<RpuTopology> &topology() const
    {
        return topology_;
    }

    /** The placement scheduler (null for host-only servers). Exposed
     *  for drain control (pause/resume) and load inspection. */
    MakespanScheduler *scheduler() const { return scheduler_.get(); }

    /** Open a tenant session (id must be unused). Thread-safe. */
    Session &addTenant(const TenantConfig &cfg);

    /** The tenant's session, or null. */
    Session *tenant(uint64_t id) const;

    /**
     * Submit one request: assigns the tenant's next seq, stamps the
     * arrival time, and offers it to the queue. Non-blocking — a
     * full queue rejects immediately (open-loop generators depend on
     * this), and an unknown tenant id gets RejectedInvalid. Thread-safe
     * from any number of producers.
     */
    Submission submit(uint64_t tenant, RequestOp op,
                      std::vector<std::complex<double>> a,
                      std::vector<std::complex<double>> b);

    /**
     * Pre-generate the kernels every chunk the server can cut
     * launches — both ops, every chunk size, every tenant's class and
     * relinearisation key base — from the batch's declared launch
     * shapes, tiled by the helper dispatch itself uses, so first
     * requests don't pay codegen+scheduling latency. Optional —
     * kernels generate on demand otherwise — but benches call it to
     * keep tail latencies about serving, not warmup.
     */
    void prewarm();

    /** Start the dispatchers (no-op when already running). Only
     *  needed after constructing with startPaused. */
    void start();

    /**
     * Graceful drain: close the queue (new submits rejected), let
     * dispatchers finish every admitted request — all accepted
     * futures resolve — then join them (a paused server is started
     * first, so queued work still drains). Idempotent; also run by
     * the destructor.
     */
    void shutdown();

    ServerStats stats() const;

  private:
    /** One cut chunk on its way to a device: what the dispatcher
     *  executes directly, or — under the steal policy — what sits on
     *  a device's pending list until its placement device's
     *  dispatcher (or an idle thief) claims it. */
    struct PendingChunk
    {
        std::vector<ServeRequest> chunk;
        MakespanScheduler::Placement placement;
        bool placed = false; ///< placement pre-booked by the batch placer
        uint64_t dispatchIndex = 0;
        std::chrono::steady_clock::time_point popped;
        uint64_t ordinal = 0; ///< global FIFO order across devices
    };

    void dispatchLoop();

    /** Group, cut, place, and execute (or enqueue) one popped batch. */
    void dispatchBatch(std::vector<ServeRequest> batch);

    /** Execute queued pending chunks in global FIFO order until the
     *  pending lists are empty. */
    void drainPending();

    /** Steal policy: claim the oldest booked-but-unstarted chunk from
     *  the most-loaded device's pending list, re-place it on the best
     *  device, and execute it. Returns false when nothing is pending. */
    bool stealOne();

    /** Execute one same-(op, class) chunk — Session::runBatch along
     *  the scheduler's stage plans — and fulfil its promises. */
    void executeChunk(PendingChunk pc);

    /** Largest chunk the server cuts for @p op; every chunk size is
     *  a power of two up to it. */
    size_t chunkCap(RequestOp op) const;

    ServeConfig cfg_;
    std::shared_ptr<RpuTopology> topology_;
    std::unique_ptr<MakespanScheduler> scheduler_;
    std::shared_ptr<RpuDevice> device_; ///< topology device 0
    BoundedRequestQueue queue_;

    mutable std::mutex sessions_mutex_;
    std::vector<std::unique_ptr<Session>> sessions_;

    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> rejected_full_{0};
    std::atomic<uint64_t> rejected_shutdown_{0};
    std::atomic<uint64_t> rejected_invalid_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> dispatches_{0};
    std::atomic<uint64_t> chunks_{0};
    std::atomic<uint64_t> coalesced_chunks_{0};
    std::atomic<uint64_t> coalesced_requests_{0};
    std::atomic<uint64_t> split_chunks_{0};
    std::atomic<uint64_t> stolen_chunks_{0};

    /** Steal-policy state: per-device lists of placed-but-unstarted
     *  chunks, claimed under pending_mutex_ (by the placing
     *  dispatcher in ordinal order, or by an idle thief from the
     *  most-loaded device). Untouched when the steal policy is off. */
    std::mutex pending_mutex_;
    std::vector<std::deque<PendingChunk>> pending_;
    uint64_t next_ordinal_ = 0;

    std::mutex shutdown_mutex_; ///< guards started_/shut_down_/threads
    bool started_ = false;
    bool shut_down_ = false;

    std::vector<std::thread> dispatchers_;
};

} // namespace serve
} // namespace rpu

#endif // RPU_SERVE_SERVER_HH
