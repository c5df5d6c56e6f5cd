/**
 * @file
 * Bounded multi-tenant request queue: the admission edge of the
 * serving front-end.
 *
 * The queue is MPMC — any thread may submit, any dispatcher may pop —
 * with two properties the naive single-deque version lacks:
 *
 *  - Explicit backpressure. Admission is a non-blocking decision:
 *    a full queue rejects with SubmitStatus::RejectedFull instead of
 *    blocking the producer or growing without bound (the open-loop
 *    harness depends on this — under overload, arrivals must fail
 *    fast so the generator keeps its schedule). After close(), every
 *    submit reports RejectedShutdown.
 *
 *  - A per-tenant fairness bound. Requests live in per-tenant FIFO
 *    lanes and popBatch() sweeps the lanes round-robin from a
 *    rotating cursor, taking at most maxPerTenant per lane per
 *    batch. A hog tenant with a thousand queued requests therefore
 *    cannot starve anyone: every other tenant with pending work is
 *    visited once per sweep, so its head-of-line request is served
 *    within one batch of the hog's — the bound the serve tests pin.
 *
 * Shutdown is a graceful drain: close() rejects new work but
 * consumers keep popping until the lanes are empty, and only then
 * does popBatch() return an empty batch (the consumer's exit
 * signal). No accepted request is ever dropped — its promise is
 * always eventually fulfilled by whoever pops it.
 */

#ifndef RPU_SERVE_QUEUE_HH
#define RPU_SERVE_QUEUE_HH

#include <chrono>
#include <complex>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "rlwe/ckks.hh"

namespace rpu {
namespace serve {

/** Admission verdict for one submit. */
enum class SubmitStatus
{
    Accepted,         ///< queued; the submission's future will resolve
    RejectedFull,     ///< backpressure: queue at capacity, try later
    RejectedShutdown, ///< the server is draining; no new work
    RejectedInvalid,  ///< malformed request (e.g. unknown tenant)
};

const char *submitStatusName(SubmitStatus s);

/**
 * The homomorphic pipeline one request runs, between encrypt and
 * decrypt on the host: MulPlainRescale encrypts a and multiplies by
 * encoded b; MulCtRescale encrypts both and multiplies them with
 * relinearisation. Either then rescales (see CkksOp).
 */
using RequestOp = CkksOp;

/** What a fulfilled request resolves to. */
struct ServeResponse
{
    uint64_t tenant = 0;
    uint64_t seq = 0; ///< per-tenant sequence number (RNG derivation)

    std::vector<std::complex<double>> values; ///< decrypted slots

    double queueMicros = 0;   ///< submit -> dispatch pop
    double serviceMicros = 0; ///< dispatch pop -> completion
    double totalMicros = 0;   ///< submit -> completion

    /** Server-wide ordinal of the dispatch batch that served this
     *  request — consecutive for a fairly-served tenant even when a
     *  hog floods the queue (the fairness tests compare these). */
    uint64_t dispatchIndex = 0;

    /** Requests sharing this request's device dispatch chunk (1 =
     *  executed alone, >1 = cross-tenant coalesced). */
    size_t chunkRequests = 1;
};

/** One queued request (internal to the queue/server). */
struct ServeRequest
{
    uint64_t tenant = 0;
    uint64_t seq = 0;
    RequestOp op = RequestOp::MulPlainRescale;
    std::vector<std::complex<double>> a;
    std::vector<std::complex<double>> b;
    std::chrono::steady_clock::time_point submitted;
    std::promise<ServeResponse> done;
};

/** See the file comment. */
class BoundedRequestQueue
{
  public:
    explicit BoundedRequestQueue(size_t capacity);

    /**
     * Non-blocking admission: enqueue on the tenant's lane or reject
     * (full / shutdown). On rejection the request — promise included
     * — is returned to the caller untouched via the reference.
     */
    SubmitStatus push(ServeRequest &req);

    /**
     * Pop the next batch: blocks while the queue is open and empty;
     * returns an empty batch only after close() once every lane has
     * drained. The sweep starts at a cursor that rotates between
     * calls and takes at most @p maxPerTenant requests from each
     * lane, up to @p maxBatch total — the fairness bound.
     */
    std::vector<ServeRequest> popBatch(size_t maxBatch,
                                       size_t maxPerTenant);

    /**
     * popBatch with a bounded wait: returns an empty batch after
     * @p timeout even while the queue is open, so a consumer with a
     * second work source (the work-stealing dispatcher) can poll both
     * instead of parking here forever. @p closedOut reports whether
     * the queue is closed *and* drained — the only empty return that
     * means "no work will ever come".
     */
    std::vector<ServeRequest>
    popBatchFor(size_t maxBatch, size_t maxPerTenant,
                std::chrono::steady_clock::duration timeout,
                bool &closedOut);

    /** Reject new submissions; wake consumers to drain what's left. */
    void close();

    size_t capacity() const { return capacity_; }
    size_t depth() const;
    bool closed() const;

  private:
    /** The rotating round-robin sweep both pops share; under mutex_. */
    std::vector<ServeRequest> sweepLocked(size_t maxBatch,
                                          size_t maxPerTenant);

    struct Lane
    {
        uint64_t tenant = 0;
        std::deque<ServeRequest> q;
    };

    const size_t capacity_;

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    // A deque, not a vector: growth must not require copying lanes
    // (queued requests are move-only) and must keep references to
    // existing lanes stable.
    std::deque<Lane> lanes_; ///< stable first-appearance order
    size_t size_ = 0;
    size_t cursor_ = 0; ///< lane the next sweep starts at
    bool closed_ = false;
};

} // namespace serve
} // namespace rpu

#endif // RPU_SERVE_QUEUE_HH
