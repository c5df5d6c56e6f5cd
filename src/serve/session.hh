/**
 * @file
 * Per-tenant serving session: one tenant's complete cryptographic
 * world, plus the accounting the server attributes to it.
 *
 * Every tenant owns a full CkksContext — its own parameter set,
 * deterministic modulus chain, secret key, relinearisation key, and
 * evaluator state — seeded *derivably from the session id*, so a
 * multi-tenant run is reproducible end to end: two servers built
 * with the same tenant ids produce bit-identical keys, ciphertexts,
 * and responses, regardless of how requests interleave. Per-request
 * randomness is likewise derived from (session seed, request seq),
 * which is what makes the serving bench's bit-identity check against
 * per-tenant *serial* execution meaningful even when several
 * dispatchers serve concurrently: no draw depends on service order.
 *
 * runBatch() is the one request pipeline: encrypt every request on
 * the host under its own session's key and request stream, run the
 * batched CKKS op and rescale (CkksContext's batch forms, one tiled
 * dispatch per stage for the whole batch), decrypt on the host. The
 * server runs every chunk through it — a chunk of one, a coalesced
 * chunk of k tenants' requests, a MulCtRescale request — and
 * runSerial() is its batch of one on the session's own device, the
 * serial reference. "Coalesced equals serial" is therefore a real
 * statement about batching (k items per dispatch, routed across a
 * topology) against the same code run one request at a time.
 *
 * Sessions with equal kernelClass() strings (same ring dimension and
 * same modulus chain — chains are deterministic per parameter set,
 * so equal CkksParams imply an equal class) issue kernel-compatible
 * launches, which is the server's coalescing criterion.
 */

#ifndef RPU_SERVE_SESSION_HH
#define RPU_SERVE_SESSION_HH

#include <atomic>
#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rlwe/ckks.hh"
#include "serve/queue.hh"

namespace rpu {

class DispatchRoute;
class RpuDevice;
struct DeviceStats;

namespace serve {

/** Everything needed to open a tenant's session. */
struct TenantConfig
{
    uint64_t id = 0;    ///< stable tenant identity; seeds everything
    CkksParams params;  ///< the tenant's own parameter set
    unsigned relinDigitBits = 30; ///< gadget base for its relin key
};

/**
 * Per-tenant ledger, layered on DeviceStats deltas: the server
 * snapshots the device around each dispatch chunk and splits the
 * delta evenly across the chunk's requests. Launch/cycle shares are
 * fractional (a 3-launch chunk over 8 requests does not divide
 * evenly); the semantic tower-granular counters are exact per
 * request by construction when every request in a chunk has the
 * same shape, which the server's chunking guarantees. Exact with one
 * dispatcher; approximate (deltas may interleave) with several.
 */
struct TenantAccounting
{
    uint64_t accepted = 0;
    uint64_t rejectedFull = 0;
    uint64_t rejectedShutdown = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t coalesced = 0; ///< completed in a chunk with >1 requests

    double launchShare = 0; ///< device launches attributed
    double cycleShare = 0;  ///< modelled device cycles attributed
    uint64_t pointwiseMuls = 0;
    uint64_t forwardTransforms = 0;
    uint64_t inverseTransforms = 0;
};

/** See the file comment. */
class Session
{
  public:
    /** Builds the context, keys, and kernel class; attaches
     *  @p device (may be null for host-only execution). */
    Session(const TenantConfig &cfg, std::shared_ptr<RpuDevice> device);

    uint64_t id() const { return cfg_.id; }
    const TenantConfig &config() const { return cfg_; }
    const CkksContext &ctx() const { return *ctx_; }
    const CkksSecretKey &secretKey() const { return sk_; }
    const RelinKey &relinKey() const { return rk_; }

    /** Master seed for tenant @p id (splitmix64 of the id, so
     *  adjacent ids get unrelated streams). */
    static uint64_t deriveSeed(uint64_t id);

    /** Fresh derived stream for request @p seq of this session —
     *  independent of every other (session, seq) pair and of
     *  service order. */
    Rng requestRng(uint64_t seq) const;

    /** Next per-tenant sequence number (assigned at submit). */
    uint64_t nextSeq() { return seq_.fetch_add(1); }

    /**
     * Launch-compatibility fingerprint: sessions with equal strings
     * share ring dimension and modulus chain, so their launches can
     * merge into one batched kernel (the server's coalescing key).
     */
    const std::string &kernelClass() const { return kernel_class_; }

    /**
     * The per-tenant serial reference: run one request's full
     * pipeline alone — encrypt with requestRng(seq), op, rescale,
     * decrypt — and return the decrypted slots. runBatch's batch of
     * one on this session's attached device.
     */
    std::vector<std::complex<double>>
    runSerial(RequestOp op, const std::vector<std::complex<double>> &a,
              const std::vector<std::complex<double>> &b,
              uint64_t seq) const;

    /**
     * Run a batch of @p op requests end to end: reqs[i] belongs to
     * sessions[i], and every session must share one kernel class.
     * Encrypts each request on the host (requestRng(seq)), runs the
     * batched op and rescale on the first session's context — every
     * device stage through @p route, or the context's attached device
     * when null — and decrypts each result on the host. Returns the
     * decrypted slots per request, in order.
     */
    static std::vector<std::vector<std::complex<double>>>
    runBatch(RequestOp op, const std::vector<const Session *> &sessions,
             const std::vector<const ServeRequest *> &reqs,
             DispatchRoute *route = nullptr);

    /** The stages a runBatch of @p items fresh @p op requests of this
     *  session's class dispatches (CkksContext::launchShapes). */
    std::vector<StageShape> launchShapes(RequestOp op,
                                         size_t items) const;

    // -- Accounting (called by the server's dispatchers) ----------------

    void noteSubmission(SubmitStatus s);
    void noteFailed();

    /** Attribute an even share of @p chunkDelta to this tenant for
     *  one completed request in a @p chunkRequests-request chunk. */
    void noteCompleted(size_t chunkRequests,
                       const DeviceStats &chunkDelta);

    TenantAccounting accounting() const;

  private:
    TenantConfig cfg_;
    uint64_t seed_ = 0;
    std::unique_ptr<CkksContext> ctx_;
    CkksSecretKey sk_;
    RelinKey rk_;
    std::string kernel_class_;
    std::atomic<uint64_t> seq_{0};

    mutable std::mutex acct_mutex_;
    TenantAccounting acct_;
};

} // namespace serve
} // namespace rpu

#endif // RPU_SERVE_SESSION_HH
