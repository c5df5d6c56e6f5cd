#include "serve/session.hh"

#include "common/logging.hh"
#include "rpu/device.hh"

namespace rpu {
namespace serve {

namespace {

/** splitmix64 finaliser (Steele et al.) — the standard one-shot
 *  mixer for deriving unrelated streams from structured inputs. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
Session::deriveSeed(uint64_t id)
{
    // Domain-separated from plain mix64(id) so a tenant id that
    // happens to equal some other subsystem's seed input still gets
    // an unrelated stream.
    return mix64(id ^ 0x52505553455256ull); // "RPUSERV"
}

Session::Session(const TenantConfig &cfg,
                 std::shared_ptr<RpuDevice> device)
    : cfg_(cfg), seed_(deriveSeed(cfg.id)),
      ctx_(std::make_unique<CkksContext>(cfg.params, seed_))
{
    if (device)
        ctx_->attachDevice(std::move(device));

    // Key material comes off the context's own seed-derived stream,
    // in a fixed order, before any request runs: two sessions with
    // the same (id, params) are bit-identical worlds.
    sk_ = ctx_->keygen();
    rk_ = ctx_->makeRelinKey(sk_, cfg.relinDigitBits);

    // nttPrimes is deterministic per (towerBits, n, towers), so the
    // class string doubles as a parameter-set fingerprint: equal
    // CkksParams imply an equal class.
    kernel_class_ = "n" + std::to_string(cfg.params.n) + ":q";
    for (u128 q : ctx_->basis().primes()) {
        kernel_class_ += std::to_string(uint64_t(q >> 64)) + "_" +
                         std::to_string(uint64_t(q)) + ",";
    }
}

Rng
Session::requestRng(uint64_t seq) const
{
    return Rng(mix64(seed_ ^ mix64(seq + 1)));
}

std::vector<std::complex<double>>
Session::runSerial(RequestOp op,
                   const std::vector<std::complex<double>> &a,
                   const std::vector<std::complex<double>> &b,
                   uint64_t seq) const
{
    ServeRequest req;
    req.tenant = id();
    req.seq = seq;
    req.op = op;
    req.a = a;
    req.b = b;
    return std::move(runBatch(op, {this}, {&req})[0]);
}

std::vector<std::vector<std::complex<double>>>
Session::runBatch(RequestOp op, const std::vector<const Session *> &sessions,
                  const std::vector<const ServeRequest *> &reqs,
                  DispatchRoute *route)
{
    rpu_assert(!reqs.empty() && reqs.size() == sessions.size(),
               "batch of %zu requests for %zu sessions", reqs.size(),
               sessions.size());
    const size_t k = reqs.size();
    const CkksContext &ctx = sessions[0]->ctx();

    // Host: encrypt. Both operand ciphertexts of a MulCtRescale
    // request draw from its stream, in submission order.
    const bool ct_product = op == RequestOp::MulCtRescale;
    std::vector<CkksCiphertext> as(k), bs(ct_product ? k : 0);
    for (size_t i = 0; i < k; ++i) {
        const Session &sess = *sessions[i];
        rpu_assert(sess.kernelClass() == sessions[0]->kernelClass(),
                   "batch mixes kernel classes");
        Rng rng = sess.requestRng(reqs[i]->seq);
        as[i] = sess.ctx().encrypt(sess.sk_, reqs[i]->a, rng);
        if (ct_product)
            bs[i] = sess.ctx().encrypt(sess.sk_, reqs[i]->b, rng);
    }

    // Device: the batched op and its rescale.
    std::vector<CkksCiphertext> prods;
    if (ct_product) {
        std::vector<const RelinKey *> rks;
        for (const Session *sess : sessions)
            rks.push_back(&sess->rk_);
        prods = ctx.mulCt(viewsOf(as), viewsOf(bs), rks, route);
    } else {
        std::vector<const std::vector<std::complex<double>> *> values;
        for (const ServeRequest *req : reqs)
            values.push_back(&req->b);
        const std::vector<CkksPlaintext> pts =
            ctx.encodePlain(values, as[0].towers(), route);
        prods = ctx.mulPlain(viewsOf(as), viewsOf(pts), route);
    }
    const std::vector<CkksCiphertext> scaled =
        ctx.rescale(viewsOf(prods), route);

    // Host: decrypt.
    std::vector<std::vector<std::complex<double>>> out(k);
    for (size_t i = 0; i < k; ++i)
        out[i] = sessions[i]->ctx().decrypt(sessions[i]->sk_, scaled[i]);
    return out;
}

std::vector<StageShape>
Session::launchShapes(RequestOp op, size_t items) const
{
    return ctx_->launchShapes(op, items, cfg_.params.towers,
                              cfg_.relinDigitBits);
}

void
Session::noteSubmission(SubmitStatus s)
{
    std::lock_guard<std::mutex> lock(acct_mutex_);
    switch (s) {
      case SubmitStatus::Accepted:
        ++acct_.accepted;
        break;
      case SubmitStatus::RejectedFull:
        ++acct_.rejectedFull;
        break;
      case SubmitStatus::RejectedShutdown:
        ++acct_.rejectedShutdown;
        break;
      case SubmitStatus::RejectedInvalid:
        break; // the server's count: it has no session to charge
    }
}

void
Session::noteFailed()
{
    std::lock_guard<std::mutex> lock(acct_mutex_);
    ++acct_.failed;
}

void
Session::noteCompleted(size_t chunkRequests,
                       const DeviceStats &chunkDelta)
{
    rpu_assert(chunkRequests >= 1, "empty chunk");
    std::lock_guard<std::mutex> lock(acct_mutex_);
    ++acct_.completed;
    if (chunkRequests > 1)
        ++acct_.coalesced;
    const double share = 1.0 / double(chunkRequests);
    acct_.launchShare += double(chunkDelta.launches) * share;
    acct_.cycleShare += double(chunkDelta.cycleTotal()) * share;
    // The semantic tower-granular counters divide exactly: a chunk
    // holds same-op, same-class requests, so every request performed
    // the same transform/pointwise work.
    acct_.pointwiseMuls += chunkDelta.pointwiseMuls / chunkRequests;
    acct_.forwardTransforms +=
        chunkDelta.forwardTransforms / chunkRequests;
    acct_.inverseTransforms +=
        chunkDelta.inverseTransforms / chunkRequests;
}

TenantAccounting
Session::accounting() const
{
    std::lock_guard<std::mutex> lock(acct_mutex_);
    return acct_;
}

} // namespace serve
} // namespace rpu
