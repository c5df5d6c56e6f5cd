/**
 * @file
 * MakespanScheduler: contention-aware placement of serving work
 * across an RpuTopology, with two stacked policies on top of the
 * greedy baseline.
 *
 * The placement unit is exactly what the dispatcher produces: a
 * same-(op, kernel-class) chunk whose device cost is a handful of
 * coalesced launches. The scheduler keeps one modelled-cycle load
 * ledger per device and routes work to minimise the projected
 * topology makespan on the cycle model:
 *
 *   score(d) = load(d) + requests * (busyEst + inflight(d) * stagingEst)
 *
 * where busyEst/stagingEst are per-request EWMAs learned from the
 * measured DeviceStats windows of completed chunks of the same
 * (op, class). The inflight term is the HBM-contention model's
 * marginal cost: a chunk landing on a device that already has
 * in-flight chunks re-exposes its staging traffic once per competing
 * occupant (see HbmContentionModel). Bookings are corrected to
 * measured per-device cycles on completion, so the ledger tracks the
 * real (deterministic) cycle model rather than estimates of it.
 * Failed chunks release their booking and surface their measured
 * cycles, but are *excluded* from the EWMA: a partial window is not
 * a cost sample, and folding it in would poison every later
 * placement of the class.
 *
 * The SchedulerPolicy flags stack two refinements over the greedy
 * chunk-at-a-time baseline (all on by default; the shard bench's
 * ablation table prices each):
 *
 *  - lookahead: placeBatch() books a popped batch's chunks jointly,
 *    longest-estimated-first (LPT) instead of pop order, so a large
 *    chunk never lands on a device a small one just took merely
 *    because it was popped later. Placements come back in input
 *    order — execution order (fairness) is unchanged.
 *
 *  - split: splitPlans() replaces a placed chunk's whole-device
 *    booking with per-tile-group bookings, assigning every stage's
 *    launch groups jointly (LPT by estimated group cost) to the
 *    least-loaded unpaused devices. A lone large chunk then spreads
 *    its stage dispatches across an idle device set instead of
 *    serialising on one device — the difference between 6.0x and
 *    >7x modelled scaling at 8 devices on the replay workload.
 *
 * splitPlans() is the one plan builder. It reads a chunk's stages
 * from the launch shapes the batched op declares
 * (CkksContext::launchShapes) and cuts them with DispatchTiles::cut,
 * the tiling the dispatch itself uses. A chunk of one request stays
 * on its placement device for every stage; without the split policy
 * a multi-request chunk's multi-group stages round-robin their
 * groups from the placement device across the unpaused devices in
 * ascending-load order.
 *
 * A placement is final: the server's dispatchers execute chunks from
 * one shared FIFO in the order they were cut, so nothing re-homes a
 * booked chunk. Taking chunks in that global order is what keeps two
 * dispatchers off the same device at once — the lookahead placer
 * alternates consecutive chunks across devices.
 *
 * Paused (drained-for-maintenance) devices are never selected by any
 * placement path; a 1-device topology degenerates to "always device
 * 0" with uniform plans, which keeps the single-device serving path
 * bit-identical and ledger-identical whatever the policy flags say.
 */

#ifndef RPU_SERVE_SCHEDULER_HH
#define RPU_SERVE_SCHEDULER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model/contention.hh"
#include "rpu/device.hh"
#include "serve/queue.hh"

namespace rpu {

class RpuTopology;

namespace serve {

/** Which refinements stack on the greedy placement baseline. The
 *  default is everything on (the production configuration); the
 *  named constructors are the bench's ablation tiers. */
struct SchedulerPolicy
{
    bool lookahead = true; ///< joint LPT booking of a popped batch
    bool split = true;     ///< per-stage group spreading of a chunk

    /** The baseline: chunk-at-a-time, chunk-grained placement. */
    static SchedulerPolicy greedy() { return {false, false}; }
    static SchedulerPolicy all() { return {true, true}; }

    const char *name() const
    {
        if (split)
            return "+split";
        if (lookahead)
            return "+lookahead";
        return "greedy";
    }
};

/** See the file comment. */
class MakespanScheduler
{
  public:
    explicit MakespanScheduler(std::shared_ptr<RpuTopology> topology,
                               SchedulerPolicy policy = {});

    const SchedulerPolicy &policy() const { return policy_; }

    /** One booked chunk placement; pass back to complete(). */
    struct Placement
    {
        size_t device = 0;
        uint64_t booked = 0; ///< modelled cycles booked onto device
        /** Per-device provisional bookings left by splitPlans();
         *  empty until a chunk is split. complete() releases them. */
        std::vector<uint64_t> stageBooked;
    };

    /** One chunk of a popped batch, as placeBatch sees it. */
    struct ChunkDesc
    {
        RequestOp op = RequestOp::MulPlainRescale;
        std::string cls;
        size_t requests = 0;
    };

    /**
     * Route a @p requests-request chunk of (@p op, @p cls) to the
     * device minimising projected makespan, booking its estimated
     * cost there. Fatal when every device is paused.
     */
    Placement place(RequestOp op, const std::string &cls,
                    size_t requests);

    /**
     * Place a whole popped batch's chunks under one lock. With the
     * lookahead policy the chunks are *booked* in descending
     * estimated-cost order (LPT — the classic makespan heuristic);
     * without it, in input order (exactly repeated place() calls).
     * The returned placements are always in input order, so
     * execution order — and with it queue fairness — is unchanged.
     */
    std::vector<Placement>
    placeBatch(const std::vector<ChunkDesc> &chunks);

    /**
     * The device plan of every stage of a @p requests-request chunk
     * placed at @p p, from the chunk's declared @p stages (plans[s][g]
     * = device executing tile group g of stage s, feedable straight
     * into RpuTopology::dispatch or a DispatchRoute). A chunk of one,
     * a stage of one group without the split policy, or a 1-device
     * topology stays on the placement device, and no booking moves.
     *
     * Split policy: the chunk's whole-device booking becomes
     * per-tile-group bookings. Each group weighs its tower count
     * times its ring op's per-tower cost; groups are assigned
     * jointly, largest first, to the least-loaded unpaused device,
     * each assignment booking its share of the chunk's estimated
     * cycles (recorded in p.stageBooked for complete() to release).
     * With one unpaused device every plan stays on the placement
     * device.
     *
     * Otherwise a multi-group stage round-robins its groups across
     * the unpaused devices in ascending-load order, the placement
     * device first (it already carries the chunk's booking, and
     * keeping it first means a 2-group stage on an idle topology uses
     * the placement device plus one helper rather than skipping it).
     */
    std::vector<std::vector<size_t>>
    splitPlans(Placement &p, RequestOp op, const std::string &cls,
               size_t requests, const std::vector<StageShape> &stages);

    /**
     * Replace the placement's bookings with the measured per-device
     * cost and fold the per-request busy/staging cycles into the
     * (op, class) estimate. @p busyPerDevice is the topology window
     * the chunk executed under (index = device; shorter vectors are
     * zero-extended). A @p failed chunk still releases its bookings
     * and credits the cycles the attempt actually paid, but is
     * excluded from the EWMA — a partial window is not a cost
     * sample.
     */
    void complete(const Placement &p, RequestOp op,
                  const std::string &cls, size_t requests,
                  const std::vector<uint64_t> &busyPerDevice,
                  uint64_t stagingCycles, bool failed = false);

    /** Single-device convenience: the whole measured cost landed on
     *  the placement device (how tests drive the ledger directly). */
    void complete(const Placement &p, RequestOp op,
                  const std::string &cls, size_t requests,
                  uint64_t busyCycles, uint64_t stagingCycles);

    /**
     * Drain a device out of (or back into) the placement set. Work
     * already booked keeps running; new placements skip it. Pausing
     * every device is fatal at the next place().
     */
    void pause(size_t device);
    void resume(size_t device);
    bool paused(size_t device) const;

    /** Modelled cycle load currently booked/completed on a device. */
    uint64_t load(size_t device) const;

    /** Max load over devices: the scheduler's makespan projection. */
    uint64_t modelledMakespan() const;

  private:
    struct DeviceState
    {
        uint64_t load = 0;     ///< completed + booked modelled cycles
        uint64_t inflight = 0; ///< chunks placed, not yet completed
        bool paused = false;
    };

    /** Per-request cost estimate for one (op, class). */
    struct Estimate
    {
        double busy = 0;
        double staging = 0;
        uint64_t samples = 0;
    };

    static std::string key(RequestOp op, const std::string &cls);

    /** The greedy scoring step, under mutex_: book a @p requests
     *  chunk with @p est onto the best-scoring unpaused device. */
    Placement bookLocked(size_t requests, const Estimate &est);

    Estimate estimateLocked(RequestOp op, const std::string &cls) const;

    std::shared_ptr<RpuTopology> topology_;
    SchedulerPolicy policy_;

    mutable std::mutex mutex_;
    std::vector<DeviceState> devices_;
    std::map<std::string, Estimate> estimates_;
};

} // namespace serve
} // namespace rpu

#endif // RPU_SERVE_SCHEDULER_HH
