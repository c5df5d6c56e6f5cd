#include "serve/scheduler.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "rpu/topology.hh"

namespace rpu {
namespace serve {

namespace {

/** EWMA weight for new samples; high enough to track a workload
 *  shift within a few chunks, low enough not to thrash on the
 *  chunk-size mix. */
constexpr double kEwma = 0.25;

/**
 * Relative per-tower cost of each stage kind, calibrated against the
 * cycle model (a pointwise tower costs ~1/7 of a forward-NTT tower;
 * an inverse pass slightly undercuts a forward one). Only placement
 * balance depends on them — measured completions correct any drift —
 * so "close" is all they need to be.
 */
double
towerWeight(RingOp op)
{
    switch (op) {
      case RingOp::Forward:
        return 1.0;
      case RingOp::Inverse:
        return 0.9;
      case RingOp::Pointwise:
        return 0.145;
    }
    return 1.0;
}

} // namespace

MakespanScheduler::MakespanScheduler(
    std::shared_ptr<RpuTopology> topology, SchedulerPolicy policy)
    : topology_(std::move(topology)), policy_(policy)
{
    rpu_assert(topology_ != nullptr, "scheduler needs a topology");
    devices_.resize(topology_->size());
}

std::string
MakespanScheduler::key(RequestOp op, const std::string &cls)
{
    return (op == RequestOp::MulPlainRescale ? "mp|" : "mc|") + cls;
}

MakespanScheduler::Estimate
MakespanScheduler::estimateLocked(RequestOp op,
                                  const std::string &cls) const
{
    const auto it = estimates_.find(key(op, cls));
    return it == estimates_.end() ? Estimate{} : it->second;
}

MakespanScheduler::Placement
MakespanScheduler::bookLocked(size_t requests, const Estimate &est)
{
    // Greedy makespan minimisation: land on the device whose load
    // plus this chunk's contended marginal cost is smallest. The
    // contention term re-exposes the chunk's staging traffic once per
    // chunk already in flight on the device (HbmContentionModel with
    // lanes = 1 + inflight), so equal loads still prefer an idle
    // device. Ties break to the lowest index — deterministic, and on
    // a 1-device topology this is always device 0.
    size_t best = devices_.size();
    double best_score = 0;
    for (size_t d = 0; d < devices_.size(); ++d) {
        const DeviceState &st = devices_[d];
        if (st.paused)
            continue;
        const double projected =
            double(requests) *
            (est.busy + double(st.inflight) * est.staging);
        const double score = double(st.load) + projected;
        if (best == devices_.size() || score < best_score) {
            best = d;
            best_score = score;
        }
    }
    rpu_assert(best < devices_.size(),
               "every device of the topology is paused");

    Placement p;
    p.device = best;
    // Cold classes (no samples yet) book a nominal cycle so that the
    // chunks of one batch still spread instead of all tying onto
    // device 0 before the first completion corrects the ledger.
    p.booked = std::max<uint64_t>(
        1, uint64_t(std::llround(double(requests) * est.busy)));
    devices_[p.device].load += p.booked;
    ++devices_[p.device].inflight;
    return p;
}

MakespanScheduler::Placement
MakespanScheduler::place(RequestOp op, const std::string &cls,
                         size_t requests)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bookLocked(requests, estimateLocked(op, cls));
}

std::vector<MakespanScheduler::Placement>
MakespanScheduler::placeBatch(const std::vector<ChunkDesc> &chunks)
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Booking order: input (pop) order for greedy; descending
    // estimated chunk cost for lookahead (LPT — placing the long
    // chunks while the ledger is emptiest is the classic makespan
    // heuristic). Ties keep input order, so the schedule stays
    // deterministic for a deterministic workload.
    std::vector<size_t> order(chunks.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::vector<Estimate> ests(chunks.size());
    for (size_t i = 0; i < chunks.size(); ++i)
        ests[i] = estimateLocked(chunks[i].op, chunks[i].cls);
    if (policy_.lookahead) {
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return double(chunks[a].requests) *
                                        ests[a].busy >
                                    double(chunks[b].requests) *
                                        ests[b].busy;
                         });
    }

    std::vector<Placement> placements(chunks.size());
    for (size_t i : order)
        placements[i] = bookLocked(chunks[i].requests, ests[i]);
    return placements;
}

std::vector<std::vector<size_t>>
MakespanScheduler::splitPlans(Placement &p, RequestOp op,
                              const std::string &cls, size_t requests,
                              const std::vector<StageShape> &stages)
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Each stage's launch groups, as the dispatch will cut them, and
    // their relative costs.
    std::vector<std::vector<double>> weights(stages.size());
    std::vector<std::vector<size_t>> plans(stages.size());
    for (size_t s = 0; s < stages.size(); ++s) {
        for (const auto &group : DispatchTiles::cut(stages[s].moduli))
            weights[s].push_back(double(group.size()) *
                                 towerWeight(stages[s].op));
        plans[s].assign(weights[s].size(), p.device);
    }
    if (requests <= 1 || devices_.size() <= 1)
        return plans;

    if (!policy_.split) {
        // Unpaused devices in ascending-load order, placement device
        // first.
        std::vector<size_t> order;
        for (size_t d = 0; d < devices_.size(); ++d) {
            if (!devices_[d].paused && d != p.device)
                order.push_back(d);
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return devices_[a].load < devices_[b].load;
                         });
        order.insert(order.begin(), p.device);
        for (std::vector<size_t> &plan : plans) {
            if (plan.size() <= 1)
                continue; // a one-group stage stays home
            for (size_t g = 0; g < plan.size(); ++g)
                plan[g] = order[g % order.size()];
        }
        return plans;
    }

    size_t unpaused = 0;
    for (const DeviceState &st : devices_)
        unpaused += st.paused ? 0 : 1;
    if (unpaused <= 1)
        return plans;

    // The chunk no longer runs whole on the placement device: release
    // its chunk-level booking and re-book per tile group as each is
    // assigned, so concurrent placements see the split load.
    DeviceState &home = devices_.at(p.device);
    home.load -= std::min(home.load, p.booked);
    p.booked = 0;
    p.stageBooked.assign(devices_.size(), 0);

    double total_weight = 0;
    for (const auto &stage : weights)
        for (double w : stage)
            total_weight += w;
    const Estimate est = estimateLocked(op, cls);
    const double chunk_cycles = double(requests) * est.busy;
    // Cycles booked per weight unit. A cold class books one cycle per
    // unit — enough to make the within-chunk assignment spread.
    const double per_unit =
        total_weight <= 0
            ? 0
            : (chunk_cycles > 0 ? chunk_cycles / total_weight : 1.0);

    // All stages' groups assigned jointly, largest first (LPT over
    // the tile groups), each onto the currently least-loaded unpaused
    // device. Stable order keeps the plan deterministic.
    struct Group
    {
        size_t stage, index;
        double weight;
    };
    std::vector<Group> groups;
    for (size_t s = 0; s < weights.size(); ++s)
        for (size_t g = 0; g < weights[s].size(); ++g)
            groups.push_back({s, g, weights[s][g]});
    std::stable_sort(groups.begin(), groups.end(),
                     [](const Group &a, const Group &b) {
                         return a.weight > b.weight;
                     });

    for (const Group &g : groups) {
        size_t best = devices_.size();
        for (size_t d = 0; d < devices_.size(); ++d) {
            if (devices_[d].paused)
                continue;
            if (best == devices_.size() ||
                devices_[d].load < devices_[best].load)
                best = d;
        }
        const uint64_t booked = std::max<uint64_t>(
            1, uint64_t(std::llround(g.weight * per_unit)));
        devices_[best].load += booked;
        p.stageBooked[best] += booked;
        plans[g.stage][g.index] = best;
    }
    return plans;
}

void
MakespanScheduler::complete(const Placement &p, RequestOp op,
                            const std::string &cls, size_t requests,
                            const std::vector<uint64_t> &busyPerDevice,
                            uint64_t stagingCycles, bool failed)
{
    rpu_assert(requests >= 1, "empty chunk completed");
    std::lock_guard<std::mutex> lock(mutex_);

    // Correct every booking to the measured cycle-model cost: the
    // chunk-level booking on the placement device, any split-stage
    // bookings, then credit each device the cycles it actually spent.
    // Bookings can exceed the running load only if resetCounters-style
    // races produced nonsense; clamp rather than wrap.
    DeviceState &st = devices_.at(p.device);
    st.load -= std::min(st.load, p.booked);
    for (size_t d = 0;
         d < p.stageBooked.size() && d < devices_.size(); ++d) {
        devices_[d].load -=
            std::min(devices_[d].load, p.stageBooked[d]);
    }
    uint64_t busy_total = 0;
    for (size_t d = 0;
         d < busyPerDevice.size() && d < devices_.size(); ++d) {
        devices_[d].load += busyPerDevice[d];
        busy_total += busyPerDevice[d];
    }
    if (st.inflight > 0)
        --st.inflight;

    // A failed chunk's window measures however far the attempt got,
    // not what the class costs — folding it into the estimate would
    // poison every later placement of the class. The cycles above
    // were still spent, so the load credit stands.
    if (failed)
        return;

    Estimate &est = estimates_[key(op, cls)];
    const double busy_per_req = double(busy_total) / double(requests);
    const double staging_per_req =
        double(stagingCycles) / double(requests);
    if (est.samples == 0) {
        est.busy = busy_per_req;
        est.staging = staging_per_req;
    } else {
        est.busy += kEwma * (busy_per_req - est.busy);
        est.staging += kEwma * (staging_per_req - est.staging);
    }
    ++est.samples;
}

void
MakespanScheduler::complete(const Placement &p, RequestOp op,
                            const std::string &cls, size_t requests,
                            uint64_t busyCycles, uint64_t stagingCycles)
{
    std::vector<uint64_t> busy(p.device + 1, 0);
    busy[p.device] = busyCycles;
    complete(p, op, cls, requests, busy, stagingCycles, false);
}

void
MakespanScheduler::pause(size_t device)
{
    std::lock_guard<std::mutex> lock(mutex_);
    devices_.at(device).paused = true;
}

void
MakespanScheduler::resume(size_t device)
{
    std::lock_guard<std::mutex> lock(mutex_);
    devices_.at(device).paused = false;
}

bool
MakespanScheduler::paused(size_t device) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return devices_.at(device).paused;
}

uint64_t
MakespanScheduler::load(size_t device) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return devices_.at(device).load;
}

uint64_t
MakespanScheduler::modelledMakespan() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t worst = 0;
    for (const DeviceState &st : devices_)
        worst = std::max(worst, st.load);
    return worst;
}

} // namespace serve
} // namespace rpu
