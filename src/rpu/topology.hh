/**
 * @file
 * RpuTopology: an N-device set of simulated RPUs behind one cache
 * bundle — the device layer's answer to "serving heavy traffic means
 * scaling past one accelerator".
 *
 * All devices share a single DeviceCaches: Montgomery contexts,
 * twiddle tables, reference NTTs, and — most importantly — the
 * generated kernel images. A kernel generated (and cycle-simulated)
 * on device 0 is a cache hit on device 1..N-1, so prewarm cost and
 * codegen latency are paid once per topology, not once per device
 * ("generate once, launch anywhere"; a regression test pins this).
 *
 * The topology also rolls the per-device ledgers up:
 *
 *  - snapshot()/since() give per-device DeviceStats windows;
 *  - stats()/aggregate() sum a window field-wise (per-worker vectors
 *    zero-padded to the widest device — see DeviceStats::operator+=);
 *  - makespanCycles() is the topology-wide modelled wall-clock: the
 *    max over devices of each device's contention-aware busy
 *    makespan. Work spread evenly across N devices shows ~1/N the
 *    makespan of the same work on one device — the capacity-planning
 *    signal the sharding bench sweeps.
 *
 * Finally, dispatch() is RpuDevice::dispatch spread across devices:
 * the same flatten/tile/reassemble helper (DispatchTiles), with each
 * <= kMaxBatchedTowers tile group executed on the device a placement
 * plan names, devices overlapping on real threads. Group boundaries
 * and every group's math are the single-device ones, so results are
 * bit-identical to RpuDevice::dispatch whatever the plan — only the
 * ledger (which device paid which launches) moves.
 */

#ifndef RPU_RPU_TOPOLOGY_HH
#define RPU_RPU_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "rpu/device.hh"

namespace rpu {

/** See the file comment. */
class RpuTopology
{
  public:
    /**
     * Build @p devices functional-simulator RPUs over one fresh
     * shared cache bundle, each with @p parallelism worker lanes
     * (1 = serial devices, the deterministic-ledger configuration).
     */
    explicit RpuTopology(size_t devices, unsigned parallelism = 1);

    /**
     * Wrap existing devices (at least one) without rebuilding them —
     * how a single-device server becomes the degenerate 1-topology.
     * The devices keep whatever cache bundles they were built with:
     * cross-device cache sharing is only guaranteed when the adopted
     * devices already share one (as the N-device constructor
     * arranges).
     */
    static std::shared_ptr<RpuTopology>
    adopt(std::vector<std::shared_ptr<RpuDevice>> devices);

    size_t size() const { return devices_.size(); }

    const std::shared_ptr<RpuDevice> &device(size_t i) const
    {
        return devices_.at(i);
    }

    /** Device 0's cache bundle (the shared one for built topologies). */
    const std::shared_ptr<DeviceCaches> &caches() const
    {
        return devices_.front()->caches();
    }

    // -- Ledger roll-up --------------------------------------------------

    /** One DeviceStats per device, in device order. */
    using Snapshot = std::vector<DeviceStats>;

    Snapshot snapshot() const;

    /** Per-device windows since @p before (an earlier snapshot()). */
    Snapshot since(const Snapshot &before) const;

    /** Field-wise sum of a snapshot (see DeviceStats::operator+=). */
    static DeviceStats aggregate(const Snapshot &snap);

    /** aggregate(snapshot()): the topology-wide summed ledger. */
    DeviceStats stats() const { return aggregate(snapshot()); }

    /**
     * Topology-wide modelled makespan of a window: the max over
     * devices of the contention-aware per-device busy makespan. The
     * denominator of "modelled sustained throughput" in the capacity
     * sweep.
     */
    static uint64_t makespanCycles(const Snapshot &snap);

    /** makespanCycles(snapshot()) — cumulative since construction. */
    uint64_t makespanCycles() const
    {
        return makespanCycles(snapshot());
    }

    // -- Tiled dispatch across devices -----------------------------------

    /** Tile-group count of a @p towers-long tiled chain: the number
     *  of launches a dispatch splits it into, and the length of a
     *  placement plan. */
    static size_t tileGroups(size_t towers)
    {
        return (towers + RpuDevice::kMaxBatchedTowers - 1) /
               RpuDevice::kMaxBatchedTowers;
    }

    /** Tower count of each tile group of a @p towers-long tiled
     *  chain — full kMaxBatchedTowers groups plus the remainder.
     *  Matches the group boundaries DispatchTiles cuts, so a
     *  planner can weigh each launch of a stage before building its
     *  plan. */
    static std::vector<size_t> groupTowerCounts(size_t towers)
    {
        std::vector<size_t> counts(tileGroups(towers),
                                   RpuDevice::kMaxBatchedTowers);
        if (!counts.empty() && towers % RpuDevice::kMaxBatchedTowers)
            counts.back() = towers % RpuDevice::kMaxBatchedTowers;
        return counts;
    }

    /** groupTowerCounts scaled by a per-tower cost weight: the
     *  stage-weight vector MakespanScheduler::splitPlans consumes. */
    static std::vector<double> groupWeights(size_t towers,
                                            double perTower)
    {
        std::vector<double> w;
        for (size_t t : groupTowerCounts(towers))
            w.push_back(double(t) * perTower);
        return w;
    }

    /**
     * RpuDevice::dispatch with the tile groups spread across the
     * topology: group g executes on device plan[g], and plan.size()
     * must equal tileGroups(total towers). Each occupied device runs
     * its groups, in tile order, as one launchAll; devices overlap on
     * real threads (the caller's thread runs the first occupied
     * device). A uniform plan is exactly that device's own dispatch.
     */
    TowerItems dispatch(const std::vector<size_t> &plan, RingOp op,
                        uint64_t n,
                        const std::vector<std::vector<u128>> &moduli,
                        TowerItems a, TowerItems b = {},
                        const NttCodegenOptions &opts = {});

  private:
    RpuTopology() = default;

    std::vector<std::shared_ptr<RpuDevice>> devices_;
};

} // namespace rpu

#endif // RPU_RPU_TOPOLOGY_HH
