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
 *  - stats()/aggregate() sum a window field-wise (see
 *    DeviceStats::operator+=);
 *  - makespanCycles() is the topology-wide modelled wall-clock: the
 *    max over devices of each device's contention-aware busy
 *    cycles. Work spread evenly across N devices shows ~1/N the
 *    makespan of the same work on one device — the capacity-planning
 *    signal the sharding bench sweeps.
 *
 * Finally, dispatch() is RpuDevice::dispatch spread across devices:
 * the same flatten/tile/reassemble helper (DispatchTiles), with each
 * <= kMaxBatchedTowers tile group executed on the device a placement
 * plan names, devices overlapping on real threads. Group boundaries
 * and every group's math are the single-device ones, so results are
 * bit-identical to RpuDevice::dispatch whatever the plan — only the
 * ledger (which device paid which launches) moves. A DispatchRoute
 * carries one batched op's per-stage plans through the op's layers
 * and checks each dispatch against the op's declared stage shapes.
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
     * shared cache bundle.
     */
    explicit RpuTopology(size_t devices);

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
     * devices of the contention-aware per-device busy cycles. The
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

    /**
     * RpuDevice::dispatch with the tile groups spread across the
     * topology: group g executes on device plan[g], and plan.size()
     * must equal DispatchTiles::cut(moduli).size(). Each occupied
     * device runs its groups, in tile order, as one launchAll; devices
     * overlap on real threads (the caller's thread runs the first
     * occupied device). A uniform plan is exactly that device's own
     * dispatch.
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

/**
 * The dispatch route of one batched op across a topology: the op's
 * declared stage shapes, in issue order, and the device plan each
 * stage's tile groups follow. The s-th dispatch the op issues must
 * match shapes[s] exactly (asserted — a batch that launches anything
 * it did not declare is a bug, since the scheduler planned and the
 * kernel prewarm warmed the declaration) and runs as
 * RpuTopology::dispatch(plans[s], ...). Ledger notes an op makes
 * besides its launches (elided conversions, key-switch annotations)
 * land on the home device, the chunk's placement. One route serves
 * one batch on one thread.
 */
class DispatchRoute
{
  public:
    DispatchRoute(RpuTopology &topology, size_t home,
                  std::vector<StageShape> shapes,
                  std::vector<std::vector<size_t>> plans);

    /** The next declared stage, on its planned devices. */
    TowerItems dispatch(RingOp op, uint64_t n,
                        const std::vector<std::vector<u128>> &moduli,
                        TowerItems a, TowerItems b = {});

    /** Where the batch's ledger notes land. */
    RpuDevice &home() const { return *topology_.device(home_); }

    /** True once every declared stage has been issued. */
    bool complete() const { return next_ == shapes_.size(); }

  private:
    RpuTopology &topology_;
    size_t home_;
    std::vector<StageShape> shapes_;
    std::vector<std::vector<size_t>> plans_;
    size_t next_ = 0;
};

} // namespace rpu

#endif // RPU_RPU_TOPOLOGY_HH
