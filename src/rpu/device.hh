/**
 * @file
 * RpuDevice: the host-side device layer every kernel launch goes
 * through.
 *
 * The paper's flow (section V) stages host polynomials into the
 * scratchpads, runs a SPIRAL-generated B512 program on the functional
 * simulator, and reads the result back. This layer centralises that
 * launch path behind one object:
 *
 *  - a kernel cache keyed by (kind, n, moduli, codegen options), so a
 *    ring's kernels are generated and scheduled once and reused across
 *    launches;
 *  - shared numeric context caches (Montgomery modulus contexts,
 *    twiddle tables, reference NTT contexts) that are expensive to
 *    build and were previously rebuilt per launch;
 *  - a pluggable ExecutionBackend, with two implementations: the
 *    bit-exact functional simulator and the CPU reference baseline.
 *    Both consume the same KernelImage, so any kernel can be checked
 *    bit-for-bit across backends;
 *  - batched launches (launchAll) that validate a whole batch up
 *    front and run it through one backend in request order;
 *  - one tiled ring dispatch (dispatch) that runs a forward, inverse
 *    or pointwise operation over many items' RNS towers as batched
 *    kernels of at most kMaxBatchedTowers towers each, the software
 *    counterpart of the paper's "process different towers
 *    simultaneously".
 *
 * A device is one lane: it runs the launches its callers issue on
 * the callers' threads. Parallelism lives a level up — in the
 * batched kinds' towers, in several dispatchers sharing a device
 * (which the HBM-contention ledger charges for), and in the devices
 * of an RpuTopology.
 */

#ifndef RPU_RPU_DEVICE_HH
#define RPU_RPU_DEVICE_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "codegen/ntt_codegen.hh"
#include "model/contention.hh"
#include "poly/polynomial.hh"
#include "sim/functional/executor.hh"

namespace rpu {

class RpuDevice;

/**
 * The numeric and kernel caches a device launches against, extracted
 * so an N-device topology can share one bundle: Montgomery modulus
 * contexts, twiddle tables, reference NTT contexts, and the generated
 * kernel images with their single-flight generation state. A kernel
 * generated (and cycle-simulated) on one device is a cache hit on
 * every other device of the same topology — generate once, launch
 * anywhere — so prewarm cost and codegen latency do not scale with
 * device count.
 *
 * Locking is exactly what RpuDevice used when it owned these members
 * privately: kernel generation runs outside kernelMutex (the
 * generating set + condvar keep it single-flight per key), generation
 * takes contextMutex for twiddle tables, and the modulus cache
 * synchronises itself below everything. All four caches are
 * append-only with node-stable storage, so returned references never
 * need the lock and stay valid for the bundle's lifetime.
 */
struct DeviceCaches
{
    ModulusContextCache modulus;
    mutable std::mutex contextMutex;
    std::map<std::pair<uint64_t, u128>, std::unique_ptr<TwiddleTable>>
        twiddle;
    std::map<std::pair<uint64_t, u128>, std::unique_ptr<NttContext>>
        ntt;
    mutable std::mutex kernelMutex;
    std::map<std::string, std::unique_ptr<KernelImage>> kernels;
    /// Keys whose kernels are being generated right now. Guarded by
    /// kernelMutex; kernelCv signals every insertion into kernels so
    /// same-key waiters (on any device) can re-check the cache.
    std::set<std::string> generating;
    std::condition_variable kernelCv;
};

/**
 * Executes staged kernel launches. Backends receive the device so
 * they can use its shared numeric caches.
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    virtual const char *name() const = 0;

    /**
     * Run @p image with @p inputs bound to its input regions (in
     * region order); return the output regions' contents (in region
     * order).
     */
    virtual std::vector<std::vector<u128>>
    execute(RpuDevice &dev, const KernelImage &image,
            const std::vector<std::vector<u128>> &inputs) = 0;
};

/** The lane word a functional-simulator launch runs on. */
enum class LaneWord
{
    U64,  ///< BasicArchState<uint64_t>: narrow-modulus kernels
    U128, ///< ArchState: the architectural 128-bit lanes, exact for all
};

/**
 * Bit-exact functional simulation of the B512 program — the paper's
 * verification path and this repository's default execution engine.
 *
 * Lane word: a launch runs on u64 lanes when laneWordFor() allows it,
 * and on u128 lanes otherwise. A u64 launch that truncated a value
 * (a staged word or a lane result of 2^64 or more, see
 * BasicArchState) reruns on u128 lanes, so outputs never depend on
 * the lane word.
 *
 * State reuse: building and zero-filling a multi-MiB state per launch
 * would cost more than many kernels take to run, so the backend keeps
 * a mutex-guarded free list of states keyed by (VDM size, lane word).
 * A launch takes one (or builds one when none is free), and hands it
 * back after reset(), which zeroes only what the launch wrote (the
 * state's dirty-range contract) and leaves it indistinguishable from
 * a fresh state. Concurrent launches (several dispatchers sharing the
 * device) each hold their own state, so each list grows to the peak
 * number of launches in flight per key.
 */
class FunctionalSimBackend : public ExecutionBackend
{
  public:
    const char *name() const override { return "functional-sim"; }

    std::vector<std::vector<u128>>
    execute(RpuDevice &dev, const KernelImage &image,
            const std::vector<std::vector<u128>> &inputs) override;

    /**
     * U64 when narrow lanes are active (RPU_HOST_SIMD), every modulus
     * of @p image is in the narrow-kernel domain and every word of
     * its SDM image fits in 64 bits; U128 otherwise.
     */
    static LaneWord laneWordFor(const KernelImage &image);

  private:
    template <typename Word>
    using FreeList =
        std::map<size_t,
                 std::vector<std::unique_ptr<BasicArchState<Word>>>>;

    /**
     * Run one launch on @p Word lanes into @p outputs; false when a
     * u64 state truncated a value, and the launch must rerun on u128.
     */
    template <typename Word>
    bool run(RpuDevice &dev, const KernelImage &image,
             const std::vector<std::vector<u128>> &inputs,
             std::vector<std::vector<u128>> &outputs);

    /** A zeroed state of @p vdm_bytes: from the free list, else new. */
    template <typename Word>
    std::unique_ptr<BasicArchState<Word>> acquireState(size_t vdm_bytes);

    /** Reset @p state and return it to the free list. */
    template <typename Word>
    void releaseState(std::unique_ptr<BasicArchState<Word>> state);

    std::mutex free_mutex_;
    std::tuple<FreeList<uint64_t>, FreeList<u128>> free_states_;
};

/**
 * CPU reference baseline: computes the kernel's function with the
 * golden-model NTT instead of executing the program. Launch-for-launch
 * bit-identical to the functional simulator (backend equivalence is a
 * tier-1 test), and the natural A/B harness for new kernels.
 */
class CpuReferenceBackend : public ExecutionBackend
{
  public:
    const char *name() const override { return "cpu-reference"; }

    /**
     * Whether a reference handler is registered for @p kind. The
     * handler table is the single source of truth execute() consults;
     * a tier-1 test iterates every KernelKind through this, so adding
     * a kind without a reference handler fails ctest instead of
     * fataling at the first launch.
     */
    static bool handles(KernelKind kind);

    std::vector<std::vector<u128>>
    execute(RpuDevice &dev, const KernelImage &image,
            const std::vector<std::vector<u128>> &inputs) override;
};

/**
 * Launch and cache activity since construction / resetCounters().
 * Fields are individually atomic (concurrent callers bump them);
 * cross-counter consistency is only guaranteed while no launches are
 * in flight.
 *
 * The transform counters are semantic and tower-granular: every
 * launch contributes the number of forward / inverse NTT passes and
 * pointwise tower products its kernel kind actually performs (a
 * BatchedPolyMul over T towers is 2T forward + T inverse; a
 * PointwiseMulBatched is T pointwise products and no transforms).
 * transformsElided counts the tower transforms a domain-aware caller
 * skipped because an operand was already resident in the target
 * domain (see ResidueOps) — the paper's amortise-the-NTT win, made
 * observable.
 */
struct DeviceCounters
{
    std::atomic<uint64_t> launches{0}; ///< launches issued to the backend
    std::atomic<uint64_t> towerLaunches{0}; ///< tower transforms inside those
    std::atomic<uint64_t> kernelHits{0};    ///< kernel-cache hits
    std::atomic<uint64_t> kernelMisses{0};  ///< kernel-cache misses

    std::atomic<uint64_t> forwardTransforms{0}; ///< fwd NTT passes executed
    std::atomic<uint64_t> inverseTransforms{0}; ///< inv NTT passes executed
    std::atomic<uint64_t> pointwiseMuls{0}; ///< pointwise tower products
    std::atomic<uint64_t> transformsElided{0}; ///< conversions skipped

    /** Of the issued transforms, how many were key-switch plumbing
     *  (relinearisation's digit split + re-entry) rather than
     *  workload domain boundaries. A subset annotation reported by
     *  the evaluator, not a separate execution count: subtract it
     *  from transformsIssued() to get the workload-only figure, so
     *  elision ratios for user chains stay meaningful once ct x ct
     *  multiplies enter the mix. */
    std::atomic<uint64_t> keySwitchTransforms{0};

    /** Modelled RPU cycles of every launch (the per-kernel
     *  KernelMetrics cycle counts, stamped on each image). */
    std::atomic<uint64_t> cycles{0};

    /** HBM staging/drain cycles of every launch at full bandwidth
     *  (input + output region words through the contention model).
     *  Fully overlapped behind compute while a launch has the
     *  interface to itself — recorded so the overlap is observable,
     *  not folded into the cycle ledger. */
    std::atomic<uint64_t> stagingCycles{0};

    /** Contended busy cycles: each launch's modelled cost plus the
     *  HBM-contention term for the launches in flight with it
     *  (HbmContentionModel::busyCycles). Equal to cycles while the
     *  device never ran two launches at once. */
    std::atomic<uint64_t> busyCycles{0};

    /** Words staged + drained across all launches. */
    std::atomic<uint64_t> stagedWords{0};
    /** Launches whose modelled cost carried a contention term. */
    std::atomic<uint64_t> contendedLaunches{0};
    /** High-water mark of launches in flight at once. */
    std::atomic<uint64_t> maxOccupiedLanes{0};
};

/**
 * A coherent snapshot of the device's aggregate activity — the
 * device-level roll-up of what per-kernel KernelMetrics measure one
 * program at a time: modelled cycles convert the launches into
 * device-time, and issued-vs-elided transform totals show what
 * evaluation-domain residency saved.
 */
struct DeviceStats
{
    uint64_t launches = 0;
    uint64_t towerLaunches = 0;
    uint64_t kernelHits = 0;
    uint64_t kernelMisses = 0;

    uint64_t forwardTransforms = 0;
    uint64_t inverseTransforms = 0;
    uint64_t pointwiseMuls = 0;
    uint64_t transformsElided = 0;
    uint64_t keySwitchTransforms = 0; ///< subset of issued (see counters)

    /**
     * Modelled RPU cycles executed: every launch contributes its
     * image's modelCycles — stamped at generation time by the
     * device's kernel cache — so the ledger converts directly into
     * device-time. Ad-hoc KernelImages that were never
     * cycle-simulated contribute zero; every scheme / ResidueOps path
     * launches cached kernels, so the HE pipelines are fully covered.
     */
    uint64_t cycles = 0;

    /** Staging/drain cycles; overlapped behind compute while one
     *  launch is in flight. */
    uint64_t stagingCycles = 0;

    /** Contended busy cycles: modelled cost plus the HBM-contention
     *  term. See DeviceCounters. */
    uint64_t busyCycles = 0;

    uint64_t stagedWords = 0;
    uint64_t contendedLaunches = 0;
    /** High-water mark, not a windowed delta: operator- carries the
     *  later snapshot's value through unchanged. */
    uint64_t maxOccupiedLanes = 0;

    uint64_t transformsIssued() const
    {
        return forwardTransforms + inverseTransforms;
    }

    /** Transforms issued for the workload's own domain boundaries —
     *  issued minus the key-switch digit-split/re-entry passes. */
    uint64_t workloadTransforms() const
    {
        return transformsIssued() - keySwitchTransforms;
    }

    /** Total modelled cycles. */
    uint64_t cycleTotal() const { return cycles; }

    /** Total staging/drain cycles. */
    uint64_t stagingCycleTotal() const { return stagingCycles; }

    /**
     * Total contended busy cycles: the device's modelled wall-clock
     * and the multi-RPU capacity model's per-device term. Equals
     * cycleTotal() exactly while the device never ran two launches
     * at once (full staging/drain overlap); strictly exceeds it as
     * soon as concurrent launches shared the HBM interface.
     */
    uint64_t busyCycleTotal() const { return busyCycles; }

    /** One-line summary for benches and examples. */
    std::string summary() const;

    /**
     * Windowed delta between two snapshots of the *same* device with
     * no resetCounters() in between: every counter of @p since is
     * subtracted field-wise. This is how the serving layer and
     * benches attribute launches and transforms to one request window
     * instead of diffing cumulative counters by hand; see also
     * RpuDevice::statsSince.
     */
    DeviceStats operator-(const DeviceStats &since) const;

    /**
     * Field-wise sum — how a topology rolls N per-device windows into
     * one ledger; maxOccupiedLanes takes the max. The summed busy
     * total is the devices' combined work, not a wall-clock — use
     * RpuTopology::makespanCycles (max over devices) for the
     * topology-wide figure.
     */
    DeviceStats &operator+=(const DeviceStats &other);
    DeviceStats operator+(const DeviceStats &other) const;
};

/** One element of a batched launchAll(). */
struct LaunchRequest
{
    const KernelImage *image = nullptr;
    std::vector<std::vector<u128>> inputs;
};

/** The ring operations RpuDevice::dispatch runs, each as one batched
 *  kernel kind over a tile group of towers. */
enum class RingOp
{
    Forward,   ///< x <- NTT(x)  (BatchedForwardNtt)
    Inverse,   ///< x <- INTT(x) (BatchedInverseNtt)
    Pointwise, ///< a <- a .* b  (PointwiseMulBatched)
};

/** The batched kernel kind that runs @p op. */
KernelKind batchedKind(RingOp op);

/** Per-item tower sets: items[i][t] is tower t of item i. */
using TowerItems = std::vector<std::vector<std::vector<u128>>>;

/**
 * The launch shape of one dispatch: its ring op and every item's
 * moduli — exactly what RpuDevice::dispatch takes besides the data,
 * and what DispatchTiles::cut turns into the kernels it launches.
 */
struct StageShape
{
    RingOp op = RingOp::Forward;
    std::vector<std::vector<u128>> moduli;
};

/** An RPU: kernel cache + context caches + execution backend. */
class RpuDevice
{
  public:
    /** Default device: functional-simulator backend, private caches. */
    RpuDevice() : RpuDevice(std::make_unique<FunctionalSimBackend>()) {}

    explicit RpuDevice(std::unique_ptr<ExecutionBackend> backend)
        : RpuDevice(std::move(backend),
                    std::make_shared<DeviceCaches>())
    {
    }

    /**
     * A device over an existing cache bundle — how RpuTopology builds
     * N devices that generate each kernel and numeric context once
     * between them. @p caches must outlive the device (shared
     * ownership guarantees it).
     */
    RpuDevice(std::unique_ptr<ExecutionBackend> backend,
              std::shared_ptr<DeviceCaches> caches);

    ExecutionBackend &backend() { return *backend_; }

    /** The cache bundle this device launches against. */
    const std::shared_ptr<DeviceCaches> &caches() const
    {
        return caches_;
    }

    /**
     * The HBM-contention model folded into the busy-cycle ledger.
     * Reconfigure only between batches (reads race with in-flight
     * launches otherwise).
     */
    const HbmContentionModel &contentionModel() const
    {
        return contention_;
    }
    void setContentionModel(const HbmContentionModel &m)
    {
        contention_ = m;
    }

    const DeviceCounters &counters() const { return counters_; }
    void resetCounters();

    /**
     * Aggregate activity snapshot (see DeviceStats). Consistent only
     * while no launches are in flight.
     */
    DeviceStats stats() const;

    /**
     * The device's activity since @p snapshot (an earlier stats()
     * with no resetCounters() in between): stats() - snapshot.
     * Consistent under the same conditions as stats() itself.
     */
    DeviceStats statsSince(const DeviceStats &snapshot) const
    {
        return stats() - snapshot;
    }

    /**
     * Record @p towers tower transforms that a domain-aware caller
     * skipped because the operand was already resident in the target
     * domain. Callers (ResidueOps) report elisions here so the
     * issued-vs-elided ledger lives in one place.
     */
    void noteElidedTransforms(uint64_t towers);

    /**
     * Annotate @p towers of the transforms just issued as key-switch
     * plumbing (relinearisation's digit split + re-entry). Reported
     * by RlweEvaluator::relinearise alongside the launches
     * themselves; always <= the tower transforms issued.
     */
    void noteKeySwitchTransforms(uint64_t towers);

    // -- Shared numeric context caches ---------------------------------

    /** Montgomery context for @p q, built once per cache bundle. */
    const Modulus &modulusContext(u128 q);

    /** The cache itself (shared with every functional-sim launch). */
    ModulusContextCache &modulusCache() { return caches_->modulus; }

    /** Twiddle tables / reference transforms for one (n, q) ring. */
    const TwiddleTable &twiddleTable(uint64_t n, u128 q);
    const NttContext &nttContext(uint64_t n, u128 q);

    // -- Kernel cache ----------------------------------------------------

    /**
     * The cached kernel for (kind, n, moduli, opts); generated (and
     * scheduled) on first use, one tower per modulus (at most
     * kMaxBatchedTowers). The reference stays valid for the device's
     * lifetime.
     */
    const KernelImage &kernel(KernelKind kind, uint64_t n,
                              const std::vector<u128> &moduli,
                              const NttCodegenOptions &opts = {});

    size_t
    cachedKernels() const
    {
        std::lock_guard<std::mutex> lock(caches_->kernelMutex);
        return caches_->kernels.size();
    }

    // -- Launches --------------------------------------------------------

    /**
     * Stage @p inputs into the image's input regions (in region
     * order), execute on the backend, and return the output regions'
     * contents (in region order).
     */
    std::vector<std::vector<u128>>
    launch(const KernelImage &image,
           const std::vector<std::vector<u128>> &inputs);

    /**
     * Run many independent launches through the backend in one batch
     * (e.g. all tile groups of a dispatch). The whole batch is
     * validated before the first launch; results are returned in
     * request order.
     */
    std::vector<std::vector<std::vector<u128>>>
    launchAll(const std::vector<LaunchRequest> &batch);

    // -- Tiled ring dispatch ---------------------------------------------
    //
    // The one ring-operation entry point, the software counterpart of
    // the paper's "process different towers simultaneously": every
    // item's towers (a polynomial, a ciphertext component, a tenant's
    // request — items may span different tower counts and moduli) are
    // laid end to end and cut into tile groups of at most
    // kMaxBatchedTowers (the codegen's tower budget), and each group
    // runs as one batched launch. The batched kinds compute each
    // region's ring independently, so results are bit-identical to
    // one-tower launches of every ring however the items tile; the
    // tower-granular transform/pointwise counters are exactly the
    // per-item totals, and a call costs
    // ceil(towers / kMaxBatchedTowers) launches however many items it
    // carries.

    /**
     * Run @p op on every tower of every item and return the results
     * per item, in item order: result[i][t] = op over moduli[i][t] of
     * a[i][t] (Forward / Inverse) or of a[i][t], b[i][t] (Pointwise;
     * b is empty for the transforms). Operands are consumed — pass
     * rvalues to avoid the copy. The tile groups go through launchAll;
     * RpuTopology::dispatch runs the same tiling across devices.
     */
    TowerItems dispatch(RingOp op, uint64_t n,
                        const std::vector<std::vector<u128>> &moduli,
                        TowerItems a, TowerItems b = {},
                        const NttCodegenOptions &opts = {});

  private:
    std::string kernelKey(KernelKind kind, uint64_t n,
                          const std::vector<u128> &moduli,
                          const NttCodegenOptions &opts) const;

    /** Fatal unless @p inputs matches the image's input regions. */
    void validateLaunch(const KernelImage &image,
                        const std::vector<std::vector<u128>> &inputs)
        const;

    /** Validated launch body: count (with the contention term for
     *  the launches observed in flight), then execute on the
     *  backend. */
    std::vector<std::vector<u128>>
    executeValidated(const KernelImage &image,
                     const std::vector<std::vector<u128>> &inputs);

    /** twiddleTable() body; caller holds caches_->contextMutex. */
    const TwiddleTable &twiddleTableLocked(uint64_t n, u128 q);

    std::unique_ptr<ExecutionBackend> backend_;

    DeviceCounters counters_;

    /** Launches currently inside executeValidated — the contention
     *  ledger's lane-occupancy count. */
    std::atomic<uint32_t> active_launches_{0};

    HbmContentionModel contention_;

    /** Shared (or private) cache bundle; see DeviceCaches for the
     *  locking story that used to live on these members directly. */
    std::shared_ptr<DeviceCaches> caches_;
};

/**
 * One dispatch flattened and cut into launch groups — the single copy
 * of the tiling that RpuDevice::dispatch, RpuTopology::dispatch, the
 * scheduler's stage plans and the serving layer's kernel prewarm
 * share. Every item's towers are laid end to end and cut every
 * kMaxBatchedTowers; group g runs as one batchedKind(op) launch over
 * groupModuli[g]. A Pointwise tower
 * contributes its a and b regions, always to the same group.
 */
struct DispatchTiles
{
    KernelKind kind = KernelKind::BatchedForwardNtt;
    /** Moduli of each group, in tile order. */
    std::vector<std::vector<u128>> groupModuli;
    /** Input regions of each group, consumed by launch(). */
    std::vector<std::vector<std::vector<u128>>> groupInputs;
    /** Output regions of each group (one per tower), from launch(). */
    std::vector<std::vector<std::vector<u128>>> groupOutputs;
    /** Tower count of each item, for reassemble(). */
    std::vector<size_t> itemTowers;

    /** Flatten @p a (and, for Pointwise, @p b) over @p moduli and
     *  cut it into groups. Operands are moved in. */
    DispatchTiles(RingOp op, const std::vector<std::vector<u128>> &moduli,
                  TowerItems a, TowerItems b);

    /** The group moduli alone: the kernel shapes a dispatch over
     *  @p moduli launches, for warming a kernel cache. */
    static std::vector<std::vector<u128>>
    cut(const std::vector<std::vector<u128>> &moduli);

    size_t groups() const { return groupModuli.size(); }

    /**
     * Run @p which (group indices) on @p dev as one launchAll. Calls
     * for disjoint group sets may run concurrently on different
     * devices: each touches only its own groups' slots.
     */
    void launch(RpuDevice &dev, uint64_t n,
                const std::vector<size_t> &which,
                const NttCodegenOptions &opts);

    /** The group outputs, back per item in item order. */
    TowerItems reassemble();
};

} // namespace rpu

#endif // RPU_RPU_DEVICE_HH
