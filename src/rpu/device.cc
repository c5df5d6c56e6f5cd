#include "rpu/device.hh"

#include <algorithm>

#include "common/logging.hh"
#include "modmath/simd.hh"
#include "sim/cycle/simulator.hh"
#include "sim/functional/state.hh"

namespace rpu {

// ----------------------------------------------------------------------
// Backends
// ----------------------------------------------------------------------

LaneWord
FunctionalSimBackend::laneWordFor(const KernelImage &image)
{
    if (!simd::narrowLanesActive())
        return LaneWord::U128;
    for (u128 q : image.moduli) {
        if (!simd::narrowModulusOk(q))
            return LaneWord::U128;
    }
    for (u128 w : image.sdmImage) {
        if (w >> 64)
            return LaneWord::U128;
    }
    return LaneWord::U64;
}

template <typename Word>
std::unique_ptr<BasicArchState<Word>>
FunctionalSimBackend::acquireState(size_t vdm_bytes)
{
    {
        std::lock_guard<std::mutex> lock(free_mutex_);
        auto &free = std::get<FreeList<Word>>(free_states_);
        auto it = free.find(vdm_bytes);
        if (it != free.end() && !it->second.empty()) {
            auto state = std::move(it->second.back());
            it->second.pop_back();
            return state;
        }
    }
    return std::make_unique<BasicArchState<Word>>(vdm_bytes);
}

template <typename Word>
void
FunctionalSimBackend::releaseState(
    std::unique_ptr<BasicArchState<Word>> state)
{
    state->reset(); // outside the lock: zeroing is the expensive part
    const size_t vdm_bytes = state->vdmWords() * arch::kWordBytes;
    std::lock_guard<std::mutex> lock(free_mutex_);
    std::get<FreeList<Word>>(free_states_)[vdm_bytes].push_back(
        std::move(state));
}

template <typename Word>
bool
FunctionalSimBackend::run(RpuDevice &dev, const KernelImage &image,
                          const std::vector<std::vector<u128>> &inputs,
                          std::vector<std::vector<u128>> &outputs)
{
    // Hand the state back on every exit path, the throwing ones too:
    // reset() clears whatever a partial launch wrote.
    struct Lease
    {
        FunctionalSimBackend &backend;
        std::unique_ptr<BasicArchState<Word>> state;
        ~Lease() { backend.releaseState(std::move(state)); }
    } lease{*this, acquireState<Word>(image.vdmBytesRequired)};
    BasicArchState<Word> &state = *lease.state;

    // Launch code: stage constants and data into the scratchpads.
    for (size_t i = 0; i < image.sdmImage.size(); ++i)
        state.writeSdm(i, image.sdmImage[i]);
    state.loadVdm(image.twPlanBase, image.twPlanImage);

    const auto in_regions = image.inputRegions();
    for (size_t i = 0; i < in_regions.size(); ++i)
        state.loadVdm(in_regions[i]->base, inputs[i]);
    if (state.truncated())
        return false;

    BasicFunctionalSimulator<Word> sim(state, dev.modulusCache());
    sim.run(image.program);
    if (state.truncated())
        return false;

    for (const DataRegion *r : image.outputRegions())
        outputs.push_back(state.dumpVdm(r->base, r->words));
    return true;
}

std::vector<std::vector<u128>>
FunctionalSimBackend::execute(RpuDevice &dev, const KernelImage &image,
                              const std::vector<std::vector<u128>> &inputs)
{
    std::vector<std::vector<u128>> outputs;
    if (laneWordFor(image) == LaneWord::U64 &&
        run<uint64_t>(dev, image, inputs, outputs))
        return outputs;
    run<u128>(dev, image, inputs, outputs);
    return outputs;
}

namespace {

/** One reference handler per KernelKind (see refHandlers). */
using RefInputs = std::vector<std::vector<u128>>;
using RefHandler = RefInputs (*)(RpuDevice &, const KernelImage &,
                                 const RefInputs &);

RefInputs
refBatchedNtt(RpuDevice &dev, const KernelImage &image,
              const RefInputs &inputs)
{
    RefInputs out;
    for (size_t t = 0; t < image.moduli.size(); ++t) {
        std::vector<u128> x = inputs[t];
        const NttContext &ntt = dev.nttContext(image.n, image.moduli[t]);
        if (image.kind == KernelKind::BatchedInverseNtt)
            ntt.inverse(x);
        else
            ntt.forward(x);
        out.push_back(std::move(x));
    }
    return out;
}

RefInputs
refBatchedPolyMul(RpuDevice &dev, const KernelImage &image,
                  const RefInputs &inputs)
{
    RefInputs out;
    for (size_t t = 0; t < image.moduli.size(); ++t) {
        const NttContext &ntt = dev.nttContext(image.n, image.moduli[t]);
        out.push_back(
            negacyclicMulNtt(ntt, inputs[2 * t], inputs[2 * t + 1]));
    }
    return out;
}

RefInputs
refBatchedPointwiseMul(RpuDevice &dev, const KernelImage &image,
                       const RefInputs &inputs)
{
    RefInputs out;
    for (size_t t = 0; t < image.moduli.size(); ++t) {
        out.push_back(polyPointwise(dev.modulusContext(image.moduli[t]),
                                    inputs[2 * t], inputs[2 * t + 1]));
    }
    return out;
}

/**
 * The kind -> handler table. This is data, not a switch, so coverage
 * is testable: the tier-1 handler-coverage test walks every
 * KernelKind through CpuReferenceBackend::handles and fails when a
 * new kind lands without a reference implementation.
 */
const std::map<KernelKind, RefHandler> &
refHandlers()
{
    static const std::map<KernelKind, RefHandler> table = {
        {KernelKind::BatchedForwardNtt, &refBatchedNtt},
        {KernelKind::BatchedInverseNtt, &refBatchedNtt},
        {KernelKind::PointwiseMulBatched, &refBatchedPointwiseMul},
        {KernelKind::BatchedPolyMul, &refBatchedPolyMul},
    };
    return table;
}

} // namespace

bool
CpuReferenceBackend::handles(KernelKind kind)
{
    return refHandlers().count(kind) != 0;
}

std::vector<std::vector<u128>>
CpuReferenceBackend::execute(RpuDevice &dev, const KernelImage &image,
                             const std::vector<std::vector<u128>> &inputs)
{
    const auto it = refHandlers().find(image.kind);
    if (it == refHandlers().end()) {
        rpu_fatal("cpu-reference backend cannot execute kernel '%s' "
                  "(unhandled kind %d)",
                  image.program.name().c_str(), int(image.kind));
    }
    // Output-region count/size validation happens once for every
    // backend in RpuDevice::executeValidated.
    return it->second(dev, image, inputs);
}

// ----------------------------------------------------------------------
// RpuDevice
// ----------------------------------------------------------------------

RpuDevice::RpuDevice(std::unique_ptr<ExecutionBackend> backend,
                     std::shared_ptr<DeviceCaches> caches)
    : backend_(std::move(backend)), caches_(std::move(caches))
{
    rpu_assert(backend_ != nullptr, "device needs a backend");
    rpu_assert(caches_ != nullptr, "device needs a cache bundle");
}

void
RpuDevice::resetCounters()
{
    counters_.launches = 0;
    counters_.towerLaunches = 0;
    counters_.kernelHits = 0;
    counters_.kernelMisses = 0;
    counters_.forwardTransforms = 0;
    counters_.inverseTransforms = 0;
    counters_.pointwiseMuls = 0;
    counters_.transformsElided = 0;
    counters_.keySwitchTransforms = 0;
    counters_.cycles = 0;
    counters_.stagingCycles = 0;
    counters_.busyCycles = 0;
    counters_.stagedWords = 0;
    counters_.contendedLaunches = 0;
    counters_.maxOccupiedLanes = 0;
}

void
RpuDevice::noteElidedTransforms(uint64_t towers)
{
    counters_.transformsElided += towers;
}

void
RpuDevice::noteKeySwitchTransforms(uint64_t towers)
{
    counters_.keySwitchTransforms += towers;
}

DeviceStats
RpuDevice::stats() const
{
    DeviceStats s;
    s.launches = counters_.launches;
    s.towerLaunches = counters_.towerLaunches;
    s.kernelHits = counters_.kernelHits;
    s.kernelMisses = counters_.kernelMisses;
    s.forwardTransforms = counters_.forwardTransforms;
    s.inverseTransforms = counters_.inverseTransforms;
    s.pointwiseMuls = counters_.pointwiseMuls;
    s.transformsElided = counters_.transformsElided;
    s.keySwitchTransforms = counters_.keySwitchTransforms;
    s.cycles = counters_.cycles;
    s.stagingCycles = counters_.stagingCycles;
    s.busyCycles = counters_.busyCycles;
    s.stagedWords = counters_.stagedWords;
    s.contendedLaunches = counters_.contendedLaunches;
    s.maxOccupiedLanes = counters_.maxOccupiedLanes;
    return s;
}

std::string
DeviceStats::summary() const
{
    return "launches=" + std::to_string(launches) +
           " (towers=" + std::to_string(towerLaunches) +
           "), ntt fwd=" + std::to_string(forwardTransforms) +
           " inv=" + std::to_string(inverseTransforms) +
           ", pointwise=" + std::to_string(pointwiseMuls) +
           ", transforms elided=" + std::to_string(transformsElided) +
           " key-switch=" + std::to_string(keySwitchTransforms) +
           ", cycles total=" + std::to_string(cycleTotal()) +
           " busy=" + std::to_string(busyCycleTotal()) + " (staging " +
           std::to_string(stagingCycleTotal()) +
           " cyc overlapped, contended=" +
           std::to_string(contendedLaunches) +
           " peak lanes=" + std::to_string(maxOccupiedLanes) + ")";
}

DeviceStats
DeviceStats::operator-(const DeviceStats &since) const
{
    DeviceStats d;
    d.launches = launches - since.launches;
    d.towerLaunches = towerLaunches - since.towerLaunches;
    d.kernelHits = kernelHits - since.kernelHits;
    d.kernelMisses = kernelMisses - since.kernelMisses;
    d.forwardTransforms = forwardTransforms - since.forwardTransforms;
    d.inverseTransforms = inverseTransforms - since.inverseTransforms;
    d.pointwiseMuls = pointwiseMuls - since.pointwiseMuls;
    d.transformsElided = transformsElided - since.transformsElided;
    d.keySwitchTransforms =
        keySwitchTransforms - since.keySwitchTransforms;
    d.cycles = cycles - since.cycles;
    d.stagingCycles = stagingCycles - since.stagingCycles;
    d.busyCycles = busyCycles - since.busyCycles;
    d.stagedWords = stagedWords - since.stagedWords;
    d.contendedLaunches = contendedLaunches - since.contendedLaunches;
    // A high-water mark has no meaningful windowed delta; keep the
    // later snapshot's value.
    d.maxOccupiedLanes = maxOccupiedLanes;
    return d;
}

DeviceStats &
DeviceStats::operator+=(const DeviceStats &other)
{
    launches += other.launches;
    towerLaunches += other.towerLaunches;
    kernelHits += other.kernelHits;
    kernelMisses += other.kernelMisses;
    forwardTransforms += other.forwardTransforms;
    inverseTransforms += other.inverseTransforms;
    pointwiseMuls += other.pointwiseMuls;
    transformsElided += other.transformsElided;
    keySwitchTransforms += other.keySwitchTransforms;
    cycles += other.cycles;
    stagingCycles += other.stagingCycles;
    busyCycles += other.busyCycles;
    stagedWords += other.stagedWords;
    contendedLaunches += other.contendedLaunches;
    maxOccupiedLanes = std::max(maxOccupiedLanes,
                                other.maxOccupiedLanes);
    return *this;
}

DeviceStats
DeviceStats::operator+(const DeviceStats &other) const
{
    DeviceStats d = *this;
    d += other;
    return d;
}

const Modulus &
RpuDevice::modulusContext(u128 q)
{
    return caches_->modulus.get(q);
}

const TwiddleTable &
RpuDevice::twiddleTableLocked(uint64_t n, u128 q)
{
    const auto key = std::make_pair(n, q);
    auto it = caches_->twiddle.find(key);
    if (it == caches_->twiddle.end()) {
        // The table holds a reference to the modulus context; both
        // caches only ever grow, so the reference stays valid.
        it = caches_->twiddle
                 .emplace(key, std::make_unique<TwiddleTable>(
                                   modulusContext(q), n))
                 .first;
    }
    return *it->second;
}

const TwiddleTable &
RpuDevice::twiddleTable(uint64_t n, u128 q)
{
    std::lock_guard<std::mutex> lock(caches_->contextMutex);
    return twiddleTableLocked(n, q);
}

const NttContext &
RpuDevice::nttContext(uint64_t n, u128 q)
{
    std::lock_guard<std::mutex> lock(caches_->contextMutex);
    const auto key = std::make_pair(n, q);
    auto it = caches_->ntt.find(key);
    if (it == caches_->ntt.end()) {
        it = caches_->ntt
                 .emplace(key, std::make_unique<NttContext>(
                                   twiddleTableLocked(n, q)))
                 .first;
    }
    return *it->second;
}

std::string
RpuDevice::kernelKey(KernelKind kind, uint64_t n,
                     const std::vector<u128> &moduli,
                     const NttCodegenOptions &opts) const
{
    // Everything that changes the generated/scheduled program, each
    // field behind its own delimiter so no two specs can collide.
    std::string key = "k" + std::to_string(int(kind)) + ":n" +
                      std::to_string(n) + ":m";
    for (u128 q : moduli) {
        key += std::to_string(uint64_t(q >> 64)) + "_" +
               std::to_string(uint64_t(q)) + ",";
    }
    key += ":o" + std::to_string(opts.optimized) + ":w" +
           std::to_string(opts.twiddleCompose);
    // The design point only shapes the program through the list
    // scheduler, which unoptimized generation skips. Every RpuConfig
    // field is keyed — including ones the scheduler does not consult
    // today (vdmBytes) — so a future scheduler input can never alias
    // two design points onto one cached kernel.
    if (opts.optimized) {
        const RpuConfig &c = opts.scheduleConfig;
        for (uint64_t v :
             {uint64_t(c.numHples), uint64_t(c.numBanks),
              uint64_t(c.vdmBytes), uint64_t(c.mulLatency),
              uint64_t(c.mulII), uint64_t(c.addLatency),
              uint64_t(c.shuffleLatency), uint64_t(c.lsLatency),
              uint64_t(c.sdmLatency), uint64_t(c.queueDepth),
              uint64_t(c.dispatchWidth),
              uint64_t(c.exclusiveReaders)}) {
            key += ":" + std::to_string(v);
        }
    }
    return key;
}

const KernelImage &
RpuDevice::kernel(KernelKind kind, uint64_t n,
                  const std::vector<u128> &moduli,
                  const NttCodegenOptions &opts)
{
    rpu_assert(!moduli.empty(), "kernel needs at least one modulus");

    const std::string key = kernelKey(kind, n, moduli, opts);
    // Single-flight generation per key: the first requester marks the
    // key in the bundle's generating set and builds the kernel
    // *outside* the cache lock, so distinct kernels generate
    // concurrently (e.g. several dispatchers or devices racing in
    // from their own threads); same-key requesters wait on the
    // condvar for the one generation instead of duplicating it, and
    // count a cache hit once it lands. The bundle may be shared across a topology:
    // hit/miss counters stay per-device, so a kernel generated on one
    // device is observably a hit (not a regeneration) on every other.
    std::unique_lock<std::mutex> lock(caches_->kernelMutex);
    for (;;) {
        auto it = caches_->kernels.find(key);
        if (it != caches_->kernels.end()) {
            ++counters_.kernelHits;
            return *it->second;
        }
        if (caches_->generating.insert(key).second)
            break;
        caches_->kernelCv.wait(lock);
    }
    ++counters_.kernelMisses;
    lock.unlock();

    NttCodegenOptions gen_opts = opts;
    gen_opts.inverse = kind == KernelKind::BatchedInverseNtt;

    std::vector<const TwiddleTable *> towers;
    towers.reserve(moduli.size());
    for (u128 q : moduli)
        towers.push_back(&twiddleTable(n, q));

    auto image = std::make_unique<KernelImage>();
    switch (kind) {
      case KernelKind::BatchedForwardNtt:
      case KernelKind::BatchedInverseNtt:
        *image = generateBatchedNtt(towers, gen_opts);
        break;
      case KernelKind::PointwiseMulBatched:
        *image = generateBatchedPointwiseMul(towers, gen_opts);
        break;
      case KernelKind::BatchedPolyMul:
        *image = generateBatchedPolyMul(towers, gen_opts);
        break;
      case KernelKind::kCount:
        rpu_fatal("kCount is a sentinel, not a kernel kind");
    }

    // Cycle-simulate the program once, at the design point it was
    // generated for, and stamp the cost on the image itself: every
    // launch then folds its modelled cost into the device's cycle
    // ledger with a plain field read, no lock (this runs outside the
    // cache lock, like generation itself).
    RpuConfig cycle_cfg = gen_opts.scheduleConfig;
    cycle_cfg.vdmBytes =
        std::max(cycle_cfg.vdmBytes, image->vdmBytesRequired);
    image->modelCycles =
        simulateCycles(image->program, cycle_cfg).cycles;

    // Publish and wake every same-key waiter. Generation itself
    // cannot fail softly (codegen errors are fatal), so the
    // generating entry is always cleared here.
    lock.lock();
    auto it = caches_->kernels.emplace(key, std::move(image)).first;
    caches_->generating.erase(key);
    caches_->kernelCv.notify_all();
    return *it->second;
}

void
RpuDevice::validateLaunch(const KernelImage &image,
                          const std::vector<std::vector<u128>> &inputs)
    const
{
    const auto in_regions = image.inputRegions();
    if (inputs.size() != in_regions.size()) {
        rpu_fatal("kernel '%s' takes %zu inputs, got %zu",
                  image.program.name().c_str(), in_regions.size(),
                  inputs.size());
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i].size() != in_regions[i]->words) {
            rpu_fatal("input '%s' wants %llu words, got %zu",
                      in_regions[i]->name.c_str(),
                      (unsigned long long)in_regions[i]->words,
                      inputs[i].size());
        }
    }
}

std::vector<std::vector<u128>>
RpuDevice::executeValidated(const KernelImage &image,
                            const std::vector<std::vector<u128>> &inputs)
{
    ++counters_.launches;
    counters_.towerLaunches += image.moduli.size();

    // Semantic, tower-granular transform ledger: what the kernel kind
    // actually computes, independent of how it was dispatched.
    const uint64_t towers = image.moduli.size();
    switch (image.kind) {
      case KernelKind::BatchedForwardNtt:
        counters_.forwardTransforms += towers;
        break;
      case KernelKind::BatchedInverseNtt:
        counters_.inverseTransforms += towers;
        break;
      case KernelKind::PointwiseMulBatched:
        counters_.pointwiseMuls += towers;
        break;
      case KernelKind::BatchedPolyMul:
        counters_.forwardTransforms += 2 * towers;
        counters_.inverseTransforms += towers;
        counters_.pointwiseMuls += towers;
        break;
      case KernelKind::kCount:
        break;
    }

    counters_.cycles += image.modelCycles;

    // Contention ledger: words staged in + drained out, costed
    // through the HBM model at the lane occupancy this launch ran
    // under — the launches observed in flight right now (several
    // dispatcher threads sharing the device). At single-lane
    // occupancy the staging/drain traffic hides fully behind
    // compute: busy == modelCycles.
    uint64_t words = 0;
    for (const std::vector<u128> &in : inputs)
        words += in.size();
    for (const DataRegion *r : image.outputRegions())
        words += r->words;

    const unsigned lanes = active_launches_.fetch_add(1) + 1;
    counters_.stagedWords += words;
    counters_.stagingCycles += contention_.stagingCycles(words);
    counters_.busyCycles +=
        contention_.busyCycles(image.modelCycles, words, lanes);
    if (lanes > 1)
        ++counters_.contendedLaunches;
    uint64_t peak = counters_.maxOccupiedLanes.load();
    while (peak < lanes &&
           !counters_.maxOccupiedLanes.compare_exchange_weak(peak,
                                                             lanes)) {
    }

    // Balance active_launches_ on every exit path (backend execute
    // may throw; validation already happened).
    struct LaneGuard
    {
        std::atomic<uint32_t> &active;
        ~LaneGuard() { active.fetch_sub(1); }
    } lane_guard{active_launches_};

    auto outputs = backend_->execute(*this, image, inputs);

    // Guard every backend, present and future: an execute() that
    // under-fills the image's output regions must never hand callers
    // truncated results.
    const auto out_regions = image.outputRegions();
    if (outputs.size() != out_regions.size()) {
        rpu_fatal("kernel '%s' declares %zu output regions, backend "
                  "'%s' produced %zu",
                  image.program.name().c_str(), out_regions.size(),
                  backend_->name(), outputs.size());
    }
    for (size_t i = 0; i < outputs.size(); ++i) {
        if (outputs[i].size() != out_regions[i]->words) {
            rpu_fatal("output '%s' wants %llu words, backend '%s' "
                      "produced %zu",
                      out_regions[i]->name.c_str(),
                      (unsigned long long)out_regions[i]->words,
                      backend_->name(), outputs[i].size());
        }
    }
    return outputs;
}

std::vector<std::vector<u128>>
RpuDevice::launch(const KernelImage &image,
                  const std::vector<std::vector<u128>> &inputs)
{
    validateLaunch(image, inputs);
    return executeValidated(image, inputs);
}

std::vector<std::vector<std::vector<u128>>>
RpuDevice::launchAll(const std::vector<LaunchRequest> &batch)
{
    // Validate the whole batch first so user errors fire before any
    // launch touches the ledger.
    for (const LaunchRequest &req : batch) {
        rpu_assert(req.image != nullptr, "launch without a kernel");
        validateLaunch(*req.image, req.inputs);
    }

    std::vector<std::vector<std::vector<u128>>> results;
    results.reserve(batch.size());
    for (const LaunchRequest &req : batch)
        results.push_back(executeValidated(*req.image, req.inputs));
    return results;
}

TowerItems
RpuDevice::dispatch(RingOp op, uint64_t n,
                    const std::vector<std::vector<u128>> &moduli,
                    TowerItems a, TowerItems b,
                    const NttCodegenOptions &opts)
{
    DispatchTiles tiles(op, moduli, std::move(a), std::move(b));
    std::vector<size_t> all(tiles.groups());
    for (size_t g = 0; g < all.size(); ++g)
        all[g] = g;
    tiles.launch(*this, n, all, opts);
    return tiles.reassemble();
}

// ----------------------------------------------------------------------
// DispatchTiles
// ----------------------------------------------------------------------

KernelKind
batchedKind(RingOp op)
{
    switch (op) {
      case RingOp::Forward:
        return KernelKind::BatchedForwardNtt;
      case RingOp::Inverse:
        return KernelKind::BatchedInverseNtt;
      case RingOp::Pointwise:
        return KernelKind::PointwiseMulBatched;
    }
    rpu_fatal("unknown ring operation %d", int(op));
}

std::vector<std::vector<u128>>
DispatchTiles::cut(const std::vector<std::vector<u128>> &moduli)
{
    std::vector<std::vector<u128>> groups;
    for (const std::vector<u128> &item : moduli) {
        for (u128 q : item) {
            if (groups.empty() ||
                groups.back().size() == kMaxBatchedTowers)
                groups.emplace_back();
            groups.back().push_back(q);
        }
    }
    return groups;
}

DispatchTiles::DispatchTiles(RingOp op,
                             const std::vector<std::vector<u128>> &moduli,
                             TowerItems a, TowerItems b)
    : kind(batchedKind(op)), groupModuli(cut(moduli))
{
    const bool pointwise = op == RingOp::Pointwise;
    const size_t items = moduli.size();
    rpu_assert(a.size() == items && b.size() == (pointwise ? items : 0),
               "operand item counts do not match %zu moduli items",
               items);

    // Region layout per tower: x for the transforms, a then b for a
    // PointwiseMulBatched pair — the group kernels' input order.
    groupInputs.resize(groupModuli.size());
    groupOutputs.resize(groupModuli.size());
    itemTowers.reserve(items);
    size_t flat = 0;
    for (size_t i = 0; i < items; ++i) {
        const size_t towers = moduli[i].size();
        rpu_assert(a[i].size() == towers &&
                       (!pointwise || b[i].size() == towers),
                   "tower count mismatch in item %zu", i);
        itemTowers.push_back(towers);
        for (size_t t = 0; t < towers; ++t, ++flat) {
            auto &in = groupInputs[flat / kMaxBatchedTowers];
            in.push_back(std::move(a[i][t]));
            if (pointwise)
                in.push_back(std::move(b[i][t]));
        }
    }
}

void
DispatchTiles::launch(RpuDevice &dev, uint64_t n,
                      const std::vector<size_t> &which,
                      const NttCodegenOptions &opts)
{
    std::vector<LaunchRequest> batch(which.size());
    for (size_t j = 0; j < which.size(); ++j) {
        const size_t g = which[j];
        batch[j].image = &dev.kernel(kind, n, groupModuli[g], opts);
        batch[j].inputs = std::move(groupInputs[g]);
    }
    auto results = dev.launchAll(batch);
    for (size_t j = 0; j < which.size(); ++j)
        groupOutputs[which[j]] = std::move(results[j]);
}

TowerItems
DispatchTiles::reassemble()
{
    // Every group returns one region per tower, in tile order, so the
    // flat output sequence cuts back at the item boundaries.
    TowerItems out(itemTowers.size());
    size_t g = 0, r = 0;
    for (size_t i = 0; i < itemTowers.size(); ++i) {
        out[i].reserve(itemTowers[i]);
        for (size_t t = 0; t < itemTowers[i]; ++t) {
            while (g < groupOutputs.size() && r == groupOutputs[g].size()) {
                ++g;
                r = 0;
            }
            rpu_assert(g < groupOutputs.size(),
                       "tile groups returned fewer regions than towers");
            out[i].push_back(std::move(groupOutputs[g][r++]));
        }
    }
    return out;
}

} // namespace rpu
