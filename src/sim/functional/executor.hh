/**
 * @file
 * Functional (bit-exact, untimed) B512 simulator.
 *
 * Mirrors the paper's "functional simulator implemented in C++ to
 * verify the generated code" (section V). Every generated program in
 * this repository is checked through this executor against the
 * reference NTT before any cycle-level results are reported.
 */

#ifndef RPU_SIM_FUNCTIONAL_EXECUTOR_HH
#define RPU_SIM_FUNCTIONAL_EXECUTOR_HH

#include <cstdint>
#include <map>
#include <mutex>

#include "isa/program.hh"
#include "modmath/modulus.hh"
#include "sim/functional/state.hh"

namespace rpu {

/** Dynamic operation counters (feed the energy model cross-checks). */
struct FunctionalCounts
{
    uint64_t instructions = 0;
    uint64_t laneMuls = 0;    ///< modular multiplier activations
    uint64_t laneAdds = 0;    ///< modular adder/subtractor activations
    uint64_t vdmWordsRead = 0;
    uint64_t vdmWordsWritten = 0;
    uint64_t sdmWordsRead = 0;
    uint64_t shuffleWords = 0;
};

/**
 * Modulus contexts are worth building once; launches that share a
 * modulus should share a cache (RpuDevice owns one per device so the
 * cost is paid once, not per launch). Thread-safe: a multi-worker
 * device executes launches concurrently, and every one of them goes
 * through the shared cache.
 */
class ModulusContextCache
{
  public:
    /**
     * The context for @p q, built on first use. References stay valid
     * for the cache's lifetime (node-based storage, entries are never
     * evicted).
     */
    const Modulus &
    get(u128 q)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(q);
        if (it == map_.end())
            it = map_.emplace(q, Modulus(q)).first;
        return it->second;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::map<u128, Modulus> map_;
};

/**
 * Executes B512 programs against an ArchState.
 *
 * Lane-wise aliasing rule: a destination register may alias any of
 * its instruction's sources, and the result is what hardware with
 * read-before-write register file timing produces, computed from the
 * sources as they stood before the instruction. Compute ops get this
 * without copying registers because lane i of every destination
 * depends only on lane i of the sources: each lane reads all its
 * sources before it writes (the narrow u64 path copies every source
 * into its own buffer first). When a butterfly's two destinations
 * coincide, the difference lands last. Shuffles move values across
 * lanes, so they build their result in a scratch register, but only
 * when the destination aliases a source.
 */
class FunctionalSimulator
{
  public:
    explicit FunctionalSimulator(ArchState &state) : state_(state) {}

    /** Share a modulus-context cache owned by the caller. */
    FunctionalSimulator(ArchState &state, ModulusContextCache &shared)
        : state_(state), shared_cache_(&shared)
    {
    }

    /** Execute one instruction. */
    void step(const Instruction &instr);

    /** Execute a whole program front to back. */
    void run(const Program &prog);

    const FunctionalCounts &counts() const { return counts_; }
    void resetCounts() { counts_ = FunctionalCounts(); }

    /**
     * Word offset of lane @p lane under an addressing mode, relative
     * to the effective base. Shared with the cycle simulator's bank
     * model so timing and semantics can never diverge.
     */
    static uint64_t laneOffset(AddrMode mode, unsigned value,
                               unsigned lane);

  private:
    /**
     * The context for @p q. Resolved pointers are memoized per
     * simulator so the shared cache's lock is taken O(distinct
     * moduli) per launch, not once per compute instruction — workers
     * running concurrent launches would otherwise serialize on it.
     */
    const Modulus &modulusFor(u128 q);

    void execLoadStore(const Instruction &instr);
    void execVload(const Instruction &instr);
    void execVstore(const Instruction &instr);
    void execCompute(const Instruction &instr);
    void execShuffle(const Instruction &instr);

    ArchState &state_;
    FunctionalCounts counts_;

    /** Per-simulator fallback cache when no shared one is supplied. */
    ModulusContextCache modulus_cache_;
    ModulusContextCache *shared_cache_ = nullptr;

    /** Lock-free memo of contexts this simulator already resolved. */
    std::map<u128, const Modulus *> resolved_;
};

} // namespace rpu

#endif // RPU_SIM_FUNCTIONAL_EXECUTOR_HH
