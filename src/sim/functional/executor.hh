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

#include "common/logging.hh"
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
 * cost is paid once, not per launch). Thread-safe: concurrent
 * dispatchers and the devices of a topology execute launches at the
 * same time, and every one of them goes through the shared cache.
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
 * Executes B512 programs against a BasicArchState<Word>.
 *
 * Lane arithmetic: the u128 simulator runs every compute op through
 * the exact per-lane Modulus loop, the reference semantics. The loop
 * works on a local copy of the modulus, so lane stores cannot alias
 * its constants, and a full-width modulus (every 128-bit NTT prime)
 * takes mul()'s shift-free branch. The u64 simulator, with narrow
 * lanes active (RPU_HOST_SIMD) and a modulus in the narrow-kernel
 * domain, runs the vectorised simd:: kernels in place on the register
 * file when every source lane is canonical, and the same exact loop
 * otherwise; a lane result of 2^64 or more is truncated and recorded
 * (BasicArchState::truncated()).
 *
 * Lane-wise aliasing rule: a destination register may alias any of
 * its instruction's sources, and the result is what hardware with
 * read-before-write register file timing produces, computed from the
 * sources as they stood before the instruction. Compute ops get this
 * without copying registers because lane i of every destination
 * depends only on lane i of the sources: each lane reads all its
 * sources before it writes. The one exception is the u64 butterfly
 * kernel, which forbids its outputs to alias its inputs, so an
 * aliased butterfly builds its results in scratch registers. When a
 * butterfly's two destinations coincide, the difference lands last.
 * Shuffles move values across lanes, so they build their result in a
 * scratch register, but only when the destination aliases a source.
 */
template <typename Word>
class BasicFunctionalSimulator
{
  public:
    using State = BasicArchState<Word>;

    explicit BasicFunctionalSimulator(State &state) : state_(state) {}

    /** Share a modulus-context cache owned by the caller. */
    BasicFunctionalSimulator(State &state, ModulusContextCache &shared)
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
    static uint64_t
    laneOffset(AddrMode mode, unsigned value, unsigned lane)
    {
        // Every shift below is by value; the 6-bit VALUE field keeps
        // it under the word width.
        rpu_assert(value < 64, "mode value %u exceeds 6 bits", value);
        switch (mode) {
          case AddrMode::CONTIGUOUS:
            return lane;
          case AddrMode::STRIDED:
            return uint64_t(lane) << value;
          case AddrMode::STRIDED_SKIP: {
            // Runs of 2^value consecutive words, skipping the next
            // 2^value.
            const uint64_t run = uint64_t(1) << value;
            return (lane / run) * 2 * run + (lane % run);
          }
          case AddrMode::REPEATED:
            return uint64_t(lane) >> value;
        }
        rpu_panic("unknown addressing mode");
    }

  private:
    /**
     * The context for @p q. Resolved pointers are memoized per
     * simulator so the shared cache's lock is taken O(distinct
     * moduli) per launch, not once per compute instruction —
     * concurrent launches would otherwise serialize on it.
     */
    const Modulus &modulusFor(u128 q);

    void execLoadStore(const Instruction &instr);
    void execVload(const Instruction &instr);
    void execVstore(const Instruction &instr);
    void execCompute(const Instruction &instr);
    void execShuffle(const Instruction &instr);

    State &state_;
    FunctionalCounts counts_;

    /** Per-simulator fallback cache when no shared one is supplied. */
    ModulusContextCache modulus_cache_;
    ModulusContextCache *shared_cache_ = nullptr;

    /** Lock-free memo of contexts this simulator already resolved. */
    std::map<u128, const Modulus *> resolved_;
};

extern template class BasicFunctionalSimulator<uint64_t>;
extern template class BasicFunctionalSimulator<u128>;

/** The simulator of the architectural 128-bit-lane state. */
using FunctionalSimulator = BasicFunctionalSimulator<u128>;

} // namespace rpu

#endif // RPU_SIM_FUNCTIONAL_EXECUTOR_HH
