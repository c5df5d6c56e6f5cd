/**
 * @file
 * The three decoupled execution pipelines (paper section IV).
 *
 * Each pipeline owns a FIFO queue fed by the front-end. Execution is
 * fully pipelined: an instruction occupies the pipeline for a number
 * of "beats" (issue cycles) and completes a fixed latency after its
 * last beat; the next queued instruction may start as soon as the
 * previous one's beats have drained, without waiting for completion.
 *
 * Beat counts model the structural width of each backend component:
 *  - compute: ceil(VL / HPLEs) element groups, times the multiplier
 *    initiation interval for multiplying instructions;
 *  - shuffle: ceil(VL / HPLEs) (the SBAR moves one word per VRF slice
 *    per cycle);
 *  - load/store: the maximum number of words any single VDM bank must
 *    serve, derived from the exact addressing pattern (one word per
 *    bank per cycle through the VBAR).
 */

#ifndef RPU_SIM_CYCLE_PIPELINES_HH
#define RPU_SIM_CYCLE_PIPELINES_HH

#include <array>
#include <cstdint>
#include <deque>

#include "isa/instruction.hh"
#include "sim/arch_config.hh"

namespace rpu {

/** Occupancy beats of @p instr on its pipeline under @p cfg. */
uint64_t instrBeats(const Instruction &instr, const RpuConfig &cfg);

/** Completion latency beyond the last beat. */
uint64_t instrLatency(const Instruction &instr, const RpuConfig &cfg);

/**
 * Max words any single bank serves for a 512-lane access with the
 * given addressing mode (the load/store beat count). Exposed for
 * tests and the analytical model.
 */
uint64_t bankBeats(AddrMode mode, unsigned value, unsigned banks);

/**
 * instrBeats for the instructions of one program, with each distinct
 * load/store addressing pattern's bank count computed once. Holds
 * only per-program state: make one per program and design point.
 */
class BeatTable
{
  public:
    explicit BeatTable(const RpuConfig &cfg) : cfg_(cfg) {}

    uint64_t beats(const Instruction &instr);

  private:
    static constexpr unsigned kModes = 4;
    static constexpr unsigned kModeValues = 64;

    const RpuConfig &cfg_;
    /** bankBeats per (mode, value); 0 = not computed yet. */
    std::array<uint64_t, kModes * kModeValues> bank_beats_{};
};

/** One decoupled pipeline: FIFO queue + pipelined execution. */
class Pipeline
{
  public:
    explicit Pipeline(unsigned queue_depth) : depth_(queue_depth) {}

    bool queueFull() const { return queue_.size() >= depth_; }
    bool queueEmpty() const { return queue_.empty(); }

    /** Enqueue a dispatched instruction (id = program index). */
    void
    enqueue(uint32_t id, uint64_t beats)
    {
        queue_.push_back({id, beats});
    }

    /**
     * If the pipeline front is free this cycle, start the queue head.
     * Returns true and fills @p id / @p beats when an instruction
     * issued.
     */
    bool
    tryIssue(uint64_t now, uint32_t &id, uint64_t &beats)
    {
        if (queue_.empty() || now < free_at_)
            return false;
        id = queue_.front().id;
        beats = queue_.front().beats;
        queue_.pop_front();
        free_at_ = now + beats;
        return true;
    }

    bool busy(uint64_t now) const { return now < free_at_; }

    /** First cycle the queue head may issue. */
    uint64_t freeAt() const { return free_at_; }

  private:
    struct Entry
    {
        uint32_t id;
        uint64_t beats;
    };

    std::deque<Entry> queue_;
    uint64_t free_at_ = 0;
    unsigned depth_;
};

} // namespace rpu

#endif // RPU_SIM_CYCLE_PIPELINES_HH
