#include "codegen/scheduler.hh"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/logging.hh"
#include "sim/cycle/busyboard.hh"
#include "sim/cycle/pipelines.hh"
#include "sim/functional/executor.hh"

namespace rpu {

namespace {

/** Word-offset interval a vector memory access touches. */
struct MemRange
{
    uint8_t areg;
    uint64_t lo;
    uint64_t hi; ///< inclusive

    bool
    overlaps(const MemRange &o) const
    {
        return areg == o.areg && lo <= o.hi && o.lo <= hi;
    }
};

MemRange
rangeOf(const Instruction &instr)
{
    // Lane offsets are non-decreasing in the lane in every addressing
    // mode, so the last lane reaches furthest.
    constexpr unsigned kLast = arch::kVectorLength - 1;
    const uint64_t max_off =
        FunctionalSimulator::laneOffset(instr.mode, instr.modeValue, kLast);
    const uint64_t hi = instr.address + max_off;
    // Past VALUE 55 a stride wraps the 64-bit offset (an access no
    // VDM can serve); order it against every access through its ARF
    // register.
    const bool wraps = (instr.mode == AddrMode::STRIDED &&
                        (max_off >> instr.modeValue) != kLast) ||
                       hi < instr.address;
    if (wraps)
        return {instr.rm, 0, ~uint64_t(0)};
    return {instr.rm, instr.address, hi};
}

} // namespace

Program
scheduleProgram(const Program &prog, const RpuConfig &cfg)
{
    const size_t n = prog.size();

    // The dependence graph in compressed rows. Every edge points into
    // the instruction being scanned, so predecessors arrive grouped by
    // target; the successor rows are derived from them afterwards.
    std::vector<uint32_t> preds;
    std::vector<uint32_t> pred_begin(n + 1, 0);

    const auto add_edge = [&](uint32_t from, uint32_t to) {
        // Self-dependences (e.g. a butterfly writing one register
        // twice) are intra-instruction and never constrain ordering.
        if (from == to)
            return;
        preds.push_back(from);
    };

    // Register dependences across all four register files.
    constexpr unsigned kClasses = 4;
    constexpr unsigned kRegs = 64;
    std::vector<int64_t> last_write(kClasses * kRegs, -1);
    std::vector<std::vector<uint32_t>> readers_since(kClasses * kRegs);

    // Memory dependences (VDM only; SDM is read-only in kernels).
    std::vector<std::pair<MemRange, uint32_t>> stores, loads;

    for (uint32_t i = 0; i < n; ++i) {
        pred_begin[i] = uint32_t(preds.size());
        const Instruction &instr = prog[i];
        const RegUse use = regUses(instr);

        for (unsigned r = 0; r < use.numReads; ++r) {
            const unsigned slot =
                unsigned(use.reads[r].cls) * kRegs + use.reads[r].idx;
            if (last_write[slot] >= 0)
                add_edge(uint32_t(last_write[slot]), i); // RAW
            readers_since[slot].push_back(i);
        }
        for (unsigned w = 0; w < use.numWrites; ++w) {
            const unsigned slot =
                unsigned(use.writes[w].cls) * kRegs + use.writes[w].idx;
            if (last_write[slot] >= 0)
                add_edge(uint32_t(last_write[slot]), i); // WAW
            for (uint32_t reader : readers_since[slot]) {
                if (reader != i)
                    add_edge(reader, i); // WAR
            }
            last_write[slot] = i;
            readers_since[slot].clear();
        }

        if (instr.op == Opcode::VLOAD) {
            const MemRange r = rangeOf(instr);
            for (const auto &[sr, si] : stores) {
                if (r.overlaps(sr))
                    add_edge(si, i);
            }
            loads.emplace_back(r, i);
        } else if (instr.op == Opcode::VSTORE) {
            const MemRange r = rangeOf(instr);
            for (const auto &[sr, si] : stores) {
                if (r.overlaps(sr))
                    add_edge(si, i);
            }
            for (const auto &[lr, li] : loads) {
                if (r.overlaps(lr))
                    add_edge(li, i);
            }
            stores.emplace_back(r, i);
        }
    }
    pred_begin[n] = uint32_t(preds.size());

    std::vector<uint32_t> succ_begin(n + 1, 0);
    for (uint32_t p : preds)
        ++succ_begin[p + 1];
    for (size_t i = 0; i < n; ++i)
        succ_begin[i + 1] += succ_begin[i];
    std::vector<uint32_t> succs(preds.size());
    {
        std::vector<uint32_t> next(succ_begin.begin(), succ_begin.end() - 1);
        for (uint32_t i = 0; i < n; ++i) {
            for (uint32_t e = pred_begin[i]; e < pred_begin[i + 1]; ++e)
                succs[next[preds[e]]++] = i;
        }
    }

    // Critical-path priorities, weighted by each instruction's
    // occupancy + latency at the target design point. Program order is
    // topological (edges only point forward), so one reverse sweep
    // suffices.
    std::vector<uint64_t> prio(n, 0);
    std::vector<uint64_t> beats(n), latency(n);
    BeatTable beat_table(cfg);
    for (size_t i = n; i-- > 0;) {
        beats[i] = beat_table.beats(prog[i]);
        latency[i] = instrLatency(prog[i], cfg);
        uint64_t best = 0;
        for (uint32_t e = succ_begin[i]; e < succ_begin[i + 1]; ++e)
            best = std::max(best, prio[succs[e]]);
        prio[i] = best + beats[i] + latency[i];
    }

    // Timing-aware greedy list scheduling. Because the RPU front-end
    // is in-order and stalls whole on a busyboard hit, the emitted
    // ORDER determines performance: an instruction placed before its
    // producer completes stalls everything behind it. We therefore
    // simulate dispatch as we pick: among ready instructions, choose
    // the one whose dependences resolve earliest (ties broken by the
    // longer critical path), and advance a small timing model of the
    // front-end and the three pipelines.
    std::vector<uint64_t> completion(n, 0);
    std::vector<uint32_t> pred_count(n);
    for (size_t i = 0; i < n; ++i)
        pred_count[i] = pred_begin[i + 1] - pred_begin[i];
    std::vector<uint64_t> dep_ready(n, 0);

    // Ready pool keyed by (dep_ready, -prio, index): cheapest
    // dependence-resolution first. Entries are re-keyed lazily: a
    // stale key only ever *underestimates* dep_ready, so we re-check
    // on pop.
    struct Key
    {
        uint64_t ready;
        uint64_t prio;
        uint32_t idx;

        bool
        operator>(const Key &o) const
        {
            if (ready != o.ready)
                return ready > o.ready;
            if (prio != o.prio)
                return prio < o.prio;
            return idx > o.idx;
        }
    };
    std::priority_queue<Key, std::vector<Key>, std::greater<>> ready;
    for (uint32_t i = 0; i < n; ++i) {
        if (pred_count[i] == 0)
            ready.push({0, prio[i], i});
    }

    uint64_t front_cycle = 0;
    uint64_t pipe_free[3] = {0, 0, 0};

    Program out(prog.name());
    out.instructions().reserve(n);
    size_t emitted = 0;
    while (!ready.empty()) {
        Key top = ready.top();
        ready.pop();
        if (top.ready < dep_ready[top.idx]) {
            top.ready = dep_ready[top.idx];
            ready.push(top);
            continue;
        }
        const uint32_t i = top.idx;
        out.append(prog[i]);
        ++emitted;

        // Advance the timing model: dispatch stalls until the
        // dependences complete, then the instruction issues when its
        // pipeline frees up.
        const unsigned pipe = unsigned(prog[i].pipeClass());
        const uint64_t dispatch =
            std::max(front_cycle + 1, dep_ready[i]);
        const uint64_t issue = std::max(dispatch, pipe_free[pipe]);
        completion[i] = issue + beats[i] + latency[i];
        pipe_free[pipe] = issue + beats[i];
        front_cycle = dispatch;

        for (uint32_t e = succ_begin[i]; e < succ_begin[i + 1]; ++e) {
            const uint32_t s = succs[e];
            dep_ready[s] = std::max(dep_ready[s], completion[i]);
            if (--pred_count[s] == 0)
                ready.push({dep_ready[s], prio[s], s});
        }
    }
    rpu_assert(emitted == n, "scheduler dropped instructions (%zu of %zu)",
               emitted, n);
    return out;
}

} // namespace rpu
