#include "sim/cycle/simulator.hh"

#include <algorithm>
#include <queue>
#include <sstream>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "sim/cycle/frontend.hh"

namespace rpu {

namespace {

/** Structural access accounting for one executed instruction. */
void
countAccesses(const Instruction &instr, CycleStats &s)
{
    constexpr uint64_t VL = arch::kVectorLength;
    switch (instr.op) {
      case Opcode::VLOAD:
        s.vdmWordsRead += VL;
        s.vbarWords += VL;
        s.vrfWordWrites += VL;
        break;
      case Opcode::VSTORE:
        s.vrfWordReads += VL;
        s.vbarWords += VL;
        s.vdmWordsWritten += VL;
        break;
      case Opcode::VBCAST:
        s.sdmReads += 1;
        s.vrfWordWrites += VL;
        break;
      case Opcode::SLOAD:
      case Opcode::MLOAD:
      case Opcode::ALOAD:
        s.sdmReads += 1;
        break;
      case Opcode::VADDMOD:
      case Opcode::VSUBMOD:
        s.vrfWordReads += 2 * VL;
        s.vrfWordWrites += VL;
        s.addLaneOps += VL;
        break;
      case Opcode::VMULMOD:
        if (instr.bfly) {
            s.vrfWordReads += 3 * VL;
            s.vrfWordWrites += 2 * VL;
            s.mulLaneOps += VL;
            s.addLaneOps += 2 * VL;
        } else {
            s.vrfWordReads += 2 * VL;
            s.vrfWordWrites += VL;
            s.mulLaneOps += VL;
        }
        break;
      case Opcode::VSADDMOD:
      case Opcode::VSSUBMOD:
        s.vrfWordReads += VL;
        s.vrfWordWrites += VL;
        s.addLaneOps += VL;
        break;
      case Opcode::VSMULMOD:
        s.vrfWordReads += VL;
        s.vrfWordWrites += VL;
        s.mulLaneOps += VL;
        break;
      case Opcode::UNPKLO:
      case Opcode::UNPKHI:
      case Opcode::PKLO:
      case Opcode::PKHI:
        s.vrfWordReads += 2 * VL;
        s.vrfWordWrites += VL;
        s.sbarWords += VL;
        break;
    }
}

} // namespace

CycleStats
simulateCycles(const Program &prog, const RpuConfig &cfg)
{
    cfg.validate();
    if (prog.size() > arch::kImMaxInstrs)
        rpu_fatal("program '%s' exceeds the 512 KiB instruction memory",
                  prog.name().c_str());

    CycleStats stats;
    stats.mix = prog.mix();
    stats.instructions = prog.size();
    if (prog.empty())
        return stats;

    Frontend frontend(prog, cfg);
    Busyboard busyboard(cfg.exclusiveReaders);
    Pipeline ls_pipe(cfg.queueDepth);
    Pipeline compute_pipe(cfg.queueDepth);
    Pipeline shuffle_pipe(cfg.queueDepth);

    // Completion events: (cycle, instruction index), soonest first.
    using Event = std::pair<uint64_t, uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> inflight;

    uint64_t now = 0;
    uint64_t retired = 0;
    // A generous progress guard: every instruction must retire within
    // this many cycles of simulation or the model has deadlocked.
    const uint64_t limit = 1000ull * prog.size() *
                               (arch::kVectorLength / cfg.numHples + 1) +
                           1000000ull;

    while (retired < prog.size()) {
        ++now;
        rpu_assert(now < limit, "cycle simulator deadlock in '%s'",
                   prog.name().c_str());

        // 1. Retire instructions completing by this cycle, releasing
        //    their busyboard claims.
        bool moved = false;
        while (!inflight.empty() && inflight.top().first <= now) {
            const uint32_t idx = inflight.top().second;
            inflight.pop();
            busyboard.release(frontend.info(idx).use);
            ++retired;
            moved = true;
        }

        // 2. Each pipeline starts its queue head if the previous
        //    occupant's beats have drained.
        const auto pump = [&](Pipeline &pipe, PipeStats &ps) {
            uint32_t idx;
            uint64_t beats;
            if (pipe.tryIssue(now, idx, beats)) {
                const DecodedInfo &d = frontend.info(idx);
                inflight.emplace(now + beats + d.latency, idx);
                ps.instrs += 1;
                ps.busyBeats += beats;
                countAccesses(prog[idx], stats);
                moved = true;
            }
        };
        pump(ls_pipe, stats.ls);
        pump(compute_pipe, stats.compute);
        pump(shuffle_pipe, stats.shuffle);

        // 3. Front-end fetch/decode/dispatch. Every cycle lands in
        //    exactly one attribution bucket: dispatch progress, a
        //    stall reason, or the post-frontend drain tail.
        uint64_t *bucket = &stats.drainCycles;
        if (!frontend.done()) {
            const uint64_t fetched = stats.imFetches;
            const StallReason reason = frontend.dispatchCycle(
                busyboard, ls_pipe, compute_pipe, shuffle_pipe,
                stats.imFetches);
            moved = moved || stats.imFetches != fetched;
            bucket = reason == StallReason::Busyboard
                         ? &stats.busyboardStallCycles
                     : reason == StallReason::QueueFull
                         ? &stats.queueFullStallCycles
                         : &stats.dispatchCycles;
        }
        ++*bucket;

        // 4. A cycle in which nothing retired, issued or dispatched
        //    leaves the state as it found it, and only a completion or
        //    a pipeline freeing up can change it. Every cycle before
        //    the next such event repeats this one, so count them into
        //    the same bucket at once.
        if (!moved) {
            uint64_t next = inflight.empty() ? ~uint64_t(0)
                                             : inflight.top().first;
            for (const Pipeline *pipe :
                 {&ls_pipe, &compute_pipe, &shuffle_pipe}) {
                if (!pipe->queueEmpty())
                    next = std::min(next, pipe->freeAt());
            }
            if (next != ~uint64_t(0) && next > now + 1) {
                *bucket += next - 1 - now;
                now = next - 1;
            }
        }
    }

    stats.cycles = now;
    return stats;
}

uint64_t
cycleLowerBound(const Program &prog, const RpuConfig &cfg)
{
    uint64_t ls_beats = 0, compute_beats = 0, shuffle_beats = 0;
    BeatTable beats(cfg);
    for (const auto &instr : prog.instructions()) {
        const uint64_t b = beats.beats(instr);
        switch (instr.pipeClass()) {
          case InstrClass::LoadStore:
            ls_beats += b;
            break;
          case InstrClass::Compute:
            compute_beats += b;
            break;
          case InstrClass::Shuffle:
            shuffle_beats += b;
            break;
        }
    }
    const uint64_t dispatch_floor =
        divCeil(prog.size(), cfg.dispatchWidth);
    uint64_t bound = std::max({ls_beats, compute_beats, shuffle_beats,
                               dispatch_floor});
    return bound;
}

std::string
CycleStats::report() const
{
    std::ostringstream os;
    os << "cycles: " << cycles << "  instructions: " << instructions
       << "\n";
    os << "front-end: dispatch " << dispatchCycles << ", busyboard stall "
       << busyboardStallCycles << ", queue-full stall "
       << queueFullStallCycles << ", drain " << drainCycles << "\n";
    const auto pct = [&](const PipeStats &p) {
        return cycles == 0 ? 0.0 : 100.0 * double(p.busyBeats) /
                                        double(cycles);
    };
    os << "ls pipeline:      " << ls.instrs << " instrs, " << ls.busyBeats
       << " busy beats (" << pct(ls) << "%)\n";
    os << "compute pipeline: " << compute.instrs << " instrs, "
       << compute.busyBeats << " busy beats (" << pct(compute) << "%)\n";
    os << "shuffle pipeline: " << shuffle.instrs << " instrs, "
       << shuffle.busyBeats << " busy beats (" << pct(shuffle) << "%)\n";
    os << "mix: " << mix.loads << " loads, " << mix.stores << " stores, "
       << mix.broadcasts << " broadcasts, " << mix.compute << " compute ("
       << mix.butterflies << " butterflies), " << mix.shuffles
       << " shuffles\n";
    return os.str();
}

} // namespace rpu
