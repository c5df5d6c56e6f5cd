#include "sim/cycle/frontend.hh"

namespace rpu {

Frontend::Frontend(const Program &prog, const RpuConfig &cfg)
    : prog_(prog), cfg_(cfg)
{
    infos_.reserve(prog.size());
    BeatTable beats(cfg);
    for (const auto &instr : prog.instructions()) {
        DecodedInfo d;
        d.use = regUses(instr);
        d.beats = beats.beats(instr);
        d.latency = instrLatency(instr, cfg);
        d.cls = instr.pipeClass();
        infos_.push_back(d);
    }
}

StallReason
Frontend::dispatchCycle(Busyboard &bb, Pipeline &ls, Pipeline &compute,
                        Pipeline &shuffle, uint64_t &fetched)
{
    for (unsigned slot = 0; slot < cfg_.dispatchWidth; ++slot) {
        if (done())
            return StallReason::None;
        const DecodedInfo &d = infos_[pc_];
        if (!bb.canIssue(d.use))
            return StallReason::Busyboard;
        Pipeline &pipe = d.cls == InstrClass::LoadStore ? ls
                         : d.cls == InstrClass::Compute ? compute
                                                        : shuffle;
        if (pipe.queueFull())
            return StallReason::QueueFull;
        bb.acquire(d.use);
        pipe.enqueue(pc_, d.beats);
        ++fetched;
        ++pc_;
    }
    return StallReason::None;
}

} // namespace rpu
