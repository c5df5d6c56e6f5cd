#include "sim/cycle/pipelines.hh"

#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "sim/functional/executor.hh"

namespace rpu {

uint64_t
bankBeats(AddrMode mode, unsigned value, unsigned banks)
{
    // Count how many (distinct, for REPEATED) words each bank serves;
    // the slowest bank sets the beat count. Word w lives in bank
    // w % banks (low-order interleaving).
    std::vector<uint32_t> per_bank(banks, 0);
    uint64_t prev_off = ~uint64_t(0);
    for (unsigned lane = 0; lane < arch::kVectorLength; ++lane) {
        const uint64_t off =
            FunctionalSimulator::laneOffset(mode, value, lane);
        if (mode == AddrMode::REPEATED && off == prev_off)
            continue; // same word replicated: one physical read
        prev_off = off;
        ++per_bank[off % banks];
    }
    uint32_t worst = 1;
    for (uint32_t c : per_bank)
        worst = std::max(worst, c);
    return worst;
}

uint64_t
instrBeats(const Instruction &instr, const RpuConfig &cfg)
{
    const uint64_t lane_groups =
        divCeil(arch::kVectorLength, cfg.numHples);
    switch (instr.pipeClass()) {
      case InstrClass::Compute: {
        const bool uses_multiplier = instr.op == Opcode::VMULMOD ||
                                     instr.op == Opcode::VSMULMOD;
        return lane_groups * (uses_multiplier ? cfg.mulII : 1);
      }
      case InstrClass::Shuffle:
        return lane_groups;
      case InstrClass::LoadStore:
        switch (instr.op) {
          case Opcode::VLOAD:
          case Opcode::VSTORE:
            return bankBeats(instr.mode, instr.modeValue, cfg.numBanks);
          case Opcode::VBCAST:
            return lane_groups;
          default:
            return 1; // SLOAD / MLOAD / ALOAD
        }
    }
    rpu_panic("unknown pipeline class");
}

uint64_t
BeatTable::beats(const Instruction &instr)
{
    const bool vector_mem =
        instr.op == Opcode::VLOAD || instr.op == Opcode::VSTORE;
    if (!vector_mem || unsigned(instr.mode) >= kModes ||
        instr.modeValue >= kModeValues)
        return instrBeats(instr, cfg_);
    uint64_t &b =
        bank_beats_[unsigned(instr.mode) * kModeValues + instr.modeValue];
    if (b == 0)
        b = bankBeats(instr.mode, instr.modeValue, cfg_.numBanks);
    return b;
}

uint64_t
instrLatency(const Instruction &instr, const RpuConfig &cfg)
{
    switch (instr.pipeClass()) {
      case InstrClass::Compute:
        if (instr.isButterfly())
            return cfg.mulLatency + cfg.addLatency;
        if (instr.op == Opcode::VMULMOD || instr.op == Opcode::VSMULMOD)
            return cfg.mulLatency;
        return cfg.addLatency;
      case InstrClass::Shuffle:
        return cfg.shuffleLatency;
      case InstrClass::LoadStore:
        switch (instr.op) {
          case Opcode::VLOAD:
          case Opcode::VSTORE:
            return cfg.lsLatency;
          case Opcode::VBCAST:
            return cfg.sdmLatency + cfg.lsLatency;
          default:
            return cfg.sdmLatency;
        }
    }
    rpu_panic("unknown pipeline class");
}

} // namespace rpu
