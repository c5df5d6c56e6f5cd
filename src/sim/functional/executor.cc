#include "sim/functional/executor.hh"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "modmath/simd.hh"

namespace rpu {

namespace {

constexpr unsigned VL = arch::kVectorLength;

/**
 * Mode values below this keep every lane offset of a vector access
 * under 2^41, so no offset wraps and base + offset cannot overflow
 * once base is in VDM.
 */
constexpr unsigned kBulkModeValueLimit = 32;

/**
 * The word count [base, base + span) one vector access touches. Lane
 * offsets are monotone in the lane in all four addressing modes and
 * lane 0 sits at offset 0, so the last lane bounds the range. Zero
 * (no bulk access) for mode values where that argument does not hold.
 */
uint64_t
accessSpan(AddrMode mode, unsigned value)
{
    if (value >= kBulkModeValueLimit)
        return 0;
    return FunctionalSimulator::laneOffset(mode, value, VL - 1) + 1;
}

/**
 * All lanes of @p v below @p q, for q < 2^62: an OR-reduced compare,
 * no copy. Baseline x86-64 (SSE2) has no unsigned 64-bit compare, so
 * the compare is written in subtractions and masks that vectorise:
 * v < q exactly when v - q wraps (top bit set) and v < 2^63, since
 * for q <= v < 2^63 the difference stays below 2^63.
 */
bool
canonical(const uint64_t *v, uint64_t q)
{
    uint64_t wrapped = ~uint64_t(0);
    uint64_t any = 0;
    for (unsigned i = 0; i < VL; ++i) {
        wrapped &= v[i] - q;
        any |= v[i];
    }
    return ((wrapped & ~any) >> 63) != 0;
}

/**
 * Run compute op @p instr on the u64 kernels, in place on the
 * register file. False, with nothing written, when the kernels do not
 * cover it: VSADDMOD/VSSUBMOD, a scalar operand >= q, or any source
 * lane >= q (the kernels are exact only on canonical inputs).
 */
bool
narrowCompute(BasicArchState<uint64_t> &state, const Instruction &instr,
              const simd::NarrowModulus &nm)
{
    using Vreg = BasicArchState<uint64_t>::Vreg;
    const BasicArchState<uint64_t> &in = state;
    const uint64_t q = nm.q;
    const uint64_t *vs = in.vreg(instr.vs).data();

    if (instr.isButterfly()) {
        const uint64_t *vt = in.vreg(instr.vt).data();
        const uint64_t *vt1 = in.vreg(instr.vt1).data();
        if (!canonical(vs, q) || !canonical(vt, q) || !canonical(vt1, q))
            return false;
        const auto reads = [&](unsigned r) {
            return r == instr.vs || r == instr.vt || r == instr.vt1;
        };
        if (reads(instr.vd) || reads(instr.vd1) || instr.vd == instr.vd1) {
            // butterflyMulModSpan forbids its outputs to alias its
            // inputs; the difference lands last.
            Vreg sum, diff;
            simd::butterflyMulModSpan(vs, vt, vt1, sum.data(),
                                      diff.data(), VL, nm);
            state.vreg(instr.vd) = sum;
            state.vreg(instr.vd1) = diff;
        } else {
            simd::butterflyMulModSpan(vs, vt, vt1,
                                      state.vreg(instr.vd).data(),
                                      state.vreg(instr.vd1).data(), VL,
                                      nm);
        }
        return true;
    }

    switch (instr.op) {
      case Opcode::VADDMOD:
      case Opcode::VSUBMOD:
      case Opcode::VMULMOD: {
        const uint64_t *vt = in.vreg(instr.vt).data();
        if (!canonical(vs, q) || !canonical(vt, q))
            return false;
        // The span kernels allow out to alias either input.
        uint64_t *out = state.vreg(instr.vd).data();
        if (instr.op == Opcode::VADDMOD)
            simd::addModSpan(vs, vt, out, VL, q);
        else if (instr.op == Opcode::VSUBMOD)
            simd::subModSpan(vs, vt, out, VL, q);
        else
            simd::mulModSpan(vs, vt, out, VL, nm);
        return true;
      }
      case Opcode::VSMULMOD: {
        const u128 s = in.sreg(instr.rt);
        if (s >= q || !canonical(vs, q))
            return false;
        // Per-instruction Shoup precompute: one 128/64 division
        // amortised over all kVectorLength lanes.
        const uint64_t w = uint64_t(s);
        simd::mulShoupSpan(vs, state.vreg(instr.vd).data(), VL, w,
                           simd::shoupPrecompute64(w, q), q);
        return true;
      }
      default:
        return false;
    }
}

} // namespace

template <typename Word>
const Modulus &
BasicFunctionalSimulator<Word>::modulusFor(u128 q)
{
    auto it = resolved_.find(q);
    if (it == resolved_.end()) {
        const Modulus &m =
            (shared_cache_ ? *shared_cache_ : modulus_cache_).get(q);
        it = resolved_.emplace(q, &m).first;
    }
    return *it->second;
}

template <typename Word>
void
BasicFunctionalSimulator<Word>::step(const Instruction &instr)
{
    ++counts_.instructions;
    switch (instr.pipeClass()) {
      case InstrClass::LoadStore:
        execLoadStore(instr);
        break;
      case InstrClass::Compute:
        execCompute(instr);
        break;
      case InstrClass::Shuffle:
        execShuffle(instr);
        break;
    }
}

template <typename Word>
void
BasicFunctionalSimulator<Word>::run(const Program &prog)
{
    if (prog.size() > arch::kImMaxInstrs)
        rpu_fatal("program '%s' (%zu instrs) exceeds instruction memory",
                  prog.name().c_str(), prog.size());
    for (const auto &instr : prog.instructions())
        step(instr);
}

template <typename Word>
void
BasicFunctionalSimulator<Word>::execVload(const Instruction &instr)
{
    const AddrMode mode = instr.mode;
    const unsigned value = instr.modeValue;
    const uint64_t base = state_.areg(instr.rm) + instr.address;
    const uint64_t span = accessSpan(mode, value);
    const Word *src = span ? state_.vdmSpan(base, span) : nullptr;
    Word *dst = state_.vreg(instr.vd).data();
    if (!src) {
        // Not provably in bounds: word at a time, so the first
        // out-of-range lane faults exactly as it always has.
        for (unsigned i = 0; i < VL; ++i)
            dst[i] = Word(
                state_.readVdm(base + laneOffset(mode, value, i)));
    } else if (mode == AddrMode::CONTIGUOUS) {
        std::copy(src, src + VL, dst);
    } else {
        for (unsigned i = 0; i < VL; ++i)
            dst[i] = src[laneOffset(mode, value, i)];
    }
    counts_.vdmWordsRead += VL;
}

template <typename Word>
void
BasicFunctionalSimulator<Word>::execVstore(const Instruction &instr)
{
    const AddrMode mode = instr.mode;
    const unsigned value = instr.modeValue;
    if (mode == AddrMode::REPEATED)
        rpu_fatal("REPEATED mode is not defined for stores");
    const uint64_t base = state_.areg(instr.rm) + instr.address;
    const uint64_t span = accessSpan(mode, value);
    Word *dst = span ? state_.vdmSpanForWrite(base, span) : nullptr;
    const Word *src = std::as_const(state_).vreg(instr.vs).data();
    if (!dst) {
        for (unsigned i = 0; i < VL; ++i)
            state_.writeVdm(base + laneOffset(mode, value, i), src[i]);
    } else if (mode == AddrMode::CONTIGUOUS) {
        std::copy(src, src + VL, dst);
    } else {
        for (unsigned i = 0; i < VL; ++i)
            dst[laneOffset(mode, value, i)] = src[i];
    }
    counts_.vdmWordsWritten += VL;
}

template <typename Word>
void
BasicFunctionalSimulator<Word>::execLoadStore(const Instruction &instr)
{
    switch (instr.op) {
      case Opcode::VLOAD:
        execVload(instr);
        break;
      case Opcode::VSTORE:
        execVstore(instr);
        break;
      case Opcode::VBCAST: {
        const uint64_t addr = state_.areg(instr.rm) + instr.address;
        const Word v = state_.toLane(state_.readSdm(addr));
        state_.vreg(instr.vd).fill(v);
        ++counts_.sdmWordsRead;
        break;
      }
      case Opcode::SLOAD:
        state_.setSreg(instr.rt, state_.readSdm(instr.address));
        ++counts_.sdmWordsRead;
        break;
      case Opcode::MLOAD:
        state_.setMreg(instr.rt, state_.readSdm(instr.address));
        ++counts_.sdmWordsRead;
        break;
      case Opcode::ALOAD:
        state_.setAreg(instr.rt, uint64_t(state_.readSdm(instr.address)));
        ++counts_.sdmWordsRead;
        break;
      default:
        rpu_panic("not a load/store op");
    }
}

template <typename Word>
void
BasicFunctionalSimulator<Word>::execCompute(const Instruction &instr)
{
    if (instr.isButterfly()) {
        counts_.laneMuls += VL;
        counts_.laneAdds += 2ull * VL;
    } else if (instr.op == Opcode::VMULMOD ||
               instr.op == Opcode::VSMULMOD) {
        counts_.laneMuls += VL;
    } else {
        counts_.laneAdds += VL;
    }

    const Modulus &cached = modulusFor(state_.mreg(instr.rm));
    if constexpr (std::is_same_v<Word, uint64_t>) {
        const simd::NarrowModulus *nm =
            simd::narrowLanesActive() ? cached.narrow() : nullptr;
        if (nm && narrowCompute(state_, instr, *nm))
            return;
    }

    // The exact reference loop. Sources are read in place through the
    // const view (reads never mark a register dirty); every lane reads
    // all of its sources before it writes, per the aliasing rule in
    // executor.hh. The modulus is a local copy, so the lane stores
    // cannot alias its constants and force their reload.
    const Modulus mod = cached;
    const State &in = state_;
    const Word *vs = in.vreg(instr.vs).data();
    const auto lane = [this](u128 v) { return state_.toLane(v); };

    if (instr.isButterfly()) {
        const Word *vt = in.vreg(instr.vt).data();
        const Word *vt1 = in.vreg(instr.vt1).data();
        Word *sum = state_.vreg(instr.vd).data();
        Word *diff = state_.vreg(instr.vd1).data();
        for (unsigned i = 0; i < VL; ++i) {
            const u128 x = vs[i];
            const u128 t = mod.mul(vt1[i], vt[i]);
            sum[i] = lane(mod.add(x, t));
            diff[i] = lane(mod.sub(x, t));
        }
        return;
    }

    Word *out = state_.vreg(instr.vd).data();
    switch (instr.op) {
      case Opcode::VADDMOD:
      case Opcode::VSUBMOD:
      case Opcode::VMULMOD: {
        const Word *vt = in.vreg(instr.vt).data();
        if (instr.op == Opcode::VADDMOD) {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = lane(mod.add(vs[i], vt[i]));
        } else if (instr.op == Opcode::VSUBMOD) {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = lane(mod.sub(vs[i], vt[i]));
        } else {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = lane(mod.mul(vs[i], vt[i]));
        }
        break;
      }
      case Opcode::VSADDMOD:
      case Opcode::VSSUBMOD:
      case Opcode::VSMULMOD: {
        const u128 s = in.sreg(instr.rt);
        if (instr.op == Opcode::VSADDMOD) {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = lane(mod.add(vs[i], s));
        } else if (instr.op == Opcode::VSSUBMOD) {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = lane(mod.sub(vs[i], s));
        } else {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = lane(mod.mul(vs[i], s));
        }
        break;
      }
      default:
        rpu_panic("not a compute op");
    }
}

template <typename Word>
void
BasicFunctionalSimulator<Word>::execShuffle(const Instruction &instr)
{
    constexpr unsigned H = VL / 2;
    const State &in = state_;
    const Word *vs = in.vreg(instr.vs).data();
    const Word *vt = in.vreg(instr.vt).data();

    // Lanes move across the register, so an aliased destination would
    // overwrite sources still to be read: build that result aside.
    const bool aliased = instr.vd == instr.vs || instr.vd == instr.vt;
    typename State::Vreg scratch;
    Word *out = aliased ? scratch.data() : state_.vreg(instr.vd).data();

    switch (instr.op) {
      case Opcode::UNPKLO:
        // First halves of VS and VT, interleaved.
        for (unsigned i = 0; i < H; ++i) {
            out[2 * i] = vs[i];
            out[2 * i + 1] = vt[i];
        }
        break;
      case Opcode::UNPKHI:
        // Second halves of VS and VT, interleaved.
        for (unsigned i = 0; i < H; ++i) {
            out[2 * i] = vs[H + i];
            out[2 * i + 1] = vt[H + i];
        }
        break;
      case Opcode::PKLO:
        // Even lanes of VS to the first half, even lanes of VT to the
        // second half.
        for (unsigned i = 0; i < H; ++i) {
            out[i] = vs[2 * i];
            out[H + i] = vt[2 * i];
        }
        break;
      case Opcode::PKHI:
        // Odd lanes likewise.
        for (unsigned i = 0; i < H; ++i) {
            out[i] = vs[2 * i + 1];
            out[H + i] = vt[2 * i + 1];
        }
        break;
      default:
        rpu_panic("not a shuffle op");
    }
    if (aliased)
        state_.vreg(instr.vd) = scratch;
    counts_.shuffleWords += VL;
}

template class BasicFunctionalSimulator<uint64_t>;
template class BasicFunctionalSimulator<u128>;

} // namespace rpu
