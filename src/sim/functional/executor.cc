#include "sim/functional/executor.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "modmath/simd.hh"

namespace rpu {

namespace {

constexpr unsigned VL = arch::kVectorLength;

/**
 * The narrow lane kernels are exact only for canonical inputs: a lane
 * value >= q would be truncated by the u64 cast, whereas the u128
 * path reduces it exactly. Well-formed programs only ever put
 * canonical residues in vector registers, but the bit-identity
 * contract between RPU_HOST_SIMD modes must hold for any program, so
 * verify before narrowing and fall back to the u128 loop otherwise.
 */
bool
narrowLanes(const u128 *v, u128 q, uint64_t *out)
{
    for (unsigned i = 0; i < VL; ++i) {
        if (v[i] >= q)
            return false;
        out[i] = uint64_t(v[i]);
    }
    return true;
}

void
widenLanes(const uint64_t *v, u128 *out)
{
    for (unsigned i = 0; i < VL; ++i)
        out[i] = v[i];
}

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

} // namespace

uint64_t
FunctionalSimulator::laneOffset(AddrMode mode, unsigned value,
                                unsigned lane)
{
    switch (mode) {
      case AddrMode::CONTIGUOUS:
        return lane;
      case AddrMode::STRIDED:
        return uint64_t(lane) << value;
      case AddrMode::STRIDED_SKIP: {
        // Runs of 2^value consecutive words, skipping the next 2^value.
        const uint64_t run = uint64_t(1) << value;
        return (lane / run) * 2 * run + (lane % run);
      }
      case AddrMode::REPEATED:
        return uint64_t(lane) >> value;
    }
    rpu_panic("unknown addressing mode");
}

const Modulus &
FunctionalSimulator::modulusFor(u128 q)
{
    auto it = resolved_.find(q);
    if (it == resolved_.end()) {
        const Modulus &m =
            (shared_cache_ ? *shared_cache_ : modulus_cache_).get(q);
        it = resolved_.emplace(q, &m).first;
    }
    return *it->second;
}

void
FunctionalSimulator::step(const Instruction &instr)
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

void
FunctionalSimulator::run(const Program &prog)
{
    if (prog.size() > arch::kImMaxInstrs)
        rpu_fatal("program '%s' (%zu instrs) exceeds instruction memory",
                  prog.name().c_str(), prog.size());
    for (const auto &instr : prog.instructions())
        step(instr);
}

void
FunctionalSimulator::execVload(const Instruction &instr)
{
    const AddrMode mode = instr.mode;
    const unsigned value = instr.modeValue;
    const uint64_t base = state_.areg(instr.rm) + instr.address;
    const uint64_t span = accessSpan(mode, value);
    const u128 *src = span ? state_.vdmSpan(base, span) : nullptr;
    u128 *dst = state_.vreg(instr.vd).data();
    if (!src) {
        // Not provably in bounds: word at a time, so the first
        // out-of-range lane faults exactly as it always has.
        for (unsigned i = 0; i < VL; ++i)
            dst[i] = state_.readVdm(base + laneOffset(mode, value, i));
    } else if (mode == AddrMode::CONTIGUOUS) {
        std::copy(src, src + VL, dst);
    } else {
        for (unsigned i = 0; i < VL; ++i)
            dst[i] = src[laneOffset(mode, value, i)];
    }
    counts_.vdmWordsRead += VL;
}

void
FunctionalSimulator::execVstore(const Instruction &instr)
{
    const AddrMode mode = instr.mode;
    const unsigned value = instr.modeValue;
    if (mode == AddrMode::REPEATED)
        rpu_fatal("REPEATED mode is not defined for stores");
    const uint64_t base = state_.areg(instr.rm) + instr.address;
    const uint64_t span = accessSpan(mode, value);
    u128 *dst = span ? state_.vdmSpanForWrite(base, span) : nullptr;
    const u128 *src = std::as_const(state_).vreg(instr.vs).data();
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

void
FunctionalSimulator::execLoadStore(const Instruction &instr)
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
        const u128 v = state_.readSdm(addr);
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

void
FunctionalSimulator::execCompute(const Instruction &instr)
{
    // Sources are read in place through the const view (reads never
    // mark a register dirty); every lane reads all of its sources
    // before it writes, per the aliasing rule in executor.hh.
    const ArchState &in = state_;
    const Modulus &mod = modulusFor(in.mreg(instr.rm));
    const u128 q = mod.value();
    const simd::NarrowModulus *nm =
        simd::narrowLanesActive() ? mod.narrow() : nullptr;
    const u128 *vs = in.vreg(instr.vs).data();

    if (instr.isButterfly()) {
        const u128 *vt = in.vreg(instr.vt).data();
        const u128 *vt1 = in.vreg(instr.vt1).data();
        u128 *sum = state_.vreg(instr.vd).data();
        u128 *diff = state_.vreg(instr.vd1).data();
        uint64_t nx[VL], ny[VL], nw[VL];
        if (nm && narrowLanes(vs, q, nx) && narrowLanes(vt, q, ny) &&
            narrowLanes(vt1, q, nw)) {
            uint64_t ns[VL], nd[VL];
            simd::butterflyMulModSpan(nx, ny, nw, ns, nd, VL, *nm);
            widenLanes(ns, sum);
            widenLanes(nd, diff);
        } else {
            for (unsigned i = 0; i < VL; ++i) {
                const u128 x = vs[i];
                const u128 t = mod.mul(vt1[i], vt[i]);
                sum[i] = mod.add(x, t);
                diff[i] = mod.sub(x, t);
            }
        }
        counts_.laneMuls += VL;
        counts_.laneAdds += 2ull * VL;
        return;
    }

    u128 *out = state_.vreg(instr.vd).data();
    switch (instr.op) {
      case Opcode::VADDMOD:
      case Opcode::VSUBMOD:
      case Opcode::VMULMOD: {
        const u128 *vt = in.vreg(instr.vt).data();
        uint64_t na[VL], nb[VL];
        if (nm && narrowLanes(vs, q, na) && narrowLanes(vt, q, nb)) {
            uint64_t no[VL];
            if (instr.op == Opcode::VADDMOD)
                simd::addModSpan(na, nb, no, VL, nm->q);
            else if (instr.op == Opcode::VSUBMOD)
                simd::subModSpan(na, nb, no, VL, nm->q);
            else
                simd::mulModSpan(na, nb, no, VL, *nm);
            widenLanes(no, out);
        } else if (instr.op == Opcode::VADDMOD) {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = mod.add(vs[i], vt[i]);
        } else if (instr.op == Opcode::VSUBMOD) {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = mod.sub(vs[i], vt[i]);
        } else {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = mod.mul(vs[i], vt[i]);
        }
        break;
      }
      case Opcode::VSADDMOD:
      case Opcode::VSSUBMOD:
      case Opcode::VSMULMOD: {
        const u128 s = in.sreg(instr.rt);
        uint64_t na[VL];
        if (instr.op == Opcode::VSMULMOD && nm && s < q &&
            narrowLanes(vs, q, na)) {
            // Per-instruction Shoup precompute: one 128/64 division
            // amortised over all kVectorLength lanes.
            const uint64_t w = uint64_t(s);
            const uint64_t wShoup = simd::shoupPrecompute64(w, nm->q);
            uint64_t no[VL];
            simd::mulShoupSpan(na, no, VL, w, wShoup, nm->q);
            widenLanes(no, out);
        } else if (instr.op == Opcode::VSADDMOD) {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = mod.add(vs[i], s);
        } else if (instr.op == Opcode::VSSUBMOD) {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = mod.sub(vs[i], s);
        } else {
            for (unsigned i = 0; i < VL; ++i)
                out[i] = mod.mul(vs[i], s);
        }
        break;
      }
      default:
        rpu_panic("not a compute op");
    }

    if (instr.op == Opcode::VMULMOD || instr.op == Opcode::VSMULMOD)
        counts_.laneMuls += VL;
    else
        counts_.laneAdds += VL;
}

void
FunctionalSimulator::execShuffle(const Instruction &instr)
{
    constexpr unsigned H = VL / 2;
    const ArchState &in = state_;
    const u128 *vs = in.vreg(instr.vs).data();
    const u128 *vt = in.vreg(instr.vt).data();

    // Lanes move across the register, so an aliased destination would
    // overwrite sources still to be read: build that result aside.
    const bool aliased = instr.vd == instr.vs || instr.vd == instr.vt;
    ArchState::Vreg scratch;
    u128 *out = aliased ? scratch.data() : state_.vreg(instr.vd).data();

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

} // namespace rpu
