/**
 * @file
 * Architectural state of the RPU: data memories and register files.
 *
 * The host-facing accessors model the paper's "launch code", which
 * converts host data structures into scratchpad-based data structures
 * before a kernel runs (paper section V).
 */

#ifndef RPU_SIM_FUNCTIONAL_STATE_HH
#define RPU_SIM_FUNCTIONAL_STATE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "sim/arch_config.hh"

namespace rpu {

/**
 * All architecturally visible RPU state.
 *
 * Dirty-range contract: a state can be reused across launches. Every
 * mutable path into VDM (writeVdm, loadVdm, vdmSpanForWrite) widens
 * one recorded VDM word range, and every non-const vreg() marks its
 * register written. reset() zeroes exactly that range and those
 * registers, plus all of SDM and the scalar, address and modulus
 * register files (small enough to clear outright), which leaves the
 * state indistinguishable from a freshly constructed one. Writes
 * through a pointer or reference obtained from these accessors must
 * stay inside what the accessor recorded.
 */
class ArchState
{
  public:
    /** Allocate memories; @p vdm_bytes defaults to the 4 MiB design. */
    explicit ArchState(size_t vdm_bytes = arch::kVdmDefaultBytes);

    /** Return to the all-zero state of construction (see above). */
    void reset();

    // -- Vector data memory (word addressed, 128b words) ---------------

    size_t vdmWords() const { return vdm_.size(); }
    u128 readVdm(uint64_t word_addr) const;
    void writeVdm(uint64_t word_addr, u128 value);

    /** Bulk host copy-in starting at @p word_addr. */
    void loadVdm(uint64_t word_addr, const std::vector<u128> &data);

    /** Bulk host copy-out of @p count words. */
    std::vector<u128> dumpVdm(uint64_t word_addr, size_t count) const;

    /**
     * Words [word_addr, word_addr + count) for bulk access, or
     * nullptr when any of them lies outside VDM. The check cannot
     * wrap, so callers may fall back to word-at-a-time access (and
     * its fault) on nullptr.
     */
    const u128 *vdmSpan(uint64_t word_addr, uint64_t count) const;

    /** Writable vdmSpan(); records the whole window as dirty. */
    u128 *vdmSpanForWrite(uint64_t word_addr, uint64_t count);

    // -- Scalar data memory ---------------------------------------------

    u128 readSdm(uint64_t word_addr) const;
    void writeSdm(uint64_t word_addr, u128 value);

    // -- Register files --------------------------------------------------

    /** One full 512-lane vector register. */
    using Vreg = std::array<u128, arch::kVectorLength>;

    const Vreg &vreg(unsigned idx) const { return vrf_.at(idx); }

    /** Writable register; marks it dirty (read through the const form). */
    Vreg &
    vreg(unsigned idx)
    {
        Vreg &reg = vrf_.at(idx);
        dirty_vregs_ |= uint64_t(1) << idx;
        return reg;
    }

    u128 sreg(unsigned idx) const { return srf_.at(idx); }
    void setSreg(unsigned idx, u128 v) { srf_.at(idx) = v; }

    uint64_t areg(unsigned idx) const { return arf_.at(idx); }
    void setAreg(unsigned idx, uint64_t v) { arf_.at(idx) = v; }

    u128 mreg(unsigned idx) const { return mrf_.at(idx); }
    void setMreg(unsigned idx, u128 v) { mrf_.at(idx) = v; }

  private:
    static_assert(arch::kNumVregs <= 64, "dirty mask is one u64");

    /** True when [word_addr, word_addr + count) lies inside VDM. */
    bool vdmInBounds(uint64_t word_addr, uint64_t count) const;

    /** Widen the dirty VDM range to cover [lo, hi). */
    void markVdmDirty(uint64_t lo, uint64_t hi);

    std::vector<u128> vdm_;
    std::vector<u128> sdm_;
    std::vector<Vreg> vrf_;
    std::vector<u128> srf_;
    std::vector<uint64_t> arf_;
    std::vector<u128> mrf_;

    /** VDM words [dirty_lo_, dirty_hi_) may be nonzero; empty if equal. */
    uint64_t dirty_lo_ = 0;
    uint64_t dirty_hi_ = 0;
    /** Bit i set: vreg i may be nonzero. */
    uint64_t dirty_vregs_ = 0;
};

} // namespace rpu

#endif // RPU_SIM_FUNCTIONAL_STATE_HH
