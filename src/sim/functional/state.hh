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
#include <type_traits>
#include <vector>

#include "common/random.hh"
#include "sim/arch_config.hh"

namespace rpu {

/**
 * All architecturally visible RPU state, with VDM and vector-register
 * lanes held as @p Word.
 *
 * Lane word: the architecture's lanes are 128 bits wide, and the u128
 * state (ArchState) holds every value exactly. A u64 state holds the
 * lanes of kernels whose values fit in 64 bits (every modulus below
 * 2^62) in half the bytes. Every value that enters a u64 lane (toLane)
 * keeps its low 64 bits, and the state records whether any value lost
 * bits (truncated()); until it does, the u64 state holds exactly
 * what the u128 state would. SDM and the scalar, address and modulus
 * registers are u128 in both. VDM capacity is architectural either
 * way: kWordBytes bytes per word.
 *
 * Dirty-range contract: a state can be reused across launches. Every
 * mutable path into VDM (writeVdm, loadVdm, vdmSpanForWrite) widens
 * one recorded VDM word range, and every non-const vreg() marks its
 * register written. reset() zeroes exactly that range and those
 * registers, plus all of SDM and the scalar, address and modulus
 * register files (small enough to clear outright), and clears the
 * truncation record, which leaves the state indistinguishable from a
 * freshly constructed one. Writes through a pointer or reference
 * obtained from these accessors must stay inside what the accessor
 * recorded.
 */
template <typename Word>
class BasicArchState
{
    static_assert(std::is_same_v<Word, uint64_t> ||
                      std::is_same_v<Word, u128>,
                  "lanes are u64 or u128");

  public:
    /** Allocate memories; @p vdm_bytes defaults to the 4 MiB design. */
    explicit BasicArchState(size_t vdm_bytes = arch::kVdmDefaultBytes);

    /** Return to the all-zero state of construction (see above). */
    void reset();

    /**
     * @p v as a lane value: v itself when it fits in Word, else its
     * low bits, recording the truncation.
     */
    Word
    toLane(u128 v)
    {
        if constexpr (std::is_same_v<Word, u128>) {
            return v;
        } else {
            truncated_ |= (v >> 64) != 0;
            return Word(v);
        }
    }

    /** True once a value lost bits entering a lane (never at u128). */
    bool truncated() const { return truncated_; }

    // -- Vector data memory (word addressed) ----------------------------

    size_t vdmWords() const { return vdm_.size(); }
    u128 readVdm(uint64_t word_addr) const;
    void writeVdm(uint64_t word_addr, u128 value);

    /** Bulk host copy-in starting at @p word_addr (lanes via toLane). */
    void loadVdm(uint64_t word_addr, const std::vector<u128> &data);

    /** Bulk host copy-out of @p count words. */
    std::vector<u128> dumpVdm(uint64_t word_addr, size_t count) const;

    /**
     * Words [word_addr, word_addr + count) for bulk access, or
     * nullptr when any of them lies outside VDM. The check cannot
     * wrap, so callers may fall back to word-at-a-time access (and
     * its fault) on nullptr.
     */
    const Word *vdmSpan(uint64_t word_addr, uint64_t count) const;

    /** Writable vdmSpan(); records the whole window as dirty. */
    Word *vdmSpanForWrite(uint64_t word_addr, uint64_t count);

    // -- Scalar data memory ---------------------------------------------

    u128 readSdm(uint64_t word_addr) const;
    void writeSdm(uint64_t word_addr, u128 value);

    // -- Register files --------------------------------------------------

    /** One full 512-lane vector register. */
    using Vreg = std::array<Word, arch::kVectorLength>;

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

    std::vector<Word> vdm_;
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
    bool truncated_ = false;
};

extern template class BasicArchState<uint64_t>;
extern template class BasicArchState<u128>;

/** The architectural 128-bit-lane state. */
using ArchState = BasicArchState<u128>;

} // namespace rpu

#endif // RPU_SIM_FUNCTIONAL_STATE_HH
