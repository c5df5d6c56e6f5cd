/**
 * @file
 * Symbolic data-layout tracking for the NTT code generator.
 *
 * Vectorising an NTT over 512-lane registers moves data through
 * unpack/pack shuffles whose net permutation is easy to get wrong.
 * The oracle tracks, for every lane of every vector register, which
 * in-place-NTT *position* its value corresponds to. Butterflies keep
 * positions fixed (the classic in-place formulation); loads, stores
 * and shuffles move them. With this bookkeeping the generator can:
 *
 *  1. prove each butterfly combines positions (a, a + gap) with the
 *     correct block alignment for its stage,
 *  2. derive the exact per-lane twiddle factor pattern a butterfly
 *     needs, and
 *  3. prove the final stores place every position at its correct
 *     address.
 *
 * Any layout bug becomes a generation-time panic instead of a wrong
 * numerical result.
 */

#ifndef RPU_CODEGEN_LAYOUT_ORACLE_HH
#define RPU_CODEGEN_LAYOUT_ORACLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/opcodes.hh"
#include "poly/twiddle.hh"
#include "sim/arch_config.hh"

namespace rpu {

/**
 * Per-lane position tags for the 64 vector registers, held in one
 * fixed table allocated with the oracle: no operation allocates.
 */
class LayoutOracle
{
  public:
    /** Tag row: the position in [0, n) each lane holds. */
    using Tags = std::array<uint32_t, arch::kVectorLength>;

    /** @p n must be a power of two (the NTT ring dimension). */
    explicit LayoutOracle(uint64_t n);

    /** Register now holds data positions [first, first + 512). */
    void setContiguous(unsigned reg, uint32_t first);

    /** Register now holds explicit tags. */
    void setTags(unsigned reg, const Tags &tags);

    /** Register @p dst now holds what @p src holds (no-op if equal). */
    void copyTags(unsigned dst, unsigned src);

    /** Register holds non-data content (twiddles, scratch). */
    void clear(unsigned reg);

    bool tracked(unsigned reg) const;
    const Tags &tags(unsigned reg) const;

    /** Apply an UNPK/PK shuffle's permutation to the tags. */
    void applyShuffle(Opcode op, unsigned vd, unsigned vs, unsigned vt);

    /**
     * Validate a Cooley-Tukey butterfly at stage @p stage (0-based,
     * m = 2^stage, gap = n / 2^(stage+1)) combining registers
     * @p va (sum inputs) and @p vb (difference inputs) lane-wise,
     * and write the required per-lane forward twiddle values
     * rootPower(m + block(lane)) to @p pattern (512 words).
     *
     * Panics if any lane pair is not (a, a + gap) with a correctly
     * block-aligned: that is a generator bug.
     */
    void butterflyTwiddles(const TwiddleTable &tw, unsigned stage,
                           unsigned va, unsigned vb, u128 *pattern) const;

    /**
     * Same validation for the inverse (Gentleman-Sande) butterfly;
     * writes invRootPower(m + block(lane)) per lane.
     */
    void inverseButterflyTwiddles(const TwiddleTable &tw, unsigned stage,
                                  unsigned va, unsigned vb,
                                  u128 *pattern) const;

    /**
     * After a butterfly, both outputs keep the input positions; an
     * in-place butterfly (outputs = inputs) changes nothing.
     */
    void commitButterfly(unsigned va, unsigned vb, unsigned sum_reg,
                         unsigned diff_reg);

    /**
     * Verify that storing @p reg with the given addressing pattern
     * writes every lane's position to data_base + position.
     */
    void checkStore(unsigned reg, uint64_t word_offset_from_data,
                    AddrMode mode, unsigned mode_value) const;

  private:
    /** Checks the pairing; returns log2 of the block width 2 * gap. */
    unsigned validatePair(unsigned stage, unsigned va, unsigned vb) const;

    /** Per-lane table[m + block(lane)] after validating the pair. */
    void blockTwiddles(const std::vector<u128> &table, unsigned stage,
                       unsigned va, unsigned vb, u128 *pattern) const;

    Tags &row(unsigned reg) { return rows_[reg]; }

    uint64_t n_;
    unsigned log_n_;
    /** One row per register, plus a scratch row for aliased updates. */
    std::unique_ptr<Tags[]> rows_;
    std::array<bool, arch::kNumVregs> tracked_{};
};

} // namespace rpu

#endif // RPU_CODEGEN_LAYOUT_ORACLE_HH
