/**
 * @file
 * B512 kernel builder: instruction emission, register allocation,
 * scratchpad memory planning, and twiddle materialisation.
 *
 * This implements the mechanical parts of the paper's SPIRAL backend
 * (section V): register allocation over the 64-entry VRF, scalar /
 * twiddle data layout in SDM and VDM, and the choice between
 * broadcasting a scalar twiddle, composing a patterned twiddle vector
 * from broadcasts and unpacks, or loading a precomputed twiddle
 * vector from the VDM "twiddle plan" region.
 *
 * Two allocation policies realise the paper's Fig. 6 comparison:
 *  - optimized: FIFO (least-recently-freed) register rotation, which
 *    maximises reuse distance so the in-order front-end rarely stalls
 *    on WAR/WAW hazards, plus a broadcast cache that hoists repeated
 *    twiddles;
 *  - unoptimized: LIFO reuse (immediately recycle the last register)
 *    and no broadcast cache, yielding the dependence-chained code a
 *    microarchitecture-oblivious generator would produce.
 */

#ifndef RPU_CODEGEN_BUILDER_HH
#define RPU_CODEGEN_BUILDER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "codegen/layout_oracle.hh"
#include "isa/program.hh"
#include "poly/twiddle.hh"

namespace rpu {

/** A twiddle vector register handle; transient ones return to the pool. */
struct TwiddleRef
{
    unsigned reg = 0;
    bool transient = false;
};

/** Builder for one NTT kernel. */
class KernelBuilder
{
  public:
    /** Fixed register conventions for generated kernels. */
    static constexpr unsigned kModReg = 1;    ///< m1 = working modulus
    static constexpr unsigned kDataAreg = 0;  ///< a0 = data base
    static constexpr unsigned kTwPlanAreg = 1; ///< a1 = twiddle-plan base
    static constexpr unsigned kSdmAreg = 3;   ///< a3 = SDM base (0)
    static constexpr unsigned kNinvSreg = 2;  ///< s2 = n^-1 (inverse NTT)

    /**
     * @param tw            primary ring (sets the oracle dimension)
     * @param optimized     allocation/caching policy (see above)
     * @param twplan_base   VDM word where twiddle-plan vectors start;
     *                      defaults to just past one ring of data
     * @param compose       materialise patterned twiddles from
     *                      broadcast/unpack trees when cheap (false
     *                      forces plan-vector loads; ablation knob)
     */
    KernelBuilder(const TwiddleTable &tw, bool optimized,
                  uint64_t twplan_base = 0, bool compose = true);

    Program &program() { return prog_; }
    LayoutOracle &oracle() { return oracle_; }
    bool optimized() const { return optimized_; }

    // -- Register pool -------------------------------------------------

    unsigned allocReg();
    void freeReg(unsigned reg);
    size_t freeRegs() const { return pool_.size(); }

    // -- Memory planning -----------------------------------------------

    /** Deduplicated SDM scalar slot; returns the word address. */
    uint64_t sdmScalar(u128 value);

    /**
     * Deduplicated twiddle-plan vector (512 words at @p pattern);
     * returns its offset from the plan base. Offsets are handed out in
     * first-use order.
     */
    uint64_t twPlanVector(const u128 *pattern);

    const std::vector<u128> &sdmImage() const { return sdm_image_; }
    const std::vector<u128> &twPlanImage() const { return twplan_image_; }

    /** Move the finished images out; the builder is spent afterwards. */
    std::vector<u128> takeSdmImage() { return std::move(sdm_image_); }
    std::vector<u128> takeTwPlanImage() { return std::move(twplan_image_); }

    /** Current data region base (words). */
    uint64_t dataBase() const { return data_base_; }
    uint64_t twPlanBase() const { return twplan_base_; }

    // -- Emission helpers (all keep the layout oracle in sync) ----------

    /** mload/aload setup reading constants placed in SDM. */
    void emitPrologue(bool needs_ninv);

    /**
     * Switch subsequent data loads/stores to the region starting at
     * @p base_words, addressed through ARF register @p areg (distinct
     * regions must use distinct ARF registers so the scheduler can
     * prove them independent — see codegen/scheduler.hh).
     */
    void beginDataRegion(unsigned areg, uint64_t base_words);

    /**
     * Load a tower's modulus into @p modreg and make it current for
     * subsequent compute emission (the MRF's instruction-granularity
     * modulus switching, paper section IV-B5).
     */
    void beginTower(u128 modulus, unsigned modreg);

    /**
     * Load a tower's n^-1 into SRF @p sreg and use it for subsequent
     * emitScaleByNinv calls (batched kernels whose inverse phases run
     * under different moduli need one scalar per tower).
     */
    void beginTowerNinv(u128 ninv, unsigned sreg);

    unsigned modReg() const { return mod_reg_; }
    unsigned ninvSreg() const { return ninv_sreg_; }

    /**
     * The registers one tower's emission goes through: its modulus
     * register, its n^-1 scalar and its data region's ARF and base,
     * as beginTower / beginTowerNinv / beginDataRegion last set them.
     */
    struct TowerRegs
    {
        unsigned modReg;
        unsigned ninvSreg;
        unsigned dataAreg;
        uint64_t dataBase;
    };

    TowerRegs
    towerRegs() const
    {
        return {mod_reg_, ninv_sreg_, data_areg_, data_base_};
    }

    /**
     * Make @p regs current without emitting anything: how a kernel
     * whose towers' registers were all loaded up front moves between
     * towers.
     */
    void
    switchTower(const TowerRegs &regs)
    {
        mod_reg_ = regs.modReg;
        ninv_sreg_ = regs.ninvSreg;
        data_areg_ = regs.dataAreg;
        data_base_ = regs.dataBase;
    }

    /** Load data vector-register index @p vreg_index (contiguous). */
    void emitDataLoad(unsigned reg, uint32_t vreg_index);

    /**
     * Cross-region load/store through an already-initialised ARF
     * register, without changing the current region (used by fused
     * kernels that read two regions at once).
     */
    void emitRegionLoad(unsigned reg, unsigned areg,
                        uint32_t vreg_index);
    void emitRegionStore(unsigned reg, unsigned areg);

    /**
     * Store @p reg back to the data region; the oracle must show it
     * holding a contiguous run of positions, which determines the
     * target address.
     */
    void emitDataStore(unsigned reg);

    /** Broadcast a scalar from SDM; cached under the optimized policy. */
    TwiddleRef emitBroadcast(u128 value);

    /**
     * A 512-word buffer for building one twiddle pattern in place
     * (see LayoutOracle::butterflyTwiddles) before twiddleReg.
     */
    u128 *patternBuffer() { return pattern_.data(); }

    /**
     * Materialise an arbitrary 512-lane twiddle pattern: broadcast if
     * constant, a broadcast/unpack tree if it is recursively
     * interleave-constant with at most @p kMaxComposeLeaves leaves,
     * otherwise a contiguous load from the twiddle-plan region.
     */
    TwiddleRef twiddleReg(const u128 *pattern);

    void releaseTwiddle(const TwiddleRef &ref);

    /** Forward CT butterfly (fused instruction). */
    void emitButterfly(unsigned sum_out, unsigned diff_out, unsigned va,
                       unsigned vb, unsigned tw_reg);

    /**
     * Inverse GS butterfly composed from add/sub/mul (the ISA has no
     * fused inverse form): sum_out = va + vb; diff_out = (va-vb)*tw.
     */
    void emitInverseButterfly(unsigned sum_out, unsigned diff_out,
                              unsigned va, unsigned vb, unsigned tw_reg);

    /** Shuffle; tracks the oracle when both sources are data-tracked. */
    void emitShuffle(Opcode op, unsigned vd, unsigned vs, unsigned vt);

    /**
     * Lane-wise modular product vd = vs .* vt (the NTT-domain dyadic
     * step); vd inherits vs's position tags.
     */
    void emitPointwiseMul(unsigned vd, unsigned vs, unsigned vt);

    /** Scale a data register by the SRF scalar in kNinvSreg. */
    void emitScaleByNinv(unsigned reg);

    static constexpr unsigned kMaxComposeLeaves = 8;
    static constexpr unsigned kBroadcastCacheCap = 18;

  private:
    /*
     * The compose tree works on strided views of the pattern: lanes
     * pattern[0], pattern[stride], ... (len of them). The even lanes
     * of a view are (pattern, 2 * stride), the odd (pattern + stride,
     * 2 * stride).
     */
    TwiddleRef materializeView(const u128 *pattern, unsigned stride,
                               unsigned len);
    bool canCompose(const u128 *pattern, unsigned stride, unsigned len,
                    unsigned &leaves) const;

    const TwiddleTable &tw_;
    bool optimized_;
    bool compose_;
    uint64_t twplan_base_;
    unsigned data_areg_ = kDataAreg;
    uint64_t data_base_ = 0;
    unsigned mod_reg_ = kModReg;
    unsigned ninv_sreg_ = kNinvSreg;
    Program prog_;
    LayoutOracle oracle_;

    std::deque<unsigned> pool_;
    std::array<bool, arch::kNumVregs> pooled_{}; ///< reg is in pool_

    struct U128Hash
    {
        size_t
        operator()(u128 v) const
        {
            return size_t((uint64_t(v) ^ uint64_t(v >> 64)) *
                          0x9e3779b97f4a7c15ull);
        }
    };
    std::unordered_map<u128, uint64_t, U128Hash> sdm_slots_;
    std::vector<u128> sdm_image_;
    /** Plan-vector content hash -> offsets in twplan_image_. */
    std::unordered_multimap<uint64_t, uint64_t> twplan_slots_;
    std::vector<u128> twplan_image_;
    std::array<u128, arch::kVectorLength> pattern_{};

    /**
     * Broadcast cache (optimized policy): at most kBroadcastCacheCap
     * values, the least recently used evicted first.
     */
    struct CachedBroadcast
    {
        u128 value;
        unsigned reg;
        uint64_t lastUse;
    };
    std::vector<CachedBroadcast> bcast_;
    uint64_t bcast_clock_ = 0;
};

} // namespace rpu

#endif // RPU_CODEGEN_BUILDER_HH
