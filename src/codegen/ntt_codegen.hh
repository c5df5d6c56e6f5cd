/**
 * @file
 * The NTT code generator: our from-scratch substitute for the paper's
 * SPIRAL backend (section V).
 *
 * Algorithm family: the Pease / Korn-Lambiotte constant-geometry
 * vector NTT the paper cites, specialised to B512:
 *
 *  - Stages whose butterfly gap is >= 512 pair whole vector registers
 *    and run in place with broadcast scalar twiddles. They are blocked
 *    into "rectangles": closed register groups that run several stages
 *    per VDM round trip (the paper's rectangle decomposition).
 *  - The last nine stages (gap <= 256) run on register pairs in
 *    constant-geometry form: each stage is two UNPK shuffles plus one
 *    fused butterfly with a per-lane twiddle vector; the final
 *    interleave restores natural in-place layout for contiguous
 *    stores.
 *
 * Every butterfly is validated and its twiddle pattern derived by the
 * LayoutOracle, so the generator cannot silently produce wrong code.
 *
 * The forward transform consumes natural order and produces the
 * bit-reversed order of the reference NttContext; the inverse (a
 * Gentleman-Sande mirror with composed inverse butterflies and a
 * final n^-1 scaling) consumes bit-reversed and produces natural.
 *
 * Every generator is batched over RNS towers, one modulus register
 * per tower; a single ring is the batch of one, so each operation
 * (transform, fused product, pointwise product) has one generator.
 */

#ifndef RPU_CODEGEN_NTT_CODEGEN_HH
#define RPU_CODEGEN_NTT_CODEGEN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "codegen/kernel_image.hh"
#include "poly/twiddle.hh"
#include "sim/arch_config.hh"

namespace rpu {

/** Code-generation options (the Fig. 6 axis is `optimized`). */
struct NttCodegenOptions
{
    bool inverse = false;

    /**
     * Optimized: FIFO register rotation, broadcast caching, and
     * hardware-aware list scheduling. Unoptimized: LIFO register
     * recycling, no caching, program order as emitted.
     */
    bool optimized = true;

    /**
     * Materialise patterned twiddle vectors from broadcast/unpack
     * trees when cheap (default); false forces twiddle-plan loads for
     * every non-constant pattern (ablation: trades SBAR pressure for
     * VDM traffic and scratchpad footprint).
     */
    bool twiddleCompose = true;

    /**
     * Design point used to weight the list scheduler (the paper's
     * optimized programs are scheduled for the target
     * microarchitecture). Only consulted when optimized.
     */
    RpuConfig scheduleConfig{};
};

/**
 * Towers one batched kernel can carry — the per-tower register budget
 * of the generators below: modulus registers m1.., n^-1 scalars s2..
 * and one or two data ARFs per tower. RpuDevice's dispatch tiling cuts
 * its tile groups at this size.
 */
constexpr size_t kMaxBatchedTowers = 16;

/**
 * A batched NTT across several RNS towers in a single program,
 * exercising the MRF's instruction-granularity modulus switching
 * (paper section IV-B5: "enabling the potential to process different
 * towers simultaneously"). Tower t's ring is region "t<t>";
 * towers are register- and memory-independent. Every tower's modulus
 * register, n^-1 scalar and data ARF are loaded up front, and the
 * towers' final passes are emitted in lockstep, stage by stage in
 * groups of up to four towers (two from n = 4096), so the scheduler
 * overlaps their stages instead of waiting on the register reuse a
 * tower-after-tower order would thread through them. `opts.inverse`
 * selects the direction (the inverse form loads one n^-1 scalar per
 * tower). A single ring is the batch of one: its program is the plain
 * n-point transform. Requires n >= 1024 (two vector registers),
 * matching the HE standard's minimum ring size cited by the paper.
 */
KernelImage
generateBatchedNtt(const std::vector<const TwiddleTable *> &towers,
                   const NttCodegenOptions &opts = {});

/** The transform kernel's historical name; the image is the kernel. */
using NttKernel = KernelImage;

/**
 * A batched negacyclic-product kernel — the complete RLWE polynomial
 * multiplication (NTT(a), NTT(b), dyadic product, inverse NTT) in one
 * B512 program per tower, each tower on its own modulus register,
 * n^-1 scalar, and pair of data regions ("t<i>.a" / "t<i>.b"; the
 * product overwrites t<i>.a). The two forward transforms address
 * disjoint regions through different ARF bases, so the scheduler
 * overlaps them across the decoupled pipelines. One launch computes
 * a whole wide-modulus polynomial product.
 */
KernelImage
generateBatchedPolyMul(const std::vector<const TwiddleTable *> &towers,
                       const NttCodegenOptions &opts = {});

/**
 * A pointwise-product kernel: t.a <- t.a .* t.b for every tower,
 * lane-wise Montgomery products with no butterfly stages at all,
 * in the batched polymul's region layout. This is the entire
 * homomorphic multiply once both operands are evaluation-domain
 * resident — the kernel an NTT-amortising ciphertext representation
 * launches instead of the fused negacyclic product. The program is
 * ~n/512 load/mul/store triplets per tower, so its runtime is the
 * floor any transform-elision strategy is chasing.
 */
KernelImage
generateBatchedPointwiseMul(const std::vector<const TwiddleTable *> &towers,
                            const NttCodegenOptions &opts = {});

} // namespace rpu

#endif // RPU_CODEGEN_NTT_CODEGEN_HH
