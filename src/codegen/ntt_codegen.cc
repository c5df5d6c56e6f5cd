#include "codegen/ntt_codegen.hh"

#include <algorithm>

#include "codegen/builder.hh"
#include "codegen/scheduler.hh"
#include "common/bitops.hh"
#include "common/logging.hh"

namespace rpu {

namespace {

constexpr unsigned VL = arch::kVectorLength;

/** One rectangle pass over vertical (whole-register) stages. */
struct VerticalPassPlan
{
    unsigned startStage;
    unsigned depth;
};

struct KernelPlan
{
    std::vector<VerticalPassPlan> verticalPasses;
    unsigned finalVerticalStages; ///< vertical stages folded into the
                                  ///< final (intra) pass
};

/** Rectangle decomposition of the log2(V) vertical stages. */
KernelPlan
planPasses(uint64_t vregs)
{
    const unsigned log_v = log2Floor(vregs);
    KernelPlan plan;
    plan.finalVerticalStages = std::min(3u, log_v);
    unsigned remaining = log_v - plan.finalVerticalStages;
    unsigned stage = 0;
    while (remaining > 0) {
        // Depth 4 keeps each group at 16 registers; the group step
        // must stay >= 1 (depth <= log2(first stage's register gap)+1).
        const unsigned gv0 = unsigned(vregs) >> (stage + 1);
        const unsigned max_depth = log2Floor(gv0) + 1;
        const unsigned d = std::min({4u, remaining, max_depth});
        plan.verticalPasses.push_back({stage, d});
        stage += d;
        remaining -= d;
    }
    return plan;
}

/** Generator state shared by the pass emitters. */
class NttGenerator
{
  public:
    NttGenerator(const TwiddleTable &tw, KernelBuilder &builder,
                 bool inverse)
        : tw_(tw), b_(builder), inverse_(inverse),
          vregs_(tw.n() / VL), log_v_(log2Floor(tw.n() / VL))
    {
    }

    void
    emitForward(const KernelPlan &plan)
    {
        for (const auto &pass : plan.verticalPasses)
            verticalPass(pass.startStage, pass.depth, false);
        finalPass(plan.finalVerticalStages, false);
    }

    void
    emitInverse(const KernelPlan &plan)
    {
        // Exact mirror: the final (intra) pass runs first, then the
        // vertical rectangles in reverse. The n^-1 scaling folds into
        // whichever pass touches the data last.
        const bool only_pass = plan.verticalPasses.empty();
        finalPass(plan.finalVerticalStages, only_pass);
        for (size_t p = plan.verticalPasses.size(); p-- > 0;) {
            const auto &pass = plan.verticalPasses[p];
            verticalPass(pass.startStage, pass.depth, p == 0);
        }
    }

  private:
    /** Butterfly (direction-appropriate) with oracle-derived twiddles. */
    void
    emitStageButterfly(unsigned stage, unsigned sum_out, unsigned diff_out,
                       unsigned va, unsigned vb)
    {
        u128 *pattern = b_.patternBuffer();
        if (inverse_)
            b_.oracle().inverseButterflyTwiddles(tw_, stage, va, vb, pattern);
        else
            b_.oracle().butterflyTwiddles(tw_, stage, va, vb, pattern);
        const TwiddleRef tw = b_.twiddleReg(pattern);
        if (inverse_)
            b_.emitInverseButterfly(sum_out, diff_out, va, vb, tw.reg);
        else
            b_.emitButterfly(sum_out, diff_out, va, vb, tw.reg);
        b_.releaseTwiddle(tw);
    }

    /**
     * One rectangle pass: load a closed register group, run @p depth
     * whole-register stages in place, store. @p scale_at_end applies
     * the inverse transform's n^-1 before the stores.
     */
    void
    verticalPass(unsigned start_stage, unsigned depth, bool scale_at_end)
    {
        const unsigned gv0 = unsigned(vregs_) >> (start_stage + 1);
        const unsigned gstep = gv0 >> (depth - 1);
        rpu_assert(gstep >= 1, "rectangle depth exceeds stage gap");
        const unsigned group = 1u << depth;
        const unsigned window = 2 * gv0;

        for (unsigned base = 0; base < vregs_; base += window) {
            for (unsigned j0 = 0; j0 < gstep; ++j0) {
                std::vector<unsigned> regs(group);
                for (unsigned k = 0; k < group; ++k) {
                    regs[k] = b_.allocReg();
                    b_.emitDataLoad(regs[k],
                                    base + j0 + k * gstep);
                }
                if (!inverse_) {
                    for (unsigned e = 0; e < depth; ++e)
                        groupStage(regs, start_stage, depth, e);
                } else {
                    for (unsigned e = depth; e-- > 0;)
                        groupStage(regs, start_stage, depth, e);
                }
                for (unsigned k = 0; k < group; ++k) {
                    if (scale_at_end)
                        b_.emitScaleByNinv(regs[k]);
                    b_.emitDataStore(regs[k]);
                    b_.freeReg(regs[k]);
                }
            }
        }
    }

    /** All butterflies of stage (start_stage + e) inside one group. */
    void
    groupStage(std::vector<unsigned> &regs, unsigned start_stage,
               unsigned depth, unsigned e)
    {
        const unsigned stage = start_stage + e;
        const unsigned delta = 1u << (depth - 1 - e);
        for (unsigned k = 0; k < regs.size(); ++k) {
            if ((k / delta) % 2 != 0)
                continue;
            // In place: sum overwrites the low partner, difference the
            // high partner, exactly like the scalar in-place NTT.
            emitStageButterfly(stage, regs[k], regs[k + delta], regs[k],
                               regs[k + delta]);
        }
    }

    /**
     * The final pass: groups of 2^F consecutive registers run the last
     * F vertical stages plus all nine intra-register stages per pair.
     */
    void
    finalPass(unsigned f_stages, bool scale_at_end)
    {
        const unsigned group = 1u << f_stages;
        const unsigned s0 = log_v_ - f_stages;

        for (unsigned base = 0; base < vregs_; base += group) {
            std::vector<unsigned> regs(group);
            for (unsigned k = 0; k < group; ++k) {
                regs[k] = b_.allocReg();
                b_.emitDataLoad(regs[k], base + k);
            }

            if (!inverse_) {
                for (unsigned e = 0; e < f_stages; ++e)
                    groupStage(regs, s0, f_stages, e);
                for (unsigned u = 0; u < group; u += 2)
                    intraForwardPair(regs[u], regs[u + 1]);
                // intraForwardPair stores and frees its registers.
            } else {
                for (unsigned u = 0; u < group; u += 2)
                    intraInversePair(regs[u], regs[u + 1]);
                for (unsigned e = f_stages; e-- > 0;)
                    groupStage(regs, s0, f_stages, e);
                for (unsigned k = 0; k < group; ++k) {
                    if (scale_at_end)
                        b_.emitScaleByNinv(regs[k]);
                    b_.emitDataStore(regs[k]);
                    b_.freeReg(regs[k]);
                }
            }
        }
    }

    /**
     * Nine constant-geometry stages on one 1024-element block held in
     * registers (A, B), ending with the layout-restoring unpack and
     * contiguous stores.
     */
    void
    intraForwardPair(unsigned a, unsigned b)
    {
        for (unsigned d = 0; d < 9; ++d) {
            const unsigned stage = log_v_ + d;
            const unsigned x = b_.allocReg();
            b_.emitShuffle(Opcode::UNPKLO, x, a, b);
            const unsigned y = b_.allocReg();
            b_.emitShuffle(Opcode::UNPKHI, y, a, b);
            b_.freeReg(a);
            b_.freeReg(b);
            const unsigned p = b_.allocReg();
            const unsigned q = b_.allocReg();
            emitStageButterfly(stage, p, q, x, y);
            b_.freeReg(x);
            b_.freeReg(y);
            a = p;
            b = q;
        }
        const unsigned x = b_.allocReg();
        b_.emitShuffle(Opcode::UNPKLO, x, a, b);
        const unsigned y = b_.allocReg();
        b_.emitShuffle(Opcode::UNPKHI, y, a, b);
        b_.freeReg(a);
        b_.freeReg(b);
        b_.emitDataStore(x);
        b_.freeReg(x);
        b_.emitDataStore(y);
        b_.freeReg(y);
    }

    /**
     * Mirror of intraForwardPair. On return the pair registers are
     * replaced in place (caller's reg array stays valid) holding the
     * natural pre-intra layout.
     */
    void
    intraInversePair(unsigned &a_ref, unsigned &b_ref)
    {
        unsigned a = a_ref, b = b_ref;
        // Undo the forward pass's final unpack.
        unsigned x = b_.allocReg();
        b_.emitShuffle(Opcode::PKLO, x, a, b);
        unsigned y = b_.allocReg();
        b_.emitShuffle(Opcode::PKHI, y, a, b);
        b_.freeReg(a);
        b_.freeReg(b);

        for (unsigned d = 9; d-- > 0;) {
            const unsigned stage = log_v_ + d;
            const unsigned p = b_.allocReg();
            const unsigned q = b_.allocReg();
            emitStageButterfly(stage, p, q, x, y);
            b_.freeReg(x);
            b_.freeReg(y);
            // Undo this stage's forward unpack.
            x = b_.allocReg();
            b_.emitShuffle(Opcode::PKLO, x, p, q);
            y = b_.allocReg();
            b_.emitShuffle(Opcode::PKHI, y, p, q);
            b_.freeReg(p);
            b_.freeReg(q);
        }
        a_ref = x;
        b_ref = y;
    }

    const TwiddleTable &tw_;
    KernelBuilder &b_;
    bool inverse_;
    uint64_t vregs_;
    unsigned log_v_;
};

/**
 * Shared tower validation: one to kMaxBatchedTowers towers over one
 * power-of-two ring dimension n >= 1024. Returns n.
 */
uint64_t
checkTowers(const std::vector<const TwiddleTable *> &towers,
            const char *what)
{
    rpu_assert(!towers.empty(), "no towers");
    const uint64_t n = towers[0]->n();
    if (n < 2 * VL || !isPow2(n))
        rpu_fatal("NTT codegen requires a power-of-two n >= %u, got %llu",
                  2 * VL, (unsigned long long)n);
    for (const auto *t : towers) {
        if (t->n() != n)
            rpu_fatal("all towers must share the ring dimension");
    }
    if (towers.size() > kMaxBatchedTowers)
        rpu_fatal("%s kernel supports at most %zu towers, got %zu", what,
                  kMaxBatchedTowers, towers.size());
    return n;
}

/**
 * The two-operand kernels' (polymul, pointwise) layout: tower t's
 * operand a at [2tn, 2tn + n) through ARF a0 (tower 0) or a(3 + 2t),
 * operand b right behind it through a(4 + 2t). The result overwrites
 * a, so "t<t>.a" is both input and output.
 */
unsigned
aAreg(size_t t)
{
    return t == 0 ? unsigned(KernelBuilder::kDataAreg) : unsigned(3 + 2 * t);
}

unsigned
bAreg(size_t t)
{
    return unsigned(4 + 2 * t);
}

void
addOperandRegions(KernelImage &kernel, size_t t, uint64_t n)
{
    const std::string name = "t" + std::to_string(t);
    kernel.regions.push_back({name + ".a", 2 * t * n, n, true, true});
    kernel.regions.push_back({name + ".b", 2 * t * n + n, n, true, false});
}

/**
 * The dyadic product a <- a .* b of one tower: one load/load/VMULMOD/
 * store quartet per vector register of the ring, reading regions
 * through @p a_areg / @p b_areg. The builder's current tower modulus
 * register supplies the Montgomery reduction; no twiddles or n^-1
 * scalars are involved.
 */
void
emitPointwiseRegion(KernelBuilder &builder, uint64_t n, unsigned a_areg,
                    unsigned b_areg)
{
    for (uint32_t j = 0; j < n / VL; ++j) {
        const unsigned xa = builder.allocReg();
        builder.emitRegionLoad(xa, a_areg, j);
        const unsigned xb = builder.allocReg();
        builder.emitRegionLoad(xb, b_areg, j);
        builder.emitPointwiseMul(xa, xa, xb);
        builder.freeReg(xb);
        builder.emitRegionStore(xa, a_areg);
        builder.freeReg(xa);
    }
}

/**
 * Shared epilogue: collect the builder's memory images, size the VDM,
 * schedule (optimized) and name the program.
 */
void
finalizeImage(KernelImage &image, KernelBuilder &builder,
              const NttCodegenOptions &opts, const std::string &name)
{
    image.twPlanBase = builder.twPlanBase();
    image.twPlanImage = builder.takeTwPlanImage();
    image.sdmImage = builder.takeSdmImage();

    const size_t words = image.twPlanBase + image.twPlanImage.size();
    image.vdmBytesRequired =
        std::max<size_t>(words * arch::kWordBytes, arch::kVdmDefaultBytes);
    if (image.vdmBytesRequired > arch::kVdmMaxBytes)
        rpu_fatal("kernel '%s' needs %zu bytes of VDM, above the 32 MiB "
                  "limit",
                  name.c_str(), image.vdmBytesRequired);

    if (opts.optimized) {
        image.program =
            scheduleProgram(builder.program(), opts.scheduleConfig);
    } else {
        image.program = std::move(builder.program());
    }
    image.program.setName(name);
}

} // namespace

KernelImage
generateBatchedNtt(const std::vector<const TwiddleTable *> &towers,
                   const NttCodegenOptions &opts)
{
    // Register budget: modulus registers m1.., n^-1 scalars s2..
    // (inverse only), and data ARFs a0,a4,a5..
    const uint64_t n = checkTowers(towers, "batched NTT");

    KernelImage kernel;
    kernel.kind = opts.inverse ? KernelKind::BatchedInverseNtt
                               : KernelKind::BatchedForwardNtt;
    kernel.n = n;

    KernelBuilder builder(*towers[0], opts.optimized,
                          towers.size() * n, opts.twiddleCompose);
    builder.emitPrologue(opts.inverse);
    const KernelPlan plan = planPasses(n / VL);

    for (size_t t = 0; t < towers.size(); ++t) {
        kernel.moduli.push_back(towers[t]->modulus().value());
        kernel.regions.push_back(
            {"t" + std::to_string(t), t * n, n, true, true});
        if (t > 0) {
            // Per-tower modulus register and data region: towers are
            // fully independent, so the scheduler interleaves them.
            builder.beginTower(towers[t]->modulus().value(),
                               unsigned(1 + t));
            if (opts.inverse)
                builder.beginTowerNinv(towers[t]->nInv(),
                                       unsigned(2 + t));
            builder.beginDataRegion(unsigned(4 + (t - 1)), t * n);
        }
        NttGenerator gen(*towers[t], builder, opts.inverse);
        if (opts.inverse)
            gen.emitInverse(plan);
        else
            gen.emitForward(plan);
    }

    finalizeImage(kernel, builder, opts,
                  std::string("batched_") +
                      (opts.inverse ? "intt" : "ntt") +
                      std::to_string(n) + "x" +
                      std::to_string(towers.size()));
    return kernel;
}

KernelImage
generateBatchedPolyMul(const std::vector<const TwiddleTable *> &towers,
                       const NttCodegenOptions &opts)
{
    // Register budget: modulus registers m1.., n^-1 scalars s2.., and
    // two data ARFs per tower starting at a0/a4.
    const uint64_t n = checkTowers(towers, "batched polymul");
    if (opts.inverse)
        rpu_fatal("a polymul kernel has no inverse variant");

    KernelImage kernel;
    kernel.kind = KernelKind::BatchedPolyMul;
    kernel.n = n;

    KernelBuilder builder(*towers[0], opts.optimized,
                          2 * towers.size() * n, opts.twiddleCompose);
    builder.emitPrologue(true); // tower 0's inverse phase scales by n^-1
    const KernelPlan plan = planPasses(n / VL);

    for (size_t t = 0; t < towers.size(); ++t) {
        kernel.moduli.push_back(towers[t]->modulus().value());
        addOperandRegions(kernel, t, n);
        if (t > 0) {
            builder.beginTower(towers[t]->modulus().value(),
                               unsigned(1 + t));
            builder.beginTowerNinv(towers[t]->nInv(), unsigned(2 + t));
        }

        // Forward transform of both operands, each through its own
        // ARF base so the scheduler can interleave them.
        builder.beginDataRegion(aAreg(t), 2 * t * n);
        NttGenerator(*towers[t], builder, false).emitForward(plan);
        builder.beginDataRegion(bAreg(t), 2 * t * n + n);
        NttGenerator(*towers[t], builder, false).emitForward(plan);

        emitPointwiseRegion(builder, n, aAreg(t), bAreg(t));

        // Inverse transform of the product, back in region a.
        builder.beginDataRegion(aAreg(t), 2 * t * n);
        NttGenerator(*towers[t], builder, true).emitInverse(plan);
    }

    finalizeImage(kernel, builder, opts,
                  "batched_polymul" + std::to_string(n) + "x" +
                      std::to_string(towers.size()));
    return kernel;
}

KernelImage
generateBatchedPointwiseMul(const std::vector<const TwiddleTable *> &towers,
                            const NttCodegenOptions &opts)
{
    const uint64_t n = checkTowers(towers, "batched pointwise");
    if (opts.inverse)
        rpu_fatal("a pointwise kernel has no inverse variant");

    KernelImage kernel;
    kernel.kind = KernelKind::PointwiseMulBatched;
    kernel.n = n;

    KernelBuilder builder(*towers[0], opts.optimized,
                          2 * towers.size() * n, opts.twiddleCompose);
    builder.emitPrologue(false);

    for (size_t t = 0; t < towers.size(); ++t) {
        kernel.moduli.push_back(towers[t]->modulus().value());
        addOperandRegions(kernel, t, n);
        if (t > 0)
            builder.beginTower(towers[t]->modulus().value(),
                               unsigned(1 + t));
        builder.beginDataRegion(aAreg(t), 2 * t * n);
        builder.beginDataRegion(bAreg(t), 2 * t * n + n);
        emitPointwiseRegion(builder, n, aAreg(t), bAreg(t));
    }

    finalizeImage(kernel, builder, opts,
                  "batched_pointwise" + std::to_string(n) + "x" +
                      std::to_string(towers.size()));
    return kernel;
}

} // namespace rpu
