#include "codegen/ntt_codegen.hh"

#include <algorithm>
#include <array>
#include <span>

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

/**
 * Lockstep width (see emitLockstep). Between steps every tower of a
 * lockstep group holds its final-pass register group live (2
 * registers at n = 1024, 4 at 2048, 8 from 4096) beside the
 * broadcast cache and one step's temporaries, and what is left of the
 * 63-register pool is the FIFO's reuse distance. With 32 group
 * registers in flight (4 towers from 4K) inverse kernels measured
 * slower than tower after tower (3860 -> 3963 cycles, 4 towers at
 * 4K), so groups hold at most kLockstepRegs. Past 4 towers the
 * interleave stops paying (16 towers at 1K: 2226 cycles forward in
 * groups of 4, 2311 in groups of 8). So 4 towers at 1K and 2K, 2 from
 * 4K.
 */
constexpr unsigned kLockstepTowers = 4;
constexpr unsigned kLockstepRegs = 16;

/**
 * One tower's transform. The generator captures the builder's tower
 * registers when it is made; emitLockstep runs several generators'
 * final passes step by step, and each generator keeps its final-pass
 * register group between its steps.
 */
class NttGenerator
{
  public:
    NttGenerator(const TwiddleTable &tw, KernelBuilder &builder,
                 bool inverse, const KernelPlan &plan)
        : tw_(tw), b_(builder), inverse_(inverse), plan_(plan),
          regs_(builder.towerRegs()), vregs_(tw.n() / VL),
          log_v_(log2Floor(tw.n() / VL)),
          group_(1u << plan.finalVerticalStages)
    {
    }

    bool inverse() const { return inverse_; }
    const KernelBuilder::TowerRegs &towerRegs() const { return regs_; }

    /** The whole transform, this tower alone. */
    void emit();

    /**
     * The vertical rectangles: all of them before the final pass
     * forward, in reverse after it inverse, where the n^-1 scaling
     * folds into the last.
     */
    void
    verticalPasses()
    {
        if (!inverse_) {
            for (const auto &pass : plan_.verticalPasses)
                verticalPass(pass.startStage, pass.depth, false);
            return;
        }
        for (size_t p = plan_.verticalPasses.size(); p-- > 0;) {
            const auto &pass = plan_.verticalPasses[p];
            verticalPass(pass.startStage, pass.depth, p == 0);
        }
    }

    /** Register groups of the final pass. */
    unsigned finalGroups() const { return unsigned(vregs_) / group_; }

    /**
     * Steps of one final-pass group: its loads, its F vertical
     * stages, and per register pair the nine intra stages plus the
     * unpack and stores (forward) or the undo of that unpack plus the
     * nine stages (inverse), whose stores are one more step.
     */
    unsigned
    finalSteps() const
    {
        return 1 + plan_.finalVerticalStages + 10 * (group_ / 2) +
               (inverse_ ? 1 : 0);
    }

    /**
     * Step @p k of final-pass group @p g: groups of 2^F consecutive
     * registers run the last F vertical stages plus all nine
     * intra-register stages per pair. Run in order, the steps of a
     * group are the whole group.
     */
    void
    finalStep(unsigned g, unsigned k)
    {
        const unsigned f = plan_.finalVerticalStages;
        const unsigned s0 = log_v_ - f;
        const std::span<unsigned> regs(group_regs_.data(), group_);
        if (k == 0) {
            for (unsigned i = 0; i < group_; ++i) {
                regs[i] = b_.allocReg();
                b_.emitDataLoad(regs[i], g * group_ + i);
            }
            return;
        }
        --k;
        if (!inverse_) {
            if (k < f) {
                groupStage(regs, s0, f, k);
                return;
            }
            k -= f;
            unsigned &a = regs[2 * (k / 10)];
            unsigned &b = regs[2 * (k / 10) + 1];
            if (k % 10 < 9)
                intraForwardStage(a, b, k % 10);
            else
                intraForwardStore(a, b); // stores and frees the pair
            return;
        }
        if (k < 10 * (group_ / 2)) {
            unsigned &a = regs[2 * (k / 10)];
            unsigned &b = regs[2 * (k / 10) + 1];
            if (k % 10 == 0)
                intraInverseUnpack(a, b);
            else
                intraInverseStage(a, b, 9 - k % 10);
            return;
        }
        k -= 10 * (group_ / 2);
        if (k < f) {
            groupStage(regs, s0, f, f - 1 - k);
            return;
        }
        // The inverse's n^-1 lands here when no rectangle follows.
        const bool scale = plan_.verticalPasses.empty();
        for (unsigned reg : regs) {
            if (scale)
                b_.emitScaleByNinv(reg);
            b_.emitDataStore(reg);
            b_.freeReg(reg);
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

        std::array<unsigned, 16> storage;
        const std::span<unsigned> regs(storage.data(), group);
        for (unsigned base = 0; base < vregs_; base += window) {
            for (unsigned j0 = 0; j0 < gstep; ++j0) {
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
    groupStage(std::span<unsigned> regs, unsigned start_stage,
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
     * Constant-geometry stage @p d (of nine) on one 1024-element block
     * held in registers (A, B): unpack, then butterfly into fresh
     * registers, which replace A and B.
     */
    void
    intraForwardStage(unsigned &a, unsigned &b, unsigned d)
    {
        const unsigned x = b_.allocReg();
        b_.emitShuffle(Opcode::UNPKLO, x, a, b);
        const unsigned y = b_.allocReg();
        b_.emitShuffle(Opcode::UNPKHI, y, a, b);
        b_.freeReg(a);
        b_.freeReg(b);
        const unsigned p = b_.allocReg();
        const unsigned q = b_.allocReg();
        emitStageButterfly(log_v_ + d, p, q, x, y);
        b_.freeReg(x);
        b_.freeReg(y);
        a = p;
        b = q;
    }

    /** The layout-restoring unpack and contiguous stores of a block. */
    void
    intraForwardStore(unsigned a, unsigned b)
    {
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

    /** Undo the forward pass's final unpack; (A, B) are replaced. */
    void
    intraInverseUnpack(unsigned &a, unsigned &b)
    {
        const unsigned x = b_.allocReg();
        b_.emitShuffle(Opcode::PKLO, x, a, b);
        const unsigned y = b_.allocReg();
        b_.emitShuffle(Opcode::PKHI, y, a, b);
        b_.freeReg(a);
        b_.freeReg(b);
        a = x;
        b = y;
    }

    /**
     * Mirror of intraForwardStage: butterfly, then undo stage @p d's
     * forward unpack. After stage 0 the pair holds the natural
     * pre-intra layout.
     */
    void
    intraInverseStage(unsigned &a, unsigned &b, unsigned d)
    {
        const unsigned p = b_.allocReg();
        const unsigned q = b_.allocReg();
        emitStageButterfly(log_v_ + d, p, q, a, b);
        b_.freeReg(a);
        b_.freeReg(b);
        a = b_.allocReg();
        b_.emitShuffle(Opcode::PKLO, a, p, q);
        b = b_.allocReg();
        b_.emitShuffle(Opcode::PKHI, b, p, q);
        b_.freeReg(p);
        b_.freeReg(q);
    }

    const TwiddleTable &tw_;
    KernelBuilder &b_;
    bool inverse_;
    const KernelPlan &plan_;
    KernelBuilder::TowerRegs regs_;
    uint64_t vregs_;
    unsigned log_v_;
    unsigned group_;
    /** The final-pass group in flight between finalStep calls. */
    std::array<unsigned, 8> group_regs_{};
};

/**
 * Emit the transforms of @p gens, one per tower and all in one
 * direction, with their final passes in lockstep: step k of every
 * tower's final-pass group before step k + 1 of any, each under its
 * own tower's registers. Towers share the register pool, so a
 * tower-after-tower order makes one tower's register reuse wait on
 * the last's; interleaved, the towers' stages are independent work
 * the scheduler overlaps (paper section IV-B5, "process different
 * towers simultaneously"). The vertical rectangles, which reuse
 * cached broadcasts across register groups, stay tower after tower.
 * One generator is emitted exactly as a whole transform.
 */
void
emitLockstep(std::span<NttGenerator> gens, KernelBuilder &builder)
{
    const auto each = [&](const auto &step) {
        for (NttGenerator &gen : gens) {
            builder.switchTower(gen.towerRegs());
            step(gen);
        }
    };
    const auto vertical = [](NttGenerator &gen) { gen.verticalPasses(); };
    const bool inverse = gens.front().inverse();
    if (!inverse)
        each(vertical);
    const NttGenerator &first = gens.front();
    for (unsigned g = 0; g < first.finalGroups(); ++g) {
        for (unsigned k = 0; k < first.finalSteps(); ++k)
            each([&](NttGenerator &gen) { gen.finalStep(g, k); });
    }
    if (inverse)
        each(vertical);
}

void
NttGenerator::emit()
{
    emitLockstep(std::span(this, 1), b_);
}

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

    // Every tower's modulus register, n^-1 scalar and data ARF are
    // loaded up front; towers are register- and memory-independent,
    // and emission moves between them by switchTower alone.
    std::vector<NttGenerator> gens;
    gens.reserve(towers.size());
    for (size_t t = 0; t < towers.size(); ++t) {
        kernel.moduli.push_back(towers[t]->modulus().value());
        kernel.regions.push_back(
            {"t" + std::to_string(t), t * n, n, true, true});
        if (t > 0) {
            builder.beginTower(towers[t]->modulus().value(),
                               unsigned(1 + t));
            if (opts.inverse)
                builder.beginTowerNinv(towers[t]->nInv(),
                                       unsigned(2 + t));
            builder.beginDataRegion(unsigned(4 + (t - 1)), t * n);
        }
        gens.emplace_back(*towers[t], builder, opts.inverse, plan);
    }
    // Lockstep groups of at most `width` towers, sizes within one of
    // each other (5 towers run as 3 + 2, not 4 + 1).
    const size_t width = std::min(
        kLockstepTowers, kLockstepRegs >> plan.finalVerticalStages);
    const size_t groups = (gens.size() + width - 1) / width;
    for (size_t g = 0, first = 0; g < groups; ++g) {
        const size_t count =
            gens.size() / groups + (g < gens.size() % groups ? 1 : 0);
        emitLockstep(std::span(gens).subspan(first, count), builder);
        first += count;
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
        NttGenerator(*towers[t], builder, false, plan).emit();
        builder.beginDataRegion(bAreg(t), 2 * t * n + n);
        NttGenerator(*towers[t], builder, false, plan).emit();

        emitPointwiseRegion(builder, n, aAreg(t), bAreg(t));

        // Inverse transform of the product, back in region a.
        builder.beginDataRegion(aAreg(t), 2 * t * n);
        NttGenerator(*towers[t], builder, true, plan).emit();
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
