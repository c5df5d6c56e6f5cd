#include "codegen/layout_oracle.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "sim/functional/executor.hh"

namespace rpu {

namespace {
constexpr unsigned VL = arch::kVectorLength;
constexpr unsigned kScratchRow = arch::kNumVregs;
} // namespace

LayoutOracle::LayoutOracle(uint64_t n)
    : n_(n), log_n_(log2Floor(n)),
      rows_(std::make_unique<Tags[]>(arch::kNumVregs + 1))
{
    rpu_assert(isPow2(n), "oracle dimension %llu is not a power of two",
               (unsigned long long)n);
}

void
LayoutOracle::setContiguous(unsigned reg, uint32_t first)
{
    rpu_assert(reg < arch::kNumVregs, "bad register %u", reg);
    rpu_assert(uint64_t(first) + VL <= n_,
               "position tag %llu out of range",
               (unsigned long long)(uint64_t(first) + VL - 1));
    Tags &t = row(reg);
    for (unsigned i = 0; i < VL; ++i)
        t[i] = first + i;
    tracked_[reg] = true;
}

void
LayoutOracle::setTags(unsigned reg, const Tags &tags)
{
    rpu_assert(reg < arch::kNumVregs, "bad register %u", reg);
    for (uint32_t t : tags)
        rpu_assert(t < n_, "position tag %u out of range", t);
    row(reg) = tags;
    tracked_[reg] = true;
}

void
LayoutOracle::copyTags(unsigned dst, unsigned src)
{
    rpu_assert(dst < arch::kNumVregs, "bad register %u", dst);
    const Tags &s = tags(src);
    if (dst != src) {
        row(dst) = s;
        tracked_[dst] = true;
    }
}

void
LayoutOracle::clear(unsigned reg)
{
    rpu_assert(reg < arch::kNumVregs, "bad register %u", reg);
    tracked_[reg] = false;
}

bool
LayoutOracle::tracked(unsigned reg) const
{
    rpu_assert(reg < arch::kNumVregs, "bad register %u", reg);
    return tracked_[reg];
}

const LayoutOracle::Tags &
LayoutOracle::tags(unsigned reg) const
{
    rpu_assert(reg < arch::kNumVregs, "bad register %u", reg);
    rpu_assert(tracked_[reg], "register v%u is not layout-tracked", reg);
    return rows_[reg];
}

void
LayoutOracle::applyShuffle(Opcode op, unsigned vd, unsigned vs,
                           unsigned vt)
{
    rpu_assert(vd < arch::kNumVregs, "bad register %u", vd);
    const Tags &s = tags(vs);
    const Tags &t = tags(vt);
    // Lanes move across the row, so an aliased destination is built
    // in the scratch row first.
    const bool aliased = vd == vs || vd == vt;
    Tags &out = row(aliased ? kScratchRow : vd);
    constexpr unsigned H = VL / 2;
    switch (op) {
      case Opcode::UNPKLO:
        for (unsigned i = 0; i < H; ++i) {
            out[2 * i] = s[i];
            out[2 * i + 1] = t[i];
        }
        break;
      case Opcode::UNPKHI:
        for (unsigned i = 0; i < H; ++i) {
            out[2 * i] = s[H + i];
            out[2 * i + 1] = t[H + i];
        }
        break;
      case Opcode::PKLO:
        for (unsigned i = 0; i < H; ++i) {
            out[i] = s[2 * i];
            out[H + i] = t[2 * i];
        }
        break;
      case Opcode::PKHI:
        for (unsigned i = 0; i < H; ++i) {
            out[i] = s[2 * i + 1];
            out[H + i] = t[2 * i + 1];
        }
        break;
      default:
        rpu_panic("applyShuffle on non-shuffle opcode");
    }
    // A permutation of tracked rows stays in range.
    if (aliased)
        row(vd) = out;
    tracked_[vd] = true;
}

unsigned
LayoutOracle::validatePair(unsigned stage, unsigned va, unsigned vb) const
{
    rpu_assert(stage < log_n_, "stage %u out of range for n=%llu", stage,
               (unsigned long long)n_);
    // gap = n / 2^(stage+1) is a power of two: position a is the low
    // partner of its block exactly when its gap bit is clear.
    const uint64_t gap = n_ >> (stage + 1);
    const Tags &a = tags(va);
    const Tags &b = tags(vb);
    // Branch-free scan first; the failing lane is only located when
    // there is one.
    uint64_t bad = 0;
    for (unsigned lane = 0; lane < VL; ++lane) {
        const uint64_t pa = a[lane];
        bad |= (uint64_t(b[lane]) ^ (pa + gap)) | (pa & gap);
    }
    for (unsigned lane = 0; bad != 0 && lane < VL; ++lane) {
        const uint64_t pa = a[lane];
        const uint64_t pb = b[lane];
        if (pb != pa + gap || (pa & gap) != 0) {
            rpu_panic("stage %u butterfly pairing broken at lane %u: "
                      "positions %llu / %llu (gap %llu)",
                      stage, lane, (unsigned long long)pa,
                      (unsigned long long)pb, (unsigned long long)gap);
        }
    }
    return log_n_ - stage;
}

void
LayoutOracle::blockTwiddles(const std::vector<u128> &table, unsigned stage,
                            unsigned va, unsigned vb, u128 *pattern) const
{
    const unsigned block_shift = validatePair(stage, va, vb);
    const uint64_t m = uint64_t(1) << stage;
    const Tags &a = tags(va);
    for (unsigned lane = 0; lane < VL; ++lane)
        pattern[lane] = table[m + (a[lane] >> block_shift)];
}

void
LayoutOracle::butterflyTwiddles(const TwiddleTable &tw, unsigned stage,
                                unsigned va, unsigned vb,
                                u128 *pattern) const
{
    blockTwiddles(tw.rootPowers(), stage, va, vb, pattern);
}

void
LayoutOracle::inverseButterflyTwiddles(const TwiddleTable &tw,
                                       unsigned stage, unsigned va,
                                       unsigned vb, u128 *pattern) const
{
    blockTwiddles(tw.invRootPowers(), stage, va, vb, pattern);
}

void
LayoutOracle::commitButterfly(unsigned va, unsigned vb, unsigned sum_reg,
                              unsigned diff_reg)
{
    const Tags &a = tags(va);
    const Tags &b = tags(vb);
    rpu_assert(sum_reg < arch::kNumVregs && diff_reg < arch::kNumVregs,
               "bad butterfly destination v%u/v%u", sum_reg, diff_reg);
    if (sum_reg == va && diff_reg == vb)
        return; // in place: positions stay where they are
    if (sum_reg == diff_reg) {
        // The difference lands last.
        if (diff_reg != vb)
            row(diff_reg) = b;
    } else if (sum_reg == vb) {
        // The sum overwrites the difference source: save it first.
        row(kScratchRow) = b;
        row(sum_reg) = a;
        row(diff_reg) = row(kScratchRow);
    } else {
        if (sum_reg != va)
            row(sum_reg) = a;
        if (diff_reg != vb)
            row(diff_reg) = b;
    }
    tracked_[sum_reg] = true;
    tracked_[diff_reg] = true;
}

void
LayoutOracle::checkStore(unsigned reg, uint64_t word_offset_from_data,
                         AddrMode mode, unsigned mode_value) const
{
    const Tags &t = tags(reg);
    for (unsigned lane = 0; lane < VL; ++lane) {
        const uint64_t addr =
            word_offset_from_data +
            (mode == AddrMode::CONTIGUOUS
                 ? lane
                 : FunctionalSimulator::laneOffset(mode, mode_value, lane));
        if (addr != t[lane]) {
            rpu_panic("store misplacement: lane %u holds position %u but "
                      "writes word %llu",
                      lane, t[lane], (unsigned long long)addr);
        }
    }
}

} // namespace rpu
