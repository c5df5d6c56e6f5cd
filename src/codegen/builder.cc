#include "codegen/builder.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rpu {

namespace {

constexpr unsigned VL = arch::kVectorLength;

/** All @p len lanes of the view (p, stride) equal its first. */
bool
constantView(const u128 *p, unsigned stride, unsigned len)
{
    for (unsigned i = 1; i < len; ++i) {
        if (p[size_t(i) * stride] != p[0])
            return false;
    }
    return true;
}

/** FNV-style hash over four interleaved lane streams. */
uint64_t
patternHash(const u128 *p)
{
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t h[4] = {0xcbf29ce484222325ull, 1, 2, 3};
    for (unsigned i = 0; i < VL; i += 4) {
        for (unsigned k = 0; k < 4; ++k) {
            h[k] = (h[k] ^ uint64_t(p[i + k])) * kPrime;
            h[k] = (h[k] ^ uint64_t(p[i + k] >> 64)) * kPrime;
        }
    }
    return ((h[0] * kPrime ^ h[1]) * kPrime ^ h[2]) * kPrime ^ h[3];
}

} // namespace

KernelBuilder::KernelBuilder(const TwiddleTable &tw, bool optimized,
                             uint64_t twplan_base, bool compose)
    : tw_(tw), optimized_(optimized), compose_(compose),
      twplan_base_(twplan_base == 0 ? tw.n() : twplan_base),
      oracle_(tw.n())
{
    // v0 is reserved as an always-zero scratch convention; the pool
    // hands out v1..v63.
    for (unsigned r = 1; r < arch::kNumVregs; ++r) {
        pool_.push_back(r);
        pooled_[r] = true;
    }
    bcast_.reserve(kBroadcastCacheCap);
}

unsigned
KernelBuilder::allocReg()
{
    rpu_assert(!pool_.empty(), "vector register pool exhausted");
    unsigned r;
    if (optimized_) {
        // FIFO: maximise the distance before a register is reused.
        r = pool_.front();
        pool_.pop_front();
    } else {
        // LIFO: a naive generator recycles the hottest register.
        r = pool_.back();
        pool_.pop_back();
    }
    pooled_[r] = false;
    return r;
}

void
KernelBuilder::freeReg(unsigned reg)
{
    rpu_assert(reg >= 1 && reg < arch::kNumVregs, "bad register %u", reg);
    rpu_assert(!pooled_[reg], "double free of v%u", reg);
    oracle_.clear(reg);
    pool_.push_back(reg);
    pooled_[reg] = true;
}

uint64_t
KernelBuilder::sdmScalar(u128 value)
{
    auto it = sdm_slots_.find(value);
    if (it != sdm_slots_.end())
        return it->second;
    const uint64_t addr = sdm_image_.size();
    if (addr >= arch::kSdmWords)
        rpu_fatal("SDM scalar capacity exceeded (%zu words)",
                  arch::kSdmWords);
    sdm_image_.push_back(value);
    sdm_slots_.emplace(value, addr);
    return addr;
}

uint64_t
KernelBuilder::twPlanVector(const u128 *pattern)
{
    const uint64_t hash = patternHash(pattern);
    const auto [first, last] = twplan_slots_.equal_range(hash);
    for (auto it = first; it != last; ++it) {
        if (std::equal(pattern, pattern + VL,
                       twplan_image_.begin() + it->second))
            return it->second;
    }
    const uint64_t offset = twplan_image_.size();
    twplan_image_.insert(twplan_image_.end(), pattern, pattern + VL);
    twplan_slots_.emplace(hash, offset);
    return offset;
}

void
KernelBuilder::emitPrologue(bool needs_ninv)
{
    // SDM layout: the deduplicating allocator assigns slots in
    // first-use order; the prologue claims its constants first.
    const uint64_t q_addr = sdmScalar(tw_.modulus().value());
    const uint64_t data_addr = sdmScalar(u128(data_base_));
    const uint64_t plan_addr = sdmScalar(u128(twPlanBase()));
    const uint64_t zero_addr = sdmScalar(u128(0));

    prog_.append(Instruction::mload(kModReg, uint32_t(q_addr)));
    prog_.append(Instruction::aload(kDataAreg, uint32_t(data_addr)));
    prog_.append(Instruction::aload(kTwPlanAreg, uint32_t(plan_addr)));
    prog_.append(Instruction::aload(kSdmAreg, uint32_t(zero_addr)));
    if (needs_ninv) {
        const uint64_t ninv_addr = sdmScalar(tw_.nInv());
        prog_.append(Instruction::sload(kNinvSreg, uint32_t(ninv_addr)));
    }
}

void
KernelBuilder::beginDataRegion(unsigned areg, uint64_t base_words)
{
    rpu_assert(areg < arch::kNumAregs, "bad address register %u", areg);
    rpu_assert(areg != kTwPlanAreg && areg != kSdmAreg,
               "ARF a%u is reserved", areg);
    const uint64_t addr = sdmScalar(u128(base_words));
    prog_.append(Instruction::aload(uint8_t(areg), uint32_t(addr)));
    data_areg_ = areg;
    data_base_ = base_words;
}

void
KernelBuilder::beginTower(u128 modulus, unsigned modreg)
{
    rpu_assert(modreg < arch::kNumMregs, "bad modulus register %u",
               modreg);
    const uint64_t addr = sdmScalar(modulus);
    prog_.append(Instruction::mload(uint8_t(modreg), uint32_t(addr)));
    mod_reg_ = modreg;
}

void
KernelBuilder::beginTowerNinv(u128 ninv, unsigned sreg)
{
    rpu_assert(sreg < arch::kNumSregs, "bad scalar register %u", sreg);
    const uint64_t addr = sdmScalar(ninv);
    prog_.append(Instruction::sload(uint8_t(sreg), uint32_t(addr)));
    ninv_sreg_ = sreg;
}

void
KernelBuilder::emitDataLoad(unsigned reg, uint32_t vreg_index)
{
    const uint64_t offset = uint64_t(vreg_index) * VL;
    rpu_assert(offset + VL <= tw_.n(), "data load beyond ring");
    prog_.append(Instruction::vload(uint8_t(reg), uint8_t(data_areg_),
                                    uint32_t(offset)));
    oracle_.setContiguous(reg, uint32_t(offset));
}

void
KernelBuilder::emitDataStore(unsigned reg)
{
    emitRegionStore(reg, data_areg_);
}

void
KernelBuilder::emitRegionLoad(unsigned reg, unsigned areg,
                              uint32_t vreg_index)
{
    const uint64_t offset = uint64_t(vreg_index) * VL;
    rpu_assert(offset + VL <= tw_.n(), "data load beyond ring");
    prog_.append(Instruction::vload(uint8_t(reg), uint8_t(areg),
                                    uint32_t(offset)));
    oracle_.setContiguous(reg, uint32_t(offset));
}

void
KernelBuilder::emitRegionStore(unsigned reg, unsigned areg)
{
    const auto &t = oracle_.tags(reg);
    const uint64_t offset = t[0];
    oracle_.checkStore(reg, offset, AddrMode::CONTIGUOUS, 0);
    prog_.append(Instruction::vstore(uint8_t(reg), uint8_t(areg),
                                     uint32_t(offset)));
}

TwiddleRef
KernelBuilder::emitBroadcast(u128 value)
{
    if (optimized_) {
        for (CachedBroadcast &c : bcast_) {
            if (c.value == value) {
                // LRU refresh; the cached register is reused directly.
                c.lastUse = ++bcast_clock_;
                return {c.reg, false};
            }
        }
    }
    const uint64_t sdm_addr = sdmScalar(value);
    const unsigned reg = allocReg();
    prog_.append(
        Instruction::vbcast(uint8_t(reg), kSdmAreg, uint32_t(sdm_addr)));
    oracle_.clear(reg);

    if (!optimized_)
        return {reg, true};

    const CachedBroadcast entry{value, reg, ++bcast_clock_};
    if (bcast_.size() < kBroadcastCacheCap) {
        bcast_.push_back(entry);
    } else {
        auto victim = std::min_element(
            bcast_.begin(), bcast_.end(),
            [](const CachedBroadcast &a, const CachedBroadcast &b) {
                return a.lastUse < b.lastUse;
            });
        freeReg(victim->reg);
        *victim = entry;
    }
    return {reg, false};
}

bool
KernelBuilder::canCompose(const u128 *pattern, unsigned stride,
                          unsigned len, unsigned &leaves) const
{
    if (constantView(pattern, stride, len)) {
        leaves += 1;
        return leaves <= kMaxComposeLeaves;
    }
    // A single lane is constant, so len >= 2 here. Split into even
    // and odd lanes and recurse.
    return canCompose(pattern, 2 * stride, len / 2, leaves) &&
           canCompose(pattern + stride, 2 * stride, len / 2, leaves);
}

TwiddleRef
KernelBuilder::materializeView(const u128 *pattern, unsigned stride,
                               unsigned len)
{
    if (constantView(pattern, stride, len))
        return emitBroadcast(pattern[0]);

    // UNPKLO(A, B) builds lanes [A0,B0,A1,B1,...] from the first
    // halves of A and B, so A's prefix must hold the even sub-pattern
    // and B's the odd one.
    const TwiddleRef a = materializeView(pattern, 2 * stride, len / 2);
    const TwiddleRef b =
        materializeView(pattern + stride, 2 * stride, len / 2);
    const unsigned out = allocReg();
    prog_.append(Instruction::shuffle(Opcode::UNPKLO, uint8_t(out),
                                      uint8_t(a.reg), uint8_t(b.reg)));
    oracle_.clear(out);
    releaseTwiddle(a);
    releaseTwiddle(b);
    return {out, true};
}

TwiddleRef
KernelBuilder::twiddleReg(const u128 *pattern)
{
    unsigned leaves = 0;
    if (constantView(pattern, 1, VL))
        return emitBroadcast(pattern[0]);
    if (compose_ && canCompose(pattern, 1, VL, leaves))
        return materializeView(pattern, 1, VL);

    // Fall back to a precomputed vector in the twiddle-plan region.
    const uint64_t offset = twPlanVector(pattern);
    const unsigned reg = allocReg();
    prog_.append(Instruction::vload(uint8_t(reg), kTwPlanAreg,
                                    uint32_t(offset)));
    oracle_.clear(reg);
    return {reg, true};
}

void
KernelBuilder::releaseTwiddle(const TwiddleRef &ref)
{
    if (ref.transient)
        freeReg(ref.reg);
}

void
KernelBuilder::emitButterfly(unsigned sum_out, unsigned diff_out,
                             unsigned va, unsigned vb, unsigned tw_reg)
{
    prog_.append(Instruction::butterfly(uint8_t(sum_out), uint8_t(diff_out),
                                        uint8_t(va), uint8_t(vb),
                                        uint8_t(tw_reg),
                                        uint8_t(mod_reg_)));
    oracle_.commitButterfly(va, vb, sum_out, diff_out);
}

void
KernelBuilder::emitInverseButterfly(unsigned sum_out, unsigned diff_out,
                                    unsigned va, unsigned vb,
                                    unsigned tw_reg)
{
    // sum = a + b; diff = (a - b) * w. A temporary holds the
    // difference so the composition never clobbers a source early.
    const unsigned tmp = allocReg();
    prog_.append(Instruction::vv(Opcode::VSUBMOD, uint8_t(tmp), uint8_t(va),
                                 uint8_t(vb), uint8_t(mod_reg_)));
    prog_.append(Instruction::vv(Opcode::VADDMOD, uint8_t(sum_out),
                                 uint8_t(va), uint8_t(vb),
                                 uint8_t(mod_reg_)));
    prog_.append(Instruction::vv(Opcode::VMULMOD, uint8_t(diff_out),
                                 uint8_t(tmp), uint8_t(tw_reg),
                                 uint8_t(mod_reg_)));
    oracle_.commitButterfly(va, vb, sum_out, diff_out);
    freeReg(tmp);
}

void
KernelBuilder::emitPointwiseMul(unsigned vd, unsigned vs, unsigned vt)
{
    prog_.append(Instruction::vv(Opcode::VMULMOD, uint8_t(vd),
                                 uint8_t(vs), uint8_t(vt),
                                 uint8_t(mod_reg_)));
    oracle_.copyTags(vd, vs);
}

void
KernelBuilder::emitShuffle(Opcode op, unsigned vd, unsigned vs, unsigned vt)
{
    prog_.append(
        Instruction::shuffle(op, uint8_t(vd), uint8_t(vs), uint8_t(vt)));
    if (oracle_.tracked(vs) && oracle_.tracked(vt))
        oracle_.applyShuffle(op, vd, vs, vt);
    else
        oracle_.clear(vd);
}

void
KernelBuilder::emitScaleByNinv(unsigned reg)
{
    prog_.append(Instruction::vs_(Opcode::VSMULMOD, uint8_t(reg),
                                  uint8_t(reg), uint8_t(ninv_sreg_),
                                  uint8_t(mod_reg_)));
    // Positions are unchanged by scaling; oracle state stays valid.
}

} // namespace rpu
