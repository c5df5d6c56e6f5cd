#include "sim/functional/state.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rpu {

ArchState::ArchState(size_t vdm_bytes)
    : vdm_(vdm_bytes / arch::kWordBytes, 0),
      sdm_(arch::kSdmWords, 0),
      vrf_(arch::kNumVregs),
      srf_(arch::kNumSregs, 0),
      arf_(arch::kNumAregs, 0),
      mrf_(arch::kNumMregs, 0)
{
    rpu_assert(vdm_bytes % arch::kWordBytes == 0 &&
               vdm_bytes <= arch::kVdmMaxBytes,
               "invalid VDM size %zu", vdm_bytes);
    for (auto &reg : vrf_)
        reg.fill(0);
}

void
ArchState::reset()
{
    std::fill(vdm_.begin() + dirty_lo_, vdm_.begin() + dirty_hi_, 0);
    dirty_lo_ = dirty_hi_ = 0;
    for (unsigned i = 0; i < arch::kNumVregs; ++i) {
        if (dirty_vregs_ >> i & 1)
            vrf_[i].fill(0);
    }
    dirty_vregs_ = 0;
    std::fill(sdm_.begin(), sdm_.end(), 0);
    std::fill(srf_.begin(), srf_.end(), 0);
    std::fill(arf_.begin(), arf_.end(), 0);
    std::fill(mrf_.begin(), mrf_.end(), 0);
}

bool
ArchState::vdmInBounds(uint64_t word_addr, uint64_t count) const
{
    // Written so that no sum can wrap: word_addr + count may not fit
    // in 64 bits, size - word_addr always does once word_addr <= size.
    return word_addr <= vdm_.size() && count <= vdm_.size() - word_addr;
}

void
ArchState::markVdmDirty(uint64_t lo, uint64_t hi)
{
    if (lo >= hi)
        return;
    if (dirty_lo_ == dirty_hi_) {
        dirty_lo_ = lo;
        dirty_hi_ = hi;
        return;
    }
    dirty_lo_ = std::min(dirty_lo_, lo);
    dirty_hi_ = std::max(dirty_hi_, hi);
}

u128
ArchState::readVdm(uint64_t word_addr) const
{
    if (word_addr >= vdm_.size())
        rpu_fatal("VDM read out of bounds: word %llu of %zu",
                  (unsigned long long)word_addr, vdm_.size());
    return vdm_[word_addr];
}

void
ArchState::writeVdm(uint64_t word_addr, u128 value)
{
    if (word_addr >= vdm_.size())
        rpu_fatal("VDM write out of bounds: word %llu of %zu",
                  (unsigned long long)word_addr, vdm_.size());
    vdm_[word_addr] = value;
    markVdmDirty(word_addr, word_addr + 1);
}

void
ArchState::loadVdm(uint64_t word_addr, const std::vector<u128> &data)
{
    if (!vdmInBounds(word_addr, data.size()))
        rpu_fatal("VDM bulk load out of bounds: %zu words at %llu of %zu",
                  data.size(), (unsigned long long)word_addr,
                  vdm_.size());
    std::copy(data.begin(), data.end(), vdm_.begin() + word_addr);
    markVdmDirty(word_addr, word_addr + data.size());
}

std::vector<u128>
ArchState::dumpVdm(uint64_t word_addr, size_t count) const
{
    if (!vdmInBounds(word_addr, count))
        rpu_fatal("VDM bulk dump out of bounds: %zu words at %llu of %zu",
                  count, (unsigned long long)word_addr, vdm_.size());
    return {vdm_.begin() + word_addr, vdm_.begin() + word_addr + count};
}

const u128 *
ArchState::vdmSpan(uint64_t word_addr, uint64_t count) const
{
    return vdmInBounds(word_addr, count) ? vdm_.data() + word_addr
                                         : nullptr;
}

u128 *
ArchState::vdmSpanForWrite(uint64_t word_addr, uint64_t count)
{
    if (!vdmInBounds(word_addr, count))
        return nullptr;
    markVdmDirty(word_addr, word_addr + count);
    return vdm_.data() + word_addr;
}

u128
ArchState::readSdm(uint64_t word_addr) const
{
    if (word_addr >= sdm_.size())
        rpu_fatal("SDM read out of bounds: word %llu",
                  (unsigned long long)word_addr);
    return sdm_[word_addr];
}

void
ArchState::writeSdm(uint64_t word_addr, u128 value)
{
    if (word_addr >= sdm_.size())
        rpu_fatal("SDM write out of bounds: word %llu",
                  (unsigned long long)word_addr);
    sdm_[word_addr] = value;
}

} // namespace rpu
