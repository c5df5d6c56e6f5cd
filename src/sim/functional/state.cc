#include "sim/functional/state.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rpu {

template <typename Word>
BasicArchState<Word>::BasicArchState(size_t vdm_bytes)
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

template <typename Word>
void
BasicArchState<Word>::reset()
{
    std::fill(vdm_.begin() + dirty_lo_, vdm_.begin() + dirty_hi_, 0);
    dirty_lo_ = dirty_hi_ = 0;
    for (unsigned i = 0; i < arch::kNumVregs; ++i) {
        if (dirty_vregs_ >> i & 1)
            vrf_[i].fill(0);
    }
    dirty_vregs_ = 0;
    truncated_ = false;
    std::fill(sdm_.begin(), sdm_.end(), 0);
    std::fill(srf_.begin(), srf_.end(), 0);
    std::fill(arf_.begin(), arf_.end(), 0);
    std::fill(mrf_.begin(), mrf_.end(), 0);
}

template <typename Word>
bool
BasicArchState<Word>::vdmInBounds(uint64_t word_addr,
                                  uint64_t count) const
{
    // Written so that no sum can wrap: word_addr + count may not fit
    // in 64 bits, size - word_addr always does once word_addr <= size.
    return word_addr <= vdm_.size() && count <= vdm_.size() - word_addr;
}

template <typename Word>
void
BasicArchState<Word>::markVdmDirty(uint64_t lo, uint64_t hi)
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

template <typename Word>
u128
BasicArchState<Word>::readVdm(uint64_t word_addr) const
{
    if (word_addr >= vdm_.size())
        rpu_fatal("VDM read out of bounds: word %llu of %zu",
                  (unsigned long long)word_addr, vdm_.size());
    return vdm_[word_addr];
}

template <typename Word>
void
BasicArchState<Word>::writeVdm(uint64_t word_addr, u128 value)
{
    if (word_addr >= vdm_.size())
        rpu_fatal("VDM write out of bounds: word %llu of %zu",
                  (unsigned long long)word_addr, vdm_.size());
    vdm_[word_addr] = toLane(value);
    markVdmDirty(word_addr, word_addr + 1);
}

template <typename Word>
void
BasicArchState<Word>::loadVdm(uint64_t word_addr,
                              const std::vector<u128> &data)
{
    if (!vdmInBounds(word_addr, data.size()))
        rpu_fatal("VDM bulk load out of bounds: %zu words at %llu of %zu",
                  data.size(), (unsigned long long)word_addr,
                  vdm_.size());
    Word *dst = vdm_.data() + word_addr;
    if constexpr (std::is_same_v<Word, u128>) {
        std::copy(data.begin(), data.end(), dst);
    } else {
        // toLane() word by word, but branch-free so the loop
        // vectorises: narrow, and OR the high halves together.
        uint64_t high = 0;
        for (size_t i = 0; i < data.size(); ++i) {
            high |= uint64_t(data[i] >> 64);
            dst[i] = Word(data[i]);
        }
        if (high != 0)
            truncated_ = true;
    }
    markVdmDirty(word_addr, word_addr + data.size());
}

template <typename Word>
std::vector<u128>
BasicArchState<Word>::dumpVdm(uint64_t word_addr, size_t count) const
{
    if (!vdmInBounds(word_addr, count))
        rpu_fatal("VDM bulk dump out of bounds: %zu words at %llu of %zu",
                  count, (unsigned long long)word_addr, vdm_.size());
    return {vdm_.begin() + word_addr, vdm_.begin() + word_addr + count};
}

template <typename Word>
const Word *
BasicArchState<Word>::vdmSpan(uint64_t word_addr, uint64_t count) const
{
    return vdmInBounds(word_addr, count) ? vdm_.data() + word_addr
                                         : nullptr;
}

template <typename Word>
Word *
BasicArchState<Word>::vdmSpanForWrite(uint64_t word_addr,
                                      uint64_t count)
{
    if (!vdmInBounds(word_addr, count))
        return nullptr;
    markVdmDirty(word_addr, word_addr + count);
    return vdm_.data() + word_addr;
}

template <typename Word>
u128
BasicArchState<Word>::readSdm(uint64_t word_addr) const
{
    if (word_addr >= sdm_.size())
        rpu_fatal("SDM read out of bounds: word %llu",
                  (unsigned long long)word_addr);
    return sdm_[word_addr];
}

template <typename Word>
void
BasicArchState<Word>::writeSdm(uint64_t word_addr, u128 value)
{
    if (word_addr >= sdm_.size())
        rpu_fatal("SDM write out of bounds: word %llu",
                  (unsigned long long)word_addr);
    sdm_[word_addr] = value;
}

template class BasicArchState<uint64_t>;
template class BasicArchState<u128>;

} // namespace rpu
