#include "poly/ntt.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rpu {

namespace {

/** Thread-local u64 staging buffer shared by the narrow transforms. */
std::vector<uint64_t> &
narrowScratch(uint64_t n)
{
    thread_local std::vector<uint64_t> buf;
    if (buf.size() < n)
        buf.resize(n);
    return buf;
}

} // namespace

void
NttContext::forward(std::vector<u128> &x) const
{
    const uint64_t n = tw_.n();
    rpu_assert(x.size() == n, "size mismatch: %zu vs n=%llu", x.size(),
               (unsigned long long)n);
    if (narrowPathActive()) {
        forwardNarrow(x);
        return;
    }
    // A local copy: the stores to x cannot alias its constants, so the
    // butterfly loop need not reload them after every store.
    const Modulus mod = tw_.modulus();

    // m: butterflies-per-group doubles each stage; t: half-gap.
    uint64_t t = n;
    for (uint64_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (uint64_t i = 0; i < m; ++i) {
            const u128 w = tw_.rootPowerMont(m + i);
            const uint64_t j1 = 2 * i * t;
            for (uint64_t j = j1; j < j1 + t; ++j) {
                const u128 u = x[j];
                const u128 v = mod.mulMontNormal(w, x[j + t]);
                x[j] = mod.add(u, v);
                x[j + t] = mod.sub(u, v);
            }
        }
    }
}

void
NttContext::inverse(std::vector<u128> &x) const
{
    const uint64_t n = tw_.n();
    rpu_assert(x.size() == n, "size mismatch");
    if (narrowPathActive()) {
        inverseNarrow(x);
        return;
    }
    // Unlike forward(), a reference: a local copy measured about 3%
    // slower here (n = 64K, 128-bit), where the longer sub-then-mul
    // chain leaves no registers for the constants.
    const Modulus &mod = tw_.modulus();

    // Exact mirror of forward(): stages run backwards, each butterfly
    // inverted; the per-stage 1/2 factors are folded into n^-1.
    uint64_t t = 1;
    for (uint64_t m = n >> 1; m >= 1; m >>= 1) {
        for (uint64_t i = 0; i < m; ++i) {
            const u128 w_inv = tw_.invRootPowerMont(m + i);
            const uint64_t j1 = 2 * i * t;
            for (uint64_t j = j1; j < j1 + t; ++j) {
                const u128 a = x[j];
                const u128 b = x[j + t];
                x[j] = mod.add(a, b);
                x[j + t] = mod.mulMontNormal(w_inv, mod.sub(a, b));
            }
        }
        t <<= 1;
    }
    const u128 scale = tw_.nInvMont();
    for (auto &v : x)
        v = mod.mulMontNormal(scale, v);
}

void
NttContext::forwardPlain(std::vector<u128> &x) const
{
    const uint64_t n = tw_.n();
    rpu_assert(x.size() == n, "size mismatch");
    const Modulus &mod = tw_.modulus();

    uint64_t t = n;
    for (uint64_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (uint64_t i = 0; i < m; ++i) {
            const u128 w = tw_.rootPower(m + i);
            const uint64_t j1 = 2 * i * t;
            for (uint64_t j = j1; j < j1 + t; ++j) {
                const u128 u = x[j];
                const u128 v = mod.mul(w, x[j + t]);
                x[j] = mod.add(u, v);
                x[j + t] = mod.sub(u, v);
            }
        }
    }
}

void
NttContext::inversePlain(std::vector<u128> &x) const
{
    const uint64_t n = tw_.n();
    rpu_assert(x.size() == n, "size mismatch");
    const Modulus &mod = tw_.modulus();

    uint64_t t = 1;
    for (uint64_t m = n >> 1; m >= 1; m >>= 1) {
        for (uint64_t i = 0; i < m; ++i) {
            const u128 w_inv = tw_.invRootPower(m + i);
            const uint64_t j1 = 2 * i * t;
            for (uint64_t j = j1; j < j1 + t; ++j) {
                const u128 a = x[j];
                const u128 b = x[j + t];
                x[j] = mod.add(a, b);
                x[j + t] = mod.mul(w_inv, mod.sub(a, b));
            }
        }
        t <<= 1;
    }
    for (auto &v : x)
        v = mod.mul(tw_.nInv(), v);
}

void
NttContext::forwardNarrow(std::vector<u128> &x) const
{
    const uint64_t n = tw_.n();
    const uint64_t q = uint64_t(tw_.modulus().value());
    const uint64_t *roots = tw_.root64();
    const uint64_t *shoups = tw_.root64Shoup();

    std::vector<uint64_t> &scratch = narrowScratch(n);
    uint64_t *d = scratch.data();
    for (uint64_t i = 0; i < n; ++i)
        d[i] = uint64_t(x[i]); // canonical (< q < 2^62), cast exact

    // Streaming stages: while a butterfly group spans more than one
    // tile, run the stage over the whole polynomial. Values stay in
    // the lazy [0, 4q) domain between stages.
    uint64_t t = n;
    uint64_t m = 1;
    for (; m < n; m <<= 1) {
        t >>= 1;
        if (2 * t <= kNttTileElems)
            break; // remaining stages are tile-local
        for (uint64_t i = 0; i < m; ++i)
            simd::forwardButterflyLazySpan(d + 2 * i * t,
                                           d + 2 * i * t + t, t,
                                           roots[m + i], shoups[m + i],
                                           q);
    }

    // Tile-local stages: each 2t-sized block now holds complete
    // butterfly groups for every remaining stage, so run them all
    // while the block is cache-resident.
    if (m < n) {
        const uint64_t blockSize = 2 * t;
        for (uint64_t b = 0; b * blockSize < n; ++b) {
            uint64_t *base = d + b * blockSize;
            uint64_t tt = t;
            for (uint64_t mm = m; mm < n; mm <<= 1) {
                const uint64_t groups = blockSize / (2 * tt);
                const uint64_t i0 = b * groups;
                for (uint64_t g = 0; g < groups; ++g)
                    simd::forwardButterflyLazySpan(
                        base + 2 * g * tt, base + 2 * g * tt + tt, tt,
                        roots[mm + i0 + g], shoups[mm + i0 + g], q);
                tt >>= 1;
            }
        }
    }

    simd::canonicalizeSpan(d, n, q);
    for (uint64_t i = 0; i < n; ++i)
        x[i] = d[i];
}

void
NttContext::inverseNarrow(std::vector<u128> &x) const
{
    const uint64_t n = tw_.n();
    const uint64_t q = uint64_t(tw_.modulus().value());
    const uint64_t *roots = tw_.invRoot64();
    const uint64_t *shoups = tw_.invRoot64Shoup();

    std::vector<uint64_t> &scratch = narrowScratch(n);
    uint64_t *d = scratch.data();
    for (uint64_t i = 0; i < n; ++i)
        d[i] = uint64_t(x[i]);

    // Mirror of forwardNarrow's blocking: the early GS stages have
    // small gaps, so run every stage with 2t <= tile block-by-block
    // first, then stream the remaining large-gap stages. Values stay
    // in [0, 2q) between stages.
    const uint64_t blockSize = std::min<uint64_t>(kNttTileElems, n);
    for (uint64_t b = 0; b * blockSize < n; ++b) {
        uint64_t *base = d + b * blockSize;
        uint64_t mm = n >> 1;
        for (uint64_t tt = 1; 2 * tt <= blockSize; tt <<= 1) {
            const uint64_t groups = blockSize / (2 * tt);
            const uint64_t i0 = b * groups;
            for (uint64_t g = 0; g < groups; ++g)
                simd::inverseButterflyLazySpan(
                    base + 2 * g * tt, base + 2 * g * tt + tt, tt,
                    roots[mm + i0 + g], shoups[mm + i0 + g], q);
            mm >>= 1;
        }
    }
    {
        uint64_t t = blockSize;
        for (uint64_t m = n / (2 * blockSize); m >= 1; m >>= 1) {
            for (uint64_t i = 0; i < m; ++i)
                simd::inverseButterflyLazySpan(d + 2 * i * t,
                                               d + 2 * i * t + t, t,
                                               roots[m + i],
                                               shoups[m + i], q);
            t <<= 1;
        }
    }

    // Fold in n^-1; mulShoupSpan canonicalises, so no separate pass.
    simd::mulShoupSpan(d, d, n, tw_.nInv64(), tw_.nInv64Shoup(), q);
    for (uint64_t i = 0; i < n; ++i)
        x[i] = d[i];
}

} // namespace rpu
