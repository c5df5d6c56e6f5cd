#include "rns/crt.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rpu {

namespace {

/** @p v as exactly @p words little-endian limbs (v < 2^(64 words)). */
std::vector<uint64_t>
limbsOf(const BigUInt &v, size_t words)
{
    std::vector<uint64_t> out(words, 0);
    std::copy(v.limbs().begin(), v.limbs().end(), out.begin());
    return out;
}

/**
 * acc[0, len) += a[0, n) * m, for n <= len. The caller keeps the sum
 * below 2^(64 len), so no carry leaves the array.
 */
void
mulAdd(uint64_t *acc, size_t len, const uint64_t *a, size_t n, uint64_t m)
{
    uint64_t carry = 0;
    size_t j = 0;
    for (; j < n; ++j) {
        // At most (2^64 - 1)^2 + 2 (2^64 - 1) = 2^128 - 1: no overflow.
        const u128 t = u128(a[j]) * m + acc[j] + carry;
        acc[j] = uint64_t(t);
        carry = uint64_t(t >> 64);
    }
    for (; carry != 0 && j < len; ++j) {
        acc[j] += carry;
        carry = acc[j] < carry;
    }
}

/** x < y over @p len limbs. */
bool
less(const uint64_t *x, const uint64_t *y, size_t len)
{
    for (size_t j = len; j-- > 0;) {
        if (x[j] != y[j])
            return x[j] < y[j];
    }
    return false;
}

/** x -= y over @p len limbs, for x >= y. */
void
subtract(uint64_t *x, const uint64_t *y, size_t len)
{
    uint64_t borrow = 0;
    for (size_t j = 0; j < len; ++j) {
        const uint64_t d = x[j] - y[j];
        const uint64_t b = x[j] < y[j];
        x[j] = d - borrow;
        borrow = b | (d < borrow);
    }
}

} // namespace

CrtContext::CrtContext(const RnsBasis &basis)
    : basis_(basis), words_((basis.qBits() + 63) / 64)
{
    const size_t L = basis.towers();
    const BigUInt &q = basis.q();
    q_ = limbsOf(q, words_ + 1);
    halfQ_ = limbsOf(q >> 1, words_);
    qOverQi_.reserve(L * words_);
    qOverQiInv_.reserve(L);
    for (size_t i = 0; i < L; ++i) {
        const BigUInt qi = BigUInt::fromU128(basis.prime(i));
        const BigUInt q_over = q / qi;
        // (Q/q_i) mod q_i, then a Fermat inverse in the tower field.
        const u128 rem = (q_over % qi).low128();
        const auto limbs = limbsOf(q_over, words_);
        qOverQi_.insert(qOverQi_.end(), limbs.begin(), limbs.end());
        qOverQiInv_.push_back(basis.modulus(i).inv(rem));
    }
}

void
CrtContext::lift(const u128 *residues, uint64_t *x) const
{
    const size_t w = words_;
    std::fill(x, x + w + 1, 0);
    for (size_t i = 0; i < basis_.towers(); ++i) {
        // term_i = (r_i * (Q/q_i)^-1 mod q_i) * (Q/q_i), below Q.
        const u128 s = basis_.modulus(i).mul(residues[i], qOverQiInv_[i]);
        const uint64_t *a = &qOverQi_[i * w];
        mulAdd(x, w + 1, a, w, uint64_t(s));
        if (const uint64_t hi = uint64_t(s >> 64))
            mulAdd(x + 1, w, a, w, hi);
    }
    // The sum of L terms is below L * Q: at most L - 1 subtractions.
    while (!less(x, q_.data(), w + 1))
        subtract(x, q_.data(), w + 1);
}

size_t
CrtContext::polyLength(const TowerPoly &towers) const
{
    rpu_assert(towers.size() == basis_.towers(),
               "tower count mismatch: %zu vs %zu", towers.size(),
               basis_.towers());
    const size_t n = towers[0].size();
    for (const auto &t : towers)
        rpu_assert(t.size() == n, "ragged tower polynomial");
    return n;
}

std::vector<u128>
CrtContext::decompose(const BigUInt &value) const
{
    const BigUInt reduced = value % basis_.q();
    std::vector<u128> residues(basis_.towers());
    for (size_t i = 0; i < basis_.towers(); ++i)
        residues[i] =
            (reduced % BigUInt::fromU128(basis_.prime(i))).low128();
    return residues;
}

BigUInt
CrtContext::reconstruct(const std::vector<u128> &residues) const
{
    rpu_assert(residues.size() == basis_.towers(),
               "residue count mismatch");
    std::vector<uint64_t> x(words_ + 1);
    lift(residues.data(), x.data());
    return BigUInt::fromLimbs(x.data(), words_);
}

CrtContext::TowerPoly
CrtContext::decomposePoly(const std::vector<BigUInt> &coeffs) const
{
    TowerPoly towers(basis_.towers(),
                     std::vector<u128>(coeffs.size(), 0));
    for (size_t c = 0; c < coeffs.size(); ++c) {
        const auto residues = decompose(coeffs[c]);
        for (size_t t = 0; t < basis_.towers(); ++t)
            towers[t][c] = residues[t];
    }
    return towers;
}

std::vector<BigUInt>
CrtContext::reconstructPoly(const TowerPoly &towers) const
{
    const size_t n = polyLength(towers);
    std::vector<BigUInt> coeffs(n);
    std::vector<u128> residues(basis_.towers());
    std::vector<uint64_t> x(words_ + 1);
    for (size_t c = 0; c < n; ++c) {
        for (size_t t = 0; t < basis_.towers(); ++t)
            residues[t] = towers[t][c];
        lift(residues.data(), x.data());
        coeffs[c] = BigUInt::fromLimbs(x.data(), words_);
    }
    return coeffs;
}

std::vector<double>
CrtContext::liftCentred(const TowerPoly &towers) const
{
    const size_t n = polyLength(towers);
    std::vector<double> out(n);
    std::vector<u128> residues(basis_.towers());
    std::vector<uint64_t> x(words_ + 1);
    std::vector<uint64_t> neg(words_);
    for (size_t c = 0; c < n; ++c) {
        for (size_t t = 0; t < basis_.towers(); ++t)
            residues[t] = towers[t][c];
        lift(residues.data(), x.data());
        if (less(halfQ_.data(), x.data(), words_)) {
            // x > floor(Q/2): the representative is -(Q - x).
            std::copy(q_.begin(), q_.begin() + words_, neg.begin());
            subtract(neg.data(), x.data(), words_);
            out[c] = -BigUInt::limbsToDouble(neg.data(), words_);
        } else {
            out[c] = BigUInt::limbsToDouble(x.data(), words_);
        }
    }
    return out;
}

} // namespace rpu
