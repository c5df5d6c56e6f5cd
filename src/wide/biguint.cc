#include "wide/biguint.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rpu {

BigUInt::BigUInt(uint64_t v)
{
    if (v != 0)
        limbs_.push_back(v);
}

BigUInt
BigUInt::fromU128(u128 v)
{
    BigUInt r;
    if (v != 0) {
        r.limbs_.push_back(uint64_t(v));
        const uint64_t hi = uint64_t(v >> 64);
        if (hi != 0)
            r.limbs_.push_back(hi);
    }
    return r;
}

BigUInt
BigUInt::fromLimbs(const uint64_t *limbs, size_t count)
{
    BigUInt r;
    r.limbs_.assign(limbs, limbs + count);
    r.trim();
    return r;
}

BigUInt
BigUInt::fromDecimal(const std::string &s)
{
    if (s.empty())
        rpu_fatal("empty decimal string");
    BigUInt r;
    for (char c : s) {
        if (c < '0' || c > '9')
            rpu_fatal("malformed decimal digit '%c'", c);
        r = r * BigUInt(10) + BigUInt(uint64_t(c - '0'));
    }
    return r;
}

void
BigUInt::trim()
{
    while (!limbs_.empty() && limbs_.back() == 0)
        limbs_.pop_back();
}

size_t
BigUInt::bitLength() const
{
    if (limbs_.empty())
        return 0;
    const uint64_t top = limbs_.back();
    return (limbs_.size() - 1) * 64 + (64 - __builtin_clzll(top));
}

u128
BigUInt::low128() const
{
    u128 v = limbs_.empty() ? 0 : limbs_[0];
    if (limbs_.size() > 1)
        v |= u128(limbs_[1]) << 64;
    return v;
}

double
BigUInt::toDouble() const
{
    return limbsToDouble(limbs_.data(), limbs_.size());
}

double
BigUInt::limbsToDouble(const uint64_t *limbs, size_t count)
{
    double r = 0.0;
    for (size_t i = count; i-- > 0;)
        r = r * 18446744073709551616.0 + double(limbs[i]);
    return r;
}

BigUInt
BigUInt::operator+(const BigUInt &o) const
{
    BigUInt r;
    const size_t n = std::max(limbs_.size(), o.limbs_.size());
    r.limbs_.resize(n, 0);
    u128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
        u128 sum = carry;
        if (i < limbs_.size())
            sum += limbs_[i];
        if (i < o.limbs_.size())
            sum += o.limbs_[i];
        r.limbs_[i] = uint64_t(sum);
        carry = sum >> 64;
    }
    if (carry != 0)
        r.limbs_.push_back(uint64_t(carry));
    return r;
}

BigUInt
BigUInt::operator-(const BigUInt &o) const
{
    rpu_assert(!(*this < o), "BigUInt subtraction would underflow");
    BigUInt r;
    r.limbs_.resize(limbs_.size(), 0);
    uint64_t borrow = 0;
    for (size_t i = 0; i < limbs_.size(); ++i) {
        const uint64_t rhs = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const uint64_t lhs = limbs_[i];
        const uint64_t d1 = lhs - rhs;
        const uint64_t b1 = lhs < rhs ? 1 : 0;
        const uint64_t d2 = d1 - borrow;
        const uint64_t b2 = d1 < borrow ? 1 : 0;
        r.limbs_[i] = d2;
        borrow = b1 | b2;
    }
    rpu_assert(borrow == 0, "BigUInt subtraction borrow out");
    r.trim();
    return r;
}

BigUInt
BigUInt::operator*(const BigUInt &o) const
{
    if (isZero() || o.isZero())
        return {};
    BigUInt r;
    r.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
    for (size_t i = 0; i < limbs_.size(); ++i) {
        u128 carry = 0;
        for (size_t j = 0; j < o.limbs_.size(); ++j) {
            u128 cur = u128(limbs_[i]) * o.limbs_[j] +
                       r.limbs_[i + j] + carry;
            r.limbs_[i + j] = uint64_t(cur);
            carry = cur >> 64;
        }
        size_t k = i + o.limbs_.size();
        while (carry != 0) {
            u128 cur = u128(r.limbs_[k]) + carry;
            r.limbs_[k] = uint64_t(cur);
            carry = cur >> 64;
            ++k;
        }
    }
    r.trim();
    return r;
}

std::pair<BigUInt, BigUInt>
BigUInt::divmod(const BigUInt &divisor) const
{
    rpu_assert(!divisor.isZero(), "BigUInt division by zero");
    if (*this < divisor)
        return {BigUInt(), *this};
    if (divisor.limbs_.size() == 1) {
        // Fast single-limb path.
        BigUInt q;
        q.limbs_.resize(limbs_.size(), 0);
        const uint64_t d = divisor.limbs_[0];
        u128 rem = 0;
        for (size_t i = limbs_.size(); i-- > 0;) {
            const u128 cur = (rem << 64) | limbs_[i];
            q.limbs_[i] = uint64_t(cur / d);
            rem = cur % d;
        }
        q.trim();
        return {q, BigUInt(uint64_t(rem))};
    }

    // Knuth TAOCP vol.2 Algorithm D. Normalise so the divisor's top
    // limb has its high bit set, then estimate one quotient limb at a
    // time with a 128/64 division and correct it (at most twice).
    const size_t n = divisor.limbs_.size();
    const size_t m = limbs_.size() - n;
    const unsigned shift = __builtin_clzll(divisor.limbs_.back());

    const BigUInt u_norm = *this << shift;
    const BigUInt v_norm = divisor << shift;

    std::vector<uint64_t> u(u_norm.limbs_);
    u.resize(limbs_.size() + 1, 0);
    const std::vector<uint64_t> &v = v_norm.limbs_;

    BigUInt q;
    q.limbs_.assign(m + 1, 0);

    for (size_t j = m + 1; j-- > 0;) {
        const u128 top = (u128(u[j + n]) << 64) | u[j + n - 1];
        u128 qhat = top / v[n - 1];
        u128 rhat = top % v[n - 1];
        const u128 limb_max = ~uint64_t(0);
        while (qhat > limb_max ||
               qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
            --qhat;
            rhat += v[n - 1];
            if (rhat > limb_max)
                break;
        }

        // Multiply-and-subtract qhat * v from u[j .. j+n].
        u128 borrow = 0;
        u128 carry = 0;
        for (size_t i = 0; i < n; ++i) {
            const u128 p = qhat * v[i] + carry;
            carry = p >> 64;
            const uint64_t plo = uint64_t(p);
            const uint64_t before = u[i + j];
            const uint64_t mid = before - plo;
            uint64_t b = before < plo ? 1 : 0;
            const uint64_t after = mid - uint64_t(borrow);
            b += mid < uint64_t(borrow) ? 1 : 0;
            u[i + j] = after;
            borrow = b;
        }
        const u128 topsub = carry + borrow;
        if (u128(u[j + n]) < topsub) {
            // qhat was one too large: add back.
            u[j + n] = uint64_t(u128(u[j + n]) - topsub);
            --qhat;
            u128 c = 0;
            for (size_t i = 0; i < n; ++i) {
                const u128 s = u128(u[i + j]) + v[i] + c;
                u[i + j] = uint64_t(s);
                c = s >> 64;
            }
            u[j + n] += uint64_t(c);
        } else {
            u[j + n] = uint64_t(u128(u[j + n]) - topsub);
        }
        q.limbs_[j] = uint64_t(qhat);
    }

    q.trim();
    BigUInt rem;
    rem.limbs_.assign(u.begin(), u.begin() + n);
    rem.trim();
    return {q, rem >> shift};
}

BigUInt
BigUInt::operator<<(size_t bits) const
{
    if (isZero() || bits == 0)
        return *this;
    const size_t limb_shift = bits / 64;
    const unsigned bit_shift = bits % 64;
    BigUInt r;
    r.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (size_t i = 0; i < limbs_.size(); ++i) {
        r.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
        if (bit_shift != 0)
            r.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
    r.trim();
    return r;
}

BigUInt
BigUInt::operator>>(size_t bits) const
{
    const size_t limb_shift = bits / 64;
    const unsigned bit_shift = bits % 64;
    if (limb_shift >= limbs_.size())
        return {};
    BigUInt r;
    r.limbs_.assign(limbs_.begin() + limb_shift, limbs_.end());
    if (bit_shift != 0) {
        for (size_t i = 0; i < r.limbs_.size(); ++i) {
            r.limbs_[i] >>= bit_shift;
            if (i + 1 < r.limbs_.size())
                r.limbs_[i] |= r.limbs_[i + 1] << (64 - bit_shift);
        }
    }
    r.trim();
    return r;
}

std::strong_ordering
BigUInt::operator<=>(const BigUInt &o) const
{
    if (limbs_.size() != o.limbs_.size())
        return limbs_.size() <=> o.limbs_.size();
    for (size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i] != o.limbs_[i])
            return limbs_[i] <=> o.limbs_[i];
    }
    return std::strong_ordering::equal;
}

std::string
BigUInt::toDecimal() const
{
    if (isZero())
        return "0";
    std::string out;
    BigUInt cur = *this;
    const BigUInt ten(10);
    while (!cur.isZero()) {
        auto [q, r] = cur.divmod(ten);
        out.push_back(char('0' + r.low64()));
        cur = q;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

} // namespace rpu
