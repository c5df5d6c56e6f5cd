#include "modmath/modulus.hh"

#include <bit>

#include "common/logging.hh"

namespace rpu {

Modulus::Modulus(u128 q) : q_(q)
{
    rpu_assert(q >= 2, "modulus must be >= 2");

    const uint64_t top = uint64_t(q >> 64);
    s_ = top ? std::countl_zero(top) : 64 + std::countl_zero(uint64_t(q));
    d_ = q << s_;
    // v = floor((2^256 - 1) / d) - 2^128 is the quotient of
    // (~d) * 2^128 + (2^128 - 1) by d, which fits 128 bits as ~d < d.
    u128 unused;
    v_ = divmod256by128(U256{~d_, ~u128(0)}, d_, unused).lo;

    if (!isOdd())
        return; // Montgomery constants are undefined for even moduli.

    if (simd::narrowModulusOk(q))
        narrow_.emplace(uint64_t(q));

    // Newton iteration for q^-1 mod 2^128: each step doubles the
    // number of correct low bits, so 7 steps starting from 1 bit
    // reach 128.
    u128 inv = 1;
    for (int i = 0; i < 7; ++i)
        inv *= 2 - q * inv;
    rpu_assert(q * inv == 1, "Montgomery inverse failed");
    qInvNeg_ = u128(0) - inv;

    // r2 = 2^256 mod q, the square of 2^128 mod q.
    const u128 r = add(reduce(~u128(0)), 1);
    r2_ = mul(r, r);
}

u128
Modulus::pow(u128 a, u128 e) const
{
    u128 base = reduce(a);
    u128 result = reduce(1);
    while (e != 0) {
        if (e & 1)
            result = mul(result, base);
        base = mul(base, base);
        e >>= 1;
    }
    return result;
}

u128
Modulus::inv(u128 a) const
{
    rpu_assert(reduce(a) != 0, "inverse of zero");
    return pow(a, q_ - 2);
}

u128
Modulus::toMont(u128 a) const
{
    rpu_assert(isOdd(), "Montgomery form requires an odd modulus");
    return redc(mulWide(reduce(a), r2_));
}

} // namespace rpu
