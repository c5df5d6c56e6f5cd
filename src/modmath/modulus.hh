/**
 * @file
 * 128-bit modular arithmetic — the numeric core of the LAW engine.
 *
 * The RPU operates on 128-bit ring elements (paper section III-A).
 * Multiplication modulo a 128-bit modulus requires 256-bit
 * intermediate products. Every modulus, odd or even, reduces them the
 * same way: one Möller–Granlund 2-by-1 division by the modulus
 * normalised to d = q * 2^s, with the reciprocal
 * v = floor((2^256 - 1) / d) - 2^128 precomputed at construction
 * ("Improved division by invariant integers", IEEE TC 2011). So the
 * ISA-level semantics ("a * b mod q") hold exactly for any modulus
 * and any operand values.
 *
 * All public entry points take and return *plain* (non-Montgomery)
 * representatives in [0, q). Montgomery form (R = 2^128, odd moduli
 * only) is kept for the explicit toMont()/mulMontNormal() fast path
 * used by the reference NTT's precomputed twiddles, which keeps that
 * reference on a reduction algorithm independent of mul().
 */

#ifndef RPU_MODMATH_MODULUS_HH
#define RPU_MODMATH_MODULUS_HH

#include <cstdint>
#include <optional>

#include "common/random.hh"
#include "modmath/simd.hh"
#include "wide/u256.hh"

namespace rpu {

/**
 * A fixed 128-bit modulus with its precomputed division reciprocal
 * (and, for odd moduli, Montgomery constants).
 */
class Modulus
{
  public:
    /** Precompute constants for modulus @p q (q >= 2). */
    explicit Modulus(u128 q);

    u128 value() const { return q_; }
    unsigned bits() const { return 128 - s_; }

    /**
     * (a + b) mod q for reduced inputs. For any inputs the result is
     * the 129-bit sum less q when it reaches q, taken mod 2^128 (one
     * conditional subtraction).
     */
    u128
    add(u128 a, u128 b) const
    {
        // a + b can exceed 2^128: the wrap counts as reaching q.
        const u128 t = a + b;
        return t - (q_ & mask((t < a) | (t >= q_)));
    }

    /**
     * (a - b) mod q for reduced inputs. For any inputs the result is
     * a - b, plus q when a < b, taken mod 2^128.
     */
    u128
    sub(u128 a, u128 b) const
    {
        return a - b + (q_ & mask(a < b));
    }

    /** (a * b) mod q, exact for any a, b < 2^128. */
    u128
    mul(u128 a, u128 b) const
    {
        U256 p = mulWide(a, b);
        // Reduced operands give p.hi < q; unreduced ones may not, and
        // rem() needs it.
        if (p.hi >= q_)
            p.hi = rem(0, p.hi);
        return rem(p.hi, p.lo);
    }

    /** a^e mod q. */
    u128 pow(u128 a, u128 e) const;

    /** Multiplicative inverse via Fermat (q must be prime). */
    u128 inv(u128 a) const;

    /** Reduce an arbitrary 128-bit value into [0, q). */
    u128 reduce(u128 a) const { return a % q_; }

    /** Negate: (q - a) mod q. */
    u128 neg(u128 a) const { return a == 0 ? 0 : q_ - a; }

    /**
     * Convert to Montgomery form (a * 2^128 mod q). Only valid for
     * odd moduli.
     */
    u128 toMont(u128 a) const;

    /**
     * Multiply a Montgomery-form constant by a plain value, returning
     * a plain value: REDC(aMont * b) = a * b mod q. This is the fast
     * path used with precomputed twiddles (one reduction per product).
     */
    u128
    mulMontNormal(u128 a_mont, u128 b) const
    {
        return redc(mulWide(a_mont, b));
    }

    bool isOdd() const { return (q_ & 1) != 0; }

    /**
     * The per-modulus constants for the vectorised u64 kernel set, or
     * nullptr when q is outside the narrow domain (even or >= 2^62).
     * Built once at construction; the contexts are cached and shared
     * (ModulusContextCache, RnsBasis), so hot paths never rebuild it.
     */
    const simd::NarrowModulus *
    narrow() const
    {
        return narrow_ ? &*narrow_ : nullptr;
    }

  private:
    /**
     * All ones when @p c holds, else zero: the select behind the
     * branch-free corrections. Built from one 64-bit mask, which
     * compiles to far fewer instructions than negating a u128.
     */
    static u128
    mask(bool c)
    {
        const uint64_t m = -uint64_t(c);
        return (u128(m) << 64) | m;
    }

    /**
     * (hi * 2^128 + lo) mod q, for hi < q: Algorithm 4 of
     * Möller–Granlund on the dividend shifted left by s.
     */
    u128
    rem(u128 hi, u128 lo) const
    {
        // hi < q keeps the shifted top word u1 below d, as the division
        // requires. (lo >> 1) >> (127 - s) is lo >> (128 - s) without a
        // shift by 128 when s == 0.
        const u128 u1 = (hi << s_) | ((lo >> 1) >> (127 - s_));
        const u128 u0 = lo << s_;
        // Quotient estimate <q1, q0> = v * u1 + <u1 + 1, u0>.
        const U256 p = mulWide(v_, u1);
        const u128 q0 = p.lo + u0;
        const u128 q1 = p.hi + u1 + 1 + u128(q0 < u0);
        u128 r = u0 - q1 * d_;
        // The estimate is one too large about half the time, so that
        // correction is branch-free; one too small is rare.
        r += d_ & mask(r > q0);
        if (r >= d_)
            r -= d_;
        return r >> s_;
    }

    /** Montgomery reduction: t * 2^-128 mod q, for t < q * 2^128. */
    u128
    redc(U256 t) const
    {
        // m = (t mod 2^128) * (-q^-1) mod 2^128; then
        // t = (t + m * q) / 2^128, where the sum can carry out of 256
        // bits and the quotient is below 2q.
        const u128 m = t.lo * qInvNeg_;
        const unsigned carry = addWithCarry(t, mulWide(m, q_));
        return t.hi - (q_ & mask(carry | (t.hi >= q_)));
    }

    u128 q_;
    unsigned s_;       ///< q * 2^s has its top bit set
    u128 d_;           ///< q * 2^s
    u128 v_;           ///< floor((2^256 - 1) / d) - 2^128
    u128 qInvNeg_ = 0; ///< -q^-1 mod 2^128 (odd q only)
    u128 r2_ = 0;      ///< 2^256 mod q (odd q only)
    std::optional<simd::NarrowModulus> narrow_; ///< q < 2^62 and odd
};

} // namespace rpu

#endif // RPU_MODMATH_MODULUS_HH
