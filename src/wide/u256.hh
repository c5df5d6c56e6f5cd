/**
 * @file
 * 256-bit unsigned arithmetic built on the compiler's native u128.
 *
 * The RPU's LAW engines operate on 128-bit ring elements, so products
 * are 256 bits wide. This header provides exactly the operations the
 * modular-arithmetic layer needs: full multiplication, addition with
 * carry, shifts and comparison.
 */

#ifndef RPU_WIDE_U256_HH
#define RPU_WIDE_U256_HH

#include <cstdint>

#include "common/random.hh"

namespace rpu {

/** A 256-bit unsigned integer as a (hi, lo) pair of native u128. */
struct U256
{
    u128 lo = 0;
    u128 hi = 0;

    constexpr U256() = default;
    constexpr U256(u128 high, u128 low) : lo(low), hi(high) {}

    /** Widen a 128-bit value. */
    static constexpr U256 fromU128(u128 x) { return {0, x}; }

    constexpr bool operator==(const U256 &o) const = default;

    constexpr bool
    operator<(const U256 &o) const
    {
        return hi != o.hi ? hi < o.hi : lo < o.lo;
    }

    constexpr bool operator>=(const U256 &o) const { return !(*this < o); }
};

/**
 * Full 128x128 -> 256-bit product from four 64x64 -> 128-bit limb
 * products. Inline: it sits inside every 128-bit modular multiply.
 */
inline U256
mulWide(u128 a, u128 b)
{
    const uint64_t a0 = uint64_t(a), a1 = uint64_t(a >> 64);
    const uint64_t b0 = uint64_t(b), b1 = uint64_t(b >> 64);

    const u128 p00 = u128(a0) * b0;
    const u128 p01 = u128(a0) * b1;
    const u128 p10 = u128(a1) * b0;
    const u128 p11 = u128(a1) * b1;

    // The middle 64-bit column: three terms below 2^64 each, so the
    // sum cannot overflow and its high half is the carry upward.
    const u128 mid = (p00 >> 64) + uint64_t(p01) + uint64_t(p10);
    return {p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64),
            (mid << 64) | uint64_t(p00)};
}

/** 256-bit addition; returns the carry-out (0 or 1). */
inline unsigned
addWithCarry(U256 &acc, const U256 &x)
{
    acc.lo += x.lo;
    const unsigned carryLo = acc.lo < x.lo;
    acc.hi += x.hi;
    const unsigned carryHi = acc.hi < x.hi;
    acc.hi += carryLo;
    return carryHi | unsigned(acc.hi < carryLo);
}

/** 256-bit subtraction acc -= x; returns the borrow-out (0 or 1). */
unsigned subWithBorrow(U256 &acc, const U256 &x);

/** Logical right shift by s in [0, 255]. */
U256 shiftRight(const U256 &x, unsigned s);

/** Logical left shift by s in [0, 255]. */
U256 shiftLeft(const U256 &x, unsigned s);

/**
 * Remainder of a 256-bit value modulo a 128-bit modulus, by binary
 * long division. Slow; the independent oracle the tests check
 * Modulus against.
 */
u128 mod256by128(const U256 &x, u128 q);

/**
 * Full quotient and remainder of a 256-bit value by a 128-bit
 * divisor (binary long division; setup/oracle path).
 */
U256 divmod256by128(const U256 &x, u128 q, u128 &remainder);

} // namespace rpu

#endif // RPU_WIDE_U256_HH
