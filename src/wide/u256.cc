#include "wide/u256.hh"

#include "common/logging.hh"

namespace rpu {

unsigned
subWithBorrow(U256 &acc, const U256 &x)
{
    const unsigned borrow_lo = acc.lo < x.lo ? 1 : 0;
    acc.lo -= x.lo;
    unsigned borrow_hi = acc.hi < x.hi ? 1 : 0;
    acc.hi -= x.hi;
    if (acc.hi < u128(borrow_lo))
        borrow_hi = 1;
    acc.hi -= borrow_lo;
    return borrow_hi;
}

U256
shiftRight(const U256 &x, unsigned s)
{
    rpu_assert(s < 256, "shift amount %u out of range", s);
    if (s == 0)
        return x;
    if (s >= 128)
        return {0, x.hi >> (s - 128)};
    return {x.hi >> s, (x.lo >> s) | (x.hi << (128 - s))};
}

U256
shiftLeft(const U256 &x, unsigned s)
{
    rpu_assert(s < 256, "shift amount %u out of range", s);
    if (s == 0)
        return x;
    if (s >= 128)
        return {x.lo << (s - 128), 0};
    return {(x.hi << s) | (x.lo >> (128 - s)), x.lo << s};
}

u128
mod256by128(const U256 &x, u128 q)
{
    u128 rem;
    divmod256by128(x, q, rem);
    return rem;
}

U256
divmod256by128(const U256 &x, u128 q, u128 &remainder)
{
    rpu_assert(q != 0, "division by zero");
    // Binary long division over the 256-bit dividend: shift the
    // remainder left one bit at a time, bringing down dividend bits
    // from the top. The remainder always fits in 129 bits; we keep it
    // in 128 bits plus an explicit overflow flag.
    u128 rem = 0;
    U256 quot{0, 0};
    for (int i = 255; i >= 0; --i) {
        const unsigned overflow = (rem >> 127) != 0 ? 1 : 0;
        const u128 bit =
            i >= 128 ? (x.hi >> (i - 128)) & 1 : (x.lo >> i) & 1;
        rem = (rem << 1) | bit;
        if (overflow || rem >= q) {
            rem -= q;
            if (i >= 128)
                quot.hi |= u128(1) << (i - 128);
            else
                quot.lo |= u128(1) << i;
        }
    }
    remainder = rem;
    return quot;
}

} // namespace rpu
