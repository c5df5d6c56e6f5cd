/**
 * @file
 * Arbitrary-precision unsigned integers.
 *
 * The Residue Number System layer (paper section II-B) composes and
 * decomposes values modulo a product of many 128-bit co-prime moduli
 * (the paper's example: a 1600-bit modulus split into 13 towers).
 * That needs a small bignum: this is a straightforward base-2^64
 * implementation with schoolbook multiplication and Knuth Algorithm D
 * division, sized for hundreds-to-thousands of bits, not millions.
 */

#ifndef RPU_WIDE_BIGUINT_HH
#define RPU_WIDE_BIGUINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"

namespace rpu {

/** Arbitrary-precision unsigned integer (little-endian 64-bit limbs). */
class BigUInt
{
  public:
    /** Zero. */
    BigUInt() = default;

    /** From a 64-bit value. */
    BigUInt(uint64_t v);

    /** From a 128-bit value. */
    static BigUInt fromU128(u128 v);

    /** From @p count little-endian limbs (leading zero limbs allowed). */
    static BigUInt fromLimbs(const uint64_t *limbs, size_t count);

    /** Parse a decimal string; fatal on malformed input. */
    static BigUInt fromDecimal(const std::string &s);

    /** Number of significant bits (0 for zero). */
    size_t bitLength() const;

    bool isZero() const { return limbs_.empty(); }

    /** Low 64 bits. */
    uint64_t low64() const { return limbs_.empty() ? 0 : limbs_[0]; }

    /** Low 128 bits. */
    u128 low128() const;

    /**
     * The value as a double, by limbsToDouble (infinity above
     * ~2^1024). For scale and noise tracking in the RLWE layers, not
     * for exact arithmetic.
     */
    double toDouble() const;

    /**
     * The conversion behind toDouble(): Horner's rule over @p count
     * little-endian limbs, top limb first, rounding at each step (so
     * not always the nearest double). Leading zero limbs leave the
     * result unchanged, so a fixed-width limb array converts exactly
     * as its BigUInt does.
     */
    static double limbsToDouble(const uint64_t *limbs, size_t count);

    BigUInt operator+(const BigUInt &o) const;
    BigUInt operator-(const BigUInt &o) const; // requires *this >= o
    BigUInt operator*(const BigUInt &o) const;

    /**
     * Quotient and remainder in one pass (Knuth Algorithm D);
     * .first = quotient, .second = remainder.
     */
    std::pair<BigUInt, BigUInt> divmod(const BigUInt &divisor) const;

    BigUInt operator/(const BigUInt &o) const { return divmod(o).first; }
    BigUInt operator%(const BigUInt &o) const { return divmod(o).second; }

    BigUInt operator<<(size_t bits) const;
    BigUInt operator>>(size_t bits) const;

    std::strong_ordering operator<=>(const BigUInt &o) const;
    bool operator==(const BigUInt &o) const = default;

    /** Decimal rendering (for diagnostics and tests). */
    std::string toDecimal() const;

    /** Access to limbs for tests. */
    const std::vector<uint64_t> &limbs() const { return limbs_; }

  private:
    void trim();

    /** Little-endian limbs with no trailing zero limb; empty == 0. */
    std::vector<uint64_t> limbs_;
};

} // namespace rpu

#endif // RPU_WIDE_BIGUINT_HH
