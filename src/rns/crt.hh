/**
 * @file
 * Chinese Remainder Theorem conversions between a big integer modulo
 * Q and its RNS residue vector, plus tower-wise ring arithmetic.
 *
 * Leaving RNS is the one step of an RLWE scheme that needs
 * multi-precision arithmetic. It runs on fixed-width u64 limb arrays
 * sized from Q's bit length, so a lift allocates nothing per
 * coefficient; BigUInt results are built once from the limbs.
 */

#ifndef RPU_RNS_CRT_HH
#define RPU_RNS_CRT_HH

#include <vector>

#include "rns/basis.hh"

namespace rpu {

/** Precomputed CRT reconstruction constants for one basis. */
class CrtContext
{
  public:
    explicit CrtContext(const RnsBasis &basis);

    const RnsBasis &basis() const { return basis_; }

    /** Residues of @p value (reduced mod Q first). */
    std::vector<u128> decompose(const BigUInt &value) const;

    /** The unique x in [0, Q) with x == residues[i] (mod q_i). */
    BigUInt reconstruct(const std::vector<u128> &residues) const;

    /**
     * Tower-wise operations on residue vectors of polynomials:
     * element [t][i] is coefficient i in tower t.
     */
    using TowerPoly = std::vector<std::vector<u128>>;

    /** Split a vector of big coefficients into towers. */
    TowerPoly decomposePoly(const std::vector<BigUInt> &coeffs) const;

    /** Reassemble big coefficients from towers. */
    std::vector<BigUInt> reconstructPoly(const TowerPoly &towers) const;

    /**
     * The centred lift of every coefficient as a double: x in [0, Q)
     * becomes x, or -(Q - x) when x > floor(Q/2). The magnitude is
     * converted by BigUInt::limbsToDouble, so each double equals the
     * one reconstructPoly's BigUInt gives, centred and converted by
     * toDouble().
     */
    std::vector<double> liftCentred(const TowerPoly &towers) const;

  private:
    /**
     * Write x in [0, Q), x == residues[i] (mod q_i), to the words_ + 1
     * limbs at @p x (the top limb ends zero). It writes nothing but
     * @p x, so concurrent lifts on one context are safe.
     */
    void lift(const u128 *residues, uint64_t *x) const;

    /** Check @p towers has one tower per modulus, all of one length. */
    size_t polyLength(const TowerPoly &towers) const;

    const RnsBasis &basis_;
    size_t words_;                   ///< u64 limbs of Q
    std::vector<uint64_t> q_;        ///< Q, words_ + 1 limbs
    std::vector<uint64_t> halfQ_;    ///< floor(Q/2), words_ limbs
    std::vector<uint64_t> qOverQi_;  ///< Q/q_i, words_ limbs per tower
    std::vector<u128> qOverQiInv_;   ///< (Q/q_i)^-1 mod q_i
};

} // namespace rpu

#endif // RPU_RNS_CRT_HH
