/**
 * @file
 * Minimal symmetric BFV-style RLWE scheme, full-RNS and
 * evaluation-domain resident on the RPU device layer.
 *
 *   sk: ternary polynomial s
 *   Enc(m): a <- uniform, e <- small;  ct = (c0, c1) with
 *           c0 = a*s + e + Delta*m,  c1 = -a,  Delta = floor(q/t)
 *   Dec(ct): m = round(t * (c0 + c1*s) / q) mod t
 *
 * The ciphertext modulus is the product of an RNS chain of NTT
 * primes, q = q_0 * ... * q_{L-1}, so a ciphertext *is* its towers:
 * domain-tagged ResiduePoly pairs, born evaluation-resident at
 * encryption (the uniform mask is sampled directly in NTT form, the
 * message+error residues pay one host forward transform per tower)
 * and kept there by every homomorphic op. add/sub are per-tower
 * coefficient adds; mulPlain against a once-encoded plaintext is a
 * pure pointwise dispatch through the shared RlweEvaluator — zero
 * forward NTTs in steady state, with every skipped conversion
 * reported to the device's elision ledger. CRT reconstruction and
 * the centred rounding by t/q happen exactly once, at decryption.
 *
 * Ciphertext x ciphertext multiply routes through the evaluator's
 * shared tensorPair and relinearise (tensor product + gadget-
 * decomposed relinearisation, see RlweEvaluator); the scheme
 * contributes only its own math between the two, the degree-2 hook. Because the tensor product's
 * integer coefficients reach n*q^2/4, the context carries an
 * *extended* chain of 2L+1 same-width towers (ciphertexts live on
 * the L-tower prefix): mulCt base-extends the operands onto the
 * auxiliary towers (reusing the resident Eval towers for the
 * prefix — the reuse lands in the elision ledger), tensors there,
 * and the hook scale-and-rounds round(t * V / q) back down to the
 * ciphertext chain before the relinearisation key-switch.
 *
 * (Earlier revisions kept ciphertexts as wide-modulus coefficient
 * vectors over one large prime and CRT-reconstructed after every
 * homomorphic product; decryptWideReference retains that wide-
 * integer decrypt as an independent cross-check of the RNS path.)
 *
 * Like the CKKS sibling this is a demonstration workload, not a
 * hardened cryptosystem.
 */

#ifndef RPU_RLWE_BFV_HH
#define RPU_RLWE_BFV_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "rlwe/evaluator.hh"
#include "rlwe/params.hh"
#include "rlwe/residue_poly.hh"
#include "rns/crt.hh"

namespace rpu {

class RpuDevice;

/**
 * A ciphertext: two domain-tagged RNS ring polynomials over the
 * scheme's full modulus chain (the paper's Fig. 1 pair, resident in
 * the representation the RPU computes on). Freshly encrypted
 * ciphertexts are Eval-resident and every homomorphic op keeps them
 * there; toCoeff/toEval move both components together.
 */
struct Ciphertext
{
    ResiduePoly c0;
    ResiduePoly c1;

    size_t towers() const { return c0.towerCount(); }

    /** The components' shared residency (they always move together). */
    ResidueDomain domain() const { return c0.domain; }
};

/** Secret key: one ternary integer polynomial, shared by all towers. */
struct SecretKey
{
    std::vector<int8_t> s; ///< coefficients in {-1, 0, 1}
};

/**
 * An encoded plaintext: Eval-resident residues of the (mod-t lifted)
 * message over the full chain, forward-transformed once at encode
 * time and reusable across ops and ciphertexts.
 */
struct BfvPlaintext
{
    ResiduePoly rp;

    size_t towers() const { return rp.towerCount(); }
};

/** Scheme context bound to concrete parameters. */
class BfvContext
{
  public:
    /** Generates the NTT-friendly modulus chain and host tables. */
    explicit BfvContext(const RlweParams &params, uint64_t seed = 1);

    const RlweParams &params() const { return params_; }

    /** The RNS basis every ciphertext lives in (q = its product). */
    const RnsBasis &basis() const { return *basis_; }

    /**
     * The extended tensor chain (2L+1 towers; the ciphertext basis
     * is its prefix): enough auxiliary room that the tensor
     * product's integer coefficients never wrap before the
     * scale-and-round.
     */
    const RnsBasis &extendedBasis() const { return *basisExt_; }

    /** CRT context over the chain (decrypt's one reconstruction). */
    const CrtContext &crt() const { return *crt_; }

    /** The composite ciphertext modulus q. */
    const BigUInt &q() const { return basis_->q(); }

    /** Delta = floor(q / t). */
    const BigUInt &delta() const { return delta_; }

    /** The shared op pipeline (dispatch, domains, host fallback). */
    const RlweEvaluator &evaluator() const { return evaluator_; }

    SecretKey keygen();

    /**
     * Encode a plaintext vector (coefficients mod t) into an
     * Eval-resident residue polynomial — one batched forward-NTT
     * dispatch on the attached device (host transforms otherwise),
     * the only transform the plaintext ever pays.
     */
    BfvPlaintext encodePlain(const std::vector<uint64_t> &plain) const;

    /**
     * Encrypt a plaintext vector (coefficients mod t). The
     * ciphertext is born Eval-resident: the uniform mask is sampled
     * directly in evaluation form and Delta*m + e enters through one
     * host forward transform per tower (see RlweEvaluator); the
     * device issues no launch.
     */
    Ciphertext encrypt(const SecretKey &sk,
                       const std::vector<uint64_t> &message);

    /**
     * Decrypt back to coefficients mod t: per-tower c0 + c1*s
     * (pointwise in Eval, negacyclic in Coeff), then the scheme's
     * one CRT reconstruction and the centred rounding by t/q.
     */
    std::vector<uint64_t> decrypt(const SecretKey &sk,
                                  const Ciphertext &ct) const;

    /**
     * Independent wide-modulus reference decrypt: reconstruct both
     * components to wide integers mod q first, compute c0 + c1*s as
     * a schoolbook negacyclic product over BigUInt coefficients
     * (exploiting the ternary secret), and round. Exercises none of
     * the per-tower NTT path, so agreement with decrypt() is a real
     * cross-check of RNS residency — the tier-1 bit-identity tests
     * pin the two against each other on every backend.
     */
    std::vector<uint64_t>
    decryptWideReference(const SecretKey &sk,
                         const Ciphertext &ct) const;

    /** Homomorphic ciphertext addition (pure per-tower RNS adds). */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;

    /** Homomorphic ciphertext subtraction (per-tower RNS subs). */
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;

    /**
     * Multiply a ciphertext by an encoded plaintext: both components
     * against the shared plaintext through one pointwise dispatch —
     * no transform at all when the ciphertext is Eval-resident (the
     * elision lands in DeviceStats).
     */
    Ciphertext mulPlain(const Ciphertext &ct,
                        const BfvPlaintext &pt) const;

    /** Convenience: encodePlain + mulPlain in one call. */
    Ciphertext mulPlain(const Ciphertext &ct,
                        const std::vector<uint64_t> &plain) const;

    /**
     * Gadget-decomposed relinearisation key over the ciphertext
     * chain (see RlweEvaluator::makeRelinKey). Smaller digit bases
     * cost more re-entry transforms and inner-product launches per
     * multiply but add less key-switch noise.
     */
    RelinKey makeRelinKey(const SecretKey &sk,
                          unsigned digitBits = 16);

    /**
     * Homomorphic ciphertext x ciphertext multiply, relinearised
     * back to degree 1: base-extend both operands to the tensor
     * chain, then the evaluator's shared pipeline — tensor product
     * in the evaluation domain, this scheme's scale-and-round
     * (round(t * V / q), centred, exact over the extended chain) as
     * the degree-2 hook, and the gadget key-switch with @p rk.
     * Decrypting the result yields the coefficient-wise negacyclic
     * product of the plaintexts mod t.
     */
    Ciphertext mulCt(const Ciphertext &a, const Ciphertext &b,
                     const RelinKey &rk) const;

    /** Move both components to the target residency (see ResidueOps). */
    void toCoeff(Ciphertext &ct) const;
    void toEval(Ciphertext &ct) const;

    /**
     * Remaining noise budget in bits (log2(q/(2t)) minus the current
     * noise magnitude); decryption fails when it reaches zero.
     */
    double noiseBudgetBits(const SecretKey &sk, const Ciphertext &ct,
                           const std::vector<uint64_t> &expected) const;

    // -- RPU execution ---------------------------------------------------

    /** Route tower products and domain transforms through @p device. */
    void attachDevice(std::shared_ptr<RpuDevice> device);

    bool deviceAttached() const { return evaluator_.deviceAttached(); }
    std::shared_ptr<RpuDevice> device() const
    {
        return evaluator_.device();
    }

  private:
    /** Residues of the secret over every tower. */
    RlweEvaluator::TowerPoly secretResidues(const SecretKey &sk) const;

    /** Coefficients reduced mod t (size-checked). */
    std::vector<uint64_t>
    liftPlain(const std::vector<uint64_t> &plain) const;

    /** round(t * v / q) mod t for reconstructed coefficients. */
    std::vector<uint64_t>
    roundToPlain(const std::vector<BigUInt> &wide) const;

    /**
     * Base-extend ciphertext components onto the full tensor chain:
     * reconstruct the centred integer coefficients out of the
     * ciphertext chain and reduce them mod the auxiliary primes.
     * Eval-resident components reuse their resident towers for the
     * prefix (the reuse lands in the elision ledger) and enter only
     * the auxiliary towers through one batched forward dispatch.
     */
    std::vector<ResiduePoly>
    extendComponents(const std::vector<const ResiduePoly *> &comps) const;

    /**
     * mulCt's degree-2 hook: take the tensor product out of the
     * extended evaluation domain (one batched inverse dispatch),
     * reconstruct the centred integer coefficients mod the full
     * tensor modulus, scale-and-round by t/q, and re-enter the
     * ciphertext chain — c0 and c1 forward into Eval, c2 left in
     * Coeff so the relinearisation's digit split elides its inverse.
     */
    std::array<ResiduePoly, 3>
    scaleRoundHook(std::array<ResiduePoly, 3> d) const;

    RlweParams params_;
    Rng rng_;

    std::unique_ptr<RnsBasis> basis_;    ///< ciphertext chain (L towers)
    std::unique_ptr<RnsBasis> basisExt_; ///< tensor chain (2L+1 towers)
    std::unique_ptr<CrtContext> crt_;
    std::unique_ptr<CrtContext> crtExt_;
    RlweEvaluator evaluator_;

    BigUInt delta_;                ///< floor(q / t)
    std::vector<u128> delta_res_;  ///< Delta mod q_t, per tower
};

} // namespace rpu

#endif // RPU_RLWE_BFV_HH
