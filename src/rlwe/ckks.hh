/**
 * @file
 * CKKS approximate-arithmetic RLWE scheme, RNS-native and
 * evaluation-domain resident, on the RPU device layer.
 *
 * The scheme the simulated RPU executes (the paper positions the RPU
 * as a general ring processor; its OpenFHE-lineage evaluation targets
 * are CKKS workloads). CKKS computes approximately on n/2 complex
 * slots: messages are fixed-point-scaled evaluations at primitive
 * 2n-th roots (see CkksEncoder), and every multiplication doubles the
 * scale until a rescale divides it back down by dropping the last
 * tower of the RNS modulus chain.
 *
 * Ciphertexts are domain-tagged ResiduePoly pairs and live in the
 * *evaluation* (NTT) domain from encryption onward — the paper's
 * amortise-the-NTT strategy made structural:
 *
 *   encrypt  produces Eval-resident components (the uniform mask is
 *            sampled directly in evaluation form).
 *   encode   (encodePlain) produces an Eval-resident plaintext,
 *            forward-transformed once and reusable across ops and
 *            levels (a rescaled ciphertext uses its tower prefix).
 *   add      per-tower coefficient adds, domain-preserving (host).
 *   mulPlain a pure pointwise dispatch: both components against the
 *            shared plaintext through one RpuDevice::dispatch
 *            (RingOp::Pointwise) — zero transforms.
 *   rescale  the only forced (partial) return to Coeff: the dropped
 *            tower is inverse-transformed (one device dispatch for
 *            both components when attached), its centred lift is
 *            re-entered into the remaining towers via the host
 *            transform (the same engine encrypt/decrypt use), and
 *            the subtraction and q_l^-1 scaling happen pointwise in
 *            the evaluation domain. The ciphertext towers themselves are never
 *            forward-transformed again — the device issues zero
 *            forward-NTT launches across a mulPlain->rescale->
 *            mulPlain chain, which DeviceStats proves.
 *
 * Coefficient-resident ciphertexts (after an explicit toCoeff) stay
 * fully supported: every op is domain-aware, and rescaling a Coeff
 * ciphertext is plain host coefficient arithmetic, bit-identical to
 * toCoeff(rescale(Eval)). Only decryption reconstructs out of RNS
 * (CRT over the active prefix, centre mod Q, decode). This is a
 * demonstration workload, not a hardened cryptosystem.
 *
 * The device ops are batch-native: encodePlain, mulPlain, mulCt and
 * rescale take a batch of same-class operands at one level (tenants
 * may mix) and issue one tiled dispatch per stage for the batch; the
 * single-ciphertext calls are the batch of one, and an item's result
 * is bit-identical whatever batch it rides in. launchShapes()
 * declares the stages a batch dispatches, which a DispatchRoute
 * asserts stage by stage.
 */

#ifndef RPU_RLWE_CKKS_HH
#define RPU_RLWE_CKKS_HH

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "poly/polynomial.hh"
#include "rlwe/ckks_encoder.hh"
#include "rlwe/evaluator.hh"
#include "rlwe/residue_poly.hh"
#include "rns/crt.hh"
#include "rpu/device.hh"

namespace rpu {

class DispatchRoute;

/** The op pipelines a CKKS batch runs; each ends in one rescale. */
enum class CkksOp
{
    /** x encoded plaintext, rescale. */
    MulPlainRescale,
    /** x ciphertext, relinearise, rescale. */
    MulCtRescale,
};

/** CKKS parameters: ring, modulus chain, fixed-point scale. */
struct CkksParams
{
    uint64_t n = 4096;       ///< ring dimension (power of two)
    size_t towers = 3;       ///< modulus-chain length L
    unsigned towerBits = 45; ///< bits per chain prime
    double scale = 1099511627776.0; ///< encoding scale (2^40)
    uint64_t noiseBound = 4; ///< uniform error in [-B, B]

    /** Fatal on invalid combinations. */
    void validate() const;
};

/**
 * A CKKS ciphertext: two domain-tagged RNS ring polynomials over the
 * first towers() primes of the chain, plus the fixed-point scale its
 * slots carry. Freshly encrypted ciphertexts are Eval-resident and
 * every homomorphic op keeps them there; toCoeff/toEval move both
 * components together.
 */
struct CkksCiphertext
{
    ResiduePoly c0;
    ResiduePoly c1;
    double scale = 1.0;

    /** Active chain length; rescale shrinks it by one. */
    size_t towers() const { return c0.towerCount(); }

    /** The components' shared residency (they always move together). */
    ResidueDomain domain() const { return c0.domain; }
};

/**
 * An encoded plaintext: Eval-resident residues of the encoder output
 * over the full modulus chain, transformed once at encode time. A
 * ciphertext at any level multiplies against the matching tower
 * prefix, so one encoded plaintext serves a whole rescale chain with
 * no further transforms.
 */
struct CkksPlaintext
{
    ResiduePoly rp;
    double scale = 1.0;

    size_t towers() const { return rp.towerCount(); }
};

/** Secret key: one ternary integer polynomial, shared by all towers. */
struct CkksSecretKey
{
    std::vector<int8_t> s; ///< coefficients in {-1, 0, 1}
};

/** Scheme context bound to concrete parameters. */
class CkksContext
{
  public:
    explicit CkksContext(const CkksParams &params, uint64_t seed = 1);

    const CkksParams &params() const { return params_; }
    const CkksEncoder &encoder() const { return encoder_; }

    /** Complex values packed per ciphertext: n/2. */
    size_t slots() const { return encoder_.slots(); }

    /** The full modulus chain (prefix of length params().towers). */
    const RnsBasis &basis() const { return prefixBasis(params_.towers); }

    /** The chain prefix of @p towers primes (1 <= towers <= L). */
    const RnsBasis &prefixBasis(size_t towers) const;

    /** CRT context over the chain prefix of @p towers primes. */
    const CrtContext &crt(size_t towers) const;

    /** Host reference transform for tower @p t's ring. */
    const NttContext &hostNtt(size_t t) const
    {
        return evaluator_.hostNtt(t);
    }

    /** Domain transitions / pointwise algebra over the full chain. */
    const ResidueOps &residueOps() const { return evaluator_.ops(); }

    /** The shared op pipeline (dispatch, domains, host fallback). */
    const RlweEvaluator &evaluator() const { return evaluator_; }

    CkksSecretKey keygen();

    /**
     * Encode each of @p values (at most slots() entries each) at the
     * context scale over the first @p towers chain primes (0 = the
     * full chain) and enter the evaluation domain — one tiled
     * forward-NTT dispatch for the whole batch on the attached device
     * or @p route (host transforms otherwise). A full-chain encoding
     * is reusable across ops and levels through its tower prefix;
     * pass a ciphertext's level to encode a single-use plaintext
     * without transforming towers it will never touch.
     */
    std::vector<CkksPlaintext>
    encodePlain(
        const std::vector<const std::vector<std::complex<double>> *>
            &values,
        size_t towers = 0, DispatchRoute *route = nullptr) const;

    /** The batch of one. */
    CkksPlaintext
    encodePlain(const std::vector<std::complex<double>> &values,
                size_t towers = 0) const;

    /**
     * Encode @p values (at most slots() entries) at the context scale
     * and encrypt over the full chain. The ciphertext is Eval-resident:
     * the uniform mask is sampled in evaluation form and the message
     * enters through one host forward transform per tower.
     */
    CkksCiphertext encrypt(const CkksSecretKey &sk,
                           const std::vector<std::complex<double>> &values);

    /**
     * Re-entrant encrypt: identical pipeline, but every random draw
     * (error then mask) comes from @p rng instead of the context's
     * own stream. Concurrent callers — the serving layer's per-tenant
     * sessions with per-request derived streams — get reproducible
     * ciphertexts regardless of interleaving; encrypt(sk, values) is
     * exactly encrypt(sk, values, rng_).
     */
    CkksCiphertext encrypt(const CkksSecretKey &sk,
                           const std::vector<std::complex<double>> &values,
                           Rng &rng) const;

    /**
     * Decrypt: per-tower c0 + c1*s (pointwise in Eval, negacyclic in
     * Coeff), the forced return to coefficients, CRT-reconstruct over
     * the active prefix, centre mod Q, decode at the ciphertext's
     * scale.
     */
    std::vector<std::complex<double>>
    decrypt(const CkksSecretKey &sk, const CkksCiphertext &ct) const;

    /**
     * Slot-wise homomorphic addition (same level, same scale, same
     * residency).
     */
    CkksCiphertext add(const CkksCiphertext &a,
                       const CkksCiphertext &b) const;

    /**
     * Slot-wise products cts[i] x pts[i] with encoded plaintexts
     * (tower prefix matched to the ciphertexts' one level); each
     * result's scale is ct.scale * pt.scale. Both components of every
     * ciphertext run through one pointwise dispatch — no transform is
     * issued when the ciphertexts are already Eval-resident (the
     * elision lands in DeviceStats).
     */
    std::vector<CkksCiphertext>
    mulPlain(const std::vector<const CkksCiphertext *> &cts,
             const std::vector<const CkksPlaintext *> &pts,
             DispatchRoute *route = nullptr) const;

    /** The batch of one. */
    CkksCiphertext mulPlain(const CkksCiphertext &ct,
                            const CkksPlaintext &pt) const;

    /** Convenience: encodePlain + mulPlain in one call. */
    CkksCiphertext
    mulPlain(const CkksCiphertext &ct,
             const std::vector<std::complex<double>> &values) const;

    /**
     * Gadget-decomposed relinearisation key over the full chain
     * (see RlweEvaluator::makeRelinKey). One key serves every
     * level: a rescaled ciphertext's key-switch reads the key
     * through its tower prefix.
     */
    RelinKey makeRelinKey(const CkksSecretKey &sk,
                          unsigned digitBits = 16);

    /**
     * Slot-wise ciphertext x ciphertext products as[i] x bs[i],
     * relinearised back to degree 1 with rks[i] through the
     * evaluator's batched tensor product (pure pointwise launches)
     * and gadget key-switch. Operands
     * must sit at one level; each result's scale is the product of
     * its operands' scales, so the natural follow-up is a rescale —
     * which then drops a tower, exactly as after mulPlain.
     */
    std::vector<CkksCiphertext>
    mulCt(const std::vector<const CkksCiphertext *> &as,
          const std::vector<const CkksCiphertext *> &bs,
          const std::vector<const RelinKey *> &rks,
          DispatchRoute *route = nullptr) const;

    /** The batch of one. */
    CkksCiphertext mulCt(const CkksCiphertext &a,
                         const CkksCiphertext &b,
                         const RelinKey &rk) const;

    /**
     * Drop the last active tower q_l of every ciphertext (one level
     * for the batch) and divide its scale by it:
     * c'_t = (c_t - lift([c]_l)) * q_l^-1 mod q_t. Exact in RNS:
     * bit-identical to the wide-integer (V - centred(V mod q_l)) / q_l
     * on every tower, in either residency. Eval-resident input keeps
     * the remaining towers in the evaluation domain — only the
     * dropped towers are inverse-transformed, all of the batch's in
     * one dispatch (the scheme's one forced Coeff boundary), and no
     * forward-NTT launch is issued.
     */
    std::vector<CkksCiphertext>
    rescale(const std::vector<const CkksCiphertext *> &cts,
            DispatchRoute *route = nullptr) const;

    /** The batch of one. */
    CkksCiphertext rescale(const CkksCiphertext &ct) const;

    /**
     * Every dispatch a batch of @p items Eval-resident ciphertexts at
     * level @p towers pays through @p op (relinearisation keys of
     * base 2^@p digitBits), in issue order: what a DispatchRoute
     * checks, a scheduler plans and a kernel prewarm warms.
     */
    std::vector<StageShape> launchShapes(CkksOp op, size_t items,
                                         size_t towers,
                                         unsigned digitBits = 0) const;

    /** Move both components to the target residency (see ResidueOps). */
    void toCoeff(CkksCiphertext &ct) const;
    void toEval(CkksCiphertext &ct) const;

    // -- RPU execution ---------------------------------------------------

    /** Route homomorphic tower products/transforms through @p device. */
    void attachDevice(std::shared_ptr<RpuDevice> device);

    bool deviceAttached() const { return evaluator_.deviceAttached(); }
    std::shared_ptr<RpuDevice> device() const
    {
        return evaluator_.device();
    }

  private:
    /** Residues of signed coefficients over the first @p towers. */
    CrtContext::TowerPoly
    residuesOfSigned(const std::vector<int64_t> &coeffs,
                     size_t towers) const;

    /** Residue of tower-l value @p r (centred) in tower @p t. */
    u128 liftCentred(u128 r, const Modulus &mod_l,
                     const Modulus &mod_t) const;

    CkksParams params_;
    CkksEncoder encoder_;
    Rng rng_;

    // Chain prefixes [0] = {q_0} .. [L-1] = full chain, each with its
    // CRT constants; node-stable so references stay valid.
    std::vector<std::unique_ptr<RnsBasis>> prefixes_;
    std::vector<std::unique_ptr<CrtContext>> crts_;

    // The shared op pipeline over the full chain: per-tower host
    // transforms, domain transitions, dispatch, ledger accounting.
    RlweEvaluator evaluator_;
};

} // namespace rpu

#endif // RPU_RLWE_CKKS_HH
