/**
 * @file
 * Scheme-generic RLWE evaluator: the op pipeline BFV and CKKS share.
 *
 * Both schemes compute on the same object — a pair of domain-tagged
 * RNS residue polynomials over (a prefix of) one modulus chain — and
 * until this layer existed each scheme re-implemented the same
 * plumbing around it: operand domain alignment before a pointwise
 * dispatch, elision accounting for conversions skipped, the batched
 * device dispatch itself, per-tower host-NTT fallback when no device
 * is attached, the born-Eval encryption assembly (uniform mask
 * sampled directly in evaluation form), and the decrypt-side
 * c0 + c1*s inner product. RlweEvaluator owns all of that exactly
 * once; the scheme files shrink to scheme math — encoding, noise,
 * Delta/rescale arithmetic — and future shared machinery
 * (relinearisation key-switching, Galois rotations) is written here
 * once instead of per scheme.
 *
 * The ops that dispatch are batch-native: enterEval, mulPlainPair,
 * tensorPair, relinearise and inverseTower take a batch of
 * same-level items and issue one tiled dispatch per stage for the
 * whole batch, whatever its size — a lone ciphertext is the batch of
 * one, so a served chunk of k requests and a single request run the
 * same code. A batch may pass a DispatchRoute, which sends every
 * stage to its planned topology devices instead of the attached
 * device.
 *
 * The evaluator also owns the host-side parallel fan-out for
 * independent per-(component, tower) units of host work (e.g. the
 * CKKS rescale's lift re-entry transforms): when the attached
 * device runs a worker pool, those units ride the same pool;
 * results are bit-identical to the serial loop either way.
 */

#ifndef RPU_RLWE_EVALUATOR_HH
#define RPU_RLWE_EVALUATOR_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "rlwe/residue_poly.hh"

namespace rpu {

class DispatchRoute;
class RpuDevice;

/** Read-only views of @p xs, the operand form of the batch ops. */
template <typename T>
std::vector<const T *>
viewsOf(const std::vector<T> &xs)
{
    std::vector<const T *> views;
    views.reserve(xs.size());
    for (const T &x : xs)
        views.push_back(&x);
    return views;
}

/**
 * Gadget-decomposed relinearisation (key-switching) key, the
 * scheme-generic half of ct x ct multiply: for every tower t of the
 * chain prefix it covers and every base-2^digitBits digit slot j,
 * an RLWE encryption of g_{t,j} * s^2 under s, where the gadget
 * factor g_{t,j} is the CRT unit vector that is B^j mod q_t and
 * 0 mod every other prime:
 *
 *   k0_{t,j} = a*s + e + g_{t,j}*s^2,   k1_{t,j} = -a .
 *
 * Summing digit-weighted key pairs over (t, j) therefore
 * reconstructs [c2]_{q_u} * s^2 exactly in every tower u — the
 * recomposition identity the tier-1 tests pin — while each digit
 * polynomial stays below B, keeping the noise each key's e
 * contributes to B-sized coefficients instead of q-sized ones.
 * Both key components are Eval-resident over the full prefix at
 * generation time, so the key-switch inner product is pure
 * pointwise launches; a lower-level ciphertext (CKKS after
 * rescales) reads the key through its tower prefix. Smaller
 * digitBits means more digits (more re-entry NTTs and pointwise
 * products) but less noise per multiply — the classic knob, here
 * visible directly in the DeviceStats ledger.
 */
struct RelinKey
{
    unsigned digitBits = 16;

    /** k[t][j] = {k0, k1} for tower t's digit j; ragged in j when
     *  tower widths differ (the last digit may be partial). */
    std::vector<std::vector<std::array<ResiduePoly, 2>>> k;

    /** Towers the key can relinearise (decomposition range). */
    size_t towerCount() const { return k.size(); }

    /** Total digit slots over the first @p towers towers. */
    size_t totalDigits(size_t towers) const
    {
        size_t d = 0;
        for (size_t t = 0; t < towers; ++t)
            d += k[t].size();
        return d;
    }
};

/** Shared op pipeline over one modulus chain (see file comment). */
class RlweEvaluator
{
  public:
    /** Residues of one integer polynomial: [tower][coefficient]. */
    using TowerPoly = std::vector<std::vector<u128>>;

    /** One ciphertext's two components, read in place by the batch
     *  forms. */
    using PairView = std::array<const ResiduePoly *, 2>;

    RlweEvaluator() = default;

    /**
     * Bind to the full modulus chain of @p basis: builds the
     * per-tower host twiddle tables and reference transforms (the
     * no-device fallback and the encrypt/decrypt side engine) and a
     * ResidueOps routing domain transitions over them.
     */
    RlweEvaluator(uint64_t n, const RnsBasis *basis);

    /** Route conversions, products, and transforms through @p device. */
    void attachDevice(std::shared_ptr<RpuDevice> device);

    bool deviceAttached() const { return device_ != nullptr; }
    std::shared_ptr<RpuDevice> device() const { return device_; }

    uint64_t ringDim() const { return n_; }
    const RnsBasis &basis() const;
    const Modulus &modulus(size_t t) const;

    /** Host reference transform for tower @p t's ring. */
    const NttContext &hostNtt(size_t t) const;

    /** Domain transitions / pointwise algebra over the full chain. */
    const ResidueOps &ops() const { return ops_; }

    // -- Domain plumbing -------------------------------------------------

    /**
     * Enter the evaluation domain once, at encode time: wrap each of
     * @p coeff and forward-transform every tower of the whole batch
     * in one tiled device dispatch (host transforms otherwise). This
     * is the only forward transform an encoded plaintext ever pays.
     */
    std::vector<ResiduePoly> enterEval(std::vector<TowerPoly> coeff,
                                       DispatchRoute *route = nullptr) const;


    /** Move both ciphertext components to @p target together. */
    void convertPair(ResiduePoly &c0, ResiduePoly &c1,
                     ResidueDomain target) const;

    // -- Component-pair ops ----------------------------------------------

    /** Tower-wise pair addition (domain-preserving, host). */
    std::array<ResiduePoly, 2> addPair(const ResiduePoly &a0,
                                       const ResiduePoly &a1,
                                       const ResiduePoly &b0,
                                       const ResiduePoly &b1) const;

    /** Tower-wise pair subtraction (domain-preserving, host). */
    std::array<ResiduePoly, 2> subPair(const ResiduePoly &a0,
                                       const ResiduePoly &a1,
                                       const ResiduePoly &b0,
                                       const ResiduePoly &b1) const;

    /**
     * Both components of every ciphertext cts[i] times its
     * Eval-resident plaintext pts[i] over the ciphertexts' towers
     * (one level for the whole batch; a plaintext may span more — a
     * full-chain encoding serves any level) — the homomorphic
     * multiply's entire op pipeline. Eval-resident components are
     * read in place (no copy, no transform; the skipped conversions
     * land in the device's elision ledger), Coeff-resident ones are
     * converted on copies so the inputs stay untouched; either way
     * the 2 * batch products go through one tiled pointwise dispatch.
     */
    std::vector<std::array<ResiduePoly, 2>>
    mulPlainPair(const std::vector<PairView> &cts,
                 const std::vector<const ResiduePoly *> &pts,
                 DispatchRoute *route = nullptr) const;

    // -- Ciphertext x ciphertext multiply --------------------------------

    /**
     * Tensor product of ciphertext pairs as[i] x bs[i], all at one
     * level: every item's four cross products a0b0, a0b1, a1b0, a1b1
     * go through one pointwise dispatch for the whole batch and fold
     * into the degree-2 ciphertext (a0b0, a0b1 + a1b0, a1b1) with
     * host tower adds. Eval-resident operands are read in place (the
     * four skipped conversions per tower land in the elision
     * ledger); Coeff-resident ones are converted on copies. No
     * transform runs on the Eval path — residency makes the tensor
     * product pure PointwiseMulBatched launches.
     */
    std::vector<std::array<ResiduePoly, 3>>
    tensorPair(const std::vector<PairView> &as,
               const std::vector<PairView> &bs,
               DispatchRoute *route = nullptr) const;

    /**
     * Key-switch every degree-2 ciphertext ds[i] = (d0, d1, d2), all
     * at one level, back to degree 1 with its own key rks[i] (a
     * batch may mix tenants), exactly once, for every scheme: the
     * c2s leave the evaluation domain (one batched inverse pass —
     * skipped and elided when the scheme already returned them in
     * Coeff, as BFV's scale-and-round does), are split into gadget
     * digits, every item's digits re-enter in one batched forward
     * dispatch, and one pointwise dispatch runs all items'
     * 2 * totalDigits inner-product pairs against their keys. The digit-split transforms are annotated
     * as keySwitchTransforms in DeviceStats on top of the ordinary
     * forward/inverse counts, so workload elision ratios stay
     * meaningful. Returns (d0 + sum digit.*k0, d1 + sum digit.*k1)
     * per item, Eval-resident.
     */
    std::vector<std::array<ResiduePoly, 2>>
    relinearise(std::vector<std::array<ResiduePoly, 3>> ds,
                const std::vector<const RelinKey *> &rks,
                DispatchRoute *route = nullptr) const;

    /**
     * Generate a gadget-decomposed relinearisation key over the
     * first s_res.size() towers (see RelinKey): per (tower, digit),
     * a fresh uniform mask sampled directly in evaluation form and
     * a fresh small error (uniform in [-noiseBound, noiseBound])
     * entering through one host forward transform — keygen stays
     * off the device, like encryptPair. s^2 is computed once per
     * tower as a pointwise square of the secret's evaluation form.
     */
    RelinKey makeRelinKey(const TowerPoly &s_res, uint64_t noiseBound,
                          Rng &rng, unsigned digitBits = 16) const;

    // -- Encrypt / decrypt common halves ---------------------------------

    /**
     * Assemble a born-Eval ciphertext pair over @p s_res.size()
     * towers: per tower, the uniform mask a is sampled directly in
     * evaluation form (uniform residues are uniform in either
     * domain, so no transform is spent on it), the secret and
     * message+error residues enter through one host forward
     * transform each, and c0 = a .* s + (e + m), c1 = -a — all
     * pointwise. The returned pair is Eval-resident; the device
     * issues no launch at all on this path (encryption-side
     * arithmetic stays off the device, like decryption).
     */
    std::array<ResiduePoly, 2> encryptPair(const TowerPoly &s_res,
                                           const TowerPoly &em_res,
                                           Rng &rng) const;

    /**
     * Decrypt-side inner product v = c0 + c1*s over the components'
     * active towers, returned as Coeff residues — the scheme's one
     * forced return to coefficients. Eval-resident components pay
     * one host inverse transform per tower (never a forward one);
     * Coeff-resident components use the host negacyclic product.
     * Independent towers fan across the device's worker pool when
     * one is running (bit-identical to the serial loop).
     */
    TowerPoly innerProduct(const ResiduePoly &c0, const ResiduePoly &c1,
                           const TowerPoly &s_res) const;

    // -- Rescale helpers -------------------------------------------------

    /**
     * Inverse-transform tower @p t of each Eval-resident polynomial
     * (one tiled device dispatch, through @p route when given, host
     * transforms otherwise) and return the Coeff residues; the
     * polynomials themselves are not modified. The dispatch the CKKS
     * rescale issues for the tower it drops.
     */
    std::vector<std::vector<u128>>
    inverseTower(const std::vector<const ResiduePoly *> &polys, size_t t,
                 DispatchRoute *route = nullptr) const;

    /**
     * Forward-transform each polynomial's coefficient towers
     * against the chain primes starting at offset @p first (so
     * xs[i][t] enters tower first + t's evaluation domain) in one
     * tiled device dispatch (host transforms otherwise). BFV's
     * base extension uses this to enter only the auxiliary towers
     * it just computed, reusing the ciphertext's existing Eval
     * towers for the rest of the extended chain.
     */
    std::vector<TowerPoly> forwardTowersAt(std::vector<TowerPoly> xs,
                                           size_t first) const;

    /**
     * Run @p fn(0..count-1), fanning the units across the attached
     * device's worker pool when it has one (serial loop otherwise).
     * Units must be independent — each writes its own outputs — so
     * the result is bit-identical to the serial loop; every unit is
     * joined before the first failure (if any) is rethrown.
     */
    void forEachUnit(size_t count,
                     const std::function<void(size_t)> &fn) const;

  private:
    uint64_t n_ = 0;
    const RnsBasis *basis_ = nullptr;
    std::vector<std::unique_ptr<TwiddleTable>> twiddles_;
    std::vector<std::unique_ptr<NttContext>> ntts_;
    ResidueOps ops_;
    std::shared_ptr<RpuDevice> device_;
};

} // namespace rpu

#endif // RPU_RLWE_EVALUATOR_HH
