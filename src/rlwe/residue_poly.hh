/**
 * @file
 * Domain-tagged RNS residue polynomials, shared by BFV and CKKS.
 *
 * The RPU paper's premise is that NTTs dominate RLWE workloads; the
 * corollary is that a scheme which re-enters coefficient form after
 * every homomorphic op pays the headline cost over and over. A
 * ResiduePoly records which domain its towers currently live in
 * (coefficient or evaluation/NTT form), and ResidueOps issues the
 * forward/inverse transform launches *only at domain boundaries*:
 * once a ciphertext is evaluation-domain resident, a plaintext
 * multiply is a pointwise kernel launch and no transform runs at all.
 * Every conversion a domain-aware caller skips is reported to the
 * device's issued-vs-elided transform ledger (DeviceStats), so the
 * amortisation is observable, not just asserted.
 *
 * Transitions route through an attached RpuDevice when one is set
 * (one RpuDevice::dispatch per call: every polynomial's towers tiled
 * into batched kernels) and through host reference transforms
 * otherwise — bit-identical either way,
 * which the round-trip tests pin down on every backend. The calls a
 * batched op makes take an optional DispatchRoute that sends the
 * dispatch to the op's planned topology devices instead.
 */

#ifndef RPU_RLWE_RESIDUE_POLY_HH
#define RPU_RLWE_RESIDUE_POLY_HH

#include <memory>
#include <vector>

#include "poly/ntt.hh"
#include "rns/basis.hh"

namespace rpu {

class DispatchRoute;
class RpuDevice;
enum class RingOp;

/** Which representation a residue polynomial's towers are in. */
enum class ResidueDomain
{
    Coeff, ///< coefficient form: towers[t][i] is coefficient i mod q_t
    Eval,  ///< evaluation (NTT) form: towers[t] = NTT_t(coefficients)
};

/**
 * One ring polynomial in RNS representation — towers[t][i] over the
 * first towerCount() primes of a basis — tagged with the domain the
 * residues currently live in. The tag is what lets the scheme layers
 * chain homomorphic ops without redundant transforms: ops consume and
 * produce Eval-resident polynomials, and only decrypt / rescale's
 * lift force a return to Coeff.
 */
struct ResiduePoly
{
    ResidueDomain domain = ResidueDomain::Coeff;
    std::vector<std::vector<u128>> towers;

    ResiduePoly() = default;
    ResiduePoly(ResidueDomain d, std::vector<std::vector<u128>> t)
        : domain(d), towers(std::move(t))
    {
    }

    size_t towerCount() const { return towers.size(); }
    bool inEval() const { return domain == ResidueDomain::Eval; }

    bool operator==(const ResiduePoly &o) const
    {
        return domain == o.domain && towers == o.towers;
    }
    bool operator!=(const ResiduePoly &o) const { return !(*this == o); }

    /** The first @p count towers, same domain (count <= towerCount). */
    ResiduePoly prefix(size_t count) const;
};

/**
 * Domain transitions and evaluation-domain algebra for ResiduePoly
 * values over (a prefix of) one RNS basis. Bound to the basis by
 * reference; the device and host transform tables are optional, but
 * at least one must be set before any domain conversion.
 */
class ResidueOps
{
  public:
    ResidueOps() = default;
    ResidueOps(uint64_t n, const RnsBasis *basis) : n_(n), basis_(basis)
    {
    }

    /** Route conversions and pointwise products through @p device. */
    void setDevice(std::shared_ptr<RpuDevice> device)
    {
        device_ = std::move(device);
    }

    /** Host reference transform for tower t (fallback + no-device). */
    void setHostTransforms(std::vector<const NttContext *> ntts)
    {
        host_ntts_ = std::move(ntts);
    }

    bool deviceAttached() const { return device_ != nullptr; }
    uint64_t ringDim() const { return n_; }
    const RnsBasis &basis() const;

    /** Whether a call with @p route runs on a device (the route's, or
     *  the attached one when @p route is null) rather than the host. */
    bool onDevice(const DispatchRoute *route) const
    {
        return route != nullptr || device_ != nullptr;
    }

    /** The device a call's ledger notes land on: @p route's home, else
     *  the attached device (null on the host path). */
    RpuDevice *ledger(const DispatchRoute *route) const;

    /** One tiled dispatch through @p route, or on the attached device
     *  when @p route is null (onDevice must hold). */
    std::vector<std::vector<std::vector<u128>>>
    dispatch(DispatchRoute *route, RingOp op,
             const std::vector<std::vector<u128>> &moduli,
             std::vector<std::vector<std::vector<u128>>> a,
             std::vector<std::vector<std::vector<u128>>> b = {}) const;

    /**
     * Bring every polynomial to @p target in one device dispatch
     * (through @p route when given), whatever their tower counts
     * (host loop otherwise). Polynomials already
     * resident in the target domain are skipped, and the skip is
     * recorded in the device's transformsElided ledger — this lazy
     * boundary is the whole point of the domain tag.
     */
    void convert(const std::vector<ResiduePoly *> &polys,
                 ResidueDomain target,
                 DispatchRoute *route = nullptr) const;

    void toEval(ResiduePoly &p) const { convert({&p}, ResidueDomain::Eval); }
    void toCoeff(ResiduePoly &p) const
    {
        convert({&p}, ResidueDomain::Coeff);
    }

    /**
     * Record @p towers conversions a caller skipped after verifying
     * residency itself (forwarded to the device's transformsElided
     * ledger when one is attached). convert() does this bookkeeping
     * automatically; this is for hot paths that branch on the domain
     * tag directly to avoid even the copy a convert would need.
     */
    void noteElidedConversions(uint64_t towers,
                               const DispatchRoute *route = nullptr) const;

    /**
     * Independent pointwise pairs through one dispatch:
     * result[i] = as[i] .* bs[i] over the first @p towers primes
     * (0 = as[0]'s tower count) — the shape of every evaluator
     * product: ciphertext components against their plaintexts, the
     * tensor product's cross terms, the relinearisation inner product
     * (every gadget digit against its own key component). All
     * operands must be Eval and may span more than @p towers (a
     * full-chain plaintext or key serves any level); results span
     * exactly @p towers. No transform runs on this path, and operands
     * are only read. A batched op passes its @p route.
     */
    std::vector<ResiduePoly>
    mulEvalPairs(const std::vector<const ResiduePoly *> &as,
                 const std::vector<const ResiduePoly *> &bs,
                 size_t towers = 0, DispatchRoute *route = nullptr) const;

    /**
     * Gadget decomposition of Coeff-resident @p p: split every tower
     * t's residues into base-2^digitBits digits, least significant
     * first — d_{t,j} with [p]_{q_t} = sum_j d_{t,j} * B^j exactly
     * (the last digit is partial when B does not divide q_t's
     * width). Returned tower-major (all of tower 0's digits, then
     * tower 1's, ...; digitCount() gives the per-tower split).
     *
     * Every digit value is < B < every chain prime, so a digit
     * polynomial's residues are the same small integers in every
     * tower: each returned ResiduePoly spans @p towers replicated
     * towers, ready for the batched re-entry transform and the
     * pointwise inner product against a key that lives over the same
     * prefix. Pure host arithmetic — the transforms it feeds are
     * where the device comes in.
     */
    std::vector<ResiduePoly> digitDecompose(const ResiduePoly &p,
                                            unsigned digitBits,
                                            size_t towers) const;

    /** Digits of tower @p t under base 2^digitBits:
     *  ceil(bitlen(q_t) / digitBits). */
    size_t digitCount(size_t t, unsigned digitBits) const;

    /** Tower-wise a + b (host); domains must match and are kept. */
    ResiduePoly add(const ResiduePoly &a, const ResiduePoly &b) const;

    /** Tower-wise a - b (host); domains must match and are kept. */
    ResiduePoly sub(const ResiduePoly &a, const ResiduePoly &b) const;

  private:
    /** Primes for the first @p towers of the basis. */
    std::vector<u128> prefixPrimes(size_t towers) const;

    /** Host-transform tower @p t of @p p in place toward @p target. */
    void hostTransform(std::vector<u128> &tower, size_t t,
                       ResidueDomain target) const;

    uint64_t n_ = 0;
    const RnsBasis *basis_ = nullptr;
    std::shared_ptr<RpuDevice> device_;
    std::vector<const NttContext *> host_ntts_;
};

} // namespace rpu

#endif // RPU_RLWE_RESIDUE_POLY_HH
