#include "rlwe/ckks.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "modmath/primegen.hh"

namespace rpu {

namespace {

/** Nearest double to a u128 (tower primes, for scale tracking). */
double
u128ToDouble(u128 v)
{
    return double(uint64_t(v >> 64)) * 18446744073709551616.0 +
           double(uint64_t(v));
}

} // namespace

void
CkksParams::validate() const
{
    if (n < 8 || (n & (n - 1)) != 0)
        rpu_fatal("CKKS ring dimension must be a power of two >= 8, "
                  "got %llu",
                  (unsigned long long)n);
    if (towers < 1)
        rpu_fatal("CKKS modulus chain needs at least one tower");
    if (towerBits < 30 || towerBits > 120)
        rpu_fatal("tower width %u out of range [30, 120]", towerBits);
    if (!(scale > 1.0))
        rpu_fatal("encoding scale must exceed 1");
}

CkksContext::CkksContext(const CkksParams &params, uint64_t seed)
    : params_(params), encoder_(params.n), rng_(seed)
{
    params_.validate();

    // One prime generation pass; every chain prefix shares it, so a
    // rescaled ciphertext's towers are exactly the leading towers of
    // the full chain.
    const std::vector<u128> primes =
        nttPrimes(params_.towerBits, params_.n, params_.towers);
    prefixes_.reserve(params_.towers);
    crts_.reserve(params_.towers);
    for (size_t k = 1; k <= params_.towers; ++k) {
        prefixes_.push_back(std::make_unique<RnsBasis>(std::vector<u128>(
            primes.begin(), primes.begin() + ptrdiff_t(k))));
        crts_.push_back(std::make_unique<CrtContext>(*prefixes_.back()));
    }

    // The shared op pipeline over the full chain: host transforms by
    // default, rerouted through the device by attachDevice.
    evaluator_ = RlweEvaluator(params_.n, prefixes_.back().get());
}

const RnsBasis &
CkksContext::prefixBasis(size_t towers) const
{
    rpu_assert(towers >= 1 && towers <= params_.towers,
               "chain prefix %zu out of range [1, %zu]", towers,
               params_.towers);
    return *prefixes_[towers - 1];
}

const CrtContext &
CkksContext::crt(size_t towers) const
{
    rpu_assert(towers >= 1 && towers <= params_.towers,
               "chain prefix %zu out of range [1, %zu]", towers,
               params_.towers);
    return *crts_[towers - 1];
}

CrtContext::TowerPoly
CkksContext::residuesOfSigned(const std::vector<int64_t> &coeffs,
                              size_t towers) const
{
    rpu_assert(coeffs.size() == params_.n, "coefficient count mismatch");
    CrtContext::TowerPoly tp(towers, std::vector<u128>(params_.n));
    for (size_t t = 0; t < towers; ++t) {
        const Modulus &mod = basis().modulus(t);
        for (size_t i = 0; i < params_.n; ++i) {
            const int64_t c = coeffs[i];
            tp[t][i] = c >= 0 ? mod.reduce(u128(uint64_t(c)))
                              : mod.neg(mod.reduce(u128(uint64_t(-c))));
        }
    }
    return tp;
}

u128
CkksContext::liftCentred(u128 r, const Modulus &mod_l,
                         const Modulus &mod_t) const
{
    // r is a residue mod the odd prime q_l; its centred representative
    // is r itself up to (q_l - 1)/2 and r - q_l above.
    if (r <= (mod_l.value() >> 1))
        return mod_t.reduce(r);
    return mod_t.neg(mod_t.reduce(mod_l.value() - r));
}

CkksSecretKey
CkksContext::keygen()
{
    CkksSecretKey sk;
    sk.s.resize(params_.n);
    for (auto &v : sk.s) {
        const uint64_t r = rng_.below64(3);
        v = r == 0 ? 0 : r == 1 ? 1 : -1;
    }
    return sk;
}

CkksPlaintext
CkksContext::encodePlain(
    const std::vector<std::complex<double>> &values,
    size_t towers) const
{
    if (towers == 0)
        towers = params_.towers;
    rpu_assert(towers <= params_.towers,
               "encode over %zu towers, chain has %zu", towers,
               params_.towers);
    CkksPlaintext pt;
    pt.scale = params_.scale;
    // The one forward transform the plaintext ever pays: a batched
    // device dispatch when attached, host transforms otherwise.
    pt.rp = evaluator_.enterEval(residuesOfSigned(
        encoder_.encode(values, params_.scale), towers));
    return pt;
}

CkksPlaintext
CkksContext::encodePlainCoeff(
    const std::vector<std::complex<double>> &values,
    size_t towers) const
{
    if (towers == 0)
        towers = params_.towers;
    rpu_assert(towers <= params_.towers,
               "encode over %zu towers, chain has %zu", towers,
               params_.towers);
    CkksPlaintext pt;
    pt.scale = params_.scale;
    pt.rp = ResiduePoly(
        ResidueDomain::Coeff,
        residuesOfSigned(encoder_.encode(values, params_.scale),
                         towers));
    return pt;
}

CkksCiphertext
CkksContext::encrypt(const CkksSecretKey &sk,
                     const std::vector<std::complex<double>> &values)
{
    return encrypt(sk, values, rng_);
}

CkksCiphertext
CkksContext::encrypt(const CkksSecretKey &sk,
                     const std::vector<std::complex<double>> &values,
                     Rng &rng) const
{
    rpu_assert(sk.s.size() == params_.n, "secret key size mismatch");
    const size_t L = params_.towers;

    // The message+error and secret are single integer polynomials;
    // each tower sees their residues. The born-Eval assembly itself
    // (mask sampled directly in evaluation form, one host forward
    // transform per tower for the residues) is the evaluator's.
    const std::vector<int64_t> m =
        encoder_.encode(values, params_.scale);
    std::vector<int64_t> em(params_.n), s(params_.n);
    const uint64_t span = 2 * params_.noiseBound + 1;
    for (size_t i = 0; i < params_.n; ++i) {
        const int64_t e = int64_t(rng.below64(span)) -
                          int64_t(params_.noiseBound);
        em[i] = m[i] + e;
        s[i] = sk.s[i];
    }

    auto pair = evaluator_.encryptPair(residuesOfSigned(s, L),
                                       residuesOfSigned(em, L), rng);
    CkksCiphertext ct;
    ct.scale = params_.scale;
    ct.c0 = std::move(pair[0]);
    ct.c1 = std::move(pair[1]);
    return ct;
}

std::vector<std::complex<double>>
CkksContext::decrypt(const CkksSecretKey &sk,
                     const CkksCiphertext &ct) const
{
    rpu_assert(ct.towers() >= 1, "empty ciphertext");
    rpu_assert(ct.c0.domain == ct.c1.domain,
               "ciphertext components in different domains");
    const size_t L = ct.towers();

    std::vector<int64_t> s(params_.n);
    for (size_t i = 0; i < params_.n; ++i)
        s[i] = sk.s[i];

    // v = c0 + c1*s per tower = m + e in RNS; this is the scheme's
    // forced return to coefficients (Eval-resident ciphertexts pay
    // one inverse transform per tower, never a forward one).
    const CrtContext::TowerPoly v = evaluator_.innerProduct(
        ct.c0, ct.c1, residuesOfSigned(s, L));

    // Out of RNS exactly once: reconstruct mod the active Q, centre,
    // and decode at the ciphertext's scale.
    const std::vector<BigUInt> wide = crt(L).reconstructPoly(v);
    const BigUInt &big_q = prefixBasis(L).q();
    const BigUInt half_q = big_q >> 1;
    std::vector<double> coeffs(params_.n);
    for (size_t i = 0; i < params_.n; ++i) {
        coeffs[i] = wide[i] > half_q ? -(big_q - wide[i]).toDouble()
                                     : wide[i].toDouble();
    }
    return encoder_.decode(coeffs, ct.scale);
}

CkksCiphertext
CkksContext::add(const CkksCiphertext &a, const CkksCiphertext &b) const
{
    rpu_assert(a.towers() == b.towers() && a.towers() >= 1,
               "level mismatch: %zu vs %zu towers", a.towers(),
               b.towers());
    rpu_assert(std::abs(a.scale - b.scale) <= 1e-6 * a.scale,
               "scale mismatch: %g vs %g", a.scale, b.scale);
    rpu_assert(a.domain() == b.domain(),
               "residency mismatch: convert one operand first");

    auto pair = evaluator_.addPair(a.c0, a.c1, b.c0, b.c1);
    CkksCiphertext out;
    out.scale = a.scale;
    out.c0 = std::move(pair[0]);
    out.c1 = std::move(pair[1]);
    return out;
}

CkksCiphertext
CkksContext::mulPlain(const CkksCiphertext &ct,
                      const CkksPlaintext &pt) const
{
    rpu_assert(ct.towers() >= 1, "empty ciphertext");

    // Domain alignment, elision accounting, and the pointwise
    // dispatch are the evaluator's; the scheme only tracks scale.
    auto prods = evaluator_.mulPlainPair(ct.c0, ct.c1, pt.rp,
                                         ct.towers());
    CkksCiphertext out;
    out.scale = ct.scale * pt.scale;
    out.c0 = std::move(prods[0]);
    out.c1 = std::move(prods[1]);
    return out;
}

CkksCiphertext
CkksContext::mulPlain(const CkksCiphertext &ct,
                      const std::vector<std::complex<double>> &values)
    const
{
    // Single-use plaintext: encode only the towers this ciphertext's
    // level actually multiplies.
    return mulPlain(ct, encodePlain(values, ct.towers()));
}

RelinKey
CkksContext::makeRelinKey(const CkksSecretKey &sk, unsigned digitBits)
{
    rpu_assert(sk.s.size() == params_.n, "secret key size mismatch");
    std::vector<int64_t> s(params_.n);
    for (size_t i = 0; i < params_.n; ++i)
        s[i] = sk.s[i];
    return evaluator_.makeRelinKey(residuesOfSigned(s, params_.towers),
                                   params_.noiseBound, rng_, digitBits);
}

CkksCiphertext
CkksContext::mulCt(const CkksCiphertext &a, const CkksCiphertext &b,
                   const RelinKey &rk) const
{
    rpu_assert(a.towers() == b.towers() && a.towers() >= 1,
               "level mismatch: %zu vs %zu towers", a.towers(),
               b.towers());

    // Tensor, hook (none for CKKS), and key-switch are the
    // evaluator's; the scheme only tracks the scale product.
    auto pair = evaluator_.mulPair(a.c0, a.c1, b.c0, b.c1, rk);
    CkksCiphertext out;
    out.scale = a.scale * b.scale;
    out.c0 = std::move(pair[0]);
    out.c1 = std::move(pair[1]);
    return out;
}

CkksCiphertext
CkksContext::rescaleFromDropped(
    const CkksCiphertext &ct,
    const std::vector<std::vector<u128>> &dropped) const
{
    rpu_assert(ct.towers() >= 2,
               "rescale needs at least two active towers, have %zu",
               ct.towers());
    rpu_assert(ct.c0.inEval() && ct.c1.inEval(),
               "rescaleFromDropped takes Eval-resident components");
    rpu_assert(dropped.size() == 2 &&
                   dropped[0].size() == params_.n &&
                   dropped[1].size() == params_.n,
               "dropped-tower residues must cover both components");
    const size_t l = ct.towers() - 1; // tower being dropped
    const Modulus &mod_l = basis().modulus(l);
    const u128 q_l = mod_l.value();

    std::vector<u128> inv_ql(l);
    for (size_t t = 0; t < l; ++t)
        inv_ql[t] = basis().modulus(t).inv(
            basis().modulus(t).reduce(q_l));

    CkksCiphertext out;
    out.scale = ct.scale / u128ToDouble(q_l);
    const ResiduePoly *comps[2] = {&ct.c0, &ct.c1};
    ResiduePoly *out_comps[2] = {&out.c0, &out.c1};

    // Re-enter the lift into each remaining tower's evaluation
    // domain via the host transform — the same plaintext-sized
    // side engine encrypt and decrypt use — then subtract and
    // scale pointwise. The ciphertext towers themselves never
    // see a forward transform, so the device's forward-NTT
    // counter stays at zero across a whole rescale chain. The
    // 2*(L-1) independent (component, tower) units fan across
    // the device's worker pool when it has one.
    for (size_t c = 0; c < 2; ++c) {
        out_comps[c]->domain = ResidueDomain::Eval;
        out_comps[c]->towers.resize(l);
    }
    evaluator_.forEachUnit(2 * l, [&](size_t u) {
        const size_t c = u / l;
        const size_t t = u % l;
        const Modulus &mod_t = basis().modulus(t);
        std::vector<u128> d(params_.n);
        for (size_t i = 0; i < params_.n; ++i)
            d[i] = liftCentred(dropped[c][i], mod_l, mod_t);
        hostNtt(t).forward(d);
        out_comps[c]->towers[t] = polyScale(
            mod_t, inv_ql[t],
            polySub(mod_t, comps[c]->towers[t], d));
    });
    return out;
}

CkksCiphertext
CkksContext::rescale(const CkksCiphertext &ct) const
{
    rpu_assert(ct.towers() >= 2,
               "rescale needs at least two active towers, have %zu",
               ct.towers());
    rpu_assert(ct.c0.domain == ct.c1.domain,
               "ciphertext components in different domains");
    const size_t l = ct.towers() - 1; // tower being dropped
    const Modulus &mod_l = basis().modulus(l);
    const u128 q_l = mod_l.value();

    // Exact RNS rescale: with r the centred lift of [c]_l, every
    // remaining tower computes c'_t = (c_t - r) * q_l^-1 mod q_t —
    // the residues of the integer (V - centred(V mod q_l)) / q_l.

    if (ct.c0.inEval()) {
        // The scheme's one forced Coeff boundary: only the *dropped*
        // tower leaves the evaluation domain, as one inverse dispatch
        // on the attached device (host transform otherwise);
        // the host half is the shared rescaleFromDropped body, so
        // the serving layer can coalesce many ciphertexts' dropped
        // towers into one launch and still match this bit-for-bit.
        return rescaleFromDropped(
            ct, evaluator_.inverseTower({&ct.c0, &ct.c1}, l));
    }

    std::vector<u128> inv_ql(l);
    for (size_t t = 0; t < l; ++t)
        inv_ql[t] = basis().modulus(t).inv(
            basis().modulus(t).reduce(q_l));

    CkksCiphertext out;
    out.scale = ct.scale / u128ToDouble(q_l);
    const ResiduePoly *comps[2] = {&ct.c0, &ct.c1};
    ResiduePoly *out_comps[2] = {&out.c0, &out.c1};

    // Coefficient-resident input: the same map is plain coefficient
    // arithmetic — no transform at all (the forward/pointwise/inverse
    // sandwich an earlier revision launched here was pure dispatch
    // shape; the transforms cancelled exactly). Bit-identical to
    // toCoeff(rescale(toEval(ct))) on every tower.
    for (size_t c = 0; c < 2; ++c) {
        out_comps[c]->domain = ResidueDomain::Coeff;
        out_comps[c]->towers.resize(l);
        const std::vector<u128> &last = comps[c]->towers[l];
        for (size_t t = 0; t < l; ++t) {
            const Modulus &mod_t = basis().modulus(t);
            std::vector<u128> d(params_.n);
            for (size_t i = 0; i < params_.n; ++i)
                d[i] = mod_t.sub(comps[c]->towers[t][i],
                                 liftCentred(last[i], mod_l, mod_t));
            out_comps[c]->towers[t] =
                polyScale(mod_t, inv_ql[t], d);
        }
    }
    return out;
}

void
CkksContext::toCoeff(CkksCiphertext &ct) const
{
    evaluator_.convertPair(ct.c0, ct.c1, ResidueDomain::Coeff);
}

void
CkksContext::toEval(CkksCiphertext &ct) const
{
    evaluator_.convertPair(ct.c0, ct.c1, ResidueDomain::Eval);
}

void
CkksContext::attachDevice(std::shared_ptr<RpuDevice> device)
{
    rpu_assert(device != nullptr, "no device");
    rpu_assert(params_.n >= 1024,
               "RPU kernels need n >= 1024, scheme has n=%llu",
               (unsigned long long)params_.n);
    evaluator_.attachDevice(std::move(device));
}

} // namespace rpu
