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

std::vector<CkksPlaintext>
CkksContext::encodePlain(
    const std::vector<const std::vector<std::complex<double>> *> &values,
    size_t towers, DispatchRoute *route) const
{
    if (towers == 0)
        towers = params_.towers;
    rpu_assert(towers <= params_.towers,
               "encode over %zu towers, chain has %zu", towers,
               params_.towers);
    std::vector<RlweEvaluator::TowerPoly> res;
    res.reserve(values.size());
    for (const std::vector<std::complex<double>> *v : values)
        res.push_back(
            residuesOfSigned(encoder_.encode(*v, params_.scale), towers));
    // The one forward transform a plaintext ever pays: one tiled
    // device dispatch for the batch when attached, host transforms
    // otherwise.
    std::vector<ResiduePoly> eval =
        evaluator_.enterEval(std::move(res), route);
    std::vector<CkksPlaintext> pts(values.size());
    for (size_t i = 0; i < pts.size(); ++i) {
        pts[i].scale = params_.scale;
        pts[i].rp = std::move(eval[i]);
    }
    return pts;
}

CkksPlaintext
CkksContext::encodePlain(const std::vector<std::complex<double>> &values,
                         size_t towers) const
{
    return std::move(encodePlain({&values}, towers)[0]);
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

    // Out of RNS exactly once: the centred lift mod the active Q,
    // decoded at the ciphertext's scale.
    return encoder_.decode(crt(L).liftCentred(v), ct.scale);
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

std::vector<CkksCiphertext>
CkksContext::mulPlain(const std::vector<const CkksCiphertext *> &cts,
                      const std::vector<const CkksPlaintext *> &pts,
                      DispatchRoute *route) const
{
    rpu_assert(cts.size() == pts.size(),
               "%zu ciphertexts for %zu plaintexts", cts.size(),
               pts.size());
    std::vector<RlweEvaluator::PairView> comps;
    std::vector<const ResiduePoly *> rps;
    for (size_t i = 0; i < cts.size(); ++i) {
        rpu_assert(cts[i]->towers() >= 1, "empty ciphertext");
        comps.push_back({&cts[i]->c0, &cts[i]->c1});
        rps.push_back(&pts[i]->rp);
    }

    // Domain alignment, elision accounting, and the pointwise
    // dispatch are the evaluator's; the scheme only tracks scale.
    auto prods = evaluator_.mulPlainPair(comps, rps, route);
    std::vector<CkksCiphertext> out(cts.size());
    for (size_t i = 0; i < out.size(); ++i) {
        out[i].scale = cts[i]->scale * pts[i]->scale;
        out[i].c0 = std::move(prods[i][0]);
        out[i].c1 = std::move(prods[i][1]);
    }
    return out;
}

CkksCiphertext
CkksContext::mulPlain(const CkksCiphertext &ct,
                      const CkksPlaintext &pt) const
{
    return std::move(mulPlain({&ct}, {&pt})[0]);
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

std::vector<CkksCiphertext>
CkksContext::mulCt(const std::vector<const CkksCiphertext *> &as,
                   const std::vector<const CkksCiphertext *> &bs,
                   const std::vector<const RelinKey *> &rks,
                   DispatchRoute *route) const
{
    rpu_assert(as.size() == bs.size() && as.size() == rks.size(),
               "mulCt batch of %zu x %zu operands, %zu keys", as.size(),
               bs.size(), rks.size());
    std::vector<RlweEvaluator::PairView> pa, pb;
    for (size_t i = 0; i < as.size(); ++i) {
        rpu_assert(as[i]->towers() == bs[i]->towers() &&
                       as[i]->towers() >= 1,
                   "level mismatch: %zu vs %zu towers", as[i]->towers(),
                   bs[i]->towers());
        pa.push_back({&as[i]->c0, &as[i]->c1});
        pb.push_back({&bs[i]->c0, &bs[i]->c1});
    }

    // Tensor and key-switch are the evaluator's; the scheme only
    // tracks the scale product.
    auto pairs = evaluator_.relinearise(
        evaluator_.tensorPair(pa, pb, route), rks, route);
    std::vector<CkksCiphertext> out(as.size());
    for (size_t i = 0; i < out.size(); ++i) {
        out[i].scale = as[i]->scale * bs[i]->scale;
        out[i].c0 = std::move(pairs[i][0]);
        out[i].c1 = std::move(pairs[i][1]);
    }
    return out;
}

CkksCiphertext
CkksContext::mulCt(const CkksCiphertext &a, const CkksCiphertext &b,
                   const RelinKey &rk) const
{
    return std::move(mulCt({&a}, {&b}, {&rk})[0]);
}

std::vector<CkksCiphertext>
CkksContext::rescale(const std::vector<const CkksCiphertext *> &cts,
                     DispatchRoute *route) const
{
    if (cts.empty())
        return {};
    const size_t towers = cts[0]->towers();
    rpu_assert(towers >= 2,
               "rescale needs at least two active towers, have %zu",
               towers);
    const size_t l = towers - 1; // tower being dropped
    const Modulus &mod_l = basis().modulus(l);
    std::vector<u128> inv_ql(l);
    for (size_t t = 0; t < l; ++t)
        inv_ql[t] = basis().modulus(t).inv(
            basis().modulus(t).reduce(mod_l.value()));

    // The scheme's one forced Coeff boundary: only the *dropped*
    // tower of each Eval ciphertext leaves the evaluation domain, all
    // of the batch's in one inverse dispatch on the attached device
    // or route (host transforms otherwise). A Coeff ciphertext's
    // dropped tower is already in coefficient form.
    std::vector<const ResiduePoly *> eval_comps;
    for (const CkksCiphertext *ct : cts) {
        rpu_assert(ct->towers() == towers,
                   "rescale batch mixes levels: %zu vs %zu towers",
                   ct->towers(), towers);
        rpu_assert(ct->c0.domain == ct->c1.domain,
                   "ciphertext components in different domains");
        if (ct->c0.inEval()) {
            eval_comps.push_back(&ct->c0);
            eval_comps.push_back(&ct->c1);
        }
    }
    std::vector<std::vector<u128>> inverted;
    if (!eval_comps.empty())
        inverted = evaluator_.inverseTower(eval_comps, l, route);

    // Exact RNS rescale: with r the centred lift of the dropped
    // tower, every remaining tower computes
    // c'_t = (c_t - r) * q_l^-1 mod q_t — the residues of the integer
    // (V - centred(V mod q_l)) / q_l. An Eval ciphertext re-enters
    // the lift into each remaining tower's evaluation domain via the
    // host transform — the same plaintext-sized side engine encrypt
    // and decrypt use — so its towers themselves never see a forward
    // transform and the device's forward-NTT counter stays at zero
    // across a whole rescale chain; a Coeff ciphertext needs no
    // transform at all.
    std::vector<CkksCiphertext> out(cts.size());
    size_t next = 0;
    for (size_t k = 0; k < cts.size(); ++k) {
        const CkksCiphertext &ct = *cts[k];
        const bool eval = ct.c0.inEval();
        const ResiduePoly *comps[2] = {&ct.c0, &ct.c1};
        ResiduePoly *out_comps[2] = {&out[k].c0, &out[k].c1};
        const std::vector<u128> *dropped[2];
        for (size_t c = 0; c < 2; ++c) {
            dropped[c] = eval ? &inverted[next++] : &comps[c]->towers[l];
            out_comps[c]->domain = ct.c0.domain;
            out_comps[c]->towers.resize(l);
        }
        out[k].scale = ct.scale / u128ToDouble(mod_l.value());
        for (size_t c = 0; c < 2; ++c) {
            for (size_t t = 0; t < l; ++t) {
                const Modulus &mod_t = basis().modulus(t);
                std::vector<u128> d(params_.n);
                for (size_t i = 0; i < params_.n; ++i)
                    d[i] = liftCentred((*dropped[c])[i], mod_l, mod_t);
                if (eval)
                    hostNtt(t).forward(d);
                out_comps[c]->towers[t] =
                    polyScale(mod_t, inv_ql[t],
                              polySub(mod_t, comps[c]->towers[t], d));
            }
        }
    }
    return out;
}

CkksCiphertext
CkksContext::rescale(const CkksCiphertext &ct) const
{
    return std::move(rescale(std::vector<const CkksCiphertext *>{&ct})[0]);
}

std::vector<StageShape>
CkksContext::launchShapes(CkksOp op, size_t items, size_t towers,
                          unsigned digitBits) const
{
    const std::vector<u128> chain = prefixBasis(towers).primes();
    const auto stage = [&](RingOp ring, size_t count,
                           const std::vector<u128> &moduli) {
        return StageShape{ring,
                          std::vector<std::vector<u128>>(count, moduli)};
    };
    std::vector<StageShape> shapes;
    if (op == CkksOp::MulPlainRescale) {
        shapes.push_back(stage(RingOp::Forward, items, chain));
        shapes.push_back(stage(RingOp::Pointwise, 2 * items, chain));
    } else {
        size_t digits = 0;
        for (size_t t = 0; t < towers; ++t)
            digits += residueOps().digitCount(t, digitBits);
        shapes.push_back(stage(RingOp::Pointwise, 4 * items, chain));
        shapes.push_back(stage(RingOp::Inverse, items, chain));
        shapes.push_back(stage(RingOp::Forward, items * digits, chain));
        shapes.push_back(
            stage(RingOp::Pointwise, 2 * items * digits, chain));
    }
    shapes.push_back(stage(RingOp::Inverse, 2 * items, {chain.back()}));
    return shapes;
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
