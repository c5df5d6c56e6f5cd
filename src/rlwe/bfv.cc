#include "rlwe/bfv.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "modmath/primegen.hh"
#include "poly/polynomial.hh"

namespace rpu {

BfvContext::BfvContext(const RlweParams &params, uint64_t seed)
    : params_(params), rng_(seed)
{
    params_.validate();
    // One prime-generation pass for the whole tensor chain; the
    // ciphertext basis is its L-tower prefix (so q — and every
    // ciphertext-path launch count — is exactly what an L-tower
    // context had), and the L+1 same-width auxiliary towers give
    // mulCt's tensor product integer room: |coeff| <= n*q^2/4 needs
    // Q_aux >= n*q/2, and one extra tower covers the factor n for
    // every supported ring dimension.
    rpu_assert((u128(1) << params_.towerBits) >= 2 * params_.n,
               "tower width %u too narrow for the tensor chain at "
               "n=%llu",
               params_.towerBits, (unsigned long long)params_.n);
    const std::vector<u128> primes = nttPrimes(
        params_.towerBits, params_.n, 2 * params_.towers + 1);
    basis_ = std::make_unique<RnsBasis>(std::vector<u128>(
        primes.begin(), primes.begin() + ptrdiff_t(params_.towers)));
    basisExt_ = std::make_unique<RnsBasis>(primes);
    crt_ = std::make_unique<CrtContext>(*basis_);
    crtExt_ = std::make_unique<CrtContext>(*basisExt_);
    evaluator_ = RlweEvaluator(params_.n, basisExt_.get());

    delta_ = basis_->q() / BigUInt(params_.plaintextModulus);
    delta_res_.resize(params_.towers);
    for (size_t t = 0; t < params_.towers; ++t)
        delta_res_[t] = (delta_ % BigUInt::fromU128(
                                      basis_->prime(t))).low128();
}

SecretKey
BfvContext::keygen()
{
    SecretKey sk;
    sk.s.resize(params_.n);
    for (auto &v : sk.s) {
        const uint64_t r = rng_.below64(3);
        v = r == 0 ? 0 : r == 1 ? 1 : -1;
    }
    return sk;
}

RlweEvaluator::TowerPoly
BfvContext::secretResidues(const SecretKey &sk) const
{
    rpu_assert(sk.s.size() == params_.n, "secret key size mismatch");
    RlweEvaluator::TowerPoly st(params_.towers,
                                std::vector<u128>(params_.n));
    for (size_t t = 0; t < params_.towers; ++t) {
        const Modulus &mod = basis_->modulus(t);
        for (size_t i = 0; i < params_.n; ++i) {
            const int8_t c = sk.s[i];
            st[t][i] = c == 0 ? u128(0)
                              : c > 0 ? u128(1) : mod.value() - 1;
        }
    }
    return st;
}

std::vector<uint64_t>
BfvContext::liftPlain(const std::vector<uint64_t> &plain) const
{
    rpu_assert(plain.size() == params_.n, "plaintext size mismatch");
    std::vector<uint64_t> m(params_.n);
    for (size_t i = 0; i < plain.size(); ++i)
        m[i] = plain[i] % params_.plaintextModulus;
    return m;
}

BfvPlaintext
BfvContext::encodePlain(const std::vector<uint64_t> &plain) const
{
    const std::vector<uint64_t> m = liftPlain(plain);
    std::vector<RlweEvaluator::TowerPoly> res(
        1, RlweEvaluator::TowerPoly(params_.towers,
                                    std::vector<u128>(params_.n)));
    for (size_t t = 0; t < params_.towers; ++t) {
        const Modulus &mod = basis_->modulus(t);
        for (size_t i = 0; i < params_.n; ++i)
            res[0][t][i] = mod.reduce(u128(m[i]));
    }
    // The one forward transform the plaintext ever pays: a batched
    // device dispatch when attached, host transforms otherwise.
    return BfvPlaintext{std::move(evaluator_.enterEval(std::move(res))[0])};
}

Ciphertext
BfvContext::encrypt(const SecretKey &sk,
                    const std::vector<uint64_t> &message)
{
    const std::vector<uint64_t> m = liftPlain(message);

    // One small error polynomial, shared by every tower's residues.
    std::vector<int64_t> e(params_.n);
    const uint64_t span = 2 * params_.noiseBound + 1;
    for (auto &v : e)
        v = int64_t(rng_.below64(span)) - int64_t(params_.noiseBound);

    // Residues of Delta*m + e per tower: Delta*m_i's residue mod q_t
    // is (Delta mod q_t) * m_i, because Delta*m_i < q.
    RlweEvaluator::TowerPoly em(params_.towers,
                                std::vector<u128>(params_.n));
    for (size_t t = 0; t < params_.towers; ++t) {
        const Modulus &mod = basis_->modulus(t);
        for (size_t i = 0; i < params_.n; ++i) {
            const u128 dm = mod.mul(delta_res_[t], u128(m[i]));
            const int64_t ei = e[i];
            const u128 er = ei >= 0
                                ? mod.reduce(u128(uint64_t(ei)))
                                : mod.neg(mod.reduce(
                                      u128(uint64_t(-ei))));
            em[t][i] = mod.add(dm, er);
        }
    }

    auto pair = evaluator_.encryptPair(secretResidues(sk), em, rng_);
    return Ciphertext{std::move(pair[0]), std::move(pair[1])};
}

std::vector<uint64_t>
BfvContext::roundToPlain(const std::vector<BigUInt> &wide) const
{
    // m_i = floor((t*v_i + q/2) / q) mod t — the scheme's one
    // centred rounding, on the reconstructed wide coefficients.
    const BigUInt &big_q = basis_->q();
    const BigUInt half_q = big_q >> 1;
    const BigUInt big_t(params_.plaintextModulus);
    std::vector<uint64_t> out(params_.n);
    for (size_t i = 0; i < params_.n; ++i) {
        const BigUInt quot = (wide[i] * big_t + half_q) / big_q;
        out[i] = (quot % big_t).low64();
    }
    return out;
}

std::vector<uint64_t>
BfvContext::decrypt(const SecretKey &sk, const Ciphertext &ct) const
{
    rpu_assert(ct.towers() == params_.towers,
               "ciphertext spans %zu towers, scheme has %zu",
               ct.towers(), params_.towers);
    // v = c0 + c1*s = e + Delta*m per tower; out of RNS exactly once.
    const RlweEvaluator::TowerPoly v =
        evaluator_.innerProduct(ct.c0, ct.c1, secretResidues(sk));
    return roundToPlain(crt_->reconstructPoly(v));
}

std::vector<uint64_t>
BfvContext::decryptWideReference(const SecretKey &sk,
                                 const Ciphertext &ct) const
{
    rpu_assert(ct.towers() == params_.towers,
               "ciphertext spans %zu towers, scheme has %zu",
               ct.towers(), params_.towers);
    rpu_assert(sk.s.size() == params_.n, "secret key size mismatch");
    rpu_assert(ct.c0.domain == ct.c1.domain,
               "ciphertext components in different domains");
    const uint64_t n = params_.n;

    // Leave residency through the host reference transforms only, so
    // this path shares nothing with the device dispatch it checks.
    const auto coeff_towers = [&](const ResiduePoly &p) {
        CrtContext::TowerPoly tp = p.towers;
        if (p.inEval()) {
            for (size_t t = 0; t < tp.size(); ++t)
                evaluator_.hostNtt(t).inverse(tp[t]);
        }
        return tp;
    };
    const std::vector<BigUInt> c0w =
        crt_->reconstructPoly(coeff_towers(ct.c0));
    const std::vector<BigUInt> c1w =
        crt_->reconstructPoly(coeff_towers(ct.c1));

    // c1*s as a schoolbook negacyclic product over the wide
    // coefficients, exploiting the ternary secret: each nonzero s_j
    // adds +-c1 shifted by j. Addends stay below q, so the
    // accumulator never exceeds (n+1)*q; one reduction at the end.
    const BigUInt &big_q = basis_->q();
    std::vector<BigUInt> v = c0w;
    for (size_t j = 0; j < n; ++j) {
        const int8_t sj = sk.s[j];
        if (sj == 0)
            continue;
        for (size_t i = 0; i < n; ++i) {
            size_t k = i + j;
            bool negate = sj < 0;
            if (k >= n) {
                k -= n; // x^n = -1
                negate = !negate;
            }
            v[k] = v[k] + (negate ? big_q - c1w[i] : c1w[i]);
        }
    }
    for (auto &c : v)
        c = c % big_q;
    return roundToPlain(v);
}

Ciphertext
BfvContext::add(const Ciphertext &a, const Ciphertext &b) const
{
    auto pair = evaluator_.addPair(a.c0, a.c1, b.c0, b.c1);
    return Ciphertext{std::move(pair[0]), std::move(pair[1])};
}

Ciphertext
BfvContext::sub(const Ciphertext &a, const Ciphertext &b) const
{
    auto pair = evaluator_.subPair(a.c0, a.c1, b.c0, b.c1);
    return Ciphertext{std::move(pair[0]), std::move(pair[1])};
}

Ciphertext
BfvContext::mulPlain(const Ciphertext &ct, const BfvPlaintext &pt) const
{
    auto prods = evaluator_.mulPlainPair({{&ct.c0, &ct.c1}}, {&pt.rp});
    return Ciphertext{std::move(prods[0][0]), std::move(prods[0][1])};
}

Ciphertext
BfvContext::mulPlain(const Ciphertext &ct,
                     const std::vector<uint64_t> &plain) const
{
    return mulPlain(ct, encodePlain(plain));
}

RelinKey
BfvContext::makeRelinKey(const SecretKey &sk, unsigned digitBits)
{
    return evaluator_.makeRelinKey(secretResidues(sk),
                                   params_.noiseBound, rng_, digitBits);
}

std::vector<ResiduePoly>
BfvContext::extendComponents(
    const std::vector<const ResiduePoly *> &comps) const
{
    const size_t L = params_.towers;
    const size_t E = basisExt_->towers();
    const BigUInt &big_q = basis_->q();
    const BigUInt half_q = big_q >> 1;

    // Coefficient residues of every component (on copies; one
    // batched inverse dispatch covers all of them).
    std::vector<ResiduePoly> coeff(comps.size());
    std::vector<ResiduePoly *> movers;
    movers.reserve(comps.size());
    for (size_t i = 0; i < comps.size(); ++i) {
        rpu_assert(comps[i] != nullptr && comps[i]->towerCount() == L,
                   "component %zu does not span the ciphertext chain",
                   i);
        coeff[i] = *comps[i];
        movers.push_back(&coeff[i]);
    }
    evaluator_.ops().convert(movers, ResidueDomain::Coeff);

    // The auxiliary residues of each component's centred integer
    // coefficients: out of RNS once per component, then reduced mod
    // every auxiliary prime. Independent per component, so the
    // BigUInt work fans across the device's worker pool.
    std::vector<BigUInt> aux_primes_big(E - L);
    for (size_t k = L; k < E; ++k)
        aux_primes_big[k - L] = BigUInt::fromU128(basisExt_->prime(k));
    std::vector<RlweEvaluator::TowerPoly> aux(comps.size());
    evaluator_.forEachUnit(comps.size(), [&](size_t i) {
        const std::vector<BigUInt> wide =
            crt_->reconstructPoly(coeff[i].towers);
        aux[i].assign(E - L, std::vector<u128>(params_.n));
        for (size_t k = L; k < E; ++k) {
            const Modulus &mod = basisExt_->modulus(k);
            const BigUInt &p_big = aux_primes_big[k - L];
            for (size_t c = 0; c < params_.n; ++c) {
                if (wide[c] <= half_q) {
                    aux[i][k - L][c] = (wide[c] % p_big).low128();
                } else {
                    aux[i][k - L][c] = mod.neg(
                        ((big_q - wide[c]) % p_big).low128());
                }
            }
        }
    });

    // Assemble the extended polynomials. Eval-resident components
    // reuse their resident towers for the prefix — the L forward
    // transforms a residency-oblivious extension would redo land in
    // the elision ledger — and only the auxiliary towers enter the
    // evaluation domain, in one batched dispatch for all of them.
    // Coeff-resident components just grow their coefficient towers
    // and convert whole.
    std::vector<ResiduePoly> out(comps.size());
    std::vector<RlweEvaluator::TowerPoly> aux_pending;
    std::vector<size_t> aux_owner;
    std::vector<ResiduePoly *> full_movers;
    for (size_t i = 0; i < comps.size(); ++i) {
        if (comps[i]->inEval()) {
            aux_pending.push_back(std::move(aux[i]));
            aux_owner.push_back(i);
        } else {
            out[i].domain = ResidueDomain::Coeff;
            out[i].towers = std::move(coeff[i].towers);
            for (std::vector<u128> &tw : aux[i])
                out[i].towers.push_back(std::move(tw));
            full_movers.push_back(&out[i]);
        }
    }
    if (!aux_pending.empty()) {
        auto aux_eval =
            evaluator_.forwardTowersAt(std::move(aux_pending), L);
        for (size_t m = 0; m < aux_eval.size(); ++m) {
            const size_t i = aux_owner[m];
            out[i].domain = ResidueDomain::Eval;
            out[i].towers = comps[i]->towers;
            for (std::vector<u128> &tw : aux_eval[m])
                out[i].towers.push_back(std::move(tw));
        }
        evaluator_.ops().noteElidedConversions(aux_eval.size() * L);
    }
    if (!full_movers.empty())
        evaluator_.ops().convert(full_movers, ResidueDomain::Eval);
    return out;
}

std::array<ResiduePoly, 3>
BfvContext::scaleRoundHook(std::array<ResiduePoly, 3> d) const
{
    const size_t L = params_.towers;
    const BigUInt &big_Q = basisExt_->q();
    const BigUInt half_Q = big_Q >> 1;
    const BigUInt &big_q = basis_->q();
    const BigUInt half_q = big_q >> 1;
    const BigUInt big_t(params_.plaintextModulus);

    // All three tensor components leave the extended evaluation
    // domain together (one batched inverse dispatch).
    evaluator_.ops().convert({&d[0], &d[1], &d[2]},
                             ResidueDomain::Coeff);

    std::vector<BigUInt> primes_big(L);
    for (size_t t = 0; t < L; ++t)
        primes_big[t] = BigUInt::fromU128(basis_->prime(t));

    // Per component: reconstruct the exact centred tensor integer V
    // mod the full tensor modulus, scale-and-round R = round(t*V/q)
    // (half-away-from-zero on the centred magnitude), reduce mod q,
    // and take the ciphertext chain's residues. Independent per
    // component — the BigUInt work fans across the worker pool.
    std::array<ResiduePoly, 3> out;
    evaluator_.forEachUnit(3, [&](size_t c) {
        const std::vector<BigUInt> wide =
            crtExt_->reconstructPoly(d[c].towers);
        out[c].domain = ResidueDomain::Coeff;
        out[c].towers.assign(L, std::vector<u128>(params_.n));
        for (size_t i = 0; i < params_.n; ++i) {
            const bool neg = wide[i] > half_Q;
            const BigUInt mag =
                neg ? big_Q - wide[i] : BigUInt(wide[i]);
            BigUInt r = ((mag * big_t + half_q) / big_q) % big_q;
            if (neg && !r.isZero())
                r = big_q - r;
            for (size_t t = 0; t < L; ++t)
                out[c].towers[t][i] = (r % primes_big[t]).low128();
        }
    });

    // c0 and c1 re-enter the evaluation domain (one batched forward
    // dispatch); c2 stays in Coeff — the relinearisation's digit
    // split starts there anyway, so its inverse pass is elided.
    evaluator_.ops().convert({&out[0], &out[1]}, ResidueDomain::Eval);
    return out;
}

Ciphertext
BfvContext::mulCt(const Ciphertext &a, const Ciphertext &b,
                  const RelinKey &rk) const
{
    rpu_assert(a.towers() == params_.towers &&
                   b.towers() == params_.towers,
               "mulCt operands must span the ciphertext chain");

    // Base-extend all four components onto the tensor chain, then
    // the evaluator's shared pipeline: tensor product, this scheme's
    // scale-and-round, gadget key-switch.
    const std::vector<ResiduePoly> ext =
        extendComponents({&a.c0, &a.c1, &b.c0, &b.c1});
    auto d = evaluator_.tensorPair({{&ext[0], &ext[1]}},
                                   {{&ext[2], &ext[3]}});
    d[0] = scaleRoundHook(std::move(d[0]));
    auto pair = evaluator_.relinearise(std::move(d), {&rk});
    return Ciphertext{std::move(pair[0][0]), std::move(pair[0][1])};
}

void
BfvContext::toCoeff(Ciphertext &ct) const
{
    evaluator_.convertPair(ct.c0, ct.c1, ResidueDomain::Coeff);
}

void
BfvContext::toEval(Ciphertext &ct) const
{
    evaluator_.convertPair(ct.c0, ct.c1, ResidueDomain::Eval);
}

double
BfvContext::noiseBudgetBits(const SecretKey &sk, const Ciphertext &ct,
                            const std::vector<uint64_t> &expected) const
{
    // Noise = v - Delta*m, measured as a signed magnitude; budget is
    // how many more bits it can grow before rounding fails.
    const RlweEvaluator::TowerPoly vt =
        evaluator_.innerProduct(ct.c0, ct.c1, secretResidues(sk));
    const std::vector<BigUInt> v = crt_->reconstructPoly(vt);

    const BigUInt &big_q = basis_->q();
    const BigUInt half_q = big_q >> 1;
    BigUInt worst;
    for (size_t i = 0; i < v.size(); ++i) {
        const uint64_t m = expected[i] % params_.plaintextModulus;
        const BigUInt dm = delta_ * BigUInt(m); // Delta*m < q
        BigUInt noise =
            v[i] >= dm ? v[i] - dm : (v[i] + big_q) - dm;
        if (noise > half_q)
            noise = big_q - noise; // centred magnitude
        if (noise > worst)
            worst = noise;
    }
    const double limit =
        std::log2(big_q.toDouble()) -
        std::log2(2.0 * double(params_.plaintextModulus));
    const double used =
        worst.isZero() ? 0.0 : std::log2(worst.toDouble() + 1.0);
    return std::max(0.0, limit - used);
}

void
BfvContext::attachDevice(std::shared_ptr<RpuDevice> device)
{
    rpu_assert(device != nullptr, "no device");
    evaluator_.attachDevice(std::move(device));
}

} // namespace rpu
