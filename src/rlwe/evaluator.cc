#include "rlwe/evaluator.hh"

#include <exception>
#include <future>
#include <utility>

#include "common/logging.hh"
#include "poly/polynomial.hh"
#include "rpu/device.hh"
#include "rpu/thread_pool.hh"

namespace rpu {

RlweEvaluator::RlweEvaluator(uint64_t n, const RnsBasis *basis)
    : n_(n), basis_(basis), ops_(n, basis)
{
    rpu_assert(basis_ != nullptr, "evaluator needs a basis");
    const size_t towers = basis_->towers();
    twiddles_.reserve(towers);
    ntts_.reserve(towers);
    std::vector<const NttContext *> host(towers);
    for (size_t t = 0; t < towers; ++t) {
        twiddles_.push_back(
            std::make_unique<TwiddleTable>(basis_->modulus(t), n_));
        ntts_.push_back(std::make_unique<NttContext>(*twiddles_[t]));
        host[t] = ntts_[t].get();
    }
    ops_.setHostTransforms(std::move(host));
}

void
RlweEvaluator::attachDevice(std::shared_ptr<RpuDevice> device)
{
    rpu_assert(device != nullptr, "no device");
    device_ = std::move(device);
    ops_.setDevice(device_);
}

const RnsBasis &
RlweEvaluator::basis() const
{
    rpu_assert(basis_ != nullptr, "evaluator has no basis bound");
    return *basis_;
}

const Modulus &
RlweEvaluator::modulus(size_t t) const
{
    return basis().modulus(t);
}

const NttContext &
RlweEvaluator::hostNtt(size_t t) const
{
    rpu_assert(t < ntts_.size(), "tower %zu out of range", t);
    return *ntts_[t];
}

ResiduePoly
RlweEvaluator::enterEval(TowerPoly coeff_towers) const
{
    ResiduePoly p(ResidueDomain::Coeff, std::move(coeff_towers));
    ops_.toEval(p);
    return p;
}

void
RlweEvaluator::convertPair(ResiduePoly &c0, ResiduePoly &c1,
                           ResidueDomain target) const
{
    ops_.convert({&c0, &c1}, target);
}

std::array<ResiduePoly, 2>
RlweEvaluator::addPair(const ResiduePoly &a0, const ResiduePoly &a1,
                       const ResiduePoly &b0,
                       const ResiduePoly &b1) const
{
    return {ops_.add(a0, b0), ops_.add(a1, b1)};
}

std::array<ResiduePoly, 2>
RlweEvaluator::subPair(const ResiduePoly &a0, const ResiduePoly &a1,
                       const ResiduePoly &b0,
                       const ResiduePoly &b1) const
{
    return {ops_.sub(a0, b0), ops_.sub(a1, b1)};
}

std::array<ResiduePoly, 2>
RlweEvaluator::mulPlainPair(const ResiduePoly &c0, const ResiduePoly &c1,
                            const ResiduePoly &pt, size_t towers) const
{
    rpu_assert(towers >= 1, "empty ciphertext");
    rpu_assert(pt.towerCount() >= towers,
               "plaintext spans %zu towers, ciphertext needs %zu",
               pt.towerCount(), towers);
    rpu_assert(pt.inEval(), "plaintext must be encoded (Eval)");
    rpu_assert(c0.domain == c1.domain,
               "ciphertext components in different domains");
    rpu_assert(c0.towerCount() == towers && c1.towerCount() == towers,
               "component tower count mismatch");

    // Steady state (Eval-resident components): read in place — no
    // copy, no transform, just the pointwise dispatch — and the
    // conversions a coefficient-resident system would have paid land
    // in the elision ledger. Coeff-resident components convert on
    // copies so the inputs stay untouched.
    std::vector<ResiduePoly> owned;
    std::vector<const ResiduePoly *> comps;
    if (c0.inEval()) {
        ops_.noteElidedConversions(2 * towers);
        comps = {&c0, &c1};
    } else {
        owned.reserve(2);
        owned.push_back(c0);
        owned.push_back(c1);
        ops_.convert({&owned[0], &owned[1]}, ResidueDomain::Eval);
        comps = {&owned[0], &owned[1]};
    }

    auto prods = ops_.mulEvalShared(comps, pt, towers);
    return {std::move(prods[0]), std::move(prods[1])};
}

std::array<ResiduePoly, 3>
RlweEvaluator::tensorPair(const ResiduePoly &a0, const ResiduePoly &a1,
                          const ResiduePoly &b0,
                          const ResiduePoly &b1) const
{
    const size_t towers = a0.towerCount();
    rpu_assert(a1.towerCount() == towers &&
                   b0.towerCount() == towers &&
                   b1.towerCount() == towers,
               "tensor operands span different tower counts");
    rpu_assert(a0.domain == a1.domain && b0.domain == b1.domain,
               "ciphertext components in different domains");

    // Eval-resident pairs are read in place (the conversions a
    // coefficient-resident system would pay land in the elision
    // ledger); Coeff-resident pairs convert on copies.
    std::vector<ResiduePoly> owned;
    owned.reserve(4);
    const ResiduePoly *pa0 = &a0, *pa1 = &a1;
    const ResiduePoly *pb0 = &b0, *pb1 = &b1;
    if (a0.inEval()) {
        ops_.noteElidedConversions(2 * towers);
    } else {
        owned.push_back(a0);
        owned.push_back(a1);
        ops_.convert({&owned[0], &owned[1]}, ResidueDomain::Eval);
        pa0 = &owned[0];
        pa1 = &owned[1];
    }
    if (b0.inEval()) {
        ops_.noteElidedConversions(2 * towers);
    } else {
        const size_t base = owned.size();
        owned.push_back(b0);
        owned.push_back(b1);
        ops_.convert({&owned[base], &owned[base + 1]},
                     ResidueDomain::Eval);
        pb0 = &owned[base];
        pb1 = &owned[base + 1];
    }

    // The four cross products in one pointwise dispatch, folded into
    // (c0, c1, c2) = (a0b0, a0b1 + a1b0, a1b1) with host tower adds.
    auto prods = ops_.mulEvalPairs({pa0, pa0, pa1, pa1},
                                   {pb0, pb1, pb0, pb1}, towers);
    return {std::move(prods[0]), ops_.add(prods[1], prods[2]),
            std::move(prods[3])};
}

std::array<ResiduePoly, 2>
RlweEvaluator::relinearise(const ResiduePoly &d0, const ResiduePoly &d1,
                           ResiduePoly d2, const RelinKey &rk) const
{
    const size_t towers = d0.towerCount();
    rpu_assert(d1.towerCount() == towers && d2.towerCount() == towers,
               "degree-2 components span different tower counts");
    rpu_assert(d0.inEval() && d1.inEval(),
               "degree-1 components must be evaluation-resident");
    rpu_assert(rk.towerCount() >= towers,
               "relin key covers %zu towers, ciphertext spans %zu",
               rk.towerCount(), towers);
    for (size_t t = 0; t < towers; ++t) {
        rpu_assert(rk.k[t].size() == ops_.digitCount(t, rk.digitBits),
                   "relin key digit layout mismatch at tower %zu", t);
    }

    // c2 leaves the evaluation domain — the key-switch's one batched
    // inverse pass. A scheme hook that already returned it in Coeff
    // (BFV's scale-and-round) makes this a recorded elision instead.
    const bool c2_was_eval = d2.inEval();
    ops_.toCoeff(d2);
    if (c2_was_eval && device_)
        device_->noteKeySwitchTransforms(towers);

    // Digit split (host) and re-entry: every digit polynomial back
    // into the evaluation domain through one batched forward
    // dispatch — the digits * towers transforms the gadget
    // decomposition costs, annotated as key-switch plumbing.
    std::vector<ResiduePoly> digits =
        ops_.digitDecompose(d2, rk.digitBits, towers);
    std::vector<ResiduePoly *> views;
    views.reserve(digits.size());
    for (ResiduePoly &d : digits)
        views.push_back(&d);
    ops_.convert(views, ResidueDomain::Eval);
    if (device_)
        device_->noteKeySwitchTransforms(digits.size() * towers);

    // The inner product against the key: 2 * totalDigits pairs
    // (digit .* k0, digit .* k1) through one pointwise dispatch, the
    // key read through its tower prefix without copying it down.
    std::vector<const ResiduePoly *> as, bs;
    as.reserve(2 * digits.size());
    bs.reserve(2 * digits.size());
    size_t idx = 0;
    for (size_t t = 0; t < towers; ++t) {
        for (size_t j = 0; j < rk.k[t].size(); ++j, ++idx) {
            as.push_back(&digits[idx]);
            bs.push_back(&rk.k[t][j][0]);
            as.push_back(&digits[idx]);
            bs.push_back(&rk.k[t][j][1]);
        }
    }
    rpu_assert(idx == digits.size(), "digit/key layout mismatch");
    auto prods = ops_.mulEvalPairs(as, bs, towers);

    ResiduePoly r0 = d0;
    ResiduePoly r1 = d1;
    for (size_t i = 0; i < digits.size(); ++i) {
        r0 = ops_.add(r0, prods[2 * i]);
        r1 = ops_.add(r1, prods[2 * i + 1]);
    }
    return {std::move(r0), std::move(r1)};
}

std::array<ResiduePoly, 2>
RlweEvaluator::mulPair(const ResiduePoly &a0, const ResiduePoly &a1,
                       const ResiduePoly &b0, const ResiduePoly &b1,
                       const RelinKey &rk, const Degree2Hook &hook) const
{
    std::array<ResiduePoly, 3> d = tensorPair(a0, a1, b0, b1);
    if (hook)
        d = hook(std::move(d));
    return relinearise(d[0], d[1], std::move(d[2]), rk);
}

RelinKey
RlweEvaluator::makeRelinKey(const TowerPoly &s_res, uint64_t noiseBound,
                            Rng &rng, unsigned digitBits) const
{
    const size_t towers = s_res.size();
    rpu_assert(towers >= 1 && towers <= basis().towers(),
               "key spans %zu towers, chain has %zu", towers,
               basis().towers());

    // s and s^2 in evaluation form, once per tower; the squaring is
    // pointwise there.
    std::vector<std::vector<u128>> s_eval(towers), s2_eval(towers);
    for (size_t t = 0; t < towers; ++t) {
        rpu_assert(s_res[t].size() == n_, "secret residue size mismatch");
        s_eval[t] = s_res[t];
        hostNtt(t).forward(s_eval[t]);
        s2_eval[t] = polyPointwise(modulus(t), s_eval[t], s_eval[t]);
    }

    RelinKey rk;
    rk.digitBits = digitBits;
    rk.k.resize(towers);
    const u128 base = u128(1) << digitBits;
    const uint64_t span = 2 * noiseBound + 1;
    std::vector<int64_t> e(n_);
    for (size_t t = 0; t < towers; ++t) {
        const Modulus &mod_t = modulus(t);
        rk.k[t].resize(ops_.digitCount(t, digitBits));
        u128 g = 1; // B^j mod q_t
        for (size_t j = 0; j < rk.k[t].size(); ++j) {
            // One small error polynomial per key entry, shared by
            // every tower's residues (like encryptPair's).
            for (auto &v : e)
                v = int64_t(rng.below64(span)) - int64_t(noiseBound);

            std::array<ResiduePoly, 2> &entry = rk.k[t][j];
            entry[0].domain = ResidueDomain::Eval;
            entry[1].domain = ResidueDomain::Eval;
            entry[0].towers.resize(towers);
            entry[1].towers.resize(towers);
            for (size_t u = 0; u < towers; ++u) {
                const Modulus &mod = modulus(u);
                const std::vector<u128> a = randomPoly(mod, n_, rng);
                std::vector<u128> er(n_);
                for (size_t i = 0; i < n_; ++i) {
                    const int64_t ei = e[i];
                    er[i] = ei >= 0
                                ? mod.reduce(u128(uint64_t(ei)))
                                : mod.neg(mod.reduce(
                                      u128(uint64_t(-ei))));
                }
                hostNtt(u).forward(er);
                // k0 = a*s + e + g_{t,j}*s^2, k1 = -a — the gadget
                // factor is a CRT unit vector, so the s^2 term only
                // exists in tower t and costs a pointwise scale, no
                // transform.
                std::vector<u128> k0 = polyAdd(
                    mod, polyPointwise(mod, a, s_eval[u]), er);
                if (u == t)
                    k0 = polyAdd(mod, k0,
                                 polyScale(mod, g, s2_eval[t]));
                std::vector<u128> k1(n_);
                for (size_t i = 0; i < n_; ++i)
                    k1[i] = mod.neg(a[i]);
                entry[0].towers[u] = std::move(k0);
                entry[1].towers[u] = std::move(k1);
            }
            g = mod_t.mul(g, mod_t.reduce(base));
        }
    }
    return rk;
}

std::array<ResiduePoly, 2>
RlweEvaluator::encryptPair(const TowerPoly &s_res,
                           const TowerPoly &em_res, Rng &rng) const
{
    const size_t L = s_res.size();
    rpu_assert(L >= 1 && L <= basis().towers(),
               "ciphertext spans %zu towers, chain has %zu", L,
               basis().towers());
    rpu_assert(em_res.size() == L, "residue tower count mismatch");

    std::array<ResiduePoly, 2> ct;
    ct[0].domain = ResidueDomain::Eval;
    ct[1].domain = ResidueDomain::Eval;
    ct[0].towers.reserve(L);
    ct[1].towers.reserve(L);
    for (size_t t = 0; t < L; ++t) {
        const Modulus &mod = modulus(t);
        const std::vector<u128> a = randomPoly(mod, n_, rng);
        std::vector<u128> s_eval = s_res[t];
        hostNtt(t).forward(s_eval);
        std::vector<u128> em_eval = em_res[t];
        hostNtt(t).forward(em_eval);
        // c0 = a*s + (e + m); c1 = -a — all pointwise in Eval.
        std::vector<u128> c0 =
            polyAdd(mod, polyPointwise(mod, a, s_eval), em_eval);
        std::vector<u128> c1(n_);
        for (size_t i = 0; i < n_; ++i)
            c1[i] = mod.neg(a[i]);
        ct[0].towers.push_back(std::move(c0));
        ct[1].towers.push_back(std::move(c1));
    }
    return ct;
}

RlweEvaluator::TowerPoly
RlweEvaluator::innerProduct(const ResiduePoly &c0, const ResiduePoly &c1,
                            const TowerPoly &s_res) const
{
    const size_t L = c0.towerCount();
    rpu_assert(L >= 1, "empty ciphertext");
    rpu_assert(c0.domain == c1.domain && c1.towerCount() == L,
               "ciphertext components in different shapes");
    rpu_assert(s_res.size() >= L, "secret residues span too few towers");

    TowerPoly v(L);
    forEachUnit(L, [&](size_t t) {
        const Modulus &mod = modulus(t);
        if (c0.inEval()) {
            std::vector<u128> s_eval = s_res[t];
            hostNtt(t).forward(s_eval);
            std::vector<u128> ve =
                polyAdd(mod, c0.towers[t],
                        polyPointwise(mod, c1.towers[t], s_eval));
            hostNtt(t).inverse(ve);
            v[t] = std::move(ve);
        } else {
            const std::vector<u128> c1s = negacyclicMulNtt(
                hostNtt(t), c1.towers[t], s_res[t]);
            v[t] = polyAdd(mod, c0.towers[t], c1s);
        }
    });
    return v;
}

std::vector<std::vector<u128>>
RlweEvaluator::inverseTower(
    const std::vector<const ResiduePoly *> &polys, size_t t) const
{
    std::vector<std::vector<u128>> out(polys.size());
    for (const ResiduePoly *p : polys) {
        rpu_assert(p != nullptr && p->inEval() && t < p->towerCount(),
                   "inverseTower needs Eval operands with tower %zu",
                   t);
    }
    if (device_) {
        // One single-tower item per polynomial, all in one dispatch.
        const std::vector<std::vector<u128>> moduli(
            polys.size(), {basis().prime(t)});
        TowerItems xs(polys.size());
        for (size_t c = 0; c < polys.size(); ++c)
            xs[c].push_back(polys[c]->towers[t]);
        auto results = device_->dispatch(RingOp::Inverse, n_, moduli,
                                         std::move(xs));
        for (size_t c = 0; c < polys.size(); ++c)
            out[c] = std::move(results[c][0]);
        return out;
    }
    for (size_t c = 0; c < polys.size(); ++c) {
        out[c] = polys[c]->towers[t];
        hostNtt(t).inverse(out[c]);
    }
    return out;
}

std::vector<RlweEvaluator::TowerPoly>
RlweEvaluator::forwardTowersAt(std::vector<TowerPoly> xs,
                               size_t first) const
{
    if (xs.empty())
        return xs;
    const size_t count = xs[0].size();
    rpu_assert(count >= 1 && first + count <= basis().towers(),
               "tower range [%zu, %zu) outside the chain", first,
               first + count);
    for (const TowerPoly &x : xs)
        rpu_assert(x.size() == count, "tower count mismatch");

    if (device_) {
        std::vector<u128> primes(count);
        for (size_t t = 0; t < count; ++t)
            primes[t] = basis().prime(first + t);
        const std::vector<std::vector<u128>> moduli(xs.size(), primes);
        return device_->dispatch(RingOp::Forward, n_, moduli,
                                 std::move(xs));
    }
    for (TowerPoly &x : xs) {
        for (size_t t = 0; t < count; ++t)
            hostNtt(first + t).forward(x[t]);
    }
    return xs;
}

void
RlweEvaluator::forEachUnit(size_t count,
                           const std::function<void(size_t)> &fn) const
{
    ThreadPool *pool = device_ ? device_->workerPool() : nullptr;
    if (pool == nullptr || count <= 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    // Independent units ride the device's worker pool. Every unit is
    // joined before the first failure is rethrown, so no unit is left
    // running with references into an unwinding caller.
    std::vector<std::future<void>> futures;
    futures.reserve(count);
    for (size_t i = 0; i < count; ++i)
        futures.push_back(pool->submit([&fn, i] { fn(i); }));
    std::exception_ptr first_error;
    for (auto &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace rpu
