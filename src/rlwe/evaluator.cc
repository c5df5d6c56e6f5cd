#include "rlwe/evaluator.hh"

#include <deque>
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

std::vector<ResiduePoly>
RlweEvaluator::enterEval(std::vector<TowerPoly> coeff,
                         DispatchRoute *route) const
{
    std::vector<ResiduePoly> polys;
    polys.reserve(coeff.size());
    for (TowerPoly &towers : coeff)
        polys.emplace_back(ResidueDomain::Coeff, std::move(towers));
    std::vector<ResiduePoly *> views;
    for (ResiduePoly &p : polys)
        views.push_back(&p);
    ops_.convert(views, ResidueDomain::Eval, route);
    return polys;
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

namespace {

/**
 * @p pairs with every component Eval-resident: components already in
 * Eval are read in place (the conversions a coefficient-resident
 * system would pay land in the elision ledger); Coeff ones are copied
 * into @p owned and converted there, in one dispatch for the batch,
 * so the inputs stay untouched.
 */
std::vector<RlweEvaluator::PairView>
evalPairs(const ResidueOps &ops, std::vector<RlweEvaluator::PairView> pairs,
          size_t towers, std::deque<ResiduePoly> &owned,
          DispatchRoute *route)
{
    uint64_t elided = 0;
    std::vector<ResiduePoly *> movers;
    for (RlweEvaluator::PairView &pair : pairs) {
        rpu_assert(pair[0]->domain == pair[1]->domain,
                   "ciphertext components in different domains");
        rpu_assert(pair[0]->towerCount() == towers &&
                       pair[1]->towerCount() == towers,
                   "batch operands span different tower counts");
        if (pair[0]->inEval()) {
            elided += 2 * towers;
            continue;
        }
        for (const ResiduePoly *&c : pair) {
            owned.push_back(*c);
            movers.push_back(&owned.back());
            c = &owned.back();
        }
    }
    if (elided > 0)
        ops.noteElidedConversions(elided, route);
    if (!movers.empty())
        ops.convert(movers, ResidueDomain::Eval, route);
    return pairs;
}

} // namespace

std::vector<std::array<ResiduePoly, 2>>
RlweEvaluator::mulPlainPair(const std::vector<PairView> &cts,
                            const std::vector<const ResiduePoly *> &pts,
                            DispatchRoute *route) const
{
    rpu_assert(!cts.empty() && cts.size() == pts.size(),
               "%zu ciphertexts for %zu plaintexts", cts.size(),
               pts.size());
    const size_t towers = cts[0][0]->towerCount();
    rpu_assert(towers >= 1, "empty ciphertext");
    for (const ResiduePoly *pt : pts) {
        rpu_assert(pt->towerCount() >= towers,
                   "plaintext spans %zu towers, ciphertext needs %zu",
                   pt->towerCount(), towers);
        rpu_assert(pt->inEval(), "plaintext must be encoded (Eval)");
    }

    // Steady state (Eval-resident components): read in place — no
    // copy, no transform, just the pointwise dispatch.
    std::deque<ResiduePoly> owned;
    const std::vector<PairView> comps =
        evalPairs(ops_, cts, towers, owned, route);

    std::vector<const ResiduePoly *> as, bs;
    for (size_t i = 0; i < comps.size(); ++i) {
        for (const ResiduePoly *c : comps[i]) {
            as.push_back(c);
            bs.push_back(pts[i]);
        }
    }
    auto prods = ops_.mulEvalPairs(as, bs, towers, route);
    std::vector<std::array<ResiduePoly, 2>> out(cts.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = {std::move(prods[2 * i]), std::move(prods[2 * i + 1])};
    return out;
}

std::vector<std::array<ResiduePoly, 3>>
RlweEvaluator::tensorPair(const std::vector<PairView> &as,
                          const std::vector<PairView> &bs,
                          DispatchRoute *route) const
{
    rpu_assert(!as.empty() && as.size() == bs.size(),
               "tensor batch of %zu x %zu operands", as.size(),
               bs.size());
    const size_t towers = as[0][0]->towerCount();

    // Eval-resident pairs are read in place; Coeff-resident pairs
    // convert on copies, each side in one dispatch.
    std::deque<ResiduePoly> owned;
    const std::vector<PairView> pa =
        evalPairs(ops_, as, towers, owned, route);
    const std::vector<PairView> pb =
        evalPairs(ops_, bs, towers, owned, route);

    // Every item's four cross products in one pointwise dispatch,
    // folded into (c0, c1, c2) = (a0b0, a0b1 + a1b0, a1b1) with host
    // tower adds.
    std::vector<const ResiduePoly *> ls, rs;
    for (size_t i = 0; i < pa.size(); ++i) {
        for (size_t x = 0; x < 2; ++x) {
            for (size_t y = 0; y < 2; ++y) {
                ls.push_back(pa[i][x]);
                rs.push_back(pb[i][y]);
            }
        }
    }
    auto prods = ops_.mulEvalPairs(ls, rs, towers, route);
    std::vector<std::array<ResiduePoly, 3>> out(as.size());
    for (size_t i = 0; i < out.size(); ++i) {
        out[i] = {std::move(prods[4 * i]),
                  ops_.add(prods[4 * i + 1], prods[4 * i + 2]),
                  std::move(prods[4 * i + 3])};
    }
    return out;
}

std::vector<std::array<ResiduePoly, 2>>
RlweEvaluator::relinearise(std::vector<std::array<ResiduePoly, 3>> ds,
                           const std::vector<const RelinKey *> &rks,
                           DispatchRoute *route) const
{
    rpu_assert(!ds.empty() && ds.size() == rks.size(),
               "%zu degree-2 ciphertexts for %zu keys", ds.size(),
               rks.size());
    const size_t towers = ds[0][0].towerCount();
    std::vector<ResiduePoly *> c2s;
    uint64_t c2_eval_towers = 0;
    for (size_t i = 0; i < ds.size(); ++i) {
        const RelinKey &rk = *rks[i];
        rpu_assert(ds[i][0].towerCount() == towers &&
                       ds[i][1].towerCount() == towers &&
                       ds[i][2].towerCount() == towers,
                   "degree-2 components span different tower counts");
        rpu_assert(ds[i][0].inEval() && ds[i][1].inEval(),
                   "degree-1 components must be evaluation-resident");
        rpu_assert(rk.towerCount() >= towers,
                   "relin key covers %zu towers, ciphertext spans %zu",
                   rk.towerCount(), towers);
        for (size_t t = 0; t < towers; ++t) {
            rpu_assert(rk.k[t].size() ==
                           ops_.digitCount(t, rk.digitBits),
                       "relin key digit layout mismatch at tower %zu",
                       t);
        }
        if (ds[i][2].inEval())
            c2_eval_towers += towers;
        c2s.push_back(&ds[i][2]);
    }
    RpuDevice *ledger = ops_.ledger(route);

    // The c2s leave the evaluation domain — the key-switch's one
    // batched inverse pass. A scheme that already returned them in
    // Coeff (BFV's scale-and-round) makes this a recorded elision
    // instead.
    ops_.convert(c2s, ResidueDomain::Coeff, route);
    if (c2_eval_towers > 0 && ledger)
        ledger->noteKeySwitchTransforms(c2_eval_towers);

    // Digit split (host) and re-entry: every item's digit polynomials
    // back into the evaluation domain through one batched forward
    // dispatch — the digits * towers transforms the gadget
    // decomposition costs, annotated as key-switch plumbing.
    // Item i's digits are digits[first[i], first[i + 1]).
    std::vector<ResiduePoly> digits;
    std::vector<size_t> first = {0};
    for (size_t i = 0; i < ds.size(); ++i) {
        for (ResiduePoly &d :
             ops_.digitDecompose(ds[i][2], rks[i]->digitBits, towers))
            digits.push_back(std::move(d));
        first.push_back(digits.size());
    }
    std::vector<ResiduePoly *> views;
    views.reserve(digits.size());
    for (ResiduePoly &d : digits)
        views.push_back(&d);
    ops_.convert(views, ResidueDomain::Eval, route);
    if (ledger)
        ledger->noteKeySwitchTransforms(digits.size() * towers);

    // The inner product against the keys: 2 * totalDigits pairs per
    // item (digit .* k0, digit .* k1) through one pointwise dispatch,
    // each key read through its tower prefix without copying it down.
    std::vector<const ResiduePoly *> as, bs;
    as.reserve(2 * digits.size());
    bs.reserve(2 * digits.size());
    for (size_t i = 0; i < ds.size(); ++i) {
        const RelinKey &rk = *rks[i];
        size_t idx = first[i];
        for (size_t t = 0; t < towers; ++t) {
            for (size_t j = 0; j < rk.k[t].size(); ++j, ++idx) {
                as.push_back(&digits[idx]);
                bs.push_back(&rk.k[t][j][0]);
                as.push_back(&digits[idx]);
                bs.push_back(&rk.k[t][j][1]);
            }
        }
        rpu_assert(idx == first[i + 1], "digit/key layout mismatch");
    }
    auto prods = ops_.mulEvalPairs(as, bs, towers, route);

    std::vector<std::array<ResiduePoly, 2>> out(ds.size());
    for (size_t i = 0; i < ds.size(); ++i) {
        ResiduePoly r0 = std::move(ds[i][0]);
        ResiduePoly r1 = std::move(ds[i][1]);
        for (size_t d = first[i]; d < first[i + 1]; ++d) {
            r0 = ops_.add(r0, prods[2 * d]);
            r1 = ops_.add(r1, prods[2 * d + 1]);
        }
        out[i] = {std::move(r0), std::move(r1)};
    }
    return out;
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
    const std::vector<const ResiduePoly *> &polys, size_t t,
    DispatchRoute *route) const
{
    std::vector<std::vector<u128>> out(polys.size());
    for (const ResiduePoly *p : polys) {
        rpu_assert(p != nullptr && p->inEval() && t < p->towerCount(),
                   "inverseTower needs Eval operands with tower %zu",
                   t);
    }
    if (ops_.onDevice(route)) {
        // One single-tower item per polynomial, all in one dispatch.
        const std::vector<std::vector<u128>> moduli(
            polys.size(), {basis().prime(t)});
        TowerItems xs(polys.size());
        for (size_t c = 0; c < polys.size(); ++c)
            xs[c].push_back(polys[c]->towers[t]);
        auto results = ops_.dispatch(route, RingOp::Inverse, moduli,
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
