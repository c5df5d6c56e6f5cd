#include "rlwe/residue_poly.hh"

#include "common/logging.hh"
#include "modmath/simd.hh"
#include "poly/polynomial.hh"
#include "rpu/topology.hh"

namespace rpu {

ResiduePoly
ResiduePoly::prefix(size_t count) const
{
    rpu_assert(count >= 1 && count <= towers.size(),
               "prefix %zu out of range [1, %zu]", count, towers.size());
    return ResiduePoly(domain,
                       std::vector<std::vector<u128>>(
                           towers.begin(),
                           towers.begin() + ptrdiff_t(count)));
}

const RnsBasis &
ResidueOps::basis() const
{
    rpu_assert(basis_ != nullptr, "ResidueOps has no basis bound");
    return *basis_;
}

std::vector<u128>
ResidueOps::prefixPrimes(size_t towers) const
{
    rpu_assert(towers >= 1 && towers <= basis().towers(),
               "tower count %zu out of range [1, %zu]", towers,
               basis().towers());
    std::vector<u128> primes(towers);
    for (size_t t = 0; t < towers; ++t)
        primes[t] = basis().prime(t);
    return primes;
}

void
ResidueOps::hostTransform(std::vector<u128> &tower, size_t t,
                          ResidueDomain target) const
{
    rpu_assert(t < host_ntts_.size() && host_ntts_[t] != nullptr,
               "no host transform for tower %zu", t);
    if (target == ResidueDomain::Eval)
        host_ntts_[t]->forward(tower);
    else
        host_ntts_[t]->inverse(tower);
}

RpuDevice *
ResidueOps::ledger(const DispatchRoute *route) const
{
    return route ? &route->home() : device_.get();
}

TowerItems
ResidueOps::dispatch(DispatchRoute *route, RingOp op,
                     const std::vector<std::vector<u128>> &moduli,
                     TowerItems a, TowerItems b) const
{
    if (route)
        return route->dispatch(op, n_, moduli, std::move(a), std::move(b));
    rpu_assert(device_ != nullptr, "no device to dispatch on");
    return device_->dispatch(op, n_, moduli, std::move(a), std::move(b));
}

void
ResidueOps::convert(const std::vector<ResiduePoly *> &polys,
                    ResidueDomain target, DispatchRoute *route) const
{
    // Split residents from movers. The residents are the lazy win:
    // each would have been transformed by a domain-oblivious caller,
    // so their towers land in the elision ledger.
    std::vector<ResiduePoly *> movers;
    uint64_t elided = 0;
    for (ResiduePoly *p : polys) {
        rpu_assert(p != nullptr, "null polynomial");
        rpu_assert(p->towerCount() >= 1 &&
                       p->towerCount() <= basis().towers(),
                   "polynomial spans %zu towers, basis has %zu",
                   p->towerCount(), basis().towers());
        if (p->domain == target)
            elided += p->towerCount();
        else
            movers.push_back(p);
    }
    if (elided > 0)
        noteElidedConversions(elided, route);
    if (movers.empty())
        return;

    if (onDevice(route)) {
        // Every mover, whatever its tower count, in one tiled
        // dispatch.
        std::vector<std::vector<u128>> moduli;
        TowerItems xs;
        moduli.reserve(movers.size());
        xs.reserve(movers.size());
        for (ResiduePoly *p : movers) {
            moduli.push_back(prefixPrimes(p->towerCount()));
            xs.push_back(std::move(p->towers));
        }
        auto out = dispatch(route,
                            target == ResidueDomain::Coeff
                                ? RingOp::Inverse
                                : RingOp::Forward,
                            moduli, std::move(xs));
        for (size_t i = 0; i < movers.size(); ++i)
            movers[i]->towers = std::move(out[i]);
    } else {
        for (ResiduePoly *p : movers) {
            for (size_t t = 0; t < p->towerCount(); ++t)
                hostTransform(p->towers[t], t, target);
        }
    }
    for (ResiduePoly *p : movers)
        p->domain = target;
}

void
ResidueOps::noteElidedConversions(uint64_t towers,
                                  const DispatchRoute *route) const
{
    if (RpuDevice *dev = ledger(route))
        dev->noteElidedTransforms(towers);
}

std::vector<ResiduePoly>
ResidueOps::mulEvalPairs(const std::vector<const ResiduePoly *> &as,
                         const std::vector<const ResiduePoly *> &bs,
                         size_t towers, DispatchRoute *route) const
{
    rpu_assert(!as.empty() && as.size() == bs.size(),
               "pair operand count mismatch: %zu vs %zu", as.size(),
               bs.size());
    if (towers == 0)
        towers = as[0]->towerCount();
    for (size_t i = 0; i < as.size(); ++i) {
        rpu_assert(as[i] != nullptr && bs[i] != nullptr,
                   "null operand in pair %zu", i);
        rpu_assert(as[i]->inEval() && bs[i]->inEval(),
                   "pair %zu operands must be evaluation-resident", i);
        rpu_assert(as[i]->towerCount() >= towers &&
                       bs[i]->towerCount() >= towers,
                   "pair %zu spans too few towers", i);
    }

    if (!onDevice(route)) {
        std::vector<ResiduePoly> out(as.size());
        std::vector<uint64_t> na, nb, no;
        for (size_t i = 0; i < as.size(); ++i) {
            out[i].domain = ResidueDomain::Eval;
            out[i].towers.resize(towers);
            for (size_t t = 0; t < towers; ++t) {
                const Modulus &mod = basis().modulus(t);
                const simd::NarrowModulus *nm =
                    simd::narrowLanesActive() ? mod.narrow() : nullptr;
                const std::vector<u128> &at = as[i]->towers[t];
                const std::vector<u128> &bt = bs[i]->towers[t];
                if (!nm) {
                    out[i].towers[t] = polyPointwise(mod, at, bt);
                    continue;
                }
                na.resize(at.size());
                nb.resize(at.size());
                no.resize(at.size());
                for (size_t j = 0; j < at.size(); ++j) {
                    na[j] = uint64_t(at[j]);
                    nb[j] = uint64_t(bt[j]);
                }
                simd::mulModSpan(na.data(), nb.data(), no.data(),
                                 at.size(), *nm);
                std::vector<u128> r(at.size());
                for (size_t j = 0; j < at.size(); ++j)
                    r[j] = no[j];
                out[i].towers[t] = std::move(r);
            }
        }
        return out;
    }

    // Every pair through one tiled dispatch; operands are copied in
    // because the launches consume their inputs.
    TowerItems lhs, rhs;
    lhs.reserve(as.size());
    rhs.reserve(as.size());
    for (size_t i = 0; i < as.size(); ++i) {
        lhs.emplace_back(as[i]->towers.begin(),
                         as[i]->towers.begin() + ptrdiff_t(towers));
        rhs.emplace_back(bs[i]->towers.begin(),
                         bs[i]->towers.begin() + ptrdiff_t(towers));
    }
    const std::vector<std::vector<u128>> moduli(as.size(),
                                                prefixPrimes(towers));
    auto prods = dispatch(route, RingOp::Pointwise, moduli,
                          std::move(lhs), std::move(rhs));
    std::vector<ResiduePoly> out;
    out.reserve(prods.size());
    for (auto &towers_i : prods)
        out.emplace_back(ResidueDomain::Eval, std::move(towers_i));
    return out;
}

size_t
ResidueOps::digitCount(size_t t, unsigned digitBits) const
{
    rpu_assert(digitBits >= 1 && digitBits < 62,
               "digit base 2^%u out of range", digitBits);
    const u128 q = basis().prime(t);
    size_t bits = 0;
    for (u128 v = q; v != 0; v >>= 1)
        ++bits;
    return (bits + digitBits - 1) / digitBits;
}

std::vector<ResiduePoly>
ResidueOps::digitDecompose(const ResiduePoly &p, unsigned digitBits,
                           size_t towers) const
{
    rpu_assert(!p.inEval(),
               "gadget decomposition splits coefficient residues");
    rpu_assert(towers >= 1 && p.towerCount() >= towers,
               "polynomial spans %zu towers, need %zu", p.towerCount(),
               towers);
    const u128 base = u128(1) << digitBits;
    for (size_t t = 0; t < towers; ++t) {
        rpu_assert(base < basis().prime(t),
                   "digit base 2^%u not below tower %zu's prime",
                   digitBits, t);
    }

    std::vector<ResiduePoly> digits;
    const u128 mask = base - 1;
    for (size_t t = 0; t < towers; ++t) {
        const size_t dcount = digitCount(t, digitBits);
        const std::vector<u128> &src = p.towers[t];
        for (size_t j = 0; j < dcount; ++j) {
            std::vector<u128> d(src.size());
            for (size_t i = 0; i < src.size(); ++i)
                d[i] = (src[i] >> (j * digitBits)) & mask;
            // The digit values are below every chain prime, so the
            // digit polynomial's residues are identical in every
            // tower it spans.
            ResiduePoly rp;
            rp.domain = ResidueDomain::Coeff;
            rp.towers.reserve(towers);
            for (size_t u = 0; u + 1 < towers; ++u)
                rp.towers.push_back(d);
            rp.towers.push_back(std::move(d));
            digits.push_back(std::move(rp));
        }
    }
    return digits;
}

ResiduePoly
ResidueOps::add(const ResiduePoly &a, const ResiduePoly &b) const
{
    rpu_assert(a.domain == b.domain,
               "domain mismatch: addition needs both operands in the "
               "same representation");
    rpu_assert(a.towerCount() == b.towerCount(), "tower count mismatch");
    ResiduePoly out;
    out.domain = a.domain;
    out.towers.reserve(a.towerCount());
    for (size_t t = 0; t < a.towerCount(); ++t) {
        out.towers.push_back(
            polyAdd(basis().modulus(t), a.towers[t], b.towers[t]));
    }
    return out;
}

} // namespace rpu
