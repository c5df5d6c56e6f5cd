/**
 * @file
 * Host reference for RpuDevice::dispatch. It shares no code with the
 * device (no kernel, kernel cache or backend): every tower of every
 * item runs through its own NttContext (Forward / Inverse) or
 * polyPointwise (Pointwise), so a dispatch checked against it is
 * checked against the golden model, not against another launch.
 */

#ifndef RPU_TESTS_HOST_REFERENCE_HH
#define RPU_TESTS_HOST_REFERENCE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "poly/ntt.hh"
#include "poly/polynomial.hh"
#include "rpu/device.hh"

namespace rpu {
namespace testutil {

/** result[i][t] = @p op over moduli[i][t] of a[i][t] (and b[i][t]). */
inline TowerItems
hostDispatch(RingOp op, uint64_t n,
             const std::vector<std::vector<u128>> &moduli, TowerItems a,
             const TowerItems &b = {})
{
    for (size_t i = 0; i < moduli.size(); ++i) {
        for (size_t t = 0; t < moduli[i].size(); ++t) {
            const Modulus mod(moduli[i][t]);
            std::vector<u128> &x = a[i][t];
            if (op == RingOp::Pointwise) {
                x = polyPointwise(mod, x, b[i][t]);
                continue;
            }
            const TwiddleTable tw(mod, n);
            const NttContext ntt(tw);
            if (op == RingOp::Inverse)
                ntt.inverse(x);
            else
                ntt.forward(x);
        }
    }
    return a;
}

} // namespace testutil
} // namespace rpu

#endif // RPU_TESTS_HOST_REFERENCE_HH
