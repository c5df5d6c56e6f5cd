/**
 * @file
 * Host modmath throughput: the vectorised narrow kernels vs the u128
 * scalar reference, for the three hot shapes the SIMD backend covers
 * (negacyclic NTT butterfly passes, Montgomery pointwise products,
 * and Shoup scalar-times-span products).
 *
 * Each shape is timed through its public entry point (NttContext /
 * polyPointwise / polyScale) so the numbers include the narrowing and
 * widening the real callers pay, not just the inner loop. The A/B
 * uses setHostSimdMode(), the same in-process switch the bit-identity
 * tests use; before any timing, both modes are run on the same input
 * and the outputs asserted bit-identical — the binary exits 1 on any
 * divergence or on a speedup below the 1.5x gate, which CI treats as
 * a job failure.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "modmath/primegen.hh"
#include "modmath/simd.hh"
#include "poly/ntt.hh"
#include "poly/polynomial.hh"

namespace rpu {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
fail(const char *what)
{
    std::fprintf(stderr, "FAIL: %s\n", what);
    std::exit(1);
}

/** Minimum wall clock per measurement, so ratios are not noise. */
constexpr double kMinSeconds = 0.15;

/** The gate every (shape, n) cell must clear. */
constexpr double kSpeedupGate = 1.5;

struct Shape
{
    uint64_t n;
    Modulus mod;
    TwiddleTable tw;
    NttContext ctx;
    std::vector<u128> a;
    std::vector<u128> b;
    u128 s;

    Shape(uint64_t n_, unsigned bits, Rng &rng)
        : n(n_), mod(nttPrime(bits, n_)), tw(mod, n_), ctx(tw),
          a(randomPoly(mod, n_, rng)), b(randomPoly(mod, n_, rng)),
          s(rng.below128(mod.value()))
    {
    }
};

/**
 * Elements/second for one kernel shape under the current host-SIMD
 * mode. The op callback processes one polynomial's worth (n
 * elements) per call.
 */
template <typename Op>
double
elementsPerSecond(uint64_t n, Op &&op)
{
    op(); // warm-up (page in tables, settle dispatch)
    const auto t0 = Clock::now();
    uint64_t done = 0;
    do {
        for (int r = 0; r < 8; ++r)
            op();
        done += 8;
    } while (secondsSince(t0) < kMinSeconds);
    return double(done) * double(n) / secondsSince(t0);
}

double
measure(const Shape &sh, int shape_kind, simd::HostSimdMode mode)
{
    simd::setHostSimdMode(mode);
    double eps = 0.0;
    switch (shape_kind) {
      case 0: { // forward+inverse transform round trip
        std::vector<u128> x = sh.a;
        eps = elementsPerSecond(2 * sh.n, [&] {
            sh.ctx.forward(x);
            sh.ctx.inverse(x);
        });
        break;
      }
      case 1: // Montgomery pointwise product
        eps = elementsPerSecond(
            sh.n, [&] { (void)polyPointwise(sh.mod, sh.a, sh.b); });
        break;
      case 2: // Shoup scalar-times-span product
        eps = elementsPerSecond(
            sh.n, [&] { (void)polyScale(sh.mod, sh.s, sh.a); });
        break;
    }
    simd::setHostSimdMode(simd::HostSimdMode::Native);
    return eps;
}

/** Run one shape under both modes and demand identical outputs. */
void
checkBitIdentity(const Shape &sh)
{
    simd::setHostSimdMode(simd::HostSimdMode::Scalar);
    std::vector<u128> ntt_s = sh.a;
    sh.ctx.forward(ntt_s);
    std::vector<u128> rt_s = ntt_s;
    sh.ctx.inverse(rt_s);
    const std::vector<u128> pw_s = polyPointwise(sh.mod, sh.a, sh.b);
    const std::vector<u128> sc_s = polyScale(sh.mod, sh.s, sh.a);

    simd::setHostSimdMode(simd::HostSimdMode::Native);
    std::vector<u128> ntt_v = sh.a;
    sh.ctx.forward(ntt_v);
    std::vector<u128> rt_v = ntt_v;
    sh.ctx.inverse(rt_v);
    const std::vector<u128> pw_v = polyPointwise(sh.mod, sh.a, sh.b);
    const std::vector<u128> sc_v = polyScale(sh.mod, sh.s, sh.a);

    if (ntt_s != ntt_v)
        fail("forward NTT diverges between scalar and native modes");
    if (rt_s != rt_v || rt_s != sh.a)
        fail("inverse NTT diverges or round trip is not the identity");
    if (pw_s != pw_v)
        fail("pointwise product diverges between modes");
    if (sc_s != sc_v)
        fail("scalar-span product diverges between modes");
}

} // namespace
} // namespace rpu

int
main()
{
    using namespace rpu;

    const std::vector<uint64_t> sizes = {1024, 2048, 4096, 8192, 16384};
    const unsigned bits = 45; // the schemes' default tower width
    static const char *const shape_names[] = {"ntt-roundtrip",
                                              "pointwise", "scale"};

    bench::header("host modmath throughput: scalar u128 vs SIMD");
    std::printf("kernel ISA = %s, mode at startup = %s, 45-bit NTT "
                "primes, host cores = %u\n",
                simd::hostSimdIsa(), simd::hostSimdModeName(),
                std::thread::hardware_concurrency());

    Rng rng(20230417);
    std::vector<Shape> shapes;
    shapes.reserve(sizes.size());
    for (uint64_t n : sizes)
        shapes.emplace_back(n, bits, rng);

    for (const Shape &sh : shapes)
        checkBitIdentity(sh);

    std::printf("\nelements/s (Melem/s), scalar reference vs native "
                "kernels\n");
    std::printf("%14s  %8s  %12s  %12s  %10s\n", "shape", "n",
                "scalar", "native", "speedup");
    bench::rule('-', 64);
    double worst = 1e300;
    for (int kind = 0; kind < 3; ++kind) {
        for (const Shape &sh : shapes) {
            const double scalar =
                measure(sh, kind, simd::HostSimdMode::Scalar);
            const double native =
                measure(sh, kind, simd::HostSimdMode::Native);
            const double speedup = native / scalar;
            if (speedup < worst)
                worst = speedup;
            std::printf("%14s  %8llu  %12.2f  %12.2f  %9.2fx\n",
                        shape_names[kind],
                        (unsigned long long)sh.n, scalar / 1e6,
                        native / 1e6, speedup);
            // Hard gate, not just a report: each side is measured
            // over >= 0.15 s of wall clock, and the narrow kernels
            // replace the exact u128 Modulus arithmetic with
            // word-sized arithmetic. The pointwise cells are the
            // tightest: on a 4-core AVX2 Xeon their worst read
            // 1.9-2.2x with the AVX2 kernels and 2.6-2.7x with the
            // scalar u64 fallback, so the margin over the gate is
            // about 25%, not a wide one. NEON is unmeasured.
            if (speedup < kSpeedupGate)
                fail("SIMD speedup fell below the 1.5x gate");
        }
    }

    std::printf("\nPASS: scalar and native modes bit-identical on all "
                "shapes, every (shape, n) cell >= %.1fx "
                "(worst %.2fx, ISA %s)\n",
                kSpeedupGate, worst, simd::hostSimdIsa());
    return 0;
}
