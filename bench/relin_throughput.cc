/**
 * @file
 * Ciphertext x ciphertext multiply with gadget-decomposed
 * relinearisation: phase-split transform ledger and chains/s.
 *
 * The multiply is one shared RlweEvaluator pipeline — tensor product
 * as pure pointwise launches, gadget digit split of c2, batched
 * re-entry forward NTTs, pointwise inner product against the key —
 * and every launch is attributed: the table below splits one
 * multiply's device work into its three phases and asserts the
 * decomposition phase costs exactly what the gadget arithmetic
 * predicts, one batched inverse pass (L tower transforms) plus
 * digits * towers forward re-entry NTTs, all annotated as
 * key-switch transforms so the workload transform count of the
 * whole multiply stays zero.
 *
 * Results are workload-true (every launch runs the full functional
 * simulation of a generated B512 program). Before any number is
 * reported, every workload's host multiply is decrypted and checked
 * against the plaintext slot products, and every device multiply is
 * asserted bit-identical to it; the binary exits 1 on any divergence,
 * which CI treats as a job failure.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.hh"
#include "modmath/simd.hh"
#include "rlwe/ckks.hh"
#include "rpu/device.hh"

namespace rpu {
namespace {

using bench::fail;
using bench::secondsSince;

using Clock = std::chrono::steady_clock;
using Cplx = std::complex<double>;

bool
identical(const CkksCiphertext &a, const CkksCiphertext &b)
{
    return a.c0 == b.c0 && a.c1 == b.c1;
}

/** A CKKS multiply workload at one chain length. */
struct Workload
{
    std::unique_ptr<CkksContext> ctx;
    RelinKey rk;
    CkksCiphertext ct_a;
    CkksCiphertext ct_b;
    CkksCiphertext expected; ///< host golden multiply result
};

Workload
makeWorkload(size_t towers, unsigned digitBits)
{
    CkksParams params;
    params.n = 1024;
    params.towers = towers;
    params.towerBits = 45;
    params.scale = 1099511627776.0; // 2^40
    params.noiseBound = 4;

    Workload w;
    w.ctx = std::make_unique<CkksContext>(params, towers * 31 + 7);
    const CkksSecretKey sk = w.ctx->keygen();
    w.rk = w.ctx->makeRelinKey(sk, digitBits);

    Rng rng(uint64_t(towers) * 911 + digitBits);
    std::vector<Cplx> x(w.ctx->slots()), y(w.ctx->slots());
    for (size_t i = 0; i < x.size(); ++i) {
        x[i] = {double(rng.below64(2000)) / 1000.0 - 1.0,
                double(rng.below64(2000)) / 1000.0 - 1.0};
        y[i] = {double(rng.below64(2000)) / 1000.0 - 1.0,
                double(rng.below64(2000)) / 1000.0 - 1.0};
    }
    w.ct_a = w.ctx->encrypt(sk, x);
    w.ct_b = w.ctx->encrypt(sk, y);
    // Golden multiply on the host path; the slots must match the
    // plaintext products within CKKS precision.
    w.expected = w.ctx->mulCt(w.ct_a, w.ct_b, w.rk);
    const auto got = w.ctx->decrypt(sk, w.expected);
    for (size_t i = 0; i < x.size(); ++i) {
        const Cplx want = x[i] * y[i];
        if (std::abs(got[i] - want) >
            std::ldexp(1.0, -20) * std::max(1.0, std::abs(want)))
            fail("CKKS multiply slots diverge from plaintext products");
    }
    return w;
}

/**
 * The phase-split transform ledger of one multiply on the device:
 * tensor product, then the relinearisation measured as one
 * call and attributed to its digit-decomposition (transforms) and
 * inner-product (pointwise) halves. Asserts every count against the
 * gadget arithmetic's prediction.
 */
void
phaseTable(const std::shared_ptr<RpuDevice> &device, Workload &w)
{
    const size_t L = w.ct_a.towers();
    const uint64_t digits = w.rk.totalDigits(L);
    const RlweEvaluator &ev = w.ctx->evaluator();

    // Tensor phase: four cross products, operand conversions elided.
    device->resetCounters();
    auto d = ev.tensorPair({{&w.ct_a.c0, &w.ct_a.c1}},
                           {{&w.ct_b.c0, &w.ct_b.c1}});
    const DeviceStats tensor = device->stats();

    // Relinearisation: digit split + re-entry + inner product.
    device->resetCounters();
    auto out = ev.relinearise(std::move(d), {&w.rk});
    const DeviceStats relin = device->stats();
    if (!identical({std::move(out[0][0]), std::move(out[0][1]), 1.0},
                   w.expected))
        fail("phase-split multiply diverges from the golden result");

    const auto row = [&](const char *phase, const DeviceStats &s,
                         uint64_t pointwise) {
        std::printf("%8zu  %8llu  %14s  %8llu  %8llu  %10llu  %10llu  "
                    "%8llu\n",
                    L, (unsigned long long)digits, phase,
                    (unsigned long long)s.forwardTransforms,
                    (unsigned long long)s.inverseTransforms,
                    (unsigned long long)pointwise,
                    (unsigned long long)s.keySwitchTransforms,
                    (unsigned long long)s.transformsElided);
    };
    row("tensor", tensor, tensor.pointwiseMuls);
    // The two relinearisation halves share one stats window: the
    // transforms all belong to the digit decomposition, the
    // pointwise launches all to the key inner product.
    DeviceStats decomp = relin;
    decomp.transformsElided = 0;
    row("decomposition", decomp, 0);
    DeviceStats inner;
    row("inner-product", inner, relin.pointwiseMuls);

    // The predicted ledger, asserted. Tensor: 4 pointwise tower
    // products per tower, all 4 operand conversions elided, zero
    // transforms issued.
    if (tensor.transformsIssued() != 0)
        fail("tensor product issued a device NTT");
    if (tensor.pointwiseMuls != 4 * L || tensor.transformsElided != 4 * L)
        fail("tensor pointwise/elision counts off prediction");
    // Decomposition: exactly 1 batched inverse pass (L tower
    // transforms) to split c2, digits * towers forward re-entry
    // NTTs, every one annotated as key-switch plumbing.
    if (relin.inverseTransforms != L)
        fail("digit split should cost exactly 1 inverse pass");
    if (relin.forwardTransforms != digits * L)
        fail("re-entry should cost digits * towers forward NTTs");
    if (relin.keySwitchTransforms != (digits + 1) * L)
        fail("key-switch annotation misses transforms");
    if (relin.workloadTransforms() != 0)
        fail("relinearisation leaked transforms into the workload count");
    // Inner product: 2 * digits pointwise pairs, each over L towers.
    if (relin.pointwiseMuls != 2 * digits * L)
        fail("key inner product launch count off prediction");
}

/** Multiplies/second; every warm-up is checked against the golden. */
double
throughput(const Workload &w, int reps, double min_seconds)
{
    if (!identical(w.ctx->mulCt(w.ct_a, w.ct_b, w.rk), w.expected))
        fail("multiply diverges from the golden result");
    const auto t0 = Clock::now();
    int done = 0;
    do {
        for (int r = 0; r < reps; ++r)
            w.ctx->mulCt(w.ct_a, w.ct_b, w.rk);
        done += reps;
    } while (secondsSince(t0) < min_seconds);
    return done / secondsSince(t0);
}

} // namespace
} // namespace rpu

int
main()
{
    using namespace rpu;

    const int reps = 2;
    const std::vector<size_t> tower_counts = {2, 3, 4};

    bench::header("ct x ct multiply: gadget-decomposed relinearisation");
    std::printf("CKKS, n = 1024, 45-bit towers, scale = 2^40, digit "
                "base 2^16 unless swept;\nhost SIMD = %s (%s)\n",
                simd::hostSimdModeName(), simd::hostSimdIsa());

    const auto device = std::make_shared<RpuDevice>();

    // -- Phase-split transform ledger ---------------------------------
    std::printf("\nper-multiply device work by phase (digit base "
                "2^16)\n");
    std::printf("%8s  %8s  %14s  %8s  %8s  %10s  %10s  %8s\n", "towers",
                "digits", "phase", "ntt-fwd", "ntt-inv", "pointwise",
                "key-switch", "elided");
    bench::rule('-', 88);
    for (size_t towers : tower_counts) {
        Workload w = makeWorkload(towers, 16);
        w.ctx->attachDevice(device);
        phaseTable(device, w);
    }
    std::printf("(decomposition must cost exactly 1 inverse pass + "
                "digits x towers forward\n re-entry NTTs, all "
                "annotated key-switch: workload transforms stay 0)\n");

    // -- Digit-base sweep: ledger cost vs chains/s --------------------
    std::printf("\ndigit-base sweep at L = 3\n");
    std::printf("%10s  %8s  %12s  %12s  %12s\n", "digit base", "digits",
                "ks-transforms", "pointwise", "mults/s");
    bench::rule('-', 62);
    for (unsigned digitBits : {30u, 16u, 10u}) {
        Workload w = makeWorkload(3, digitBits);
        w.ctx->attachDevice(device);
        const size_t L = w.ct_a.towers();
        device->resetCounters();
        if (!identical(w.ctx->mulCt(w.ct_a, w.ct_b, w.rk), w.expected))
            fail("swept multiply diverges from the golden result");
        const DeviceStats s = device->stats();
        const double mults = throughput(w, reps, 0.25);
        std::printf("      2^%-2u  %8llu  %12llu  %12llu  %12.2f\n",
                    digitBits,
                    (unsigned long long)w.rk.totalDigits(L),
                    (unsigned long long)s.keySwitchTransforms,
                    (unsigned long long)s.pointwiseMuls, mults);
    }

    std::printf("\nPASS: decomposition transform count matches the "
                "predicted 1 inverse + digits x towers\nforward NTTs "
                "per relinearisation, key-switch fully annotated "
                "(workload transforms 0),\nCKKS products match the "
                "plaintext slot products, and host/device runs\n"
                "bit-identical\n");
    return 0;
}
