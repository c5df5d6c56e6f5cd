/**
 * @file
 * The paper's Fig. 1 pipeline, end to end: a synthetic "image" is
 * vectorised, RLWE-encrypted into two RNS-resident ciphertext
 * polynomials, and computed on homomorphically on the RPU functional
 * simulator through the RpuDevice layer.
 *
 * Workload 1 (BFV, exact): brighten an encrypted image (homomorphic
 * add) and apply a 2x scaling (plaintext multiply), then decrypt and
 * check against the plaintext computation. Ciphertexts live
 * evaluation-domain resident in the RNS towers from encryption
 * onward, so the homomorphic chain issues only pointwise launches —
 * the stage fails if any device forward NTT runs.
 *
 * Workload 2 (CKKS, approximate): a slot-wise dot product of two
 * encrypted feature vectors with plaintext weights — mulPlain +
 * mulPlain + add + rescale, dispatched to the same shared RPU device
 * through the same scheme-generic evaluator — then decrypt and check
 * the slot values against plaintext complex arithmetic.
 *
 * Both workloads then go ciphertext x ciphertext: BFV computes an
 * encrypted dot product of the image against an encrypted weight
 * vector (the classic reversal trick — coefficient n-1 of u(x) *
 * rev(v)(x) is <u, v>, and i+j = n-1 never wraps the negacyclic
 * sign), CKKS multiplies two encrypted vectors slot-wise and
 * rescales. Each multiply routes through the evaluator's shared
 * tensor + gadget-relinearisation pipeline and prints the
 * DeviceStats ledger with the key-switch transforms annotated
 * separately from workload transforms.
 *
 * Build & run:   ./build/he_pipeline
 */

#include <cmath>
#include <complex>
#include <cstdio>
#include <memory>
#include <thread>

#include "rlwe/bfv.hh"
#include "rlwe/ckks.hh"
#include "rpu/device.hh"
#include "rpu/runner.hh"

using namespace rpu;

namespace {

/** CKKS stage: weighted sum of two encrypted feature vectors. */
int
ckksDotProductStage(const std::shared_ptr<RpuDevice> &device)
{
    CkksParams params;
    params.n = 4096;
    params.towers = 3;
    params.towerBits = 45;
    params.scale = 1099511627776.0; // 2^40
    CkksContext ctx(params);
    ctx.attachDevice(device);
    const CkksSecretKey sk = ctx.keygen();
    std::printf("\nCKKS scheme: n=%llu, chain of %zu x %u-bit towers, "
                "scale 2^40, %zu complex slots\n",
                (unsigned long long)params.n, params.towers,
                params.towerBits, ctx.slots());

    // Two encrypted feature vectors and their plaintext weights: the
    // slot-wise dot product acc[j] = w1*x[j] + w2*y[j].
    std::vector<std::complex<double>> x(ctx.slots()), y(ctx.slots());
    for (size_t j = 0; j < ctx.slots(); ++j) {
        x[j] = {std::sin(0.001 * double(j)), 0.25};
        y[j] = {0.5, std::cos(0.002 * double(j))};
    }
    const std::vector<std::complex<double>> w1(ctx.slots(),
                                               {0.75, -0.5});
    const std::vector<std::complex<double>> w2(ctx.slots(),
                                               {-0.25, 1.0});

    // Encode the weights once: their single forward transform happens
    // here, and the ciphertexts are evaluation-domain resident from
    // encryption — so the homomorphic chain below is pure pointwise
    // launches plus the rescale's dropped-tower inverse transforms.
    const CkksPlaintext w1p = ctx.encodePlain(w1);
    const CkksPlaintext w2p = ctx.encodePlain(w2);

    device->resetCounters();
    const CkksCiphertext acc = ctx.rescale(
        ctx.add(ctx.mulPlain(ctx.encrypt(sk, x), w1p),
                ctx.mulPlain(ctx.encrypt(sk, y), w2p)));
    const DeviceStats stats = device->stats();
    std::printf("dot product done: 2 mulPlain + 1 add + 1 rescale -> "
                "scale back to 2^%.1f, %zu towers left\n",
                std::log2(acc.scale), acc.towers());
    std::printf("RPU activity: %s\n", stats.summary().c_str());
    if (stats.forwardTransforms != 0) {
        std::printf("FAIL: eval-resident chain issued a forward NTT "
                    "launch\n");
        return 1;
    }

    const auto slots = ctx.decrypt(sk, acc);
    double worst = 0.0;
    for (size_t j = 0; j < ctx.slots(); ++j) {
        const std::complex<double> want = w1[j] * x[j] + w2[j] * y[j];
        worst = std::max(worst, std::abs(slots[j] - want));
    }
    const bool ok = worst < 9.5367431640625e-07; // 2^-20
    std::printf("decrypted slots vs plaintext arithmetic: max error "
                "%.3g -> %s\n",
                worst, ok ? "PASS" : "FAIL");
    if (!ok)
        return 1;

    // --- ct x ct: slot-wise product of two encrypted vectors ---------
    // The multiply step of a fully encrypted dot product (the final
    // slot-sum needs the rotation keys on the roadmap): tensor the
    // two fresh ciphertexts, gadget-relinearise back to degree 1,
    // rescale the doubled scale away. Every transform the key-switch
    // spends (c2's digit-split inverse, the digits' re-entry
    // forwards) is annotated in the ledger — the multiply itself
    // adds zero workload transforms.
    const RelinKey rk = ctx.makeRelinKey(sk);
    device->resetCounters();
    const CkksCiphertext prod =
        ctx.rescale(ctx.mulCt(ctx.encrypt(sk, x), ctx.encrypt(sk, y), rk));
    const DeviceStats mul_stats = device->stats();
    std::printf("\nct x ct slot product: mulCt (digit base 2^%u, %zu "
                "digits) + rescale -> scale 2^%.1f, %zu towers left\n",
                rk.digitBits, rk.totalDigits(params.towers),
                std::log2(prod.scale), prod.towers());
    std::printf("RPU activity: %s\n", mul_stats.summary().c_str());
    std::printf("  key-switch transforms: %llu of %llu issued "
                "(workload share: %llu)\n",
                (unsigned long long)mul_stats.keySwitchTransforms,
                (unsigned long long)mul_stats.transformsIssued(),
                (unsigned long long)mul_stats.workloadTransforms());

    const auto prod_slots = ctx.decrypt(sk, prod);
    double worst_prod = 0.0;
    for (size_t j = 0; j < ctx.slots(); ++j) {
        const std::complex<double> want = x[j] * y[j];
        worst_prod = std::max(worst_prod, std::abs(prod_slots[j] - want));
    }
    const bool mul_ok = worst_prod < 9.5367431640625e-07; // 2^-20
    std::printf("decrypted products vs plaintext arithmetic: max error "
                "%.3g -> %s\n",
                worst_prod, mul_ok ? "PASS" : "FAIL");
    return mul_ok ? 0 : 1;
}

} // namespace

int
main()
{
    // --- Scheme setup -------------------------------------------------
    RlweParams params;
    params.n = 4096;
    params.towers = 3;
    params.towerBits = 45;
    params.plaintextModulus = 65537;
    params.noiseBound = 4;
    BfvContext ctx(params);
    const SecretKey sk = ctx.keygen();
    std::printf("RLWE scheme: n=%llu, q = chain of %zu x %u-bit NTT "
                "primes (|q| = %zu bits), t=%llu\n",
                (unsigned long long)params.n, params.towers,
                params.towerBits, ctx.basis().qBits(),
                (unsigned long long)params.plaintextModulus);

    // One RPU serves the whole pipeline: the scheme's homomorphic
    // products and the workbench share its kernel and context caches.
    // With more than one host core, independent tower launches
    // overlap across the device's worker pool (results are
    // bit-identical to serial execution either way).
    const auto device = std::make_shared<RpuDevice>();
    const unsigned cores = std::thread::hardware_concurrency();
    device->setParallelism(cores > 1 ? cores : 1);
    ctx.attachDevice(device);
    std::printf("RPU device attached (%s backend, parallelism %u): "
                "ciphertexts are RNS-resident ResiduePoly towers, "
                "born in the evaluation domain\n",
                device->backend().name(), device->parallelism());

    // --- Fig. 1: image -> vector -> two ciphertext polynomials --------
    const unsigned side = 64; // 64x64 = 4096 pixels
    std::vector<uint64_t> image(params.n);
    for (unsigned y = 0; y < side; ++y) {
        for (unsigned x = 0; x < side; ++x) {
            // A deterministic gradient-with-texture test pattern.
            image[y * side + x] = (x * 3 + y * 5 + (x * y) % 7) % 256;
        }
    }
    const Ciphertext ct = ctx.encrypt(sk, image);
    std::printf("\nencrypted %ux%u image -> 2 residue polynomials of "
                "%zu x %llu coefficients (expansion ~%.0fx)\n",
                side, side, ctx.basis().towers(),
                (unsigned long long)params.n,
                2.0 * double(ctx.basis().qBits()) / 8.0);
    std::printf("fresh noise budget: %.1f bits\n",
                ctx.noiseBudgetBits(sk, ct, image));

    // --- Homomorphic brighten + 2x scaling, all Eval-resident ---------
    // The plaintext is encoded once (its only forward transform);
    // after that the whole chain is per-tower adds plus pointwise
    // launches — the device must issue zero forward NTTs.
    std::vector<uint64_t> two(params.n, 0);
    two[0] = 2;
    const BfvPlaintext two_pt = ctx.encodePlain(two);

    std::vector<uint64_t> bright(params.n, 50);
    const Ciphertext bright_ct = ctx.encrypt(sk, bright);

    device->resetCounters();
    const Ciphertext scaled =
        ctx.mulPlain(ctx.add(ct, bright_ct), two_pt);
    const DeviceStats bfv_stats = device->stats();
    std::printf("homomorphic ops done: 1 ciphertext add + 1 plaintext "
                "multiply\n");
    std::printf("RPU activity: %s\n", bfv_stats.summary().c_str());
    std::printf("  (the add is host tower arithmetic; the multiply is "
                "one pointwise launch for both\n   components against "
                "the pre-encoded plaintext — the Eval-resident towers "
                "were\n   never transformed, which the elision ledger "
                "records)\n");
    if (bfv_stats.forwardTransforms != 0) {
        std::printf("FAIL: eval-resident BFV chain issued a forward "
                    "NTT launch\n");
        return 1;
    }

    // --- Decrypt & check ----------------------------------------------
    const std::vector<uint64_t> result = ctx.decrypt(sk, scaled);
    size_t errors = 0;
    for (size_t i = 0; i < image.size(); ++i) {
        const uint64_t expected =
            (2 * (image[i] + 50)) % params.plaintextModulus;
        if (result[i] != expected)
            ++errors;
    }
    std::vector<uint64_t> expected_vec(params.n);
    for (size_t i = 0; i < image.size(); ++i)
        expected_vec[i] =
            (2 * (image[i] + 50)) % params.plaintextModulus;
    std::printf("remaining noise budget: %.1f bits\n",
                ctx.noiseBudgetBits(sk, scaled, expected_vec));
    std::printf("decrypted result: %zu / %zu pixels correct -> %s\n",
                image.size() - errors, image.size(),
                errors == 0 ? "PASS" : "FAIL");

    // --- ct x ct: encrypted dot product <image, weights> ---------------
    // Neither operand is public this time. Coefficient packing turns
    // the dot product into one polynomial multiply: with the weights
    // reversed into v'(x) (v'_j = v_{n-1-j}), coefficient n-1 of
    // u(x) * v'(x) is sum_i u_i * v_i — and since i + j = n-1 never
    // exceeds n-1, the negacyclic wrap's sign never touches it. The
    // multiply is the evaluator's shared pipeline: base-extend to
    // the tensor chain, tensor product, BFV's scale-and-round hook,
    // gadget relinearisation — with the key-switch transforms
    // annotated apart from the workload's own.
    const RelinKey rk = ctx.makeRelinKey(sk);
    std::vector<uint64_t> weights(params.n), weights_rev(params.n);
    for (size_t i = 0; i < weights.size(); ++i)
        weights[i] = (i % 7) + 1;
    for (size_t i = 0; i < weights.size(); ++i)
        weights_rev[i] = weights[weights.size() - 1 - i];
    const Ciphertext w_ct = ctx.encrypt(sk, weights_rev);

    device->resetCounters();
    const Ciphertext dot_ct = ctx.mulCt(ct, w_ct, rk);
    const DeviceStats mul_stats = device->stats();
    std::printf("\nct x ct dot product: 1 mulCt (digit base 2^%u, %zu "
                "digits over %zu towers)\n",
                rk.digitBits, rk.totalDigits(ctx.basis().towers()),
                ctx.basis().towers());
    std::printf("RPU activity: %s\n", mul_stats.summary().c_str());
    std::printf("  key-switch transforms: %llu of %llu issued "
                "(workload share %llu: the base\n   extension's aux-"
                "tower entries and the scale-and-round's chain "
                "re-entry)\n",
                (unsigned long long)mul_stats.keySwitchTransforms,
                (unsigned long long)mul_stats.transformsIssued(),
                (unsigned long long)mul_stats.workloadTransforms());

    uint64_t dot = 0;
    for (size_t i = 0; i < image.size(); ++i)
        dot = (dot + image[i] * weights[i]) % params.plaintextModulus;
    const std::vector<uint64_t> dot_dec = ctx.decrypt(sk, dot_ct);
    const bool dot_ok = dot_dec[params.n - 1] == dot;
    std::printf("decrypted coefficient n-1 = %llu, plaintext <image, "
                "weights> mod t = %llu -> %s\n",
                (unsigned long long)dot_dec[params.n - 1],
                (unsigned long long)dot, dot_ok ? "PASS" : "FAIL");
    if (!dot_ok)
        return 1;

    // --- What would this cost on silicon? ------------------------------
    // Cycle-model the two kernels the domain-resident pipeline
    // cares about: the batched all-towers NTT it pays at domain
    // boundaries and the batched pointwise product that is the whole
    // multiply once operands are evaluation-resident. Their runtime
    // ratio is the paper's motivation in one line.
    const std::vector<u128> tower_moduli = ctx.basis().primes();
    const size_t towers = tower_moduli.size();
    RpuConfig cfg;
    const KernelImage &bntt = device->kernel(
        KernelKind::BatchedForwardNtt, params.n, tower_moduli);
    const KernelMetrics m_ntt = evaluateProgram(
        bntt.program, bntt.vdmBytesRequired, cfg);
    const KernelImage &bpw = device->kernel(
        KernelKind::PointwiseMulBatched, params.n, tower_moduli);
    const KernelMetrics m_pw = evaluateProgram(
        bpw.program, bpw.vdmBytesRequired, cfg);
    std::printf("\non the (128,128) RPU, per batched %zu-tower "
                "launch:\n", towers);
    std::printf("  NTT pass:  %8llu cycles = %6.2f us @ %.2f GHz\n",
                (unsigned long long)m_ntt.cycle.cycles,
                m_ntt.runtimeUs, m_ntt.freqGhz);
    std::printf("  pointwise: %8llu cycles = %6.2f us (%.1f%% of an "
                "NTT pass)\n",
                (unsigned long long)m_pw.cycle.cycles, m_pw.runtimeUs,
                100.0 * m_pw.runtimeUs / m_ntt.runtimeUs);

    // The per-worker cycle ledger folds exactly these costs into
    // DeviceStats at launch time: per-lane totals plus the busiest
    // lane's makespan — the modelled wall-clock of a multi-RPU (or
    // multi-lane-group) system running this batch.
    std::printf("pipeline cycle ledger: total=%llu cycles, makespan="
                "%llu cycles (%.2fx concurrency) — per lane [",
                (unsigned long long)bfv_stats.cycleTotal(),
                (unsigned long long)bfv_stats.makespanCycles(),
                bfv_stats.makespanCycles() == 0
                    ? 0.0
                    : double(bfv_stats.cycleTotal()) /
                          double(bfv_stats.makespanCycles()));
    for (size_t i = 0; i < bfv_stats.perWorkerCycles.size(); ++i)
        std::printf("%s%llu", i == 0 ? "" : " ",
                    (unsigned long long)bfv_stats.perWorkerCycles[i]);
    std::printf("]\n");

    // --- CKKS: approximate arithmetic on the same device ---------------
    // The second scheme the RPU serves: complex slots instead of
    // exact mod-t coefficients, sharing this device's kernel and
    // context caches with the BFV stage above.
    const int ckks_rc = ckksDotProductStage(device);
    return errors == 0 && ckks_rc == 0 ? 0 : 1;
}
