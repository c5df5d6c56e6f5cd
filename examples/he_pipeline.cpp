/**
 * @file
 * The paper's Fig. 1 pipeline, end to end: encrypted feature vectors
 * are RLWE-encrypted into two RNS-resident ciphertext polynomials and
 * computed on homomorphically on the RPU functional simulator through
 * the RpuDevice layer.
 *
 * Dot product (CKKS, approximate): a slot-wise weighted sum of two
 * encrypted feature vectors with plaintext weights — mulPlain +
 * mulPlain + add + rescale — then decrypt and check the slot values
 * against plaintext complex arithmetic. Ciphertexts live
 * evaluation-domain resident in the RNS towers from encryption
 * onward, so the chain issues only pointwise launches and the
 * rescale's dropped-tower inverse transforms — the stage fails if any
 * device forward NTT runs.
 *
 * Then ciphertext x ciphertext: two encrypted vectors multiplied
 * slot-wise and rescaled, through the evaluator's tensor +
 * gadget-relinearisation pipeline, printing the DeviceStats ledger
 * with the key-switch transforms annotated separately from workload
 * transforms. Last, the cycle model prices the two kernels the
 * pipeline runs on silicon.
 *
 * Build & run:   ./build/he_pipeline
 */

#include <cmath>
#include <complex>
#include <cstdio>
#include <memory>

#include "rlwe/ckks.hh"
#include "rpu/device.hh"
#include "rpu/runner.hh"

using namespace rpu;

int
main()
{
    // --- Scheme setup -------------------------------------------------
    CkksParams params;
    params.n = 4096;
    params.towers = 3;
    params.towerBits = 45;
    params.scale = 1099511627776.0; // 2^40
    CkksContext ctx(params);
    const CkksSecretKey sk = ctx.keygen();
    std::printf("CKKS scheme: n=%llu, q = chain of %zu x %u-bit NTT "
                "primes (|q| = %zu bits), scale 2^40, %zu complex "
                "slots\n",
                (unsigned long long)params.n, params.towers,
                params.towerBits, ctx.basis().qBits(), ctx.slots());

    // One RPU serves the whole pipeline: the homomorphic products and
    // the cycle-model kernels share its kernel and context caches.
    const auto device = std::make_shared<RpuDevice>();
    ctx.attachDevice(device);
    std::printf("RPU device attached (%s backend): ciphertexts are "
                "RNS-resident ResiduePoly towers, born in the "
                "evaluation domain\n",
                device->backend().name());

    // --- Weighted sum of two encrypted feature vectors ----------------
    // acc[j] = w1*x[j] + w2*y[j], slot-wise.
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
    std::printf("\ndot product done: 2 mulPlain + 1 add + 1 rescale -> "
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
    if (!mul_ok)
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

    // The device's cycle ledger folds exactly these costs into
    // DeviceStats at launch time.
    std::printf("dot-product cycle ledger: total=%llu cycles\n",
                (unsigned long long)stats.cycleTotal());
    return 0;
}
