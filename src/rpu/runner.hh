/**
 * @file
 * End-to-end NTT workbench: the "host side" of the RPU, now a thin
 * façade over RpuDevice.
 *
 * Owns the ring (modulus + twiddle tables), generates B512 kernels
 * (one-tower batched kernels: a single ring is the batch of one),
 * launches them through the device layer (which stages host data into
 * the scratchpads and runs the configured execution backend), verifies
 * outputs against the reference NTT, and evaluates design points with
 * the cycle simulator and analytical models. Several runners can share
 * one RpuDevice to pool its kernel and Montgomery-context caches.
 */

#ifndef RPU_RPU_RUNNER_HH
#define RPU_RPU_RUNNER_HH

#include <memory>
#include <vector>

#include "codegen/ntt_codegen.hh"
#include "poly/polynomial.hh"
#include "rpu/device.hh"
#include "rpu/metrics.hh"

namespace rpu {

/** Cycle-simulate any program at a design point and apply the models. */
KernelMetrics evaluateProgram(const Program &program,
                              size_t vdm_bytes_required,
                              const RpuConfig &cfg);

/** Workbench for one ring (n, q). */
class NttRunner
{
  public:
    /**
     * Build the ring: finds the largest @p q_bits-bit NTT prime for
     * dimension @p n and precomputes twiddle tables. Launches run on
     * @p device (a fresh functional-simulator device when null).
     */
    explicit NttRunner(uint64_t n, unsigned q_bits = 128,
                       std::shared_ptr<RpuDevice> device = nullptr);

    /**
     * Build the ring over an explicit NTT-friendly prime (e.g. to
     * share a modulus with an RLWE context).
     */
    static NttRunner withModulus(uint64_t n, u128 modulus,
                                 std::shared_ptr<RpuDevice> device =
                                     nullptr);

    uint64_t n() const { return n_; }
    const Modulus &modulus() const { return *mod_; }
    const TwiddleTable &table() const { return *tw_; }
    const NttContext &reference() const { return *ref_; }

    /** The device this runner launches through. */
    RpuDevice &device() const { return *device_; }
    std::shared_ptr<RpuDevice> deviceHandle() const { return device_; }

    /**
     * Generate the ring's transform: a one-tower batched NTT kernel,
     * forward or inverse per @p opts (see NttCodegenOptions).
     */
    NttKernel makeKernel(const NttCodegenOptions &opts = {}) const;

    /**
     * Launch a transform kernel on the device: stage @p input at its
     * one tower's region, execute, and return that region.
     */
    std::vector<u128> execute(const NttKernel &kernel,
                              const std::vector<u128> &input) const;

    /**
     * Check a transform kernel end-to-end against the reference
     * transform of the direction its kind names, on a deterministic
     * random input. Returns true on bit-exact match.
     */
    bool verify(const NttKernel &kernel, uint64_t seed = 42) const;

    /** Cycle-simulate a kernel at a design point and apply the models. */
    KernelMetrics evaluate(const NttKernel &kernel,
                           const RpuConfig &cfg) const;

    // -- Fused polynomial multiplication --------------------------------

    /** A one-tower BatchedPolyMul kernel over the runner's ring. */
    KernelImage
    makePolyMulKernel(const NttCodegenOptions &opts = {}) const;

    /** Full negacyclic product of @p a and @p b in one kernel launch. */
    std::vector<u128> executePolyMul(const KernelImage &kernel,
                                     const std::vector<u128> &a,
                                     const std::vector<u128> &b) const;

    /** Check the fused kernel against the naive negacyclic product. */
    bool verifyPolyMul(const KernelImage &kernel,
                       uint64_t seed = 42) const;

    /** Timing/area/energy for a fused kernel. */
    KernelMetrics evaluateProgram(const Program &program,
                                  size_t vdm_bytes_required,
                                  const RpuConfig &cfg) const;

  private:
    NttRunner() = default;

    uint64_t n_ = 0;
    std::unique_ptr<Modulus> mod_;
    std::unique_ptr<TwiddleTable> tw_;
    std::unique_ptr<NttContext> ref_;
    std::shared_ptr<RpuDevice> device_;
};

} // namespace rpu

#endif // RPU_RPU_RUNNER_HH
