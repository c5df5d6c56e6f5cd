#include "rpu/runner.hh"

#include "common/logging.hh"
#include "modmath/primegen.hh"
#include "sim/cycle/simulator.hh"

namespace rpu {

NttRunner::NttRunner(uint64_t n, unsigned q_bits,
                     std::shared_ptr<RpuDevice> device)
    : n_(n), device_(device ? std::move(device)
                            : std::make_shared<RpuDevice>())
{
    mod_ = std::make_unique<Modulus>(nttPrime(q_bits, n));
    tw_ = std::make_unique<TwiddleTable>(*mod_, n);
    ref_ = std::make_unique<NttContext>(*tw_);
}

NttRunner
NttRunner::withModulus(uint64_t n, u128 modulus,
                       std::shared_ptr<RpuDevice> device)
{
    NttRunner runner;
    runner.n_ = n;
    runner.device_ = device ? std::move(device)
                            : std::make_shared<RpuDevice>();
    runner.mod_ = std::make_unique<Modulus>(modulus);
    runner.tw_ = std::make_unique<TwiddleTable>(*runner.mod_, n);
    runner.ref_ = std::make_unique<NttContext>(*runner.tw_);
    return runner;
}

NttKernel
NttRunner::makeKernel(const NttCodegenOptions &opts) const
{
    return generateBatchedNtt({tw_.get()}, opts);
}

std::vector<u128>
NttRunner::execute(const NttKernel &kernel,
                   const std::vector<u128> &input) const
{
    rpu_assert(input.size() == n_, "input size mismatch");
    return device_->launch(kernel, {input})[0];
}

bool
NttRunner::verify(const NttKernel &kernel, uint64_t seed) const
{
    Rng rng(seed);
    const std::vector<u128> input = randomPoly(*mod_, n_, rng);

    std::vector<u128> expected = input;
    if (kernel.kind == KernelKind::BatchedInverseNtt)
        ref_->inverse(expected);
    else
        ref_->forward(expected);

    const std::vector<u128> actual = execute(kernel, input);
    return actual == expected;
}

KernelMetrics
NttRunner::evaluate(const NttKernel &kernel, const RpuConfig &cfg) const
{
    return evaluateProgram(kernel.program, kernel.vdmBytesRequired, cfg);
}

KernelMetrics
evaluateProgram(const Program &program, size_t vdm_bytes_required,
                const RpuConfig &cfg)
{
    RpuConfig run_cfg = cfg;
    run_cfg.vdmBytes = std::max(run_cfg.vdmBytes, vdm_bytes_required);
    const CycleStats stats = simulateCycles(program, run_cfg);
    return computeMetrics(stats, run_cfg);
}

KernelMetrics
NttRunner::evaluateProgram(const Program &program,
                           size_t vdm_bytes_required,
                           const RpuConfig &cfg) const
{
    return rpu::evaluateProgram(program, vdm_bytes_required, cfg);
}

KernelImage
NttRunner::makePolyMulKernel(const NttCodegenOptions &opts) const
{
    return generateBatchedPolyMul({tw_.get()}, opts);
}

std::vector<u128>
NttRunner::executePolyMul(const KernelImage &kernel,
                          const std::vector<u128> &a,
                          const std::vector<u128> &b) const
{
    rpu_assert(a.size() == n_ && b.size() == n_, "input size mismatch");
    return device_->launch(kernel, {a, b})[0];
}

bool
NttRunner::verifyPolyMul(const KernelImage &kernel, uint64_t seed) const
{
    Rng rng(seed);
    const std::vector<u128> a = randomPoly(*mod_, n_, rng);
    const std::vector<u128> b = randomPoly(*mod_, n_, rng);
    const std::vector<u128> expected = negacyclicMulNtt(*ref_, a, b);
    return executePolyMul(kernel, a, b) == expected;
}

} // namespace rpu
