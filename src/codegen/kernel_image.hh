/**
 * @file
 * The launch state of a generated B512 kernel: every generator
 * returns a KernelImage, with no per-flavour subclass.
 *
 * A KernelImage is everything the host needs to launch a program on
 * an execution backend: the program itself, the SDM constant image,
 * the precomputed twiddle-plan vectors, the named data regions the
 * launch code stages host polynomials into (the paper's section V
 * "launch code" that converts host data structures into
 * scratchpad-based data structures), and the VDM capacity floor.
 *
 * The image also carries a semantic descriptor (kind + per-tower
 * moduli; every kind is batched over RNS towers, and a single ring
 * is the batch of one) so backends that do not execute B512
 * programs — e.g. the CPU reference baseline — can compute the same
 * function and be checked bit-for-bit against the functional
 * simulator.
 */

#ifndef RPU_CODEGEN_KERNEL_IMAGE_HH
#define RPU_CODEGEN_KERNEL_IMAGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh" // u128
#include "isa/program.hh"

namespace rpu {

/**
 * What a generated kernel computes, for every tower t of the batch
 * (a single ring is the batch of one).
 */
enum class KernelKind
{
    BatchedForwardNtt,   ///< t.data <- NTT_t(t.data)
    BatchedInverseNtt,   ///< t.data <- INTT_t(t.data)
    PointwiseMulBatched, ///< t.a <- t.a .* t.b (evaluation-domain operands)
    BatchedPolyMul,      ///< t.a <- INTT_t(NTT_t(t.a) .* NTT_t(t.b))
    kCount, ///< sentinel: number of kinds (keep last)
};

/** A named VDM window the launch code stages host data through. */
struct DataRegion
{
    std::string name;    ///< e.g. "t0", "t2.a", "t2.b"
    uint64_t base = 0;   ///< VDM word address
    uint64_t words = 0;  ///< region length in words
    bool input = false;  ///< staged from the host before the launch
    bool output = false; ///< dumped back to the host afterwards
};

/** A generated kernel plus everything needed to launch it. */
struct KernelImage
{
    Program program;
    KernelKind kind = KernelKind::BatchedForwardNtt;
    uint64_t n = 0;            ///< ring dimension (shared by all towers)
    std::vector<u128> moduli;  ///< one working modulus per tower

    /** Host-visible data windows, in staging order. */
    std::vector<DataRegion> regions;

    /** Twiddle-plan vectors occupy [twPlanBase, ...). */
    uint64_t twPlanBase = 0;
    std::vector<u128> twPlanImage;

    /** SDM constants (dense from word 0). */
    std::vector<u128> sdmImage;

    /** Minimum VDM capacity the kernel needs, in bytes. */
    size_t vdmBytesRequired = 0;

    /**
     * Modelled cycles of one launch at the design point the program
     * was generated for. Zero until a launch layer that accounts for
     * device-time (RpuDevice) cycle-simulates the program; the
     * generators themselves never run the cycle model.
     */
    uint64_t modelCycles = 0;

    std::vector<const DataRegion *>
    inputRegions() const
    {
        std::vector<const DataRegion *> v;
        for (const auto &r : regions) {
            if (r.input)
                v.push_back(&r);
        }
        return v;
    }

    std::vector<const DataRegion *>
    outputRegions() const
    {
        std::vector<const DataRegion *> v;
        for (const auto &r : regions) {
            if (r.output)
                v.push_back(&r);
        }
        return v;
    }
};

} // namespace rpu

#endif // RPU_CODEGEN_KERNEL_IMAGE_HH
