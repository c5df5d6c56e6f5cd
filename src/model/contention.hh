/**
 * @file
 * HBM-contention model for concurrent launches on one device.
 *
 * The paper sizes a single RPU against a 512 GB/s HBM2 roofline
 * (section VI-G; see hbm.hh for the Fig. 9 transfer model). One
 * launch at a time, the VDM double-buffers staging and drain behind
 * compute, so the modelled cost of a launch is its cycle-simulated
 * program length alone — that is exactly what the device's cycle
 * ledger records. The moment several launches on the same device
 * are in flight at once (concurrent dispatchers sharing it), their
 * lanes share the one HBM interface: each lane's staged+drained
 * words no longer hide fully behind its own compute, and every
 * *other* active lane's traffic eats into the overlap window.
 *
 * This model keeps the uncontended ledger exact and adds the
 * contention term on top:
 *
 *   staging(words)       = ceil(words * bytesPerElement / bytesPerCycle)
 *   busy(compute, words, lanes)
 *       = compute                                  (lanes <= 1)
 *       = compute + (lanes - 1) * staging(words)   (lanes >  1)
 *
 * i.e. with k concurrently occupied lanes a launch's staging/drain
 * traffic is re-exposed once per competing lane. lanes == 1
 * reproduces the uncontended cycle ledger bit for bit (full
 * staging/drain overlap at full bandwidth), and the contended cost is
 * strictly larger as soon as a second lane is occupied and the launch
 * moves any words — the observability property the sharding bench
 * PASS-gates.
 */

#ifndef RPU_MODEL_CONTENTION_HH
#define RPU_MODEL_CONTENTION_HH

#include <cstdint>

namespace rpu {

/** See the file comment. Default constants follow the paper: 512 GB/s
 *  HBM2, the 64-bank 1.53 GHz design clock, 16-byte elements (one
 *  u128 scratchpad word per coefficient). */
struct HbmContentionModel
{
    double bandwidthGBps = 512.0;
    double clockGhz = 1.53;
    unsigned bytesPerElement = 16;

    /** HBM words per device cycle at full bandwidth. */
    double bytesPerCycle() const { return bandwidthGBps / clockGhz; }

    /** Cycles to stage (or drain) @p words at full bandwidth. */
    uint64_t stagingCycles(uint64_t words) const;

    /**
     * Modelled busy cycles of one launch: @p computeCycles alone when
     * the launch has the interface to itself, plus one staging pass
     * per competing lane otherwise.
     */
    uint64_t busyCycles(uint64_t computeCycles, uint64_t words,
                        unsigned lanes) const;
};

} // namespace rpu

#endif // RPU_MODEL_CONTENTION_HH
