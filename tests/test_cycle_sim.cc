/**
 * @file
 * Cycle simulator tests: hand-computed timings for micro-programs,
 * exact bank-conflict beat counts, initiation-interval and latency
 * behaviour, queue backpressure, and analytical bounds. These checks
 * substitute for the paper's RTL/Palladium validation (DESIGN.md
 * section 7).
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "sim/cycle/pipelines.hh"
#include "sim/cycle/simulator.hh"

namespace rpu {
namespace {

Program
fromAsm(const std::string &text)
{
    return assemble(text, "micro");
}

/**
 * Timing model recap for hand computation: an instruction dispatched
 * at cycle D issues at max(D+1, pipeline-free) and completes
 * beats + latency cycles later; dependants dispatch at the producer's
 * completion cycle. The first instruction dispatches at cycle 1.
 */
TEST(CycleSim, SingleVectorLoad)
{
    const RpuConfig cfg; // (128,128): 4 beats, lsLatency 4
    const auto s = simulateCycles(fromAsm("vload v1, a0, 0, contig"), cfg);
    EXPECT_EQ(s.cycles, 2u + 4u + 4u);
    EXPECT_EQ(s.ls.busyBeats, 4u);
    EXPECT_EQ(s.imFetches, 1u);
}

TEST(CycleSim, SingleScalarLoad)
{
    const RpuConfig cfg; // 1 beat, sdmLatency 2
    const auto s = simulateCycles(fromAsm("sload s1, 0"), cfg);
    EXPECT_EQ(s.cycles, 2u + 1u + 2u);
}

TEST(CycleSim, IndependentLoadsPipelineAtBeatRate)
{
    const RpuConfig cfg;
    const auto s = simulateCycles(fromAsm("vload v1, a0, 0, contig\n"
                                          "vload v2, a0, 512, contig\n"
                                          "vload v3, a0, 1024, contig"),
                                  cfg);
    // Issues at cycles 2, 6, 10; last completes at 10 + 4 + 4.
    EXPECT_EQ(s.cycles, 18u);
    EXPECT_EQ(s.busyboardStallCycles, 0u);
}

TEST(CycleSim, DependentChainWaitsForCompletion)
{
    const RpuConfig cfg; // CI add: 4 beats + 2 latency
    const auto s = simulateCycles(fromAsm("vaddmod v2, v1, v1, m0\n"
                                          "vaddmod v3, v2, v2, m0\n"
                                          "vaddmod v4, v3, v3, m0"),
                                  cfg);
    // First completes at 2+4+2 = 8; each dependant adds 1+4+2 = 7.
    EXPECT_EQ(s.cycles, 8u + 7u + 7u);
    EXPECT_GT(s.busyboardStallCycles, 0u);
}

TEST(CycleSim, DecoupledPipelinesOverlap)
{
    const RpuConfig cfg;
    // A load, a compute and a shuffle with no mutual dependences
    // execute concurrently in their own pipelines.
    const auto s = simulateCycles(fromAsm("vload v1, a0, 0, contig\n"
                                          "vaddmod v4, v2, v3, m0\n"
                                          "unpklo v7, v5, v6"),
                                  cfg);
    // Dispatches at 1,2,3; issues at 2,3,4; completions: load 10,
    // add 3+4+2=9, shuffle 4+4+4=12.
    EXPECT_EQ(s.cycles, 12u);
    EXPECT_EQ(s.ls.instrs, 1u);
    EXPECT_EQ(s.compute.instrs, 1u);
    EXPECT_EQ(s.shuffle.instrs, 1u);
}

TEST(CycleSim, ButterflyLatencyIsMulPlusAdd)
{
    RpuConfig cfg;
    cfg.mulLatency = 6;
    cfg.addLatency = 3;
    const auto s =
        simulateCycles(fromAsm("vbfly v4, v5, v1, v2, v3, m0"), cfg);
    EXPECT_EQ(s.cycles, 2u + 4u + 6u + 3u);
}

TEST(CycleSim, InitiationIntervalScalesMultiplyOccupancy)
{
    RpuConfig cfg;
    cfg.mulII = 3;
    const auto s = simulateCycles(fromAsm("vmulmod v3, v1, v2, m0"), cfg);
    // beats = ceil(512/128) * 3 = 12.
    EXPECT_EQ(s.cycles, 2u + 12u + cfg.mulLatency);
    // Adds are unaffected by the multiplier II.
    const auto s2 =
        simulateCycles(fromAsm("vaddmod v3, v1, v2, m0"), cfg);
    EXPECT_EQ(s2.cycles, 2u + 4u + cfg.addLatency);
}

TEST(CycleSim, LatencyHiddenByIndependentWork)
{
    // 32 independent multiplies: total time is occupancy-bound, so
    // doubling the multiplier latency moves the result by at most the
    // latency delta (the drain of the last instruction).
    std::string text;
    for (int i = 0; i < 32; ++i) {
        text += "vmulmod v" + std::to_string(i % 8) + ", v" +
                std::to_string(8 + i % 8) + ", v" +
                std::to_string(16 + i % 8) + ", m0\n";
    }
    // Avoid WAW on the same destination: use distinct vd per instr.
    text.clear();
    for (int i = 0; i < 32; ++i) {
        text += "vmulmod v" + std::to_string(i) + ", v40, v41, m0\n";
    }
    RpuConfig lo, hi;
    lo.mulLatency = 2;
    hi.mulLatency = 8;
    const auto a = simulateCycles(fromAsm(text), lo);
    const auto b = simulateCycles(fromAsm(text), hi);
    EXPECT_EQ(b.cycles - a.cycles, hi.mulLatency - lo.mulLatency);
}

TEST(CycleSim, QueueBackpressure)
{
    RpuConfig cfg;
    cfg.queueDepth = 1;
    std::string text;
    for (int i = 1; i <= 16; ++i)
        text += "vload v" + std::to_string(i) + ", a0, 0, contig\n";
    const auto s = simulateCycles(fromAsm(text), cfg);
    EXPECT_GT(s.queueFullStallCycles, 0u);
    // Throughput is still one load per 4 beats once primed.
    const auto deep = [&] {
        RpuConfig d;
        d.queueDepth = 16;
        return simulateCycles(fromAsm(text), d);
    }();
    EXPECT_GE(s.cycles, deep.cycles);
}

TEST(CycleSim, FewerHplesMoreComputeBeats)
{
    RpuConfig small;
    small.numHples = 16; // beats = 32
    const auto s =
        simulateCycles(fromAsm("vaddmod v3, v1, v2, m0"), small);
    EXPECT_EQ(s.cycles, 2u + 32u + small.addLatency);
}

TEST(CycleSim, AccessCounting)
{
    const RpuConfig cfg;
    const auto s = simulateCycles(fromAsm("vload v1, a0, 0, contig\n"
                                          "vbfly v4, v5, v1, v2, v3, m0\n"
                                          "pklo v6, v4, v5\n"
                                          "vstore v6, a0, 1024, contig"),
                                  cfg);
    EXPECT_EQ(s.vdmWordsRead, 512u);
    EXPECT_EQ(s.vdmWordsWritten, 512u);
    EXPECT_EQ(s.vbarWords, 1024u);
    EXPECT_EQ(s.sbarWords, 512u);
    EXPECT_EQ(s.mulLaneOps, 512u);
    EXPECT_EQ(s.addLaneOps, 1024u);
    // VRF: load 512w + bfly (3r+2w)*512 + shuffle (2r+1w)*512 +
    // store 512r.
    EXPECT_EQ(s.vrfWordReads, 512u * 6);
    EXPECT_EQ(s.vrfWordWrites, 512u * 4);
}

TEST(CycleSim, CycleAttributionReconciles)
{
    // Every simulated cycle must land in exactly one front-end
    // bucket; the drain tail (frontend done, pipelines finishing) was
    // previously attributed to none of them.
    const RpuConfig cfg;
    const std::vector<std::string> programs = {
        "vload v1, a0, 0, contig",
        "vaddmod v2, v1, v1, m0\n"
        "vaddmod v3, v2, v2, m0\n"
        "vaddmod v4, v3, v3, m0",
        "vload v1, a0, 0, contig\n"
        "vbfly v4, v5, v1, v2, v3, m0\n"
        "pklo v6, v4, v5\n"
        "vstore v6, a0, 1024, contig",
    };
    for (const auto &text : programs) {
        const auto s = simulateCycles(fromAsm(text), cfg);
        EXPECT_EQ(s.cycles, s.dispatchCycles + s.busyboardStallCycles +
                                s.queueFullStallCycles + s.drainCycles)
            << text;
        // Any non-empty program has a drain tail: the last
        // instruction's beats + latency outlive its dispatch cycle.
        EXPECT_GT(s.drainCycles, 0u) << text;
        EXPECT_GT(s.dispatchCycles, 0u) << text;
    }

    // Backpressure run: queue-full stalls join the ledger.
    RpuConfig narrow;
    narrow.queueDepth = 1;
    std::string text;
    for (int i = 1; i <= 16; ++i)
        text += "vload v" + std::to_string(i) + ", a0, 0, contig\n";
    const auto s = simulateCycles(fromAsm(text), narrow);
    EXPECT_GT(s.queueFullStallCycles, 0u);
    EXPECT_EQ(s.cycles, s.dispatchCycles + s.busyboardStallCycles +
                            s.queueFullStallCycles + s.drainCycles);
}

TEST(CycleSim, LongStallsKeepTheirAttribution)
{
    // At 4 HPLEs an add occupies the compute pipeline for 128 beats,
    // so most cycles are spent waiting. Hand count, chain v2 -> v3
    // (add latency 2): dispatch at 1, issue at 2 (done at 132), the
    // dependent add stalls 2..131, dispatches at 132, issues at 133
    // and completes at 263; the drain tail is 133..263.
    RpuConfig cfg;
    cfg.numHples = 4;
    auto s = simulateCycles(fromAsm("vaddmod v2, v1, v1, m0\n"
                                    "vaddmod v3, v2, v2, m0"),
                            cfg);
    EXPECT_EQ(s.cycles, 263u);
    EXPECT_EQ(s.dispatchCycles, 2u);
    EXPECT_EQ(s.busyboardStallCycles, 130u);
    EXPECT_EQ(s.queueFullStallCycles, 0u);
    EXPECT_EQ(s.drainCycles, 131u);

    // Four independent adds behind a one-entry queue: each waits 127
    // cycles for the previous one's beats (issues at 2, 130, 258,
    // 386), the last completing at 386 + 128 + 2.
    cfg.queueDepth = 1;
    std::string text;
    for (int i = 1; i <= 4; ++i)
        text += "vaddmod v" + std::to_string(10 + i) + ", v1, v1, m0\n";
    s = simulateCycles(fromAsm(text), cfg);
    EXPECT_EQ(s.cycles, 516u);
    EXPECT_EQ(s.dispatchCycles, 4u);
    EXPECT_EQ(s.busyboardStallCycles, 0u);
    EXPECT_EQ(s.queueFullStallCycles, 254u);
    EXPECT_EQ(s.drainCycles, 258u);
}

TEST(CycleSim, Deterministic)
{
    const RpuConfig cfg;
    const Program p = fromAsm("vload v1, a0, 0, contig\n"
                              "vbfly v4, v5, v1, v2, v3, m0\n"
                              "vstore v4, a0, 1024, contig");
    const auto a = simulateCycles(p, cfg);
    const auto b = simulateCycles(p, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.busyboardStallCycles, b.busyboardStallCycles);
}

TEST(CycleSim, EmptyProgram)
{
    const auto s = simulateCycles(Program("empty"), RpuConfig{});
    EXPECT_EQ(s.cycles, 0u);
}

TEST(CycleSim, LowerBoundHolds)
{
    const RpuConfig cfg;
    std::string text;
    for (int i = 0; i < 20; ++i) {
        text += "vload v" + std::to_string(i % 32) +
                ", a0, 0, contig\n";
        text += "vaddmod v" + std::to_string(32 + i % 16) + ", v40, " +
                "v41, m0\n";
    }
    const Program p = fromAsm(text);
    const auto s = simulateCycles(p, cfg);
    EXPECT_GE(s.cycles, cycleLowerBound(p, cfg));
}

// -- Bank conflict model -------------------------------------------------

struct BankCase
{
    AddrMode mode;
    unsigned value;
    unsigned banks;
    uint64_t expected;
};

class BankBeats : public testing::TestWithParam<BankCase>
{
};

TEST_P(BankBeats, MatchesHandCount)
{
    const auto &c = GetParam();
    EXPECT_EQ(bankBeats(c.mode, c.value, c.banks), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, BankBeats,
    testing::Values(
        // Contiguous: perfect interleave, 512/B words per bank.
        BankCase{AddrMode::CONTIGUOUS, 0, 128, 4},
        BankCase{AddrMode::CONTIGUOUS, 0, 32, 16},
        BankCase{AddrMode::CONTIGUOUS, 0, 256, 2},
        // Stride 2^v folds accesses onto B/2^v banks.
        BankCase{AddrMode::STRIDED, 1, 128, 8},
        BankCase{AddrMode::STRIDED, 2, 128, 16},
        BankCase{AddrMode::STRIDED, 7, 128, 512}, // stride == banks
        BankCase{AddrMode::STRIDED, 1, 256, 4},
        // Strided-skip with runs of 2^v: half the banks are hit.
        BankCase{AddrMode::STRIDED_SKIP, 2, 128, 8},
        BankCase{AddrMode::STRIDED_SKIP, 6, 128, 8},
        // Runs of 128 == banks: every bank covered evenly, four
        // 128-word runs land on each bank once apiece.
        BankCase{AddrMode::STRIDED_SKIP, 7, 128, 4},
        // Repeated: only distinct words are fetched.
        BankCase{AddrMode::REPEATED, 3, 128, 1},
        BankCase{AddrMode::REPEATED, 0, 128, 4},
        BankCase{AddrMode::REPEATED, 9, 128, 1}));

} // namespace
} // namespace rpu
