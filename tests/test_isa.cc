/**
 * @file
 * B512 ISA tests: Table-I field encoding, encode/decode round trips
 * over randomised fields, assembler/disassembler round trips, and
 * error handling for malformed programs.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "isa/assembler.hh"
#include "isa/encoding.hh"

namespace rpu {
namespace {

const Opcode kAllOpcodes[] = {
    Opcode::VLOAD,    Opcode::VSTORE,   Opcode::SLOAD,   Opcode::VBCAST,
    Opcode::VADDMOD,  Opcode::VSUBMOD,  Opcode::VMULMOD, Opcode::VSADDMOD,
    Opcode::VSSUBMOD, Opcode::VSMULMOD, Opcode::UNPKLO,  Opcode::UNPKHI,
    Opcode::PKLO,     Opcode::PKHI,     Opcode::MLOAD,   Opcode::ALOAD,
};

/** Build a random-but-valid instruction for a given opcode. */
Instruction
randomInstr(Opcode op, bool bfly, Rng &rng)
{
    const auto reg = [&] { return uint8_t(rng.below64(64)); };
    const auto addr = [&] { return uint32_t(rng.below64(1 << 20)); };
    switch (op) {
      case Opcode::VLOAD:
        return Instruction::vload(reg(), reg(), addr(),
                                  AddrMode(rng.below64(4)),
                                  uint8_t(rng.below64(10)));
      case Opcode::VSTORE:
        return Instruction::vstore(reg(), reg(), addr(),
                                   AddrMode(rng.below64(3)),
                                   uint8_t(rng.below64(10)));
      case Opcode::SLOAD:
        return Instruction::sload(reg(), addr());
      case Opcode::VBCAST:
        return Instruction::vbcast(reg(), reg(), addr());
      case Opcode::MLOAD:
        return Instruction::mload(reg(), addr());
      case Opcode::ALOAD:
        return Instruction::aload(reg(), addr());
      case Opcode::VADDMOD:
      case Opcode::VSUBMOD:
        return Instruction::vv(op, reg(), reg(), reg(), reg());
      case Opcode::VMULMOD:
        return bfly ? Instruction::butterfly(reg(), reg(), reg(), reg(),
                                             reg(), reg())
                    : Instruction::vv(op, reg(), reg(), reg(), reg());
      case Opcode::VSADDMOD:
      case Opcode::VSSUBMOD:
      case Opcode::VSMULMOD:
        return Instruction::vs_(op, reg(), reg(), reg(), reg());
      case Opcode::UNPKLO:
      case Opcode::UNPKHI:
      case Opcode::PKLO:
      case Opcode::PKHI:
        return Instruction::shuffle(op, reg(), reg(), reg());
    }
    return {};
}

class EncodingRoundTrip : public testing::TestWithParam<Opcode>
{
};

TEST_P(EncodingRoundTrip, RandomFieldsSurviveEncodeDecode)
{
    Rng rng(unsigned(GetParam()) + 1);
    for (int i = 0; i < 200; ++i) {
        const Instruction instr = randomInstr(GetParam(), false, rng);
        EXPECT_EQ(decode(encode(instr)), instr) << instr.toString();
    }
}

TEST_P(EncodingRoundTrip, AssemblyRoundTrip)
{
    Rng rng(unsigned(GetParam()) + 100);
    for (int i = 0; i < 100; ++i) {
        const Instruction instr = randomInstr(GetParam(), false, rng);
        EXPECT_EQ(assembleLine(instr.toString()), instr)
            << instr.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodingRoundTrip,
                         testing::ValuesIn(kAllOpcodes),
                         [](const auto &info) {
                             return mnemonic(info.param);
                         });

TEST(Encoding, ButterflyRoundTrip)
{
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        const Instruction instr =
            randomInstr(Opcode::VMULMOD, true, rng);
        ASSERT_TRUE(instr.isButterfly());
        EXPECT_EQ(decode(encode(instr)), instr);
        EXPECT_EQ(assembleLine(instr.toString()), instr);
    }
}

TEST(Encoding, FieldPlacementMatchesTableI)
{
    // vbfly v4, v5, v1, v2, v3, m7: check exact bit positions.
    const Instruction i =
        Instruction::butterfly(4, 5, 1, 2, 3, 7);
    const uint64_t w = encode(i);
    EXPECT_EQ((w >> 55) & 0x3f, 5u);  // VD1
    EXPECT_EQ((w >> 49) & 0x3f, 3u);  // VT1
    EXPECT_EQ((w >> 48) & 1, 1u);     // BFLY
    EXPECT_EQ((w >> 44) & 0xf, uint64_t(Opcode::VMULMOD));
    EXPECT_EQ((w >> 18) & 0x3f, 4u);  // VD
    EXPECT_EQ((w >> 12) & 0x3f, 1u);  // VS
    EXPECT_EQ((w >> 6) & 0x3f, 2u);   // VT
    EXPECT_EQ(w & 0x3f, 7u);          // RM
}

TEST(Encoding, LoadFieldPlacement)
{
    const Instruction i = Instruction::vload(
        9, 2, 0xabcde, AddrMode::STRIDED_SKIP, 3);
    const uint64_t w = encode(i);
    EXPECT_EQ((w >> 44) & 0xf, uint64_t(Opcode::VLOAD));
    EXPECT_EQ((w >> 24) & 0xfffff, 0xabcdeu); // ADDRESS
    EXPECT_EQ((w >> 18) & 0x3f, 9u);          // VD
    EXPECT_EQ((w >> 12) & 0x3f,
              uint64_t(AddrMode::STRIDED_SKIP)); // MODE
    EXPECT_EQ((w >> 6) & 0x3f, 3u);           // VALUE
    EXPECT_EQ(w & 0x3f, 2u);                  // RM
}

TEST(Encoding, SeventeenInstructions)
{
    // 16 opcodes + the BFLY modifier = the paper's 17 instructions.
    EXPECT_EQ(std::size(kAllOpcodes), 16u);
    std::set<std::string> names;
    for (Opcode op : kAllOpcodes)
        names.insert(mnemonic(op));
    names.insert(mnemonic(Opcode::VMULMOD, true));
    EXPECT_EQ(names.size(), 17u);
}

TEST(Encoding, RejectsOversizedFields)
{
    Instruction i = Instruction::sload(3, 0);
    i.address = 1 << 20; // 21 bits
    EXPECT_EXIT(encode(i), testing::ExitedWithCode(1), "20 bits");

    Instruction j = Instruction::vv(Opcode::VADDMOD, 1, 2, 3, 4);
    j.vd = 64;
    EXPECT_EXIT(encode(j), testing::ExitedWithCode(1), "out of range");
}

TEST(Instruction, RejectsOversizedModeValue)
{
    // VALUE is a 6-bit field and the simulator shifts by it: both
    // vector memory constructors refuse what encode() would refuse.
    for (uint8_t value : {uint8_t(64), uint8_t(70)}) {
        EXPECT_EXIT((void)Instruction::vload(1, 0, 0, AddrMode::STRIDED,
                                             value),
                    testing::ExitedWithCode(1), "exceeds 6 bits");
        EXPECT_EXIT((void)Instruction::vstore(1, 0, 0, AddrMode::STRIDED,
                                              value),
                    testing::ExitedWithCode(1), "exceeds 6 bits");
    }
    const Instruction top =
        Instruction::vload(1, 0, 0, AddrMode::STRIDED, 63);
    EXPECT_EQ(decode(encode(top)), top);
}

TEST(Encoding, ProgramRoundTrip)
{
    Rng rng(7);
    std::vector<Instruction> prog;
    for (int i = 0; i < 64; ++i) {
        prog.push_back(randomInstr(
            kAllOpcodes[rng.below64(std::size(kAllOpcodes))], false,
            rng));
    }
    EXPECT_EQ(decodeProgram(encodeProgram(prog)), prog);
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program p = assemble("; full line comment\n"
                               "\n"
                               "vaddmod v1, v2, v3, m0 ; trailing\n"
                               "   # hash comment\n"
                               "unpklo v4, v1, v1\n",
                               "demo");
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0].op, Opcode::VADDMOD);
    EXPECT_EQ(p[1].op, Opcode::UNPKLO);
    EXPECT_EQ(p.name(), "demo");
}

TEST(Assembler, ProgramDisassemblyRoundTrip)
{
    Rng rng(8);
    Program p("roundtrip");
    for (int i = 0; i < 128; ++i) {
        p.append(randomInstr(
            kAllOpcodes[rng.below64(std::size(kAllOpcodes))],
            rng.below64(2) == 0, rng));
    }
    const Program q = assemble(p.disassemble(), "roundtrip");
    ASSERT_EQ(q.size(), p.size());
    for (size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(q[i], p[i]);
}

TEST(Assembler, Errors)
{
    EXPECT_EXIT(assembleLine("bogus v1, v2"), testing::ExitedWithCode(1),
                "unknown mnemonic");
    EXPECT_EXIT(assembleLine("vaddmod v1, v2, v3"),
                testing::ExitedWithCode(1), "operands");
    EXPECT_EXIT(assembleLine("vaddmod v1, v2, v3, s4"),
                testing::ExitedWithCode(1), "register");
    EXPECT_EXIT(assembleLine("vload v64, a0, 0, contig"),
                testing::ExitedWithCode(1), "out of range");
}

TEST(Assembler, RejectsTruncatedOrMalformedOperands)
{
    // Each of these used to assemble to a different instruction (or
    // escape as an uncaught exception) instead of a clean exit 1.
    EXPECT_EXIT(assembleLine("vload v1, a0, 0, strided, 300"),
                testing::ExitedWithCode(1), "mode value 300 exceeds 6 bits");
    EXPECT_EXIT(assembleLine("vload v1, a0, 4294967297, contig"),
                testing::ExitedWithCode(1),
                "address offset 4294967297 exceeds 20 bits");
    EXPECT_EXIT(assembleLine("sload s1, 12abc"), testing::ExitedWithCode(1),
                "malformed address '12abc'");
    EXPECT_EXIT(assembleLine("vload v1x, a0, 0, contig"),
                testing::ExitedWithCode(1), "malformed register index");
    EXPECT_EXIT(assembleLine("sload s1, foo"), testing::ExitedWithCode(1),
                "expected address, got 'foo'");
    EXPECT_EXIT(assembleLine("aload a1, 1048576"), testing::ExitedWithCode(1),
                "exceeds 20 bits");
}

TEST(Assembler, AcceptsLargestFieldValues)
{
    EXPECT_EQ(assembleLine("sload s1, 1048575"),
              Instruction::sload(1, 1048575));
    EXPECT_EQ(assembleLine("vload v1, a0, 0xfffff, strided, 63"),
              Instruction::vload(1, 0, 1048575, AddrMode::STRIDED, 63));
}

TEST(Program, MixCounting)
{
    Program p;
    p.append(Instruction::vload(1, 0, 0));
    p.append(Instruction::vload(2, 0, 512));
    p.append(Instruction::butterfly(3, 4, 1, 2, 5, 0));
    p.append(Instruction::vv(Opcode::VADDMOD, 6, 3, 4, 0));
    p.append(Instruction::shuffle(Opcode::PKHI, 7, 3, 4));
    p.append(Instruction::vstore(7, 0, 1024));
    p.append(Instruction::vbcast(8, 3, 4));
    p.append(Instruction::mload(1, 0));
    const InstructionMix mix = p.mix();
    EXPECT_EQ(mix.loads, 2u);
    EXPECT_EQ(mix.stores, 1u);
    EXPECT_EQ(mix.compute, 2u);
    EXPECT_EQ(mix.butterflies, 1u);
    EXPECT_EQ(mix.shuffles, 1u);
    EXPECT_EQ(mix.broadcasts, 1u);
    EXPECT_EQ(mix.scalarLs, 1u);
    EXPECT_EQ(mix.total(), 8u);
    EXPECT_EQ(p.encodedBytes(), 64u);
}

} // namespace
} // namespace rpu
