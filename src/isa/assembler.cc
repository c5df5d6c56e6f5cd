#include "isa/assembler.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace rpu {

namespace {

constexpr uint64_t kMaxAddress = (uint64_t(1) << 20) - 1;

std::string
stripComment(const std::string &line)
{
    const size_t pos = line.find_first_of(";#");
    std::string s = pos == std::string::npos ? line : line.substr(0, pos);
    // Trim whitespace.
    const auto is_space = [](unsigned char c) { return std::isspace(c); };
    s.erase(s.begin(), std::find_if_not(s.begin(), s.end(), is_space));
    s.erase(std::find_if_not(s.rbegin(), s.rend(), is_space).base(),
            s.end());
    return s;
}

/** Split "mnemonic op1, op2, ..." into mnemonic + operand tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::string head, rest;
    std::istringstream is(line);
    is >> head;
    tokens.push_back(head);
    std::getline(is, rest);
    std::string cur;
    for (char c : rest) {
        if (c == ',') {
            tokens.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        tokens.push_back(cur);
    return tokens;
}

/**
 * A non-negative integer that fills the whole token, in @p base (0:
 * decimal, 0x hex or 0-prefixed octal). Fatal on a sign, trailing
 * characters or a value beyond 64 bits.
 */
uint64_t
parseNumber(const std::string &tok, int base, const char *what)
{
    if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0])))
        rpu_fatal("expected %s, got '%s'", what, tok.c_str());
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, base);
    if (errno == ERANGE || *end != '\0')
        rpu_fatal("malformed %s '%s'", what, tok.c_str());
    return v;
}

uint8_t
parseReg(const std::string &tok, char prefix)
{
    if (tok.size() < 2 || tok[0] != prefix)
        rpu_fatal("expected %c-register, got '%s'", prefix, tok.c_str());
    const uint64_t idx = parseNumber(tok.substr(1), 10, "register index");
    if (idx >= 64)
        rpu_fatal("register index %llu out of range in '%s'",
                  (unsigned long long)idx, tok.c_str());
    return uint8_t(idx);
}

/** A VDM address or SDM offset: the 20-bit ADDRESS field. */
uint32_t
parseAddress(const std::string &tok)
{
    const uint64_t v = parseNumber(tok, 0, "address");
    if (v > kMaxAddress)
        rpu_fatal("address offset %llu exceeds 20 bits",
                  (unsigned long long)v);
    return uint32_t(v);
}

/** The 6-bit addressing-mode VALUE field. */
uint8_t
parseModeValue(const std::string &tok)
{
    const uint64_t v = parseNumber(tok, 0, "mode value");
    if (v >= 64)
        rpu_fatal("mode value %llu exceeds 6 bits", (unsigned long long)v);
    return uint8_t(v);
}

AddrMode
parseMode(const std::string &tok)
{
    if (tok == "contig")
        return AddrMode::CONTIGUOUS;
    if (tok == "strided")
        return AddrMode::STRIDED;
    if (tok == "skip")
        return AddrMode::STRIDED_SKIP;
    if (tok == "repeat")
        return AddrMode::REPEATED;
    rpu_fatal("unknown addressing mode '%s'", tok.c_str());
}

void
expectOperands(const std::vector<std::string> &t, size_t lo, size_t hi)
{
    const size_t n = t.size() - 1;
    if (n < lo || n > hi)
        rpu_fatal("'%s' expects %zu..%zu operands, got %zu", t[0].c_str(),
                  lo, hi, n);
}

} // namespace

Instruction
assembleLine(const std::string &raw)
{
    const std::string line = stripComment(raw);
    rpu_assert(!line.empty(), "assembleLine on empty line");
    const auto t = tokenize(line);
    const std::string &m = t[0];

    if (m == "vload" || m == "vstore") {
        expectOperands(t, 4, 5);
        const uint8_t vreg = parseReg(t[1], 'v');
        const uint8_t arf = parseReg(t[2], 'a');
        const uint32_t addr = parseAddress(t[3]);
        const AddrMode mode = parseMode(t[4]);
        const uint8_t value = t.size() > 5 ? parseModeValue(t[5]) : 0;
        return m == "vload"
                   ? Instruction::vload(vreg, arf, addr, mode, value)
                   : Instruction::vstore(vreg, arf, addr, mode, value);
    }
    if (m == "vbcast") {
        expectOperands(t, 3, 3);
        return Instruction::vbcast(parseReg(t[1], 'v'), parseReg(t[2], 'a'),
                                   parseAddress(t[3]));
    }
    if (m == "sload") {
        expectOperands(t, 2, 2);
        return Instruction::sload(parseReg(t[1], 's'), parseAddress(t[2]));
    }
    if (m == "mload") {
        expectOperands(t, 2, 2);
        return Instruction::mload(parseReg(t[1], 'm'), parseAddress(t[2]));
    }
    if (m == "aload") {
        expectOperands(t, 2, 2);
        return Instruction::aload(parseReg(t[1], 'a'), parseAddress(t[2]));
    }
    if (m == "vaddmod" || m == "vsubmod" || m == "vmulmod") {
        expectOperands(t, 4, 4);
        const Opcode op = m == "vaddmod"  ? Opcode::VADDMOD
                          : m == "vsubmod" ? Opcode::VSUBMOD
                                           : Opcode::VMULMOD;
        return Instruction::vv(op, parseReg(t[1], 'v'), parseReg(t[2], 'v'),
                               parseReg(t[3], 'v'), parseReg(t[4], 'm'));
    }
    if (m == "vbfly") {
        expectOperands(t, 6, 6);
        return Instruction::butterfly(
            parseReg(t[1], 'v'), parseReg(t[2], 'v'), parseReg(t[3], 'v'),
            parseReg(t[4], 'v'), parseReg(t[5], 'v'), parseReg(t[6], 'm'));
    }
    if (m == "vsaddmod" || m == "vssubmod" || m == "vsmulmod") {
        expectOperands(t, 4, 4);
        const Opcode op = m == "vsaddmod"  ? Opcode::VSADDMOD
                          : m == "vssubmod" ? Opcode::VSSUBMOD
                                            : Opcode::VSMULMOD;
        return Instruction::vs_(op, parseReg(t[1], 'v'), parseReg(t[2], 'v'),
                                parseReg(t[3], 's'), parseReg(t[4], 'm'));
    }
    if (m == "unpklo" || m == "unpkhi" || m == "pklo" || m == "pkhi") {
        expectOperands(t, 3, 3);
        const Opcode op = m == "unpklo"   ? Opcode::UNPKLO
                          : m == "unpkhi" ? Opcode::UNPKHI
                          : m == "pklo"   ? Opcode::PKLO
                                          : Opcode::PKHI;
        return Instruction::shuffle(op, parseReg(t[1], 'v'),
                                    parseReg(t[2], 'v'), parseReg(t[3], 'v'));
    }
    rpu_fatal("unknown mnemonic '%s'", m.c_str());
}

Program
assemble(const std::string &text, const std::string &name)
{
    Program prog(name);
    std::istringstream is(text);
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (stripComment(line).empty())
            continue;
        prog.append(assembleLine(line));
    }
    return prog;
}

} // namespace rpu
