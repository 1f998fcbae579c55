#include "workloads/digest.hh"

#include <cstdio>

#include "workloads/program.hh"

namespace drsim {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t
fnv1aStep(std::uint64_t h, std::uint64_t v)
{
    // Hash the eight bytes of v little-endian.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

std::string
hex16(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t h = kFnvOffset;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
    return hex16(h);
}

std::string
programDigest(const Program &program)
{
    // Digesting is a full pass over the code and the data image —
    // milliseconds on data-heavy workloads, which would dominate a
    // warm checkpoint-library lookup.  finalize() computes it once;
    // serve that copy whenever it exists.
    if (!program.contentDigest().empty())
        return program.contentDigest();
    std::uint64_t h = kFnvOffset;
    for (const BasicBlock &bb : program.blocks()) {
        // Block boundary marker so moving an instruction across a
        // block edge changes the digest even if the flat instruction
        // sequence does not.
        h = fnv1aStep(h, 0xb10cb10cb10cb10cull);
        for (const Instruction &inst : bb.insts) {
            h = fnv1aStep(h, static_cast<std::uint64_t>(inst.op));
            h = fnv1aStep(h,
                          (std::uint64_t(std::uint8_t(inst.dest.cls))
                           << 8) |
                              inst.dest.index);
            h = fnv1aStep(h,
                          (std::uint64_t(std::uint8_t(inst.src1.cls))
                           << 8) |
                              inst.src1.index);
            h = fnv1aStep(h,
                          (std::uint64_t(std::uint8_t(inst.src2.cls))
                           << 8) |
                              inst.src2.index);
            h = fnv1aStep(h, static_cast<std::uint64_t>(inst.imm));
            h = fnv1aStep(h, static_cast<std::uint64_t>(
                                 std::int64_t(inst.target)));
        }
    }
    // The initial data image, already in address order.
    for (const DataWord &w : program.initialWords()) {
        h = fnv1aStep(h, w.addr);
        h = fnv1aStep(h, w.value);
    }
    return hex16(h);
}

} // namespace drsim
