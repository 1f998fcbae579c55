/**
 * @file
 * Seeded random program generator for differential testing
 * (test_fuzz.cc) and the frozen analysis digests (test_analysis.cc).
 *
 * The generator emits a counted outer loop whose body is a random mix
 * of ALU ops, FP ops, loads/stores with random (but in-bounds) base
 * offsets, data-dependent forward branches, and occasional calls —
 * biased toward the constructs that stress renaming, memory ordering
 * and recovery.  Every program terminates.
 */

#ifndef DRSIM_TESTS_FUZZ_PROGRAM_HH
#define DRSIM_TESTS_FUZZ_PROGRAM_HH

#include <cstdint>

#include "common/random.hh"
#include "workloads/builder.hh"

namespace drsim {

inline Program
randomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder b("fuzz");

    constexpr int kWords = 2048;
    const Addr data = b.allocWords(kWords);
    for (int i = 0; i < kWords; i += 2)
        b.initWord(data + Addr(i) * 8, rng.next());

    // Register pools (avoid the loop-control registers).
    const auto ir = [&](int i) { return intReg(3 + (i % 20)); };
    const auto fr = [&](int i) { return fpReg(1 + (i % 20)); };

    // Optional helper function.
    const bool has_helper = rng.chance(0.6);
    const auto helper = b.newLabel();
    const auto start = b.newLabel();
    b.br(start);
    if (has_helper) {
        b.bind(helper);
        b.slli(intReg(24), intReg(23), 2);
        b.xor_(intReg(24), intReg(24), intReg(23));
        b.ret(intReg(26));
    }
    b.bind(start);

    b.li(intReg(1), std::int64_t(data));       // data base
    b.li(intReg(2), 150 + std::int64_t(rng.below(200))); // trips
    b.li(intReg(25), 0x517'0000 + std::int64_t(seed)); // entropy

    const auto top = b.here();
    // xorshift entropy for data-dependent control.
    b.slli(intReg(24), intReg(25), 13);
    b.xor_(intReg(25), intReg(25), intReg(24));
    b.srli(intReg(24), intReg(25), 7);
    b.xor_(intReg(25), intReg(25), intReg(24));

    const int body = 8 + int(rng.below(24));
    int pending_label = -1; // at most one open forward branch
    for (int i = 0; i < body; ++i) {
        if (pending_label >= 0 && rng.chance(0.4)) {
            b.bind(pending_label);
            pending_label = -1;
        }
        switch (rng.below(10)) {
          case 0:
          case 1:
            b.add(ir(i), ir(i + 1), ir(i + 3));
            break;
          case 2:
            b.muli(ir(i), ir(i + 2), 3);
            break;
          case 3: {
            // In-bounds load: index = entropy & (kWords/2 - 1).
            b.andi(intReg(24), intReg(25), kWords / 2 - 1);
            b.slli(intReg(24), intReg(24), 3);
            b.add(intReg(24), intReg(24), intReg(1));
            b.ldq(ir(i), intReg(24), 8 * std::int64_t(rng.below(4)));
            break;
          }
          case 4: {
            b.andi(intReg(24), intReg(25), kWords / 2 - 1);
            b.slli(intReg(24), intReg(24), 3);
            b.add(intReg(24), intReg(24), intReg(1));
            b.stq(ir(i), intReg(24), 8 * std::int64_t(rng.below(4)));
            break;
          }
          case 5:
            b.fadd(fr(i), fr(i + 1), fr(i + 2));
            break;
          case 6:
            b.fmul(fr(i), fr(i + 2), fr(i + 5));
            break;
          case 7:
            if (rng.chance(0.3))
                b.fdivd(fr(i), fr(i + 1), fr(i + 3));
            else
                b.itof(fr(i), ir(i));
            break;
          case 8: {
            // Data-dependent forward branch over part of the body.
            if (pending_label < 0) {
                pending_label = b.newLabel();
                b.andi(intReg(24), intReg(25), 1 + rng.below(7));
                b.beq(intReg(24), pending_label);
            } else {
                b.sub(ir(i), ir(i + 4), ir(i + 1));
            }
            break;
          }
          case 9:
            if (has_helper && rng.chance(0.5)) {
                b.mov(intReg(23), ir(i));
                b.jsr(intReg(26), helper);
                b.add(ir(i), ir(i), intReg(24));
            } else {
                b.xori(ir(i), ir(i + 2), 0x55);
            }
            break;
        }
    }
    if (pending_label >= 0)
        b.bind(pending_label);

    b.subi(intReg(2), intReg(2), 1);
    b.bne(intReg(2), top);
    b.halt();
    return b.build();
}

} // namespace drsim

#endif // DRSIM_TESTS_FUZZ_PROGRAM_HH
