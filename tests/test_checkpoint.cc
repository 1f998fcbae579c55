/**
 * @file
 * Tests for the emulator's architectural snapshots (EmuArchState) and
 * functional fast-forward: save/restore round-trips at arbitrary step
 * counts on every tier-1 kernel, equivalence of fastForward() with
 * step-by-step architectural execution (state and FfObserver event
 * stream), and snapshot fidelity in the presence of wrong-path residue
 * in the overflow memory map.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "workloads/builder.hh"
#include "workloads/classic.hh"
#include "workloads/emulator.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace {

/** Architecturally run @p emu to its halt and return its hash. */
std::uint64_t
runToHalt(Emulator &emu)
{
    while (!emu.fetchBlocked())
        emu.stepArch();
    return emu.stateHash();
}

TEST(Checkpoint, FastForwardMatchesStepByStep)
{
    for (const Workload &w : buildSpec92Suite(1)) {
        Emulator stepped(w.program);
        Emulator forwarded(w.program);
        // fastForward() leaves the Halt unexecuted; step up to it.
        while (!stepped.fetchBlocked() &&
               stepped.peek()->op != Opcode::Halt)
            stepped.stepArch();
        ASSERT_FALSE(stepped.fetchBlocked()) << w.spec->name;
        const std::uint64_t n = stepped.stepsExecuted();
        EXPECT_EQ(forwarded.fastForward(~std::uint64_t{0}), n)
            << w.spec->name;
        EXPECT_EQ(forwarded.stateHash(), stepped.stateHash())
            << w.spec->name;
        EXPECT_EQ(forwarded.stepsExecuted(), n) << w.spec->name;
        ASSERT_FALSE(forwarded.fetchBlocked()) << w.spec->name;
        EXPECT_EQ(forwarded.pc(), stepped.pc()) << w.spec->name;
    }
}

/** One FfObserver callback: kind ('f'etch, 'm'em, 'b'ranch), address
 *  (fetch/branch PC or effective address), and store/taken flag. */
using FfEvent = std::tuple<char, Addr, bool>;

struct FfRecorder : Emulator::FfObserver
{
    std::vector<FfEvent> events;
    void ffFetch(Addr pc) override { events.emplace_back('f', pc, false); }
    void
    ffMem(Addr addr, bool is_store) override
    {
        events.emplace_back('m', addr, is_store);
    }
    void
    ffBranch(Addr pc, bool taken) override
    {
        events.emplace_back('b', pc, taken);
    }
};

/** The observer stream fastForward() must produce, derived from
 *  stepArch()'s StepInfo up to (not including) the Halt. */
std::vector<FfEvent>
streamFromStepArch(const Program &prog)
{
    Emulator emu(prog);
    std::vector<FfEvent> events;
    while (!emu.fetchBlocked() && emu.peek()->op != Opcode::Halt) {
        const StepInfo info = emu.stepArch();
        events.emplace_back('f', info.pc, false);
        switch (opTraits(info.inst->op).cls) {
          case OpClass::MemLoad:
            events.emplace_back('m', info.effAddr, false);
            break;
          case OpClass::MemStore:
            events.emplace_back('m', info.effAddr, true);
            break;
          case OpClass::CtrlCond:
            events.emplace_back('b', info.pc, info.actualTaken);
            break;
          default:
            break;
        }
    }
    return events;
}

std::vector<FfEvent>
streamFromFastForward(const Program &prog)
{
    Emulator emu(prog);
    FfRecorder rec;
    emu.setFfObserver(&rec);
    emu.fastForward(~std::uint64_t{0});
    return rec.events;
}

TEST(Checkpoint, FfObserverStreamMatchesStepArch)
{
    for (const Workload &w : buildSpec92Suite(1)) {
        const std::vector<FfEvent> expect = streamFromStepArch(w.program);
        ASSERT_FALSE(expect.empty()) << w.spec->name;
        EXPECT_TRUE(streamFromFastForward(w.program) == expect)
            << w.spec->name;
    }
    for (const auto &[name, prog] : buildClassicSuite()) {
        const std::vector<FfEvent> expect = streamFromStepArch(prog);
        ASSERT_FALSE(expect.empty()) << name;
        EXPECT_TRUE(streamFromFastForward(prog) == expect) << name;
    }
}

TEST(Checkpoint, FfObserverReportsFallThroughToOwnTarget)
{
    // A conditional branch whose target is its own fallthrough: both
    // directions reach the same instruction, so only the resolved
    // condition can say which one was taken.
    ProgramBuilder b("selftarget");
    const auto next = b.newLabel();
    b.bne(intReg(kZeroReg), next); // r31 reads 0: falls through
    b.bind(next);
    b.li(intReg(1), 3);
    b.halt();
    const Program prog = b.build();

    Emulator ref(prog);
    const Addr branch_pc = ref.pc();
    const StepInfo info = ref.stepArch();
    EXPECT_FALSE(info.actualTaken);

    const std::vector<FfEvent> events = streamFromFastForward(prog);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[1], FfEvent('b', branch_pc, false));
    EXPECT_TRUE(events == streamFromStepArch(prog));
}

TEST(Checkpoint, FastForwardStopsBeforeHalt)
{
    ProgramBuilder b("tiny");
    b.li(intReg(1), 7);
    b.add(intReg(2), intReg(1), intReg(1));
    b.halt();
    Emulator emu(b.build());
    // Asking for far more than the program has leaves the Halt
    // unexecuted, so a detailed run can still fetch and commit it.
    EXPECT_EQ(emu.fastForward(1000), 2u);
    EXPECT_FALSE(emu.fetchBlocked());
    ASSERT_NE(emu.peek(), nullptr);
    EXPECT_EQ(emu.peek()->op, Opcode::Halt);
    EXPECT_EQ(emu.intRegBits(2), 14u);
}

TEST(Checkpoint, SaveRestoreRoundTripEveryKernel)
{
    for (const Workload &w : buildSpec92Suite(1)) {
        // Reference: uninterrupted architectural run.
        Emulator ref(w.program);
        const std::uint64_t final_hash = runToHalt(ref);
        const std::uint64_t total = ref.stepsExecuted();

        // Save at several arbitrary points, restore into a *fresh*
        // emulator, finish, and demand the identical final state.
        for (const std::uint64_t at :
             {std::uint64_t{1}, total / 3, total / 2, total - 1}) {
            Emulator src(w.program);
            ASSERT_EQ(src.fastForward(at), at) << w.spec->name;
            const EmuArchState snap = src.saveArchState();
            EXPECT_EQ(snap.steps, at);

            Emulator dst(w.program);
            dst.restoreArchState(snap);
            EXPECT_EQ(dst.stepsExecuted(), at) << w.spec->name;
            EXPECT_EQ(dst.stateHash(), src.stateHash())
                << w.spec->name << " at step " << at;
            EXPECT_EQ(runToHalt(dst), final_hash)
                << w.spec->name << " restored at step " << at;
            EXPECT_EQ(dst.stepsExecuted(), total) << w.spec->name;
        }
    }
}

TEST(Checkpoint, SaveIsolatesFromDonorMutation)
{
    const Workload w = buildWorkload("compress", 1);
    Emulator src(w.program);
    src.fastForward(200);
    const EmuArchState snap = src.saveArchState();
    const std::uint64_t hash_at_save = src.stateHash();
    runToHalt(src); // mutate the donor past the snapshot

    Emulator dst(w.program);
    dst.restoreArchState(snap);
    EXPECT_EQ(dst.stateHash(), hash_at_save);
}

TEST(Checkpoint, RoundTripWithWrongPathMemGarbage)
{
    // A store to an address far outside the bump-allocated data
    // segment lands in the overflow map (mem_) — exactly what a
    // wrong-path store through a garbage register does during
    // speculative fetch.  The snapshot must carry that residue so the
    // restored emulator hashes identically.
    ProgramBuilder b("garbage");
    const Addr cell = b.allocWords(1);
    b.initWord(cell, 5);
    b.li(intReg(1), std::int64_t(cell));
    b.li(intReg(2), 0x7f000000);              // far outside the segment
    b.li(intReg(3), 0xabcd);
    b.stq(intReg(3), intReg(2), 0);           // overflow-map store
    b.ldq(intReg(4), intReg(1), 0);
    b.add(intReg(5), intReg(4), intReg(3));
    b.halt();
    const Program prog = b.build();

    Emulator src(prog);
    ASSERT_EQ(src.fastForward(1000), 6u);
    EXPECT_EQ(src.memWord(0x7f000000), 0xabcdu);
    const EmuArchState snap = src.saveArchState();
    EXPECT_FALSE(snap.mem.empty());

    Emulator dst(prog);
    dst.restoreArchState(snap);
    EXPECT_EQ(dst.memWord(0x7f000000), 0xabcdu);
    EXPECT_EQ(dst.stateHash(), src.stateHash());
}

TEST(Checkpoint, RoundTripAfterSpeculativeRollback)
{
    // Exercise the interaction with the undo-log machinery: run a
    // wrong path under a checkpoint, roll back, *then* snapshot.  The
    // snapshot must capture the post-rollback architectural state and
    // restoring it must clear any stale undo bookkeeping.
    for (const Workload &w : buildSpec92Suite(1)) {
        Emulator emu(w.program);
        emu.fastForward(50);
        const std::uint64_t clean_hash = emu.stateHash();

        const EmuCheckpoint cp = emu.takeCheckpoint();
        const Addr resume = emu.pc();
        for (int i = 0; i < 20 && !emu.fetchBlocked(); ++i)
            emu.stepArch(); // pretend wrong path
        emu.rollbackTo(cp, resume);
        emu.releaseCheckpoint(cp);
        ASSERT_EQ(emu.stateHash(), clean_hash) << w.spec->name;
        ASSERT_EQ(emu.liveCheckpoints(), 0u) << w.spec->name;

        const EmuArchState snap = emu.saveArchState();
        Emulator fresh(w.program);
        fresh.restoreArchState(snap);
        EXPECT_EQ(fresh.stateHash(), clean_hash) << w.spec->name;
        EXPECT_EQ(runToHalt(fresh), runToHalt(emu)) << w.spec->name;
    }
}

} // namespace
} // namespace drsim
