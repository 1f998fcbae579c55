#include "sim/ckpt_store.hh"

#include <algorithm>
#include <sstream>

#include "bpred/predictor.hh"
#include "common/logging.hh"
#include "core/config.hh"
#include "workloads/digest.hh"
#include "workloads/program.hh"

namespace drsim {

namespace {

/**
 * The jittered gap sequence between detailed phases.  This is the
 * PR 7 sampling driver's LCG, hoisted here so boundary placement is
 * owned by the checkpoint library: the sampling driver derives its
 * fast-forward lengths *from* the stored positions, which keeps the
 * serial, window-parallel, and checkpoint-warm paths on byte-identical
 * plans by construction.  Jittering each gap uniformly over
 * [ff_len/2, 3*ff_len/2) breaks the aliasing between fixed-stride
 * windows and periodic kernels while preserving the mean sampling
 * rate; the constant seed keeps a given (program, plan) deterministic.
 */
class GapSequence
{
  public:
    explicit GapSequence(const CkptKey &key)
        : ffLen_(key.interval - key.warmup - key.window)
    {
    }

    std::uint64_t
    next()
    {
        lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t span = std::max<std::uint64_t>(ffLen_, 1);
        return ffLen_ / 2 + (lcg_ >> 33) % span;
    }

  private:
    std::uint64_t ffLen_;
    std::uint64_t lcg_ = 0x9e3779b97f4a7c15ull;
};

} // namespace

std::string
ckptKeyText(const CkptKey &key)
{
    std::ostringstream os;
    os << "drsim-ckpt-v1\n"
       << "workload=" << key.workload << "\n"
       << "program_digest=" << key.digest << "\n"
       << "interval=" << key.interval << "\n"
       << "window=" << key.window << "\n"
       << "warmup=" << key.warmup << "\n";
    return os.str();
}

CkptKey
ckptKeyFor(const std::string &workload, const Program &program,
           const SamplingConfig &sampling)
{
    CkptKey key;
    key.workload = workload;
    key.digest = programDigest(program);
    key.interval = sampling.interval;
    key.window = sampling.window;
    key.warmup = sampling.warmup;
    return key;
}

WarmKey
warmKeyFor(const CoreConfig &config)
{
    WarmKey key;
    key.perfectDCache = config.cacheKind == CacheKind::Perfect;
    key.dcacheSize = config.dcache.sizeBytes;
    key.dcacheAssoc = config.dcache.assoc;
    key.dcacheLine = config.dcache.lineBytes;
    key.icacheSize = config.icache.sizeBytes;
    key.icacheAssoc = config.icache.assoc;
    key.icacheLine = config.icache.lineBytes;
    key.predictor = config.predictor;
    key.warmff = config.sampling.warmff;
    return key;
}

std::string
warmKeyText(const WarmKey &key)
{
    std::ostringstream os;
    os << "warm_dcache=" << (key.perfectDCache ? "perfect" : "tags")
       << ":" << key.dcacheSize << ":" << key.dcacheAssoc << ":"
       << key.dcacheLine << "\n"
       << "warm_icache=" << key.icacheSize << ":" << key.icacheAssoc
       << ":" << key.icacheLine << "\n"
       << "warm_predictor=" << key.predictor << "\n"
       << "warmff=" << key.warmff << "\n";
    return os.str();
}

const EmuArchState *
SampleCkpts::stateAt(std::uint64_t pos) const
{
    const auto it =
        std::lower_bound(positions.begin(), positions.end(), pos);
    if (it == positions.end() || *it != pos)
        return nullptr;
    return &states[std::size_t(it - positions.begin())];
}

CkptStore::CkptStore(const std::string &retired_dir)
{
    if (!retired_dir.empty())
        fatal("checkpoint library: the disk tier is retired; got "
              "directory '", retired_dir, "'");
}

/**
 * Generate the full plan from reset: fast-forward one period
 * (warmup + window, then the jittered gap) at a time, snapshotting at
 * every detail start, until the emulator stops at the program's
 * architectural end.  The final snapshot always sits at archLength —
 * it is the restore point for the detailed tail that commits the
 * Halt.
 */
SampleCkpts
generateSampleCkpts(const CkptKey &key, const Program &program)
{
    SampleCkpts plan;
    Emulator emu(program);
    GapSequence gaps(key);
    std::uint64_t pos = 0;
    const std::uint64_t detail = key.warmup + key.window;
    while (true) {
        // This period's detailed phase (warm-up + window), then the
        // gap.  A snapshot is published only once the next detail
        // start is reached, so a halt mid-gap never leaves a
        // checkpoint whose window could not run.
        std::uint64_t stepped = emu.fastForward(detail);
        pos += stepped;
        if (stepped < detail)
            break;
        const std::uint64_t gap = gaps.next();
        stepped = emu.fastForward(gap);
        pos += stepped;
        if (stepped < gap)
            break;
        plan.positions.push_back(pos);
        plan.states.push_back(emu.saveArchState());
    }
    // Halt (or a blocked fetch) is at pos: this is the architectural
    // end.  Dedupe against a detail start that landed exactly there.
    if (plan.positions.empty() || plan.positions.back() != pos) {
        plan.positions.push_back(pos);
        plan.states.push_back(emu.saveArchState());
    }
    plan.archLength = pos;
    return plan;
}

namespace {

/**
 * The warming replay's view of one configuration: its caches and
 * branch predictor, trained by the architectural stream the way the
 * pipeline would train them on a perfectly predicted run — fetches
 * touch the instruction cache, loads fill and stores refresh the data
 * cache, and each conditional branch is predicted (to age the
 * history), then updated against the history the prediction used.
 * No timing and no stats.
 */
class FunctionalWarmer : public Emulator::FfObserver
{
  public:
    /** A cold machine of @p key's configuration. */
    explicit FunctionalWarmer(const WarmKey &key)
        : pred_(makeBranchPredictor(key.predictor)),
          dcache_(key.perfectDCache ? CacheKind::Perfect
                                    : CacheKind::LockupFree,
                  geometry(key.dcacheSize, key.dcacheAssoc,
                           key.dcacheLine)),
          icache_(geometry(key.icacheSize, key.icacheAssoc,
                           key.icacheLine))
    {
    }

    /** The emulator holds its address while it replays. */
    FunctionalWarmer(const FunctionalWarmer &) = delete;
    FunctionalWarmer &operator=(const FunctionalWarmer &) = delete;

    /** The warm state this replay built. */
    WarmState
    capture()
    {
        icache_.finishWarm();
        dcache_.finishWarm();
        return {icache_.warmState(), dcache_.warmState(),
                pred_->saveState()};
    }

    void ffFetch(Addr pc) override { icache_.warmFetch(pc); }

    void
    ffMem(Addr addr, bool is_store) override
    {
        if (is_store)
            dcache_.warmStore(addr);
        else
            dcache_.warmLoad(addr);
    }

    void
    ffBranch(Addr pc, bool taken) override
    {
        pred_->update(pc, pred_->history(), taken);
        pred_->shiftHistory(taken);
    }

  private:
    static CacheConfig
    geometry(std::uint32_t size, std::uint32_t assoc, std::uint32_t line)
    {
        CacheConfig c;
        c.sizeBytes = size;
        c.assoc = assoc;
        c.lineBytes = line;
        return c;
    }

    std::unique_ptr<BranchPredictor> pred_;
    DataCache dcache_;
    InstCache icache_;
};

} // namespace

/**
 * One functional pass over the program: skip to each window's warm
 * start (its detail start minus the warming horizon — min(warmff,
 * gap), the whole gap when warmff is 0), replay the rest of the gap
 * into a cold FunctionalWarmer, and capture the result.  Each window
 * warms from a cold machine: the state is a function of its own
 * warming stretch alone.
 */
WarmStates
generateWarmStates(const CkptKey &key, const SampleCkpts &plan,
                   const Program &program, const WarmKey &warm)
{
    WarmStates out;
    Emulator emu(program);
    const std::uint64_t detail = key.warmup + key.window;
    std::uint64_t pos = 0;
    std::uint64_t gap_start = detail;
    for (const std::uint64_t start : plan.positions) {
        if (start >= plan.archLength)
            break;
        if (start < gap_start)
            DRSIM_PANIC("detail start ", start, " inside the detailed "
                        "phase ending at ", gap_start);
        const std::uint64_t gap = start - gap_start;
        const std::uint64_t replay =
            warm.warmff == 0 ? gap : std::min(warm.warmff, gap);
        const std::uint64_t skip = start - replay - pos;
        if (emu.fastForward(skip) != skip)
            fatal("functional warming: plan position ", start,
                  " is past the program's end");
        FunctionalWarmer warmer(warm);
        emu.setFfObserver(&warmer);
        const std::uint64_t warmed = emu.fastForward(replay);
        emu.setFfObserver(nullptr);
        if (warmed != replay)
            fatal("functional warming: plan position ", start,
                  " is past the program's end");
        out.push_back(warmer.capture());
        pos = start;
        gap_start = start + detail;
    }
    return out;
}

CkptStore::AcquireOutcome
CkptStore::acquire(const CkptKey &key, const Program &program)
{
    AcquireOutcome out;
    Memory::Via via = Memory::Via::Owner;
    out.plan = memory_.get(
        ckptKeyText(key),
        [&] {
            auto plan = std::make_shared<const SampleCkpts>(
                generateSampleCkpts(key, program));
            out.generated = plan->states.size();
            return plan;
        },
        &via);
    out.fromMemory = via != Memory::Via::Owner;
    out.coalesced = via == Memory::Via::Coalesced;
    return out;
}

std::shared_ptr<const WarmStates>
CkptStore::acquireWarm(const CkptKey &key, const SampleCkpts &plan,
                       const Program &program, const WarmKey &warm)
{
    return warm_.get(
        ckptKeyText(key) + warmKeyText(warm),
        [&] {
            return std::make_shared<const WarmStates>(
                generateWarmStates(key, plan, program, warm));
        });
}

CkptStore::Stats
CkptStore::stats() const
{
    const Memory::Stats memory = memory_.stats();
    Stats s;
    s.generated = memory.owned;
    s.coalesced = memory.coalesced;
    s.memoryHits = memory.hits + memory.coalesced;
    s.warmPasses = warm_.stats().owned;
    return s;
}

CkptStore &
ckptLibrary()
{
    static CkptStore store;
    return store;
}

} // namespace drsim
