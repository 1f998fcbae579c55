#include "sim/ckpt_store.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "bpred/predictor.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/config.hh"
#include "workloads/digest.hh"
#include "workloads/program.hh"

namespace drsim {

namespace {

/** Bump when the snapshot format or boundary placement changes. */
constexpr const char *kBuiltinCkptRev = "ckpt-v3";

/** Leading magic of every snapshot file. */
constexpr std::string_view kStateMagic = "DRSIMCK1";

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

/** Append @p v's bytes (host byte order) to a snapshot file. */
template <class T>
void
put(std::string &out, const T &v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

/** Sequential reader over a snapshot file's bytes. */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : rest_(bytes) {}

    bool
    read(void *dst, std::size_t n)
    {
        if (rest_.size() < n)
            return false;
        std::copy_n(rest_.data(), n, static_cast<char *>(dst));
        rest_.remove_prefix(n);
        return true;
    }

    template <class T>
    bool get(T &v) { return read(&v, sizeof(v)); }

    std::size_t left() const { return rest_.size(); }

  private:
    std::string_view rest_;
};

std::string
stateSuffix(std::uint64_t pos)
{
    return ".p" + std::to_string(pos) + ".bin";
}

/** The meta file: key text, arch length, positions. */
std::string
encodeMeta(const std::string &key_text, const std::string &hash,
           const std::string &rev, const SampleCkpts &plan)
{
    json::Writer w;
    w.beginObject();
    w.key("drsim_ckpt").value(2);
    w.key("computed_at_rev").value(rev);
    w.key("key_hash").value(hash);
    w.key("key").value(key_text);
    w.key("arch_length").value(plan.archLength);
    w.key("positions").beginArray();
    for (const std::uint64_t p : plan.positions)
        w.value(p);
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

/**
 * Decode a meta file into @p plan; "" or why it is unusable.  Every
 * position before the last is a detail start, so they lie at least
 * one detailed phase (@p detail instructions) after their
 * predecessor (or reset), and all before the arch length.
 */
std::string
decodeMeta(const std::string &bytes, const std::string &key_text,
           std::uint64_t detail, SampleCkpts &plan)
{
    const json::Value doc = json::parse(bytes);
    if (!doc.isObject() || doc.at("drsim_ckpt").asU64() != 2)
        return "not a v2 checkpoint meta";
    if (doc.at("key").asString() != key_text)
        return "key text mismatch (hash collision or stale generator)";
    plan.archLength = doc.at("arch_length").asU64();
    plan.positions.clear();
    for (const json::Value &p : doc.at("positions").items())
        plan.positions.push_back(p.asU64());
    if (plan.positions.empty() ||
        plan.positions.back() != plan.archLength)
        return "inconsistent position list";
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i + 1 < plan.positions.size(); ++i) {
        const std::uint64_t p = plan.positions[i];
        if (p < prev || p - prev < detail || p >= plan.archLength)
            return "inconsistent position list";
        prev = p;
    }
    return "";
}

/** The DRSIMCK1 snapshot file for @p state at @p pos. */
std::string
encodeState(std::uint64_t key_hash, std::uint64_t pos,
            const EmuArchState &state)
{
    std::string out(kStateMagic);
    put(out, key_hash);
    put(out, pos);
    put(out, std::int32_t(state.loc.block));
    put(out, std::int32_t(state.loc.offset));
    put(out, state.steps);
    put(out, std::uint64_t(state.dataLimit));
    put(out, state.intRegs);
    put(out, state.fpRegs);
    put(out, std::uint64_t(state.data.size()));
    out.append(reinterpret_cast<const char *>(state.data.data()),
               state.data.size() * sizeof(std::uint64_t));
    // Sorted so racing writers publish identical bytes.
    std::vector<std::pair<Addr, std::uint64_t>> mem(state.mem.begin(),
                                                    state.mem.end());
    std::sort(mem.begin(), mem.end());
    put(out, std::uint64_t(mem.size()));
    for (const auto &[addr, word] : mem) {
        put(out, std::uint64_t(addr));
        put(out, word);
    }
    put(out, archStateHash(state));
    return out;
}

/** Decode a snapshot file into @p state; "" or why it is unusable. */
std::string
decodeState(const std::string &bytes, std::uint64_t key_hash,
            std::uint64_t pos, EmuArchState &state)
{
    if (bytes.compare(0, kStateMagic.size(), kStateMagic) != 0)
        return "bad magic";
    Reader in(std::string_view(bytes).substr(kStateMagic.size()));

    std::uint64_t hash = 0, position = 0;
    if (!in.get(hash) || !in.get(position))
        return "truncated header";
    if (hash != key_hash || position != pos)
        return "header mismatch";

    std::int32_t block = 0, offset = 0;
    std::uint64_t data_limit = 0;
    if (!in.get(block) || !in.get(offset) || !in.get(state.steps) ||
        !in.get(data_limit))
        return "truncated header";
    state.loc.block = block;
    state.loc.offset = offset;
    state.dataLimit = data_limit;
    if (!in.get(state.intRegs) || !in.get(state.fpRegs))
        return "truncated registers";

    std::uint64_t data_words = 0;
    if (!in.get(data_words) || data_words > in.left() / 8)
        return "truncated data segment";
    state.data.resize(std::size_t(data_words));
    in.read(state.data.data(), state.data.size() * sizeof(std::uint64_t));

    std::uint64_t mem_count = 0;
    if (!in.get(mem_count) || mem_count > in.left() / 16)
        return "truncated sparse memory";
    state.mem.clear();
    for (std::uint64_t i = 0; i < mem_count; ++i) {
        std::uint64_t addr = 0, word = 0;
        in.get(addr);
        in.get(word);
        state.mem.emplace(addr, word);
    }

    std::uint64_t stored_hash = 0;
    if (!in.get(stored_hash))
        return "missing state hash";
    if (in.left() != 0)
        return "trailing bytes";
    if (stored_hash != archStateHash(state) || state.steps != pos)
        return "state hash mismatch";
    return "";
}

} // namespace

std::string
ckptRev()
{
    const char *env = std::getenv("DRSIM_CKPT_REV");
    if (env != nullptr && env[0] != '\0')
        return env;
    return kBuiltinCkptRev;
}

std::string
ckptKeyText(const CkptKey &key, const std::string &rev)
{
    std::ostringstream os;
    os << "drsim-ckpt-v1\n"
       << "rev=" << rev << "\n"
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

CkptStore::CkptStore(std::string dir, std::string rev,
                     std::uint64_t max_bytes)
    : rev_(std::move(rev)),
      disk_(std::move(dir),
            max_bytes == ~std::uint64_t{0}
                ? envU64("DRSIM_CKPT_MAX_BYTES", 0)
                : max_bytes,
            "checkpoint")
{
}

std::string
CkptStore::statePath(const CkptKey &key, std::uint64_t pos) const
{
    return disk_.path(fnv1aHex(ckptKeyText(key, rev_)), stateSuffix(pos));
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

std::shared_ptr<const SampleCkpts>
CkptStore::buildPlan(const std::string &key_text, const CkptKey &key,
                     const Program &program, AcquireOutcome &out)
{
    const std::string hash = fnv1aHex(key_text);
    const std::uint64_t key_hash = std::stoull(hash, nullptr, 16);
    auto plan = std::make_shared<SampleCkpts>();
    std::uint64_t stores = 0;
    const auto storeState = [&](std::uint64_t pos,
                                const EmuArchState &state) {
        if (disk_.publish(hash, stateSuffix(pos),
                          encodeState(key_hash, pos, state)))
            ++stores;
    };

    bool have_meta =
        disk_.load(hash, ".json", [&](const std::string &bytes) {
            return decodeMeta(bytes, key_text, key.warmup + key.window,
                              *plan);
        });
    if (have_meta) {
        // Load each snapshot; regenerate any miss by fast-forwarding
        // from the nearest earlier good state (or reset).
        std::unique_ptr<Emulator> emu;
        for (std::uint64_t pos : plan->positions) {
            EmuArchState state;
            if (disk_.load(hash, stateSuffix(pos),
                           [&](const std::string &bytes) {
                               return decodeState(bytes, key_hash, pos,
                                                  state);
                           })) {
                plan->states.push_back(std::move(state));
                ++out.diskHits;
                continue;
            }
            if (!emu)
                emu = std::make_unique<Emulator>(program);
            if (!plan->states.empty() &&
                plan->states.back().steps > emu->stepsExecuted())
                emu->restoreArchState(plan->states.back());
            const std::uint64_t cur = emu->stepsExecuted();
            if (cur > pos ||
                emu->fastForward(pos - cur) != pos - cur) {
                // The meta's positions disagree with the program
                // (stale digest collision, hand-edited file): the
                // whole entry is untrustworthy.
                disk_.reject(hash, ".json",
                             "positions unreachable by emulation");
                have_meta = false;
                break;
            }
            plan->states.push_back(emu->saveArchState());
            ++out.generated;
            storeState(pos, plan->states.back());
        }
    }

    if (!have_meta) {
        out.diskHits = 0;
        *plan = generateSampleCkpts(key, program);
        out.generated = plan->states.size();
        if (disk_.enabled()) {
            for (std::size_t i = 0; i < plan->positions.size(); ++i)
                storeState(plan->positions[i], plan->states[i]);
            disk_.publish(hash, ".json",
                          encodeMeta(key_text, hash, rev_, *plan));
        }
    }
    if (out.generated != 0)
        disk_.trim();

    std::lock_guard<std::mutex> lock(mutex_);
    stats_.hits += out.diskHits;
    stats_.misses += out.generated;
    stats_.stores += stores;
    if (out.generated != 0)
        ++stats_.generated;
    return plan;
}

CkptStore::AcquireOutcome
CkptStore::acquire(const CkptKey &key, const Program &program)
{
    const std::string key_text = ckptKeyText(key, rev_);
    AcquireOutcome out;
    Memory::Via via = Memory::Via::Owner;
    out.plan = memory_.get(
        key_text,
        [&] { return buildPlan(key_text, key, program, out); }, &via);
    out.fromMemory = via != Memory::Via::Owner;
    out.coalesced = via == Memory::Via::Coalesced;
    if (out.fromMemory) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.memoryHits;
    }
    return out;
}

std::shared_ptr<const WarmStates>
CkptStore::acquireWarm(const CkptKey &key, const SampleCkpts &plan,
                       const Program &program, const WarmKey &warm)
{
    return warm_.get(
        ckptKeyText(key, rev_) + warmKeyText(warm),
        [&] {
            return std::make_shared<const WarmStates>(
                generateWarmStates(key, plan, program, warm));
        });
}

CkptStore::Stats
CkptStore::stats() const
{
    const ContentStore::Stats disk = disk_.stats();
    const Memory::Stats memory = memory_.stats();
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s = stats_;
    s.corrupt = disk.corrupt;
    s.evicted = disk.evicted;
    s.coalesced = memory.coalesced;
    s.warmPasses = warm_.stats().owned;
    return s;
}

CkptStore &
ckptLibrary()
{
    static std::mutex mutex;
    static std::unique_ptr<CkptStore> store;
    static std::string signature;

    const char *dir_env = std::getenv("DRSIM_CKPT_DIR");
    const std::string dir = dir_env != nullptr ? dir_env : "";
    const std::string rev = ckptRev();
    const std::uint64_t max_bytes = envU64("DRSIM_CKPT_MAX_BYTES", 0);
    const std::string sig = dir + "\x1f" + rev + "\x1f" +
                            std::to_string(max_bytes);

    std::lock_guard<std::mutex> lock(mutex);
    if (!store || signature != sig) {
        // Rebuilding drops the in-memory tier; tests flip the env
        // between runs to force cold/warm paths.  Changing it while
        // simulations are in flight is unsupported.
        store = std::make_unique<CkptStore>(dir, rev, max_bytes);
        signature = sig;
    }
    return *store;
}

} // namespace drsim
