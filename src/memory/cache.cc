#include "memory/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace drsim {

const char *
cacheKindName(CacheKind kind)
{
    switch (kind) {
      case CacheKind::Perfect:
        return "perfect";
      case CacheKind::Lockup:
        return "lockup";
      case CacheKind::LockupFree:
        return "lockup-free";
    }
    return "?";
}

void
CacheConfig::validate() const
{
    if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
        fatal("cache line size must be a power of two");
    if (assoc == 0)
        fatal("cache associativity must be positive");
    if (sizeBytes % (lineBytes * assoc) != 0)
        fatal("cache size must be a multiple of lineBytes * assoc");
    const std::uint32_t sets = sizeBytes / (lineBytes * assoc);
    if ((sets & (sets - 1)) != 0)
        fatal("cache set count must be a power of two");
}

DataCache::DataCache(CacheKind kind, const CacheConfig &config)
    : kind_(kind), config_(config)
{
    config_.validate();
    numSets_ = config_.sizeBytes / (config_.lineBytes * config_.assoc);
    lines_.resize(std::size_t(numSets_) * config_.assoc);
}

std::uint32_t
DataCache::setOf(Addr addr) const
{
    return std::uint32_t(addr / config_.lineBytes) & (numSets_ - 1);
}

Addr
DataCache::tagOf(Addr addr) const
{
    return addr / config_.lineBytes / numSets_;
}

DataCache::Line *
DataCache::findLine(Addr addr)
{
    const std::uint32_t set = setOf(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[std::size_t(set) * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    return nullptr;
}

std::uint32_t
DataCache::victimWay(std::uint32_t set) const
{
    const Line *base = &lines_[std::size_t(set) * config_.assoc];
    std::uint32_t victim = config_.assoc; // "none eligible"
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (base[w].fetchId >= 0)
            continue; // never evict a line that is mid-fill
        if (!base[w].valid)
            return w;
        if (victim == config_.assoc ||
            base[w].lastUsed < base[victim].lastUsed) {
            victim = w;
        }
    }
    return victim;
}

void
DataCache::pruneFetches(Cycle now)
{
    for (auto f = fetches_.begin(); f != fetches_.end();) {
        if (f->second.fillAt <= now) {
            if (f->second.way != config_.assoc) {
                Line &line =
                    lines_[std::size_t(f->second.set) * config_.assoc +
                           f->second.way];
                if (line.fetchId == f->second.id)
                    line.fetchId = -1;
            }
            f = fetches_.erase(f);
        } else {
            ++f;
        }
    }
}

bool
DataCache::loadCanIssue(Cycle now) const
{
    if (kind_ != CacheKind::Lockup)
        return true;
    return now >= lockupBusyUntil_;
}

LoadResult
DataCache::load(Addr addr, Cycle now, InstUid uid)
{
    ++stats_.loads;
    LoadResult res;

    if (kind_ == CacheKind::Perfect) {
        res.hit = true;
        res.readyCycle = now + hitUseLatency();
        return res;
    }

    pruneFetches(now);

    if (Line *line = findLine(addr)) {
        line->lastUsed = now;
        if (line->validFrom <= now) {
            res.hit = true;
            res.readyCycle = now + hitUseLatency();
            return res;
        }
        // Block is being fetched right now.
        if (kind_ == CacheKind::LockupFree && line->fetchId >= 0) {
            auto &fetch = fetches_.at(line->fetchId);
            fetch.waiters.push_back(uid);
            ++stats_.loadMerges;
            res.merged = true;
            res.fetchId = line->fetchId;
            res.readyCycle = std::max(fetch.fillAt + 1,
                                      now + hitUseLatency());
            return res;
        }
        // A lockup cache never exposes an in-flight line (no other
        // load can issue while the miss is outstanding), but guard
        // against it anyway.
        DRSIM_PANIC("probe of in-flight line in ", cacheKindName(kind_),
                    " cache");
    }

    // Miss: start a block fetch.
    if (kind_ == CacheKind::Lockup && now < lockupBusyUntil_)
        DRSIM_PANIC("lockup cache accepted a load while busy");

    if (config_.maxOutstandingMisses != 0 &&
        fetches_.size() >= config_.maxOutstandingMisses) {
        // Every MSHR is in use: refuse the load (extension knob; the
        // paper's inverted MSHR never rejects).
        --stats_.loads;
        ++stats_.mshrRejections;
        res.accepted = false;
        return res;
    }

    ++stats_.loadMisses;
    const Cycle fill_at = now + config_.hitLatency + config_.missPenalty;
    const std::uint32_t set = setOf(addr);
    const std::uint32_t way = victimWay(set);
    Fetch fetch;
    fetch.id = nextFetchId_++;
    fetch.set = set;
    fetch.way = way;
    fetch.fillAt = fill_at;
    fetch.waiters.push_back(uid);
    if (way != config_.assoc) {
        Line &line = lines_[std::size_t(set) * config_.assoc + way];
        line.valid = true;
        line.tag = tagOf(addr);
        line.validFrom = fill_at;
        line.lastUsed = now;
        line.fetchId = fetch.id;
    }
    // else: every way of the set is mid-fill; the block is delivered
    // to its destination registers only (inverted-MSHR style) and not
    // written into the array.
    res.fetchId = fetch.id;
    fetches_.emplace(fetch.id, std::move(fetch));
    res.readyCycle = fill_at + 1;

    if (kind_ == CacheKind::Lockup)
        lockupBusyUntil_ = fill_at;
    return res;
}

void
DataCache::drainWriteBuffer(Cycle now)
{
    if (config_.writeBufferEntries == 0 || wbOccupancy_ == 0)
        return;
    const Cycle elapsed = now > wbLastDrain_ ? now - wbLastDrain_ : 0;
    const Cycle drained = elapsed / config_.writeBufferDrainCycles;
    if (drained == 0)
        return;
    const std::uint32_t n =
        std::uint32_t(std::min<Cycle>(drained, wbOccupancy_));
    wbOccupancy_ -= n;
    wbLastDrain_ += Cycle(n) * config_.writeBufferDrainCycles;
}

bool
DataCache::storeCanCommit(Cycle now)
{
    if (config_.writeBufferEntries == 0)
        return true; // the paper's free, bandwidth-less buffer
    drainWriteBuffer(now);
    return wbOccupancy_ < config_.writeBufferEntries;
}

void
DataCache::storeCommit(Addr addr, Cycle now)
{
    ++stats_.storesBuffered;
    if (config_.writeBufferEntries != 0) {
        drainWriteBuffer(now);
        if (wbOccupancy_ == 0)
            wbLastDrain_ = now;
        ++wbOccupancy_;
    }
    if (kind_ == CacheKind::Perfect)
        return;
    pruneFetches(now);
    if (Line *line = findLine(addr)) {
        if (line->validFrom <= now) {
            // Write-through hit: update the line (LRU touch only; the
            // data itself lives in the functional emulator).
            line->lastUsed = now;
            ++stats_.storeHits;
        }
    }
    // Write-around on a miss: the data goes to the write buffer, which
    // consumes no bandwidth and never stalls (paper Section 2.1).
}

void
DataCache::squashLoad(std::int64_t fetch_id, InstUid uid, Cycle now)
{
    if (fetch_id < 0)
        return;
    const auto it = fetches_.find(fetch_id);
    if (it == fetches_.end())
        return; // fill already completed; the block stays
    if (it->second.fillAt <= now)
        return; // completing this cycle
    auto &waiters = it->second.waiters;
    const auto w = std::find(waiters.begin(), waiters.end(), uid);
    if (w != waiters.end())
        waiters.erase(w);
    if (!waiters.empty())
        return;
    // Every destination of this fetch was squashed: mark the fetch so
    // the block is not written into the cache (paper Section 2.2).
    ++stats_.fetchesCancelled;
    if (it->second.way != config_.assoc) {
        Line &line = lines_[std::size_t(it->second.set) * config_.assoc +
                            it->second.way];
        if (line.fetchId == it->second.id) {
            line.valid = false;
            line.fetchId = -1;
        }
    }
    if (kind_ == CacheKind::Lockup)
        lockupBusyUntil_ = now + 1;
    fetches_.erase(it);
}

InstCache::InstCache(const CacheConfig &config) : config_(config)
{
    config_.validate();
    numSets_ = config_.sizeBytes / (config_.lineBytes * config_.assoc);
    lines_.resize(std::size_t(numSets_) * config_.assoc);
}

Cycle
InstCache::fetch(Addr pc, Cycle now)
{
    ++accesses_;
    const std::uint32_t set =
        std::uint32_t(pc / config_.lineBytes) & (numSets_ - 1);
    const Addr tag = pc / config_.lineBytes / numSets_;
    Line *base = &lines_[std::size_t(set) * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUsed = now;
            return now;
        }
    }
    ++misses_;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (base[w].lastUsed < base[victim].lastUsed)
            victim = w;
    }
    base[victim].valid = true;
    base[victim].tag = tag;
    base[victim].lastUsed = now;
    return now + config_.missPenalty;
}

namespace {

/**
 * Shared tail of functional warming: rewrite each set's valid lines'
 * lastUsed to their recency rank (0 = oldest), so every warm stamp
 * sorts below any cycle number the detailed run will produce while
 * the warmed LRU order survives.  @p Line needs valid/lastUsed.
 */
template <typename Line>
void
rebaseWarmRanks(std::vector<Line> &lines, std::uint32_t num_sets,
                std::uint32_t assoc)
{
    std::vector<Line *> ways;
    for (std::uint32_t set = 0; set < num_sets; ++set) {
        Line *base = &lines[std::size_t(set) * assoc];
        ways.clear();
        for (std::uint32_t w = 0; w < assoc; ++w)
            if (base[w].valid)
                ways.push_back(&base[w]);
        std::sort(ways.begin(), ways.end(),
                  [](const Line *a, const Line *b) {
                      return a->lastUsed < b->lastUsed;
                  });
        for (std::size_t r = 0; r < ways.size(); ++r)
            ways[r]->lastUsed = Cycle(r);
    }
}

/** The valid lines of @p lines, with their ranks (see WarmLine). */
template <typename Line>
CacheWarmState
saveWarmLines(const std::vector<Line> &lines)
{
    CacheWarmState out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].valid) {
            out.push_back({std::uint32_t(i),
                           std::uint32_t(lines[i].lastUsed),
                           lines[i].tag});
        }
    }
    return out;
}

/** Overlay @p state on the never-touched @p lines. */
template <typename Line>
void
restoreWarmLines(std::vector<Line> &lines, const CacheWarmState &state)
{
    for (const WarmLine &w : state) {
        if (w.index >= lines.size())
            DRSIM_PANIC("warm line ", w.index, " outside a ",
                        lines.size(), "-line cache");
        Line &line = lines[w.index];
        line.valid = true;
        line.tag = w.tag;
        line.lastUsed = w.rank;
    }
}

} // namespace

void
DataCache::warmLoad(Addr addr)
{
    if (kind_ == CacheKind::Perfect)
        return;
    ++warmTick_;
    if (Line *line = findLine(addr)) {
        line->lastUsed = warmTick_;
        return;
    }
    const std::uint32_t set = setOf(addr);
    const std::uint32_t way = victimWay(set);
    if (way == config_.assoc)
        return; // unreachable pre-run (no line is mid-fill)
    Line &line = lines_[std::size_t(set) * config_.assoc + way];
    line.valid = true;
    line.tag = tagOf(addr);
    line.validFrom = 0;
    line.lastUsed = warmTick_;
    line.fetchId = -1;
}

void
DataCache::warmStore(Addr addr)
{
    if (kind_ == CacheKind::Perfect)
        return;
    ++warmTick_;
    // Write-through/write-around: a store only refreshes the recency
    // of a line it hits, it never allocates.
    if (Line *line = findLine(addr))
        line->lastUsed = warmTick_;
}

void
DataCache::finishWarm()
{
    if (warmTick_ == 0)
        return;
    rebaseWarmRanks(lines_, numSets_, config_.assoc);
    warmTick_ = 0;
}

CacheWarmState
DataCache::warmState() const
{
    return saveWarmLines(lines_);
}

void
DataCache::restoreWarmState(const CacheWarmState &state)
{
    restoreWarmLines(lines_, state);
}

void
InstCache::warmFetch(Addr pc)
{
    ++warmTick_;
    const std::uint32_t set =
        std::uint32_t(pc / config_.lineBytes) & (numSets_ - 1);
    const Addr tag = pc / config_.lineBytes / numSets_;
    Line *base = &lines_[std::size_t(set) * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUsed = warmTick_;
            return;
        }
    }
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (base[w].lastUsed < base[victim].lastUsed)
            victim = w;
    }
    base[victim].valid = true;
    base[victim].tag = tag;
    base[victim].lastUsed = warmTick_;
}

void
InstCache::finishWarm()
{
    if (warmTick_ == 0)
        return;
    rebaseWarmRanks(lines_, numSets_, config_.assoc);
    warmTick_ = 0;
}

CacheWarmState
InstCache::warmState() const
{
    return saveWarmLines(lines_);
}

void
InstCache::restoreWarmState(const CacheWarmState &state)
{
    restoreWarmLines(lines_, state);
}

} // namespace drsim
