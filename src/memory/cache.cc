#include "memory/cache.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace drsim {

namespace {

/** Indexed by CacheKind. */
const char *const kCacheKindNames[] = {"perfect", "lockup",
                                       "lockup-free"};

} // namespace

const char *
cacheKindName(CacheKind kind)
{
    const auto i = std::size_t(kind);
    return i < std::size(kCacheKindNames) ? kCacheKindNames[i] : "?";
}

std::optional<CacheKind>
cacheKindFromName(const std::string &name)
{
    for (std::size_t i = 0; i < std::size(kCacheKindNames); ++i) {
        if (name == kCacheKindNames[i])
            return CacheKind(i);
    }
    return std::nullopt;
}

const char *
CacheConfig::geometryError() const
{
    if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
        return "line size must be a power of two";
    if (assoc == 0)
        return "associativity must be positive";
    const std::uint64_t setBytes = std::uint64_t(lineBytes) * assoc;
    if (sizeBytes % setBytes != 0)
        return "size must be a multiple of lineBytes * assoc";
    const std::uint64_t sets = sizeBytes / setBytes;
    if (sets == 0 || (sets & (sets - 1)) != 0)
        return "set count must be a power of two";
    return nullptr;
}

void
CacheConfig::validate() const
{
    if (const char *error = geometryError())
        fatal("cache ", error);
}

void
DCacheStats::merge(const DCacheStats &other)
{
    loads += other.loads;
    loadMisses += other.loadMisses;
    loadMerges += other.loadMerges;
    storesBuffered += other.storesBuffered;
    storeHits += other.storeHits;
    fetchesCancelled += other.fetchesCancelled;
    mshrRejections += other.mshrRejections;
}

template <typename Line>
TagArray<Line>::TagArray(const CacheConfig &config)
    : lineBytes_(config.lineBytes), assoc_(config.assoc)
{
    config.validate();
    numSets_ = config.sizeBytes / (lineBytes_ * assoc_);
    lines_.resize(std::size_t(numSets_) * assoc_);
}

template <typename Line>
std::uint32_t
TagArray<Line>::setOf(Addr addr) const
{
    return std::uint32_t(addr / lineBytes_) & (numSets_ - 1);
}

template <typename Line>
Addr
TagArray<Line>::tagOf(Addr addr) const
{
    return addr / lineBytes_ / numSets_;
}

template <typename Line>
Line *
TagArray<Line>::find(Addr addr)
{
    const Addr tag = tagOf(addr);
    Line *base = &at(setOf(addr), 0);
    for (std::uint32_t w = 0; w < assoc_; ++w)
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    return nullptr;
}

template <typename Line>
std::uint32_t
TagArray<Line>::victim(std::uint32_t set) const
{
    const Line *base = &lines_[std::size_t(set) * assoc_];
    std::uint32_t lru = assoc_; // "none eligible"
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].busy())
            continue;
        if (!base[w].valid)
            return w;
        if (lru == assoc_ || base[w].lastUsed < base[lru].lastUsed)
            lru = w;
    }
    return lru;
}

template <typename Line>
bool
TagArray<Line>::touch(Addr addr, Cycle stamp)
{
    if (Line *line = find(addr)) {
        line->lastUsed = stamp;
        return true;
    }
    const std::uint32_t set = setOf(addr);
    const std::uint32_t way = victim(set);
    if (way == assoc_)
        return false;
    Line &line = at(set, way);
    line = Line{};
    line.valid = true;
    line.tag = tagOf(addr);
    line.lastUsed = stamp;
    return false;
}

template <typename Line>
CacheWarmState
TagArray<Line>::warmState() const
{
    CacheWarmState out;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        if (!lines_[i].valid)
            continue;
        const std::size_t base = i - i % assoc_;
        std::uint32_t rank = 0;
        for (std::size_t w = base; w < base + assoc_; ++w)
            rank += lines_[w].valid &&
                    lines_[w].lastUsed < lines_[i].lastUsed;
        out.push_back({std::uint32_t(i), rank, lines_[i].tag});
    }
    return out;
}

template <typename Line>
void
TagArray<Line>::restoreWarmState(const CacheWarmState &state)
{
    for (const WarmLine &w : state) {
        if (w.index >= lines_.size())
            DRSIM_PANIC("warm line ", w.index, " outside a ",
                        lines_.size(), "-line cache");
        Line &line = lines_[w.index];
        line.valid = true;
        line.tag = w.tag;
        line.lastUsed = w.rank;
    }
}

DataCache::DataCache(CacheKind kind, const CacheConfig &config)
    : kind_(kind), config_(config), tags_(config)
{
}

void
DataCache::pruneFetches(Cycle now)
{
    for (auto f = fetches_.begin(); f != fetches_.end();) {
        if (f->second.fillAt <= now) {
            if (f->second.way != config_.assoc) {
                Line &line = tags_.at(f->second.set, f->second.way);
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

    if (Line *line = tags_.find(addr)) {
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
    const std::uint32_t set = tags_.setOf(addr);
    const std::uint32_t way = tags_.victim(set);
    Fetch fetch;
    fetch.id = nextFetchId_++;
    fetch.set = set;
    fetch.way = way;
    fetch.fillAt = fill_at;
    fetch.waiters.push_back(uid);
    if (way != config_.assoc) {
        Line &line = tags_.at(set, way);
        line.valid = true;
        line.tag = tags_.tagOf(addr);
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
    if (Line *line = tags_.find(addr)) {
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
        Line &line = tags_.at(it->second.set, it->second.way);
        if (line.fetchId == it->second.id) {
            line.valid = false;
            line.fetchId = -1;
        }
    }
    if (kind_ == CacheKind::Lockup)
        lockupBusyUntil_ = now + 1;
    fetches_.erase(it);
}

InstCache::InstCache(const CacheConfig &config)
    : config_(config), tags_(config)
{
}

Cycle
InstCache::fetch(Addr pc, Cycle now)
{
    ++accesses_;
    if (tags_.touch(pc, now))
        return now;
    ++misses_;
    return now + config_.missPenalty;
}

void
DataCache::warmLoad(Addr addr)
{
    if (kind_ != CacheKind::Perfect)
        tags_.touch(addr, ++warmTick_);
}

void
DataCache::warmStore(Addr addr)
{
    if (kind_ == CacheKind::Perfect)
        return;
    ++warmTick_;
    // Write-through/write-around: a store only refreshes the recency
    // of a line it hits, it never allocates.
    if (Line *line = tags_.find(addr))
        line->lastUsed = warmTick_;
}

CacheWarmState
DataCache::warmState() const
{
    return tags_.warmState();
}

void
DataCache::restoreWarmState(const CacheWarmState &state)
{
    tags_.restoreWarmState(state);
}

void
InstCache::warmFetch(Addr pc)
{
    tags_.touch(pc, ++warmTick_);
}

CacheWarmState
InstCache::warmState() const
{
    return tags_.warmState();
}

void
InstCache::restoreWarmState(const CacheWarmState &state)
{
    tags_.restoreWarmState(state);
}

} // namespace drsim
