/**
 * @file
 * The content-addressed store behind every drsim cache.  The disk tier
 * (ContentStore) has one client, the sweep-point cache
 * (serve/point_cache).  The memory tier (MemoryTier) keeps the
 * checkpoint library's plans and warm states (sim/ckpt_store, memory
 * only), the serve daemon's resident points (serve/service) and its
 * suite memo (serve/server).  Each client owns only its key text, its
 * payload encoding and its statistics; every storage decision lives
 * here (DESIGN.md §5g).
 *
 * Disk tier: an entry is an immutable file <dir>/<hh>/<hash><suffix>,
 * where <hh> is the first two digits of the hash of the client's key
 * text (a fan-out level) and the suffix lets one key own several files.
 * Entries appear by atomic rename of a unique temp file, so readers in
 * any thread or process see no entry or a complete one.  A write
 * failure is warned about and never fatal: the caller keeps the value,
 * it is just not on disk.  A file the client's decoder rejects is
 * warned about, unlinked and counted, and the load is a miss.  Loads
 * bump the file's mtime, and trim() deletes least-recently-touched
 * files until the directory fits the byte cap.
 *
 * Memory tier: one resident value per key text, with concurrent
 * generation coalesced — the first request computes and later requests
 * of the same key wait for it.  An error reaches every waiter but is
 * not kept, so the next request retries.  A tier built with a capacity
 * keeps at most that many values, evicting the least recently used;
 * otherwise values are never evicted.
 */

#ifndef DRSIM_COMMON_CONTENT_STORE_HH
#define DRSIM_COMMON_CONTENT_STORE_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace drsim {

class ContentStore
{
  public:
    /**
     * Open (and create) the store rooted at @p dir; an empty @p dir
     * turns the disk tier off (every load misses, every publish is a
     * no-op).  @p what names the store in messages ("cache").  An
     * uncreatable root is fatal(): that is a configuration error at
     * startup, unlike a failed write later on.
     */
    ContentStore(std::string dir, std::uint64_t max_bytes,
                 std::string what);

    const std::string &dir() const { return dir_; }
    bool enabled() const { return !dir_.empty(); }

    /** File path of (@p hash, @p suffix); "" when the tier is off. */
    std::string path(const std::string &hash,
                     const std::string &suffix) const;

    /**
     * Validates and decodes an entry's bytes into the caller's state.
     * Returns the empty string to accept them, or why it rejects them;
     * a FatalError thrown by the decoder also rejects.
     */
    using Decoder = std::function<std::string(const std::string &bytes)>;

    /** True iff the entry exists and @p decode accepts it. */
    bool load(const std::string &hash, const std::string &suffix,
              const Decoder &decode);

    /** Warn about, unlink and count an unusable entry. */
    void reject(const std::string &hash, const std::string &suffix,
                const std::string &why);

    /** Atomically write @p bytes as the entry; false if not stored. */
    bool publish(const std::string &hash, const std::string &suffix,
                 const std::string &bytes);

    /** Enforce the byte cap after a batch of publishes. */
    void trim();

    struct Stats
    {
        std::uint64_t hits = 0;    ///< loads accepted
        std::uint64_t misses = 0;  ///< loads absent or rejected
        std::uint64_t corrupt = 0; ///< files rejected and unlinked
        std::uint64_t stores = 0;  ///< files published
        std::uint64_t evicted = 0; ///< files removed by the cap
    };
    Stats stats() const;

  private:
    void count(std::uint64_t Stats::*counter, std::uint64_t n = 1);

    std::string dir_;
    std::uint64_t maxBytes_;
    std::string what_;
    mutable std::mutex mutex_;
    Stats stats_;
};

template <class V>
class MemoryTier
{
  public:
    using Value = std::shared_ptr<const V>;

    /** @p capacity bounds the resident values; 0 keeps every one. */
    explicit MemoryTier(std::size_t capacity = 0) : capacity_(capacity) {}

    /** How a request was answered. */
    enum class Via
    {
        Memory,    ///< the value was already resident
        Owner,     ///< this request computes it
        Coalesced, ///< waited for another request's computation
    };

    /** Receives the value, or (value null) the owner's error. */
    using Deliver = std::function<void(
        const Value &, const std::exception_ptr &, Via)>;

    /**
     * Asynchronous lookup.  Memory: @p deliver has already run, on
     * this thread.  Coalesced: it runs when the owner finishes.
     * Owner: the caller must compute the value and call finish()
     * exactly once, which also runs @p deliver.
     */
    Via
    request(const std::string &key, Deliver deliver)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (const auto it = resident_.find(key); it != resident_.end()) {
            ++stats_.hits;
            const Value value = it->second.value;
            recency_.splice(recency_.begin(), recency_, it->second.recent);
            lock.unlock();
            deliver(value, nullptr, Via::Memory);
            return Via::Memory;
        }
        auto [it, fresh] = pending_.try_emplace(key);
        it->second.push_back(std::move(deliver));
        if (!fresh) {
            ++stats_.coalesced;
            return Via::Coalesced;
        }
        ++stats_.owned;
        ++stats_.inFlight;
        return Via::Owner;
    }

    /** Complete an owned request with @p value, or with @p error
     *  (which is not kept); runs every waiter's Deliver outside the
     *  lock, the owner's first. */
    void
    finish(const std::string &key, const Value &value,
           const std::exception_ptr &error)
    {
        std::vector<Deliver> waiters;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = pending_.find(key);
            waiters = std::move(it->second);
            pending_.erase(it);
            --stats_.inFlight;
            if (!error)
                keep(key, value);
        }
        for (std::size_t i = 0; i < waiters.size(); ++i)
            waiters[i](value, error, i == 0 ? Via::Owner : Via::Coalesced);
    }

    /**
     * Blocking lookup: the value for @p key, running @p compute (which
     * returns a Value) on this thread if nobody else is computing it.
     * Rethrows the computation's error on every thread that waited.
     */
    template <class Compute>
    Value
    get(const std::string &key, Compute &&compute, Via *via = nullptr)
    {
        // Owned jointly with the Deliver, which the owner's thread may
        // still be returning from after this thread's wait ends.
        auto done = std::make_shared<std::promise<Value>>();
        std::future<Value> result = done->get_future();
        const Via how = request(
            key, [done](const Value &value,
                        const std::exception_ptr &error, Via) {
                if (error)
                    done->set_exception(error);
                else
                    done->set_value(value);
            });
        if (via != nullptr)
            *via = how;
        if (how == Via::Owner) {
            Value value;
            std::exception_ptr error;
            try {
                value = compute();
            } catch (...) {
                error = std::current_exception();
            }
            finish(key, value, error);
        }
        return result.get();
    }

    struct Stats
    {
        std::uint64_t hits = 0;      ///< requests served while resident
        std::uint64_t coalesced = 0; ///< requests that waited on an owner
        std::uint64_t owned = 0;     ///< requests that computed
        std::uint64_t inFlight = 0;  ///< computations running now
        std::uint64_t resident = 0;  ///< values held now
        std::uint64_t evicted = 0;   ///< values dropped by the capacity
    };

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Stats s = stats_;
        s.resident = resident_.size();
        return s;
    }

  private:
    struct Entry
    {
        Value value;
        /** The entry's place in recency_. */
        std::list<const std::string *>::iterator recent;
    };

    /** Make the owned @p key resident as the most recent entry, then
     *  evict down to the capacity.  Caller holds mutex_; the key was
     *  pending, so it is not resident yet. */
    void
    keep(const std::string &key, const Value &value)
    {
        const auto it = resident_.emplace(key, Entry{value, {}}).first;
        it->second.recent = recency_.insert(recency_.begin(), &it->first);
        while (capacity_ != 0 && resident_.size() > capacity_) {
            // By iterator: the key text lives in the node erased.
            const auto victim = resident_.find(*recency_.back());
            recency_.pop_back();
            resident_.erase(victim);
            ++stats_.evicted;
        }
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> resident_;
    /** Keys of resident_ (node pointers, stable across rehashing),
     *  most recently used first. */
    std::list<const std::string *> recency_;
    /** Key -> the owner's Deliver, then each waiter's. */
    std::unordered_map<std::string, std::vector<Deliver>> pending_;
    Stats stats_;
};

} // namespace drsim

#endif // DRSIM_COMMON_CONTENT_STORE_HH
