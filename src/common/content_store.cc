#include "common/content_store.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <unistd.h>

#include "common/logging.hh"

namespace drsim {

namespace fs = std::filesystem;

ContentStore::ContentStore(std::string dir, std::uint64_t max_bytes,
                           std::string what)
    : dir_(std::move(dir)), maxBytes_(max_bytes), what_(std::move(what))
{
    if (!enabled())
        return;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        fatal("cannot create ", what_, " directory '", dir_,
              "': ", ec.message());
    }
}

std::string
ContentStore::path(const std::string &hash,
                   const std::string &suffix) const
{
    if (!enabled())
        return "";
    return dir_ + "/" + hash.substr(0, 2) + "/" + hash + suffix;
}

void
ContentStore::count(std::uint64_t Stats::*counter, std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.*counter += n;
}

bool
ContentStore::load(const std::string &hash, const std::string &suffix,
                   const Decoder &decode)
{
    // path() is "" when the tier is off, which opens nothing.
    std::ifstream in(path(hash, suffix), std::ios::binary);
    if (!in) {
        count(&Stats::misses);
        return false;
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();

    std::string why;
    try {
        why = decode(std::move(bytes).str());
    } catch (const FatalError &e) {
        why = e.what();
    }
    if (!why.empty()) {
        reject(hash, suffix, why);
        count(&Stats::misses);
        return false;
    }
    if (maxBytes_ != 0) {
        // Mark recently used for the byte cap.  Best effort: a file
        // evicted meanwhile by another process just misses next time.
        std::error_code ec;
        fs::last_write_time(path(hash, suffix),
                            fs::file_time_type::clock::now(), ec);
    }
    count(&Stats::hits);
    return true;
}

void
ContentStore::reject(const std::string &hash, const std::string &suffix,
                     const std::string &why)
{
    const std::string file = path(hash, suffix);
    warn(what_, " entry ", file, " is unusable (", why, "); recomputing");
    std::error_code ec;
    fs::remove(file, ec);
    count(&Stats::corrupt);
}

bool
ContentStore::publish(const std::string &hash, const std::string &suffix,
                      const std::string &bytes)
{
    if (!enabled())
        return false;
    const std::string file = path(hash, suffix);
    std::error_code ec;
    fs::create_directories(dir_ + "/" + hash.substr(0, 2), ec);
    if (ec) {
        warn("cannot create ", what_, " fan-out directory for '", file,
             "': ", ec.message());
        return false;
    }

    // A unique temp name per writer, then an atomic rename: readers
    // never observe a partial entry, and racing writers of one key
    // both rename identical bytes into place.
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp = file + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(counter.fetch_add(1));
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
    out.close(); // flushes; a failed open, write or close sets failbit
    if (!out) {
        warn("cannot write ", what_, " temp file '", tmp, "'");
    } else {
        fs::rename(tmp, file, ec);
        if (!ec) {
            count(&Stats::stores);
            return true;
        }
        warn("cannot publish ", what_, " entry '", file,
             "': ", ec.message());
    }
    fs::remove(tmp, ec);
    return false;
}

void
ContentStore::trim()
{
    if (!enabled() || maxBytes_ == 0)
        return;

    // (mtime, path, bytes): sorting evicts least recently touched
    // first, ties by path, so the scan is deterministic.
    std::vector<std::tuple<fs::file_time_type, std::string, std::uint64_t>>
        files;
    std::uint64_t total = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator
             it(dir_, fs::directory_options::skip_permission_denied, ec),
             end;
         !ec && it != end; it.increment(ec)) {
        const std::string file = it->path().string();
        // A temp file is about to be renamed into place; deleting it
        // would turn an atomic publish into an error.
        std::error_code fec;
        if (!it->is_regular_file(fec) ||
            file.find(".tmp.") != std::string::npos)
            continue;
        const std::uint64_t bytes = it->file_size(fec);
        const fs::file_time_type mtime = it->last_write_time(fec);
        if (fec)
            continue;
        total += bytes;
        files.emplace_back(mtime, file, bytes);
    }
    std::sort(files.begin(), files.end());

    std::uint64_t evicted = 0;
    for (const auto &[mtime, file, bytes] : files) {
        if (total <= maxBytes_)
            break;
        // A file that cannot be removed only overshoots the budget.
        if (fs::remove(file, ec)) {
            total -= bytes;
            ++evicted;
        } else if (ec) {
            warn(what_, " eviction could not remove '", file,
                 "': ", ec.message());
        }
    }
    count(&Stats::evicted, evicted);
}

ContentStore::Stats
ContentStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace drsim
