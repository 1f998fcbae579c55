#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace drsim {

EnvStatus
envParseU64(const char *name, std::uint64_t &out)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return EnvStatus::Unset;
    // strtoull quietly skips whitespace, accepts a sign (including
    // '-', wrapping the value), and stops at the first non-digit; all
    // three would let a typo'd knob parse as something plausible.
    if (*v == '\0' || !std::isdigit(static_cast<unsigned char>(*v)))
        return EnvStatus::Malformed;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0')
        return EnvStatus::Malformed;
    out = errno == ERANGE ? std::numeric_limits<std::uint64_t>::max()
                          : parsed;
    return EnvStatus::Ok;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    std::uint64_t v = 0;
    switch (envParseU64(name, v)) {
      case EnvStatus::Unset:
        return fallback;
      case EnvStatus::Ok:
        return v;
      case EnvStatus::Malformed:
        warn("ignoring malformed ", name, "='", std::getenv(name),
             "' (want a non-negative integer); using ", fallback);
        return fallback;
    }
    return fallback; // unreachable
}

int
envInt(const char *name, int fallback, int lo, int hi)
{
    std::uint64_t v = 0;
    switch (envParseU64(name, v)) {
      case EnvStatus::Unset:
        return fallback;
      case EnvStatus::Malformed:
        warn("ignoring malformed ", name, "='", std::getenv(name),
             "' (want a non-negative integer); using ", fallback);
        return fallback;
      case EnvStatus::Ok:
        break;
    }
    if (v > std::uint64_t(hi)) {
        warn(name, "='", std::getenv(name), "' above ", hi,
             "; clamping");
        return hi;
    }
    if (int(v) < lo) {
        warn(name, "='", std::getenv(name), "' below ", lo,
             "; clamping");
        return lo;
    }
    return int(v);
}

std::optional<std::uint64_t>
parseDecimal(const char *text, std::uint64_t lo, std::uint64_t hi)
{
    const char *end = text + std::strlen(text);
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr == text || ptr != end || v < lo ||
        v > hi)
        return std::nullopt;
    return v;
}

} // namespace drsim
