/**
 * @file
 * Hardened environment-variable parsing shared by the runner, the
 * experiment registry, and the benchmark harnesses.
 *
 * The old bench-local helper passed getenv() output straight to
 * strtoull with no end-pointer check, so `DRSIM_SCALE=2x` silently ran
 * at scale 2 and `DRSIM_SCALE=fast` silently ran at scale 0.  Here a
 * value is accepted only if the *entire* string parses as a
 * non-negative decimal integer; anything else is rejected with a
 * warning and the caller's fallback is used instead.
 */

#ifndef DRSIM_COMMON_ENV_HH
#define DRSIM_COMMON_ENV_HH

#include <cstdint>
#include <optional>

namespace drsim {

/** Outcome of looking up and parsing one environment variable. */
enum class EnvStatus : std::uint8_t {
    Unset,     ///< variable not present in the environment
    Ok,        ///< parsed cleanly (saturated to UINT64_MAX on overflow)
    Malformed, ///< present but not a non-negative decimal integer
};

/**
 * Look up @p name and parse it as a non-negative decimal u64 into
 * @p out.  Rejects empty values, signs, and trailing garbage
 * (Malformed; @p out untouched).  Values beyond UINT64_MAX saturate
 * and still count as Ok — the callers that care (resolveJobs) clamp
 * loudly themselves.  Never warns; use envU64() for the
 * warn-and-fall-back behaviour.
 */
EnvStatus envParseU64(const char *name, std::uint64_t &out);

/**
 * envParseU64() with the common policy applied: Unset returns
 * @p fallback silently, Malformed warns and returns @p fallback.
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/**
 * envU64() narrowed to int with clamping: values outside
 * [@p lo, @p hi] are clamped with a warning (the fallback itself is
 * returned unclamped, so a caller's default is always honoured).
 */
int envInt(const char *name, int fallback, int lo, int hi);

/**
 * All of @p text as a decimal integer in [@p lo, @p hi]; nullopt for
 * anything else — empty text, a sign, whitespace, trailing garbage,
 * or a value out of range.  For command-line values, where a typo
 * ("abc", "2x") must be refused, not read as a plausible number.
 */
std::optional<std::uint64_t> parseDecimal(const char *text,
                                          std::uint64_t lo,
                                          std::uint64_t hi);

} // namespace drsim

#endif // DRSIM_COMMON_ENV_HH
