/**
 * @file
 * Lossless serialization of one simulation result (the "point record",
 * `drsim-point-v2`).
 *
 * The sweep cache and the wire protocol both move *complete*
 * SimResult structures — every counter, every histogram — not just
 * the fields the schema-v2 exporter happens to print.  That is what
 * makes served results byte-identical to locally simulated ones: a
 * client that receives point records can reassemble the exact
 * ExperimentResult vector a direct run would have produced and feed
 * it through the same printers and the same resultsJson() emitter.
 *
 * The record is therefore a strict superset of the schema-v2
 * per-workload object (docs/RESULTS_SCHEMA.md): schema v2 carries
 * derived ratios and histogram summaries; the point record carries
 * the raw counters and full histogram count vectors they derive from.
 *
 * Round-trip guarantees:
 *  - integers are emitted verbatim (all counters here are far below
 *    2^53, the exactness limit of the double-backed JSON parser);
 *  - the stored doubles (load_miss_rate and the sampled estimate) use
 *    std::to_chars shortest form, which parses back to the identical
 *    bit pattern;
 *  - histograms serialize their dense count vectors; the trailing
 *    element is nonzero by construction, so the reconstructed extent
 *    matches exactly.
 *
 * parsePointRecord() is strict and reports any structural problem via
 * fatal() (a catchable FatalError) — the cache layer treats that as a
 * corrupt entry and falls back to recomputing.
 *
 * Each SampledStats, ProcStats and DCacheStats field is named once, in
 * a {key, member-pointer} table that both writePointRecord() and
 * parsePointRecord() walk.  A new field is one table row plus a
 * kPointRecordVersion bump (which retires every cached record);
 * tests/test_serve.cc round-trips records and rejects one missing any
 * member.
 */

#ifndef DRSIM_SERVE_RESULT_IO_HH
#define DRSIM_SERVE_RESULT_IO_HH

#include <optional>
#include <string>

#include "common/json.hh"
#include "sim/simulator.hh"

namespace drsim {
namespace serve {

/** Version tag embedded in every record ("drsim-point-v2").
 *  v2 added the sampled-mode block (SimResult::sampled). */
constexpr int kPointRecordVersion = 2;

/** Write @p r as one record value at @p w's current position (a
 *  top-level document, an array element, or a member's value). */
void writePointRecord(json::Writer &w, const SimResult &r);

/** Serialize @p r to a compact, deterministic JSON object. */
std::string pointRecordJson(const SimResult &r);

/** Reconstruct a SimResult from the record text @p text, decoding
 *  it in one streaming pass (no intermediate tree); fatal() on any
 *  missing or repeated member, type mismatch, or version mismatch.
 *  Members may come in any order; unknown ones are skipped. */
SimResult parsePointRecord(const std::string &text);

/** The same decoder over an already parsed record (re-serialized
 *  first, so both forms accept exactly the same records). */
SimResult parsePointRecord(const json::Value &v);

/**
 * Parse the JSON object @p text whose "result" member, when present,
 * is a point record: the record is streamed into @p record (which
 * must be empty) and every other member comes back as a parsed
 * object.  This is how the point cache reads its envelopes and the
 * client its point replies, so neither builds a tree of the record.
 */
json::Value parseWithPointRecord(const std::string &text,
                                 std::optional<SimResult> &record);

} // namespace serve
} // namespace drsim

#endif // DRSIM_SERVE_RESULT_IO_HH
