/**
 * @file
 * Content digests shared by the on-disk caches.
 *
 * The sweep-point cache (src/serve/point_cache) and the checkpoint
 * library (src/sim/ckpt_store) both key on them; they live here, next
 * to the Program they digest, because the library sits below the
 * serve layer in the link graph.
 *
 * The digest is 64-bit FNV-1a over the program's instruction stream
 * (with explicit block-boundary markers, so moving an instruction
 * across a block edge changes the digest even when the flat sequence
 * does not) followed by the initial data image in address order.  Two
 * programs with equal digests are treated as identical simulation
 * inputs by every cache keyed on it.
 */

#ifndef DRSIM_WORKLOADS_DIGEST_HH
#define DRSIM_WORKLOADS_DIGEST_HH

#include <cstdint>
#include <string>

namespace drsim {

class Program;

/** 64-bit FNV-1a of @p text as 16 lowercase hex digits. */
std::string fnv1aHex(const std::string &text);

/** FNV-1a content digest of a built program (code + data image),
 *  rendered as 16 hex digits. */
std::string programDigest(const Program &program);

} // namespace drsim

#endif // DRSIM_WORKLOADS_DIGEST_HH
