/**
 * @file
 * The verbs of the `drsim` binary (tools/drsim_main.cc).  Each takes
 * the arguments after the verb name and returns the process exit
 * code: 0 success, 1 runtime failure, 2 usage error.  A FatalError
 * that escapes a verb is a runtime failure; the dispatcher reports
 * it.  The `serve` verb lives in the daemon library
 * (serve::daemonMain in src/serve/server.hh).
 */

#ifndef DRSIM_TOOLS_VERBS_HH
#define DRSIM_TOOLS_VERBS_HH

#include <cstdint>
#include <string>

#include "workloads/program.hh"

namespace drsim {
namespace tools {

/** `drsim run`: simulate one workload under one configuration. */
int runVerb(int argc, const char *const *argv);
/** `drsim bench`: run registered experiments and sweep specs. */
int benchVerb(int argc, const char *const *argv);
/** `drsim lint`: static verifier over guest programs. */
int lintVerb(int argc, const char *const *argv);
/** `drsim report`: stall-cause breakdown of a results file. */
int reportVerb(int argc, const char *const *argv);

/** A SPEC92-like kernel by name, or a classic kernel as
 *  "classic:<name>"; fatal() when there is no such kernel. */
Program namedProgram(const std::string &name, int scale,
                     std::uint64_t seed);

/** All of the file at @p path; fatal() when it cannot be read. */
std::string readFile(const std::string &path);

} // namespace tools
} // namespace drsim

#endif // DRSIM_TOOLS_VERBS_HH
