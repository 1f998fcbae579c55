#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/thread_pool.hh"
#include "exp/registry.hh"
#include "serve/result_io.hh"
#include "workloads/digest.hh"
#include "workloads/emulator.hh"

namespace drsim {
namespace bench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
peakRssMb(int pid)
{
    const std::string path = pid == 0
                                 ? std::string("/proc/self/status")
                                 : "/proc/" + std::to_string(pid) +
                                       "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

void
JsonLine::keyOf(const std::string &key)
{
    if (!body_.empty())
        body_ += ",";
    body_ += "\"" + key + "\":";
}

void
JsonLine::num(const std::string &key, double v)
{
    keyOf(key);
    if (!std::isfinite(v)) {
        body_ += "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    body_ += buf;
}

void
JsonLine::str(const std::string &key, const std::string &v)
{
    keyOf(key);
    body_ += "\"";
    for (char c : v) {
        if (c == '"' || c == '\\')
            body_ += '\\';
        body_ += (c >= 0 && c < ' ') ? ' ' : c;
    }
    body_ += "\"";
}

void
JsonLine::list(const std::string &key, const std::vector<double> &v)
{
    keyOf(key);
    body_ += "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", v[i]);
        body_ += buf;
    }
    body_ += "]";
}

void
JsonLine::boolean(const std::string &key, bool v)
{
    keyOf(key);
    body_ += v ? "true" : "false";
}

void
Checked::fail(const std::string &reason)
{
    if (failed++ == 0)
        why = reason;
}

std::uint64_t
functionalLength(const Program &program)
{
    Emulator emu(program);
    return emu.fastForward(~std::uint64_t{0});
}

void
checkPoint(const SimResult &r, std::uint64_t arch_length,
           const std::string &where, Checked &out)
{
    ++out.attempted;
    std::uint64_t causes = 0;
    for (std::uint64_t c : r.proc.causeCycles)
        causes += c;
    if (causes != std::uint64_t(r.proc.cycles)) {
        out.fail(where + ": cause cycles " + std::to_string(causes) +
                 " != cycles " + std::to_string(r.proc.cycles));
        return;
    }
    if (r.sampled.enabled) {
        if (r.sampled.windows == 0 ||
            !std::isfinite(r.sampled.ipcEstimate) ||
            !std::isfinite(r.sampled.ci95) || r.sampled.ipcEstimate <= 0)
            out.fail(where + ": sampled run has no usable estimate");
        return;
    }
    if (r.stopReason != StopReason::Halted ||
        r.proc.committed != arch_length + 1) {
        out.fail(where + ": committed " +
                 std::to_string(r.proc.committed) +
                 " != functional length + 1 = " +
                 std::to_string(arch_length + 1));
    }
}

std::string
statsDigest(const std::vector<const SimResult *> &runs)
{
    std::string hashes;
    hashes.reserve(runs.size() * 17);
    for (const SimResult *r : runs)
        hashes += fnv1aHex(serve::pointRecordJson(*r)) + "\n";
    return fnv1aHex(hashes);
}

std::vector<ExperimentSpec>
fig7Specs(bool sampled)
{
    exp::RunContext ctx;
    if (sampled)
        ctx.sampling = exp::parseSamplingSpec(kSampleSpec);
    return exp::expandExperiment(*exp::findExperiment("fig7"), ctx);
}

CoreConfig
centreConfig(bool sampled)
{
    CoreConfig c = exp::paperConfig(4, 96);
    if (sampled)
        c.sampling = exp::parseSamplingSpec(kSampleSpec);
    return c;
}

std::vector<SimResult>
timedSuite(const CoreConfig &config, const std::vector<Workload> &suite,
           std::vector<double> &seconds)
{
    std::vector<SimResult> out(suite.size());
    seconds.assign(suite.size(), 0.0);
    ThreadPool pool(kSweepJobs);
    pool.parallelFor(suite.size(), [&](std::size_t i) {
        const double t0 = nowSeconds();
        out[i] = simulate(config, suite[i]);
        seconds[i] = nowSeconds() - t0;
    });
    return out;
}

std::vector<const SimResult *>
pointers(const std::vector<SimResult> &v)
{
    std::vector<const SimResult *> p;
    for (const SimResult &r : v)
        p.push_back(&r);
    return p;
}

} // namespace bench
} // namespace drsim
