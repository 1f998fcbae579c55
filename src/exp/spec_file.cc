#include "exp/spec_file.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/json.hh"
#include "common/logging.hh"
#include "exp/registry.hh"

namespace drsim {
namespace exp {

namespace {

const char *const kStringAxes[] = {"model", "cache", "predictor"};
const char *const kNumberAxes[] = {"width", "dq", "regs", "mshrs",
                                   "write_buffer",
                                   "write_buffer_drain",
                                   "result_buses"};

bool
isStringAxis(const std::string &key)
{
    return std::find(std::begin(kStringAxes), std::end(kStringAxes),
                     key) != std::end(kStringAxes);
}

bool
isNumberAxis(const std::string &key)
{
    return std::find(std::begin(kNumberAxes), std::end(kNumberAxes),
                     key) != std::end(kNumberAxes);
}

/** @p decl's values narrowed to @p T, each range-checked first: a
 *  value that does not fit must not wrap into some other, valid-looking
 *  setting. */
template <class T>
std::vector<T>
narrow(const SweepSpec::AxisDecl &decl)
{
    constexpr std::uint64_t kMax =
        std::uint64_t(std::numeric_limits<T>::max());
    std::vector<T> out;
    for (const std::uint64_t v : decl.nums) {
        if (v > kMax) {
            fatal("sweep spec: axis '", decl.key, "' value ", v,
                  " is out of range (max ", kMax, ")");
        }
        out.push_back(T(v));
    }
    return out;
}

} // namespace

SweepSpec
parseSweepSpec(const std::string &text)
{
    const json::Value doc = json::parse(text);
    if (!doc.isObject())
        fatal("sweep spec: top-level value must be an object");

    SweepSpec spec;
    spec.name = doc.at("name").asString();
    if (spec.name.empty())
        fatal("sweep spec: \"name\" must be non-empty");
    if (const json::Value *v = doc.find("description"))
        spec.description = v->asString();
    if (const json::Value *v = doc.find("suite"))
        spec.suite = v->asString();
    if (spec.suite != "spec92" && spec.suite != "classic") {
        fatal("sweep spec: unknown suite '", spec.suite,
              "' (want \"spec92\" or \"classic\")");
    }
    if (const json::Value *v = doc.find("export"))
        spec.exportResults = v->asBool();

    const json::Value &axes = doc.at("axes");
    if (!axes.isObject())
        fatal("sweep spec: \"axes\" must be an object");
    for (const auto &[key, value] : axes.members()) {
        SweepSpec::AxisDecl decl;
        decl.key = key;
        if (!value.isArray() || value.items().empty()) {
            fatal("sweep spec: axis '", key,
                  "' must be a non-empty array");
        }
        if (isStringAxis(key)) {
            for (const json::Value &item : value.items())
                decl.strs.push_back(item.asString());
        } else if (isNumberAxis(key)) {
            for (const json::Value &item : value.items())
                decl.nums.push_back(item.asU64());
        } else {
            fatal("sweep spec: unknown axis '", key, "'");
        }
        spec.axes.push_back(std::move(decl));
    }
    if (spec.axes.empty())
        fatal("sweep spec: \"axes\" must declare at least one axis");
    return spec;
}

void
writeSweepSpec(json::Writer &w, const SweepSpec &spec)
{
    w.beginObject();
    w.key("name").value(spec.name);
    w.key("description").value(spec.description);
    w.key("suite").value(spec.suite);
    w.key("export").value(spec.exportResults);
    w.key("axes").beginObject();
    for (const SweepSpec::AxisDecl &decl : spec.axes) {
        w.key(decl.key).beginArray();
        for (const std::uint64_t n : decl.nums)
            w.value(n);
        for (const std::string &str : decl.strs)
            w.value(str);
        w.endArray();
    }
    w.endObject();
    w.endObject();
}

std::string
sweepSpecJson(const SweepSpec &spec)
{
    json::Writer w(json::Writer::Style::Pretty);
    writeSweepSpec(w, spec);
    return w.str() + "\n";
}

GridDef
toGrid(const SweepSpec &spec)
{
    // Paper baseline for every knob an axis does not sweep: the
    // cost-effective 4-way machine with a comfortable register file.
    GridDef grid;
    grid.base = paperConfig(4, 128);

    for (const SweepSpec::AxisDecl &decl : spec.axes) {
        if (decl.key == "width") {
            grid.axes.push_back(widthAxis(narrow<int>(decl)));
        } else if (decl.key == "dq") {
            grid.axes.push_back(dqAxis(narrow<int>(decl)));
        } else if (decl.key == "regs") {
            grid.axes.push_back(regsAxis(narrow<int>(decl)));
        } else if (decl.key == "model") {
            std::vector<ExceptionModel> models;
            for (const std::string &s : decl.strs) {
                const auto m = exceptionModelFromName(s);
                if (!m) {
                    fatal("sweep spec: unknown exception model '", s,
                          "' (want \"precise\" or \"imprecise\")");
                }
                models.push_back(*m);
            }
            grid.axes.push_back(modelAxis(models));
        } else if (decl.key == "cache") {
            std::vector<CacheKind> kinds;
            for (const std::string &s : decl.strs) {
                const auto k = cacheKindFromName(s);
                if (!k) {
                    fatal("sweep spec: unknown cache kind '", s,
                          "' (want \"perfect\", \"lockup-free\", or "
                          "\"lockup\")");
                }
                kinds.push_back(*k);
            }
            grid.axes.push_back(cacheAxis(kinds));
        } else if (decl.key == "mshrs") {
            grid.axes.push_back(mshrAxis(narrow<std::uint32_t>(decl)));
        } else if (decl.key == "write_buffer") {
            grid.axes.push_back(writeBufferAxis(narrow<std::uint32_t>(decl)));
        } else if (decl.key == "write_buffer_drain") {
            grid.axes.push_back(writeBufferDrainAxis(decl.nums));
        } else if (decl.key == "predictor") {
            grid.axes.push_back(predictorAxis(decl.strs));
        } else if (decl.key == "result_buses") {
            grid.axes.push_back(resultBusAxis(narrow<int>(decl)));
        } else {
            fatal("sweep spec: unknown axis '", decl.key, "'");
        }
    }
    return grid;
}

ExperimentDef
specExperiment(const SweepSpec &spec)
{
    ExperimentDef def;
    def.name = spec.name;
    def.title = "sweep spec: " + spec.name;
    def.description = spec.description;
    def.grids = [grid = toGrid(spec)] {
        return std::vector<GridDef>{grid};
    };
    if (spec.suite == "classic")
        def.suite = [](const RunContext &) { return classicWorkloads(); };
    def.suiteName = spec.suite;
    def.print = [description = spec.description](
                    const RunContext &,
                    const std::vector<ExperimentResult> &results) {
        if (!description.empty())
            std::printf("%s\n", description.c_str());
        printGenericSummary(results);
        printStallSummary(results);
    };
    def.exportResults = spec.exportResults;
    return def;
}

} // namespace exp
} // namespace drsim
