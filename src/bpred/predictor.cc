#include "bpred/predictor.hh"

#include "bpred/bimodal.hh"
#include "bpred/gshare.hh"
#include "bpred/mcfarling.hh"
#include "bpred/tage.hh"
#include "common/logging.hh"

namespace drsim {

namespace {

struct PredictorEntry
{
    const char *name;
    std::unique_ptr<BranchPredictor> (*make)();
};

template <typename Backend>
std::unique_ptr<BranchPredictor>
makeBackend()
{
    return std::make_unique<Backend>();
}

/** Presentation order: the ext_predictors grid and its golden
 *  follow it. */
constexpr PredictorEntry kPredictors[] = {
    {"mcfarling", makeBackend<CombinedPredictor>},
    {"bimodal", makeBackend<BimodalPredictor>},
    {"gshare", makeBackend<GsharePredictor>},
    {"tage", makeBackend<TagePredictor>},
};

const PredictorEntry *
findPredictor(const std::string &spec)
{
    for (const PredictorEntry &e : kPredictors) {
        if (spec == e.name)
            return &e;
    }
    return nullptr;
}

} // namespace

const std::vector<std::string> &
predictorSpecs()
{
    static const std::vector<std::string> specs = [] {
        std::vector<std::string> names;
        for (const PredictorEntry &e : kPredictors)
            names.emplace_back(e.name);
        return names;
    }();
    return specs;
}

bool
knownPredictor(const std::string &spec)
{
    return findPredictor(spec) != nullptr;
}

std::string
predictorSpecList()
{
    std::string out;
    for (const PredictorEntry &e : kPredictors) {
        if (!out.empty())
            out += ", ";
        out += e.name;
    }
    return out;
}

std::unique_ptr<BranchPredictor>
makeBranchPredictor(const std::string &spec)
{
    if (const PredictorEntry *e = findPredictor(spec))
        return e->make();
    fatal("unknown branch predictor '", spec, "' (known: ",
          predictorSpecList(), ")");
}

} // namespace drsim
