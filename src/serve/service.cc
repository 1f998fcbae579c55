#include "serve/service.hh"

#include <future>
#include <utility>

#include "common/logging.hh"
#include "sim/simulator.hh"

namespace drsim {
namespace serve {

SweepService::SweepService(std::string cacheDir, int jobs)
    : jobs_(jobs < 1 ? 1 : jobs), cache_(std::move(cacheDir)),
      pool_(jobs_)
{
}

SweepService::~SweepService() = default;

void
SweepService::requestPoint(const PointKey &key,
                           std::shared_ptr<const Workload> workload,
                           PointCallback cb)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.points;
    }
    const std::string keyText = pointKeyText(key, cache_.rev());
    const auto deliver = [this, cb = std::move(cb)](
                             const Memory::Value &value,
                             const std::exception_ptr &error,
                             Memory::Via via) {
        PointOutcome outcome;
        if (value) {
            outcome = *value;
        } else {
            try {
                std::rethrow_exception(error);
            } catch (const FatalError &e) {
                outcome.error = e.what();
            }
        }
        outcome.rev = cache_.rev();
        if (via == Memory::Via::Memory)
            outcome.cacheHit = true;
        outcome.coalesced = via == Memory::Via::Coalesced;
        cb(outcome);
    };
    if (memory_.request(keyText, deliver) == Memory::Via::Owner) {
        pool_.submit([this, keyText, key, workload] {
            completePoint(keyText, key, *workload);
        });
    }
}

void
SweepService::completePoint(const std::string &keyText,
                            const PointKey &key, const Workload &workload)
{
    // Runs on a worker thread.  Must not throw: the pool would capture
    // the exception for a wait() nobody calls, and the waiters would
    // starve.
    auto outcome = std::make_shared<PointOutcome>();
    std::exception_ptr error;
    try {
        if (auto cached = cache_.load(key)) {
            outcome->result =
                std::make_shared<const SimResult>(std::move(*cached));
            outcome->cacheHit = true;
        } else {
            outcome->result = std::make_shared<const SimResult>(
                simulate(key.config, workload));
            cache_.store(key, *outcome->result);
        }
    } catch (const FatalError &) {
        error = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error)
            ++stats_.errors;
        else if (outcome->cacheHit)
            ++stats_.diskHits;
        else
            ++stats_.computed;
    }
    memory_.finish(keyText, error ? nullptr : outcome, error);
}

PointOutcome
SweepService::runPoint(const PointKey &key, const Workload &workload)
{
    auto done = std::make_shared<std::promise<PointOutcome>>();
    std::future<PointOutcome> result = done->get_future();
    requestPoint(key,
                 std::shared_ptr<const Workload>(&workload,
                                                 [](const Workload *) {}),
                 [done](const PointOutcome &outcome) {
                     done->set_value(outcome);
                 });
    return result.get();
}

SweepService::Stats
SweepService::stats() const
{
    const Memory::Stats memory = memory_.stats();
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s = stats_;
    s.memoryHits = memory.hits;
    s.coalesced = memory.coalesced;
    s.inFlight = memory.inFlight;
    return s;
}

} // namespace serve
} // namespace drsim
