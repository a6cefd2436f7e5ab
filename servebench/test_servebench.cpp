// Checks of the benchmark itself: the workload generator is a pure
// function of its seed, and the output check catches an altered stream.
//
// Run: python3 servebench/run.py --self-test

#include <cstdio>
#include <vector>

#include "workload.h"

namespace servebench {
namespace {

int failures = 0;

void
expect(bool ok, const char *what, const char *workload)
{
    std::printf("%s: %s (%s)\n", ok ? "ok" : "FAIL", what, workload);
    failures += ok ? 0 : 1;
}

bool
sameRequest(const mxplus::ServeRequest &a, const mxplus::ServeRequest &b)
{
    return a.prompt == b.prompt && a.max_new_tokens == b.max_new_tokens &&
        a.temperature == b.temperature && a.seed == b.seed &&
        a.top_k == b.top_k && a.top_p == b.top_p &&
        a.repetition_penalty == b.repetition_penalty &&
        a.priority == b.priority;
}

bool
sameWorkload(const Workload &a, const Workload &b)
{
    if (a.arrivals.size() != b.arrivals.size() ||
        a.warmup.size() != b.warmup.size())
        return false;
    for (size_t i = 0; i < a.arrivals.size(); ++i) {
        if (a.arrivals[i].due_ms != b.arrivals[i].due_ms ||
            !sameRequest(a.arrivals[i].req, b.arrivals[i].req))
            return false;
    }
    for (size_t i = 0; i < a.warmup.size(); ++i) {
        if (!sameRequest(a.warmup[i], b.warmup[i]))
            return false;
    }
    return true;
}

void
generatorIsDeterministic(const char *name)
{
    const Workload a = makeWorkload(name, 7, 50);
    expect(sameWorkload(a, makeWorkload(name, 7, 50)),
           "same seed gives identical inputs", name);
    expect(!sameWorkload(a, makeWorkload(name, 8, 50)),
           "another seed changes the inputs", name);
    expect(a.arrivals.size() == 100, "50 s at 2 rps sends 100 requests",
           name);
}

/** Serves a few requests together the way the timed phase does, then
    runs the output check on the true and on an altered stream. */
void
outputCheckCatchesAlteredStream(const char *name)
{
    const mxplus::Transformer model(benchModel());
    const mxplus::QuantConfig qc = benchQuant();
    mxplus::ServingEngine engine(model, qc, engineOptions(name));
    const Workload w = makeWorkload(name, 3, 1.5);
    std::vector<mxplus::ServeRequest> reqs;
    std::vector<size_t> ids;
    for (const Arrival &a : w.arrivals) {
        reqs.push_back(a.req);
        reqs.back().max_new_tokens = 6;
        ids.push_back(engine.submit(reqs.back()));
    }
    engine.runToCompletion();
    std::vector<std::vector<int>> served;
    for (size_t id : ids)
        served.push_back(engine.stats(id).generated);

    expect(countMismatches(model, qc, reqs, served) == 0,
           "served streams pass the output check", name);
    std::vector<std::vector<int>> altered = served;
    const int vocab = static_cast<int>(model.config().vocab);
    altered[1][3] = (altered[1][3] + 1) % vocab;
    expect(countMismatches(model, qc, reqs, altered) == 1,
           "an altered token fails the output check", name);
    altered = served;
    altered[2].pop_back();
    expect(countMismatches(model, qc, reqs, altered) == 1,
           "a truncated stream fails the output check", name);
}

} // namespace
} // namespace servebench

int
main()
{
    for (const char *name : {"chat", "rag"}) {
        servebench::generatorIsDeterministic(name);
        servebench::outputCheckCatchesAlteredStream(name);
    }
    return servebench::failures == 0 ? 0 : 1;
}
