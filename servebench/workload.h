// Workload generation and output checking for the serving benchmark.
//
// Inputs come from the benchmark's own SplitMix64 stream seeded by
// --seed, never from the library's Rng, so a change to the program can
// not change what the benchmark sends. Every workload serves MXFP4+ on
// sim-llama-3.1-70b; why each workload exists is in README.md.

#ifndef SERVEBENCH_WORKLOAD_H
#define SERVEBENCH_WORKLOAD_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "model/config.h"
#include "model/quant_config.h"
#include "model/transformer.h"
#include "serve/serving_engine.h"

namespace servebench {

/** SplitMix64 — small, fast, and identical on every platform. */
class Gen
{
  public:
    explicit Gen(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [lo, hi]. */
    size_t
    range(size_t lo, size_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

    /** Fisher-Yates shuffle of @p v in this generator's order. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[range(0, i - 1)]);
    }

    /** @p n distinct token ids drawn from [0, vocab). */
    std::vector<int>
    distinctTokens(size_t n, size_t vocab)
    {
        std::vector<int> ids(vocab);
        std::iota(ids.begin(), ids.end(), 0);
        for (size_t i = 0; i < n; ++i)
            std::swap(ids[i], ids[range(i, vocab - 1)]);
        ids.resize(n);
        return ids;
    }

  private:
    uint64_t state_;
};

/** One open-loop request: when it is due and what it asks for. */
struct Arrival
{
    double due_ms = 0.0; ///< offset from the start of the timed phase
    mxplus::ServeRequest req;
};

/** Generated inputs of one workload run. */
struct Workload
{
    std::string name;
    std::vector<Arrival> arrivals;
    /** Fixed set-up warmup (same amount of work for every seed). */
    std::vector<mxplus::ServeRequest> warmup;
};

// Sizing (see README.md): both open loops run at 2 requests/s, which
// keeps one core well below the saturation knee, where TTFT tails stop
// repeating between runs.
constexpr double kOpenLoopRps = 2.0;
constexpr size_t kRagDocuments = 4;
constexpr size_t kRagDocumentTokens = 512; // 16 whole 32-token pages
constexpr uint64_t kWarmupSeed = 0x5e7u;

/** Requests per block of the stratified schedule (2.5 s at 2 rps). */
constexpr size_t kBlock = 5;

/**
 * Seeded order for @p sorted values such that every block of kBlock
 * consecutive entries holds one value from each stretch of the sorted
 * range: sorted entry i goes to block i % blocks, and each block is then
 * shuffled. Every block of requests gets the same mix, so the load of a
 * few seconds does not depend on the seed, while which request gets
 * which value does.
 */
template <typename T>
std::vector<T>
spreadInBlocks(Gen &g, const std::vector<T> &sorted)
{
    const size_t n = sorted.size();
    const size_t blocks = (n + kBlock - 1) / kBlock;
    std::vector<T> out;
    for (size_t b = 0; b < blocks; ++b) {
        std::vector<T> block;
        for (size_t i = b; i < n; i += blocks)
            block.push_back(sorted[i]);
        g.shuffle(block);
        out.insert(out.end(), block.begin(), block.end());
    }
    return out;
}

/** Stratified draws: @p n integers spread evenly over [lo, hi]. */
inline std::vector<size_t>
stratified(Gen &g, size_t n, size_t lo, size_t hi)
{
    std::vector<size_t> v(n);
    for (size_t k = 0; k < n; ++k)
        v[k] = lo + k * (hi - lo + 1) / n;
    return spreadInBlocks(g, v);
}

/**
 * Open-loop due times (ms) of round(rps * seconds) requests: Poisson
 * arrivals at kOpenLoopRps, stratified like the lengths — the gaps are
 * the n exponential quantiles at (k + 0.5) / n, spread over the blocks.
 * Bursts fall at different places for each seed, but every run, and
 * every block of a run, has the same gaps.
 */
inline std::vector<double>
arrivalTimes(Gen &g, double seconds)
{
    const auto n = static_cast<size_t>(kOpenLoopRps * seconds + 0.5);
    std::vector<double> gaps(n);
    for (size_t k = 0; k < n; ++k) {
        const double q =
            (static_cast<double>(k) + 0.5) / static_cast<double>(n);
        gaps[k] = -std::log(1.0 - q) * 1000.0 / kOpenLoopRps;
    }
    std::vector<double> t;
    double at = 0.0;
    for (double gap : spreadInBlocks(g, gaps))
        t.push_back(at += gap);
    return t;
}

inline mxplus::ModelConfig
benchModel()
{
    return mxplus::simLlama31_70b();
}

inline mxplus::QuantConfig
benchQuant()
{
    return mxplus::QuantConfig::fromFormat("MXFP4+");
}

/** Engine knobs of @p workload (num_threads is always 1). */
inline mxplus::EngineOptions
engineOptions(const std::string &workload)
{
    mxplus::EngineOptions o;
    o.max_batch = 8;
    // Every uncached prompt part fits one quantum: each extra quantum
    // re-quantizes all weights, and a burst of arrivals would multiply
    // that cost into a TTFT tail that differs from run to run.
    o.prefill_chunk = 128;
    o.num_threads = 1;
    if (workload == "rag") {
        o.prefix_cache_tokens = 2 * kRagDocuments * kRagDocumentTokens;
        o.compress_frozen_pages = true;
    }
    return o;
}

/** Chat request: distinct prompt tokens, sampled with its own seed. */
inline mxplus::ServeRequest
chatRequest(Gen &g, size_t prompt_len, size_t answer_len, size_t vocab)
{
    mxplus::ServeRequest r;
    r.prompt = g.distinctTokens(prompt_len, vocab);
    r.max_new_tokens = answer_len;
    r.temperature = 0.8;
    r.seed = g.next();
    return r;
}

inline Workload
makeChat(uint64_t seed, double seconds)
{
    const size_t vocab = benchModel().vocab;
    Workload w;
    w.name = "chat";
    Gen g(seed);
    const std::vector<double> due = arrivalTimes(g, seconds);
    const std::vector<size_t> prompt = stratified(g, due.size(), 16, 96);
    const std::vector<size_t> answer = stratified(g, due.size(), 16, 48);
    for (size_t i = 0; i < due.size(); ++i)
        w.arrivals.push_back(
            {due[i], chatRequest(g, prompt[i], answer[i], vocab)});
    Gen warm(kWarmupSeed);
    for (int i = 0; i < 8; ++i)
        w.warmup.push_back(chatRequest(warm, 56, 32, vocab));
    return w;
}

inline Workload
makeRag(uint64_t seed, double seconds)
{
    const size_t vocab = benchModel().vocab;
    Workload w;
    w.name = "rag";
    Gen g(seed);
    std::vector<std::vector<int>> documents(kRagDocuments);
    for (std::vector<int> &doc : documents) {
        doc.resize(kRagDocumentTokens);
        for (int &t : doc)
            t = static_cast<int>(g.range(0, vocab - 1));
    }
    const auto question = [&](Gen &src, size_t doc, size_t tail,
                              size_t answer) {
        mxplus::ServeRequest r;
        r.prompt = documents[doc];
        for (size_t i = 0; i < tail; ++i)
            r.prompt.push_back(static_cast<int>(src.range(0, vocab - 1)));
        r.max_new_tokens = answer;
        return r; // greedy
    };
    const std::vector<double> due = arrivalTimes(g, seconds);
    const std::vector<size_t> doc =
        stratified(g, due.size(), 0, kRagDocuments - 1);
    const std::vector<size_t> tail = stratified(g, due.size(), 16, 64);
    const std::vector<size_t> answer = stratified(g, due.size(), 8, 16);
    for (size_t i = 0; i < due.size(); ++i)
        w.arrivals.push_back(
            {due[i], question(g, doc[i], tail[i], answer[i])});
    // Set-up asks one fixed-size question per document, so the timed
    // phase starts with every document published and compressed.
    Gen warm(seed ^ kWarmupSeed);
    for (size_t d = 0; d < kRagDocuments; ++d)
        w.warmup.push_back(question(warm, d, 24, 8));
    return w;
}

/** Generates @p name ("chat" or "rag"); empty name when unknown. */
inline Workload
makeWorkload(const std::string &name, uint64_t seed, double seconds)
{
    if (name == "chat")
        return makeChat(seed, seconds);
    if (name == "rag")
        return makeRag(seed, seconds);
    return {};
}

/** Requests the output check re-serves: evenly spread, at most @p k. */
inline std::vector<size_t>
checkSample(size_t n, size_t k)
{
    std::vector<size_t> idx;
    if (n == 0)
        return idx;
    k = std::min(k, n);
    for (size_t i = 0; i < k; ++i)
        idx.push_back(i * n / k);
    return idx;
}

/**
 * Output check: re-serves each of @p reqs alone on a fresh engine with
 * default options and counts the streams that differ from @p served.
 * The repository's invariant makes every stream a pure function of the
 * request and the format, so any difference is a defect.
 */
inline size_t
countMismatches(const mxplus::Transformer &model,
                const mxplus::QuantConfig &qc,
                const std::vector<mxplus::ServeRequest> &reqs,
                const std::vector<std::vector<int>> &served)
{
    mxplus::EngineOptions o;
    o.max_batch = 1;
    mxplus::ServingEngine ref(model, qc, o);
    size_t bad = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const size_t id = ref.submit(reqs[i]);
        ref.runToCompletion();
        if (ref.stats(id).outcome != mxplus::RequestOutcome::kCompleted ||
            ref.stats(id).generated != served[i])
            ++bad;
    }
    return bad;
}

} // namespace servebench

#endif // SERVEBENCH_WORKLOAD_H
