/**
 * @file
 * Deterministic chaos harness for the serving engine: N seeded
 * episodes per format, each driving a mixed shared-prefix workload
 * through a tight budget, over-admission, aging, deadlines, random
 * client cancels and a FaultInjector firing every site (forced pool
 * exhaustion, forced preemption, clock skew, eviction storms, page
 * corruption). After every episode the harness asserts the PR6
 * robustness contract:
 *
 *  - every surviving (completed) stream is bit-equal to a fault-free
 *    golden run; cancelled/timed-out streams are bit-exact prefixes;
 *  - every request reached exactly one terminal state;
 *  - pool refcounts return to the prefix cache alone (and to zero
 *    after clearing it), the reservation ledger sums to zero, and the
 *    cross-layer debug audits (pool, trie, caches, ledger) all pass;
 *  - every injected page corruption is accounted for: detected by a
 *    checksum, or evicted before any adoption could reach it — never
 *    silently served.
 *
 * Reproduction: a failing episode writes chaos_failure_<fmt>_<seed>.txt
 * (seed, fault schedule, repro command) into the working directory —
 * CI uploads it as an artifact. MXPLUS_CHAOS_SEED=<n> reruns a single
 * seed; MXPLUS_CHAOS_SEEDS=a,b,c,... widens the sweep (the ASan job
 * uses this).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/layers.h"
#include "model/transformer.h"
#include "serve/fault.h"
#include "serve/serving_engine.h"

namespace mxplus {
namespace {

ModelConfig
tinyConfig()
{
    ModelConfig cfg = simLlama31_8b();
    cfg.n_layers = 2;
    return cfg;
}

std::vector<int>
tokenRamp(size_t n, int stride)
{
    std::vector<int> t(n);
    for (size_t i = 0; i < n; ++i)
        t[i] = static_cast<int>((7 + i * stride) % 251);
    return t;
}

std::vector<uint64_t>
chaosSeeds()
{
    if (const char *one = std::getenv("MXPLUS_CHAOS_SEED"))
        return {std::strtoull(one, nullptr, 10)};
    if (const char *many = std::getenv("MXPLUS_CHAOS_SEEDS")) {
        std::vector<uint64_t> seeds;
        const std::string s(many);
        size_t pos = 0;
        while (pos < s.size()) {
            size_t next = s.find(',', pos);
            if (next == std::string::npos)
                next = s.size();
            if (next > pos) {
                seeds.push_back(std::strtoull(
                    s.substr(pos, next - pos).c_str(), nullptr, 10));
            }
            pos = next + 1;
        }
        if (!seeds.empty())
            return seeds;
    }
    return {1, 2, 3};
}

/**
 * Deterministic mixed workload from one seed: two shared-prefix groups
 * plus singles, varied priorities and sampling modes, a couple of
 * requests carrying deadlines. Every request fits the chaos budget, so
 * kRejected must never appear — any rejection is a ledger bug.
 */
std::vector<ServeRequest>
chaosWorkload(uint64_t seed)
{
    Rng rng(seed * 0x9E3779B9u + 17);
    std::vector<ServeRequest> reqs;
    const auto head_a = tokenRamp(64, 3);
    const auto head_b = tokenRamp(64, 5);
    for (size_t r = 0; r < 10; ++r) {
        ServeRequest req;
        if (r < 3) {
            req.prompt = head_a;
        } else if (r < 6) {
            req.prompt = head_b;
        }
        const size_t tail = 8 + rng.uniformInt(17); // 8..24
        for (size_t i = 0; i < tail; ++i) {
            req.prompt.push_back(
                static_cast<int>((31 + 13 * r + 7 * i) % 251));
        }
        req.max_new_tokens = 4 + rng.uniformInt(7); // 4..10
        req.priority = static_cast<int>(rng.uniformInt(4)) - 1;
        if (r % 3 == 1) {
            req.temperature = 0.8; // rng reset must survive restarts
            req.seed = 1000 + r;
        }
        if (r == 2)
            req.deadline_ms = 60.0; // 60 virtual steps end-to-end
        if (r == 7)
            req.ttft_deadline_ms = 40.0;
        reqs.push_back(std::move(req));
    }
    return reqs;
}

std::string
artifactName(const char *fmt, uint64_t seed)
{
    std::string clean;
    for (const char *p = fmt; *p != '\0'; ++p)
        clean.push_back(*p == '+' ? 'p' : *p);
    return "chaos_failure_" + clean + "_" + std::to_string(seed) +
        ".txt";
}

void
writeFailureArtifact(const char *fmt, uint64_t seed,
                     const FaultInjector &fault)
{
    std::ofstream out(artifactName(fmt, seed));
    out << "chaos episode FAILED\n"
        << "format: " << fmt << "\n"
        << "seed:   " << seed << "\n"
        << "repro:  MXPLUS_CHAOS_SEED=" << seed
        << " ./test_chaos --gtest_filter='Chaos.*'\n"
        << "fault schedule (step: site(detail)):\n"
        << fault.scheduleString();
}

bool
isPrefixOf(const std::vector<int> &partial, const std::vector<int> &full)
{
    if (partial.size() > full.size())
        return false;
    return std::equal(partial.begin(), partial.end(), full.begin());
}

void
runEpisode(const Transformer &model, const char *fmt, uint64_t seed,
           bool compress = false)
{
    SCOPED_TRACE(std::string(fmt) + " seed " + std::to_string(seed) +
                 (compress ? " (compressed)" : ""));
    const bool failed_before = ::testing::Test::HasFailure();
    const QuantConfig qc = QuantConfig::fromFormat(fmt);
    const auto reqs = chaosWorkload(seed);

    // Golden run: unbudgeted, fault-free, deadline-free — the
    // reference streams every chaos survivor must reproduce exactly.
    ServingEngine golden(model, qc, 4);
    std::vector<size_t> gids;
    for (ServeRequest req : reqs) {
        req.deadline_ms = 0.0;
        req.ttft_deadline_ms = 0.0;
        gids.push_back(golden.submit(std::move(req)));
    }
    golden.runToCompletion();

    // Chaos run: tight budget + 2x over-admission (real preemption),
    // aging, prefix sharing, virtual clock, a bounded queue, every
    // fault site armed, and random client cancels between steps.
    FaultInjector::Config fcfg;
    fcfg.seed = seed;
    fcfg.p_pool_exhausted = 0.10;
    fcfg.p_force_preempt = 0.10;
    fcfg.p_clock_skew = 0.10;
    fcfg.skew_ms_max = 8.0;
    fcfg.p_evict_storm = 0.05;
    fcfg.p_corrupt_page = 0.15;
    FaultInjector fault(fcfg);

    EngineOptions opts;
    opts.max_batch = 4;
    opts.kv_budget_tokens = 160; // 5 pages/layer = 10 budget pages
    opts.over_admission = 2.0;
    opts.aging_rate = 0.05;
    opts.prefill_chunk = 16;
    opts.prefix_cache_tokens = 128;
    opts.step_time_ms = 1.0;
    opts.queue_cap = 8;
    opts.shed_policy = ShedPolicy::kLowestPriority;
    opts.checksum_pages = true;
    opts.compress_frozen_pages = compress;
    opts.fault = &fault;
    ServingEngine engine(model, qc, opts);

    std::vector<size_t> ids;
    for (const ServeRequest &req : reqs)
        ids.push_back(engine.submit(req));

    Rng cancel_rng(seed * 7919u + 13);
    const size_t kMaxSteps = 20000; // watchdog: fail loudly, not hang
    size_t steps = 0;
    while (engine.step()) {
        if (++steps >= kMaxSteps)
            break;
        if (cancel_rng.uniform() < 0.02)
            engine.cancel(ids[cancel_rng.uniformInt(ids.size())]);
    }
    ASSERT_LT(steps, kMaxSteps) << "chaos episode failed to drain";

    // Terminal-state closure: exactly one outcome each, streams
    // bit-exact (full or prefix), nothing pending, nothing rejected.
    size_t completed = 0;
    for (size_t r = 0; r < reqs.size(); ++r) {
        const RequestStats &rs = engine.stats(ids[r]);
        const std::vector<int> &ref = golden.stats(gids[r]).generated;
        EXPECT_TRUE(rs.finished) << "request " << r;
        EXPECT_NE(rs.outcome, RequestOutcome::kPending)
            << "request " << r;
        EXPECT_NE(rs.outcome, RequestOutcome::kRejected)
            << "request " << r << " fits the budget";
        switch (rs.outcome) {
        case RequestOutcome::kCompleted:
            ++completed;
            EXPECT_EQ(rs.generated, ref) << "request " << r;
            break;
        case RequestOutcome::kCancelled:
        case RequestOutcome::kTimedOut:
            EXPECT_TRUE(isPrefixOf(rs.generated, ref))
                << "request " << r;
            break;
        case RequestOutcome::kShed:
            EXPECT_TRUE(rs.generated.empty()) << "request " << r;
            break;
        default:
            break;
        }
    }
    const EngineStats es = engine.engineStats();
    EXPECT_EQ(completed + es.shed_requests + es.timed_out_requests +
                  es.cancelled_requests,
              reqs.size());
    EXPECT_DOUBLE_EQ(es.goodput_ok_fraction,
                     static_cast<double>(completed) /
                         static_cast<double>(reqs.size()));

    // Resource closure: ledger at zero, queue and slots empty, only
    // the prefix cache's own references keep pages live — and the
    // cross-layer structural audits hold.
    EXPECT_EQ(engine.activeRequests(), 0u);
    EXPECT_EQ(engine.queuedRequests(), 0u);
    EXPECT_EQ(engine.reservedPages(), 0u);
    EXPECT_TRUE(engine.auditInvariants());
    const PrefixIndex *idx = engine.prefixIndex();
    ASSERT_NE(idx, nullptr);
    EXPECT_EQ(engine.pool().usedPages(), idx->heldPages());
    engine.clearPrefixCache();
    EXPECT_EQ(engine.pool().usedPages(), 0u);
    EXPECT_EQ(engine.kvBytesLive(), 0u);
    EXPECT_TRUE(engine.auditInvariants());

    // Corruption closure: with the index drained, every injected bit
    // flip was either caught by a checksum or evicted untouched —
    // nothing resident, nothing silently served (the bit-equal checks
    // above are the "never served" half of that claim).
    EXPECT_EQ(idx->undetectedResidentCorruptions(), 0u);
    EXPECT_EQ(idx->injectedCorruptions(),
              idx->detectedCorruptions() +
                  idx->evictedUndetectedCorruptions());
    EXPECT_GE(es.checksum_failures, idx->detectedCorruptions());

    if (compress) {
        // The episode must actually have exercised the codec path —
        // published spans compressed, adoptions decoded — so the
        // bit-equal checks above genuinely covered decode-on-read.
        EXPECT_GT(engine.pool().compressedRatio(), 1.0);
        EXPECT_GT(engine.pool().codecDecodeCalls(), 0u);
    }

    if (fault.events().empty()) {
        // With every site armed at these rates an episode with zero
        // fired faults means the schedule is broken, not lucky.
        ADD_FAILURE() << "no faults fired in " << steps << " steps";
    }

    // A failing episode leaves a repro artifact next to the binary
    // (seed + the exact fault schedule that fired); CI uploads it.
    if (!failed_before && ::testing::Test::HasFailure())
        writeFailureArtifact(fmt, seed, fault);
}

TEST(Chaos, EpisodesSurviveEveryFaultSiteBitExactly)
{
    const Transformer model(tinyConfig());
    const auto seeds = chaosSeeds();
    for (const char *fmt : {"BF16", "MXFP8", "MXFP4+"}) {
        for (const uint64_t seed : seeds)
            runEpisode(model, fmt, seed);
    }
}

TEST(Chaos, CompressedEpisodesSurviveEveryFaultSiteBitExactly)
{
    // One seed per format with frozen-page compression armed: the
    // decode-on-read path must uphold the same bit-exactness and
    // corruption-closure contract under every fault site — including
    // injected bit flips that now land in compressed streams and are
    // caught by the undecodable-page checksum sentinel.
    const Transformer model(tinyConfig());
    const uint64_t seed = chaosSeeds().front();
    for (const char *fmt : {"BF16", "MXFP8", "MXFP4+"})
        runEpisode(model, fmt, seed, /*compress=*/true);
}

TEST(Chaos, EpisodesAreDeterministicPerSeed)
{
    // The property every chaos failure report depends on: the same
    // seed replays the same terminal states and the same streams.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    const uint64_t seed = chaosSeeds().front();
    const auto reqs = chaosWorkload(seed);

    auto run = [&](std::vector<RequestOutcome> *outcomes,
                   std::vector<std::vector<int>> *streams) {
        FaultInjector::Config fcfg;
        fcfg.seed = seed;
        fcfg.p_pool_exhausted = 0.10;
        fcfg.p_force_preempt = 0.10;
        fcfg.p_clock_skew = 0.10;
        fcfg.p_evict_storm = 0.05;
        fcfg.p_corrupt_page = 0.15;
        FaultInjector fault(fcfg);
        EngineOptions opts;
        opts.max_batch = 4;
        opts.kv_budget_tokens = 160;
        opts.over_admission = 2.0;
        opts.aging_rate = 0.05;
        opts.prefill_chunk = 16;
        opts.prefix_cache_tokens = 128;
        opts.step_time_ms = 1.0;
        opts.queue_cap = 8;
        opts.shed_policy = ShedPolicy::kLowestPriority;
        opts.fault = &fault;
        ServingEngine engine(model, qc, opts);
        std::vector<size_t> ids;
        for (const ServeRequest &req : reqs)
            ids.push_back(engine.submit(req));
        Rng cancel_rng(seed * 7919u + 13);
        size_t steps = 0;
        while (engine.step() && ++steps < 20000) {
            if (cancel_rng.uniform() < 0.02)
                engine.cancel(ids[cancel_rng.uniformInt(ids.size())]);
        }
        for (const size_t id : ids) {
            outcomes->push_back(engine.stats(id).outcome);
            streams->push_back(engine.stats(id).generated);
        }
        return fault.scheduleString();
    };

    std::vector<RequestOutcome> out_a, out_b;
    std::vector<std::vector<int>> str_a, str_b;
    const std::string sched_a = run(&out_a, &str_a);
    const std::string sched_b = run(&out_b, &str_b);
    EXPECT_EQ(sched_a, sched_b);
    EXPECT_EQ(out_a, out_b);
    EXPECT_EQ(str_a, str_b);
}

} // namespace
} // namespace mxplus
