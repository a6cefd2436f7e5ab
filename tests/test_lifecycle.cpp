/**
 * @file
 * Request-lifecycle hardening tests: the terminal-state taxonomy
 * (completed / rejected / shed / timed_out / cancelled) and its
 * deprecated `rejected` alias, client cancellation from every phase —
 * including mid-prefix-adoption — TTFT and end-to-end deadlines on the
 * deterministic virtual step clock, bounded-queue load shedding under
 * both policies, shared-page checksum verification, the fault
 * injector's determinism contract, the runToCompletion watchdog, and
 * engine statistics that are valid whenever they are read.
 *
 * Every non-completed exit is checked for CLEAN release: pool pages,
 * reservation-ledger entries and prefix-trie pins all return to their
 * idle state (ServingEngine::auditInvariants), and partial token
 * streams are always bit-exact prefixes of the unconstrained run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

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

std::vector<ServeRequest>
sharedPrefixRequests(size_t n, size_t shared_len, size_t tail_len,
                     size_t new_tokens)
{
    const auto head = tokenRamp(shared_len, 3);
    std::vector<ServeRequest> reqs(n);
    for (size_t r = 0; r < n; ++r) {
        reqs[r].prompt = head;
        for (size_t i = 0; i < tail_len; ++i) {
            reqs[r].prompt.push_back(
                static_cast<int>((41 + 11 * r + 5 * i) % 251));
        }
        reqs[r].max_new_tokens = new_tokens;
        reqs[r].temperature = 0.0;
    }
    return reqs;
}

/** True when @p partial is a (possibly complete) prefix of @p full. */
bool
isPrefixOf(const std::vector<int> &partial, const std::vector<int> &full)
{
    if (partial.size() > full.size())
        return false;
    return std::equal(partial.begin(), partial.end(), full.begin());
}

// ------------------------------------------------------------ taxonomy --

TEST(Lifecycle, OutcomeNamesAreStable)
{
    EXPECT_STREQ(outcomeName(RequestOutcome::kPending), "pending");
    EXPECT_STREQ(outcomeName(RequestOutcome::kCompleted), "completed");
    EXPECT_STREQ(outcomeName(RequestOutcome::kRejected), "rejected");
    EXPECT_STREQ(outcomeName(RequestOutcome::kShed), "shed");
    EXPECT_STREQ(outcomeName(RequestOutcome::kTimedOut), "timed_out");
    EXPECT_STREQ(outcomeName(RequestOutcome::kCancelled), "cancelled");
}

TEST(Lifecycle, RejectionSetsOutcome)
{
    // An exhausted-budget submit reports through the outcome taxonomy
    // (the pre-PR6 `rejected` bool is gone): terminal state, empty
    // stream, engine counter and goodput all agree.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 2;
    opts.kv_budget_tokens = 64; // 2 pages/layer

    ServingEngine engine(model, qc, opts);
    ServeRequest ok;
    ok.prompt = tokenRamp(24, 3);
    ok.max_new_tokens = 8;
    ServeRequest too_big = ok;
    too_big.max_new_tokens = 64; // 88 tokens = 3 pages/layer > budget
    const size_t ok_id = engine.submit(ok);
    const size_t big_id = engine.submit(too_big);
    engine.runToCompletion();

    EXPECT_EQ(engine.stats(ok_id).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.stats(big_id).outcome, RequestOutcome::kRejected);
    EXPECT_TRUE(engine.stats(big_id).generated.empty());
    EXPECT_EQ(engine.engineStats().rejected_requests, 1u);
    EXPECT_DOUBLE_EQ(engine.engineStats().goodput_ok_fraction, 0.5);
    EXPECT_TRUE(engine.auditInvariants());
}

// -------------------------------------------------------- cancellation --

TEST(Lifecycle, CancelQueuedAndActiveReleasesEverything)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");

    // Golden run: no cancellation, same requests.
    std::vector<ServeRequest> reqs(3);
    for (size_t r = 0; r < reqs.size(); ++r) {
        reqs[r].prompt = tokenRamp(24, static_cast<int>(3 + r));
        reqs[r].max_new_tokens = 40;
    }
    ServingEngine golden(model, qc, 1);
    std::vector<size_t> gids;
    for (const auto &r : reqs)
        gids.push_back(golden.submit(r));
    golden.runToCompletion();

    EngineOptions opts;
    opts.max_batch = 1; // request 1 and 2 queue behind request 0
    ServingEngine engine(model, qc, opts);
    std::vector<size_t> ids;
    for (const auto &r : reqs)
        ids.push_back(engine.submit(r));

    // Let request 0 get partway through decode, then cancel it (active)
    // and request 2 (still queued). An unknown id must be refused.
    for (int i = 0; i < 8; ++i)
        engine.step();
    EXPECT_TRUE(engine.cancel(ids[0]));
    EXPECT_TRUE(engine.cancel(ids[2]));
    EXPECT_FALSE(engine.cancel(999));
    engine.runToCompletion();

    const RequestStats &r0 = engine.stats(ids[0]);
    EXPECT_EQ(r0.outcome, RequestOutcome::kCancelled);
    EXPECT_TRUE(r0.finished);
    // Partial output is a bit-exact prefix of the uncancelled stream.
    EXPECT_LT(r0.generated.size(), reqs[0].max_new_tokens);
    EXPECT_TRUE(isPrefixOf(r0.generated, golden.stats(gids[0]).generated));
    // A queued cancel produced nothing and ran nothing.
    EXPECT_EQ(engine.stats(ids[2]).outcome, RequestOutcome::kCancelled);
    EXPECT_TRUE(engine.stats(ids[2]).generated.empty());
    // The survivor is untouched.
    EXPECT_EQ(engine.stats(ids[1]).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.stats(ids[1]).generated,
              golden.stats(gids[1]).generated);
    // Cancelling a finished request reports the race to the caller.
    EXPECT_FALSE(engine.cancel(ids[0]));

    EXPECT_EQ(engine.engineStats().cancelled_requests, 2u);
    EXPECT_EQ(engine.pool().usedPages(), 0u);
    EXPECT_EQ(engine.reservedPages(), 0u);
    EXPECT_TRUE(engine.auditInvariants());
}

TEST(Lifecycle, CancelMidPrefixAdoptionDropsPinsAndKeepsSpansReusable)
{
    // The satellite: cancel a request while it is mid-way through
    // adopting a shared prefix (pages mapped, trie path pinned). The
    // pins must drop, page refcounts must return to the index alone,
    // and a follow-up request with the same prompt must still get a
    // bit-exact full prefix hit from the untouched spans.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 1;
    opts.prefill_chunk = 8; // the 32-token tail takes several quanta
    opts.prefix_cache_tokens = 256;
    ServingEngine engine(model, qc, opts);

    // Leader publishes a 2-page (64-token) shared head.
    auto reqs = sharedPrefixRequests(2, 64, 32, 6);
    const size_t leader = engine.submit(reqs[0]);
    engine.runToCompletion();
    EXPECT_EQ(engine.stats(leader).outcome, RequestOutcome::kCompleted);
    ASSERT_GE(engine.prefixCachedTokens(), 64u);

    // Follower (same head): step until it has adopted shared pages but
    // is still prefilling its private tail — cancelled exactly in the
    // middle of the adoption walk, pin held.
    ServeRequest follower = reqs[0];
    const size_t f_id = engine.submit(follower);
    for (int i = 0; i < 200 && engine.stats(f_id).generated.empty(); ++i) {
        engine.step();
        if (engine.stats(f_id).shared_prompt_tokens > 0)
            break;
    }
    ASSERT_GT(engine.stats(f_id).shared_prompt_tokens, 0u);
    ASSERT_TRUE(engine.stats(f_id).generated.empty());
    EXPECT_TRUE(engine.cancel(f_id));
    engine.runToCompletion();
    EXPECT_EQ(engine.stats(f_id).outcome, RequestOutcome::kCancelled);

    // Pins dropped, follower pages released: only the cached spans
    // remain resident, every page referenced exactly once (the index).
    EXPECT_EQ(engine.reservedPages(), 0u);
    EXPECT_EQ(engine.pool().usedPages(),
              engine.prefixIndex()->heldPages());
    EXPECT_TRUE(engine.auditInvariants());

    // Follow-up with the same prompt: full bit-exact prefix hit.
    const size_t g_id = engine.submit(reqs[0]);
    engine.runToCompletion();
    EXPECT_EQ(engine.stats(g_id).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.stats(g_id).shared_prompt_tokens, 64u);
    EXPECT_EQ(engine.stats(g_id).generated,
              engine.stats(leader).generated);

    // And the spans were never leaked: clearing drains the pool fully.
    engine.clearPrefixCache();
    EXPECT_EQ(engine.pool().usedPages(), 0u);
}

// ------------------------------------------------------------ deadlines --

TEST(Lifecycle, DeadlinesOnVirtualClockAreDeterministic)
{
    // step_time_ms makes deadline behaviour a pure function of the
    // step count: the same workload times out at the same step every
    // run. The timed-out request keeps its partial tokens — a prefix
    // of its unconstrained stream — and completed peers are untouched.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    ServeRequest slow;
    slow.prompt = tokenRamp(24, 3);
    slow.max_new_tokens = 48;
    ServeRequest fast = slow;
    fast.max_new_tokens = 6;

    ServingEngine golden(model, qc, 2);
    const size_t g_slow = golden.submit(slow);
    const size_t g_fast = golden.submit(fast);
    golden.runToCompletion();

    auto run = [&](double deadline) {
        EngineOptions opts;
        opts.max_batch = 2;
        opts.step_time_ms = 1.0; // virtual: 1 ms per step
        ServingEngine engine(model, qc, opts);
        ServeRequest bounded = slow;
        bounded.deadline_ms = deadline; // per-request knob
        const size_t s = engine.submit(bounded);
        const size_t f = engine.submit(fast);
        engine.runToCompletion();
        EXPECT_EQ(engine.stats(f).outcome, RequestOutcome::kCompleted);
        EXPECT_EQ(engine.stats(f).generated,
                  golden.stats(g_fast).generated);
        EXPECT_TRUE(engine.auditInvariants());
        EXPECT_EQ(engine.pool().usedPages(), 0u);
        return engine.stats(s).generated;
    };

    const auto cut_a = run(20.0);
    const auto cut_b = run(20.0);
    EXPECT_EQ(cut_a, cut_b); // deterministic cut point
    EXPECT_LT(cut_a.size(), slow.max_new_tokens);
    EXPECT_TRUE(isPrefixOf(cut_a, golden.stats(g_slow).generated));

    // Engine-default deadline applies when the request leaves it 0,
    // and the timeout is COUNTED as timed_out, not shed or cancelled.
    EngineOptions opts;
    opts.max_batch = 2;
    opts.step_time_ms = 1.0;
    opts.deadline_ms = 20.0;
    ServingEngine engine(model, qc, opts);
    const size_t s = engine.submit(slow);
    engine.runToCompletion();
    EXPECT_EQ(engine.stats(s).outcome, RequestOutcome::kTimedOut);
    EXPECT_EQ(engine.engineStats().timed_out_requests, 1u);
    EXPECT_EQ(engine.stats(s).generated, cut_a);
}

TEST(Lifecycle, TtftDeadlineCutsStalledQueuedRequests)
{
    // max_batch 1: the second request waits its whole TTFT budget in
    // the queue and must die there (no pages were ever held), while
    // the running request — whose first token landed long before the
    // TTFT bound — is immune even though it decodes much longer.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 1;
    opts.step_time_ms = 1.0;
    opts.ttft_deadline_ms = 10.0;
    ServingEngine engine(model, qc, opts);

    ServeRequest first;
    first.prompt = tokenRamp(16, 3);
    first.max_new_tokens = 40; // still decoding when the bound passes
    ServeRequest second = first;
    const size_t a = engine.submit(first);
    const size_t b = engine.submit(second);
    engine.runToCompletion();

    EXPECT_EQ(engine.stats(a).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.stats(b).outcome, RequestOutcome::kTimedOut);
    EXPECT_TRUE(engine.stats(b).generated.empty());
    EXPECT_EQ(engine.engineStats().timed_out_requests, 1u);
    EXPECT_TRUE(engine.auditInvariants());
}

// --------------------------------------------------------- load shedding --

TEST(Lifecycle, QueueCapShedsNewestAtSubmitTime)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 1;
    opts.queue_cap = 2;
    ServingEngine engine(model, qc, opts);

    ServeRequest req;
    req.prompt = tokenRamp(16, 3);
    req.max_new_tokens = 6;
    std::vector<size_t> ids;
    ids.push_back(engine.submit(req));
    engine.step(); // ids[0] occupies the slot; the queue is empty
    for (int i = 0; i < 3; ++i)
        ids.push_back(engine.submit(req));

    // The shed decision is visible at submit time, before any step.
    EXPECT_EQ(engine.stats(ids[3]).outcome, RequestOutcome::kShed);
    EXPECT_TRUE(engine.stats(ids[3]).finished);
    EXPECT_EQ(engine.queuedRequests(), 2u); // ids[1], ids[2]

    engine.runToCompletion();
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(engine.stats(ids[i]).outcome,
                  RequestOutcome::kCompleted);
    EXPECT_EQ(engine.engineStats().shed_requests, 1u);
    EXPECT_TRUE(engine.auditInvariants());
}

TEST(Lifecycle, LowestPriorityShedDisplacesWorseQueuedRequest)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 1;
    opts.queue_cap = 2;
    opts.shed_policy = ShedPolicy::kLowestPriority;
    ServingEngine engine(model, qc, opts);

    ServeRequest req;
    req.prompt = tokenRamp(16, 3);
    req.max_new_tokens = 6;
    const size_t running = engine.submit(req);
    engine.step(); // `running` occupies the slot; the queue is empty
    ServeRequest low = req;
    low.priority = -1;
    const size_t low_id = engine.submit(low); // queued
    const size_t mid_id = engine.submit(req); // queued, prio 0: cap hit

    // An incoming request that does NOT outrank the worst queued one
    // is shed itself (ties keep the incumbent)...
    const size_t tie_id = engine.submit(low);
    EXPECT_EQ(engine.stats(tie_id).outcome, RequestOutcome::kShed);
    EXPECT_EQ(engine.queuedRequests(), 2u);

    // ...while a higher-priority arrival displaces the worst.
    ServeRequest high = req;
    high.priority = 2;
    const size_t high_id = engine.submit(high);
    EXPECT_EQ(engine.stats(low_id).outcome, RequestOutcome::kShed);
    EXPECT_EQ(engine.queuedRequests(), 2u);

    engine.runToCompletion();
    EXPECT_EQ(engine.stats(running).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.stats(mid_id).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.stats(high_id).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.engineStats().shed_requests, 2u);
    EXPECT_TRUE(engine.auditInvariants());
}

TEST(Lifecycle, OverlongQueueWaitShedsDeterministically)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 1;
    opts.step_time_ms = 1.0;
    opts.max_queue_wait_ms = 8.0;
    ServingEngine engine(model, qc, opts);

    ServeRequest slow;
    slow.prompt = tokenRamp(16, 3);
    slow.max_new_tokens = 30; // holds the slot past the wait bound
    ServeRequest waiter = slow;
    const size_t a = engine.submit(slow);
    const size_t b = engine.submit(waiter);
    engine.runToCompletion();

    EXPECT_EQ(engine.stats(a).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.stats(b).outcome, RequestOutcome::kShed);
    EXPECT_EQ(engine.engineStats().shed_requests, 1u);
    EXPECT_TRUE(engine.auditInvariants());
}

// ------------------------------------------------------------ checksums --

TEST(Lifecycle, CorruptedSpanIsDetectedQuarantinedAndNeverServed)
{
    // Publish a span, corrupt it through the chaos hook, then submit a
    // same-prompt follower: adoption-time verification must refuse the
    // span (counting a checksum failure), the follower must compute
    // privately and still produce the bit-exact golden stream, and the
    // quarantined node must drain without ever being served.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");

    FaultInjector::Config fcfg;
    fcfg.seed = 7;
    fcfg.p_corrupt_page = 1.0; // corrupt one idle leaf every step
    FaultInjector fault(fcfg);

    EngineOptions opts;
    opts.max_batch = 1;
    opts.prefix_cache_tokens = 256;
    opts.fault = &fault;
    ServingEngine engine(model, qc, opts);

    auto reqs = sharedPrefixRequests(2, 64, 8, 6);
    const size_t leader = engine.submit(reqs[0]);
    engine.runToCompletion();
    const size_t f_id = engine.submit(reqs[0]); // identical prompt
    engine.runToCompletion();

    const PrefixIndex *idx = engine.prefixIndex();
    ASSERT_NE(idx, nullptr);
    EXPECT_GT(idx->injectedCorruptions(), 0u);
    EXPECT_GT(idx->detectedCorruptions(), 0u);
    EXPECT_GT(engine.engineStats().checksum_failures, 0u);
    // Correctness never depended on the cache: bit-equal regardless.
    EXPECT_EQ(engine.stats(f_id).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.stats(f_id).generated,
              engine.stats(leader).generated);
    EXPECT_TRUE(engine.auditInvariants());

    // Quarantined spans drain via eviction; the accounting identity
    // closes once nothing is resident.
    engine.clearPrefixCache();
    EXPECT_EQ(engine.pool().usedPages(), 0u);
    EXPECT_EQ(idx->injectedCorruptions(),
              idx->detectedCorruptions() +
                  idx->evictedUndetectedCorruptions());
}

TEST(Lifecycle, ChecksumVerificationCanBeDisabled)
{
    // checksum_pages=false skips verification (the production fast
    // path): adoption proceeds and no failures are counted. Nothing
    // corrupts pages here — the knob only gates the verify calls.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 1;
    opts.prefix_cache_tokens = 256;
    opts.checksum_pages = false;
    ServingEngine engine(model, qc, opts);

    auto reqs = sharedPrefixRequests(2, 64, 8, 6);
    const size_t a = engine.submit(reqs[0]);
    engine.runToCompletion();
    const size_t b = engine.submit(reqs[0]);
    engine.runToCompletion();
    EXPECT_EQ(engine.stats(b).shared_prompt_tokens, 64u);
    EXPECT_EQ(engine.stats(b).generated, engine.stats(a).generated);
    EXPECT_EQ(engine.engineStats().checksum_failures, 0u);
}

// -------------------------------------------------------- fault injector --

TEST(Lifecycle, FaultInjectorIsDeterministicPerSeed)
{
    FaultInjector::Config cfg;
    cfg.seed = 42;
    cfg.p_pool_exhausted = 0.3;
    cfg.p_force_preempt = 0.3;
    cfg.p_clock_skew = 0.3;
    cfg.p_evict_storm = 0.3;
    cfg.p_corrupt_page = 0.3;

    auto drive = [](FaultInjector &f) {
        std::string log;
        for (uint64_t s = 0; s < 50; ++s) {
            f.beginStep(s);
            for (size_t site = 0; site < kFaultSiteCount; ++site) {
                if (f.shouldFire(static_cast<FaultSite>(site)) &&
                    static_cast<FaultSite>(site) ==
                        FaultSite::kClockSkew) {
                    f.drawSkewMs();
                }
            }
        }
        return f.scheduleString();
    };

    FaultInjector a(cfg);
    FaultInjector b(cfg);
    EXPECT_EQ(drive(a), drive(b));
    EXPECT_FALSE(a.events().empty());
    size_t total = 0;
    for (size_t site = 0; site < kFaultSiteCount; ++site)
        total += a.fired(static_cast<FaultSite>(site));
    EXPECT_EQ(total, a.events().size());

    cfg.seed = 43;
    FaultInjector c(cfg);
    EXPECT_NE(drive(c), a.scheduleString());
}

TEST(Lifecycle, DisabledFaultSitesConsumeNoDraws)
{
    // Toggling one site's probability to zero must not reshuffle the
    // schedule of the sites that stay enabled — otherwise a reproducer
    // could not narrow a failure down to one fault class.
    FaultInjector::Config all;
    all.seed = 99;
    all.p_force_preempt = 0.5;
    FaultInjector::Config extra = all;
    extra.p_corrupt_page = 0.0; // explicit zero — identical config

    FaultInjector a(all);
    FaultInjector b(extra);
    for (uint64_t s = 0; s < 100; ++s) {
        a.beginStep(s);
        b.beginStep(s);
        // b polls the disabled site too; it must not advance the rng.
        b.shouldFire(FaultSite::kCorruptPage);
        EXPECT_EQ(a.shouldFire(FaultSite::kForcePreempt),
                  b.shouldFire(FaultSite::kForcePreempt))
            << "step " << s;
    }
}

TEST(Lifecycle, HashFloatsDetectsSingleBitFlips)
{
    std::vector<float> buf(257);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<float>(i) * 0.25f - 3.0f;
    const uint64_t base = hashFloats(buf.data(), buf.size());
    EXPECT_EQ(base, hashFloats(buf.data(), buf.size()));

    for (const size_t idx : {size_t(0), size_t(128), buf.size() - 1}) {
        uint32_t word;
        std::memcpy(&word, &buf[idx], sizeof(word));
        word ^= 1u;
        std::memcpy(&buf[idx], &word, sizeof(word));
        EXPECT_NE(base, hashFloats(buf.data(), buf.size()))
            << "bit flip at " << idx;
        word ^= 1u;
        std::memcpy(&buf[idx], &word, sizeof(word));
    }
    EXPECT_EQ(base, hashFloats(buf.data(), buf.size()));
}

// ------------------------------------------------------------- watchdog --

TEST(Lifecycle, RunToCompletionWatchdogTripsInsteadOfHanging)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    ServeRequest req;
    req.prompt = tokenRamp(24, 3);
    req.max_new_tokens = 30;

    ServingEngine capped(model, qc, 1);
    capped.submit(req);
    EXPECT_FALSE(capped.runToCompletion(2)); // cannot finish in 2 steps
    // Stats stay readable for loud failure reporting.
    EXPECT_GT(capped.engineStats().wall_ms, 0.0);

    ServingEngine roomy(model, qc, 1);
    const size_t id = roomy.submit(req);
    EXPECT_TRUE(roomy.runToCompletion(100000));
    EXPECT_EQ(roomy.stats(id).outcome, RequestOutcome::kCompleted);
    EXPECT_DOUBLE_EQ(roomy.engineStats().goodput_ok_fraction, 1.0);
}

// --------------------------------------------------- statistics on read --

/** Field-for-field equality of two stats blocks; @p wall adds the
    wall-clock fields (wall_ms, decode_ms and the two tok/s rates). */
void
expectSameStats(const EngineStats &a, const EngineStats &b, bool wall)
{
    if (wall) {
        EXPECT_DOUBLE_EQ(a.wall_ms, b.wall_ms);
        EXPECT_DOUBLE_EQ(a.throughput_tokens_per_s,
                         b.throughput_tokens_per_s);
        EXPECT_DOUBLE_EQ(a.decode_ms, b.decode_ms);
        EXPECT_DOUBLE_EQ(a.decode_tokens_per_s, b.decode_tokens_per_s);
    }
    EXPECT_EQ(a.total_generated, b.total_generated);
    EXPECT_EQ(a.decode_batches, b.decode_batches);
    EXPECT_EQ(a.decode_tokens, b.decode_tokens);
    EXPECT_DOUBLE_EQ(a.mean_batch_occupancy, b.mean_batch_occupancy);
    EXPECT_EQ(a.kv_bytes_peak, b.kv_bytes_peak);
    EXPECT_EQ(a.kv_bytes_reserved_peak, b.kv_bytes_reserved_peak);
    EXPECT_EQ(a.kv_pages_peak, b.kv_pages_peak);
    EXPECT_EQ(a.prefill_chunks, b.prefill_chunks);
    EXPECT_EQ(a.admission_deferred_steps, b.admission_deferred_steps);
    EXPECT_EQ(a.prefix_hit_requests, b.prefix_hit_requests);
    EXPECT_EQ(a.prefix_hit_tokens, b.prefix_hit_tokens);
    EXPECT_EQ(a.prefix_inserted_tokens, b.prefix_inserted_tokens);
    EXPECT_EQ(a.prefix_evicted_pages, b.prefix_evicted_pages);
    EXPECT_EQ(a.sjf_reorders, b.sjf_reorders);
    EXPECT_EQ(a.rejected_requests, b.rejected_requests);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.preempted_recompute_tokens, b.preempted_recompute_tokens);
    EXPECT_DOUBLE_EQ(a.queue_wait_ms_p50, b.queue_wait_ms_p50);
    EXPECT_DOUBLE_EQ(a.queue_wait_ms_p99, b.queue_wait_ms_p99);
    EXPECT_EQ(a.shed_requests, b.shed_requests);
    EXPECT_EQ(a.timed_out_requests, b.timed_out_requests);
    EXPECT_EQ(a.cancelled_requests, b.cancelled_requests);
    EXPECT_EQ(a.checksum_failures, b.checksum_failures);
    EXPECT_EQ(a.admitted_before_first_defer, b.admitted_before_first_defer);
    EXPECT_DOUBLE_EQ(a.compressed_ratio, b.compressed_ratio);
    EXPECT_EQ(a.codec_decode_calls, b.codec_decode_calls);
    EXPECT_DOUBLE_EQ(a.goodput_ok_fraction, b.goodput_ok_fraction);
}

TEST(Lifecycle, EngineStatsReadAfterManualStepsEqualRunToCompletion)
{
    // One engine stepped by hand until idle, its twin drained by
    // runToCompletion(), over the same requests on the virtual clock:
    // a 2x window over a two-request budget preempts, a queue cap of
    // five sheds the sixth submit, and one request is cancelled.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 4;
    opts.kv_budget_tokens = 128;
    opts.over_admission = 2.0;
    opts.queue_cap = 5;
    opts.step_time_ms = 1.0;
    ServingEngine stepped(model, qc, opts);
    ServingEngine drained(model, qc, opts);
    for (ServingEngine *e : {&stepped, &drained}) {
        for (size_t r = 0; r < 6; ++r) {
            ServeRequest req;
            req.prompt = tokenRamp(40, static_cast<int>(3 + 2 * r));
            req.max_new_tokens = 24;
            e->submit(req);
        }
        EXPECT_TRUE(e->cancel(2));
    }

    size_t steps = 0;
    bool busy = true;
    while (busy) {
        busy = stepped.step();
        ++steps;
        // Valid at every step boundary, and a read changes nothing.
        const EngineStats now = stepped.engineStats();
        expectSameStats(now, stepped.engineStats(), /*wall=*/true);
        size_t generated = 0;
        for (size_t id = 0; id < 6; ++id)
            generated += stepped.stats(id).generated.size();
        ASSERT_EQ(now.total_generated, generated) << "step " << steps;
    }
    drained.runToCompletion();

    const EngineStats a = stepped.engineStats();
    const EngineStats b = drained.engineStats();
    EXPECT_GT(a.preemptions, 0u);
    EXPECT_EQ(a.shed_requests, 1u);
    EXPECT_EQ(a.cancelled_requests, 1u);
    EXPECT_DOUBLE_EQ(a.goodput_ok_fraction, 4.0 / 6.0);
    EXPECT_EQ(a.total_generated, 4u * 24u);
    EXPECT_GT(a.mean_batch_occupancy, 1.0);
    EXPECT_GT(a.queue_wait_ms_p99, 0.0);
    expectSameStats(a, b, /*wall=*/false);
    expectSameStats(b, drained.engineStats(), /*wall=*/true);
}

} // namespace
} // namespace mxplus
