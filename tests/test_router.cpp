/**
 * @file
 * Tests for the sharded serving router (serve/router.h): the
 * prefix-affinity routing function, ShardedFrontEnd driven through its
 * client surface, and the canonical invariant extended
 * to sharding — every completed stream is bit-identical to a
 * single-engine golden run in every format, including under forced
 * re-routing (retireShard), racing submits/cancels, per-shard chaos
 * injection — and now fleet health: crash failover without drain
 * (failShard), heartbeat detection on a virtual clock (superviseOnce),
 * shard-level chaos (wedge/death/slow) with supervised recovery,
 * retirement of a wedged shard, the bounded-wait guarantee that no
 * producer can hang on a wedged shard, and the fleet merge rule
 * (mergeFleetStats) the bench's serial fleet shares.
 *
 * Failing chaos episodes write chaos_failure_router_<fmt>_<seed>.txt
 * (seed, per-shard fault schedules, repro command) into the working
 * directory; CI uploads them. MXPLUS_CHAOS_SEED / MXPLUS_CHAOS_SEEDS
 * narrow/widen the seed sweep exactly like tests/test_chaos.cpp.
 *
 * This file runs under the ThreadSanitizer CI job (labels
 * `router;serving`), so the router's accept-guard, re-route hand-off,
 * failover ownership protocol and fleet-stats merge are all TSan
 * proof obligations too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/health.h"
#include "serve/router.h"
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

/** Varied standalone requests (distinct prompts, lengths, answers). */
std::vector<ServeRequest>
makeRequests(size_t n)
{
    std::vector<ServeRequest> reqs(n);
    for (size_t i = 0; i < n; ++i) {
        reqs[i].prompt = tokenRamp(8 + 5 * (i % 4), static_cast<int>(3 + i));
        reqs[i].max_new_tokens = 4 + (i % 3) * 3;
    }
    return reqs;
}

/** @p groups families of @p per requests sharing a @p head_pages-page
    system prompt per family — the workload prefix affinity exists
    for. */
std::vector<ServeRequest>
makeSharedPrefixRequests(size_t groups, size_t per, size_t page_tokens,
                         size_t head_pages)
{
    std::vector<ServeRequest> reqs;
    for (size_t g = 0; g < groups; ++g) {
        const std::vector<int> head =
            tokenRamp(head_pages * page_tokens, static_cast<int>(3 + g));
        for (size_t i = 0; i < per; ++i) {
            ServeRequest r;
            r.prompt = head;
            const std::vector<int> tail =
                tokenRamp(5 + 3 * i, static_cast<int>(31 + g * per + i));
            r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
            r.max_new_tokens = 6 + (i % 3) * 4;
            reqs.push_back(std::move(r));
        }
    }
    return reqs;
}

/** Drive @p reqs through a front end: submit all, drain, return
    final per-request stats copies in submission order. */
std::vector<RequestStats>
runThroughClient(ShardedFrontEnd &client,
                 const std::vector<ServeRequest> &reqs)
{
    std::vector<uint64_t> tickets;
    tickets.reserve(reqs.size());
    for (const auto &r : reqs)
        tickets.push_back(client.submit(r));
    client.drain();
    std::vector<RequestStats> out;
    out.reserve(reqs.size());
    for (uint64_t t : tickets)
        out.push_back(client.stats(t));
    return out;
}

const char *const kFormats[] = {"BF16", "MXFP8", "MXFP4+"};

// -------------------------------------------------------- routing policy --

TEST(Router, AffinityShardIsAPureFunctionOfPrefixPages)
{
    const size_t pt = 32;
    const std::vector<int> head = tokenRamp(2 * pt, 3);

    // Same leading pages, different tails: identical shard — the whole
    // point of the affinity key is that a family sharing a system
    // prompt lands together.
    std::vector<int> a = head;
    std::vector<int> b = head;
    const auto ta = tokenRamp(9, 17);
    const auto tb = tokenRamp(13, 23);
    a.insert(a.end(), ta.begin(), ta.end());
    b.insert(b.end(), tb.begin(), tb.end());
    for (size_t shards = 1; shards <= 8; ++shards) {
        EXPECT_EQ(affinityShard(a, pt, shards),
                  affinityShard(b, pt, shards));
        // Pure function: repeated evaluation never drifts.
        EXPECT_EQ(affinityShard(a, pt, shards),
                  affinityShard(a, pt, shards));
        EXPECT_LT(affinityShard(a, pt, shards), shards);
    }

    // A differing FIRST page must be able to separate families (with
    // 64 distinct heads and 8 shards, a constant hash would pin all of
    // them to one shard).
    bool separated = false;
    const size_t base = affinityShard(tokenRamp(2 * pt, 100), pt, 8);
    for (int s = 101; s < 164 && !separated; ++s)
        separated = affinityShard(tokenRamp(2 * pt, s), pt, 8) != base;
    EXPECT_TRUE(separated);

    // Sub-page prompts hash in full rather than all colliding at 0
    // pages.
    const std::vector<int> shorty = tokenRamp(7, 3);
    EXPECT_EQ(affinityShard(shorty, pt, 8),
              affinityShard(shorty, pt, 8));
}

// ------------------------------------------------------ fleet merge rule --

TEST(Router, MergeFleetStatsSumsShardsAndCountsEachTicketOnce)
{
    // Two shards' finalized stats. One request was re-routed from a to
    // b, so its work (and a's engine-level cancel of it) shows up in
    // both shards' counters.
    EngineStats a;
    a.wall_ms = 40.0;
    a.throughput_tokens_per_s = 100.0;
    a.decode_batches = 10;
    a.decode_tokens = 30;
    a.mean_batch_occupancy = 3.0;
    a.kv_bytes_peak = 1000;
    a.prefill_chunks = 4;
    a.preemptions = 1;
    a.compressed_ratio = 2.0;
    a.compressed_stream_bytes = 600;
    a.cancelled_requests = 1; // the re-route artifact
    EngineStats b;
    b.wall_ms = 55.0;
    b.throughput_tokens_per_s = 50.0;
    b.decode_batches = 30;
    b.decode_tokens = 40;
    b.mean_batch_occupancy = 1.0;
    b.kv_bytes_peak = 500;
    b.prefill_chunks = 3;
    b.compressed_ratio = 4.0;
    b.compressed_stream_bytes = 600;
    b.cancelled_requests = 1; // the client's cancel

    // One terminal RequestStats per ticket.
    RequestStats completed;
    completed.outcome = RequestOutcome::kCompleted;
    completed.generated = {1, 2, 3};
    completed.queue_wait_ms = 2.0;
    RequestStats shed;
    shed.outcome = RequestOutcome::kShed;
    shed.queue_wait_ms = 9.0;
    RequestStats cancelled;
    cancelled.outcome = RequestOutcome::kCancelled;
    cancelled.generated = {4};
    cancelled.queue_wait_ms = 1.0;
    RequestStats rerouted;
    rerouted.outcome = RequestOutcome::kCompleted;
    rerouted.generated = {5, 6};
    rerouted.queue_wait_ms = 5.0;

    const EngineStats f = mergeFleetStats(
        {&a, &b}, {&completed, &shed, &cancelled, &rerouted});
    EXPECT_EQ(f.decode_batches, 40u);
    EXPECT_EQ(f.decode_tokens, 70u);
    EXPECT_EQ(f.kv_bytes_peak, 1500u);
    EXPECT_EQ(f.prefill_chunks, 7u);
    EXPECT_EQ(f.preemptions, 1u);
    EXPECT_DOUBLE_EQ(f.throughput_tokens_per_s, 150.0);
    EXPECT_DOUBLE_EQ(f.wall_ms, 55.0);
    // Weighted by decode batches: (3 x 10 + 1 x 30) / 40.
    EXPECT_DOUBLE_EQ(f.mean_batch_occupancy, 1.5);
    // A ratio of sums: (2 x 600 + 4 x 600) / (600 + 600).
    EXPECT_DOUBLE_EQ(f.compressed_ratio, 3.0);
    EXPECT_EQ(f.compressed_stream_bytes, 1200u);
    // Per ticket: the re-routed request counts once, completed, and
    // a's engine-level cancel of it never surfaces.
    EXPECT_EQ(f.total_generated, 6u);
    EXPECT_EQ(f.shed_requests, 1u);
    EXPECT_EQ(f.cancelled_requests, 1u);
    EXPECT_EQ(f.timed_out_requests, 0u);
    EXPECT_EQ(f.rejected_requests, 0u);
    EXPECT_DOUBLE_EQ(f.goodput_ok_fraction, 0.5);
    // Nearest rank over the per-ticket waits {1, 2, 5, 9}.
    EXPECT_DOUBLE_EQ(f.queue_wait_ms_p50, 5.0);
    EXPECT_DOUBLE_EQ(f.queue_wait_ms_p99, 9.0);

    const EngineStats empty = mergeFleetStats({}, {});
    EXPECT_DOUBLE_EQ(empty.compressed_ratio, 1.0);
    EXPECT_DOUBLE_EQ(empty.goodput_ok_fraction, 0.0);
}

TEST(Router, MergeFleetStatsWeighsCompressedRatioByStreamBytes)
{
    // A shard that compressed nothing reports 1.0 over zero stream
    // bytes; it must not drag the fleet ratio toward 1.
    EngineStats idle; // compressed_ratio 1.0, compressed_stream_bytes 0
    EngineStats busy;
    busy.compressed_ratio = 7.10;
    busy.compressed_stream_bytes = 4096;
    EXPECT_DOUBLE_EQ(mergeFleetStats({&idle, &busy}, {}).compressed_ratio,
                     7.10);
    EXPECT_DOUBLE_EQ(mergeFleetStats({&idle, &idle}, {}).compressed_ratio,
                     1.0);
    // Unequal streams weigh by bytes: (2 x 100 + 5 x 300) / 400.
    EngineStats small;
    small.compressed_ratio = 2.0;
    small.compressed_stream_bytes = 100;
    EngineStats large;
    large.compressed_ratio = 5.0;
    large.compressed_stream_bytes = 300;
    EXPECT_DOUBLE_EQ(mergeFleetStats({&small, &large}, {}).compressed_ratio,
                     4.25);
}

// ------------------------------------- 4 shards == single golden, per format

TEST(Router, FourShardStreamsBitEqualGoldenEveryFormat)
{
    const Transformer model(tinyConfig());
    constexpr size_t kProducers = 4;

    for (const char *fmt : kFormats) {
        SCOPED_TRACE(fmt);
        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        EngineOptions opts;
        opts.max_batch = 3;
        opts.prefix_cache_tokens = 512; // affinity has something to win

        RouterOptions router;
        router.num_shards = 4;
        ShardedFrontEnd fe(model, qc, opts, router);
        const auto reqs = makeSharedPrefixRequests(/*groups=*/4, /*per=*/3,
                                                   fe.pageTokens(),
                                                   /*head_pages=*/2);

        // Golden: one synchronous engine, same requests, index order.
        ServingEngine golden(model, qc, opts);
        std::vector<size_t> gids;
        for (const auto &r : reqs)
            gids.push_back(golden.submit(r));
        golden.runToCompletion();

        // Sharded: producer threads race disjoint slices in, so
        // arrival order, shard placement and batching all differ from
        // the golden run.
        std::vector<uint64_t> tickets(reqs.size());
        std::vector<std::thread> producers;
        for (size_t p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                for (size_t i = p; i < reqs.size(); i += kProducers)
                    tickets[i] = fe.submit(reqs[i]);
            });
        }
        for (auto &t : producers)
            t.join();
        fe.drain();

        size_t golden_total = 0;
        for (size_t i = 0; i < reqs.size(); ++i) {
            const RequestStats &s = fe.stats(tickets[i]);
            const RequestStats &g = golden.stats(gids[i]);
            EXPECT_EQ(s.outcome, RequestOutcome::kCompleted);
            ASSERT_EQ(s.generated, g.generated) << "req " << i;
            golden_total += g.generated.size();
        }

        // Fleet view: per-ticket truth for outcomes/goodput, shards
        // idle and clean underneath.
        const EngineStats &fleet = fe.engineStats();
        EXPECT_EQ(fleet.total_generated, golden_total);
        EXPECT_DOUBLE_EQ(fleet.goodput_ok_fraction, 1.0);
        EXPECT_EQ(fleet.cancelled_requests, 0u);
        // With the prefix cache on, retained prefix pages legitimately
        // stay live after drain (test_serving clears the cache before
        // asserting zero); auditInvariants still proves every byte is
        // either a cached prefix or nothing.
        EXPECT_TRUE(fe.auditInvariants());
    }
}

// ---------------------------------------------------- forced re-routing --

TEST(Router, RetireShardReroutesBitExactly)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 2; // keeps shards busy long enough to catch mid-flight

    std::vector<ServeRequest> reqs(10);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].prompt = tokenRamp(20 + 4 * (i % 3), static_cast<int>(3 + i));
        reqs[i].max_new_tokens = 32; // long: re-route lands mid-generation
    }

    ServingEngine golden(model, qc, opts);
    std::vector<size_t> gids;
    for (const auto &r : reqs)
        gids.push_back(golden.submit(r));
    golden.runToCompletion();

    RouterOptions router;
    router.num_shards = 4;
    ShardedFrontEnd fe(model, qc, opts, router);
    std::vector<uint64_t> tickets;
    for (const auto &r : reqs)
        tickets.push_back(fe.submit(r));

    // Force re-routing while generation is in flight: retire two of
    // the four shards back to back. Whatever each one held — ring
    // commands not yet mapped, queued admissions, half-generated
    // slots — must restart elsewhere and regenerate bit-identically.
    ASSERT_TRUE(fe.retireShard(0));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(fe.retireShard(1));
    EXPECT_TRUE(fe.shardRetired(0));
    EXPECT_TRUE(fe.shardRetired(1));
    EXPECT_EQ(fe.liveShards(), 2u);
    // A retired shard refuses a second retirement; the last live
    // shards refuse to die.
    EXPECT_FALSE(fe.retireShard(0));
    ASSERT_TRUE(fe.retireShard(2));
    EXPECT_FALSE(fe.retireShard(3)); // someone must keep serving
    EXPECT_EQ(fe.liveShards(), 1u);

    fe.drain();
    for (size_t i = 0; i < reqs.size(); ++i) {
        const RequestStats &s = fe.stats(tickets[i]);
        EXPECT_EQ(s.outcome, RequestOutcome::kCompleted) << "req " << i;
        ASSERT_EQ(s.generated, golden.stats(gids[i]).generated)
            << "req " << i;
    }

    // Ticket truth: nobody cancelled anything — the engine-level
    // cancels a re-route performs are an implementation detail and
    // must NOT surface in fleet outcome accounting.
    const EngineStats &fleet = fe.engineStats();
    EXPECT_EQ(fleet.cancelled_requests, 0u);
    EXPECT_DOUBLE_EQ(fleet.goodput_ok_fraction, 1.0);
    EXPECT_TRUE(fe.auditInvariants());
    for (size_t sdx = 0; sdx < fe.numShards(); ++sdx)
        EXPECT_EQ(fe.shardEngine(sdx).kvBytesLive(), 0u) << "shard " << sdx;
}

TEST(Router, SubmitDuringShardDrainNeverLosesRequests)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP8");
    EngineOptions opts;
    opts.max_batch = 2;

    const auto reqs = makeRequests(16);
    ServingEngine golden(model, qc, opts);
    std::vector<size_t> gids;
    for (const auto &r : reqs)
        gids.push_back(golden.submit(r));
    golden.runToCompletion();

    RouterOptions router;
    router.num_shards = 3;
    ShardedFrontEnd fe(model, qc, opts, router);

    // Producers submit WHILE two shards retire: some submits hit the
    // sealed shard's accept-guard between pick and push and must
    // re-pick; some land in a retiring ring and must re-route.
    std::vector<uint64_t> tickets(reqs.size());
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (size_t i = p; i < reqs.size(); i += 2)
                tickets[i] = fe.submit(reqs[i]);
        });
    }
    go.store(true, std::memory_order_release);
    ASSERT_TRUE(fe.retireShard(1));
    ASSERT_TRUE(fe.retireShard(2));
    for (auto &t : producers)
        t.join();
    fe.drain();

    for (size_t i = 0; i < reqs.size(); ++i) {
        const RequestStats &s = fe.stats(tickets[i]);
        EXPECT_EQ(s.outcome, RequestOutcome::kCompleted) << "req " << i;
        ASSERT_EQ(s.generated, golden.stats(gids[i]).generated)
            << "req " << i;
    }
    EXPECT_DOUBLE_EQ(fe.engineStats().goodput_ok_fraction, 1.0);
    EXPECT_TRUE(fe.auditInvariants());
}

// ---------------------------------------------- cancel racing re-route --

TEST(Router, CancelRacingRerouteDeliversPrefixAndCountsOnce)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 2;

    ServeRequest base;
    base.prompt = tokenRamp(24, 5);
    base.max_new_tokens = 24;
    ServingEngine golden(model, qc, opts);
    const size_t gid = golden.submit(base);
    golden.runToCompletion();
    const std::vector<int> full = golden.stats(gid).generated;
    ASSERT_EQ(full.size(), base.max_new_tokens);

    RouterOptions router;
    router.num_shards = 3;
    ShardedFrontEnd fe(model, qc, opts, router);
    constexpr size_t kCopies = 9;
    std::vector<uint64_t> tickets;
    for (size_t i = 0; i < kCopies; ++i)
        tickets.push_back(fe.submit(base));

    // Three-way race: cancels target every third copy while a shard
    // retires underneath them — a cancel's wake-up may chase a ticket
    // across the re-route, and the flag must land regardless.
    std::thread retirer([&] { fe.retireShard(0); });
    std::thread canceller([&] {
        for (size_t i = 0; i < kCopies; i += 3)
            fe.cancel(tickets[i]);
    });
    retirer.join();
    canceller.join();
    fe.drain();

    size_t cancelled = 0;
    for (size_t i = 0; i < kCopies; ++i) {
        const RequestStats &rs = fe.stats(tickets[i]);
        // Whatever the interleaving, the stream is a bit-exact prefix
        // of the uncancelled golden stream.
        ASSERT_LE(rs.generated.size(), full.size());
        for (size_t t = 0; t < rs.generated.size(); ++t)
            ASSERT_EQ(rs.generated[t], full[t]) << "copy " << i;
        if (rs.outcome == RequestOutcome::kCancelled) {
            ++cancelled;
        } else {
            EXPECT_EQ(rs.outcome, RequestOutcome::kCompleted);
            EXPECT_EQ(rs.generated.size(), full.size());
        }
    }
    // Fleet outcome accounting is per ticket: each cancel counts
    // exactly once even if its victim was mid-re-route, and re-route's
    // own engine-level cancels never inflate the number.
    const EngineStats &fleet = fe.engineStats();
    EXPECT_EQ(fleet.cancelled_requests, cancelled);
    EXPECT_DOUBLE_EQ(fleet.goodput_ok_fraction,
                     static_cast<double>(kCopies - cancelled) / kCopies);
    EXPECT_TRUE(fe.auditInvariants());
}

// ----------------------------------------------- fleet-level shedding --

TEST(Router, AllShardsAtQueueCapShedWithFleetAccounting)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 1;
    opts.queue_cap = 1; // every shard's queue saturates immediately

    RouterOptions router;
    router.num_shards = 2;
    ShardedFrontEnd fe(model, qc, opts, router);

    std::vector<ServeRequest> reqs(16);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].prompt = tokenRamp(16 + (i % 5), static_cast<int>(3 + i));
        reqs[i].max_new_tokens = 12;
    }
    std::vector<uint64_t> tickets;
    for (const auto &r : reqs)
        tickets.push_back(fe.submit(r));
    fe.drain();

    size_t completed = 0;
    size_t shed = 0;
    for (uint64_t t : tickets) {
        const RequestOutcome o = fe.wait(t);
        if (o == RequestOutcome::kCompleted)
            ++completed;
        else if (o == RequestOutcome::kShed)
            ++shed;
        else
            FAIL() << "unexpected outcome " << outcomeName(o);
    }
    EXPECT_EQ(completed + shed, reqs.size());
    EXPECT_GT(shed, 0u) << "16 burst submits into 2x(1 slot + 1 queue) "
                           "must overflow";

    // The fleet ledger agrees with the per-ticket outcomes exactly.
    const EngineStats &fleet = fe.engineStats();
    EXPECT_EQ(fleet.shed_requests, shed);
    EXPECT_DOUBLE_EQ(fleet.goodput_ok_fraction,
                     static_cast<double>(completed) / reqs.size());
    // And with the sum over shard engines (no ticket shed twice).
    size_t shard_shed = 0;
    for (size_t s = 0; s < fe.numShards(); ++s)
        shard_shed += fe.shardStats(s).shed_requests;
    EXPECT_EQ(shard_shed, shed);
    EXPECT_TRUE(fe.auditInvariants());
}

// ------------------------------------------------- per-shard chaos --

TEST(Router, PerShardChaosKeepsStreamsBitExact)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");

    EngineOptions opts;
    opts.max_batch = 3;
    opts.kv_budget_tokens = 256;
    opts.over_admission = 1.5; // room for chaos preemptions to matter
    opts.prefix_cache_tokens = 256;

    std::vector<ServeRequest> reqs(12);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].prompt = tokenRamp(20 + 6 * (i % 3), static_cast<int>(3 + i));
        reqs[i].max_new_tokens = 16;
    }

    // Golden: fault-free single engine.
    ServingEngine golden(model, qc, opts);
    std::vector<size_t> gids;
    for (const auto &r : reqs)
        gids.push_back(golden.submit(r));
    golden.runToCompletion();

    RouterOptions router;
    router.num_shards = 4;
    router.fault.seed = 42;
    router.fault.p_pool_exhausted = 0.10;
    router.fault.p_force_preempt = 0.20;
    router.fault.p_evict_storm = 0.05;
    router.fault.p_corrupt_page = 0.05;
    ShardedFrontEnd fe(model, qc, opts, router);

    // The satellite fix, observable: every shard owns a PRIVATE
    // injector seeded base + shard_id, so chaos schedules are a pure
    // function of (seed, shard, step) no matter how threads interleave.
    for (size_t s = 0; s < fe.numShards(); ++s) {
        const FaultInjector *fi = fe.shardEngine(s).options().fault;
        ASSERT_NE(fi, nullptr) << "shard " << s;
        EXPECT_EQ(fi->config().seed, 42u + s);
        for (size_t other = 0; other < s; ++other)
            EXPECT_NE(fi, fe.shardEngine(other).options().fault);
    }

    std::vector<uint64_t> tickets;
    for (const auto &r : reqs)
        tickets.push_back(fe.submit(r));
    // Forced re-routing ON TOP of per-shard chaos: the acceptance
    // bar's hardest combination.
    ASSERT_TRUE(fe.retireShard(2));
    fe.drain();

    for (size_t i = 0; i < reqs.size(); ++i) {
        const RequestStats &s = fe.stats(tickets[i]);
        EXPECT_EQ(s.outcome, RequestOutcome::kCompleted) << "req " << i;
        ASSERT_EQ(s.generated, golden.stats(gids[i]).generated)
            << "req " << i;
    }
    // Prefix cache is on here, so live KV bytes after drain are cache
    // retention, not a leak; auditInvariants covers the accounting.
    EXPECT_TRUE(fe.auditInvariants());
}

// ---------------------------------------------------- streaming surface --

TEST(Router, NextTokenStreamsTheExactFinalSequenceAcrossShards)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP8");
    EngineOptions opts;
    opts.max_batch = 2;
    RouterOptions router;
    router.num_shards = 3;
    ShardedFrontEnd fe(model, qc, opts, router);

    const auto reqs = makeRequests(6);
    std::vector<uint64_t> tickets;
    for (const auto &r : reqs)
        tickets.push_back(fe.submit(r));

    // Consume each stream token-by-token from its own thread while a
    // shard retires mid-stream: delivered sequence == final stats'
    // generated sequence, no gap, duplicate or reorder across the
    // re-route.
    std::vector<std::vector<int>> delivered(tickets.size());
    std::vector<std::thread> consumers;
    for (size_t i = 0; i < tickets.size(); ++i) {
        consumers.emplace_back([&, i] {
            int tok = 0;
            while (fe.nextToken(tickets[i], &tok))
                delivered[i].push_back(tok);
        });
    }
    fe.retireShard(1);
    for (auto &t : consumers)
        t.join();
    fe.drain();

    for (size_t i = 0; i < tickets.size(); ++i) {
        EXPECT_EQ(fe.wait(tickets[i]), RequestOutcome::kCompleted);
        EXPECT_EQ(delivered[i], fe.stats(tickets[i]).generated);
    }
}

// --------------------------------------------------- crash failover --

TEST(Router, FailShardReroutesWithoutDrainBitExactly)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 2;

    std::vector<ServeRequest> reqs(9);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].prompt = tokenRamp(20 + 4 * (i % 3), static_cast<int>(3 + i));
        reqs[i].max_new_tokens = 32; // long: failover lands mid-generation
    }

    ServingEngine golden(model, qc, opts);
    std::vector<size_t> gids;
    for (const auto &r : reqs)
        gids.push_back(golden.submit(r));
    golden.runToCompletion();

    RouterOptions router;
    router.num_shards = 3;
    ShardedFrontEnd fe(model, qc, opts, router);
    std::vector<uint64_t> tickets;
    for (const auto &r : reqs)
        tickets.push_back(fe.submit(r));

    // Crash failover mid-flight: unlike retireShard there is NO
    // cooperative drain — the shard's ring and engine are abandoned
    // outright and every ticket it owned restarts from router-side
    // records. Back-to-back failures leave a single survivor.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    ASSERT_TRUE(fe.failShard(0));
    EXPECT_TRUE(fe.shardFailed(0));
    EXPECT_TRUE(fe.shardRetired(0));
    EXPECT_FALSE(fe.failShard(0)); // already sealed
    ASSERT_TRUE(fe.failShard(1));
    EXPECT_FALSE(fe.failShard(2)); // someone must keep serving
    EXPECT_EQ(fe.liveShards(), 1u);

    fe.drain();
    for (size_t i = 0; i < reqs.size(); ++i) {
        const RequestStats &s = fe.stats(tickets[i]);
        EXPECT_EQ(s.outcome, RequestOutcome::kCompleted) << "req " << i;
        ASSERT_EQ(s.generated, golden.stats(gids[i]).generated)
            << "req " << i;
    }

    // Ticket truth survives the crashes: every request counts once,
    // completed, and the failover bookkeeping is visible.
    const EngineStats &fleet = fe.engineStats();
    EXPECT_EQ(fleet.cancelled_requests, 0u);
    EXPECT_DOUBLE_EQ(fleet.goodput_ok_fraction, 1.0);
    const FleetHealthStats hs = fe.healthStats();
    EXPECT_EQ(hs.failed_shards, 2u);
    EXPECT_EQ(hs.refused_submits, 0u);
    // The surviving fleet audits to zero; failed shards' engines are
    // abandoned and explicitly excluded.
    EXPECT_TRUE(fe.auditInvariants());
    EXPECT_EQ(fe.shardEngine(2).kvBytesLive(), 0u);
}

TEST(Router, SuperviseOnceDetectsAWedgeOnTheVirtualClock)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP8");
    EngineOptions opts;
    opts.max_batch = 2;

    // All requests share one prompt head, so prefix affinity pins the
    // whole workload to ONE shard (the spill threshold below never
    // trips). The other shards stay idle — and an idle shard is
    // busy=false-exempt, so it can never be falsely suspected no
    // matter how this test's threads are scheduled: only the busy,
    // wedge-destined shard can ever be declared dead.
    std::vector<ServeRequest> reqs(8);
    const auto head = tokenRamp(40, 3);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].prompt = head;
        const auto tail = tokenRamp(4 + i, static_cast<int>(31 + i));
        reqs[i].prompt.insert(reqs[i].prompt.end(), tail.begin(),
                              tail.end());
        reqs[i].max_new_tokens = 12;
    }
    ServingEngine golden(model, qc, opts);
    std::vector<size_t> gids;
    for (const auto &r : reqs)
        gids.push_back(golden.submit(r));
    golden.runToCompletion();

    RouterOptions router;
    router.num_shards = 3;
    router.spill_threshold = 100.0; // affinity never spills
    router.heartbeat_timeout_ms = 50.0; // VIRTUAL ms (see below)
    router.health_tick_ms = 0.0; // no supervisor thread: the test ticks
    router.fault.seed = 7;
    router.fault.p_shard_wedge = 1.0; // wedges at the first busy poll
    router.max_crash_faults = 1;      // at most one real wedge fires
    ShardedFrontEnd fe(model, qc, opts, router);

    std::vector<uint64_t> tickets;
    for (const auto &r : reqs)
        tickets.push_back(fe.submit(r));

    // The supervisor role, on a clock this test owns: tick
    // superviseOnce with a virtual timestamp until the fleet drains.
    // The detector only ever sees these timestamps, so staleness — and
    // with it detection — is measured purely in virtual ms; the 1 ms
    // wall sleep per 10 virtual ms only paces the loop. auto_failover
    // then re-routes the wedged shard's tickets from inside our tick.
    std::atomic<bool> drained{false};
    std::thread ticker([&] {
        double vnow = 0.0;
        while (!drained.load(std::memory_order_acquire)) {
            fe.superviseOnce(vnow);
            vnow += 10.0;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    fe.drain();
    drained.store(true, std::memory_order_release);
    ticker.join();

    for (size_t i = 0; i < reqs.size(); ++i) {
        const RequestStats &s = fe.stats(tickets[i]);
        EXPECT_EQ(s.outcome, RequestOutcome::kCompleted) << "req " << i;
        ASSERT_EQ(s.generated, golden.stats(gids[i]).generated)
            << "req " << i;
    }
    const FleetHealthStats hs = fe.healthStats();
    EXPECT_GE(hs.dead_detected, 1u) << "wedged shard never detected";
    EXPECT_GE(hs.failed_shards, 1u); // auto_failover recovered it
    EXPECT_EQ(hs.refused_submits, 0u);
    EXPECT_GE(fe.liveShards(), 1u);
    EXPECT_DOUBLE_EQ(fe.engineStats().goodput_ok_fraction, 1.0);
    EXPECT_TRUE(fe.auditInvariants());
}

TEST(Router, RetiringAWedgedShardFailsItOverInsteadOfHanging)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP8");
    EngineOptions opts;
    opts.max_batch = 2;

    ServeRequest req;
    req.prompt = tokenRamp(20, 5);
    req.max_new_tokens = 8;
    ServingEngine golden(model, qc, opts);
    const size_t gid = golden.submit(req);
    golden.runToCompletion();

    RouterOptions router;
    router.num_shards = 2;
    router.heartbeat_timeout_ms = 50.0; // VIRTUAL ms, ticked below
    router.auto_failover = false;       // the test retires it instead
    router.fault.seed = 5;
    // The owner wedges at its first busy poll; the default doom cap
    // (num_shards - 1) suppresses the survivor's wedge.
    router.fault.p_shard_wedge = 1.0;
    ShardedFrontEnd fe(model, qc, opts, router);
    const size_t owner =
        affinityShard(req.prompt, fe.pageTokens(), fe.numShards());
    const uint64_t ticket = fe.submit(req);

    // Provably wedged: after a wall grace for the owner to drain its
    // ring (and so reach its wedging poll), the detector sees it busy
    // with a frozen epoch for the whole virtual timeout.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (double vnow = 0.0; fe.shardHealth(owner) != ShardHealth::kDead;
         vnow += 10.0) {
        ASSERT_LT(vnow, 1e5) << "owner never declared dead";
        fe.superviseOnce(vnow);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // A hung retireShard would hang the test binary too: bound the wait
    // and exit with a message instead (the future's destructor would
    // block on the hung call).
    auto retired = std::async(std::launch::async,
                              [&] { return fe.retireShard(owner); });
    if (retired.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
        std::fprintf(stderr, "FAILED: retireShard(%zu) on a wedged shard "
                             "did not return within 10 s\n",
                     owner);
        std::fflush(nullptr);
        std::_Exit(1);
    }
    ASSERT_TRUE(retired.get());

    // Retiring a crashed shard is a failover: counted, its aggregates
    // out of the merge, its ticket re-owned by the survivor.
    const FleetHealthStats hs = fe.healthStats();
    ASSERT_EQ(hs.failed_shards, 1u);
    EXPECT_EQ(hs.failover_reroutes, 1u);
    EXPECT_TRUE(fe.shardFailed(owner));
    EXPECT_EQ(fe.wait(ticket), RequestOutcome::kCompleted);
    EXPECT_EQ(fe.stats(ticket).generated, golden.stats(gid).generated);
    fe.drain();
    EXPECT_DOUBLE_EQ(fe.engineStats().goodput_ok_fraction, 1.0);
    EXPECT_TRUE(fe.auditInvariants());
}

TEST(Router, HealthySlowFleetIsNeverFalselyFailed)
{
    // False-positive guard: a fleet that is merely SLOW (every step
    // sleeps) but progressing must never be declared dead, no matter
    // how aggressively the wall-clock supervisor ticks.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 2;

    RouterOptions router;
    router.num_shards = 2;
    router.heartbeat_timeout_ms = 60000.0; // generous vs ~1ms steps
    router.health_tick_ms = 1.0;           // tick as hard as possible
    router.fault.seed = 11;
    router.fault.p_shard_slow = 1.0; // every step delayed
    router.fault.slow_sleep_ms = 1.0;
    ShardedFrontEnd fe(model, qc, opts, router);

    const auto reqs = makeRequests(8);
    const auto stats = runThroughClient(fe, reqs);
    for (const auto &s : stats)
        EXPECT_EQ(s.outcome, RequestOutcome::kCompleted);

    const FleetHealthStats hs = fe.healthStats();
    EXPECT_EQ(hs.dead_detected, 0u);
    EXPECT_EQ(hs.failed_shards, 0u);
    EXPECT_EQ(fe.liveShards(), 2u);
    EXPECT_EQ(fe.shardHealth(0), ShardHealth::kHealthy);
    EXPECT_EQ(fe.shardHealth(1), ShardHealth::kHealthy);
    EXPECT_TRUE(fe.auditInvariants());
}

// ----------------------------------------------- bounded-wait submission --

TEST(Router, ProducerNeverHangsOnWedgedShards)
{
    // The satellite regression: both shards wedge with tiny rings and
    // NO health monitor (nothing will ever recover them) — every
    // submit must still return within the bound, refused tickets must
    // be terminal kShed, and destruction must not hang.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP8");
    EngineOptions opts;
    opts.max_batch = 2;

    RouterOptions router;
    router.num_shards = 2;
    router.ring_capacity = 2;
    router.policy = RoutePolicy::kRoundRobin;
    router.submit_timeout_ms = 150.0;
    router.fault.seed = 3;
    router.fault.p_shard_wedge = 1.0;
    router.max_crash_faults = 2; // BOTH shards may wedge
    ShardedFrontEnd fe(model, qc, opts, router);

    ServeRequest seedreq;
    seedreq.prompt = tokenRamp(16, 5);
    seedreq.max_new_tokens = 8;
    // Two tickets make both shards busy so their wedges fire, then a
    // short wait lets the wedges land.
    const uint64_t t0 = fe.submit(seedreq);
    const uint64_t t1 = fe.submit(seedreq);
    (void)t0;
    (void)t1;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Burst against the dead fleet. Per submit the wait is bounded by
    // submit_timeout_ms; the generous wall assertion below only guards
    // against the old unbounded spin (which would hang forever).
    constexpr size_t kBurst = 8;
    std::vector<uint64_t> tickets;
    std::vector<double> submit_ms;
    for (size_t i = 0; i < kBurst; ++i) {
        const auto begin = std::chrono::steady_clock::now();
        tickets.push_back(fe.submit(seedreq));
        submit_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - begin)
                .count());
    }
    for (size_t i = 0; i < kBurst; ++i)
        EXPECT_LT(submit_ms[i], 10 * router.submit_timeout_ms)
            << "submit " << i << " exceeded the bound";

    // With both rings (capacity 2 each) frozen, the burst must
    // overflow: refusals happened, and each refused ticket is already
    // terminal kShed — wait() returns immediately instead of hanging
    // on a stream no shard will ever publish.
    const FleetHealthStats hs = fe.healthStats();
    EXPECT_GT(hs.refused_submits, 0u);
    size_t shed = 0;
    for (size_t i = 0; i < kBurst; ++i) {
        if (submit_ms[i] >= router.submit_timeout_ms) {
            EXPECT_EQ(fe.wait(tickets[i]), RequestOutcome::kShed);
            ++shed;
        }
    }
    EXPECT_EQ(shed, hs.refused_submits);

    // cancel() against the wedged fleet is bounded too (flag-only
    // fallback past the deadline).
    const auto cbegin = std::chrono::steady_clock::now();
    fe.cancel(tickets.back());
    const double cancel_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - cbegin)
            .count();
    EXPECT_LT(cancel_ms, 10 * router.submit_timeout_ms);
    // Destructor liveness: ~ShardedFrontEnd stops the wedged threads
    // (the wedge loop polls stop) — the test RETURNING is the proof.
}

// --------------------------------------- shard-level chaos episodes --

std::vector<uint64_t>
routerChaosSeeds()
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

/** Repro artifact for a failed shard-chaos episode (CI uploads every
    chaos_failure_*.txt): seed, knobs, and each shard's exact fault
    schedule. */
void
writeRouterFailureArtifact(const ShardedFrontEnd &fe, const char *fmt,
                           uint64_t seed)
{
    std::string clean;
    for (const char *p = fmt; *p != '\0'; ++p)
        clean.push_back(*p == '+' ? 'p' : *p);
    std::ofstream out("chaos_failure_router_" + clean + "_" +
                      std::to_string(seed) + ".txt");
    out << "router shard-chaos episode FAILED\n"
        << "format: " << fmt << "\n"
        << "seed:   " << seed << "\n"
        << "repro:  MXPLUS_CHAOS_SEED=" << seed
        << " ./test_router --gtest_filter="
        << "'Router.ShardChaosFailoverKeepsStreamsBitExact'\n";
    const FleetHealthStats hs = fe.healthStats();
    out << "detections: " << hs.dead_detected
        << "  failovers: " << hs.failed_shards
        << "  reroutes: " << hs.failover_reroutes
        << "  refusals: " << hs.refused_submits << "\n";
    for (size_t s = 0; s < fe.numShards(); ++s) {
        out << "shard " << s << " ("
            << (fe.shardFailed(s) ? "failed"
                                  : fe.shardRetired(s) ? "retired"
                                                       : "live")
            << ") fault schedule (seed " << seed + s << "):\n"
            << fe.shardFaultSchedule(s) << "\n";
    }
}

/** One shard-chaos episode: all three shard-level fault sites armed on
    every shard, wall-clock supervision with auto-failover, streams
    checked bit-exact against a fault-free golden with exactly-once
    delivery through nextToken(). Returns shards crash-failed. */
size_t
runShardChaosEpisode(const Transformer &model, const char *fmt,
                     uint64_t seed)
{
    SCOPED_TRACE(std::string(fmt) + " seed " + std::to_string(seed));
    const bool failed_before = ::testing::Test::HasFailure();
    const QuantConfig qc = QuantConfig::fromFormat(fmt);

    EngineOptions opts;
    opts.max_batch = 2; // long busy window: crash sites get many draws

    std::vector<ServeRequest> reqs(12);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].prompt = tokenRamp(18 + 5 * (i % 3), static_cast<int>(3 + i));
        reqs[i].max_new_tokens = 20;
        if (i % 4 == 1) {
            reqs[i].temperature = 0.8; // rng reseed must survive failover
            reqs[i].seed = 500 + i;
        }
    }

    ServingEngine golden(model, qc, opts);
    std::vector<size_t> gids;
    for (const auto &r : reqs)
        gids.push_back(golden.submit(r));
    golden.runToCompletion();

    RouterOptions router;
    router.num_shards = 4;
    router.fault.seed = seed;
    router.fault.p_shard_wedge = 0.05;
    router.fault.p_shard_death = 0.05;
    router.fault.p_shard_slow = 0.10;
    router.fault.slow_sleep_ms = 1.0;
    router.heartbeat_timeout_ms = 60.0; // wall: wedge/death detect fast
    router.degraded_after_ms = 15.0;    // slow shards route around
    router.health_tick_ms = 5.0;
    router.auto_failover = true;
    router.submit_timeout_ms = 30000.0; // refusal would mask a hang
    // max_crash_faults defaults to num_shards - 1: chaos may kill up
    // to three of the four shards, never the last.
    ShardedFrontEnd fe(model, qc, opts, router);

    std::vector<uint64_t> tickets;
    for (const auto &r : reqs)
        tickets.push_back(fe.submit(r));

    // Exactly-once delivery is asserted at the STREAM surface: each
    // consumer collects its ticket's tokens across any number of
    // wedges, deaths and failovers underneath.
    std::vector<std::vector<int>> delivered(tickets.size());
    std::vector<std::thread> consumers;
    for (size_t i = 0; i < tickets.size(); ++i) {
        consumers.emplace_back([&, i] {
            int tok = 0;
            while (fe.nextToken(tickets[i], &tok))
                delivered[i].push_back(tok);
        });
    }
    for (auto &t : consumers)
        t.join();
    fe.drain();

    for (size_t i = 0; i < reqs.size(); ++i) {
        const RequestStats &s = fe.stats(tickets[i]);
        // Nothing cancels and the submit timeout is generous, so every
        // ticket must complete — and bit-equal the fault-free golden,
        // delivered exactly once.
        EXPECT_EQ(s.outcome, RequestOutcome::kCompleted) << "req " << i;
        EXPECT_EQ(s.generated, golden.stats(gids[i]).generated)
            << "req " << i;
        EXPECT_EQ(delivered[i], s.generated) << "req " << i;
    }

    // Surviving-fleet closure: per-ticket ledger exact, detection and
    // failover counters consistent, survivors' pools at zero.
    const EngineStats &fleet = fe.engineStats();
    EXPECT_DOUBLE_EQ(fleet.goodput_ok_fraction, 1.0);
    EXPECT_EQ(fleet.cancelled_requests, 0u);
    const FleetHealthStats hs = fe.healthStats();
    EXPECT_EQ(hs.refused_submits, 0u);
    EXPECT_LE(hs.failed_shards, router.num_shards - 1);
    EXPECT_GE(fe.liveShards(), 1u);
    EXPECT_TRUE(fe.auditInvariants());
    for (size_t s = 0; s < fe.numShards(); ++s) {
        if (!fe.shardFailed(s)) {
            EXPECT_EQ(fe.shardEngine(s).kvBytesLive(), 0u)
                << "shard " << s;
        }
    }

    if (!failed_before && ::testing::Test::HasFailure())
        writeRouterFailureArtifact(fe, fmt, seed);
    return hs.failed_shards;
}

TEST(Router, ShardChaosFailoverKeepsStreamsBitExact)
{
    const Transformer model(tinyConfig());
    size_t total_failovers = 0;
    for (const char *fmt : kFormats) {
        for (const uint64_t seed : routerChaosSeeds())
            total_failovers += runShardChaosEpisode(model, fmt, seed);
    }
    // Across 9 episodes with every shard-level site armed, chaos that
    // never once crashed a shard means the sites are dead code, not
    // that the fleet got lucky.
    EXPECT_GT(total_failovers, 0u);
}

} // namespace
} // namespace mxplus
