/**
 * @file
 * Tests for the single-engine deployment of the serving front end
 * (serve/router.h, ShardedFrontEnd with num_shards = 1): the lock-free
 * MPSC submit ring, concurrent multi-producer submit/cancel stress
 * against the bit-identical-streams invariant, per-request streaming
 * semantics, drain/stats hand-off, and the decode worker pool's
 * bit-identity (EngineOptions::num_threads).
 *
 * The load-bearing claims, each asserted per quantization format:
 *  - A request's token stream through the one-shard front end is
 *    bit-identical to submitting the same ServeRequest to a plain
 *    ServingEngine, regardless of how many producer threads raced on
 *    submission.
 *  - Cancelled requests deliver a bit-exact PREFIX of their
 *    uncancelled stream.
 *  - num_threads > 1 changes throughput only: streams are bit-equal
 *    to the serial engine's.
 *
 * This file runs under the ThreadSanitizer CI job (label `serving`),
 * so every mutex/atomic hand-off here is also a TSan proof obligation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/worker_pool.h"
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

/** A varied batch: different prompt lengths, contents and lengths of
    answer, so scheduling order genuinely differs between runs. */
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

const char *const kFormats[] = {"BF16", "MXFP8", "MXFP4+"};

/** The single-engine deployment: one shard, and submits that wait for
    ring space as long as it takes (no bounded-wait refusals). */
RouterOptions
oneShard()
{
    RouterOptions router;
    router.num_shards = 1;
    router.submit_timeout_ms = 0.0;
    return router;
}

/** Field-for-field equality of two aggregate stats blocks. */
void
expectSameStats(const EngineStats &a, const EngineStats &b)
{
    EXPECT_DOUBLE_EQ(a.wall_ms, b.wall_ms);
    EXPECT_EQ(a.total_generated, b.total_generated);
    EXPECT_DOUBLE_EQ(a.throughput_tokens_per_s, b.throughput_tokens_per_s);
    EXPECT_EQ(a.decode_batches, b.decode_batches);
    EXPECT_DOUBLE_EQ(a.decode_ms, b.decode_ms);
    EXPECT_EQ(a.decode_tokens, b.decode_tokens);
    EXPECT_DOUBLE_EQ(a.decode_tokens_per_s, b.decode_tokens_per_s);
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

// ------------------------------------------------------------ SubmitRing --

TEST(SubmitRing, MultiProducerDeliversEverythingInProducerOrder)
{
    SubmitRing ring(64);
    constexpr size_t kProducers = 4;
    constexpr size_t kPerProducer = 500;

    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&ring, p] {
            for (size_t i = 0; i < kPerProducer; ++i) {
                SubmitRing::Cmd cmd;
                cmd.kind = SubmitRing::Cmd::Kind::kSubmit;
                cmd.ticket = p * kPerProducer + i;
                while (!ring.tryPush(std::move(cmd)))
                    std::this_thread::yield();
            }
        });
    }

    // Single consumer: per producer, tickets must arrive in submission
    // order (the ring is FIFO per producer), and nothing may be lost
    // or duplicated.
    std::vector<uint64_t> next_expected(kProducers, 0);
    size_t received = 0;
    while (received < kProducers * kPerProducer) {
        SubmitRing::Cmd cmd;
        if (!ring.tryPop(cmd)) {
            std::this_thread::yield();
            continue;
        }
        const size_t p = cmd.ticket / kPerProducer;
        const uint64_t i = cmd.ticket % kPerProducer;
        ASSERT_LT(p, kProducers);
        ASSERT_EQ(i, next_expected[p]) << "producer " << p;
        ++next_expected[p];
        ++received;
    }
    for (auto &t : producers)
        t.join();

    SubmitRing::Cmd leftover;
    EXPECT_FALSE(ring.tryPop(leftover));
}

TEST(SubmitRing, CapacityRoundsUpAndFullRingRefuses)
{
    SubmitRing ring(3); // rounds up to 4
    EXPECT_EQ(ring.capacity(), 4u);
    for (int i = 0; i < 4; ++i) {
        SubmitRing::Cmd cmd;
        cmd.ticket = static_cast<uint64_t>(i);
        ASSERT_TRUE(ring.tryPush(std::move(cmd)));
    }
    SubmitRing::Cmd extra;
    EXPECT_FALSE(ring.tryPush(std::move(extra))); // full, not lost
    SubmitRing::Cmd out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out.ticket, 0u);
    SubmitRing::Cmd again;
    EXPECT_TRUE(ring.tryPush(std::move(again))); // slot recycled
}

// ------------------------------------------ front end vs serial bit-equal --

TEST(SingleShardFrontEnd, ConcurrentSubmitStreamsBitEqualSerialEveryFormat)
{
    const Transformer model(tinyConfig());
    const auto reqs = makeRequests(12);
    constexpr size_t kProducers = 4;

    for (const char *fmt : kFormats) {
        SCOPED_TRACE(fmt);
        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        EngineOptions opts;
        opts.max_batch = 3; // forces queueing + continuous batching

        // Golden: the synchronous engine, submitted in index order.
        ServingEngine golden(model, qc, opts);
        std::vector<size_t> gids;
        for (const auto &r : reqs)
            gids.push_back(golden.submit(r));
        golden.runToCompletion();

        // Front end: kProducers threads race their disjoint slices in.
        ShardedFrontEnd fe(model, qc, opts, oneShard());
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

        // Bit-identical streams: arrival order, batching composition
        // and admission order all differed from the golden run, and
        // none of it may leak into a single token.
        for (size_t i = 0; i < reqs.size(); ++i) {
            const RequestStats &a = fe.stats(tickets[i]);
            const RequestStats &g = golden.stats(gids[i]);
            EXPECT_EQ(a.outcome, RequestOutcome::kCompleted);
            ASSERT_EQ(a.generated.size(), g.generated.size()) << "req " << i;
            for (size_t t = 0; t < g.generated.size(); ++t)
                ASSERT_EQ(a.generated[t], g.generated[t])
                    << "req " << i << " token " << t;
        }

        // Post-drain the engine must be idle and clean: no leaked
        // pages, invariants audited across pool/index/scheduler.
        EXPECT_TRUE(fe.auditInvariants());
        EXPECT_EQ(fe.shardEngine(0).kvBytesLive(), 0u);
        EXPECT_EQ(fe.shardEngine(0).activeRequests(), 0u);
        EXPECT_EQ(fe.engineStats().total_generated,
                  golden.engineStats().total_generated);
        // The fleet merge at N = 1 is the engine's own stats: no
        // preemption and no shedding here, so the per-ticket
        // recomputations (outcomes, goodput, queue-wait percentiles,
        // total_generated) must agree with the engine exactly.
        expectSameStats(fe.engineStats(), fe.shardEngine(0).engineStats());
    }
}

TEST(SingleShardFrontEnd, NextTokenStreamsTheExactFinalSequence)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 2;
    ShardedFrontEnd fe(model, qc, opts, oneShard());

    const auto reqs = makeRequests(4);
    std::vector<uint64_t> tickets;
    for (const auto &r : reqs)
        tickets.push_back(fe.submit(r));

    // Consume each stream token-by-token from its own thread, racing
    // the engine's publication. The delivered sequence must equal the
    // final stats' generated sequence exactly (no gap, no duplicate,
    // no reorder).
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

    for (size_t i = 0; i < tickets.size(); ++i) {
        EXPECT_EQ(fe.wait(tickets[i]), RequestOutcome::kCompleted);
        EXPECT_EQ(delivered[i], fe.stats(tickets[i]).generated);
    }
}

// ---------------------------------------------------------- cancellation --

TEST(SingleShardFrontEnd, ConcurrentCancelDeliversBitExactPrefix)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP8");
    EngineOptions opts;
    opts.max_batch = 2;

    // Golden full (uncancelled) streams.
    ServeRequest base;
    base.prompt = tokenRamp(24, 5);
    base.max_new_tokens = 24;
    ServingEngine golden(model, qc, opts);
    const size_t gid = golden.submit(base);
    golden.runToCompletion();
    const std::vector<int> full = golden.stats(gid).generated;
    ASSERT_EQ(full.size(), base.max_new_tokens);

    // Submit many copies; a racing canceller thread kills every other
    // one at staggered points while producers are still submitting.
    constexpr size_t kCopies = 8;
    ShardedFrontEnd fe(model, qc, opts, oneShard());
    std::vector<uint64_t> tickets(kCopies);
    std::atomic<size_t> submitted{0};
    std::thread producer([&] {
        for (size_t i = 0; i < kCopies; ++i) {
            tickets[i] = fe.submit(base);
            submitted.store(i + 1, std::memory_order_release);
        }
    });
    std::thread canceller([&] {
        for (size_t i = 0; i < kCopies; i += 2) {
            while (submitted.load(std::memory_order_acquire) <= i)
                std::this_thread::yield();
            fe.cancel(tickets[i]); // races admission, decode, completion
        }
    });
    producer.join();
    canceller.join();
    fe.drain();

    for (size_t i = 0; i < kCopies; ++i) {
        const RequestStats &rs = fe.stats(tickets[i]);
        if (i % 2 == 1) {
            EXPECT_EQ(rs.outcome, RequestOutcome::kCompleted);
        }
        // A cancel can lose the race and complete; either way every
        // delivered token must be a bit-exact prefix of the full
        // stream.
        ASSERT_LE(rs.generated.size(), full.size());
        for (size_t t = 0; t < rs.generated.size(); ++t)
            ASSERT_EQ(rs.generated[t], full[t]) << "copy " << i;
        if (rs.outcome == RequestOutcome::kCompleted)
            EXPECT_EQ(rs.generated.size(), full.size());
        else
            EXPECT_EQ(rs.outcome, RequestOutcome::kCancelled);
    }
    EXPECT_TRUE(fe.auditInvariants());
    EXPECT_EQ(fe.shardEngine(0).kvBytesLive(), 0u);

    // Cancel after completion reports false (the request already won).
    EXPECT_FALSE(fe.cancel(tickets[1]));
    // Unknown tickets are refused, not crashed on.
    EXPECT_FALSE(fe.cancel(9999));
}

// ---------------------------------------------------------- backpressure --

TEST(SingleShardFrontEnd, TinyRingBackpressuresWithoutLosingRequests)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("BF16");
    EngineOptions opts;
    opts.max_batch = 2;
    RouterOptions router = oneShard();
    router.ring_capacity = 2; // every burst overflows the ring

    ShardedFrontEnd fe(model, qc, opts, router);
    const auto reqs = makeRequests(10);
    std::vector<uint64_t> tickets(reqs.size());
    std::vector<std::thread> producers;
    constexpr size_t kProducers = 5;
    for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (size_t i = p; i < reqs.size(); i += kProducers)
                tickets[i] = fe.submit(reqs[i]);
        });
    }
    for (auto &t : producers)
        t.join();
    fe.drain();

    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(fe.wait(tickets[i]), RequestOutcome::kCompleted);
        EXPECT_FALSE(fe.stats(tickets[i]).generated.empty());
    }
    EXPECT_TRUE(fe.auditInvariants());
}

// ------------------------------------------------- drain/reuse semantics --

TEST(SingleShardFrontEnd, DrainIsReusableAndIdleDrainReturnsImmediately)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("BF16");
    ShardedFrontEnd fe(model, qc, EngineOptions{}, oneShard());

    fe.drain(); // nothing submitted: must not hang
    EXPECT_EQ(fe.engineStats().total_generated, 0u);

    ServeRequest r;
    r.prompt = tokenRamp(12, 3);
    r.max_new_tokens = 5;
    const uint64_t t1 = fe.submit(r);
    fe.drain();
    EXPECT_EQ(fe.stats(t1).generated.size(), 5u);

    // The front end accepts new work after a drain (busy periods are
    // not one-shot).
    const uint64_t t2 = fe.submit(r);
    fe.drain();
    EXPECT_EQ(fe.stats(t2).generated.size(), 5u);
    EXPECT_EQ(fe.stats(t2).generated, fe.stats(t1).generated);
    EXPECT_EQ(fe.engineStats().total_generated, 10u);
}

TEST(SingleShardFrontEnd, DestructorDrainsOutstandingWork)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("BF16");
    ServeRequest r;
    r.prompt = tokenRamp(10, 4);
    r.max_new_tokens = 6;

    {
        ShardedFrontEnd fe(model, qc, EngineOptions{}, oneShard());
        fe.submit(r);
        fe.submit(r);
        // Destroyed with both requests in flight: the destructor must
        // finish them (nothing dropped), then join the shard thread.
    }
    SUCCEED();
}

// ------------------------------------------------------ decode worker pool --

TEST(WorkerPoolDecode, MultiThreadStreamsBitEqualSerialEveryFormat)
{
    const Transformer model(tinyConfig());
    const auto reqs = makeRequests(8);

    for (const char *fmt : kFormats) {
        SCOPED_TRACE(fmt);
        const QuantConfig qc = QuantConfig::fromFormat(fmt);

        EngineOptions serial;
        serial.max_batch = 4; // batched decode rows to partition
        ServingEngine golden(model, qc, serial);
        std::vector<size_t> gids;
        for (const auto &r : reqs)
            gids.push_back(golden.submit(r));
        golden.runToCompletion();

        EngineOptions threaded = serial;
        threaded.num_threads = 3;
        ServingEngine engine(model, qc, threaded);
        std::vector<size_t> ids;
        for (const auto &r : reqs)
            ids.push_back(engine.submit(r));
        engine.runToCompletion();

        // Threading is a throughput decision, never a numerics
        // decision: each batch row ran its exact serial arithmetic on
        // exactly one worker, so streams are bit-identical.
        for (size_t i = 0; i < reqs.size(); ++i) {
            const RequestStats &a = engine.stats(ids[i]);
            const RequestStats &g = golden.stats(gids[i]);
            ASSERT_EQ(a.generated.size(), g.generated.size()) << "req " << i;
            for (size_t t = 0; t < g.generated.size(); ++t)
                ASSERT_EQ(a.generated[t], g.generated[t])
                    << "req " << i << " token " << t;
        }
        EXPECT_TRUE(engine.auditInvariants());
        EXPECT_EQ(engine.kvBytesLive(), 0u);
    }
}

TEST(WorkerPoolDecode, FrontEndWithWorkersBitEqualToo)
{
    // The full stack at once: concurrent producers + worker-pool
    // decode vs the plain serial engine.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    const auto reqs = makeRequests(6);

    EngineOptions serial;
    serial.max_batch = 3;
    ServingEngine golden(model, qc, serial);
    std::vector<size_t> gids;
    for (const auto &r : reqs)
        gids.push_back(golden.submit(r));
    golden.runToCompletion();

    EngineOptions threaded = serial;
    threaded.num_threads = 2;
    ShardedFrontEnd fe(model, qc, threaded, oneShard());
    std::vector<uint64_t> tickets(reqs.size());
    std::vector<std::thread> producers;
    for (size_t p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
            for (size_t i = p; i < reqs.size(); i += 2)
                tickets[i] = fe.submit(reqs[i]);
        });
    }
    for (auto &t : producers)
        t.join();
    fe.drain();

    for (size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(fe.stats(tickets[i]).generated,
                  golden.stats(gids[i]).generated)
            << "req " << i;
    EXPECT_TRUE(fe.auditInvariants());
}

// --------------------------------------------------------- WorkerPool unit --

TEST(WorkerPool, ParallelForCoversEveryIndexExactlyOnce)
{
    WorkerPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);

    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &h : hits)
        h.store(0, std::memory_order_relaxed);

    // Repeated jobs through the same pool: exercises the job-sequence
    // hand-off (a straggler from job k must never run an index of
    // job k+1).
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(kN, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 50) << "index " << i;
}

TEST(WorkerPool, SingleThreadAndSingleItemRunSerial)
{
    WorkerPool serial(1);
    EXPECT_EQ(serial.threads(), 1u);
    std::vector<int> order;
    serial.parallelFor(5, [&](size_t i) {
        order.push_back(static_cast<int>(i)); // unsynchronized: must be
                                              // caller-thread only
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

    WorkerPool pool(3);
    std::vector<int> one;
    pool.parallelFor(1, [&](size_t i) { one.push_back(static_cast<int>(i)); });
    EXPECT_EQ(one, std::vector<int>{0});
}

} // namespace
} // namespace mxplus
