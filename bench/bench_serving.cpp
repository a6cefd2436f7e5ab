/**
 * @file
 * Machine-readable benchmark of the batched serving engine: decode
 * throughput (tokens/s), time-to-first-token and per-token latency
 * percentiles as a function of batch width and quantization format,
 * plus paged-KV occupancy and admission metrics, emitted as JSON so
 * future PRs have a serving-performance trajectory to regress against
 * (the committed snapshot lives in BENCH_serving.json; the CI gate
 * tools/check_bench.py compares against it on every PR).
 *
 * The HEADLINE traffic shape is the poisson workload: open-loop
 * requests-per-second arrivals (seeded exponential inter-arrival times
 * drawn once, submitted when their arrival time passes on the virtual
 * step clock — an overloaded engine keeps receiving work, which is the
 * point of open-loop). Reported per row: offered_rps, ttft_p99_ms and
 * goodput_ok_fraction — all measured on the virtual clock, so the
 * num_threads=1 rows are deterministic and gated by
 * tools/check_bench.py. The same arrival trace then runs with
 * num_threads=2 (decode worker pool) and through a one-shard
 * ShardedFrontEnd with racing producer threads ("poisson-async");
 * those rows are ungated
 * (CI boxes are single-core) but their token streams are verified
 * bit-identical before any number is emitted — threading is a
 * throughput decision, never a numerics decision.
 *
 * The uniform workload is fixed across batch widths — the same
 * requests, prompts and greedy sampling — so the batch-8 vs batch-1
 * ratio isolates the benefit of continuous batching (amortized weight
 * quantization and B-panel packing in the batched matvec) from
 * everything else. A --quick run uses the SAME per-config workload and
 * a subset of (format, batch) points, so its entries are directly
 * comparable to the committed full baseline.
 *
 * The mixed workload varies prompt and generation lengths across
 * requests; its kv_bytes_peak (live pages) sits well below the
 * worst-case reservation a contiguous per-request cache would pin
 * (kv_bytes_reserved_worst), which is the paged cache's point. The
 * budgeted variant additionally caps the pool and reports admission
 * deferrals.
 *
 * The bursty workload interleaves long low-priority and short
 * high-priority requests as one burst against a tight KV budget and
 * runs twice at the SAME budget: with optimistic over-admission +
 * preempt-and-requeue ("bursty") and with PR4's reject-only admission
 * ("bursty-reject"). Token streams are verified identical before any
 * number is emitted — preemption restarts are bit-exact. The
 * interesting metrics are throughput/occupancy (over-admission keeps
 * the batch full), ttft_p99_ms (gated by tools/check_bench.py for
 * these rows), preemptions/preempted_recompute_tokens (the price of
 * optimism) and queue_wait_ms_p50/p99 (aging bounds the wait).
 *
 * The shared-prefix workload is N requests carrying one common
 * 256-token system prompt plus distinct tails — the dominant heavy-
 * multi-user pattern. It runs twice, with the prefix cache on
 * ("shared-prefix") and off ("shared-prefix-nocache"), and the bench
 * *verifies* the two runs' token streams are bit-identical before
 * emitting numbers: sharing is a scheduling decision, never a numerics
 * decision. The interesting metrics are ttft_p50_ms (repeated prefill
 * becomes a cache hit) and kv_bytes_peak (one physical copy of the
 * prefix instead of N); tools/check_bench.py gates both for this
 * workload.
 *
 * The compressed pairs measure frozen-page compression's capacity win
 * at unchanged numerics: "shared-prefix-budget" vs
 * "shared-prefix-compressed" run the shared-prefix workload under the
 * SAME kv_budget_tokens (warmed, so the head is published — and, when
 * on, compressed — before the burst), and the bench FATALs unless the
 * compressed run's streams are bit-identical, its kv_bytes_peak is
 * lower AND it admits strictly more of the burst before the first
 * deferral. "sharded-compressed" reruns the affinity fleet with
 * compression armed on every shard under the same stream-equality and
 * lower-residency requirements. tools/check_bench.py gates ttft_p50_ms
 * and kv_bytes_peak for all three rows.
 *
 * The sharded workload is four request families (per-family shared
 * system prompts + distinct tails) served by a 4-shard fleet under
 * both routing policies, next to a single-engine reference, a
 * crash-failover run (one shard killed mid-run, its in-flight requests
 * re-submitted to the survivors) and a live threaded ShardedFrontEnd
 * run. The serial fleet rows come from one lock-step runner on the
 * virtual clock (deterministic, gated: ttft_p50_ms and kv_bytes_peak;
 * for the failover row, ttft_p99_ms and goodput_ok_fraction — the
 * rerouted tail and the requirement that a crash never loses a
 * request) and merge their stats with the live router's
 * mergeFleetStats, so every fleet row reports the same fields the same
 * way; the affinity-vs-round-robin delta is the router's headline —
 * one physical prefix copy per family instead of one per family per
 * shard. Every variant's token streams are verified bit-identical
 * before any number is emitted.
 *
 * Usage: bench_serving [--quick] [--out FILE]
 *
 *  --quick   fewer configs, same workload (CI gate run)
 *  --out     write the JSON to FILE instead of stdout
 *
 * See docs/SERVING.md for the schema and how to interpret the output.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "model/quant_config.h"
#include "serve/router.h"
#include "serve/serving_engine.h"

namespace mxplus {
namespace {

struct RunResult
{
    std::string format;
    std::string workload; // "uniform" / "mixed" / "mixed-budget"
    size_t batch = 0;
    size_t requests = 0;
    size_t num_threads = 1;    ///< EngineOptions::num_threads of the run
    double offered_rps = 0.0;  ///< poisson rows only: open-loop rate
    /** Aggregate stats the row prints (fleet rows: mergeFleetStats). */
    EngineStats stats;
    double ttft_p50_ms = 0.0;
    double ttft_p99_ms = 0.0;
    double token_p50_ms = 0.0;
    double token_p99_ms = 0.0;
    size_t kv_bytes_reserved_worst = 0;
    double speedup_vs_batch1 = 0.0;
    std::vector<std::vector<int>> streams; ///< per-request tokens
};

/**
 * Step watchdog for every engine run the bench drives: a scheduling
 * bug that livelocks (admit/preempt ping-pong, a request that can
 * never fit) must fail the bench loudly, not hang the CI job until
 * the ctest timeout reaps it with no diagnostics. The cap is ~100x
 * the longest legitimate run in this file.
 */
constexpr size_t kMaxBenchSteps = 200000;

std::vector<ServeRequest>
uniformWorkload(size_t requests, size_t prompt_len, size_t new_tokens)
{
    std::vector<ServeRequest> reqs(requests);
    for (size_t r = 0; r < requests; ++r) {
        reqs[r].prompt.resize(prompt_len);
        for (size_t i = 0; i < prompt_len; ++i) {
            reqs[r].prompt[i] =
                static_cast<int>((13 + 7 * r + 3 * i) % 251);
        }
        reqs[r].max_new_tokens = new_tokens;
        reqs[r].temperature = 0.0; // greedy: identical across batch widths
    }
    return reqs;
}

/**
 * N requests × one common system prompt + distinct tails: the pattern
 * prefix sharing exists for. The shared head is page-aligned (256 =
 * 8 × 32-token pages) so the whole head is adoptable.
 */
std::vector<ServeRequest>
sharedPrefixWorkload(size_t requests, size_t shared_len, size_t tail_len,
                     size_t new_tokens)
{
    std::vector<int> head(shared_len);
    for (size_t i = 0; i < shared_len; ++i)
        head[i] = static_cast<int>((29 + 3 * i) % 251);
    std::vector<ServeRequest> reqs(requests);
    for (size_t r = 0; r < requests; ++r) {
        reqs[r].prompt = head;
        for (size_t i = 0; i < tail_len; ++i) {
            reqs[r].prompt.push_back(
                static_cast<int>((41 + 7 * r + 5 * i) % 251));
        }
        reqs[r].max_new_tokens = new_tokens;
        reqs[r].temperature = 0.0;
    }
    return reqs;
}

/**
 * Sharded-fleet workload: @p families groups of @p per requests, each
 * group sharing a page-aligned per-family system prompt plus distinct
 * tails — the multi-tenant pattern prefix-affinity routing exists for.
 * Routed by affinity, a family lands wholly on one shard (one physical
 * prefix copy, cache hits for every sibling); routed round-robin, every
 * shard re-prefills and caches its own copy of every family head.
 */
std::vector<ServeRequest>
shardedWorkload(size_t families, size_t per, size_t shared_len,
                size_t tail_len, size_t new_tokens)
{
    std::vector<ServeRequest> reqs;
    for (size_t f = 0; f < families; ++f) {
        std::vector<int> head(shared_len);
        for (size_t i = 0; i < shared_len; ++i)
            head[i] = static_cast<int>((29 + (3 + 2 * f) * i + f) % 251);
        for (size_t r = 0; r < per; ++r) {
            ServeRequest req;
            req.prompt = head;
            for (size_t i = 0; i < tail_len; ++i) {
                req.prompt.push_back(static_cast<int>(
                    (41 + 7 * (f * per + r) + 5 * i) % 251));
            }
            req.max_new_tokens = new_tokens;
            req.temperature = 0.0;
            reqs.push_back(std::move(req));
        }
    }
    return reqs;
}

/**
 * Bursty mixed-priority workload: interleaved long low-priority jobs
 * (small prompt, long generation — worst-case reservations far above
 * early live usage) and short high-priority jobs, all submitted as one
 * burst against a tight KV budget. Reject-only admission (factor 1)
 * idles slots on the pessimistic reservations; over-admission fills
 * them and settles the occasional loss by preempt-and-requeue.
 */
std::vector<ServeRequest>
burstyWorkload(size_t requests)
{
    std::vector<ServeRequest> reqs(requests);
    for (size_t r = 0; r < requests; ++r) {
        // Two long low-priority jobs per short high-priority one: the
        // long tails carry the reservation slack over-admission bets
        // on, the shorts carry the tail-latency story.
        const bool lng = r % 3 != 2;
        reqs[r].prompt.resize(8);
        for (size_t i = 0; i < reqs[r].prompt.size(); ++i) {
            reqs[r].prompt[i] =
                static_cast<int>((17 + 9 * r + 5 * i) % 251);
        }
        reqs[r].max_new_tokens = lng ? 56 : 16;
        reqs[r].priority = lng ? 0 : 4;
        reqs[r].temperature = 0.0;
    }
    return reqs;
}

/**
 * Overload workload: more work than the deadline allows. Mixed
 * priorities, every request under an end-to-end deadline, submitted as
 * one burst against a bounded queue — some requests complete, some are
 * shed at admission, some time out mid-flight. Run on the virtual step
 * clock (step_time_ms) so the shed/timed-out split is a pure function
 * of scheduling, identical on every machine; the interesting metric is
 * goodput_ok_fraction (completed-in-deadline / submitted).
 */
std::vector<ServeRequest>
overloadWorkload(size_t requests)
{
    std::vector<ServeRequest> reqs(requests);
    for (size_t r = 0; r < requests; ++r) {
        const size_t prompt_len = 16 + 4 * (r % 5);
        reqs[r].prompt.resize(prompt_len);
        for (size_t i = 0; i < prompt_len; ++i) {
            reqs[r].prompt[i] =
                static_cast<int>((23 + 11 * r + 3 * i) % 251);
        }
        reqs[r].max_new_tokens = 24;
        reqs[r].priority = static_cast<int>(r % 4) - 1; // -1..2
        reqs[r].temperature = 0.0;
    }
    return reqs;
}

/**
 * Poisson open-loop workload: varied short requests (the interactive
 * traffic an rps number describes) plus a pre-drawn arrival time per
 * request. Inter-arrival gaps are exponential with the given mean,
 * from a fixed seed — the trace is part of the workload geometry, so
 * every variant (serial, worker pool, async) serves the SAME arrivals
 * and the gated rows are deterministic on the virtual clock.
 */
std::vector<ServeRequest>
poissonWorkload(size_t requests)
{
    std::vector<ServeRequest> reqs(requests);
    for (size_t r = 0; r < requests; ++r) {
        const size_t prompt_len = 12 + 4 * (r % 5);
        reqs[r].prompt.resize(prompt_len);
        for (size_t i = 0; i < prompt_len; ++i) {
            reqs[r].prompt[i] =
                static_cast<int>((37 + 13 * r + 7 * i) % 251);
        }
        reqs[r].max_new_tokens = 10 + 4 * (r % 3);
        reqs[r].temperature = 0.0;
    }
    return reqs;
}

std::vector<double>
poissonArrivals(size_t requests, double mean_interarrival_ms,
                uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> arrival_ms(requests);
    double t = 0.0;
    for (size_t r = 0; r < requests; ++r) {
        // Inverse-CDF exponential; uniform() is in [0, 1) so the log
        // argument is in (0, 1].
        t += -mean_interarrival_ms * std::log(1.0 - rng.uniform());
        arrival_ms[r] = t;
    }
    return arrival_ms;
}

/** Short and long requests interleaved (prompts 8..92, 8..43 new). */
std::vector<ServeRequest>
mixedWorkload(size_t requests)
{
    std::vector<ServeRequest> reqs(requests);
    for (size_t r = 0; r < requests; ++r) {
        const size_t prompt_len = 8 + 12 * r;
        reqs[r].prompt.resize(prompt_len);
        for (size_t i = 0; i < prompt_len; ++i) {
            reqs[r].prompt[i] =
                static_cast<int>((31 + 5 * r + 11 * i) % 251);
        }
        reqs[r].max_new_tokens = 8 + 5 * r;
        reqs[r].temperature = 0.0;
    }
    return reqs;
}

/** A row's identity: format, traffic shape and engine geometry. */
RunResult
newResult(const std::string &format, const std::string &workload_name,
          const std::vector<ServeRequest> &reqs, const EngineOptions &opts)
{
    RunResult res;
    res.format = format;
    res.workload = workload_name;
    res.batch = opts.max_batch;
    res.requests = reqs.size();
    res.num_threads = opts.num_threads;
    return res;
}

/** KV bytes per-request worst-case contiguous caches would pin for
    @p reqs on @p engine's page geometry (kv_bytes_reserved_worst). */
size_t
reservedWorstBytes(const ServingEngine &engine, const Transformer &model,
                   const std::vector<ServeRequest> &reqs)
{
    const size_t pt = engine.pool().pageTokens();
    const size_t page_bytes = engine.pool().pageBytes();
    const size_t layers = model.config().n_layers;
    size_t bytes = 0;
    for (const auto &req : reqs) {
        const size_t tokens = req.prompt.size() + req.max_new_tokens;
        bytes += (tokens + pt - 1) / pt * layers * page_bytes;
    }
    return bytes;
}

/**
 * Copy aggregate @p es and the per-request results (@p per_request, in
 * request order) into @p res: shared by every runner, so every traffic
 * shape reports the same schema.
 */
void
fillResult(const EngineStats &es,
           const std::vector<const RequestStats *> &per_request,
           RunResult &res)
{
    res.stats = es;
    std::vector<double> ttfts;
    std::vector<double> token_ms;
    for (const RequestStats *rs : per_request) {
        res.streams.push_back(rs->generated);
        if (rs->generated.empty())
            continue; // rejected/shed: a 0.0 ttft would deflate p50/p99
        ttfts.push_back(rs->ttft_ms);
        token_ms.insert(token_ms.end(), rs->token_ms.begin(),
                        rs->token_ms.end());
    }
    res.ttft_p50_ms = latencyPercentile(ttfts, 0.50);
    res.ttft_p99_ms = latencyPercentile(ttfts, 0.99);
    res.token_p50_ms = latencyPercentile(token_ms, 0.50);
    res.token_p99_ms = latencyPercentile(token_ms, 0.99);
}

/**
 * Fill a RunResult from a DRAINED engine: shared by the batch-at-once
 * runner (runConfig) and the open-loop poisson runner. @p ids maps
 * request index -> engine id (submission interfaces differ; the
 * per-request stats lookup does not).
 */
RunResult
collectResult(const ServingEngine &engine, const Transformer &model,
              const std::string &format, const std::string &workload_name,
              const std::vector<ServeRequest> &reqs,
              const std::vector<size_t> &ids, const EngineOptions &opts)
{
    RunResult res = newResult(format, workload_name, reqs, opts);
    res.kv_bytes_reserved_worst = reservedWorstBytes(engine, model, reqs);
    std::vector<const RequestStats *> per_request;
    for (size_t id : ids)
        per_request.push_back(&engine.stats(id));
    fillResult(engine.engineStats(), per_request, res);
    return res;
}

RunResult
runConfig(const Transformer &model, const std::string &format,
          const std::string &workload_name,
          const std::vector<ServeRequest> &reqs, EngineOptions opts)
{
    const QuantConfig qc = QuantConfig::fromFormat(format);
    ServingEngine engine(model, qc, opts);
    std::vector<size_t> ids;
    for (const auto &req : reqs)
        ids.push_back(engine.submit(req));

    if (!engine.runToCompletion(kMaxBenchSteps)) {
        std::fprintf(stderr,
                     "bench_serving: FATAL %s %s did not drain within "
                     "%zu steps — scheduler livelock\n",
                     format.c_str(), workload_name.c_str(),
                     kMaxBenchSteps);
        std::exit(1);
    }
    return collectResult(engine, model, format, workload_name, reqs, ids,
                         opts);
}

/**
 * Budgeted shared-prefix pair runner: request 0 runs alone first, so
 * the shared head is published (and, when compression is on,
 * compressed) before the rest of the requests arrive as one burst.
 * The admission window therefore sees the cached head at its
 * RESIDENT charge — with compress_frozen_pages the same
 * kv_budget_tokens leaves a strictly wider window, so strictly more
 * of the burst admits before the first deferral. That capacity win
 * (admitted_before_first_defer, plus the lower kv_bytes_peak) is what
 * the shared-prefix-budget / shared-prefix-compressed pair measures.
 */
RunResult
runWarmedBudgetConfig(const Transformer &model, const std::string &format,
                      const std::string &workload_name,
                      const std::vector<ServeRequest> &reqs,
                      EngineOptions opts)
{
    const QuantConfig qc = QuantConfig::fromFormat(format);
    ServingEngine engine(model, qc, opts);
    std::vector<size_t> ids(reqs.size());
    ids[0] = engine.submit(reqs[0]);
    bool drained = engine.runToCompletion(kMaxBenchSteps);
    for (size_t r = 1; drained && r < reqs.size(); ++r)
        ids[r] = engine.submit(reqs[r]);
    drained = drained && engine.runToCompletion(kMaxBenchSteps);
    if (!drained) {
        std::fprintf(stderr,
                     "bench_serving: FATAL %s %s did not drain within "
                     "%zu steps — scheduler livelock\n",
                     format.c_str(), workload_name.c_str(),
                     kMaxBenchSteps);
        std::exit(1);
    }
    return collectResult(engine, model, format, workload_name, reqs, ids,
                         opts);
}

/**
 * Open-loop poisson runner: requests are submitted when their
 * pre-drawn arrival time passes on the virtual step clock, whatever
 * the engine's state — a saturated engine keeps receiving work, which
 * is what distinguishes an rps workload from batch-at-once. Requires
 * opts.step_time_ms > 0 (arrival times are virtual milliseconds).
 */
RunResult
runPoissonConfig(const Transformer &model, const std::string &format,
                 const std::string &workload_name,
                 const std::vector<ServeRequest> &reqs,
                 const std::vector<double> &arrival_ms, EngineOptions opts)
{
    const QuantConfig qc = QuantConfig::fromFormat(format);
    ServingEngine engine(model, qc, opts);
    std::vector<size_t> ids(reqs.size());
    std::vector<double> submit_ms(reqs.size(), 0.0);
    size_t next = 0;
    size_t steps = 0;
    while (next < reqs.size() || engine.queuedRequests() > 0 ||
           engine.activeRequests() > 0) {
        // step() advances the virtual clock even when idle, so gaps in
        // the arrival process pass in simulated time, not wall time.
        const double now_ms =
            static_cast<double>(steps) * opts.step_time_ms;
        while (next < reqs.size() && arrival_ms[next] <= now_ms) {
            submit_ms[next] = now_ms;
            ids[next] = engine.submit(reqs[next]);
            ++next;
        }
        engine.step();
        if (++steps > kMaxBenchSteps) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s %s did not drain "
                         "within %zu steps — scheduler livelock\n",
                         format.c_str(), workload_name.c_str(),
                         kMaxBenchSteps);
            std::exit(1);
        }
    }
    RunResult res = collectResult(engine, model, format, workload_name,
                                  reqs, ids, opts);

    // RequestStats::ttft_ms is engine-start-relative — fine when every
    // request is submitted up front, but under open-loop arrivals it
    // would mostly measure the arrival offset. Rebase each TTFT to the
    // request's own submit time (both on the virtual clock), which is
    // also the reference the deadline machinery uses.
    std::vector<double> ttfts;
    for (size_t r = 0; r < reqs.size(); ++r) {
        const RequestStats &rs = engine.stats(ids[r]);
        if (!rs.generated.empty())
            ttfts.push_back(rs.ttft_ms - submit_ms[r]);
    }
    res.ttft_p50_ms = latencyPercentile(ttfts, 0.50);
    res.ttft_p99_ms = latencyPercentile(ttfts, 0.99);
    return res;
}

/**
 * The same request set pushed through a live ShardedFrontEnd by racing
 * producer threads: one shard ("poisson-async", the single-engine
 * deployment) or a routed fleet ("sharded-async"). Arrival pacing is
 * the producers' (as fast as they can submit), so per-request latency
 * is not comparable to the virtual-clock rows. The row reports
 * num_threads = shards x decode workers (2 and 4 here, never 1), so
 * tools/check_bench.py never gates it — what IS checked, before any
 * number is emitted, is that every token stream is bit-identical to
 * the serial reference (main() compares them): concurrency, sharding
 * and re-routing are throughput decisions, never numerics decisions.
 */
RunResult
runFrontEnd(const Transformer &model, const std::string &format,
            const std::string &workload_name,
            const std::vector<ServeRequest> &reqs,
            const RouterOptions &router, EngineOptions opts)
{
    const QuantConfig qc = QuantConfig::fromFormat(format);
    constexpr size_t kProducers = 3;
    ShardedFrontEnd fe(model, qc, opts, router);
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

    RunResult res = newResult(format, workload_name, reqs, opts);
    res.num_threads = router.num_shards * opts.num_threads;
    std::vector<const RequestStats *> per_request;
    for (uint64_t t : tickets)
        per_request.push_back(&fe.stats(t));
    fillResult(fe.engineStats(), per_request, res);
    return res;
}

/**
 * Deterministic sharded-fleet simulation on the virtual clock: each
 * request goes to the shard @p shard_of says, then the per-shard
 * engines run serially in lock-step — every live shard steps once per
 * tick, idle or not, so the shards' virtual clocks stay aligned with
 * the shared tick count and their summed rates describe one concurrent
 * run. When @p kill_shard names a shard, it crashes at @p kill_tick: it
 * never steps again, its aggregate stats are abandoned, and every
 * request it had not finished is re-submitted (from the router-side
 * request copies) to the least-loaded survivor, the serial twin of
 * ShardedFrontEnd::failShard. Restart-is-bit-exact makes the
 * survivor's regenerated stream THE stream; requests the victim
 * finished before the crash keep their streams and timings. The row
 * merges exactly like the live router: mergeFleetStats over the live
 * shards' stats and every request's final stats. No threads anywhere,
 * so the rows are a pure function of (workload, placement, crash) and
 * tools/check_bench.py gates their ttft_p50_ms / kv_bytes_peak on any
 * machine — plus, for the failover row, ttft_p99_ms (the rerouted
 * tail includes the re-prefill on the survivor) and
 * goodput_ok_fraction (a crash must never lose a request).
 */
RunResult
runShardedSim(const Transformer &model, const std::string &format,
              const std::string &workload_name,
              const std::vector<ServeRequest> &reqs,
              const std::vector<size_t> &shard_of, size_t num_shards,
              EngineOptions opts, size_t kill_shard = SIZE_MAX,
              size_t kill_tick = 0)
{
    const QuantConfig qc = QuantConfig::fromFormat(format);
    std::vector<std::unique_ptr<ServingEngine>> shards;
    for (size_t s = 0; s < num_shards; ++s)
        shards.emplace_back(new ServingEngine(model, qc, opts));
    std::vector<size_t> owner = shard_of; // final owner per request
    std::vector<size_t> ids(reqs.size());
    for (size_t r = 0; r < reqs.size(); ++r)
        ids[r] = shards[owner[r]]->submit(reqs[r]);

    size_t dead = SIZE_MAX;
    size_t rerouted = 0;
    bool busy = true;
    for (size_t tick = 0; busy; ++tick) {
        if (tick == kill_tick && kill_shard < num_shards) {
            dead = kill_shard;
            for (size_t r = 0; r < reqs.size(); ++r) {
                // A request the victim finished pre-crash keeps its
                // stream, as a done ticket does under failShard.
                if (owner[r] != dead || shards[dead]->stats(ids[r]).finished)
                    continue;
                // Least-loaded survivor, lowest index breaking ties.
                size_t best_load = SIZE_MAX;
                for (size_t s = 0; s < num_shards; ++s) {
                    const size_t load = shards[s]->queuedRequests() +
                                        shards[s]->activeRequests();
                    if (s != dead && load < best_load) {
                        best_load = load;
                        owner[r] = s;
                    }
                }
                ids[r] = shards[owner[r]]->submit(reqs[r]);
                ++rerouted;
            }
        }
        busy = false;
        for (size_t s = 0; s < num_shards; ++s) {
            if (s == dead)
                continue; // crashed: never steps again
            busy = busy || shards[s]->queuedRequests() > 0 ||
                   shards[s]->activeRequests() > 0;
            shards[s]->step();
        }
        if (tick >= kMaxBenchSteps) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s %s did not drain "
                         "within %zu steps — scheduler livelock\n",
                         format.c_str(), workload_name.c_str(),
                         kMaxBenchSteps);
            std::exit(1);
        }
    }
    if (kill_shard < num_shards) {
        // A kill that fires after the victim drained (or after the
        // fleet did) exercises nothing — the row would silently
        // measure plain sharding. Config drift must fail loudly.
        if (rerouted == 0) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s %s kill tick %zu "
                         "fired after shard %zu drained — no failover "
                         "exercised; lower kill_tick\n",
                         format.c_str(), workload_name.c_str(), kill_tick,
                         kill_shard);
            std::exit(1);
        }
        std::fprintf(stderr,
                     "  %s %s: shard %zu killed at tick %zu, %zu "
                     "in-flight request(s) failed over\n",
                     format.c_str(), workload_name.c_str(), kill_shard,
                     kill_tick, rerouted);
    }

    std::vector<EngineStats> live_stats;
    for (size_t s = 0; s < num_shards; ++s)
        if (s != dead)
            live_stats.push_back(shards[s]->engineStats());
    std::vector<const EngineStats *> live;
    for (const EngineStats &es : live_stats)
        live.push_back(&es);
    std::vector<const RequestStats *> finals;
    for (size_t r = 0; r < reqs.size(); ++r)
        finals.push_back(&shards[owner[r]]->stats(ids[r]));
    RunResult res = newResult(format, workload_name, reqs, opts);
    res.kv_bytes_reserved_worst = reservedWorstBytes(*shards[0], model, reqs);
    fillResult(mergeFleetStats(live, finals), finals, res);
    return res;
}

void
printResult(FILE *out, const RunResult &r, bool last)
{
    // Poisson rows carry their open-loop rate; other traffic shapes
    // have no rps to report, so the field is simply absent there.
    const EngineStats &es = r.stats;
    char rps[48] = "";
    if (r.workload.rfind("poisson", 0) == 0)
        std::snprintf(rps, sizeof rps, "\"offered_rps\": %.1f, ",
                      r.offered_rps);
    std::fprintf(
        out,
        "    {\"format\": \"%s\", \"workload\": \"%s\", \"batch\": %zu, "
        "\"num_threads\": %zu, %s"
        "\"throughput_tok_s\": %.1f, \"decode_tok_s\": %.1f, "
        "\"speedup_vs_batch1\": %.2f, "
        "\"ttft_p50_ms\": %.2f, \"ttft_p99_ms\": %.2f, "
        "\"token_p50_ms\": %.3f, \"token_p99_ms\": %.3f, "
        "\"mean_batch_occupancy\": %.2f, \"kv_bytes_peak\": %zu, "
        "\"kv_pages_peak\": %zu, \"kv_bytes_reserved_worst\": %zu, "
        "\"prefill_chunks\": %zu, \"admission_deferred_steps\": %zu, "
        "\"prefix_hit_tokens\": %zu, \"preemptions\": %zu, "
        "\"preempted_recompute_tokens\": %zu, "
        "\"queue_wait_ms_p50\": %.2f, \"queue_wait_ms_p99\": %.2f, "
        "\"shed\": %zu, \"timed_out\": %zu, \"cancelled\": %zu, "
        "\"checksum_failures\": %zu, "
        "\"kv_bytes_reserved_peak\": %zu, \"compressed_ratio\": %.2f, "
        "\"admitted_before_first_defer\": %zu, "
        "\"goodput_ok_fraction\": %.3f}%s\n",
        r.format.c_str(), r.workload.c_str(), r.batch, r.num_threads,
        rps, es.throughput_tokens_per_s, es.decode_tokens_per_s,
        r.speedup_vs_batch1, r.ttft_p50_ms, r.ttft_p99_ms, r.token_p50_ms,
        r.token_p99_ms, es.mean_batch_occupancy, es.kv_bytes_peak,
        es.kv_pages_peak, r.kv_bytes_reserved_worst, es.prefill_chunks,
        es.admission_deferred_steps, es.prefix_hit_tokens, es.preemptions,
        es.preempted_recompute_tokens, es.queue_wait_ms_p50,
        es.queue_wait_ms_p99, es.shed_requests, es.timed_out_requests,
        es.cancelled_requests, es.checksum_failures,
        es.kv_bytes_reserved_peak, es.compressed_ratio,
        es.admitted_before_first_defer, es.goodput_ok_fraction,
        last ? "" : ",");
}

} // namespace
} // namespace mxplus

int
main(int argc, char **argv)
{
    using namespace mxplus;

    bool quick = false;
    const char *out_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--quick] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    // The widest sim-Llama stand-in: its d=256 linears dominate the
    // per-request attention work the way real serving GEMMs do, so the
    // batch-scaling numbers are representative.
    const ModelConfig cfg = simLlama31_70b();
    const Transformer model(cfg);

    // Quick mode keeps the workload identical and trims the config
    // grid, so every quick entry matches a full-run baseline entry by
    // (format, workload, batch) — that is what makes the CI regression
    // gate's comparisons apples-to-apples.
    const std::vector<std::string> formats =
        quick ? std::vector<std::string>{"BF16", "MXFP4+"}
              : std::vector<std::string>{"BF16", "MXFP8", "MXFP4+"};
    const std::vector<size_t> batches =
        quick ? std::vector<size_t>{1, 8}
              : std::vector<size_t>{1, 2, 4, 8};
    const size_t requests = 8;
    const size_t prompt_len = 32;
    const size_t new_tokens = 32;

    // Headline: the poisson open-loop rps workload. Per format, the
    // SAME pre-drawn arrival trace runs three ways — serial
    // (num_threads=1, the deterministic gated row), with the decode
    // worker pool (num_threads=2), and through a one-shard front end
    // with racing producers — and every token stream is verified
    // bit-identical before a single number is emitted. The serial and
    // worker-pool runs share deadlines on the virtual clock (identical
    // scheduling, so identical timeout sets); the async run paces
    // arrivals by producer speed, so it is verified against a
    // deadline-free serial reference instead (a deadline cut is a
    // timing decision — the async run legitimately times out different
    // requests, but may never produce different TOKENS).
    const size_t poisson_requests = 18;
    const double poisson_interarrival_ms = 2.0;
    const uint64_t poisson_seed = 42;
    const double poisson_deadline_ms = 120.0;
    const size_t poisson_batch = 4;
    const double poisson_rps = 1000.0 / poisson_interarrival_ms;
    std::vector<RunResult> poisson;
    for (const auto &fmt : formats) {
        std::fprintf(stderr, "serving %s poisson...\n", fmt.c_str());
        const auto reqs = poissonWorkload(poisson_requests);
        const auto arrivals = poissonArrivals(
            poisson_requests, poisson_interarrival_ms, poisson_seed);
        EngineOptions opts;
        opts.max_batch = poisson_batch;
        opts.step_time_ms = 1.0; // virtual clock: deterministic rows
        opts.deadline_ms = poisson_deadline_ms;
        RunResult serial =
            runPoissonConfig(model, fmt, "poisson", reqs, arrivals, opts);
        serial.offered_rps = poisson_rps;

        EngineOptions pooled = opts;
        pooled.num_threads = 2;
        RunResult threaded =
            runPoissonConfig(model, fmt, "poisson", reqs, arrivals, pooled);
        threaded.offered_rps = poisson_rps;
        if (threaded.streams != serial.streams) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s poisson token streams "
                         "diverge with num_threads=2 — the worker pool "
                         "must never change numerics\n",
                         fmt.c_str());
            return 1;
        }

        EngineOptions nodeadline = opts;
        nodeadline.deadline_ms = 0.0;
        const RunResult reference = runPoissonConfig(
            model, fmt, "poisson-ref", reqs, arrivals, nodeadline);
        EngineOptions async_opts = nodeadline;
        async_opts.num_threads = 2;
        RouterOptions one_shard;
        one_shard.num_shards = 1;
        one_shard.submit_timeout_ms = 0.0; // wait for ring space, never shed
        RunResult async = runFrontEnd(model, fmt, "poisson-async", reqs,
                                      one_shard, async_opts);
        async.offered_rps = poisson_rps;
        if (async.streams != reference.streams) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s poisson token streams "
                         "diverge through the async front end — "
                         "concurrency must never change numerics\n",
                         fmt.c_str());
            return 1;
        }

        poisson.push_back(std::move(serial));
        poisson.push_back(std::move(threaded));
        poisson.push_back(std::move(async));
    }

    std::vector<RunResult> results;
    for (const auto &fmt : formats) {
        double batch1_tok_s = 0.0;
        for (size_t b : batches) {
            std::fprintf(stderr, "serving %s batch %zu...\n", fmt.c_str(),
                         b);
            EngineOptions opts;
            opts.max_batch = b;
            RunResult r = runConfig(
                model, fmt, "uniform",
                uniformWorkload(requests, prompt_len, new_tokens), opts);
            if (b == 1)
                batch1_tok_s = r.stats.throughput_tokens_per_s;
            r.speedup_vs_batch1 = batch1_tok_s > 0.0
                ? r.stats.throughput_tokens_per_s / batch1_tok_s
                : 0.0;
            results.push_back(std::move(r));
        }
    }

    // Mixed-length workloads at batch 8: live-page peak vs worst-case
    // reservation, plus a budget-capped run exercising admission.
    std::vector<RunResult> mixed;
    for (const auto &fmt : formats) {
        std::fprintf(stderr, "serving %s mixed...\n", fmt.c_str());
        EngineOptions opts;
        opts.max_batch = 8;
        mixed.push_back(runConfig(model, fmt, "mixed",
                                  mixedWorkload(requests), opts));
        EngineOptions capped = opts;
        capped.kv_budget_tokens = 256; // < sum of per-request demand
        mixed.push_back(runConfig(model, fmt, "mixed-budget",
                                  mixedWorkload(requests), capped));
    }

    // Bursty mixed-priority workload at batch 8 under a tight budget:
    // over-admission + preemption ("bursty") vs PR4's reject-only
    // admission ("bursty-reject") over the SAME requests and budget.
    // Token streams are verified identical — preempt-and-requeue is a
    // scheduling decision, never a numerics decision — before any
    // number is emitted. Quick mode keeps one format so the CI gate
    // exercises the preemption path (and its ttft_p99 metric) on
    // every PR.
    std::vector<RunResult> bursty;
    const std::vector<std::string> bursty_formats =
        quick ? std::vector<std::string>{"MXFP4+"} : formats;
    const size_t bursty_requests = 12;
    const size_t bursty_budget_tokens = 256;
    const double bursty_over_admission = 1.5;
    const double bursty_aging_rate = 0.25;
    for (const auto &fmt : bursty_formats) {
        std::fprintf(stderr, "serving %s bursty...\n", fmt.c_str());
        const auto reqs = burstyWorkload(bursty_requests);
        EngineOptions opts;
        opts.max_batch = 8;
        opts.kv_budget_tokens = bursty_budget_tokens;
        opts.aging_rate = bursty_aging_rate;
        opts.over_admission = bursty_over_admission;
        RunResult over = runConfig(model, fmt, "bursty", reqs, opts);
        EngineOptions reject = opts;
        reject.over_admission = 1.0;
        RunResult rej =
            runConfig(model, fmt, "bursty-reject", reqs, reject);
        if (over.streams != rej.streams) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s bursty token streams "
                         "diverge under over-admission — preemption "
                         "must never change numerics\n",
                         fmt.c_str());
            return 1;
        }
        bursty.push_back(std::move(over));
        bursty.push_back(std::move(rej));
    }

    // Overload workload at batch 4: an admission burst a bounded queue
    // and per-request deadlines must triage. Runs on the virtual step
    // clock, so the completed/shed/timed-out split is deterministic —
    // the new lifecycle counters in each row carry the goodput story.
    std::vector<RunResult> overload;
    const std::vector<std::string> overload_formats =
        quick ? std::vector<std::string>{"MXFP4+"} : formats;
    const size_t overload_requests = 18;
    const size_t overload_queue_cap = 12;
    const double overload_deadline_ms = 48.0;
    for (const auto &fmt : overload_formats) {
        std::fprintf(stderr, "serving %s overload...\n", fmt.c_str());
        EngineOptions opts;
        opts.max_batch = 4;
        opts.queue_cap = overload_queue_cap;
        opts.shed_policy = ShedPolicy::kLowestPriority;
        opts.deadline_ms = overload_deadline_ms;
        opts.step_time_ms = 1.0; // virtual clock: deterministic triage
        opts.aging_rate = 0.25;
        overload.push_back(
            runConfig(model, fmt, "overload",
                      overloadWorkload(overload_requests), opts));
    }

    // Shared-prefix workload at batch 8: prefix cache on vs off over
    // the SAME requests, token streams verified bit-identical. Quick
    // mode keeps one format so the CI gate exercises the sharing path
    // (and its ttft/kv_bytes metrics) on every PR.
    std::vector<RunResult> shared;
    const std::vector<std::string> shared_formats =
        quick ? std::vector<std::string>{"MXFP4+"} : formats;
    const size_t shared_len = 256;
    const size_t tail_len = 32;
    const size_t shared_new = 16;
    const size_t shared_cache_tokens = 1024;
    const size_t shared_budget_tokens = 512;
    for (const auto &fmt : shared_formats) {
        std::fprintf(stderr, "serving %s shared-prefix...\n",
                     fmt.c_str());
        const auto reqs = sharedPrefixWorkload(requests, shared_len,
                                               tail_len, shared_new);
        EngineOptions opts;
        opts.max_batch = 8;
        opts.prefix_cache_tokens = shared_cache_tokens;
        RunResult cached =
            runConfig(model, fmt, "shared-prefix", reqs, opts);
        EngineOptions off = opts;
        off.prefix_cache_tokens = 0;
        RunResult plain =
            runConfig(model, fmt, "shared-prefix-nocache", reqs, off);
        if (cached.streams != plain.streams) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s shared-prefix token "
                         "streams diverge with the prefix cache on — "
                         "sharing must never change numerics\n",
                         fmt.c_str());
            return 1;
        }

        // Compressed frozen pages vs the plain pool at the SAME
        // kv_budget_tokens, both warmed so the shared head is already
        // published (and compressed) when the burst arrives. Streams
        // must stay bit-identical, residency must drop, and the burst
        // must admit strictly further before the first deferral —
        // compression is a capacity decision, never a numerics one.
        EngineOptions budgeted = opts;
        budgeted.kv_budget_tokens = shared_budget_tokens;
        RunResult base = runWarmedBudgetConfig(
            model, fmt, "shared-prefix-budget", reqs, budgeted);
        EngineOptions comp_opts = budgeted;
        comp_opts.compress_frozen_pages = true;
        RunResult comp = runWarmedBudgetConfig(
            model, fmt, "shared-prefix-compressed", reqs, comp_opts);
        if (comp.streams != base.streams ||
            base.streams != cached.streams) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s shared-prefix token "
                         "streams diverge with compressed frozen pages "
                         "— the codec must be bit-lossless\n",
                         fmt.c_str());
            return 1;
        }
        if (comp.stats.admitted_before_first_defer <=
                base.stats.admitted_before_first_defer ||
            comp.stats.kv_bytes_peak >= base.stats.kv_bytes_peak) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s shared-prefix-"
                         "compressed shows no capacity win at equal "
                         "budget (admitted %zu vs %zu before first "
                         "deferral, kv_bytes_peak %zu vs %zu)\n",
                         fmt.c_str(),
                         comp.stats.admitted_before_first_defer,
                         base.stats.admitted_before_first_defer,
                         comp.stats.kv_bytes_peak,
                         base.stats.kv_bytes_peak);
            return 1;
        }
        std::fprintf(stderr,
                     "  %s shared-prefix-compressed: ratio %.2fx, "
                     "admitted %zu vs %zu before first deferral\n",
                     fmt.c_str(), comp.stats.compressed_ratio,
                     comp.stats.admitted_before_first_defer,
                     base.stats.admitted_before_first_defer);
        shared.push_back(std::move(cached));
        shared.push_back(std::move(plain));
        shared.push_back(std::move(base));
        shared.push_back(std::move(comp));
    }

    // Sharded fleet: the SAME multi-family workload served five ways —
    // one big single engine ("sharded-ref", the golden reference), a
    // 4-shard fleet routed by prefix affinity ("sharded-affinity"), the
    // same fleet routed round-robin ("sharded-roundrobin"), the
    // affinity fleet with one shard crashed mid-run and its in-flight
    // requests failed over to the survivors ("sharded-failover"), and
    // the live ShardedFrontEnd with real shard threads and racing
    // producers ("sharded-async"). The serial rows run on the virtual
    // step clock, so they are deterministic and tools/check_bench.py
    // gates ttft_p50_ms and kv_bytes_peak — the affinity-vs-round-robin
    // delta (one physical prefix copy per family vs one per family per
    // shard) is the router's headline number — plus, for the failover
    // row, ttft_p99_ms (the rerouted tail) and goodput_ok_fraction (a
    // crash must never lose a request). Every variant's token streams
    // are verified bit-identical to the reference before anything is
    // emitted: placement — and re-placement after a crash — is a
    // throughput decision, never a numerics decision.
    std::vector<RunResult> sharded;
    const std::vector<std::string> sharded_formats =
        quick ? std::vector<std::string>{"MXFP4+"} : formats;
    const size_t sharded_families = 4;
    const size_t sharded_per = 6;
    const size_t sharded_shared_len = 128;
    const size_t sharded_tail_len = 16;
    const size_t sharded_new = 12;
    const size_t sharded_shards = 4;
    const size_t sharded_cache_tokens = 1024;
    // Failover row geometry: the crash fires at a tick chosen to land
    // mid-flight (the victim's 6-request family takes ~30+ virtual ms
    // to serve, so tick 10 catches it between prefill and decode), and
    // the victim is whichever shard affinity gave request 0's family —
    // guaranteed to own in-flight work, whatever the per-format page
    // geometry hashes to. The sim FATALs if the kill fires on a
    // drained shard, so workload drift cannot silently degrade the
    // row into plain sharding.
    const size_t sharded_kill_tick = 10;
    for (const auto &fmt : sharded_formats) {
        std::fprintf(stderr, "serving %s sharded...\n", fmt.c_str());
        const auto reqs =
            shardedWorkload(sharded_families, sharded_per,
                            sharded_shared_len, sharded_tail_len,
                            sharded_new);
        EngineOptions opts;
        opts.max_batch = 4;
        opts.prefix_cache_tokens = sharded_cache_tokens;
        opts.step_time_ms = 1.0; // virtual clock: deterministic rows

        RunResult ref =
            runConfig(model, fmt, "sharded-ref", reqs, opts);

        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        const size_t pt = KvCache::pageTokensFor(qc.attention.get());
        RouterOptions router;
        router.num_shards = sharded_shards;
        std::vector<size_t> affinity(reqs.size());
        std::vector<size_t> round_robin(reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i) {
            affinity[i] =
                affinityShard(reqs[i].prompt, pt, sharded_shards);
            round_robin[i] = i % sharded_shards;
        }
        RunResult aff = runShardedSim(model, fmt, "sharded-affinity",
                                      reqs, affinity, sharded_shards,
                                      opts);
        RunResult rr = runShardedSim(model, fmt, "sharded-roundrobin",
                                     reqs, round_robin, sharded_shards,
                                     opts);
        RunResult failover = runShardedSim(
            model, fmt, "sharded-failover", reqs, affinity, sharded_shards,
            opts, affinity[0], sharded_kill_tick);
        RunResult live = runFrontEnd(model, fmt, "sharded-async", reqs,
                                     router, opts);
        // The affinity fleet again with frozen-page compression armed
        // on every shard: per-family prefix copies shrink to their
        // stream size, so the fleet's resident peak drops while the
        // streams stay bit-identical to the single-engine reference.
        EngineOptions comp_opts = opts;
        comp_opts.compress_frozen_pages = true;
        RunResult comp = runShardedSim(model, fmt, "sharded-compressed",
                                       reqs, affinity, sharded_shards,
                                       comp_opts);
        if (aff.streams != ref.streams || rr.streams != ref.streams ||
            failover.streams != ref.streams ||
            live.streams != ref.streams ||
            comp.streams != ref.streams) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s sharded token streams "
                         "diverge from the single-engine reference — "
                         "sharding must never change numerics\n",
                         fmt.c_str());
            return 1;
        }
        if (comp.stats.kv_bytes_peak >= aff.stats.kv_bytes_peak) {
            std::fprintf(stderr,
                         "bench_serving: FATAL %s sharded-compressed "
                         "resident peak %zu did not drop below the "
                         "uncompressed affinity fleet's %zu\n",
                         fmt.c_str(), comp.stats.kv_bytes_peak,
                         aff.stats.kv_bytes_peak);
            return 1;
        }
        std::fprintf(stderr,
                     "  %s sharded-compressed: ratio %.2fx, "
                     "kv_bytes_peak %zu vs %zu uncompressed\n",
                     fmt.c_str(), comp.stats.compressed_ratio,
                     comp.stats.kv_bytes_peak, aff.stats.kv_bytes_peak);
        sharded.push_back(std::move(ref));
        sharded.push_back(std::move(aff));
        sharded.push_back(std::move(rr));
        sharded.push_back(std::move(failover));
        sharded.push_back(std::move(live));
        sharded.push_back(std::move(comp));
    }

    FILE *out = stdout;
    if (out_path != nullptr) {
        out = std::fopen(out_path, "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", out_path);
            return 1;
        }
    }

    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"bench_serving\",\n");
    std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(out, "  \"model\": \"%s\",\n", cfg.name.c_str());
    std::fprintf(out, "  \"kv_page_tokens\": %zu,\n",
                 KvCache::pageTokensFor(nullptr));
    std::fprintf(out,
                 "  \"workload\": {\"requests\": %zu, \"prompt_tokens\": "
                 "%zu, \"new_tokens_per_request\": %zu, \"sampling\": "
                 "\"greedy\"},\n",
                 requests, prompt_len, new_tokens);
    std::fprintf(out,
                 "  \"poisson_workload\": {\"requests\": %zu, "
                 "\"mean_interarrival_ms\": %.1f, \"offered_rps\": %.1f, "
                 "\"seed\": %zu, \"deadline_ms\": %.1f, "
                 "\"step_time_ms\": 1.0, \"max_batch\": %zu, "
                 "\"tokens_match_threaded\": true, "
                 "\"tokens_match_async\": true},\n",
                 poisson_requests, poisson_interarrival_ms, poisson_rps,
                 static_cast<size_t>(poisson_seed), poisson_deadline_ms,
                 poisson_batch);
    std::fprintf(out, "  \"poisson\": [\n");
    for (size_t i = 0; i < poisson.size(); ++i)
        printResult(out, poisson[i], i + 1 == poisson.size());
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"configs\": [\n");
    for (size_t i = 0; i < results.size(); ++i)
        printResult(out, results[i], i + 1 == results.size());
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"mixed\": [\n");
    for (size_t i = 0; i < mixed.size(); ++i)
        printResult(out, mixed[i], i + 1 == mixed.size());
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"bursty_workload\": {\"requests\": %zu, "
                 "\"kv_budget_tokens\": %zu, \"over_admission\": %.1f, "
                 "\"aging_rate\": %.2f, \"tokens_match_reject\": "
                 "true},\n",
                 bursty_requests, bursty_budget_tokens,
                 bursty_over_admission, bursty_aging_rate);
    std::fprintf(out, "  \"bursty\": [\n");
    for (size_t i = 0; i < bursty.size(); ++i)
        printResult(out, bursty[i], i + 1 == bursty.size());
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"overload_workload\": {\"requests\": %zu, "
                 "\"queue_cap\": %zu, \"deadline_ms\": %.1f, "
                 "\"shed_policy\": \"lowest-priority\", "
                 "\"step_time_ms\": 1.0},\n",
                 overload_requests, overload_queue_cap,
                 overload_deadline_ms);
    std::fprintf(out, "  \"overload\": [\n");
    for (size_t i = 0; i < overload.size(); ++i)
        printResult(out, overload[i], i + 1 == overload.size());
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"shared_prefix\": {\"requests\": %zu, "
                 "\"shared_tokens\": %zu, \"tail_tokens\": %zu, "
                 "\"new_tokens_per_request\": %zu, "
                 "\"prefix_cache_tokens\": %zu, "
                 "\"budget_kv_tokens\": %zu, "
                 "\"tokens_match_nocache\": true, "
                 "\"tokens_match_compressed\": true},\n",
                 requests, shared_len, tail_len, shared_new,
                 shared_cache_tokens, shared_budget_tokens);
    std::fprintf(out, "  \"shared\": [\n");
    for (size_t i = 0; i < shared.size(); ++i)
        printResult(out, shared[i], i + 1 == shared.size());
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"sharded_workload\": {\"families\": %zu, "
                 "\"requests_per_family\": %zu, \"shared_tokens\": %zu, "
                 "\"tail_tokens\": %zu, \"new_tokens_per_request\": %zu, "
                 "\"num_shards\": %zu, \"prefix_cache_tokens\": %zu, "
                 "\"step_time_ms\": 1.0, \"max_batch_per_shard\": 4, "
                 "\"failover_kill_tick\": %zu, "
                 "\"failover_kill_shard\": \"affinity-of-request-0\", "
                 "\"tokens_match_reference\": true, "
                 "\"tokens_match_failover\": true, "
                 "\"tokens_match_compressed\": true},\n",
                 sharded_families, sharded_per, sharded_shared_len,
                 sharded_tail_len, sharded_new, sharded_shards,
                 sharded_cache_tokens, sharded_kill_tick);
    std::fprintf(out, "  \"sharded\": [\n");
    for (size_t i = 0; i < sharded.size(); ++i)
        printResult(out, sharded[i], i + 1 == sharded.size());
    std::fprintf(out, "  ]\n");
    std::fprintf(out, "}\n");
    if (out != stdout)
        std::fclose(out);
    return 0;
}
