/**
 * @file
 * Batched serving EXECUTOR: prefill quanta, batched decode, sampling
 * and statistics over per-request paged KV caches drawn from one
 * shared, budgeted, refcounted page pool — with shared-prefix prefill
 * reuse across requests.
 *
 * Policy/mechanism split (see serve/scheduler.h for the policy half):
 * every *which-request* decision — admission order under priorities
 * with aging, the token-budget reservation ledger and its optimistic
 * over-admission window, and victim selection when the pool runs dry —
 * lives in the Scheduler. This class executes those decisions: it
 * owns the slots, runs the model, moves pages, publishes prefix spans
 * and keeps the clocks. The engine never reorders the queue itself
 * and the scheduler never touches a page.
 *
 * Scheduling model (continuous batching + budget admission + chunked
 * prefill + prefix sharing + preemptive over-admission):
 *
 *   1. While a decode slot is free and requests are queued, take the
 *      scheduler's best candidate (highest aged priority; ties break
 *      shortest-job-first under EngineOptions::sjf_admission, FIFO
 *      otherwise), match its prompt against the prefix index, and
 *      admit it if its *unshared* page reservation fits the
 *      scheduler's admission window — `over_admission *
 *      kv_budget_tokens` worth of pages, evicting unreferenced cached
 *      spans LRU-first for headroom. With over_admission == 1 the
 *      reservation is conservative and in-flight requests can never
 *      exhaust the pool (the PR4 reject-only behaviour); above 1 the
 *      scheduler admits optimistically and the engine preempts when
 *      the optimism loses. A request whose demand exceeds the whole
 *      budget is rejected gracefully (RequestOutcome::kRejected).
 *   2. Run one prefill quantum for every still-prefilling slot —
 *      adopting every cached page available at its position, else
 *      computing one EngineOptions::prefill_chunk tokens and
 *      publishing newly frozen whole-prompt pages (see PR4 notes
 *      below). BEFORE a quantum (or a decode batch) acquires pages,
 *      the engine checks the pool has them; if not, it first evicts
 *      unpinned cached spans and then PREEMPTS scheduler-chosen
 *      victims — lowest priority, then cheapest to recompute via
 *      prefix-cache coverage — until the step fits. A preempted
 *      request drops its unshared pages back to the pool
 *      (KvCache::releaseForPreemption; pages it published stay
 *      resident in the prefix index) and is requeued with its aging
 *      credit intact; on re-admission it re-prefills from its prompt,
 *      re-adopting the published head from the trie so recompute cost
 *      is tail-only.
 *   3. Run ONE decode step for every slot past prefill, batched
 *      through Transformer::decodeStepBatch.
 *   4. Sample each request's next token, retire finished requests,
 *      and go to 1.
 *
 * Preemption is bit-exact, not approximate: a preempted request
 * RESTARTS — generated tokens are discarded and regenerated — and the
 * regenerated stream is identical in every format because (a) prefill
 * is chunk-invariant (a computed chunk ends on a page boundary, a page
 * holds whole value blocks and block quantizers are block-local, so
 * the cache state after prefilling a prompt is a pure function of the
 * prompt),
 * (b) a batched decode row is bit-identical to a solo run, and (c)
 * each request samples from its own deterministic Rng, reset on
 * restart. Like batching, the budget and prefix sharing, preemption
 * is a throughput decision, never a numerics decision. TTFT keeps its
 * first stamp (the token's value never changes, only who pays to
 * recompute the state behind it).
 *
 * Prefix sharing is bit-exact for the same block-local reasons: spans
 * are keyed on exact token ids (PrefixIndex), a completed page is
 * frozen (kv_cache.h), and adoption replaces compute without changing
 * any quantization decision.
 *
 * Sampling runs per request through sampleLogitsPolicy: greedy,
 * temperature, top-k, nucleus (top-p) and repetition penalty, driven
 * by a per-request deterministic Rng, so results are reproducible and
 * independent of scheduling.
 *
 * All timing uses a steady clock; per-request latencies are measured
 * from the engine's first step, so a queued request's TTFT includes
 * its queueing delay. EngineOptions::step_time_ms switches
 * the REQUEST-FACING clock (deadlines, queue waits, TTFT) to a virtual
 * one that advances a fixed amount per scheduler step, which makes
 * deadline and shedding behaviour a deterministic function of the
 * workload — perf counters (wall_ms, decode_ms) always stay wall.
 *
 * Request lifecycle (PR6): every request ends in exactly one terminal
 * state — completed, rejected (demand can never fit), shed (bounded
 * queue overflow or over-long queue wait), timed_out (TTFT or
 * end-to-end deadline) or cancelled (client cancel()) — and every
 * non-completed exit releases its pages, its reservation-ledger entry
 * and its trie pins from whatever phase it was in. Terminations are
 * applied at step boundaries only, so a dying request never leaves a
 * half-appended cache behind. Shared-page integrity is guarded by
 * per-page checksums taken when a span is published and re-verified
 * before every adoption (EngineOptions::checksum_pages); a mismatch
 * quarantines the span and the reader computes privately — corruption
 * can cost compute, never correctness. A FaultInjector
 * (EngineOptions::fault) can force all of these paths
 * deterministically; see serve/fault.h and tests/test_chaos.cpp.
 */

#ifndef MXPLUS_SERVE_SERVING_ENGINE_H
#define MXPLUS_SERVE_SERVING_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/worker_pool.h"
#include "model/layers.h"
#include "model/transformer.h"
#include "serve/fault.h"
#include "serve/health.h"
#include "serve/kv_cache.h"
#include "serve/kv_page_pool.h"
#include "serve/prefix_index.h"
#include "serve/scheduler.h"

namespace mxplus {

/**
 * Terminal state of a request — exactly one per request, replacing the
 * old bool-ish `rejected`. kPending means still queued or running.
 */
enum class RequestOutcome
{
    kPending = 0,
    kCompleted, ///< generated its full answer (or filled the sequence)
    kRejected,  ///< KV demand could never fit the budget; never ran
    kShed,      ///< dropped by overload protection (queue cap / wait)
    kTimedOut,  ///< missed its TTFT or end-to-end deadline
    kCancelled, ///< client cancel() took effect
};

/** Stable name of @p outcome ("completed", "shed", ...). */
const char *outcomeName(RequestOutcome outcome);

/** Which request a full admission queue drops. */
enum class ShedPolicy
{
    /** Shed the incoming request (classic tail drop). */
    kNewest = 0,
    /** Shed the lowest-effective-priority queued request if the
        incoming one outranks it, else the incoming one. */
    kLowestPriority,
};

/** One generation request. */
struct ServeRequest
{
    std::vector<int> prompt;
    size_t max_new_tokens = 32;
    /** 0 = greedy argmax; > 0 = temperature sampling with @ref seed. */
    double temperature = 0.0;
    uint64_t seed = 0;
    /** Keep only the k highest logits (0 = no limit). */
    size_t top_k = 0;
    /** Nucleus sampling mass (1 = no cut). */
    double top_p = 1.0;
    /** Penalty on prompt/generated tokens (1 = off). */
    double repetition_penalty = 1.0;
    /**
     * Scheduling priority (higher = more urgent; any int). Orders
     * admission and shields against preemption; never affects the
     * tokens a request generates.
     */
    int priority = 0;
    /**
     * End-to-end deadline in request-clock ms from submit (0 = engine
     * default, EngineOptions::deadline_ms). A request not finished by
     * then is terminated as kTimedOut, keeping the tokens generated so
     * far (always a bit-exact prefix of the unconstrained stream).
     */
    double deadline_ms = 0.0;
    /** First-token deadline from submit (0 = engine default). */
    double ttft_deadline_ms = 0.0;
};

/** Engine-wide scheduling and memory knobs. */
struct EngineOptions
{
    /** Maximum concurrent slots (batch width of decodeStepBatch). */
    size_t max_batch = 8;
    /**
     * KV pool budget in tokens per layer (0 = unbounded). Admission
     * reserves ceil((prompt + max_new_tokens) / page_tokens) pages per
     * layer per request against it, minus pages served from the prefix
     * cache (those count as resident span pages instead); a request
     * whose TOTAL demand exceeds the whole budget — shared pages must
     * stay mapped, so sharing cannot shrink residency — is rejected
     * gracefully at admission time.
     */
    size_t kv_budget_tokens = 0;
    /** Prompt tokens prefilled per scheduler step (0 = whole prompt);
        a computed chunk rounds up to end on a page boundary. */
    size_t prefill_chunk = 32;
    /** Tokens per KV page (0 = auto from the value quantizer). */
    size_t page_tokens = 0;
    /**
     * Prefix-cache capacity in tokens (whole frozen prompt pages
     * retained for reuse, rounded up to pages; spans mapped by active
     * requests are never evicted). 0 disables prefix sharing. Requires
     * a value quantizer with known block structure (blockPeriod > 0).
     */
    size_t prefix_cache_tokens = 0;
    /**
     * Admit the queued request with the smallest total token demand
     * (prompt + max_new_tokens) among effective-priority ties instead
     * of FIFO — shortest-job-first on top of the priority order and
     * the budget check. Token streams are unaffected (per-request
     * deterministic sampling).
     */
    bool sjf_admission = false;
    /**
     * Admission-window multiple of the KV budget (>= 1; needs
     * kv_budget_tokens > 0 to matter). 1 reserves conservatively and
     * never preempts; above 1 over-admits optimistically — worst-case
     * reservations may exceed the pool — and preempts a victim when
     * the pool actually runs dry. Keeps bursty mixed workloads' batch
     * full: most requests never grow into their worst-case tail.
     */
    double over_admission = 1.0;
    /**
     * Queue-priority points a waiting request gains per engine step
     * (0 = pure priority + FIFO/SJF). With rate r, a job out-ranked
     * by dp priority points overtakes any *newer* submission after
     * dp / r steps of waiting, which bounds the maximum queue wait —
     * no starvation under a stream of short high-priority jobs.
     */
    double aging_rate = 0.0;
    /**
     * Default end-to-end deadline (request-clock ms from submit)
     * applied when ServeRequest::deadline_ms is 0. 0 = no deadline.
     */
    double deadline_ms = 0.0;
    /** Default first-token deadline (0 = none). */
    double ttft_deadline_ms = 0.0;
    /**
     * Bounded admission queue: submits beyond this many queued
     * requests trigger load shedding per @ref shed_policy (0 =
     * unbounded). Active slots don't count — the cap protects the
     * queue, admission protects the slots.
     */
    size_t queue_cap = 0;
    /** Who a full queue drops (see ShedPolicy). */
    ShedPolicy shed_policy = ShedPolicy::kNewest;
    /**
     * Shed a request still queued after this many request-clock ms
     * (0 = never). Unlike a deadline this is the ENGINE declining
     * work it is too far behind on, so it counts as kShed: the
     * goodput loss is attributed to overload, not to the request's
     * latency contract.
     */
    double max_queue_wait_ms = 0.0;
    /**
     * Verify each shared page's published checksum before adopting it
     * (admission match and prefill adoption). A mismatch quarantines
     * the span (PrefixIndex::verify) and the request computes the
     * page privately — bit-exactness is preserved either way; the
     * checksum turns silent corruption into a counted, contained
     * event. Checksums are always COMPUTED at publication; this knob
     * only gates verification.
     */
    bool checksum_pages = true;
    /**
     * Virtual request-clock milliseconds per scheduler step (0 = wall
     * clock). With a positive value, deadlines, queue waits and TTFT
     * are measured on a clock that is a pure function of the step
     * count, making timeout/shed behaviour — and therefore terminal
     * states — deterministic across machines and runs. Wall-clock
     * perf counters are unaffected.
     */
    double step_time_ms = 0.0;
    /**
     * Deterministic fault injector for chaos testing (not owned;
     * nullptr = never fires, zero overhead). See serve/fault.h.
     */
    FaultInjector *fault = nullptr;
    /**
     * Decode worker threads: batched decode partitions its per-request
     * attention rows across a persistent WorkerPool of this size; 0
     * means "one per hardware thread". At 1 (the default) no pool is
     * created and decodeStepBatch runs a batch's attention rows in an
     * OpenMP loop instead (`omp parallel for if (b > 1)`), which is
     * serial only under OMP_NUM_THREADS=1. At the default OpenMP width
     * on a 4-vCPU VM, bench_serving --quick's num_threads = 1 MXFP4+
     * rows with batch > 1 read 0.50-0.84x their token_p50_ms at
     * OMP_NUM_THREADS=1 (medians of four runs each). Each batch row
     * runs its exact serial arithmetic on exactly one thread, so
     * tokens are bit-identical at every setting (asserted by
     * tests/test_async.cpp and in-bench by bench_serving's poisson
     * workload). See docs/ARCHITECTURE.md for the threading model.
     */
    size_t num_threads = 1;
    /**
     * Compress frozen (published) KV pages with a lossless block
     * codec: on publication each span page's K/V payload is encoded
     * (src/codec/), its float slab freed, and the pool's budget
     * charged by COMPRESSED bytes — so the same kv_budget_tokens
     * holds more cached prefix state and admission opens a wider
     * window (PrefixIndex::heldPageEquivalents). Readers decode each
     * page region they read into a per-reader buffer. When K and V share one MX
     * configuration whose block size divides the head dim and the
     * page tokens, pages are stored as that format's blocks (the dense
     * MX codec); every other quantizer gets the bitpacking codec.
     * Both are lossless on IEEE-754 bits (a block that does not encode
     * exactly is stored raw), so streams stay bit-exact in every
     * format. Off by default.
     */
    bool compress_frozen_pages = false;
    /**
     * The decode backend of the frozen-page codec: "auto" (AVX2 decode
     * when the CPU has it, else scalar), "simd", or "reference"
     * (scalar). Encoded streams are byte-identical across backends — the
     * choice is decode speed, never representation. Ignored unless
     * compress_frozen_pages is set.
     */
    std::string page_codec = "auto";

    /**
     * Check this option set against @p qc for knob combinations the
     * engine cannot honour. Returns an empty string when the options
     * are usable, else a one-line description of the FIRST problem
     * found (e.g. "page_tokens (48) is not a multiple of the
     * attention block period (32)"). Front ends call this at
     * construction so a bad configuration fails with a readable
     * message instead of a deep CHECK-abort inside KvCache or the
     * scheduler; callers who want death-free handling call it
     * themselves before constructing.
     */
    std::string validate(const QuantConfig &qc) const;
};

/** Per-request outcome and latency statistics. */
struct RequestStats
{
    size_t id = 0;
    size_t prompt_tokens = 0;
    std::vector<int> generated;
    bool finished = false;
    /**
     * Terminal state (kPending until finished). Non-completed exits
     * keep whatever tokens were generated before the cut — always a
     * bit-exact prefix of the request's unconstrained stream.
     */
    RequestOutcome outcome = RequestOutcome::kPending;
    /** Prompt tokens served from shared prefix pages (no compute). */
    size_t shared_prompt_tokens = 0;
    /** Times this request was preempted (restarted) for pool pressure. */
    size_t preemptions = 0;
    /** Total time spent queued before (re-)admissions. */
    double queue_wait_ms = 0.0;

    double ttft_ms = 0.0; ///< engine start -> first token (incl. queueing)
    /** Per-token decode-step latency; the first (prefill-produced) token
     *  is covered by ttft_ms instead. */
    std::vector<double> token_ms;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    double decode_tokens_per_s = 0.0;
};

/**
 * Aggregate engine statistics. ServingEngine::engineStats() computes
 * them when read, so they are valid at every step boundary.
 */
struct EngineStats
{
    double wall_ms = 0.0;
    size_t total_generated = 0;
    /** End-to-end: all generated tokens over the full wall time. */
    double throughput_tokens_per_s = 0.0;
    size_t decode_batches = 0;
    double decode_ms = 0.0;     ///< wall time inside batched decode steps
    size_t decode_tokens = 0;   ///< tokens produced by decode steps
    /** Decode-phase throughput (excludes prefill/admission time). */
    double decode_tokens_per_s = 0.0;
    double mean_batch_occupancy = 0.0;
    /**
     * Peak of live KV pool bytes — TRUE residency: with
     * compress_frozen_pages on, compressed span pages count their
     * stream size, not their slab size. Equals kv_bytes_reserved_peak
     * exactly when compression is off.
     */
    size_t kv_bytes_peak = 0;
    /** Peak of live KV bytes at slab granularity (usedPages() *
        pageBytes()) — the pre-compression ledger's view. */
    size_t kv_bytes_reserved_peak = 0;
    /** Peak of live KV pool pages. */
    size_t kv_pages_peak = 0;
    /** Prefill chunks computed (adopted pages don't count). */
    size_t prefill_chunks = 0;
    /** Steps on which a free slot went unfilled for lack of KV budget. */
    size_t admission_deferred_steps = 0;
    /** Requests that adopted at least one shared prefix page. */
    size_t prefix_hit_requests = 0;
    /** Prompt tokens served from the prefix cache instead of computed. */
    size_t prefix_hit_tokens = 0;
    /** Prompt tokens published into the prefix cache. */
    size_t prefix_inserted_tokens = 0;
    /** Pool pages freed by LRU span eviction. */
    size_t prefix_evicted_pages = 0;
    /** Admissions that bypassed the oldest queued request (priority
        or SJF order overtaking FIFO). */
    size_t sjf_reorders = 0;
    /** Requests rejected for impossible KV demand. */
    size_t rejected_requests = 0;
    /** Preemptions executed (a request may count several times). */
    size_t preemptions = 0;
    /** Cache-state tokens preemptions threw away that were NOT covered
        by retained prefix spans — the recompute bill of optimism. */
    size_t preempted_recompute_tokens = 0;
    /** Queue-wait (submit/requeue -> admission) percentiles. */
    double queue_wait_ms_p50 = 0.0;
    double queue_wait_ms_p99 = 0.0;
    /** Requests dropped by overload protection (cap or queue wait). */
    size_t shed_requests = 0;
    /** Requests that missed a TTFT or end-to-end deadline. */
    size_t timed_out_requests = 0;
    /** Requests terminated by client cancel(). */
    size_t cancelled_requests = 0;
    /** Shared-page checksum mismatches caught before adoption. */
    size_t checksum_failures = 0;
    /** Requests admitted before the first budget deferral (capacity
        proxy: compression should raise it at equal budget). */
    size_t admitted_before_first_defer = 0;
    /** Uncompressed-payload over stream bytes across every page the
        pool compressed (1.0 when compression is off or idle). */
    double compressed_ratio = 1.0;
    /** Stream bytes of every page the pool compressed: the denominator
        of compressed_ratio, and its weight in the fleet merge. */
    size_t compressed_stream_bytes = 0;
    /** Page-region decodes (reads of a compressed page region). */
    size_t codec_decode_calls = 0;
    /** Completed requests over all submitted (goodput, not just
        throughput: sheds, timeouts, cancels and rejects all count
        against it). */
    double goodput_ok_fraction = 0.0;
};

/** Nearest-rank percentile of latency samples (shared with benches). */
double latencyPercentile(std::vector<double> samples, double p);

/**
 * The per-request fields of @p es, one rule for an engine and the fleet
 * merge: total_generated, the four non-completed outcome counters and
 * goodput_ok_fraction, tallied over @p requests (one RequestStats per
 * request; a pending one counts only in goodput's denominator).
 */
void tallyRequests(const std::vector<const RequestStats *> &requests,
                   EngineStats &es);

/** Continuous-batching serving engine over one model + quant config. */
class ServingEngine
{
  public:
    ServingEngine(const Transformer &model, QuantConfig qc,
                  EngineOptions opts);

    /** Convenience: default options with @p max_batch slots. */
    ServingEngine(const Transformer &model, QuantConfig qc,
                  size_t max_batch);

    /** Enqueue a request; returns its id. A full bounded queue may
        shed it (or a worse queued request) immediately — check
        stats(id).outcome. */
    size_t submit(ServeRequest req);

    /**
     * Request cancellation of @p id. Takes effect at the next step
     * boundary — from the queue or from an active slot alike — and
     * releases every page, ledger entry and trie pin the request
     * held; tokens generated so far stay in its stats. Returns false
     * when the request is unknown or already finished (the classic
     * cancel/complete race — the caller gets the completed answer).
     */
    bool cancel(size_t id);

    /**
     * One scheduler iteration: admit while the window and slots allow,
     * one prefill quantum per prefilling slot (preempting victims if
     * the pool runs dry), then one batched decode step.
     * @return true while work remains.
     */
    bool step();

    /**
     * Step until the queue and every active request drain. A watchdog
     * gives up after @p max_steps steps (0 = unlimited) and returns
     * false, so a liveness bug fails loudly instead of hanging.
     */
    bool runToCompletion(size_t max_steps = 0);

    /**
     * Cross-layer debug audit: pool accounting (KvPagePool::
     * auditInvariants), prefix-trie structure (PrefixIndex::
     * auditInvariants), every active cache's page tables (KvCache::
     * auditInvariants) and the reservation ledger (the scheduler's
     * reserved total equals the sum over active slots). Cheap enough
     * to call between chaos episodes, too slow for every step.
     */
    bool auditInvariants() const;

    const RequestStats &stats(size_t id) const;
    /**
     * Aggregate statistics, computed now from the engine's counters,
     * its per-request stats, the prefix index and the pool. wall_ms
     * ends at the latest step(), so two reads with no step between
     * them are identical.
     */
    EngineStats engineStats() const;
    size_t queuedRequests() const { return scheduler_->queuedRequests(); }
    size_t activeRequests() const { return active_.size(); }

    /** The shared page pool (live-page accounting). */
    const KvPagePool &pool() const { return *pool_; }
    /** Live KV bytes right now (cached spans included). */
    size_t kvBytesLive() const { return pool_->usedBytes(); }
    /** Pages currently reserved by admitted requests (unshared only). */
    size_t reservedPages() const { return scheduler_->reservedPages(); }
    /** Tokens currently retained by the prefix cache (0 = disabled). */
    size_t prefixCachedTokens() const;
    /**
     * Drop every retained prefix span (pool pages return to the free
     * list). Only valid while no request is active.
     */
    void clearPrefixCache();
    const EngineOptions &options() const { return opts_; }
    /** The model's quantize-once weight store this engine's linears
        read, built at construction (Transformer::weightStore); null
        when the weight quantizer quantizes per call. */
    const MxWeightStore *weightStore() const { return weights_; }
    /** The policy layer (tests/debugging). */
    const Scheduler &scheduler() const { return *scheduler_; }
    /** The prefix trie, nullptr when sharing is off (tests/debugging —
        the chaos harness reads its corruption counters). */
    const PrefixIndex *prefixIndex() const { return prefix_.get(); }

    /**
     * Attach a heartbeat cell the engine publishes progress into at
     * the top of every step() (epoch bump + queue depth). Owned by
     * the caller (the sharded router's per-shard slot), must outlive
     * the engine or be detached with nullptr first. Null = no-op.
     */
    void setHeartbeat(HeartbeatCell *cell) { heartbeat_ = cell; }

  private:
    struct Slot
    {
        size_t id = 0;
        ServeRequest req;
        KvCache cache;
        Rng rng;
        int last_token = -1;
        size_t prefill_pos = 0;   ///< prompt tokens prefilled so far
        bool prefilling = true;
        size_t reserved_pages = 0; ///< admission reservation (all layers)
        uint64_t admit_seq = 0;    ///< admission recency (victim policy)
        uint64_t aging_step = 0;   ///< original enqueue step (kept on requeue)
        /** Prompt + generated tokens (repetition-penalty context). */
        std::vector<int> context;

        // Prefix-sharing walk state: the trie node covering this
        // cache's page path_depth-1 (nullptr = root), and the deepest
        // node this slot pins against eviction.
        PrefixIndex::Node *path_node = nullptr;
        size_t path_depth = 0; ///< cache pages covered by trie nodes
        PrefixIndex::Node *pinned = nullptr;
        /** Per-layer page count excluded from reserved_pages at
            admission (the matched span); pages shared or published
            past this index credit the reservation as they happen. */
        size_t uncharged_pages = 0;

        Slot(size_t id_, ServeRequest req_, KvCache cache_, Rng rng_)
            : id(id_), req(std::move(req_)), cache(std::move(cache_)),
              rng(rng_)
        {
        }
    };

    /**
     * Request-facing clock: wall by default, virtual (step-driven)
     * when step_time_ms > 0, plus any injected skew. Perf counters
     * never use it.
     */
    double requestClockMs() const;
    /** Effective deadline for @p id: per-request value, else the
        engine default, 0 = none. */
    double effectiveDeadlineMs(size_t id) const;
    double effectiveTtftDeadlineMs(size_t id) const;
    /** Stamp request @p id's terminal outcome. */
    void markTerminal(size_t id, RequestOutcome outcome);
    /** Terminate an active slot from any phase: finalize its partial
        stats, release reservation and pins, drop its pages. */
    void terminateSlot(size_t slot_index, RequestOutcome outcome);
    /**
     * Step-start lifecycle pass: fire scheduled faults, then apply
     * cancellations, deadlines and queue-wait sheds to queued AND
     * active requests. Runs before admission so a freed slot or page
     * is immediately reusable this very step.
     */
    void lifecyclePass();
    /** The cancel, deadline or TTFT-deadline outcome the lifecycle
        pass applies to request @p id at request-clock @p now
        (kPending = none). */
    RequestOutcome lifecycleVerdict(size_t id, double now) const;
    /**
     * findChild plus adoption-time checksum verification (when
     * checksum_pages): a span failing verify() is quarantined,
     * counted, and treated as absent — the caller computes privately.
     */
    PrefixIndex::Node *verifiedChild(PrefixIndex::Node *parent,
                                     const int *page_tokens);
    /** The longest verifiedChild() path over @p prompt's adoptable
        pages — the admission-time walk never counts pages an
        adoption would later refuse. */
    PrefixIndex::Node *verifiedMatch(const std::vector<int> &prompt,
                                     size_t *matched_pages);
    /** Per-layer pages a request needs over its whole lifetime. */
    size_t pagesPerLayerFor(const ServeRequest &req) const;
    /** Whole prompt pages adoptable while leaving >= 1 token to run. */
    size_t maxAdoptPages(size_t prompt_len) const;
    void admitCandidate(PrefixIndex::Node *matched_node,
                        size_t matched_pages, size_t need_pages);
    /** Exclude one more per-layer page (now span-held) from the slot's
        reservation — shared pages must be charged exactly once. */
    void creditReservation(Slot &slot);
    /** Adopt cached pages at the slot's position; true if any mapped. */
    bool adoptShared(Slot &slot);
    /** Publish the slot's newly frozen whole-prompt pages. */
    void registerFrozenPages(Slot &slot);
    void movePin(Slot &slot, PrefixIndex::Node *node);
    Slot *findSlot(size_t id);
    /** Prompt tokens this slot would prefill in its next computed
        quantum (the chunk size, rounded up to a page boundary). */
    size_t nextChunkTokens(const Slot &slot) const;
    /**
     * Make the pool able to hand out @p needed pages: evict unpinned
     * prefix spans first, then preempt victims whose aged priority
     * key (Scheduler::agedKey) is strictly below @p requester_key.
     * Returns false when no such victim exists — the caller defers
     * its step (priority inversion is never an option). Unbounded
     * pools always succeed trivially.
     */
    bool ensureFreePages(size_t needed, double requester_key);
    /** Preempt one active slot: restart-requeue it and free its pages. */
    void preemptSlot(size_t slot_index);
    /** Preempt the scheduler's best victim: any slot when @p blind,
        else only aged keys strictly below @p below_key (never
        inversion, and aging credit shields exactly as it orders the
        queue). Prefers slots holding exclusively-owned pages — the
        only preemptions that free physical pages immediately.
        Returns false when no candidate exists. */
    bool preemptVictim(bool blind, double below_key);
    void prefillQuantum(Slot &slot);
    /** One batched decode step over every slot past prefill, then
        sampling and retirement; false when no slot was decoding. */
    bool decodeBatch();
    void retireFinished();
    void samplePoolPeak();
    int pickToken(Slot &slot, const float *logits) const;
    void finalize(RequestStats &rs) const;

    const Transformer &model_;
    QuantConfig qc_;
    EngineOptions opts_;
    const MxWeightStore *weights_ = nullptr; ///< owned by model_

    std::shared_ptr<KvPagePool> pool_;
    size_t budget_pages_ = 0;    ///< 0 = unbounded
    /** Admission window base: budget_pages_ minus the decode-scratch
        headroom compression needs (== budget_pages_ otherwise). */
    size_t admit_budget_pages_ = 0;
    std::unique_ptr<PrefixIndex> prefix_; ///< null when sharing is off
    std::unique_ptr<Scheduler> scheduler_; ///< the policy layer
    /** Decode worker pool (null when num_threads resolves to 1). */
    std::unique_ptr<WorkerPool> workers_;

    std::vector<std::unique_ptr<Slot>> active_;
    std::vector<RequestStats> stats_;
    std::vector<ServeRequest> pending_; ///< submitted requests by id
    /** Requests already counted in prefix_hit_requests — lives with
        the request, not the slot, so a preempt+restart that re-adopts
        the same spans cannot double-count. */
    std::vector<uint8_t> prefix_hit_counted_;

    /** The counted and peak fields of EngineStats, bumped where they
        happen; engineStats() derives the rest on read. */
    EngineStats counters_;
    std::vector<double> queue_wait_samples_; ///< one per admission
    uint64_t next_admit_seq_ = 0;
    /** Latches once admission first defers on the budget (gates the
        admitted_before_first_defer capacity counter). */
    bool first_defer_seen_ = false;
    double start_ms_ = -1.0;       ///< wall clock at first step (perf)
    double end_ms_ = -1.0;         ///< wall clock at the latest step's end
    double clock_start_ms_ = -1.0; ///< request clock at first step
    double occupancy_sum_ = 0.0;

    // Lifecycle state (PR6). submit_ms_ anchors deadlines; the cancel
    // flags are applied at the next step boundary so terminations
    // never interleave with uncommitted appends.
    std::vector<double> submit_ms_;       ///< request clock at submit
    std::vector<uint8_t> cancel_requested_;
    double virtual_now_ms_ = 0.0; ///< step-driven clock (step_time_ms)
    double clock_skew_ms_ = 0.0;  ///< injected skew (fault harness)
    uint64_t step_count_ = 0;
    /** Fleet-health progress cell (see setHeartbeat; null = no-op). */
    HeartbeatCell *heartbeat_ = nullptr;
};

} // namespace mxplus

#endif // MXPLUS_SERVE_SERVING_ENGINE_H
