/**
 * @file
 * ShardedFrontEnd: the thread-safe, streaming front door of the serving
 * stack — N private ServingEngines behind a prefix-affinity router, with
 * concurrent submit()/cancel() from any number of client threads,
 * per-ticket token streams, heartbeat failure detection, crash failover
 * without cooperative drain, and bounded-wait submission. A one-shard
 * fleet (RouterOptions::num_shards = 1) is the single-engine deployment.
 *
 * The contract: a ticket's delivered token stream is a pure function of
 * the ServeRequest and the quantization format. How many shards
 * existed, where the request was routed, whether it was re-routed,
 * preempted, raced by other producers or failed over — all of that is
 * throughput, none of it is numerics. Delivery is exactly-once. Every
 * public method is safe to call from any thread; tickets are
 * front-end-scoped (they are NOT engine request ids).
 *
 * Ownership and threading (the full diagram is in docs/ARCHITECTURE.md):
 *
 *  - Each SHARD is a completely private serving stack — one
 *    ServingEngine with its own KvPagePool, PrefixIndex, Scheduler and
 *    (optionally) FaultInjector — owned and touched by exactly one
 *    shard thread. Nothing below this file became shared or
 *    thread-safe; the router composes N copies of the single-threaded
 *    stack.
 *  - Producers reach a shard through its own lock-free MPSC SubmitRing
 *    (below). Routing happens on the PRODUCER's thread: pick a shard,
 *    pass its accept-guard, push.
 *  - Results flow back through per-ticket Stream cells; the delivery
 *    high-water mark (`published`) lives under the stream's own mutex,
 *    so WHOEVER regenerates the stream — the original shard, a
 *    re-route target, or a failover survivor — resumes emission
 *    exactly where delivery stopped, duplicate-free.
 *
 * Routing policy (kPrefixAffinity): the prompt's leading whole
 * KV-cache pages — the exact token runs the prefix trie keys on — are
 * hashed page-by-page (common/hash.h) and the digest picks a preferred
 * shard. Requests sharing a system prompt therefore land on the shard
 * where that prompt's pages are already resident. Load spillover: when
 * the preferred shard's load weight exceeds spill_threshold x
 * (least-loaded + 1), the request goes to the least-loaded live shard
 * instead — and a DEGRADED shard's weight is multiplied by
 * degraded_load_penalty, so the circuit breaker routes around slowness
 * without sealing anything (see docs/ROBUSTNESS.md, "Fleet health").
 *
 * Fleet health (HealthMonitor, src/serve/health.h): every shard engine
 * publishes a monotonic progress epoch + queue depth into a per-shard
 * HeartbeatCell at each step; a supervisor tick (its own thread when
 * health_tick_ms > 0, or superviseOnce() driven by a test on the
 * virtual clock) classifies each shard healthy / degraded / dead by
 * EPOCH STALENESS while busy — a wedged thread that keeps beating a
 * frozen epoch is detected, an idle shard asleep on its wake channel
 * is exempt. Dead is sticky and, under auto_failover, triggers
 * failShard().
 *
 * Failover is restart, and restart is bit-exact: failShard() seals the
 * shard, ABANDONS its ring and engine (no cooperative drain — the
 * thread may be wedged or gone), and re-submits every ticket the
 * router's own records say the shard owned (`routed_to`) to survivors
 * from the stream's master ServeRequest. The re-run regenerates the
 * same stream for the same reasons preemption-restart does (prefill is
 * chunk-invariant, batched decode rows equal solo runs, per-request
 * Rng reseeds deterministically), and `published` turns it into a
 * duplicate-free continuation. A per-ticket route_epoch — bumped only
 * under route_mu + the stream mutex — fences the old shard out: a
 * falsely-declared-dead shard that is still running finds the epoch
 * moved and drops its copy without publishing, so exactly-once
 * delivery never depends on the dead thread actually being dead.
 * retireShard() is the graceful path: the shard's thread publishes what
 * finished, cancels the rest unpublished and settles those cancels on
 * its engine (whose aggregates stay in the fleet merge) before it
 * exits. failShard() is
 * the crash path: the failed shard's ENGINE aggregates are abandoned
 * with it, though per-ticket outcomes stay complete. Both then re-own
 * the shard's unfinished tickets through one registry pass
 * (reownTickets: epoch bump + routeTicket).
 *
 * Bounded-wait submission: tryPushToShard re-checks the accept-guard
 * inside its backpressure spin — sealing a shard unsticks every
 * producer parked on its full ring — and with submit_timeout_ms > 0
 * the spin also carries a deadline. A submit that cannot land anywhere
 * by the deadline is REFUSED with a terminal kShed outcome: never
 * hung, never lost.
 *
 * Fleet statistics: engineStats() returns mergeFleetStats() over every
 * non-failed shard's engine stats (retired ones included) and every
 * ticket's final stats — outcome counters and goodput are per TICKET
 * (a re-routed request counts once, by its final outcome), and
 * queue-wait p50/p99 merge the per-ticket digests with the same
 * nearest-rank percentile the engine uses. healthStats() reports the
 * supervision side: detections, failovers, re-routes, refusals.
 */

#ifndef MXPLUS_SERVE_ROUTER_H
#define MXPLUS_SERVE_ROUTER_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/fault.h"
#include "serve/health.h"
#include "serve/serving_engine.h"

namespace mxplus {

/**
 * Lock-free bounded MPSC command ring (Vyukov-style: per-slot sequence
 * numbers arbitrate producers against the consumer without any lock).
 * Producers may call tryPush concurrently; pop is single-consumer
 * (the shard thread). Exposed in the header for the unit tests.
 */
class SubmitRing
{
  public:
    struct Cmd
    {
        enum class Kind
        {
            kSubmit = 0,
            kCancel, ///< wake-up; the stream's atomic flag is the truth
        };
        Kind kind = Kind::kSubmit;
        uint64_t ticket = 0;
        ServeRequest req; ///< kSubmit only
        /** Routing generation (sharded router failover): a consumer
            drops a kSubmit whose epoch no longer matches the stream's
            — the ticket was re-owned by failover while this command
            sat in a dead shard's ring. */
        uint64_t route_epoch = 0;
    };

    explicit SubmitRing(size_t capacity);

    /** Lock-free producer push; false when the ring is full. */
    bool tryPush(Cmd &&cmd);

    /** Single-consumer pop; false when the ring is empty. */
    bool tryPop(Cmd &out);

    size_t capacity() const { return buf_.size(); }

  private:
    struct Slot
    {
        std::atomic<uint64_t> seq;
        Cmd cmd;
    };

    std::vector<Slot> buf_;
    uint64_t mask_ = 0;
    alignas(64) std::atomic<uint64_t> head_{0}; ///< producers (CAS)
    alignas(64) uint64_t tail_ = 0; ///< consumer-only cursor
};

/** How the router picks a shard for a new request. */
enum class RoutePolicy
{
    /** Hash the prompt's page-aligned prefix runs (the trie key) to a
        preferred shard, spilling to the least-loaded shard when the
        preferred one is overloaded (see spill_threshold). */
    kPrefixAffinity = 0,
    /** Ignore the prompt; rotate across live shards (the bench
        baseline the affinity win is measured against). */
    kRoundRobin,
};

/** Router-level knobs (each shard's engine keeps EngineOptions). */
struct RouterOptions
{
    /** Engine shards, one thread + private KV pool + trie each. */
    size_t num_shards = 4;
    /** Per-shard submit-ring capacity (rounded up to a power of two);
        a full ring back-pressures the routing thread, never drops. */
    size_t ring_capacity = 1024;
    /** Affinity gives way to load when the preferred shard holds more
        than spill_threshold x (least-loaded shard + 1) outstanding
        requests (>= 1; higher sticks to affinity longer). */
    double spill_threshold = 2.0;
    /** Shard selection policy (see RoutePolicy). */
    RoutePolicy policy = RoutePolicy::kPrefixAffinity;
    /** Per-shard chaos config: when any probability is positive, every
        shard owns a PRIVATE FaultInjector seeded fault.seed + shard_id,
        so each shard's fault schedule is a pure function of
        (seed, shard, step) — N shards never share one draw sequence.
        EngineOptions::fault must stay null under the router. */
    FaultInjector::Config fault = {};

    /** Staleness (ms, supervisor clock) after which a BUSY shard whose
        progress epoch stopped moving is declared dead (sticky; under
        auto_failover this triggers failShard). 0 disables health
        monitoring entirely. */
    double heartbeat_timeout_ms = 0.0;
    /** Staleness (ms) after which a busy-but-stalling shard is
        classified degraded — routed around via degraded_load_penalty,
        restored the moment its epoch moves. 0 = heartbeat_timeout_ms/4.
        Must stay < heartbeat_timeout_ms. */
    double degraded_after_ms = 0.0;
    /** Load-weight multiplier applied to a degraded shard in pickShard
        (>= 1; higher spills away from degraded shards sooner). */
    double degraded_load_penalty = 4.0;
    /** Supervisor thread tick period (wall ms). 0 = no supervisor
        thread; tests drive superviseOnce() on their own clock instead.
        Requires heartbeat_timeout_ms > 0 when positive. */
    double health_tick_ms = 0.0;
    /** Fail over dead shards automatically from the supervisor tick
        (failShard: seal, abandon, re-route). When false the tick only
        classifies; failShard() stays available manually. */
    bool auto_failover = true;
    /** Bounded-wait submission deadline (wall ms): how long routing
        may spend parked on full rings before the ticket is REFUSED
        with a terminal kShed outcome. 0 = wait forever (still
        seal-aware: a failed-over shard unsticks its producers). */
    double submit_timeout_ms = 2000.0;
    /** Fleet-wide cap on wedge+death fault-site FIRINGS (chaos only):
        draws still happen — schedules stay pure functions of (seed,
        shard, step) — but a firing past the cap is suppressed, so a
        chaos run can never crash every shard. SIZE_MAX = auto
        (num_shards - 1). */
    size_t max_crash_faults = SIZE_MAX;

    /** Empty string when usable, else a one-line description of the
        first bad knob (e.g. "num_shards must be positive"). The
        ShardedFrontEnd constructor calls this (plus
        EngineOptions::validate) and refuses with the message instead
        of CHECK-aborting deep in a shard. */
    std::string validate() const;
};

/**
 * Preferred shard for @p prompt under the prefix-affinity policy:
 * fold the prompt's leading whole page runs of @p page_tokens tokens
 * (at most four) through the chained token hash (prompts shorter than
 * one page hash in full) and reduce modulo @p num_shards. Pure
 * function of its arguments — exposed so the bench's deterministic
 * single-thread simulation routes exactly like the live router.
 */
size_t affinityShard(const std::vector<int> &prompt, size_t page_tokens,
                     size_t num_shards);

/**
 * The fleet merge rule, a pure function for the same reason as
 * affinityShard: mechanism counters and peaks sum over @p shards (the
 * non-failed shards' engine stats), wall time is the max, batch
 * occupancy is weighted by decode batches and the compression ratio is
 * the mean over shards; outcome counters, total_generated, goodput and
 * queue-wait p50/p99 are recomputed from @p finals, one terminal
 * RequestStats per ticket (tallyRequests), so a re-routed request
 * counts once.
 */
EngineStats mergeFleetStats(const std::vector<const EngineStats *> &shards,
                            const std::vector<const RequestStats *> &finals);

/** Sharded multi-engine front end (see file header). */
class ShardedFrontEnd
{
  public:
    ShardedFrontEnd(const Transformer &model, QuantConfig qc,
                    EngineOptions opts, RouterOptions router = {});

    /** Drains every outstanding ticket on every shard, then stops and
        joins the supervisor and shard threads. */
    ~ShardedFrontEnd();

    ShardedFrontEnd(const ShardedFrontEnd &) = delete;
    ShardedFrontEnd &operator=(const ShardedFrontEnd &) = delete;

    /** Enqueue a request; returns its ticket immediately. Tokens
        stream through nextToken(), the terminal outcome through
        wait(). */
    uint64_t submit(ServeRequest req);
    /** Request cancellation; false when the ticket is unknown or its
        stream already closed (the caller gets the completed answer). */
    bool cancel(uint64_t ticket);
    /** Blocking pop of the next streamed token; false once the stream
        is closed AND every token has been delivered. */
    bool nextToken(uint64_t ticket, int *token);
    /** Block until the ticket is terminal; returns its outcome. */
    RequestOutcome wait(uint64_t ticket);
    /** Final per-request stats (a copy taken at termination — never a
        view into live engine memory). Blocks until terminal. */
    const RequestStats &stats(uint64_t ticket);
    /** Block until every submitted ticket is terminal and the fleet
        stats are merged. */
    void drain();
    /** Merged fleet view (see file header). Valid after drain(). */
    const EngineStats &engineStats() const;

    /**
     * Drain-and-re-route (the GRACEFUL path): seal shard @p shard
     * against new routes; its thread publishes everything already
     * finished, cancels the rest on its engine WITHOUT publishing those
     * terminals, settles the cancels and exits; then every
     * unfinished ticket it owned is re-owned by a live shard (restart —
     * bit-exact, see file header) through the same registry pass
     * failShard() uses. Blocks until the shard is fully
     * retired. A shard a crash fault site fired on (wedged or dead)
     * cannot settle, so its retirement is accounted as failShard()'s
     * is: failed, aggregates out of the merge, re-routes counted as
     * failover. Returns false (and does nothing) when @p shard is
     * unknown, already retired/failed, or the last live shard. A
     * ticket whose cancel flag is set at re-route time still
     * re-routes, but the new shard's flag-at-map check cancels it at
     * its first step boundary — before any recompute — so it
     * terminates kCancelled instead of restarting.
     */
    bool retireShard(size_t shard);

    /**
     * Crash failover (the UNGRACEFUL path): seal shard @p shard,
     * abandon its ring and engine WITHOUT any cooperation from its
     * thread (which may be wedged, slow, or gone), and re-route every
     * ticket the router's records say it owned to survivors — streams
     * stay bit-exact and exactly-once (see file header). The shard's
     * engine-level aggregates are lost with it (per-ticket outcomes
     * are not); shardEngine()/auditInvariants() exclude it afterwards.
     * Returns false when @p shard is unknown, already sealed, or the
     * last live shard. Called automatically by the supervisor under
     * auto_failover; safe to call manually any time.
     */
    bool failShard(size_t shard);

    /**
     * One supervisor tick at @p now_ms (any monotonic clock — wall in
     * production, virtual in tests): observe every routable shard's
     * heartbeat, update its health verdict, and — under auto_failover
     * — failShard() any shard declared dead. Returns the number of
     * shards NEWLY declared dead this tick. No-op (0) when health
     * monitoring is off. The internal supervisor thread just calls
     * this on the steady clock every health_tick_ms.
     */
    size_t superviseOnce(double now_ms);

    size_t numShards() const { return shards_.size(); }
    /** Shards still accepting routes. */
    size_t liveShards() const;
    bool shardRetired(size_t shard) const;
    /** True when @p shard was crash-failed (failShard), as opposed to
        gracefully retired: its engine/aggregates are abandoned. */
    bool shardFailed(size_t shard) const;
    /** Health verdict for @p shard (kHealthy when monitoring is off). */
    ShardHealth shardHealth(size_t shard) const;
    /** Supervision counters: detections, failovers, re-routes,
        bounded-wait refusals. Safe to call any time. */
    FleetHealthStats healthStats() const;
    /** Shard @p shard's fault schedule ("" without chaos) — the repro
        recipe chaos tests write into failure artifacts. Call only
        post-drain (or post-retire/post-fail for that shard). */
    std::string shardFaultSchedule(size_t shard) const;
    /** Tokens per KV page — the affinity key's page geometry. */
    size_t pageTokens() const { return page_tokens_; }

    /** One shard's engine, for audits/tests. Only valid post-drain
        (or post-retire for a retired shard) and for non-FAILED shards
        — a crash-failed shard's engine is abandoned mid-flight. */
    const ServingEngine &shardEngine(size_t shard) const;
    /** Shorthand for shardEngine(shard).engineStats(). */
    EngineStats shardStats(size_t shard) const;
    /** Cross-layer audit of every (idle) shard engine, crash-failed
        shards excluded. Post-drain. */
    bool auditInvariants() const;

  private:
    /** Per-ticket hand-off cell between the shard threads and one
        consumer. The stream mutex `mu` guards delivery (`pending`,
        `done`, `outcome`, `final_stats`, `published`); `route_mu`
        serializes ROUTING (`routed_to`, and every route_epoch bump —
        the epoch is atomic so publish paths can read it under `mu`
        alone, but it only ever changes under BOTH mutexes). */
    struct Stream
    {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<int> pending;
        bool done = false;
        RequestOutcome outcome = RequestOutcome::kPending;
        RequestStats final_stats;
        /** Delivery high-water mark: tokens pushed into `pending` so
            far. Under `mu` (not shard-thread-local) so failover can
            hand emission to a survivor — and so a falsely-dead shard
            racing that survivor still emits each token exactly once. */
        size_t published = 0;
        std::atomic<bool> cancel_requested{false};
        /** Shard the ticket was last routed to (cancel wake-up hint;
            `routed_to` is the ownership truth). */
        std::atomic<uint32_t> shard_hint{0};
        /** Original request, kept for re-route/failover restarts. */
        ServeRequest req;

        /** Routing generation: a shard-side copy (ring command or
            live-list entry) whose epoch no longer matches was re-owned
            (retire or failover) and must be dropped unpublished. */
        std::atomic<uint64_t> route_epoch{0};
        /** Serializes routing decisions for this ticket (submit,
            re-route, re-own scan). Ordered after retire_mu_, before
            the stream mutex. */
        std::mutex route_mu;
        /** Owning shard per the ROUTER's records (under route_mu) —
            the re-own scan key. SIZE_MAX = never routed / refused. */
        size_t routed_to = SIZE_MAX;
    };

    /** One live-list entry: a ticket mapped on this shard's engine.
        engine_id is meaningful only on this engine; route_epoch is
        the stream's epoch at mapping time (stale = drop). */
    struct LiveTicket
    {
        uint64_t ticket = 0;
        std::shared_ptr<Stream> stream;
        size_t engine_id = SIZE_MAX;
        uint64_t route_epoch = 0;
    };

    /** One private serving stack + its thread and hand-off state. */
    struct Shard
    {
        std::unique_ptr<FaultInjector> fault; ///< seeded base + shard id
        std::unique_ptr<ServingEngine> engine;
        std::unique_ptr<SubmitRing> ring;

        /** Accept-guard: producers may push only while routable; a
            retiring/failing shard flips it and waits out in-flight
            routes before ownership changes hands. */
        std::atomic<bool> routable{true};
        std::atomic<size_t> inflight_routes{0};
        /** Tickets routed here and not yet terminal/re-routed — the
            load metric affinity spills against. */
        std::atomic<size_t> outstanding{0};
        std::atomic<bool> retire{false};
        /** failShard() fired: ring + engine abandoned; the shard
            thread (if still running) exits at its next loop top
            without touching shared state again. */
        std::atomic<bool> abandoned{false};
        /** Crash-failed (vs gracefully retired): engine aggregates
            are excluded from the fleet merge and audits. */
        std::atomic<bool> failed{false};
        /** Crash-fired or crash-failed at least once (guarded by
            crash_mu_); the doom cap keeps one shard that is neither. */
        bool doomed = false;

        /** Progress epoch + queue depth, written by the shard thread
            (engine step / ring drain / wedge beats), read by the
            supervisor tick. */
        HeartbeatCell heartbeat;

        std::mutex wake_mu;
        std::condition_variable wake_cv;
        uint64_t enqueued = 0;
        bool stop = false;

        /** Shard-thread-local: live tickets mapped on this engine. */
        std::vector<LiveTicket> live;

        std::thread thread;
    };

    /** tryPushToShard verdicts. */
    enum class PushResult
    {
        kPushed = 0,
        kSealed,   ///< shard stopped accepting (re-pick)
        kTimedOut, ///< ring stayed full past the deadline
    };

    std::shared_ptr<Stream> streamFor(uint64_t ticket) const;
    /** Preferred-then-spill (or round-robin) shard pick over live
        shards, with degraded shards load-penalized; pure policy, no
        guard. */
    size_t pickShard(const std::vector<int> &prompt);
    /** Accept-guarded bounded push. The backpressure spin re-checks
        the guard (sealing unsticks parked producers — no producer can
        hang on a dead shard) and, when @p deadline_ms > 0, gives up
        at that steady-clock instant. On kSealed/kTimedOut @p cmd is
        intact (tryPush only consumes on success). */
    PushResult tryPushToShard(size_t shard, SubmitRing::Cmd &&cmd,
                              double deadline_ms);
    /** Route (and re-route) one ticket: pick, guard, push, update
        hint/routed_to/outstanding. Caller holds s->route_mu. Refuses
        terminally (kShed) when nothing accepts within
        submit_timeout_ms. */
    void routeTicket(uint64_t ticket, const std::shared_ptr<Stream> &s);
    /** Close @p s terminally as kShed (bounded-wait refusal) and
        settle the drain ledger. Caller holds s->route_mu. */
    void refuseTicket(const std::shared_ptr<Stream> &s);
    /** The re-own pass retireShard() and failShard() share: every
        unfinished ticket the router's records say @p shard owns gets
        its route_epoch bumped (fencing out any late copy on the old
        shard) and is routed to a live shard. Caller holds retire_mu_
        with @p shard sealed. Returns the tickets re-routed. */
    size_t reownTickets(size_t shard);

    void shardLoop(size_t shard);
    size_t drainShardRing(Shard &sh);
    /** Publish tokens + terminals for @p sh's live tickets; drops
        (and engine-cancels) entries whose route_epoch went stale —
        failover re-owned them. */
    void publishShard(Shard &sh);
    /** Poll the shard-level fault sites (wedge/death/slow) before a
        step. Returns true when the shard thread must exit (wedge runs
        wedgeLoop first; death returns immediately). */
    bool shardFaultPoll(size_t shard);
    /** The wedged-thread simulation: beat a frozen epoch, drain
        nothing, step nothing, until abandoned (failover), retire or
        stop (shutdown). */
    void wedgeLoop(size_t shard);
    /** Claim one wedge/death firing against max_crash_faults and the
        doom cap; false = suppress the firing (the draw already
        happened, so enabling the cap never reshuffles a schedule). */
    bool consumeCrashBudget(size_t shard);
    /** Caller holds crash_mu_. Mark @p shard doomed (crash-fired or
        crash-failed), idempotently; false = the doom cap is reached
        and dooming this shard would leave no intact shard. */
    bool reserveDoomLocked(size_t shard);
    /** Under done_mu_: mark shard @p shard clean (its engine holds
        still until it drains another command) and merge if the fleet
        is idle and clean. */
    void markCleanAndMaybeReady(size_t shard);
    /** Caller holds done_mu_: when the fleet is idle and every shard
        clean, gather the non-failed shards' engine stats and the done
        tickets' final stats, merge them into fleet_stats_
        (mergeFleetStats) and flip stats_ready_. */
    void maybeMergeLocked();
    /** Supervisor thread body (health_tick_ms > 0 only). */
    void supervisorLoop();

    const EngineOptions opts_;
    const RouterOptions router_;
    size_t page_tokens_ = 0; ///< affinity-key page geometry
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<uint64_t> rr_counter_{0}; ///< round-robin cursor

    // Fleet health. The monitor exists iff heartbeat_timeout_ms > 0;
    // the supervisor thread additionally needs health_tick_ms > 0.
    std::unique_ptr<HealthMonitor> health_;
    std::atomic<size_t> failed_shards_{0};
    std::atomic<size_t> failover_reroutes_{0};
    std::atomic<size_t> refused_submits_{0};
    std::atomic<size_t> crash_faults_used_{0}; ///< wedge+death firings
    /** Guards crash_faults_used_, doomed_shards_ and Shard::doomed.
        The doom cap — max_crash_faults when set, num_shards − 1 by
        default — bounds shards lost to crash sites and failShard()
        COMBINED. Without the joint cap, false-positive detections on
        a slow box spend shards the crash budget never counted, and
        the fleet can end with its last live shard wedged: beating
        forever, every consumer blocked on its streams. */
    std::mutex crash_mu_;
    size_t doomed_shards_ = 0; ///< shards crash-fired or crash-failed
    std::mutex sup_mu_;
    std::condition_variable sup_cv_;
    bool sup_stop_ = false;
    std::thread supervisor_;

    // Ticket registry: tickets index this vector. Append-only under
    // registry_mu_; the shared_ptr keeps a stream alive for late
    // stats() readers.
    mutable std::mutex registry_mu_;
    std::vector<std::shared_ptr<Stream>> streams_;

    /** Serializes retireShard/failShard callers (two concurrent
        retirements could otherwise both pass the last-live check).
        Ordered before every per-stream route_mu. */
    std::mutex retire_mu_;

    // Fleet drain/stats channel. stats_clean[i] — guarded by done_mu_ —
    // says shard i's engine is idle and safe to read from another
    // thread; fleet_stats_ is (re)merged when unfinished_ hits 0 with
    // every shard clean.
    mutable std::mutex done_mu_;
    std::condition_variable done_cv_;
    size_t unfinished_ = 0;
    bool stats_ready_ = true;
    std::vector<uint8_t> stats_clean_;
    EngineStats fleet_stats_;
};

} // namespace mxplus

#endif // MXPLUS_SERVE_ROUTER_H
