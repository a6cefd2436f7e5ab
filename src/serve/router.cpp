#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "serve/kv_cache.h"

namespace mxplus {

namespace {

double
steadyNowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

} // namespace

// ------------------------------------------------------------ SubmitRing ---

namespace {

size_t roundUpPow2(size_t v)
{
    size_t p = 2;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

SubmitRing::SubmitRing(size_t capacity)
    : buf_(roundUpPow2(capacity == 0 ? 2 : capacity))
{
    mask_ = buf_.size() - 1;
    // Slot i is writable when seq == i: each slot's sequence trails its
    // next claimable head value by exactly one lap.
    for (size_t i = 0; i < buf_.size(); ++i)
        buf_[i].seq.store(i, std::memory_order_relaxed);
}

bool SubmitRing::tryPush(Cmd &&cmd)
{
    uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
        Slot &slot = buf_[pos & mask_];
        const uint64_t seq = slot.seq.load(std::memory_order_acquire);
        if (seq == pos) {
            // Free this lap: claim it. CAS failure means another
            // producer took pos — retry with the updated head.
            if (head_.compare_exchange_weak(pos, pos + 1,
                                            std::memory_order_relaxed)) {
                slot.cmd = std::move(cmd);
                // Publish: the consumer's acquire load of seq sees the
                // cmd write strictly before it.
                slot.seq.store(pos + 1, std::memory_order_release);
                return true;
            }
            // pos was refreshed by the failed CAS; loop.
        } else if (seq < pos) {
            // Still holds last lap's value: the consumer hasn't freed
            // it, i.e. the ring is full.
            return false;
        } else {
            // Another producer already published here; chase the head.
            pos = head_.load(std::memory_order_relaxed);
        }
    }
}

bool SubmitRing::tryPop(Cmd &out)
{
    Slot &slot = buf_[tail_ & mask_];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != tail_ + 1)
        return false; // not yet published
    out = std::move(slot.cmd);
    slot.cmd = Cmd{}; // drop any prompt allocation eagerly
    // Free the slot for the producers' next lap.
    slot.seq.store(tail_ + buf_.size(), std::memory_order_release);
    ++tail_;
    return true;
}

// ----------------------------------------------------------- routing policy --

std::string
RouterOptions::validate() const
{
    if (num_shards == 0)
        return "num_shards must be positive";
    if (spill_threshold < 1.0)
        return "spill_threshold must be >= 1.0 (got " +
            std::to_string(spill_threshold) + ")";
    const auto bad = [](double p) { return p < 0.0 || p > 1.0; };
    if (bad(fault.p_pool_exhausted) || bad(fault.p_force_preempt) ||
        bad(fault.p_clock_skew) || bad(fault.p_evict_storm) ||
        bad(fault.p_corrupt_page) || bad(fault.p_shard_wedge) ||
        bad(fault.p_shard_death) || bad(fault.p_shard_slow))
        return "fault probabilities must lie in [0, 1]";
    if (fault.p_clock_skew > 0.0 && fault.skew_ms_max < 1.0)
        return "skew_ms_max must be >= 1 ms when p_clock_skew > 0";
    if (fault.slow_sleep_ms < 0.0)
        return "slow_sleep_ms must be >= 0";
    if (heartbeat_timeout_ms < 0.0)
        return "heartbeat_timeout_ms must be >= 0";
    if (degraded_after_ms < 0.0)
        return "degraded_after_ms must be >= 0";
    if (heartbeat_timeout_ms > 0.0 && degraded_after_ms > 0.0 &&
        degraded_after_ms >= heartbeat_timeout_ms)
        return "degraded_after_ms must be < heartbeat_timeout_ms";
    if (degraded_load_penalty < 1.0)
        return "degraded_load_penalty must be >= 1.0";
    if (health_tick_ms < 0.0)
        return "health_tick_ms must be >= 0";
    if (health_tick_ms > 0.0 && heartbeat_timeout_ms <= 0.0)
        return "health_tick_ms requires heartbeat_timeout_ms > 0";
    if (submit_timeout_ms < 0.0)
        return "submit_timeout_ms must be >= 0";
    return std::string();
}

size_t
affinityShard(const std::vector<int> &prompt, size_t page_tokens,
              size_t num_shards)
{
    // Leading whole pages hashed into the key: prompts that share
    // their first four pages prefer the same shard.
    constexpr size_t kAffinityPages = 4;
    MXPLUS_CHECK_MSG(num_shards > 0, "affinityShard: no shards");
    const size_t whole =
        page_tokens > 0 ? prompt.size() / page_tokens : 0;
    const size_t pages = std::min(whole, kAffinityPages);
    uint64_t h = 0;
    if (pages == 0) {
        // Shorter than one page: the whole prompt IS the key.
        h = hashTokens(prompt.data(), prompt.size());
    } else {
        // Page-by-page chaining mirrors the trie's page-run structure:
        // two prompts sharing their leading pages hash identically up
        // to the first differing page.
        for (size_t p = 0; p < pages; ++p)
            h = hashTokens(prompt.data() + p * page_tokens, page_tokens,
                           h);
    }
    return static_cast<size_t>(h % num_shards);
}

// ---------------------------------------------------------- ShardedFrontEnd --

ShardedFrontEnd::ShardedFrontEnd(const Transformer &model, QuantConfig qc,
                                 EngineOptions opts, RouterOptions router)
    : opts_(opts), router_(router)
{
    std::string err = router_.validate();
    if (!err.empty())
        fatal("ShardedFrontEnd: invalid RouterOptions: " + err);
    err = opts_.validate(qc);
    if (!err.empty())
        fatal("ShardedFrontEnd: invalid EngineOptions: " + err);
    if (opts_.fault != nullptr)
        fatal("ShardedFrontEnd: EngineOptions::fault must be null under "
              "the router — injectors are per-shard; set "
              "RouterOptions::fault instead");

    page_tokens_ = opts_.page_tokens > 0
        ? opts_.page_tokens
        : KvCache::pageTokensFor(qc.attention.get());

    const FaultInjector::Config &fc = router_.fault;
    const bool chaos = fc.p_pool_exhausted > 0.0 ||
        fc.p_force_preempt > 0.0 || fc.p_clock_skew > 0.0 ||
        fc.p_evict_storm > 0.0 || fc.p_corrupt_page > 0.0 ||
        fc.p_shard_wedge > 0.0 || fc.p_shard_death > 0.0 ||
        fc.p_shard_slow > 0.0;

    if (router_.heartbeat_timeout_ms > 0.0) {
        HealthConfig hc;
        hc.heartbeat_timeout_ms = router_.heartbeat_timeout_ms;
        hc.degraded_after_ms = router_.degraded_after_ms;
        health_ =
            std::make_unique<HealthMonitor>(router_.num_shards, hc);
    }

    stats_clean_.assign(router_.num_shards, 1);
    shards_.reserve(router_.num_shards);
    for (size_t i = 0; i < router_.num_shards; ++i) {
        auto sh = std::make_unique<Shard>();
        EngineOptions shard_opts = opts_;
        if (chaos) {
            // Per-shard injector ownership: each shard draws from its
            // own (seed + shard_id) sequence, so its schedule is a
            // pure function of (seed, shard, step) no matter how the
            // N shard threads interleave.
            FaultInjector::Config shard_fc = fc;
            shard_fc.seed = fc.seed + i;
            sh->fault = std::make_unique<FaultInjector>(shard_fc);
            shard_opts.fault = sh->fault.get();
        }
        sh->engine =
            std::make_unique<ServingEngine>(model, qc, shard_opts);
        sh->engine->setHeartbeat(&sh->heartbeat);
        sh->ring = std::make_unique<SubmitRing>(router_.ring_capacity);
        shards_.push_back(std::move(sh));
    }
    for (size_t i = 0; i < shards_.size(); ++i)
        shards_[i]->thread = std::thread([this, i] { shardLoop(i); });
    if (router_.health_tick_ms > 0.0)
        supervisor_ = std::thread([this] { supervisorLoop(); });
}

ShardedFrontEnd::~ShardedFrontEnd()
{
    // Supervisor first: no failover may start while shards shut down.
    if (supervisor_.joinable()) {
        {
            std::lock_guard<std::mutex> lk(sup_mu_);
            sup_stop_ = true;
        }
        sup_cv_.notify_one();
        supervisor_.join();
    }
    for (auto &sh : shards_) {
        {
            std::lock_guard<std::mutex> lk(sh->wake_mu);
            sh->stop = true;
        }
        sh->wake_cv.notify_one();
    }
    for (auto &sh : shards_) {
        if (sh->thread.joinable())
            sh->thread.join();
    }
}

uint64_t
ShardedFrontEnd::submit(ServeRequest req)
{
    auto stream = std::make_shared<Stream>();
    stream->req = std::move(req); // master copy: re-routes restart from it
    uint64_t ticket = 0;
    {
        std::lock_guard<std::mutex> lk(registry_mu_);
        ticket = streams_.size();
        streams_.push_back(stream);
    }
    {
        std::lock_guard<std::mutex> lk(done_mu_);
        ++unfinished_;
        stats_ready_ = false;
    }
    std::lock_guard<std::mutex> route_lk(stream->route_mu);
    routeTicket(ticket, stream);
    return ticket;
}

bool
ShardedFrontEnd::cancel(uint64_t ticket)
{
    auto stream = streamFor(ticket);
    if (stream == nullptr)
        return false;
    {
        std::lock_guard<std::mutex> lk(stream->mu);
        if (stream->done)
            return false; // lost the cancel/complete race
    }
    // The flag is the truth: it is checked at map time on whichever
    // shard ends up owning the ticket (so it lands across re-routes
    // AND failovers) and re-checked for every live ticket each publish
    // pass. The ring command is only a wake-up, so pushing it is
    // bounded best-effort — a wedged target can't hang the caller, and
    // a dropped wake-up costs one step of latency, not the cancel.
    stream->cancel_requested.store(true, std::memory_order_release);
    const double budget = router_.submit_timeout_ms > 0.0
        ? router_.submit_timeout_ms
        : 50.0;
    const double deadline = steadyNowMs() + budget;
    for (;;) {
        const size_t shard =
            stream->shard_hint.load(std::memory_order_acquire);
        SubmitRing::Cmd cmd;
        cmd.kind = SubmitRing::Cmd::Kind::kCancel;
        cmd.ticket = ticket;
        if (tryPushToShard(shard, std::move(cmd), deadline) ==
            PushResult::kPushed)
            break;
        if (steadyNowMs() >= deadline)
            break; // flag-only: the next publish pass applies it
        {
            std::lock_guard<std::mutex> lk(stream->mu);
            if (stream->done)
                break;
        }
        std::this_thread::yield();
    }
    return true;
}

bool
ShardedFrontEnd::nextToken(uint64_t ticket, int *token)
{
    auto stream = streamFor(ticket);
    MXPLUS_CHECK_MSG(stream != nullptr, "unknown ticket");
    std::unique_lock<std::mutex> lk(stream->mu);
    stream->cv.wait(lk,
                    [&] { return stream->done || !stream->pending.empty(); });
    if (stream->pending.empty())
        return false;
    if (token != nullptr)
        *token = stream->pending.front();
    stream->pending.pop_front();
    return true;
}

RequestOutcome
ShardedFrontEnd::wait(uint64_t ticket)
{
    auto stream = streamFor(ticket);
    MXPLUS_CHECK_MSG(stream != nullptr, "unknown ticket");
    std::unique_lock<std::mutex> lk(stream->mu);
    stream->cv.wait(lk, [&] { return stream->done; });
    return stream->outcome;
}

const RequestStats &
ShardedFrontEnd::stats(uint64_t ticket)
{
    auto stream = streamFor(ticket);
    MXPLUS_CHECK_MSG(stream != nullptr, "unknown ticket");
    std::unique_lock<std::mutex> lk(stream->mu);
    stream->cv.wait(lk, [&] { return stream->done; });
    // Immutable once done: safe to hand out past the unlock.
    return stream->final_stats;
}

void
ShardedFrontEnd::drain()
{
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [&] { return unfinished_ == 0 && stats_ready_; });
}

const EngineStats &
ShardedFrontEnd::engineStats() const
{
    // Synchronized by drain(): fleet_stats_ was merged under done_mu_
    // before stats_ready_ flipped, and the caller's drain() observed
    // that flip under the same mutex.
    return fleet_stats_;
}

size_t
ShardedFrontEnd::liveShards() const
{
    size_t live = 0;
    for (const auto &sh : shards_)
        if (sh->routable.load(std::memory_order_acquire))
            ++live;
    return live;
}

bool
ShardedFrontEnd::shardRetired(size_t shard) const
{
    MXPLUS_CHECK_MSG(shard < shards_.size(), "unknown shard");
    return !shards_[shard]->routable.load(std::memory_order_acquire);
}

bool
ShardedFrontEnd::shardFailed(size_t shard) const
{
    MXPLUS_CHECK_MSG(shard < shards_.size(), "unknown shard");
    return shards_[shard]->failed.load(std::memory_order_acquire);
}

ShardHealth
ShardedFrontEnd::shardHealth(size_t shard) const
{
    MXPLUS_CHECK_MSG(shard < shards_.size(), "unknown shard");
    if (health_ == nullptr)
        return ShardHealth::kHealthy;
    return health_->state(shard);
}

FleetHealthStats
ShardedFrontEnd::healthStats() const
{
    FleetHealthStats s;
    if (health_ != nullptr) {
        s.degraded_transitions = health_->degradedTransitions();
        s.recoveries = health_->recoveries();
        s.dead_detected = health_->deadDetected();
    }
    s.failed_shards = failed_shards_.load(std::memory_order_acquire);
    s.failover_reroutes =
        failover_reroutes_.load(std::memory_order_acquire);
    s.refused_submits =
        refused_submits_.load(std::memory_order_acquire);
    return s;
}

std::string
ShardedFrontEnd::shardFaultSchedule(size_t shard) const
{
    MXPLUS_CHECK_MSG(shard < shards_.size(), "unknown shard");
    if (shards_[shard]->fault == nullptr)
        return std::string();
    return shards_[shard]->fault->scheduleString();
}

const ServingEngine &
ShardedFrontEnd::shardEngine(size_t shard) const
{
    MXPLUS_CHECK_MSG(shard < shards_.size(), "unknown shard");
    MXPLUS_CHECK_MSG(
        !shards_[shard]->failed.load(std::memory_order_acquire),
        "shardEngine: crash-failed shard's engine is abandoned");
    return *shards_[shard]->engine;
}

EngineStats
ShardedFrontEnd::shardStats(size_t shard) const
{
    return shardEngine(shard).engineStats();
}

bool
ShardedFrontEnd::auditInvariants() const
{
    bool ok = true;
    for (const auto &sh : shards_) {
        if (sh->failed.load(std::memory_order_acquire))
            continue; // abandoned mid-flight: not auditable
        ok = sh->engine->auditInvariants() && ok;
    }
    return ok;
}

// -------------------------------------------------------- producer plumbing --

std::shared_ptr<ShardedFrontEnd::Stream>
ShardedFrontEnd::streamFor(uint64_t ticket) const
{
    std::lock_guard<std::mutex> lk(registry_mu_);
    if (ticket >= streams_.size())
        return nullptr;
    return streams_[ticket];
}

size_t
ShardedFrontEnd::pickShard(const std::vector<int> &prompt)
{
    std::vector<size_t> live;
    live.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i)
        if (shards_[i]->routable.load(std::memory_order_acquire))
            live.push_back(i);
    MXPLUS_CHECK_MSG(!live.empty(), "no live shard to route to");
    if (live.size() == 1)
        return live[0];

    if (router_.policy == RoutePolicy::kRoundRobin) {
        const uint64_t n =
            rr_counter_.fetch_add(1, std::memory_order_relaxed);
        return live[static_cast<size_t>(n % live.size())];
    }

    // Load weight: raw outstanding, except a DEGRADED shard is charged
    // (outstanding + 1) x penalty — the +1 keeps an idle-but-stalling
    // shard penalized too. With monitoring off (or everything healthy)
    // this is exactly the pre-health metric.
    const auto loadOf = [&](size_t s) {
        const double out = static_cast<double>(
            shards_[s]->outstanding.load(std::memory_order_relaxed));
        if (health_ != nullptr &&
            health_->state(s) == ShardHealth::kDegraded)
            return (out + 1.0) * router_.degraded_load_penalty;
        return out;
    };

    // Affinity key maps onto the FULL shard space so it is stable
    // across retirements; a retired preferred shard degrades to a
    // deterministic re-map over the live set.
    const size_t global = affinityShard(prompt, page_tokens_, shards_.size());
    size_t preferred =
        shards_[global]->routable.load(std::memory_order_acquire)
        ? global
        : live[global % live.size()];

    size_t least = live[0];
    double least_load = loadOf(least);
    for (size_t s : live) {
        const double l = loadOf(s);
        if (l < least_load) {
            least = s;
            least_load = l;
        }
    }
    if (loadOf(preferred) > router_.spill_threshold * (least_load + 1.0))
        return least; // affinity yields to load (or to degradation)
    return preferred;
}

ShardedFrontEnd::PushResult
ShardedFrontEnd::tryPushToShard(size_t shard, SubmitRing::Cmd &&cmd,
                                double deadline_ms)
{
    Shard &sh = *shards_[shard];
    // Accept-guard: a retiring/failing shard flips routable and then
    // waits for inflight_routes to hit zero, so once ownership changes
    // hands no producer can still be inside this window.
    sh.inflight_routes.fetch_add(1, std::memory_order_acq_rel);
    if (!sh.routable.load(std::memory_order_acquire)) {
        sh.inflight_routes.fetch_sub(1, std::memory_order_release);
        return PushResult::kSealed;
    }
    // Backpressure: a healthy shard drains its ring at every step
    // boundary. The spin re-checks the accept-guard — THE fix for the
    // unbounded producer hang: sealing a dead shard (failover) frees
    // every producer parked on its full ring even with no deadline —
    // and honors the caller's deadline when one is set.
    while (!sh.ring->tryPush(std::move(cmd))) {
        if (!sh.routable.load(std::memory_order_acquire)) {
            sh.inflight_routes.fetch_sub(1, std::memory_order_release);
            return PushResult::kSealed;
        }
        if (deadline_ms > 0.0 && steadyNowMs() >= deadline_ms) {
            sh.inflight_routes.fetch_sub(1, std::memory_order_release);
            return PushResult::kTimedOut;
        }
        std::this_thread::yield();
    }
    {
        std::lock_guard<std::mutex> lk(sh.wake_mu);
        ++sh.enqueued;
    }
    sh.wake_cv.notify_one();
    sh.inflight_routes.fetch_sub(1, std::memory_order_release);
    return PushResult::kPushed;
}

void
ShardedFrontEnd::routeTicket(uint64_t ticket,
                             const std::shared_ptr<Stream> &s)
{
    const double timeout = router_.submit_timeout_ms;
    const double overall =
        timeout > 0.0 ? steadyNowMs() + timeout : 0.0;
    // Stable under route_mu (held by the caller): epoch bumps happen
    // only under route_mu + the stream mutex.
    const uint64_t epoch = s->route_epoch.load(std::memory_order_relaxed);
    for (;;) {
        const size_t shard = pickShard(s->req.prompt);
        s->shard_hint.store(static_cast<uint32_t>(shard),
                            std::memory_order_release);
        SubmitRing::Cmd cmd;
        cmd.kind = SubmitRing::Cmd::Kind::kSubmit;
        cmd.ticket = ticket;
        cmd.req = s->req; // copy: the stream keeps the restart master
        cmd.route_epoch = epoch;
        shards_[shard]->outstanding.fetch_add(1,
                                              std::memory_order_relaxed);
        // Per-attempt slice: give one full shard a quarter of the
        // budget at most, then re-pick — a single stuffed shard must
        // not eat the whole deadline when a survivor has room.
        double slice = 0.0;
        if (timeout > 0.0)
            slice = std::min(overall,
                             steadyNowMs() +
                                 std::max(1.0, timeout / 4.0));
        const PushResult r =
            tryPushToShard(shard, std::move(cmd), slice);
        if (r == PushResult::kPushed) {
            s->routed_to = shard;
            return;
        }
        // Sealed between pick and push, or full past the slice: undo
        // the load charge and re-pick (the pick sees updated guards
        // and health verdicts).
        shards_[shard]->outstanding.fetch_sub(1,
                                              std::memory_order_relaxed);
        if (timeout > 0.0 && steadyNowMs() >= overall) {
            refuseTicket(s);
            return;
        }
    }
}

void
ShardedFrontEnd::refuseTicket(const std::shared_ptr<Stream> &s)
{
    refused_submits_.fetch_add(1, std::memory_order_relaxed);
    s->routed_to = SIZE_MAX;
    {
        std::lock_guard<std::mutex> lk(s->mu);
        if (s->done)
            return; // raced a terminal publish: nothing to refuse
        s->final_stats.prompt_tokens = s->req.prompt.size();
        s->final_stats.finished = true;
        s->final_stats.outcome = RequestOutcome::kShed;
        s->outcome = RequestOutcome::kShed;
        s->done = true;
    }
    s->cv.notify_all();
    {
        std::lock_guard<std::mutex> lk(done_mu_);
        MXPLUS_CHECK(unfinished_ > 0);
        --unfinished_;
        // The ticket never reached an engine; if it was the last one
        // out and every shard is already clean, merge from here.
        maybeMergeLocked();
    }
    done_cv_.notify_all();
}

// ----------------------------------------------------------- shard threads --

size_t
ShardedFrontEnd::drainShardRing(Shard &sh)
{
    size_t taken = 0;
    SubmitRing::Cmd cmd;
    while (sh.ring->tryPop(cmd)) {
        ++taken;
        auto stream = streamFor(cmd.ticket);
        MXPLUS_CHECK(stream != nullptr);
        switch (cmd.kind) {
        case SubmitRing::Cmd::Kind::kSubmit: {
            // Failover fence: a command whose routing epoch went stale
            // in the ring was re-owned by failShard() while we (the
            // falsely-declared-dead shard) weren't draining — the
            // survivor runs it; mapping it here would double-run it.
            if (cmd.route_epoch !=
                stream->route_epoch.load(std::memory_order_acquire)) {
                sh.outstanding.fetch_sub(1, std::memory_order_relaxed);
                break;
            }
            LiveTicket lt;
            lt.ticket = cmd.ticket;
            lt.stream = stream;
            lt.engine_id = sh.engine->submit(std::move(cmd.req));
            lt.route_epoch = cmd.route_epoch;
            sh.live.push_back(std::move(lt));
            // A cancel may already be flagged (issued concurrently, or
            // while the ticket was mid-re-route); apply it now that an
            // id exists on THIS engine.
            if (stream->cancel_requested.load(std::memory_order_acquire))
                sh.engine->cancel(sh.live.back().engine_id);
            break;
        }
        case SubmitRing::Cmd::Kind::kCancel: {
            // Engine ids are per-shard, and a stale hint can deliver a
            // cancel wake-up to a shard that no longer (or never) owns
            // the ticket — act only on tickets in OUR live list.
            for (auto &entry : sh.live) {
                if (entry.ticket == cmd.ticket) {
                    sh.engine->cancel(entry.engine_id);
                    break;
                }
            }
            break;
        }
        }
    }
    return taken;
}

void
ShardedFrontEnd::publishShard(Shard &sh)
{
    for (size_t i = 0; i < sh.live.size();) {
        LiveTicket &entry = sh.live[i];
        Stream &s = *entry.stream;
        const RequestStats &rs = sh.engine->stats(entry.engine_id);

        // Re-apply pending cancels every pass: a cancel whose ring
        // wake-up was dropped (bounded-wait, or a stale hint) still
        // lands here, at the next step boundary.
        if (!rs.finished &&
            s.cancel_requested.load(std::memory_order_acquire))
            sh.engine->cancel(entry.engine_id);

        const size_t gen = rs.generated.size();
        bool stale = false;
        {
            std::lock_guard<std::mutex> lk(s.mu);
            // Failover fence: the epoch only moves under route_mu +
            // s.mu, so reading it under s.mu is exact. Stale = a
            // survivor owns this ticket now; drop our copy without
            // publishing ANYTHING (tokens or terminals) — the shared
            // `published` mark under s.mu is what keeps the survivor's
            // emission gap-free against everything we published before
            // the hand-off.
            stale = entry.route_epoch !=
                s.route_epoch.load(std::memory_order_relaxed);
            if (!stale) {
                // Emit only past the delivery high-water mark:
                // preemption, re-route or failover transiently shrinks
                // rs.generated and then regenerates it bit-identically,
                // so delivery stays a duplicate-free prefix of the
                // unconstrained stream.
                for (size_t t = s.published; t < gen; ++t)
                    s.pending.push_back(rs.generated[t]);
                if (gen > s.published)
                    s.published = gen;
                if (rs.finished) {
                    s.final_stats = rs; // copy: never a view
                    s.outcome = rs.outcome;
                    s.done = true;
                }
            }
        }
        if (stale) {
            // Stop burning compute on the re-owned request; drop the
            // entry. unfinished_ is NOT touched — the ticket is still
            // in flight, just not ours.
            sh.engine->cancel(entry.engine_id);
            sh.live[i] = std::move(sh.live.back());
            sh.live.pop_back();
            sh.outstanding.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        s.cv.notify_all();

        if (rs.finished) {
            sh.live[i] = std::move(sh.live.back());
            sh.live.pop_back();
            sh.outstanding.fetch_sub(1, std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> lk(done_mu_);
                MXPLUS_CHECK(unfinished_ > 0);
                --unfinished_;
            }
            done_cv_.notify_all();
        } else {
            ++i;
        }
    }
}

void
ShardedFrontEnd::maybeMergeLocked()
{
    if (unfinished_ != 0 || stats_ready_)
        return;
    for (uint8_t c : stats_clean_)
        if (c == 0)
            return;
    // Fleet idle and every shard clean: safe to read all (non-failed)
    // engines from this thread — their owners are asleep, and a new
    // submit must take done_mu_ first. A crash-failed shard's
    // aggregates died with it (docs/ROBUSTNESS.md); its tickets'
    // outcomes survive in their final stats.
    std::vector<EngineStats> copies;
    for (const auto &sh : shards_)
        if (!sh->failed.load(std::memory_order_acquire))
            copies.push_back(sh->engine->engineStats());
    std::vector<const EngineStats *> shard_stats;
    for (const EngineStats &es : copies)
        shard_stats.push_back(&es);
    std::vector<const RequestStats *> finals;
    {
        std::lock_guard<std::mutex> lk(registry_mu_);
        for (const auto &sp : streams_) {
            // Immutable once done: safe to read past the unlock.
            std::lock_guard<std::mutex> slk(sp->mu);
            if (sp->done)
                finals.push_back(&sp->final_stats);
        }
    }
    fleet_stats_ = mergeFleetStats(shard_stats, finals);
    stats_ready_ = true;
}

void
ShardedFrontEnd::markCleanAndMaybeReady(size_t shard)
{
    {
        std::lock_guard<std::mutex> lk(done_mu_);
        stats_clean_[shard] = 1;
        maybeMergeLocked();
    }
    done_cv_.notify_all();
}

bool
ShardedFrontEnd::consumeCrashBudget(size_t shard)
{
    const size_t cap = router_.max_crash_faults == SIZE_MAX
        ? shards_.size() - 1
        : router_.max_crash_faults;
    std::lock_guard<std::mutex> lk(crash_mu_);
    if (crash_faults_used_.load(std::memory_order_relaxed) >= cap)
        return false;
    if (!reserveDoomLocked(shard))
        return false;
    crash_faults_used_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
ShardedFrontEnd::reserveDoomLocked(size_t shard)
{
    Shard &sh = *shards_[shard];
    if (sh.doomed)
        return true; // a shard is only ever lost once
    const size_t doom_cap = router_.max_crash_faults == SIZE_MAX
        ? shards_.size() - 1
        : router_.max_crash_faults;
    if (doomed_shards_ >= doom_cap)
        return false;
    sh.doomed = true;
    ++doomed_shards_;
    return true;
}

void
ShardedFrontEnd::wedgeLoop(size_t shard)
{
    Shard &sh = *shards_[shard];
    // The wedged-consumer simulation: no draining, no stepping, no
    // publishing — but the heartbeat keeps BEATING with a frozen
    // epoch, which is exactly why the detector keys on epoch progress
    // and not beat liveness. Exits only when failover abandons the
    // shard, retirement joins it or the front end shuts down.
    for (;;) {
        if (sh.abandoned.load(std::memory_order_acquire)) {
            markCleanAndMaybeReady(shard);
            return;
        }
        if (sh.retire.load(std::memory_order_acquire))
            return; // retireShard accounts for the shard once joined
        {
            std::lock_guard<std::mutex> lk(sh.wake_mu);
            if (sh.stop)
                return;
        }
        sh.heartbeat.beat(
            sh.outstanding.load(std::memory_order_relaxed));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

bool
ShardedFrontEnd::shardFaultPoll(size_t shard)
{
    Shard &sh = *shards_[shard];
    FaultInjector *f = sh.fault.get();
    if (f == nullptr)
        return false;
    // Draw order is fixed (death, wedge, slow) so each site's sequence
    // stays deterministic; a budget-refused crash is suppressed AFTER
    // the draw, never instead of it — enabling the cap must not
    // reshuffle anyone's schedule.
    if (f->shouldFire(FaultSite::kShardDeath, shard)) {
        if (consumeCrashBudget(shard))
            return true; // abrupt exit: no drain, no publish, no beats
    }
    if (f->shouldFire(FaultSite::kShardWedge, shard)) {
        if (consumeCrashBudget(shard)) {
            wedgeLoop(shard);
            return true;
        }
    }
    if (f->shouldFire(FaultSite::kShardSlow, shard)) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            f->config().slow_sleep_ms));
    }
    return false;
}

void
ShardedFrontEnd::shardLoop(size_t shard)
{
    Shard &sh = *shards_[shard];
    // Commands this thread consumed; the ring's tail only moves here,
    // so the idle-wait predicate (enqueued > processed) is exact.
    uint64_t processed = 0;
    for (;;) {
        if (sh.abandoned.load(std::memory_order_acquire)) {
            // Failover took our tickets while we were still running (a
            // false-positive detection): stop touching shared state
            // and bow out. Our live entries were re-owned — publishing
            // them would be double delivery (the epoch fence also
            // blocks it); our engine aggregates go down with us.
            markCleanAndMaybeReady(shard);
            return;
        }
        if (sh.retire.load(std::memory_order_acquire)) {
            // retireShard()'s shard-thread half. Producers are sealed
            // out; mark the aggregates busy before touching the engine
            // so no fleet merge reads it mid-change.
            {
                std::lock_guard<std::mutex> lk(done_mu_);
                stats_clean_[shard] = 0;
            }
            // Everything already finished publishes normally. The rest
            // is cancelled WITHOUT publishing: that cancel is a re-route
            // artifact, not the ticket's outcome — retireShard re-owns
            // those tickets once this thread has exited, and delivery
            // resumes past `published`.
            publishShard(sh);
            for (const LiveTicket &entry : sh.live)
                sh.engine->cancel(entry.engine_id);
            sh.live.clear();
            // Settle the cancels: the merged fleet view still includes
            // a retired shard's work.
            sh.engine->runToCompletion();
            return;
        }

        const size_t drained = drainShardRing(sh);
        processed += drained;
        if (drained > 0) {
            sh.heartbeat.progress(
                sh.outstanding.load(std::memory_order_relaxed));
            std::lock_guard<std::mutex> lk(done_mu_);
            stats_clean_[shard] = 0;
        }

        if (sh.engine->queuedRequests() > 0 ||
            sh.engine->activeRequests() > 0) {
            if (shardFaultPoll(shard))
                return; // wedge/death fired: the thread is gone
            sh.engine->step(); // bumps the heartbeat epoch itself
            publishShard(sh);
            continue;
        }

        publishShard(sh); // flush terminals from shed/reject-at-submit
        markCleanAndMaybeReady(shard); // idle: the engine holds still

        sh.heartbeat.beat(0); // idle liveness (the detector exempts it)
        std::unique_lock<std::mutex> lk(sh.wake_mu);
        if (sh.stop && sh.enqueued == processed)
            break;
        sh.wake_cv.wait(lk, [&] {
            return sh.stop ||
                sh.retire.load(std::memory_order_acquire) ||
                sh.abandoned.load(std::memory_order_acquire) ||
                sh.enqueued > processed;
        });
        if (sh.stop && sh.enqueued == processed)
            break;
    }
}

// -------------------------------------------------------------- retirement --

bool
ShardedFrontEnd::retireShard(size_t shard)
{
    if (shard >= shards_.size())
        return false;
    std::lock_guard<std::mutex> retire_lk(retire_mu_);
    Shard &sh = *shards_[shard];
    if (!sh.routable.load(std::memory_order_acquire))
        return false; // already retired or failed
    if (liveShards() <= 1)
        return false; // someone must keep serving

    // Seal: no new routes, then wait out producers already inside the
    // accept-guard window, so every ticket pushed here is recorded with
    // routed_to == shard before the re-own pass below reads it.
    sh.routable.store(false, std::memory_order_release);
    while (sh.inflight_routes.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();

    // Let the thread publish what finished and settle its engine,
    // then re-own the rest — ring leftovers, queued admissions and
    // half-generated slots alike — exactly as failover does. A retired
    // shard keeps its aggregates in the merge and does not count as a
    // failover.
    {
        std::lock_guard<std::mutex> lk(sh.wake_mu);
        sh.retire.store(true, std::memory_order_release);
    }
    sh.wake_cv.notify_one();
    sh.thread.join();
    bool crashed = false;
    {
        std::lock_guard<std::mutex> crash_lk(crash_mu_);
        crashed = sh.doomed;
    }
    if (crashed) {
        // A wedge or death site fired here (charged to the doom cap
        // then): the thread left without settling its engine, so this
        // retirement is a failover, accounted exactly as failShard's.
        if (health_ != nullptr)
            health_->markDead(shard);
        sh.failed.store(true, std::memory_order_release);
        failed_shards_.fetch_add(1, std::memory_order_relaxed);
        failover_reroutes_.fetch_add(reownTickets(shard),
                                     std::memory_order_relaxed);
    } else {
        reownTickets(shard);
    }
    markCleanAndMaybeReady(shard);
    return true;
}

// ---------------------------------------------------------------- failover --

bool
ShardedFrontEnd::failShard(size_t shard)
{
    if (shard >= shards_.size())
        return false;
    std::lock_guard<std::mutex> retire_lk(retire_mu_);
    Shard &sh = *shards_[shard];
    if (!sh.routable.load(std::memory_order_acquire))
        return false; // already retired or failed
    if (liveShards() <= 1)
        return false; // someone must keep serving
    {
        // Failing a shard the crash sites never touched (a
        // false-positive detection) is capped JOINTLY with them: a
        // wedged shard still counts as live until it is failed, so the
        // last-live check alone cannot keep one intact shard — refuse
        // instead of dooming the whole fleet. The supervisor retries
        // at its next tick; a genuinely stale shard stays detected.
        std::lock_guard<std::mutex> crash_lk(crash_mu_);
        if (!reserveDoomLocked(shard))
            return false;
    }

    // Seal and wait out in-flight routes: after this, no producer can
    // add to the dead ring, and every ticket the shard owns is visible
    // in the registry with routed_to == shard (set before the push
    // completed, under the ticket's route_mu).
    sh.routable.store(false, std::memory_order_release);
    while (sh.inflight_routes.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();

    if (health_ != nullptr)
        health_->markDead(shard); // sticky, even for manual calls
    sh.failed.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lk(sh.wake_mu);
        sh.abandoned.store(true, std::memory_order_release);
    }
    sh.wake_cv.notify_one();
    failed_shards_.fetch_add(1, std::memory_order_relaxed);

    // Re-own every in-flight ticket from ROUTER-SIDE records alone —
    // the shard thread may be wedged, slow, or gone, and nothing here
    // needs it to ever run again.
    failover_reroutes_.fetch_add(reownTickets(shard),
                                 std::memory_order_relaxed);

    // Fleet bookkeeping: the dead engine's aggregates are abandoned
    // (mergeFleetStats skips failed shards), so the shard counts as
    // clean from here on.
    markCleanAndMaybeReady(shard);

    // Opportunistic join: an actually-dead or wedged thread exits
    // promptly (death already returned; wedge polls `abandoned`), and
    // joining gives post-mortem readers (shardFaultSchedule) a
    // happens-before edge. Correctness above never depended on it.
    if (sh.thread.joinable())
        sh.thread.join();
    return true;
}

size_t
ShardedFrontEnd::reownTickets(size_t shard)
{
    std::vector<std::shared_ptr<Stream>> snapshot;
    {
        std::lock_guard<std::mutex> lk(registry_mu_);
        snapshot = streams_;
    }
    size_t rerouted = 0;
    for (size_t t = 0; t < snapshot.size(); ++t) {
        const std::shared_ptr<Stream> &s = snapshot[t];
        std::lock_guard<std::mutex> route_lk(s->route_mu);
        if (s->routed_to != shard)
            continue;
        {
            // The epoch bump (under route_mu + stream mu) fences out
            // any late publish from a thread that is in fact still
            // alive, and makes its ring leftovers stale.
            std::lock_guard<std::mutex> slk(s->mu);
            if (s->done)
                continue; // terminal already published: nothing to save
            s->route_epoch.fetch_add(1, std::memory_order_relaxed);
        }
        // The sealed shard's outstanding is deliberately left alone —
        // it is out of the routing set; live shards are charged by
        // routeTicket as usual. Delivery resumes past `published`; a
        // flagged cancel terminates at the new shard's map instead.
        routeTicket(t, s);
        ++rerouted;
    }
    return rerouted;
}

size_t
ShardedFrontEnd::superviseOnce(double now_ms)
{
    if (health_ == nullptr)
        return 0;
    size_t newly_dead = 0;
    std::vector<size_t> to_fail;
    for (size_t i = 0; i < shards_.size(); ++i) {
        Shard &sh = *shards_[i];
        if (!sh.routable.load(std::memory_order_acquire))
            continue; // sealed shards are past detection
        const ShardHealth prev = health_->state(i);
        const uint64_t epoch =
            sh.heartbeat.epoch.load(std::memory_order_acquire);
        const bool busy =
            sh.outstanding.load(std::memory_order_acquire) > 0;
        const ShardHealth now = health_->observe(i, epoch, busy, now_ms);
        if (now == ShardHealth::kDead) {
            if (prev != ShardHealth::kDead)
                ++newly_dead;
            if (router_.auto_failover)
                to_fail.push_back(i);
        }
    }
    for (size_t i : to_fail) {
        // May refuse (e.g. last live shard) — the next tick retries.
        failShard(i);
    }
    return newly_dead;
}

void
ShardedFrontEnd::supervisorLoop()
{
    std::unique_lock<std::mutex> lk(sup_mu_);
    for (;;) {
        sup_cv_.wait_for(
            lk,
            std::chrono::duration<double, std::milli>(
                router_.health_tick_ms),
            [&] { return sup_stop_; });
        if (sup_stop_)
            return;
        lk.unlock();
        superviseOnce(steadyNowMs());
        lk.lock();
    }
}

// ------------------------------------------------------------- fleet stats --

EngineStats
mergeFleetStats(const std::vector<const EngineStats *> &shards,
                const std::vector<const RequestStats *> &finals)
{
    EngineStats f;
    double occupancy_weighted = 0.0;
    double payload_bytes = 0.0;

    // Mechanism counters sum over the given shards — a re-routed
    // ticket's work on both shards is real work, like a preempted
    // request's recompute; shards are concurrent, so peaks sum too.
    for (const EngineStats *es : shards) {
        f.decode_batches += es->decode_batches;
        f.decode_ms += es->decode_ms;
        f.decode_tokens += es->decode_tokens;
        f.decode_tokens_per_s += es->decode_tokens_per_s;
        f.throughput_tokens_per_s += es->throughput_tokens_per_s;
        f.prefill_chunks += es->prefill_chunks;
        f.admission_deferred_steps += es->admission_deferred_steps;
        f.prefix_hit_requests += es->prefix_hit_requests;
        f.prefix_hit_tokens += es->prefix_hit_tokens;
        f.prefix_inserted_tokens += es->prefix_inserted_tokens;
        f.prefix_evicted_pages += es->prefix_evicted_pages;
        f.sjf_reorders += es->sjf_reorders;
        f.preemptions += es->preemptions;
        f.preempted_recompute_tokens += es->preempted_recompute_tokens;
        f.checksum_failures += es->checksum_failures;
        f.kv_bytes_peak += es->kv_bytes_peak;
        f.kv_bytes_reserved_peak += es->kv_bytes_reserved_peak;
        f.kv_pages_peak += es->kv_pages_peak;
        f.admitted_before_first_defer += es->admitted_before_first_defer;
        f.codec_decode_calls += es->codec_decode_calls;
        f.wall_ms = std::max(f.wall_ms, es->wall_ms);
        occupancy_weighted += es->mean_batch_occupancy *
            static_cast<double>(es->decode_batches);
        f.compressed_stream_bytes += es->compressed_stream_bytes;
        payload_bytes += es->compressed_ratio *
            static_cast<double>(es->compressed_stream_bytes);
    }
    f.mean_batch_occupancy = f.decode_batches > 0
        ? occupancy_weighted / static_cast<double>(f.decode_batches)
        : 0.0;
    // Fleet-level compression figure: a ratio of sums, each shard's
    // ratio weighted by the stream bytes it divides, so a shard that
    // compressed nothing (and reports 1.0) weighs nothing.
    f.compressed_ratio = f.compressed_stream_bytes > 0
        ? payload_bytes / static_cast<double>(f.compressed_stream_bytes)
        : 1.0;

    // Outcome counters and goodput are per TICKET (client truth): a
    // re-routed or failed-over request counts once, by its final
    // outcome — never as the dying shard's engine-level cancel.
    tallyRequests(finals, f);
    // Merged p50/p99 from the per-ticket queue-wait digests, with the
    // same nearest-rank percentile the engines use.
    std::vector<double> queue_waits;
    for (const RequestStats *rs : finals)
        queue_waits.push_back(rs->queue_wait_ms);
    f.queue_wait_ms_p50 = latencyPercentile(queue_waits, 0.50);
    f.queue_wait_ms_p99 = latencyPercentile(queue_waits, 0.99);
    return f;
}

} // namespace mxplus
