#include "serve/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "codec/page_codec.h"
#include "common/check.h"
#include "mx/mx_quantizer.h"

namespace mxplus {

namespace {

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * The MX quantizer whose blocks a frozen page can hold as they are (the
 * dense codec, codec/page_codec.h), or null: K and V must share one MX
 * configuration whose block size divides the head dim (K blocks run
 * along it) and the page tokens (V blocks run along the sequence).
 */
const MxQuantizer *
densePageQuantizer(const QuantConfig &qc, const ModelConfig &cfg, size_t pt)
{
    const TensorQuantizer &kq = qc.qk_override ? *qc.qk_override
                                               : *qc.attention;
    const MxQuantizer *k = kq.mxQuantizer();
    const MxQuantizer *v = qc.attention->mxQuantizer();
    if (k == nullptr || v == nullptr || k->format() != v->format() ||
        k->mode() != v->mode() || k->blockSize() != v->blockSize())
        return nullptr;
    const size_t bs = static_cast<size_t>(v->blockSize());
    return cfg.headDim() % bs == 0 && pt % bs == 0 ? v : nullptr;
}

} // namespace

const char *
outcomeName(RequestOutcome outcome)
{
    switch (outcome) {
    case RequestOutcome::kPending:
        return "pending";
    case RequestOutcome::kCompleted:
        return "completed";
    case RequestOutcome::kRejected:
        return "rejected";
    case RequestOutcome::kShed:
        return "shed";
    case RequestOutcome::kTimedOut:
        return "timed_out";
    case RequestOutcome::kCancelled:
        return "cancelled";
    }
    return "unknown";
}

double
latencyPercentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t idx = std::min(
        samples.size() - 1,
        static_cast<size_t>(p * static_cast<double>(samples.size())));
    return samples[idx];
}

void
tallyRequests(const std::vector<const RequestStats *> &requests,
              EngineStats &es)
{
    es.total_generated = 0;
    es.rejected_requests = es.shed_requests = 0;
    es.timed_out_requests = es.cancelled_requests = 0;
    size_t completed = 0;
    for (const RequestStats *rs : requests) {
        es.total_generated += rs->generated.size();
        switch (rs->outcome) {
        case RequestOutcome::kCompleted:
            ++completed;
            break;
        case RequestOutcome::kRejected:
            ++es.rejected_requests;
            break;
        case RequestOutcome::kShed:
            ++es.shed_requests;
            break;
        case RequestOutcome::kTimedOut:
            ++es.timed_out_requests;
            break;
        case RequestOutcome::kCancelled:
            ++es.cancelled_requests;
            break;
        case RequestOutcome::kPending:
            break;
        }
    }
    es.goodput_ok_fraction = requests.empty()
        ? 0.0
        : static_cast<double>(completed) /
            static_cast<double>(requests.size());
}

std::string
EngineOptions::validate(const QuantConfig &qc) const
{
    // Mirrors every constructor CHECK plus the deep KvCache page-
    // geometry CHECK, so a front end can refuse a bad configuration
    // with a readable message before any engine state exists.
    if (max_batch == 0)
        return "max_batch must be positive";
    if (qc.attention == nullptr)
        return "serving requires an attention quantizer "
               "(QuantConfig::attention is null)";
    if (over_admission < 1.0)
        return "over_admission must be >= 1.0 (got " +
            std::to_string(over_admission) + ")";
    if (aging_rate < 0.0)
        return "aging_rate must be >= 0 (got " +
            std::to_string(aging_rate) + ")";
    if (step_time_ms < 0.0)
        return "step_time_ms must be >= 0 (got " +
            std::to_string(step_time_ms) + ")";
    const size_t period = qc.attention->blockPeriod();
    if (page_tokens > 0 && period > 0 && page_tokens % period != 0)
        return "page_tokens (" + std::to_string(page_tokens) +
            ") is not a multiple of the attention block period (" +
            std::to_string(period) +
            "); paging would not be bit-invisible";
    if (prefix_cache_tokens > 0 && period == 0)
        return "prefix_cache_tokens > 0 requires a value quantizer "
               "with known block structure (blockPeriod() > 0)";
    if (compress_frozen_pages &&
        resolvePageCodec(page_codec) == nullptr)
        return "unknown page codec \"" + page_codec +
            "\" (expected auto, simd or reference)";
    return std::string();
}

ServingEngine::ServingEngine(const Transformer &model, QuantConfig qc,
                             EngineOptions opts)
    : model_(model), qc_(std::move(qc)), opts_(opts)
{
    MXPLUS_CHECK_MSG(opts_.max_batch > 0, "max_batch must be positive");
    MXPLUS_CHECK_MSG(qc_.attention != nullptr,
                     "ServingEngine needs an attention quantizer");
    // Quantize the weights now (or find the store another engine over
    // this model built), so that no request pays for it.
    if (qc_.weight != nullptr)
        weights_ = model_.weightStore(*qc_.weight);
    const size_t pt = opts_.page_tokens > 0
        ? opts_.page_tokens
        : KvCache::pageTokensFor(qc_.attention.get());
    const ModelConfig &cfg = model_.config();
    if (opts_.kv_budget_tokens > 0) {
        budget_pages_ =
            ((opts_.kv_budget_tokens + pt - 1) / pt) * cfg.n_layers;
    }
    const bool sharing = opts_.prefix_cache_tokens > 0;
    if (sharing) {
        // Sharing maps completed pages as immutable snapshots, which is
        // only sound when completed V blocks freeze (see kv_cache.h).
        MXPLUS_CHECK_MSG(qc_.attention->blockPeriod() > 0,
                         "prefix sharing requires a value quantizer "
                         "with known block structure");
    }
    // The shared pool is ALWAYS bounded: with no explicit budget it is
    // capped at max_batch worst-case requests plus the prefix cache's
    // retained spans, which admission + span eviction can never exceed.
    // A bounded pool preallocates its slab-pointer table, which is what
    // makes lock-free pageData() safe under the OpenMP-parallel decode
    // appends (see kv_page_pool.h). Over-admission does NOT widen the
    // physical pool — only the reservation window — so the bet it
    // makes is settled by preemption, never by extra memory.
    const size_t prefix_pages =
        sharing ? (opts_.prefix_cache_tokens + pt - 1) / pt : 0;
    const size_t hard_cap =
        (opts_.max_batch * ((cfg.max_seq + pt - 1) / pt) + prefix_pages) *
        cfg.n_layers;
    pool_ = std::make_shared<KvPagePool>(
        pt, KvCache::floatsPerPage(cfg, pt),
        budget_pages_ > 0 ? budget_pages_ : hard_cap);
    admit_budget_pages_ = budget_pages_;
    if (opts_.compress_frozen_pages) {
        const PageCodec *named = resolvePageCodec(opts_.page_codec);
        MXPLUS_CHECK_MSG(named != nullptr,
                         "unknown page codec (see EngineOptions::"
                         "validate)");
        const MxQuantizer *dense = densePageQuantizer(qc_, cfg, pt);
        pool_->enableCompression(
            dense != nullptr
                ? makeDenseMxCodec(*dense,
                                   std::strcmp(named->name(), "simd") == 0)
                : makePageCodec(named->name()),
            KvCache::payloadRegions(cfg, pt));
        if (budget_pages_ > 0) {
            // Decode buffers are real memory outside the pool: one
            // region (pt * d_model floats) per concurrent reader —
            // every slot's cache plus the prefix verifier. Charge it
            // against the ADMISSION window (not the physical pool) so
            // the engine's true footprint never exceeds what
            // kv_budget_tokens promised, clamped so at least one
            // request's single layer can always admit.
            const size_t scratch_bytes = (opts_.max_batch + 1) *
                pt * cfg.d_model * sizeof(float);
            const size_t shave =
                (scratch_bytes + pool_->pageBytes() - 1) /
                pool_->pageBytes();
            admit_budget_pages_ =
                budget_pages_ > shave + cfg.n_layers
                ? budget_pages_ - shave
                : cfg.n_layers;
        }
    }
    if (sharing) {
        prefix_ = std::make_unique<PrefixIndex>(pool_, cfg.n_layers,
                                                opts_.prefix_cache_tokens);
    }
    SchedulerOptions sched;
    sched.budget_pages = admit_budget_pages_;
    sched.over_admission = opts_.over_admission;
    sched.aging_rate = opts_.aging_rate;
    sched.sjf = opts_.sjf_admission;
    scheduler_ = std::make_unique<Scheduler>(sched);

    // Decode worker pool: rows of the batched decode step partition
    // across these threads (bit-identical to the serial path — each
    // row's arithmetic is untouched, only WHERE it runs changes). At
    // the default of 1 no pool exists and decodeStepBatch takes its
    // pre-existing path, so single-core CI numbers cannot move.
    size_t threads = opts_.num_threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (threads > 1)
        workers_ = std::make_unique<WorkerPool>(threads);
}

ServingEngine::ServingEngine(const Transformer &model, QuantConfig qc,
                             size_t max_batch)
    : ServingEngine(model, std::move(qc), [max_batch] {
          EngineOptions opts;
          opts.max_batch = max_batch;
          return opts;
      }())
{
}

size_t
ServingEngine::pagesPerLayerFor(const ServeRequest &req) const
{
    const size_t tokens =
        std::min(req.prompt.size() + req.max_new_tokens,
                 model_.config().max_seq);
    const size_t pt = pool_->pageTokens();
    return (tokens + pt - 1) / pt;
}

size_t
ServingEngine::maxAdoptPages(size_t prompt_len) const
{
    // Whole pages only, and at least one prompt token must stay
    // private: its prefill computes the logits that seed generation.
    return (prompt_len - 1) / pool_->pageTokens();
}

double
ServingEngine::requestClockMs() const
{
    const double base =
        opts_.step_time_ms > 0.0 ? virtual_now_ms_ : nowMs();
    return base + clock_skew_ms_;
}

double
ServingEngine::effectiveDeadlineMs(size_t id) const
{
    const double r = pending_[id].deadline_ms;
    return r > 0.0 ? r : opts_.deadline_ms;
}

double
ServingEngine::effectiveTtftDeadlineMs(size_t id) const
{
    const double r = pending_[id].ttft_deadline_ms;
    return r > 0.0 ? r : opts_.ttft_deadline_ms;
}

void
ServingEngine::markTerminal(size_t id, RequestOutcome outcome)
{
    RequestStats &rs = stats_[id];
    MXPLUS_CHECK_MSG(!rs.finished,
                     "ServingEngine: double terminal state");
    rs.finished = true;
    rs.outcome = outcome;
}

size_t
ServingEngine::submit(ServeRequest req)
{
    MXPLUS_CHECK_MSG(!req.prompt.empty(), "empty prompt");
    MXPLUS_CHECK_MSG(req.prompt.size() <= model_.config().max_seq,
                     "prompt exceeds the model's max_seq");
    MXPLUS_CHECK_MSG(req.max_new_tokens > 0, "nothing to generate");
    const size_t id = stats_.size();
    RequestStats rs;
    rs.id = id;
    rs.prompt_tokens = req.prompt.size();
    stats_.push_back(std::move(rs));
    pending_.push_back(std::move(req));
    prefix_hit_counted_.push_back(0);
    submit_ms_.push_back(requestClockMs());
    cancel_requested_.push_back(0);
    const ServeRequest &stored = pending_.back();

    // Overload protection: a bounded queue sheds at SUBMIT time, not
    // at admission — a client learns immediately that the engine will
    // not take the work, instead of queueing it to die of old age.
    if (opts_.queue_cap > 0 &&
        scheduler_->queuedRequests() >= opts_.queue_cap) {
        bool displaced = false;
        if (opts_.shed_policy == ShedPolicy::kLowestPriority) {
            // Displace the worst queued request only when the incoming
            // one strictly out-keys it (same aged key the admission
            // order uses) — ties keep the incumbent, so a stream of
            // equal-priority arrivals degenerates to tail drop rather
            // than churning the whole queue.
            const Scheduler::QueuedInfo worst =
                scheduler_->worstQueued();
            const double key = scheduler_->agedKey(
                stored.priority, scheduler_->currentStep());
            if (key > worst.key) {
                MXPLUS_CHECK(scheduler_->removeQueued(worst.id));
                markTerminal(worst.id, RequestOutcome::kShed);
                displaced = true;
            }
        }
        if (!displaced) {
            markTerminal(id, RequestOutcome::kShed);
            return id;
        }
    }

    scheduler_->enqueue(id, stored.priority,
                        stored.prompt.size() + stored.max_new_tokens,
                        requestClockMs());
    return id;
}

bool
ServingEngine::cancel(size_t id)
{
    if (id >= stats_.size() || stats_[id].finished)
        return false;
    // Applied at the next step boundary (lifecyclePass): terminating
    // between steps is the only moment a slot is guaranteed to hold no
    // uncommitted per-layer appends.
    cancel_requested_[id] = 1;
    return true;
}

int
ServingEngine::pickToken(Slot &slot, const float *logits) const
{
    // The request's own deterministic rng feeds the shared sampling
    // recipe, so results never depend on batch layout or scheduling.
    SamplingParams params;
    params.temperature = slot.req.temperature;
    params.top_k = slot.req.top_k;
    params.top_p = slot.req.top_p;
    params.repetition_penalty = slot.req.repetition_penalty;
    return sampleLogitsPolicy(logits, model_.config().vocab, params,
                              slot.context.data(), slot.context.size(),
                              slot.rng);
}

void
ServingEngine::admitCandidate(PrefixIndex::Node *matched_node,
                              size_t matched_pages, size_t need_pages)
{
    const double now = requestClockMs();
    const size_t id = scheduler_->peekCandidate();
    const double wait = scheduler_->candidateWaitMs(now);
    const uint64_t aging_step = scheduler_->candidateAgingStep();
    scheduler_->popCandidate();
    const ServeRequest &req = pending_[id];

    queue_wait_samples_.push_back(wait);
    stats_[id].queue_wait_ms += wait;

    auto slot = std::make_unique<Slot>(
        id, req,
        KvCache::forConfig(model_.config(), qc_,
                           req.prompt.size() + req.max_new_tokens, pool_),
        Rng(req.seed));
    slot->reserved_pages = need_pages;
    slot->context = req.prompt;
    slot->admit_seq = next_admit_seq_++;
    slot->aging_step = aging_step;
    // The caller's pin on the matched span transfers to the slot: the
    // path stays unevictable until retirement, so the tail-only
    // reservation below stays sufficient.
    slot->pinned = matched_node;
    slot->uncharged_pages = matched_pages;
    scheduler_->reserve(need_pages);
    active_.push_back(std::move(slot));
}

void
ServingEngine::creditReservation(Slot &slot)
{
    const size_t layers = model_.config().n_layers;
    MXPLUS_CHECK(slot.reserved_pages >= layers);
    slot.reserved_pages -= layers;
    scheduler_->release(layers);
    slot.uncharged_pages += 1;
}

void
ServingEngine::movePin(Slot &slot, PrefixIndex::Node *node)
{
    if (slot.pinned == node)
        return;
    prefix_->pin(node);
    if (slot.pinned != nullptr)
        prefix_->unpin(slot.pinned);
    slot.pinned = node;
}

ServingEngine::Slot *
ServingEngine::findSlot(size_t id)
{
    for (auto &sp : active_) {
        if (sp->id == id)
            return sp.get();
    }
    return nullptr;
}

PrefixIndex::Node *
ServingEngine::verifiedChild(PrefixIndex::Node *parent,
                             const int *page_tokens)
{
    PrefixIndex::Node *child = prefix_->findChild(parent, page_tokens);
    if (child == nullptr || !opts_.checksum_pages)
        return child;
    if (!prefix_->verify(child)) {
        // verify() quarantined the span: it is invisible from now on,
        // and this reader computes the page privately — bit-exactness
        // never depended on adoption, only throughput did.
        counters_.checksum_failures += 1;
        return nullptr;
    }
    return child;
}

PrefixIndex::Node *
ServingEngine::verifiedMatch(const std::vector<int> &prompt,
                             size_t *matched_pages)
{
    // The admission-time walk must verify exactly like the adoption
    // walk will: counting a page here that adoption later refuses
    // would under-reserve the private tail against the ledger.
    const size_t pt = pool_->pageTokens();
    const size_t max_pages = maxAdoptPages(prompt.size());
    PrefixIndex::Node *node = nullptr;
    size_t depth = 0;
    while (depth < max_pages) {
        PrefixIndex::Node *child =
            verifiedChild(node, prompt.data() + depth * pt);
        if (child == nullptr)
            break;
        node = child;
        ++depth;
    }
    *matched_pages = depth;
    return node;
}

bool
ServingEngine::adoptShared(Slot &slot)
{
    const std::vector<int> &prompt = slot.req.prompt;
    const size_t pt = pool_->pageTokens();
    bool adopted = false;
    // Adopt every cached page available at the current position in one
    // quantum: mapping pages is free, so a request trailing another
    // with the same prompt stays one page behind its leader instead of
    // recomputing the whole prefix. The walk requires the cache end to
    // be page-aligned AND covered by the trie path (a page computed
    // privately past a full index breaks the chain — then the rest of
    // the prompt is computed privately too, which is always correct).
    while (true) {
        const size_t pos = slot.prefill_pos;
        if (pos % pt != 0 || slot.path_depth * pt != pos)
            break;
        if (pos + pt >= prompt.size())
            break; // keep >= 1 prompt token for the logits-producing run
        PrefixIndex::Node *child =
            verifiedChild(slot.path_node, prompt.data() + pos);
        if (child == nullptr)
            break;
        slot.cache.adoptSharedPage(child->pages.data());
        if (slot.path_depth >= slot.uncharged_pages) {
            // A page shared beyond the admission-time match: it will
            // never be acquired privately, so its charge leaves the
            // reservation (the span's heldPages() already covers it) —
            // without this, the page stays double-counted against the
            // budget for the slot's whole lifetime.
            creditReservation(slot);
        }
        slot.path_node = child;
        slot.path_depth += 1;
        slot.prefill_pos += pt;
        counters_.prefix_hit_tokens += pt;
        stats_[slot.id].shared_prompt_tokens += pt;
        adopted = true;
    }
    if (adopted) {
        movePin(slot, slot.path_node);
        if (!prefix_hit_counted_[slot.id]) {
            prefix_hit_counted_[slot.id] = 1;
            counters_.prefix_hit_requests += 1;
        }
    }
    return adopted;
}

void
ServingEngine::registerFrozenPages(Slot &slot)
{
    const std::vector<int> &prompt = slot.req.prompt;
    const size_t pt = pool_->pageTokens();
    const size_t layers = model_.config().n_layers;
    std::vector<uint32_t> ids(layers);
    bool advanced = false;
    // Publish every completed whole-prompt page past the trie path: a
    // page is frozen once the prefill position has passed its end
    // (kv_cache.h), and pages holding generated tokens are never
    // published (they end past prompt.size()).
    while ((slot.path_depth + 1) * pt <= slot.prefill_pos) {
        const size_t g = slot.path_depth;
        PrefixIndex::Node *child =
            prefix_->findChild(slot.path_node, prompt.data() + g * pt);
        if (child == nullptr) {
            for (size_t l = 0; l < layers; ++l)
                ids[l] = slot.cache.pageId(l, g);
            child = prefix_->insert(slot.path_node,
                                    prompt.data() + g * pt, ids.data());
            if (child == nullptr)
                break; // index full of pinned spans; keep pages private
            // The page's budget charge moves from this request's
            // reservation to the cached span (which holds its own pool
            // references and is counted by admission as span pages).
            creditReservation(slot);
            counters_.prefix_inserted_tokens += pt;
            if (pool_->compressionEnabled()) {
                // Compress on publish: the page is frozen (no writer
                // will ever touch it), insert() already snapshotted
                // its checksums over the decoded-byte regions, and we
                // are on the engine thread between compute phases so
                // no reader is inside the slab. An incompressible
                // page simply stays raw.
                for (size_t l = 0; l < layers; ++l)
                    pool_->compressPage(ids[l]);
            }
        }
        // An identical span may already exist (two slots computed the
        // same page in one step): advance along it without inserting —
        // this slot's private duplicate stays charged to its
        // reservation and dies with it.
        slot.path_node = child;
        slot.path_depth += 1;
        advanced = true;
    }
    if (advanced)
        movePin(slot, slot.path_node);
}

size_t
ServingEngine::nextChunkTokens(const Slot &slot) const
{
    const std::vector<int> &prompt = slot.req.prompt;
    const size_t remaining = prompt.size() - slot.prefill_pos;
    size_t chunk = opts_.prefill_chunk == 0
        ? remaining
        : std::min(opts_.prefill_chunk, remaining);
    if (chunk < remaining) {
        // Computed quanta end on page boundaries. A page holds whole
        // value blocks, so no chunk ends inside a block: every row
        // attends over V blocks quantized over all their positions,
        // as in the whole-prompt prefill, and the sampled tokens are
        // chunk-invariant in every format. With sharing on, every
        // completed page also publishes immediately and followers'
        // positions stay adoptable.
        const size_t pt = pool_->pageTokens();
        const size_t end = slot.prefill_pos + chunk;
        chunk = std::min(prompt.size(), ((end + pt - 1) / pt) * pt) -
            slot.prefill_pos;
    }
    return chunk;
}

void
ServingEngine::preemptSlot(size_t slot_index)
{
    Slot &slot = *active_[slot_index];
    RequestStats &rs = stats_[slot.id];
    const size_t pt = pool_->pageTokens();
    // The recompute bill: every cached token not covered by the trie
    // path. The covered head stays resident in the prefix index (the
    // spans hold their own pool references) and is re-adopted for free
    // at re-admission — unless budget pressure evicts it first.
    const size_t covered =
        std::min(slot.cache.length(), slot.path_depth * pt);
    counters_.preemptions += 1;
    counters_.preempted_recompute_tokens +=
        slot.cache.length() - covered;
    rs.preemptions += 1;

    // Restart semantics: discard generated state and regenerate it on
    // re-admission. The regenerated stream is bit-identical (prefill
    // chunk-invariance + batch-invariant decode rows + the per-request
    // Rng reset with the slot), so nothing observable changes except
    // who pays the recompute. TTFT keeps its first stamp.
    rs.generated.clear();
    rs.token_ms.clear();
    rs.shared_prompt_tokens = 0;

    scheduler_->release(slot.reserved_pages);
    if (slot.pinned != nullptr) {
        prefix_->unpin(slot.pinned);
        slot.pinned = nullptr;
    }
    slot.cache.releaseForPreemption();
    // Requeue with the original enqueue step: the aging credit earned
    // so far survives preemption, so a repeatedly-preempted request
    // climbs the queue instead of starving.
    scheduler_->enqueuePreempted(
        slot.id, slot.req.priority,
        slot.req.prompt.size() + slot.req.max_new_tokens,
        requestClockMs(), slot.aging_step);
    active_.erase(active_.begin() + static_cast<long>(slot_index));
}

void
ServingEngine::terminateSlot(size_t slot_index, RequestOutcome outcome)
{
    // Works from ANY phase — mid-prefill, mid-adoption walk, decoding:
    // the slot is between committed steps here, so dropping the cache
    // releases exactly the pages it holds, the ledger gets back
    // exactly what admission (minus sharing credits) charged, and the
    // pin releases the trie path. Generated tokens stay in the stats:
    // a timed-out request's partial answer is still a bit-exact prefix
    // of its unconstrained stream.
    Slot &slot = *active_[slot_index];
    RequestStats &rs = stats_[slot.id];
    scheduler_->release(slot.reserved_pages);
    if (slot.pinned != nullptr) {
        prefix_->unpin(slot.pinned);
        slot.pinned = nullptr;
    }
    markTerminal(slot.id, outcome);
    finalize(rs);
    // Destroying the cache drops one reference per mapped page; pages
    // the prefix index retains survive for future requests.
    active_.erase(active_.begin() + static_cast<long>(slot_index));
}

void
ServingEngine::lifecyclePass()
{
    if (opts_.fault != nullptr) {
        FaultInjector &f = *opts_.fault;
        f.beginStep(step_count_);
        // Draw sites in a fixed order, unconditionally, so the fault
        // schedule depends only on (seed, step count) — never on the
        // engine state a previous fault produced.
        const bool skew = f.shouldFire(FaultSite::kClockSkew);
        const bool storm = f.shouldFire(FaultSite::kEvictStorm);
        const bool preempt = f.shouldFire(FaultSite::kForcePreempt);
        const bool corrupt = f.shouldFire(FaultSite::kCorruptPage);
        if (skew)
            clock_skew_ms_ += f.drawSkewMs();
        if (storm && prefix_ != nullptr) {
            while (prefix_->evictOne()) {
            }
        }
        if (preempt && !active_.empty())
            preemptVictim(/*blind=*/true, 0.0);
        if (corrupt && prefix_ != nullptr) {
            prefix_->debugCorruptIdleLeaf(f.drawIndex(1u << 30),
                                          f.drawIndex(1u << 30),
                                          f.drawIndex(1u << 30));
        }
    }

    const bool lifecycle_on = opts_.deadline_ms > 0.0 ||
        opts_.ttft_deadline_ms > 0.0 || opts_.max_queue_wait_ms > 0.0 ||
        !cancel_requested_.empty();
    if (!lifecycle_on)
        return;
    const double now = requestClockMs();

    // Queued requests first: a queued death frees no pages but does
    // free queue positions and ledger headroom before admission runs.
    // Only a queued request can be shed for its queue wait.
    for (const Scheduler::QueuedInfo &q : scheduler_->queuedSnapshot()) {
        RequestOutcome out = lifecycleVerdict(q.id, now);
        if (out == RequestOutcome::kPending &&
            opts_.max_queue_wait_ms > 0.0 &&
            now - q.enqueue_ms > opts_.max_queue_wait_ms) {
            out = RequestOutcome::kShed;
        }
        if (out == RequestOutcome::kPending)
            continue;
        MXPLUS_CHECK(scheduler_->removeQueued(q.id));
        markTerminal(q.id, out);
    }

    // Active slots, backwards: terminateSlot erases by index.
    for (size_t i = active_.size(); i-- > 0;) {
        const RequestOutcome out = lifecycleVerdict(active_[i]->id, now);
        if (out != RequestOutcome::kPending)
            terminateSlot(i, out);
    }
}

RequestOutcome
ServingEngine::lifecycleVerdict(size_t id, double now) const
{
    const double age = now - submit_ms_[id];
    const double dl = effectiveDeadlineMs(id);
    const double tdl = effectiveTtftDeadlineMs(id);
    if (cancel_requested_[id])
        return RequestOutcome::kCancelled;
    if (dl > 0.0 && age > dl)
        return RequestOutcome::kTimedOut;
    // A preempted-and-readmitted request keeps its first TTFT stamp,
    // so a restart can never re-arm the TTFT deadline.
    if (tdl > 0.0 && stats_[id].ttft_ms == 0.0 && age > tdl)
        return RequestOutcome::kTimedOut;
    return RequestOutcome::kPending;
}

bool
ServingEngine::preemptVictim(bool blind, double below_key)
{
    const size_t pt = pool_->pageTokens();
    const size_t layers = model_.config().n_layers;
    // Only slots that hold pages EXCLUSIVELY make useful victims —
    // preempting a freshly admitted, still-empty slot, or one whose
    // pages are all shared with the prefix index, frees no physical
    // page and just churns the queue (and their ~0-token recompute
    // cost would make the victim policy PREFER them). Pages past the
    // trie path are private by construction, so the exclusive count
    // is heldPages() minus the covered path. Fall back to the full
    // eligible set when nobody qualifies: then the pressure comes
    // from spans the pinned paths protect, and preempting their
    // owners unpins them for the caller's evictOne() loop.
    std::vector<Scheduler::VictimCandidate> cands;
    cands.reserve(active_.size());
    for (int exclusive_only = 1; exclusive_only >= 0 && cands.empty();
         --exclusive_only) {
        for (size_t i = 0; i < active_.size(); ++i) {
            const Slot &s = *active_[i];
            // Shield by the AGED key, not the base priority: a slot
            // admitted on aging credit must out-key newer
            // higher-priority arrivals here exactly as it did in the
            // queue, or sustained load would churn it admit/preempt
            // forever and void the starvation bound.
            const double key =
                scheduler_->agedKey(s.req.priority, s.aging_step);
            if (!blind && key >= below_key)
                continue;
            const size_t held = s.cache.heldPages();
            const size_t shared =
                std::min(held, s.path_depth * layers);
            if (exclusive_only == 1 && held == shared)
                continue;
            Scheduler::VictimCandidate c;
            c.slot = i;
            c.effective_priority = key;
            const size_t covered =
                std::min(s.cache.length(), s.path_depth * pt);
            c.recompute_tokens = s.cache.length() - covered;
            c.admit_seq = s.admit_seq;
            cands.push_back(c);
        }
    }
    if (cands.empty())
        return false;
    preemptSlot(Scheduler::pickVictim(cands));
    return true;
}

bool
ServingEngine::ensureFreePages(size_t needed, double requester_key)
{
    // freePages() is SIZE_MAX for unbounded pools, so the loop only
    // ever runs under a real budget. Eviction of unpinned cached spans
    // is always preferred over preemption — spans cost nothing to drop
    // (their state is a pure cache), preemption costs recompute. A
    // prefill quantum may only preempt victims of STRICTLY LOWER
    // priority: letting it take pages from peers or betters would be
    // priority inversion and mutual-preemption churn — it defers (keeps
    // its pages, skips the step) instead, and the no-progress fallback
    // in step() breaks the rare logjam where everyone defers.
    // Injected exhaustion forces exactly one evict-or-preempt round
    // through the same code real exhaustion takes; firing here — the
    // engine's decision point — rather than inside acquire() is what
    // keeps the mid-append "admission must reserve first" contract
    // intact under chaos.
    bool forced = opts_.fault != nullptr &&
        opts_.fault->shouldFire(FaultSite::kPoolExhausted);
    while (forced || pool_->freePages() < needed) {
        forced = false;
        if (prefix_ != nullptr && prefix_->evictOne())
            continue;
        if (!preemptVictim(/*blind=*/false, requester_key))
            return false;
    }
    return true;
}

void
ServingEngine::prefillQuantum(Slot &slot)
{
    const std::vector<int> &prompt = slot.req.prompt;
    const size_t chunk = nextChunkTokens(slot);
    const std::vector<int> piece(
        prompt.begin() + static_cast<long>(slot.prefill_pos),
        prompt.begin() + static_cast<long>(slot.prefill_pos + chunk));
    const Matrix logits = model_.prefill(piece, slot.cache, qc_);
    slot.prefill_pos += chunk;
    counters_.prefill_chunks += 1;
    if (prefix_ != nullptr)
        registerFrozenPages(slot);

    if (slot.prefill_pos == prompt.size()) {
        slot.prefilling = false;
        slot.last_token =
            pickToken(slot, logits.row(logits.rows() - 1));
        RequestStats &rs = stats_[slot.id];
        // A restarted request regenerates the same first token; its
        // TTFT stays the moment the token was first produced.
        if (rs.ttft_ms == 0.0)
            rs.ttft_ms = requestClockMs() - clock_start_ms_;
        rs.generated.push_back(slot.last_token);
        slot.context.push_back(slot.last_token);
    }
}

void
ServingEngine::retireFinished()
{
    for (size_t i = active_.size(); i-- > 0;) {
        const Slot &slot = *active_[i];
        if (slot.prefilling)
            continue;
        const bool count_done =
            stats_[slot.id].generated.size() >= slot.req.max_new_tokens;
        const bool seq_full =
            slot.cache.length() >= model_.config().max_seq;
        if (count_done || seq_full)
            terminateSlot(i, RequestOutcome::kCompleted);
    }
}

void
ServingEngine::samplePoolPeak()
{
    counters_.kv_bytes_peak =
        std::max(counters_.kv_bytes_peak, pool_->usedBytes());
    counters_.kv_bytes_reserved_peak =
        std::max(counters_.kv_bytes_reserved_peak,
                 pool_->reservedBytes());
    counters_.kv_pages_peak =
        std::max(counters_.kv_pages_peak, pool_->usedPages());
}

void
ServingEngine::finalize(RequestStats &rs) const
{
    rs.p50_ms = latencyPercentile(rs.token_ms, 0.50);
    rs.p99_ms = latencyPercentile(rs.token_ms, 0.99);
    double sum = 0.0;
    for (double t : rs.token_ms)
        sum += t;
    if (!rs.token_ms.empty()) {
        rs.mean_ms = sum / static_cast<double>(rs.token_ms.size());
        rs.decode_tokens_per_s =
            1000.0 * static_cast<double>(rs.token_ms.size()) / sum;
    }
}

size_t
ServingEngine::prefixCachedTokens() const
{
    return prefix_ != nullptr ? prefix_->cachedTokens() : 0;
}

void
ServingEngine::clearPrefixCache()
{
    if (prefix_ == nullptr)
        return;
    MXPLUS_CHECK_MSG(active_.empty(),
                     "clearPrefixCache with active requests");
    // No active requests means no pins, so the clear is always total.
    MXPLUS_CHECK(prefix_->clear());
}

bool
ServingEngine::step()
{
    if (start_ms_ < 0.0) {
        start_ms_ = nowMs();
        clock_start_ms_ = requestClockMs();
    }
    scheduler_->beginStep();
    ++step_count_;
    if (opts_.step_time_ms > 0.0)
        virtual_now_ms_ += opts_.step_time_ms;
    // Fleet-health heartbeat: one epoch bump per step, published
    // before any of the step's (possibly slow) work so a shard mid-
    // step still reads as progressing from its last completed step.
    if (heartbeat_ != nullptr)
        heartbeat_->progress(scheduler_->queuedRequests() +
                             active_.size());

    // Faults, cancellations, deadlines and queue-wait sheds all apply
    // at the step boundary, before admission: a slot or page freed by
    // a termination is reusable this very step, and no termination can
    // ever interleave with a half-appended cache.
    lifecyclePass();

    // Admission: while a slot is free, take the scheduler's best
    // candidate (priority + aging, SJF or FIFO ties), match its prompt
    // against the prefix cache, and charge the admission window for
    // the unshared remainder. With over_admission == 1 the window is
    // the budget and reservations keep the decode loop out of the
    // pool-exhausted branch entirely; above 1 the scheduler knowingly
    // over-commits and the prefill/decode pre-checks below settle the
    // bet by preemption. Cached spans nobody maps are evicted
    // LRU-first to make room.
    bool budget_deferred = false;
    const size_t layers = model_.config().n_layers;
    while (active_.size() < opts_.max_batch && scheduler_->hasQueued()) {
        const size_t id = scheduler_->peekCandidate();
        const ServeRequest &req = pending_[id];

        const size_t total_pages = pagesPerLayerFor(req) * layers;
        if (budget_pages_ > 0 && total_pages > admit_budget_pages_) {
            // Even with maximal sharing the request's RESIDENT demand
            // (shared span pages, which must stay mapped, plus the
            // private tail) is its full page count — a request bigger
            // than the whole budget can never run, no matter what the
            // prefix cache holds or how optimistic the window is, so
            // reject deterministically and gracefully.
            scheduler_->popCandidate();
            markTerminal(id, RequestOutcome::kRejected);
            continue;
        }

        size_t matched = 0;
        PrefixIndex::Node *node = nullptr;
        if (prefix_ != nullptr) {
            // Checksum-verified match: the reservation below must not
            // count pages a later adoption would refuse.
            node = verifiedMatch(req.prompt, &matched);
            if (node != nullptr)
                prefix_->pin(node); // survives the eviction loop below
        }
        const size_t need = total_pages - matched * layers;

        // One predicate decides both when to keep evicting spans and
        // when to give up and defer: everything reserved or resident —
        // admitted reservations, cached span pages, this request's
        // unshared tail — must fit the scheduler's admission window.
        // Span pages are charged at their RESIDENT size: compressed
        // spans count page-equivalents of their stream bytes, so the
        // window a compressed cache leaves open is strictly wider —
        // that is the capacity win compression buys. Without
        // compression heldPageEquivalents() == heldPages() exactly.
        const auto within = [&] {
            return scheduler_->withinWindow(
                need,
                prefix_ != nullptr ? prefix_->heldPageEquivalents()
                                   : 0);
        };
        if (budget_pages_ > 0) {
            while (!within() && prefix_ != nullptr &&
                   prefix_->evictOne()) {
            }
            if (!within()) {
                if (node != nullptr)
                    prefix_->unpin(node);
                budget_deferred = true;
                break;
            }
        }
        if (scheduler_->candidateBypassesFifo())
            counters_.sjf_reorders += 1;
        admitCandidate(node, matched, need);
        if (!first_defer_seen_)
            counters_.admitted_before_first_defer += 1;
    }
    if (budget_deferred) {
        counters_.admission_deferred_steps += 1;
        first_defer_seen_ = true;
    }

    // One prefill quantum per prefilling slot per step: the latency a
    // prompt can add to a decode step is bounded by max_batch * chunk
    // tokens instead of by the longest queued prompt, while prompts
    // that fit one chunk prefill immediately. Slots run in admission
    // order, so a page one slot computes (and publishes) this step is
    // already adoptable by the slots after it. Over-admission means a
    // computed chunk's pages may not exist: each quantum first makes
    // sure the pool can supply them, evicting spans and preempting
    // strictly-lower-priority victims if not, deferring otherwise.
    // The findSlot lookup guards against the current slot having been
    // preempted while an EARLIER quantum in this same loop made room.
    std::vector<size_t> slot_ids;
    slot_ids.reserve(active_.size());
    for (const auto &sp : active_)
        slot_ids.push_back(sp->id);
    bool prefilled = false;
    const size_t pt = pool_->pageTokens();
    for (const size_t id : slot_ids) {
        Slot *slot = findSlot(id); // preemption may have erased it
        if (slot == nullptr || !slot->prefilling)
            continue;
        // Mapping shared pages replaces this step's compute chunk: the
        // quantum still makes page-sized progress, but as a cache hit
        // — and adoption takes references on existing pages, so it can
        // never exhaust the pool.
        if (prefix_ != nullptr && adoptShared(*slot)) {
            prefilled = true;
            continue;
        }
        const size_t end = slot->prefill_pos + nextChunkTokens(*slot);
        const size_t new_pages =
            ((end + pt - 1) / pt - slot->cache.pageCount(0)) * layers;
        if (!ensureFreePages(new_pages,
                             scheduler_->agedKey(slot->req.priority,
                                                 slot->aging_step)))
            continue; // defer: no lower-priority victim to take from
        prefillQuantum(*slot);
        prefilled = true;
    }
    if (prefilled)
        samplePoolPeak();

    // A prefill token can fully satisfy max_new_tokens, and a prompt
    // can fill the sequence: retire before (and after) decoding.
    retireFinished();

    // Decode pre-check: a slot whose length sits on a page boundary
    // acquires one fresh page per layer this step. Under over-admission
    // the pool may not have them — evict spans, then preempt victims
    // of ANY priority (a preempted victim may itself be one of the
    // decoders, shrinking the requirement) until the whole batched
    // step fits: decode progress is what retires requests and frees
    // pages, so it must never stall. The appends inside
    // decodeStepBatch then never see kNoPage.
    if (budget_pages_ > 0) {
        while (true) {
            size_t needed = 0;
            for (const auto &sp : active_) {
                if (!sp->prefilling && sp->cache.length() % pt == 0)
                    needed += layers;
            }
            if (needed == 0 || pool_->freePages() >= needed)
                break;
            if (prefix_ != nullptr && prefix_->evictOne())
                continue;
            MXPLUS_CHECK(preemptVictim(/*blind=*/true, 0));
        }
    }

    if (!decodeBatch() && !prefilled && !active_.empty() &&
        budget_pages_ > 0) {
        // Every active slot is prefill-stalled on pages and none
        // outranks a victim (all equal priority, pool full of each
        // other's pages): break the logjam with one priority-blind
        // preemption — liveness beats strict priority order, and the
        // freed pages let a survivor progress next step.
        MXPLUS_CHECK(preemptVictim(/*blind=*/true, 0));
    }
    end_ms_ = nowMs();
    return !active_.empty() || scheduler_->hasQueued();
}

bool
ServingEngine::decodeBatch()
{
    std::vector<Slot *> decoding;
    decoding.reserve(active_.size());
    for (auto &sp : active_) {
        if (!sp->prefilling)
            decoding.push_back(sp.get());
    }
    if (decoding.empty())
        return false;

    std::vector<int> tokens(decoding.size());
    std::vector<KvCache *> caches(decoding.size());
    for (size_t i = 0; i < decoding.size(); ++i) {
        tokens[i] = decoding[i]->last_token;
        caches[i] = &decoding[i]->cache;
    }

    const double t0 = nowMs();
    const Matrix logits =
        model_.decodeStepBatch(tokens, caches, qc_, workers_.get());
    const double dt = nowMs() - t0;

    counters_.decode_batches += 1;
    counters_.decode_ms += dt;
    counters_.decode_tokens += decoding.size();
    occupancy_sum_ += static_cast<double>(decoding.size());
    for (size_t i = 0; i < decoding.size(); ++i) {
        Slot &slot = *decoding[i];
        RequestStats &rs = stats_[slot.id];
        slot.last_token = pickToken(slot, logits.row(i));
        rs.generated.push_back(slot.last_token);
        slot.context.push_back(slot.last_token);
        rs.token_ms.push_back(dt);
    }
    samplePoolPeak();
    retireFinished();
    return true;
}

bool
ServingEngine::runToCompletion(size_t max_steps)
{
    for (size_t steps = 1; step(); ++steps) {
        if (max_steps > 0 && steps >= max_steps)
            return false;
    }
    return true;
}

bool
ServingEngine::auditInvariants() const
{
    if (!pool_->auditInvariants())
        return false;
    if (prefix_ != nullptr && !prefix_->auditInvariants())
        return false;
    // The reservation ledger must equal the sum of what the active
    // slots believe they reserved — any drift means a terminal path
    // released too much or too little.
    size_t reserved = 0;
    for (const auto &sp : active_) {
        if (!sp->cache.auditInvariants())
            return false;
        reserved += sp->reserved_pages;
    }
    return reserved == scheduler_->reservedPages();
}

EngineStats
ServingEngine::engineStats() const
{
    EngineStats es = counters_;
    std::vector<const RequestStats *> requests;
    requests.reserve(stats_.size());
    for (const RequestStats &rs : stats_)
        requests.push_back(&rs);
    tallyRequests(requests, es);
    if (start_ms_ >= 0.0)
        es.wall_ms = end_ms_ - start_ms_;
    if (es.wall_ms > 0.0) {
        es.throughput_tokens_per_s = 1000.0 *
            static_cast<double>(es.total_generated) / es.wall_ms;
    }
    if (es.decode_batches > 0) {
        es.mean_batch_occupancy =
            occupancy_sum_ / static_cast<double>(es.decode_batches);
    }
    if (es.decode_ms > 0.0) {
        es.decode_tokens_per_s = 1000.0 *
            static_cast<double>(es.decode_tokens) / es.decode_ms;
    }
    // Per admission: a preempted request waits, and counts, again.
    es.queue_wait_ms_p50 = latencyPercentile(queue_wait_samples_, 0.50);
    es.queue_wait_ms_p99 = latencyPercentile(queue_wait_samples_, 0.99);
    // Evictions happen on several paths (admission headroom, capacity
    // pressure inside span publication, preemption headroom, a clear);
    // the index's counter is the single source of truth.
    if (prefix_ != nullptr)
        es.prefix_evicted_pages =
            prefix_->evictedNodes() * model_.config().n_layers;
    es.compressed_ratio = pool_->compressedRatio();
    es.compressed_stream_bytes = pool_->compressedStreamBytes();
    es.codec_decode_calls = pool_->codecDecodeCalls();
    return es;
}

const RequestStats &
ServingEngine::stats(size_t id) const
{
    MXPLUS_CHECK(id < stats_.size());
    return stats_[id];
}

} // namespace mxplus
