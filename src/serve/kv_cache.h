/**
 * @file
 * Per-request quantized KV cache — the state object of the incremental
 * decode path (Transformer::prefill / decodeStep) and the serving engine
 * — stored as fixed-size token pages drawn from a shared KvPagePool.
 *
 * Paged layout. Each (layer, page-index) pair maps through a per-request
 * page table to a pool slab holding pageTokens() consecutive positions
 * of that layer's K/V state:
 *
 *  - Keys live at slab offset 0 as [page_tokens x d_model] rows and are
 *    quantized per token and per head along the head dimension at append
 *    time. That is exactly the operand the full-sequence attention
 *    quantizes (K rows blocked along the reduction dim of Q·K^T), so a
 *    cached key is final the moment it lands; no future token can change
 *    it, and no page layout can either.
 *
 *  - Values are stored sequence-major ([d_model x page_tokens] per page)
 *    because P·V reduces over positions: the attention quantizes V along
 *    the *sequence* dimension. A raw copy and a quantized copy are kept.
 *    Blocks the quantizer has fully consumed are frozen; the open tail
 *    block is re-quantized from the raw values on every append
 *    (TensorQuantizer::blockPeriod — quantizers with unknown structure
 *    fall back to re-quantizing the whole row). Page size is a multiple
 *    of the block period, so frozen blocks align with page boundaries
 *    and the open tail normally lives in the final page. The quantized
 *    view is therefore always bit-identical to quantizing the visible
 *    prefix in one shot — independent of the page size — which is what
 *    makes prefill() reproduce forward() exactly and paged decode
 *    bit-identical to a contiguous cache; during decode it differs from
 *    the oracle full-sequence quantization only when a *future* value
 *    would have raised a block maximum.
 *
 * Pages are acquired lazily as tokens land and released when the cache
 * dies, so a serving engine's resident KV bytes track live tokens
 * (rounded up to page granularity), not worst-case reserved capacity,
 * and appends never pay a realloc copy. A cache constructed without an
 * explicit pool owns a private unbounded one; the serving engine hands
 * every request's cache one shared bounded pool plus token-budget
 * admission so the budget can never be exceeded.
 *
 * Prefix sharing. Because a fully-written page is frozen — K rows are
 * final at append time and, when the page size is a multiple of the
 * value quantizer's block period, every V block of a completed page is
 * frozen too — a page whose tokens lie entirely inside an already-
 * prefilled prompt is an immutable, format-exact snapshot of that
 * prefix slice. adoptSharedPage() maps such a page (one pool id per
 * layer, reference-counted) at the cache's current page-aligned end
 * instead of recomputing it: the adopting request forks copy-on-write
 * at the first divergent page, which in this whole-page scheme simply
 * means its private tail pages are acquired fresh while the shared
 * prefix pages are never written again (appends always land at
 * length() and requantizeValueTail never reaches below the last frozen
 * block boundary). Releasing works uniformly: the destructor drops one
 * reference per mapped page and the pool reclaims a page when its last
 * owner — request cache or the engine's prefix index — lets go.
 *
 * Appends are two-phase: each layer appends its K/V rows as the step
 * reaches it, and commit() advances the global length once all layers
 * have. The cache is not thread-safe; the serving engine gives each
 * in-flight request its own instance (the shared pool is).
 */

#ifndef MXPLUS_SERVE_KV_CACHE_H
#define MXPLUS_SERVE_KV_CACHE_H

#include <cstddef>
#include <memory>
#include <vector>

#include "model/config.h"
#include "model/quant_config.h"
#include "serve/kv_page_pool.h"
#include "tensor/quantizer_iface.h"
#include "tensor/tensor.h"

namespace mxplus {

/** Paged, quantized per-request K/V store. */
class KvCache
{
  public:
    /**
     * @param k_quant quantizer for keys (head-dim blocks)
     * @param v_quant quantizer for values (seq-dim blocks)
     * @param capacity_hint expected token count (reserves page-table
     *        slots only; pages themselves are acquired as tokens land)
     * @param pool shared page pool; null creates a private unbounded
     *        pool with the default page geometry
     */
    KvCache(const ModelConfig &cfg, QuantizerPtr k_quant,
            QuantizerPtr v_quant, size_t capacity_hint = 0,
            std::shared_ptr<KvPagePool> pool = nullptr);

    KvCache(const KvCache &) = delete;
    KvCache &operator=(const KvCache &) = delete;
    /** Moved-from caches are empty shells; destruction is a no-op. */
    KvCache(KvCache &&) = default;
    /** No move-assign: it would leak the target's pages to the pool. */
    KvCache &operator=(KvCache &&) = delete;
    ~KvCache();

    /**
     * Cache matching a QuantConfig's attention operands: keys use the
     * Q/K override when present (the Section 8.3 reorder experiments),
     * values the attention quantizer.
     */
    static KvCache forConfig(const ModelConfig &cfg, const QuantConfig &qc,
                             size_t capacity_hint = 0,
                             std::shared_ptr<KvPagePool> pool = nullptr);

    /**
     * Default page size for a value quantizer: 32 tokens, rounded up to
     * a multiple of the quantizer's block period so frozen V blocks
     * never straddle a page boundary.
     */
    static size_t pageTokensFor(const TensorQuantizer *v_quant);

    /** Pool slab size for this model at a given page size. */
    static size_t floatsPerPage(const ModelConfig &cfg, size_t page_tokens);

    /**
     * The payload regions of a quantized page that survive freezing —
     * quantized K rows and quantized seq-major V rows; the raw V
     * staging copy is dead once every block of the page is frozen.
     * This is what the engine hands KvPagePool::enableCompression so
     * layout knowledge stays in one place.
     */
    static KvPagePool::PageRegions payloadRegions(const ModelConfig &cfg,
                                                  size_t page_tokens);

    /** Committed token count (positions fully appended to every layer). */
    size_t length() const { return len_; }

    /** Tokens appended to @p layer so far (>= length() mid-step). */
    size_t
    appendedLength(size_t layer) const
    {
        return appended_[layer];
    }

    /** Position table limit of the underlying model. */
    size_t maxSeq() const { return max_seq_; }

    /** Tokens per page (fixed by the pool). */
    size_t pageTokens() const { return pt_; }

    /** Pages mapped for @p layer. */
    size_t
    pageCount(size_t layer) const
    {
        return pages_[layer].size();
    }

    /** Total pages held across all layers. */
    size_t heldPages() const;

    /** Pool page id backing (layer, page) — the prefix index's handle. */
    uint32_t pageId(size_t layer, size_t page) const;

    /** Token capacity currently backed by pages (grows page-at-a-time). */
    size_t capacity() const;

    /** Resident bytes: live pages times page size, nothing reserved. */
    size_t memoryBytes() const;

    /**
     * Debug audit of the paging invariants: no layer is behind the
     * committed length, every page table covers exactly the appended
     * tokens (pages grow one at a time, never speculatively), and
     * every mapped page is live in the pool. Returns false on any
     * violation (the chaos harness asserts it across episodes).
     */
    bool auditInvariants() const;

    /** The pool this cache draws from (the engine's shared accounting). */
    const KvPagePool &pool() const { return *pool_; }

    // ------------------------------------------------------------ append --

    /** Append one token's K/V rows (d_model floats each) to @p layer. */
    void append(size_t layer, const float *k_row, const float *v_row);

    /** Append a batch of rows ([T x d_model] each) to @p layer. */
    void appendBatch(size_t layer, const Matrix &k, const Matrix &v);

    /** Advance the committed length after all layers appended @p n. */
    void commit(size_t n_tokens);

    /**
     * Preemption: drop every page reference and reset the cache to an
     * empty, reusable state, as if freshly constructed. Pages this
     * cache owned exclusively return to the pool immediately; pages
     * the engine's prefix index (or another request) also references
     * survive through those owners — which is exactly what makes a
     * preempted request cheap to restart, its published prompt pages
     * staying resident for re-adoption. Only legal between committed
     * steps (no layer may hold uncommitted appends).
     */
    void releaseForPreemption();

    /**
     * Map one frozen, shared page per layer at the cache's current end
     * (which must be page-aligned and fully committed), taking a
     * reference on each page. The pages must hold exactly the K/V this
     * cache would have produced for those pageTokens() positions — the
     * engine's prefix index guarantees that by keying spans on the
     * exact token ids — and must never be written again (a positive
     * value block period guarantees *that*).
     * Advances length() by pageTokens().
     * @param page_ids one pool page id per layer
     */
    void adoptSharedPage(const uint32_t *page_ids);

    // ------------------------------------------------------- page views --

    /**
     * View of one page of quantized keys: rows of d_model floats with
     * row stride keyRowStride(), covering positions
     * [page * pageTokens(), ...); head h's slice starts at column
     * h * head_dim. The attention's page walk (prefill and decode)
     * reads each page's head slices in place through
     * KernelDispatch::gemmNTStrided — every score is the same dot
     * product a contiguous cache would compute. Uncompressed pages are
     * zero-copy slab views; a compressed frozen page is decoded
     * (bit-exact) into this cache's buffer on every call, so the
     * pointer is only stable until the next view of a compressed page
     * through this cache, and a walk reads each region once.
     */
    const float *keyPageData(size_t layer, size_t page) const;
    size_t keyRowStride() const { return d_; }

    /**
     * View of one page of quantized values, sequence-major: d_model
     * channel rows of pageTokens() floats (row stride
     * valuePageRowStride()); head h's rows start at h * head_dim.
     * Same decode-on-read and pointer-stability rules as keyPageData.
     */
    const float *valuePageData(size_t layer, size_t page) const;
    size_t valuePageRowStride() const { return pt_; }

  private:
    /** Slab of the page covering @p pos, acquiring it if new. */
    float *slabFor(size_t layer, size_t pos);
    float *slab(size_t layer, size_t page);
    /**
     * Read view of a payload region: direct slab pointer, or the
     * region decoded into region_buf_ when the page is compressed
     * (CHECK-fails if the stream will not decode — an active request's
     * pages are never corrupted by the fault sites, which only target
     * idle spans).
     */
    const float *regionView(size_t layer, size_t page,
                            KvPagePool::PageRegion region) const;
    void requantizeValueTail(size_t layer, size_t old_len,
                             size_t new_len);

    // Interior page-slab offsets: quantized K, raw V, quantized V.
    size_t kOff() const { return 0; }
    size_t vRawOff() const { return pt_ * d_; }
    size_t vQuantOff() const { return 2 * pt_ * d_; }

    size_t n_layers_;
    size_t d_;
    size_t heads_;
    size_t dh_;
    size_t max_seq_;
    size_t pt_; ///< tokens per page
    QuantizerPtr k_quant_;
    QuantizerPtr v_quant_;
    std::shared_ptr<KvPagePool> pool_;

    size_t len_ = 0; ///< committed tokens
    std::vector<size_t> appended_; ///< per-layer appended tokens
    std::vector<std::vector<uint32_t>> pages_; ///< per-layer page table

    // Tail re-quantization scratch (gather/scatter staging).
    std::vector<float> scratch_in_;
    std::vector<float> scratch_out_;

    // Decode target for compressed frozen pages (one per cache: the
    // engine gives each request its own cache, so concurrent decodes
    // of a shared span never share a buffer). Mutable because reads of
    // a compressed page materialize through const views.
    mutable std::vector<float> region_buf_;
};

} // namespace mxplus

#endif // MXPLUS_SERVE_KV_CACHE_H
