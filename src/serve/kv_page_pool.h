/**
 * @file
 * Shared pool of fixed-size, reference-counted KV pages — the
 * allocation substrate of the paged KV cache.
 *
 * A page is a fixed-float-count slab holding `pageTokens()` tokens of
 * one layer's K/V state (the cache defines the interior layout; the
 * pool only hands out slabs). Pages are recycled through a free list,
 * so the resident footprint of a serving engine tracks the number of
 * *live* tokens across in-flight requests — rounded up to page
 * granularity — instead of every request's worst-case reserved
 * capacity, and long-context appends never pay a realloc copy.
 *
 * Reference counting makes pages shareable: acquire() hands out a page
 * with one reference, ref() adds co-owners (a second request mapping
 * the same frozen prefix page, or the engine's prefix index pinning a
 * cached span), and release() drops one reference — the page returns
 * to the free list only when the last owner lets go. A refcount of 1
 * is the classic exclusively-owned page, so the PR3 behaviour is the
 * degenerate case.
 *
 * A pool may be bounded (`maxPages() > 0`): acquire() returns kNoPage
 * when the budget is exhausted — a *recoverable* failure, so callers
 * can defer, evict, or preempt instead of dying. The serving engine
 * pairs a bounded pool with admission control that reserves pages
 * conservatively before a request may touch the pool, which keeps the
 * in-flight decode loop out of that branch entirely. Unbounded pools
 * grow on demand and are what standalone caches use.
 *
 * A bounded pool can additionally compress frozen pages
 * (enableCompression): compressPage() encodes the page's K/V payload
 * regions with a lossless PageCodec, frees the float slab, and from
 * then on charges the page's *compressed* byte size against the
 * budget, so the same byte budget holds more frozen pages. Readers go
 * through pageRegion(), which decodes a compressed page region into a
 * caller-owned buffer on every call; refcount, CoW-fork and free-list
 * semantics are unchanged, and a recycled page gets a fresh slab
 * again. The ledger switches from page counts to bytes: freePages()
 * reports how many more *uncompressed* pages the remaining byte
 * budget can hold, so admission conservatism is preserved.
 *
 * Thread safety: acquire()/ref()/release() take an internal mutex, so
 * caches of different requests may append concurrently (the batched
 * decode loop is OpenMP-parallel over requests). pageData() itself is
 * lock-free; for bounded pools the slab-pointer table is preallocated
 * so concurrent growth never moves it. Unbounded pools must only be
 * grown from one thread at a time (a standalone cache has exactly one
 * user). pageRegion() is lock-free as well: a compressed page's
 * stream is immutable while any owner holds a reference, so worker
 * threads sharing a span may decode it concurrently, each into its
 * own buffer. compressPage() must only run while no reader touches
 * the page's slab (the engine compresses on publish, between compute
 * phases, from the engine thread).
 */

#ifndef MXPLUS_SERVE_KV_PAGE_POOL_H
#define MXPLUS_SERVE_KV_PAGE_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "codec/page_codec.h"

namespace mxplus {

/** Recycling, refcounting allocator of fixed-size KV page slabs. */
class KvPagePool
{
  public:
    /** acquire() result when a bounded pool is exhausted. */
    static constexpr uint32_t kNoPage = 0xffffffffu;

    /**
     * Compressed pages charge at least pageBytes()/kMaxCompressedRatio
     * against the byte budget, which bounds how many slabs the table
     * must be able to address and keeps the floor deterministic.
     */
    static constexpr size_t kMaxCompressedRatio = 16;

    /** Which payload region of a page to read through pageRegion(). */
    enum class PageRegion
    {
        kKey = 0,  ///< quantized key rows
        kValue = 1 ///< quantized (seq-major) value rows
    };

    /**
     * The two regions of a page that survive freezing (the cache's raw
     * value staging area is dead once a page is frozen and is simply
     * dropped by compression). Offsets/lengths are in floats.
     */
    struct PageRegions
    {
        size_t k_off = 0;
        size_t k_floats = 0;
        size_t v_off = 0;
        size_t v_floats = 0;
    };

    /**
     * @param page_tokens tokens per page (the cache aligns this with the
     *        value quantizer's block period)
     * @param floats_per_page slab size; the cache's per-layer layout
     * @param max_pages hard budget; 0 means grow on demand
     */
    KvPagePool(size_t page_tokens, size_t floats_per_page,
               size_t max_pages);

    size_t pageTokens() const { return page_tokens_; }
    size_t floatsPerPage() const { return floats_per_page_; }
    size_t pageBytes() const { return floats_per_page_ * sizeof(float); }
    size_t maxPages() const { return max_pages_; }

    /** Physical pages currently referenced by at least one owner. */
    size_t usedPages() const;
    /**
     * Pages acquire() could still hand out (bounded pools only;
     * unbounded pools report SIZE_MAX). The scheduler's preemption
     * path checks this BEFORE a compute step acquires, so exhaustion
     * is handled between steps — never as a partial mid-append state.
     */
    size_t freePages() const;
    /**
     * Resident bytes of live pages. With compression enabled this is
     * the sum of per-page charges (compressed pages charge their
     * stream size), i.e. true residency; otherwise it is
     * usedPages() * pageBytes().
     */
    size_t usedBytes() const;
    /**
     * Reserved bytes at slab granularity: usedPages() * pageBytes().
     * This is what the pre-compression ledger reported; stats expose
     * both so the admission ledger and the bench rows agree.
     */
    size_t reservedBytes() const { return usedPages() * pageBytes(); }
    /** Slabs ever materialized (high-water mark; shows free-list reuse). */
    size_t allocatedPages() const;

    /**
     * Take a page (recycled or fresh) with one reference. Returns
     * kNoPage when a bounded pool is exhausted — the caller decides
     * whether to defer, evict, or fail.
     */
    uint32_t acquire();

    /** Add a co-owner reference to a live page. */
    void ref(uint32_t id);

    /**
     * Drop one reference; the last owner's release returns the page to
     * the free list.
     */
    void release(uint32_t id);

    /** Current reference count of a page (0 = free; tests/debugging). */
    size_t refCount(uint32_t id) const;

    /**
     * Debug audit of the pool's internal invariants: the used counter
     * equals the number of referenced slabs, every free-list entry is
     * unreferenced and unique, every slab is either referenced or on
     * the free list, and the lock-free slab-count mirror matches.
     * Returns false on any violation (the chaos harness asserts it
     * after every episode).
     */
    bool auditInvariants() const;

    /**
     * Writable slab access. CHECK-fails on a compressed page: frozen
     * pages are immutable, so every legitimate writer (append paths,
     * value re-quantization) only ever touches uncompressed pages.
     */
    float *pageData(uint32_t id);
    const float *pageData(uint32_t id) const;

    // ------------------------------------------ frozen-page compression --

    /**
     * Arms compression for this (bounded) pool with @p codec, which the
     * pool owns from then on. Must be called before the first
     * acquire(). The capacity ledger switches to bytes:
     * budget = maxPages() * pageBytes(), with compressed pages charged
     * by stream size (floored at pageBytes()/kMaxCompressedRatio).
     */
    void enableCompression(std::unique_ptr<const PageCodec> codec,
                           const PageRegions &regions);
    bool compressionEnabled() const { return codec_ != nullptr; }
    /** The regions handed to enableCompression (valid once enabled). */
    const PageRegions &payloadRegions() const { return regions_; }
    /** The codec handed to enableCompression (nullptr when disabled). */
    const PageCodec *codec() const { return codec_.get(); }

    /**
     * Compresses a live frozen page: encodes both payload regions,
     * frees the float slab and re-charges the budget by the stream
     * size. Returns false (page stays raw) when the encoded form would
     * not be smaller than the slab. Engine-thread only — no reader may
     * be inside the page's slab during the call.
     */
    bool compressPage(uint32_t id);

    bool isCompressed(uint32_t id) const;

    /**
     * Read access to a payload region. Uncompressed pages return the
     * slab pointer at the region offset (zero copy); a compressed
     * page's region is decoded into @p buf on every call, and the
     * pointer into @p buf is valid until its next use. Each reader (a
     * request's cache, the prefix index's verifier) keeps its own
     * buffer, so concurrent decodes of a shared span never contend.
     * Returns nullptr when a compressed stream fails to decode — the
     * checksum layer treats that as corruption. Only valid once
     * compression is enabled.
     */
    const float *pageRegion(uint32_t id, PageRegion region,
                            std::vector<float> &buf) const;

    /** Bytes this live page charges against the budget right now. */
    size_t pageResidentBytes(uint32_t id) const;

    /** Currently-compressed live pages. */
    size_t compressedPages() const;
    /**
     * Cumulative payload-bytes / stream-bytes over every successful
     * compressPage() (1.0 when nothing compressed yet).
     */
    double compressedRatio() const;
    /** Cumulative stream bytes of every successful compressPage() (the
        denominator of compressedRatio()). */
    size_t compressedStreamBytes() const;
    /** Cumulative page-region decodes (pageRegion() on a compressed
        page). */
    size_t codecDecodeCalls() const
    {
        return decode_calls_.load(std::memory_order_relaxed);
    }

    /**
     * Fault-injection hook: flips one bit of the page's resident
     * representation — the compressed stream when the page is
     * compressed, the float slab otherwise — so chaos episodes
     * exercise the decode path's corruption handling too.
     */
    void debugFlipPageBit(uint32_t id, uint64_t bit_draw);

  private:
    /** Bitstream + bookkeeping of one compressed page. */
    struct CompressedPage
    {
        std::vector<uint8_t> bytes; ///< K stream then V stream
        size_t k_bytes = 0;         ///< byte length of the K stream
    };

    const size_t page_tokens_;
    const size_t floats_per_page_;
    const size_t max_pages_;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<float[]>> slabs_;
    std::vector<uint32_t> refs_; ///< per-slab reference count (0 = free)
    std::vector<uint32_t> free_;
    size_t used_ = 0;
    /** slabs_.size() mirrored for lock-free pageData bounds checks. */
    std::atomic<size_t> slab_count_{0};

    // Compression state (codec_ == nullptr => everything below idle).
    std::unique_ptr<const PageCodec> codec_;
    PageRegions regions_{};
    size_t slab_limit_ = 0;   ///< slab-table capacity
    size_t budget_bytes_ = 0; ///< byte budget replacing the page budget
    size_t used_bytes_ = 0;   ///< sum of live pages' charges
    std::vector<size_t> charges_;         ///< per-page byte charge
    std::vector<CompressedPage> streams_; ///< preallocated, index = page
    /** Lock-free "is compressed" flags for pageRegion()/pageData(). */
    std::unique_ptr<std::atomic<uint8_t>[]> compressed_flags_;
    size_t compressed_pages_ = 0;
    size_t payload_bytes_total_ = 0; ///< cumulative, successful compressions
    size_t stream_bytes_total_ = 0;
    mutable std::atomic<size_t> decode_calls_{0};
};

} // namespace mxplus

#endif // MXPLUS_SERVE_KV_PAGE_POOL_H
