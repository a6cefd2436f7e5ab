/**
 * @file
 * Prefix index: a trie over page-sized token runs mapping prompt
 * prefixes to frozen, refcounted KV page spans — the lookup structure
 * behind the serving engine's shared-prefix prefill reuse.
 *
 * Each node covers exactly pageTokens() consecutive token ids and owns
 * one reference on one pool page per layer: the frozen K/V snapshot a
 * prefill produced for those positions. A path root→node therefore
 * identifies a *page-aligned prompt prefix* together with the pages
 * holding its exact cached state; a request whose prompt starts with
 * that token sequence can map the span's pages (KvCache::
 * adoptSharedPage) instead of recomputing the prefill — and because
 * the page-aligned frozen-V-block layout makes a completed page a
 * bit-exact, format-independent function of the visible token prefix,
 * adoption is bit-identical to private prefill for every format.
 *
 * Matching is exact, not probabilistic: children are found by
 * comparing the full pageTokens() token ids (the hash-free linear scan
 * is cheap because realistic sharing trees are shallow and narrow —
 * one system prompt, a handful of few-shot headers). A false match is
 * structurally impossible, which is what lets the engine promise
 * bit-identical token streams with sharing on or off.
 *
 * Ownership and eviction: nodes hold pool references; evicting a node
 * releases them, and the pool reclaims each page when its last owner
 * (this index or a request cache still mapping it) lets go. Eviction
 * is LRU over *unpinned leaves* only — pinning the deepest node a
 * request depends on protects its whole path, because every ancestor
 * of a pinned node has a child and leaves are the only eviction
 * candidates. Capacity is counted in tokens (nodes × pageTokens());
 * insertions beyond capacity first try to evict and then fail softly
 * (the caller keeps its pages private).
 *
 * Not thread-safe: the engine's scheduler owns it single-threaded.
 */

#ifndef MXPLUS_SERVE_PREFIX_INDEX_H
#define MXPLUS_SERVE_PREFIX_INDEX_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/kv_page_pool.h"

namespace mxplus {

/** Trie of frozen, refcounted KV page spans keyed by exact token runs. */
class PrefixIndex
{
  public:
    struct Node
    {
        std::vector<int> tokens;      ///< pageTokens() token ids
        std::vector<uint32_t> pages;  ///< one pool page id per layer
        std::vector<uint64_t> sums;   ///< per-layer page checksums
        Node *parent = nullptr;
        std::vector<std::unique_ptr<Node>> children;
        uint64_t last_use = 0; ///< LRU stamp
        size_t pins = 0;       ///< requests depending on this node
        /** Quarantined: a checksum verification failed. The node is
            invisible to findChild() from then on — its state
            can never be served — and it drains via normal eviction. */
        bool corrupt = false;
        /** Debug bookkeeping: the chaos harness flipped a bit here. */
        bool injected = false;
    };

    /**
     * @param pool the engine's shared page pool (eviction releases into
     *        it); the index takes shared ownership
     * @param n_layers pages per node
     * @param capacity_tokens retained-span budget, rounded up to whole
     *        pages
     */
    PrefixIndex(std::shared_ptr<KvPagePool> pool, size_t n_layers,
                size_t capacity_tokens);

    /** Releases every cached page reference. */
    ~PrefixIndex();

    PrefixIndex(const PrefixIndex &) = delete;
    PrefixIndex &operator=(const PrefixIndex &) = delete;

    size_t pageTokens() const { return pt_; }
    /** Tokens currently cached (nodes × pageTokens()). */
    size_t cachedTokens() const { return node_count_ * pt_; }
    /** Physical pool pages held by cached spans (nodes × layers). */
    size_t heldPages() const { return node_count_ * n_layers_; }
    /**
     * Held pages in *budget-charge* units: with pool compression on,
     * the sum of the spans' resident bytes rounded up to whole pages —
     * this is what admission charges, so compressed spans free up
     * window for more requests. Equals heldPages() when compression is
     * off (bit-for-bit the old admission behavior).
     */
    size_t heldPageEquivalents() const;
    size_t capacityTokens() const { return capacity_pages_ * pt_; }
    /** Spans evicted over the index's lifetime (every evictOne path —
        admission headroom, capacity pressure inside insert, clear). */
    size_t evictedNodes() const { return evicted_nodes_; }

    /**
     * Child of @p parent (nullptr = root) covering exactly the next
     * pageTokens() ids at @p page_tokens; stamps it for LRU.
     */
    Node *findChild(Node *parent, const int *page_tokens);

    /**
     * Insert a new child span under @p parent (nullptr = root), taking
     * one reference per page id. Evicts LRU spans to stay within
     * capacity; returns nullptr (and takes no references) when the
     * index is full of pinned spans — the caller keeps its pages
     * private.
     * @param page_ids one pool page id per layer
     */
    Node *insert(Node *parent, const int *page_tokens,
                 const uint32_t *page_ids);

    /** Protect @p node and its root path from eviction. */
    void pin(Node *node);
    void unpin(Node *node);

    /** Evict the LRU unpinned leaf; false when none is evictable. */
    bool evictOne();

    /**
     * Recompute @p node's per-layer page checksums against the sums
     * stored at insertion. A mismatch quarantines the node (sets
     * Node::corrupt, so findChild() skips it forever) and
     * returns false — the caller computes privately, which is always
     * bit-exact. The engine calls this on every adoption when
     * EngineOptions::checksum_pages is on.
     */
    bool verify(Node *node);

    /**
     * Chaos hook: flip one bit in an IDLE published page — an unpinned
     * leaf all of whose pages have refcount 1 (held only by this
     * index), so no active request maps the corrupted bytes and the
     * only way they could ever be served is through adoption, which
     * verify() guards. Draws select the victim node, layer and bit.
     * Returns true when a target existed and a bit was flipped.
     */
    bool debugCorruptIdleLeaf(uint64_t node_draw, uint64_t layer_draw,
                              uint64_t bit_draw);

    /** Bits flipped by debugCorruptIdleLeaf over the lifetime. */
    size_t injectedCorruptions() const { return injected_corruptions_; }
    /** Injected corruptions verify() caught (and quarantined). */
    size_t detectedCorruptions() const { return detected_corruptions_; }
    /** Injected-but-undetected nodes evicted before any adoption
        reached them (never served, so never verified). */
    size_t evictedUndetectedCorruptions() const
    {
        return evicted_undetected_corruptions_;
    }
    /** Resident injected-but-undetected nodes (never adopted yet;
        verify() would catch them the moment anyone tried). */
    size_t undetectedResidentCorruptions() const;

    /**
     * Structural debug audit: node count matches the tree, every node
     * carries one page + one checksum per layer, parent links are
     * consistent, and every held page is live in the pool. Checksums
     * are NOT verified here — an injected corruption that was never
     * adopted must not fail the audit (it is unreachable-by-serving,
     * not a structural violation). Returns false on any violation.
     */
    bool auditInvariants() const;

    /**
     * Evict every unpinned span; pool usage drops by the evicted
     * pages. Paths pinned by active requests survive — clearing must
     * never free state someone still maps. Returns true when the
     * index is empty afterwards (always, when nothing is pinned).
     */
    bool clear();

    /** Pin count of @p node (tests/debugging). */
    static size_t pins(const Node *node) { return node->pins; }

  private:
    Node *lruEvictableLeaf(Node *node) const;
    void releaseNodePages(const Node &node);
    uint64_t pageChecksum(uint32_t page_id) const;

    std::shared_ptr<KvPagePool> pool_;
    /** Decode target for checksumming compressed pages (verify()
        runs on the engine thread, so one buffer suffices). */
    mutable std::vector<float> scratch_;
    size_t n_layers_;
    size_t pt_;
    size_t capacity_pages_;
    Node root_; ///< sentinel: no tokens, no pages, never evicted
    size_t node_count_ = 0;
    size_t evicted_nodes_ = 0;
    size_t injected_corruptions_ = 0;
    size_t detected_corruptions_ = 0;
    size_t evicted_undetected_corruptions_ = 0;
    uint64_t tick_ = 0;
};

} // namespace mxplus

#endif // MXPLUS_SERVE_PREFIX_INDEX_H
