#include "serve/prefix_index.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/hash.h"
#include "serve/fault.h"

namespace mxplus {

PrefixIndex::PrefixIndex(std::shared_ptr<KvPagePool> pool,
                         size_t n_layers, size_t capacity_tokens)
    : pool_(std::move(pool)), n_layers_(n_layers)
{
    MXPLUS_CHECK(pool_ != nullptr && n_layers_ > 0);
    pt_ = pool_->pageTokens();
    capacity_pages_ = (capacity_tokens + pt_ - 1) / pt_;
}

PrefixIndex::~PrefixIndex()
{
    // Engine teardown: release the index's references unconditionally.
    // Pages still mapped by live request caches survive through those
    // caches' own references (the pool is shared_ptr-owned by both).
    std::vector<Node *> stack{&root_};
    while (!stack.empty()) {
        Node *n = stack.back();
        stack.pop_back();
        if (n != &root_)
            releaseNodePages(*n);
        for (auto &c : n->children)
            stack.push_back(c.get());
    }
}

void
PrefixIndex::releaseNodePages(const Node &node)
{
    for (const uint32_t id : node.pages)
        pool_->release(id);
}

PrefixIndex::Node *
PrefixIndex::findChild(Node *parent, const int *page_tokens)
{
    Node *from = parent != nullptr ? parent : &root_;
    for (auto &child : from->children) {
        // A quarantined span is invisible: its state must never be
        // served again, and skipping it also lets a publisher insert
        // a fresh, good duplicate of the same token run beside it.
        if (child->corrupt)
            continue;
        if (std::equal(child->tokens.begin(), child->tokens.end(),
                       page_tokens)) {
            child->last_use = ++tick_;
            return child.get();
        }
    }
    return nullptr;
}

PrefixIndex::Node *
PrefixIndex::insert(Node *parent, const int *page_tokens,
                    const uint32_t *page_ids)
{
    MXPLUS_CHECK_MSG(findChild(parent, page_tokens) == nullptr,
                     "PrefixIndex: span already cached");
    if (capacity_pages_ == 0)
        return nullptr;
    if (node_count_ >= capacity_pages_) {
        // The parent may itself be an unpinned LRU leaf (a caller
        // publishing several pages pins only the finished path): shield
        // it for the duration of the eviction or we would free the very
        // node we are about to attach to.
        if (parent != nullptr)
            pin(parent);
        const bool evicted = evictOne();
        if (parent != nullptr)
            unpin(parent);
        if (!evicted)
            return nullptr; // full of pinned spans: pages stay private
    }
    Node *from = parent != nullptr ? parent : &root_;
    auto node = std::make_unique<Node>();
    node->tokens.assign(page_tokens, page_tokens + pt_);
    node->pages.assign(page_ids, page_ids + n_layers_);
    node->parent = from;
    node->last_use = ++tick_;
    // Snapshot each page's checksum at publication: the pages are
    // frozen from here on, so any later mismatch is corruption, not a
    // legal write. Verification on adoption is the engine's knob
    // (EngineOptions::checksum_pages); computing at insert is always
    // on so the knob can be flipped without re-publishing.
    node->sums.reserve(n_layers_);
    for (const uint32_t id : node->pages)
        node->sums.push_back(pageChecksum(id));
    for (const uint32_t id : node->pages)
        pool_->ref(id);
    from->children.push_back(std::move(node));
    ++node_count_;
    return from->children.back().get();
}

void
PrefixIndex::pin(Node *node)
{
    MXPLUS_CHECK(node != nullptr);
    ++node->pins;
}

void
PrefixIndex::unpin(Node *node)
{
    MXPLUS_CHECK(node != nullptr && node->pins > 0);
    --node->pins;
}

PrefixIndex::Node *
PrefixIndex::lruEvictableLeaf(Node *node) const
{
    // Leaves with no pins are the only candidates: every ancestor of a
    // pinned node has a child, so pinning the deepest node a request
    // uses protects its whole path. The recursion is over the cached
    // span set (capacity-bounded), so the O(nodes) scan is cheap.
    Node *best = nullptr;
    for (const auto &child : node->children) {
        Node *cand = child->children.empty()
            ? (child->pins == 0 ? child.get() : nullptr)
            : lruEvictableLeaf(child.get());
        if (cand != nullptr &&
            (best == nullptr || cand->last_use < best->last_use)) {
            best = cand;
        }
    }
    return best;
}

uint64_t
PrefixIndex::pageChecksum(uint32_t page_id) const
{
    if (!pool_->compressionEnabled()) {
        return hashFloats(pool_->pageData(page_id),
                          pool_->floatsPerPage());
    }
    // With compression armed, checksums cover the *decoded* payload
    // regions (the raw-V staging area is dead on frozen pages), so the
    // sum snapshotted at insert — before the engine compresses — still
    // matches what pageRegion() serves afterwards. A stream that fails
    // to decode hashes to a sentinel no insert-time sum can plausibly
    // equal, so verify() quarantines it like any other mismatch.
    static constexpr uint64_t kUndecodable = 0x636f727275707421ull;
    const KvPagePool::PageRegions &regions = pool_->payloadRegions();
    const float *k = pool_->pageRegion(page_id, KvPagePool::PageRegion::kKey,
                                       scratch_);
    if (k == nullptr)
        return kUndecodable;
    const uint64_t hk = hashFloats(k, regions.k_floats);
    const float *v = pool_->pageRegion(
        page_id, KvPagePool::PageRegion::kValue, scratch_);
    if (v == nullptr)
        return kUndecodable;
    const uint64_t hv = hashFloats(v, regions.v_floats);
    return mix64(hk ^ mix64(hv));
}

bool
PrefixIndex::verify(Node *node)
{
    MXPLUS_CHECK(node != nullptr && node != &root_);
    if (node->corrupt)
        return false;
    for (size_t l = 0; l < n_layers_; ++l) {
        if (pageChecksum(node->pages[l]) == node->sums[l])
            continue;
        // Quarantine, permanently: the node becomes invisible to
        // findChild() and drains via normal LRU eviction.
        // Pages stay owned until then — releasing early could hand a
        // known-bad slab back to the free list while a racing audit
        // still walks the tree.
        node->corrupt = true;
        if (node->injected)
            ++detected_corruptions_;
        return false;
    }
    return true;
}

bool
PrefixIndex::debugCorruptIdleLeaf(uint64_t node_draw, uint64_t layer_draw,
                                  uint64_t bit_draw)
{
    // Only *idle* published spans are fair game: unpinned leaves whose
    // pages all have refcount 1 (held by this index alone). Corrupting
    // a page a live request still maps would break that request's
    // stream through its own page table, bypassing adoption-time
    // verification entirely — that is a different failure class than
    // the storage-corruption one this hook models.
    std::vector<Node *> targets;
    std::vector<Node *> stack{&root_};
    while (!stack.empty()) {
        Node *n = stack.back();
        stack.pop_back();
        for (auto &c : n->children)
            stack.push_back(c.get());
        if (n == &root_ || !n->children.empty() || n->pins > 0 ||
            n->injected || n->corrupt)
            continue;
        bool idle = true;
        for (const uint32_t id : n->pages)
            idle = idle && pool_->refCount(id) == 1;
        if (idle)
            targets.push_back(n);
    }
    if (targets.empty())
        return false;
    Node *victim = targets[node_draw % targets.size()];
    const uint32_t page = victim->pages[layer_draw % n_layers_];
    // The pool flips a bit of the page's *resident* representation —
    // the compressed stream when the page is compressed — so chaos
    // episodes exercise the decode path's corruption handling too.
    pool_->debugFlipPageBit(page, bit_draw);
    victim->injected = true;
    ++injected_corruptions_;
    return true;
}

size_t
PrefixIndex::heldPageEquivalents() const
{
    if (!pool_->compressionEnabled())
        return heldPages();
    size_t bytes = 0;
    std::vector<const Node *> stack{&root_};
    while (!stack.empty()) {
        const Node *n = stack.back();
        stack.pop_back();
        for (const auto &c : n->children)
            stack.push_back(c.get());
        if (n == &root_)
            continue;
        for (const uint32_t id : n->pages)
            bytes += pool_->pageResidentBytes(id);
    }
    return (bytes + pool_->pageBytes() - 1) / pool_->pageBytes();
}

size_t
PrefixIndex::undetectedResidentCorruptions() const
{
    size_t count = 0;
    std::vector<const Node *> stack{&root_};
    while (!stack.empty()) {
        const Node *n = stack.back();
        stack.pop_back();
        for (const auto &c : n->children)
            stack.push_back(c.get());
        if (n->injected && !n->corrupt)
            ++count;
    }
    return count;
}

bool
PrefixIndex::auditInvariants() const
{
    size_t counted = 0;
    std::vector<const Node *> stack{&root_};
    while (!stack.empty()) {
        const Node *n = stack.back();
        stack.pop_back();
        for (const auto &c : n->children) {
            if (c->parent != n)
                return false;
            stack.push_back(c.get());
        }
        if (n == &root_)
            continue;
        ++counted;
        if (n->tokens.size() != pt_ || n->pages.size() != n_layers_ ||
            n->sums.size() != n_layers_)
            return false;
        // Every held page must be live: the node owns a reference, so
        // the pool cannot have recycled it.
        for (const uint32_t id : n->pages) {
            if (pool_->refCount(id) < 1)
                return false;
        }
    }
    return counted == node_count_;
}

bool
PrefixIndex::evictOne()
{
    Node *victim = lruEvictableLeaf(&root_);
    if (victim == nullptr)
        return false;
    // Chaos accounting: an injected corruption leaving the tree before
    // any adoption verified it was never observable — the harness
    // balances injected == detected + evicted-undetected + resident.
    if (victim->injected && !victim->corrupt)
        ++evicted_undetected_corruptions_;
    releaseNodePages(*victim);
    Node *parent = victim->parent;
    auto it = std::find_if(
        parent->children.begin(), parent->children.end(),
        [victim](const std::unique_ptr<Node> &c) {
            return c.get() == victim;
        });
    MXPLUS_CHECK(it != parent->children.end());
    parent->children.erase(it);
    --node_count_;
    ++evicted_nodes_;
    return true;
}

bool
PrefixIndex::clear()
{
    while (evictOne()) {
    }
    // Spans a pinned path depends on are not evictable; they drain
    // once their requests unpin (retire or get preempted), and a
    // second clear() then finishes the job.
    return node_count_ == 0;
}

} // namespace mxplus
