#include "serve/kv_cache.h"

#include <algorithm>

#include "common/check.h"

namespace mxplus {

namespace {

/** Default page size before block-period alignment. */
constexpr size_t kBasePageTokens = 32;

} // namespace

size_t
KvCache::pageTokensFor(const TensorQuantizer *v_quant)
{
    const size_t period = v_quant != nullptr ? v_quant->blockPeriod() : 1;
    if (period == 0)
        return kBasePageTokens; // unknown structure: whole-row requant
    return ((kBasePageTokens + period - 1) / period) * period;
}

size_t
KvCache::floatsPerPage(const ModelConfig &cfg, size_t page_tokens)
{
    // Quantized K plus the raw and quantized seq-major V copies.
    return 3 * page_tokens * cfg.d_model;
}

KvPagePool::PageRegions
KvCache::payloadRegions(const ModelConfig &cfg, size_t page_tokens)
{
    KvPagePool::PageRegions r;
    r.k_off = 0; // kOff()
    r.k_floats = page_tokens * cfg.d_model;
    r.v_off = 2 * page_tokens * cfg.d_model; // vQuantOff()
    r.v_floats = page_tokens * cfg.d_model;
    return r;
}

KvCache::KvCache(const ModelConfig &cfg, QuantizerPtr k_quant,
                 QuantizerPtr v_quant, size_t capacity_hint,
                 std::shared_ptr<KvPagePool> pool)
    : n_layers_(cfg.n_layers), d_(cfg.d_model), heads_(cfg.n_heads),
      dh_(cfg.headDim()), max_seq_(cfg.max_seq),
      k_quant_(std::move(k_quant)), v_quant_(std::move(v_quant)),
      pool_(std::move(pool)), appended_(cfg.n_layers, 0),
      pages_(cfg.n_layers)
{
    MXPLUS_CHECK_MSG(k_quant_ != nullptr && v_quant_ != nullptr,
                     "KvCache: needs a key and a value quantizer");
    if (pool_ == nullptr) {
        // Private unbounded pool with the default geometry.
        const size_t pt = pageTokensFor(v_quant_.get());
        pool_ = std::make_shared<KvPagePool>(pt, floatsPerPage(cfg, pt),
                                             /*max_pages=*/0);
    }
    pt_ = pool_->pageTokens();
    MXPLUS_CHECK_MSG(pool_->floatsPerPage() == floatsPerPage(cfg, pt_),
                     "KvCache: pool slab size does not match this model");
    const size_t period = v_quant_->blockPeriod();
    MXPLUS_CHECK_MSG(period == 0 || pt_ % period == 0,
                     "KvCache: page size must be a multiple of the "
                     "value quantizer's block period");
    const size_t hint_pages = (capacity_hint + pt_ - 1) / pt_;
    for (auto &table : pages_)
        table.reserve(hint_pages);
}

KvCache::~KvCache()
{
    if (pool_ == nullptr)
        return; // moved-from shell
    for (const auto &table : pages_) {
        for (const uint32_t id : table)
            pool_->release(id);
    }
}

KvCache
KvCache::forConfig(const ModelConfig &cfg, const QuantConfig &qc,
                   size_t capacity_hint, std::shared_ptr<KvPagePool> pool)
{
    MXPLUS_CHECK_MSG(qc.attention != nullptr,
                     "KvCache::forConfig needs an attention quantizer");
    const QuantizerPtr k = qc.qk_override ? qc.qk_override : qc.attention;
    return KvCache(cfg, k, qc.attention, capacity_hint, std::move(pool));
}

size_t
KvCache::heldPages() const
{
    size_t n = 0;
    for (const auto &table : pages_)
        n += table.size();
    return n;
}

size_t
KvCache::capacity() const
{
    return std::min(max_seq_, pages_[0].size() * pt_);
}

size_t
KvCache::memoryBytes() const
{
    return heldPages() * pool_->pageBytes();
}

float *
KvCache::slabFor(size_t layer, size_t pos)
{
    const size_t page = pos / pt_;
    auto &table = pages_[layer];
    MXPLUS_CHECK(page <= table.size());
    if (page == table.size()) {
        const uint32_t id = pool_->acquire();
        // acquire() failing is recoverable at the *engine* level
        // (defer/evict/preempt before touching the pool); by the time a
        // cache appends, admission must have reserved the page.
        MXPLUS_CHECK_MSG(id != KvPagePool::kNoPage,
                         "KvCache: page pool exhausted mid-append — "
                         "admission control must reserve pages first");
        table.push_back(id);
    }
    return pool_->pageData(table[page]);
}

float *
KvCache::slab(size_t layer, size_t page)
{
    MXPLUS_CHECK(layer < n_layers_ && page < pages_[layer].size());
    return pool_->pageData(pages_[layer][page]);
}

void
KvCache::append(size_t layer, const float *k_row, const float *v_row)
{
    // Allocation-free single-token path (the decode hot loop) except at
    // page boundaries: K head slices land contiguously in the page row,
    // and the V tail requantizes straight out of the raw page columns.
    MXPLUS_CHECK(layer < n_layers_);
    const size_t pos0 = appended_[layer];
    MXPLUS_CHECK_MSG(pos0 == len_,
                     "KvCache: layer appended twice before commit");
    MXPLUS_CHECK_MSG(pos0 + 1 <= max_seq_,
                     "KvCache: sequence exceeds the model's max_seq");
    float *page = slabFor(layer, pos0);
    const size_t row = pos0 % pt_;

    float *kq_row = page + kOff() + row * d_;
    for (size_t h = 0; h < heads_; ++h) {
        const size_t c0 = h * dh_;
        k_quant_->quantizeRows(k_row + c0, kq_row + c0, 1, dh_);
    }
    float *vraw = page + vRawOff();
    for (size_t c = 0; c < d_; ++c)
        vraw[c * pt_ + row] = v_row[c];
    appended_[layer] = pos0 + 1;
    requantizeValueTail(layer, pos0, pos0 + 1);
}

void
KvCache::requantizeValueTail(size_t layer, size_t old_len, size_t new_len)
{
    // Re-quantize every channel from the last frozen block boundary
    // through the new end; completed blocks before it never change. The
    // segment is gathered from (usually one, after a batch append
    // possibly several) pages into dense scratch rows, quantized with
    // the same call a contiguous cache would make, and scattered back —
    // so the quantized state is independent of the page layout.
    const size_t period = v_quant_->blockPeriod();
    const size_t start = period > 0 ? (old_len / period) * period : 0;
    const size_t seg = new_len - start;
    scratch_in_.resize(d_ * seg);
    scratch_out_.resize(d_ * seg);

    const size_t first_page = start / pt_;
    const size_t last_page = (new_len - 1) / pt_;
    for (size_t p = first_page; p <= last_page; ++p) {
        const size_t s0 = std::max(start, p * pt_);
        const size_t s1 = std::min(new_len, (p + 1) * pt_);
        const float *vraw = slab(layer, p) + vRawOff();
        for (size_t c = 0; c < d_; ++c) {
            std::copy(vraw + c * pt_ + (s0 - p * pt_),
                      vraw + c * pt_ + (s1 - p * pt_),
                      scratch_in_.data() + c * seg + (s0 - start));
        }
    }

    v_quant_->quantizeRows(scratch_in_.data(), scratch_out_.data(), d_,
                           seg);

    for (size_t p = first_page; p <= last_page; ++p) {
        const size_t s0 = std::max(start, p * pt_);
        const size_t s1 = std::min(new_len, (p + 1) * pt_);
        float *vq = slab(layer, p) + vQuantOff();
        for (size_t c = 0; c < d_; ++c) {
            std::copy(scratch_out_.data() + c * seg + (s0 - start),
                      scratch_out_.data() + c * seg + (s1 - start),
                      vq + c * pt_ + (s0 - p * pt_));
        }
    }
}

void
KvCache::appendBatch(size_t layer, const Matrix &k, const Matrix &v)
{
    MXPLUS_CHECK(layer < n_layers_);
    MXPLUS_CHECK(k.rows() == v.rows());
    MXPLUS_CHECK(k.cols() == d_ && v.cols() == d_);
    const size_t t = k.rows();
    const size_t pos0 = appended_[layer];
    MXPLUS_CHECK_MSG(pos0 == len_,
                     "KvCache: layer appended twice before commit");
    MXPLUS_CHECK_MSG(pos0 + t <= max_seq_,
                     "KvCache: sequence exceeds the model's max_seq");
    const size_t new_len = pos0 + t;

    // Keys: quantize each token row per head along the head dimension —
    // the same [rows x head_dim] operand shape the full-sequence
    // attention feeds the quantizer, gathered head-contiguous.
    scratch_in_.resize(t * dh_);
    scratch_out_.resize(t * dh_);
    for (size_t h = 0; h < heads_; ++h) {
        const size_t c0 = h * dh_;
        for (size_t r = 0; r < t; ++r) {
            std::copy(k.row(r) + c0, k.row(r) + c0 + dh_,
                      scratch_in_.data() + r * dh_);
        }
        k_quant_->quantizeRows(scratch_in_.data(), scratch_out_.data(), t,
                               dh_);
        for (size_t r = 0; r < t; ++r) {
            float *page = slabFor(layer, pos0 + r);
            const size_t row = (pos0 + r) % pt_;
            std::copy(scratch_out_.data() + r * dh_,
                      scratch_out_.data() + (r + 1) * dh_,
                      page + kOff() + row * d_ + c0);
        }
    }

    // Values: scatter the new raw columns into their pages, then
    // re-quantize from the last frozen block boundary through the end.
    for (size_t r = 0; r < t; ++r) {
        float *vraw = slabFor(layer, pos0 + r) + vRawOff();
        const size_t row = (pos0 + r) % pt_;
        for (size_t c = 0; c < d_; ++c)
            vraw[c * pt_ + row] = v.at(r, c);
    }
    appended_[layer] = new_len;
    requantizeValueTail(layer, pos0, new_len);
}

uint32_t
KvCache::pageId(size_t layer, size_t page) const
{
    MXPLUS_CHECK(layer < n_layers_ && page < pages_[layer].size());
    return pages_[layer][page];
}

void
KvCache::adoptSharedPage(const uint32_t *page_ids)
{
    // Frozen-page precondition: a completed page only holds frozen V
    // blocks when the block period divides the page size AND block
    // structure is known at all; unknown-structure quantizers requant
    // whole rows on every append, so no page is ever immutable.
    MXPLUS_CHECK_MSG(v_quant_->blockPeriod() > 0,
                     "KvCache: cannot share pages under a quantizer "
                     "with unknown block structure");
    MXPLUS_CHECK_MSG(len_ % pt_ == 0,
                     "KvCache: shared pages map at page boundaries only");
    MXPLUS_CHECK_MSG(len_ + pt_ <= max_seq_,
                     "KvCache: sequence exceeds the model's max_seq");
    for (size_t l = 0; l < n_layers_; ++l) {
        MXPLUS_CHECK_MSG(appended_[l] == len_,
                         "KvCache: adopt mid-step (uncommitted appends)");
        MXPLUS_CHECK(pages_[l].size() == len_ / pt_);
    }
    for (size_t l = 0; l < n_layers_; ++l) {
        pool_->ref(page_ids[l]);
        pages_[l].push_back(page_ids[l]);
        appended_[l] += pt_;
    }
    len_ += pt_;
}

bool
KvCache::auditInvariants() const
{
    for (size_t l = 0; l < n_layers_; ++l) {
        if (appended_[l] < len_)
            return false;
        if (pages_[l].size() != (appended_[l] + pt_ - 1) / pt_)
            return false;
        // The cache owns a reference on every mapped page, so none of
        // them can be free in the pool while this table points at it.
        for (const uint32_t id : pages_[l]) {
            if (pool_->refCount(id) < 1)
                return false;
        }
    }
    return true;
}

void
KvCache::releaseForPreemption()
{
    for (size_t l = 0; l < n_layers_; ++l) {
        MXPLUS_CHECK_MSG(appended_[l] == len_,
                         "KvCache: preemption mid-step (uncommitted "
                         "appends)");
    }
    for (auto &table : pages_) {
        for (const uint32_t id : table)
            pool_->release(id);
        table.clear();
    }
    std::fill(appended_.begin(), appended_.end(), 0);
    len_ = 0;
}

void
KvCache::commit(size_t n_tokens)
{
    for (size_t l = 0; l < n_layers_; ++l) {
        MXPLUS_CHECK_MSG(appended_[l] == len_ + n_tokens,
                         "KvCache::commit before all layers appended");
    }
    len_ += n_tokens;
}

const float *
KvCache::regionView(size_t layer, size_t page,
                    KvPagePool::PageRegion region) const
{
    MXPLUS_CHECK(layer < n_layers_ && page < pages_[layer].size());
    const uint32_t id = pages_[layer][page];
    if (!pool_->compressionEnabled()) {
        const size_t off = region == KvPagePool::PageRegion::kKey
                               ? kOff()
                               : vQuantOff();
        const KvPagePool &pool = *pool_;
        return pool.pageData(id) + off;
    }
    const float *ptr = pool_->pageRegion(id, region, region_buf_);
    MXPLUS_CHECK_MSG(ptr != nullptr,
                     "KvCache: compressed page failed to decode — an "
                     "active request's stream must never be corrupt");
    return ptr;
}

const float *
KvCache::keyPageData(size_t layer, size_t page) const
{
    return regionView(layer, page, KvPagePool::PageRegion::kKey);
}

const float *
KvCache::valuePageData(size_t layer, size_t page) const
{
    return regionView(layer, page, KvPagePool::PageRegion::kValue);
}

} // namespace mxplus
