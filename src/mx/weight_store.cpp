#include "mx/weight_store.h"

#include "common/check.h"
#include "formats/element_format.h"
#include "kernels/kernels_internal.h"
#include "kernels/quantize_fused.h"

namespace mxplus {

using kernels::kNR;

bool
MxPanelWeight::fits(const MxQuantizer &q, size_t k)
{
    const size_t bs = static_cast<size_t>(q.blockSize());
    return k > 0 && k % bs == 0 && kernels::kKC % bs == 0;
}

MxPanelWeight::MxPanelWeight(const MxQuantizer &q, const Matrix &w)
    : q_(q), rows_(w.rows()), cols_(w.cols()),
      code_bits_(elementFormatInfo(q.format()).bits),
      row_bytes_(kNR * static_cast<size_t>(code_bits_) / 8),
      depth_blocks_(w.cols() / static_cast<size_t>(q.blockSize()))
{
    MXPLUS_CHECK_MSG(fits(q, cols_),
                     "weight store: the block size must divide K and the "
                     "GEMM panel depth");
    const size_t bs = static_cast<size_t>(q.blockSize());
    const size_t strips = (rows_ + kNR - 1) / kNR;
    const bool plus = q.mode() != MxMode::Standard;
    codes_.assign(strips * cols_ * row_bytes_, 0);
    scales_.assign(strips * depth_blocks_ * kNR, 0);
    if (plus)
        metas_.assign(scales_.size(), 0);

    // Lanes past N encode a zero row: zero blocks, which decode to the
    // panel's zero padding.
    const std::vector<float> zero_row(cols_, 0.0f);
    std::vector<MxBlock> blocks(depth_blocks_);
    for (size_t n = 0; n < strips * kNR; ++n) {
        const size_t s = n / kNR;
        const size_t lane = n % kNR;
        kernels::fusedEncodeRow(q, n < rows_ ? w.row(n) : zero_row.data(),
                                cols_, blocks.data());
        uint8_t *codes = codes_.data() + s * cols_ * row_bytes_;
        const size_t meta0 = s * depth_blocks_ * kNR + lane;
        for (size_t b = 0; b < depth_blocks_; ++b) {
            const MxBlock &blk = blocks[b];
            scales_[meta0 + b * kNR] = blk.scale_code;
            if (plus) {
                metas_[meta0 + b * kNR] = static_cast<uint8_t>(
                    blk.bm_index | blk.nbm_delta << 5);
            }
            for (size_t i = 0; i < bs; ++i) {
                putLaneCode(codes + (b * bs + i) * row_bytes_, lane,
                            code_bits_, blk.codes[i]);
            }
        }
    }
}

const uint8_t *
MxPanelWeight::stripScales(size_t s) const
{
    return scales_.data() + s * depth_blocks_ * kNR;
}

const uint8_t *
MxPanelWeight::stripMetas(size_t s) const
{
    return metas_.empty() ? nullptr
                          : metas_.data() + s * depth_blocks_ * kNR;
}

size_t
MxPanelWeight::bytes() const
{
    return codes_.size() + scales_.size() + metas_.size();
}

MxWeightStore::MxWeightStore(const MxQuantizer &q,
                             const std::vector<const Matrix *> &weights)
    : q_(q)
{
    weights_.reserve(weights.size());
    for (const Matrix *w : weights)
        weights_.emplace_back(q, *w);
}

size_t
MxWeightStore::bytes() const
{
    size_t total = 0;
    for (const MxPanelWeight &w : weights_)
        total += w.bytes();
    return total;
}

} // namespace mxplus
