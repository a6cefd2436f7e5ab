/**
 * @file
 * Quantize-once MX weight storage: every weight of a linear layer kept in
 * the paper's block encoding, laid out in the tiled GEMM's B-panel order.
 *
 * A [N x K] weight (one row per output channel, blocks along K) is split
 * into kNR-wide strips of output channels. Within a strip the element
 * codes are stored depth-major, exactly as gemmTiled's packed B panel
 * holds floats: depth row kk of strip s carries the kNR codes of
 * channels s * kNR .. s * kNR + kNR - 1 at that depth, bit-packed at the
 * element width (little-endian bit order, lane j at bit j * width). A
 * block is the run of blockSize() codes of one channel along depth; its
 * E8M0 scale byte and (MX+/MX++ only) meta byte sit in per-strip arrays
 * indexed [depth block][lane]. The meta byte is the 5-bit BM index plus
 * the 3-bit MX++ NBM delta above it. MXFP4+ therefore costs
 * 4 + 8/32 + 8/32 = 4.5 bits per weight, and the B-pack of a GEMM is one
 * streaming decode of kc depth rows per strip (see kernel_dispatch.h),
 * with no transpose and no float copy of the weight.
 *
 * The blocks are MxQuantizer::encodeBlock's, so a decode is
 * bit-identical to TensorQuantizer::quantized() of the float weight.
 * Lanes past N in the last strip hold zero blocks, so they decode to the
 * panel's zero padding.
 *
 * Only block sizes that divide both K and the panel depth kKC are stored
 * (fits()): a block then never straddles a panel.
 */

#ifndef MXPLUS_MX_WEIGHT_STORE_H
#define MXPLUS_MX_WEIGHT_STORE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mx/mx_quantizer.h"
#include "tensor/tensor.h"

namespace mxplus {

/** One [N x K] weight in the panel-order MX block layout (file note). */
class MxPanelWeight
{
  public:
    /** True when @p q's blocks tile both @p k and the GEMM panel depth. */
    static bool fits(const MxQuantizer &q, size_t k);

    /** Quantize @p w once (one row of blocks at a time). */
    MxPanelWeight(const MxQuantizer &q, const Matrix &w);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    const MxQuantizer &quantizer() const { return q_; }
    /** Bits per element code (the element width: 4, 6 or 8). */
    int codeBits() const { return code_bits_; }
    /** Bytes of one depth row of a strip (kNR codes). */
    size_t rowBytes() const { return row_bytes_; }
    /** Depth blocks per strip (K / blockSize()). */
    size_t depthBlocks() const { return depth_blocks_; }

    /** Strip @p s's codes: cols() depth rows of rowBytes() each. */
    const uint8_t *
    stripCodes(size_t s) const
    {
        return codes_.data() + s * cols_ * row_bytes_;
    }
    /** Strip @p s's E8M0 scale bytes, [depthBlocks() x kNR]. */
    const uint8_t *stripScales(size_t s) const;
    /** Strip @p s's meta bytes, [depthBlocks() x kNR]; null in MX mode. */
    const uint8_t *stripMetas(size_t s) const;

    /** Storage bytes: codes, scales and metas. */
    size_t bytes() const;

    /** Code of lane @p lane in a packed depth row of @p bits-wide codes. */
    static uint32_t
    laneCode(const uint8_t *row, size_t lane, int bits)
    {
        const size_t bit = lane * static_cast<size_t>(bits);
        const uint32_t two = row[bit / 8] |
            (bit % 8 + bits > 8 ? uint32_t{row[bit / 8 + 1]} << 8 : 0u);
        return (two >> (bit % 8)) & ((1u << bits) - 1u);
    }

    /** OR @p code into lane @p lane of a zero-initialized packed row. */
    static void
    putLaneCode(uint8_t *row, size_t lane, int bits, uint32_t code)
    {
        const size_t bit = lane * static_cast<size_t>(bits);
        const uint32_t v = code << (bit % 8);
        row[bit / 8] |= static_cast<uint8_t>(v);
        if (bit % 8 + static_cast<size_t>(bits) > 8)
            row[bit / 8 + 1] |= static_cast<uint8_t>(v >> 8);
    }

  private:
    MxQuantizer q_;
    size_t rows_;
    size_t cols_;
    int code_bits_;
    size_t row_bytes_;
    size_t depth_blocks_;
    std::vector<uint8_t> codes_;
    std::vector<uint8_t> scales_;
    std::vector<uint8_t> metas_; ///< empty in Standard (MX) mode
};

/**
 * A model's linears for one MX weight configuration, each held as an
 * MxPanelWeight. Read-only once built; the model that builds it owns it.
 */
class MxWeightStore
{
  public:
    /** Encode @p weights (one at a time) with @p q. All must fit(). */
    MxWeightStore(const MxQuantizer &q,
                  const std::vector<const Matrix *> &weights);

    const MxQuantizer &quantizer() const { return q_; }
    size_t size() const { return weights_.size(); }
    const MxPanelWeight &weight(size_t i) const { return weights_.at(i); }
    /** Storage bytes over every weight. */
    size_t bytes() const;

  private:
    MxQuantizer q_;
    std::vector<MxPanelWeight> weights_;
};

} // namespace mxplus

#endif // MXPLUS_MX_WEIGHT_STORE_H
