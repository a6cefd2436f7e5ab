// The dense MX page codec: frozen K/V floats stored as MX blocks (see
// the "Dense MX pages" note and the stream layout in page_codec.h).

#include <algorithm>
#include <cmath>
#include <cstring>

#include "codec/page_codec.h"
#include "formats/element_format.h"
#include "formats/scale.h"
#include "kernels/kernels_internal.h"
#include "kernels/quantize_fused.h"
#include "mx/mx_quantizer.h"
#include "mx/weight_store.h"

namespace mxplus {
namespace {

constexpr uint8_t kDenseVersion = 0xD1;
constexpr size_t kHeaderBytes = 8;
/** Scale byte of a block stored raw: E8M0's NaN, never encoded. */
constexpr uint8_t kRawBlock = E8M0::kNaN;

bool
isNegativeZero(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u == 0x80000000u;
}

class DenseMxCodec final : public PageCodec {
  public:
    DenseMxCodec(const MxQuantizer &q, bool simd)
        : q_(q), simd_(simd), bs_(static_cast<size_t>(q.blockSize())),
          bits_(elementFormatInfo(q.format()).bits),
          plus_(q.mode() != MxMode::Standard),
          float_elems_(elementFormatInfo(q.format()).is_float)
    {
    }

    const char *name() const override
    {
        return simd_ ? "dense-simd" : "dense-reference";
    }

    size_t encode(const float *in, size_t n,
                  std::vector<uint8_t> &out) const override;
    bool decode(const uint8_t *in, size_t size, float *out,
                size_t n) const override;

  private:
    /** Bytes of the code area of @p blocks whole blocks. */
    size_t codeBytes(size_t blocks) const
    {
        return (blocks * bs_ * static_cast<size_t>(bits_) + 7) / 8;
    }
    void putHeader(size_t n, uint8_t *h) const;
    void signNegativeZeros(MxBlock &blk, const float *in) const;
    bool decodesTo(MxBlock &blk, const float *in) const;
    bool settle(MxBlock &blk, const float *in) const;

    MxQuantizer q_;
    bool simd_;
    size_t bs_;
    int bits_;
    bool plus_;
    bool float_elems_;
};

void
DenseMxCodec::putHeader(size_t n, uint8_t *h) const
{
    h[0] = kDenseVersion;
    h[1] = static_cast<uint8_t>(q_.format());
    h[2] = static_cast<uint8_t>(q_.mode());
    h[3] = static_cast<uint8_t>(bs_);
    const uint32_t n32 = static_cast<uint32_t>(n);
    for (size_t i = 0; i < 4; ++i)
        h[4 + i] = static_cast<uint8_t>(n32 >> (8 * i));
}

/**
 * Gives each -0.0 element of a float format the sign bit on its +0 code
 * (integer formats have no -0 code).
 */
void
DenseMxCodec::signNegativeZeros(MxBlock &blk, const float *in) const
{
    if (!float_elems_)
        return;
    for (size_t i = 0; i < bs_; ++i) {
        if (isNegativeZero(in[i]) && !(plus_ && i == blk.bm_index))
            blk.codes[i] |= 1u << (bits_ - 1);
    }
}

/** signNegativeZeros, then whether @p blk decodes to @p in exactly. */
bool
DenseMxCodec::decodesTo(MxBlock &blk, const float *in) const
{
    signNegativeZeros(blk, in);
    float vals[kMxMaxBlockSize];
    q_.decodeBlock(blk, vals, static_cast<int>(bs_));
    return std::memcmp(vals, in, bs_ * sizeof(float)) == 0;
}

/**
 * Re-encodes a block @p blk that does not decode to @p in so that it
 * does, retrying each other slot as the MX+/MX++ BM (largest magnitude
 * first) at the same scale and delta, and under MX++ also at the next
 * finer NBM scale: a quantized NBM that rounded up to a power of two
 * raises the delta encodeBlock derives. False when no encoding decodes
 * exactly: the block is then stored raw.
 */
bool
DenseMxCodec::settle(MxBlock &blk, const float *in) const
{
    if (!plus_ || blk.scale_code == E8M0::kZeroBlock)
        return false;
    const MxBlock first = blk;
    int order[kMxMaxBlockSize];
    for (size_t i = 0; i < bs_; ++i)
        order[i] = static_cast<int>(i);
    std::stable_sort(order, order + bs_, [&](int a, int b) {
        return std::fabs(in[a]) > std::fabs(in[b]);
    });
    const int deltas = q_.mode() == MxMode::PlusPlus && first.nbm_delta < 7
                           ? 2
                           : 1;
    for (int d = 0; d < deltas; ++d) {
        const auto delta = static_cast<uint8_t>(first.nbm_delta + d);
        for (size_t k = 0; k < bs_; ++k) {
            if (d == 0 && order[k] == first.bm_index)
                continue;
            blk = q_.encodeBlockAt(in, static_cast<int>(bs_),
                                   first.scale_code, order[k], delta);
            if (decodesTo(blk, in))
                return true;
        }
    }
    return false;
}

size_t
DenseMxCodec::encode(const float *in, size_t n,
                     std::vector<uint8_t> &out) const
{
    const size_t nb = n / bs_;
    const size_t meta_bytes = plus_ ? nb : 0;
    out.assign(kHeaderBytes + nb + meta_bytes + codeBytes(nb), 0);
    putHeader(n, out.data());
    uint8_t *scales = out.data() + kHeaderBytes;
    uint8_t *metas = scales + nb;
    uint8_t *codes = metas + meta_bytes;
    kernels::MxBlockRun run;
    run.scales = scales;
    run.metas = plus_ ? metas : nullptr;
    run.codes = codes;
    run.blocks = nb;

    // The encoder needs finite input: a block holding Inf or NaN is
    // encoded as zeros and stored raw.
    std::vector<float> finite;
    for (size_t b = 0; b < nb; ++b) {
        const float *blk = in + b * bs_;
        if (std::all_of(blk, blk + bs_,
                        [](float v) { return std::isfinite(v); }))
            continue;
        if (finite.empty())
            finite.assign(in, in + nb * bs_);
        std::fill(finite.begin() + b * bs_, finite.begin() + (b + 1) * bs_,
                  0.0f);
        scales[b] = kRawBlock;
    }
    std::vector<MxBlock> blocks(nb);
    if (nb > 0) {
        kernels::fusedEncodeRow(q_, finite.empty() ? in : finite.data(),
                                nb * bs_, blocks.data());
    }
    const auto pack = [&] {
        std::fill(codes, codes + codeBytes(nb), 0);
        for (size_t b = 0; b < nb; ++b) {
            const MxBlock &blk = blocks[b];
            const bool raw = scales[b] == kRawBlock;
            if (plus_) {
                metas[b] = raw ? 0
                               : static_cast<uint8_t>(blk.bm_index |
                                                      blk.nbm_delta << 5);
            }
            if (raw)
                continue;
            scales[b] = blk.scale_code;
            for (size_t i = 0; i < bs_; ++i) {
                MxPanelWeight::putLaneCode(codes, b * bs_ + i, bits_,
                                           blk.codes[i]);
            }
        }
    };

    // Check every block with the table-lookup decode (both decodes give
    // the same floats, so the stream does not depend on the backend);
    // only blocks that do not decode exactly take settle()'s slow path.
    for (size_t b = 0; b < nb; ++b) {
        if (scales[b] != kRawBlock)
            signNegativeZeros(blocks[b], in + b * bs_);
    }
    pack();
    std::vector<float> check(nb * bs_);
    kernels::decodeBlocksAvx2(q_, run, check.data());
    bool settled = false;
    for (size_t b = 0; b < nb; ++b) {
        if (scales[b] == kRawBlock ||
            std::memcmp(check.data() + b * bs_, in + b * bs_,
                        bs_ * sizeof(float)) == 0)
            continue;
        settled = true;
        if (!settle(blocks[b], in + b * bs_))
            scales[b] = kRawBlock;
    }
    if (settled)
        pack();

    size_t raw_blocks = 0;
    for (size_t b = 0; b < nb; ++b)
        raw_blocks += scales[b] == kRawBlock ? 1 : 0;
    const size_t fixed = out.size();
    out.resize(fixed + (raw_blocks * bs_ + n % bs_) * sizeof(float));
    scales = out.data() + kHeaderBytes; // resize may have moved it
    uint8_t *raw = out.data() + fixed;
    for (size_t b = 0; b < nb; ++b) {
        if (scales[b] != kRawBlock)
            continue;
        std::memcpy(raw, in + b * bs_, bs_ * sizeof(float));
        raw += bs_ * sizeof(float);
    }
    if (n % bs_ != 0)
        std::memcpy(raw, in + nb * bs_, (n % bs_) * sizeof(float));
    return out.size();
}

bool
DenseMxCodec::decode(const uint8_t *in, size_t size, float *out,
                     size_t n) const
{
    uint8_t header[kHeaderBytes];
    putHeader(n, header);
    if (size < kHeaderBytes || std::memcmp(in, header, kHeaderBytes) != 0 ||
        n > UINT32_MAX)
        return false;
    const size_t nb = n / bs_;
    const size_t fixed =
        kHeaderBytes + nb + (plus_ ? nb : 0) + codeBytes(nb);
    if (size < fixed)
        return false;
    kernels::MxBlockRun run;
    run.scales = in + kHeaderBytes;
    run.metas = plus_ ? run.scales + nb : nullptr;
    run.codes = in + fixed - codeBytes(nb);
    run.blocks = nb;
    size_t raw_blocks = 0;
    for (size_t b = 0; b < nb; ++b) {
        if (run.scales[b] == kRawBlock)
            ++raw_blocks;
        else if (plus_ && (run.metas[b] & 31u) >= bs_)
            return false; // BM slot outside the block
    }
    if (size != fixed + (raw_blocks * bs_ + n % bs_) * sizeof(float))
        return false; // truncated or trailing bytes

    if (simd_)
        kernels::decodeBlocksAvx2(q_, run, out);
    else
        kernels::decodeBlocksReference(q_, run, out);
    const uint8_t *raw = in + fixed;
    for (size_t b = 0; b < nb; ++b) {
        if (run.scales[b] != kRawBlock)
            continue;
        std::memcpy(out + b * bs_, raw, bs_ * sizeof(float));
        raw += bs_ * sizeof(float);
    }
    if (n % bs_ != 0)
        std::memcpy(out + nb * bs_, raw, (n % bs_) * sizeof(float));
    return true;
}

} // namespace

std::unique_ptr<const PageCodec>
makeDenseMxCodec(const MxQuantizer &q, bool simd_decode)
{
    return std::make_unique<DenseMxCodec>(q, simd_decode);
}

} // namespace mxplus
