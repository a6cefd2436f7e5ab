/**
 * @file
 * Decode of the quantize-once MX weight store (mx/weight_store.h) into
 * gemmTiled's B panels, and into row-major floats for the reference GEMM.
 *
 * The store keeps each strip's codes depth-major, so one depth row of a
 * panel strip is one packed row of kNR codes: the decode streams through
 * the codes with no transpose.
 *
 * Blocks decode through the float table lookup of mx_decode_avx2.h (its
 * file note says why that is bit-identical to MxQuantizer::decodeBlock).
 */

#include <array>

#include "common/check.h"
#include "formats/element_format.h"
#include "kernels/mx_decode_avx2.h"
#include "mx/weight_store.h"

namespace mxplus::kernels {

namespace {

constexpr auto laneCode = &MxPanelWeight::laneCode;

/** The block (depth block @p b, lane @p lane) of a strip, as an MxBlock. */
MxBlock
gatherBlock(const MxPanelWeight &w, size_t strip, size_t b, size_t lane)
{
    const size_t bs = static_cast<size_t>(w.quantizer().blockSize());
    const int bits = w.codeBits();
    const size_t rb = w.rowBytes();
    const uint8_t *metas = w.stripMetas(strip);
    MxBlock blk;
    blk.n = static_cast<int>(bs);
    blk.scale_code = w.stripScales(strip)[b * kNR + lane];
    if (metas != nullptr) {
        blk.bm_index = metas[b * kNR + lane] & 31u;
        blk.nbm_delta = static_cast<uint8_t>(metas[b * kNR + lane] >> 5);
    }
    const uint8_t *rows = w.stripCodes(strip) + b * bs * rb;
    for (size_t i = 0; i < bs; ++i)
        blk.codes[i] = laneCode(rows + i * rb, lane, bits);
    return blk;
}

} // namespace

const DecodeTables &
decodeTables(ElementFormat f)
{
    constexpr size_t kFormats = static_cast<size_t>(ElementFormat::INT4) + 1;
    static const std::array<DecodeTables, kFormats> tables = [] {
        std::array<DecodeTables, kFormats> t{};
        for (size_t i = 0; i < kFormats; ++i) {
            const auto fmt = static_cast<ElementFormat>(i);
            const ElementFormatInfo &info = elementFormatInfo(fmt);
            const uint32_t codes = 1u << info.bits;
            const int32_t offset = 1 << (info.bits - 1);
            for (uint32_t c = 0; c < codes; ++c) {
                const int32_t raw = static_cast<int32_t>(c) - offset;
                double v = 0.0;
                if (info.is_float)
                    v = elementMinifloat(fmt).decode(c);
                else
                    v = elementFixedPoint(fmt).decode(raw);
                t[i].elem[c] = static_cast<float>(v);
                t[i].bm[c] = static_cast<float>(bmCodec(fmt).decode(c));
            }
        }
        return t;
    }();
    return tables[static_cast<size_t>(f)];
}

void
decodePanelReference(const MxPanelWeight &w, float *panel, size_t pc,
                     size_t kc, size_t jc, size_t nc)
{
    const MxQuantizer &q = w.quantizer();
    const size_t bs = static_cast<size_t>(q.blockSize());
    MXPLUS_CHECK(pc % bs == 0 && kc % bs == 0 && jc % kNR == 0);
    float vals[kMxMaxBlockSize];
    for (size_t s = 0; s * kNR < nc; ++s) {
        float *strip = panel + s * kc * kNR;
        for (size_t b = pc / bs; b < (pc + kc) / bs; ++b) {
            for (size_t lane = 0; lane < kNR; ++lane) {
                const MxBlock blk = gatherBlock(w, jc / kNR + s, b, lane);
                q.decodeBlock(blk, vals, static_cast<int>(bs));
                for (size_t i = 0; i < bs; ++i)
                    strip[(b * bs + i - pc) * kNR + lane] = vals[i];
            }
        }
    }
}

void
decodeRowsReference(const MxPanelWeight &w, float *out)
{
    const MxQuantizer &q = w.quantizer();
    const size_t bs = static_cast<size_t>(q.blockSize());
    const size_t k = w.cols();
    for (size_t n = 0; n < w.rows(); ++n) {
        for (size_t b = 0; b < w.depthBlocks(); ++b) {
            const MxBlock blk = gatherBlock(w, n / kNR, b, n % kNR);
            q.decodeBlock(blk, out + n * k + b * bs, static_cast<int>(bs));
        }
    }
}

#if MXPLUS_X86

__attribute__((target("avx2"))) void
decodePanelAvx2(const MxPanelWeight &w, float *panel, size_t pc, size_t kc,
                size_t jc, size_t nc)
{
    const MxQuantizer &q = w.quantizer();
    const size_t bs = static_cast<size_t>(q.blockSize());
    MXPLUS_CHECK(pc % bs == 0 && kc % bs == 0 && jc % kNR == 0);
    const DecodeTables &t = decodeTables(q.format());
    const int bits = w.codeBits();
    const size_t rb = w.rowBytes();
    const bool plus = q.mode() != MxMode::Standard;
    // Per-lane scales of the current depth block: the element codes'
    // 2^(e - delta), and the block's own 2^e that the BM slot uses;
    // both 0 for an MX+ zero block.
    alignas(32) float nbm[kNR];
    alignas(32) float full[kNR];
    for (size_t s = 0; s * kNR < nc; ++s) {
        const size_t strip_id = jc / kNR + s;
        const uint8_t *codes = w.stripCodes(strip_id);
        const uint8_t *scales = w.stripScales(strip_id);
        const uint8_t *metas = w.stripMetas(strip_id);
        float *strip = panel + s * kc * kNR;
        for (size_t b = pc / bs; b < (pc + kc) / bs; ++b) {
            for (size_t lane = 0; lane < kNR; ++lane) {
                blockScales(scales[b * kNR + lane],
                            plus ? metas[b * kNR + lane] : 0, plus,
                            &nbm[lane], &full[lane]);
            }
            const __m256 s0 = _mm256_load_ps(nbm);
            const __m256 s1 = _mm256_load_ps(nbm + 8);
            const uint8_t *rows = codes + b * bs * rb;
            float *dst = strip + (b * bs - pc) * kNR;
            decodeRowsAvx2(bits, t, rows, bs, s0, s1, dst);
            if (!plus)
                continue;
            // MX+/MX++: each non-zero block's BM slot carries a BM code
            // at the full block scale.
            for (size_t lane = 0; lane < kNR; ++lane) {
                if (full[lane] == 0.0f)
                    continue;
                const size_t bm = metas[b * kNR + lane] & 31u;
                const uint32_t code = laneCode(rows + bm * rb, lane, bits);
                dst[bm * kNR + lane] = t.bm[code] * full[lane];
            }
        }
    }
}

#else

void
decodePanelAvx2(const MxPanelWeight &w, float *panel, size_t pc, size_t kc,
                size_t jc, size_t nc)
{
    decodePanelReference(w, panel, pc, kc, jc, nc);
}

#endif // MXPLUS_X86

} // namespace mxplus::kernels
