/**
 * @file
 * Decode of the quantize-once MX weight store (mx/weight_store.h) into
 * gemmTiled's B panels, and into row-major floats for the reference GEMM.
 *
 * The store keeps each strip's codes depth-major, so one depth row of a
 * panel strip is one packed row of kNR codes: the decode streams through
 * the codes with no transpose.
 *
 * Why a float table lookup is bit-identical to MxQuantizer::decodeBlock
 * ---------------------------------------------------------------------
 * decodeBlock forms code_value * 2^e in double, where the product is
 * exact, and rounds it once to float. Every element and BM code value is
 * exact in float (at most 8 significant bits, binary exponents within
 * [-16, 16]), and every scale 2^e the store can carry (E8M0 exponent
 * -127..127 minus an MX++ delta of at most 7) is exact in float, as a
 * subnormal below 2^-126. A float multiply of the two rounds the same
 * exact product once, to the same float.
 */

#include <array>
#include <cstring>

#include "common/check.h"
#include "formats/element_format.h"
#include "kernels/kernels_internal.h"
#include "mx/weight_store.h"

#if defined(__x86_64__) || defined(__i386__)
#define MXPLUS_X86 1
#include <immintrin.h>
#else
#define MXPLUS_X86 0
#endif

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

#if MXPLUS_X86

/** Float values of every element code and every BM code of a format. */
struct DecodeTables
{
    float elem[256];
    float bm[256];
};

constexpr size_t kFormats = static_cast<size_t>(ElementFormat::INT4) + 1;

const DecodeTables &
decodeTables(ElementFormat f)
{
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

/** 2^e as float (subnormal below 2^-126); e in [-149, 127]. */
inline float
pow2f(int e)
{
    uint32_t bits = 0;
    if (e >= -126)
        bits = static_cast<uint32_t>(e + 127) << 23;
    else
        bits = 1u << (e + 149);
    float out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

/** Table lookup of 8 codes in a 16-entry table held in two registers. */
__attribute__((target("avx2"))) inline __m256
lookup16(__m256 lut0, __m256 lut1, __m256i idx)
{
    // Bit 3 of the code picks the half: shifted into the sign bit, it is
    // blendv's selector.
    const __m256 from0 = _mm256_permutevar8x32_ps(lut0, idx);
    const __m256 from1 = _mm256_permutevar8x32_ps(lut1, idx);
    const __m256 select = _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28));
    return _mm256_blendv_ps(from0, from1, select);
}

/** The kNR codes of one packed depth row, one byte each. */
template <int kBits>
__attribute__((target("avx2"))) inline __m128i
unpackRow(const uint8_t *row)
{
    if constexpr (kBits == 8) {
        const auto *p = reinterpret_cast<const __m128i *>(row);
        return _mm_loadu_si128(p);
    } else if constexpr (kBits == 4) {
        // Lane 2i is byte i's low nibble, lane 2i + 1 its high one.
        const auto *p = reinterpret_cast<const __m128i *>(row);
        const __m128i b = _mm_loadl_epi64(p);
        const __m128i nibble = _mm_set1_epi8(0x0F);
        const __m128i hi = _mm_and_si128(_mm_srli_epi16(b, 4), nibble);
        return _mm_unpacklo_epi8(_mm_and_si128(b, nibble), hi);
    } else {
        static_assert(kBits == 6, "element codes are 4, 6 or 8 bits");
        alignas(16) uint8_t codes[kNR];
        for (size_t g = 0; g < kNR / 4; ++g) {
            uint32_t v = row[3 * g];
            v |= uint32_t{row[3 * g + 1]} << 8;
            v |= uint32_t{row[3 * g + 2]} << 16;
            for (size_t i = 0; i < 4; ++i)
                codes[4 * g + i] = static_cast<uint8_t>((v >> (6 * i)) & 63u);
        }
        return _mm_load_si128(reinterpret_cast<const __m128i *>(codes));
    }
}

/**
 * Decode @p nrows packed depth rows of kNR @p kBits-wide codes into
 * kNR-float panel rows, scaling lanes 0-7 by @p s0 and 8-15 by @p s1.
 * 4-bit codes are looked up with register permutes, wider ones with
 * gathers.
 */
template <int kBits>
__attribute__((target("avx2"))) void
decodeRowsAvx2(const DecodeTables &t, const uint8_t *rows, size_t nrows,
               __m256 s0, __m256 s1, float *dst)
{
    constexpr size_t kRowBytes = kNR * kBits / 8;
    const __m256 lut0 = _mm256_loadu_ps(t.elem);
    const __m256 lut1 = _mm256_loadu_ps(t.elem + 8);
    for (size_t r = 0; r < nrows; ++r) {
        const __m128i codes = unpackRow<kBits>(rows + r * kRowBytes);
        const __m256i i0 = _mm256_cvtepu8_epi32(codes);
        const __m256i i1 = _mm256_cvtepu8_epi32(_mm_srli_si128(codes, 8));
        __m256 e0;
        __m256 e1;
        if constexpr (kBits == 4) {
            e0 = lookup16(lut0, lut1, i0);
            e1 = lookup16(lut0, lut1, i1);
        } else {
            e0 = _mm256_i32gather_ps(t.elem, i0, 4);
            e1 = _mm256_i32gather_ps(t.elem, i1, 4);
        }
        _mm256_storeu_ps(dst + r * kNR, _mm256_mul_ps(e0, s0));
        _mm256_storeu_ps(dst + r * kNR + 8, _mm256_mul_ps(e1, s1));
    }
}

#endif // MXPLUS_X86

} // namespace

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
                const uint8_t sc = scales[b * kNR + lane];
                if (plus && sc == E8M0::kZeroBlock) {
                    nbm[lane] = full[lane] = 0.0f;
                    continue;
                }
                const int e = E8M0::decode(sc);
                const int delta = plus ? metas[b * kNR + lane] >> 5 : 0;
                full[lane] = pow2f(e);
                nbm[lane] = pow2f(e - delta);
            }
            const __m256 s0 = _mm256_load_ps(nbm);
            const __m256 s1 = _mm256_load_ps(nbm + 8);
            const uint8_t *rows = codes + b * bs * rb;
            float *dst = strip + (b * bs - pc) * kNR;
            if (bits == 4)
                decodeRowsAvx2<4>(t, rows, bs, s0, s1, dst);
            else if (bits == 6)
                decodeRowsAvx2<6>(t, rows, bs, s0, s1, dst);
            else
                decodeRowsAvx2<8>(t, rows, bs, s0, s1, dst);
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
