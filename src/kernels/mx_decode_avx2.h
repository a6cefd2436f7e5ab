/**
 * @file
 * The AVX2 float table lookup that decodes packed MX element codes,
 * shared by the weight store's panel decode (weight_decode.cpp) and the
 * dense page decode (block_decode.cpp). Internal to src/kernels.
 *
 * Why a float table lookup is bit-identical to MxQuantizer::decodeBlock
 * ---------------------------------------------------------------------
 * decodeBlock forms code_value * 2^e in double, where the product is
 * exact, and rounds it once to float. Every element and BM code value is
 * exact in float (at most 8 significant bits, binary exponents within
 * [-16, 16]), and every scale 2^e a block can carry (E8M0 exponent
 * -127..127 minus an MX++ delta of at most 7) is exact in float, as a
 * subnormal below 2^-126. A float multiply of the two rounds the same
 * exact product once, to the same float.
 */

#ifndef MXPLUS_KERNELS_MX_DECODE_AVX2_H
#define MXPLUS_KERNELS_MX_DECODE_AVX2_H

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "formats/element_format.h"
#include "formats/scale.h"
#include "kernels/kernels_internal.h"

#if defined(__x86_64__) || defined(__i386__)
#define MXPLUS_X86 1
#include <immintrin.h>
#else
#define MXPLUS_X86 0
#endif

namespace mxplus::kernels {

/** Float values of every element code and every BM code of a format. */
struct DecodeTables
{
    float elem[256];
    float bm[256];
};

/** The tables of format @p f (built once, read-only after). */
const DecodeTables &decodeTables(ElementFormat f);

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

/**
 * A block's two scales from its E8M0 byte @p sc and meta byte @p meta:
 * @p nbm = 2^(e - delta) for the element codes, @p full = 2^e for the
 * MX+/MX++ BM slot. Both are 0 for an MX+/MX++ zero block.
 */
inline void
blockScales(uint8_t sc, uint8_t meta, bool plus, float *nbm, float *full)
{
    if (plus && sc == E8M0::kZeroBlock) {
        *nbm = *full = 0.0f;
        return;
    }
    const int e = E8M0::decode(sc);
    *full = pow2f(e);
    *nbm = pow2f(e - (plus ? meta >> 5 : 0));
}

#if MXPLUS_X86

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

/** The kNR codes of one packed row, one byte each. */
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
 * Decode @p nrows packed rows of kNR @p kBits-wide codes into kNR-float
 * rows, scaling lanes 0-7 by @p s0 and 8-15 by @p s1. 4-bit codes are
 * looked up with register permutes, wider ones with gathers.
 */
template <int kBits>
__attribute__((target("avx2"))) inline void
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

/** decodeRowsAvx2 at a run-time code width (4, 6 or 8). */
__attribute__((target("avx2"))) inline void
decodeRowsAvx2(int bits, const DecodeTables &t, const uint8_t *rows,
               size_t nrows, __m256 s0, __m256 s1, float *dst)
{
    if (bits == 4)
        decodeRowsAvx2<4>(t, rows, nrows, s0, s1, dst);
    else if (bits == 6)
        decodeRowsAvx2<6>(t, rows, nrows, s0, s1, dst);
    else
        decodeRowsAvx2<8>(t, rows, nrows, s0, s1, dst);
}

#endif // MXPLUS_X86

} // namespace mxplus::kernels

#endif // MXPLUS_KERNELS_MX_DECODE_AVX2_H
