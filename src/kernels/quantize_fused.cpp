/**
 * @file
 * Fused block quantization: per-block amax / shared-exponent / element
 * rounding in one sweep, vectorized with AVX2 where available.
 *
 * The scalar MxQuantizer chain scans every block up to three times
 * (bmIndex is recomputed by sharedExp and isZeroBlock) and rounds each
 * element through double-precision codec calls. This engine computes the
 * block statistics once and rounds elements in float SIMD lanes.
 *
 * Why the float path is bit-identical to the double reference
 * ----------------------------------------------------------
 * The reference computes q = RNE(|x|/scale / step) * step with scale and
 * step exact powers of two, in double, where every intermediate is exact.
 * In float, x * 2^-se is exact whenever the product is a normal float
 * (power-of-two scaling preserves the mantissa); products that underflow
 * below 2^-126 sit many binades under the smallest grid midpoint
 * 2^(emin-mbits-1) and round to zero on the grid either way. The grid
 * scalings by 2^(e-mbits) are likewise exact, _mm256_round_ps /
 * nearbyintf implement the same round-to-nearest-even, and the final
 * rescaling by 2^se is exact because every grid value carries at most
 * mbits+1 significant bits. Blocks whose shared exponent falls outside
 * [-125, 125] (where 2^se or its reciprocal would leave the float normal
 * range) fall back to the scalar reference path, as do non-finite inputs
 * and block sizes that are not a multiple of 8. test_kernels.cpp asserts
 * the resulting bit-exactness across formats, modes and magnitudes.
 */

#include "kernels/quantize_fused.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bits.h"
#include "common/check.h"
#include "formats/element_format.h"
#include "kernels/kernel_dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#define MXPLUS_X86 1
#include <immintrin.h>
#else
#define MXPLUS_X86 0
#endif

namespace mxplus::kernels {

namespace {

/** 2^e as float; caller guarantees e in [-126, 127]. */
inline float
p2f(int e)
{
    uint32_t bits = static_cast<uint32_t>(e + 127) << 23;
    float out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

inline uint32_t
floatBits(float v)
{
    uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

inline float
bitsFloat(uint32_t b)
{
    float v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

/** Element-grid parameters captured once per quantizer. */
struct ElemGrid
{
    bool is_float = true;
    // Minifloat grid.
    int mbits = 0;
    int emin = 0;
    float max_normal = 0.0f;
    // Fixed-point grid.
    int frac = 0;
    float int_lo = 0.0f; ///< -2^(bits-1), in integer units
    float int_hi = 0.0f; ///< 2^(bits-1) - 1, in integer units

    // Encoding-only fields.
    int ebits = 0;
    int bias = 0;
    int int_bits = 0;

    explicit ElemGrid(ElementFormat f)
    {
        const auto &info = elementFormatInfo(f);
        is_float = info.is_float;
        if (is_float) {
            const Minifloat &mf = elementMinifloat(f);
            mbits = mf.mbits();
            emin = mf.emin();
            max_normal = static_cast<float>(mf.maxNormal());
            ebits = mf.ebits();
            bias = mf.bias();
        } else {
            const FixedPointCodec &fp = elementFixedPoint(f);
            frac = fp.fracBits();
            int_lo = -static_cast<float>(1 << (fp.bits() - 1));
            int_hi = static_cast<float>((1 << (fp.bits() - 1)) - 1);
            int_bits = fp.bits();
        }
    }
};

/**
 * Extract the bit code of an already-quantized scaled grid value (the
 * exact output of quantizeSpan with scale = 1) of input @p x. Field
 * extraction on an exact grid float reproduces MxQuantizer::encodeBlock
 * bit-for-bit: the mantissa's low 23-mbits bits are zero by
 * construction. The sign comes from the input: a nonzero input keeps
 * it even where it quantizes to zero, and an exact zero of either sign
 * takes the +0 code.
 */
inline uint32_t
encodeFromGrid(float qv, float x, const ElemGrid &g)
{
    const uint32_t b = floatBits(qv);
    if (g.is_float) {
        const uint32_t sign = x == 0.0f ? 0u : floatBits(x) >> 31;
        const float aq = bitsFloat(b & 0x7FFFFFFFu);
        const uint32_t sign_shifted =
            sign << (g.ebits + g.mbits);
        if (aq == 0.0f)
            return sign_shifted;
        const int e = static_cast<int>((b >> 23) & 0xFFu) - 127;
        uint32_t exp_field;
        uint32_t man_field;
        if (e < g.emin) {
            exp_field = 0;
            man_field =
                static_cast<uint32_t>(aq * p2f(g.mbits - g.emin));
        } else {
            exp_field = static_cast<uint32_t>(e + g.bias);
            man_field = (b >> (23 - g.mbits)) & lowMask(g.mbits);
        }
        return sign_shifted | (exp_field << g.mbits) | man_field;
    }
    // qv = m * 2^-frac exactly with |m| < 2^(bits-1); recover the two's-
    // complement integer and offset it into unsigned space (MxBlock code
    // convention).
    const int32_t m = static_cast<int32_t>(lrintf(qv * p2f(g.frac)));
    return static_cast<uint32_t>(m + (1 << (g.int_bits - 1)));
}

/** Scalar single-element quantize on the minifloat grid (see file note). */
inline float
quantizeOneFloat(float x, float inv_scale, float scale, const ElemGrid &g)
{
    // Exact-zero inputs produce +0.0 (Minifloat::quantize returns 0.0
    // before the copysign); nonzero inputs that round to zero keep their
    // sign via the copysign path below, matching the reference bit-for-bit.
    if (x == 0.0f)
        return 0.0f;
    const float scaled = x * inv_scale;
    const uint32_t b = floatBits(scaled);
    int e = static_cast<int>((b >> 23) & 0xFFu) - 127;
    if (e < g.emin)
        e = g.emin;
    const float step = p2f(e - g.mbits);
    const float inv_step = p2f(g.mbits - e);
    const float as = bitsFloat(b & 0x7FFFFFFFu);
    float q = nearbyintf(as * inv_step) * step;
    if (q > g.max_normal)
        q = g.max_normal;
    return bitsFloat(floatBits(q) | (b & 0x80000000u)) * scale;
}

/** Scalar single-element quantize on the fixed-point grid. */
inline float
quantizeOneInt(float x, float inv_scale, float scale, const ElemGrid &g)
{
    const float scaled = x * inv_scale;
    float m = nearbyintf(scaled * p2f(g.frac));
    m = std::min(std::max(m, g.int_lo), g.int_hi);
    // + 0.0f turns -0.0 into +0.0: FixedPointCodec::quantize decodes an
    // integer 0 and never produces a signed zero.
    return (m * p2f(-g.frac)) * scale + 0.0f;
}

void
quantizeSpanScalar(const float *in, float *out, int n, float inv_scale,
                   float scale, const ElemGrid &g)
{
    if (g.is_float) {
        for (int i = 0; i < n; ++i)
            out[i] = quantizeOneFloat(in[i], inv_scale, scale, g);
    } else {
        for (int i = 0; i < n; ++i)
            out[i] = quantizeOneInt(in[i], inv_scale, scale, g);
    }
}

/** amax + finiteness of a block, scalar. */
inline void
amaxSweepScalar(const float *in, int n, float *amax_out, bool *finite_out)
{
    float amax = 0.0f;
    uint32_t exp_or = 0;
    bool bad = false;
    for (int i = 0; i < n; ++i) {
        const uint32_t b = floatBits(in[i]);
        const uint32_t expf = b & 0x7F800000u;
        bad = bad || expf == 0x7F800000u;
        exp_or |= expf;
        const float av = bitsFloat(b & 0x7FFFFFFFu);
        if (av > amax)
            amax = av;
    }
    (void)exp_or;
    *amax_out = amax;
    *finite_out = !bad;
}

#if MXPLUS_X86

__attribute__((target("avx2"))) void
amaxSweepAvx2(const float *in, int n, float *amax_out, bool *finite_out)
{
    const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    const __m256i exp_mask = _mm256_set1_epi32(0x7F800000);
    __m256 mx = _mm256_setzero_ps();
    __m256i bad = _mm256_setzero_si256();
    for (int i = 0; i < n; i += 8) {
        const __m256 v = _mm256_loadu_ps(in + i);
        const __m256i b = _mm256_castps_si256(v);
        bad = _mm256_or_si256(
            bad, _mm256_cmpeq_epi32(_mm256_and_si256(b, exp_mask),
                                    exp_mask));
        mx = _mm256_max_ps(mx, _mm256_and_ps(v, abs_mask));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, mx);
    float amax = lanes[0];
    for (int i = 1; i < 8; ++i)
        amax = std::max(amax, lanes[i]);
    *amax_out = amax;
    *finite_out = _mm256_testz_si256(bad, bad) != 0;
}

__attribute__((target("avx2,fma"))) void
quantizeSpanFloatAvx2(const float *in, float *out, int n, float inv_scale,
                      float scale, int mbits, int emin, float max_normal)
{
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vmax = _mm256_set1_ps(max_normal);
    const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    const __m256 sign_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(0x80000000u)));
    const __m256i vemin = _mm256_set1_epi32(emin);
    const __m256i vmb127 = _mm256_set1_epi32(127 - mbits);
    const __m256i vmb127i = _mm256_set1_epi32(127 + mbits);
    for (int i = 0; i < n; i += 8) {
        const __m256 v = _mm256_loadu_ps(in + i);
        const __m256 scaled = _mm256_mul_ps(v, vinv);
        const __m256i bits = _mm256_castps_si256(scaled);
        __m256i e = _mm256_sub_epi32(
            _mm256_srli_epi32(_mm256_slli_epi32(bits, 1), 24),
            _mm256_set1_epi32(127));
        e = _mm256_max_epi32(e, vemin);
        // step = 2^(e - mbits), inv_step = 2^(mbits - e): exponent-field
        // assembly; e is clamped so both stay in the normal float range.
        const __m256 step = _mm256_castsi256_ps(
            _mm256_slli_epi32(_mm256_add_epi32(e, vmb127), 23));
        const __m256 inv_step = _mm256_castsi256_ps(
            _mm256_slli_epi32(_mm256_sub_epi32(vmb127i, e), 23));
        const __m256 as = _mm256_and_ps(scaled, abs_mask);
        __m256 q = _mm256_mul_ps(
            _mm256_round_ps(_mm256_mul_ps(as, inv_step),
                            _MM_FROUND_TO_NEAREST_INT |
                                _MM_FROUND_NO_EXC),
            step);
        q = _mm256_min_ps(q, vmax);
        q = _mm256_or_ps(q, _mm256_and_ps(scaled, sign_mask));
        __m256 res = _mm256_mul_ps(q, vscale);
        // Exact-zero input lanes must yield +0.0 (see quantizeOneFloat).
        res = _mm256_andnot_ps(
            _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_EQ_OQ), res);
        _mm256_storeu_ps(out + i, res);
    }
}

__attribute__((target("avx2,fma"))) void
quantizeSpanIntAvx2(const float *in, float *out, int n, float inv_scale,
                    float scale, int frac, float lo, float hi)
{
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vstep = _mm256_set1_ps(p2f(-frac));
    const __m256 vistep = _mm256_set1_ps(p2f(frac));
    const __m256 vlo = _mm256_set1_ps(lo);
    const __m256 vhi = _mm256_set1_ps(hi);
    for (int i = 0; i < n; i += 8) {
        const __m256 scaled = _mm256_mul_ps(_mm256_loadu_ps(in + i), vinv);
        __m256 m = _mm256_round_ps(_mm256_mul_ps(scaled, vistep),
                                   _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
        m = _mm256_min_ps(_mm256_max_ps(m, vlo), vhi);
        // + 0.0 turns -0.0 lanes into +0.0 (see quantizeOneInt).
        _mm256_storeu_ps(
            out + i,
            _mm256_add_ps(
                _mm256_mul_ps(_mm256_mul_ps(m, vstep), vscale),
                _mm256_setzero_ps()));
    }
}

#endif // MXPLUS_X86

inline void
amaxSweep(const float *in, int n, float *amax, bool *finite, bool avx2_ok)
{
#if MXPLUS_X86
    if (avx2_ok && n % 8 == 0 && n >= 8) {
        amaxSweepAvx2(in, n, amax, finite);
        return;
    }
#else
    (void)avx2_ok;
#endif
    amaxSweepScalar(in, n, amax, finite);
}

inline void
quantizeSpan(const float *in, float *out, int n, float inv_scale,
             float scale, const ElemGrid &g, bool avx2_ok)
{
#if MXPLUS_X86
    if (avx2_ok && n % 8 == 0 && n >= 8) {
        if (g.is_float) {
            quantizeSpanFloatAvx2(in, out, n, inv_scale, scale, g.mbits,
                                  g.emin, g.max_normal);
        } else {
            quantizeSpanIntAvx2(in, out, n, inv_scale, scale, g.frac,
                                g.int_lo, g.int_hi);
        }
        return;
    }
#else
    (void)avx2_ok;
#endif
    quantizeSpanScalar(in, out, n, inv_scale, scale, g);
}

/**
 * Shared per-block analysis: amax sweep, zero-block rule, shared exponent,
 * BM index and MX++ NBM exponent. Returns false when the block must take
 * the scalar fallback (non-finite input or exponents outside the float-
 * exact window).
 */
struct BlockPlan
{
    bool zero = false;   ///< whole block decodes to zero
    int se = 0;          ///< shared exponent (Eq. 1, clamped)
    int nbm_exp = 0;     ///< NBM shared exponent (== se outside MX++)
    int bm = -1;         ///< BM slot (modes != Standard)
};

inline bool
analyzeBlock(const MxQuantizer &q, int emax, const float *in, int n,
             bool avx2_ok, BlockPlan *plan)
{
    float amax;
    bool finite;
    amaxSweep(in, n, &amax, &finite, avx2_ok);
    if (!finite)
        return false;
    if (amax == 0.0f) {
        plan->zero = true;
        return true;
    }
    const int ilog = std::ilogb(amax);
    if (q.mode() != MxMode::Standard && ilog <= -E8M0::kBias + emax) {
        plan->zero = true;
        return true;
    }
    const int se = E8M0::clampExp(ilog - emax);
    int nbm_exp = se;
    int bm = -1;
    if (q.mode() != MxMode::Standard) {
        for (int i = 0; i < n; ++i) {
            if (std::fabs(in[i]) == amax) {
                bm = i;
                break;
            }
        }
        if (q.mode() == MxMode::PlusPlus) {
            float amax2 = 0.0f;
            for (int i = 0; i < n; ++i) {
                if (i == bm)
                    continue;
                amax2 = std::max(amax2, std::fabs(in[i]));
            }
            if (amax2 > 0.0f) {
                const int e = std::ilogb(amax2) - emax + 1;
                nbm_exp = std::clamp(e, se - 7, se);
            }
        }
    }
    if (se < -125 || se > 125 || nbm_exp < -125)
        return false;
    plan->se = se;
    plan->nbm_exp = nbm_exp;
    plan->bm = bm;
    return true;
}

void
fusedQuantizeBlock(const MxQuantizer &q, const ElemGrid &g, int emax,
                   const float *in, float *out, int n, bool avx2_ok)
{
    BlockPlan plan;
    if (!analyzeBlock(q, emax, in, n, avx2_ok, &plan)) {
        q.fakeQuantizeBlock(in, out, n); // scalar reference fallback
        return;
    }
    if (plan.zero) {
        std::fill(out, out + n, 0.0f);
        return;
    }
    const int elem_exp = plan.nbm_exp;
    quantizeSpan(in, out, n, p2f(-elem_exp), p2f(elem_exp), g, avx2_ok);
    if (plan.bm >= 0) {
        const double scale = pow2d(plan.se);
        out[plan.bm] = static_cast<float>(
            bmCodec(q.format()).quantize(
                static_cast<double>(in[plan.bm]) / scale) *
            scale);
    }
}

/**
 * Fused encodeBlock: identical bit-level output, one statistics sweep
 * instead of three, shared exponent computed once.
 */
MxBlock
fusedEncodeBlock(const MxQuantizer &q, const ElemGrid &g, int emax,
                 const float *in, int n, bool avx2_ok)
{
    MxBlock block;
    block.n = n;

    BlockPlan plan;
    if (!analyzeBlock(q, emax, in, n, avx2_ok, &plan))
        return q.encodeBlock(in, n);
    if (plan.zero) {
        // As encodeBlock: the reserved scale code and +0 element codes
        // (in Standard mode amax == 0 is the only way to get here).
        block.scale_code = E8M0::kZeroBlock;
        std::fill(block.codes.begin(), block.codes.begin() + n,
                  q.zeroCode());
        return block;
    }

    block.scale_code = E8M0::encode(plan.se);
    const double scale = pow2d(plan.se);
    const bool standard = q.mode() == MxMode::Standard;
    if (!standard) {
        block.bm_index = static_cast<uint8_t>(plan.bm);
        block.nbm_delta = static_cast<uint8_t>(plan.se - plan.nbm_exp);
    }

    // Vector-quantize into the scaled domain (scale = 1 output), then
    // extract bit codes from the exact grid values.
    const int elem_exp = standard ? plan.se : plan.nbm_exp;
    float grid_vals[kMxMaxBlockSize];
    quantizeSpan(in, grid_vals, n, p2f(-elem_exp), 1.0f, g, avx2_ok);
    for (int i = 0; i < n; ++i)
        block.codes[i] = encodeFromGrid(grid_vals[i], in[i], g);
    if (!standard) {
        block.codes[plan.bm] = bmCodec(q.format()).encode(
            static_cast<double>(in[plan.bm]) / scale);
    }
    return block;
}

} // namespace

void
fusedQuantizeRows(const MxQuantizer &q, const float *in, float *out,
                  size_t rows, size_t cols)
{
    const ElemGrid grid(q.format());
    const int emax = q.emax();
    const int bs = q.blockSize();
    const bool avx2_ok = KernelDispatch::cpuHasAvx2Fma();
    const bool parallel = parallelQuantize(rows, cols);
    (void)parallel; // only consumed by the pragma; unused sans OpenMP
    #pragma omp parallel for schedule(static) if (parallel)
    for (size_t r = 0; r < rows; ++r) {
        const float *src = in + r * cols;
        float *dst = out + r * cols;
        size_t i = 0;
        while (i < cols) {
            const int len =
                static_cast<int>(std::min<size_t>(bs, cols - i));
            fusedQuantizeBlock(q, grid, emax, src + i, dst + i, len,
                               avx2_ok);
            i += len;
        }
    }
}

void
fusedEncodeRow(const MxQuantizer &q, const float *row, size_t cols,
               MxBlock *out)
{
    const size_t bs = static_cast<size_t>(q.blockSize());
    MXPLUS_CHECK_MSG(cols % bs == 0,
                     "matrix cols must be a multiple of the block size");
    const ElemGrid grid(q.format());
    const int emax = q.emax();
    const bool avx2_ok = KernelDispatch::cpuHasAvx2Fma();
    for (size_t b = 0; b < cols / bs; ++b) {
        out[b] = fusedEncodeBlock(q, grid, emax, row + b * bs,
                                  static_cast<int>(bs), avx2_ok);
    }
}

std::vector<MxBlock>
fusedQuantizePack(const MxQuantizer &q, const float *data, size_t rows,
                  size_t cols)
{
    const size_t bs = static_cast<size_t>(q.blockSize());
    MXPLUS_CHECK_MSG(cols % bs == 0,
                     "matrix cols must be a multiple of the block size");
    const size_t bpr = cols / bs;
    std::vector<MxBlock> blocks(rows * bpr);
    const bool parallel = parallelQuantize(rows, cols);
    (void)parallel; // only consumed by the pragma; unused sans OpenMP
    #pragma omp parallel for schedule(static) if (parallel)
    for (size_t r = 0; r < rows; ++r)
        fusedEncodeRow(q, data + r * cols, cols, blocks.data() + r * bpr);
    return blocks;
}

} // namespace mxplus::kernels
