/**
 * @file
 * Tiled GEMM driver and the portable microkernel of the Simd backend.
 * See kernels_internal.h for the blocking scheme and panel layout.
 */

#include "kernels/kernels_internal.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace mxplus::kernels {

namespace {

/**
 * Pack B[pc:pc+kc, jc:jc+nc] (logical orientation: K-major rows) into
 * depth-major kNR-wide strips, zero-padding the last strip to kNR columns.
 * Strip s starts at panel + s * kc * kNR.
 */
void
packB(float *panel, const float *b, size_t ldb, bool b_transposed,
      size_t pc, size_t kc, size_t jc, size_t nc)
{
    const size_t nstrips = (nc + kNR - 1) / kNR;
    for (size_t s = 0; s < nstrips; ++s) {
        const size_t jr = s * kNR;
        const size_t nr = std::min(kNR, nc - jr);
        float *strip = panel + s * kc * kNR;
        if (b_transposed) {
            // B is [N x K]: column j of the strip is a contiguous row of B.
            for (size_t j = 0; j < nr; ++j) {
                const float *brow = b + (jc + jr + j) * ldb + pc;
                for (size_t kk = 0; kk < kc; ++kk)
                    strip[kk * kNR + j] = brow[kk];
            }
            if (nr < kNR) {
                for (size_t kk = 0; kk < kc; ++kk) {
                    for (size_t j = nr; j < kNR; ++j)
                        strip[kk * kNR + j] = 0.0f;
                }
            }
        } else {
            // B is [K x N]: each depth step is a contiguous slice of a row.
            for (size_t kk = 0; kk < kc; ++kk) {
                const float *bsrc = b + (pc + kk) * ldb + jc + jr;
                float *dst = strip + kk * kNR;
                std::memcpy(dst, bsrc, nr * sizeof(float));
                for (size_t j = nr; j < kNR; ++j)
                    dst[j] = 0.0f;
            }
        }
    }
}

/** A float B operand in either orientation (gemmTiled's packB source). */
struct FloatB
{
    const float *b;
    size_t ldb;
    bool transposed;
};

void
packFloatB(const void *src, float *panel, size_t pc, size_t kc, size_t jc,
           size_t nc)
{
    const auto *fb = static_cast<const FloatB *>(src);
    packB(panel, fb->b, fb->ldb, fb->transposed, pc, kc, jc, nc);
}

} // namespace

void
microKernelPortable(size_t kc, const float *a, size_t lda,
                    const float *bpanel, float *c, size_t ldc, size_t mr,
                    size_t nr, bool accumulate)
{
    // Accumulate the full kNR-wide tile (padded B lanes are zero) and only
    // write back the nr valid columns, so padding never reaches C. A single
    // loop nest serves every mr: full and edge tiles must share one codegen
    // so that a row's accumulation chain does not depend on which tile of
    // which GEMM shape it lands in (the shape-stability contract).
    float acc[kMR][kNR] = {};
    for (size_t kk = 0; kk < kc; ++kk) {
        const float *bk = bpanel + kk * kNR;
        for (size_t i = 0; i < mr; ++i) {
            const float av = a[i * lda + kk];
            #pragma omp simd
            for (size_t j = 0; j < kNR; ++j)
                acc[i][j] += av * bk[j];
        }
    }
    for (size_t i = 0; i < mr; ++i) {
        float *crow = c + i * ldc;
        if (accumulate) {
            for (size_t j = 0; j < nr; ++j)
                crow[j] += acc[i][j];
        } else {
            for (size_t j = 0; j < nr; ++j)
                crow[j] = acc[i][j];
        }
    }
}

void
gemmTiled(const float *a, size_t lda, const float *b, size_t ldb, float *c,
          size_t ldc, size_t m, size_t n, size_t k, bool b_transposed,
          MicroKernelFn kernel)
{
    const FloatB src{b, ldb, b_transposed};
    gemmTiledPacked(a, lda, packFloatB, &src, c, ldc, m, n, k, kernel);
}

void
gemmTiledPacked(const float *a, size_t lda, PackBFn pack, const void *src,
                float *c, size_t ldc, size_t m, size_t n, size_t k,
                MicroKernelFn kernel)
{
    if (m == 0 || n == 0)
        return;
    if (k == 0) {
        for (size_t i = 0; i < m; ++i)
            std::memset(c + i * ldc, 0, n * sizeof(float));
        return;
    }

    // Decode-sized problems (a handful of rows against a small weight
    // matrix) lose more to the OpenMP fork/join than they gain from extra
    // cores; run those serially. Scheduling only — per-element values are
    // identical either way.
    const bool parallel_rows = m > kMR && m * n * k > (size_t{1} << 16);
    (void)parallel_rows; // only consumed by the pragma; unused sans OpenMP

    // Panel scratch sized to THIS problem (not the full kKC x kNC
    // blocking maximum) and reused across calls: the decode attention
    // issues thousands of tiny matvecs per step, and a fresh
    // zero-initialized worst-case panel per call costs more than the
    // matvec itself. Every packer fully writes every panel region the
    // microkernel reads, so reuse never leaks stale values; worker
    // threads of the row loop only read the panel, so a thread-local
    // buffer of the packing thread is safe (nested calls from parallel
    // attention regions each get their own).
    const size_t max_strips = (std::min(kNC, n) + kNR - 1) / kNR;
    static thread_local std::vector<float> panel;
    panel.resize(std::min(kKC, k) * max_strips * kNR);
    // Hoist the data pointer: `panel` must NOT be named inside the
    // parallel region below, where each worker would resolve the
    // thread_local to its own (empty) vector instead of the packing
    // thread's. The pointer value is shared with the workers like any
    // captured local.
    float *const pdata = panel.data();
    for (size_t jc = 0; jc < n; jc += kNC) {
        const size_t nc = std::min(kNC, n - jc);
        const size_t nstrips = (nc + kNR - 1) / kNR;
        for (size_t pc = 0; pc < k; pc += kKC) {
            const size_t kc = std::min(kKC, k - pc);
            pack(src, pdata, pc, kc, jc, nc);
            const bool accumulate = pc > 0;
            #pragma omp parallel for schedule(static) if (parallel_rows)
            for (size_t ic = 0; ic < m; ic += kMR) {
                const size_t mr = std::min(kMR, m - ic);
                const float *ablk = a + ic * lda + pc;
                float *cblk = c + ic * ldc + jc;
                for (size_t s = 0; s < nstrips; ++s) {
                    const size_t jr = s * kNR;
                    const size_t nr = std::min(kNR, nc - jr);
                    kernel(kc, ablk, lda, pdata + s * kc * kNR,
                           cblk + jr, ldc, mr, nr, accumulate);
                }
            }
        }
    }
}

} // namespace mxplus::kernels
