#include "kernels/kernel_dispatch.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "kernels/kernels_internal.h"
#include "kernels/quantize_fused.h"
#include "mx/weight_store.h"

namespace mxplus {

namespace {

constexpr int kUnresolved = -1;

std::atomic<int> g_backend{kUnresolved};

KernelBackend
resolveBackend()
{
    const char *env = std::getenv("MXPLUS_KERNEL_BACKEND");
    if (env != nullptr) {
        if (std::strcmp(env, "reference") == 0)
            return KernelBackend::Reference;
        if (std::strcmp(env, "simd") == 0 || std::strcmp(env, "auto") == 0)
            return KernelBackend::Simd;
        fatal(std::string("unknown MXPLUS_KERNEL_BACKEND value: ") + env);
    }
    return KernelBackend::Simd;
}

kernels::MicroKernelFn
simdMicroKernel()
{
    return KernelDispatch::cpuHasAvx2Fma() ? kernels::microKernelAvx2
                                           : kernels::microKernelPortable;
}

void
decodeSimdPanel(const void *src, float *panel, size_t pc, size_t kc, size_t jc,
                size_t nc)
{
    const auto &w = *static_cast<const MxPanelWeight *>(src);
    if (KernelDispatch::cpuHasAvx2Fma())
        kernels::decodePanelAvx2(w, panel, pc, kc, jc, nc);
    else
        kernels::decodePanelReference(w, panel, pc, kc, jc, nc);
}

} // namespace

const char *
kernelBackendName(KernelBackend backend)
{
    switch (backend) {
      case KernelBackend::Reference: return "reference";
      case KernelBackend::Simd: return "simd";
    }
    return "?";
}

KernelBackend
KernelDispatch::active()
{
    int cur = g_backend.load(std::memory_order_relaxed);
    if (cur == kUnresolved) {
        cur = static_cast<int>(resolveBackend());
        g_backend.store(cur, std::memory_order_relaxed);
    }
    return static_cast<KernelBackend>(cur);
}

void
KernelDispatch::setBackend(KernelBackend backend)
{
    g_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
}

bool
KernelDispatch::cpuHasAvx2Fma()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool has =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    return has;
#else
    return false;
#endif
}

bool
KernelDispatch::simdUsesAvx2()
{
    return cpuHasAvx2Fma();
}

void
KernelDispatch::gemmNT(const Matrix &a, const Matrix &b, Matrix &c)
{
    gemmNT(active(), a, b, c);
}

void
KernelDispatch::gemmNT(KernelBackend backend, const Matrix &a,
                       const Matrix &b, Matrix &c)
{
    const size_t m = a.rows();
    const size_t k = a.cols();
    const size_t n = b.rows();
    MXPLUS_CHECK(b.cols() == k);
    MXPLUS_CHECK(c.rows() == m && c.cols() == n);
    if (backend == KernelBackend::Reference) {
        kernels::gemmNTReference(a.data(), b.data(), c.data(), m, n, k);
    } else {
        kernels::gemmTiled(a.data(), k, b.data(), k, c.data(), n, m, n, k,
                           /*b_transposed=*/true, simdMicroKernel());
    }
}

void
KernelDispatch::gemmNT(const Matrix &a, const MxPanelWeight &w, Matrix &c)
{
    gemmNT(active(), a, w, c);
}

void
KernelDispatch::gemmNT(KernelBackend backend, const Matrix &a,
                       const MxPanelWeight &w, Matrix &c)
{
    const size_t m = a.rows();
    const size_t k = a.cols();
    const size_t n = w.rows();
    MXPLUS_CHECK(w.cols() == k);
    MXPLUS_CHECK(c.rows() == m && c.cols() == n);
    if (backend == KernelBackend::Reference) {
        Matrix wq(n, k);
        kernels::decodeRowsReference(w, wq.data());
        kernels::gemmNTReference(a.data(), wq.data(), c.data(), m, n, k);
    } else {
        kernels::gemmTiledPacked(a.data(), k, decodeSimdPanel, &w, c.data(), n,
                                 m, n, k, simdMicroKernel());
    }
}

void
KernelDispatch::decodeWeightPanel(KernelBackend backend,
                                  const MxPanelWeight &w, size_t pc, size_t kc,
                                  size_t jc, size_t nc, float *panel)
{
    if (backend == KernelBackend::Reference)
        kernels::decodePanelReference(w, panel, pc, kc, jc, nc);
    else
        decodeSimdPanel(&w, panel, pc, kc, jc, nc);
}

void
KernelDispatch::gemmNN(const Matrix &a, const Matrix &b, Matrix &c)
{
    gemmNN(active(), a, b, c);
}

void
KernelDispatch::gemmNN(KernelBackend backend, const Matrix &a,
                       const Matrix &b, Matrix &c)
{
    const size_t m = a.rows();
    const size_t k = a.cols();
    const size_t n = b.cols();
    MXPLUS_CHECK(b.rows() == k);
    MXPLUS_CHECK(c.rows() == m && c.cols() == n);
    if (backend == KernelBackend::Reference) {
        kernels::gemmNNReference(a.data(), b.data(), c.data(), m, n, k);
    } else {
        kernels::gemmTiled(a.data(), k, b.data(), n, c.data(), n, m, n, k,
                           /*b_transposed=*/false, simdMicroKernel());
    }
}

void
KernelDispatch::matvec(const Matrix &w, const float *x, float *y)
{
    matvec(active(), w, x, y);
}

void
KernelDispatch::matvec(KernelBackend backend, const Matrix &w,
                       const float *x, float *y)
{
    const size_t n = w.rows();
    const size_t k = w.cols();
    if (backend == KernelBackend::Reference) {
        kernels::gemmNTReference(x, w.data(), y, 1, n, k);
    } else {
        kernels::gemmTiled(x, k, w.data(), k, y, n, 1, n, k,
                           /*b_transposed=*/true, simdMicroKernel());
    }
}

void
KernelDispatch::gemmNTStrided(const float *a, size_t lda, const float *b,
                              size_t ldb, float *c, size_t ldc, size_t m,
                              size_t n, size_t k)
{
    gemmNTStrided(active(), a, lda, b, ldb, c, ldc, m, n, k);
}

void
KernelDispatch::gemmNTStrided(KernelBackend backend, const float *a,
                              size_t lda, const float *b, size_t ldb, float *c,
                              size_t ldc, size_t m, size_t n, size_t k)
{
    if (backend == KernelBackend::Reference) {
        // Same per-output chain as gemmNTReference, stride-aware.
        for (size_t i = 0; i < m; ++i) {
            const float *arow = a + i * lda;
            for (size_t j = 0; j < n; ++j) {
                const float *brow = b + j * ldb;
                float acc = 0.0f;
                for (size_t kk = 0; kk < k; ++kk)
                    acc += arow[kk] * brow[kk];
                c[i * ldc + j] = acc;
            }
        }
    } else {
        kernels::gemmTiled(a, lda, b, ldb, c, ldc, m, n, k,
                           /*b_transposed=*/true, simdMicroKernel());
    }
}

void
KernelDispatch::quantizeRows(const MxQuantizer &q, const float *in,
                             float *out, size_t rows, size_t cols)
{
    quantizeRows(active(), q, in, out, rows, cols);
}

void
KernelDispatch::quantizeRows(KernelBackend backend, const MxQuantizer &q,
                             const float *in, float *out, size_t rows,
                             size_t cols)
{
    if (backend == KernelBackend::Reference) {
        const int bs = q.blockSize();
        const bool parallel = kernels::parallelQuantize(rows, cols);
        (void)parallel; // only consumed by the pragma; unused sans OpenMP
        #pragma omp parallel for schedule(static) if (parallel)
        for (size_t r = 0; r < rows; ++r) {
            const float *src = in + r * cols;
            float *dst = out + r * cols;
            size_t i = 0;
            while (i < cols) {
                const int len = static_cast<int>(
                    std::min<size_t>(static_cast<size_t>(bs), cols - i));
                q.fakeQuantizeBlock(src + i, dst + i, len);
                i += len;
            }
        }
    } else {
        kernels::fusedQuantizeRows(q, in, out, rows, cols);
    }
}

std::vector<MxBlock>
KernelDispatch::quantizePack(const MxQuantizer &q, const float *data,
                             size_t rows, size_t cols)
{
    return quantizePack(active(), q, data, rows, cols);
}

std::vector<MxBlock>
KernelDispatch::quantizePack(KernelBackend backend, const MxQuantizer &q,
                             const float *data, size_t rows, size_t cols)
{
    if (backend == KernelBackend::Reference) {
        const size_t bs = static_cast<size_t>(q.blockSize());
        MXPLUS_CHECK_MSG(cols % bs == 0,
                         "matrix cols must be a multiple of the block size");
        const size_t bpr = cols / bs;
        std::vector<MxBlock> blocks;
        blocks.reserve(rows * bpr);
        for (size_t r = 0; r < rows; ++r) {
            for (size_t b = 0; b < bpr; ++b) {
                blocks.push_back(q.encodeBlock(data + r * cols + b * bs,
                                               static_cast<int>(bs)));
            }
        }
        return blocks;
    }
    return kernels::fusedQuantizePack(q, data, rows, cols);
}

} // namespace mxplus
