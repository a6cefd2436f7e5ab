/**
 * @file
 * Runtime-dispatched high-throughput kernel engine.
 *
 * Every hot inner loop of the library (GEMM in the transformer substrate,
 * block quantization in the MX emulation flow, quantize-and-pack for
 * PackedMatrix, the weight store's B-panel decode) funnels through this
 * single dispatch point. Two backends are provided:
 *
 *  - Reference: the original scalar kernels, kept verbatim for parity
 *    testing and as the semantic ground truth.
 *  - Simd: cache-blocked, register-tiled GEMM with B-panel packing and a
 *    6x16 AVX2/FMA microkernel (selected at runtime via cpuid; a portable
 *    `#pragma omp simd` microkernel is used on machines without AVX2), plus
 *    a fused block quantizer that computes the per-block absolute maximum,
 *    shared exponent and element rounding in one vectorized sweep.
 *
 * The backend is chosen once per process from the MXPLUS_KERNEL_BACKEND
 * environment variable ("reference", "simd" or "auto", default auto) and
 * can be overridden programmatically for tests and benchmarks.
 */

#ifndef MXPLUS_KERNELS_KERNEL_DISPATCH_H
#define MXPLUS_KERNELS_KERNEL_DISPATCH_H

#include <cstddef>
#include <vector>

#include "mx/mx_quantizer.h"
#include "tensor/tensor.h"

namespace mxplus {

class MxPanelWeight;

/** Selectable kernel engine. */
enum class KernelBackend
{
    Reference, ///< original scalar loops (ground truth)
    Simd,      ///< tiled + vectorized engine (AVX2/FMA when available)
};

/** Printable backend name ("reference" / "simd"). */
const char *kernelBackendName(KernelBackend backend);

/**
 * Single entry point for all performance-critical kernels.
 *
 * All methods are safe to call concurrently; setBackend() is intended for
 * test/bench setup, not for concurrent reconfiguration.
 */
class KernelDispatch
{
  public:
    /** The backend used by the no-backend-argument overloads. */
    static KernelBackend active();

    /** Override the active backend (tests / benchmarks). */
    static void setBackend(KernelBackend backend);

    /** True if the CPU supports the AVX2+FMA microkernels. */
    static bool cpuHasAvx2Fma();

    /**
     * True if the Simd engine dispatches to the AVX2/FMA microkernels
     * (CPU support present); false means the portable SIMD fallback runs.
     */
    static bool simdUsesAvx2();

    // ------------------------------------------------------------- GEMM --

    /** C[M x N] = A[M x K] * B[N x K]^T. */
    static void gemmNT(const Matrix &a, const Matrix &b, Matrix &c);
    static void gemmNT(KernelBackend backend, const Matrix &a,
                       const Matrix &b, Matrix &c);

    /**
     * C[M x N] = A[M x K] * W[N x K]^T for a weight held in the MX
     * weight store (mx/weight_store.h): bit-identical to gemmNT(a, Wq,
     * c) where Wq is the fake-quantized float weight, on either backend.
     * Simd decodes each B panel straight from the store (see
     * decodeWeightPanel); Reference decodes W to row-major floats and
     * runs the scalar GEMM.
     */
    static void gemmNT(const Matrix &a, const MxPanelWeight &w, Matrix &c);
    static void gemmNT(KernelBackend backend, const Matrix &a,
                       const MxPanelWeight &w, Matrix &c);

    /**
     * Decode the [kc x nc] B panel at depth @p pc and output column
     * @p jc of a stored weight, in the tiled GEMM's strip layout
     * (kernels_internal.h), zero-padded to whole kNR-wide strips: the
     * floats gemmTiled's packB would copy out of the fake-quantized
     * weight. @p pc and @p kc are multiples of the block size and
     * @p jc of kNR. The Simd backend looks codes up in float tables
     * (AVX2); the Reference backend decodes block by block through
     * MxQuantizer::decodeBlock. Both write the same panel.
     */
    static void decodeWeightPanel(KernelBackend backend,
                                  const MxPanelWeight &w, size_t pc, size_t kc,
                                  size_t jc, size_t nc, float *panel);

    /** C[M x N] = A[M x K] * B[K x N]. */
    static void gemmNN(const Matrix &a, const Matrix &b, Matrix &c);
    static void gemmNN(KernelBackend backend, const Matrix &a,
                       const Matrix &b, Matrix &c);

    // --------------------------------------------- fused block quantize --

    /**
     * Fake-quantize each row of a row-major [rows x cols] matrix with
     * @p q's (format, mode, block size) configuration. Bit-identical to
     * MxQuantizer::fakeQuantize applied per row.
     */
    static void quantizeRows(const MxQuantizer &q, const float *in,
                             float *out, size_t rows, size_t cols);
    static void quantizeRows(KernelBackend backend, const MxQuantizer &q,
                             const float *in, float *out, size_t rows,
                             size_t cols);

    /**
     * Quantize-and-pack: encode a row-major [rows x cols] matrix into MX
     * blocks (cols must be a multiple of the block size), amax/shared-
     * exponent computed in one sweep. Bit-identical to calling
     * MxQuantizer::encodeBlock per block.
     */
    static std::vector<MxBlock> quantizePack(const MxQuantizer &q,
                                             const float *data, size_t rows,
                                             size_t cols);
    static std::vector<MxBlock> quantizePack(KernelBackend backend,
                                             const MxQuantizer &q,
                                             const float *data, size_t rows,
                                             size_t cols);

    // ----------------------------------------------------- decode matvec --

    /**
     * y[N] = W[N x K] * x[K]: the single-token linear of the teacher
     * sampling recurrence over float weights. Bit-identical to a 1-row
     * gemmNT — and, by the shape-stability contract (kernels_internal.h),
     * to any row of a larger gemmNT against the same W — without Matrix
     * temporaries.
     */
    static void matvec(const Matrix &w, const float *x, float *y);
    static void matvec(KernelBackend backend, const Matrix &w,
                       const float *x, float *y);

    /**
     * C[M x N] = A[M x K] * B[N x K]^T over strided views: row i of A
     * starts at a + i * lda, row j of B at b + j * ldb and row i of C
     * at c + i * ldc. The attention's page walk uses it to read key
     * head slices straight out of KV cache pages (no gather copy).
     * Bit-identical to gemmNT on densely gathered operands.
     */
    static void gemmNTStrided(const float *a, size_t lda, const float *b,
                              size_t ldb, float *c, size_t ldc, size_t m,
                              size_t n, size_t k);
    static void gemmNTStrided(KernelBackend backend, const float *a,
                              size_t lda, const float *b, size_t ldb, float *c,
                              size_t ldc, size_t m, size_t n, size_t k);

    // ------------------------------------------------------ elementwise --

    /**
     * Round @p n floats to BF16 in place (bit-identical to roundToBf16,
     * vectorized where the CPU allows — no backend knob since the result
     * is exact either way).
     */
    static void roundRowsToBf16(float *data, size_t n);
};

} // namespace mxplus

#endif // MXPLUS_KERNELS_KERNEL_DISPATCH_H
