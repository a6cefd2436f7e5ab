/**
 * @file
 * Internal contracts shared by the kernel engine translation units: tiling
 * parameters, the packed-B microkernel ABI, and the per-backend entry
 * points kernel_dispatch.cpp routes between.
 *
 * Blocking scheme (BLIS-style, minus A packing — A rows are contiguous
 * along K already, and the microkernel only broadcasts from them):
 *
 *   for jc over N step kNC:            L2-resident B panel
 *     for pc over K step kKC:          pack B[pc:pc+kc, jc:jc+nc]
 *       parallel for ic over M step kMR:
 *         for jr over nc step kNR:     6x16 register tile
 *           microkernel(kc, A(ic,pc), Bpanel(jr), C(ic,jc+jr))
 *
 * The B panel is stored depth-major: element (k, j) of the panel lives at
 * panel[k * kNR + j] within the jr-th strip, so the microkernel streams
 * two contiguous SIMD lanes per depth step. Strips are zero-padded to kNR
 * columns; padded lanes are discarded by the edge path before they can
 * pollute C (0 * Inf never reaches a visible accumulator).
 *
 * Shape-stability contract: within one backend (and one machine), C(i, j)
 * is a pure function of A row i, B row/column j and the depth K — it does
 * not depend on M, N, or which tile the element lands in. Both
 * microkernels therefore run one accumulation chain for every mr/nr (the
 * AVX2 kernel covers edge tiles itself instead of mixing FMA interiors
 * with mul+add edges). The incremental decode path (Transformer::
 * decodeStep) depends on this: a 1-row matvec must reproduce the
 * corresponding row of the full-sequence GEMM bit-exactly.
 */

#ifndef MXPLUS_KERNELS_KERNELS_INTERNAL_H
#define MXPLUS_KERNELS_KERNELS_INTERNAL_H

#include <cstddef>
#include <cstdint>

namespace mxplus {
class MxPanelWeight;
class MxQuantizer;
} // namespace mxplus

namespace mxplus::kernels {

inline constexpr size_t kMR = 6;   ///< microkernel rows (register tile)
inline constexpr size_t kNR = 16;  ///< microkernel cols (2 x 8-float lanes)
inline constexpr size_t kKC = 256; ///< K blocking (B panel depth)
inline constexpr size_t kNC = 256; ///< N blocking (B panel width)

/**
 * C[mr x nr] (+)= A-rows * Bpanel for one register tile.
 *
 * @p a points at A(ic, pc) with row stride @p lda; @p bpanel at the strip's
 * [kc x kNR] depth-major block; @p c at C(ic, jc + jr) with row stride
 * @p ldc. @p mr <= kMR and @p nr <= kNR; @p accumulate selects = vs +=.
 */
using MicroKernelFn = void (*)(size_t kc, const float *a, size_t lda,
                               const float *bpanel, float *c, size_t ldc,
                               size_t mr, size_t nr, bool accumulate);

/** Portable microkernel (compiled for the baseline ISA, omp-simd inner). */
void microKernelPortable(size_t kc, const float *a, size_t lda,
                         const float *bpanel, float *c, size_t ldc,
                         size_t mr, size_t nr, bool accumulate);

/** AVX2/FMA microkernel (function-level target attribute). */
void microKernelAvx2(size_t kc, const float *a, size_t lda,
                     const float *bpanel, float *c, size_t ldc, size_t mr,
                     size_t nr, bool accumulate);

/**
 * Fills the B panel of rows [pc, pc + kc) and columns [jc, jc + nc) of
 * the logical [K x N] B operand @p src, in the strip layout above
 * (zero-padded to whole strips).
 */
using PackBFn = void (*)(const void *src, float *panel, size_t pc, size_t kc,
                         size_t jc, size_t nc);

/** Tiled GEMM driver; @p b_transposed selects NT ([N x K] B) vs NN. */
void gemmTiled(const float *a, size_t lda, const float *b, size_t ldb,
               float *c, size_t ldc, size_t m, size_t n, size_t k,
               bool b_transposed, MicroKernelFn kernel);

/** The same tiled GEMM over a B operand @p pack writes into panels. */
void gemmTiledPacked(const float *a, size_t lda, PackBFn pack, const void *src,
                     float *c, size_t ldc, size_t m, size_t n, size_t k,
                     MicroKernelFn kernel);

/**
 * Decode the B panel (pc, kc, jc, nc) of a stored MX weight (NT
 * orientation: B = W^T) into @p panel, bit-identical to packing the
 * fake-quantized float weight. pc and kc are multiples of the block
 * size, jc a multiple of kNR. The reference backend decodes every
 * block through MxQuantizer::decodeBlock; the AVX2 backend looks codes
 * up in per-format float tables.
 */
void decodePanelReference(const MxPanelWeight &w, float *panel, size_t pc,
                          size_t kc, size_t jc, size_t nc);
void decodePanelAvx2(const MxPanelWeight &w, float *panel, size_t pc,
                     size_t kc, size_t jc, size_t nc);

/** Decode a stored MX weight to row-major [N x K] floats (reference). */
void decodeRowsReference(const MxPanelWeight &w, float *out);

/**
 * A run of MX blocks stored back to back, as a dense MX page holds them
 * (codec/page_codec.h): block b's blockSize() element codes follow block
 * b - 1's, packed at the element width (code i at bit i * width, LSB
 * first), with one E8M0 scale byte per block and, in MX+/MX++ mode, one
 * meta byte (BM index | MX++ delta << 5).
 */
struct MxBlockRun
{
    const uint8_t *codes = nullptr;
    const uint8_t *scales = nullptr;
    const uint8_t *metas = nullptr; ///< null in MX mode
    size_t blocks = 0;
};

/**
 * Decode @p run into blocks * blockSize() floats, bit-identical to
 * MxQuantizer::decodeBlock of each block. A block whose scale byte is
 * E8M0::kNaN holds no encoding: its floats are left for the caller to
 * write. Every other block's BM index must be below the block size.
 * The reference backend decodes through decodeBlock; the AVX2 backend
 * looks codes up in the weight store's float tables (block sizes 8, 16
 * and 32; others decode as the reference does).
 */
void decodeBlocksReference(const MxQuantizer &q, const MxBlockRun &run,
                           float *out);
void decodeBlocksAvx2(const MxQuantizer &q, const MxBlockRun &run,
                      float *out);

/** Reference (original scalar) GEMM kernels. */
void gemmNTReference(const float *a, const float *b, float *c, size_t m,
                     size_t n, size_t k);
void gemmNNReference(const float *a, const float *b, float *c, size_t m,
                     size_t n, size_t k);

} // namespace mxplus::kernels

#endif // MXPLUS_KERNELS_KERNELS_INTERNAL_H
