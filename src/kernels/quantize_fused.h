/**
 * @file
 * Internal entry points of the fused block-quantization engine (Simd
 * backend). Both functions are bit-identical to the scalar MxQuantizer
 * chain (fakeQuantizeBlock / encodeBlock applied block by block) — the
 * fusion is purely structural: one absolute-maximum sweep feeds the shared
 * exponent, zero-block rule, BM index and MX++ NBM delta, and the element
 * rounding runs vectorized in float (exactness argued in quantize_fused.cpp
 * and enforced by test_kernels.cpp).
 */

#ifndef MXPLUS_KERNELS_QUANTIZE_FUSED_H
#define MXPLUS_KERNELS_QUANTIZE_FUSED_H

#include <cstddef>
#include <vector>

#include "mx/mx_quantizer.h"

namespace mxplus::kernels {

/** Fused float->float fake quantization of a [rows x cols] matrix. */
void fusedQuantizeRows(const MxQuantizer &q, const float *in, float *out,
                       size_t rows, size_t cols);

/** Fused quantize-and-encode into MX blocks (cols % blockSize == 0). */
std::vector<MxBlock> fusedQuantizePack(const MxQuantizer &q,
                                       const float *data, size_t rows,
                                       size_t cols);

/**
 * The per-row encoder of fusedQuantizePack: encode the cols / blockSize
 * blocks of one row into @p out (cols % blockSize == 0), for callers
 * that lay the blocks out themselves (the MX weight store).
 */
void fusedEncodeRow(const MxQuantizer &q, const float *row, size_t cols,
                    MxBlock *out);

/**
 * Work-size gate of the quantizers' OpenMP row loops (the same size as
 * gemmTiled's): a decode-step activation row forks no thread team.
 */
inline bool
parallelQuantize(size_t rows, size_t cols)
{
    return rows > 1 && rows * cols > (size_t{1} << 16);
}

} // namespace mxplus::kernels

#endif // MXPLUS_KERNELS_QUANTIZE_FUSED_H
