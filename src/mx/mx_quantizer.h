/**
 * @file
 * OCP Microscaling (MX) block quantizer with the MX+ and MX++ extensions —
 * the primary contribution of the paper.
 *
 * A block of k (default 32) elements shares an E8M0 power-of-two scale
 * computed from the block absolute maximum (BM):
 *
 *     shared_exp = clamp(floor(log2(max|x|)) - e_max, -127, 127)   (Eq. 1)
 *
 * Standard MX quantizes every element onto the element data type grid after
 * dividing by the shared scale. MX+ (Section 4) observes that the BM's
 * private exponent always equals e_max, so its exponent field is repurposed
 * as extra mantissa bits (E2M1 -> effective E2M3 for the BM in MXFP4+).
 * One extra byte per block stores the 5-bit BM index; blocks whose BM is so
 * small that the shared exponent would clamp at -127 are flushed to zero and
 * marked with the reserved biased scale code 0. MX++ (Section 4.3) further
 * uses the 3 reserved bits as a shared-exponent delta that gives the
 * non-block-max (NBM) elements a finer grid.
 */

#ifndef MXPLUS_MX_MX_QUANTIZER_H
#define MXPLUS_MX_MX_QUANTIZER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "formats/element_format.h"
#include "formats/scale.h"

namespace mxplus {

/** Which variant of the format family a quantizer implements. */
enum class MxMode
{
    Standard, ///< OCP MX (MXFP4 / MXFP6 / MXFP8 / MXINT8)
    Plus,     ///< MX+  (extended-mantissa BM, BM index byte)
    PlusPlus, ///< MX++ (MX+ plus decoupled NBM shared scale)
};

/** Printable name of an MxMode ("MX", "MX+", "MX++"). */
const char *mxModeName(MxMode mode);

/** Maximum block size supported by the OCP MX spec (and this library). */
constexpr int kMxMaxBlockSize = 32;

/**
 * Bit-level encoding of a single MX / MX+ / MX++ block.
 *
 * For MX+ layouts, the BM slot of @ref codes holds the sign+extended-
 * mantissa code instead of a normal element code; @ref bm_index records
 * which slot that is, and @ref nbm_delta holds the 3-bit MX++ scale delta
 * (zero for plain MX+). A @ref scale_code of E8M0::kZeroBlock means the
 * whole block decodes to zero (MX+ reserved encoding).
 */
struct MxBlock
{
    uint8_t scale_code = 0;  ///< E8M0 biased shared exponent
    uint8_t bm_index = 0;    ///< BM slot (5 bits used); unused in Standard
    uint8_t nbm_delta = 0;   ///< MX++ shared-exponent delta (3 bits)
    int n = 0;               ///< number of valid elements
    std::array<uint32_t, kMxMaxBlockSize> codes{};
};

/**
 * Quantizer for one (format, mode, block size) configuration.
 *
 * Two usage styles are provided:
 *  - fakeQuantize*: float -> float "emulation library" style rounding used
 *    by the model-quality experiments;
 *  - encodeBlock/decodeBlock: bit-exact packed encodings used by the format
 *    explorer, the GPU dot-product-engine simulator and the tests.
 * Both styles produce bit-identical values, signed zeros included
 * (tested property).
 *
 * Fake quantization is not a projection, so re-encoding its output need
 * not give back the same values:
 *  - it keeps the sign of an element that rounds to zero (-0.0), while
 *    encodeBlock gives every exact zero the +0 code;
 *  - under MX+/MX++ it is not idempotent: a non-BM element can round
 *    above the rounded BM (a BM of 22.3 rounds to 22 on the BM grid, an
 *    NBM of 22.1 to 24 on E2M1), and quantizing the result again picks
 *    that element as the BM.
 * The dense page codec (codec/page_codec.h) stores quantized floats as
 * blocks and settles both with encodeBlockAt.
 */
class MxQuantizer
{
  public:
    MxQuantizer(ElementFormat format, MxMode mode,
                int block_size = kMxMaxBlockSize);

    /** floor(log2(|x|)) for finite non-zero x. */
    static int floorLog2(double x);

    /**
     * Quantize @p n contiguous values; consecutive groups of blockSize()
     * values form blocks (a short tail forms its own block).
     */
    void fakeQuantize(const float *in, float *out, size_t n) const;

    /** Quantize each row of a row-major [rows x cols] matrix. */
    void fakeQuantizeRows(const float *in, float *out, size_t rows,
                          size_t cols) const;

    /** Quantize one block of @p n <= blockSize() values. */
    void fakeQuantizeBlock(const float *in, float *out, int n) const;

    /** Bit-exact encoding of one block. */
    MxBlock encodeBlock(const float *in, int n) const;

    /**
     * Encode one block at a given E8M0 scale code, BM slot and MX++ NBM
     * delta instead of the ones @p in would pick (the BM slot and delta
     * are ignored in MX mode). encodeBlock() is this call with the
     * block's own choices, for a block that is not all zero.
     */
    MxBlock encodeBlockAt(const float *in, int n, uint8_t scale_code,
                          int bm_index, uint8_t nbm_delta) const;

    /** Decode a block produced by encodeBlock(). */
    void decodeBlock(const MxBlock &block, float *out, int n) const;

    /** Index of the absolute-maximum element (first occurrence on ties). */
    static int bmIndex(const float *in, int n);

    /** The Eq. 1 shared exponent for a block (before zero-block handling). */
    int sharedExp(const float *in, int n) const;

    /** True if MX+ flushes this block to zero (Section 4.1 rule). */
    bool isZeroBlock(const float *in, int n) const;

    ElementFormat format() const { return format_; }
    MxMode mode() const { return mode_; }
    int blockSize() const { return block_size_; }
    /** e_max of the element data type (0 for integer elements). */
    int emax() const { return emax_; }
    /** The element code of +0 (MXINT codes are offset into unsigned
        space, so their code 0 is the most negative integer). */
    uint32_t zeroCode() const;
    /** Average storage bits per element including scale and metadata. */
    double avgBitsPerElement() const;
    /** e.g. "MXFP4+", "MXFP6", "MXINT8+". */
    std::string name() const;

  private:
    double quantizeElement(double scaled) const;
    double quantizeBm(double scaled) const;
    uint32_t encodeElement(double scaled) const;

    ElementFormat format_;
    MxMode mode_;
    int block_size_;
    int emax_;
    bool is_float_;
};

} // namespace mxplus

#endif // MXPLUS_MX_MX_QUANTIZER_H
