/**
 * @file
 * Abstract per-tensor fake-quantizer interface.
 *
 * The transformer substrate quantizes every dot-product operand through
 * this interface, so any format in the library (MX, MX+, MX++, NVFP4,
 * MSFP, SMX, plain BF16, ...) can be plugged into any tensor slot. Blocks
 * always run along the last (contiguous, reduction) dimension.
 */

#ifndef MXPLUS_TENSOR_QUANTIZER_IFACE_H
#define MXPLUS_TENSOR_QUANTIZER_IFACE_H

#include <memory>
#include <string>

#include "tensor/tensor.h"

namespace mxplus {

class MxQuantizer;

/** Interface: round a row-major matrix to a storage format, in place. */
class TensorQuantizer
{
  public:
    virtual ~TensorQuantizer() = default;

    /** Fake-quantize each row of a [rows x cols] matrix. */
    virtual void quantizeRows(const float *in, float *out, size_t rows,
                              size_t cols) const = 0;

    /** Convenience overload for Matrix. */
    void
    quantize(const Matrix &in, Matrix &out) const
    {
        MXPLUS_CHECK(in.rows() == out.rows() && in.cols() == out.cols());
        quantizeRows(in.data(), out.data(), in.rows(), in.cols());
    }

    /** Convenience overload returning a fresh matrix. */
    Matrix
    quantized(const Matrix &in) const
    {
        Matrix out(in.rows(), in.cols());
        quantize(in, out);
        return out;
    }

    /**
     * Block period along a row: output element i depends only on input
     * elements in the same floor(i / period) group, so a consumer that
     * appends to a row (the KV cache's sequence dimension) may freeze
     * completed groups and re-quantize only the open tail. 0 means the
     * structure is unknown and the whole row must be re-quantized when it
     * grows. Elementwise formats (BF16, FP32) return 1.
     */
    virtual size_t blockPeriod() const { return 0; }

    /**
     * The MX block quantizer this adapter applies, or null. Non-null
     * means quantizeRows() is exactly MxQuantizer::fakeQuantizeRows, so
     * a weight may be quantized once into the MX weight store
     * (mx/weight_store.h) instead of on every call.
     */
    virtual const MxQuantizer *mxQuantizer() const { return nullptr; }

    /** Display name, e.g. "MXFP4+". */
    virtual std::string name() const = 0;

    /** Average storage bits per element (for reporting). */
    virtual double avgBits() const = 0;
};

using QuantizerPtr = std::shared_ptr<const TensorQuantizer>;

} // namespace mxplus

#endif // MXPLUS_TENSOR_QUANTIZER_IFACE_H
