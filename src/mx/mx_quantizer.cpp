#include "mx/mx_quantizer.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "kernels/kernel_dispatch.h"

namespace mxplus {

const char *
mxModeName(MxMode mode)
{
    switch (mode) {
      case MxMode::Standard: return "MX";
      case MxMode::Plus: return "MX+";
      case MxMode::PlusPlus: return "MX++";
    }
    return "?";
}

MxQuantizer::MxQuantizer(ElementFormat format, MxMode mode, int block_size)
    : format_(format), mode_(mode), block_size_(block_size)
{
    MXPLUS_CHECK(block_size_ >= 1 && block_size_ <= kMxMaxBlockSize);
    const auto &info = elementFormatInfo(format_);
    emax_ = info.emax;
    is_float_ = info.is_float;
}

int
MxQuantizer::floorLog2(double x)
{
    MXPLUS_CHECK(std::isfinite(x) && x != 0.0);
    return std::ilogb(std::fabs(x));
}

int
MxQuantizer::bmIndex(const float *in, int n)
{
    MXPLUS_CHECK(n >= 1);
    int idx = 0;
    float amax = std::fabs(in[0]);
    for (int i = 1; i < n; ++i) {
        const float a = std::fabs(in[i]);
        if (a > amax) {
            amax = a;
            idx = i;
        }
    }
    return idx;
}

int
MxQuantizer::sharedExp(const float *in, int n) const
{
    const int bm = bmIndex(in, n);
    const double amax = std::fabs(static_cast<double>(in[bm]));
    if (amax == 0.0)
        return -E8M0::kBias;
    return E8M0::clampExp(floorLog2(amax) - emax_);
}

bool
MxQuantizer::isZeroBlock(const float *in, int n) const
{
    const int bm = bmIndex(in, n);
    const double amax = std::fabs(static_cast<double>(in[bm]));
    if (amax == 0.0)
        return true;
    // Section 4.1: flush when the shared exponent would clamp at -127,
    // i.e. floor(log2(BM)) <= -127 + e_max. Only the MX+/MX++ layouts
    // reserve the zero-block scale code; standard MX keeps such blocks.
    if (mode_ == MxMode::Standard)
        return false;
    return floorLog2(amax) <= -E8M0::kBias + emax_;
}

double
MxQuantizer::quantizeElement(double scaled) const
{
    if (is_float_)
        return elementMinifloat(format_).quantize(scaled);
    return elementFixedPoint(format_).quantize(scaled);
}

double
MxQuantizer::quantizeBm(double scaled) const
{
    return bmCodec(format_).quantize(scaled);
}

uint32_t
MxQuantizer::zeroCode() const
{
    return is_float_ ? 0u : 1u << (elementFixedPoint(format_).bits() - 1);
}

uint32_t
MxQuantizer::encodeElement(double scaled) const
{
    // An exact zero of either sign takes the +0 code, as fake
    // quantization gives +0.0 for it (Minifloat::encode would keep the
    // sign of -0.0). scaled is 0 only for a zero input: dividing a
    // float by an E8M0 scale cannot underflow a double.
    if (scaled == 0.0)
        return zeroCode();
    if (is_float_)
        return elementMinifloat(format_).encode(scaled);
    // Two's-complement codes offset into unsigned space.
    const auto &codec = elementFixedPoint(format_);
    return static_cast<uint32_t>(codec.encodeRaw(scaled) +
                                 (1 << (codec.bits() - 1)));
}

void
MxQuantizer::fakeQuantizeBlock(const float *in, float *out, int n) const
{
    MXPLUS_CHECK(n >= 1 && n <= block_size_);
    for (int i = 0; i < n; ++i)
        MXPLUS_CHECK_MSG(std::isfinite(in[i]), "block input must be finite");

    const int bm = bmIndex(in, n);
    const double amax = std::fabs(static_cast<double>(in[bm]));

    if (amax == 0.0 || isZeroBlock(in, n)) {
        std::fill(out, out + n, 0.0f);
        return;
    }

    const int shared_exp = sharedExp(in, n);
    const double scale = pow2d(shared_exp);

    if (mode_ == MxMode::Standard) {
        for (int i = 0; i < n; ++i) {
            const double scaled = static_cast<double>(in[i]) / scale;
            out[i] = static_cast<float>(quantizeElement(scaled) * scale);
        }
        return;
    }

    // MX+ / MX++: the BM element gets the extended-mantissa grid.
    int nbm_exp = shared_exp;
    if (mode_ == MxMode::PlusPlus) {
        // Section 4.3: the NBMs may use a finer shared scale. e is derived
        // from the second-largest exponent with a +1 offset to avoid
        // saturation, then clipped so the delta fits in the 3 reserved bits.
        int max2 = INT32_MIN;
        for (int i = 0; i < n; ++i) {
            if (i == bm || in[i] == 0.0f)
                continue;
            max2 = std::max(max2, floorLog2(in[i]));
        }
        if (max2 != INT32_MIN) {
            const int e = max2 - emax_ + 1;
            nbm_exp = std::clamp(e, shared_exp - 7, shared_exp);
        }
    }
    const double nbm_scale = pow2d(nbm_exp);

    for (int i = 0; i < n; ++i) {
        if (i == bm) {
            const double scaled = static_cast<double>(in[i]) / scale;
            out[i] = static_cast<float>(quantizeBm(scaled) * scale);
        } else {
            const double scaled = static_cast<double>(in[i]) / nbm_scale;
            out[i] =
                static_cast<float>(quantizeElement(scaled) * nbm_scale);
        }
    }
}

void
MxQuantizer::fakeQuantize(const float *in, float *out, size_t n) const
{
    KernelDispatch::quantizeRows(*this, in, out, 1, n);
}

void
MxQuantizer::fakeQuantizeRows(const float *in, float *out, size_t rows,
                              size_t cols) const
{
    // Rows are independent; this is the hot loop of every model-quality
    // experiment's activations (the model quantizes MX weights once, see
    // mx/weight_store.h). The dispatch engine fuses the amax/shared-
    // exponent/rounding sweep and vectorizes it; fakeQuantizeBlock stays
    // the scalar ground truth.
    KernelDispatch::quantizeRows(*this, in, out, rows, cols);
}

MxBlock
MxQuantizer::encodeBlock(const float *in, int n) const
{
    MXPLUS_CHECK(n >= 1 && n <= block_size_);
    MxBlock block;
    block.n = n;

    const int bm = bmIndex(in, n);
    const double amax = std::fabs(static_cast<double>(in[bm]));

    if (amax == 0.0 || isZeroBlock(in, n)) {
        // Every element takes the +0 code too: in MX mode the reserved
        // scale code is an ordinary scale, decoded through the elements.
        block.scale_code = E8M0::kZeroBlock;
        std::fill(block.codes.begin(), block.codes.begin() + n, zeroCode());
        return block;
    }

    const int shared_exp = sharedExp(in, n);
    block.scale_code = E8M0::encode(shared_exp);
    int nbm_exp = shared_exp;
    if (mode_ == MxMode::PlusPlus) {
        int max2 = INT32_MIN;
        for (int i = 0; i < n; ++i) {
            if (i == bm || in[i] == 0.0f)
                continue;
            max2 = std::max(max2, floorLog2(in[i]));
        }
        if (max2 != INT32_MIN) {
            const int e = max2 - emax_ + 1;
            nbm_exp = std::clamp(e, shared_exp - 7, shared_exp);
        }
    }
    return encodeBlockAt(in, n, block.scale_code, bm,
                         static_cast<uint8_t>(shared_exp - nbm_exp));
}

MxBlock
MxQuantizer::encodeBlockAt(const float *in, int n, uint8_t scale_code,
                           int bm_index, uint8_t nbm_delta) const
{
    MXPLUS_CHECK(n >= 1 && n <= block_size_);
    MXPLUS_CHECK(scale_code != E8M0::kNaN && bm_index >= 0 &&
                 bm_index < n && nbm_delta <= 7);
    MxBlock block;
    block.n = n;
    block.scale_code = scale_code;
    const double scale = E8M0::value(scale_code);

    if (mode_ == MxMode::Standard) {
        for (int i = 0; i < n; ++i)
            block.codes[i] = encodeElement(static_cast<double>(in[i]) / scale);
        return block;
    }

    block.bm_index = static_cast<uint8_t>(bm_index);
    block.nbm_delta = nbm_delta;
    const double nbm_scale = scale / pow2d(static_cast<int>(nbm_delta));
    for (int i = 0; i < n; ++i) {
        if (i == bm_index) {
            const double scaled = static_cast<double>(in[i]) / scale;
            block.codes[i] = bmCodec(format_).encode(scaled);
        } else {
            block.codes[i] =
                encodeElement(static_cast<double>(in[i]) / nbm_scale);
        }
    }
    return block;
}

void
MxQuantizer::decodeBlock(const MxBlock &block, float *out, int n) const
{
    MXPLUS_CHECK(n == block.n);
    if (block.scale_code == E8M0::kZeroBlock &&
        mode_ != MxMode::Standard) {
        std::fill(out, out + n, 0.0f);
        return;
    }

    const double scale = E8M0::value(block.scale_code);
    const double nbm_scale =
        scale / pow2d(static_cast<int>(block.nbm_delta));

    for (int i = 0; i < n; ++i) {
        double v;
        if (mode_ != MxMode::Standard && i == block.bm_index) {
            v = bmCodec(format_).decode(block.codes[i]) * scale;
        } else if (is_float_) {
            v = elementMinifloat(format_).decode(block.codes[i]) *
                (mode_ == MxMode::Standard ? scale : nbm_scale);
        } else {
            const auto &codec = elementFixedPoint(format_);
            const int32_t raw = static_cast<int32_t>(block.codes[i]) -
                (1 << (codec.bits() - 1));
            v = codec.decode(raw) *
                (mode_ == MxMode::Standard ? scale : nbm_scale);
        }
        out[i] = static_cast<float>(v);
    }
}

double
MxQuantizer::avgBitsPerElement() const
{
    const double elem_bits = elementFormatInfo(format_).bits;
    const double scale_bits = 8.0 / block_size_;
    const double meta_bits =
        (mode_ == MxMode::Standard) ? 0.0 : 8.0 / block_size_;
    return elem_bits + scale_bits + meta_bits;
}

std::string
MxQuantizer::name() const
{
    std::string base = elementFormatInfo(format_).mx_name;
    if (mode_ == MxMode::Plus)
        base += "+";
    else if (mode_ == MxMode::PlusPlus)
        base += "++";
    return base;
}

} // namespace mxplus
