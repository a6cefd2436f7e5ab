#include "baselines/format_quantizers.h"

#include "common/bf16.h"
#include "common/check.h"

namespace mxplus {

namespace {

class IdentityQuantizer final : public TensorQuantizer
{
  public:
    void
    quantizeRows(const float *in, float *out, size_t rows,
                 size_t cols) const override
    {
        if (in != out)
            std::copy(in, in + rows * cols, out);
    }

    size_t blockPeriod() const override { return 1; }
    std::string name() const override { return "FP32"; }
    double avgBits() const override { return 32.0; }
};

class Bf16Quantizer final : public TensorQuantizer
{
  public:
    void
    quantizeRows(const float *in, float *out, size_t rows,
                 size_t cols) const override
    {
        const size_t n = rows * cols;
        for (size_t i = 0; i < n; ++i)
            out[i] = roundToBf16(in[i]);
    }

    size_t blockPeriod() const override { return 1; }
    std::string name() const override { return "BF16"; }
    double avgBits() const override { return 16.0; }
};

class MxTensorQuantizer final : public TensorQuantizer
{
  public:
    MxTensorQuantizer(ElementFormat format, MxMode mode, int block_size)
        : q_(format, mode, block_size)
    {
    }

    void
    quantizeRows(const float *in, float *out, size_t rows,
                 size_t cols) const override
    {
        q_.fakeQuantizeRows(in, out, rows, cols);
    }

    size_t
    blockPeriod() const override
    {
        return static_cast<size_t>(q_.blockSize());
    }

    const MxQuantizer *mxQuantizer() const override { return &q_; }
    std::string name() const override { return q_.name(); }
    double avgBits() const override { return q_.avgBitsPerElement(); }

  private:
    MxQuantizer q_;
};

class Nvfp4TensorQuantizer final : public TensorQuantizer
{
  public:
    explicit Nvfp4TensorQuantizer(bool plus) : q_(plus) {}

    void
    quantizeRows(const float *in, float *out, size_t rows,
                 size_t cols) const override
    {
        q_.fakeQuantizeRows(in, out, rows, cols);
    }

    size_t blockPeriod() const override { return 16; } // NVFP4 block

    std::string name() const override { return q_.name(); }
    double avgBits() const override { return q_.avgBitsPerElement(); }

  private:
    Nvfp4Quantizer q_;
};

class MsfpTensorQuantizer final : public TensorQuantizer
{
  public:
    explicit MsfpTensorQuantizer(int total_bits) : q_(total_bits) {}

    void
    quantizeRows(const float *in, float *out, size_t rows,
                 size_t cols) const override
    {
        q_.fakeQuantizeRows(in, out, rows, cols);
    }

    size_t
    blockPeriod() const override
    {
        return static_cast<size_t>(q_.blockSize());
    }

    std::string name() const override { return q_.name(); }
    double avgBits() const override { return q_.avgBitsPerElement(); }

  private:
    MsfpQuantizer q_;
};

class SmxTensorQuantizer final : public TensorQuantizer
{
  public:
    explicit SmxTensorQuantizer(int avg_bits) : q_(avg_bits) {}

    void
    quantizeRows(const float *in, float *out, size_t rows,
                 size_t cols) const override
    {
        q_.fakeQuantizeRows(in, out, rows, cols);
    }

    size_t
    blockPeriod() const override
    {
        return static_cast<size_t>(q_.groupSize());
    }

    std::string name() const override { return q_.name(); }
    double avgBits() const override { return q_.avgBitsPerElement(); }

  private:
    SmxQuantizer q_;
};

class TopKTensorQuantizer final : public TensorQuantizer
{
  public:
    explicit TopKTensorQuantizer(int k) : q_(k), k_(k) {}

    void
    quantizeRows(const float *in, float *out, size_t rows,
                 size_t cols) const override
    {
        q_.fakeQuantizeRows(in, out, rows, cols);
    }

    // Top-k selection happens within each MX block.
    size_t
    blockPeriod() const override
    {
        return static_cast<size_t>(q_.blockSize());
    }

    std::string
    name() const override
    {
        return "MXFP4-top" + std::to_string(k_);
    }

    double
    avgBits() const override
    {
        // Top-k elements store two extra mantissa bits plus per-block
        // index metadata (5 bits each).
        return 4.0 + 8.0 / 32.0 + k_ * 7.0 / 32.0;
    }

  private:
    TopKQuantizer q_;
    int k_;
};

} // namespace

QuantizerPtr
makeIdentityQuantizer()
{
    return std::make_shared<IdentityQuantizer>();
}

QuantizerPtr
makeBf16Quantizer()
{
    return std::make_shared<Bf16Quantizer>();
}

QuantizerPtr
makeMxQuantizer(ElementFormat format, MxMode mode, int block_size)
{
    return std::make_shared<MxTensorQuantizer>(format, mode, block_size);
}

QuantizerPtr
makeNvfp4Quantizer(bool plus)
{
    return std::make_shared<Nvfp4TensorQuantizer>(plus);
}

QuantizerPtr
makeMsfpQuantizer(int total_bits)
{
    return std::make_shared<MsfpTensorQuantizer>(total_bits);
}

QuantizerPtr
makeSmxQuantizer(int avg_bits)
{
    return std::make_shared<SmxTensorQuantizer>(avg_bits);
}

QuantizerPtr
makeTopKQuantizer(int k)
{
    return std::make_shared<TopKTensorQuantizer>(k);
}

QuantizerPtr
makeQuantizerByName(const std::string &name)
{
    using EF = ElementFormat;
    if (name == "FP32")
        return makeIdentityQuantizer();
    if (name == "BF16")
        return makeBf16Quantizer();

    struct MxEntry
    {
        const char *name;
        EF format;
        MxMode mode;
    };
    static const MxEntry mx_entries[] = {
        {"MXFP4", EF::E2M1, MxMode::Standard},
        {"MXFP4+", EF::E2M1, MxMode::Plus},
        {"MXFP4++", EF::E2M1, MxMode::PlusPlus},
        {"MXFP6", EF::E2M3, MxMode::Standard},
        {"MXFP6+", EF::E2M3, MxMode::Plus},
        {"MXFP6++", EF::E2M3, MxMode::PlusPlus},
        {"MXFP6-E3M2", EF::E3M2, MxMode::Standard},
        {"MXFP8", EF::E4M3, MxMode::Standard},
        {"MXFP8+", EF::E4M3, MxMode::Plus},
        {"MXFP8++", EF::E4M3, MxMode::PlusPlus},
        {"MXFP8-E5M2", EF::E5M2, MxMode::Standard},
        {"MXINT8", EF::INT8, MxMode::Standard},
        {"MXINT8+", EF::INT8, MxMode::Plus},
        {"MXINT4", EF::INT4, MxMode::Standard},
        {"MXINT4+", EF::INT4, MxMode::Plus},
    };
    for (const auto &e : mx_entries) {
        if (name == e.name)
            return makeMxQuantizer(e.format, e.mode);
    }

    if (name == "NVFP4")
        return makeNvfp4Quantizer(false);
    if (name == "NVFP4+")
        return makeNvfp4Quantizer(true);
    if (name == "MSFP12")
        return makeMsfpQuantizer(12);
    if (name == "MSFP14")
        return makeMsfpQuantizer(14);
    if (name == "MSFP16")
        return makeMsfpQuantizer(16);
    if (name == "SMX4")
        return makeSmxQuantizer(4);
    if (name == "SMX6")
        return makeSmxQuantizer(6);
    if (name == "SMX9")
        return makeSmxQuantizer(9);
    fatal("unknown quantizer name: " + name);
}

std::vector<std::string>
knownQuantizerNames()
{
    return {"FP32", "BF16",
            "MXFP4", "MXFP4+", "MXFP4++",
            "MXFP6", "MXFP6+", "MXFP6++", "MXFP6-E3M2",
            "MXFP8", "MXFP8+", "MXFP8++", "MXFP8-E5M2",
            "MXINT8", "MXINT8+", "MXINT4", "MXINT4+",
            "NVFP4", "NVFP4+",
            "MSFP12", "MSFP14", "MSFP16",
            "SMX4", "SMX6", "SMX9"};
}

} // namespace mxplus
