/**
 * @file
 * Unit and property tests for the MX / MX+ / MX++ block quantizer,
 * including the paper's worked examples (Figures 4 and 6) and the
 * numerical contracts listed in DESIGN.md Section 5.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "formats/scale.h"
#include "mx/mx_quantizer.h"
#include "tensor/stats.h"

namespace mxplus {
namespace {

/** The upper sampled block of Figure 4(b) (outlier block). */
const std::vector<float> kOutlierBlock =
    {-0.27f, -0.19f, 0.99f, -0.20f, -9.84f, -0.39f};

/** The lower sampled block of Figure 4(b) (benign block). */
const std::vector<float> kBenignBlock =
    {-0.27f, 0.04f, -1.02f, 0.18f, -0.45f, -0.20f};

TEST(MxQuantizer, SharedExpMatchesEq1)
{
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Standard);
    // Figure 6: BM = -9.84, floor(log2 9.84) = 3, e_max = 2 -> shared 1.
    EXPECT_EQ(q.sharedExp(kOutlierBlock.data(),
                          static_cast<int>(kOutlierBlock.size())), 1);
    // Benign block: BM = -1.02, floor(log2) = 0 -> shared -2.
    EXPECT_EQ(q.sharedExp(kBenignBlock.data(),
                          static_cast<int>(kBenignBlock.size())), -2);
}

TEST(MxQuantizer, PaperFig6OutlierBlockMxfp4)
{
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Standard);
    std::vector<float> out(kOutlierBlock.size());
    q.fakeQuantizeBlock(kOutlierBlock.data(), out.data(),
                        static_cast<int>(kOutlierBlock.size()));
    // Paper: 0, 0, 1.00, 0, -8.00, 0.
    const std::vector<float> expected = {0, 0, 1.0f, 0, -8.0f, 0};
    EXPECT_EQ(out, expected);
}

TEST(MxQuantizer, PaperFig6OutlierBlockMxfp4Plus)
{
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Plus);
    std::vector<float> out(kOutlierBlock.size());
    q.fakeQuantizeBlock(kOutlierBlock.data(), out.data(),
                        static_cast<int>(kOutlierBlock.size()));
    // Paper: 0, 0, 1.00, 0, -10.00, 0 — the BM gains a full extra digit.
    const std::vector<float> expected = {0, 0, 1.0f, 0, -10.0f, 0};
    EXPECT_EQ(out, expected);
}

TEST(MxQuantizer, PaperFig4BenignBlockMxfp4)
{
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Standard);
    std::vector<float> out(kBenignBlock.size());
    q.fakeQuantizeBlock(kBenignBlock.data(), out.data(),
                        static_cast<int>(kBenignBlock.size()));
    // Paper: -0.25, 0, -1.00, 0.13, -0.50, -0.25.
    const std::vector<float> expected =
        {-0.25f, 0, -1.0f, 0.125f, -0.5f, -0.25f};
    EXPECT_EQ(out, expected);
}

TEST(MxQuantizer, Fig6BinaryEncodings)
{
    // Figure 6 shows the raw bit patterns for the outlier block.
    const MxQuantizer mx(ElementFormat::E2M1, MxMode::Standard);
    const MxQuantizer mxp(ElementFormat::E2M1, MxMode::Plus);
    const int n = static_cast<int>(kOutlierBlock.size());

    const MxBlock b = mx.encodeBlock(kOutlierBlock.data(), n);
    EXPECT_EQ(E8M0::decode(b.scale_code), 1);
    // 0.99 / 2 = 0.495 -> 0.5 (subnormal: S=0 E=00 M=1 -> 0b0001).
    EXPECT_EQ(b.codes[2], 0b0001u);
    // -9.84 / 2 = -4.92 -> -4.0 (S=1 E=11 M=0 -> 0b1110).
    EXPECT_EQ(b.codes[4], 0b1110u);

    const MxBlock bp = mxp.encodeBlock(kOutlierBlock.data(), n);
    EXPECT_EQ(bp.bm_index, 4);
    // BM -4.92 -> E0M3 code: 1.m = 5.0/4 = 1.010 -> S=1 M=010 -> 0b1010.
    EXPECT_EQ(bp.codes[4], 0b1010u);
}

TEST(MxQuantizer, BmScaledAlwaysInTopBinade)
{
    // DESIGN contract 2: |BM| / 2^shared_exp is in [2^emax, 2^(emax+1))
    // whenever the block is not flushed, so the BM exponent field is
    // redundant.
    Rng rng(123);
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Plus);
    for (int trial = 0; trial < 2000; ++trial) {
        float block[32];
        for (auto &v : block)
            v = static_cast<float>(rng.studentT(2.0) *
                                   pow2d(static_cast<int>(
                                       rng.uniformInt(40)) - 20));
        if (q.isZeroBlock(block, 32))
            continue;
        const int bm = MxQuantizer::bmIndex(block, 32);
        const int se = q.sharedExp(block, 32);
        if (se == E8M0::kBias)
            continue; // top clamp: BM may exceed the binade (saturates)
        const double scaled = std::fabs(block[bm]) / pow2d(se);
        EXPECT_GE(scaled, pow2d(q.emax()));
        EXPECT_LT(scaled, pow2d(q.emax() + 1));
    }
}

TEST(MxQuantizer, ZeroBlockFlushRule)
{
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Plus);
    // floor(log2 BM) <= -127 + emax = -125 -> flushed.
    float tiny[4] = {static_cast<float>(pow2d(-126)),
                     static_cast<float>(-pow2d(-130)), 0.0f, 0.0f};
    EXPECT_TRUE(q.isZeroBlock(tiny, 4));
    float out[4];
    q.fakeQuantizeBlock(tiny, out, 4);
    for (float v : out)
        EXPECT_EQ(v, 0.0f);
    const MxBlock b = q.encodeBlock(tiny, 4);
    EXPECT_EQ(b.scale_code, E8M0::kZeroBlock);

    // Just above the threshold: floor(log2) = -124 -> kept.
    float kept[4] = {static_cast<float>(pow2d(-124)) * 1.5f, 0.0f, 0.0f,
                     0.0f};
    EXPECT_FALSE(q.isZeroBlock(kept, 4));
    q.fakeQuantizeBlock(kept, out, 4);
    EXPECT_NE(out[0], 0.0f);
}

TEST(MxQuantizer, StandardMxDoesNotFlush)
{
    // Plain MX has no reserved zero-block code; tiny blocks clamp at -127.
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Standard);
    float tiny[2] = {static_cast<float>(pow2d(-126)), 0.0f};
    EXPECT_FALSE(q.isZeroBlock(tiny, 2));
    float out[2];
    q.fakeQuantizeBlock(tiny, out, 2);
    // 2^-126 / 2^-127 = 2 -> representable exactly.
    EXPECT_EQ(out[0], tiny[0]);
}

TEST(MxQuantizer, AllZeroBlock)
{
    for (MxMode mode :
         {MxMode::Standard, MxMode::Plus, MxMode::PlusPlus}) {
        const MxQuantizer q(ElementFormat::E2M1, mode);
        float zeros[8] = {};
        float out[8] = {1, 1, 1, 1, 1, 1, 1, 1};
        q.fakeQuantizeBlock(zeros, out, 8);
        for (float v : out)
            EXPECT_EQ(v, 0.0f);
    }
}

TEST(MxQuantizer, BmIndexFirstOnTies)
{
    float block[4] = {2.0f, -2.0f, 1.0f, 2.0f};
    EXPECT_EQ(MxQuantizer::bmIndex(block, 4), 0);
}

TEST(MxQuantizer, AvgBitsPerElement)
{
    EXPECT_DOUBLE_EQ(
        MxQuantizer(ElementFormat::E2M1, MxMode::Standard)
            .avgBitsPerElement(), 4.25);
    EXPECT_DOUBLE_EQ(
        MxQuantizer(ElementFormat::E2M1, MxMode::Plus)
            .avgBitsPerElement(), 4.5);
    EXPECT_DOUBLE_EQ(
        MxQuantizer(ElementFormat::E4M3, MxMode::Standard)
            .avgBitsPerElement(), 8.25);
}

TEST(MxQuantizer, Names)
{
    EXPECT_EQ(MxQuantizer(ElementFormat::E2M1, MxMode::Standard).name(),
              "MXFP4");
    EXPECT_EQ(MxQuantizer(ElementFormat::E2M1, MxMode::Plus).name(),
              "MXFP4+");
    EXPECT_EQ(MxQuantizer(ElementFormat::E2M3, MxMode::PlusPlus).name(),
              "MXFP6++");
    EXPECT_EQ(MxQuantizer(ElementFormat::INT8, MxMode::Plus).name(),
              "MXINT8+");
}

TEST(MxQuantizer, MxInt8KnownValues)
{
    const MxQuantizer q(ElementFormat::INT8, MxMode::Standard);
    float block[3] = {1.0f, 0.5f, -0.25f};
    float out[3];
    q.fakeQuantizeBlock(block, out, 3);
    // amax = 1 -> shared exp 0; INT8 grid step 1/64 represents these
    // values exactly.
    EXPECT_EQ(out[0], 1.0f);
    EXPECT_EQ(out[1], 0.5f);
    EXPECT_EQ(out[2], -0.25f);
}

TEST(MxQuantizer, MxInt8PlusBmGainsFractionBit)
{
    // The MXINT8+ BM is stored as +-1.f7 (implicit integer bit): step
    // 1/128 instead of 1/64.
    const MxQuantizer plus(ElementFormat::INT8, MxMode::Plus);
    const MxQuantizer std_q(ElementFormat::INT8, MxMode::Standard);
    float block[2] = {1.0f + 1.0f / 128.0f, 0.25f};
    float out_p[2];
    float out_s[2];
    plus.fakeQuantizeBlock(block, out_p, 2);
    std_q.fakeQuantizeBlock(block, out_s, 2);
    EXPECT_EQ(out_p[0], block[0]); // exact on the finer grid
    EXPECT_NE(out_s[0], block[0]); // rounds on the 1/64 grid
}

// ---------------------------------------------------------------------------
// Parameterized property sweep across element formats and modes.
// ---------------------------------------------------------------------------

using FormatMode = std::tuple<ElementFormat, MxMode>;

class MxPropertyTest : public ::testing::TestWithParam<FormatMode>
{
  protected:
    ElementFormat format() const { return std::get<0>(GetParam()); }
    MxMode mode() const { return std::get<1>(GetParam()); }

    /** Random block with occasional outliers, scaled across binades. */
    std::vector<float>
    randomBlock(Rng &rng, int n) const
    {
        std::vector<float> block(n);
        const double base =
            pow2d(static_cast<int>(rng.uniformInt(30)) - 15);
        for (auto &v : block) {
            v = static_cast<float>(rng.gaussian(0.0, base));
            if (rng.uniform() < 0.05)
                v *= 30.0f; // inject an outlier
        }
        return block;
    }
};

/** Bitwise float equality (tells +0.0 from -0.0). */
bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST_P(MxPropertyTest, EncodeDecodeMatchesFakeQuantize)
{
    const MxQuantizer q(format(), mode());
    Rng rng(1000 + static_cast<int>(format()) * 10 +
            static_cast<int>(mode()));
    std::vector<std::vector<float>> blocks;
    for (int trial = 0; trial < 500; ++trial)
        blocks.push_back(randomBlock(rng, 32));
    // Zero blocks (MXINT code 0 is the most negative integer, not zero)
    // and exact -0.0 elements, which fake quantization maps to +0.0.
    blocks.emplace_back(32, 0.0f);
    blocks.emplace_back(32, -0.0f);
    std::vector<float> mixed = randomBlock(rng, 32);
    for (size_t i = 0; i < mixed.size(); i += 3)
        mixed[i] = -0.0f;
    blocks.push_back(mixed);
    for (size_t t = 0; t < blocks.size(); ++t) {
        float fake[32];
        float decoded[32];
        q.fakeQuantizeBlock(blocks[t].data(), fake, 32);
        const MxBlock enc = q.encodeBlock(blocks[t].data(), 32);
        q.decodeBlock(enc, decoded, 32);
        for (int i = 0; i < 32; ++i)
            EXPECT_TRUE(sameBits(fake[i], decoded[i]))
                << q.name() << " block " << t << " elem " << i << ": "
                << fake[i] << " vs " << decoded[i];
    }
}

TEST_P(MxPropertyTest, QuantizeIsIdempotentWhenBmStable)
{
    // MX quantization is idempotent whenever the block max is stable:
    // same BM element and same binade after rounding. (It is genuinely
    // NOT idempotent in two corner cases: an INT block-max rounding up to
    // the asymmetric two's-complement minimum -2.0 crosses a binade, and
    // in MX+/MX++ an NBM can round above the quantized BM. Both change
    // the shared scale of a second pass.)
    // MX++ is excluded: its NBM scale derives from the second-largest
    // exponent, which rounding can legitimately move.
    if (mode() == MxMode::PlusPlus)
        GTEST_SKIP();
    const MxQuantizer q(format(), mode());
    Rng rng(2000 + static_cast<int>(format()) * 10 +
            static_cast<int>(mode()));
    int checked = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const auto block = randomBlock(rng, 32);
        float once[32];
        float twice[32];
        q.fakeQuantizeBlock(block.data(), once, 32);
        bool all_zero = true;
        for (float v : once)
            all_zero = all_zero && v == 0.0f;
        if (all_zero)
            continue;
        if (MxQuantizer::bmIndex(once, 32) !=
            MxQuantizer::bmIndex(block.data(), 32)) {
            continue;
        }
        if (q.sharedExp(once, 32) != q.sharedExp(block.data(), 32))
            continue;
        q.fakeQuantizeBlock(once, twice, 32);
        ++checked;
        for (int i = 0; i < 32; ++i)
            EXPECT_EQ(once[i], twice[i]) << q.name();
    }
    EXPECT_GT(checked, 100) << q.name(); // precondition rarely fails
}

TEST_P(MxPropertyTest, SignsPreserved)
{
    const MxQuantizer q(format(), mode());
    Rng rng(3000 + static_cast<int>(format()));
    for (int trial = 0; trial < 200; ++trial) {
        const auto block = randomBlock(rng, 32);
        float out[32];
        q.fakeQuantizeBlock(block.data(), out, 32);
        for (int i = 0; i < 32; ++i) {
            if (out[i] != 0.0f) {
                EXPECT_EQ(std::signbit(out[i]), std::signbit(block[i]))
                    << q.name();
            }
        }
    }
}

TEST_P(MxPropertyTest, ShortBlocksSupported)
{
    const MxQuantizer q(format(), mode());
    Rng rng(4000);
    for (int n : {1, 2, 3, 7, 31}) {
        const auto block = randomBlock(rng, n);
        std::vector<float> out(n);
        q.fakeQuantizeBlock(block.data(), out.data(), n);
        const MxBlock enc = q.encodeBlock(block.data(), n);
        std::vector<float> dec(n);
        q.decodeBlock(enc, dec.data(), n);
        EXPECT_EQ(out, dec) << q.name() << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormatModes, MxPropertyTest,
    ::testing::Combine(
        ::testing::Values(ElementFormat::E2M1, ElementFormat::E2M3,
                          ElementFormat::E3M2, ElementFormat::E4M3,
                          ElementFormat::E5M2, ElementFormat::INT8,
                          ElementFormat::INT4),
        ::testing::Values(MxMode::Standard, MxMode::Plus,
                          MxMode::PlusPlus)),
    [](const ::testing::TestParamInfo<FormatMode> &info) {
        std::string n =
            elementFormatInfo(std::get<0>(info.param)).name;
        switch (std::get<1>(info.param)) {
          case MxMode::Standard: n += "_MX"; break;
          case MxMode::Plus: n += "_MXPlus"; break;
          case MxMode::PlusPlus: n += "_MXPlusPlus"; break;
        }
        return n;
    });

// ---------------------------------------------------------------------------
// Error-ordering contracts (DESIGN contracts 4 and the MX++ refinement).
// ---------------------------------------------------------------------------

class MxErrorOrderTest : public ::testing::TestWithParam<ElementFormat>
{
};

TEST_P(MxErrorOrderTest, PlusNeverWorseThanStandard)
{
    const MxQuantizer mx(GetParam(), MxMode::Standard);
    const MxQuantizer mxp(GetParam(), MxMode::Plus);
    Rng rng(5000 + static_cast<int>(GetParam()));
    for (int trial = 0; trial < 500; ++trial) {
        float block[32];
        for (auto &v : block) {
            v = static_cast<float>(rng.gaussian(0.0, 1.0));
            if (rng.uniform() < 0.08)
                v *= 25.0f;
        }
        float q_std[32];
        float q_plus[32];
        mx.fakeQuantizeBlock(block, q_std, 32);
        mxp.fakeQuantizeBlock(block, q_plus, 32);
        // Same shared scale, identical NBM handling, strictly finer BM
        // grid: block MSE can only go down.
        EXPECT_LE(mse(block, q_plus, 32), mse(block, q_std, 32) + 1e-12)
            << elementFormatInfo(GetParam()).name;
    }
}

TEST_P(MxErrorOrderTest, PlusPlusNeverWorseThanPlus)
{
    const MxQuantizer mxp(GetParam(), MxMode::Plus);
    const MxQuantizer mxpp(GetParam(), MxMode::PlusPlus);
    Rng rng(6000 + static_cast<int>(GetParam()));
    for (int trial = 0; trial < 500; ++trial) {
        float block[32];
        for (auto &v : block) {
            v = static_cast<float>(rng.gaussian(0.0, 1.0));
            if (rng.uniform() < 0.08)
                v *= 25.0f;
        }
        float q_plus[32];
        float q_pp[32];
        mxp.fakeQuantizeBlock(block, q_plus, 32);
        mxpp.fakeQuantizeBlock(block, q_pp, 32);
        EXPECT_LE(mse(block, q_pp, 32), mse(block, q_plus, 32) + 1e-12)
            << elementFormatInfo(GetParam()).name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    FloatFormats, MxErrorOrderTest,
    ::testing::Values(ElementFormat::E2M1, ElementFormat::E2M3,
                      ElementFormat::E4M3),
    [](const ::testing::TestParamInfo<ElementFormat> &info) {
        return elementFormatInfo(info.param).name;
    });

TEST(MxPlusPlus, NbmDeltaWithinThreeBits)
{
    const MxQuantizer q(ElementFormat::E2M1, MxMode::PlusPlus);
    Rng rng(7000);
    for (int trial = 0; trial < 1000; ++trial) {
        float block[32];
        for (auto &v : block)
            v = static_cast<float>(rng.studentT(2.5));
        const MxBlock enc = q.encodeBlock(block, 32);
        EXPECT_LE(enc.nbm_delta, 7);
    }
}

TEST(MxPlusPlus, PaperSection43Example)
{
    // From Section 4.3: in the Fig. 6 block, MX++ chooses shared_exp_new
    // = -2 so the NBM -0.39 maps to -1.5 * 2^-2 = -0.375 instead of 0.
    const MxQuantizer q(ElementFormat::E2M1, MxMode::PlusPlus);
    std::vector<float> out(kOutlierBlock.size());
    q.fakeQuantizeBlock(kOutlierBlock.data(), out.data(),
                        static_cast<int>(kOutlierBlock.size()));
    const MxBlock enc = q.encodeBlock(
        kOutlierBlock.data(), static_cast<int>(kOutlierBlock.size()));
    // shared_exp = 1, shared_exp_new = -2 -> delta 3.
    EXPECT_EQ(E8M0::decode(enc.scale_code), 1);
    EXPECT_EQ(enc.nbm_delta, 3);
    EXPECT_FLOAT_EQ(out[5], -0.375f); // -0.39 survives
    EXPECT_FLOAT_EQ(out[4], -10.0f);  // BM same as MX+
    // 0.99 scales to 3.96 at 2^-2 and must NOT saturate (the +1 offset).
    EXPECT_FLOAT_EQ(out[2], 1.0f);
}

TEST(MxAnalysis, BmDominatesBlockMseOnOutlierData)
{
    // Figure 5's observation: with outlier-bearing activations, the BM
    // element accounts for a large share of MXFP4 quantization MSE.
    Rng rng(8000);
    std::vector<float> data(32 * 256);
    for (auto &v : data) {
        v = static_cast<float>(rng.gaussian(0.0, 0.1));
        if (rng.uniform() < 0.02)
            v = static_cast<float>(rng.gaussian(0.0, 4.0));
    }
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Standard);
    const auto breakdown = analyzeBlockError(q, data.data(), data.size());
    EXPECT_GT(breakdown.bm_share, 0.5);
    EXPECT_GE(breakdown.largest_error_share, breakdown.bm_share - 1e-9);
}

} // namespace
} // namespace mxplus
