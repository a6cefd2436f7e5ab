/**
 * @file
 * Property-test harness for the frozen-page codecs (pisa-style): every
 * registered codec must reproduce the input float stream bit-for-bit
 * after an encode→decode round trip, for every element format × MX
 * mode × quantizer block size × ragged tail length, on both decode
 * backends; plus fuzzed raw bit patterns (including denormals, Inf and
 * NaN, which exercise the raw-block fallback), malformed-input
 * rejection, and a compression-actually-compresses sanity bound on
 * quantized payloads. The dense MX codec gets the same properties for
 * every MX quantizer, on fake-quantized data and on the K/V pages of a
 * real prefill, plus the named blocks that decide whether a quantized
 * block can be stored dense.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/format_quantizers.h"
#include "codec/page_codec.h"
#include "common/rng.h"
#include "model/config.h"
#include "model/quant_config.h"
#include "model/transformer.h"
#include "mx/mx_quantizer.h"
#include "serve/kv_cache.h"

namespace mxplus {
namespace {

const ElementFormat kFormats[] = {
    ElementFormat::E2M1, ElementFormat::E2M3, ElementFormat::E3M2,
    ElementFormat::E4M3, ElementFormat::E5M2, ElementFormat::INT8,
    ElementFormat::INT4,
};

const MxMode kModes[] = {MxMode::Standard, MxMode::Plus, MxMode::PlusPlus};

std::vector<float>
randomFloats(Rng &rng, size_t n, double scale)
{
    std::vector<float> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<float>(rng.gaussian() * scale);
    return v;
}

/// Bit-level equality (distinguishes -0.0 from +0.0, compares NaNs).
::testing::AssertionResult
bitEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    if (!a.empty() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
        for (size_t i = 0; i < a.size(); ++i) {
            uint32_t ua, ub;
            std::memcpy(&ua, &a[i], 4);
            std::memcpy(&ub, &b[i], 4);
            if (ua != ub)
                return ::testing::AssertionFailure()
                       << "elem " << i << ": 0x" << std::hex << ua
                       << " vs 0x" << ub;
        }
    }
    return ::testing::AssertionSuccess();
}

void
roundTrip(const PageCodec *codec, const std::vector<float> &in)
{
    std::vector<uint8_t> enc;
    const size_t bytes = codec->encode(in.data(), in.size(), enc);
    ASSERT_EQ(bytes, enc.size());
    std::vector<float> out(in.size(), -777.0f);
    ASSERT_TRUE(codec->decode(enc.data(), enc.size(), out.data(),
                              out.size()))
        << codec->name() << " n=" << in.size();
    EXPECT_TRUE(bitEqual(in, out)) << codec->name() << " n=" << in.size();
}

// ------------------------------------------------------------ registry --

TEST(PageCodec, RegistryNamesResolve)
{
    ASSERT_NE(pageCodecByName("reference"), nullptr);
    ASSERT_NE(pageCodecByName("simd"), nullptr);
    EXPECT_EQ(pageCodecByName("bogus"), nullptr);
    EXPECT_STREQ(pageCodecByName("reference")->name(), "reference");
    EXPECT_STREQ(pageCodecByName("simd")->name(), "simd");
    // "auto" resolves to a real codec either way.
    ASSERT_NE(resolvePageCodec("auto"), nullptr);
    EXPECT_EQ(allPageCodecs().size(), 2u);
}

// ------------------------------------------- quantized-stream roundtrip --

TEST(PageCodec, RoundTripAllFormatsModesBlocksAndTails)
{
    Rng rng(42);
    const size_t lengths[] = {1,  2,  7,  31,  32,   33,
                              63, 64, 96, 257, 1024, 1024 + 13};
    for (const PageCodec *codec : allPageCodecs()) {
        for (ElementFormat fmt : kFormats) {
            for (MxMode mode : kModes) {
                for (int bs : {8, 16, 32}) {
                    const MxQuantizer q(fmt, mode, bs);
                    for (size_t n : lengths) {
                        std::vector<float> raw =
                            randomFloats(rng, n, 4.0);
                        std::vector<float> quant(n);
                        q.fakeQuantize(raw.data(), quant.data(), n);
                        roundTrip(codec, quant);
                    }
                }
            }
        }
    }
}

TEST(PageCodec, BackendsProduceIdenticalStreamsAndDecodes)
{
    Rng rng(7);
    const PageCodec *ref = pageCodecByName("reference");
    const PageCodec *simd = pageCodecByName("simd");
    for (ElementFormat fmt : kFormats) {
        const MxQuantizer q(fmt, MxMode::Plus, 32);
        std::vector<float> raw = randomFloats(rng, 2048 + 5, 2.0);
        std::vector<float> quant(raw.size());
        q.fakeQuantize(raw.data(), quant.data(), raw.size());

        std::vector<uint8_t> enc_ref, enc_simd;
        ref->encode(quant.data(), quant.size(), enc_ref);
        simd->encode(quant.data(), quant.size(), enc_simd);
        ASSERT_EQ(enc_ref, enc_simd); // one shared bitstream

        std::vector<float> out_ref(quant.size()), out_simd(quant.size());
        ASSERT_TRUE(ref->decode(enc_ref.data(), enc_ref.size(),
                                out_ref.data(), out_ref.size()));
        ASSERT_TRUE(simd->decode(enc_simd.data(), enc_simd.size(),
                                 out_simd.data(), out_simd.size()));
        EXPECT_TRUE(bitEqual(out_ref, out_simd));
        EXPECT_TRUE(bitEqual(quant, out_ref));
    }
}

// --------------------------------------------------- special raw values --

TEST(PageCodec, SpecialValuesSurviveViaRawFallback)
{
    std::vector<float> specials;
    const uint32_t words[] = {
        0x00000000u, 0x80000000u,             // +0, -0
        0x00000001u, 0x80000001u, 0x007FFFFFu, // denormals
        0x7F800000u, 0xFF800000u,             // +/-Inf
        0x7FC00000u, 0x7FA55A55u, 0xFFC00001u, // NaNs (payloads kept)
        0x7F7FFFFFu, 0x00800000u,             // FLT_MAX, FLT_MIN
        0x3F800000u, 0xBF800001u,
    };
    for (uint32_t w : words) {
        float f;
        std::memcpy(&f, &w, 4);
        specials.push_back(f);
    }
    // Pad with a mix so blocks are ragged and mixed normal/special.
    Rng rng(3);
    for (int i = 0; i < 45; ++i)
        specials.push_back(static_cast<float>(rng.gaussian()));
    for (const PageCodec *codec : allPageCodecs())
        roundTrip(codec, specials);
}

TEST(PageCodec, FuzzRandomBitPatternsRoundTrip)
{
    Rng rng(1234);
    for (const PageCodec *codec : allPageCodecs()) {
        for (int iter = 0; iter < 50; ++iter) {
            const size_t n = 1 + rng.uniformInt(300);
            std::vector<float> v(n);
            for (size_t i = 0; i < n; ++i) {
                // Bias toward shared-exponent-ish data half the time so
                // the packed path is exercised, raw fallback the rest.
                uint32_t u;
                if (rng.uniformInt(2) == 0) {
                    u = static_cast<uint32_t>(rng.next());
                } else {
                    const uint32_t e = 120 + static_cast<uint32_t>(
                                                 rng.uniformInt(8));
                    u = (static_cast<uint32_t>(rng.uniformInt(2)) << 31) |
                        (e << 23) |
                        (static_cast<uint32_t>(rng.next()) & 0x700000u);
                }
                std::memcpy(&v[i], &u, 4);
            }
            roundTrip(codec, v);
        }
    }
}

// ------------------------------------------------------ malformed input --

TEST(PageCodec, MalformedStreamsAreRejected)
{
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Standard, 32);
    Rng rng(9);
    std::vector<float> raw = randomFloats(rng, 100, 1.0);
    std::vector<float> quant(raw.size());
    q.fakeQuantize(raw.data(), quant.data(), raw.size());

    for (const PageCodec *codec : allPageCodecs()) {
        std::vector<uint8_t> enc;
        codec->encode(quant.data(), quant.size(), enc);
        std::vector<float> out(quant.size());

        // Empty / truncated header.
        EXPECT_FALSE(codec->decode(enc.data(), 0, out.data(), out.size()));
        EXPECT_FALSE(codec->decode(enc.data(), 3, out.data(), out.size()));
        // Truncated payload and trailing garbage.
        EXPECT_FALSE(codec->decode(enc.data(), enc.size() - 1, out.data(),
                                   out.size()));
        std::vector<uint8_t> longer = enc;
        longer.push_back(0xAB);
        EXPECT_FALSE(codec->decode(longer.data(), longer.size(),
                                   out.data(), out.size()));
        // Wrong version byte.
        std::vector<uint8_t> bad = enc;
        bad[0] ^= 0xFF;
        EXPECT_FALSE(
            codec->decode(bad.data(), bad.size(), out.data(), out.size()));
        // Element-count mismatch between header and caller.
        EXPECT_FALSE(codec->decode(enc.data(), enc.size(), out.data(),
                                   out.size() - 1));
        // Reserved control bits set on the first block.
        bad = enc;
        bad[6] |= 0x30;
        EXPECT_FALSE(
            codec->decode(bad.data(), bad.size(), out.data(), out.size()));
        // Out-of-range mantissa width on a packed block.
        if (bad = enc; (bad[6] & 0x80) != 0) {
            bad[7] = 99;
            EXPECT_FALSE(codec->decode(bad.data(), bad.size(), out.data(),
                                       out.size()));
        }
    }
}

TEST(PageCodec, RandomCorruptionNeverCrashes)
{
    const MxQuantizer q(ElementFormat::E4M3, MxMode::PlusPlus, 32);
    Rng rng(77);
    std::vector<float> raw = randomFloats(rng, 512, 1.5);
    std::vector<float> quant(raw.size());
    q.fakeQuantize(raw.data(), quant.data(), raw.size());
    for (const PageCodec *codec : allPageCodecs()) {
        std::vector<uint8_t> enc;
        codec->encode(quant.data(), quant.size(), enc);
        std::vector<float> out(quant.size());
        for (int iter = 0; iter < 400; ++iter) {
            std::vector<uint8_t> bad = enc;
            const size_t bit = rng.uniformInt(bad.size() * 8);
            bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            // Either rejected or decoded to (possibly different) floats;
            // the caller's checksum layer catches silent changes. Here
            // we only require memory-safe, bounded behavior (ASan job).
            (void)codec->decode(bad.data(), bad.size(), out.data(),
                                out.size());
        }
    }
}

// ------------------------------------------------------------- ratio ----

TEST(PageCodec, QuantizedPayloadsActuallyCompress)
{
    Rng rng(5);
    const PageCodec *codec = pageCodecByName("reference");
    for (ElementFormat fmt :
         {ElementFormat::E2M1, ElementFormat::INT8, ElementFormat::E4M3}) {
        const MxQuantizer q(fmt, MxMode::Standard, 32);
        const size_t n = 32 * 256;
        std::vector<float> raw = randomFloats(rng, n, 3.0);
        std::vector<float> quant(n);
        q.fakeQuantize(raw.data(), quant.data(), n);
        std::vector<uint8_t> enc;
        const size_t bytes = codec->encode(quant.data(), n, enc);
        // A quantized stream must pack to well under half its raw size
        // (MXFP4 manages ~5x; INT8 ~2.5x). Loose bound on purpose.
        EXPECT_LT(bytes, n * sizeof(float) / 2)
            << elementFormatInfo(fmt).name;
    }
}

// ------------------------------------------------------ dense MX codec --

/** Every MX quantizer of the name registry, plus two smaller blocks. */
std::vector<MxQuantizer>
denseQuantizers()
{
    std::vector<MxQuantizer> out;
    for (const std::string &name : knownQuantizerNames()) {
        const QuantizerPtr q = makeQuantizerByName(name);
        if (q->mxQuantizer() != nullptr)
            out.push_back(*q->mxQuantizer());
    }
    out.emplace_back(ElementFormat::E2M1, MxMode::Plus, 16);
    out.emplace_back(ElementFormat::INT8, MxMode::Standard, 8);
    return out;
}

/** Bytes of a dense stream of n floats with no raw block. */
size_t
denseBytes(const MxQuantizer &q, size_t n)
{
    const size_t bs = static_cast<size_t>(q.blockSize());
    const size_t nb = n / bs;
    const size_t metas = q.mode() == MxMode::Standard ? 0 : nb;
    const size_t bits = static_cast<size_t>(elementFormatInfo(q.format()).bits);
    return 8 + nb + metas + (nb * bs * bits + 7) / 8 + (n % bs) * 4;
}

/**
 * Round-trips @p in through both decode backends of the dense codec for
 * @p q, bit-exactly and bit-equal to each other. Returns the stream size.
 */
size_t
denseRoundTrip(const MxQuantizer &q, const std::vector<float> &in)
{
    const auto ref = makeDenseMxCodec(q, /*simd_decode=*/false);
    const auto simd = makeDenseMxCodec(q, /*simd_decode=*/true);
    std::vector<uint8_t> enc;
    std::vector<uint8_t> enc_simd;
    ref->encode(in.data(), in.size(), enc);
    simd->encode(in.data(), in.size(), enc_simd);
    EXPECT_EQ(enc, enc_simd) << q.name(); // one stream per codec family
    std::vector<float> out_ref(in.size(), -777.0f);
    std::vector<float> out_simd(in.size(), -777.0f);
    EXPECT_TRUE(ref->decode(enc.data(), enc.size(), out_ref.data(),
                            out_ref.size()))
        << q.name() << " n=" << in.size();
    EXPECT_TRUE(simd->decode(enc.data(), enc.size(), out_simd.data(),
                             out_simd.size()))
        << q.name() << " n=" << in.size();
    EXPECT_TRUE(bitEqual(in, out_ref)) << q.name() << " n=" << in.size();
    EXPECT_TRUE(bitEqual(out_ref, out_simd))
        << q.name() << " n=" << in.size();
    return enc.size();
}

/** Gaussian data with a 3% chance of a 30x outlier per element. */
std::vector<float>
outlierFloats(Rng &rng, size_t n)
{
    std::vector<float> v = randomFloats(rng, n, 1.0);
    for (float &x : v) {
        if (rng.uniform() < 0.03)
            x *= 30.0f;
    }
    return v;
}

std::vector<float>
fakeQuantized(const MxQuantizer &q, const std::vector<float> &raw)
{
    std::vector<float> out(raw.size());
    q.fakeQuantize(raw.data(), out.data(), raw.size());
    return out;
}

TEST(DenseMxCodec, RoundTripsFakeQuantizedDataOfEveryMxQuantizer)
{
    Rng rng(11);
    for (const MxQuantizer &q : denseQuantizers()) {
        for (size_t n : {size_t{0}, size_t{5}, size_t{32}, size_t{96},
                         size_t{1024}, size_t{1024 + 13}}) {
            const size_t gauss =
                denseRoundTrip(q, fakeQuantized(q, randomFloats(rng, n, 4.0)));
            denseRoundTrip(q, fakeQuantized(q, outlierFloats(rng, n)));
            if (q.format() != ElementFormat::INT8 &&
                q.format() != ElementFormat::INT4) {
                // Float formats store every quantized block dense.
                EXPECT_EQ(gauss, denseBytes(q, n)) << q.name() << " " << n;
            }
        }
    }
}

TEST(DenseMxCodec, RoundTripsTheKvPagesOfARealPrefill)
{
    ModelConfig cfg = simLlama31_8b();
    cfg.n_layers = 2;
    const Transformer model(cfg);
    std::vector<int> prompt(70);
    for (size_t i = 0; i < prompt.size(); ++i)
        prompt[i] = static_cast<int>((7 + 13 * i) % cfg.vocab);
    for (const MxQuantizer &q : denseQuantizers()) {
        QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
        qc.attention = makeMxQuantizer(q.format(), q.mode(), q.blockSize());
        KvCache cache = KvCache::forConfig(cfg, qc);
        model.prefill(prompt, cache, qc);
        const KvPagePool::PageRegions regions =
            KvCache::payloadRegions(cfg, cache.pageTokens());
        for (size_t l = 0; l < cfg.n_layers; ++l) {
            for (size_t p = 0; p < cache.pageCount(l); ++p) {
                const float *k = cache.keyPageData(l, p);
                const float *v = cache.valuePageData(l, p);
                denseRoundTrip(q, {k, k + regions.k_floats});
                denseRoundTrip(q, {v, v + regions.v_floats});
            }
        }
    }
}

TEST(DenseMxCodec, NegativeZeroAndBmFlipBlocksAreStoredDense)
{
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Plus, 32);
    Rng rng(21);
    std::vector<float> raw = randomFloats(rng, 32, 3.0);

    // A -0.0 element: a small negative value rounds to zero and keeps
    // its sign, which the +0 code cannot carry without its sign bit.
    raw[7] = -1e-3f;
    std::vector<float> quant = fakeQuantized(q, raw);
    ASSERT_TRUE(std::signbit(quant[7]) && quant[7] == 0.0f);
    EXPECT_EQ(denseRoundTrip(q, quant), denseBytes(q, 32));

    // An NBM that rounds above its BM: 22.3 -> 22 on the BM grid, 22.1
    // -> 24 on E2M1, so encoding the quantized block again picks the
    // wrong BM and decodes 22 as 24.
    std::vector<float> flip(32);
    for (size_t i = 0; i < flip.size(); ++i)
        flip[i] = 0.25f * static_cast<float>(i % 7) - 0.5f;
    flip[3] = 22.3f;
    flip[9] = 22.1f;
    const std::vector<float> fq = fakeQuantized(q, flip);
    ASSERT_EQ(fq[3], 22.0f);
    ASSERT_EQ(fq[9], 24.0f);
    std::vector<float> again(32);
    q.decodeBlock(q.encodeBlock(fq.data(), 32), again.data(), 32);
    EXPECT_FALSE(bitEqual(fq, again)); // the plain re-encode is wrong
    EXPECT_EQ(denseRoundTrip(q, fq), denseBytes(q, 32));

    // Both at once, under MX++ too.
    const MxQuantizer qpp(ElementFormat::E2M1, MxMode::PlusPlus, 32);
    flip[7] = -1e-3f;
    EXPECT_EQ(denseRoundTrip(qpp, fakeQuantized(qpp, flip)),
              denseBytes(qpp, 32));
}

TEST(DenseMxCodec, FlushedAndSpecialBlocksRoundTrip)
{
    Rng rng(31);
    for (const MxQuantizer &q : denseQuantizers()) {
        // An MX+ flushed block quantizes to +0.0 everywhere: dense.
        std::vector<float> tiny = randomFloats(rng, 32, 1e-39);
        const std::vector<float> flushed = fakeQuantized(q, tiny);
        const size_t n = flushed.size();
        if (q.mode() != MxMode::Standard) {
            EXPECT_EQ(denseRoundTrip(q, flushed), denseBytes(q, n));
        }
        // Unquantized tiny values, denormals, Inf and NaN: raw blocks.
        denseRoundTrip(q, tiny);
        std::vector<float> special = fakeQuantized(q, randomFloats(rng, 64, 2.0));
        special[1] = std::numeric_limits<float>::infinity();
        special[40] = std::numeric_limits<float>::quiet_NaN();
        std::vector<float> denorm = randomFloats(rng, 64, 1e-42);
        denorm.push_back(std::numeric_limits<float>::denorm_min());
        denorm.push_back(-std::numeric_limits<float>::infinity());
        denseRoundTrip(q, special);
        denseRoundTrip(q, denorm);
        std::vector<float> zeros(64, 0.0f);
        zeros[3] = -0.0f;
        denseRoundTrip(q, zeros);
    }
}

TEST(DenseMxCodec, FuzzRandomBitPatternsRoundTrip)
{
    Rng rng(4321);
    for (const MxQuantizer &q : denseQuantizers()) {
        for (int iter = 0; iter < 4; ++iter) {
            const size_t n = 1 + rng.uniformInt(200);
            std::vector<float> v(n);
            for (size_t i = 0; i < n; ++i) {
                const uint32_t u = static_cast<uint32_t>(rng.next());
                std::memcpy(&v[i], &u, 4);
            }
            denseRoundTrip(q, v);
        }
    }
}

TEST(DenseMxCodec, MalformedStreamsAreRejected)
{
    Rng rng(41);
    for (const MxQuantizer &q :
         {MxQuantizer(ElementFormat::E2M1, MxMode::Plus, 16),
          MxQuantizer(ElementFormat::E4M3, MxMode::Standard, 32)}) {
        std::vector<float> in = fakeQuantized(q, randomFloats(rng, 96 + 5, 1.0));
        in[20] = std::numeric_limits<float>::infinity(); // one raw block
        for (bool simd : {false, true}) {
            const auto codec = makeDenseMxCodec(q, simd);
            std::vector<uint8_t> enc;
            codec->encode(in.data(), in.size(), enc);
            std::vector<float> out(in.size());
            ASSERT_TRUE(
                codec->decode(enc.data(), enc.size(), out.data(), out.size()));
            EXPECT_FALSE(codec->decode(enc.data(), 0, out.data(), out.size()));
            EXPECT_FALSE(codec->decode(enc.data(), 5, out.data(), out.size()));
            // Every header byte is checked.
            for (size_t i = 0; i < 8; ++i) {
                std::vector<uint8_t> bad = enc;
                bad[i] ^= 0x04;
                EXPECT_FALSE(codec->decode(bad.data(), bad.size(), out.data(),
                                           out.size()))
                    << "header byte " << i;
            }
            // Element count mismatch, truncation, trailing bytes.
            EXPECT_FALSE(codec->decode(enc.data(), enc.size(), out.data(),
                                       out.size() - 1));
            EXPECT_FALSE(codec->decode(enc.data(), enc.size() - 1,
                                       out.data(), out.size()));
            EXPECT_FALSE(codec->decode(enc.data(), 8 + 2, out.data(),
                                       out.size()));
            std::vector<uint8_t> longer = enc;
            longer.push_back(0);
            EXPECT_FALSE(codec->decode(longer.data(), longer.size(),
                                       out.data(), out.size()));
            // A second raw block the stream has no floats for.
            std::vector<uint8_t> bad = enc;
            bad[8] = E8M0::kNaN == bad[8] ? bad[8] : E8M0::kNaN;
            bad[9] = E8M0::kNaN;
            EXPECT_FALSE(
                codec->decode(bad.data(), bad.size(), out.data(), out.size()));
            if (q.mode() != MxMode::Standard) {
                // A BM slot past the block.
                bad = enc;
                const size_t nb = in.size() / q.blockSize();
                bad[8 + nb] = static_cast<uint8_t>(q.blockSize());
                EXPECT_FALSE(codec->decode(bad.data(), bad.size(), out.data(),
                                           out.size()));
            }
        }
    }
}

TEST(DenseMxCodec, RandomCorruptionNeverCrashes)
{
    Rng rng(51);
    for (const MxQuantizer &q :
         {MxQuantizer(ElementFormat::E2M1, MxMode::Plus, 32),
          MxQuantizer(ElementFormat::E3M2, MxMode::PlusPlus, 8),
          MxQuantizer(ElementFormat::INT8, MxMode::Standard, 16)}) {
        std::vector<float> in = fakeQuantized(q, outlierFloats(rng, 512 + 3));
        in[100] = -0.0f;
        for (bool simd : {false, true}) {
            const auto codec = makeDenseMxCodec(q, simd);
            std::vector<uint8_t> enc;
            codec->encode(in.data(), in.size(), enc);
            std::vector<float> out(in.size());
            for (int iter = 0; iter < 400; ++iter) {
                std::vector<uint8_t> bad = enc;
                const size_t bit = rng.uniformInt(bad.size() * 8);
                bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
                // Rejected, or decoded to some floats the checksum layer
                // catches: only memory-safe behaviour is required here.
                (void)codec->decode(bad.data(), bad.size(), out.data(),
                                    out.size());
            }
        }
    }
}

TEST(DenseMxCodec, BenchModelMxfp4PlusPagesCompressSevenfold)
{
    // The served model's K/V pages under MXFP4+, as the engine freezes
    // them: 4.5 bits per element would be 7.11x.
    ModelConfig cfg = simLlama31_70b();
    cfg.n_layers = 2;
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    std::vector<int> prompt(160);
    for (size_t i = 0; i < prompt.size(); ++i)
        prompt[i] = static_cast<int>((3 + 29 * i) % cfg.vocab);
    KvCache cache = KvCache::forConfig(cfg, qc);
    model.prefill(prompt, cache, qc);
    const auto codec = makeDenseMxCodec(*qc.attention->mxQuantizer(), true);
    const KvPagePool::PageRegions regions =
        KvCache::payloadRegions(cfg, cache.pageTokens());
    size_t payload = 0;
    size_t stream = 0;
    std::vector<uint8_t> enc;
    for (size_t l = 0; l < cfg.n_layers; ++l) {
        for (size_t p = 0; p < cache.pageCount(l); ++p) {
            stream += codec->encode(cache.keyPageData(l, p), regions.k_floats,
                                    enc);
            stream += codec->encode(cache.valuePageData(l, p),
                                    regions.v_floats, enc);
            payload += (regions.k_floats + regions.v_floats) * sizeof(float);
        }
    }
    EXPECT_GE(static_cast<double>(payload) / static_cast<double>(stream),
              7.0);
}

} // namespace
} // namespace mxplus
