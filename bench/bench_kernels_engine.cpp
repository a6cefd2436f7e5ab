/**
 * @file
 * Machine-readable microbenchmark of the KernelDispatch engine: GEMM
 * GFLOP/s and block-quantization GB/s per backend and shape, the
 * frozen-page codecs on one page region, and the serving linears' cost
 * with and without the quantize-once weight store,
 * emitted as JSON so future PRs have a performance trajectory to regress
 * against (the committed snapshot lives in BENCH_kernels.json).
 *
 * Usage: bench_kernels_engine [--quick] [--out FILE]
 *
 *  --quick   small shapes / single repetition (CI smoke run)
 *  --out     write the JSON to FILE instead of stdout
 *
 * See docs/PERFORMANCE.md for how to interpret the output.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "codec/page_codec.h"
#include "common/rng.h"
#include "baselines/format_quantizers.h"
#include "kernels/kernel_dispatch.h"
#include "mx/mx_quantizer.h"
#include "mx/weight_store.h"
#include "tensor/tensor.h"

namespace mxplus {
namespace {

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

Matrix
randomMatrix(size_t rows, size_t cols, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    return m;
}

std::vector<float>
randomActivations(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> data(n);
    for (auto &v : data) {
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
        if (rng.uniform() < 0.03)
            v *= 30.0f; // outlier channels, as the paper's activations have
    }
    return data;
}

/** Run @p fn repeatedly until ~min_time elapses; return seconds/run. */
template <typename Fn>
double
timeIt(Fn &&fn, double min_time)
{
    fn(); // warm-up (page faults, panel allocation, dispatch resolution)
    int reps = 0;
    const double t0 = now();
    double elapsed = 0.0;
    do {
        fn();
        ++reps;
        elapsed = now() - t0;
    } while (elapsed < min_time);
    return elapsed / reps;
}

struct GemmResult
{
    const char *op;
    size_t m, n, k;
    double ref_gflops;
    double simd_gflops;
};

struct StoreResult
{
    std::string format;
    size_t m, n, k;
    double quantize_gemm_ms; ///< quantizeRows(W) + gemmNT, per call
    double store_gemm_ms;    ///< gemmNT from the weight store, per call
};

struct QuantResult
{
    std::string format;
    const char *mode;
    const char *api;
    double ref_gbps;
    double simd_gbps;
};

GemmResult
benchGemm(const char *op, size_t m, size_t n, size_t k, double min_time)
{
    const Matrix a = randomMatrix(m, k, 1);
    const bool nt = std::strcmp(op, "NT") == 0;
    const Matrix b = nt ? randomMatrix(n, k, 2) : randomMatrix(k, n, 2);
    Matrix c(m, n);
    const double flops = 2.0 * static_cast<double>(m) *
        static_cast<double>(n) * static_cast<double>(k);

    auto run = [&](KernelBackend backend) {
        const double sec = timeIt(
            [&] {
                if (nt)
                    KernelDispatch::gemmNT(backend, a, b, c);
                else
                    KernelDispatch::gemmNN(backend, a, b, c);
            },
            min_time);
        return flops / sec * 1e-9;
    };
    GemmResult r{op, m, n, k, 0.0, 0.0};
    r.ref_gflops = run(KernelBackend::Reference);
    r.simd_gflops = run(KernelBackend::Simd);
    return r;
}

QuantResult
benchQuantize(ElementFormat fmt, MxMode mode, size_t rows, size_t cols,
              double min_time)
{
    const MxQuantizer q(fmt, mode);
    const auto data = randomActivations(rows * cols, 3);
    std::vector<float> out(data.size());
    const double bytes = static_cast<double>(data.size()) * sizeof(float);

    auto run = [&](KernelBackend backend) {
        const double sec = timeIt(
            [&] {
                KernelDispatch::quantizeRows(backend, q, data.data(),
                                             out.data(), rows, cols);
            },
            min_time);
        return bytes / sec * 1e-9;
    };
    QuantResult r{q.name(), mxModeName(mode), "quantizeRows", 0.0, 0.0};
    r.ref_gbps = run(KernelBackend::Reference);
    r.simd_gbps = run(KernelBackend::Simd);
    return r;
}

QuantResult
benchPack(ElementFormat fmt, MxMode mode, size_t rows, size_t cols,
          double min_time)
{
    const MxQuantizer q(fmt, mode);
    const auto data = randomActivations(rows * cols, 4);
    const double bytes = static_cast<double>(data.size()) * sizeof(float);

    auto run = [&](KernelBackend backend) {
        const double sec = timeIt(
            [&] {
                auto blocks = KernelDispatch::quantizePack(
                    backend, q, data.data(), rows, cols);
                (void)blocks;
            },
            min_time);
        return bytes / sec * 1e-9;
    };
    QuantResult r{q.name(), mxModeName(mode), "quantizePack", 0.0, 0.0};
    r.ref_gbps = run(KernelBackend::Reference);
    r.simd_gbps = run(KernelBackend::Simd);
    return r;
}

/**
 * One serving linear, y = x W^T with W [n x k] and m activation rows, on
 * the active backend: quantizing the float weight and multiplying (the
 * per-call path every non-MX weight quantizer takes) against one GEMM
 * that decodes the weight store's blocks into its B panels. The
 * activation quantization both paths share is left out.
 */
StoreResult
benchStoreLinear(const std::string &format, size_t m, size_t n, size_t k,
                 double min_time)
{
    const QuantizerPtr tq = makeQuantizerByName(format);
    const Matrix w = randomMatrix(n, k, 6);
    const Matrix aq = tq->quantized(randomMatrix(m, k, 7));
    const MxPanelWeight store(*tq->mxQuantizer(), w);
    Matrix wq(n, k);
    Matrix c(m, n);
    StoreResult r{format, m, n, k, 0.0, 0.0};
    r.quantize_gemm_ms = 1e3 * timeIt(
                                   [&] {
                                       tq->quantize(w, wq);
                                       KernelDispatch::gemmNT(aq, wq, c);
                                   },
                                   min_time);
    r.store_gemm_ms = 1e3 *
        timeIt([&] { KernelDispatch::gemmNT(aq, store, c); }, min_time);
    return r;
}

/** One page region (32 tokens x 256 channels) quantized by @p tq. */
std::vector<float>
pageRegion(const TensorQuantizer &tq)
{
    const auto data = randomActivations(32 * 256, 5);
    std::vector<float> page(data.size());
    tq.quantizeRows(data.data(), page.data(), 32, 256);
    return page;
}

/** One page region's codec rates and stream ratio. */
struct PageCodecResult
{
    std::string format;
    const char *codec; ///< "dense" or "bitpack"
    double encode_gbps;
    double ref_decode_gbps;
    double simd_decode_gbps;
    double ratio; ///< payload bytes / stream bytes
};

/**
 * The frozen-page codec on one page region at the serving shape (32
 * tokens x 256 channels, the bench model's K or V region): @p format's
 * fake-quantized activations, encoded and decoded by the codec the
 * engine gives that format (the dense MX codec for MX formats, the
 * bitpacker otherwise). GB/s counts payload (float) bytes, the
 * serving-relevant side of the stream. Encode has one rate: both decode
 * backends of a codec share its encoder. Decode runs the scalar and the
 * AVX2 backend (scalar where AVX2 is unavailable, like KernelDispatch).
 */
PageCodecResult
benchPageCodec(const std::string &format, double min_time)
{
    const QuantizerPtr tq = makeQuantizerByName(format);
    const std::vector<float> page = pageRegion(*tq);
    const MxQuantizer *mx = tq->mxQuantizer();
    const auto codec = [&](bool simd) {
        return mx != nullptr ? makeDenseMxCodec(*mx, simd)
                             : makePageCodec(simd ? "simd" : "reference");
    };
    const double bytes = static_cast<double>(page.size()) * sizeof(float);
    std::vector<uint8_t> stream;
    std::vector<float> out(page.size());
    PageCodecResult r{format, mx != nullptr ? "dense" : "bitpack", 0, 0, 0,
                      0};
    const auto encoder = codec(false);
    r.encode_gbps = bytes * 1e-9 /
        timeIt([&] { encoder->encode(page.data(), page.size(), stream); },
               min_time);
    r.ratio = bytes / static_cast<double>(stream.size());
    auto decode_gbps = [&](bool simd) {
        const auto decoder = codec(simd);
        return bytes * 1e-9 / timeIt(
                                  [&] {
                                      decoder->decode(stream.data(),
                                                      stream.size(),
                                                      out.data(), out.size());
                                  },
                                  min_time);
    };
    r.ref_decode_gbps = decode_gbps(false);
    r.simd_decode_gbps = decode_gbps(true);
    return r;
}

/** One page region's stream ratio under the dense and the bitpack codec. */
struct PageRatio
{
    std::string format;
    double dense;
    double bitpack;
};

PageRatio
pageRatio(const std::string &format)
{
    const QuantizerPtr tq = makeQuantizerByName(format);
    const std::vector<float> page = pageRegion(*tq);
    const double bytes = static_cast<double>(page.size()) * sizeof(float);
    std::vector<uint8_t> stream;
    PageRatio r{format, 0.0, 0.0};
    r.dense = bytes / static_cast<double>(
                          makeDenseMxCodec(*tq->mxQuantizer(), false)
                              ->encode(page.data(), page.size(), stream));
    r.bitpack = bytes / static_cast<double>(pageCodecByName("reference")
                                                ->encode(page.data(),
                                                         page.size(),
                                                         stream));
    return r;
}

} // namespace
} // namespace mxplus

int
main(int argc, char **argv)
{
    using namespace mxplus;

    bool quick = false;
    const char *out_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--out FILE]\n", argv[0]);
            return 2;
        }
    }

    const double min_time = quick ? 0.02 : 0.25;
    // Quick mode keeps 512 (a shape the full run also measures) so the
    // CI regression gate can match quick entries against the committed
    // full-run baseline by (op, m, n, k).
    std::vector<size_t> sizes =
        quick ? std::vector<size_t>{512} : std::vector<size_t>{512, 1024,
                                                               2048};

    std::vector<GemmResult> gemm;
    for (const char *op : {"NT", "NN"}) {
        for (size_t s : sizes) {
            std::fprintf(stderr, "gemm %s %zu...\n", op, s);
            gemm.push_back(benchGemm(op, s, s, s, min_time));
        }
    }
    if (!quick) {
        // One transformer-shaped rectangle (prefill: T=256 tokens,
        // d_model=1024, d_ff=2816).
        gemm.push_back(benchGemm("NT", 256, 2816, 1024, min_time));
    }

    const size_t qrows = quick ? 256 : 1024;
    const size_t qcols = 1024;
    std::vector<QuantResult> quant;
    const std::pair<ElementFormat, MxMode> qconfigs[] = {
        {ElementFormat::E2M1, MxMode::Standard},
        {ElementFormat::E2M1, MxMode::Plus},
        {ElementFormat::E2M1, MxMode::PlusPlus},
        {ElementFormat::E4M3, MxMode::Standard},
        {ElementFormat::INT8, MxMode::Plus},
    };
    for (const auto &[fmt, mode] : qconfigs) {
        std::fprintf(stderr, "quantize %d/%d...\n", static_cast<int>(fmt),
                     static_cast<int>(mode));
        quant.push_back(benchQuantize(fmt, mode, qrows, qcols, min_time));
    }
    quant.push_back(
        benchPack(ElementFormat::E2M1, MxMode::Plus, qrows, qcols,
                  min_time));
    // Frozen-page codec rows at the serving shape, and every MX
    // format's dense vs bitpack stream ratio.
    std::vector<PageCodecResult> pages;
    for (const char *format : {"MXFP4+", "MXFP8", "BF16"}) {
        std::fprintf(stderr, "page codec %s...\n", format);
        pages.push_back(benchPageCodec(format, min_time));
    }
    std::vector<PageRatio> ratios;
    for (const std::string &name : knownQuantizerNames()) {
        if (makeQuantizerByName(name)->mxQuantizer() != nullptr)
            ratios.push_back(pageRatio(name));
    }

    // The bench model's (sim-llama-3.1-70b) three linear shapes: the
    // attention projections [256 x 256], the FFN in-projections
    // [640 x 256] and the out-projection [256 x 640], at a decode step,
    // a batch-8 decode step and a 128-token prefill chunk.
    std::vector<StoreResult> store;
    const std::pair<size_t, size_t> linears[] = {
        {256, 256}, {640, 256}, {256, 640}};
    for (const char *format : {"MXFP4+", "MXFP8"}) {
        for (const auto &[n, k] : linears) {
            for (size_t m : {size_t{1}, size_t{8}, size_t{128}}) {
                std::fprintf(stderr, "store %s %zux%zu m=%zu...\n", format,
                             n, k, m);
                store.push_back(benchStoreLinear(format, m, n, k, min_time));
            }
        }
    }

    FILE *out = stdout;
    if (out_path != nullptr) {
        out = std::fopen(out_path, "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", out_path);
            return 1;
        }
    }

    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"bench_kernels_engine\",\n");
    std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(out, "  \"simd_uses_avx2\": %s,\n",
                 KernelDispatch::simdUsesAvx2() ? "true" : "false");
    std::fprintf(out, "  \"gemm\": [\n");
    for (size_t i = 0; i < gemm.size(); ++i) {
        const auto &g = gemm[i];
        std::fprintf(out,
                     "    {\"op\": \"%s\", \"m\": %zu, \"n\": %zu, "
                     "\"k\": %zu, \"reference_gflops\": %.3f, "
                     "\"simd_gflops\": %.3f, \"speedup\": %.2f}%s\n",
                     g.op, g.m, g.n, g.k, g.ref_gflops, g.simd_gflops,
                     g.simd_gflops / g.ref_gflops,
                     i + 1 < gemm.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"quantize\": [\n");
    for (size_t i = 0; i < quant.size(); ++i) {
        const auto &q = quant[i];
        std::fprintf(out,
                     "    {\"api\": \"%s\", \"format\": \"%s\", "
                     "\"mode\": \"%s\", \"reference_gbps\": %.3f, "
                     "\"simd_gbps\": %.3f, \"speedup\": %.2f}%s\n",
                     q.api, q.format.c_str(), q.mode, q.ref_gbps,
                     q.simd_gbps, q.simd_gbps / q.ref_gbps,
                     i + 1 < quant.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"page_codec\": [\n");
    for (size_t i = 0; i < pages.size(); ++i) {
        const auto &p = pages[i];
        std::fprintf(out,
                     "    {\"api\": \"pageEncode\", \"format\": \"%s\", "
                     "\"codec\": \"%s\", \"tokens\": 32, "
                     "\"channels\": 256, \"gbps\": %.3f, "
                     "\"ratio\": %.3f},\n",
                     p.format.c_str(), p.codec, p.encode_gbps, p.ratio);
        std::fprintf(out,
                     "    {\"api\": \"pageDecode\", \"format\": \"%s\", "
                     "\"codec\": \"%s\", \"tokens\": 32, "
                     "\"channels\": 256, \"reference_gbps\": %.3f, "
                     "\"simd_gbps\": %.3f, \"speedup\": %.2f, "
                     "\"ratio\": %.3f}%s\n",
                     p.format.c_str(), p.codec, p.ref_decode_gbps,
                     p.simd_decode_gbps,
                     p.simd_decode_gbps / p.ref_decode_gbps, p.ratio,
                     i + 1 < pages.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"page_ratio\": [\n");
    for (size_t i = 0; i < ratios.size(); ++i) {
        const auto &r = ratios[i];
        std::fprintf(out,
                     "    {\"format\": \"%s\", \"dense_ratio\": %.3f, "
                     "\"bitpack_ratio\": %.3f}%s\n",
                     r.format.c_str(), r.dense, r.bitpack,
                     i + 1 < ratios.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"weight_store\": [\n");
    for (size_t i = 0; i < store.size(); ++i) {
        const auto &s = store[i];
        std::fprintf(out,
                     "    {\"format\": \"%s\", \"m\": %zu, \"n\": %zu, "
                     "\"k\": %zu, \"quantize_gemm_ms\": %.4f, "
                     "\"store_gemm_ms\": %.4f, \"speedup\": %.2f}%s\n",
                     s.format.c_str(), s.m, s.n, s.k, s.quantize_gemm_ms,
                     s.store_gemm_ms, s.quantize_gemm_ms / s.store_gemm_ms,
                     i + 1 < store.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n");
    std::fprintf(out, "}\n");
    if (out != stdout)
        std::fclose(out);
    return 0;
}
