/**
 * @file
 * Property tests of the quantize-once MX weight store (mx/weight_store.h):
 * for every MX format and mode, on both kernel backends, every decoded B
 * panel equals the packed fake-quantized weight and the store GEMM equals
 * matmulNT against it, bit for bit, over shapes that hit every edge of
 * the GEMM blocking (one-column strips, partial strips and panels, K past
 * the panel depth). Weights mix signs and magnitudes and include zero
 * blocks, -0.0 elements, MX+-flushed tiny blocks and lone outliers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/format_quantizers.h"
#include "common/rng.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/kernels_internal.h"
#include "model/config.h"
#include "model/transformer.h"
#include "mx/weight_store.h"
#include "tensor/matmul.h"

namespace mxplus {
namespace {

using kernels::kKC;
using kernels::kNC;
using kernels::kNR;

constexpr KernelBackend kBackends[] = {KernelBackend::Reference,
                                       KernelBackend::Simd};

/** Restores the process backend when a test leaves. */
class BackendScope
{
  public:
    explicit BackendScope(KernelBackend b) : saved_(KernelDispatch::active())
    {
        KernelDispatch::setBackend(b);
    }
    ~BackendScope() { KernelDispatch::setBackend(saved_); }

  private:
    KernelBackend saved_;
};

/** Every MX quantizer of the name registry, plus two smaller blocks. */
std::vector<QuantizerPtr>
mxQuantizers()
{
    std::vector<QuantizerPtr> out;
    for (const std::string &name : knownQuantizerNames()) {
        QuantizerPtr q = makeQuantizerByName(name);
        if (q->mxQuantizer() != nullptr)
            out.push_back(q);
    }
    out.push_back(makeMxQuantizer(ElementFormat::E2M1, MxMode::Plus, 16));
    out.push_back(makeMxQuantizer(ElementFormat::INT8, MxMode::Standard, 8));
    return out;
}

/**
 * A weight whose 32-wide chunks along K are each one of: mixed-sign
 * values over a wide magnitude range, all zeros (half of them -0.0),
 * tiny values that MX+ flushes and MX scales at 2^-127, values with
 * exact zeros of both signs, one outlier over small values, or values
 * near 2^100.
 */
Matrix
weightMatrix(size_t n, size_t k, uint64_t seed)
{
    Rng rng(seed);
    Matrix w(n, k);
    for (size_t r = 0; r < n; ++r) {
        for (size_t c0 = 0; c0 < k; c0 += 32) {
            const int kind = static_cast<int>(rng.uniformInt(6));
            const double mag = std::exp2(rng.uniform(-8.0, 8.0));
            for (size_t c = c0; c < std::min(k, c0 + 32); ++c) {
                const double g = rng.gaussian(0.0, 1.0);
                float v = 0.0f;
                switch (kind) {
                  case 0: v = static_cast<float>(g * mag); break;
                  case 1: v = (c % 2) ? -0.0f : 0.0f; break;
                  case 2: v = static_cast<float>(g * std::exp2(-128.0)); break;
                  case 3:
                    v = (c % 3 == 0) ? ((c % 2) ? -0.0f : 0.0f)
                                     : static_cast<float>(g * mag);
                    break;
                  case 4:
                    v = static_cast<float>(
                        (c == c0 + 5 ? 300.0 : 1.0) * g * mag * 1e-2);
                    break;
                  default: v = static_cast<float>(g * std::exp2(100.0)); break;
                }
                w.at(r, c) = v;
            }
        }
    }
    return w;
}

Matrix
activations(size_t m, size_t k, uint64_t seed)
{
    Rng rng(seed);
    Matrix a(m, k);
    for (size_t i = 0; i < a.size(); ++i)
        a.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    return a;
}

/** gemmTiled's packB of a float [N x K] weight (NT orientation). */
std::vector<float>
packFloatPanel(const Matrix &w, size_t pc, size_t kc, size_t jc, size_t nc)
{
    const size_t strips = (nc + kNR - 1) / kNR;
    std::vector<float> panel(strips * kc * kNR, 0.0f);
    for (size_t j = 0; j < nc; ++j) {
        float *strip = panel.data() + (j / kNR) * kc * kNR;
        for (size_t kk = 0; kk < kc; ++kk)
            strip[kk * kNR + j % kNR] = w.at(jc + j, pc + kk);
    }
    return panel;
}

bool
bitEqual(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/** Index of the first bitwise difference, for failure messages. */
size_t
firstDiff(const float *a, const float *b, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        if (std::memcmp(a + i, b + i, sizeof(float)) != 0)
            return i;
    }
    return n;
}

const size_t kMs[] = {1, 2, 6, 7, 128};
const size_t kNs[] = {1, 15, 16, 17, 640};
const size_t kKs[] = {32, 256, 288, 640};

TEST(WeightStore, PanelsEqualPackedFakeQuantizedWeightEveryFormat)
{
    for (const QuantizerPtr &tq : mxQuantizers()) {
        const MxQuantizer &q = *tq->mxQuantizer();
        SCOPED_TRACE(q.name() + "/bs" + std::to_string(q.blockSize()));
        for (size_t n : kNs) {
            for (size_t k : kKs) {
                SCOPED_TRACE("N=" + std::to_string(n) +
                             " K=" + std::to_string(k));
                const Matrix w = weightMatrix(n, k, 17 * n + k);
                const MxPanelWeight store(q, w);
                for (KernelBackend backend : kBackends) {
                    SCOPED_TRACE(kernelBackendName(backend));
                    BackendScope scope(backend);
                    const Matrix wq = tq->quantized(w);
                    for (size_t jc = 0; jc < n; jc += kNC) {
                        const size_t nc = std::min(kNC, n - jc);
                        for (size_t pc = 0; pc < k; pc += kKC) {
                            const size_t kc = std::min(kKC, k - pc);
                            const std::vector<float> want =
                                packFloatPanel(wq, pc, kc, jc, nc);
                            std::vector<float> got(want.size(), -1.0f);
                            KernelDispatch::decodeWeightPanel(
                                backend, store, pc, kc, jc, nc, got.data());
                            ASSERT_TRUE(bitEqual(got.data(), want.data(),
                                                 want.size()))
                                << "pc=" << pc << " jc=" << jc
                                << " first diff at "
                                << firstDiff(got.data(), want.data(),
                                             want.size());
                        }
                    }
                }
            }
        }
    }
}

TEST(WeightStore, GemmEqualsMatmulOnFakeQuantizedWeightEveryFormat)
{
    for (const QuantizerPtr &tq : mxQuantizers()) {
        const MxQuantizer &q = *tq->mxQuantizer();
        SCOPED_TRACE(q.name() + "/bs" + std::to_string(q.blockSize()));
        // Every (N, K) pair with the batch size rotating through kMs, so
        // each format meets every m, N and K; the rotation keeps m = 128
        // off the largest weights (FullShapeCrossForMxfp4Plus runs the
        // whole cross).
        for (size_t in = 0; in < std::size(kNs); ++in) {
            for (size_t ik = 0; ik < std::size(kKs); ++ik) {
                const size_t n = kNs[in];
                const size_t k = kKs[ik];
                const size_t m = kMs[(in + ik + 1) % std::size(kMs)];
                SCOPED_TRACE("m=" + std::to_string(m) + " N=" +
                             std::to_string(n) + " K=" + std::to_string(k));
                const Matrix w = weightMatrix(n, k, 31 * n + k);
                const MxPanelWeight store(q, w);
                for (KernelBackend backend : kBackends) {
                    SCOPED_TRACE(kernelBackendName(backend));
                    BackendScope scope(backend);
                    const Matrix aq = tq->quantized(activations(m, k, m + n));
                    const Matrix want = matmulNT(aq, tq->quantized(w));
                    Matrix got(m, n);
                    KernelDispatch::gemmNT(aq, store, got);
                    ASSERT_TRUE(
                        bitEqual(got.data(), want.data(), want.size()))
                        << "first diff at "
                        << firstDiff(got.data(), want.data(), want.size());
                }
            }
        }
    }
}

TEST(WeightStore, FullShapeCrossForMxfp4Plus)
{
    const QuantizerPtr tq = makeQuantizerByName("MXFP4+");
    const MxQuantizer &q = *tq->mxQuantizer();
    for (size_t n : kNs) {
        for (size_t k : kKs) {
            const Matrix w = weightMatrix(n, k, 7 * n + k);
            const MxPanelWeight store(q, w);
            const Matrix wq = tq->quantized(w);
            for (size_t m : kMs) {
                SCOPED_TRACE("m=" + std::to_string(m) + " N=" +
                             std::to_string(n) + " K=" + std::to_string(k));
                const Matrix aq = tq->quantized(activations(m, k, m * n));
                Matrix want(m, n);
                Matrix got(m, n);
                KernelDispatch::gemmNT(KernelBackend::Simd, aq, wq, want);
                KernelDispatch::gemmNT(KernelBackend::Simd, aq, store, got);
                ASSERT_TRUE(bitEqual(got.data(), want.data(), want.size()));
            }
        }
    }
}

TEST(WeightStore, StoresOnlyBlocksThatTileKAndThePanelDepth)
{
    const MxQuantizer q32(ElementFormat::E2M1, MxMode::Plus);
    const MxQuantizer q24(ElementFormat::E2M1, MxMode::Plus, 24);
    EXPECT_TRUE(MxPanelWeight::fits(q32, 256));
    EXPECT_TRUE(MxPanelWeight::fits(q32, 288));
    EXPECT_FALSE(MxPanelWeight::fits(q32, 48)); // K % 32 != 0
    EXPECT_FALSE(MxPanelWeight::fits(q24, 48)); // kKC % 24 != 0

    ModelConfig cfg = simLlama31_8b();
    cfg.n_layers = 1;
    const Transformer model(cfg);
    EXPECT_EQ(model.weightStore(*makeMxQuantizer(ElementFormat::E2M1,
                                                 MxMode::Plus, 24)),
              nullptr);
    for (const char *name : {"BF16", "FP32", "NVFP4+", "MSFP12", "SMX4"})
        EXPECT_EQ(model.weightStore(*makeQuantizerByName(name)), nullptr)
            << name;
    EXPECT_EQ(model.weightStore(*makeTopKQuantizer(2)), nullptr);
}

TEST(WeightStore, OneStorePerConfigurationOwnedByTheModel)
{
    ModelConfig cfg = simLlama31_8b();
    cfg.n_layers = 1;
    const Transformer model(cfg);
    const MxWeightStore *a = model.weightStore(*makeQuantizerByName("MXFP4+"));
    const MxWeightStore *b = model.weightStore(*makeQuantizerByName("MXFP4+"));
    const MxWeightStore *c = model.weightStore(*makeQuantizerByName("MXFP4"));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a->size(), model.linearNames().size());
    for (size_t i = 0; i < a->size(); ++i) {
        const Matrix &w = model.linearWeight(model.linearNames()[i]);
        EXPECT_EQ(a->weight(i).rows(), w.rows());
        EXPECT_EQ(a->weight(i).cols(), w.cols());
    }
}

TEST(WeightStore, Mxfp4PlusStoreOfTheBenchModelIsFourAndAHalfBits)
{
    const Transformer model(simLlama31_70b());
    const MxWeightStore *store =
        model.weightStore(*makeQuantizerByName("MXFP4+"));
    ASSERT_NE(store, nullptr);
    size_t weights = 0;
    for (const std::string &name : model.linearNames())
        weights += model.linearWeight(name).size();
    // Every width is a whole number of strips here, so no padding: 4-bit
    // codes plus one scale and one meta byte per 32 weights.
    EXPECT_EQ(store->bytes() * 8 * 2, weights * 9);
    EXPECT_LE(store->bytes(), 2'000'000u);
}

} // namespace
} // namespace mxplus
