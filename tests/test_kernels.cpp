/**
 * @file
 * Parity tests for the KernelDispatch engine: the reference backend must
 * reproduce the original scalar kernels bit-for-bit, the SIMD backend must
 * agree with the reference within summation-reordering tolerance on GEMM
 * and bit-exactly on fused block quantization, and both GEMM kernels must
 * propagate IEEE specials (0 * Inf = NaN).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "kernels/kernel_dispatch.h"
#include "mx/packed_matrix.h"
#include "tensor/matmul.h"

namespace mxplus {
namespace {

// Unit-variance Gaussian data: the 1e-4 relative tolerance on the SIMD
// backend covers summation reordering and FMA contraction; heavy-tailed
// operands (quantizeTestData below) would add cancellation error that no
// summation order bounds, so GEMM parity uses well-conditioned inputs.
Matrix
randomMatrix(size_t rows, size_t cols, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i) {
        float v = static_cast<float>(rng.gaussian(0.0, 1.0));
        if (rng.uniform() < 0.02)
            v = 0.0f;
        m.data()[i] = v;
    }
    return m;
}

/** The original scalar NT loop, inlined as the test's ground truth. */
Matrix
naiveNT(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t j = 0; j < b.rows(); ++j) {
            float acc = 0.0f;
            for (size_t kk = 0; kk < a.cols(); ++kk)
                acc += a.at(i, kk) * b.at(j, kk);
            c.at(i, j) = acc;
        }
    }
    return c;
}

/** The original scalar NN loop (without the zero-skip shortcut). */
Matrix
naiveNN(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t kk = 0; kk < a.cols(); ++kk) {
            for (size_t j = 0; j < b.cols(); ++j)
                c.at(i, j) += a.at(i, kk) * b.at(kk, j);
        }
    }
    return c;
}

void
expectBitEqual(const Matrix &x, const Matrix &y)
{
    ASSERT_EQ(x.rows(), y.rows());
    ASSERT_EQ(x.cols(), y.cols());
    for (size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(x.data()[i], y.data()[i]) << "at flat index " << i;
}

void
expectClose(const Matrix &x, const Matrix &y, double rel_tol)
{
    ASSERT_EQ(x.rows(), y.rows());
    ASSERT_EQ(x.cols(), y.cols());
    for (size_t i = 0; i < x.size(); ++i) {
        const double xv = x.data()[i];
        const double yv = y.data()[i];
        const double denom = std::max(1.0, std::max(std::fabs(xv),
                                                    std::fabs(yv)));
        ASSERT_LE(std::fabs(xv - yv) / denom, rel_tol)
            << "at flat index " << i << ": " << xv << " vs " << yv;
    }
}

// (m, k, n) triples stressing tile edges: unit, primes straddling the
// 6x16 microkernel and the 256-wide panels, and k below/above kKC.
const size_t kShapes[][3] = {
    {1, 1, 1},     {3, 5, 7},     {6, 16, 16},   {7, 17, 19},
    {13, 29, 31},  {64, 64, 64},  {61, 127, 67}, {97, 257, 101},
    {5, 300, 33},  {128, 512, 96},
};

TEST(GemmReference, NTMatchesOriginalScalarLoop)
{
    for (const auto &s : kShapes) {
        const Matrix a = randomMatrix(s[0], s[1], 1000 + s[1]);
        const Matrix b = randomMatrix(s[2], s[1], 2000 + s[2]);
        Matrix c(s[0], s[2]);
        KernelDispatch::gemmNT(KernelBackend::Reference, a, b, c);
        expectBitEqual(c, naiveNT(a, b));
    }
}

TEST(GemmReference, NNMatchesOriginalScalarLoop)
{
    for (const auto &s : kShapes) {
        const Matrix a = randomMatrix(s[0], s[1], 3000 + s[1]);
        const Matrix b = randomMatrix(s[1], s[2], 4000 + s[2]);
        Matrix c(s[0], s[2]);
        KernelDispatch::gemmNN(KernelBackend::Reference, a, b, c);
        expectBitEqual(c, naiveNN(a, b));
    }
}

TEST(GemmSimd, NTMatchesReferenceWithinTolerance)
{
    for (const auto &s : kShapes) {
        const Matrix a = randomMatrix(s[0], s[1], 5000 + s[1]);
        const Matrix b = randomMatrix(s[2], s[1], 6000 + s[2]);
        Matrix c_ref(s[0], s[2]);
        Matrix c_simd(s[0], s[2]);
        KernelDispatch::gemmNT(KernelBackend::Reference, a, b, c_ref);
        KernelDispatch::gemmNT(KernelBackend::Simd, a, b, c_simd);
        expectClose(c_simd, c_ref, 1e-4);
    }
}

TEST(GemmSimd, NNMatchesReferenceWithinTolerance)
{
    for (const auto &s : kShapes) {
        const Matrix a = randomMatrix(s[0], s[1], 7000 + s[1]);
        const Matrix b = randomMatrix(s[1], s[2], 8000 + s[2]);
        Matrix c_ref(s[0], s[2]);
        Matrix c_simd(s[0], s[2]);
        KernelDispatch::gemmNN(KernelBackend::Reference, a, b, c_ref);
        KernelDispatch::gemmNN(KernelBackend::Simd, a, b, c_simd);
        expectClose(c_simd, c_ref, 1e-4);
    }
}

TEST(GemmSimd, KZeroProducesZeros)
{
    for (KernelBackend backend :
         {KernelBackend::Reference, KernelBackend::Simd}) {
        const Matrix a(3, 0);
        const Matrix bnt(4, 0);
        Matrix c(3, 4, 42.0f);
        KernelDispatch::gemmNT(backend, a, bnt, c);
        for (size_t i = 0; i < c.size(); ++i)
            EXPECT_EQ(c.data()[i], 0.0f);

        const Matrix bnn(0, 4);
        Matrix d(3, 4, 42.0f);
        KernelDispatch::gemmNN(backend, a, bnn, d);
        for (size_t i = 0; i < d.size(); ++i)
            EXPECT_EQ(d.data()[i], 0.0f);
    }
}

TEST(GemmSemantics, ZeroTimesInfPropagatesNaN)
{
    const KernelBackend saved = KernelDispatch::active();
    const float inf = std::numeric_limits<float>::infinity();
    for (KernelBackend backend :
         {KernelBackend::Reference, KernelBackend::Simd}) {
        // NN: A = [0, 1], B = [[inf, 2], [3, 4]]. Column 0 hits 0 * inf.
        const Matrix a(1, 2, {0.0f, 1.0f});
        const Matrix b(2, 2, {inf, 2.0f, 3.0f, 4.0f});
        Matrix c(1, 2);
        KernelDispatch::gemmNN(backend, a, b, c);
        EXPECT_TRUE(std::isnan(c.at(0, 0)))
            << "backend " << kernelBackendName(backend);
        EXPECT_EQ(c.at(0, 1), 4.0f); // 0*2 + 1*4

        // NT: B row [inf, 2] against A row [0, 1].
        const Matrix bt(1, 2, {inf, 2.0f});
        Matrix d(1, 1);
        KernelDispatch::gemmNT(backend, a, bt, d);
        EXPECT_TRUE(std::isnan(d.at(0, 0)))
            << "backend " << kernelBackendName(backend);

        // And through the public matmul wrappers on the active backend.
        KernelDispatch::setBackend(backend);
        const Matrix e = matmulNN(a, b);
        EXPECT_TRUE(std::isnan(e.at(0, 0)));
    }
    // Restore whatever was active (the CI matrix runs this binary under
    // MXPLUS_KERNEL_BACKEND=reference too; later tests must see it).
    KernelDispatch::setBackend(saved);
}

// ------------------------------------------------------ shape stability --

// The decode path computes single-token rows that must reproduce the
// corresponding rows of the full-sequence GEMM bit-exactly (see the
// shape-stability contract in kernels_internal.h): C(i, j) may depend only
// on A row i, B row j and K — never on M, N or tile position.

TEST(GemmShapeStability, SingleRowMatchesFullGemmRow)
{
    for (KernelBackend backend :
         {KernelBackend::Reference, KernelBackend::Simd}) {
        // M stresses full and partial row tiles; N stresses partial strips.
        const Matrix a = randomMatrix(19, 72, 42);
        const Matrix b = randomMatrix(37, 72, 43);
        Matrix c_full(19, 37);
        KernelDispatch::gemmNT(backend, a, b, c_full);
        for (size_t r = 0; r < a.rows(); ++r) {
            const Matrix arow(1, a.cols(),
                              std::vector<float>(a.row(r),
                                                 a.row(r) + a.cols()));
            Matrix crow(1, b.rows());
            KernelDispatch::gemmNT(backend, arow, b, crow);
            for (size_t j = 0; j < b.rows(); ++j) {
                ASSERT_EQ(crow.at(0, j), c_full.at(r, j))
                    << kernelBackendName(backend) << " row " << r
                    << " col " << j;
            }
        }
    }
}

TEST(GemmShapeStability, ColumnPrefixIndependentOfN)
{
    // Growing B by more rows (a longer KV history) must not change the
    // existing columns: decode scores at step t are a prefix of the
    // full-sequence score row.
    for (KernelBackend backend :
         {KernelBackend::Reference, KernelBackend::Simd}) {
        const Matrix a = randomMatrix(5, 96, 44);
        const Matrix b_full = randomMatrix(41, 96, 45);
        for (size_t n : {1u, 7u, 16u, 17u, 32u, 40u}) {
            Matrix b_prefix(n, b_full.cols());
            std::copy(b_full.data(), b_full.data() + n * b_full.cols(),
                      b_prefix.data());
            Matrix c_full(a.rows(), b_full.rows());
            Matrix c_prefix(a.rows(), n);
            KernelDispatch::gemmNT(backend, a, b_full, c_full);
            KernelDispatch::gemmNT(backend, a, b_prefix, c_prefix);
            for (size_t i = 0; i < a.rows(); ++i) {
                for (size_t j = 0; j < n; ++j) {
                    ASSERT_EQ(c_prefix.at(i, j), c_full.at(i, j))
                        << kernelBackendName(backend) << " n " << n
                        << " at (" << i << ", " << j << ")";
                }
            }
        }
    }
}

TEST(GemmShapeStability, MatvecMatchesGemmAndHandlesStrides)
{
    for (KernelBackend backend :
         {KernelBackend::Reference, KernelBackend::Simd}) {
        const Matrix w = randomMatrix(29, 48, 46);
        const Matrix x = randomMatrix(6, 48, 47);
        Matrix c_gemm(6, 29);
        KernelDispatch::gemmNT(backend, x, w, c_gemm);

        // Single-row matvec.
        std::vector<float> y(w.rows());
        KernelDispatch::matvec(backend, w, x.row(2), y.data());
        for (size_t j = 0; j < w.rows(); ++j)
            ASSERT_EQ(y[j], c_gemm.at(2, j)) << j;

        // Strided W: weight rows embedded in a wider buffer, as the
        // attention reads head slices out of a KV cache page; A and C
        // are strided too, at every row count.
        const size_t ldw = w.cols() + 13;
        std::vector<float> ws(w.rows() * ldw, -7.0f);
        for (size_t j = 0; j < w.rows(); ++j)
            std::copy(w.row(j), w.row(j) + w.cols(), &ws[j * ldw]);
        const size_t lda = x.cols() + 5;
        std::vector<float> xs(x.rows() * lda, 3.0f);
        for (size_t r = 0; r < x.rows(); ++r)
            std::copy(x.row(r), x.row(r) + x.cols(), &xs[r * lda]);
        const size_t ldc = w.rows() + 3;
        for (size_t m = 1; m <= x.rows(); ++m) {
            const size_t r0 = x.rows() - m;
            std::vector<float> cs(m * ldc, -1.0f);
            KernelDispatch::gemmNTStrided(backend, &xs[r0 * lda], lda,
                                          ws.data(), ldw, cs.data(), ldc, m,
                                          w.rows(), w.cols());
            for (size_t i = 0; i < m; ++i) {
                for (size_t j = 0; j < w.rows(); ++j)
                    ASSERT_EQ(cs[i * ldc + j], c_gemm.at(r0 + i, j))
                        << kernelBackendName(backend) << " m " << m
                        << " (" << r0 + i << ", " << j << ")";
                for (size_t j = w.rows(); j < ldc; ++j)
                    ASSERT_EQ(cs[i * ldc + j], -1.0f) << "C padding";
            }
        }
    }
}

// --------------------------------------------------------------- fused --

std::vector<float>
quantizeTestData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> data(n);
    for (size_t i = 0; i < n; ++i) {
        float v = static_cast<float>(rng.gaussian(0.0, 1.0));
        const double u = rng.uniform();
        if (u < 0.04)
            v *= 1e4f; // outliers
        else if (u < 0.08)
            v *= 1e-6f; // deep below the shared scale
        else if (u < 0.11)
            v = 0.0f;
        else if (u < 0.13)
            v = std::ldexp(v, -130); // float subnormals
        else if (u < 0.15)
            v = std::ldexp(v, 100); // huge magnitudes
        data[i] = v;
    }
    // A few fully structured blocks: all-zero, tiny-amax (MX+ zero-block
    // flush), single nonzero element, and signed-zero / round-to-zero
    // sign cases (exact -0.0 must come out +0.0; nonzero values rounding
    // to zero keep their sign on minifloat grids).
    for (size_t i = 0; i < 32 && i < n; ++i)
        data[i] = 0.0f;
    for (size_t i = 32; i < 64 && i < n; ++i)
        data[i] = std::ldexp(1.0f, -135);
    for (size_t i = 64; i < 96 && i < n; ++i)
        data[i] = (i == 70) ? 3.25f : 0.0f;
    for (size_t i = 96; i < 128 && i < n; ++i)
        data[i] = (i % 3 == 0) ? -0.0f : (i == 97 ? 100.0f : -1e-30f);
    return data;
}

/** Bitwise float equality (distinguishes +0.0 from -0.0). */
bool
sameBits(float a, float b)
{
    uint32_t ua;
    uint32_t ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

const ElementFormat kAllFormats[] = {
    ElementFormat::E2M1, ElementFormat::E2M3, ElementFormat::E3M2,
    ElementFormat::E4M3, ElementFormat::E5M2, ElementFormat::INT8,
    ElementFormat::INT4,
};
const MxMode kAllModes[] = {MxMode::Standard, MxMode::Plus,
                            MxMode::PlusPlus};

TEST(FusedQuantize, BitExactAcrossFormatsAndModes)
{
    const size_t rows = 4;
    const size_t cols = 1000; // 31 full blocks + a vectorizable 8-tail
    const auto data = quantizeTestData(rows * cols, 99);
    for (ElementFormat fmt : kAllFormats) {
        for (MxMode mode : kAllModes) {
            const MxQuantizer q(fmt, mode);
            std::vector<float> ref(data.size());
            std::vector<float> simd(data.size());
            KernelDispatch::quantizeRows(KernelBackend::Reference, q,
                                         data.data(), ref.data(), rows,
                                         cols);
            KernelDispatch::quantizeRows(KernelBackend::Simd, q,
                                         data.data(), simd.data(), rows,
                                         cols);
            for (size_t i = 0; i < data.size(); ++i) {
                ASSERT_TRUE(sameBits(ref[i], simd[i]))
                    << q.name() << " [" << mxModeName(mode)
                    << "] diverged at " << i << " (input " << data[i]
                    << "): " << ref[i] << " vs " << simd[i];
            }
        }
    }
}

TEST(FusedQuantize, BitExactAcrossBlockSizes)
{
    const auto data = quantizeTestData(997, 7); // scalar tails everywhere
    for (int bs : {5, 8, 16, 24, 32}) {
        const MxQuantizer q(ElementFormat::E2M1, MxMode::PlusPlus, bs);
        std::vector<float> ref(data.size());
        std::vector<float> simd(data.size());
        KernelDispatch::quantizeRows(KernelBackend::Reference, q,
                                     data.data(), ref.data(), 1,
                                     data.size());
        KernelDispatch::quantizeRows(KernelBackend::Simd, q, data.data(),
                                     simd.data(), 1, data.size());
        for (size_t i = 0; i < data.size(); ++i)
            ASSERT_TRUE(sameBits(ref[i], simd[i]))
                << "bs " << bs << " at " << i;
    }
}

TEST(FusedQuantize, MatchesPublicFakeQuantizeApi)
{
    // The public MxQuantizer entry points dispatch to the engine; whatever
    // backend is active they must equal the scalar per-block ground truth.
    const auto data = quantizeTestData(512, 21);
    for (MxMode mode : kAllModes) {
        const MxQuantizer q(ElementFormat::E4M3, mode);
        std::vector<float> expected(data.size());
        for (size_t i = 0; i < data.size(); i += 32)
            q.fakeQuantizeBlock(data.data() + i, expected.data() + i, 32);
        std::vector<float> got(data.size());
        q.fakeQuantize(data.data(), got.data(), data.size());
        for (size_t i = 0; i < data.size(); ++i)
            ASSERT_TRUE(sameBits(expected[i], got[i]))
                << mxModeName(mode) << " " << i;
    }
}

TEST(FusedPack, BitExactBlockEncodings)
{
    const size_t rows = 6;
    const size_t cols = 256;
    const auto data = quantizeTestData(rows * cols, 1234);
    for (ElementFormat fmt : kAllFormats) {
        for (MxMode mode : kAllModes) {
            const MxQuantizer q(fmt, mode);
            const auto ref = KernelDispatch::quantizePack(
                KernelBackend::Reference, q, data.data(), rows, cols);
            const auto simd = KernelDispatch::quantizePack(
                KernelBackend::Simd, q, data.data(), rows, cols);
            ASSERT_EQ(ref.size(), simd.size());
            for (size_t i = 0; i < ref.size(); ++i) {
                ASSERT_EQ(ref[i].scale_code, simd[i].scale_code)
                    << q.name() << " block " << i;
                ASSERT_EQ(ref[i].bm_index, simd[i].bm_index)
                    << q.name() << " block " << i;
                ASSERT_EQ(ref[i].nbm_delta, simd[i].nbm_delta)
                    << q.name() << " block " << i;
                ASSERT_EQ(ref[i].n, simd[i].n);
                for (int e = 0; e < ref[i].n; ++e) {
                    ASSERT_EQ(ref[i].codes[e], simd[i].codes[e])
                        << q.name() << " block " << i << " elem " << e;
                }
            }
        }
    }
}

TEST(FusedPack, PackedMatrixRoundTripsOnBothBackends)
{
    const size_t rows = 4;
    const size_t cols = 128;
    const auto data = quantizeTestData(rows * cols, 555);
    const MxQuantizer q(ElementFormat::E2M1, MxMode::Plus);
    KernelDispatch::setBackend(KernelBackend::Reference);
    const PackedMatrix pref(q, data.data(), rows, cols);
    KernelDispatch::setBackend(KernelBackend::Simd);
    const PackedMatrix psimd(q, data.data(), rows, cols);
    const auto dref = pref.dequantize();
    const auto dsimd = psimd.dequantize();
    ASSERT_EQ(dref.size(), dsimd.size());
    for (size_t i = 0; i < dref.size(); ++i)
        ASSERT_EQ(dref[i], dsimd[i]) << i;
}

TEST(KernelDispatch, BackendOverrideRoundTrips)
{
    const KernelBackend before = KernelDispatch::active();
    KernelDispatch::setBackend(KernelBackend::Reference);
    EXPECT_EQ(KernelDispatch::active(), KernelBackend::Reference);
    EXPECT_STREQ(kernelBackendName(KernelDispatch::active()), "reference");
    KernelDispatch::setBackend(KernelBackend::Simd);
    EXPECT_EQ(KernelDispatch::active(), KernelBackend::Simd);
    KernelDispatch::setBackend(before);
}

} // namespace
} // namespace mxplus
