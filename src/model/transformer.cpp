#include "model/transformer.h"

#include <algorithm>
#include <cmath>

#include "common/bf16.h"
#include "common/check.h"
#include "common/worker_pool.h"
#include "kernels/kernel_dispatch.h"
#include "model/layers.h"
#include "serve/kv_cache.h"
#include "tensor/matmul.h"

namespace mxplus {

namespace {

/**
 * y = W x for a [N x K] weight and length-K vector (teacher decode path):
 * a 1-row GEMM-NT through the kernel engine, FP32 accumulation.
 */
std::vector<float>
matvec(const Matrix &w, const std::vector<float> &x)
{
    MXPLUS_CHECK(w.cols() == x.size());
    std::vector<float> y(w.rows());
    KernelDispatch::matvec(w, x.data(), y.data());
    return y;
}

std::vector<float>
rmsnormVec(const std::vector<float> &x, const std::vector<float> &gain)
{
    double ssq = 0.0;
    for (float v : x)
        ssq += static_cast<double>(v) * v;
    const double inv_rms =
        1.0 / std::sqrt(ssq / static_cast<double>(x.size()) + 1e-6);
    std::vector<float> out(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        out[i] = static_cast<float>(x[i] * inv_rms * gain[i]);
    return out;
}

} // namespace

Transformer::Transformer(const ModelConfig &cfg)
    : cfg_(cfg), stores_(std::make_unique<WeightStores>())
{
    MXPLUS_CHECK_MSG(cfg_.d_model % cfg_.n_heads == 0,
                     "d_model must divide by n_heads");
    MXPLUS_CHECK_MSG(cfg_.headDim() % 32 == 0,
                     "head dim should be a multiple of the MX block size");
    Rng rng(cfg_.seed);

    const size_t d = cfg_.d_model;
    const size_t dff = cfg_.d_ff;
    const double res_scale =
        cfg_.residual_scale / std::sqrt(2.0 * cfg_.n_layers);

    auto gauss_matrix = [&](size_t rows, size_t cols, double stddev) {
        Matrix m(rows, cols);
        for (size_t i = 0; i < m.size(); ++i)
            m.data()[i] = static_cast<float>(rng.gaussian(0.0, stddev));
        return m;
    };

    // Quantization-robust weight synthesis: random sign, magnitude
    // log-uniform over one octave around stddev. Trained LLM weights sit
    // in flat minima and tolerate direct-cast 4-bit rounding almost for
    // free (paper Fig. 3 / Table 8); random Gaussian weights do not (the
    // E2M1 grid flushes ~12% of Gaussian mass to zero and every weight
    // perturbation changes the random function directly). Limiting the
    // magnitudes to one binade bounds the per-weight MXFP4 error to
    // ~8%, reproducing the trained-network behaviour (see DESIGN.md).
    auto weight_matrix = [&](size_t rows, size_t cols, double stddev) {
        Matrix m(rows, cols);
        for (size_t i = 0; i < m.size(); ++i) {
            const double mag =
                stddev * std::exp2(rng.uniform(-0.5, 0.5));
            m.data()[i] = static_cast<float>(
                (rng.next() & 1) ? mag : -mag);
        }
        return m;
    };

    embedding_ = gauss_matrix(cfg_.vocab, d, 0.7);
    positions_ = sinusoidalPositions(cfg_.max_seq, d);
    head_ = Matrix(); // assigned below, after weight_matrix is defined
    final_gain_.assign(d, 1.0f);

    const double w_std = 1.0 / std::sqrt(static_cast<double>(d));
    const double dff_std = 1.0 / std::sqrt(static_cast<double>(dff));
    // The LM head is a quantized linear too (Tables 2/3 include it).
    head_ = weight_matrix(cfg_.vocab, d,
                          cfg_.logit_scale /
                              std::sqrt(static_cast<double>(d)));

    // Real LLMs have PERSISTENT outlier channels: the same few channels
    // carry outliers across tokens and layers (Fig. 4). Pick that channel
    // set once per model and give those channels an outlier-sized RMSNorm
    // gain in every layer (with per-layer magnitude variation).
    const size_t n_out = std::max<size_t>(
        1, static_cast<size_t>(cfg_.outlier_channel_frac *
                               static_cast<double>(d)));
    std::vector<size_t> outlier_channels;
    while (outlier_channels.size() < n_out) {
        const size_t c = rng.uniformInt(d);
        if (std::find(outlier_channels.begin(), outlier_channels.end(),
                      c) == outlier_channels.end()) {
            outlier_channels.push_back(c);
        }
    }

    auto gain_vector = [&]() {
        std::vector<float> g(d);
        for (auto &v : g)
            v = static_cast<float>(rng.lognormal(0.0, 0.5));
        for (const size_t c : outlier_channels) {
            g[c] = static_cast<float>(
                cfg_.outlier_gain * rng.lognormal(0.0, 0.4));
        }
        return g;
    };

    layers_.resize(cfg_.n_layers);
    for (auto &lw : layers_) {
        lw.wq = weight_matrix(d, d, w_std);
        lw.wk = weight_matrix(d, d, w_std);
        lw.wv = weight_matrix(d, d, w_std);
        lw.wo = weight_matrix(d, d, w_std * res_scale);
        lw.w_gate = weight_matrix(dff, d, w_std);
        lw.w_up = weight_matrix(dff, d, w_std);
        lw.w_down = weight_matrix(d, dff, dff_std * res_scale);
        lw.attn_gain = gain_vector();
        lw.mlp_gain = gain_vector();
    }
}

const MxWeightStore *
Transformer::weightStore(const TensorQuantizer &weight_q) const
{
    const MxQuantizer *q = weight_q.mxQuantizer();
    if (q == nullptr)
        return nullptr;
    for (size_t i = 0; i <= headIndex(); ++i) {
        if (!MxPanelWeight::fits(*q, linearAt(i).cols()))
            return nullptr;
    }
    std::lock_guard<std::mutex> lk(stores_->mu);
    for (const auto &store : stores_->built) {
        const MxQuantizer &sq = store->quantizer();
        if (sq.format() == q->format() && sq.mode() == q->mode() &&
            sq.blockSize() == q->blockSize())
            return store.get();
    }
    std::vector<const Matrix *> weights;
    for (size_t i = 0; i <= headIndex(); ++i)
        weights.push_back(&linearAt(i));
    stores_->built.push_back(std::make_unique<MxWeightStore>(*q, weights));
    return stores_->built.back().get();
}

Matrix
Transformer::embed(const std::vector<int> &tokens) const
{
    return embedAt(tokens, 0);
}

Matrix
Transformer::embedAt(const std::vector<int> &tokens, size_t pos0) const
{
    MXPLUS_CHECK(pos0 + tokens.size() <= cfg_.max_seq);
    Matrix x(tokens.size(), cfg_.d_model);
    for (size_t t = 0; t < tokens.size(); ++t) {
        const int tok = tokens[t];
        MXPLUS_CHECK(tok >= 0 &&
                     static_cast<size_t>(tok) < cfg_.vocab);
        for (size_t c = 0; c < cfg_.d_model; ++c) {
            x.at(t, c) = embedding_.at(static_cast<size_t>(tok), c) +
                positions_.at(pos0 + t, c);
        }
    }
    return x;
}

Matrix
Transformer::applyLinear(size_t index, const Matrix &x,
                         const QuantConfig &qc) const
{
    const Matrix &w = linearAt(index);
    if (capture_)
        capture_(linearName(index), x);

    if (index == headIndex() && !qc.quantize_head) {
        Matrix xq = x;
        roundMatrixToBf16(xq);
        return matmulNT(xq, w);
    }

    GemmSchemePtr scheme;
    if (qc.scheme_lookup)
        scheme = qc.scheme_lookup(linearName(index));
    if (scheme) {
        Matrix aq;
        Matrix wq;
        scheme->transform(x, w, aq, wq);
        return matmulNT(aq, wq);
    }

    const Matrix aq = qc.act->quantized(x);
    if (const MxWeightStore *store = weightStore(*qc.weight)) {
        Matrix y(aq.rows(), w.rows());
        KernelDispatch::gemmNT(aq, store->weight(index), y);
        return y;
    }
    return matmulNT(aq, qc.weight->quantized(w));
}

Matrix
Transformer::attentionBlock(size_t layer, const Matrix &x,
                            const QuantConfig &qc, KvCache *cache,
                            size_t pos0) const
{
    const LayerWeights &lw = layers_[layer];
    const size_t t_len = x.rows();
    const size_t d = cfg_.d_model;
    const size_t heads = cfg_.n_heads;
    const size_t dh = cfg_.headDim();
    const std::string prefix = "L" + std::to_string(layer) + ".";

    const Matrix h = rmsnorm(x, lw.attn_gain);
    if (capture_)
        capture_(prefix + "attn_in", h);

    const Matrix q = applyLinear(linearIndex(layer, kWq), h, qc);
    const Matrix k = applyLinear(linearIndex(layer, kWk), h, qc);
    const Matrix v = applyLinear(linearIndex(layer, kWv), h, qc);

    Matrix attn_out(t_len, d);
    if (cache != nullptr) {
        // Prefill: the rows just appended attend over the whole cached
        // history through the same page walk as a decode step.
        cache->appendBatch(layer, k, v);
        MXPLUS_CHECK(pos0 + t_len == cache->appendedLength(layer));
        attendRowsOverCache(layer, q.data(), t_len, *cache, qc,
                            attn_out.data());
        return applyLinear(linearIndex(layer, kWo), attn_out, qc);
    }
    // Without a cache, attention sees exactly this batch (the original
    // full-forward behaviour).
    MXPLUS_CHECK(pos0 == 0);
    const float inv_sqrt_dh =
        1.0f / std::sqrt(static_cast<float>(dh));
    const TensorQuantizer &qk_quant =
        qc.qk_override ? *qc.qk_override : *qc.attention;

    for (size_t hd = 0; hd < heads; ++hd) {
        const size_t c0 = hd * dh;
        // Slice this head's Q and K ([T x dh], contiguous along head dim
        // so MX blocks run along the dot-product dimension) and V along
        // the seq dim, and quantize them in place.
        Matrix qh(t_len, dh);
        Matrix kh(t_len, dh);
        Matrix vt(dh, t_len);
        for (size_t t = 0; t < t_len; ++t) {
            for (size_t c = 0; c < dh; ++c) {
                qh.at(t, c) = q.at(t, c0 + c);
                kh.at(t, c) = k.at(t, c0 + c);
                vt.at(c, t) = v.at(t, c0 + c);
            }
        }
        const Matrix qhq = qk_quant.quantized(qh);
        const Matrix khq = qk_quant.quantized(kh);
        const Matrix vtq = qc.attention->quantized(vt);

        Matrix scores = matmulNT(qhq, khq); // [T x T]
        for (size_t i = 0; i < t_len; ++i) {
            for (size_t j = 0; j < t_len; ++j) {
                if (j > i)
                    scores.at(i, j) = -1e30f; // causal mask
                else
                    scores.at(i, j) *= inv_sqrt_dh;
            }
        }
        softmaxRowsInPlace(scores); // FP32/FP64 softmax (paper baseline)

        // P along seq, V along seq: both reduction-dim blocked.
        const Matrix pq = qc.attention->quantized(scores);
        const Matrix out_h = matmulNT(pq, vtq); // [T x dh]
        for (size_t t = 0; t < t_len; ++t) {
            for (size_t c = 0; c < dh; ++c)
                attn_out.at(t, c0 + c) = out_h.at(t, c);
        }
    }

    return applyLinear(linearIndex(layer, kWo), attn_out, qc);
}

void
Transformer::attendRowsOverCache(size_t layer, const float *q, size_t rows,
                                 const KvCache &cache,
                                 const QuantConfig &qc, float *out) const
{
    const size_t d = cfg_.d_model;
    const size_t heads = cfg_.n_heads;
    const size_t dh = cfg_.headDim();
    const float inv_sqrt_dh =
        1.0f / std::sqrt(static_cast<float>(dh));
    const TensorQuantizer &qk_quant =
        qc.qk_override ? *qc.qk_override : *qc.attention;
    const size_t len = cache.appendedLength(layer);
    const size_t pt = cache.pageTokens();
    MXPLUS_CHECK(rows > 0 && rows <= len);
    const size_t pos0 = len - rows;

    // Each head's Q rows, quantized as one [rows x dh] operand along the
    // head dim (exactly what the cacheless forward quantizes).
    std::vector<float> qh(rows * dh);
    std::vector<float> qhq(heads * rows * dh);
    for (size_t hd = 0; hd < heads; ++hd) {
        for (size_t t = 0; t < rows; ++t) {
            const float *src = q + t * d + hd * dh;
            std::copy(src, src + dh, qh.data() + t * dh);
        }
        qk_quant.quantizeRows(qh.data(), qhq.data() + hd * rows * dh, rows,
                              dh);
    }

    // Paged attention. Every score is one dot product over dh, so Q·K^T
    // computed page by page straight out of the page views is
    // bit-identical to one GEMM over a contiguous cache (the kernel
    // engine's shape-stability contract). The walk is pages outer,
    // heads inner, so each page region is read (and, when compressed,
    // decoded) once per call. The page table may mix refcounted shared
    // prefix pages with private tail pages; both are read through the
    // same views, so sharing changes which slab an address resolves
    // to, never the arithmetic.
    std::vector<float> scores(heads * rows * len); // per head [rows x len]
    for (size_t p = 0, pos = 0; pos < len; ++p, pos += pt) {
        const size_t n = std::min(pt, len - pos);
        const float *kpage = cache.keyPageData(layer, p);
        for (size_t hd = 0; hd < heads; ++hd) {
            KernelDispatch::gemmNTStrided(
                qhq.data() + hd * rows * dh, dh, kpage + hd * dh,
                cache.keyRowStride(), scores.data() + hd * rows * len + pos,
                len, rows, n, dh);
        }
    }

    // P·V reduces over the whole sequence, and splitting it at page
    // boundaries would change the accumulation order. So V is gathered
    // once, every head's channels together, into [d x len] rows; a
    // single page is read in place instead (row stride pageTokens()).
    const float *v = nullptr;
    size_t ldv = len;
    std::vector<float> vgather;
    if (len <= pt) {
        v = cache.valuePageData(layer, 0);
        ldv = cache.valuePageRowStride();
    } else {
        vgather.resize(d * len);
        for (size_t p = 0, pos = 0; pos < len; ++p, pos += pt) {
            const size_t n = std::min(pt, len - pos);
            const float *vq = cache.valuePageData(layer, p);
            for (size_t c = 0; c < d; ++c) {
                std::copy(vq + c * pt, vq + c * pt + n,
                          vgather.data() + c * len + pos);
            }
        }
        v = vgather.data();
    }

    // Per head: causal mask and scale, FP64 softmax (paper baseline), P
    // quantized along the sequence, and P·V into the head's output
    // columns. One [rows x len] P buffer serves every head.
    std::vector<float> pq(rows * len);
    for (size_t hd = 0; hd < heads; ++hd) {
        float *sc = scores.data() + hd * rows * len;
        for (size_t t = 0; t < rows; ++t) {
            float *row = sc + t * len;
            for (size_t j = 0; j < len; ++j) {
                if (j > pos0 + t)
                    row[j] = -1e30f; // causal mask
                else
                    row[j] *= inv_sqrt_dh;
            }
            softmaxRow(row, len);
        }
        qc.attention->quantizeRows(sc, pq.data(), rows, len);
        KernelDispatch::gemmNTStrided(pq.data(), len, v + hd * dh * ldv, ldv,
                                      out + hd * dh, d, rows, dh, len);
    }
}

Matrix
Transformer::mlpBlock(size_t layer, const Matrix &x,
                      const QuantConfig &qc) const
{
    const LayerWeights &lw = layers_[layer];
    const std::string prefix = "L" + std::to_string(layer) + ".";

    const Matrix h = rmsnorm(x, lw.mlp_gain);
    if (capture_)
        capture_(prefix + "mlp_in", h);

    const Matrix gate = applyLinear(linearIndex(layer, kWGate), h, qc);
    const Matrix up = applyLinear(linearIndex(layer, kWUp), h, qc);
    const Matrix act = swiglu(gate, up);
    if (capture_)
        capture_(prefix + "down_in", act);
    return applyLinear(linearIndex(layer, kWDown), act, qc);
}

Matrix
Transformer::runLayers(Matrix x, const QuantConfig &qc, KvCache *cache,
                       size_t pos0) const
{
    for (size_t layer = 0; layer < cfg_.n_layers; ++layer) {
        const Matrix attn = attentionBlock(layer, x, qc, cache, pos0);
        for (size_t i = 0; i < x.size(); ++i)
            x.data()[i] += attn.data()[i];
        KernelDispatch::roundRowsToBf16(x.data(), x.size());
        const Matrix mlp = mlpBlock(layer, x, qc);
        for (size_t i = 0; i < x.size(); ++i)
            x.data()[i] += mlp.data()[i];
        KernelDispatch::roundRowsToBf16(x.data(), x.size());
    }
    const Matrix h = rmsnorm(x, final_gain_);
    return applyLinear(headIndex(), h, qc);
}

Matrix
Transformer::forward(const std::vector<int> &tokens,
                     const QuantConfig &qc) const
{
    MXPLUS_CHECK(!tokens.empty());
    return runLayers(embed(tokens), qc, nullptr, 0);
}

Matrix
Transformer::prefill(const std::vector<int> &tokens, KvCache &cache,
                     const QuantConfig &qc) const
{
    MXPLUS_CHECK(!tokens.empty());
    const size_t pos0 = cache.length();
    Matrix logits = runLayers(embedAt(tokens, pos0), qc, &cache, pos0);
    cache.commit(tokens.size());
    return logits;
}

Matrix
Transformer::decodeStep(int token, KvCache &cache,
                        const QuantConfig &qc) const
{
    std::vector<KvCache *> caches{&cache};
    return decodeStepBatch({token}, caches, qc);
}

Matrix
Transformer::decodeStepBatch(const std::vector<int> &tokens,
                             const std::vector<KvCache *> &caches,
                             const QuantConfig &qc,
                             WorkerPool *workers) const
{
    const size_t b = tokens.size();
    MXPLUS_CHECK(b > 0 && caches.size() == b);
    const size_t d = cfg_.d_model;

    Matrix x(b, d);
    for (size_t r = 0; r < b; ++r) {
        MXPLUS_CHECK(caches[r] != nullptr);
        const size_t pos = caches[r]->length();
        MXPLUS_CHECK(pos < cfg_.max_seq);
        const int tok = tokens[r];
        MXPLUS_CHECK(tok >= 0 && static_cast<size_t>(tok) < cfg_.vocab);
        for (size_t c = 0; c < d; ++c) {
            x.at(r, c) = embedding_.at(static_cast<size_t>(tok), c) +
                positions_.at(pos, c);
        }
    }

    for (size_t layer = 0; layer < cfg_.n_layers; ++layer) {
        const LayerWeights &lw = layers_[layer];
        const std::string prefix = "L" + std::to_string(layer) + ".";

        const Matrix h = rmsnorm(x, lw.attn_gain);
        if (capture_)
            capture_(prefix + "attn_in", h);
        // One GEMM per projection over all request rows: the batched
        // matvec that amortizes each weight panel's decode (or, for a
        // weight quantizer without a store, quantization and packing).
        const Matrix q = applyLinear(linearIndex(layer, kWq), h, qc);
        const Matrix k = applyLinear(linearIndex(layer, kWk), h, qc);
        const Matrix v = applyLinear(linearIndex(layer, kWv), h, qc);

        // Attention is per-request (each has its own history/cache).
        // Rows are independent — disjoint caches, disjoint output rows
        // — so partitioning them across the decode worker pool (or the
        // default OpenMP team) changes scheduling only, never a single
        // arithmetic operation: row r is bit-identical either way.
        Matrix attn_out(b, d);
        if (workers != nullptr && workers->threads() > 1 && b > 1) {
            workers->parallelFor(b, [&](size_t r) {
                caches[r]->append(layer, k.row(r), v.row(r));
                attendRowsOverCache(layer, q.row(r), 1, *caches[r], qc,
                                    attn_out.row(r));
            });
        } else {
            #pragma omp parallel for schedule(static) if (b > 1)
            for (size_t r = 0; r < b; ++r) {
                caches[r]->append(layer, k.row(r), v.row(r));
                attendRowsOverCache(layer, q.row(r), 1, *caches[r], qc,
                                    attn_out.row(r));
            }
        }
        const Matrix o =
            applyLinear(linearIndex(layer, kWo), attn_out, qc);
        for (size_t i = 0; i < x.size(); ++i)
            x.data()[i] += o.data()[i];
        KernelDispatch::roundRowsToBf16(x.data(), x.size());

        const Matrix mlp = mlpBlock(layer, x, qc);
        for (size_t i = 0; i < x.size(); ++i)
            x.data()[i] += mlp.data()[i];
        KernelDispatch::roundRowsToBf16(x.data(), x.size());
    }

    const Matrix h = rmsnorm(x, final_gain_);
    Matrix logits = applyLinear(headIndex(), h, qc);
    for (size_t r = 0; r < b; ++r)
        caches[r]->commit(1);
    return logits;
}

Matrix
Transformer::teacherDecodeStep(int token, size_t pos,
                               std::vector<std::vector<float>> &keys,
                               std::vector<std::vector<float>> &values) const
{
    const size_t d = cfg_.d_model;
    const size_t heads = cfg_.n_heads;
    const size_t dh = cfg_.headDim();
    const float inv_sqrt_dh =
        1.0f / std::sqrt(static_cast<float>(dh));
    MXPLUS_CHECK(pos < cfg_.max_seq);
    MXPLUS_CHECK(token >= 0 && static_cast<size_t>(token) < cfg_.vocab);

    std::vector<float> x(d);
    for (size_t c = 0; c < d; ++c) {
        x[c] = embedding_.at(static_cast<size_t>(token), c) +
            positions_.at(pos, c);
    }
    for (size_t layer = 0; layer < cfg_.n_layers; ++layer) {
        const LayerWeights &lw = layers_[layer];
        const auto h = rmsnormVec(x, lw.attn_gain);
        const auto qv = matvec(lw.wq, h);
        const auto kv = matvec(lw.wk, h);
        const auto vv = matvec(lw.wv, h);
        keys[layer].insert(keys[layer].end(), kv.begin(), kv.end());
        values[layer].insert(values[layer].end(), vv.begin(), vv.end());

        std::vector<float> attn_out(d, 0.0f);
        const size_t t_len = pos + 1;
        for (size_t hd = 0; hd < heads; ++hd) {
            const size_t c0 = hd * dh;
            std::vector<double> scores(t_len);
            double mx = -1e300;
            for (size_t s = 0; s < t_len; ++s) {
                const float *krow = keys[layer].data() + s * d;
                double dot = 0.0;
                for (size_t c = 0; c < dh; ++c) {
                    dot += static_cast<double>(qv[c0 + c]) *
                        krow[c0 + c];
                }
                scores[s] = dot * inv_sqrt_dh;
                mx = std::max(mx, scores[s]);
            }
            double z = 0.0;
            for (auto &s : scores) {
                s = std::exp(s - mx);
                z += s;
            }
            for (size_t s = 0; s < t_len; ++s) {
                const double p = scores[s] / z;
                const float *vrow = values[layer].data() + s * d;
                for (size_t c = 0; c < dh; ++c) {
                    attn_out[c0 + c] += static_cast<float>(
                        p * vrow[c0 + c]);
                }
            }
        }
        const auto o = matvec(lw.wo, attn_out);
        for (size_t c = 0; c < d; ++c)
            x[c] += o[c];

        const auto h2 = rmsnormVec(x, lw.mlp_gain);
        const auto gate = matvec(lw.w_gate, h2);
        const auto up = matvec(lw.w_up, h2);
        std::vector<float> act(cfg_.d_ff);
        for (size_t i = 0; i < cfg_.d_ff; ++i) {
            const float g = gate[i];
            act[i] = (g / (1.0f + std::exp(-g))) * up[i];
        }
        const auto down = matvec(lw.w_down, act);
        for (size_t c = 0; c < d; ++c)
            x[c] += down[c];
    }

    const auto hf = rmsnormVec(x, final_gain_);
    Matrix logits(1, cfg_.vocab);
    KernelDispatch::matvec(head_, hf.data(), logits.data());
    return logits;
}

double
Transformer::crossEntropy(const std::vector<int> &tokens,
                          const QuantConfig &qc) const
{
    MXPLUS_CHECK(tokens.size() >= 2);
    const Matrix logits = forward(tokens, qc);
    double total = 0.0;
    for (size_t t = 0; t + 1 < tokens.size(); ++t) {
        const auto lsm = logSoftmax(logits.row(t), cfg_.vocab);
        total -= lsm[static_cast<size_t>(tokens[t + 1])];
    }
    return total / static_cast<double>(tokens.size() - 1);
}

double
Transformer::continuationLogProb(const std::vector<int> &context,
                                 const std::vector<int> &continuation,
                                 const QuantConfig &qc) const
{
    MXPLUS_CHECK(!context.empty() && !continuation.empty());
    std::vector<int> all = context;
    all.insert(all.end(), continuation.begin(), continuation.end());
    KvCache cache = KvCache::forConfig(cfg_, qc, all.size());
    const Matrix logits = prefill(all, cache, qc);
    double total = 0.0;
    for (size_t i = 0; i < continuation.size(); ++i) {
        const size_t pos = context.size() + i - 1; // predicts token pos+1
        const auto lsm = logSoftmax(logits.row(pos), cfg_.vocab);
        total += lsm[static_cast<size_t>(continuation[i])];
    }
    return total;
}

std::vector<int>
Transformer::sample(Rng &rng, size_t length, double temperature,
                    const std::vector<int> &prefix) const
{
    std::vector<int> tokens = prefix;
    if (tokens.empty())
        tokens.push_back(static_cast<int>(rng.uniformInt(cfg_.vocab)));

    const size_t target =
        prefix.size() + length + (prefix.empty() ? 1 : 0);
    // Raw FP32 K/V rows of every position so far, per layer: the
    // BF16/FP32 teacher protocol attends over unquantized history.
    std::vector<std::vector<float>> keys(cfg_.n_layers);
    std::vector<std::vector<float>> values(cfg_.n_layers);
    for (size_t pos = 0; tokens.size() < target && pos < cfg_.max_seq;
         ++pos) {
        const Matrix logits =
            teacherDecodeStep(tokens[pos], pos, keys, values);
        if (pos + 1 < tokens.size())
            continue; // still consuming the prefix
        tokens.push_back(
            sampleLogits(logits.data(), cfg_.vocab, temperature, rng));
    }
    return tokens;
}

namespace {

const char *const kSlotNames[] = {"wq",     "wk",   "wv",    "wo",
                                  "w_gate", "w_up", "w_down"};

} // namespace

std::string
Transformer::linearName(size_t index) const
{
    if (index == headIndex())
        return "head";
    return "L" + std::to_string(index / kLinearsPerLayer) + "." +
        kSlotNames[index % kLinearsPerLayer];
}

const Matrix &
Transformer::linearAt(size_t index) const
{
    MXPLUS_CHECK(index <= headIndex());
    if (index == headIndex())
        return head_;
    const LayerWeights &lw = layers_[index / kLinearsPerLayer];
    switch (static_cast<LinearSlot>(index % kLinearsPerLayer)) {
      case kWq: return lw.wq;
      case kWk: return lw.wk;
      case kWv: return lw.wv;
      case kWo: return lw.wo;
      case kWGate: return lw.w_gate;
      case kWUp: return lw.w_up;
      default: return lw.w_down;
    }
}

std::vector<std::string>
Transformer::linearNames() const
{
    std::vector<std::string> names;
    for (size_t i = 0; i <= headIndex(); ++i)
        names.push_back(linearName(i));
    return names;
}

const Matrix &
Transformer::linearWeight(const std::string &name) const
{
    for (size_t i = 0; i <= headIndex(); ++i) {
        if (linearName(i) == name)
            return linearAt(i);
    }
    fatal("unknown linear name: " + name);
}

} // namespace mxplus
