/**
 * @file
 * Tests for the serving subsystem: KV-cache consistency, decode-path
 * parity with the full-sequence forward pass (bit-exact in BF16 on both
 * kernel backends, bounded under every MX format), sample() stability
 * across the teacher-cache rewiring, batched-vs-serial equivalence, and
 * the continuous-batching engine's bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/format_quantizers.h"
#include "codec/page_codec.h"
#include "kernels/kernel_dispatch.h"
#include "model/eval.h"
#include "model/layers.h"
#include "serve/kv_cache.h"
#include "serve/kv_page_pool.h"
#include "serve/serving_engine.h"
#include "tensor/matmul.h"

namespace mxplus {
namespace {

ModelConfig
tinyConfig()
{
    ModelConfig cfg = simLlama31_8b();
    cfg.n_layers = 2;
    return cfg;
}

std::vector<int>
tokenRamp(size_t n, int stride)
{
    std::vector<int> t(n);
    for (size_t i = 0; i < n; ++i)
        t[i] = static_cast<int>((7 + i * stride) % 251);
    return t;
}

const KernelBackend kBothBackends[] = {KernelBackend::Reference,
                                       KernelBackend::Simd};

/** RAII backend override so a failing assertion can't leak state. */
struct BackendGuard
{
    KernelBackend saved = KernelDispatch::active();
    explicit BackendGuard(KernelBackend b) { KernelDispatch::setBackend(b); }
    ~BackendGuard() { KernelDispatch::setBackend(saved); }
};

// ------------------------------------------------------------- KV cache --

TEST(KvCache, GrowthPreservesQuantizedViews)
{
    const ModelConfig cfg = tinyConfig();
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    KvCache cache(cfg, qc.attention, qc.attention, /*capacity_hint=*/4);

    const size_t d = cfg.d_model;
    const size_t dh = cfg.headDim();
    const size_t total = 47; // forces two geometric growths past 4
    Rng rng(99);
    std::vector<Matrix> k_raw(cfg.n_layers, Matrix(total, d));
    std::vector<Matrix> v_raw(cfg.n_layers, Matrix(total, d));
    for (auto &m : k_raw)
        for (size_t i = 0; i < m.size(); ++i)
            m.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    for (auto &m : v_raw)
        for (size_t i = 0; i < m.size(); ++i)
            m.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));

    for (size_t t = 0; t < total; ++t) {
        for (size_t l = 0; l < cfg.n_layers; ++l)
            cache.append(l, k_raw[l].row(t), v_raw[l].row(t));
        cache.commit(1);
        EXPECT_EQ(cache.length(), t + 1);
    }
    EXPECT_GE(cache.capacity(), total);
    EXPECT_GT(cache.memoryBytes(), 0u);

    // Every page view must equal a one-shot quantization of the raw
    // prefix: K per token along the head dim, V per channel along the
    // sequence.
    const size_t pt = cache.pageTokens();
    for (size_t l = 0; l < cfg.n_layers; ++l) {
        ASSERT_EQ(cache.pageCount(l), (total + pt - 1) / pt);
        for (size_t h = 0; h < cfg.n_heads; ++h) {
            const size_t c0 = h * dh;
            Matrix kh(total, dh);
            Matrix vt(dh, total);
            for (size_t t = 0; t < total; ++t) {
                for (size_t c = 0; c < dh; ++c) {
                    kh.at(t, c) = k_raw[l].at(t, c0 + c);
                    vt.at(c, t) = v_raw[l].at(t, c0 + c);
                }
            }
            const Matrix khq = qc.attention->quantized(kh);
            const Matrix vtq = qc.attention->quantized(vt);
            for (size_t t = 0; t < total; ++t) {
                const float *kpage = cache.keyPageData(l, t / pt) +
                    (t % pt) * cache.keyRowStride();
                const float *vpage =
                    cache.valuePageData(l, t / pt) + t % pt;
                for (size_t c = 0; c < dh; ++c) {
                    ASSERT_EQ(kpage[c0 + c], khq.at(t, c))
                        << "K layer " << l << " head " << h << " (" << t
                        << ", " << c << ")";
                    ASSERT_EQ(vpage[(c0 + c) * cache.valuePageRowStride()],
                              vtq.at(c, t))
                        << "V layer " << l << " head " << h << " (" << c
                        << ", " << t << ")";
                }
            }
        }
    }
}

// --------------------------------------------------------- decode parity --

TEST(DecodeParity, PrefillMatchesForwardBitExactEveryFormat)
{
    const Transformer model(tinyConfig());
    const auto tokens = tokenRamp(37, 3);
    for (KernelBackend backend : kBothBackends) {
        BackendGuard guard(backend);
        for (const char *fmt :
             {"BF16", "MXFP4", "MXFP4+", "MXFP4++", "MXFP8", "MXINT8+",
              "NVFP4"}) {
            const QuantConfig qc = QuantConfig::fromFormat(fmt);
            const Matrix full = model.forward(tokens, qc);
            KvCache cache = KvCache::forConfig(model.config(), qc);
            const Matrix pre = model.prefill(tokens, cache, qc);
            ASSERT_EQ(pre.rows(), full.rows());
            ASSERT_EQ(pre.cols(), full.cols());
            for (size_t i = 0; i < full.size(); ++i)
                ASSERT_EQ(pre.data()[i], full.data()[i])
                    << fmt << " on " << kernelBackendName(backend)
                    << " at flat index " << i;
            EXPECT_EQ(cache.length(), tokens.size());
        }
    }
}

TEST(DecodeParity, DecodeStepMatchesForwardBitExactBf16)
{
    // The acceptance gate: incremental decode must reproduce the
    // one-shot forward logits bit-for-bit in BF16, on both backends
    // (kernel shape-stability + elementwise KV quantization).
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::bf16Baseline();
    const auto tokens = tokenRamp(41, 5); // crosses a 32-wide V block
    const size_t prompt = 8;

    for (KernelBackend backend : kBothBackends) {
        BackendGuard guard(backend);
        KvCache cache = KvCache::forConfig(model.config(), qc);
        model.prefill({tokens.begin(), tokens.begin() + prompt}, cache,
                      qc);
        for (size_t t = prompt; t < tokens.size(); ++t) {
            const Matrix step = model.decodeStep(tokens[t], cache, qc);
            const Matrix full = model.forward(
                {tokens.begin(), tokens.begin() + t + 1}, qc);
            ASSERT_EQ(step.rows(), 1u);
            for (size_t v = 0; v < model.config().vocab; ++v) {
                ASSERT_EQ(step.at(0, v), full.at(t, v))
                    << kernelBackendName(backend) << " position " << t
                    << " vocab " << v;
            }
        }
    }
}

TEST(DecodeParity, DecodeStepTracksForwardUnderEveryMxFormat)
{
    // Under block formats the cache quantizes causally (it cannot see
    // future values that would raise a block max), so decode logits may
    // differ from the full-sequence oracle — but only within a small
    // bound, and the predicted distribution must stay aligned.
    const Transformer model(tinyConfig());
    const auto tokens = tokenRamp(40, 11);
    const size_t prompt = 6;

    for (const std::string &fmt : knownQuantizerNames()) {
        if (fmt.rfind("MX", 0) != 0)
            continue; // every MX family member, per the acceptance list
        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        KvCache cache = KvCache::forConfig(model.config(), qc);
        model.prefill({tokens.begin(), tokens.begin() + prompt}, cache,
                      qc);
        double worst = 0.0;
        double sum = 0.0;
        size_t count = 0;
        for (size_t t = prompt; t < tokens.size(); ++t) {
            const Matrix step = model.decodeStep(tokens[t], cache, qc);
            const Matrix full = model.forward(
                {tokens.begin(), tokens.begin() + t + 1}, qc);
            double scale = 1.0;
            for (size_t v = 0; v < model.config().vocab; ++v)
                scale = std::max(
                    scale, std::fabs(static_cast<double>(full.at(t, v))));
            for (size_t v = 0; v < model.config().vocab; ++v) {
                const double diff = std::fabs(
                    static_cast<double>(step.at(0, v)) - full.at(t, v));
                worst = std::max(worst, diff / scale);
                sum += diff / scale;
                ++count;
            }
        }
        // Measured worst cases sit near 0.25 (MXINT4) with means below
        // 0.017; 2x headroom still cleanly separates the causality gap
        // from an actual decode-path regression (which lands at O(1)).
        EXPECT_LT(worst, 0.4) << fmt;
        EXPECT_LT(sum / static_cast<double>(count), 0.04) << fmt;
    }
}

// ------------------------------------------------- sample() stability --

/**
 * The seed repository's sample() recurrence, transcribed verbatim (float
 * KV vectors, FP64 attention/softmax, 1-row GEMMs through the kernel
 * engine): the rewired teacher-cache implementation must reproduce its
 * tokens exactly for a fixed RNG seed.
 */
std::vector<int>
seedSample(const Transformer &model, Rng &rng, size_t length,
           double temperature, const std::vector<int> &prefix)
{
    const ModelConfig &cfg = model.config();
    const size_t d = cfg.d_model;
    const size_t heads = cfg.n_heads;
    const size_t dh = cfg.headDim();
    const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));

    auto matvec = [](const Matrix &w, const std::vector<float> &x) {
        const Matrix xa(1, x.size(), x);
        Matrix y(1, w.rows());
        KernelDispatch::gemmNT(xa, w, y);
        return std::vector<float>(y.data(), y.data() + w.rows());
    };
    auto rmsnorm_vec = [](const std::vector<float> &x,
                          const std::vector<float> &gain) {
        double ssq = 0.0;
        for (float v : x)
            ssq += static_cast<double>(v) * v;
        const double inv_rms = 1.0 /
            std::sqrt(ssq / static_cast<double>(x.size()) + 1e-6);
        std::vector<float> out(x.size());
        for (size_t i = 0; i < x.size(); ++i)
            out[i] = static_cast<float>(x[i] * inv_rms * gain[i]);
        return out;
    };

    const Matrix &embedding = model.embeddingTable();
    const Matrix positions = sinusoidalPositions(cfg.max_seq, d);
    // The final RMSNorm gain is all-ones in the synthesized model.
    const std::vector<float> final_gain(d, 1.0f);

    std::vector<int> tokens = prefix;
    if (tokens.empty())
        tokens.push_back(static_cast<int>(rng.uniformInt(cfg.vocab)));

    std::vector<std::vector<std::vector<float>>> kcache(cfg.n_layers);
    std::vector<std::vector<std::vector<float>>> vcache(cfg.n_layers);

    std::vector<float> logits_last(cfg.vocab);
    const size_t target =
        prefix.size() + length + (prefix.empty() ? 1 : 0);
    size_t pos = 0;
    while (tokens.size() < target && pos < cfg.max_seq) {
        const bool warming = pos + 1 < tokens.size();
        const int tok = tokens[pos];
        std::vector<float> x(d);
        for (size_t c = 0; c < d; ++c) {
            x[c] = embedding.at(static_cast<size_t>(tok), c) +
                positions.at(pos, c);
        }
        for (size_t layer = 0; layer < cfg.n_layers; ++layer) {
            const LayerWeights &lw = model.layerWeights(layer);
            const auto h = rmsnorm_vec(x, lw.attn_gain);
            auto qv = matvec(lw.wq, h);
            auto kv = matvec(lw.wk, h);
            auto vv = matvec(lw.wv, h);
            kcache[layer].push_back(kv);
            vcache[layer].push_back(vv);

            std::vector<float> attn_out(d, 0.0f);
            const size_t t_len = kcache[layer].size();
            for (size_t hd = 0; hd < heads; ++hd) {
                const size_t c0 = hd * dh;
                std::vector<double> scores(t_len);
                double mx = -1e300;
                for (size_t s = 0; s < t_len; ++s) {
                    double dot = 0.0;
                    for (size_t c = 0; c < dh; ++c) {
                        dot += static_cast<double>(qv[c0 + c]) *
                            kcache[layer][s][c0 + c];
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
                    for (size_t c = 0; c < dh; ++c) {
                        attn_out[c0 + c] += static_cast<float>(
                            p * vcache[layer][s][c0 + c]);
                    }
                }
            }
            const auto o = matvec(lw.wo, attn_out);
            for (size_t c = 0; c < d; ++c)
                x[c] += o[c];

            const auto h2 = rmsnorm_vec(x, lw.mlp_gain);
            const auto gate = matvec(lw.w_gate, h2);
            const auto up = matvec(lw.w_up, h2);
            std::vector<float> act(cfg.d_ff);
            for (size_t i = 0; i < cfg.d_ff; ++i) {
                const float g = gate[i];
                act[i] = (g / (1.0f + std::exp(-g))) * up[i];
            }
            const auto down = matvec(lw.w_down, act);
            for (size_t c = 0; c < d; ++c)
                x[c] += down[c];
        }

        const auto hf = rmsnorm_vec(x, final_gain);
        logits_last = matvec(model.linearWeight("head"), hf);

        ++pos;
        if (warming)
            continue;
        std::vector<double> probs(cfg.vocab);
        double mx = logits_last[0];
        for (float l : logits_last)
            mx = std::max(mx, static_cast<double>(l));
        for (size_t i = 0; i < cfg.vocab; ++i) {
            probs[i] = std::exp(
                (static_cast<double>(logits_last[i]) - mx) /
                std::max(temperature, 1e-3));
        }
        tokens.push_back(static_cast<int>(rng.categorical(probs)));
    }
    return tokens;
}

TEST(SampleStability, TokensUnchangedVsSeedAlgorithm)
{
    // sample() was rewired from private float KV vectors onto the
    // teacher-mode KvCache + decodeStep; for fixed RNG seeds the emitted
    // tokens must be identical to the seed implementation's, or every
    // teacher dataset (and with it the paper's quality orderings) would
    // silently shift.
    const Transformer model(tinyConfig());
    for (KernelBackend backend : kBothBackends) {
        BackendGuard guard(backend);
        for (const uint64_t seed : {5ull, 123ull}) {
            Rng ra(seed);
            Rng rb(seed);
            const auto got = model.sample(ra, 48, 1.0);
            const auto want = seedSample(model, rb, 48, 1.0, {});
            EXPECT_EQ(got, want)
                << "seed " << seed << " on "
                << kernelBackendName(backend);
        }
        // With a prefix and a sharper temperature.
        Rng ra(77);
        Rng rb(77);
        const auto prefix = tokenRamp(9, 4);
        const auto got = model.sample(ra, 25, 0.8, prefix);
        const auto want = seedSample(model, rb, 25, 0.8, prefix);
        EXPECT_EQ(got, want)
            << "prefixed on " << kernelBackendName(backend);
    }
}

// ------------------------------------------------------ batched decode --

TEST(BatchedDecode, RowsMatchSerialSingleRequestRuns)
{
    const Transformer model(tinyConfig());
    for (const char *fmt : {"BF16", "MXFP4+"}) {
        const QuantConfig qc = QuantConfig::fromFormat(fmt);

        const std::vector<std::vector<int>> prompts = {
            tokenRamp(5, 2), tokenRamp(9, 7), tokenRamp(3, 13)};
        const size_t steps = 11;

        // Serial: each request decodes alone.
        std::vector<Matrix> serial_logits;
        std::vector<std::vector<int>> serial_tokens(prompts.size());
        for (size_t r = 0; r < prompts.size(); ++r) {
            KvCache cache = KvCache::forConfig(model.config(), qc);
            Matrix logits = model.prefill(prompts[r], cache, qc);
            int tok = 0; // greedy from the last prefill row
            const float *row = logits.row(logits.rows() - 1);
            for (size_t v = 1; v < model.config().vocab; ++v)
                if (row[v] > row[tok])
                    tok = static_cast<int>(v);
            for (size_t s = 0; s < steps; ++s) {
                const Matrix l = model.decodeStep(tok, cache, qc);
                serial_tokens[r].push_back(tok);
                tok = 0;
                for (size_t v = 1; v < model.config().vocab; ++v)
                    if (l.at(0, v) > l.at(0, tok))
                        tok = static_cast<int>(v);
                if (r == 0 && s + 1 == steps)
                    serial_logits.push_back(l);
            }
        }

        // Batched: all requests share each decode step.
        std::vector<KvCache> caches;
        caches.reserve(prompts.size());
        std::vector<int> last(prompts.size());
        for (size_t r = 0; r < prompts.size(); ++r) {
            caches.emplace_back(
                KvCache::forConfig(model.config(), qc));
            Matrix logits = model.prefill(prompts[r], caches[r], qc);
            const float *row = logits.row(logits.rows() - 1);
            int tok = 0;
            for (size_t v = 1; v < model.config().vocab; ++v)
                if (row[v] > row[tok])
                    tok = static_cast<int>(v);
            last[r] = tok;
        }
        std::vector<KvCache *> cache_ptrs;
        for (auto &c : caches)
            cache_ptrs.push_back(&c);
        for (size_t s = 0; s < steps; ++s) {
            const Matrix l =
                model.decodeStepBatch(last, cache_ptrs, qc);
            for (size_t r = 0; r < prompts.size(); ++r) {
                ASSERT_EQ(last[r], serial_tokens[r][s])
                    << fmt << " request " << r << " step " << s;
                int tok = 0;
                for (size_t v = 1; v < model.config().vocab; ++v)
                    if (l.at(r, v) > l.at(r, tok))
                        tok = static_cast<int>(v);
                last[r] = tok;
            }
            if (s + 1 == steps) {
                // Final-step logits of request 0, bit-exact vs serial.
                for (size_t v = 0; v < model.config().vocab; ++v)
                    ASSERT_EQ(l.at(0, v), serial_logits[0].at(0, v))
                        << fmt << " vocab " << v;
            }
        }
    }
}

// ------------------------------------------------------ serving engine --

std::vector<ServeRequest>
engineWorkload()
{
    std::vector<ServeRequest> reqs;
    for (size_t r = 0; r < 5; ++r) {
        ServeRequest req;
        req.prompt = tokenRamp(4 + 3 * r, static_cast<int>(2 * r + 3));
        req.max_new_tokens = 6 + 2 * r;
        if (r % 2 == 1) {
            req.temperature = 1.0;
            req.seed = 1000 + r;
        }
        reqs.push_back(std::move(req));
    }
    return reqs;
}

TEST(ServingEngine, BatchedRunMatchesSerialRuns)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    const auto reqs = engineWorkload();

    // Serial oracle: one engine per request (batch width 1).
    std::vector<std::vector<int>> serial(reqs.size());
    for (size_t r = 0; r < reqs.size(); ++r) {
        ServingEngine engine(model, qc, 1);
        const size_t id = engine.submit(reqs[r]);
        engine.runToCompletion();
        serial[r] = engine.stats(id).generated;
        EXPECT_EQ(serial[r].size(), reqs[r].max_new_tokens);
    }

    // Batched engine, all requests in flight together.
    ServingEngine engine(model, qc, 4);
    std::vector<size_t> ids;
    for (const auto &req : reqs)
        ids.push_back(engine.submit(req));
    engine.runToCompletion();
    for (size_t r = 0; r < reqs.size(); ++r) {
        EXPECT_EQ(engine.stats(ids[r]).generated, serial[r])
            << "request " << r;
    }
}

TEST(ServingEngine, SingleTokenRequestsNeverOverrun)
{
    // A request fully satisfied by its prefill token must be retired
    // before any decode step, including when it is admitted into a slot
    // freed by another retirement within the same scheduler iteration.
    const Transformer model(tinyConfig());
    ServingEngine engine(model, QuantConfig::bf16Baseline(), 1);
    std::vector<size_t> ids;
    for (int r = 0; r < 2; ++r) {
        ServeRequest req;
        req.prompt = tokenRamp(4, 3 + r);
        req.max_new_tokens = 1;
        ids.push_back(engine.submit(std::move(req)));
    }
    engine.runToCompletion();
    for (size_t id : ids) {
        EXPECT_TRUE(engine.stats(id).finished);
        EXPECT_EQ(engine.stats(id).generated.size(), 1u);
    }
    EXPECT_EQ(engine.engineStats().decode_batches, 0u);
}

TEST(ServingEngine, TinyMaxSeqModelsStillServe)
{
    // max_seq below the cache's default initial capacity: construction
    // must clamp, sampling must clip at the position table, and the
    // engine must retire a request whose sequence fills up mid-flight.
    ModelConfig cfg = tinyConfig();
    cfg.max_seq = 16;
    const Transformer model(cfg);

    Rng rng(3);
    const auto tokens = model.sample(rng, 64, 1.0);
    EXPECT_EQ(tokens.size(), cfg.max_seq + 1); // seed-loop clip semantics

    const QuantConfig qc = QuantConfig::bf16Baseline();
    KvCache cache = KvCache::forConfig(cfg, qc);
    EXPECT_LE(cache.capacity(), cfg.max_seq);

    ServingEngine engine(model, qc, 2);
    ServeRequest req;
    req.prompt = {tokens.begin(), tokens.begin() + 8};
    req.max_new_tokens = 32; // more than the sequence can hold
    const size_t id = engine.submit(std::move(req));
    engine.runToCompletion();
    EXPECT_TRUE(engine.stats(id).finished);
    // Prefill yields one token at length 8; decode runs until the cache
    // hits max_seq: 1 + (16 - 8) generated tokens.
    EXPECT_EQ(engine.stats(id).generated.size(), cfg.max_seq - 8 + 1);
}

TEST(ServingEngine, StatsAreCoherent)
{
    const Transformer model(tinyConfig());
    ServingEngine engine(model, QuantConfig::bf16Baseline(), 3);
    const auto reqs = engineWorkload();
    std::vector<size_t> ids;
    for (const auto &req : reqs)
        ids.push_back(engine.submit(req));
    engine.runToCompletion();

    EXPECT_EQ(engine.queuedRequests(), 0u);
    EXPECT_EQ(engine.activeRequests(), 0u);
    for (size_t r = 0; r < reqs.size(); ++r) {
        const RequestStats &rs = engine.stats(ids[r]);
        EXPECT_TRUE(rs.finished);
        EXPECT_EQ(rs.prompt_tokens, reqs[r].prompt.size());
        EXPECT_EQ(rs.generated.size(), reqs[r].max_new_tokens);
        EXPECT_EQ(rs.token_ms.size(), reqs[r].max_new_tokens - 1);
        EXPECT_GE(rs.ttft_ms, 0.0);
        EXPECT_LE(rs.p50_ms, rs.p99_ms + 1e-9);
        EXPECT_GT(rs.decode_tokens_per_s, 0.0);
        for (int t : rs.generated) {
            EXPECT_GE(t, 0);
            EXPECT_LT(static_cast<size_t>(t), model.config().vocab);
        }
    }
    const EngineStats es = engine.engineStats();
    EXPECT_GT(es.wall_ms, 0.0);
    EXPECT_GT(es.decode_batches, 0u);
    EXPECT_GE(es.mean_batch_occupancy, 1.0);
    EXPECT_LE(es.mean_batch_occupancy, 3.0 + 1e-9);
    EXPECT_GT(es.kv_bytes_peak, 0u);
    size_t total = 0;
    for (const auto &req : reqs)
        total += req.max_new_tokens;
    EXPECT_EQ(es.total_generated, total);
    EXPECT_GT(es.throughput_tokens_per_s, 0.0);
}

// ------------------------------------------------------------- paging --

TEST(KvPaging, DecodeBitIdenticalAcrossPageSizes)
{
    // The paged==contiguous parity gate: the cache's quantized state is
    // a function of the visible prefix only, never of the page layout,
    // and the decode attention's page walk reproduces the contiguous
    // kernel chains exactly. A single max_seq-sized page IS the old
    // contiguous cache, so comparing page sizes 64 and max_seq against
    // the default proves paged decode bit-identical to contiguous decode
    // for every format — not just BF16.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const auto tokens = tokenRamp(44, 9);
    const size_t prompt = 8;

    for (const char *fmt :
         {"BF16", "MXFP4", "MXFP4+", "MXFP8", "MXINT8+", "NVFP4"}) {
        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        auto run = [&](std::shared_ptr<KvPagePool> pool) {
            KvCache cache =
                KvCache::forConfig(cfg, qc, 0, std::move(pool));
            model.prefill({tokens.begin(), tokens.begin() + prompt},
                          cache, qc);
            std::vector<Matrix> logits;
            for (size_t t = prompt; t < tokens.size(); ++t)
                logits.push_back(model.decodeStep(tokens[t], cache, qc));
            return logits;
        };
        const auto base = run(nullptr); // default page geometry
        for (const size_t pt : {static_cast<size_t>(64), cfg.max_seq}) {
            auto pool = std::make_shared<KvPagePool>(
                pt, KvCache::floatsPerPage(cfg, pt),
                /*max_pages=*/0);
            const auto got = run(pool);
            ASSERT_EQ(got.size(), base.size());
            for (size_t s = 0; s < base.size(); ++s) {
                for (size_t i = 0; i < base[s].size(); ++i)
                    ASSERT_EQ(got[s].data()[i], base[s].data()[i])
                        << fmt << " page_tokens " << pt << " step " << s
                        << " flat index " << i;
            }
        }
    }
}

TEST(KvPaging, MemoryTracksLivePagesAndReleasesOnDestruction)
{
    const ModelConfig cfg = tinyConfig();
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    const size_t pt = KvCache::pageTokensFor(qc.attention.get());
    auto pool = std::make_shared<KvPagePool>(
        pt, KvCache::floatsPerPage(cfg, pt), 0);

    {
        KvCache cache = KvCache::forConfig(cfg, qc, 0, pool);
        EXPECT_EQ(cache.memoryBytes(), 0u); // no token, no page
        Rng rng(7);
        std::vector<float> k(cfg.d_model);
        std::vector<float> v(cfg.d_model);
        for (size_t t = 0; t < 2 * pt + 3; ++t) {
            for (auto &x : k)
                x = static_cast<float>(rng.gaussian(0.0, 1.0));
            for (auto &x : v)
                x = static_cast<float>(rng.gaussian(0.0, 1.0));
            for (size_t l = 0; l < cfg.n_layers; ++l)
                cache.append(l, k.data(), v.data());
            cache.commit(1);
            const size_t pages_per_layer = (t + 1 + pt - 1) / pt;
            EXPECT_EQ(cache.heldPages(),
                      cfg.n_layers * pages_per_layer);
            EXPECT_EQ(cache.memoryBytes(),
                      cache.heldPages() * pool->pageBytes());
        }
        EXPECT_EQ(pool->usedPages(), cache.heldPages());
    }
    // Cache destruction returns every page to the pool's free list.
    EXPECT_EQ(pool->usedPages(), 0u);
    EXPECT_GT(pool->allocatedPages(), 0u);

    // A second cache recycles the freed slabs instead of growing.
    const size_t high_water = pool->allocatedPages();
    KvCache again = KvCache::forConfig(cfg, qc, 0, pool);
    Matrix k(1, cfg.d_model, std::vector<float>(cfg.d_model, 0.5f));
    Matrix v(1, cfg.d_model, std::vector<float>(cfg.d_model, 0.25f));
    for (size_t l = 0; l < cfg.n_layers; ++l)
        again.appendBatch(l, k, v);
    again.commit(1);
    EXPECT_EQ(pool->allocatedPages(), high_water);
}

// ---------------------------------------------------- chunked prefill --

TEST(DecodeParity, ChunkedPrefillMatchesWholePromptBf16)
{
    // Prefill in pieces must reproduce the one-shot prefill: row r of a
    // GEMM depends only on A row r (shape stability), and in BF16 the
    // cache's "blocks" are single elements, so chunk boundaries cannot
    // shift any quantization decision.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::bf16Baseline();
    const auto tokens = tokenRamp(40, 7);

    KvCache whole = KvCache::forConfig(model.config(), qc);
    const Matrix full = model.prefill(tokens, whole, qc);

    KvCache chunked = KvCache::forConfig(model.config(), qc);
    Matrix last;
    for (size_t pos = 0; pos < tokens.size(); pos += 17) {
        const size_t end = std::min(tokens.size(), pos + 17);
        last = model.prefill(
            {tokens.begin() + static_cast<long>(pos),
             tokens.begin() + static_cast<long>(end)},
            chunked, qc);
    }
    const float *want = full.row(full.rows() - 1);
    const float *got = last.row(last.rows() - 1);
    for (size_t v = 0; v < model.config().vocab; ++v)
        ASSERT_EQ(got[v], want[v]) << "vocab " << v;

    // And the caches are interchangeable afterwards.
    const Matrix a = model.decodeStep(3, whole, qc);
    const Matrix b = model.decodeStep(3, chunked, qc);
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i]);

    // In every format, chunks that end on page boundaries split no
    // value block, so every chunk row equals the whole-prompt row and
    // the caches decode alike. Later chunks attend from pos0 > 0 over
    // several pages, which pins the prefill page walk.
    const auto prompt = tokenRamp(77, 5);
    for (KernelBackend backend : kBothBackends) {
        BackendGuard guard(backend);
        for (const char *fmt :
             {"BF16", "MXFP4", "MXFP4+", "MXFP4++", "MXFP8", "MXINT8+",
              "NVFP4"}) {
            const QuantConfig fq = QuantConfig::fromFormat(fmt);
            KvCache one = KvCache::forConfig(model.config(), fq);
            const Matrix ref = model.prefill(prompt, one, fq);
            for (const size_t chunk : {size_t(32), size_t(64)}) {
                KvCache cache = KvCache::forConfig(model.config(), fq);
                for (size_t pos = 0; pos < prompt.size(); pos += chunk) {
                    const size_t end = std::min(prompt.size(), pos + chunk);
                    const Matrix rows = model.prefill(
                        {prompt.begin() + static_cast<long>(pos),
                         prompt.begin() + static_cast<long>(end)},
                        cache, fq);
                    for (size_t r = 0; r < rows.rows(); ++r) {
                        for (size_t v = 0; v < rows.cols(); ++v)
                            ASSERT_EQ(rows.at(r, v), ref.at(pos + r, v))
                                << fmt << " on "
                                << kernelBackendName(backend) << " chunk "
                                << chunk << " row " << pos + r;
                    }
                }
                KvCache twin = KvCache::forConfig(model.config(), fq);
                model.prefill(prompt, twin, fq);
                for (int step = 0; step < 6; ++step) {
                    const int tok = 11 + 7 * step;
                    const Matrix da = model.decodeStep(tok, twin, fq);
                    const Matrix db = model.decodeStep(tok, cache, fq);
                    for (size_t i = 0; i < da.size(); ++i)
                        ASSERT_EQ(db.data()[i], da.data()[i])
                            << fmt << " on " << kernelBackendName(backend)
                            << " chunk " << chunk << " decode step "
                            << step;
                }
            }
        }
    }
}

TEST(ServingEngine, PrefillChunkSizeDoesNotChangeBf16Tokens)
{
    // Every engine rounds a computed chunk up to a page boundary, so a
    // chunk size that is not a multiple of the value block period
    // cannot move a token in a block format either.
    const Transformer model(tinyConfig());
    for (const char *fmt : {"BF16", "MXFP4+", "MXFP8"}) {
        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        auto run = [&](size_t chunk) {
            EngineOptions opts;
            opts.max_batch = 2;
            opts.prefill_chunk = chunk;
            ServingEngine engine(model, qc, opts);
            ServeRequest req;
            req.prompt = tokenRamp(70, 3); // several chunks at chunk=8
            req.max_new_tokens = 12;
            ServeRequest other;
            other.prompt = tokenRamp(5, 11);
            other.max_new_tokens = 12;
            const size_t a = engine.submit(std::move(req));
            const size_t b = engine.submit(std::move(other));
            engine.runToCompletion();
            // Quanta of the chunk rounded up to whole pages.
            const size_t pt = engine.pool().pageTokens();
            const size_t quantum = (chunk + pt - 1) / pt * pt;
            EXPECT_GE(engine.engineStats().prefill_chunks,
                      chunk == 0 ? 2u : (70 + quantum - 1) / quantum)
                << fmt;
            return std::make_pair(engine.stats(a).generated,
                                  engine.stats(b).generated);
        };
        const auto fine = run(8);
        const auto whole = run(0);
        EXPECT_EQ(fine.first, whole.first) << fmt;
        EXPECT_EQ(fine.second, whole.second) << fmt;
    }
}

// -------------------------------------------------- budget admission --

TEST(ServingEngine, TokenBudgetSerializesWithoutChangingTokens)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    const auto reqs = engineWorkload();

    // Unbudgeted oracle.
    ServingEngine oracle(model, qc, 4);
    std::vector<size_t> oracle_ids;
    for (const auto &req : reqs)
        oracle_ids.push_back(oracle.submit(req));
    oracle.runToCompletion();

    // Budget for two concurrent requests (every workload request needs
    // one page per layer): admission must defer, every request must
    // still finish, and the token streams must be unchanged — the
    // budget is a scheduling decision, never a numerics decision.
    EngineOptions opts;
    opts.max_batch = 4;
    opts.kv_budget_tokens = 64;
    ServingEngine engine(model, qc, opts);
    const size_t pt = engine.pool().pageTokens();
    EXPECT_EQ(engine.pool().maxPages(),
              (64 + pt - 1) / pt * model.config().n_layers);
    std::vector<size_t> ids;
    for (const auto &req : reqs)
        ids.push_back(engine.submit(req));
    engine.runToCompletion();

    for (size_t r = 0; r < reqs.size(); ++r) {
        EXPECT_TRUE(engine.stats(ids[r]).finished);
        EXPECT_EQ(engine.stats(ids[r]).generated,
                  oracle.stats(oracle_ids[r]).generated)
            << "request " << r;
    }
    const EngineStats es = engine.engineStats();
    EXPECT_GT(es.admission_deferred_steps, 0u);
    EXPECT_LE(es.kv_pages_peak, engine.pool().maxPages());
    EXPECT_EQ(engine.kvBytesLive(), 0u);
    EXPECT_EQ(engine.reservedPages(), 0u);
}

TEST(ServingEngine, OverBudgetRequestIsRejectedGracefullyNotFatally)
{
    // The PR3 engine aborted the process at submit() when a request
    // could never fit the page budget. With the pool's recoverable
    // acquire, impossible requests are rejected at admission time
    // (RequestOutcome::kRejected) and everything else keeps serving —
    // groundwork for preemption, where deferral/rejection decisions
    // move entirely into the scheduler.
    const Transformer model(tinyConfig());
    EngineOptions opts;
    opts.max_batch = 2;
    opts.kv_budget_tokens = 64;
    ServingEngine engine(model, QuantConfig::fromFormat("MXFP4+"), opts);

    ServeRequest big;
    big.prompt = tokenRamp(40, 3);
    big.max_new_tokens = 64; // 104 tokens: can never fit 64
    ServeRequest ok;
    ok.prompt = tokenRamp(8, 5);
    ok.max_new_tokens = 4;
    const size_t big_id = engine.submit(std::move(big));
    const size_t ok_id = engine.submit(std::move(ok));
    engine.runToCompletion();

    EXPECT_TRUE(engine.stats(big_id).finished);
    EXPECT_EQ(engine.stats(big_id).outcome, RequestOutcome::kRejected);
    EXPECT_TRUE(engine.stats(big_id).generated.empty());
    EXPECT_TRUE(engine.stats(ok_id).finished);
    EXPECT_EQ(engine.stats(ok_id).outcome, RequestOutcome::kCompleted);
    EXPECT_EQ(engine.stats(ok_id).generated.size(), 4u);
    EXPECT_EQ(engine.engineStats().rejected_requests, 1u);
    EXPECT_EQ(engine.kvBytesLive(), 0u);
    EXPECT_EQ(engine.reservedPages(), 0u);
}

TEST(KvPagePool, BoundedAcquireFailsRecoverablyInsteadOfAborting)
{
    KvPagePool pool(4, 16, /*max_pages=*/2);
    const uint32_t a = pool.acquire();
    const uint32_t b = pool.acquire();
    ASSERT_NE(a, KvPagePool::kNoPage);
    ASSERT_NE(b, KvPagePool::kNoPage);
    // Exhaustion is a return value, not a death: the caller (engine)
    // defers the requester or evicts cached spans and retries.
    EXPECT_EQ(pool.acquire(), KvPagePool::kNoPage);
    pool.release(a);
    EXPECT_NE(pool.acquire(), KvPagePool::kNoPage);
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.usedPages(), 0u);
}

TEST(ServingEngine, KvBytesPeakReportsLivePagesNotReservations)
{
    // Three short requests plus one long one: admission reserves
    // 1+1+1+3 = 6 pages per layer, but the short requests retire long
    // before the long one grows its third page, so the live peak must
    // stay below the reservation total — and return to zero at the end.
    const Transformer model(tinyConfig());
    EngineOptions opts;
    opts.max_batch = 4;
    ServingEngine engine(model, QuantConfig::bf16Baseline(), opts);
    const size_t pt = engine.pool().pageTokens();
    ASSERT_EQ(pt, 32u);

    size_t reserved_total = 0;
    for (int r = 0; r < 3; ++r) {
        ServeRequest req;
        req.prompt = tokenRamp(8, 3 + r);
        req.max_new_tokens = 8;
        reserved_total += 1;
        engine.submit(std::move(req));
    }
    ServeRequest long_req;
    long_req.prompt = tokenRamp(8, 13);
    long_req.max_new_tokens = 88; // 96 tokens = 3 pages per layer
    reserved_total += 3;
    engine.submit(std::move(long_req));
    engine.runToCompletion();

    const EngineStats es = engine.engineStats();
    const size_t layers = model.config().n_layers;
    EXPECT_GT(es.kv_pages_peak, 0u);
    EXPECT_LT(es.kv_pages_peak, reserved_total * layers);
    EXPECT_EQ(es.kv_bytes_peak,
              es.kv_pages_peak * engine.pool().pageBytes());
    EXPECT_EQ(engine.kvBytesLive(), 0u);
    EXPECT_EQ(engine.pool().usedPages(), 0u);
}

// ------------------------------------------------------ prefix sharing --

TEST(KvPagePool, RefcountedSharingReclaimsOnLastRelease)
{
    KvPagePool pool(4, 16, /*max_pages=*/3);
    const uint32_t a = pool.acquire();
    const uint32_t b = pool.acquire();
    ASSERT_NE(a, KvPagePool::kNoPage);
    ASSERT_NE(b, KvPagePool::kNoPage);
    EXPECT_EQ(pool.usedPages(), 2u);

    // Two co-owners join (a second request's cache + the prefix index).
    pool.ref(a);
    pool.ref(a);
    EXPECT_EQ(pool.refCount(a), 3u);
    pool.release(a);
    pool.release(a);
    EXPECT_EQ(pool.refCount(a), 1u);
    EXPECT_EQ(pool.usedPages(), 2u); // still alive: one owner left

    const uint32_t c = pool.acquire();
    ASSERT_NE(c, KvPagePool::kNoPage);
    EXPECT_EQ(pool.acquire(), KvPagePool::kNoPage); // budget, recoverable
    pool.release(b);                                // last owner of b
    const uint32_t d = pool.acquire();              // recycles b's slab
    EXPECT_EQ(d, b);
    EXPECT_EQ(pool.refCount(d), 1u);

    pool.release(a);
    pool.release(c);
    pool.release(d);
    EXPECT_EQ(pool.usedPages(), 0u);
    EXPECT_EQ(pool.allocatedPages(), 3u); // high-water, free-listed
}

TEST(PrefixSharing, AdoptedPagesDecodeBitIdenticalToPrivatePrefill)
{
    // The cache-layer contract: mapping another request's frozen prompt
    // pages and prefilling only the tail must reproduce the
    // private-cache logits bit-for-bit — for every format (frozen
    // pages are exact snapshots of the visible prefix) and independent
    // of the page size.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const auto tokens = tokenRamp(90, 5);
    const std::vector<int> prompt(tokens.begin(), tokens.begin() + 78);
    const size_t decode_steps = 6;

    for (const char *fmt :
         {"BF16", "MXFP4", "MXFP4+", "MXFP8", "MXINT8+", "NVFP4"}) {
        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        for (const size_t pt : {size_t(32), size_t(64)}) {
            auto pool = std::make_shared<KvPagePool>(
                pt, KvCache::floatsPerPage(cfg, pt),
                /*max_pages=*/0);
            {
                KvCache a = KvCache::forConfig(cfg, qc, 0, pool);
                const Matrix la = model.prefill(prompt, a, qc);

                const size_t shared_pages = (prompt.size() - 1) / pt;
                ASSERT_GE(shared_pages, 1u);
                KvCache b = KvCache::forConfig(cfg, qc, 0, pool);
                std::vector<uint32_t> ids(cfg.n_layers);
                for (size_t g = 0; g < shared_pages; ++g) {
                    for (size_t l = 0; l < cfg.n_layers; ++l)
                        ids[l] = a.pageId(l, g);
                    b.adoptSharedPage(ids.data());
                }
                // Shared pages now have two owners.
                EXPECT_EQ(pool->refCount(a.pageId(0, 0)), 2u);
                EXPECT_EQ(b.length(), shared_pages * pt);

                const std::vector<int> tail(
                    prompt.begin() +
                        static_cast<long>(shared_pages * pt),
                    prompt.end());
                const Matrix lb = model.prefill(tail, b, qc);
                const float *want = la.row(la.rows() - 1);
                const float *got = lb.row(lb.rows() - 1);
                for (size_t v = 0; v < cfg.vocab; ++v)
                    ASSERT_EQ(got[v], want[v])
                        << fmt << " pt " << pt << " vocab " << v;

                // Decode stays bit-identical step after step: b's
                // appends land in private tail pages while attention
                // walks shared + private pages uniformly.
                for (size_t s = 0; s < decode_steps; ++s) {
                    const int tok = tokens[78 + s];
                    const Matrix da = model.decodeStep(tok, a, qc);
                    const Matrix db = model.decodeStep(tok, b, qc);
                    for (size_t i = 0; i < da.size(); ++i)
                        ASSERT_EQ(db.data()[i], da.data()[i])
                            << fmt << " pt " << pt << " step " << s
                            << " flat index " << i;
                }
            }
            // Both caches gone: every refcount unwound to zero.
            EXPECT_EQ(pool->usedPages(), 0u) << fmt << " pt " << pt;
        }
    }
}

/** N requests sharing a page-aligned prompt head, distinct tails. */
std::vector<ServeRequest>
sharedPrefixRequests(size_t n, size_t shared_len, size_t tail_len,
                     size_t new_tokens)
{
    const auto head = tokenRamp(shared_len, 3);
    std::vector<ServeRequest> reqs(n);
    for (size_t r = 0; r < n; ++r) {
        reqs[r].prompt = head;
        for (size_t i = 0; i < tail_len; ++i) {
            reqs[r].prompt.push_back(
                static_cast<int>((41 + 11 * r + 5 * i) % 251));
        }
        reqs[r].max_new_tokens = new_tokens;
        reqs[r].temperature = 0.0;
    }
    return reqs;
}

TEST(PrefixSharing, EngineTokensBitIdenticalWithSharingOnOrOff)
{
    // The engine-level acceptance gate: the prefix cache may only ever
    // change who computes a page, never what any request decodes —
    // across formats and page sizes 32 (default), 64 and max_seq (one
    // page per request, i.e. sharing degenerates to off).
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const auto reqs = sharedPrefixRequests(4, 64, 10, 6);

    for (const char *fmt : {"BF16", "MXFP4+", "MXFP8"}) {
        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        for (const size_t pt : {size_t(0), size_t(64), cfg.max_seq}) {
            EngineOptions off;
            off.max_batch = 4;
            off.page_tokens = pt;
            EngineOptions on = off;
            on.prefix_cache_tokens = 256;

            ServingEngine plain(model, qc, off);
            ServingEngine shared(model, qc, on);
            std::vector<size_t> plain_ids;
            std::vector<size_t> shared_ids;
            for (const auto &req : reqs) {
                plain_ids.push_back(plain.submit(req));
                shared_ids.push_back(shared.submit(req));
            }
            plain.runToCompletion();
            shared.runToCompletion();

            for (size_t r = 0; r < reqs.size(); ++r) {
                EXPECT_EQ(shared.stats(shared_ids[r]).generated,
                          plain.stats(plain_ids[r]).generated)
                    << fmt << " page_tokens " << pt << " request " << r;
            }
            if (pt != cfg.max_seq) {
                // The shared head really was served from cached pages
                // (once computed, three times adopted), and dedup shows
                // up as a lower live-page peak.
                EXPECT_GE(shared.engineStats().prefix_hit_requests, 3u)
                    << fmt << " page_tokens " << pt;
                EXPECT_GT(shared.engineStats().prefix_hit_tokens, 0u);
                EXPECT_LT(shared.engineStats().kv_bytes_peak,
                          plain.engineStats().kv_bytes_peak)
                    << fmt << " page_tokens " << pt;
            } else {
                EXPECT_EQ(shared.engineStats().prefix_hit_tokens, 0u);
            }
        }
    }
}

TEST(PrefixSharing, PoolReturnsToZeroAfterInterleavedShareAndRetire)
{
    // Mixed fork/retire interleavings: requests adopt spans, publish
    // spans, retire while others still map the same pages, and new
    // requests join mid-flight. Afterwards the pool must hold exactly
    // the retained spans — and nothing once those are dropped.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 3;
    opts.prefix_cache_tokens = 256;
    ServingEngine engine(model, qc, opts);

    auto reqs = sharedPrefixRequests(3, 64, 6, 4);
    std::vector<size_t> ids;
    ids.push_back(engine.submit(reqs[0]));
    ids.push_back(engine.submit(reqs[1]));
    for (int s = 0; s < 4; ++s)
        engine.step();
    // Join mid-flight: same head (adopts live spans) + an unrelated
    // prompt (pure private pages).
    ids.push_back(engine.submit(reqs[2]));
    ServeRequest other;
    other.prompt = tokenRamp(40, 13);
    other.max_new_tokens = 5;
    ids.push_back(engine.submit(std::move(other)));
    engine.runToCompletion();

    for (size_t id : ids)
        EXPECT_TRUE(engine.stats(id).finished);
    EXPECT_GT(engine.engineStats().prefix_hit_tokens, 0u);
    EXPECT_EQ(engine.reservedPages(), 0u);

    // Every surviving page belongs to a retained span; dropping the
    // cache unwinds the refcounts to exactly zero.
    const size_t pt = engine.pool().pageTokens();
    EXPECT_GT(engine.prefixCachedTokens(), 0u);
    EXPECT_EQ(engine.pool().usedPages(),
              engine.prefixCachedTokens() / pt * cfg.n_layers);
    engine.clearPrefixCache();
    EXPECT_EQ(engine.prefixCachedTokens(), 0u);
    EXPECT_EQ(engine.pool().usedPages(), 0u);
    EXPECT_EQ(engine.kvBytesLive(), 0u);
}

TEST(PrefixSharing, BudgetAdmissionEvictsUnreferencedSpans)
{
    // A retained span competes with new requests for the page budget;
    // admission must evict LRU unreferenced spans instead of deferring
    // forever.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 1;
    opts.kv_budget_tokens = 64; // 2 pages per layer
    opts.prefix_cache_tokens = 64;
    ServingEngine engine(model, qc, opts);

    ServeRequest a;
    a.prompt = tokenRamp(40, 3); // registers its first whole page
    a.max_new_tokens = 8;
    const size_t a_id = engine.submit(std::move(a));
    engine.runToCompletion();
    EXPECT_TRUE(engine.stats(a_id).finished);
    EXPECT_GT(engine.prefixCachedTokens(), 0u);

    ServeRequest b; // unrelated prompt: needs the whole budget
    b.prompt = tokenRamp(40, 17);
    b.max_new_tokens = 8;
    const size_t b_id = engine.submit(std::move(b));
    engine.runToCompletion();
    EXPECT_TRUE(engine.stats(b_id).finished);
    EXPECT_EQ(engine.stats(b_id).outcome, RequestOutcome::kCompleted);
    EXPECT_GT(engine.engineStats().prefix_evicted_pages, 0u);
}

TEST(PrefixSharing, OversizedRequestWithCachedPrefixRejectsNotLivelocks)
{
    // Regression guard: a request whose prompt head is cached but
    // whose TOTAL demand exceeds the budget must be rejected, not
    // deferred — its matched span is pinned during the admission
    // check, so "defer and evict later" would spin forever (the span
    // it waits to evict is its own).
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 2;
    opts.kv_budget_tokens = 64; // 2 pages/layer
    opts.prefix_cache_tokens = 32;
    ServingEngine engine(model, qc, opts);

    ServeRequest a; // fits: 48 tokens = 2 pages/layer
    a.prompt = tokenRamp(40, 3);
    a.max_new_tokens = 8;
    const size_t a_id = engine.submit(a);
    engine.runToCompletion();
    EXPECT_TRUE(engine.stats(a_id).finished);
    EXPECT_EQ(engine.prefixCachedTokens(), 32u); // A's head is cached

    ServeRequest b = a;   // same 40-token head, cached...
    b.max_new_tokens = 33; // ...but 73 tokens = 3 pages/layer > budget
    const size_t b_id = engine.submit(std::move(b));
    engine.runToCompletion(); // must terminate
    EXPECT_TRUE(engine.stats(b_id).finished);
    EXPECT_EQ(engine.stats(b_id).outcome, RequestOutcome::kRejected);
}

TEST(PrefixSharing, LateAdoptionCreditsTheReservationExactlyOnce)
{
    // Two identical prompts admitted together both reserve their full
    // demand (the index is still empty). Once A publishes the first
    // page and B adopts it, that physical page must be charged ONCE
    // (as a cached span), not three times — otherwise a third request
    // that physically fits keeps getting deferred.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 3;
    opts.kv_budget_tokens = 128; // 4 pages/layer = 8 budget pages
    opts.prefix_cache_tokens = 64;
    ServingEngine engine(model, qc, opts);

    const auto reqs = sharedPrefixRequests(3, 32, 8, 8); // 2 pages/layer
    std::vector<size_t> ids;
    for (const auto &req : reqs)
        ids.push_back(engine.submit(req));

    // Step 1: A and B admitted (4 + 4 = the whole budget), C deferred.
    // Within the same step A computes+publishes page 0 (charge moves
    // to the span) and B adopts it (charge credited): 8 - 2 - 2 = 4.
    engine.step();
    EXPECT_EQ(engine.activeRequests(), 2u);
    EXPECT_EQ(engine.reservedPages(), 4u);
    EXPECT_EQ(engine.prefixCachedTokens(), 32u);

    // Step 2: C now fits (4 reserved + 2 span + 2 tail = 8) — without
    // the adoption credit it would wait for a retirement instead.
    engine.step();
    EXPECT_EQ(engine.activeRequests(), 3u);
    engine.runToCompletion();
    EXPECT_EQ(engine.engineStats().admission_deferred_steps, 1u);
    for (size_t id : ids)
        EXPECT_TRUE(engine.stats(id).finished);
    EXPECT_EQ(engine.reservedPages(), 0u);
}

TEST(PrefixSharing, TinyCapacitySurvivesMultiPagePublication)
{
    // Regression guard: publishing several pages in one quantum
    // (prefill_chunk = 0) against a one-page-capacity index used to
    // let insert()'s capacity eviction free the just-inserted parent
    // node it was about to attach to (use-after-free under ASan). The
    // index must instead stop publishing and keep the overflow pages
    // private.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 2;
    opts.prefill_chunk = 0;       // whole prompt: 3 pages in one call
    opts.prefix_cache_tokens = 32; // capacity: exactly one span
    ServingEngine engine(model, qc, opts);

    auto reqs = sharedPrefixRequests(2, 96, 5, 4);
    std::vector<size_t> ids;
    for (const auto &req : reqs)
        ids.push_back(engine.submit(req));
    engine.runToCompletion();

    for (size_t id : ids)
        EXPECT_TRUE(engine.stats(id).finished);
    // Only one span fits; the follower still adopts that first page.
    EXPECT_LE(engine.prefixCachedTokens(), 32u);
    EXPECT_EQ(engine.stats(ids[1]).shared_prompt_tokens, 32u);
    engine.clearPrefixCache();
    EXPECT_EQ(engine.pool().usedPages(), 0u);
}

// ---------------------------------------------------------- preemption --

TEST(Preemption, TokensBitIdenticalAcrossFormatsUnderForcedPreemption)
{
    // The PR5 acceptance gate: over-admission under a tight budget
    // forces preempt-and-requeue, and every preempted request must
    // regenerate a token stream bit-identical to an unpreempted run —
    // per format, because restart semantics lean on prefill
    // chunk-invariance and deterministic per-request sampling, both of
    // which hold for every block format (not just BF16).
    const Transformer model(tinyConfig());
    std::vector<ServeRequest> reqs;
    for (size_t r = 0; r < 4; ++r) {
        ServeRequest req;
        req.prompt = tokenRamp(40, static_cast<int>(3 + 2 * r));
        req.max_new_tokens = 24;
        if (r % 2 == 1) {
            req.temperature = 0.9; // rng reset must survive restarts
            req.seed = 900 + r;
        }
        reqs.push_back(std::move(req));
    }

    for (const char *fmt : {"BF16", "MXFP8", "MXFP4+"}) {
        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        ServingEngine oracle(model, qc, 4); // unbudgeted, no preemption
        std::vector<size_t> oracle_ids;
        for (const auto &req : reqs)
            oracle_ids.push_back(oracle.submit(req));
        oracle.runToCompletion();
        EXPECT_EQ(oracle.engineStats().preemptions, 0u);

        // Budget fits two requests; the 2x window admits all four, so
        // the pool MUST run dry mid-flight and preempt.
        EngineOptions opts;
        opts.max_batch = 4;
        opts.kv_budget_tokens = 128;
        opts.over_admission = 2.0;
        ServingEngine engine(model, qc, opts);
        std::vector<size_t> ids;
        for (const auto &req : reqs)
            ids.push_back(engine.submit(req));
        engine.runToCompletion();

        EXPECT_GT(engine.engineStats().preemptions, 0u) << fmt;
        EXPECT_GT(engine.engineStats().preempted_recompute_tokens, 0u)
            << fmt;
        for (size_t r = 0; r < reqs.size(); ++r) {
            EXPECT_TRUE(engine.stats(ids[r]).finished);
            EXPECT_EQ(engine.stats(ids[r]).outcome, RequestOutcome::kCompleted);
            EXPECT_EQ(engine.stats(ids[r]).generated,
                      oracle.stats(oracle_ids[r]).generated)
                << fmt << " request " << r;
        }
        // Every page reference unwound: refcounts return to zero after
        // the preemption interleavings (the ASan job re-runs this).
        EXPECT_EQ(engine.pool().usedPages(), 0u) << fmt;
        EXPECT_EQ(engine.kvBytesLive(), 0u) << fmt;
        EXPECT_EQ(engine.reservedPages(), 0u) << fmt;
    }
}

TEST(Preemption, DecodeTimeExhaustionPreemptsAndRecovers)
{
    // Small prompts with long generations: the pool runs dry when
    // decode crosses a page boundary, not during prefill — the
    // mid-decode preemption path must produce the same recovery.
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    std::vector<ServeRequest> reqs(2);
    for (size_t r = 0; r < reqs.size(); ++r) {
        reqs[r].prompt = tokenRamp(8, static_cast<int>(5 + r));
        reqs[r].max_new_tokens = 56; // crosses page 1 mid-decode
    }

    ServingEngine oracle(model, qc, 2);
    std::vector<size_t> oracle_ids;
    for (const auto &req : reqs)
        oracle_ids.push_back(oracle.submit(req));
    oracle.runToCompletion();

    EngineOptions opts;
    opts.max_batch = 2;
    opts.kv_budget_tokens = 96; // 3 pages/layer; both need 2 pages/layer
    opts.over_admission = 2.0;  // both admitted: 8 reserved > 6 physical
    ServingEngine engine(model, qc, opts);
    std::vector<size_t> ids;
    for (const auto &req : reqs)
        ids.push_back(engine.submit(req));
    engine.runToCompletion();

    EXPECT_GT(engine.engineStats().preemptions, 0u);
    for (size_t r = 0; r < reqs.size(); ++r) {
        EXPECT_EQ(engine.stats(ids[r]).generated,
                  oracle.stats(oracle_ids[r]).generated)
            << "request " << r;
        EXPECT_EQ(engine.stats(ids[r]).generated.size(),
                  reqs[r].max_new_tokens);
    }
    EXPECT_EQ(engine.pool().usedPages(), 0u);
    EXPECT_EQ(engine.reservedPages(), 0u);
}

TEST(Preemption, SharedPrefixIsReadoptedAfterPreemption)
{
    // A preempted request's published prompt pages stay resident in
    // the prefix index, so its restart re-adopts them instead of
    // recomputing — and a span whose owner was preempted (then evicted
    // under pressure) is re-published on the restarted prefill. Token
    // streams still match a sharing-off, unbudgeted oracle.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    // Long enough generations that decode itself crosses a page
    // boundary: equal-priority prefill defers rather than preempts, so
    // the decode pre-check is what must preempt here.
    const auto reqs = sharedPrefixRequests(3, 64, 8, 40);

    ServingEngine oracle(model, qc, 3);
    std::vector<size_t> oracle_ids;
    for (const auto &req : reqs)
        oracle_ids.push_back(oracle.submit(req));
    oracle.runToCompletion();

    EngineOptions opts;
    opts.max_batch = 3;
    // 4 pages/layer: the shared head (2/layer, one physical copy) plus
    // three private tails (1/layer each) peaks at 5/layer — sharing
    // shrinks the footprint but over-admission still overshoots it.
    opts.kv_budget_tokens = 128;
    opts.over_admission = 2.0;
    opts.prefix_cache_tokens = 128;
    ServingEngine engine(model, qc, opts);
    std::vector<size_t> ids;
    for (const auto &req : reqs)
        ids.push_back(engine.submit(req));
    engine.runToCompletion();

    EXPECT_GT(engine.engineStats().preemptions, 0u);
    EXPECT_GT(engine.engineStats().prefix_hit_tokens, 0u);
    for (size_t r = 0; r < reqs.size(); ++r) {
        EXPECT_EQ(engine.stats(ids[r]).generated,
                  oracle.stats(oracle_ids[r]).generated)
            << "request " << r;
    }
    // Preempted requests re-adopted their shared head, so the engine
    // recomputed strictly fewer tokens than it threw away overall.
    size_t preempted_requests = 0;
    for (size_t id : ids)
        preempted_requests += engine.stats(id).preemptions > 0 ? 1 : 0;
    EXPECT_GE(preempted_requests, 1u);

    // Full unwind under refcount sharing + preemption interleavings.
    EXPECT_EQ(engine.reservedPages(), 0u);
    engine.clearPrefixCache();
    EXPECT_EQ(engine.pool().usedPages(), 0u);
    EXPECT_EQ(engine.kvBytesLive(), 0u);
}

TEST(Preemption, QueueWaitAndPreemptionStatsAreCoherent)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 4;
    opts.kv_budget_tokens = 128;
    opts.over_admission = 2.0;
    opts.aging_rate = 0.25;
    ServingEngine engine(model, qc, opts);
    std::vector<size_t> ids;
    for (size_t r = 0; r < 4; ++r) {
        ServeRequest req;
        req.prompt = tokenRamp(40, static_cast<int>(3 + 2 * r));
        req.max_new_tokens = 24;
        ids.push_back(engine.submit(std::move(req)));
    }
    engine.runToCompletion();

    const EngineStats es = engine.engineStats();
    EXPECT_GT(es.preemptions, 0u);
    EXPECT_GE(es.queue_wait_ms_p99, es.queue_wait_ms_p50);
    EXPECT_GE(es.queue_wait_ms_p50, 0.0);
    size_t request_preemptions = 0;
    size_t total_generated = 0;
    for (size_t id : ids) {
        const RequestStats &rs = engine.stats(id);
        EXPECT_TRUE(rs.finished);
        EXPECT_GE(rs.queue_wait_ms, 0.0);
        request_preemptions += rs.preemptions;
        total_generated += rs.generated.size();
        // Restart never duplicates or loses tokens.
        EXPECT_EQ(rs.generated.size(), size_t(24));
    }
    EXPECT_EQ(request_preemptions, es.preemptions);
    EXPECT_EQ(es.total_generated, total_generated);
    // The recompute bill is real work that was thrown away: bounded by
    // preemptions * the largest per-request cache state.
    EXPECT_GT(es.preempted_recompute_tokens, 0u);
    EXPECT_LE(es.preempted_recompute_tokens, es.preemptions * 64);
}

TEST(ServingEngine, SjfAdmissionPrefersShortJobsWithoutChangingTokens)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    std::vector<ServeRequest> reqs(3);
    reqs[0].prompt = tokenRamp(30, 3); // longest job, submitted first
    reqs[0].max_new_tokens = 20;
    reqs[1].prompt = tokenRamp(6, 5); // shortest
    reqs[1].max_new_tokens = 5;
    reqs[2].prompt = tokenRamp(12, 7);
    reqs[2].max_new_tokens = 8;

    EngineOptions fifo_opts;
    fifo_opts.max_batch = 1;
    ServingEngine fifo(model, qc, fifo_opts);
    EngineOptions sjf_opts;
    sjf_opts.max_batch = 1;
    sjf_opts.sjf_admission = true;
    ServingEngine sjf(model, qc, sjf_opts);
    std::vector<size_t> fifo_ids;
    std::vector<size_t> sjf_ids;
    for (const auto &req : reqs) {
        fifo_ids.push_back(fifo.submit(req));
        sjf_ids.push_back(sjf.submit(req));
    }
    fifo.runToCompletion();
    sjf.runToCompletion();

    // Reordering happened and is visible in TTFT: the short job no
    // longer waits behind the long head-of-line job.
    EXPECT_EQ(fifo.engineStats().sjf_reorders, 0u);
    EXPECT_GE(sjf.engineStats().sjf_reorders, 1u);
    EXPECT_LT(sjf.stats(sjf_ids[1]).ttft_ms,
              sjf.stats(sjf_ids[0]).ttft_ms);
    // Scheduling is never a numerics decision: identical streams.
    for (size_t r = 0; r < reqs.size(); ++r) {
        EXPECT_EQ(sjf.stats(sjf_ids[r]).generated,
                  fifo.stats(fifo_ids[r]).generated)
            << "request " << r;
    }
}

// ------------------------------------------------------------ sampling --

TEST(Sampling, PolicyDefaultsDelegateToPlainSampler)
{
    Rng logits_rng(21);
    std::vector<float> logits(97);
    for (auto &l : logits)
        l = static_cast<float>(logits_rng.gaussian(0.0, 3.0));

    for (const double temp : {0.0, 0.7, 1.3}) {
        Rng ra(5);
        Rng rb(5);
        SamplingParams params;
        params.temperature = temp;
        for (int draw = 0; draw < 25; ++draw) {
            EXPECT_EQ(sampleLogitsPolicy(logits.data(), logits.size(),
                                         params, nullptr, 0, ra),
                      sampleLogits(logits.data(), logits.size(), temp,
                                   rb));
        }
    }
}

TEST(Sampling, TopK1IsGreedyAtAnyTemperature)
{
    std::vector<float> logits = {0.1f, 2.5f, -1.0f, 2.4f, 0.0f};
    SamplingParams params;
    params.temperature = 2.0;
    params.top_k = 1;
    Rng rng(11);
    for (int draw = 0; draw < 50; ++draw) {
        EXPECT_EQ(sampleLogitsPolicy(logits.data(), logits.size(),
                                     params, nullptr, 0, rng),
                  1);
    }
}

TEST(Sampling, TopPRestrictsSupportToTheNucleus)
{
    // Two dominant equal-probability (~0.5 each) tokens; top_p = 0.4
    // keeps exactly the first of them (deterministic
    // probability-then-index order).
    std::vector<float> logits = {-9.0f, 6.0f, 6.0f, -9.0f, -9.0f};
    SamplingParams params;
    params.temperature = 1.0;
    params.top_p = 0.4;
    Rng rng(13);
    for (int draw = 0; draw < 50; ++draw) {
        EXPECT_EQ(sampleLogitsPolicy(logits.data(), logits.size(),
                                     params, nullptr, 0, rng),
                  1);
    }
    // With the cut relaxed both dominant tokens appear.
    params.top_p = 0.999;
    bool saw1 = false;
    bool saw2 = false;
    for (int draw = 0; draw < 200; ++draw) {
        const int t = sampleLogitsPolicy(logits.data(), logits.size(),
                                         params, nullptr, 0, rng);
        saw1 = saw1 || t == 1;
        saw2 = saw2 || t == 2;
        EXPECT_TRUE(t == 1 || t == 2);
    }
    EXPECT_TRUE(saw1 && saw2);
}

TEST(Sampling, RepetitionPenaltyRedirectsGreedyChoice)
{
    std::vector<float> logits = {0.0f, 2.0f, 1.9f, 0.0f};
    SamplingParams params; // greedy
    params.repetition_penalty = 1.5;
    Rng rng(17);
    const int recent[] = {1};
    EXPECT_EQ(sampleLogitsPolicy(logits.data(), logits.size(), params,
                                 nullptr, 0, rng),
              1);
    EXPECT_EQ(sampleLogitsPolicy(logits.data(), logits.size(), params,
                                 recent, 1, rng),
              2);
}

TEST(ServingEngine, SamplingKnobsReproducibleAcrossBatchWidths)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    std::vector<ServeRequest> reqs;
    for (size_t r = 0; r < 4; ++r) {
        ServeRequest req;
        req.prompt = tokenRamp(6 + 2 * r, static_cast<int>(3 + r));
        req.max_new_tokens = 10;
        req.temperature = 0.9;
        req.seed = 400 + r;
        req.top_k = 12;
        req.top_p = 0.9;
        req.repetition_penalty = 1.3;
        reqs.push_back(std::move(req));
    }

    std::vector<std::vector<int>> serial(reqs.size());
    for (size_t r = 0; r < reqs.size(); ++r) {
        ServingEngine engine(model, qc, 1);
        const size_t id = engine.submit(reqs[r]);
        engine.runToCompletion();
        serial[r] = engine.stats(id).generated;
        EXPECT_EQ(serial[r].size(), reqs[r].max_new_tokens);
    }

    ServingEngine engine(model, qc, 3);
    std::vector<size_t> ids;
    for (const auto &req : reqs)
        ids.push_back(engine.submit(req));
    engine.runToCompletion();
    for (size_t r = 0; r < reqs.size(); ++r) {
        EXPECT_EQ(engine.stats(ids[r]).generated, serial[r])
            << "request " << r;
    }
}

// ------------------------------------------------ compressed frozen pages --

TEST(CompressedPages, PoolCompressesDecodesAndRecyclesPages)
{
    // Pool-level contract: compressPage swaps the slab for a smaller
    // stream, pageRegion decodes back the exact bytes, the freed
    // budget admits MORE than maxPages() live pages, and a recycled id
    // comes back as a fresh writable slab.
    KvPagePool pool(/*page_tokens=*/4, /*floats_per_page=*/24,
                    /*max_pages=*/2);
    KvPagePool::PageRegions regions;
    regions.k_off = 0;
    regions.k_floats = 8;
    regions.v_off = 16;
    regions.v_floats = 8;
    std::unique_ptr<const PageCodec> codec = makePageCodec("reference");
    ASSERT_NE(codec, nullptr);
    pool.enableCompression(std::move(codec), regions);

    const auto fill = [&](uint32_t id) {
        float *slab = pool.pageData(id);
        for (size_t i = 0; i < 24; ++i)
            slab[i] = static_cast<float>(i % 4) * 0.5f;
    };
    const uint32_t a = pool.acquire();
    ASSERT_NE(a, KvPagePool::kNoPage);
    fill(a);
    std::vector<float> k_orig(pool.pageData(a) + regions.k_off,
                              pool.pageData(a) + regions.k_off + 8);
    std::vector<float> v_orig(pool.pageData(a) + regions.v_off,
                              pool.pageData(a) + regions.v_off + 8);

    EXPECT_FALSE(pool.isCompressed(a));
    EXPECT_EQ(pool.usedBytes(), pool.pageBytes());
    ASSERT_TRUE(pool.compressPage(a));
    EXPECT_TRUE(pool.isCompressed(a));
    EXPECT_TRUE(pool.compressPage(a)); // idempotent
    EXPECT_LT(pool.usedBytes(), pool.pageBytes());
    EXPECT_EQ(pool.compressedPages(), 1u);
    EXPECT_GT(pool.compressedRatio(), 1.0);
    EXPECT_LT(pool.pageResidentBytes(a), pool.pageBytes());
    EXPECT_TRUE(pool.auditInvariants());

    std::vector<float> buf;
    const float *k = pool.pageRegion(a, KvPagePool::PageRegion::kKey, buf);
    ASSERT_NE(k, nullptr);
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(k[i], k_orig[i]) << i;
    const float *v =
        pool.pageRegion(a, KvPagePool::PageRegion::kValue, buf);
    ASSERT_NE(v, nullptr);
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(v[i], v_orig[i]) << i;
    // Every read of a compressed region decodes: no reader-side cache.
    EXPECT_EQ(pool.codecDecodeCalls(), 2u);
    ASSERT_NE(pool.pageRegion(a, KvPagePool::PageRegion::kValue, buf),
              nullptr);
    EXPECT_EQ(pool.codecDecodeCalls(), 3u);

    // Two compressed pages leave room for a THIRD raw page on a
    // 2-page byte budget — the capacity win, measured at pool level.
    const uint32_t b = pool.acquire();
    ASSERT_NE(b, KvPagePool::kNoPage);
    fill(b);
    ASSERT_TRUE(pool.compressPage(b));
    const uint32_t c = pool.acquire();
    EXPECT_NE(c, KvPagePool::kNoPage);
    EXPECT_EQ(pool.usedPages(), 3u);
    EXPECT_TRUE(pool.auditInvariants());

    pool.release(c);
    pool.release(b);
    pool.release(a);
    EXPECT_EQ(pool.usedBytes(), 0u);
    EXPECT_EQ(pool.compressedPages(), 0u);
    const uint32_t again = pool.acquire();
    ASSERT_NE(again, KvPagePool::kNoPage);
    EXPECT_FALSE(pool.isCompressed(again));
    // Writable again — pageData would CHECK-fail on a compressed page.
    pool.pageData(again)[0] = 1.0f;
    pool.release(again);
    EXPECT_TRUE(pool.auditInvariants());
}

TEST(CompressedPages, EngineTokensBitIdenticalWithCompressionOnEveryCodec)
{
    // The engine-level acceptance gate for the codec path: turning
    // compress_frozen_pages on — with either decode backend — must not
    // move a single token relative to the plain shared engine, while
    // the retained spans really are compressed (ratio > 1, decodes
    // happened, live bytes strictly below the uncompressed run). MX
    // formats get the dense codec, BF16 the bitpacker.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const auto reqs = sharedPrefixRequests(4, 64, 10, 6);

    for (const char *fmt :
         {"BF16", "MXFP4", "MXFP4+", "MXFP6+", "MXFP8", "MXINT8"}) {
        const QuantConfig qc = QuantConfig::fromFormat(fmt);
        EngineOptions off;
        off.max_batch = 4;
        off.prefix_cache_tokens = 256;
        ServingEngine plain(model, qc, off);
        std::vector<size_t> plain_ids;
        for (const auto &req : reqs)
            plain_ids.push_back(plain.submit(req));
        plain.runToCompletion();

        for (const char *codec : {"reference", "simd"}) {
            EngineOptions on = off;
            on.compress_frozen_pages = true;
            on.page_codec = codec;
            ASSERT_EQ(on.validate(qc), "");
            ServingEngine comp(model, qc, on);
            std::vector<size_t> ids;
            for (const auto &req : reqs)
                ids.push_back(comp.submit(req));
            comp.runToCompletion();

            for (size_t r = 0; r < reqs.size(); ++r) {
                EXPECT_EQ(comp.stats(ids[r]).generated,
                          plain.stats(plain_ids[r]).generated)
                    << fmt << " codec " << codec << " request " << r;
            }
            const EngineStats es = comp.engineStats();
            EXPECT_GT(es.compressed_ratio, 1.0) << fmt << " " << codec;
            const bool mx = std::string(fmt) != "BF16";
            EXPECT_EQ(std::string(comp.pool().codec()->name()),
                      (mx ? std::string("dense-") : std::string()) + codec);
            if (std::string(fmt) == "MXFP4+") {
                EXPECT_GE(es.compressed_ratio, 6.5) << codec;
            }
            EXPECT_GT(es.codec_decode_calls, 0u) << fmt << " " << codec;
            EXPECT_GT(comp.pool().compressedPages(), 0u)
                << fmt << " " << codec;
            // Same pages, same timeline: the slab-granularity peak
            // matches the uncompressed engine's peak exactly, and the
            // true-residency peak can only sit below it.
            EXPECT_EQ(es.kv_bytes_reserved_peak,
                      plain.engineStats().kv_bytes_peak)
                << fmt << " " << codec;
            EXPECT_LE(es.kv_bytes_peak, es.kv_bytes_reserved_peak);
            // The retained spans are all frozen and compressed: the
            // resident tail is strictly smaller than the plain run's.
            EXPECT_LT(comp.kvBytesLive(), plain.kvBytesLive())
                << fmt << " " << codec;
        }
    }
}

TEST(CompressedPages, PeakAccountingConvergesWithCompressionOff)
{
    // Regression gate for the accounting split: with compression off
    // the two peaks are THE SAME number — any drift means the byte
    // ledger and the page ledger disagree about what was resident.
    const Transformer model(tinyConfig());
    EngineOptions opts;
    opts.max_batch = 3;
    opts.prefix_cache_tokens = 128;
    ServingEngine engine(model, QuantConfig::fromFormat("MXFP4+"), opts);
    for (const auto &req : sharedPrefixRequests(3, 64, 8, 5))
        engine.submit(req);
    engine.runToCompletion();
    const EngineStats es = engine.engineStats();
    EXPECT_GT(es.kv_bytes_peak, 0u);
    EXPECT_EQ(es.kv_bytes_peak, es.kv_bytes_reserved_peak);
    EXPECT_EQ(es.compressed_ratio, 1.0);
    EXPECT_EQ(es.codec_decode_calls, 0u);
}

TEST(CompressedPages, CompressionAdmitsNoFewerBeforeFirstDeferralAtEqualBudget)
{
    // Capacity direction under a REAL budget: at the same
    // kv_budget_tokens, charging spans by compressed residency must
    // never admit fewer requests before the first deferral — and the
    // tokens stay identical, because admission order is a throughput
    // decision, never a numerics one.
    const ModelConfig cfg = tinyConfig();
    const Transformer model(cfg);
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    const auto reqs = sharedPrefixRequests(6, 128, 10, 6);

    EngineOptions off;
    off.max_batch = 6;
    off.prefix_cache_tokens = 256;
    off.kv_budget_tokens = 256;
    EngineOptions on = off;
    on.compress_frozen_pages = true;

    ServingEngine base(model, qc, off);
    ServingEngine comp(model, qc, on);
    std::vector<size_t> base_ids;
    std::vector<size_t> comp_ids;
    for (const auto &req : reqs) {
        base_ids.push_back(base.submit(req));
        comp_ids.push_back(comp.submit(req));
    }
    base.runToCompletion();
    comp.runToCompletion();

    for (size_t r = 0; r < reqs.size(); ++r) {
        EXPECT_EQ(comp.stats(comp_ids[r]).generated,
                  base.stats(base_ids[r]).generated)
            << "request " << r;
    }
    EXPECT_GT(comp.engineStats().admitted_before_first_defer, 0u);
    EXPECT_GE(comp.engineStats().admitted_before_first_defer,
              base.engineStats().admitted_before_first_defer);
    EXPECT_GT(comp.engineStats().compressed_ratio, 1.0);
}

TEST(CompressedPages, ValidateRejectsUnknownCodecName)
{
    EngineOptions opts;
    opts.compress_frozen_pages = true;
    opts.page_codec = "zstd";
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EXPECT_NE(opts.validate(qc).find("unknown page codec"),
              std::string::npos);
    opts.page_codec = "auto";
    EXPECT_EQ(opts.validate(qc), "");
}

} // namespace
} // namespace mxplus
