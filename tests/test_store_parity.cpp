/**
 * @file
 * Model- and fleet-level parity of the quantize-once weight store: logits
 * of forward(), chunked prefill() and decodeStepBatch() through the store
 * equal the per-call path (the same MX quantizer behind an adapter that
 * hides its MxQuantizer, so the model quantizes the float weights on every
 * call), bit for bit; and a 2-shard fleet builds exactly one store, which
 * every shard reads, with streams equal to a per-call engine's.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "baselines/format_quantizers.h"
#include "kernels/kernel_dispatch.h"
#include "model/config.h"
#include "model/transformer.h"
#include "mx/weight_store.h"
#include "serve/kv_cache.h"
#include "serve/router.h"
#include "serve/serving_engine.h"

namespace mxplus {
namespace {

/** The wrapped quantizer's rounding, without exposing its MxQuantizer:
    a model keeps quantizing the weights per call through it. */
class PerCallQuantizer final : public TensorQuantizer
{
  public:
    explicit PerCallQuantizer(QuantizerPtr inner) : inner_(std::move(inner))
    {
    }

    void
    quantizeRows(const float *in, float *out, size_t rows,
                 size_t cols) const override
    {
        inner_->quantizeRows(in, out, rows, cols);
    }

    size_t blockPeriod() const override { return inner_->blockPeriod(); }
    std::string name() const override { return inner_->name(); }
    double avgBits() const override { return inner_->avgBits(); }

  private:
    QuantizerPtr inner_;
};

ModelConfig
tinyConfig()
{
    ModelConfig cfg = simLlama31_8b();
    cfg.n_layers = 2;
    return cfg;
}

/** @p qc with its weight quantizer moved to the per-call path. */
QuantConfig
perCall(QuantConfig qc)
{
    qc.weight = std::make_shared<PerCallQuantizer>(qc.weight);
    return qc;
}

std::vector<int>
tokenRamp(size_t n, int stride)
{
    std::vector<int> t(n);
    for (size_t i = 0; i < n; ++i)
        t[i] = static_cast<int>((7 + i * stride) % 251);
    return t;
}

::testing::AssertionResult
bitEqual(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return ::testing::AssertionFailure() << "shape differs";
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
            return ::testing::AssertionFailure()
                << "first diff at " << i << ": " << a.data()[i] << " vs "
                << b.data()[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/** forward, chunked prefill and batched decode under @p qc vs per call. */
void
expectModelParity(const Transformer &model, const QuantConfig &qc)
{
    const QuantConfig pc = perCall(qc);
    ASSERT_NE(model.weightStore(*qc.weight), nullptr);
    ASSERT_EQ(model.weightStore(*pc.weight), nullptr);
    const ModelConfig &cfg = model.config();

    const std::vector<int> tokens = tokenRamp(41, 5);
    EXPECT_TRUE(bitEqual(model.forward(tokens, qc),
                         model.forward(tokens, pc)));

    // Chunked prefill of three requests, then decode steps over them
    // as one batch.
    std::vector<KvCache> store_caches;
    std::vector<KvCache> call_caches;
    for (size_t r = 0; r < 3; ++r) {
        store_caches.push_back(KvCache::forConfig(cfg, qc, 96));
        call_caches.push_back(KvCache::forConfig(cfg, pc, 96));
    }
    for (size_t r = 0; r < 3; ++r) {
        const std::vector<int> prompt =
            tokenRamp(20 + 9 * r, static_cast<int>(3 + r));
        for (size_t at = 0; at < prompt.size(); at += 13) {
            const std::vector<int> chunk(
                prompt.begin() + static_cast<long>(at),
                prompt.begin() +
                    static_cast<long>(std::min(prompt.size(), at + 13)));
            EXPECT_TRUE(bitEqual(model.prefill(chunk, store_caches[r], qc),
                                 model.prefill(chunk, call_caches[r], pc)))
                << "request " << r << " chunk at " << at;
        }
    }
    std::vector<KvCache *> sp;
    std::vector<KvCache *> cp;
    for (size_t r = 0; r < 3; ++r) {
        sp.push_back(&store_caches[r]);
        cp.push_back(&call_caches[r]);
    }
    for (int step = 0; step < 4; ++step) {
        const std::vector<int> next = {11 + step, 40 + step, 97 + step};
        EXPECT_TRUE(bitEqual(model.decodeStepBatch(next, sp, qc),
                             model.decodeStepBatch(next, cp, pc)))
            << "step " << step;
    }
}

TEST(StoreParity, ModelLogitsEqualPerCallPathEveryMode)
{
    const Transformer model(tinyConfig());
    for (const char *fmt :
         {"MXFP4", "MXFP4+", "MXFP4++", "MXFP6+", "MXFP8", "MXINT8+"}) {
        SCOPED_TRACE(fmt);
        expectModelParity(model, QuantConfig::fromFormat(fmt));
    }
    // Activations in one format, stored weights in another.
    SCOPED_TRACE("MXFP8 act, MXFP4+ weight");
    expectModelParity(model, QuantConfig::fromFormats("MXFP8", "MXFP4+"));
}

TEST(StoreParity, ModelLogitsEqualPerCallPathReferenceBackend)
{
    const KernelBackend saved = KernelDispatch::active();
    KernelDispatch::setBackend(KernelBackend::Reference);
    const Transformer model(tinyConfig());
    expectModelParity(model, QuantConfig::fromFormat("MXFP4+"));
    KernelDispatch::setBackend(saved);
}

TEST(StoreParity, TwoShardFleetSharesOneStoreAndMatchesPerCallStreams)
{
    const Transformer model(tinyConfig());
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 3;

    std::vector<ServeRequest> reqs(6);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].prompt = tokenRamp(8 + 5 * i, static_cast<int>(3 + i));
        reqs[i].max_new_tokens = 5 + i % 3;
    }

    // Golden: one engine whose linears quantize the weights per call.
    ServingEngine golden(model, perCall(qc), opts);
    EXPECT_EQ(golden.weightStore(), nullptr);
    std::vector<size_t> gids;
    for (const ServeRequest &r : reqs)
        gids.push_back(golden.submit(r));
    golden.runToCompletion();

    RouterOptions router;
    router.num_shards = 2;
    ShardedFrontEnd fe(model, qc, opts, router);
    std::vector<uint64_t> tickets;
    for (const ServeRequest &r : reqs)
        tickets.push_back(fe.submit(r));
    fe.drain();

    const MxWeightStore *store = model.weightStore(*qc.weight);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(fe.shardEngine(0).weightStore(), store);
    EXPECT_EQ(fe.shardEngine(1).weightStore(), store);
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(fe.stats(tickets[i]).outcome, RequestOutcome::kCompleted);
        EXPECT_EQ(fe.stats(tickets[i]).generated,
                  golden.stats(gids[i]).generated)
            << "request " << i;
    }
}

} // namespace
} // namespace mxplus
