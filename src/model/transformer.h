/**
 * @file
 * GPT-style decoder with synthetic, outlier-calibrated weights — the LLM
 * substrate of the reproduction.
 *
 * Architecture: token embedding + sinusoidal positions, pre-RMSNorm
 * multi-head causal attention, SwiGLU MLP, tied-free LM head. Outlier
 * structure: a sparse set of RMSNorm gain channels per layer is given a
 * large gain, which makes the attention/MLP input activations exhibit the
 * channel-concentrated outliers of Figure 4. Quantization is injected at
 * every dot-product operand through a QuantConfig (activations, weights,
 * Q/K/P/V incl. the KV cache, LM head), exactly mirroring the paper's
 * emulation flow.
 *
 * Execution paths:
 *
 *  - forward(): one-shot full-sequence pass, the semantic ground truth.
 *  - prefill()/decodeStep()/decodeStepBatch(): the serving path. prefill
 *    runs the prompt as one batch while populating a KvCache and is
 *    bit-identical to forward() under every format (the cache quantizes
 *    exactly the operands forward quantizes). Because prefill resumes
 *    at the cache's committed length, a cache whose leading pages were
 *    *adopted* from another request's frozen prompt prefix
 *    (KvCache::adoptSharedPage) prefills only the unshared tail and
 *    still produces bit-identical logits — the positions, token ids
 *    and quantized K/V of the shared prefix are exactly what a private
 *    prefill would have written. Prefill and decode read the cache
 *    through one page walk (attendRowsOverCache: T query rows at the
 *    end of the history, T = 1 for a decode step) that walks shared
 *    prefix pages and private tail pages through one uniform page
 *    table and never distinguishes them. A decode step attends over
 *    the cached quantized K/V instead of recomputing the sequence: in
 *    BF16 it reproduces forward() bit-exactly (the kernel engine's
 *    shape-stability contract); under MX-family formats it differs only
 *    where a future value would have raised a V block maximum, i.e. by
 *    the inherent causality gap of a quantized KV cache.
 *  - sample() runs the original float/double teacher recurrence
 *    bit-exactly over its own raw FP32 K/V history (no KvCache), so
 *    teacher datasets are stable across the serving refactor.
 *
 * Weights are quantized once per MX weight configuration: the first pass
 * that needs them builds a read-only MxWeightStore (mx/weight_store.h)
 * that the model owns and every later pass, thread and shard reads (see
 * weightStore()). The linears then run one GEMM that decodes the stored
 * blocks into its B panels, bit-identical to quantizing the float weight
 * on every call, which is what every other weight quantizer still does.
 */

#ifndef MXPLUS_MODEL_TRANSFORMER_H
#define MXPLUS_MODEL_TRANSFORMER_H

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/config.h"
#include "model/quant_config.h"
#include "mx/weight_store.h"
#include "tensor/tensor.h"

namespace mxplus {

class KvCache;
class WorkerPool;

/** Weights of one decoder layer. All linears are stored [N x K]. */
struct LayerWeights
{
    Matrix wq, wk, wv, wo;  ///< attention projections [d x d]
    Matrix w_gate, w_up;    ///< SwiGLU in-projections [d_ff x d]
    Matrix w_down;          ///< SwiGLU out-projection [d x d_ff]
    std::vector<float> attn_gain; ///< pre-attention RMSNorm gain
    std::vector<float> mlp_gain;  ///< pre-MLP RMSNorm gain
};

/** The decoder-only transformer. */
class Transformer
{
  public:
    /** Synthesize a model from the config (deterministic in cfg.seed). */
    explicit Transformer(const ModelConfig &cfg);

    /**
     * Full-sequence causal forward pass.
     * @return logits [T x vocab] for every position.
     */
    Matrix forward(const std::vector<int> &tokens,
                   const QuantConfig &qc) const;

    /**
     * Incremental prefill: run @p tokens as one batch starting at the
     * cache's current position, appending quantized K/V per layer.
     * On a fresh cache this is bit-identical to forward(). The cache must
     * come from KvCache::forConfig with the same @p qc.
     * @return logits [T x vocab] for the new positions.
     */
    Matrix prefill(const std::vector<int> &tokens, KvCache &cache,
                   const QuantConfig &qc) const;

    /**
     * One incremental decode step over a quantized cache: append
     * @p token, attend over the cached K/V, return logits [1 x vocab].
     */
    Matrix decodeStep(int token, KvCache &cache,
                      const QuantConfig &qc) const;

    /**
     * One decode step for @p tokens.size() independent requests, batched
     * across the linear layers (one GEMM over all request rows — the
     * serving engine's throughput lever). Row r of the result is
     * bit-identical to decodeStep(tokens[r], *caches[r], qc): batching
     * never changes numerics.
     *
     * With a non-null @p workers, the per-request attention/matvec walk
     * (each batch row's cache append, Q·K^T page walk and P·V gather)
     * is partitioned across the pool's threads instead of the default
     * OpenMP-annotated loop. Rows are fully independent and each row
     * runs the identical serial arithmetic on exactly one thread, so
     * the result is bit-identical to the workers == nullptr path —
     * threading is a throughput decision, never a numerics decision.
     */
    Matrix decodeStepBatch(const std::vector<int> &tokens,
                           const std::vector<KvCache *> &caches,
                           const QuantConfig &qc,
                           WorkerPool *workers = nullptr) const;

    /**
     * Autoregressively sample @p length tokens from the BF16 model (the
     * teacher-data protocol), optionally continuing @p prefix.
     * Attends over raw FP32 K/V; temperature scales the logits.
     */
    std::vector<int> sample(Rng &rng, size_t length, double temperature,
                            const std::vector<int> &prefix = {}) const;

    /**
     * Mean cross-entropy (nats/token) of the model's next-token
     * predictions on @p tokens under quantization config @p qc.
     */
    double crossEntropy(const std::vector<int> &tokens,
                        const QuantConfig &qc) const;

    /**
     * Sum of continuation log-probabilities: log p(cont | context) under
     * @p qc. Used by the zero-shot task harness. Runs on the prefill
     * path (bit-identical to the former full-forward implementation).
     */
    double continuationLogProb(const std::vector<int> &context,
                               const std::vector<int> &continuation,
                               const QuantConfig &qc) const;

    /** Token embedding table [vocab x d] (teacher tooling, tests). */
    const Matrix &embeddingTable() const { return embedding_; }

    /** Full weight bundle of one decoder layer (incl. RMSNorm gains). */
    const LayerWeights &
    layerWeights(size_t layer) const
    {
        MXPLUS_CHECK(layer < layers_.size());
        return layers_[layer];
    }

    /** Names of all quantized linear layers ("L0.wq", ..., "head"). */
    std::vector<std::string> linearNames() const;

    /**
     * The weight store for weight quantizer @p weight_q: every linear,
     * in linearNames() order, quantized once into the MX block layout.
     * Built on the first call for an MX configuration (format, mode,
     * block size) and shared by every later caller, on any thread,
     * until the model is destroyed; one store exists per configuration.
     * Returns null, and linears keep quantizing the float weight per
     * call, when @p weight_q is not an MX quantizer
     * (TensorQuantizer::mxQuantizer()) or its block size does not
     * divide every linear's K and the GEMM panel depth. Serving engines
     * call it at construction so that no request pays the build.
     */
    const MxWeightStore *weightStore(const TensorQuantizer &weight_q) const;

    /** The weight matrix of a named linear (for scheme calibration). */
    const Matrix &linearWeight(const std::string &name) const;

    /**
     * Observation hook: called with (layer_name, activation matrix) for
     * every linear input during forward. Used for Fig. 4/5/14 analyses
     * and for calibrating GEMM schemes.
     */
    using CaptureHook =
        std::function<void(const std::string &, const Matrix &)>;
    /** The hook is observational, so installing it is const-safe. */
    void
    setCaptureHook(CaptureHook hook) const
    {
        capture_ = std::move(hook);
    }
    void clearCaptureHook() const { capture_ = nullptr; }

    const ModelConfig &config() const { return cfg_; }

  private:
    /** Linear slots of a decoder layer, in linearNames() order; the LM
        head follows the last layer's. */
    enum LinearSlot : size_t
    {
        kWq,
        kWk,
        kWv,
        kWo,
        kWGate,
        kWUp,
        kWDown,
        kLinearsPerLayer,
    };
    /** Index of a layer's linear in linearNames() order. */
    static size_t
    linearIndex(size_t layer, LinearSlot slot)
    {
        return layer * kLinearsPerLayer + slot;
    }
    size_t headIndex() const { return cfg_.n_layers * kLinearsPerLayer; }
    const Matrix &linearAt(size_t index) const;
    std::string linearName(size_t index) const;

    Matrix embed(const std::vector<int> &tokens) const;
    Matrix embedAt(const std::vector<int> &tokens, size_t pos0) const;
    /** y = x W^T for linear @p index under @p qc (its store if any). */
    Matrix applyLinear(size_t index, const Matrix &x,
                       const QuantConfig &qc) const;
    /**
     * Attention for rows at positions [pos0, pos0 + x.rows()). With a
     * cache, the new K/V rows are appended and attention runs over the
     * whole cached history; without one it recomputes the sequence
     * in place (the original full-forward behaviour, pos0 == 0).
     */
    Matrix attentionBlock(size_t layer, const Matrix &x,
                          const QuantConfig &qc, KvCache *cache,
                          size_t pos0) const;
    Matrix mlpBlock(size_t layer, const Matrix &x,
                    const QuantConfig &qc) const;
    /** Shared layer loop + LM head for forward/prefill. */
    Matrix runLayers(Matrix x, const QuantConfig &qc, KvCache *cache,
                     size_t pos0) const;
    /**
     * Causal attention of @p rows query rows (@p q, [rows x d_model])
     * at positions [len - rows, len) over the layer's cached history of
     * len tokens, written to @p out ([rows x d_model]): prefill's chunk
     * and decode's single row run this one page walk.
     */
    void attendRowsOverCache(size_t layer, const float *q, size_t rows,
                             const KvCache &cache, const QuantConfig &qc,
                             float *out) const;
    /**
     * The original float/double teacher recurrence (sample()) for
     * @p token at @p pos; appends its raw K/V rows to the per-layer
     * @p keys / @p values history (d_model floats per position).
     */
    Matrix teacherDecodeStep(int token, size_t pos,
                             std::vector<std::vector<float>> &keys,
                             std::vector<std::vector<float>> &values) const;

    ModelConfig cfg_;
    Matrix embedding_;  ///< [vocab x d]
    Matrix positions_;  ///< [max_seq x d]
    Matrix head_;       ///< [vocab x d]
    std::vector<float> final_gain_;
    std::vector<LayerWeights> layers_;
    mutable CaptureHook capture_;
    /** The weight stores weightStore() built, one per MX configuration;
        held by pointer so that the model stays movable. */
    struct WeightStores
    {
        std::mutex mu;
        std::vector<std::unique_ptr<const MxWeightStore>> built;
    };
    std::unique_ptr<WeightStores> stores_;
};

} // namespace mxplus

#endif // MXPLUS_MODEL_TRANSFORMER_H
