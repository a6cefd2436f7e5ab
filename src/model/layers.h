/**
 * @file
 * Elementary transformer layers, factored out of the model for unit
 * testing. Precision policy follows the paper's baseline: element-wise
 * operations round to BF16, softmax runs in FP32/FP64.
 */

#ifndef MXPLUS_MODEL_LAYERS_H
#define MXPLUS_MODEL_LAYERS_H

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace mxplus {

/** RMSNorm with per-channel gain; output rounded to BF16. */
Matrix rmsnorm(const Matrix &x, const std::vector<float> &gain);

/** Softmax of one row of @p n floats in place, in double precision. */
void softmaxRow(float *row, size_t n);

/** Row-wise softmax computed in double precision (softmaxRow per row). */
void softmaxRowsInPlace(Matrix &m);

/** SiLU(gate) * up, rounded to BF16 (the SwiGLU nonlinearity). */
Matrix swiglu(const Matrix &gate, const Matrix &up);

/** Round every element to BF16 in place. */
void roundMatrixToBf16(Matrix &m);

/** Sinusoidal positional encoding table [max_len x d]. */
Matrix sinusoidalPositions(size_t max_len, size_t d);

/** Numerically stable log-softmax of one logits row (double precision). */
std::vector<double> logSoftmax(const float *logits, size_t n);

/**
 * Pick a token from one logits row: greedy argmax when @p temperature
 * <= 0, otherwise FP64 max-shifted temperature sampling with a 1e-3
 * temperature floor. The single sampling recipe shared by
 * Transformer::sample and the serving engine, so their tokens can never
 * silently diverge.
 */
int sampleLogits(const float *logits, size_t n, double temperature,
                 Rng &rng);

/** Knobs of the serving sampling surface (defaults = plain sampling). */
struct SamplingParams
{
    /** 0 = greedy argmax; > 0 = temperature sampling. */
    double temperature = 0.0;
    /** Keep only the k highest logits (0 = no limit). */
    size_t top_k = 0;
    /** Keep the smallest probability mass >= top_p (1 = no cut). */
    double top_p = 1.0;
    /** CTRL-style penalty on recently seen tokens (1 = off). */
    double repetition_penalty = 1.0;

    bool
    isPlain() const
    {
        return top_k == 0 && top_p >= 1.0 && repetition_penalty == 1.0;
    }
};

/**
 * Pick a token under the full sampling policy: repetition penalty over
 * @p recent (positive logits divided, negative multiplied), then the
 * shared temperature recipe, then top-k and nucleus (top-p) filtering
 * before the categorical draw. With default params this delegates to
 * sampleLogits, so plain greedy/temperature callers are bit-unchanged.
 * Deterministic in @p rng regardless of batch layout or scheduling.
 */
int sampleLogitsPolicy(const float *logits, size_t n,
                       const SamplingParams &params, const int *recent,
                       size_t n_recent, Rng &rng);

} // namespace mxplus

#endif // MXPLUS_MODEL_LAYERS_H
