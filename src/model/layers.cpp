#include "model/layers.h"

#include <algorithm>
#include <cmath>

#include "common/bf16.h"
#include "common/check.h"
#include "kernels/kernel_dispatch.h"

namespace mxplus {

Matrix
rmsnorm(const Matrix &x, const std::vector<float> &gain)
{
    MXPLUS_CHECK(gain.size() == x.cols());
    Matrix out(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r) {
        double ssq = 0.0;
        const float *row = x.row(r);
        for (size_t c = 0; c < x.cols(); ++c)
            ssq += static_cast<double>(row[c]) * row[c];
        const double inv_rms =
            1.0 / std::sqrt(ssq / static_cast<double>(x.cols()) + 1e-6);
        float *orow = out.row(r);
        for (size_t c = 0; c < x.cols(); ++c)
            orow[c] = static_cast<float>(row[c] * inv_rms * gain[c]);
        KernelDispatch::roundRowsToBf16(orow, x.cols());
    }
    return out;
}

void
softmaxRow(float *row, size_t n)
{
    double mx = row[0];
    for (size_t c = 1; c < n; ++c)
        mx = std::max(mx, static_cast<double>(row[c]));
    double sum = 0.0;
    for (size_t c = 0; c < n; ++c) {
        const double e = std::exp(static_cast<double>(row[c]) - mx);
        row[c] = static_cast<float>(e);
        sum += e;
    }
    const double inv = 1.0 / sum;
    for (size_t c = 0; c < n; ++c)
        row[c] = static_cast<float>(row[c] * inv);
}

void
softmaxRowsInPlace(Matrix &m)
{
    for (size_t r = 0; r < m.rows(); ++r)
        softmaxRow(m.row(r), m.cols());
}

Matrix
swiglu(const Matrix &gate, const Matrix &up)
{
    MXPLUS_CHECK(gate.rows() == up.rows() && gate.cols() == up.cols());
    Matrix out(gate.rows(), gate.cols());
    for (size_t i = 0; i < out.size(); ++i) {
        const float g = gate.data()[i];
        const float silu =
            g / (1.0f + std::exp(-g));
        out.data()[i] = silu * up.data()[i];
    }
    KernelDispatch::roundRowsToBf16(out.data(), out.size());
    return out;
}

void
roundMatrixToBf16(Matrix &m)
{
    KernelDispatch::roundRowsToBf16(m.data(), m.size());
}

Matrix
sinusoidalPositions(size_t max_len, size_t d)
{
    Matrix pos(max_len, d);
    for (size_t t = 0; t < max_len; ++t) {
        for (size_t c = 0; c < d; ++c) {
            const double freq = std::pow(
                10000.0, -2.0 * static_cast<double>(c / 2) /
                static_cast<double>(d));
            const double angle = static_cast<double>(t) * freq;
            pos.at(t, c) = static_cast<float>(
                (c % 2 == 0) ? std::sin(angle) : std::cos(angle));
        }
    }
    return pos;
}

int
sampleLogits(const float *logits, size_t n, double temperature, Rng &rng)
{
    if (temperature <= 0.0) {
        size_t best = 0;
        for (size_t i = 1; i < n; ++i) {
            if (logits[i] > logits[best])
                best = i;
        }
        return static_cast<int>(best);
    }
    double mx = logits[0];
    for (size_t i = 0; i < n; ++i)
        mx = std::max(mx, static_cast<double>(logits[i]));
    std::vector<double> probs(n);
    for (size_t i = 0; i < n; ++i) {
        probs[i] = std::exp((static_cast<double>(logits[i]) - mx) /
                            std::max(temperature, 1e-3));
    }
    return static_cast<int>(rng.categorical(probs));
}

int
sampleLogitsPolicy(const float *logits, size_t n,
                   const SamplingParams &params, const int *recent,
                   size_t n_recent, Rng &rng)
{
    // Plain params delegate to the shared recipe so the teacher loop,
    // the engine's default path and old callers stay bit-identical.
    if (params.isPlain())
        return sampleLogits(logits, n, params.temperature, rng);

    std::vector<double> adj(n);
    for (size_t i = 0; i < n; ++i)
        adj[i] = static_cast<double>(logits[i]);

    // Repetition penalty (CTRL): dampen every distinct token of the
    // context once. Dividing positive and multiplying negative logits
    // keeps the penalty monotone on the probability scale.
    if (params.repetition_penalty != 1.0) {
        MXPLUS_CHECK_MSG(params.repetition_penalty > 0.0,
                         "repetition_penalty must be positive");
        std::vector<bool> seen(n, false);
        for (size_t i = 0; i < n_recent; ++i) {
            const int t = recent[i];
            if (t < 0 || static_cast<size_t>(t) >= n)
                continue;
            const size_t u = static_cast<size_t>(t);
            if (seen[u])
                continue;
            seen[u] = true;
            adj[u] = adj[u] > 0.0 ? adj[u] / params.repetition_penalty
                                  : adj[u] * params.repetition_penalty;
        }
    }

    if (params.temperature <= 0.0) {
        size_t best = 0;
        for (size_t i = 1; i < n; ++i) {
            if (adj[i] > adj[best])
                best = i;
        }
        return static_cast<int>(best);
    }

    double mx = adj[0];
    for (size_t i = 1; i < n; ++i)
        mx = std::max(mx, adj[i]);
    std::vector<double> probs(n);
    for (size_t i = 0; i < n; ++i)
        probs[i] = std::exp((adj[i] - mx) /
                            std::max(params.temperature, 1e-3));

    // Top-k, then nucleus cut over the survivors (the usual serving
    // composition). Ordering is deterministic: probability descending,
    // index ascending on ties, so results never depend on sort internals.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (probs[a] != probs[b])
            return probs[a] > probs[b];
        return a < b;
    });
    size_t keep = n;
    if (params.top_k > 0)
        keep = std::min(keep, params.top_k);
    if (params.top_p < 1.0) {
        double total = 0.0;
        for (size_t i = 0; i < keep; ++i)
            total += probs[order[i]];
        double cum = 0.0;
        size_t nucleus = keep;
        for (size_t i = 0; i < keep; ++i) {
            cum += probs[order[i]];
            if (cum >= params.top_p * total) {
                nucleus = i + 1; // always keeps at least one token
                break;
            }
        }
        keep = nucleus;
    }
    std::vector<double> kept(n, 0.0);
    for (size_t i = 0; i < keep; ++i)
        kept[order[i]] = probs[order[i]];
    return static_cast<int>(rng.categorical(kept));
}

std::vector<double>
logSoftmax(const float *logits, size_t n)
{
    double mx = logits[0];
    for (size_t i = 1; i < n; ++i)
        mx = std::max(mx, static_cast<double>(logits[i]));
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum += std::exp(static_cast<double>(logits[i]) - mx);
    const double log_z = mx + std::log(sum);
    std::vector<double> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(logits[i]) - log_z;
    return out;
}

} // namespace mxplus
