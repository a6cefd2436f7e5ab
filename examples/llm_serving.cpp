/**
 * @file
 * End-to-end LLM serving scenario: quantize a synthetic LLM with MXFP4
 * vs MXFP4+, measure model quality (teacher-data perplexity + a zero-shot
 * task), estimate the serving speedup over BF16 with the GPU timing
 * model, and then actually serve the emulated model with the batched
 * continuous-batching engine (prefill + incremental quantized-KV decode)
 * — the workflow the paper's introduction motivates, from quality to
 * throughput. Closes by serving the same workload through the front
 * end twice — one engine, then a sharded fleet — and showing the
 * token streams are bit-identical.
 */

#include <algorithm>
#include <cstdio>

#include "gpusim/llm_timing.h"
#include "model/eval.h"
#include "serve/router.h"
#include "serve/serving_engine.h"

using namespace mxplus;

namespace {

/** Serve a small greedy workload and print the engine's stats row. */
void
serveRow(const Transformer &model, const char *fmt, size_t batch)
{
    const QuantConfig qc = QuantConfig::fromFormat(fmt);
    ServingEngine engine(model, qc, batch);
    std::vector<size_t> ids;
    for (size_t r = 0; r < 4; ++r) {
        ServeRequest req;
        req.prompt.resize(16);
        for (size_t i = 0; i < req.prompt.size(); ++i)
            req.prompt[i] = static_cast<int>((11 + 5 * r + 3 * i) % 251);
        req.max_new_tokens = 12;
        ids.push_back(engine.submit(std::move(req)));
    }
    engine.runToCompletion();
    const EngineStats es = engine.engineStats();
    double ttft_worst = 0.0;
    for (size_t id : ids)
        ttft_worst = std::max(ttft_worst, engine.stats(id).ttft_ms);
    std::printf("%-8s %5zu %10.1f %10.1f %9.1fms %8.1fMB\n", fmt, batch,
                es.throughput_tokens_per_s, es.decode_tokens_per_s,
                ttft_worst,
                static_cast<double>(es.kv_bytes_peak) / (1024.0 * 1024.0));
}

/**
 * Client code written once against the front end's ticket API:
 * submit a 2-family shared-prompt workload, drain, and report fleet
 * stats. The SAME function serves through one engine (a one-shard
 * ShardedFrontEnd) or a sharded fleet — and returns the streams so
 * the caller can show they are bit-identical either way.
 */
std::vector<std::vector<int>>
serveThroughClient(ShardedFrontEnd &client, const char *label)
{
    std::vector<uint64_t> tickets;
    for (size_t r = 0; r < 8; ++r) {
        ServeRequest req;
        req.prompt.resize(64);
        const size_t family = r % 2;
        for (size_t i = 0; i < req.prompt.size(); ++i)
            req.prompt[i] =
                static_cast<int>((19 + 3 * i + 31 * family) % 251);
        for (size_t i = 0; i < 8; ++i)
            req.prompt.push_back(
                static_cast<int>((7 + 5 * r + 11 * i) % 251));
        req.max_new_tokens = 8;
        tickets.push_back(client.submit(std::move(req)));
    }
    client.drain();
    const EngineStats &es = client.engineStats();
    std::vector<std::vector<int>> streams;
    for (uint64_t t : tickets)
        streams.push_back(client.stats(t).generated);
    std::printf("%-22s %10.1f %10.2f %12zu\n", label,
                es.throughput_tokens_per_s, es.goodput_ok_fraction,
                es.prefix_hit_tokens);
    return streams;
}

} // namespace

int
main()
{
    // 1. Model quality on the simulated Llama-3.1-8B.
    const ModelConfig cfg = simLlama31_8b();
    const Transformer model(cfg);
    std::printf("model: %s (d=%zu, %zu layers)\n", cfg.name.c_str(),
                cfg.d_model, cfg.n_layers);

    const Dataset data =
        makeTeacherDataset(model, "wiki-sim", 2, 256, 1.0, 7);
    const TaskSet task =
        makeTaskSet(model, quickTaskSuite().front(), 7);

    std::printf("\n%-10s %12s %12s\n", "format", "perplexity",
                "task acc %");
    for (const char *fmt : {"BF16", "MXFP8", "MXFP4", "MXFP4+"}) {
        const QuantConfig qc = fmt == std::string("BF16")
            ? QuantConfig::bf16Baseline()
            : QuantConfig::fromFormat(fmt);
        std::printf("%-10s %12.2f %12.1f\n", fmt,
                    perplexity(model, data, qc),
                    taskAccuracy(model, task, qc));
    }

    // 2. Serving performance of the real-size model on the GPU model.
    const GpuConfig gpu = GpuConfig::rtx5090();
    const LlmDims dims = LlmDims::llama31_8b();
    std::printf("\nserving %s on %s (4 req x 1024 in / 64 out):\n",
                dims.name.c_str(), gpu.name.c_str());

    ServingConfig bf16;
    bf16.act_format = OperandFormat::BF16;
    bf16.weight_format = OperandFormat::BF16;
    const double t_bf16 = servingTime(gpu, dims, bf16).total();

    struct Row
    {
        const char *name;
        OperandFormat act, weight;
        IntegrationPath path;
    };
    const Row rows[] = {
        {"MXFP4", OperandFormat::MXFP4, OperandFormat::MXFP4,
         IntegrationPath::DirectMx},
        {"A-MXFP4+ (SW)", OperandFormat::MXFP4Plus, OperandFormat::MXFP4,
         IntegrationPath::MxPlusSoftware},
        {"MXFP4+ (HW)", OperandFormat::MXFP4Plus,
         OperandFormat::MXFP4Plus, IntegrationPath::MxPlusHardware},
    };
    std::printf("%-15s %10s %10s %10s\n", "scheme", "prefill", "decode",
                "speedup");
    for (const Row &r : rows) {
        ServingConfig c;
        c.act_format = r.act;
        c.weight_format = r.weight;
        c.path = r.path;
        const ServingTime t = servingTime(gpu, dims, c);
        std::printf("%-15s %8.1fms %8.1fms %9.2fx\n", r.name,
                    t.prefill_ms, t.decode_ms, t_bf16 / t.total());
    }

    // 3. Serve the emulated model for real: continuous batching over
    // incremental decode with a quantized KV cache (4 req x 16 in /
    // 12 out, greedy). Batch 4 shares every linear GEMM across requests.
    std::printf("\nserving the emulated %s with the batching engine:\n",
                cfg.name.c_str());
    std::printf("%-8s %5s %10s %10s %11s %10s\n", "format", "batch",
                "tok/s", "decode/s", "worst ttft", "kv peak");
    for (const char *fmt : {"BF16", "MXFP4+"}) {
        for (size_t batch : {size_t{1}, size_t{4}})
            serveRow(model, fmt, batch);
    }

    // 4. Prefix sharing: the same requests behind one common system
    // prompt, with the prefix cache on vs off. One slot prefills each
    // shared page; everyone else maps it (copy-on-write fork at the
    // first divergent page), so TTFT and the KV footprint collapse
    // while the token streams stay bit-identical.
    std::printf("\nshared 128-token system prompt, 4 users (MXFP4+):\n");
    std::printf("%-14s %11s %10s %12s\n", "prefix cache", "worst ttft",
                "kv peak", "hit tokens");
    for (const bool sharing : {false, true}) {
        const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
        EngineOptions opts;
        opts.max_batch = 4;
        opts.prefix_cache_tokens = sharing ? 512 : 0;
        ServingEngine engine(model, qc, opts);
        std::vector<size_t> ids;
        for (size_t r = 0; r < 4; ++r) {
            ServeRequest req;
            req.prompt.resize(128);
            for (size_t i = 0; i < req.prompt.size(); ++i)
                req.prompt[i] = static_cast<int>((19 + 3 * i) % 251);
            for (size_t i = 0; i < 8; ++i)
                req.prompt.push_back(
                    static_cast<int>((7 + 5 * r + 11 * i) % 251));
            req.max_new_tokens = 8;
            ids.push_back(engine.submit(std::move(req)));
        }
        engine.runToCompletion();
        const EngineStats es = engine.engineStats();
        double ttft_worst = 0.0;
        for (size_t id : ids)
            ttft_worst =
                std::max(ttft_worst, engine.stats(id).ttft_ms);
        std::printf("%-14s %9.1fms %8.1fMB %12zu\n",
                    sharing ? "on" : "off", ttft_worst,
                    static_cast<double>(es.kv_bytes_peak) /
                        (1024.0 * 1024.0),
                    es.prefix_hit_tokens);
    }

    // 5. Preemptive over-admission: a bursty mix of long low-priority
    // and short high-priority jobs under a tight KV budget. Reject-only
    // admission (factor 1) idles slots on worst-case reservations;
    // over-admission fills them and settles the occasional loss by
    // preempt-and-requeue — restarts are bit-exact, so the token
    // streams are identical either way.
    std::printf("\nbursty mixed-priority burst, tight KV budget "
                "(MXFP4+):\n");
    std::printf("%-14s %10s %10s %9s %11s %12s\n", "admission", "tok/s",
                "occupancy", "preempt", "worst wait", "recompute tok");
    for (const double factor : {1.0, 1.5}) {
        const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
        EngineOptions opts;
        opts.max_batch = 6;
        opts.kv_budget_tokens = 192;
        opts.over_admission = factor;
        opts.aging_rate = 0.25; // bounded wait for the low-prio jobs
        ServingEngine engine(model, qc, opts);
        for (size_t r = 0; r < 9; ++r) {
            ServeRequest req;
            const bool lng = r % 3 != 2;
            req.prompt.resize(8);
            for (size_t i = 0; i < req.prompt.size(); ++i)
                req.prompt[i] =
                    static_cast<int>((23 + 7 * r + 3 * i) % 251);
            req.max_new_tokens = lng ? 48 : 12;
            req.priority = lng ? 0 : 3;
            engine.submit(std::move(req));
        }
        engine.runToCompletion();
        const EngineStats es = engine.engineStats();
        std::printf("%-14s %10.1f %10.2f %9zu %9.1fms %13zu\n",
                    factor > 1.0 ? "over-admit" : "reject-only",
                    es.throughput_tokens_per_s, es.mean_batch_occupancy,
                    es.preemptions, es.queue_wait_ms_p99,
                    es.preempted_recompute_tokens);
    }

    // 6. One front end, two deployments: the same client function
    // serves through one engine and through a 2-shard prefix-affinity
    // fleet — same tickets, same stats schema, and (the canonical
    // invariant, now across sharding) bit-identical token streams.
    std::printf("\none client function, two deployments (MXFP4+, "
                "2 shared-prompt families):\n");
    std::printf("%-22s %10s %10s %12s\n", "deployment", "tok/s",
                "goodput", "hit tokens");
    const QuantConfig serve_qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions client_opts;
    client_opts.max_batch = 4;
    client_opts.prefix_cache_tokens = 512;
    RouterOptions one_shard;
    one_shard.num_shards = 1;
    one_shard.submit_timeout_ms = 0.0;
    ShardedFrontEnd single(model, serve_qc, client_opts, one_shard);
    const auto single_streams =
        serveThroughClient(single, "single engine");
    RouterOptions router;
    router.num_shards = 2;
    ShardedFrontEnd fleet(model, serve_qc, client_opts, router);
    const auto fleet_streams =
        serveThroughClient(fleet, "sharded fleet (2)");
    std::printf("streams bit-identical across deployments: %s\n",
                single_streams == fleet_streams ? "yes" : "NO");

    std::printf("\ntakeaway: MXFP4+ keeps nearly all of MXFP4's serving "
                "speedup while recovering most of the quality gap to "
                "BF16 — and the engine's batched decode, prefix sharing "
                "and preemptive over-admission turn that into real "
                "tokens/s and real KV bytes (see BENCH_serving.json).\n");
    return 0;
}
