// Serving benchmark program. Serves one workload in an open loop on a
// single thread: the client submits each request when it is due and
// steps the engine otherwise, timestamping tokens as they appear. Then
// it re-serves a sample of the requests alone on a fresh engine (the
// output check) and prints every metric, with its unit, as one JSON
// line.
//
// Usage: servebench --workload chat|rag --seed N --seconds S --trace 0|1
//                   [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the first
// half of the arrivals twice, untraced and then traced on a fresh
// set-up, probes the model, kernel and codec layers at the shapes the
// workload produced, and reports the per-layer metrics plus the
// tracing overhead; FILE receives the spans. Run it through run.py,
// which builds it and pins OMP_NUM_THREADS=1 (README.md).

#include <sched.h>
#include <sys/resource.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec/page_codec.h"
#include "serve/kv_cache.h"
#include "tensor/matmul.h"
#include "tracer.h"
#include "workload.h"

namespace servebench {
namespace {

using mxplus::EngineStats;
using mxplus::KvCache;
using mxplus::Matrix;
using mxplus::QuantConfig;
using mxplus::ServingEngine;
using mxplus::Transformer;

/** Threads the run uses: the client thread also runs the engine. */
constexpr size_t kThreads = 1;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/** Requests the output check re-serves alone. */
constexpr size_t kCheckRequests = 4;
constexpr double kMiB = 1024.0 * 1024.0;

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return 1e3 * static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-3 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * Percentile @p p (0..1) of @p v, interpolated between the two nearest
 * ranks; 0 when @p v is empty. The benchmark computes its own statistics
 * so that a change to the program cannot change how it is measured.
 */
double
pct(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double x = p * static_cast<double>(v.size() - 1);
    const auto i = static_cast<size_t>(x);
    if (i + 1 >= v.size())
        return v.back();
    return v[i] + (x - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

/** Per-request SLO: TTFT and mean inter-token gap limits (ms). */
struct SloLimits
{
    double ttft_ms;
    double tpot_ms;
};

SloLimits
sloLimits(const std::string &workload)
{
    // About twice the p90 TTFT and the median gap of a normal run.
    return workload == "rag" ? SloLimits{600.0, 60.0}
                             : SloLimits{300.0, 40.0};
}

/** One timed request as the client saw it. */
struct Served
{
    size_t id = 0; ///< engine request id
    double due_ms = 0.0;
    size_t prompt_tokens = 0;
    std::vector<double> token_at_ms; ///< phase clock, one per token
    bool completed = false;
    double queue_wait_ms = 0.0;
};

/** What one open-loop pass measured. */
struct Phase
{
    std::vector<Served> reqs;
    std::vector<double> step_ms;
    std::vector<double> late_ms;
    double wall_ms = 0.0;
    double busy_ms = 0.0;
    double cpu_ms = 0.0;
    size_t tokens = 0;
    double occupancy = 0.0;
    size_t kv_bytes_peak = 0; ///< live pool bytes, cached spans included
    EngineStats before;
    EngineStats after;

    double
    cpuMsPerToken() const
    {
        return cpu_ms / static_cast<double>(tokens);
    }
};

/** One set-up: a synthesized model and a warmed engine over it. */
struct Stack
{
    std::unique_ptr<Transformer> model;
    std::unique_ptr<ServingEngine> engine; // destroyed before the model
};

/** Frees a set-up, the engine before the model it refers to. */
void
tearDown(Stack &s)
{
    s.engine.reset();
    s.model.reset();
}

/** Fills an empty @p s: model synthesis, engine, fixed warmup. */
void
setUp(Stack &s, const Workload &w, const QuantConfig &qc)
{
    s.model = std::make_unique<Transformer>(benchModel());
    s.engine = std::make_unique<ServingEngine>(*s.model, qc,
                                               engineOptions(w.name));
    for (const mxplus::ServeRequest &r : w.warmup)
        s.engine->submit(r);
    s.engine->runToCompletion();
}

Phase
runOpenLoop(ServingEngine &engine, const std::vector<Arrival> &arrivals,
            Tracer *tr)
{
    using clock = std::chrono::steady_clock;
    Phase ph;
    ph.before = engine.engineStats();
    ph.reqs.resize(arrivals.size());
    std::vector<size_t> inflight;
    size_t next = 0;
    const double cpu0 = cpuMs();
    const clock::time_point t0 = clock::now();
    const auto since = [&t0] {
        return std::chrono::duration<double, std::milli>(clock::now() - t0)
            .count();
    };
    {
        Scope run(tr, "client:run");
        for (;;) {
            const double now = since();
            while (next < arrivals.size() && arrivals[next].due_ms <= now) {
                Served &s = ph.reqs[next];
                s.due_ms = arrivals[next].due_ms;
                s.prompt_tokens = arrivals[next].req.prompt.size();
                ph.late_ms.push_back(now - s.due_ms);
                {
                    Scope sp(tr, "serve/serving_engine:submit", run.id(),
                             static_cast<long>(next));
                    s.id = engine.submit(arrivals[next].req);
                }
                inflight.push_back(next++);
            }
            if (engine.activeRequests() + engine.queuedRequests() > 0) {
                const double a = since();
                {
                    Scope sp(tr, "serve/serving_engine:step", run.id());
                    engine.step();
                }
                const double b = since();
                ph.step_ms.push_back(b - a);
                ph.busy_ms += b - a;
                ph.kv_bytes_peak =
                    std::max(ph.kv_bytes_peak, engine.kvBytesLive());
                for (size_t k = 0; k < inflight.size();) {
                    Served &s = ph.reqs[inflight[k]];
                    const mxplus::RequestStats &st = engine.stats(s.id);
                    while (s.token_at_ms.size() < st.generated.size())
                        s.token_at_ms.push_back(b);
                    if (!st.finished) {
                        ++k;
                        continue;
                    }
                    s.completed =
                        st.outcome == mxplus::RequestOutcome::kCompleted;
                    s.queue_wait_ms = st.queue_wait_ms;
                    inflight[k] = inflight.back();
                    inflight.pop_back();
                }
            } else if (next < arrivals.size()) {
                Scope idle(tr, "idle:sleep_until", run.id());
                std::this_thread::sleep_until(
                    t0 + std::chrono::duration_cast<clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 arrivals[next].due_ms)));
            } else {
                break;
            }
        }
        ph.wall_ms = since();
        ph.cpu_ms = cpuMs() - cpu0;
    }
    engine.runToCompletion(); // no work left: finalizes aggregate stats
    ph.after = engine.engineStats();
    for (const Served &s : ph.reqs)
        ph.tokens += s.token_at_ms.size();
    const double b0 = static_cast<double>(ph.before.decode_batches);
    const double b1 = static_cast<double>(ph.after.decode_batches);
    if (b1 > b0) {
        ph.occupancy = (ph.after.mean_batch_occupancy * b1 -
                        ph.before.mean_batch_occupancy * b0) /
            (b1 - b0);
    }
    return ph;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::vector<Metric>
endToEndMetrics(const Phase &ph, double setup_s, double rss_mb,
                const SloLimits &slo)
{
    std::vector<double> ttft, itl;
    size_t good = 0;
    for (const Served &s : ph.reqs) {
        const std::vector<double> &t = s.token_at_ms;
        if (t.empty())
            continue;
        ttft.push_back(t.front() - s.due_ms);
        for (size_t i = 1; i < t.size(); ++i)
            itl.push_back(t[i] - t[i - 1]);
        const double tpot = t.size() > 1
            ? (t.back() - t.front()) / static_cast<double>(t.size() - 1)
            : 0.0;
        if (s.completed && ttft.back() <= slo.ttft_ms && tpot <= slo.tpot_ms)
            ++good;
    }
    return {
        {"setup_s", setup_s, "s"},
        {"ttft_p50_ms", pct(ttft, 0.50), "ms"},
        {"ttft_p90_ms", pct(ttft, 0.90), "ms"},
        {"itl_p50_ms", pct(itl, 0.50), "ms"},
        {"itl_p99_ms", pct(itl, 0.99), "ms"},
        {"throughput_tok_s",
         1000.0 * static_cast<double>(ph.tokens) / ph.wall_ms, "tok/s"},
        {"slo_goodput_frac",
         static_cast<double>(good) / static_cast<double>(ph.reqs.size()),
         "fraction"},
        {"cpu_ms_per_token", ph.cpuMsPerToken(), "ms"},
        {"peak_rss_mb", rss_mb, "MiB"},
    };
}

/** Layer probes at the shapes the workload produced. */
struct Probes
{
    double prefill_ms_per_token = 0.0;
    double decode_step_ms = 0.0;
    double weight_quant_ms_per_step = 0.0;
    double matmul_ms_per_step = 0.0;
    double page_decode_us = 0.0;
};

Probes
runProbes(const Transformer &model, const QuantConfig &qc,
          const Workload &w, size_t batch, Tracer *tr)
{
    Scope root(tr, "probe:layers");
    const mxplus::ModelConfig &cfg = model.config();
    const mxplus::EngineOptions opts = engineOptions(w.name);
    Probes p;

    // The workload's median-length prompt.
    std::vector<const std::vector<int> *> prompts;
    for (const Arrival &a : w.arrivals)
        prompts.push_back(&a.req.prompt);
    std::sort(prompts.begin(), prompts.end(),
              [](const auto *x, const auto *y) {
                  return x->size() < y->size();
              });
    const std::vector<int> &prompt = *prompts[prompts.size() / 2];
    const auto freshCache = [&] {
        return std::make_unique<KvCache>(
            KvCache::forConfig(cfg, qc, prompt.size() + 16));
    };

    std::vector<double> samples;
    for (int r = 0; r < 3; ++r) {
        auto cache = freshCache();
        const double a = nowMs();
        {
            Scope sp(tr, "model:prefill", root.id());
            model.prefill(prompt, *cache, qc);
        }
        samples.push_back((nowMs() - a) / static_cast<double>(prompt.size()));
    }
    p.prefill_ms_per_token = pct(samples, 0.5);

    std::vector<std::unique_ptr<KvCache>> caches;
    std::vector<KvCache *> ptrs;
    for (size_t b = 0; b < batch; ++b) {
        caches.push_back(freshCache());
        model.prefill(prompt, *caches.back(), qc);
        ptrs.push_back(caches.back().get());
    }
    const std::vector<int> tokens(batch, prompt.back());
    samples.clear();
    for (int r = 0; r < 9; ++r) {
        const double a = nowMs();
        {
            Scope sp(tr, "model:decodeStepBatch", root.id());
            model.decodeStepBatch(tokens, ptrs, qc);
        }
        samples.push_back(nowMs() - a);
    }
    p.decode_step_ms = pct(samples, 0.5);

    // Every decode step quantizes every linear's weights and runs one
    // GEMM per linear over the batch rows.
    const std::vector<std::string> names = model.linearNames();
    std::vector<Matrix> wq, act;
    Gen g(1);
    for (const std::string &n : names) {
        const Matrix &wt = model.linearWeight(n);
        wq.push_back(qc.weight->quantized(wt));
        Matrix x(batch, wt.cols());
        for (size_t i = 0; i < x.rows() * x.cols(); ++i)
            x.data()[i] = static_cast<float>(g.uniform() * 2.0 - 1.0);
        act.push_back(qc.act->quantized(x));
    }
    std::vector<double> quant, mm;
    for (int r = 0; r < 5; ++r) {
        double q_ms = 0.0, m_ms = 0.0;
        for (size_t i = 0; i < names.size(); ++i) {
            const Matrix &wt = model.linearWeight(names[i]);
            Matrix out(wt.rows(), wt.cols());
            double a = nowMs();
            {
                Scope sp(tr, "kernels:quantizeRows", root.id());
                qc.weight->quantizeRows(wt.data(), out.data(), wt.rows(),
                                        wt.cols());
            }
            q_ms += nowMs() - a;
            Matrix c(batch, wt.rows());
            a = nowMs();
            {
                Scope sp(tr, "kernels:matmulNT", root.id());
                mxplus::matmulNT(act[i], wq[i], c);
            }
            m_ms += nowMs() - a;
        }
        quant.push_back(q_ms);
        mm.push_back(m_ms);
    }
    p.weight_quant_ms_per_step = pct(quant, 0.5);
    p.matmul_ms_per_step = pct(mm, 0.5);

    if (opts.compress_frozen_pages) {
        // One frozen page of the prompt, encoded as the pool encodes it.
        const mxplus::PageCodec *codec =
            mxplus::resolvePageCodec(opts.page_codec);
        const mxplus::KvPagePool::PageRegions regions =
            KvCache::payloadRegions(cfg, caches[0]->pageTokens());
        std::vector<uint8_t> ks, vs;
        codec->encode(caches[0]->keyPageData(0, 0), regions.k_floats, ks);
        codec->encode(caches[0]->valuePageData(0, 0), regions.v_floats, vs);
        std::vector<float> kout(regions.k_floats), vout(regions.v_floats);
        samples.clear();
        for (int r = 0; r < 201; ++r) {
            const double a = nowMs();
            bool ok = false;
            {
                Scope sp(tr, "codec:decode", root.id());
                ok = codec->decode(ks.data(), ks.size(), kout.data(),
                                   kout.size());
            }
            {
                Scope sp(tr, "codec:decode", root.id());
                ok = ok && codec->decode(vs.data(), vs.size(), vout.data(),
                                         vout.size());
            }
            MXPLUS_CHECK_MSG(ok, "codec probe: page failed to decode");
            samples.push_back(1000.0 * (nowMs() - a));
        }
        p.page_decode_us = pct(samples, 0.5);
    }
    return p;
}

std::vector<Metric>
perLayerMetrics(const Phase &untraced, const Phase &ph, const Probes &p,
                const Tracer &tracer)
{
    size_t prompt_tokens = 0;
    std::vector<double> queue_wait;
    for (const Served &s : ph.reqs) {
        prompt_tokens += s.prompt_tokens;
        queue_wait.push_back(s.queue_wait_ms);
    }
    const EngineStats &a = ph.before;
    const EngineStats &b = ph.after;
    const double tokens = static_cast<double>(ph.tokens);
    std::map<std::string, double> self = tracer.selfMsByLayer();
    return {
        {"engine.step_ms_p50", pct(ph.step_ms, 0.50), "ms"},
        {"engine.step_ms_p99", pct(ph.step_ms, 0.99), "ms"},
        {"engine.batch_occupancy", ph.occupancy, "requests"},
        {"engine.busy_frac", ph.busy_ms / ph.wall_ms, "fraction"},
        {"sched.queue_wait_ms_p99", pct(queue_wait, 0.99), "ms"},
        {"prefix.hit_token_frac",
         static_cast<double>(b.prefix_hit_tokens - a.prefix_hit_tokens) /
             static_cast<double>(prompt_tokens),
         "fraction"},
        {"prefix.evicted_pages",
         static_cast<double>(b.prefix_evicted_pages - a.prefix_evicted_pages),
         "count"},
        {"kv.bytes_peak_mb", static_cast<double>(ph.kv_bytes_peak) / kMiB,
         "MiB"},
        {"kv.compressed_ratio", b.compressed_ratio, "ratio"},
        {"codec.decode_calls_per_token",
         static_cast<double>(b.codec_decode_calls - a.codec_decode_calls) /
             tokens,
         "count"},
        {"codec.page_decode_us", p.page_decode_us, "us"},
        {"model.decode_step_ms", p.decode_step_ms, "ms"},
        {"model.prefill_ms_per_token", p.prefill_ms_per_token, "ms"},
        {"kernels.weight_quant_ms_per_step", p.weight_quant_ms_per_step,
         "ms"},
        {"kernels.matmul_ms_per_step", p.matmul_ms_per_step, "ms"},
        {"gen.late_ms_p99", pct(ph.late_ms, 0.99), "ms"},
        {"trace.overhead_pct",
         100.0 * (ph.cpuMsPerToken() - untraced.cpuMsPerToken()) /
             untraced.cpuMsPerToken(),
         "%"},
        {"self_ms.client", self["client"], "ms"},
        {"self_ms.serving_engine", self["serve/serving_engine"], "ms"},
        {"self_ms.model", self["model"], "ms"},
        {"self_ms.kernels", self["kernels"], "ms"},
        {"self_ms.codec", self["codec"], "ms"},
    };
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload chat|rag "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 msg);
    return 2;
}

size_t
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return std::thread::hardware_concurrency();
    return static_cast<size_t>(CPU_COUNT(&set));
}

int
run(int argc, char **argv)
{
    std::string workload, trace_out;
    long long seed = -1;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::atoll(v);
        else if (k == "--seconds")
            seconds = std::atof(v);
        else if (k == "--trace")
            trace = std::atoi(v);
        else if (k == "--trace-out")
            trace_out = v;
        else
            return usage(("unknown argument " + k).c_str());
    }
    if (argc % 2 == 0)
        return usage("arguments come in --name value pairs");
    if (seed < 0 || !(seconds > 0.0 && seconds <= 600.0) ||
        (trace != 0 && trace != 1))
        return usage("--seed, --seconds (at most 600) and --trace are "
                     "required");
    const Workload w =
        makeWorkload(workload, static_cast<uint64_t>(seed), seconds);
    if (w.name.empty())
        return usage("--workload must be chat or rag");

    // One OpenMP thread and one engine thread: a wider team makes the
    // figures depend on whatever else the machine runs.
    const char *omp = std::getenv("OMP_NUM_THREADS");
    if (omp == nullptr || std::strcmp(omp, "1") != 0)
        return usage("OMP_NUM_THREADS must be 1 (run.py sets it)");
    int omp_threads = 1;
#ifdef _OPENMP
    omp_threads = omp_get_max_threads();
#endif
    const mxplus::EngineOptions opts = engineOptions(w.name);
    const size_t cpus = availableCpus();
    if (kThreads * static_cast<size_t>(omp_threads) > cpus ||
        opts.num_threads != 1)
        return usage("the run would use more threads than CPUs");

    const QuantConfig qc = benchQuant();
    Stack stack;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
        tearDown(stack);
        const double a = nowMs();
        setUp(stack, w, qc);
        setup_s.push_back((nowMs() - a) / 1000.0);
    }

    std::vector<Metric> metrics;
    Phase ph;
    if (trace == 0) {
        ph = runOpenLoop(*stack.engine, w.arrivals, nullptr);
        metrics = endToEndMetrics(ph, pct(setup_s, 0.5), peakRssMb(),
                                  sloLimits(w.name));
    } else {
        std::vector<Arrival> half;
        for (const Arrival &a : w.arrivals) {
            if (a.due_ms < seconds * 500.0)
                half.push_back(a);
        }
        const Phase untraced = runOpenLoop(*stack.engine, half, nullptr);
        tearDown(stack);
        setUp(stack, w, qc);
        Tracer tracer;
        ph = runOpenLoop(*stack.engine, half, &tracer);
        const size_t batch = std::max<size_t>(
            1, static_cast<size_t>(ph.occupancy + 0.5));
        const Probes probes =
            runProbes(*stack.model, qc, w, batch, &tracer);
        metrics = perLayerMetrics(untraced, ph, probes, tracer);
        if (!trace_out.empty() && !tracer.write(trace_out)) {
            std::fprintf(stderr, "servebench: cannot write %s\n",
                         trace_out.c_str());
            return 1;
        }
    }

    // Output check on the requests the reported phase served.
    std::vector<mxplus::ServeRequest> reqs;
    std::vector<std::vector<int>> served;
    for (size_t i : checkSample(ph.reqs.size(), kCheckRequests)) {
        reqs.push_back(w.arrivals[i].req);
        served.push_back(stack.engine->stats(ph.reqs[i].id).generated);
    }
    const size_t mismatched =
        countMismatches(*stack.model, qc, reqs, served);

    size_t completed = 0;
    for (const Served &s : ph.reqs)
        completed += s.completed ? 1 : 0;
    std::printf("{\"workload\": \"%s\", \"seed\": %lld, \"seconds\": %g, "
                "\"trace\": %d, \"config\": {\"model\": \"%s\", "
                "\"format\": \"MXFP4+\", \"omp_num_threads\": %d, "
                "\"engine_num_threads\": %zu, \"client_threads\": %zu, "
                "\"cpus\": %zu}, \"requests\": {\"sent\": %zu, "
                "\"completed\": %zu, \"failed\": %zu}, \"check\": "
                "{\"sampled\": %zu, \"mismatched\": %zu}, \"correct\": %s, "
                "\"metrics\": {",
                w.name.c_str(), seed, seconds, trace,
                benchModel().name.c_str(), omp_threads, opts.num_threads,
                kThreads, cpus, ph.reqs.size(), completed,
                ph.reqs.size() - completed, reqs.size(), mismatched,
                mismatched == 0 ? "true" : "false");
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i > 0 ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    return 0;
}

} // namespace
} // namespace servebench

int
main(int argc, char **argv)
{
    return servebench::run(argc, argv);
}
