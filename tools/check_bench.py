#!/usr/bin/env python3
"""Bench-regression gate over BENCH_*.json snapshots.

Compares a freshly produced bench JSON (typically a --quick run) against
a baseline snapshot and fails when a metric regressed more than the
threshold. Entries are matched by a per-bench key, so quick runs — which
measure a subset of the full config grid with the same workload — are
compared apples-to-apples:

  bench_serving:        key (format, workload, batch); workload
                        geometry (uniform/shared-prefix/bursty/poisson
                        params) is folded into the key so entries
                        measured under different workloads never
                        compare. metrics throughput_tok_s, decode_tok_s
                        (higher is better); shared-prefix workloads
                        additionally gate ttft_p50_ms and kv_bytes_peak,
                        bursty workloads ttft_p99_ms (LOWER is better —
                        the prefix cache's and the preemptive
                        scheduler's wins respectively), poisson
                        workloads ttft_p99_ms and goodput_ok_fraction
                        (virtual step clock, so both are deterministic
                        and judged machine-independent), sharded-fleet
                        workloads ttft_p50_ms and kv_bytes_peak (serial
                        lock-step simulation on the virtual clock — the
                        affinity-vs-round-robin routing delta), and the
                        sharded-failover workload ttft_p99_ms and
                        goodput_ok_fraction (one shard killed mid-run;
                        the rerouted tail must hold and no request may
                        be lost). Rows with
                        num_threads != 1 (decode worker pool, async
                        front end) are never gated — CI runners are
                        single-core — but their token streams are
                        verified bit-identical in-bench.
  bench_kernels_engine: key (op, m, n, k) -> simd_gflops
                        key (api, format, mode) -> simd_gbps
                        page codec rows, key (api, format, codec):
                        pageEncode -> gbps, pageDecode -> simd_gbps

Each side of a --pair may name several runs, comma-separated; each
metric is then compared by its per-side median, over the runs that
carry it. One --quick run per side cannot tell a 15% regression from
run-to-run noise on a shared runner: two runs of one commit differed by
up to 30% on single rows. CI runs three per side, alternating.

Every comparison is expressed as a *goodness ratio* (current/baseline
for higher-is-better metrics, baseline/current for lower-is-better), so
a ratio below the floor always means "got worse". kv_bytes_peak is a
deterministic byte count, not a speed: it is flagged machine-
independent, always judged against reference 1.0 (even in normalized
mode) and excluded from the machine-speed medians.

Two modes:

  --absolute            Same-machine gate: fail any metric whose
                        goodness ratio is below 1 - threshold.
                        This is what CI uses — it benches the PR build
                        AND the merge-base build on the same runner, so
                        machine speed cancels exactly.

  normalized (default)  Cross-machine trajectory check against the
                        committed baselines (recorded on the dev box).
                        The machine-speed factor for each file pair is
                        estimated as the median goodness ratio of the
                        OTHER pairs (leave-one-pair-out), so a
                        regression confined to one subsystem cannot drag
                        its own reference down; with a single pair the
                        global median is used. A uniform machine-speed
                        difference cancels; a targeted slowdown sticks
                        out. Caveat: a regression that hits every pair
                        at once looks like a slower machine and only
                        triggers a warning — the PR-mode absolute gate
                        is the authoritative check for that case.

Exit status: 0 clean, 1 regression(s), 2 usage/IO error.

Usage:
  tools/check_bench.py --pair current_serving.json:BENCH_serving.json \
                       --pair current_kernels.json:BENCH_kernels.json \
                       [--threshold 0.15] [--absolute]
  tools/check_bench.py --absolute \
      --pair pr1.json,pr2.json,pr3.json:base1.json,base2.json,base3.json
"""

import argparse
import json
import statistics
import sys


# Metrics where smaller numbers are better (latency, memory).
LOWER_IS_BETTER = {"ttft_p50_ms", "ttft_p99_ms", "kv_bytes_peak"}
# Deterministic counts that do not scale with machine speed: judged
# against reference 1.0 in every mode and excluded from the
# machine-factor estimate. goodput_ok_fraction is only ever gated on
# virtual-clock workloads (poisson), where it is a pure function of
# scheduling.
MACHINE_INDEPENDENT = {"kv_bytes_peak", "goodput_ok_fraction"}
# Workload families whose gated latency metrics run on the virtual
# step clock and are therefore machine-independent too. Matched
# against the folded key, which is space-delimited — "poisson-async"
# does not match " poisson " (and is never gated anyway). The serial
# sharded-fleet rows (sharded-ref / sharded-affinity /
# sharded-roundrobin / sharded-failover) are deterministic lock-step
# simulations on the same virtual clock; "sharded-async" runs real
# shard threads and is already excluded by its num_threads.
VIRTUAL_CLOCK_WORKLOADS = ("poisson", "sharded-ref", "sharded-affinity",
                           "sharded-roundrobin", "sharded-failover",
                           "sharded-compressed")
# Extra metrics gated per workload family, on top of the throughput
# metrics every serving row gets: the shared-prefix rows exist for
# their latency/memory wins, the bursty rows for the tail-latency
# bound that over-admission + aging must preserve, and the poisson
# rows for the open-loop tail latency + goodput under rps arrivals.
WORKLOAD_GATED_METRICS = {
    "shared-prefix": ("ttft_p50_ms", "kv_bytes_peak"),
    "bursty": ("ttft_p99_ms",),
    "poisson": ("ttft_p99_ms", "goodput_ok_fraction"),
    # Sharded-fleet rows exist for the routing-policy trade-off:
    # kv_bytes_peak is affinity's memory win (one physical prefix copy
    # per family instead of one per family per shard) and ttft_p50_ms
    # is the load-balance price it pays — both must hold steady, and
    # both are deterministic on the virtual clock.
    "sharded": ("ttft_p50_ms", "kv_bytes_peak"),
    # Crash-failover row: goodput must stay 1.0 (a killed shard never
    # loses a request) and ttft_p99_ms bounds the rerouted tail (the
    # re-prefill on the survivor) — both pure functions of scheduling
    # on the virtual clock.
    "sharded-failover": ("ttft_p99_ms", "goodput_ok_fraction"),
}


def machine_independent(key, metric):
    """Deterministic metrics: judged against reference 1.0 and excluded
    from machine-factor medians. Latency metrics become deterministic
    on virtual-clock workloads; throughput metrics are wall-clock
    everywhere and stay machine-dependent."""
    if metric in MACHINE_INDEPENDENT:
        return True
    if metric in ("ttft_p50_ms", "ttft_p99_ms"):
        return any((" %s " % wl) in key for wl in VIRTUAL_CLOCK_WORKLOADS)
    return False


def serving_metrics(doc):
    """Yield (key_str, metric, value, higher_is_better)."""
    # The uniform grid's workload parameters live at the document level;
    # fold them into the key so entries from different workloads can
    # never be compared against each other.
    wl = doc.get("workload", {})
    uniform_tag = "uniform r%sp%sn%s" % (wl.get("requests", "?"),
                                         wl.get("prompt_tokens", "?"),
                                         wl.get("new_tokens_per_request",
                                                "?"))
    sp = doc.get("shared_prefix", {})
    shared_tag = "r%ss%st%sn%s" % (sp.get("requests", "?"),
                                   sp.get("shared_tokens", "?"),
                                   sp.get("tail_tokens", "?"),
                                   sp.get("new_tokens_per_request", "?"))
    bw = doc.get("bursty_workload", {})
    bursty_tag = "r%sb%so%sa%s" % (bw.get("requests", "?"),
                                   bw.get("kv_budget_tokens", "?"),
                                   bw.get("over_admission", "?"),
                                   bw.get("aging_rate", "?"))
    pw = doc.get("poisson_workload", {})
    poisson_tag = "r%si%sd%ss%s" % (pw.get("requests", "?"),
                                    pw.get("mean_interarrival_ms", "?"),
                                    pw.get("deadline_ms", "?"),
                                    pw.get("seed", "?"))
    sh = doc.get("sharded_workload", {})
    sharded_tag = "f%sr%ss%st%sk%s" % (sh.get("families", "?"),
                                       sh.get("requests_per_family", "?"),
                                       sh.get("shared_tokens", "?"),
                                       sh.get("tail_tokens", "?"),
                                       sh.get("num_shards", "?"))
    # Extraction is allowlist-based: only the metrics named below are
    # ever gated, so rows may grow new fields (the lifecycle counters
    # shed/timed_out/cancelled/checksum_failures/goodput_ok_fraction,
    # or anything later) without breaking comparisons against an older
    # baseline that lacks them. The "overload" section is deliberately
    # NOT gated: its rows measure triage policy (who gets shed), not
    # machine speed — if one of its metrics ever becomes a gate, fold
    # the overload_workload geometry into the key first, like the
    # uniform/shared/bursty tags above.
    entries = (doc.get("poisson", []) + doc.get("configs", []) +
               doc.get("mixed", []) + doc.get("bursty", []) +
               doc.get("shared", []) + doc.get("sharded", []))
    for entry in entries:
        # Rows measured with a decode worker pool (or through the
        # async front end, which always runs one) are never gated: CI
        # runners are single-core, so multi-thread wall-clock numbers
        # there say nothing. Their token streams are still verified
        # bit-identical in-bench before the row is emitted.
        if entry.get("num_threads", 1) != 1:
            continue
        workload = entry.get("workload", "uniform")
        gated = ()
        if workload == "uniform":
            workload = uniform_tag
        elif workload == "poisson":
            # Exact match: "poisson-async" rows are pool-backed and
            # already skipped above, but keep the gate explicit.
            workload = "%s %s" % (workload, poisson_tag)
            gated = WORKLOAD_GATED_METRICS["poisson"]
        elif workload.startswith("shared-prefix"):
            # Same rule as the uniform grid: geometry lives at the
            # document level, folded in so a future workload change can
            # never compare kv_bytes_peak across different geometries.
            workload = "%s %s" % (workload, shared_tag)
            gated = WORKLOAD_GATED_METRICS["shared-prefix"]
        elif workload.startswith("bursty"):
            workload = "%s %s" % (workload, bursty_tag)
            gated = WORKLOAD_GATED_METRICS["bursty"]
        elif workload.startswith("sharded-failover"):
            # Must match before the generic sharded branch: the
            # failover row gates the rerouted tail + goodput, not the
            # routing-policy metrics.
            workload = "%s %s" % (workload, sharded_tag)
            gated = WORKLOAD_GATED_METRICS["sharded-failover"]
        elif workload.startswith("sharded"):
            # "sharded-async" never reaches here (num_threads ==
            # num_shards, filtered above); the serial fleet rows and
            # the single-engine reference share the geometry tag.
            workload = "%s %s" % (workload, sharded_tag)
            gated = WORKLOAD_GATED_METRICS["sharded"]
        key = "serving %s %s batch=%s" % (entry["format"], workload,
                                          entry["batch"])
        for metric in ("throughput_tok_s", "decode_tok_s") + gated:
            if metric in entry:
                yield (key, metric, float(entry[metric]),
                       metric not in LOWER_IS_BETTER)


def kernels_metrics(doc):
    """Yield (key_str, metric, value, higher_is_better)."""
    for entry in doc.get("gemm", []):
        key = "gemm %s %sx%sx%s" % (entry["op"], entry["m"], entry["n"],
                                    entry["k"])
        yield key, "simd_gflops", float(entry["simd_gflops"]), True
    for entry in doc.get("quantize", []):
        key = "quantize %s %s %s" % (entry["api"], entry["format"],
                                     entry["mode"])
        yield key, "simd_gbps", float(entry["simd_gbps"]), True
    for entry in doc.get("page_codec", []):
        key = "page %s %s %s" % (entry["api"], entry["format"],
                                 entry["codec"])
        metric = "gbps" if entry["api"] == "pageEncode" else "simd_gbps"
        yield key, metric, float(entry[metric]), True


def extract(doc):
    bench = doc.get("bench", "")
    if bench == "bench_serving":
        gen = serving_metrics(doc)
    elif bench == "bench_kernels_engine":
        gen = kernels_metrics(doc)
    else:
        raise ValueError("unknown bench kind: %r" % bench)
    return dict(((k, m), (v, hib)) for k, m, v, hib in gen)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print("check_bench: cannot read %s: %s" % (path, e),
              file=sys.stderr)
        sys.exit(2)


def extract_median(paths):
    """Per-metric median over the runs in a comma-separated path list."""
    runs = [extract(load(p)) for p in paths.split(",") if p]
    values = {}
    for run in runs:
        for key, (value, hib) in run.items():
            values.setdefault(key, ([], hib))[0].append(value)
    return dict((key, (statistics.median(v), hib))
                for key, (v, hib) in values.items())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pair", action="append", default=[],
                    metavar="CURRENT:BASELINE", required=True,
                    help="bench JSON pair, each side one file or a "
                         "comma-separated list of runs; repeatable")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="tolerated fractional drop (default 0.15)")
    ap.add_argument("--absolute", action="store_true",
                    help="compare raw ratios (same-machine runs)")
    args = ap.parse_args()

    # rows[pair_index] = list of (key, metric, current, baseline, ratio)
    # where ratio is the goodness ratio (< 1 means worse).
    rows = []
    for pair in args.pair:
        if ":" not in pair:
            print("check_bench: --pair expects CURRENT:BASELINE",
                  file=sys.stderr)
            sys.exit(2)
        cur_path, base_path = pair.split(":", 1)
        cur = extract_median(cur_path)
        base = extract_median(base_path)
        matched = sorted(set(cur) & set(base))
        if not matched:
            # A PR that changes the bench workload/config grid produces
            # keys the old baseline does not have; that PR must also
            # regenerate the committed baselines, at which point the
            # gate re-engages. Skip rather than fail so such PRs pass
            # on the other pairs.
            print("check_bench: WARNING no matching entries between %s "
                  "and %s — pair skipped (workload changed? regenerate "
                  "the baseline)" % (cur_path, base_path),
                  file=sys.stderr)
            rows.append([])
            continue
        pair_rows = []
        for key in matched:
            c, hib = cur[key]
            b, _ = base[key]
            # Zero baselines can't be ratioed; a zero CURRENT value is
            # only a division problem for lower-is-better metrics — a
            # higher-is-better metric collapsing to zero must still
            # produce ratio 0 and fail the gate.
            if b <= 0.0 or (not hib and c <= 0.0):
                continue
            ratio = (c / b) if hib else (b / c)
            pair_rows.append((key[0], key[1], c, b, ratio))
        rows.append(pair_rows)

    all_rows = [r for pair_rows in rows for r in pair_rows]
    if not all_rows:
        print("check_bench: WARNING vacuous run — every pair was "
              "skipped; the gate re-engages once baselines are "
              "regenerated", file=sys.stderr)
        return

    def speed_rows(pair_rows):
        return [r for r in pair_rows if not machine_independent(r[0], r[1])]

    def reference_for(pair_index):
        if args.absolute:
            return 1.0
        # Leave-one-pair-out over speed-dependent metrics only: judge
        # each file against the machine factor seen by the other files;
        # lone pairs fall back to their own median.
        others = [r[4] for i, pair_rows in enumerate(rows)
                  for r in speed_rows(pair_rows) if i != pair_index]
        own = [r[4] for r in speed_rows(rows[pair_index])]
        pool = others if others else own
        return statistics.median(pool) if pool else 1.0

    mode = "absolute" if args.absolute else "normalized (leave-one-out)"
    print("check_bench: %d metrics, %s mode, threshold %.0f%%" %
          (len(all_rows), mode, args.threshold * 100))

    if not args.absolute:
        # Honest limitation: a regression hitting EVERY pair at once
        # (e.g. a GEMM slowdown that drags serving down too) is
        # indistinguishable from a uniformly slower machine in one
        # normalized run — only the PR-mode absolute comparison can
        # separate those. Surface the suspicion loudly instead of
        # silently passing.
        speed_ratios = [r[4] for r in all_rows
                        if not machine_independent(r[0], r[1])]
        global_median = statistics.median(speed_ratios if speed_ratios
                                          else [r[4] for r in all_rows])
        if global_median < 1.0 - args.threshold:
            print("check_bench: WARNING global median ratio %.3f is "
                  "below %.3f — either this machine is much slower "
                  "than the baseline's, or EVERY subsystem regressed; "
                  "normalization cannot tell which. Re-check on the "
                  "baseline machine or rely on the PR absolute gate." %
                  (global_median, 1.0 - args.threshold))

    failures = []
    for pair_index, pair_rows in enumerate(rows):
        pair_reference = reference_for(pair_index)
        for key, metric, cur, base, ratio in pair_rows:
            reference = (1.0 if machine_independent(key, metric)
                         else pair_reference)
            floor = reference * (1.0 - args.threshold)
            status = "ok"
            if ratio < floor:
                status = "REGRESSION"
                failures.append((key, metric, ratio, reference))
            print("  %-48s %-18s %10.2f vs %10.2f  ratio %.3f "
                  "(floor %.3f)  %s" %
                  (key, metric, cur, base, ratio, floor, status))

    if failures:
        print("check_bench: FAILED — %d metric(s) regressed more than "
              "%.0f%% past their reference:" %
              (len(failures), args.threshold * 100))
        for key, metric, ratio, reference in failures:
            print("  %s %s at %.1f%% of reference" %
                  (key, metric, 100.0 * ratio / reference))
        sys.exit(1)
    print("check_bench: OK")


if __name__ == "__main__":
    main()
