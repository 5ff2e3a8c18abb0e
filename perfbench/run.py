#!/usr/bin/env python3
"""The repository benchmark: one workload, one JSON line.

    python3 perfbench/run.py --workload e1-reduced --seed 1 --seconds 24

Builds the perfbench program (perfbench/CMakeLists.txt) from the checkout's
sources, generates the workload's inputs from --seed in separate processes,
runs the workload's batch and serve parts and checks their outputs after
the timed windows. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the
separate traced run (--trace 1). Everything else goes to standard error.
Run records (seed, input digest, source revision, ISA, topology, resolved
kernel and panel width, threads) are appended to .bench_work/records.jsonl.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Sizes and settings define the workloads (README.md says why each exists).
# Every workload reports every metric, so each has a batch part and a serve
# part. e1-reduced and wide-dpi build in BATCH_RUNS fresh processes, then
# serve the first serve_genes genes of their compendium for half of
# --seconds. serve-mixed has no batch processes: it serves its whole input
# for --seconds, and its set-up (SETUP_SAMPLES fresh ones) builds the
# network.
WORKLOADS = {
    "e1-reduced": {"genes": 1600, "samples": 3137, "missing": 0.01,
                   "q": 5000, "alpha": 1e-4, "dpi": 0, "batch": True,
                   "serve_genes": 400, "mi_share": 0.5,
                   "warmup_queries": 10},
    "wide-dpi": {"genes": 4800, "samples": 400, "missing": 0.0, "q": 2000,
                 "alpha": 1e-3, "dpi": 1, "batch": True,
                 "serve_genes": 1000, "mi_share": 0.5, "warmup_queries": 10},
    "serve-mixed": {"genes": 3000, "samples": 512, "missing": 0.0,
                    "q": 2000, "alpha": 1e-3, "dpi": 0, "batch": False,
                    "serve_genes": 3000, "mi_share": 0.75,
                    "warmup_queries": 40},
}
# Queries per connection of the traced run's MI and neighborhood streams.
TRACE_STREAMS = {"stream_queries": 100, "nbr_queries": 50}
# --size tiny: the self-test's scale (selftest.py); same layers, seconds.
TINY = {
    "e1-reduced": {"genes": 120, "samples": 160, "q": 500,
                   "serve_genes": 80},
    "wide-dpi": {"genes": 240, "samples": 64, "q": 500, "serve_genes": 80},
    "serve-mixed": {"genes": 160, "samples": 96, "q": 300,
                    "serve_genes": 160},
}
TINY_STREAMS = {"warmup_queries": 4, "stream_queries": 10, "nbr_queries": 5}

BATCH_RUNS = 3        # fresh batch processes per run (median)
SETUP_SAMPLES = 3     # serve set-ups per serve-mixed run (median)
RUN_LIMIT_S = 170.0   # children are killed past this, counted from the build


class ChildFailed(RuntimeError):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest rank: the value with floor(q * n) samples below it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def git(*args):
    """Standard output of a git command in the checkout, None on failure."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_revision():
    """The library sources perfbench was built from: the git SHA of a clean
    repository, a digest of src/ outside one, and both when src/ has
    uncommitted edits, so records and digest keys tell them from HEAD."""
    sha = git("rev-parse", "HEAD")
    if sha and git("status", "--porcelain", "--", "src") == "":
        return sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    tree = "tree:" + digest.hexdigest()[:16]
    return f"{sha}+dirty:{tree}" if sha else tree


def build():
    """Configures once, then incremental builds; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: library sources (src/) not found next "
                         "to perfbench/; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


class Bench:
    """Runs perfbench modes as child processes, one at a time."""

    def __init__(self, binary, work, name, workload, seed):
        self.binary = binary
        self.work = work
        self.name = name
        self.w = workload
        self.seed = seed
        self.count = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def pipeline_args(self):
        return ["--q", str(self.w["q"]), "--alpha", repr(self.w["alpha"]),
                "--dpi", str(self.w["dpi"])]

    def run(self, mode, *args):
        """Runs one mode; returns its JSON result plus the process's peak
        resident set (wait4), which covers that process alone."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        result = self.work / f"{tag}.json"
        with open(self.work / f"{tag}.log", "w") as output:
            proc = subprocess.Popen(
                [str(self.binary), mode, *map(str, args), "--result",
                 str(result)], stdout=output, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(
            max(1.0, self.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.work / f"{tag}.log").read_text()[-2000:]
            raise ChildFailed(f"{mode} exited {proc.returncode}: {tail}")
        data = json.loads(result.read_text())
        data["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return data

    def generate(self, genes, path):
        """The workload's compendium cut to `genes` genes. The generator
        stacks 200-gene modules in seed order, so a multiple of 200 gives
        the leading modules of the full compendium, gene for gene."""
        self.run("gen", "--genes", genes, "--samples", self.w["samples"],
                 "--missing", self.w["missing"], "--seed", self.seed, "--out",
                 path)
        return path

    def serve_args(self):
        return ["--seed", self.seed, "--mi-share", self.w["mi_share"],
                *self.pipeline_args()]


def metric(value, unit):
    return {"value": value, "unit": unit}


def load_digests():
    try:
        return json.loads((WORK / "digests.json").read_text())
    except (OSError, ValueError):
        return {}


def save_digests(digests):
    (WORK / "digests.json").write_text(json.dumps(digests, indent=1))


def record_run(record):
    with open(WORK / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    log("record: " + json.dumps(record))


# --- batch ------------------------------------------------------------------

def batch_checks(bench, inp, runs, digest_key, inject):
    """Output checks after the window; returns the failed run indexes and
    the reasons. Every run's edge list must carry the same digest (also the
    one recorded earlier for this seed); a seeded sample of pairs of that
    list is re-evaluated independently (perfbench check)."""
    digests = [sha256_file(run["edges_path"]) for run in runs]
    if inject == "edit-digest":
        digests[-1] = "edited-" + digests[-1]
    recorded = load_digests()
    reference = recorded.get(digest_key) or max(set(digests),
                                                 key=digests.count)
    reasons = []
    failed = {i for i, d in enumerate(digests) if d != reference}
    if failed:
        reasons.append(f"edge-list digest differs in runs {sorted(failed)}")
    good = [i for i in range(len(runs)) if i not in failed]
    if good:
        first = runs[good[0]]
        check = bench.run("check", "--input", inp, "--edges",
                          first["edges_path"], "--threshold",
                          repr(first["threshold"]), "--seed", bench.seed,
                          *bench.pipeline_args())
        log(f"check: {check['pairs_checked']} sampled pairs re-evaluated, "
            f"{len(check['failures'])} disagree")
        if check["failures"]:
            reasons.extend(check["failures"][:5])
            failed.update(good)
        else:
            recorded[digest_key] = reference
            save_digests(recorded)
    return failed, reasons


class Part:
    """What one part (batch or serve) of a run measured and checked."""

    def __init__(self, runs, attempted, failed, reasons, metrics,
                 traced_s=0.0, untraced_s=0.0):
        self.runs = runs
        self.attempted = attempted
        self.failed = failed
        self.reasons = reasons
        self.metrics = metrics      # name -> (value, unit)
        self.traced_s = traced_s    # traced run: the traced section's time
        self.untraced_s = untraced_s  # and the same section untraced


def batch_untraced(bench, inp, digest_key, inject):
    runs, errors = [], []
    for index in range(BATCH_RUNS):
        edges = bench.work / f"edges-{index}.tsv"
        try:
            run = bench.run("batch", "--input", inp, "--out", edges,
                            *bench.pipeline_args())
            run["edges_path"] = edges
            runs.append(run)
        except ChildFailed as error:
            errors.append(str(error))
    failed, reasons = (batch_checks(bench, inp, runs, digest_key, inject)
                       if runs else (set(), []))
    reasons = errors[:3] + reasons
    if not runs:
        raise ChildFailed("; ".join(reasons))
    metrics = {
        "setup_s": (median(r["setup_s"] for r in runs), "s"),
        "pairs_per_s": (median(r["pairs"] / r["build_s"] for r in runs),
                        "pairs/s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in runs), "MiB"),
    }
    return Part(runs, len(runs) + len(errors), len(failed) + len(errors),
                reasons, metrics)


def span_table(bench, spans_path, kind):
    """name -> (seconds, self seconds) of the stage spans; self = duration
    minus the part of it its child spans cover (children of one span never
    overlap here). Per-query serve spans repeat a name; the last one wins,
    and no metric reads them. The span log is kept as
    .bench_work/spans-<workload>-<kind>.json, the latest traced run's."""
    shutil.copyfile(spans_path, WORK / f"spans-{bench.name}-{kind}.json")
    spans = json.loads(spans_path.read_text())
    covered = {}
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + span["end"] - span["start"])
    table = {}
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        table[span["name"]] = (duration, duration - covered.get(index, 0.0))
    return table


def batch_traced(bench, inp, digest_key, inject):
    """Untraced, traced, untraced: the overhead compares the traced
    pipeline with the faster untraced build around it (a slow outlier, such
    as a process whose kernel resolution flipped, would read as negative
    overhead)."""
    def untraced(name):
        edges = bench.work / f"edges-{name}.tsv"
        run = bench.run("batch", "--input", inp, "--out", edges,
                        *bench.pipeline_args())
        run["edges_path"] = edges
        return run

    before = untraced("before")
    traced_edges = bench.work / "edges-traced.tsv"
    spans_path = bench.work / "spans-batch.json"
    tr = bench.run("trace-batch", "--input", inp, "--out", traced_edges,
                   "--spans", spans_path, *bench.pipeline_args())
    tr["edges_path"] = traced_edges
    after = untraced("after")
    runs = [before, after, tr]
    failed, reasons = batch_checks(bench, inp, runs, digest_key, inject)
    spans = span_table(bench, spans_path, "batch")
    s = {name: own for name, (_, own) in spans.items()}
    e = tr["engine"]
    pairs, m = e["pairs"], tr["samples"]
    b, k = tr["bins"], tr["order"]
    sweep_s = s["sweep"]
    gflop = 2.0 * pairs * m * k * k / 1e9
    rank_bytes = 2 if tr["staged_ranks"] else 4
    swept_bytes = (pairs + e["panels"]) * m * (rank_bytes + 4 * k + 4)
    per_thread = e["pairs_per_thread"]
    threads = tr["threads"]
    # DPI: the pipeline's stage where the workload applies it, else the
    # probe over the built network.
    dpi_s = s["dpi"] if bench.w["dpi"] else s["probe.dpi"]
    metrics = {
        "data.read_s": (s["data.read"], "s"),
        "data.read_mb_per_s": (tr["input_mb"] / s["data.read"], "MiB/s"),
        "preprocess.impute_s": (s["preprocess.impute"], "s"),
        "preprocess.filter_s": (s["preprocess.filter"], "s"),
        "preprocess.rank_s": (s["preprocess.rank"], "s"),
        "statistic.s": (s["statistic"], "s"),
        "null.s": (s["null"], "s"),
        "null.draws_per_s": (tr["q"] / s["null"], "draws/s"),
        "sweep.s": (sweep_s, "s"),
        "sweep.pairs_per_s": (pairs / sweep_s, "pairs/s"),
        "sweep.gflop": (gflop, "GFLOP"),
        "sweep.entropy_cells": (pairs * b * b, "count"),
        "sweep.gflops": (gflop / sweep_s, "GFLOP/s"),
        "sweep.bytes": (swept_bytes, "bytes"),
        "sweep.flop_per_byte": (gflop * 1e9 / swept_bytes, "flop/byte"),
        "sweep.tiles": (e["tiles"], "count"),
        "sweep.panels": (e["panels"], "count"),
        "sweep.panel_fill": (e["panel_fill"], "ratio"),
        "sweep.tile_p50_ms": (e["tile_p50_s"] * 1e3, "ms"),
        "sweep.tile_p95_ms": (e["tile_p95_s"] * 1e3, "ms"),
        "sweep.edges": (e["edges"], "count"),
        "sweep.imbalance": (max(per_thread) / statistics.mean(per_thread),
                            "ratio"),
        "sweep.busy_frac": (sum(tr["sweep_busy_s"]) / (threads * sweep_s),
                            "ratio"),
        "sweep.pairs_per_s_1t": (tr["subset_pairs"] / s["probe.subset_1t"],
                                 "pairs/s"),
        "sweep.scaling_eff": (s["probe.subset_1t"] / s["probe.subset_nt"]
                              / threads, "ratio"),
        "sweep.sink_s": (sweep_s - s["probe.sweep_no_edges"], "s"),
        "dpi.s": (dpi_s, "s"),
        "dpi.triangles": (tr["dpi_triangles"], "count"),
        "dpi.triangles_per_s": (tr["dpi_triangles"] / dpi_s, "triangles/s"),
        "dpi.edges_removed": (tr["dpi_edges_removed"], "count"),
        "output.s": (s["output"], "s"),
        "output.mb_per_s": (tr["output_mb"] / s["output"], "MiB/s"),
    }
    return Part(runs, len(runs), len(failed), reasons, metrics,
                traced_s=spans["pipeline"][0],
                untraced_s=min(before["build_s"], after["build_s"]))


# --- serve ------------------------------------------------------------------

def serve_untraced(bench, inp, window, inject, setup_samples):
    """The closed loop over `window` seconds. With setup_samples > 0 the
    serve part is the whole workload: setup_s is the median of that many
    fresh set-ups (the timed process's and set-up-only ones, half before it
    and half after, so that one slow stretch of the host cannot take them
    all), pairs_per_s the MI pairs the loop answered per second, and
    peak_rss_mb the timed process's."""
    def setup_only():
        return bench.run("serve-setup", "--input", inp,
                         *bench.pipeline_args())

    setups = [setup_only() for _ in range((setup_samples - 1) // 2)]
    main = bench.run("serve", "--input", inp, "--seconds", window,
                     "--warmup-queries", bench.w["warmup_queries"],
                     "--inject-wrong-answer",
                     int(inject == "wrong-serve-answer"), *bench.serve_args())
    setups.append(main)
    while len(setups) < setup_samples:
        setups.append(setup_only())
    main["setups_s"] = [round(x["setup_s"], 4) for x in setups]
    mi, nbr = main["mi_s"], main["nbr_s"]
    if not mi or not nbr:
        raise ChildFailed("serve window completed no query of some kind")
    for kind, samples in (("mi", mi), ("nbr", nbr)):
        beyond = len(samples) - 1 - int(0.95 * len(samples))
        if beyond < 10:
            log(f"warning: {kind}_p95_ms rests on {beyond} samples beyond it")
    metrics = {
        "qps": (main["queries"] / main["window_s"], "queries/s"),
        "mi_p50_ms": (percentile(mi, 0.50) * 1e3, "ms"),
        "mi_p95_ms": (percentile(mi, 0.95) * 1e3, "ms"),
        "nbr_p50_ms": (percentile(nbr, 0.50) * 1e3, "ms"),
        "nbr_p95_ms": (percentile(nbr, 0.95) * 1e3, "ms"),
    }
    if setup_samples:
        metrics.update({
            "setup_s": (median(x["setup_s"] for x in setups), "s"),
            "pairs_per_s": (main["mi_pairs"] / main["window_s"], "pairs/s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
        })
    log(f"serve: {len(mi)} MI + {len(nbr)} neighborhood queries, cache "
        f"{main['cache_hits']} hits / {main['cache_misses']} misses")
    return Part([main], main["queries"], main["failed"], main["failures"],
                metrics)


def serve_traced(bench, inp, inject):
    common = ["--input", inp, "--stream-queries", bench.w["stream_queries"],
              "--nbr-queries", bench.w["nbr_queries"], *bench.serve_args()]
    base = bench.run("serve-trace", *common, "--baseline-only", 1)
    spans_path = bench.work / "spans-serve.json"
    tr = bench.run("serve-trace", *common, "--spans", spans_path,
                   "--inject-wrong-answer",
                   int(inject == "wrong-serve-answer"))
    s = {name: own for name, (_, own) in
         span_table(bench, spans_path, "serve").items()}
    p50 = lambda xs: percentile(xs, 0.50)  # noqa: E731
    full_mi, batcher_mi = p50(tr["full_mi_s"]), p50(tr["batcher_mi_s"])
    hits, misses = tr["cache_hits"], tr["cache_misses"]
    swept = tr["planner_tiles_swept"]
    metrics = {
        "serve.build_s": (s["serve.build"], "s"),
        "serve.listen_s": (s["serve.listen"], "s"),
        "graph.adjacency_s": (s["graph.adjacency"], "s"),
        "serve.mi_rtt_p50_ms": (full_mi * 1e3, "ms"),
        "serve.handle_p50_ms": (tr["mi_handle_p50_s"] * 1e3, "ms"),
        "serve.nbr_handle_p50_ms": (tr["nbr_handle_p50_s"] * 1e3, "ms"),
        "transport.mi_self_ms": ((full_mi - batcher_mi) * 1e3, "ms"),
        "transport.nbr_self_ms": ((p50(tr["full_nbr_s"])
                                   - tr["nbr_handle_p50_s"]) * 1e3, "ms"),
        "batcher.mi_p50_ms": (batcher_mi * 1e3, "ms"),
        "batcher.queries_per_flush": (tr["mi_queries_served"]
                                      / max(tr["flushes"], 1), "ratio"),
        "planner.hit_p50_ms": (p50(tr["planner_hit_s"] or [0.0]) * 1e3, "ms"),
        "planner.miss_p50_ms": (p50(tr["planner_miss_s"] or [0.0]) * 1e3,
                                "ms"),
        "planner.tile_ms": (sum(tr["planner_miss_s"]) / max(swept, 1) * 1e3,
                            "ms"),
        "planner.tiles_swept": (swept, "count"),
        "cache.hit_ratio": (hits / max(hits + misses, 1), "ratio"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.evictions": (tr["cache_evictions"], "count"),
        "graph.neighbors_p50_us": (p50(tr["local_nbr_s"]) * 1e6, "us"),
    }
    return Part([tr["serve"]], base["queries"] + tr["queries"],
                base["failed"] + tr["failed"],
                base["failures"] + tr["failures"], metrics,
                traced_s=tr["full_mi_wall_s"],
                untraced_s=base["full_mi_wall_s"])


# --- main -------------------------------------------------------------------

def run_workload(bench, seconds, trace, digest_key, inject):
    """The workload's parts, batch first; returns them and the metrics."""
    w = bench.w
    inp = bench.generate(w["genes"], bench.work / "input.tsv")
    serve_inp = (inp if w["serve_genes"] == w["genes"] else
                 bench.generate(w["serve_genes"], bench.work / "serve.tsv"))
    if trace:
        parts = [batch_traced(bench, inp, digest_key, inject),
                 serve_traced(bench, serve_inp, inject)]
        metrics = {**parts[1].metrics, **parts[0].metrics}
        # One figure per workload: both traced sections against their
        # untraced twins.
        metrics["trace.overhead_frac"] = (
            sum(p.traced_s for p in parts)
            / sum(p.untraced_s for p in parts) - 1.0, "ratio")
    elif w["batch"]:
        parts = [batch_untraced(bench, inp, digest_key, inject),
                 serve_untraced(bench, serve_inp, seconds / 2, inject, 0)]
        metrics = {**parts[1].metrics, **parts[0].metrics}
    else:
        parts = [serve_untraced(bench, serve_inp, seconds, inject,
                                SETUP_SAMPLES)]
        metrics = dict(parts[0].metrics)
    return inp, parts, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny = the self-test's scale")
    parser.add_argument("--inject", choices=("wrong-serve-answer",
                                             "edit-digest"),
                        help="self-test hooks: corrupt one output")
    args = parser.parse_args(argv)

    workload = {**WORKLOADS[args.workload], **TRACE_STREAMS}
    if args.size == "tiny":
        workload.update(TINY[args.workload], **TINY_STREAMS)
    binary = build()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    bench = Bench(binary, work, args.workload, workload, args.seed)
    try:
        source = source_revision()
        key = f"{args.workload}/{args.size}/{args.seed}/{source}"
        inp, parts, metrics = run_workload(bench, args.seconds, args.trace,
                                           key, args.inject)
        attempted = sum(p.attempted for p in parts)
        failed = sum(p.failed for p in parts)
        reasons = [r for p in parts for r in p.reasons]
        runs = [r for p in parts for r in p.runs]
        record_run({
            "workload": args.workload, "size": args.size, "seed": args.seed,
            "trace": args.trace, "input_sha256": sha256_file(inp),
            "source": source,
            "kernel": [r.get("engine", r).get("kernel") for r in runs],
            "panel_width": [r.get("engine", r).get("panel_width")
                            for r in runs],
            "threads": runs[0]["threads"],
            "build_s": [round(r["build_s"], 4) for r in runs
                        if "build_s" in r],
            "setups_s": [s for r in runs for s in r.get("setups_s", [])],
            "isa": runs[0]["host"]["isa"],
            "topology": runs[0]["host"]["topology"],
            "attempted": attempted, "failed": failed,
            "failures": [str(r) for r in reasons][:5],
        })
        for reason in reasons:
            log(f"check failed: {reason}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and not reasons,
                      "attempted": attempted, "failed": failed,
                      "metrics": {name: metric(value, unit) for name,
                                  (value, unit) in metrics.items()}}),
          flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ChildFailed, subprocess.CalledProcessError, OSError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
