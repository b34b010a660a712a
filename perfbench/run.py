"""Benchmark of the friendly_trees package.

Run from the repository root:

    python3 perfbench/run.py --workload survey8 --seed 1 --seconds 20 --trace 0

Each run imports the package from ``src/``, builds the workload's inputs
from the seed, and repeats whole rounds of the workload in one process
(a closed loop at ``--jobs 1``) until ``--seconds`` have passed; pairs10's
round is one pass over all of its pairs. Every op's output is then checked
against the workload's oracle. With ``--trace 0`` the run reports the
end-to-end metrics, with rates and times scaled to nominal host speed by
``hostprobe.py``; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics. The last line of standard
output is one JSON object; the lines before it give every metric with its
unit, and the environment. The full result, and the spans of a traced run,
are written under ``.perfbench/``. Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from hostprobe import NOMINAL, HostProbe, probe_seconds

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 11


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds of import plus input generation, and of one "
                             "host probe after it, and exit")
    return parser.parse_args(argv)


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile: the mean of the
    order statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density, which
    moves less from run to run than any single order statistic."""
    ordered = sorted(values)
    n, p, steps = len(ordered), q / 100, 64
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):  # midpoint rule over ((i)/n, (i+1)/n)
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
                           for t in ts))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    """Where and on what the numbers were measured. The checkout may not be
    a git repository, so the package sources are also hashed."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "friendly_trees")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def setup_seconds(args: argparse.Namespace, first: tuple[float, float]) -> list[tuple[float, float]]:
    """``first``, this process's own set-up, plus more from fresh
    interpreters: each the seconds of import and input generation, and the
    seconds of one host probe run right after it in the same process."""
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        setup, probe = map(float, done.stdout.split()[-2:])
        samples.append((setup, probe))
    return samples


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "friendly_trees", "__init__.py")):
        print(f"error: no friendly_trees package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    import friendly_trees

    if os.path.dirname(os.path.abspath(friendly_trees.__file__)) != os.path.join(SRC, "friendly_trees"):
        print(f"error: imported friendly_trees from {friendly_trees.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    workload.setup()
    setup_here = (time.perf_counter() - START, probe_seconds())
    if args.setup_only:
        print(*map(repr, setup_here))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    env = environment(args.seed)
    info: dict = {}
    if args.trace:
        metrics, rounds, failed, extra = traced_run(workload, args)
        listed = spec["per_layer"]
    else:
        setup = setup_seconds(args, setup_here)
        probe = HostProbe()
        probe.start()
        try:
            rounds = workloads.run_rounds(workload, args.seconds, 0, clock=probe.clock)
        finally:
            probe.stop()
        failed = workloads.failed_ops(workload, rounds)
        latencies = [x for r in rounds for x in r.latencies_ms]
        slowdown = probe.slowdown
        raw = {"ops_per_s": workloads.ops_per_s(rounds), "pair_p90_ms": percentile(latencies, 90)}
        metrics = {
            "ops_per_s": raw["ops_per_s"] * slowdown,
            "pair_p90_ms": raw["pair_p90_ms"] / slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(seconds * NOMINAL / probe for seconds, probe in setup),
        }
        # Printed and recorded, but not bounded: the wall-clock figures, the
        # median latency, whose spread over ten runs of pairs10 reached the
        # largest bound allowed (see README.md), and the sample count.
        info = {"host_slowdown": (slowdown, "x"),
                "raw_ops_per_s": (raw["ops_per_s"], "1/s"),
                "raw_pair_p90_ms": (raw["pair_p90_ms"], "ms"),
                "pair_p50_ms": (percentile(latencies, 50) / slowdown, "ms"),
                "latency_samples": (len(latencies), "count")}
        extra = {"info": {k: v for k, (v, _) in info.items()}, "latencies_ms": latencies,
                 "probe_s": probe.samples,
                 "setup_samples_s": [seconds for seconds, _ in setup],
                 "setup_probe_s": [probe for _, probe in setup]}
        listed = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    attempted = sum(r.ops for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {**result, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "failed_frac": failed / attempted, "rounds": len(rounds),
              "round_seconds": [r.seconds for r in rounds], "env": env, **extra}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{name}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for m in listed:
        print(f"{m['name']:32} {metrics[m['name']]!r} {m['unit']}")
    for key, (value, unit) in info.items():
        print(f"{key:32} {value!r} {unit} (not bounded)")
    print(f"{'failed_frac':32} {failed / attempted!r} fraction ({failed} of {attempted} ops)")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def traced_run(workload, args: argparse.Namespace) -> tuple[dict, list, int, dict]:
    """Pairs of rounds, one untraced and one traced, while a pair still fits
    in ``--seconds``, so that both halves see the same host; then the checks
    of the traced rounds, the reference round and the replays. Returns the
    per-layer metrics, every round, the failed ops, and extras for the
    result file."""
    import workloads
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced, indices = [], [], []
    begin = time.perf_counter()
    last = 0.0
    while not traced or time.perf_counter() - begin + last <= args.seconds:
        start = time.perf_counter()
        untraced += workloads.run_rounds(workload, 0, 2 * len(traced))
        indices.append(2 * len(traced) + 1)
        tracer.install()
        try:
            traced += workloads.run_rounds(workload, 0, indices[-1], tracer)
        finally:
            tracer.uninstall()
        last = time.perf_counter() - start
    failed = workloads.failed_ops(workload, untraced)
    tracer.install()
    try:
        work_counts = tracer.take_counts()
        for i, rnd in zip(indices, traced):
            tracer.op = f"{i}:check"
            failed += workloads.failed_ops(workload, [rnd])
        tracer.take_counts()
        workloads.reference_round(OUT, tracer)
        ref_counts = tracer.take_counts()
    finally:
        tracer.uninstall()

    if args.workload == "survey8":
        jobs1 = statistics.median(r.seconds for r in untraced)
        jobs2 = workloads.survey_seconds(8, 2, OUT)
    else:
        jobs1 = workloads.survey_seconds(7, 1, OUT)
        jobs2 = workloads.survey_seconds(7, 2, OUT)
    metrics, extra = layer_metrics(tracer.spans, len(traced), work_counts, ref_counts)
    metrics["survey.jobs2_speedup"] = jobs1 / jobs2
    metrics["trace.overhead_frac"] = 1 - workloads.ops_per_s(traced) / workloads.ops_per_s(untraced)
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return metrics, untraced + traced, failed, {"traced_rounds": len(traced), **extra}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
