"""Run workloads on several seeds, one run at a time, and summarise each metric.

    python3 perfbench/summarize.py --seeds 1-10 --out perfbench/baseline.json

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median. A spread wider
than the metric's bound in ``BENCHMARK.json`` is flagged. With ``--compare``
it also gives each median's change against an earlier summary, counted
positive when worse, and flags a change worse than the bound:

    python3 perfbench/summarize.py --seeds 11-20 --compare perfbench/baseline.json

Run it from the repository root, on an otherwise idle machine: a second
process on a 2-core host slows every run it overlaps.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--compare", help="an earlier summary to compare the medians with")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            earlier = json.load(handle)["workloads"]
    summary: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
            env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        env.pop("seed")
        rows = {}
        print(f"{workload}: {attempted} ops attempted, {failed} failed")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
            flag = "  WIDER THAN BOUND" if name in bounds and spread > bounds[name] else ""
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before and before["median"]:
                change = median / before["median"] - 1
                worse = -change if better[name] == "higher" else change
                rows[name]["worse_than_compared"] = worse
                flag += f"  worse by {worse:+.3f}"
                if name in bounds and worse > bounds[name]:
                    flag += "  WORSE THAN BOUND"
            print(f"  {name:34} {median:<14.6g} {units[name]:6} spread {spread:.3f}{flag}")
        summary["workloads"][workload] = {"seeds": args.seeds, "attempted": attempted,
                                          "failed": failed, "env": env, "metrics": rows}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
