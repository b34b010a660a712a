"""Show that the benchmark's checks can fail.

Runs a small real round of each workload, confirms that its check passes,
then injects one fault at a time into the round's outputs and confirms that
the benchmark's own accounting counts it as failed ops. Exits 1 if a clean
round fails or a fault goes unnoticed. Run from the repository root:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

from run import OUT, SRC

sys.path.insert(0, SRC)

import workloads  # noqa: E402
from friendly_trees import survey  # noqa: E402


def swap_row(text: str, old: str, new: str) -> str:
    if old not in text:
        raise RuntimeError(f"report has no {old!r}")
    return text.replace(old, new, 1)


def faulty(clean: workloads.Round, output) -> workloads.Round:
    """The clean round with its first output replaced by ``output``."""
    return dataclasses.replace(clean, outputs=[output] + clean.outputs[1:])


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    g, h = survey.build_G(), survey.build_H()
    cases = []

    pairs = workloads.Pairs10(0, OUT)
    pairs.setup()
    pairs.pairs = pairs.pairs[:5]  # the five cheapest recorded pairs
    rnd = pairs.run_round(0)
    i, n, ea, eb, verdict, witness = rnd.outputs[0]
    cases += [
        ("pairs10", "clean", pairs, rnd),
        ("pairs10", "witness not a bijection", pairs,
         faulty(rnd, (i, n, ea, eb, verdict, (witness[0],) + witness[:-1]))),
        # Every bijection between the fixture trees is unrealizable.
        ("pairs10", "witness a wrong bijection", pairs,
         faulty(rnd, (i, g.vertex_count, g.edges, h.edges, verdict, tuple(range(g.edge_count))))),
        ("pairs10", "flipped verdict", pairs, faulty(rnd, (i, n, ea, eb, "unfriendly", None))),
    ]

    refute = workloads.Refute(0, OUT)
    refute.setup()
    refute.cases = refute.cases[:1]  # the 7-edge fixture pair
    rnd = refute.run_round(0)
    cases += [
        ("refute", "clean", refute, rnd),
        ("refute", "flipped verdict", refute, faulty(rnd, ("friendly", True))),
        ("refute", "failed recheck", refute, faulty(rnd, ("unfriendly", False))),
    ]

    census = workloads.Census(0, OUT)
    census.setup()
    rnd = census.run_round(0)
    count, sizes = rnd.outputs[0]
    cases += [
        ("census", "clean", census, rnd),
        ("census", "wrong census count", census, faulty(rnd, (count - 1, sizes))),
        ("census", "wrong catalogue size", census, faulty(rnd, (count, sizes[:-1] + (sizes[-1] + 1,)))),
    ]

    survey8 = workloads.Survey8(0, OUT)
    survey8.setup()
    rnd = survey8.run_round(0)
    text = rnd.outputs[0]
    row = next(line for line in text.splitlines() if " friendly " in line)
    fields = row.split()
    broken = " ".join(fields[:-1] + fields[-2:-1])  # last image repeated
    cases += [
        ("survey8", "clean", survey8, rnd),
        ("survey8", "witness not a bijection", survey8, faulty(rnd, swap_row(text, row, broken))),
        ("survey8", "flipped verdict", survey8,
         faulty(rnd, swap_row(text, "unfriendly nodes=46864", "friendly 0 1 2 3 4 5 6 7"))),
        ("survey8", "wrong summary", survey8,
         faulty(rnd, swap_row(text, "SUMMARY friendly=1125", "SUMMARY friendly=1124"))),
    ]

    bad = 0
    print(f"{'workload':8} {'fault':26} {'failed':>7} {'of':>7} {'failed_frac':>11}  counted")
    for name, fault, workload, rnd in cases:
        failed = workloads.failed_ops(workload, [rnd])
        counted = failed == 0 if fault == "clean" else failed > 0
        bad += not counted
        print(f"{name:8} {fault:26} {failed:7} {rnd.ops:7} {failed / rnd.ops:11.4g}  {'yes' if counted else 'NO'}")
    print("self-check", "passed" if not bad else f"FAILED ({bad} cases)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
