"""The four workloads, each with its inputs, its rounds and its oracle.

A round is the smallest unit a run repeats: one survey, one census, one pass
over the refutation cases, one pass over the recorded 10-edge pairs. Every
call into the library goes through a module attribute looked up at call
time, so the tracer can wrap it. Checks run outside the timed region and
count failed ops; they never raise.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
import traceback
from dataclasses import dataclass, field

from friendly_trees import cli, enumeration, realizability, survey, tree
from friendly_trees.enumeration import decode_prufer

# The catalogue's cache, kept from before any wrapping so it can be cleared.
CATALOG = enumeration.enumerate_trees
HERE = os.path.dirname(os.path.abspath(__file__))

# OEIS A000055: free trees with 1..12 edges.
TREE_CLASSES = (1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301)

# The 8-edge unfriendly pairs of ``survey --edges 8``: catalogue indices and
# canonical codes, and both trees as edge lists.
SURVEY8_UNFRIENDLY = {
    (9, 43): ("(((()()))((()())))", "((())(())(())()())"),
    (10, 42): ("(((()()))((())()))", "((())(())(())(()))"),
    (12, 42): ("(((()()))(()()()))", "((())(())(())(()))"),
}
CATALOG8_EDGES = {
    9: ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (3, 7), (4, 8)),
    10: ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (3, 7), (2, 8)),
    12: ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (2, 6), (2, 7), (3, 8)),
    42: ((0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (5, 6), (0, 7), (7, 8)),
    43: ((0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (5, 6), (0, 7), (0, 8)),
}


@dataclass
class Round:
    """What one round did: ops completed, seconds spent inside the timed op
    calls, one latency sample per pair decision (or one per round where the
    ops run inside a single library call), and the outputs its check needs."""

    ops: int = 0
    seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)


def run_rounds(workload, seconds: float, first_index: int, tracer=None,
               clock=time.perf_counter) -> list[Round]:
    """Whole rounds within ``seconds`` of wall time: at least one, and then
    another only while the last round's wall time still fits in what is
    left. So a run stops before its budget rather than overrunning it by up
    to a round, and its round count changes only with a large change of
    round time. A round that raises counts all of its ops as failed. Op
    times are read from ``clock``."""
    rounds = []
    begin = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - begin + last <= seconds:
        start, op_start = time.perf_counter(), clock()
        try:
            rounds.append(workload.run_round(first_index + len(rounds), tracer, clock))
        except Exception:  # the program failed: report it, count it, go on
            traceback.print_exc()
            elapsed = clock() - op_start
            ops = workload.ops_per_round
            rounds.append(Round(ops, elapsed, [elapsed * 1e3 / ops], None))
        last = time.perf_counter() - start
    return rounds


def failed_ops(workload, rounds: list[Round]) -> int:
    return sum(r.ops if r.outputs is None else workload.check(r) for r in rounds)


def ops_per_s(rounds: list[Round]) -> float:
    """Ops per second of op time, over all rounds."""
    return sum(r.ops for r in rounds) / sum(r.seconds for r in rounds)


def shuffled(rng: random.Random, count: int) -> list[int]:
    order = list(range(count))
    rng.shuffle(order)
    return order


def _op(tracer, op_id: str) -> None:
    if tracer is not None:
        tracer.op = op_id


class Survey8:
    """``survey --edges 8 --jobs 1`` through ``cli.main``, in process, with a
    cold catalogue. One op is one pair; a survey is a round of 1128 ops.
    Each pair decision, the ``find_realizable_bijection`` call the survey
    makes, is timed as one latency sample."""

    name = "survey8"
    ops_per_round = 1128

    def __init__(self, seed: int, out_dir: str):
        self.out = os.path.join(out_dir, f"survey8-seed{seed}.report")

    def setup(self) -> None:
        self.argv = ["survey", "--edges", "8", "--jobs", "1", "--out", self.out]

    def run_round(self, index: int, tracer=None, clock=time.perf_counter) -> Round:
        CATALOG.cache_clear()
        _op(tracer, str(index))
        latencies: list[float] = []
        decide = survey.find_realizable_bijection

        def timed(a, b):
            begin = clock()
            cert = decide(a, b)
            latencies.append((clock() - begin) * 1e3)
            return cert

        survey.find_realizable_bijection = timed
        start = clock()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(self.argv)
        finally:
            seconds = clock() - start
            survey.find_realizable_bijection = decide
        text = None
        if status == 0:
            with open(self.out, encoding="ascii") as handle:
                text = handle.read()
        return Round(self.ops_per_round, seconds, latencies, [text])

    def check(self, rnd: Round) -> int:
        return 0 if check_survey8(rnd.outputs[0]) else rnd.ops


def check_survey8(text: str | None) -> bool:
    """The report parses, has 1125 friendly and 3 unfriendly rows, the
    unfriendly rows are exactly the three known pairs, and every friendly
    witness is realizable."""
    if text is None:
        return False
    try:
        report = survey.parse_report(text)
        unfriendly = {(r.index_a, r.index_b): (r.code_a, r.code_b)
                      for r in report.rows if r.verdict == realizability.UNFRIENDLY}
        ok = (report.edge_count == 8 and report.tree_count == 47 and len(report.rows) == 1128
              and (report.friendly, report.unfriendly) == (1125, 3)
              and unfriendly == SURVEY8_UNFRIENDLY)
        survey.verify_report_witnesses(report)
    except (ValueError, KeyError, IndexError, RuntimeError):
        return False
    return ok


class Pairs10:
    """Decide recorded random 10-edge pairs with ``find_realizable_bijection``,
    as ``check`` would, building both trees afresh for every decision. A
    round is one pass over all recorded pairs, in a seeded order."""

    name = "pairs10"

    def __init__(self, seed: int, out_dir: str):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.pairs = load_pairs10()
        self.ops_per_round = len(self.pairs)

    def run_round(self, index: int, tracer=None, clock=time.perf_counter) -> Round:
        rnd = Round()
        for k, i in enumerate(shuffled(self.rng, len(self.pairs))):
            n, ea, eb, _ = self.pairs[i]
            _op(tracer, f"{index}:{k}")
            start = clock()
            a, b = tree.Tree(n, ea), tree.Tree(n, eb)
            cert = realizability.find_realizable_bijection(a, b)
            seconds = clock() - start
            rnd.seconds += seconds
            rnd.latencies_ms.append(seconds * 1e3)
            rnd.outputs.append((i, n, ea, eb, cert.verdict, cert.witness))
        rnd.ops = len(self.pairs)
        return rnd

    def check(self, rnd: Round) -> int:
        return sum(not check_pair10(self.pairs[out[0]][3], *out[1:]) for out in rnd.outputs)


def check_pair10(recorded: str, n: int, ea, eb, verdict: str, witness) -> bool:
    """The verdict is the recorded one, and a friendly witness is realizable."""
    if verdict != recorded:
        return False
    if verdict != realizability.FRIENDLY:
        return True
    try:
        return witness is not None and realizability.is_realizable(
            tree.Tree(n, ea), tree.Tree(n, eb), witness)
    except ValueError:
        return False


def load_pairs10() -> list[tuple]:
    """(vertex count, edges of a, edges of b, recorded verdict) per line of
    ``pairs10.txt``."""
    pairs = []
    with open(os.path.join(HERE, "pairs10.txt"), encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            sa, sb, verdict, _ = line.split()
            seqs = [tuple(map(int, s.split(","))) for s in (sa, sb)]
            m = len(seqs[0]) + 2
            pairs.append((m, *(tuple(decode_prufer(s, m)) for s in seqs), verdict))
    return pairs


class Refute:
    """The eight known directed unfriendly cases: the 7-edge fixture pair and
    the three 8-edge pairs of ``survey --edges 8``, each way round. One op
    builds the two trees, decides the case and rechecks it without pruning;
    a round is one pass, in a seeded order."""

    name = "refute"

    def __init__(self, seed: int, out_dir: str):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        g, h = survey.build_G(), survey.build_H()
        cases = [(g.vertex_count, g.edges, h.edges)]
        cases += [(9, CATALOG8_EDGES[i], CATALOG8_EDGES[j]) for i, j in SURVEY8_UNFRIENDLY]
        self.cases = cases + [(n, eb, ea) for n, ea, eb in cases]
        self.ops_per_round = len(self.cases)

    def run_round(self, index: int, tracer=None, clock=time.perf_counter) -> Round:
        rnd = Round()
        for k, i in enumerate(shuffled(self.rng, len(self.cases))):
            n, ea, eb = self.cases[i]
            _op(tracer, f"{index}:{k}")
            start = clock()
            a, b = tree.Tree(n, ea), tree.Tree(n, eb)
            cert = realizability.find_realizable_bijection(a, b)
            rechecked = realizability.recheck_certificate(a, b, cert)
            seconds = clock() - start
            rnd.seconds += seconds
            rnd.latencies_ms.append(seconds * 1e3)
            rnd.outputs.append((cert.verdict, rechecked))
        rnd.ops = len(self.cases)
        return rnd

    def check(self, rnd: Round) -> int:
        return sum(not check_refutation(*out) for out in rnd.outputs)


def check_refutation(verdict: str, rechecked: bool) -> bool:
    return verdict == realizability.UNFRIENDLY and rechecked is True


class Census:
    """``prufer_oracle_count(7)`` (262,144 Prüfer decodes), then a cold
    ``enumerate_trees(1..12)``. One op is one Prüfer sequence."""

    name = "census"
    edges = 7

    def __init__(self, seed: int, out_dir: str):
        pass

    def setup(self) -> None:
        m = self.edges + 1
        self.ops_per_round = m ** (m - 2)

    def run_round(self, index: int, tracer=None, clock=time.perf_counter) -> Round:
        CATALOG.cache_clear()
        _op(tracer, str(index))
        start = clock()
        count = enumeration.prufer_oracle_count(self.edges)
        enumeration.enumerate_trees(len(TREE_CLASSES))
        seconds = clock() - start
        sizes = tuple(len(CATALOG(n)) for n in range(1, len(TREE_CLASSES) + 1))
        return Round(self.ops_per_round, seconds, [seconds * 1e3 / self.ops_per_round], [(count, sizes)])

    def check(self, rnd: Round) -> int:
        return 0 if check_census(*rnd.outputs[0]) else rnd.ops


def check_census(count: int, sizes: tuple) -> bool:
    return count == TREE_CLASSES[Census.edges - 1] and sizes == TREE_CLASSES


WORKLOADS = {w.name: w for w in (Survey8, Pairs10, Refute, Census)}


def reference_round(out_dir: str, tracer) -> None:
    """A small run through every layer, ``survey --edges 7`` via the CLI plus
    its witness check. A traced run measures a layer's time here when its
    workload never calls that layer."""
    CATALOG.cache_clear()
    tracer.op = "ref"
    out = os.path.join(out_dir, "reference7.report")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["survey", "--edges", "7", "--jobs", "1", "--out", out])
    with open(out, encoding="ascii") as handle:
        survey.verify_report_witnesses(survey.parse_report(handle.read()))


def survey_seconds(edges: int, jobs: int, out_dir: str) -> float:
    """Wall time of one cold ``survey`` through the CLI."""
    CATALOG.cache_clear()
    out = os.path.join(out_dir, f"jobs{jobs}-{edges}.report")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["survey", "--edges", str(edges), "--jobs", str(jobs), "--out", out])
    return time.perf_counter() - start
