"""Fixture trees, exhaustive pairwise friendliness surveys, report files.

The two 7-edge fixtures are the known unfriendly pair: one tree is two
3-stars joined by an edge between one leaf of each, the other is a spider
with a degree-4 hub, one pendant edge and three legs of length 2. Surveys
decide every unordered pair from a catalogue, always recheck unfriendly
verdicts with the unpruned enumerator, and persist rows in a stable text
format written atomically.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .enumeration import enumerate_trees
from .realizability import (
    FRIENDLY,
    UNFRIENDLY,
    Certificate,
    EdgeBijection,
    find_realizable_bijection,
    is_realizable,
    recheck_certificate,
)
from .tree import Tree, key_values, line_records, parse_ints

MAX_SURVEY_EDGES = 8


def build_G() -> Tree:
    """The 8-vertex fixture made of two 3-stars joined leaf to leaf.

    Vertices: 0 and 4 are the star hubs; 3 and 7 are the joined leaves.
    Edge 0 is the joining edge, then the first hub's edges, then the
    second's.
    """
    return Tree(8, [(3, 7), (0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])


def build_H() -> Tree:
    """The 8-vertex spider fixture: hub of degree 4, one pendant edge, three
    legs of length 2.

    Vertex 0 is the hub, 1 the pendant leaf, 2..4 the mid-leg vertices,
    5..7 the leg tips. Edges: pendant, the three hub-to-mid edges, then the
    three mid-to-tip edges.
    """
    return Tree(8, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 5), (3, 6), (4, 7)])


@dataclass(frozen=True)
class SurveyRow:
    """One decided pair. ``witness`` is set exactly on friendly rows;
    ``nodes`` is the pruned search's node count. ``recheck_passed`` is None
    when no recheck ran, True when it ran and agreed (a disagreement raises
    instead of producing a row)."""

    index_a: int
    index_b: int
    code_a: str
    code_b: str
    verdict: str
    witness: EdgeBijection | None
    nodes: int
    recheck_passed: bool | None


@dataclass(frozen=True)
class SurveyReport:
    edge_count: int
    tree_count: int
    rows: tuple[SurveyRow, ...]
    friendly: int
    unfriendly: int
    seconds: float

    @property
    def pair_count(self) -> int:
        return len(self.rows)


def _decide_pair(edge_count: int, ia: int, ib: int, recheck_witness: bool) -> SurveyRow:
    catalog = enumerate_trees(edge_count)
    a = catalog.trees[ia]
    b = catalog.trees[ib]
    cert = find_realizable_bijection(a, b)
    recheck_passed: bool | None = None
    # Pruning bugs are the one way a false counterexample could appear, so
    # every unfriendly verdict is re-derived without pruning.
    if cert.verdict == UNFRIENDLY or recheck_witness:
        if not recheck_certificate(a, b, cert):
            problem = (
                "pruned and unpruned searches disagree"
                if cert.verdict == UNFRIENDLY
                else "stored witness failed re-verification"
            )
            raise RuntimeError(f"{problem} on pair ({ia}, {ib}) at {edge_count} edges")
        recheck_passed = True
    return SurveyRow(
        index_a=ia,
        index_b=ib,
        code_a=catalog.codes[ia],
        code_b=catalog.codes[ib],
        verdict=cert.verdict,
        witness=cert.witness,
        nodes=cert.nodes,
        recheck_passed=recheck_passed,
    )


def _decide_pair_task(task: tuple[int, int, int, bool]) -> SurveyRow:
    return _decide_pair(*task)


def survey_pairs(
    edge_count: int,
    jobs: int = 1,
    recheck_witnesses: bool = False,
) -> SurveyReport:
    """Decide every unordered pair (self-pairs included) from the catalogue
    of trees with ``edge_count`` edges.

    Pair verdicts are pure functions of the catalogue indices, so any worker
    pool produces the same rows; rows are sorted before assembly and the
    report is identical for every ``jobs`` value.
    """
    if not 0 <= edge_count <= MAX_SURVEY_EDGES:
        raise ValueError(
            f"surveys support 0..{MAX_SURVEY_EDGES} edges, got {edge_count}"
        )
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    start = time.perf_counter()
    catalog = enumerate_trees(edge_count)
    k = len(catalog)
    tasks = [
        (edge_count, ia, ib, recheck_witnesses)
        for ia in range(k)
        for ib in range(ia, k)
    ]
    if jobs == 1:
        results = [_decide_pair_task(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_decide_pair_task, tasks, chunksize=chunk))
    rows = tuple(sorted(results, key=lambda r: (r.index_a, r.index_b)))
    friendly = sum(1 for r in rows if r.verdict == FRIENDLY)
    return SurveyReport(
        edge_count=edge_count,
        tree_count=k,
        rows=rows,
        friendly=friendly,
        unfriendly=len(rows) - friendly,
        seconds=time.perf_counter() - start,
    )


def format_report(report: SurveyReport) -> str:
    lines = [
        f"SURVEY edges={report.edge_count} trees={report.tree_count} "
        f"pairs={report.pair_count}"
    ]
    for r in report.rows:
        head = f"PAIR {r.index_a} {r.index_b} {r.code_a} {r.code_b} {r.verdict}"
        if r.verdict == FRIENDLY:
            tail = " ".join(map(str, r.witness or ()))
            lines.append(f"{head} {tail}".rstrip())
        else:
            lines.append(f"{head} nodes={r.nodes}")
    lines.append(
        f"SUMMARY friendly={report.friendly} unfriendly={report.unfriendly} "
        f"seconds={report.seconds:.3f}"
    )
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> SurveyReport:
    """Parse a survey report file back into rows.

    Node counts of friendly rows and recheck flags are not part of the file
    format, so reloaded rows carry ``nodes=0`` and ``recheck_passed=None``.
    The header's ``pairs`` and the SUMMARY counts must agree with the rows.
    A survey has one row per unordered pair, in ``enumerate`` order: each
    row has ``ia <= ib``, rows come in strictly increasing ``(ia, ib)``
    order, and ``pairs`` is ``trees * (trees + 1) / 2``.
    """
    head = summary = None
    rows: list[SurveyRow] = []
    previous = (-1, -1)
    for lineno, fields in line_records(text):
        kind = fields[0]
        if head is None:
            if kind != "SURVEY":
                raise ValueError(f"line {lineno}: missing SURVEY header line")
            head_line = lineno
            head = key_values(lineno, fields[1:], edges=int, trees=int, pairs=int)
        elif kind == "PAIR" and len(fields) >= 6:
            ia, ib = parse_ints(lineno, fields[1:3], "tree indices")
            if not (0 <= ia < head["trees"] and 0 <= ib < head["trees"]):
                raise ValueError(f"line {lineno}: tree index outside 0..{head['trees'] - 1}")
            if ia > ib:
                raise ValueError(f"line {lineno}: tree indices {ia} > {ib}")
            if (ia, ib) <= previous:
                raise ValueError(
                    f"line {lineno}: duplicate or out-of-order pair ({ia}, {ib}) "
                    f"after {previous}"
                )
            previous = (ia, ib)
            code_a, code_b, verdict = fields[3:6]
            witness: EdgeBijection | None = None
            nodes = 0
            if verdict == FRIENDLY:
                witness = parse_ints(lineno, fields[6:], "witness")
                if sorted(witness) != list(range(head["edges"])):
                    raise ValueError(
                        f"line {lineno}: witness is not a permutation of 0..{head['edges'] - 1}"
                    )
            elif verdict == UNFRIENDLY:
                nodes = key_values(lineno, fields[6:], nodes=int)["nodes"]
            else:
                raise ValueError(f"line {lineno}: bad verdict {verdict!r}")
            rows.append(SurveyRow(ia, ib, code_a, code_b, verdict, witness, nodes, None))
        elif kind == "SUMMARY" and summary is None:
            summary_line = lineno
            summary = key_values(lineno, fields[1:], friendly=int, unfriendly=int, seconds=float)
        else:
            raise ValueError(f"line {lineno}: unrecognized line {' '.join(fields)!r}")
    if head is None:
        raise ValueError("missing SURVEY header line")
    if summary is None:
        raise ValueError("missing SUMMARY line")
    if head["pairs"] != len(rows):
        raise ValueError(f"line {head_line}: pairs={head['pairs']} but {len(rows)} PAIR rows")
    expected = head["trees"] * (head["trees"] + 1) // 2
    if head["pairs"] != expected:
        raise ValueError(
            f"line {head_line}: pairs={head['pairs']} but trees={head['trees']} "
            f"make {expected} unordered pairs"
        )
    friendly = sum(1 for r in rows if r.verdict == FRIENDLY)
    unfriendly = len(rows) - friendly
    if (summary["friendly"], summary["unfriendly"]) != (friendly, unfriendly):
        raise ValueError(
            f"line {summary_line}: SUMMARY counts disagree with the rows "
            f"({friendly} friendly, {unfriendly} unfriendly)"
        )
    return SurveyReport(
        edge_count=head["edges"],
        tree_count=head["trees"],
        rows=tuple(rows),
        friendly=friendly,
        unfriendly=unfriendly,
        seconds=summary["seconds"],
    )


def write_report(report: SurveyReport, path: str) -> None:
    """Write the report atomically: temp file in the target directory, then
    rename over the destination."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".survey-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as handle:
            handle.write(format_report(report))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Theorem1Result:
    """Both search directions over the fixture pair, plus optional unpruned
    rechecks. The forward certificate is the primary payload."""

    forward: Certificate
    reverse: Certificate
    forward_recheck: bool | None
    reverse_recheck: bool | None

    @property
    def holds(self) -> bool:
        return (
            self.forward.verdict == UNFRIENDLY
            and self.reverse.verdict == UNFRIENDLY
            and self.forward_recheck is not False
            and self.reverse_recheck is not False
        )


def verify_theorem1(recheck: bool = False) -> Theorem1Result:
    """Decide the fixture pair in both directions.

    Both directions are expected unfriendly; with ``recheck`` the unpruned
    enumeration re-derives each verdict over the full bijection space.
    """
    g = build_G()
    h = build_H()
    forward = find_realizable_bijection(g, h)
    reverse = find_realizable_bijection(h, g)
    forward_recheck = reverse_recheck = None
    if recheck:
        forward_recheck = recheck_certificate(g, h, forward)
        reverse_recheck = recheck_certificate(h, g, reverse)
    return Theorem1Result(forward, reverse, forward_recheck, reverse_recheck)


@dataclass(frozen=True)
class ConjectureCheck:
    """Outcome of surveying every pair at every edge count up to the bound.

    ``findings`` lists every unfriendly row (with its edge count); the check
    holds when there are none. Unfriendly rows always carry a passed
    unpruned recheck, so a finding is a certified counterexample, not a
    search artifact.
    """

    max_edge_count: int
    reports: tuple[SurveyReport, ...]
    findings: tuple[tuple[int, SurveyRow], ...]

    @property
    def holds(self) -> bool:
        return not self.findings


def verify_conjecture(max_edge_count: int = 6, jobs: int = 1) -> ConjectureCheck:
    """Survey every pair with 1..max_edge_count edges and report the outcome."""
    reports = tuple(
        survey_pairs(n, jobs=jobs) for n in range(1, max_edge_count + 1)
    )
    findings = tuple(
        (report.edge_count, row)
        for report in reports
        for row in report.rows
        if row.verdict == UNFRIENDLY
    )
    return ConjectureCheck(max_edge_count, reports, findings)


def verify_report_witnesses(report: SurveyReport) -> None:
    """Re-run every friendly row's witness; raises on any failure."""
    catalog = enumerate_trees(report.edge_count)
    for row in report.rows:
        if row.verdict != FRIENDLY:
            continue
        a = catalog.trees[row.index_a]
        b = catalog.trees[row.index_b]
        if row.witness is None or not is_realizable(a, b, row.witness):
            raise RuntimeError(
                f"friendly row ({row.index_a}, {row.index_b}) has no valid witness"
            )
