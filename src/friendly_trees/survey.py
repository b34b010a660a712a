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
from dataclasses import dataclass
from functools import partial

from .enumeration import MAX_CATALOG_EDGES, enumerate_trees
from .realizability import (
    FRIENDLY,
    UNFRIENDLY,
    Certificate,
    EdgeBijection,
    exhaustive_search,
    find_realizable_bijection,
    is_realizable,
    recheck_certificate,
)
from .tree import Tree, count, key_values, line_records, parse_ints

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
    """One decided pair, exactly the fields of its ``PAIR`` line.
    ``witness`` is set exactly on friendly rows and ``nodes``, the pruned
    search's node count, exactly on unfriendly ones. A row exists only once
    its recheck agreed: a disagreement raises instead."""

    index_a: int
    index_b: int
    code_a: str
    code_b: str
    verdict: str
    witness: EdgeBijection | None
    nodes: int | None


@dataclass(frozen=True)
class SurveyReport:
    edge_count: int
    tree_count: int
    rows: tuple[SurveyRow, ...]

    @property
    def pair_count(self) -> int:
        return len(self.rows)

    @property
    def friendly(self) -> int:
        return sum(1 for r in self.rows if r.verdict == FRIENDLY)

    @property
    def unfriendly(self) -> int:
        return len(self.rows) - self.friendly


def _decide_pair(edge_count: int, ia: int, ib: int) -> SurveyRow:
    catalog = enumerate_trees(edge_count)
    a = catalog.trees[ia]
    b = catalog.trees[ib]
    cert = find_realizable_bijection(a, b)
    # Pruning bugs are the one way a false counterexample could appear, so
    # every unfriendly verdict is re-derived without pruning.
    if cert.verdict == UNFRIENDLY and not recheck_certificate(a, b, cert):
        raise RuntimeError(
            f"pruned and unpruned searches disagree on pair ({ia}, {ib}) "
            f"at {edge_count} edges"
        )
    return SurveyRow(
        index_a=ia,
        index_b=ib,
        code_a=catalog.codes[ia],
        code_b=catalog.codes[ib],
        verdict=cert.verdict,
        witness=cert.witness,
        nodes=None if cert.verdict == FRIENDLY else cert.nodes,
    )


def survey_pairs(edge_count: int, jobs: int = 1) -> SurveyReport:
    """Decide every unordered pair (self-pairs included) from the catalogue
    of trees with ``edge_count`` edges.

    A row exists only once its evidence is checked: the search re-tests
    each witness whole, and the unpruned scan re-derives each unfriendly
    verdict; a failure raises ``RuntimeError``.

    Pair verdicts are pure functions of the catalogue indices, so any worker
    pool produces the same rows, and ``Executor.map`` returns them in input
    order: the report is identical for every ``jobs`` value. ``jobs`` above
    1 starts a pool of at most ``os.cpu_count()`` workers, and never more
    workers than pairs.
    """
    if type(edge_count) is not int:
        raise ValueError(f"edge_count must be an int, got {edge_count!r}")
    if not 0 <= edge_count <= MAX_SURVEY_EDGES:
        raise ValueError(
            f"surveys support 0..{MAX_SURVEY_EDGES} edges, got {edge_count}"
        )
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an int of at least 1, got {jobs!r}")
    catalog = enumerate_trees(edge_count)
    k = len(catalog)
    index_a = [ia for ia in range(k) for ib in range(ia, k)]
    index_b = [ib for ia in range(k) for ib in range(ia, k)]
    decide = partial(_decide_pair, edge_count)
    if jobs == 1:
        rows = tuple(map(decide, index_a, index_b))
    else:
        # Imported here: loading multiprocessing costs every serial caller
        # about 2 MB and 25 ms.
        from concurrent.futures import ProcessPoolExecutor

        # The pool forks all its workers at the first submit, so never more
        # than there are cores or pairs.
        workers = min(jobs, os.cpu_count() or 1, len(index_a))
        chunk = max(1, len(index_a) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(decide, index_a, index_b, chunksize=chunk))
    return SurveyReport(edge_count, k, rows)


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
    lines.append(f"SUMMARY friendly={report.friendly} unfriendly={report.unfriendly}")
    return "\n".join(lines) + "\n"


def _is_tree_code(code: str, vertex_count: int) -> bool:
    # A parenthesis code of a rooted tree on ``vertex_count`` vertices: one
    # pair per vertex, and only the last character closes the root's pair.
    if len(code) != 2 * vertex_count:
        return False
    depth = 0
    for ch in code[:-1]:
        if ch == "(":
            depth += 1
        elif ch == ")" and depth > 1:
            depth -= 1
        else:
            return False
    return code[-1] == ")" and depth == 1


def parse_report(text: str) -> SurveyReport:
    """Parse a survey report file back into the report it was written
    from: ``parse_report(format_report(r)) == r``.

    The header's ``pairs`` and the SUMMARY counts must agree with the rows.
    Counts are not negative, ``trees`` is at least 1, and every row code is
    the parenthesis code of a tree with ``edges`` edges.
    A survey has one row per unordered pair, in ``enumerate`` order: each
    row has ``ia <= ib``, rows come in strictly increasing ``(ia, ib)``
    order, and ``pairs`` is ``trees * (trees + 1) / 2``. SUMMARY is the last
    line.
    """
    head = summary = None
    rows: list[SurveyRow] = []
    previous = (-1, -1)
    for lineno, fields in line_records(text):
        kind = fields[0]
        if summary is not None:
            raise ValueError(f"line {lineno}: line after SUMMARY {' '.join(fields)!r}")
        if head is None:
            if kind != "SURVEY":
                raise ValueError(f"line {lineno}: missing SURVEY header line")
            head_line = lineno
            head = key_values(lineno, fields[1:], edges=count, trees=count, pairs=count)
            if head["trees"] < 1:
                raise ValueError(
                    f"line {lineno}: trees={head['trees']} but every catalogue has a tree"
                )
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
            for code in (code_a, code_b):
                if not _is_tree_code(code, head["edges"] + 1):
                    raise ValueError(
                        f"line {lineno}: {code!r} is not the code of a tree "
                        f"on {head['edges'] + 1} vertices"
                    )
            witness: EdgeBijection | None = None
            nodes: int | None = None
            if verdict == FRIENDLY:
                witness = parse_ints(lineno, fields[6:], "witness")
                if sorted(witness) != list(range(head["edges"])):
                    raise ValueError(
                        f"line {lineno}: witness is not a permutation of 0..{head['edges'] - 1}"
                    )
            elif verdict == UNFRIENDLY:
                nodes = key_values(lineno, fields[6:], nodes=count)["nodes"]
            else:
                raise ValueError(f"line {lineno}: bad verdict {verdict!r}")
            rows.append(SurveyRow(ia, ib, code_a, code_b, verdict, witness, nodes))
        elif kind == "SUMMARY":
            summary_line = lineno
            summary = key_values(lineno, fields[1:], friendly=count, unfriendly=count)
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
    report = SurveyReport(head["edges"], head["trees"], tuple(rows))
    counts = (report.friendly, report.unfriendly)
    if (summary["friendly"], summary["unfriendly"]) != counts:
        raise ValueError(
            f"line {summary_line}: SUMMARY counts disagree with the rows "
            f"({counts[0]} friendly, {counts[1]} unfriendly)"
        )
    return report


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
    """Both search directions over the fixture pair and the unpruned scan of
    each direction. The theorem holds when all four certificates are
    unfriendly. The forward certificate is the primary payload."""

    forward: Certificate
    reverse: Certificate
    forward_scan: Certificate
    reverse_scan: Certificate

    @property
    def holds(self) -> bool:
        certs = (self.forward, self.reverse, self.forward_scan, self.reverse_scan)
        return all(c.verdict == UNFRIENDLY for c in certs)


def verify_theorem1() -> Theorem1Result:
    """Decide the fixture pair in both directions, and re-derive each
    verdict with the unpruned enumeration over all 7! bijections.

    Both directions are expected unfriendly.
    """
    g = build_G()
    h = build_H()
    return Theorem1Result(
        find_realizable_bijection(g, h),
        find_realizable_bijection(h, g),
        exhaustive_search(g, h),
        exhaustive_search(h, g),
    )


@dataclass(frozen=True)
class ConjectureCheck:
    """Outcome of surveying every pair at 1, 2, ... edges, one report per
    edge count.

    ``findings`` lists every unfriendly row of the reports (with its edge
    count); the check holds when there are none. A survey writes an
    unfriendly row only after the unpruned recheck agreed, so a finding is a
    certified counterexample, not a search artifact.
    """

    reports: tuple[SurveyReport, ...]

    @property
    def findings(self) -> tuple[tuple[int, SurveyRow], ...]:
        return tuple(
            (report.edge_count, row)
            for report in self.reports
            for row in report.rows
            if row.verdict == UNFRIENDLY
        )

    @property
    def holds(self) -> bool:
        return not self.findings


def verify_conjecture(max_edge_count: int = 6, jobs: int = 1) -> ConjectureCheck:
    """Survey every pair with 1..max_edge_count edges and report the outcome."""
    reports = tuple(
        survey_pairs(n, jobs=jobs) for n in range(1, max_edge_count + 1)
    )
    return ConjectureCheck(reports)


def verify_report_witnesses(report: SurveyReport) -> None:
    """Check the report against the catalogue of its edge count and re-run
    every friendly row's witness; raises ``RuntimeError`` on any failure.

    The edge count must have a catalogue, and the tree count and every
    row's indices and two codes must be the catalogue's, so each witness is
    tested on the trees its row names. Every verdict must be friendly or
    unfriendly, and a witness that is not a bijection fails like any other.
    """
    if type(report.edge_count) is not int or not 0 <= report.edge_count <= MAX_CATALOG_EDGES:
        raise RuntimeError(
            f"report has edges={report.edge_count!r} but catalogues support "
            f"0..{MAX_CATALOG_EDGES} edges"
        )
    catalog = enumerate_trees(report.edge_count)
    if report.tree_count != len(catalog):
        raise RuntimeError(
            f"report has trees={report.tree_count} but the catalogue of "
            f"{report.edge_count}-edge trees has {len(catalog)}"
        )
    for row in report.rows:
        pair = (row.index_a, row.index_b)
        if not all(0 <= i < len(catalog) for i in pair):
            raise RuntimeError(f"row {pair} has a tree index outside 0..{len(catalog) - 1}")
        if (row.code_a, row.code_b) != (catalog.codes[row.index_a], catalog.codes[row.index_b]):
            raise RuntimeError(f"row {pair} has codes that are not the catalogue's")
        if row.verdict == UNFRIENDLY:
            continue
        if row.verdict != FRIENDLY:
            raise RuntimeError(f"row {pair} has bad verdict {row.verdict!r}")
        a = catalog.trees[row.index_a]
        b = catalog.trees[row.index_b]
        try:
            sound = row.witness is not None and is_realizable(a, b, row.witness)
        except ValueError:
            sound = False
        if not sound:
            raise RuntimeError(f"friendly row {pair} has no valid witness")
