"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Criterion 4 compares catalogue and census through 9 edges here
and at 10 edges in the ``slow`` set.
"""

import math
import random
import time
from itertools import combinations_with_replacement

import pytest

from friendly_trees.cli import main
from friendly_trees.enumeration import enumerate_trees, prufer_oracle_count
from friendly_trees.linking import same_side, same_side_bruteforce, unlinked
from friendly_trees.realizability import (
    FRIENDLY,
    UNFRIENDLY,
    exhaustive_search,
    find_realizable_bijection,
    is_realizable,
)
from friendly_trees.survey import (
    build_G,
    build_H,
    format_report,
    parse_report,
    survey_pairs,
    verify_conjecture,
    verify_report_witnesses,
    verify_theorem1,
    write_report,
)
from friendly_trees.tree import canonical_code

from helpers import random_tree, relabel


def record(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def rechecked(edge_count: int, row) -> bool:
    """An unpruned scan of the row's two catalogue trees, independent of the
    survey, tests all ``edge_count!`` bijections and finds none realizable."""
    catalog = enumerate_trees(edge_count)
    scan = exhaustive_search(catalog.trees[row.index_a], catalog.trees[row.index_b])
    return scan.verdict == UNFRIENDLY and scan.checked == math.factorial(edge_count)


@pytest.fixture(scope="module")
def conjecture6():
    start = time.perf_counter()
    check = verify_conjecture(6)
    return check, time.perf_counter() - start


@pytest.fixture(scope="module")
def survey7():
    start = time.perf_counter()
    report = survey_pairs(7)
    return report, time.perf_counter() - start


def test_criterion_1_theorem1_reproduction(capsys):
    start = time.perf_counter()
    result = verify_theorem1()
    forward_full = exhaustive_search(build_G(), build_H())
    reverse_full = exhaustive_search(build_H(), build_G())
    with capsys.disabled():
        cli_status = main(["verify-theorem1"])
    elapsed = time.perf_counter() - start

    both_unfriendly = (
        result.forward.verdict == UNFRIENDLY and result.reverse.verdict == UNFRIENDLY
    )
    recheck_passed = result.forward_scan == forward_full and result.reverse_scan == reverse_full
    full_space = (
        forward_full.checked == 5040
        and reverse_full.checked == 5040
        and forward_full.verdict == UNFRIENDLY
        and reverse_full.verdict == UNFRIENDLY
    )
    ok = (
        both_unfriendly
        and recheck_passed
        and full_space
        and cli_status == 0
        and elapsed < 10.0
    )
    record(
        1,
        ok,
        f"unfriendly both directions, unpruned pass covered 5040/5040 "
        f"bijections with no realizable one, cli exit {cli_status}, "
        f"{elapsed:.2f}s (< 10s)",
    )
    assert ok


def test_criterion_2_conjecture_survey(conjecture6):
    check, elapsed = conjecture6
    all_decided = all(
        report.pair_count == report.tree_count * (report.tree_count + 1) // 2
        and all(row.verdict in (FRIENDLY, UNFRIENDLY) for row in report.rows)
        for report in check.reports
    )
    total_pairs = sum(report.pair_count for report in check.reports)
    certified = all(rechecked(edge_count, row) for edge_count, row in check.findings)
    if check.findings:
        print("criterion 2: UNFRIENDLY PAIRS FOUND AT 6 OR FEWER EDGES:")
        for edge_count, row in check.findings:
            print(
                f"  edges={edge_count} pair=({row.index_a}, {row.index_b}) "
                f"codes=({row.code_a}, {row.code_b}) recheck={rechecked(edge_count, row)}"
            )
    ok = all_decided and certified and check.holds and elapsed < 300.0
    record(
        2,
        ok,
        f"{total_pairs} pairs decided at 1..6 edges, "
        f"unfriendly={len(check.findings)} (expected 0), {elapsed:.2f}s (< 300s)",
    )
    assert ok


def test_criterion_3_seven_edge_survey(survey7):
    report, elapsed = survey7
    target = {canonical_code(build_G()), canonical_code(build_H())}
    fixture_rows = [
        row for row in report.rows if {row.code_a, row.code_b} == target
    ]
    unfriendly_rows = [row for row in report.rows if row.verdict == UNFRIENDLY]
    for row in unfriendly_rows:
        print(
            f"  unfriendly at 7 edges: ({row.index_a}, {row.index_b}) "
            f"codes=({row.code_a}, {row.code_b}) recheck={rechecked(7, row)}"
        )
    ok = (
        len(fixture_rows) == 1
        and fixture_rows[0].verdict == UNFRIENDLY
        and rechecked(7, fixture_rows[0])
        and all(rechecked(7, row) for row in unfriendly_rows)
        and elapsed < 600.0
    )
    record(
        3,
        ok,
        f"fixture pair unfriendly with passing recheck; "
        f"{len(unfriendly_rows)} unfriendly row(s) among {report.pair_count}, "
        f"{elapsed:.2f}s (< 600s)",
    )
    assert ok


def oracle_equality(edge_counts) -> tuple[bool, str]:
    start = time.perf_counter()
    results = [(n, len(enumerate_trees(n)), prufer_oracle_count(n)) for n in edge_counts]
    elapsed = time.perf_counter() - start
    ok = all(generated == census for _, generated, census in results)
    counts = ", ".join(f"{n}:{g}={c}" for n, g, c in results)
    return ok, f"generator vs census counts [{counts}], {elapsed:.1f}s"


def test_criterion_4_enumeration_oracle_equality():
    ok, detail = oracle_equality(range(1, 10))
    record(4, ok, detail)
    assert ok


@pytest.mark.slow
def test_criterion_4_at_ten_edges():
    ok, detail = oracle_equality([10])
    record(4, ok, detail)
    assert ok


def test_criterion_5_predicate_oracle_equivalence():
    rng = random.Random(424242)
    trials = 1000
    agreed = symmetric = 0
    for _ in range(trials):
        t = random_tree(rng, rng.randint(1, 10))
        top = (1 << t.edge_count) - 1
        p = rng.randint(0, top)
        q = rng.randint(0, top)
        if same_side(t, p, q) == same_side_bruteforce(t, p, q):
            agreed += 1
        if unlinked(t, p, q) == unlinked(t, q, p):
            symmetric += 1
    ok = agreed == trials and symmetric == trials
    record(
        5,
        ok,
        f"optimized vs brute-force agreement {agreed}/{trials}, "
        f"unlinked symmetry {symmetric}/{trials}",
    )
    assert ok


def test_criterion_6_property_suite(conjecture6, survey7, tmp_path):
    check, _ = conjecture6
    report7, _ = survey7

    # self-friendliness with the identity witness, everything up to 7 edges
    self_friendly = True
    for n in range(8):
        for t in enumerate_trees(n).trees:
            cert = find_realizable_bijection(t, t)
            if cert.verdict != FRIENDLY or not is_realizable(t, t, tuple(range(n))):
                self_friendly = False

    # verdict symmetry over every pair with at most 7 edges
    symmetric = True
    verdicts: dict[tuple[int, int, int], str] = {}
    for n in range(8):
        catalog = enumerate_trees(n)
        for ia, ib in combinations_with_replacement(range(len(catalog)), 2):
            fwd = find_realizable_bijection(catalog.trees[ia], catalog.trees[ib])
            rev = find_realizable_bijection(catalog.trees[ib], catalog.trees[ia])
            verdicts[(n, ia, ib)] = fwd.verdict
            if fwd.verdict != rev.verdict:
                symmetric = False

    # isomorphism invariance under 100 random relabelings of known pairs
    rng = random.Random(1301)
    invariant = True
    for _ in range(100):
        n = rng.randint(1, 7)
        catalog = enumerate_trees(n)
        ia = rng.randrange(len(catalog))
        ib = rng.randrange(ia, len(catalog))
        perm_a = list(range(n + 1))
        perm_b = list(range(n + 1))
        rng.shuffle(perm_a)
        rng.shuffle(perm_b)
        a = relabel(catalog.trees[ia], perm_a)
        b = relabel(catalog.trees[ib], perm_b)
        if find_realizable_bijection(a, b).verdict != verdicts[(n, ia, ib)]:
            invariant = False

    # witness soundness on every friendly report row, reloaded from disk
    sound = True
    try:
        for report in (*check.reports, report7):
            path = str(tmp_path / f"n{report.edge_count}.report")
            write_report(report, path)
            with open(path, encoding="ascii") as handle:
                verify_report_witnesses(parse_report(handle.read()))
    except RuntimeError as exc:
        print(f"  witness soundness failure: {exc}")
        sound = False

    # byte-identical reports across parallelism degrees 1 and 4
    solo = survey_pairs(6, jobs=1)
    pooled = survey_pairs(6, jobs=4)
    deterministic = solo == pooled and format_report(solo) == format_report(pooled)

    ok = self_friendly and symmetric and invariant and sound and deterministic
    record(
        6,
        ok,
        f"self-friendly<=7e:{self_friendly} verdict-symmetry<=7e:{symmetric} "
        f"relabel-invariance x100:{invariant} witnesses-sound:{sound} "
        f"jobs{{1,4}}-byte-identical:{deterministic}",
    )
    assert ok
