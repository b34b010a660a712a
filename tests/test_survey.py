import concurrent.futures
import hashlib
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache

import pytest

import friendly_trees
from friendly_trees import realizability, survey
from friendly_trees.enumeration import enumerate_trees
from friendly_trees.realizability import (
    FRIENDLY,
    MAX_RECHECK_EDGES,
    UNFRIENDLY,
    Certificate,
    certificate_to_text,
    find_realizable_bijection,
    is_realizable,
)
from friendly_trees.survey import (
    ConjectureCheck,
    SurveyReport,
    SurveyRow,
    Theorem1Result,
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
from friendly_trees.tree import canonical_code, path_edges

from helpers import CATALOG9_UNFRIENDLY


GOOD_HEAD = "SURVEY edges=1 trees=1 pairs=1"
GOOD_ROW = "PAIR 0 0 (()) (()) friendly 0"
GOOD_SUMMARY = "SUMMARY friendly=1 unfriendly=0"

# Every witness and every unfriendly row's node count is in these bytes, so
# they pin the search order, not just the verdicts. A change that alters the
# search order on purpose re-pins them and says so.
REPORT_SHA256 = {
    7: "49d38bb3b4222a8e455df43c480b6f94f4c1e6e09f7d5ce98e879719e046a410",
    8: "f6434332068d7c2143becf6789ba6130c2eabedbd33c0c2aabdbaa0860f493bd",
    9: "b06120c60fa5e1fe513a43faf1033a7f85d5f0384bc3d5c602ca486963d6f724",
}
G_TO_H_CERTIFICATE = "VERDICT unfriendly\nSTATS nodes=418 checked=19\n"
H_TO_G_CERTIFICATE = "VERDICT unfriendly\nSTATS nodes=321 checked=9\n"
# The same reports with every ``nodes=`` field stripped: verdicts, witnesses
# and codes only. A pruning that never cuts the first realizable bijection in
# search order moves the pins above but must leave these alone.
WITNESS_SHA256 = {
    7: "ade77fd89608ab17a5965edfc78aaa00f1c204f0f911fb698bfd30cf396152c2",
    8: "25c5641147c23356a7ec226eaf4825954f5abfd8a0778b234c9d0c1479d75b02",
    9: "4fb48c9ac5ea7b3063b4006f642292151d396df201826a8cd0fdf1712fc17917",
}
# The same reports with witnesses stripped too: verdicts and codes only. A
# new edge order moves every pin above but must leave these alone.
VERDICT_SHA256 = {
    7: "380b2086c93c64a373dc5502b412445d2132d53515766decabc80b9143eeb3d2",
    8: "e729e6aa1e07d9b644d2c26716c22a12a2ede7e04dec74086adfdb8b3e816eea",
    9: "659ed3688042b83c8ecb41c768bf1213250617fba23ada8f72c9e6828648576c",
}
# The 9-edge survey takes seconds, so its pins run with the ``slow`` set.
PINNED_EDGES = [7, 8, pytest.param(9, marks=pytest.mark.slow)]
RECHECK_BOUND = (
    "each unfriendly row is rechecked by the unpruned scan, "
    f"which supports at most {MAX_RECHECK_EDGES}"
)


def no_catalogue(edge_count):
    raise AssertionError(f"enumerate_trees({edge_count}) called")


@lru_cache(maxsize=None)
def report_text(edges: int) -> str:
    return format_report(survey_pairs(edges))


class TestFixtures:
    def test_double_star_shape(self):
        g = build_G()
        assert g.vertex_count == 8
        assert g.edge_count == 7
        assert sorted(g.degrees, reverse=True) == [3, 3, 2, 2, 1, 1, 1, 1]
        hubs = [v for v in range(8) if g.degrees[v] == 3]
        assert len(hubs) == 2
        assert path_edges(g, hubs[0], hubs[1]).bit_count() == 3

    def test_spider_shape(self):
        h = build_H()
        assert h.vertex_count == 8
        assert sorted(h.degrees, reverse=True) == [4, 2, 2, 2, 1, 1, 1, 1]
        hub = h.degrees.index(4)
        tips = [v for v in range(8) if h.degrees[v] == 1 and v not in
                [y for y, _ in h.adjacency[hub]]]
        assert len(tips) == 3
        for tip in tips:
            assert path_edges(h, hub, tip).bit_count() % 2 == 0

    def test_fixtures_not_isomorphic(self):
        assert canonical_code(build_G()) != canonical_code(build_H())

    def test_codes_stable(self):
        assert canonical_code(build_G()) == canonical_code(build_G())
        assert canonical_code(build_H()) == canonical_code(build_H())


class TestSurveyPairs:
    def test_single_edge(self):
        report = survey_pairs(1)
        assert report.pair_count == 1
        assert report.rows[0].verdict == FRIENDLY
        assert report.rows[0].witness == (0,)
        assert report.rows[0].nodes is None

    def test_zero_edges(self):
        report = survey_pairs(0)
        assert report.pair_count == 1
        assert report.rows[0].witness == ()

    def test_three_edges_all_friendly(self):
        report = survey_pairs(3)
        assert report.tree_count == 2
        assert report.pair_count == 3
        assert report.friendly == 3
        assert report.unfriendly == 0

    def test_rows_cover_each_unordered_pair_once(self):
        report = survey_pairs(4)
        k = report.tree_count
        expected = [(a, b) for a in range(k) for b in range(a, k)]
        assert [(r.index_a, r.index_b) for r in report.rows] == expected

    def test_diagonal_rows_friendly(self):
        report = survey_pairs(5)
        for row in report.rows:
            if row.index_a == row.index_b:
                assert row.verdict == FRIENDLY

    def test_rejects_out_of_range(self, monkeypatch):
        # Refused before any catalogue is built, naming the recheck's bound.
        monkeypatch.setattr(survey, "enumerate_trees", no_catalogue)
        for n in (MAX_RECHECK_EDGES + 1, -1):
            message = f"surveys support 0..{MAX_RECHECK_EDGES} edges ({RECHECK_BOUND}), got {n}"
            with pytest.raises(ValueError, match=re.escape(message)):
                survey_pairs(n)
        # 3.0 would reach the report header as "edges=3.0", which
        # parse_report rejects
        for n in (3.0, True, "3", None):
            with pytest.raises(ValueError, match="edge_count must be an int"):
                survey_pairs(n)

    def test_rejects_bad_jobs(self):
        for jobs in (0, 1.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="jobs must be an int of at least 1"):
                survey_pairs(2, jobs=jobs)

    def test_witnesses_sound(self):
        report = survey_pairs(5)
        catalog = enumerate_trees(5)
        for row in report.rows:
            assert row.verdict == FRIENDLY
            assert is_realizable(
                catalog.trees[row.index_a], catalog.trees[row.index_b], row.witness
            )

    @pytest.mark.parametrize("edges", PINNED_EDGES)
    def test_report_bytes_pinned(self, edges):
        text = report_text(edges)
        verify_report_witnesses(parse_report(text))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == REPORT_SHA256[edges]

    @pytest.mark.parametrize("edges", PINNED_EDGES)
    def test_report_witnesses_pinned(self, edges):
        verify_report_witnesses(parse_report(report_text(edges)))
        text = re.sub(r" nodes=\d+", "", report_text(edges))
        assert "nodes=" not in text
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == WITNESS_SHA256[edges]

    @pytest.mark.parametrize("edges", PINNED_EDGES)
    def test_report_verdicts_pinned(self, edges):
        verify_report_witnesses(parse_report(report_text(edges)))
        text = re.sub(r"(?m)( friendly)[ \d]*$| nodes=\d+", r"\1", report_text(edges))
        assert "nodes=" not in text
        assert all(line.endswith("friendly") for line in text.splitlines()[1:-1])
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == VERDICT_SHA256[edges]

    @pytest.mark.slow
    def test_nine_edge_unfriendly_rows(self):
        report = parse_report(report_text(9))
        assert (report.tree_count, report.pair_count) == (106, 5671)
        unfriendly = {(r.index_a, r.index_b) for r in report.rows if r.verdict == UNFRIENDLY}
        assert unfriendly == CATALOG9_UNFRIENDLY

    def test_fixture_certificates_pinned(self):
        g, h = build_G(), build_H()
        assert certificate_to_text(find_realizable_bijection(g, h)) == G_TO_H_CERTIFICATE
        assert certificate_to_text(find_realizable_bijection(h, g)) == H_TO_G_CERTIFICATE

    def test_parallel_report_identical(self):
        solo = survey_pairs(4, jobs=1)
        pooled = survey_pairs(4, jobs=4)
        assert solo == pooled
        assert format_report(solo) == format_report(pooled)

    def test_reports_are_plain_values(self):
        # A report holds no timing: equal surveys give equal reports, and
        # the text format loses nothing.
        for n in range(8):
            report = survey_pairs(n)
            assert survey_pairs(n) == report
            assert parse_report(format_report(report)) == report

    def test_rows_hold_only_rechecked_verdicts(self, monkeypatch):
        monkeypatch.setattr(survey, "recheck_certificate", lambda a, b, cert: False)
        message = "pruned and unpruned searches disagree on pair (4, 19) at 7 edges"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            survey_pairs(7)
        # Friendly rows rest on the search's own whole-witness test.
        monkeypatch.setattr(realizability, "_realizes", lambda k, k2, h: False)
        with pytest.raises(RuntimeError, match=r"search produced an unsound witness \(0, 1\)"):
            survey_pairs(2)

    def test_serial_survey_loads_no_process_pool(self):
        # Only a pooled survey imports the pool, and with it multiprocessing.
        code = (
            "import sys\n"
            "from friendly_trees import survey_pairs\n"
            "survey_pairs(3)\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        src = os.path.dirname(os.path.dirname(friendly_trees.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout == "[]\n"

    def test_pool_is_bounded_by_the_cores(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled = survey_pairs(3, jobs=10**6)
        assert started == [2]
        assert pooled == survey_pairs(3)


class TestReportFormat:
    def test_round_trip(self, tmp_path):
        report = survey_pairs(3)
        path = str(tmp_path / "r3.report")
        write_report(report, path)
        with open(path, encoding="ascii") as handle:
            text = handle.read()
        assert text == format_report(report)
        assert text.endswith("\n")
        again = parse_report(text)
        assert again == report
        assert again.edge_count == 3
        assert again.tree_count == 2
        verify_report_witnesses(again)

    def test_witness_check_rejects_more_trees_than_the_catalogue(self):
        # Parses, but the 2-edge catalogue holds one tree, not three.
        rows = [f"PAIR {a} {b} (()()) (()()) friendly 0 1" for a in range(3) for b in range(a, 3)]
        text = "\n".join(
            ["SURVEY edges=2 trees=3 pairs=6", *rows, "SUMMARY friendly=6 unfriendly=0"]
        )
        report = parse_report(text + "\n")
        with pytest.raises(RuntimeError, match="trees=3 but the catalogue of 2-edge trees has 1"):
            verify_report_witnesses(report)

    def test_witness_check_rejects_a_dict_witness(self):
        # A dict iterates its keys. Any dict on 0..n-1 would read as the
        # identity, which a tree paired with itself always realizes.
        report = survey_pairs(3)
        rows = list(report.rows)
        i = next(i for i, row in enumerate(rows) if row.index_a == row.index_b)
        rows[i] = replace(rows[i], witness=dict(enumerate(rows[i].witness)))
        with pytest.raises(RuntimeError, match=r"friendly row \(\d, \d\) has no valid witness"):
            verify_report_witnesses(replace(report, rows=tuple(rows)))

    def test_witness_check_rejects_an_edge_count_without_a_catalogue(self):
        code = "(" * 14 + ")" * 14
        text = "\n".join(
            [
                "SURVEY edges=13 trees=1 pairs=1",
                f"PAIR 0 0 {code} {code} unfriendly nodes=1",
                "SUMMARY friendly=0 unfriendly=1",
            ]
        )
        report = parse_report(text + "\n")
        with pytest.raises(RuntimeError, match="edges=13 but catalogues support 0..12 edges"):
            verify_report_witnesses(report)
        for n in (3.0, True, "3", None):
            with pytest.raises(RuntimeError, match="but catalogues support 0..12 edges"):
                verify_report_witnesses(replace(report, edge_count=n))

    def test_witness_check_rejects_codes_not_the_catalogues(self):
        # The two 3-edge trees' codes swapped: every witness still holds for
        # the trees at the row's indices, but the codes name the other ones.
        text = format_report(survey_pairs(3))
        c0, c1 = enumerate_trees(3).codes
        swapped = text.replace(c0, "X").replace(c1, c0).replace("X", c1)
        report = parse_report(swapped)
        with pytest.raises(RuntimeError, match=r"row \(0, 0\) has codes that are not the catalogue's"):
            verify_report_witnesses(report)

    @pytest.mark.parametrize(
        "verdict, witness, index_b, message",
        [
            (FRIENDLY, (0,), 0, r"friendly row \(0, 0\) has no valid witness"),
            (FRIENDLY, (0, 1.0), 0, r"friendly row \(0, 0\) has no valid witness"),
            (FRIENDLY, None, 0, r"friendly row \(0, 0\) has no valid witness"),
            (FRIENDLY, 5, 0, r"friendly row \(0, 0\) has no valid witness"),
            ("maybe", None, 0, r"row \(0, 0\) has bad verdict 'maybe'"),
            (FRIENDLY, (0, 1), 1, r"row \(0, 1\) has a tree index outside 0\.\.0"),
        ],
    )
    def test_witness_check_rejects_malformed_rows(self, verdict, witness, index_b, message):
        # Hand-built rows that no parsed report holds; each fails as a
        # RuntimeError naming the row, like every other check.
        code = enumerate_trees(2).codes[0]
        row = SurveyRow(0, index_b, code, code, verdict, witness, None)
        with pytest.raises(RuntimeError, match=message):
            verify_report_witnesses(SurveyReport(2, 1, (row,)))

    def test_header_and_summary_lines(self):
        text = format_report(survey_pairs(3))
        lines = text.splitlines()
        assert lines[0] == "SURVEY edges=3 trees=2 pairs=3"
        assert lines[-1] == "SUMMARY friendly=3 unfriendly=0"

    def test_write_leaves_no_temp_files(self, tmp_path):
        report = survey_pairs(2)
        path = str(tmp_path / "r2.report")
        write_report(report, path)
        assert sorted(os.listdir(tmp_path)) == ["r2.report"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
    @pytest.mark.parametrize("existing", [False, True])
    def test_report_gets_the_mode_of_a_new_file(self, umask, existing, tmp_path):
        # not the 0600 of the temp file, nor the mode of the report it
        # replaces
        path = tmp_path / "r2.report"
        if existing:
            path.write_text("old\n", encoding="ascii")
            path.chmod(0o644)
        old = os.umask(umask)
        try:
            write_report(survey_pairs(2), str(path))
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("fault", ["write", "replace"])
    def test_failed_write_keeps_the_destination(self, fault, tmp_path, monkeypatch):
        # The error propagates, the temp file is removed and an existing
        # report is left as it was.
        path = tmp_path / "r2.report"
        path.write_text("old\n", encoding="ascii")
        report = survey_pairs(2)
        if fault == "write":
            report = replace(report, rows=(replace(report.rows[0], witness=None),))
            error = TypeError
        else:
            def refuse(src, dst):
                raise OSError("replace refused")

            monkeypatch.setattr(survey.os, "replace", refuse)
            error = OSError
        with pytest.raises(error):
            write_report(report, str(path))
        assert sorted(os.listdir(tmp_path)) == ["r2.report"]
        assert path.read_text(encoding="ascii") == "old\n"

    def test_witness_written_as_certificates_write_it(self):
        # Every valid row keeps its bytes, the 0-edge row's empty witness
        # included; a friendly row without a witness is refused, as
        # ``certificate_to_text`` refuses a friendly certificate without one.
        assert format_report(survey_pairs(0)) == (
            "SURVEY edges=0 trees=1 pairs=1\nPAIR 0 0 () () friendly\n"
            "SUMMARY friendly=1 unfriendly=0\n"
        )
        row = SurveyRow(0, 0, "(())", "(())", FRIENDLY, None, None)
        with pytest.raises(TypeError):
            format_report(SurveyReport(1, 1, (row,)))
        with pytest.raises(TypeError):
            certificate_to_text(Certificate(FRIENDLY, None, 0, 0))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_report("SURVEY edges=1 trees=1 pairs=1\nWAT\n")
        with pytest.raises(ValueError, match="missing SURVEY"):
            parse_report("SUMMARY friendly=0 unfriendly=0\n")
        for blank in ("", "\n", " \t\n\n"):
            with pytest.raises(ValueError, match="^missing SURVEY header line$"):
                parse_report(blank)
        with pytest.raises(ValueError, match="missing SUMMARY"):
            parse_report("SURVEY edges=0 trees=1 pairs=1\nPAIR 0 0 () () friendly\n")
        duplicate = (
            "SURVEY edges=1 trees=1 pairs=2\n" + GOOD_ROW + "\n" + GOOD_ROW + "\n"
            "SUMMARY friendly=2 unfriendly=0\n"
        )
        with pytest.raises(ValueError, match=r"line 3: duplicate or out-of-order pair \(0, 0\)"):
            parse_report(duplicate)
        swapped = (
            "SURVEY edges=0 trees=2 pairs=3\nPAIR 0 0 () () friendly\n"
            "PAIR 1 0 () () friendly\nPAIR 1 1 () () friendly\n"
            "SUMMARY friendly=3 unfriendly=0\n"
        )
        with pytest.raises(ValueError, match="line 3: tree indices 1 > 0"):
            parse_report(swapped)
        reordered = (
            "SURVEY edges=0 trees=2 pairs=3\nPAIR 0 0 () () friendly\n"
            "PAIR 1 1 () () friendly\nPAIR 0 1 () () friendly\n"
            "SUMMARY friendly=3 unfriendly=0\n"
        )
        with pytest.raises(ValueError, match=r"line 4: duplicate or out-of-order pair \(0, 1\)"):
            parse_report(reordered)
        short = (
            "SURVEY edges=0 trees=2 pairs=2\nPAIR 0 0 () () friendly\n"
            "PAIR 1 1 () () friendly\nSUMMARY friendly=2 unfriendly=0\n"
        )
        with pytest.raises(ValueError, match="line 1: pairs=2 but trees=2 make 3 unordered pairs"):
            parse_report(short)

    @pytest.mark.parametrize(
        "head, row, summary, message",
        [
            ("SURVEY edges=1 pairs=1", GOOD_ROW, GOOD_SUMMARY, "line 1: missing field 'trees'"),
            ("SURVEY edges=1 trees 1 pairs=1", GOOD_ROW, GOOD_SUMMARY, "line 1: field 'trees' is not key=value"),
            ("SURVEY edges=1 trees=1 pairs=2", GOOD_ROW, GOOD_SUMMARY, "line 1: pairs=2 but 1 PAIR rows"),
            (GOOD_HEAD, "PAIR 0 1", GOOD_SUMMARY, "line 2: unrecognized line 'PAIR 0 1'"),
            (GOOD_HEAD, "PAIR 0 1 (()) (()) friendly 0", GOOD_SUMMARY, r"line 2: tree index outside 0\.\.0"),
            (GOOD_HEAD, "PAIR -1 0 (()) (()) friendly 0", GOOD_SUMMARY, "line 2: tree index"),
            (GOOD_HEAD, "PAIR 0 0 (()) (()) friendly 1", GOOD_SUMMARY, "line 2: witness is not a permutation"),
            (GOOD_HEAD, "PAIR 0 0 (()) (()) friendly", GOOD_SUMMARY, "line 2: witness is not a permutation"),
            (GOOD_HEAD, "PAIR 0 0 (()) (()) friendly x", GOOD_SUMMARY, "line 2: bad witness 'x'"),
            (GOOD_HEAD, "PAIR 0 0 (()) (()) maybe", GOOD_SUMMARY, "line 2: bad verdict 'maybe'"),
            (GOOD_HEAD, "PAIR 0 0 (()) (()) unfriendly nodes=x", GOOD_SUMMARY, "line 2: bad value in 'nodes=x'"),
            (GOOD_HEAD, "PAIR 0 0 (()) (()) unfriendly nodes=-7", GOOD_SUMMARY, "line 2: bad value in 'nodes=-7'"),
            ("SURVEY edges=-1 trees=1 pairs=1", "PAIR 0 0 x y friendly", GOOD_SUMMARY, "line 1: bad value in 'edges=-1'"),
            ("SURVEY edges=1 trees=-1 pairs=0", "", "SUMMARY friendly=0 unfriendly=0", "line 1: bad value in 'trees=-1'"),
            ("SURVEY edges=1 trees=0 pairs=0", "", "SUMMARY friendly=0 unfriendly=0", "line 1: trees=0 but every catalogue has a tree"),
            (GOOD_HEAD, "PAIR 0 0 x (()) friendly 0", GOOD_SUMMARY, "line 2: 'x' is not the code of a tree on 2 vertices"),
            (GOOD_HEAD, "PAIR 0 0 (()) () friendly 0", GOOD_SUMMARY, r"line 2: '\(\)' is not the code"),
            (GOOD_HEAD, "PAIR 0 0 ()() (()) friendly 0", GOOD_SUMMARY, r"line 2: '\(\)\(\)' is not the code"),
            (GOOD_HEAD, "PAIR 0 0 (()) )(() friendly 0", GOOD_SUMMARY, r"line 2: '\)\(\(\)' is not the code"),
            (GOOD_HEAD, "PAIR 0 0 (()) ((() friendly 0", GOOD_SUMMARY, r"line 2: '\(\(\(\)' is not the code"),
            (GOOD_HEAD, "PAIR 0 0 (()) ((x) friendly 0", GOOD_SUMMARY, r"line 2: '\(\(x\)' is not the code"),
            (GOOD_HEAD, GOOD_ROW, "SUMMARY friendly=0 unfriendly=1", "line 3: SUMMARY counts disagree"),
            (GOOD_HEAD, GOOD_ROW, "SUMMARY friendly=1 unfriendly=0 seconds=0.0", "line 3: unexpected field 'seconds=0.0'"),
            (GOOD_HEAD, GOOD_ROW, GOOD_SUMMARY + "\n" + GOOD_SUMMARY, "line 4: line after SUMMARY"),
            (GOOD_HEAD, GOOD_SUMMARY, GOOD_ROW, r"line 3: line after SUMMARY 'PAIR 0 0 \(\(\)\)"),
            (GOOD_HEAD, GOOD_ROW, GOOD_SUMMARY + "\nWAT", "line 4: line after SUMMARY 'WAT'"),
            (GOOD_HEAD, "PAIR +0 0 (()) (()) friendly 0", GOOD_SUMMARY, r"line 2: bad tree indices '\+0 0'"),
            (GOOD_HEAD, "PAIR 0 0 (()) (()) friendly ３", GOOD_SUMMARY, "line 2: bad witness '３'"),
            (GOOD_HEAD, "PAIR 0 0 (()) (()) unfriendly nodes=1_000", GOOD_SUMMARY, "line 2: bad value in 'nodes=1_000'"),
            (GOOD_HEAD, GOOD_ROW, "SUMMARY friendly=+1 unfriendly=0", r"line 3: bad value in 'friendly=\+1'"),
            ("SURVEY edges=1 trees=1 pairs=３", GOOD_ROW, GOOD_SUMMARY, "line 1: bad value in 'pairs=３'"),
        ],
    )
    def test_parse_rejection_names_the_line(self, head, row, summary, message):
        with pytest.raises(ValueError, match=message):
            parse_report("\n".join((head, row, summary)) + "\n")


class TestTheorem1:
    def test_holds_with_recheck(self):
        result = verify_theorem1()
        assert result.forward.verdict == UNFRIENDLY
        assert result.reverse.verdict == UNFRIENDLY
        assert result.forward_scan == Certificate(UNFRIENDLY, None, 5040, 5040)
        assert result.reverse_scan == Certificate(UNFRIENDLY, None, 5040, 5040)
        assert result.holds

    def test_holds_reads_every_certificate_present(self):
        unfriendly = Certificate(UNFRIENDLY, None, 5040, 5040)
        friendly = Certificate(FRIENDLY, (0, 1, 2, 3, 4, 5, 6), 1, 1)
        assert Theorem1Result(unfriendly, unfriendly, unfriendly, unfriendly).holds
        assert not Theorem1Result(unfriendly, unfriendly, friendly, unfriendly).holds
        assert not Theorem1Result(unfriendly, unfriendly, unfriendly, friendly).holds
        assert not Theorem1Result(friendly, unfriendly, unfriendly, unfriendly).holds
        assert not Theorem1Result(unfriendly, friendly, unfriendly, unfriendly).holds


class TestConjecture:
    def test_holds_through_three_edges(self):
        check = verify_conjecture(3)
        assert check.holds
        assert [r.edge_count for r in check.reports] == [1, 2, 3]
        assert not check.findings

    @pytest.mark.parametrize(
        "max_edges", [0, -1, MAX_RECHECK_EDGES + 1, True, 3.0, "3", None]
    )
    def test_rejects_bad_edge_bound(self, max_edges, monkeypatch):
        # Refused before any catalogue is built, naming the recheck's bound.
        monkeypatch.setattr(survey, "enumerate_trees", no_catalogue)
        bound = f"max_edge_count must be an int in 1..{MAX_RECHECK_EDGES} ({RECHECK_BOUND}), got "
        with pytest.raises(ValueError, match=re.escape(bound + repr(max_edges))):
            verify_conjecture(max_edges)

    def test_findings_are_the_unfriendly_rows(self):
        check = ConjectureCheck(tuple(survey_pairs(n) for n in range(1, 8)))
        ((edges, row),) = check.findings
        assert edges == 7
        assert row.verdict == UNFRIENDLY
        assert {row.code_a, row.code_b} == {canonical_code(build_G()), canonical_code(build_H())}
        assert not check.holds
