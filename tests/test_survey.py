import hashlib
import os
from dataclasses import replace

import pytest

from friendly_trees.enumeration import enumerate_trees
from friendly_trees.realizability import (
    FRIENDLY,
    UNFRIENDLY,
    certificate_to_text,
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
from friendly_trees.tree import canonical_code, is_isomorphic, parity, path_edges


GOOD_HEAD = "SURVEY edges=1 trees=1 pairs=1"
GOOD_ROW = "PAIR 0 0 (()) (()) friendly 0"
GOOD_SUMMARY = "SUMMARY friendly=1 unfriendly=0 seconds=0.001"

# Every witness and every unfriendly row's node count is in these bytes, so
# they pin the search order, not just the verdicts. A change that alters the
# search order on purpose re-pins them and says so.
REPORT_SHA256 = {
    7: "9ed2e3c97b56d39970a9cbaeb172ccc1d77a219a231e2496471257eb041a58cb",
    8: "6ade394d7f720d411bbbfcecab372db9d0eea995fbac229da6a60e8c80991f23",
}
G_TO_H_CERTIFICATE = "VERDICT unfriendly\nSTATS nodes=9259 checked=1680\n"
H_TO_G_CERTIFICATE = "VERDICT unfriendly\nSTATS nodes=6091 checked=400\n"


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
            assert parity(h, hub, tip) == "even"

    def test_fixtures_not_isomorphic(self):
        assert not is_isomorphic(build_G(), build_H())

    def test_codes_stable(self):
        assert canonical_code(build_G()) == canonical_code(build_G())
        assert canonical_code(build_H()) == canonical_code(build_H())


class TestSurveyPairs:
    def test_single_edge(self):
        report = survey_pairs(1)
        assert report.pair_count == 1
        assert report.rows[0].verdict == FRIENDLY
        assert report.rows[0].witness == (0,)

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

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="surveys support"):
            survey_pairs(9)
        with pytest.raises(ValueError, match="surveys support"):
            survey_pairs(-1)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            survey_pairs(2, jobs=0)

    def test_witnesses_sound(self):
        report = survey_pairs(5)
        catalog = enumerate_trees(5)
        for row in report.rows:
            assert row.verdict == FRIENDLY
            assert is_realizable(
                catalog.trees[row.index_a], catalog.trees[row.index_b], row.witness
            )

    @pytest.mark.parametrize("edges", sorted(REPORT_SHA256))
    def test_report_bytes_pinned(self, edges):
        text = format_report(replace(survey_pairs(edges), seconds=0.0))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == REPORT_SHA256[edges]

    def test_fixture_certificates_pinned(self):
        g, h = build_G(), build_H()
        assert certificate_to_text(find_realizable_bijection(g, h)) == G_TO_H_CERTIFICATE
        assert certificate_to_text(find_realizable_bijection(h, g)) == H_TO_G_CERTIFICATE

    def test_parallel_report_identical(self):
        solo = replace(survey_pairs(4, jobs=1), seconds=0.0)
        pooled = replace(survey_pairs(4, jobs=4), seconds=0.0)
        assert format_report(solo) == format_report(pooled)


class TestReportFormat:
    def test_round_trip(self, tmp_path):
        report = replace(survey_pairs(3), seconds=0.0)
        path = str(tmp_path / "r3.report")
        write_report(report, path)
        with open(path, encoding="ascii") as handle:
            text = handle.read()
        assert text == format_report(report)
        assert text.endswith("\n")
        again = parse_report(text)
        assert again.edge_count == 3
        assert again.tree_count == 2
        assert [(r.index_a, r.index_b, r.verdict, r.witness) for r in again.rows] == [
            (r.index_a, r.index_b, r.verdict, r.witness) for r in report.rows
        ]
        assert again.friendly == report.friendly
        verify_report_witnesses(again)

    def test_header_and_summary_lines(self):
        text = format_report(replace(survey_pairs(3), seconds=0.0))
        lines = text.splitlines()
        assert lines[0] == "SURVEY edges=3 trees=2 pairs=3"
        assert lines[-1] == "SUMMARY friendly=3 unfriendly=0 seconds=0.000"

    def test_write_leaves_no_temp_files(self, tmp_path):
        report = survey_pairs(2)
        path = str(tmp_path / "r2.report")
        write_report(report, path)
        assert sorted(os.listdir(tmp_path)) == ["r2.report"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_report("SURVEY edges=1 trees=1 pairs=1\nWAT\n")
        with pytest.raises(ValueError, match="missing SURVEY"):
            parse_report("SUMMARY friendly=0 unfriendly=0 seconds=0.0\n")
        with pytest.raises(ValueError, match="missing SUMMARY"):
            parse_report("SURVEY edges=0 trees=1 pairs=1\nPAIR 0 0 () () friendly\n")
        duplicate = (
            "SURVEY edges=1 trees=1 pairs=2\n" + GOOD_ROW + "\n" + GOOD_ROW + "\n"
            "SUMMARY friendly=2 unfriendly=0 seconds=0.0\n"
        )
        with pytest.raises(ValueError, match=r"line 3: duplicate or out-of-order pair \(0, 0\)"):
            parse_report(duplicate)
        swapped = (
            "SURVEY edges=0 trees=2 pairs=3\nPAIR 0 0 () () friendly\n"
            "PAIR 1 0 () () friendly\nPAIR 1 1 () () friendly\n"
            "SUMMARY friendly=3 unfriendly=0 seconds=0.0\n"
        )
        with pytest.raises(ValueError, match="line 3: tree indices 1 > 0"):
            parse_report(swapped)
        reordered = (
            "SURVEY edges=0 trees=2 pairs=3\nPAIR 0 0 () () friendly\n"
            "PAIR 1 1 () () friendly\nPAIR 0 1 () () friendly\n"
            "SUMMARY friendly=3 unfriendly=0 seconds=0.0\n"
        )
        with pytest.raises(ValueError, match=r"line 4: duplicate or out-of-order pair \(0, 1\)"):
            parse_report(reordered)
        short = (
            "SURVEY edges=0 trees=2 pairs=2\nPAIR 0 0 () () friendly\n"
            "PAIR 1 1 () () friendly\nSUMMARY friendly=2 unfriendly=0 seconds=0.0\n"
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
            (GOOD_HEAD, GOOD_ROW, "SUMMARY friendly=0 unfriendly=1 seconds=0.0", "line 3: SUMMARY counts disagree"),
            (GOOD_HEAD, GOOD_ROW, "SUMMARY friendly=1 unfriendly=0", "line 3: missing field 'seconds'"),
            (GOOD_HEAD, GOOD_ROW, GOOD_SUMMARY + "\n" + GOOD_SUMMARY, "line 4: unrecognized"),
        ],
    )
    def test_parse_rejection_names_the_line(self, head, row, summary, message):
        with pytest.raises(ValueError, match=message):
            parse_report("\n".join((head, row, summary)) + "\n")


class TestTheorem1:
    def test_holds_without_recheck(self):
        result = verify_theorem1()
        assert result.forward.verdict == UNFRIENDLY
        assert result.reverse.verdict == UNFRIENDLY
        assert result.forward_recheck is None
        assert result.holds

    def test_holds_with_recheck(self):
        result = verify_theorem1(recheck=True)
        assert result.forward_recheck is True
        assert result.reverse_recheck is True
        assert result.holds


class TestConjecture:
    def test_holds_through_three_edges(self):
        check = verify_conjecture(3)
        assert check.holds
        assert [r.edge_count for r in check.reports] == [1, 2, 3]
        assert not check.findings
