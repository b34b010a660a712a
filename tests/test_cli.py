import hashlib

import pytest

from friendly_trees import cli
from friendly_trees import survey as survey_module
from friendly_trees.cli import main
from friendly_trees.survey import build_G, build_H, parse_report, verify_report_witnesses
from friendly_trees.tree import format_tree, parse_tree

G_TEXT = format_tree(build_G())
H_TEXT = format_tree(build_H())


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


class TestEnumerate:
    def test_single_edge(self, capsys):
        assert main(["enumerate", "--edges", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "--- 0\n(())\nV 2\nE 0 1\n"

    def test_three_edges(self, capsys):
        assert main(["enumerate", "--edges", "3"]) == 0
        out = capsys.readouterr().out
        records = out.split("--- ")[1:]
        assert len(records) == 2
        codes = []
        for i, record in enumerate(records):
            lines = record.splitlines()
            assert lines[0] == str(i)
            codes.append(lines[1])
            tree = parse_tree("\n".join(lines[2:]) + "\n")
            assert tree.edge_count == 3
        assert codes == sorted(codes)

    def test_repeat_runs_identical(self, capsys):
        main(["enumerate", "--edges", "4"])
        first = capsys.readouterr().out
        main(["enumerate", "--edges", "4"])
        assert capsys.readouterr().out == first

    # SHA-256 of the whole stdout: codes, representatives and their edge
    # lists are all pinned.
    @pytest.mark.parametrize(
        "edges, digest",
        [
            (9, "d3f21cde16bc5b0202f8d857226435d86d41f48d035f3f6561c86011f32a536b"),
            (10, "abf5d228b7ea39cc8306d383ac6104759ac4ce262062939ca2b032e4cf427083"),
            (11, "37bde33c6c4ad959b9b299c9a0c1bfd0e9995c8b79f3a878ed6750c24271763c"),
            (12, "d7ff586109e35aa691a2e57e4a188dd9f31e41533869ddf3f60d512c1a8b14ba"),
        ],
    )
    def test_stdout_pinned(self, capsys, edges, digest):
        assert main(["enumerate", "--edges", str(edges)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_out_of_range(self, capsys):
        assert main(["enumerate", "--edges", "13"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCheck:
    def test_fixture_pair_unfriendly(self, tmp_path, capsys):
        a = write(tmp_path, "a.tree", G_TEXT)
        b = write(tmp_path, "b.tree", H_TEXT)
        assert main(["check", "--a", a, "--b", b]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "VERDICT unfriendly"
        assert out.endswith("\n")

    def test_self_pair_friendly_with_witness(self, tmp_path, capsys):
        a = write(tmp_path, "a.tree", H_TEXT)
        assert main(["check", "--a", a, "--b", a]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "VERDICT friendly"
        assert lines[1].startswith("WITNESS ")
        assert len(lines[1].split()) == 8

    def test_cyclic_input_rejected(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.tree", "V 4\nE 0 1\nE 1 2\nE 2 0\n")
        ok = write(tmp_path, "ok.tree", "V 4\nE 0 1\nE 1 2\nE 2 3\n")
        assert main(["check", "--a", bad, "--b", ok]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_count_mismatch_rejected(self, tmp_path, capsys):
        a = write(tmp_path, "a.tree", "V 2\nE 0 1\n")
        b = write(tmp_path, "b.tree", "V 3\nE 0 1\nE 1 2\n")
        assert main(["check", "--a", a, "--b", b]) == 1
        assert "edge counts differ" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        a = write(tmp_path, "a.tree", H_TEXT)
        assert main(["check", "--a", a, "--b", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestSurvey:
    def test_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "n2.report")
        assert main(["survey", "--edges", "2", "--out", out]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        with open(out, encoding="ascii") as handle:
            report = parse_report(handle.read())
        assert report.edge_count == 2
        assert report.friendly == 1
        verify_report_witnesses(report)

    def test_zero_edges(self, tmp_path):
        out = str(tmp_path / "n0.report")
        assert main(["survey", "--edges", "0", "--out", out]) == 0
        with open(out, encoding="ascii") as handle:
            text = handle.read()
        assert "PAIR 0 0 () () friendly" in text

    def test_seven_edges_contains_fixture_pair(self, tmp_path):
        from friendly_trees.tree import canonical_code

        out = str(tmp_path / "n7.report")
        assert main(["survey", "--edges", "7", "--out", out]) == 0
        with open(out, encoding="ascii") as handle:
            report = parse_report(handle.read())
        target = {canonical_code(build_G()), canonical_code(build_H())}
        matches = [
            row for row in report.rows if {row.code_a, row.code_b} == target
        ]
        assert len(matches) == 1
        assert matches[0].verdict == "unfriendly"

    def test_out_of_range(self, tmp_path, capsys):
        assert main(["survey", "--edges", "9", "--out", str(tmp_path / "x")]) == 1
        assert "surveys support" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        missing_dir = str(tmp_path / "no" / "such" / "dir" / "x.report")
        assert main(["survey", "--edges", "1", "--out", missing_dir]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_output_is_a_directory(self, tmp_path, capsys, monkeypatch):
        # refused before any pair is surveyed, naming the path given
        def no_survey(*args, **kwargs):
            raise AssertionError("survey_pairs called")

        monkeypatch.setattr(cli, "survey_pairs", no_survey)
        out = str(tmp_path)
        assert main(["survey", "--edges", "1", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: output path is a directory: {out}\n"

    def test_bad_jobs(self, tmp_path, capsys):
        out = str(tmp_path / "x.report")
        assert main(["survey", "--edges", "1", "--out", out, "--jobs", "0"]) == 1
        assert "jobs" in capsys.readouterr().err


class TestVerifyTheorem1:
    def test_passes(self, capsys):
        assert main(["verify-theorem1"]) == 0
        out = capsys.readouterr().out
        assert "forward unfriendly" in out
        assert "reverse unfriendly" in out
        assert out.endswith("theorem1 holds\n")

    def test_recheck_line(self, capsys):
        # 7 edges: the unpruned recheck tests all 7! = 5040 bijections each way
        assert main(["verify-theorem1"]) == 0
        assert capsys.readouterr().out == (
            "forward unfriendly nodes=3295 checked=420\n"
            "reverse unfriendly nodes=1689 checked=100\n"
            "recheck forward=pass reverse=pass\n"
            "recheck checked forward=5040 reverse=5040\n"
            "theorem1 holds\n"
        )

    def test_tampered_fixture_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(survey_module, "build_G", build_H)
        assert main(["verify-theorem1"]) == 1
        out = capsys.readouterr().out
        assert "theorem1 FAILS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--a", "a.tree", "--b", "b.tree", "--witness"],
        ["survey", "--edges", "1", "--out", "x.report", "--recheck"],
        ["verify-theorem1", "--recheck"],
    ],
)
def test_removed_switches_are_usage_errors(argv, capsys):
    # The witness and both rechecks are always on; no switch is left.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestDual:
    def test_three_siblings(self, tmp_path, capsys):
        nesting = write(tmp_path, "sib.nest", "C 0 -\nC 1 -\nC 2 -\n")
        assert main(["dual", "--nesting", nesting]) == 0
        assert capsys.readouterr().out == "V 4\nE 0 1\nE 0 2\nE 0 3\n"

    def test_three_nested(self, tmp_path, capsys):
        nesting = write(tmp_path, "nest.nest", "C 0 -\nC 1 0\nC 2 1\n")
        assert main(["dual", "--nesting", nesting]) == 0
        assert capsys.readouterr().out == "V 4\nE 0 1\nE 1 2\nE 2 3\n"

    def test_empty_file(self, tmp_path, capsys):
        nesting = write(tmp_path, "empty.nest", "")
        assert main(["dual", "--nesting", nesting]) == 0
        assert capsys.readouterr().out == "V 1\n"

    def test_malformed(self, tmp_path, capsys):
        nesting = write(tmp_path, "bad.nest", "C 0 7\n")
        assert main(["dual", "--nesting", nesting]) == 1
        assert "dangling" in capsys.readouterr().err
