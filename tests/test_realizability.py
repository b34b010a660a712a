import random
from itertools import combinations_with_replacement, permutations

import pytest

from friendly_trees.enumeration import enumerate_trees
from friendly_trees.linking import unlinked_bruteforce
from friendly_trees.realizability import (
    FRIENDLY,
    UNFRIENDLY,
    Certificate,
    certificate_to_text,
    even_vertex_pairs,
    exhaustive_search,
    find_realizable_bijection,
    is_realizable,
    parse_certificate,
    recheck_certificate,
)
from friendly_trees.survey import build_G, build_H
from friendly_trees.tree import Tree, delta, parity

from helpers import random_tree

PATH3 = Tree(4, [(0, 1), (1, 2), (2, 3)])
STAR3 = Tree(4, [(0, 1), (0, 2), (0, 3)])


class TestIsRealizable:
    def test_single_edge_identity(self):
        t = Tree(2, [(0, 1)])
        assert is_realizable(t, t, (0,))

    def test_identity_on_every_small_tree(self):
        for n in range(8):
            for t in enumerate_trees(n).trees:
                assert is_realizable(t, t, tuple(range(n)))

    def test_path_to_star_in_order(self):
        # direct-enumeration oracle for the one even-distance pair structure:
        # both even pairs of the path map to unlinked sets in the star
        h = tuple(range(3))
        for a, b in ((0, 2), (1, 3)):
            assert parity(PATH3, a, b) == "even"
            assert unlinked_bruteforce(STAR3, delta(PATH3, a), delta(PATH3, b))
        assert is_realizable(PATH3, STAR3, h)

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="edge counts differ"):
            is_realizable(PATH3, Tree(2, [(0, 1)]), (0,))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a bijection"):
            is_realizable(PATH3, STAR3, (0, 0, 2))
        with pytest.raises(ValueError, match="not a bijection"):
            is_realizable(PATH3, STAR3, (0, 1))


class TestEvenVertexPairs:
    def test_path(self):
        assert even_vertex_pairs(PATH3) == ((0, 2), (1, 3))

    def test_all_pairs_even_and_distinct(self):
        for t in (build_G(), build_H(), STAR3):
            for a, b in even_vertex_pairs(t):
                assert a < b
                assert parity(t, a, b) == "even"


class TestFindRealizableBijection:
    def test_fixture_pair_is_unfriendly(self):
        cert = find_realizable_bijection(build_G(), build_H())
        assert cert.verdict == UNFRIENDLY
        assert cert.witness is None
        assert cert.nodes > 0

    def test_self_pairs_are_friendly(self):
        for n in range(7):
            for t in enumerate_trees(n).trees:
                cert = find_realizable_bijection(t, t)
                assert cert.verdict == FRIENDLY
                assert is_realizable(t, t, cert.witness)

    def test_path_star_friendly(self):
        cert = find_realizable_bijection(PATH3, STAR3)
        assert cert.verdict == FRIENDLY
        assert is_realizable(PATH3, STAR3, cert.witness)

    def test_zero_edge_trees(self):
        cert = find_realizable_bijection(Tree(1, []), Tree(1, []))
        assert cert.verdict == FRIENDLY
        assert cert.witness == ()

    def test_large_star_needs_no_recursion(self):
        # Deeper than the default recursion limit of 1,000 frames.
        star = Tree(1101, [(0, leaf) for leaf in range(1, 1101)])
        cert = find_realizable_bijection(star, star)
        assert cert.verdict == FRIENDLY
        assert cert.witness == tuple(range(1100))
        assert cert.nodes == 1100

    def test_deterministic(self):
        a = find_realizable_bijection(build_H(), build_G())
        b = find_realizable_bijection(build_H(), build_G())
        assert (a.verdict, a.witness, a.nodes, a.checked) == (
            b.verdict,
            b.witness,
            b.nodes,
            b.checked,
        )

    def test_agrees_with_unpruned_search_up_to_six_edges(self):
        for n in range(7):
            catalog = enumerate_trees(n)
            for a, b in combinations_with_replacement(catalog.trees, 2):
                pruned = find_realizable_bijection(a, b)
                full = exhaustive_search(a, b)
                assert pruned.verdict == full.verdict, (n, a, b)

    def test_verdict_symmetry_spot_check(self):
        for n in range(6):
            catalog = enumerate_trees(n)
            for a, b in combinations_with_replacement(catalog.trees, 2):
                assert (
                    find_realizable_bijection(a, b).verdict
                    == find_realizable_bijection(b, a).verdict
                )


class TestRecheckCertificate:
    def test_valid_friendly(self):
        cert = find_realizable_bijection(PATH3, STAR3)
        assert recheck_certificate(PATH3, STAR3, cert)

    def test_corrupted_witness(self):
        cert = find_realizable_bijection(PATH3, PATH3)
        bad_map = Certificate(FRIENDLY, (1, 0, 2), cert.nodes, cert.checked, 0.0)
        # (1, 0, 2) breaks the even pair (0, 2): images of the incident sets share edge 1
        assert not is_realizable(PATH3, PATH3, (1, 0, 2))
        assert not recheck_certificate(PATH3, PATH3, bad_map)
        not_a_bijection = Certificate(FRIENDLY, (0, 0, 2), 0, 0, 0.0)
        assert not recheck_certificate(PATH3, PATH3, not_a_bijection)
        missing = Certificate(FRIENDLY, None, 0, 0, 0.0)
        assert not recheck_certificate(PATH3, PATH3, missing)

    def test_unfriendly_fixture_pair(self):
        g, h = build_G(), build_H()
        cert = find_realizable_bijection(g, h)
        assert recheck_certificate(g, h, cert)

    def test_rejects_mismatched_trees(self):
        cert = find_realizable_bijection(PATH3, STAR3)
        with pytest.raises(ValueError, match="edge counts differ"):
            recheck_certificate(PATH3, Tree(2, [(0, 1)]), cert)

    def test_rejects_unknown_verdict(self):
        with pytest.raises(ValueError, match="unknown verdict"):
            recheck_certificate(PATH3, STAR3, Certificate("maybe", None, 0, 0, 0.0))


class TestCertificateText:
    def test_friendly_round_trip(self):
        cert = find_realizable_bijection(PATH3, STAR3)
        text = certificate_to_text(cert)
        assert text.startswith("VERDICT friendly\nWITNESS ")
        assert text.endswith("\n")
        again = parse_certificate(text)
        assert again.verdict == cert.verdict
        assert again.witness == cert.witness
        assert again.nodes == cert.nodes
        assert again.checked == cert.checked

    def test_witness_suppressed(self):
        cert = find_realizable_bijection(PATH3, STAR3)
        text = certificate_to_text(cert, include_witness=False)
        assert "WITNESS" not in text
        assert parse_certificate(text).witness is None

    def test_unfriendly_has_no_witness_line(self):
        cert = find_realizable_bijection(build_G(), build_H())
        text = certificate_to_text(cert)
        assert "WITNESS" not in text
        again = parse_certificate(text)
        assert again.verdict == UNFRIENDLY
        assert again.nodes == cert.nodes

    def test_empty_witness_line(self):
        cert = Certificate(FRIENDLY, (), 0, 1, 0.0)
        text = certificate_to_text(cert)
        assert "\nWITNESS\n" in text
        assert parse_certificate(text).witness == ()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("VERDICT friendly\nVERDICT unfriendly\n", "line 2: second VERDICT line"),
            ("VERDICT maybe\n", "line 1: bad verdict 'maybe'"),
            ("VERDICT friendly\nWITNESS 0 x\n", "line 2: bad witness '0 x'"),
            ("VERDICT friendly\nWITNESS 0\nWITNESS 0\n", "line 3: second WITNESS line"),
            ("VERDICT friendly\n\nSTATS nodes=1 checked\n", "line 3: field 'checked' is not key=value"),
            ("VERDICT friendly\nSTATS nodes=1\n", "line 2: missing field 'checked'"),
            ("VERDICT friendly\nSTATS nodes=1 checked=1 nodes=2\n", "line 2: unexpected field 'nodes=2'"),
            ("VERDICT friendly\nSTATS nodes=1 checked=1\nSTATS nodes=1 checked=1\n", "line 3: second STATS"),
        ],
    )
    def test_rejection_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_certificate(text)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_certificate("VERDICT friendly\nHELLO\n")
        with pytest.raises(ValueError, match="VERDICT"):
            parse_certificate("STATS nodes=1 checked=1\n")


def test_exhaustive_search_counts_full_space():
    cert = exhaustive_search(build_G(), build_H())
    assert cert.verdict == UNFRIENDLY
    assert cert.checked == 5040


def inverse_asymmetry_examples(k, k2):
    """Every realizable bijection k->k2 whose inverse is not realizable."""
    out = []
    for h in permutations(range(k.edge_count)):
        if is_realizable(k, k2, h):
            inv = [0] * len(h)
            for i, f in enumerate(h):
                inv[f] = i
            if not is_realizable(k2, k, tuple(inv)):
                out.append(h)
    return out


def test_realizable_inverse_experiment():
    # whether realizability of a bijection forces realizability of its
    # inverse is open in the theory; the small catalogues have no exception
    found = []
    for n in range(1, 6):
        for a in enumerate_trees(n).trees:
            for b in enumerate_trees(n).trees:
                for h in inverse_asymmetry_examples(a, b):
                    found.append((n, a, b, h))
    assert found == []


def test_random_pairs_pruned_matches_unpruned():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_tree(rng, n)
        b = random_tree(rng, n)
        assert (
            find_realizable_bijection(a, b).verdict == exhaustive_search(a, b).verdict
        )


def test_all_bijections_fail_on_fixture_pair():
    # the strongest direct reading: every single bijection is non-realizable
    g, h = build_G(), build_H()
    assert all(
        not is_realizable(g, h, p) for p in permutations(range(7))
    )
