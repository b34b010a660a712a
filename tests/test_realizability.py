import gc
import hashlib
import random
import weakref
from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from friendly_trees import realizability, tree
from friendly_trees.enumeration import decode_prufer, enumerate_trees
from friendly_trees.linking import unlinked, unlinked_bruteforce
from friendly_trees.realizability import (
    FRIENDLY,
    MAX_RECHECK_EDGES,
    UNFRIENDLY,
    Certificate,
    certificate_to_text,
    exhaustive_search,
    find_realizable_bijection,
    is_realizable,
    parse_certificate,
    recheck_certificate,
)
from friendly_trees.survey import build_G, build_H, parse_report
from friendly_trees.tree import Tree, edge_mask, line_records, mask_ids, path_edges

from helpers import (
    CATALOG9_UNFRIENDLY,
    attachment_tree,
    canonical_edge_order,
    even_pairs,
    incident_mask,
    random_tree,
    reference_search,
    relabel_randomly,
    trees,
    two_pass_schedule,
    vertex_completions,
)

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
            assert path_edges(PATH3, a, b).bit_count() % 2 == 0
            assert unlinked_bruteforce(STAR3, incident_mask(PATH3, a), incident_mask(PATH3, b))
        assert is_realizable(PATH3, STAR3, h)

    def test_rejects_an_unordered_map(self):
        # A dict iterates its keys, so {0: 1, 1: 0, 2: 2} would read as the
        # identity, which is realizable, though (1, 0, 2) is not. A set has
        # no order of its own either.
        t = Tree(4, [(0, 1), (0, 2), (1, 3)])
        assert is_realizable(t, t, (0, 1, 2))
        assert not is_realizable(t, t, (1, 0, 2))
        for h in ({0: 1, 1: 0, 2: 2}, {0, 1, 2}, frozenset({0, 1, 2})):
            message = f"map must be a sequence of images, got a {type(h).__name__}"
            with pytest.raises(ValueError, match=message):
                is_realizable(t, t, h)
            assert not recheck_certificate(t, t, Certificate(FRIENDLY, h, 1, 1))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="edge counts differ"):
            is_realizable(PATH3, Tree(2, [(0, 1)]), (0,))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a bijection"):
            is_realizable(PATH3, STAR3, (0, 0, 2))
        with pytest.raises(ValueError, match="not a bijection"):
            is_realizable(PATH3, STAR3, (0, 1))
        # Float entries sort like a permutation but are not edge ids.
        with pytest.raises(ValueError, match="not a bijection"):
            is_realizable(build_G(), build_G(), tuple(map(float, range(7))))
        with pytest.raises(ValueError, match="not a bijection"):
            is_realizable(build_G(), build_G(), 5)
        # No bijection on no edges either, though () would be one.
        with pytest.raises(ValueError, match="not a bijection"):
            is_realizable(Tree(1, []), Tree(1, []), None)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: is_realizable(Tree(1, []), Tree(1, []), (0,)),
         "map is not a bijection: the trees have no edge ids"),
        (lambda: unlinked(Tree(1, []), 1, 0), "p has edge ids but the tree has none, got 1"),
        (lambda: parse_report("SURVEY edges=0 trees=1 pairs=1\nPAIR 0 0 () () friendly 0\n"),
         "line 2: witness is not empty, but the trees have no edge ids"),
    ],
    ids=["bijection", "edge-set", "report-witness"],
)
def test_zero_edge_errors_say_there_are_no_edge_ids(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestEvenPairs:
    def test_all_pairs_even_and_distinct(self):
        # The tests' oracle list, ``helpers.even_pairs``, is exactly the pairs
        # ``a < b`` whose path has an even number of edges.
        for t in (build_G(), build_H(), STAR3, PATH3):
            n = t.vertex_count
            assert even_pairs(t) == [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if path_edges(t, a, b).bit_count() % 2 == 0
            ]


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
        # A deep tree as well: side tables of a 300-level subtree chain.
        path = Tree(301, [(i, i + 1) for i in range(300)])
        cert = find_realizable_bijection(path, path)
        assert cert.verdict == FRIENDLY
        assert is_realizable(path, path, cert.witness)
        assert (cert.nodes, cert.checked) == (375, 1)

    def test_unsound_witness_raises(self, monkeypatch):
        # The search re-tests its witness whole before returning it.
        monkeypatch.setattr(realizability, "_realizes", lambda k, k2, h: False)
        with pytest.raises(RuntimeError, match=r"search produced an unsound witness \("):
            find_realizable_bijection(PATH3, STAR3)

    def test_deterministic(self):
        # Fresh trees, and the same trees again once their plan and target
        # tables are memoized.
        g, h = build_G(), build_H()
        first = find_realizable_bijection(h, g)
        assert first == find_realizable_bijection(build_H(), build_G())
        assert first == find_realizable_bijection(h, g)

    def test_source_plan_built_once_per_tree_and_not_kept(self, monkeypatch):
        # A survey reuses its trees as sources and targets; a tree made for
        # one decision must not outlive it through either memo.
        built, targets = [], []

        class Recording(weakref.WeakKeyDictionary):
            def __init__(self, log):
                super().__init__()
                self.log = log

            def __setitem__(self, t, entry):
                self.log.append(t)
                super().__setitem__(t, entry)

        monkeypatch.setattr(realizability, "_plans", Recording(built))
        monkeypatch.setattr(realizability, "_targets", Recording(targets))
        g, h = build_G(), build_H()
        find_realizable_bijection(g, h)
        find_realizable_bijection(h, g)
        find_realizable_bijection(g, g)
        assert built == [g, h]
        assert targets == [h, g]
        assert realizability._plan(g) is realizability._plan(g)
        assert realizability._target(g) is realizability._target(g)
        refs = weakref.ref(g), weakref.ref(h)
        del g, h
        built.clear()
        targets.clear()
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_target_only_tree_gets_no_plan(self, monkeypatch):
        # A target's tables come from its generators, their centroid
        # rooting and its rooting at vertex 0, in an entry of their own: it
        # gets no edge order, no constraint schedule and no entry in the
        # plans' memo.
        seen = []
        plan = realizability._plan
        monkeypatch.setattr(realizability, "_plan", lambda t: seen.append(t) or plan(t))
        for g, h in ((build_G(), build_H()), (build_H(), build_H())):
            find_realizable_bijection(g, h)
            assert h not in realizability._plans
            assert all(t is not h for t in seen)
            assert g in realizability._plans
            assert h in realizability._targets

    def test_fresh_random_pairs_pinned(self):
        # Relabelled, edge-shuffled trees made for one decision each, so every
        # target's cut tables are built for that call; the certificate must
        # not change once the target has a source plan as well.
        rng = random.Random(2013)
        digest = hashlib.sha256()
        nodes = checked = 0
        for i in range(200):
            a, b = random_tree(rng, 9 + i % 2), random_tree(rng, 9 + i % 2)
            cert = find_realizable_bijection(a, b)
            realizability._plan(b)
            assert find_realizable_bijection(a, b) == cert
            digest.update(certificate_to_text(cert).encode())
            nodes += cert.nodes
            checked += cert.checked
        assert (digest.hexdigest(), nodes, checked) == (
            "8979ff12c645fccb490047f93af25203499d0af831aa58e9d7cebefc462b54f2",
            114058,
            2421,
        )

    def test_fresh_pair_roots_each_tree_once_more_than_its_centroids(self, monkeypatch):
        # Each tree's plain neighbour lists are built once. It is rooted at
        # vertex 0 once, to find its centroids, and once more at each
        # centroid, to pick the one with the smaller code (``Tree._centroid``).
        # The depths, the side tables, the generators and the ranks all read
        # that one rooting.
        calls = Counter()
        for name in ("rooted", "vertex_adjacency"):
            real = getattr(tree, name)
            monkeypatch.setattr(
                tree, name, lambda *args, name=name, real=real: calls.update([name]) or real(*args)
            )
        rng = random.Random(8)
        a, b = random_tree(rng, 8), random_tree(rng, 8)
        find_realizable_bijection(a, b)
        assert calls == {"rooted": 4, "vertex_adjacency": 2}
        # G has two centroids and H one.
        g, h = build_G(), build_H()
        calls.clear()
        find_realizable_bijection(g, h)
        assert calls == {"rooted": 5, "vertex_adjacency": 2}

    def test_agrees_with_unpruned_search_up_to_six_edges(self):
        for n in range(7):
            catalog = enumerate_trees(n)
            for a, b in product(catalog.trees, repeat=2):
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
        bad_map = Certificate(FRIENDLY, (1, 0, 2), cert.nodes, cert.checked)
        # (1, 0, 2) breaks the even pair (0, 2): images of the incident sets share edge 1
        assert not is_realizable(PATH3, PATH3, (1, 0, 2))
        assert not recheck_certificate(PATH3, PATH3, bad_map)
        not_a_bijection = Certificate(FRIENDLY, (0, 0, 2), 0, 0)
        assert not recheck_certificate(PATH3, PATH3, not_a_bijection)
        missing = Certificate(FRIENDLY, None, 0, 0)
        assert not recheck_certificate(PATH3, PATH3, missing)
        floats = Certificate(FRIENDLY, tuple(map(float, range(7))), 0, 0)
        assert not recheck_certificate(build_G(), build_G(), floats)
        not_iterable = Certificate(FRIENDLY, 5, 0, 0)
        assert not recheck_certificate(build_G(), build_G(), not_iterable)

    def test_unfriendly_fixture_pair(self):
        g, h = build_G(), build_H()
        cert = find_realizable_bijection(g, h)
        assert recheck_certificate(g, h, cert)

    def test_counts_tested_bijections(self, monkeypatch):
        # A friendly recheck tests the stored witness alone and runs no
        # scan; an unfriendly one is the unpruned scan of all 7! bijections.
        scans = []

        def scan(k, k2):
            cert = exhaustive_search(k, k2)
            scans.append(cert.checked)
            return cert

        monkeypatch.setattr(realizability, "exhaustive_search", scan)
        cert = find_realizable_bijection(PATH3, STAR3)
        assert recheck_certificate(PATH3, STAR3, cert) is True
        missing = Certificate(FRIENDLY, None, 0, 0)
        assert recheck_certificate(PATH3, PATH3, missing) is False
        assert scans == []
        g, h = build_G(), build_H()
        assert recheck_certificate(g, h, find_realizable_bijection(g, h)) is True
        assert scans == [5040]

    def test_unfriendly_with_a_witness(self, monkeypatch):
        # An unfriendly verdict carries no witness, as a friendly one always
        # carries one; such a certificate fails without a scan.
        monkeypatch.setattr(realizability, "exhaustive_search", None)
        claim = Certificate(UNFRIENDLY, tuple(range(7)), 1, 1)
        assert recheck_certificate(build_G(), build_H(), claim) is False

    def test_rejects_mismatched_trees(self):
        cert = find_realizable_bijection(PATH3, STAR3)
        with pytest.raises(ValueError, match="edge counts differ"):
            recheck_certificate(PATH3, Tree(2, [(0, 1)]), cert)

    def test_rejects_unknown_verdict(self):
        with pytest.raises(ValueError, match="unknown verdict"):
            recheck_certificate(PATH3, STAR3, Certificate("maybe", None, 0, 0))


class TestCertificateText:
    def test_friendly_round_trip(self):
        cert = find_realizable_bijection(PATH3, STAR3)
        text = certificate_to_text(cert)
        assert text.startswith("VERDICT friendly\nWITNESS ")
        assert text.endswith("\n")
        assert parse_certificate(text) == cert

    def test_unfriendly_has_no_witness_line(self):
        cert = find_realizable_bijection(build_G(), build_H())
        text = certificate_to_text(cert)
        assert "WITNESS" not in text
        again = parse_certificate(text)
        assert again.verdict == UNFRIENDLY
        assert again.nodes == cert.nodes

    def test_empty_witness_line(self):
        cert = Certificate(FRIENDLY, (), 0, 1)
        text = certificate_to_text(cert)
        assert text == "VERDICT friendly\nWITNESS\nSTATS nodes=0 checked=1\n"
        assert parse_certificate(text) == cert

    def test_certificates_are_plain_values(self):
        # A certificate holds no timing: equal searches give equal
        # certificates, and the text format loses nothing.
        pairs = [(build_G(), build_H()), (build_H(), build_G())]
        for n in range(6):
            pairs += product(enumerate_trees(n).trees, repeat=2)
        for a, b in pairs:
            cert = find_realizable_bijection(a, b)
            assert find_realizable_bijection(a, b) == cert
            assert parse_certificate(certificate_to_text(cert)) == cert

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
            ("VERDICT unfriendly\nWITNESS 0 1 2\n", "line 2: WITNESS line in an unfriendly certificate"),
            ("WITNESS 1 0\nSTATS nodes=1 checked=1\nVERDICT unfriendly\n", "line 1: WITNESS line in an unfriendly"),
            ("VERDICT friendly\nWITNESS 0 0 5\n", r"line 2: witness is not a permutation of 0\.\.2"),
            ("VERDICT friendly\nWITNESS 1 2\n", r"line 2: witness is not a permutation of 0\.\.1"),
            ("VERDICT unfriendly\n", "^missing STATS line$"),
            ("VERDICT unfriendly\nSTATS nodes=-5 checked=1\n", "line 2: bad value in 'nodes=-5'"),
            ("VERDICT unfriendly\nSTATS nodes=5 checked=-1\n", "line 2: bad value in 'checked=-1'"),
            ("VERDICT unfriendly\nSTATS nodes=1_000 checked=+5\n", "line 2: bad value in 'nodes=1_000'"),
            ("VERDICT unfriendly\nSTATS nodes=5 checked=+5\n", r"line 2: bad value in 'checked=\+5'"),
            ("VERDICT friendly\nWITNESS 1 ０\n", "line 2: bad witness '1 ０'"),
            ("VERDICT friendly\nWITNESS 0\n", "^missing STATS line$"),
            ("VERDICT friendly\nSTATS nodes=1 checked=1\n", "line 1: friendly certificate without a WITNESS line"),
            ("VERDICT friendly\nSTATS nodes=0 checked=0\n", "line 1: friendly certificate without a WITNESS line"),
            ("STATS nodes=0 checked=1\nVERDICT friendly\n", "line 2: friendly certificate without a WITNESS line"),
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
    g, h = build_G(), build_H()
    for k, k2 in ((g, h), (h, g)):
        cert = exhaustive_search(k, k2)
        assert cert.verdict == UNFRIENDLY
        assert cert.checked == 5040


def test_exhaustive_search_tries_the_empty_bijection():
    assert exhaustive_search(Tree(1, []), Tree(1, [])) == Certificate(FRIENDLY, (), 1, 1)


# The three unfriendly pairs of the 8-edge catalogue, as edge lists.
CATALOG8_UNFRIENDLY = (
    (
        ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (3, 7), (4, 8)),
        ((0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (5, 6), (0, 7), (0, 8)),
    ),
    (
        ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (3, 7), (2, 8)),
        ((0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (5, 6), (0, 7), (7, 8)),
    ),
    (
        ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (2, 6), (2, 7), (3, 8)),
        ((0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (5, 6), (0, 7), (7, 8)),
    ),
)


@pytest.mark.parametrize("edges_a, edges_b", CATALOG8_UNFRIENDLY)
def test_exhaustive_search_checks_every_bijection_at_eight_edges(edges_a, edges_b):
    a, b = Tree(9, edges_a), Tree(9, edges_b)
    for k, k2 in ((a, b), (b, a)):
        cert = exhaustive_search(k, k2)
        assert cert.verdict == UNFRIENDLY
        assert cert.witness is None
        assert cert.checked == cert.nodes == factorial(8) == 40320


def test_search_output_pinned_through_eight_edges():
    # Every ordered catalogue pair with 1-8 edges. The totals and the hash of
    # the certificates catch a cut that keeps more or fewer nodes, or another
    # witness, even when every verdict still holds.
    digest = hashlib.sha256()
    unfriendly = nodes = checked = pairs = 0
    for n in range(1, 9):
        catalog = enumerate_trees(n).trees
        for k, k2 in product(catalog, repeat=2):
            cert = find_realizable_bijection(k, k2)
            digest.update(certificate_to_text(cert).encode())
            pairs += 1
            unfriendly += cert.verdict == UNFRIENDLY
            nodes += cert.nodes
            checked += cert.checked
    assert (pairs, unfriendly, nodes, checked) == (2910, 8, 149_315, 11_693)
    assert digest.hexdigest() == (
        "f2075091545b52ae95455d499f3d17b6181f090253a5fd7f47d3765dfe8ee935"
    )


@pytest.mark.slow
def test_nine_edge_sweep():
    # All 11,236 ordered pairs of the 106 trees with 9 edges. Each unfriendly
    # pair is unfriendly both ways, and each of the 14 directed cases is
    # re-derived by the unpruned scan of all 9! bijections. The node and
    # check totals pin what the cuts leave.
    catalog = enumerate_trees(9).trees
    assert len(catalog) == 106
    unfriendly = []
    nodes = checked = 0
    for i, a in enumerate(catalog):
        for j, b in enumerate(catalog):
            cert = find_realizable_bijection(a, b)
            nodes += cert.nodes
            checked += cert.checked
            if cert.verdict == UNFRIENDLY:
                unfriendly.append((i, j))
    assert (nodes, checked) == (1_728_211, 73_929)
    both_ways = CATALOG9_UNFRIENDLY | {(j, i) for i, j in CATALOG9_UNFRIENDLY}
    assert sorted(unfriendly) == sorted(both_ways)
    for i, j in unfriendly:
        cert = exhaustive_search(catalog[i], catalog[j])
        assert cert.verdict == UNFRIENDLY
        assert cert.checked == factorial(9)


@pytest.mark.slow
def test_nine_edge_certificates_pinned():
    # Every ordered pair of the 9-edge catalogue, certificate by certificate:
    # the image masks must keep each witness and node count of the search
    # that tested every candidate it popped.
    digest = hashlib.sha256()
    for k, k2 in product(enumerate_trees(9).trees, repeat=2):
        digest.update(certificate_to_text(find_realizable_bijection(k, k2)).encode())
    assert digest.hexdigest() == (
        "31d32192ac93f1ddbb0177f768e28de4379599069faf57f56507ec0a054ef276"
    )


def recorded_ten_edge_pairs():
    """The 100 random 10-edge pairs of the benchmark's pair file, read only,
    as two trees and the recorded verdict."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "pairs10.txt"
    for _, fields in line_records(path.read_text(encoding="utf-8")):
        if fields[0].startswith("#"):
            continue
        a, b = (tuple(map(int, f.split(","))) for f in fields[:2])
        m = len(a) + 2
        yield Tree(m, decode_prufer(a, m)), Tree(m, decode_prufer(b, m)), fields[2]


def test_recorded_ten_edge_pairs_pinned():
    digest = hashlib.sha256()
    nodes = checked = 0
    for a, b, verdict in recorded_ten_edge_pairs():
        cert = find_realizable_bijection(a, b)
        assert cert.verdict == verdict
        digest.update(certificate_to_text(cert).encode())
        nodes += cert.nodes
        checked += cert.checked
    assert (digest.hexdigest(), nodes, checked) == (
        "df54149472fe91f5b70f72872054bd65e47c8866d67f6a5558d3602629c0eb8b",
        226_646,
        1_786,
    )


@settings(deadline=None)
@given(trees(max_edges=10), st.data())
def test_kernel_matches_reference_search(k, data):
    """The kernel's masks remove a candidate where the reference pops it
    and fails it, and count it the same; a friendly search uncounts those
    above its witness."""
    n = k.edge_count
    k2 = data.draw(trees(max_edges=n, min_edges=n))
    assert find_realizable_bijection(k, k2) == reference_search(k, k2)


def test_kernel_matches_reference_search_on_known_pairs():
    # Each both ways: the fixture pair; an 8-edge pair whose search uncounts
    # 4 masked candidates above its witness; a 10-edge pair where masks
    # remove about a quarter of the nodes; and a 300-edge path.
    eight, ten = enumerate_trees(8).trees, enumerate_trees(10).trees
    path = Tree(301, [(i, i + 1) for i in range(300)])
    pairs = ((build_G(), build_H()), (eight[15], eight[42]), (ten[84], ten[2]), (path, path))
    for a, b in pairs:
        for k, k2 in ((a, b), (b, a)):
            assert find_realizable_bijection(k, k2) == reference_search(k, k2)


def span_of(t, mask):
    """``E``: the endpoints of the edges in ``mask``, as a vertex mask."""
    ends = t.side_tables[1]
    e = 0
    for f in mask_ids(mask):
        e |= ends[f]
    return e


def assert_leaf_facts(t, a, f, g):
    """The facts the kernel's leaf masks rest on, each against
    ``unlinked_bruteforce``, for an edge set ``a`` and edges ``f != g``
    outside it:

    - two distinct edges are unlinked;
    - ``f`` and ``a`` are unlinked iff ``f``'s subtree holds all or none of
      ``E(a)``: ``f`` is in ``_unsplit(paths, E(a))``;
    - ``a`` plus ``f``, and ``g``, are unlinked iff ``E(a)`` lies on one
      side of ``g``, and ``f`` wholly on that side: ``f`` is in
      ``inside[g]`` or outside it, as ``E(a)`` is.

    The masks of ``_target`` name an edge by its rank, ``rf`` and ``rg``.
    """
    edge_of, below, _, _, _, _, _, paths, inside, _ = realizability._target(t)
    rf, rg = edge_of.index(f), edge_of.index(g)
    bf, bg = 1 << f, 1 << g
    assert unlinked_bruteforce(t, bf, bg)
    e = span_of(t, a)
    assert bool(realizability._unsplit(paths, e) >> rf & 1) == unlinked_bruteforce(t, bf, a)
    x = e & below[rg]
    holds = (not x or x == e) and bool((inside[rg] if x else ~inside[rg]) >> rf & 1)
    assert holds == unlinked_bruteforce(t, a | bf, bg)


def test_leaf_facts_on_the_catalogues():
    # Every nonempty edge set and every two edges outside it, on every tree
    # with 2-6 edges.
    cases = 0
    for n in range(2, 7):
        for t in enumerate_trees(n).trees:
            for a in range(1, 1 << n):
                for f, g in permutations([e for e in range(n) if not a >> e & 1], 2):
                    assert_leaf_facts(t, a, f, g)
                    cases += 1
    assert cases == 5_910


@settings(deadline=None)
@given(trees(min_edges=2, max_edges=12), st.data())
def test_leaf_facts(t, data):
    n = t.edge_count
    f, g = data.draw(st.permutations(range(n)))[:2]
    a = data.draw(st.integers(1, (1 << n) - 1)) & ~(1 << f | 1 << g)
    if a:
        assert_leaf_facts(t, a, f, g)


def assert_target_tables(t):
    """``_target``'s tables against their definitions, read from the side
    tables and the generators one edge or vertex at a time, with each edge
    named by its rank in ``canonical_edge_order``."""
    edge_of, below, ends, lockers, hitmask, lows, lock, paths, inside, _ = realizability._target(t)
    assert edge_of == canonical_edge_order(t)
    assert (below, ends) == tuple(tuple(table[f] for f in edge_of) for table in t.side_tables)
    n = t.edge_count
    rank = {f: r for r, f in enumerate(edge_of)}
    moved = [{rank[f]: rank[tf] for f, tf in gen} for gen in t.automorphism_generators]
    assert lows == [sum(1 << f for f, tf in m.items() if tf < f) for m in moved]
    assert hitmask == [sum(1 << i for i, m in enumerate(moved) if f in m) for f in range(n)]
    assert lockers == [sum(1 << i for i, m in enumerate(lows) if m >> f & 1) for f in range(n)]
    union = 0
    for m in lows:
        union |= m
    assert lock == union
    assert paths == [
        sum(1 << f for f in range(n) if below[f] >> v & 1) for v in range(t.vertex_count)
    ]
    assert inside == [sum(1 << f for f in range(n) if not ends[f] & ~below[g]) for g in range(n)]


def test_target_tables_on_the_catalogues_and_large_trees():
    # Every tree through 10 edges, and a 300-edge path and star: one long
    # root path, and 299 generators over one vertex's edges.
    for n in range(11):
        for t in enumerate_trees(n).trees:
            assert_target_tables(t)
    assert_target_tables(Tree(301, [(i, i + 1) for i in range(300)]))
    assert_target_tables(Tree(301, [(0, i) for i in range(1, 301)]))


@settings(deadline=None)
@given(trees(max_edges=30))
def test_target_tables(t):
    assert_target_tables(t)


def test_ranks_match_the_plain_construction_on_the_catalogues_and_large_trees():
    # Every tree through 10 edges, and trees far deeper or wider than the
    # recursion limit: a 3,000-vertex path (two centroids), a caterpillar
    # and a 1,100-edge star.
    large = [
        Tree(3000, [(i, i + 1) for i in range(2999)]),
        Tree(3000, [(i, i + 1) for i in range(1499)] + [(i, 1500 + i) for i in range(1500)]),
        Tree(1101, [(0, leaf) for leaf in range(1, 1101)]),
    ]
    for t in [t for n in range(11) for t in enumerate_trees(n).trees] + large:
        assert realizability._target(t)[0] == canonical_edge_order(t), t


def shares_an_end(t, f, g):
    return bool(set(t.edges[f]) & set(t.edges[g]))


def assert_target_labels_do_not_matter(k, k2, rng):
    """Relabel the target's vertices, edge ids and edge ends at random: the
    verdict, ``nodes`` and ``checked`` stay. The witness gives each source
    edge an image of the same rank, so it moves with the edge ids up to a
    symmetry of the target: the ranks order twin branches by edge id."""
    cert = find_realizable_bijection(k, k2)
    moved, new_id = relabel_randomly(k2, rng)
    again = find_realizable_bijection(k, moved)
    assert (again.verdict, again.nodes, again.checked) == (cert.verdict, cert.nodes, cert.checked)
    if cert.witness is None:
        return
    old, new = canonical_edge_order(k2), canonical_edge_order(moved)
    rank = {f: r for r, f in enumerate(old)}
    assert again.witness == tuple(new[rank[f]] for f in cert.witness)
    # Each rank's edge of ``moved``, read back in ``k2``'s ids: an edge map
    # that keeps which edges meet, so a symmetry of ``k2`` (Whitney 1932).
    back = {g: f for f, g in enumerate(new_id)}
    sym = {f: back[g] for f, g in zip(old, new)}
    for f, g in combinations_with_replacement(range(k2.edge_count), 2):
        assert shares_an_end(k2, f, g) == shares_an_end(k2, sym[f], sym[g])


def test_target_labels_do_not_matter_through_six_edges():
    rng = random.Random(7)
    for n in range(7):
        for k, k2 in product(enumerate_trees(n).trees, repeat=2):
            assert_target_labels_do_not_matter(k, k2, rng)


@settings(deadline=None)
@given(trees(max_edges=12), st.data(), st.randoms(use_true_random=False))
def test_target_labels_do_not_matter(k, data, rng):
    k2 = data.draw(trees(max_edges=k.edge_count, min_edges=k.edge_count))
    assert_target_labels_do_not_matter(k, k2, rng)


def test_target_labels_do_not_matter_on_the_recorded_ten_edge_pairs():
    rng = random.Random(10)
    for a, b, _ in recorded_ten_edge_pairs():
        assert_target_labels_do_not_matter(a, b, rng)


def realizable_bruteforce(k, k2, h):
    """Realizability of ``h`` decided constraint by constraint with
    ``unlinked_bruteforce``."""
    def image(v):
        return edge_mask([h[e] for e in mask_ids(incident_mask(k, v))])

    return all(unlinked_bruteforce(k2, image(a), image(b)) for a, b in even_pairs(k))


@settings(deadline=None)
@given(trees(max_edges=8), st.data())
def test_is_realizable_matches_bruteforce(k, data):
    """``is_realizable`` against the oracle, on a random bijection (mostly
    not realizable) and on the search's witness (realizable)."""
    n = k.edge_count
    k2 = data.draw(trees(max_edges=n, min_edges=n))
    h = tuple(data.draw(st.permutations(range(n))))
    assert is_realizable(k, k2, h) == realizable_bruteforce(k, k2, h)
    cert = find_realizable_bijection(k, k2)
    if cert.verdict == FRIENDLY:
        assert is_realizable(k, k2, cert.witness)
        assert realizable_bruteforce(k, k2, cert.witness)


def bruteforce_scan(k, k2):
    """(verdict, witness, checked) of a plain lexicographic scan that decides
    every constraint of every bijection with ``unlinked_bruteforce``."""
    checked = 0
    for h in permutations(range(k.edge_count)):
        checked += 1
        if realizable_bruteforce(k, k2, h):
            return FRIENDLY, h, checked
    return UNFRIENDLY, None, checked


def test_exhaustive_search_matches_bruteforce_scan_up_to_five_edges():
    # Up to 4 edges the target's edges are also listed in every order, which
    # moves the first witness around the scan: a scan that skipped some
    # bijections would report a later one.
    for n in range(6):
        trees = enumerate_trees(n).trees
        orders = list(permutations(range(n))) if n <= 4 else [tuple(range(n))]
        for a, b in product(trees, repeat=2):
            for order in orders:
                b2 = Tree(b.vertex_count, [b.edges[i] for i in order])
                cert = exhaustive_search(a, b2)
                expected = bruteforce_scan(a, b2)
                assert (cert.verdict, cert.witness, cert.checked) == expected, (a, b2)


@pytest.mark.parametrize("n", [6, pytest.param(7, marks=pytest.mark.slow)])
def test_exhaustive_search_matches_bruteforce_scan_on_every_ordered_pair(n):
    # The scan's constraints are the pairs within one depth parity; the
    # oracle's are ``even_pairs``, from its own two-colouring. At 7 edges
    # this includes the fixture pair's classes, both ways round.
    unfriendly = 0
    for a, b in product(enumerate_trees(n).trees, repeat=2):
        cert = exhaustive_search(a, b)
        assert (cert.verdict, cert.witness, cert.checked) == bruteforce_scan(a, b), (a, b)
        unfriendly += cert.verdict == UNFRIENDLY
    assert unfriendly == {6: 0, 7: 2}[n]


def test_constraint_order_moves_no_witness():
    # The scan tries the last failing constraint first. Listing the target's
    # edges in other orders moves the first witness around the scan, and
    # with it the order the constraints reach by then.
    rng = random.Random(6)
    trees = enumerate_trees(6).trees
    for a, b in product(trees, repeat=2):
        for _ in range(3):
            order = list(range(6))
            rng.shuffle(order)
            b2 = Tree(b.vertex_count, [b.edges[i] for i in order])
            cert = exhaustive_search(a, b2)
            assert (cert.verdict, cert.witness, cert.checked) == bruteforce_scan(a, b2), (a, b2)


def counted_scan(monkeypatch, k, k2):
    """The certificate of ``exhaustive_search`` and its ``unlinked`` calls,
    one per distinct image pair it decided: no pair is decided twice in one
    call."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(
            realizability, "unlinked", lambda t, p, q: calls.append((p, q)) or unlinked(t, p, q)
        )
        cert = exhaustive_search(k, k2)
    assert len(set(calls)) == len(calls)
    return cert, len(calls)


def test_scan_tries_the_last_failing_constraint_first(monkeypatch):
    # The image pairs the scan decides depend on the order it tries the
    # constraints in, so their count pins that order: a fixed order decides
    # 507 and 382 of them.
    g, h = build_G(), build_H()
    assert counted_scan(monkeypatch, g, h) == (Certificate(UNFRIENDLY, None, 5040, 5040), 583)
    assert counted_scan(monkeypatch, h, g) == (Certificate(UNFRIENDLY, None, 5040, 5040), 382)


def test_scan_keeps_no_order_between_calls(monkeypatch):
    # Scans of different pairs, interleaved and repeated: a repeat that
    # started from an order an earlier call left behind would decide other
    # image pairs, or test the wrong tree's constraints.
    cases = [tuple(Tree(9, edges) for edges in pair) for pair in CATALOG8_UNFRIENDLY[:2]]
    cases.append((build_G(), build_G()))
    first = [counted_scan(monkeypatch, k, k2) for k, k2 in cases]
    assert [cert.verdict for cert, _ in first] == [UNFRIENDLY, UNFRIENDLY, FRIENDLY]
    for i in reversed(range(len(cases))):
        assert counted_scan(monkeypatch, *cases[i]) == first[i]
    assert [counted_scan(monkeypatch, k, k2) for k, k2 in cases] == first


def test_exhaustive_search_is_bounded():
    n = MAX_RECHECK_EDGES + 1
    path = Tree(n + 1, [(i, i + 1) for i in range(n)])
    star = Tree(n + 1, [(0, i) for i in range(1, n + 1)])
    with pytest.raises(ValueError, match=f"at most {MAX_RECHECK_EDGES} edges, got {n}"):
        exhaustive_search(path, star)
    claim = Certificate(UNFRIENDLY, None, 0, 0)
    with pytest.raises(ValueError, match=f"at most {MAX_RECHECK_EDGES} edges"):
        recheck_certificate(path, star, claim)
    # Friendly rechecks test one witness and have no bound.
    cert = find_realizable_bijection(star, star)
    assert cert.verdict == FRIENDLY
    assert recheck_certificate(star, star, cert)


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


def plan_order(k):
    """The search's edge order, read off the depth of each edge in ``k``'s
    plan."""
    order = [0] * k.edge_count
    for eid, depth in enumerate(realizability._plan(k)[0]):
        order[depth] = eid
    return order


def search_key(k, k2, h):
    """The ranks in ``canonical_edge_order(k2)`` of ``h``'s images, in the
    search's edge order: the search reaches bijections in ascending order of
    this key."""
    rank = {f: r for r, f in enumerate(canonical_edge_order(k2))}
    return tuple(rank[h[eid]] for eid in plan_order(k))


def pairs_closed(k, taken, eid):
    """Even-distance pairs whose last incident edge is ``eid``, once the
    edges in ``taken`` are mapped."""
    def complete(v, mapped):
        return all(e in mapped for _, e in k.adjacency[v])

    after = set(taken) | {eid}
    return sum(
        (complete(a, after) and complete(b, after))
        and not (complete(a, taken) and complete(b, taken))
        for a, b in even_pairs(k)
    )


def frontier(k, taken):
    """Untaken edges that share a vertex with a taken one."""
    touched = {v for e in taken for v in k.edges[e]}
    return [
        e for e, (u, v) in enumerate(k.edges)
        if e not in taken and (u in touched or v in touched)
    ]


def edge_order_by_rescan(k):
    """The search's edge order by its rule, rescanning the whole frontier at
    every step: the reference for the plan's edge order."""
    n = k.edge_count
    if n == 0:
        return []
    deg = k.degrees

    def wide(e):
        u, v = k.edges[e]
        return max(deg[u], deg[v])

    top = max(deg)
    order = [min(e for e in range(n) if wide(e) == top)]
    while len(order) < n:
        order.append(max(
            frontier(k, order), key=lambda e: (pairs_closed(k, order, e), wide(e), -e)
        ))
    return order


@settings(deadline=None)
@given(trees(max_edges=12))
@example(Tree(1, []))
@example(Tree(2, [(0, 1)]))
@example(Tree(13, [(0, leaf) for leaf in range(1, 13)]))
@example(Tree(13, [(i, i + 1) for i in range(12)]))
def test_edge_order_grows_one_subtree_closing_the_most_pairs(k):
    order = plan_order(k)
    assert sorted(order) == list(range(k.edge_count))
    for m in range(1, len(order) + 1):
        # A forest with m edges on m + 1 vertices is one tree.
        assert len({v for e in order[:m] for v in k.edges[e]}) == m + 1
    for m in range(1, len(order)):
        taken = order[:m]
        best = pairs_closed(k, taken, order[m])
        assert all(pairs_closed(k, taken, e) <= best for e in frontier(k, taken))
    assert order == edge_order_by_rescan(k)


@pytest.mark.parametrize("n", [
    *range(11), *(pytest.param(n, marks=pytest.mark.slow) for n in (11, 12))
])
def test_edge_order_matches_rescan_on_the_catalogues(n):
    for k in enumerate_trees(n).trees:
        assert plan_order(k) == edge_order_by_rescan(k), k


# Trees past the reach of ``edge_order_by_rescan``, with parents computed,
# not drawn, so they are the same on every Python.
LARGE_TREES = [
    Tree(1101, [(0, leaf) for leaf in range(1, 1101)]),
    Tree(301, [(i, i + 1) for i in range(300)]),
    attachment_tree([i // 2 for i in range(200)]),
    attachment_tree([i // 3 for i in range(400)]),
    attachment_tree([i * 37 % (i + 1) for i in range(600)]),
    attachment_tree([i % 10 for i in range(1000)]),
]


def test_edge_order_pinned():
    # Every catalogue tree with 0-12 edges, and ``LARGE_TREES``. A moved
    # order moves witnesses and node counts, and so every pinned report.
    digest = hashlib.sha256()
    for k in [t for n in range(13) for t in enumerate_trees(n).trees] + LARGE_TREES:
        digest.update((" ".join(map(str, plan_order(k))) + "\n").encode())
    assert digest.hexdigest() == (
        "da630f81e33db772f9fbd633a7142c225da6111fe1f2fd3f88b6645aa367cf73"
    )


def test_automorphism_generators_pinned():
    # Every catalogue tree with 0-10 edges, and ``LARGE_TREES``. A moved
    # generator moves the source's bounds or the target's locks, and so the
    # node counts of every pinned certificate.
    digest = hashlib.sha256()
    for k in [t for n in range(11) for t in enumerate_trees(n).trees] + LARGE_TREES:
        digest.update((repr(k.automorphism_generators) + "\n").encode())
    assert digest.hexdigest() == (
        "59d57ef3a0416eb06941ab8895d76bd8d640f80cf37dd309a17e61cd9ac0758f"
    )


def assert_one_inner_vertex_per_depth(k):
    # The plan's layout rests on this: the mapped edges are one subtree, so
    # no depth's edge is the last of both its ends when both are inner.
    deg = k.degrees
    for depth, done in enumerate(vertex_completions(k)):
        assert sum(deg[v] > 1 for v, _ in done) <= 1, (k, depth)


@pytest.mark.parametrize("n", [
    *range(1, 11), *(pytest.param(n, marks=pytest.mark.slow) for n in (11, 12))
])
def test_no_depth_completes_two_inner_vertices_on_the_catalogues(n):
    for k in enumerate_trees(n).trees:
        assert_one_inner_vertex_per_depth(k)


@settings(deadline=None)
@given(trees(min_edges=1, max_edges=30))
def test_no_depth_completes_two_inner_vertices(k):
    assert_one_inner_vertex_per_depth(k)


@pytest.mark.parametrize("k", LARGE_TREES, ids=lambda k: f"{k.edge_count}edges")
def test_no_depth_completes_two_inner_vertices_on_large_trees(k):
    assert_one_inner_vertex_per_depth(k)


def split_schedule(k):
    """``two_pass_schedule`` laid out as the plan lays it out, per depth. An
    inner vertex is named by the depth of its last edge. First, a list with
    an entry per inner vertex done there: the depths of its other edges, its
    inner partners and the edge depths of its leaf partners. Second, the
    inner partners of the leaf whose edge the depth maps. Pairs of two
    leaves go in none; every list is sorted."""
    complete, checks = two_pass_schedule(k)
    leaf = {v for v, d in enumerate(k.degrees) if d == 1}
    done = {v: at[-1] for c in complete for v, at in c}
    split = []
    for depth, pairs in enumerate(checks):
        closes = {v: (at[:-1], [], []) for v, at in complete[depth] if v not in leaf}
        new_leaf = []
        for a, b in pairs:
            for v, w in ((a, b), (b, a)):
                if v in closes and done[w] < depth:
                    closes[v][2 if w in leaf else 1].append(done[w])
                elif v in leaf and w not in leaf and done[v] == depth:
                    new_leaf.append(done[w])
        split.append((
            sorted((at, tuple(sorted(inner)), tuple(sorted(leaves)))
                   for at, inner, leaves in closes.values()),
            sorted(new_leaf),
        ))
    return split


def assert_plan_matches_two_passes(k):
    _, _, closes, new_leaf = realizability._plan(k)
    plan = [
        ([] if c is None else [tuple(tuple(sorted(part)) for part in c)], sorted(nl))
        for c, nl in zip(closes, new_leaf)
    ]
    assert plan == split_schedule(k), k


@pytest.mark.parametrize("n", [
    *range(1, 11), *(pytest.param(n, marks=pytest.mark.slow) for n in (11, 12))
])
def test_plan_schedule_matches_two_passes_on_the_catalogues(n):
    for k in enumerate_trees(n).trees:
        assert_plan_matches_two_passes(k)


@settings(deadline=None)
@given(trees(min_edges=1, max_edges=30))
@example(Tree(2, [(0, 1)]))
@example(Tree(31, [(i, i + 1) for i in range(30)]))
def test_plan_schedule_matches_two_passes(k):
    assert_plan_matches_two_passes(k)


def test_plan_schedule_matches_two_passes_on_a_large_star():
    # 604,450 pairs, all among the leaves: two distinct edges are always
    # unlinked, so the plan lists none of them.
    star = LARGE_TREES[0]
    assert_plan_matches_two_passes(star)
    assert sum(map(len, two_pass_schedule(star)[1])) == 1100 * 1099 // 2
    _, _, closes, new_leaf = realizability._plan(star)
    assert closes[-1] == (tuple(range(1099)), (), ())
    assert closes[:-1] == [None] * 1099 and not any(new_leaf)


@settings(deadline=None)
@given(trees(max_edges=9, min_edges=2), st.data())
def test_generators_keep_a_witness_realizable(k, data):
    """The premise of the search's automorphism cut: for a generator ``σ``
    of the source and ``t`` of the target, ``h∘σ`` and ``t∘h`` are
    realizable when ``h`` is. The witness comes before each of them in
    search order; they are the bijections the cut skips."""
    k2 = data.draw(trees(max_edges=k.edge_count, min_edges=k.edge_count))
    cert = find_realizable_bijection(k, k2)
    if cert.verdict == UNFRIENDLY:
        return
    h = cert.witness
    images = []
    for gen in k.automorphism_generators:
        sigma = dict(gen)
        images.append(tuple(h[sigma.get(e, e)] for e in range(len(h))))
    for gen in k2.automorphism_generators:
        t = dict(gen)
        images.append(tuple(t.get(f, f) for f in h))
    for image in images:
        assert is_realizable(k, k2, image)
        assert search_key(k, k2, h) < search_key(k, k2, image)


def test_witness_is_first_realizable_in_search_order():
    # The search reaches bijections in lexicographic order of the ranks of
    # the images it gives the source edges in the plan's edge order. The
    # automorphism cut claims never to skip the first realizable one, so a
    # plain scan in that order finds exactly the search's witness, or nothing
    # when the verdict is unfriendly.
    for n in range(7):
        catalog = enumerate_trees(n).trees
        for k, k2 in product(catalog, repeat=2):
            order = plan_order(k)
            edge_of = canonical_edge_order(k2)
            first = None
            for ranks in permutations(range(n)):
                h = [0] * n
                for eid, r in zip(order, ranks):
                    h[eid] = edge_of[r]
                if is_realizable(k, k2, tuple(h)):
                    first = tuple(h)
                    break
            cert = find_realizable_bijection(k, k2)
            assert cert.witness == first, (k, k2)
            assert (cert.verdict == FRIENDLY) == (first is not None)


def test_cut_reaches_isomorphic_branches():
    # Tree 229 of the 10-edge catalogue is a spider with five legs of length
    # 2: its symmetries swap whole legs, branches of depth 2 with no twin
    # leaves. Cutting only swaps of leaves leaves these two directions at
    # 1,037,380 and 450,886 nodes. Search only: no 10! scan.
    catalog = enumerate_trees(10).trees
    for k, k2 in ((catalog[43], catalog[229]), (catalog[229], catalog[43])):
        cert = find_realizable_bijection(k, k2)
        assert cert.verdict == UNFRIENDLY
        assert cert.nodes < 5_000


def test_twelve_edge_tail_pairs():
    # Friendly 12-edge pairs from the slow tail of a random catalogue
    # sample: the node counts pin how early the edge order closes pairs.
    catalog = enumerate_trees(12).trees
    nodes = []
    for i, j in ((48, 361), (416, 1203), (527, 752)):
        k, k2 = catalog[i], catalog[j]
        cert = find_realizable_bijection(k, k2)
        assert cert.verdict == FRIENDLY
        assert is_realizable(k, k2, cert.witness)
        nodes.append(cert.nodes)
    assert nodes == [60_744, 34_652, 58_389]


@pytest.mark.slow
def test_hardest_ten_edge_pair():
    # (229, 38) is a 10-edge pair whose source, the spider with five legs of
    # length 2, has only symmetries that swap whole legs; its target has
    # twin leaves. The automorphism cut breaks both, so the search needs a
    # few hundred nodes. The pair is unfriendly both ways, and each
    # direction is re-derived by the unpruned scan of all 10! bijections.
    catalog = enumerate_trees(10).trees
    spider, target = catalog[229], catalog[38]
    assert find_realizable_bijection(spider, target).nodes == 528
    for k, k2 in ((spider, target), (target, spider)):
        assert find_realizable_bijection(k, k2).verdict == UNFRIENDLY
        cert = exhaustive_search(k, k2)
        assert cert.verdict == UNFRIENDLY
        assert cert.checked == factorial(10)
