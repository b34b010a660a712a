import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from friendly_trees import tree
from friendly_trees.linking import (
    endpoints,
    same_side,
    same_side_bruteforce,
    unlinked,
    unlinked_bruteforce,
)
from friendly_trees.survey import build_G, build_H
from friendly_trees.tree import Tree, edge_mask, mask_ids, path_edges

from helpers import incident_mask, random_tree, trees, trees_with_two_edge_sets

PATH3 = Tree(4, [(0, 1), (1, 2), (2, 3)])


class TestSameSide:
    def test_overlap_fails(self):
        assert not same_side(PATH3, edge_mask([0, 1]), edge_mask([1]))
        assert not same_side_bruteforce(PATH3, edge_mask([0, 1]), edge_mask([1]))

    def test_empty_q_always_true(self):
        for p in range(8):
            assert same_side(PATH3, p, 0)

    def test_empty_p_always_true(self):
        for q in range(8):
            assert same_side(PATH3, 0, q)

    def test_spider_hub_versus_leg_end(self):
        # every path between endpoints of the hub's incident set avoids the leg tip edge
        h = build_H()
        p = incident_mask(h, 0)
        q = edge_mask([4])
        ends = endpoints(h, p)
        assert len(ends) == 5
        for x, y in combinations(ends, 2):
            assert (path_edges(h, x, y) & q).bit_count() == 0
        assert same_side(h, p, q)
        assert same_side_bruteforce(h, p, q)

    def test_outer_pair_split_by_middle(self):
        # on a 3-edge path, the two outer edges straddle the middle one
        p = edge_mask([0, 2])
        q = edge_mask([1])
        assert not same_side(PATH3, p, q)
        assert not same_side_bruteforce(PATH3, p, q)

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValueError, match="edge ids outside"):
            same_side(PATH3, edge_mask([3]), 0)
        with pytest.raises(ValueError, match="edge ids outside"):
            same_side_bruteforce(PATH3, 0, edge_mask([9]))
        for bad in (1.0, None, True, "1"):
            with pytest.raises(ValueError, match="^p must be an int edge mask"):
                same_side(PATH3, bad, 0)
            with pytest.raises(ValueError, match="^q must be an int edge mask"):
                same_side_bruteforce(PATH3, 0, bad)


class TestEndpoints:
    @pytest.mark.parametrize(
        "mask, message",
        [
            (-1, "mask has edge ids outside 0..2, got -1"),
            (1 << 40, f"mask has edge ids outside 0..2, got {1 << 40}"),
            (0b1000, "mask has edge ids outside 0..2, got 8"),
            (True, "mask must be an int edge mask, got True"),
            (1.0, "mask must be an int edge mask, got 1.0"),
        ],
    )
    def test_rejects_a_non_mask(self, mask, message):
        # Unchecked, a stray bit indexes past the edge list.
        with pytest.raises(ValueError, match=re.escape(message)):
            endpoints(PATH3, mask)


class TestUnlinked:
    def test_spider_hub_and_leg_end(self):
        h = build_H()
        assert unlinked(h, incident_mask(h, 0), edge_mask([4]))
        assert unlinked_bruteforce(h, incident_mask(h, 0), edge_mask([4]))

    def test_sharing_an_edge_fails(self):
        h = build_H()
        assert not unlinked(h, incident_mask(h, 0), incident_mask(h, 2))

    def test_both_empty(self):
        assert unlinked(PATH3, 0, 0)

    def test_rejects_out_of_range_mask(self):
        # Each set is checked once, before either side test runs.
        with pytest.raises(ValueError, match="^p has edge ids outside 0..2"):
            unlinked(PATH3, edge_mask([3]), 0)
        with pytest.raises(ValueError, match="^q has edge ids outside 0..2"):
            unlinked(PATH3, 0, edge_mask([0, 5]))
        with pytest.raises(ValueError, match="^q has edge ids outside"):
            unlinked(PATH3, edge_mask([0]), -1)
        for bad in (1.0, None, True, "1"):
            with pytest.raises(ValueError, match="^p must be an int edge mask"):
                unlinked(PATH3, bad, 0)
            with pytest.raises(ValueError, match="^q must be an int edge mask"):
                unlinked(PATH3, 0, bad)

    @given(trees_with_two_edge_sets(max_edges=10))
    def test_symmetric(self, case):
        t, p, q = case
        assert unlinked(t, p, q) == unlinked(t, q, p)


class TestFastMatchesBruteForce:
    @given(trees_with_two_edge_sets(max_edges=10))
    def test_same_side_agrees(self, case):
        t, p, q = case
        assert same_side(t, p, q) == same_side_bruteforce(t, p, q)

    def test_seeded_sweep(self):
        rng = random.Random(20260809)
        for _ in range(300):
            t = random_tree(rng, rng.randint(1, 10))
            top = (1 << t.edge_count) - 1
            p = rng.randint(0, top)
            q = rng.randint(0, top)
            assert same_side(t, p, q) == same_side_bruteforce(t, p, q)
            assert unlinked(t, p, q) == unlinked_bruteforce(t, p, q)


def same_side_without_same_edge_pairs(t, p, q):
    """The stricter reading that skips endpoint pairs forming an edge of p."""
    if p & q:
        return False
    p_edges = {frozenset(t.edges[i]) for i in range(t.edge_count) if p >> i & 1}
    for x, y in combinations(endpoints(t, p), 2):
        if frozenset((x, y)) in p_edges:
            continue
        if (path_edges(t, x, y) & q).bit_count() % 2:
            return False
    return True


@given(trees_with_two_edge_sets(max_edges=10))
def test_same_edge_pair_reading_is_immaterial(case):
    # an edge of p is never in q when the sets are disjoint, so including the
    # pair formed by its own endpoints can never flip the answer
    t, p, q = case
    assert same_side_bruteforce(t, p, q) == same_side_without_same_edge_pairs(t, p, q)


@st.composite
def trees_with_disjoint_edge_sets(draw, max_edges: int):
    """A tree with two disjoint non-empty edge-set masks over its edges."""
    t = draw(trees(max_edges=max_edges, min_edges=2))
    first_p, first_q = draw(st.permutations(range(t.edge_count)))[:2]
    owners = draw(st.lists(st.sampled_from("-pq"), min_size=t.edge_count, max_size=t.edge_count))
    owners[first_p], owners[first_q] = "p", "q"
    p = edge_mask(i for i, owner in enumerate(owners) if owner == "p")
    q = edge_mask(i for i, owner in enumerate(owners) if owner == "q")
    return t, p, q


@given(trees_with_disjoint_edge_sets(max_edges=9))
def test_side_masks_match_bruteforce(case):
    """The search kernel's side test, held to the oracle.

    With ``S(q)`` the XOR of ``below`` over ``q`` (the vertices whose root
    paths cross ``q`` an odd number of times) and ``E(p)`` the OR of ``ends``
    over ``p`` (the endpoints of ``p``'s edges), ``p`` is on one side of a
    disjoint ``q`` exactly when ``E(p) & S(q)`` is ``0`` or ``E(p)``.
    """
    t, p, q = case
    below, ends = t.side_tables
    s_q = e_p = 0
    for f in range(t.edge_count):
        if q >> f & 1:
            s_q ^= below[f]
        if p >> f & 1:
            e_p |= ends[f]
    assert ((e_p & s_q) in (0, e_p)) == same_side_bruteforce(t, p, q)


def test_side_tables_are_built_once_per_tree():
    # The kernel, ``same_side``/``unlinked`` and ``is_realizable`` all read
    # one pair of tables, cached on the tree.
    t = build_H()
    assert t.side_tables is t.side_tables


def test_first_side_test_roots_a_fresh_tree_once_more_than_its_centroids(monkeypatch):
    # The side tables read the rooting at the canonical centroid, so a tree's
    # first side test pays for the centroids' codes: one rooting at vertex 0
    # finds the centroids, and one more at each picks the smaller code. H has
    # one centroid and G two.
    calls = Counter()
    real = tree.rooted
    monkeypatch.setattr(tree, "rooted", lambda *args: calls.update(["rooted"]) or real(*args))
    for t, rootings in ((build_H(), 2), (build_G(), 3)):
        calls.clear()
        same_side(t, 1, 2)
        assert calls == {"rooted": rootings}, t


@st.composite
def trees_with_one_side_set(draw, max_edges: int):
    """A tree, a non-empty edge set ``q`` and a ``p`` on one side of ``q``.

    Colouring each vertex by the parity of ``q``-edges on its path from
    vertex 0, every edge outside ``q`` has two ends of one colour; ``p`` is
    drawn from the edges of one colour class.
    """
    t = draw(trees(max_edges=max_edges, min_edges=1))
    q = draw(st.integers(1, (1 << t.edge_count) - 1))
    colour = [(path_edges(t, 0, x) & q).bit_count() & 1 for x in range(t.vertex_count)]
    side = draw(st.sampled_from(sorted({colour[u] for u, _ in t.edges})))
    pool = [i for i, (u, _) in enumerate(t.edges) if not q >> i & 1 and colour[u] == side]
    if not pool:
        return t, 0, q
    first = draw(st.sampled_from(pool))
    more = draw(st.lists(st.sampled_from(pool), max_size=len(pool)))
    return t, edge_mask([first, *more]), q


@given(trees_with_one_side_set(max_edges=9))
def test_same_side_is_monotone_in_its_first_argument(case):
    """``same_side`` is monotone in its first argument: a subset of a set on
    one side of ``q`` is on one side of ``q`` too. So a partly mapped
    incident set that fails the side test has no completion that passes it."""
    t, p, q = case
    assert same_side_bruteforce(t, p, q)
    ids = mask_ids(p)
    for chosen in range(1, 1 << len(ids)):
        sub = edge_mask(f for i, f in enumerate(ids) if chosen >> i & 1)
        assert same_side_bruteforce(t, sub, q)


def test_same_side_is_not_monotone_in_its_second_argument():
    # On the path 0-1-2-3-4 the path from 1 to 3 crosses {e1, e2} twice but
    # {e1} once, so only the first argument may be tested partly mapped.
    path4 = Tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    p = edge_mask([0, 3])
    assert same_side_bruteforce(path4, p, edge_mask([1, 2]))
    assert not same_side_bruteforce(path4, p, edge_mask([1]))
