import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friendly_trees.enumeration import enumerate_trees
from friendly_trees.survey import build_G, build_H
from friendly_trees.tree import (
    Tree,
    canonical_code,
    centroids,
    code_from_adjacency,
    delta,
    edge_mask,
    format_tree,
    is_isomorphic,
    mask_ids,
    parity,
    parse_tree,
    path_edges,
    rooted_code,
    vertex_adjacency,
)

from helpers import brute_force_isomorphic, relabel, trees

PATH3 = Tree(4, [(0, 1), (1, 2), (2, 3)])
STAR3 = Tree(4, [(0, 1), (0, 2), (0, 3)])
# Deep enough to exhaust the default recursion limit of a recursive code.
LONG_PATH = Tree(3000, [(i, i + 1) for i in range(2999)])
CATERPILLAR = Tree(3000, [(i, i + 1) for i in range(1499)] + [(i, 1500 + i) for i in range(1500)])


class TestConstruction:
    def test_single_vertex(self):
        t = Tree(1, [])
        assert t.vertex_count == 1
        assert t.edge_count == 0

    def test_rejects_nonpositive_vertex_count(self):
        with pytest.raises(ValueError, match="positive"):
            Tree(0, [])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError, match="needs 2 edges"):
            Tree(3, [(0, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Tree(3, [(0, 1), (2, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Tree(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            Tree(3, [(0, 1), (1, 3)])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            Tree(4, [(0, 1), (1, 2), (2, 0)])


class TestPathEdges:
    def test_same_vertex_is_empty(self):
        assert path_edges(PATH3, 2, 2) == 0

    def test_spider_hub_to_leg_tip(self):
        # hub to a leg tip crosses the two leg edges
        h = build_H()
        assert path_edges(h, 0, 5) == edge_mask([1, 4])

    def test_double_star_hub_to_far_leaf(self):
        # one hub to a far plain leaf: four edges through the joining edge
        g = build_G()
        assert path_edges(g, 0, 5) == edge_mask([0, 3, 4, 6])

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError, match="vertex id"):
            path_edges(PATH3, 0, 9)

    @given(trees(max_edges=10), st.data())
    def test_symmetric_and_triangle(self, t, data):
        a = data.draw(st.integers(0, t.vertex_count - 1))
        b = data.draw(st.integers(0, t.vertex_count - 1))
        c = data.draw(st.integers(0, t.vertex_count - 1))
        ab = path_edges(t, a, b)
        assert ab == path_edges(t, b, a)
        assert ab.bit_count() <= (
            path_edges(t, a, c).bit_count() + path_edges(t, c, b).bit_count()
        )


def bfs_two_coloring(t):
    color = [0] * t.vertex_count
    seen = [False] * t.vertex_count
    seen[0] = True
    queue = [0]
    for x in queue:
        for y, _ in t.adjacency[x]:
            if not seen[y]:
                seen[y] = True
                color[y] = color[x] ^ 1
                queue.append(y)
    return color


class TestParity:
    def test_same_vertex_even(self):
        assert parity(STAR3, 1, 1) == "even"

    def test_spider_hub_to_tips_even(self):
        h = build_H()
        for tip in (5, 6, 7):
            assert parity(h, 0, tip) == "even"

    def test_single_edge_odd(self):
        assert parity(PATH3, 0, 1) == "odd"

    @given(trees(max_edges=10), st.data())
    def test_matches_bipartition(self, t, data):
        a = data.draw(st.integers(0, t.vertex_count - 1))
        b = data.draw(st.integers(0, t.vertex_count - 1))
        color = bfs_two_coloring(t)
        expected = "even" if color[a] == color[b] else "odd"
        assert parity(t, a, b) == expected
        assert parity(t, a, b) == (
            "even" if path_edges(t, a, b).bit_count() % 2 == 0 else "odd"
        )


class TestDelta:
    def test_spider_hub(self):
        assert delta(build_H(), 0) == edge_mask([0, 1, 2, 3])

    def test_leaf_is_singleton(self):
        assert delta(PATH3, 0) == edge_mask([0])

    def test_double_star_joined_leaf(self):
        # the degree-2 vertex on the joining edge of the first star
        assert delta(build_G(), 3) == edge_mask([0, 3])

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError, match="vertex id"):
            delta(PATH3, 4)

    @given(trees(max_edges=10))
    def test_degree_sum(self, t):
        assert sum(delta(t, v).bit_count() for v in range(t.vertex_count)) == (
            2 * t.edge_count
        )


class TestCanonicalCode:
    def test_single_edge(self):
        assert canonical_code(Tree(2, [(0, 1)])) == "(())"

    def test_path_and_star_differ(self):
        assert canonical_code(PATH3) != canonical_code(STAR3)

    def test_balanced_parentheses(self):
        for t in (PATH3, STAR3, build_G(), build_H(), LONG_PATH, CATERPILLAR):
            code = canonical_code(t)
            assert len(code) == 2 * t.vertex_count
            depth = 0
            for ch in code:
                depth += 1 if ch == "(" else -1
                assert depth >= 0
            assert depth == 0

    def test_relabelings_of_double_star_agree(self):
        g = build_G()
        expected = canonical_code(g)
        rng = random.Random(7)
        for _ in range(25):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            assert canonical_code(relabel(g, perm)) == expected

    @given(trees(max_edges=10), st.data())
    def test_invariant_under_relabeling(self, t, data):
        perm = data.draw(st.permutations(range(t.vertex_count)))
        assert canonical_code(relabel(t, list(perm))) == canonical_code(t)

    @given(trees(max_edges=10))
    def test_matches_plain_centroid_min(self, t):
        # pins the shared-half bicentroid construction to the direct form
        n = t.vertex_count
        adj = vertex_adjacency(t)
        direct = min(rooted_code(n, adj, c) for c in centroids(n, adj))
        assert code_from_adjacency(n, adj) == direct


class TestIsIsomorphic:
    def test_reflexive(self):
        assert is_isomorphic(PATH3, PATH3)

    def test_path_vs_star(self):
        assert not is_isomorphic(PATH3, STAR3)

    def test_fixtures_differ(self):
        g, h = build_G(), build_H()
        assert sorted(g.degrees, reverse=True) == [3, 3, 2, 2, 1, 1, 1, 1]
        assert sorted(h.degrees, reverse=True) == [4, 2, 2, 2, 1, 1, 1, 1]
        assert not is_isomorphic(g, h)

    def test_agrees_with_permutation_search(self):
        # every pair of free trees with at most 7 vertices, plus relabelings
        rng = random.Random(11)
        pool = [t for n in range(7) for t in enumerate_trees(n).trees]
        for a, b in combinations(pool, 2):
            assert is_isomorphic(a, b) == brute_force_isomorphic(a, b)
        for t in pool:
            perm = list(range(t.vertex_count))
            rng.shuffle(perm)
            other = relabel(t, perm)
            assert is_isomorphic(t, other)
            assert brute_force_isomorphic(t, other)


class TestEdgeMasks:
    def test_round_trip(self):
        assert mask_ids(edge_mask([5, 0, 2])) == (0, 2, 5)

    def test_empty(self):
        assert edge_mask([]) == 0
        assert mask_ids(0) == ()


class TestTextFormat:
    def test_round_trip(self):
        for t in (Tree(1, []), PATH3, build_G(), build_H()):
            again = parse_tree(format_tree(t))
            assert again.vertex_count == t.vertex_count
            assert again.edges == t.edges

    def test_format_is_lf_terminated(self):
        text = format_tree(PATH3)
        assert text.endswith("\n")
        assert text == "V 4\nE 0 1\nE 1 2\nE 2 3\n"

    def test_parse_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            parse_tree("V 4\nE 0 1\nE 1 2\nE 2 0\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_tree("V 2\nX 0 1\n")

    def test_parse_rejects_edge_before_header(self):
        with pytest.raises(ValueError, match="before V"):
            parse_tree("E 0 1\nV 2\n")

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ValueError, match="missing V"):
            parse_tree("\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("V 2\n\nE 0 1 2\n", "line 3: unrecognized"),
            ("V two\n", "line 1: bad vertex count 'two'"),
            ("V 2\nE 0 x\n", "line 2: bad edge '0 x'"),
            ("V 2\nV 2\n", "line 2: second V line"),
            ("\nE 0 1\nV 2\n", "line 2: E line before V line"),
            ("V 3\nE 0 1\nE 1 5\n", r"line 3: edge \(1, 5\) has a vertex id outside 0\.\.2"),
            ("V 3\n\nE 1 1\nE 0 1\n", "line 3: self-loop at vertex 1"),
            ("V 3\nE 0 1\nE 1 0\n", r"line 3: duplicate edge \(1, 0\)"),
            ("V 4\nE 0 1\nE 1 2\n\nE 2 0\n", r"line 5: contains a cycle \(edge \(2, 0\) closes it\)"),
        ],
    )
    def test_parse_rejection_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_tree(text)

    def test_parse_skips_blank_lines(self):
        t = parse_tree("V 2\n\nE 0 1\n")
        assert t.edges == ((0, 1),)


@settings(max_examples=30)
@given(trees(max_edges=10))
def test_root_path_mask_identity(t):
    # the cached root paths reproduce explicit path walks by symmetric difference
    for a in range(t.vertex_count):
        for b in range(t.vertex_count):
            assert (
                t.root_path_masks[a] ^ t.root_path_masks[b]
                == path_edges(t, a, b)
            )
