import random
import re
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from friendly_trees.enumeration import enumerate_trees
from friendly_trees.survey import build_G, build_H
from friendly_trees.tree import (
    ItemError,
    Tree,
    canonical_code,
    delta,
    edge_mask,
    format_tree,
    is_isomorphic,
    mask_ids,
    parity,
    parse_tree,
    path_edges,
    rooted_codes,
    vertex_adjacency,
)

from helpers import brute_force_isomorphic, random_tree, relabel, trees

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

    @pytest.mark.parametrize("count", [3.9, 3.0, "3", True])
    def test_rejects_non_int_vertex_count(self, count):
        with pytest.raises(ValueError, match="vertex_count must be an int"):
            Tree(count, [(0, 1), (1, 2)])

    def test_rejects_non_int_endpoint(self):
        # An edge fault carries its edge id, so a parser can name the line.
        with pytest.raises(ItemError, match=r"edge \(0, 1\.5\) has a vertex id that is not an int") as err:
            Tree(3, [(0, 1.5), (1, 2)])
        assert err.value.index == 0
        with pytest.raises(ItemError, match="not an int") as err:
            Tree(3, [(0, 1), (1.0, 2)])
        assert err.value.index == 1

    @pytest.mark.parametrize(
        "edges, index, shown",
        [
            ([(0, 1, 2), (1, 2)], 0, "(0, 1, 2)"),
            ([0, 1], 0, "0"),
            ([(0, 1), (2,)], 1, "(2,)"),
            ([(0, 1), None], 1, "None"),
        ],
    )
    def test_rejects_an_edge_that_is_not_a_pair(self, edges, index, shown):
        with pytest.raises(ItemError, match=re.escape(f"edge {shown} is not a pair")) as err:
            Tree(3, edges)
        assert err.value.index == index

    @pytest.mark.parametrize("edges", [5, None])
    def test_rejects_edges_that_are_not_iterable(self, edges):
        with pytest.raises(ValueError, match=f"edges must be an iterable of vertex pairs, got {edges!r}") as err:
            Tree(2, edges)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("t", [Tree(1, []), PATH3, Tree(5, [(3, 1), (1, 0), (4, 1), (2, 4)])])
    def test_repr_rebuilds_the_tree(self, t):
        again = eval(repr(t), {"Tree": Tree})
        assert (again.vertex_count, again.edges) == (t.vertex_count, t.edges)


def reference_outcome(n, edges):
    """What ``Tree(n, edges)`` must do, derived apart from ``tree.py``:
    ``("tree", edges)`` when the edges form a tree, else the exception type,
    message and ``ItemError`` index (``None`` for a plain ``ValueError``).

    The edge count is named first, then the first faulty edge in id order:
    not a pair, a vertex id that is not an int, one out of range, a
    self-loop, the same ends as an earlier edge, or ends that earlier edges
    already join, found by a BFS over them."""
    if len(edges) != n - 1:
        return ValueError, f"a tree on {n} vertices needs {n - 1} edges, got {len(edges)}", None
    earlier = []
    for eid, edge in enumerate(edges):
        if not (isinstance(edge, (tuple, list)) and len(edge) == 2):
            return ItemError, f"edge {edge!r} is not a pair of vertex ids", eid
        u, v = edge
        if not (type(u) is int and type(v) is int):
            return ItemError, f"edge ({u!r}, {v!r}) has a vertex id that is not an int", eid
        if u not in range(n) or v not in range(n):
            return ItemError, f"edge ({u}, {v}) has a vertex id outside 0..{n - 1}", eid
        if u == v:
            return ItemError, f"self-loop at vertex {u}", eid
        if {u, v} in [{a, b} for a, b in earlier]:
            return ItemError, f"duplicate edge ({u}, {v})", eid
        reached, frontier = {u}, [u]
        while frontier:
            x = frontier.pop()
            for a, b in earlier + [(b, a) for a, b in earlier]:
                if a == x and b not in reached:
                    reached.add(b)
                    frontier.append(b)
        if v in reached:
            return ItemError, f"contains a cycle (edge ({u}, {v}) closes it)", eid
        earlier.append((u, v))
    return "tree", tuple(earlier)


def tree_outcome(n, edges):
    try:
        t = Tree(n, edges)
    except ValueError as err:
        return type(err), str(err), getattr(err, "index", None)
    assert t.vertex_count == n
    return "tree", t.edges


class TestConstructionMatchesReference:
    def test_every_list_of_pairs_through_four_vertices(self):
        # Every list of n - 1 pairs over -1..n: 47,298 lists for n <= 4.
        lists = 0
        for n in range(1, 5):
            pairs = list(product(range(-1, n + 1), repeat=2))
            for edges in product(pairs, repeat=n - 1):
                lists += 1
                assert tree_outcome(n, edges) == reference_outcome(n, edges), (n, edges)
        assert lists == 47_298

    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            # The edge count is named before an edge that is not a pair.
            (3, [None], (ValueError, "a tree on 3 vertices needs 2 edges, got 1", None)),
            (2, [(0, 1, 2), (0, 1)], (ValueError, "a tree on 2 vertices needs 1 edges, got 2", None)),
            (4, [[1, 2], (0,)], (ValueError, "a tree on 4 vertices needs 3 edges, got 2", None)),
            # An earlier faulty edge is named before a later one that is not a pair.
            (3, [(0, 0), None], (ItemError, "self-loop at vertex 0", 0)),
            (3, [(0, 5), (0,)], (ItemError, "edge (0, 5) has a vertex id outside 0..2", 0)),
            (3, [(0, 1.0), (0, 1, 2)], (ItemError, "edge (0, 1.0) has a vertex id that is not an int", 0)),
            (4, [(0, 1), (1, 0), None], (ItemError, "duplicate edge (1, 0)", 1)),
            (5, [(0, 1), [1, 2], (2, 0), None], (ItemError, "contains a cycle (edge (2, 0) closes it)", 2)),
        ],
    )
    def test_precedence(self, n, edges, expected):
        assert tree_outcome(n, edges) == reference_outcome(n, edges) == expected


def derived_tables(t):
    return (
        t.vertex_count,
        t.edges,
        t.adjacency,
        t.depths,
        t.side_tables,
        t.automorphism_generators,
        canonical_code(t),
    )


class TestWithLeaf:
    # ``with_leaf`` skips ``__init__``: every table of its result must be
    # that of the same tree built through the validating constructor.
    def test_matches_the_constructor_on_catalogue_trees(self):
        for n in range(9):
            for t in enumerate_trees(n).trees:
                for v in range(t.vertex_count):
                    built = Tree(n + 2, t.edges + ((v, n + 1),))
                    assert derived_tables(t.with_leaf(v)) == derived_tables(built), (t, v)

    @given(trees(max_edges=20), st.data())
    def test_matches_the_constructor_on_any_tree(self, t, data):
        v = data.draw(st.integers(0, t.vertex_count - 1))
        n = t.vertex_count
        built = Tree(n + 1, t.edges + ((v, n),))
        assert derived_tables(t.with_leaf(v)) == derived_tables(built)

    def test_leaves_the_parent_unchanged(self):
        t = Tree(5, [(3, 1), (1, 0), (4, 1), (2, 4)])
        derived_tables(t)
        before = dict(vars(t))
        for v in range(t.vertex_count):
            t.with_leaf(v)
        assert vars(t) == before

    @pytest.mark.parametrize("v, message", [
        (True, "vertex id must be an int, got True"),
        (1.0, "vertex id must be an int, got 1.0"),
        (-1, "vertex id -1 outside 0..3"),
        (4, "vertex id 4 outside 0..3"),
    ])
    def test_rejects_a_bad_vertex(self, v, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PATH3.with_leaf(v)


@pytest.mark.parametrize(
    "query",
    [delta, lambda t, v: parity(t, 0, v), lambda t, v: path_edges(t, 0, v)],
    ids=["delta", "parity", "path_edges"],
)
@pytest.mark.parametrize("v", [1.0, 1.5, 2.0, "1", True, False, None])
def test_rejects_a_vertex_id_that_is_not_an_int(query, v):
    # A bool would otherwise act as vertex 0 or 1, a float or str fail deep inside.
    with pytest.raises(ValueError, match=re.escape(f"vertex id must be an int, got {v!r}")):
        query(PATH3, v)


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


class TestSideTables:
    def test_long_path(self):
        below, ends = LONG_PATH.side_tables
        # Edge (i, i+1) has vertices i+1..2999 below it.
        everything = (1 << 3000) - 1
        assert below == tuple(everything ^ ((1 << (i + 1)) - 1) for i in range(2999))
        assert ends == tuple(3 << i for i in range(2999))

    def test_caterpillar(self):
        below, ends = CATERPILLAR.side_tables
        # Spine edge (i, i+1) has spine vertices i+1..1499 and their legs
        # below it; leg edge (i, 1500+i) has its leaf alone.
        spine = [(1 << 1500) - (1 << (i + 1)) for i in range(1499)]
        assert below == tuple(m | m << 1500 for m in spine) + tuple(
            1 << (1500 + i) for i in range(1500)
        )
        assert ends == tuple(3 << i for i in range(1499)) + tuple(
            (1 << i) | (1 << (1500 + i)) for i in range(1500)
        )


def incidence_sets(t):
    """The edge ids at each vertex, one frozenset per vertex."""
    return {frozenset(eid for _, eid in nbrs) for nbrs in t.adjacency}


def as_permutation(t, gen):
    """A generator's moved ``(edge id, image)`` pairs as a full edge
    permutation."""
    perm = list(range(t.edge_count))
    for e, f in gen:
        perm[e] = f
    return tuple(perm)


def preserves_incidence(perm, stars):
    return all(frozenset(perm[e] for e in s) in stars for s in stars)


def generated_group_order(t):
    """Order of the group of edge permutations the generators generate,
    by closure from the identity."""
    gens = [as_permutation(t, g) for g in t.automorphism_generators]
    identity = tuple(range(t.edge_count))
    seen = {identity}
    frontier = [identity]
    for p in frontier:
        for g in gens:
            q = tuple(p[x] for x in g)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


def edge_automorphism_count(t):
    """Brute force: edge permutations that map the incident sets of the
    vertices onto the incident sets of the vertices."""
    stars = incidence_sets(t)
    return sum(
        preserves_incidence(p, stars) for p in permutations(range(t.edge_count))
    )


class TestAutomorphismGenerators:
    def test_incidence_preserving_involutions_through_twelve_edges(self):
        for n in range(13):
            for t in enumerate_trees(n).trees:
                stars = incidence_sets(t)
                for gen in t.automorphism_generators:
                    assert gen == tuple(sorted(gen))
                    assert all(e != f for e, f in gen)
                    perm = as_permutation(t, gen)
                    assert all(perm[perm[e]] == e for e in range(n))
                    assert preserves_incidence(perm, stars), (t, gen)

    @given(trees(max_edges=12))
    def test_incidence_preserving_involutions_in_any_labelling(self, t):
        stars = incidence_sets(t)
        for gen in t.automorphism_generators:
            perm = as_permutation(t, gen)
            assert all(perm[f] == e for e, f in gen)
            assert preserves_incidence(perm, stars)

    def test_generate_the_whole_group_through_seven_edges(self):
        for n in range(8):
            for t in enumerate_trees(n).trees:
                assert generated_group_order(t) == edge_automorphism_count(t), t

    def test_spider_swaps_whole_legs(self):
        # Three legs of length 2 on a hub: two swaps of whole legs.
        spider = Tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert spider.automorphism_generators == (
            ((0, 2), (1, 3), (2, 0), (3, 1)),
            ((2, 4), (3, 5), (4, 2), (5, 3)),
        )

    def test_bicentral_flip(self):
        # PATH3 has two centroids with isomorphic halves: the flip.
        assert PATH3.automorphism_generators == (((0, 2), (2, 0)),)
        assert Tree(2, [(0, 1)]).automorphism_generators == ()

    def test_deep_trees_need_no_recursion(self):
        # LONG_PATH has 3,000 vertices: two centroids, the flip alone.
        (flip,) = LONG_PATH.automorphism_generators
        assert flip == tuple((e, 2998 - e) for e in range(2999) if e != 1499)
        # The caterpillar's reversal, legs included, about spine edge 749.
        (flip,) = CATERPILLAR.automorphism_generators
        spine = [(e, 1498 - e) for e in range(1499) if e != 749]
        legs = [(1499 + i, 2998 - i) for i in range(1500)]
        assert flip == tuple(spine + legs)


def adjacency_neighbours(t):
    return [[y for y, _ in nbrs] for nbrs in t.adjacency]


class TestVertexAdjacency:
    # The order matters: ``rooted``'s BFS follows it into ``depths``,
    # ``side_tables`` and ``automorphism_generators``, and so into the
    # search order.
    def test_matches_adjacency_on_catalogue_trees(self):
        for n in range(9):
            for t in enumerate_trees(n).trees:
                assert vertex_adjacency(t) == adjacency_neighbours(t), t

    def test_matches_adjacency_on_random_trees(self):
        rng = random.Random(2020)
        for _ in range(300):
            t = random_tree(rng, rng.randrange(40))
            assert vertex_adjacency(t) == adjacency_neighbours(t), t
        for t in (LONG_PATH, CATERPILLAR):
            assert vertex_adjacency(t) == adjacency_neighbours(t)


def reference_rooting(t, root):
    """``(parent, size, code, kids)`` per vertex of ``t`` rooted at ``root``,
    by a recursive walk over ``Tree.adjacency``: ``size`` counts the
    vertices below a vertex and the vertex itself, ``kids`` holds its
    children's codes sorted, and ``code`` wraps their concatenation in one
    more pair."""
    parent = {root: -1}
    below, code, kids = {}, {}, {}

    def walk(v):
        below[v] = [v]
        for y, _ in t.adjacency[v]:
            if y != parent[v]:
                parent[y] = v
                walk(y)
                below[v] += below[y]
        kids[v] = sorted(code[y] for y, _ in t.adjacency[v] if y != parent[v])
        code[v] = "(" + "".join(kids[v]) + ")"

    walk(root)
    size = {v: len(vs) for v, vs in below.items()}
    return parent, size, code, kids


class TestRootedCodes:
    @given(trees(max_edges=30))
    def test_matches_a_recursive_walk_at_every_root(self, t):
        n = t.vertex_count
        adj = vertex_adjacency(t)
        for root in range(n):
            order, parent, size, code, kids = rooted_codes(n, adj, root)
            ref_parent, ref_size, ref_code, ref_kids = reference_rooting(t, root)
            assert order[0] == root
            assert sorted(order) == list(range(n))
            seen = set()
            for v in order:
                assert v == root or parent[v] in seen, (t, root, v)
                seen.add(v)
            assert parent == [ref_parent[v] for v in range(n)]
            assert size == [ref_size[v] for v in range(n)]
            assert code == [ref_code[v] for v in range(n)]
            assert kids == [ref_kids[v] for v in range(n)]

    def test_long_path_from_one_end(self):
        # 3,000 levels deep: a recursive pass would exceed the default limit.
        rooting = rooted_codes(3000, vertex_adjacency(LONG_PATH), 0)
        assert rooting.code[0] == "(" * 3000 + ")" * 3000
        assert rooting.order == list(range(3000))
        assert rooting.size[0] == 3000


class TestCanonicalCode:
    def test_single_edge(self):
        assert canonical_code(Tree(2, [(0, 1)])) == "(())"

    def test_builds_no_adjacency(self):
        # A catalogue candidate only needs its code: the (neighbour, edge id)
        # pairs of ``Tree.adjacency`` are not built for it, nor cached.
        t = Tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        canonical_code(t)
        assert "adjacency" not in vars(t)

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

    @pytest.mark.parametrize("mask", [-1, -8, True, False, 1.0, "3", None])
    def test_rejects_a_non_mask(self, mask):
        # A negative int never empties under ``mask ^= low``.
        with pytest.raises(ValueError, match="edge mask must be a non-negative int"):
            mask_ids(mask)

    @pytest.mark.parametrize("eid", [-1, True, False, 1.0, "3", None])
    def test_rejects_a_non_edge_id(self, eid):
        # ``1 << True`` is 2 and ``1 << -1`` a bare shift error.
        message = f"edge id must be a non-negative int, got {eid!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            edge_mask([0, eid])


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
            ("V +2\nE 0 1\n", r"line 1: bad vertex count '\+2'"),
            ("V 1_000\n", "line 1: bad vertex count '1_000'"),
            ("V ３\nE 0 1\nE 1 2\n", "line 1: bad vertex count '３'"),
            ("V 2\nV 2\n", "line 2: second V line"),
            ("\nE 0 1\nV 2\n", "line 2: E line before V line"),
            ("V 3\nE 0 1\nE 1 5\n", r"line 3: edge \(1, 5\) has a vertex id outside 0\.\.2"),
            ("V 3\n\nE 1 1\nE 0 1\n", "line 3: self-loop at vertex 1"),
            ("V 3\nE 0 1\nE 1 0\n", r"line 3: duplicate edge \(1, 0\)"),
            ("V 4\nE 0 1\nE 1 2\n\nE 2 0\n", r"line 5: contains a cycle \(edge \(2, 0\) closes it\)"),
            ("V 0\n", "line 1: vertex_count must be positive"),
            ("\nV 3\nE 0 1\n", "line 2: a tree on 3 vertices needs 2 edges, got 1"),
            ("V 3\r\n\r\nE 0 1\r\nE 1 5\r\n", r"line 4: edge \(1, 5\) has a vertex id outside"),
            ("V 3\r\rE 0 1\rE 1 5\r", r"line 4: edge \(1, 5\) has a vertex id outside"),
            ("V 3\r\r\nE 0 1\nE 1 5", r"line 4: edge \(1, 5\) has a vertex id outside"),
        ],
    )
    def test_parse_rejection_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_tree(text)

    @pytest.mark.parametrize(
        "char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newline_characters_end_a_line(self, char):
        # str.splitlines would end line 2 at char and blame "line 3".
        with pytest.raises(ValueError, match=r"^line 2: unrecognized line 'E 0 1 E 1 5'$"):
            parse_tree(f"V 3\nE 0 1{char}E 1 5\n")

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_parse_accepts_crlf_and_cr(self, end):
        assert parse_tree(format_tree(PATH3).replace("\n", end)).edges == PATH3.edges

    def test_parse_skips_blank_lines(self):
        t = parse_tree("V 2\n\nE 0 1\n")
        assert t.edges == ((0, 1),)

