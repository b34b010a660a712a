import random
from collections import Counter
from itertools import product
from math import factorial

import pytest

from friendly_trees import enumeration
from friendly_trees.enumeration import (
    _census_key,
    _decode_prufer,
    decode_prufer,
    enumerate_trees,
    prufer_oracle_count,
)
from friendly_trees.tree import Tree, canonical_code, centroids, subtree_codes, vertex_adjacency

# Class counts frozen as regression values: 1..8 produced by the Prüfer
# census, the rest re-derived with the rooted-tree/Otter counting recurrence.
FREE_TREE_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 11, 7: 23, 8: 47,
    9: 106, 10: 235, 11: 551, 12: 1301,
}


def naive_decode(seq, m):
    """Textbook decode: repeatedly join the smallest leaf absent from the
    remaining sequence to the sequence head."""
    seq = list(seq)
    alive = set(range(m))
    edges = []
    while seq:
        leaf = min(v for v in alive if v not in seq)
        edges.append(frozenset((leaf, seq[0])))
        alive.remove(leaf)
        seq.pop(0)
    edges.append(frozenset(alive))
    return set(edges)


def automorphism_count(t):
    """|Aut t|: the product, over the vertices of the tree rooted at its first
    centroid, of the multiplicity factorials of equal child codes; times 2
    when two centroids carry equal halves, which the swap exchanges."""
    n = t.vertex_count
    adj = vertex_adjacency(t)
    cs = centroids(n, adj)
    code = subtree_codes(n, adj, cs[0])
    count = 1
    for v in range(n):
        # a child's subtree is smaller than v's, the parent's larger
        children = [code[u] for u in adj[v] if len(code[u]) < len(code[v])]
        for multiplicity in Counter(children).values():
            count *= factorial(multiplicity)
    if len(cs) == 2:
        c1, c2 = cs
        half1 = "(" + "".join(sorted(code[u] for u in adj[c1] if u != c2)) + ")"
        if half1 == code[c2]:
            count *= 2
    return count


class TestDecodePrufer:
    def test_matches_naive_decode(self):
        for m in range(3, 7):
            for seq in product(range(m), repeat=m - 2):
                fast = {frozenset(e) for e in decode_prufer(seq, m)}
                assert fast == naive_decode(seq, m), (m, seq)

    def test_two_vertices(self):
        assert decode_prufer((), 2) == [(0, 1)]

    @pytest.mark.parametrize("seq, m, message", [
        ((0,), 2, "has 0 entries, got 1"),
        ((), 3, "has 1 entries, got 0"),
        ((0, 1), 3, "has 1 entries, got 2"),
        ((-1,), 3, r"entry 0 .* is -1, outside 0\.\.2"),
        ((5,), 3, r"entry 0 .* is 5, outside 0\.\.2"),
        ((0, 4), 4, r"entry 1 .* is 4, outside 0\.\.3"),
        ((True,), 3, "entry 0 .* not an int: True"),
        ((1.0,), 3, "entry 0 .* not an int: 1.0"),
        ((), 1, "at least 2 vertices, got 1"),
        ((), 0, "at least 2 vertices, got 0"),
        ((), 2.0, "vertex count must be an int"),
        ((0,), True, "vertex count must be an int"),
    ])
    def test_rejects_a_malformed_sequence(self, seq, m, message):
        with pytest.raises(ValueError, match=message):
            decode_prufer(seq, m)

    def test_leaf_removal_order(self):
        # the census reads the edges as (child, parent) pairs bottom-up from
        # root m-1: a removed leaf never reappears, and m-1 is removed last
        for m in range(2, 8):
            for seq in product(range(m), repeat=m - 2):
                edges = decode_prufer(seq, m)
                for i, (leaf, _) in enumerate(edges):
                    assert all(leaf not in e for e in edges[i + 1:]), (m, seq)
                assert edges[-1][1] == m - 1, (m, seq)


def assert_same_classes(trees):
    """``_census_key`` over one code table is ``None`` exactly when vertex
    ``m - 1`` is not a centroid, and otherwise splits the ``(m, edges)``
    trees into the same classes as ``canonical_code``: key to code is a
    bijection. Returns the distinct keys other than ``None``."""
    codes = {(): 0}
    by_key: dict = {}
    by_code: dict = {}
    for m, edges in trees:
        key = _census_key(edges, m, codes)
        t = Tree(m, edges)
        assert (key is None) == (m - 1 not in centroids(m, vertex_adjacency(t))), (m, edges)
        if key is None:
            continue
        code = canonical_code(t)
        assert by_key.setdefault(key, code) == code, (m, edges)
        assert by_code.setdefault(code, key) == key, (m, edges)
    return set(by_key)


class TestCensusKey:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_every_labelled_tree(self, m):
        keys = assert_same_classes(
            (m, decode_prufer(seq, m)) for seq in product(range(m), repeat=m - 2)
        )
        assert len(keys) == FREE_TREE_COUNTS[m - 1]

    @pytest.mark.parametrize("m, kinds", [(9, {int}), (10, {int, tuple})])
    def test_sampled_trees(self, m, kinds):
        rng = random.Random(5000 + m)
        seqs = [tuple(rng.randrange(m) for _ in range(m - 2)) for _ in range(2000)]
        keys = assert_same_classes((m, decode_prufer(seq, m)) for seq in seqs)
        # one-centroid keys are ints, two-centroid keys pairs; only an even
        # vertex count allows two centroids
        assert {type(k) for k in keys} == kinds

    def test_two_centroid_keys_are_pairs(self):
        codes = {(): 0}
        assert _census_key(decode_prufer((), 2), 2, codes) == (0, 0)
        # the 3-edge path 0-1-3-2 has centroids 1 and 3, with equal halves
        path = _census_key(decode_prufer((1, 3), 4), 4, codes)
        star = _census_key(decode_prufer((3, 3), 4), 4, codes)
        assert isinstance(path, tuple) and path[0] == path[1]
        assert isinstance(star, int)
        # the path 0-2-1-3 has centroids 2 and 1, so vertex 3 gets no key
        assert _census_key(decode_prufer((2, 1), 4), 4, codes) is None


class TestOracle:
    def test_trivial_sizes(self):
        assert prufer_oracle_count(1) == 1
        assert prufer_oracle_count(2) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_frozen_counts(self, n):
        assert prufer_oracle_count(n) == FREE_TREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_decodes_the_sequences_holding_the_last_vertex_once(self, n, monkeypatch):
        # In any other sequence the last vertex is a leaf, so no centroid,
        # and gets no key (see test_skipped_sequences_get_no_key).
        decoded = Counter()

        def counting_decode(seq, m):
            decoded[seq, m] += 1
            return _decode_prufer(seq, m)

        monkeypatch.setattr(enumeration, "_decode_prufer", counting_decode)
        assert prufer_oracle_count(n) == FREE_TREE_COUNTS[n]
        m = n + 1
        everything = product(range(m), repeat=m - 2)
        # at m = 2 the one, empty, sequence: both vertices are centroids
        expected = [seq for seq in everything if m - 1 in seq or m == 2]
        assert dict(decoded) == dict.fromkeys(((seq, m) for seq in expected), 1)
        if n == 7:
            # the (n+1)^(n-1) - n^(n-1) sequences that hold vertex n
            assert len(decoded) == 144_495

    @pytest.mark.parametrize("m", range(3, 9))
    def test_skipped_sequences_get_no_key(self, m):
        # The skip's argument, checked apart from the census: a sequence
        # without m - 1 decodes to a tree in which m - 1 is a leaf, and a
        # leaf of a tree on 3 or more vertices gets no key.
        codes = {(): 0}
        for seq in product(range(m - 1), repeat=m - 2):
            edges = decode_prufer(seq, m)
            assert sum(m - 1 in e for e in edges) == 1, (m, seq)
            assert _census_key(edges, m, codes) is None, (m, seq)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="oracle supports"):
            prufer_oracle_count(0)
        with pytest.raises(ValueError, match="oracle supports"):
            prufer_oracle_count(9)
        for n in (3.0, True, "3", None):
            with pytest.raises(ValueError, match="edge_count must be an int"):
                prufer_oracle_count(n)


class TestEnumerateTrees:
    def test_zero_edges(self):
        catalog = enumerate_trees(0)
        assert len(catalog) == 1
        assert catalog.trees[0].vertex_count == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_frozen_counts(self, n):
        assert len(enumerate_trees(n)) == FREE_TREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_against_oracle(self, n):
        assert len(enumerate_trees(n)) == prufer_oracle_count(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_orbit_stabilizer(self, n):
        # each class of n-edge trees has (n+1)!/|Aut| labellings, and there
        # are (n+1)^(n-1) labelled trees in all (Cayley)
        labellings = sum(factorial(n + 1) // automorphism_count(t) for t in enumerate_trees(n).trees)
        assert labellings == (n + 1) ** (n - 1)

    def test_codes_strictly_increasing(self):
        for n in range(9):
            codes = enumerate_trees(n).codes
            assert all(a < b for a, b in zip(codes, codes[1:]))

    def test_codes_match_trees(self):
        for n in range(8):
            catalog = enumerate_trees(n)
            for t, code in zip(catalog.trees, catalog.codes):
                assert canonical_code(t) == code

    def test_every_tree_valid(self):
        # Tree construction enforces the invariants; just confirm the sizes
        for n in range(9):
            for t in enumerate_trees(n).trees:
                assert t.edge_count == n
                assert t.vertex_count == n + 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="catalogue supports"):
            enumerate_trees(-1)
        with pytest.raises(ValueError, match="catalogue supports"):
            enumerate_trees(13)
        # the cache is typed: a float or a bool never returns a cached
        # catalogue of the equal int
        enumerate_trees(1)
        enumerate_trees(3)
        for n in (3.0, True, "3", None):
            with pytest.raises(ValueError, match="edge_count must be an int"):
                enumerate_trees(n)
