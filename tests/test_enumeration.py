import random
from collections import Counter
from itertools import product
from math import factorial

import pytest

from friendly_trees.enumeration import (
    _census_key,
    _RootedCodes,
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
    """``_census_key`` over one code table and ``canonical_code`` split the
    ``(m, edges)`` trees into the same classes: key to code is a bijection.
    Returns the distinct keys."""
    codes = _RootedCodes()
    by_key: dict = {}
    by_code: dict = {}
    for m, edges in trees:
        key = _census_key(edges, m, codes)
        code = canonical_code(Tree(m, edges))
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
        codes = _RootedCodes()
        assert _census_key(decode_prufer((), 2), 2, codes) == (0, 0)
        # the 3-edge path 0-2-1-3 has centroids 2 and 1, with equal halves
        path = _census_key(decode_prufer((2, 1), 4), 4, codes)
        star = _census_key(decode_prufer((3, 3), 4), 4, codes)
        assert isinstance(path, tuple) and path[0] == path[1]
        assert isinstance(star, int)


class TestOracle:
    def test_trivial_sizes(self):
        assert prufer_oracle_count(1) == 1
        assert prufer_oracle_count(2) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_frozen_counts(self, n):
        assert prufer_oracle_count(n) == FREE_TREE_COUNTS[n]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="oracle supports"):
            prufer_oracle_count(0)
        with pytest.raises(ValueError, match="oracle supports"):
            prufer_oracle_count(9)


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
