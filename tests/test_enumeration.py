import hashlib
import random
from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial

import pytest
from hypothesis import given

from friendly_trees import enumeration
from friendly_trees.enumeration import (
    _census_key,
    _decode_prufer,
    code_with_leaf,
    decode_prufer,
    enumerate_trees,
    prufer_oracle_count,
)
from friendly_trees.tree import (
    Tree,
    canonical_code,
    centroids,
    code_from_adjacency,
    format_tree,
    rooted_codes,
    vertex_adjacency,
)

from helpers import trees

# Class counts frozen as regression values: 1..10 produced by the Prüfer
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


def naive_encode(edges, m):
    """Textbook encode: repeatedly remove the smallest leaf and record its
    neighbour, until two vertices remain."""
    adj = {v: set() for v in range(m)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seq = []
    while len(adj) > 2:
        leaf = min(v for v, nbrs in adj.items() if len(nbrs) == 1)
        (nbr,) = adj.pop(leaf)
        adj[nbr].remove(leaf)
        seq.append(nbr)
    return tuple(seq)


def reference_catalogs(max_edges):
    """``(codes, trees)`` of the catalogues with 0..``max_edges`` edges,
    grown without shortcuts: a leaf attached at every vertex of every
    smaller representative, a ``Tree`` and a ``canonical_code`` per
    candidate."""
    found = {canonical_code(Tree(1, [])): Tree(1, [])}
    for n in range(1, max_edges + 2):
        yield tuple(found), tuple(found.values())
        grown = {}
        for t in found.values():
            for v in range(n):
                candidate = Tree(n + 1, t.edges + ((v, n),))
                grown.setdefault(canonical_code(candidate), candidate)
        found = {code: grown[code] for code in sorted(grown)}


def with_leaf(adj, v):
    """Copies of the neighbour lists ``adj`` with a new leaf at ``v``."""
    n = len(adj)
    grown = [list(nbrs) for nbrs in adj] + [[v]]
    grown[v].append(n)
    return grown


def automorphism_count(t):
    """|Aut t|: the product, over the vertices of the tree rooted at its first
    centroid, of the multiplicity factorials of equal child codes; times 2
    when two centroids carry equal halves, which the swap exchanges."""
    n = t.vertex_count
    adj = vertex_adjacency(t)
    cs = centroids(n, adj)
    code = rooted_codes(n, adj, cs[0]).code
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

    def test_any_iterable(self):
        assert decode_prufer(iter([1, 1]), 4) == decode_prufer((1, 1), 4)
        assert decode_prufer([2], 3) == [(0, 2), (1, 2)]

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
        (5, 4, "must be iterable, got 5"),
        (None, 4, "must be iterable, got None"),
        (iter([1]), 4, "has 2 entries, got 1"),
        ("12", 4, "entry 0 .* not an int: '1'"),
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

    @pytest.mark.parametrize(
        "n", [*range(1, 10), pytest.param(10, marks=pytest.mark.slow)]
    )
    def test_matches_frozen_counts(self, n):
        assert prufer_oracle_count(n) == FREE_TREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_decodes_the_leaf_sorted_sequences_once(self, n, monkeypatch):
        # For each leaf count L, the sequences over L..m-1 that hold each of
        # them, whose first min(L, m - 2) entries do not decrease: labellings
        # with leaves at 0..L-1. Relabelling the leaves permutes those
        # entries and keeps the rest (see
        # test_relabelling_the_leaves_permutes_the_first_entries), and every
        # class has such a labelling with its leaves in neighbour order and
        # a centroid at m - 1 (see test_every_class_has_a_decoded_labelling).
        decoded = Counter()

        def counting_decode(seq, m):
            decoded[seq, m] += 1
            return _decode_prufer(seq, m)

        monkeypatch.setattr(enumeration, "_decode_prufer", counting_decode)
        assert prufer_oracle_count(n) == FREE_TREE_COUNTS[n]
        m = n + 1
        # at m = 2 the one, empty, sequence: both vertices are centroids
        expected = [()] if m == 2 else []
        for leaves in range(2, m):
            head = min(leaves, m - 2)
            internal = set(range(leaves, m))
            expected += [
                seq for seq in product(range(leaves, m), repeat=m - 2)
                if internal.issubset(seq) and list(seq[:head]) == sorted(seq[:head])
            ]
        assert dict(decoded) == dict.fromkeys(((seq, m) for seq in expected), 1)
        pinned = {7: 892, 8: 6_937}
        if n in pinned:
            assert len(decoded) == pinned[n]

    @pytest.mark.parametrize("m", range(4, 9))
    def test_relabelling_the_leaves_permutes_the_first_entries(self, m):
        # The leaf-orbit argument, checked apart from the census: in a
        # sequence over L..m-1 that holds each of them, 0..L-1 are the
        # leaves, removed first in label order, so the first min(L, m - 2)
        # entries are their neighbours; relabelling them by any permutation
        # moves those entries with their leaves and keeps the rest. Checked
        # for every swap of two adjacent leaf labels, which generate all the
        # permutations, and for one random permutation per sequence.
        rng = random.Random(m)
        for leaves in range(2, m):
            head = min(leaves, m - 2)
            identity = list(range(leaves))
            swaps = [identity[:i] + [i + 1, i] + identity[i + 2:] for i in range(leaves - 1)]
            internal = set(range(leaves, m))
            for seq in product(range(leaves, m), repeat=m - 2):
                if not internal.issubset(seq):
                    continue
                edges = decode_prufer(seq, m)
                neighbour = dict(edges)
                assert seq[:head] == tuple(neighbour[i] for i in range(head)), (m, seq)
                for perm in swaps + [rng.sample(identity, leaves)]:
                    label = dict(enumerate(perm))
                    relabelled = [(label.get(u, u), label.get(v, v)) for u, v in edges]
                    moved = tuple(neighbour[perm.index(j)] for j in range(head))
                    assert naive_encode(relabelled, m) == moved + seq[head:], (m, seq, perm)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_skipped_sequences_get_no_key(self, m):
        # A leaf of a tree on 3 or more vertices is no centroid, so a
        # labelling with a leaf at m - 1 gets no key: the census, whose
        # sequences all hold m - 1, skips no class by leaving these out.
        # A sequence without m - 1 decodes to a tree in which m - 1 is a
        # leaf.
        codes = {(): 0}
        for seq in product(range(m - 1), repeat=m - 2):
            edges = decode_prufer(seq, m)
            assert sum(m - 1 in e for e in edges) == 1, (m, seq)
            assert _census_key(edges, m, codes) is None, (m, seq)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_class_has_a_decoded_labelling(self, n):
        # The leaf-orbit argument, checked apart from the census: relabel
        # each class with a centroid at m - 1, its other internal vertices
        # next below, and its L leaves at 0..L-1 in the order of their
        # neighbours' labels; its sequence is one the census decodes, and
        # its decode gets a key.
        m = n + 1
        codes = {(): 0}
        for t in enumerate_trees(n).trees:
            adj = vertex_adjacency(t)
            centroid = centroids(m, adj)[0]
            leaves = [v for v in range(m) if len(adj[v]) == 1]
            internal = [v for v in range(m) if len(adj[v]) > 1 and v != centroid]
            label = {centroid: m - 1}
            label.update(zip(internal, range(len(leaves), m - 1)))
            leaves.sort(key=lambda v: label[adj[v][0]])
            label.update(zip(leaves, range(len(leaves))))
            seq = naive_encode([(label[u], label[v]) for u, v in t.edges], m)
            head = min(len(leaves), m - 2)
            assert set(seq) == set(range(len(leaves), m)), t
            assert list(seq[:head]) == sorted(seq[:head]), t
            assert _census_key(decode_prufer(seq, m), m, codes) is not None, t

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="oracle supports"):
            prufer_oracle_count(0)
        with pytest.raises(ValueError, match="oracle supports"):
            prufer_oracle_count(11)
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

    def test_matches_the_catalogue_grown_at_every_vertex(self):
        # Skipping twin leaves and building a Tree only for a new code
        # changes no code, no representative and no edge id.
        for n, (codes, trees) in enumerate(reference_catalogs(10)):
            catalog = enumerate_trees(n)
            assert catalog.codes == codes, n
            assert [t.edges for t in catalog.trees] == [t.edges for t in trees], n

    @pytest.mark.parametrize("n, digest", [
        (11, "c250ef7a6bde2a05bcb08e4efcddf420b447ff0f2cc20856e2121dc392dbacfd"),
        (12, "a156bdaf081579ff4eb7c824bae23e66c7caa4be9d30f792cda16d2d82650b7e"),
    ])
    def test_pinned_large_catalogues(self, n, digest):
        # Past the reach of reference_catalogs in tier-1: the codes and
        # representatives' edge lists of the 11- and 12-edge catalogues, as
        # grown with a full recode of every candidate.
        catalog = enumerate_trees(n)
        text = "".join(code + "\n" + format_tree(t) for code, t in zip(catalog.codes, catalog.trees))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_codes_taken_by_a_cold_catalogue(self, monkeypatch):
        # one code per candidate, candidates that repeat a twin leaf's skipped
        calls = Counter()

        def counting_code(rooting, v):
            calls[len(rooting.parent) + 1] += 1
            return code_with_leaf(rooting, v)

        cold = lru_cache(maxsize=None, typed=True)(enumerate_trees.__wrapped__)
        monkeypatch.setattr(enumeration, "enumerate_trees", cold)
        monkeypatch.setattr(enumeration, "code_with_leaf", counting_code)
        assert len(cold(12)) == FREE_TREE_COUNTS[12]
        assert calls[13] == 5_344
        assert sum(calls.values()) == 8_847

    def test_candidate_codes_match_a_full_recode(self, monkeypatch):
        # Every candidate of a cold catalogue through 12 edges, coded from
        # its parent's path alone, against the code of its whole neighbour
        # lists. The parent's first centroid c stays the candidate's one
        # centroid, gives way to another, or shares with one: all three
        # occur.
        cases = Counter()
        parent_adj = []

        def recording_rooting(n, adj, root):
            parent_adj[:] = [adj]
            return rooted_codes(n, adj, root)

        def checking_code(rooting, v):
            code = code_with_leaf(rooting, v)
            (adj,) = parent_adj
            grown = with_leaf(adj, v)
            assert code == code_from_adjacency(len(grown), grown), (adj, v)
            roots = centroids(len(grown), grown)
            if len(roots) == 2:
                cases["two"] += 1
            else:
                cases["moves" if roots[0] != rooting.order[0] else "stays"] += 1
            return code

        cold = lru_cache(maxsize=None, typed=True)(enumerate_trees.__wrapped__)
        monkeypatch.setattr(enumeration, "enumerate_trees", cold)
        monkeypatch.setattr(enumeration, "rooted_codes", recording_rooting)
        monkeypatch.setattr(enumeration, "code_with_leaf", checking_code)
        assert len(cold(12)) == FREE_TREE_COUNTS[12]
        assert sum(cases.values()) == 8_847
        assert set(cases) == {"stays", "moves", "two"}

    @given(trees(max_edges=40))
    def test_leaf_codes_match_a_full_recode_past_twelve_edges(self, t):
        # Trees of up to 40 edges have longer paths and centroid moves than
        # any parent in the 12-edge catalogue. A leaf at every vertex.
        adj = vertex_adjacency(t)
        rooting = rooted_codes(t.vertex_count, adj, centroids(t.vertex_count, adj)[0])
        for v in range(t.vertex_count):
            grown = with_leaf(adj, v)
            assert code_with_leaf(rooting, v) == code_from_adjacency(len(grown), grown), (t, v)

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
        # The catalogue grows its trees by ``Tree.with_leaf``, which skips
        # the validating constructor; every tree must still pass it.
        for n in range(9):
            for t in enumerate_trees(n).trees:
                assert t.edge_count == n
                assert t.vertex_count == n + 1
                assert Tree(t.vertex_count, t.edges).edges == t.edges

    def test_validates_only_the_zero_edge_tree(self, monkeypatch):
        # Every other tree is a validated parent plus one leaf, grown by
        # ``Tree.with_leaf``; a return to the validating constructor would
        # otherwise show only as a slower benchmark.
        calls = []
        init = Tree.__init__

        def counting_init(self, *args):
            calls.append(args)
            init(self, *args)

        cold = lru_cache(maxsize=None, typed=True)(enumerate_trees.__wrapped__)
        monkeypatch.setattr(enumeration, "enumerate_trees", cold)
        monkeypatch.setattr(Tree, "__init__", counting_init)
        assert len(cold(12)) == FREE_TREE_COUNTS[12]
        assert calls == [(1, [])]

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
