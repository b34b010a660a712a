"""Catalogues of free trees, one representative per isomorphism class.

The Prüfer census below is the independent oracle and is written first: it
runs over the labelled trees on a fixed vertex set, keeps those in which the
last vertex is a centroid, and buckets them by an integer AHU code (Aho,
Hopcroft and Ullman 1974) of the tree rooted there. Every class has such a
labelling, so every class gets a bucket. A tree on three or more vertices
has leaves, and no leaf is a centroid, so every class also has such a
labelling with its L leaves at ``0..L-1``. Prüfer's decoder removes those
leaves first, in label order, so their neighbours are the first entries of
the sequence, and relabelling the leaves only permutes those entries; the
census decodes only the sequences over ``L..m-1`` that hold each of them
and whose leaves' entries do not decrease, one labelling per orbit of leaf
relabellings: 892 at 7 edges and 6,937 at 8. The codes are interned in a
table local to one census call and share no code with
``tree.canonical_code``.
The catalogue generator that follows grows trees one leaf at a time and
collapses them by the string canonical codes of ``tree``. It codes each
parent once with ``tree.rooted_codes``, the one pass behind every string
code, rooted at a centroid, and each candidate by recoding only the path
from the new leaf to that root; the same rooting tells where the
candidate's centroids are. The tests pin it four ways: its class
counts match the census through 10 edges (the acceptance suite); its codes
and representatives match a reference catalogue, grown at every vertex,
through 10 edges; SHA-256 digests pin both at 11 and 12 edges; and its
classes' labellings add up to Cayley's count through 12 edges
(orbit-stabilizer).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

# ``perfbench/tracing.py`` patches ``canonical_code`` and
# ``code_from_adjacency`` here by name, so both stay importable from this
# module, though the catalogue calls ``canonical_code`` only for the 0-edge
# tree and ``code_from_adjacency`` not at all.
from .tree import (
    RootedCodes,
    Tree,
    canonical_code,
    centroids,
    code_from_adjacency,  # noqa: F401
    rooted,
    rooted_codes,
    vertex_adjacency,
)

MAX_ORACLE_EDGES = 10
MAX_CATALOG_EDGES = 12


def _decode_prufer(seq: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """``decode_prufer`` of a checked sequence: the census's hot loop calls
    it on the sequences it makes itself.

    Pointer-scan decode: the running pointer only moves forward, so the whole
    decode is linear in ``m``.
    """
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, m - 1))
    return edges


def decode_prufer(seq: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """Edges of the labelled tree on ``0..m-1`` encoded by ``seq``.

    ``m`` must be an ``int`` of at least 2, and ``seq`` an iterable of
    ``m - 2`` entries, each an ``int`` in ``0..m-1``; anything else is a
    ``ValueError`` naming the fault.

    Each edge is ``(leaf, v)`` in leaf-removal order: the first vertex of an
    edge appears in no later edge, and the last edge ends at ``m - 1``. So
    the list runs bottom-up through the tree rooted at ``m - 1``, with ``v``
    the parent of ``leaf``; the census relies on this order.
    """
    if type(m) is not int:
        raise ValueError(f"vertex count must be an int, got {m!r}")
    if m < 2:
        raise ValueError(f"a Prüfer sequence needs at least 2 vertices, got {m}")
    try:
        seq = tuple(seq)
    except TypeError:
        raise ValueError(f"a Prüfer sequence must be iterable, got {seq!r}") from None
    if len(seq) != m - 2:
        raise ValueError(f"a Prüfer sequence for {m} vertices has {m - 2} entries, got {len(seq)}")
    for i, x in enumerate(seq):
        # A bool is an int subclass and would act as vertex 0 or 1.
        if type(x) is not int:
            raise ValueError(f"entry {i} of the Prüfer sequence is not an int: {x!r}")
        if not 0 <= x < m:
            raise ValueError(f"entry {i} of the Prüfer sequence is {x}, outside 0..{m - 1}")
    return _decode_prufer(seq, m)


def _census_key(
    edges: list[tuple[int, int]], m: int, codes: dict[tuple[int, ...], int]
) -> int | tuple[int, int] | None:
    """Isomorphism key of the tree on ``0..m-1`` that ``decode_prufer``
    returned as ``edges``, or ``None`` when ``m - 1`` is not a centroid.
    Among keyed trees, equal keys drawn from one ``codes`` table mean
    isomorphic trees.

    The edges are ``(child, parent)`` pairs bottom-up from root ``m - 1``,
    so each pass meets a vertex only after all of its children. The size
    pass stops at the first subtree that holds more than half the tree: the
    root is then no centroid. The code pass interns the AHU code of each
    rooted subtree, numbered in order of first sight from ``()``, a lone
    vertex, as 0, and keys the tree by the code of its root. A child that
    holds exactly half the tree is the second centroid; it is left out of
    the root's children, and the key is instead the sorted pair of the two
    halves' codes: a tuple, never equal to an ``int`` key.
    """
    size = [1] * m
    for c, p in edges:
        if 2 * size[c] > m:
            return None
        size[p] += size[c]
    kids: list[list[int]] = [[] for _ in range(m)]
    second = None
    for c, p in edges:
        k = kids[c]
        if k:
            k.sort()
            x = codes.setdefault(tuple(k), len(codes))
        else:
            x = 0
        if 2 * size[c] == m:
            second = x
        else:
            kids[p].append(x)
    k = kids[m - 1]
    k.sort()
    x = codes.setdefault(tuple(k), len(codes))
    if second is None:
        return x
    return (x, second) if x < second else (second, x)


def _leaf_sorted_sequences(m: int):
    """The Prüfer sequences ``prufer_oracle_count`` decodes for ``m``
    vertices, each once: for each leaf count ``L`` in ``2..m-1``, those over
    the internal labels ``L..m-1`` that hold each of them and whose first
    ``min(L, m - 2)`` entries do not decrease; at ``m = 2`` the empty one.

    Each is a non-decreasing prefix followed by a tail that holds every
    internal label the prefix missed. A prefix that misses more labels than
    the tail has places is skipped, and only the tails that cover what is
    missing are built, memoised per length and missing set within one leaf
    count.
    """
    if m == 2:
        yield ()
        return
    for leaves in range(2, m):
        labels = range(leaves, m)
        head = min(leaves, m - 2)

        @lru_cache(maxsize=None)
        def covering(length: int, missing: frozenset[int]) -> tuple[tuple[int, ...], ...]:
            # the tuples of ``length`` labels that hold every label in
            # ``missing``; the recursion is at most ``m - 4`` deep
            if len(missing) > length:
                return ()
            if length == 0:
                return ((),)
            return tuple(
                (x,) + rest for x in labels for rest in covering(length - 1, missing - {x})
            )

        everything = frozenset(labels)
        for prefix in combinations_with_replacement(labels, head):
            for tail in covering(m - 2 - head, everything.difference(prefix)):
                yield prefix + tail


def prufer_oracle_count(edge_count: int) -> int:
    """Number of isomorphism classes of trees with ``edge_count`` edges,
    counted as the distinct ``_census_key`` values other than ``None`` over
    the ``(n+1)^(n-1)`` Prüfer sequences.

    Only the labelled trees in which vertex ``m - 1`` is a centroid get a
    key. That still reaches every class: every tree has a centroid (Jordan
    1869), so relabelling one of its labellings to put a centroid at
    ``m - 1`` gives another, which some sequence encodes. And the key is a
    complete invariant of those trees, so distinct keys are distinct
    classes. The keys are integer AHU codes interned in a table made afresh
    for each call, independent of ``tree.canonical_code``, which the
    catalogue uses.

    Only the sequences of ``_leaf_sorted_sequences`` are decoded: one
    labelling per orbit of leaf relabellings. A vertex occurs
    ``degree - 1`` times in its tree's sequence, so a sequence over
    ``L..m-1`` that holds each of them is a labelling whose ``L`` leaves are
    ``0..L-1``. Every vertex that later becomes a leaf is labelled ``L`` or
    more, so the decoder removes leaves ``0..L-1`` first, in label order,
    and the first ``min(L, m - 2)`` entries are their neighbours.
    Relabelling those leaves among themselves, which keeps the class,
    therefore permutes exactly those entries and keeps the rest, and one
    order of them does not decrease. A leaf of a tree on ``m >= 3`` vertices
    is no centroid, since removing it leaves one component of
    ``m - 1 > m / 2`` vertices, so every class has a labelling with its
    leaves at ``0..L-1`` in neighbour order and a centroid at ``m - 1``,
    which is always internal here. At ``m = 2`` the one, empty, sequence
    is decoded: both vertices are leaves and centroids. That is 892 of
    262,144 sequences at 7 edges, 6,937 of 4,782,969 at 8, 61,886 at 9
    and 621,956 at 10.
    """
    if type(edge_count) is not int:
        raise ValueError(f"edge_count must be an int, got {edge_count!r}")
    if not 1 <= edge_count <= MAX_ORACLE_EDGES:
        raise ValueError(
            f"oracle supports 1..{MAX_ORACLE_EDGES} edges, got {edge_count}"
        )
    m = edge_count + 1
    codes = {(): 0}
    keys = {
        _census_key(_decode_prufer(seq, m), m, codes)
        for seq in _leaf_sorted_sequences(m)
    }
    keys.discard(None)
    return len(keys)


@dataclass(frozen=True)
class TreeCatalog:
    """All free trees with a given edge count, sorted by canonical code."""

    edge_count: int
    trees: tuple[Tree, ...]
    codes: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.trees)


def code_with_leaf(rooting: RootedCodes, v: int) -> str:
    """Canonical code of the tree of ``rooting`` with a new leaf ``n`` at
    ``v``, equal to ``tree.code_from_adjacency`` of the grown tree, rebuilt
    along the path from ``v`` to the root ``c``, a centroid, alone.

    ``v`` gains the child ``()``, the greatest code, so last in order. The
    walk up from ``v`` stops at ``r``, the child of ``c`` that heads
    ``v``'s branch. Rooted at ``r``, the grown tree has ``r``'s new
    children and one more: ``c`` with its other branches. ``r``'s size
    sets which of ``c`` and ``r`` are centroids, by the half-size rule of
    ``tree.centroids``. A leaf at ``c`` starts a branch of one, half the
    candidate only at ``n == 1``, when the leaf's code ``(())`` is ``c``'s.
    """
    order, parent, size, code, kids = rooting
    c = order[0]
    n = len(order)
    if v == c:
        return code[c][:-1] + "())"
    k = kids[v] + ["()"]
    u = v
    while parent[u] != c:
        old, new = code[u], "(" + "".join(k) + ")"
        u = parent[u]
        k = kids[u][:]
        k[k.index(old)] = new
        k.sort()
    r = u
    grown = 2 * (size[r] + 1)
    codes = []
    if grown <= n + 1:
        top = kids[c][:]
        top[top.index(code[r])] = "(" + "".join(k) + ")"
        top.sort()
        codes.append("(" + "".join(top) + ")")
    if grown >= n + 1:
        rest = kids[c][:]
        rest.remove(code[r])
        k.append("(" + "".join(rest) + ")")
        k.sort()
        codes.append("(" + "".join(k) + ")")
    return min(codes)


# typed: ``enumerate_trees(True)`` must not return the cached catalogue of 1
@lru_cache(maxsize=None, typed=True)
def enumerate_trees(edge_count: int) -> TreeCatalog:
    """One representative per isomorphism class of trees with ``edge_count``
    edges, in ascending canonical-code order.

    Builds on the catalogue one size down: attaching a new leaf at every
    vertex of every representative reaches every class (any tree arises from
    deleting one of its leaves), and canonical codes collapse duplicates.
    A leaf whose neighbour an earlier leaf shares is skipped: swapping the
    two twins is an automorphism, so its candidate repeats the earlier
    one's. Only a code not seen yet keeps its candidate, grown from its
    parent by ``Tree.with_leaf``, which checks the new leaf's neighbour
    alone: the parent was validated when it was made.

    Each parent is coded once by ``tree.rooted_codes``, rooted at its first
    centroid ``c``, and each candidate by ``code_with_leaf``. A leaf at
    ``v`` changes only the codes on the path from ``v`` to ``c``, so only
    those are rebuilt, each from its old children's codes with the one that
    changed swapped in. The leaf grows the branch of ``v``, whose head
    ``r`` is the child of ``c`` where that path's walk stops, to ``s``
    vertices. Every other subtree below ``c`` held at most ``n / 2`` of the
    ``n`` vertices, and one below ``r`` fewer, so each stays under half of
    the candidate's ``n + 1``. The half-size rule of ``tree.centroids``
    then makes ``c`` a centroid while ``2s <= n + 1`` and ``r`` one while
    ``2s >= n + 1``. With two centroids the smaller of the two codes is
    the key, as ``code_from_adjacency`` takes it.
    """
    if type(edge_count) is not int:
        raise ValueError(f"edge_count must be an int, got {edge_count!r}")
    if not 0 <= edge_count <= MAX_CATALOG_EDGES:
        raise ValueError(
            f"catalogue supports 0..{MAX_CATALOG_EDGES} edges, got {edge_count}"
        )
    if edge_count == 0:
        t = Tree(1, [])
        return TreeCatalog(0, (t,), (canonical_code(t),))
    n = edge_count  # vertices of each parent, and the id of the new leaf
    found: dict[str, Tree] = {}
    for t in enumerate_trees(n - 1).trees:
        adj = vertex_adjacency(t)
        rooting = rooted_codes(n, adj, centroids(*rooted(adj, 0))[0])
        leaf_neighbours = set()
        for v in range(n):
            nbrs = adj[v]
            if len(nbrs) == 1:
                if nbrs[0] in leaf_neighbours:
                    continue
                leaf_neighbours.add(nbrs[0])
            code = code_with_leaf(rooting, v)
            if code not in found:
                found[code] = t.with_leaf(v)
    codes = tuple(sorted(found))
    return TreeCatalog(edge_count, tuple(found[c] for c in codes), codes)
