"""Catalogues of free trees, one representative per isomorphism class.

The Prüfer census below is the independent oracle and is written first: it
runs over the labelled trees on a fixed vertex set, keeps those in which the
last vertex is a centroid, and buckets them by an integer AHU code (Aho,
Hopcroft and Ullman 1974) of the tree rooted there. Every class has such a
labelling, so every class gets a bucket. It decodes only the sequences that
contain the last vertex: in any other the last vertex is a leaf, and a leaf
is no centroid. The codes are interned in a table local to one census call
and share no code with ``tree.canonical_code``.
The catalogue generator that follows grows trees one leaf at a time and
collapses them by the string canonical codes of ``tree``; its only
correctness pin is that its class counts match the census exactly, which
the test suite checks for every census-supported size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .tree import Tree, canonical_code
from .tree import code_from_adjacency  # noqa: F401  (unused; perfbench's tracer wraps it here)

MAX_ORACLE_EDGES = 8
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

    ``m`` must be an ``int`` of at least 2, and ``seq`` must hold ``m - 2``
    entries, each an ``int`` in ``0..m-1``; anything else is a
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

    Only the sequences that contain ``m - 1`` are decoded. A vertex occurs
    ``degree - 1`` times in its tree's sequence, so in every other sequence
    ``m - 1`` is a leaf; and a leaf of a tree on ``m >= 3`` vertices is no
    centroid, since removing it leaves one component of ``m - 1 > m / 2``
    vertices. ``_census_key`` would return ``None`` for all of them. At
    ``m = 2`` the one, empty, sequence is decoded: both vertices are leaves
    and centroids. That is ``m^(m-2) - (m-1)^(m-2)`` decodes: 144,495 of
    262,144 at 7 edges and 2,685,817 of 4,782,969 at 8.
    """
    if type(edge_count) is not int:
        raise ValueError(f"edge_count must be an int, got {edge_count!r}")
    if not 1 <= edge_count <= MAX_ORACLE_EDGES:
        raise ValueError(
            f"oracle supports 1..{MAX_ORACLE_EDGES} edges, got {edge_count}"
        )
    m = edge_count + 1
    top = m - 1
    codes = {(): 0}
    keys = {
        _census_key(_decode_prufer(seq, m), m, codes)
        for seq in product(range(m), repeat=m - 2)
        if top in seq or m == 2
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


# typed: ``enumerate_trees(True)`` must not return the cached catalogue of 1
@lru_cache(maxsize=None, typed=True)
def enumerate_trees(edge_count: int) -> TreeCatalog:
    """One representative per isomorphism class of trees with ``edge_count``
    edges, in ascending canonical-code order.

    Builds on the catalogue one size down: attaching a new leaf at every
    vertex of every representative reaches every class (any tree arises from
    deleting one of its leaves), and canonical codes collapse duplicates.
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
    found: dict[str, Tree] = {}
    for t in enumerate_trees(edge_count - 1).trees:
        for v in range(t.vertex_count):
            grown = Tree(t.vertex_count + 1, t.edges + ((v, t.vertex_count),))
            code = canonical_code(grown)
            if code not in found:
                found[code] = grown
    codes = tuple(sorted(found))
    return TreeCatalog(edge_count, tuple(found[c] for c in codes), codes)
