"""Catalogues of free trees, one representative per isomorphism class.

The Prüfer census below is the independent oracle and is written first: it
decodes every labelled tree on a fixed vertex set and buckets the results by
an integer AHU code (Aho, Hopcroft and Ullman 1974) of the tree rooted at
its centroid. The codes are interned in a table local to one census call and
share no code with ``tree.canonical_code``. The catalogue generator that
follows grows trees one leaf at a time and collapses them by the string
canonical codes of ``tree``; its only correctness pin is that its class
counts match the census exactly, which the test suite checks for every
census-supported size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .tree import Tree, canonical_code
from .tree import code_from_adjacency  # noqa: F401  (unused; perfbench's tracer wraps it here)

MAX_ORACLE_EDGES = 8
MAX_CATALOG_EDGES = 12


def decode_prufer(seq: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """Edges of the labelled tree on ``0..m-1`` encoded by ``seq``.

    Pointer-scan decode: the running pointer only moves forward, so the whole
    decode is linear in ``m``.

    Each edge is ``(leaf, v)`` in leaf-removal order: the first vertex of an
    edge appears in no later edge, and the last edge ends at ``m - 1``. So
    the list runs bottom-up through the tree rooted at ``m - 1``, with ``v``
    the parent of ``leaf``; the census relies on this order.
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


class _RootedCodes(dict):
    """Interned AHU codes of rooted trees: maps the sorted tuple of a root's
    children's codes to the root's code, numbered in order of first sight
    from ``()``, a lone vertex, as 0. ``size[c]`` is the vertex count of the
    rooted tree with code ``c``."""

    def __init__(self) -> None:
        super().__init__({(): 0})
        self.size = [1]

    def __missing__(self, children: tuple[int, ...]) -> int:
        code = self[children] = len(self)
        self.size.append(1 + sum([self.size[c] for c in children]))
        return code


def _census_key(edges: list[tuple[int, int]], m: int, codes: _RootedCodes) -> int | tuple[int, int]:
    """Isomorphism key of the tree on ``0..m-1`` that ``decode_prufer``
    returned as ``edges``: equal keys, drawn from one ``codes`` table, mean
    isomorphic trees.

    The edges are ``(child, parent)`` pairs bottom-up from root ``m - 1``,
    so one pass finishes every vertex's code before its parent needs it. The
    vertices other than the root whose subtrees hold at least half of the
    tree form a path down from the root, met deepest first; the deepest is a
    centroid. Re-rooting along that path gives the code of the tree rooted
    at the centroid, which is the key. When the centroid's subtree holds
    exactly half, its parent is a second centroid, and the key is instead
    the sorted pair of the two halves' codes: a tuple, never equal to an
    ``int`` key.
    """
    size = codes.size
    half = (m + 1) // 2
    kids: list[list[int]] = [[] for _ in range(m)]
    # (children's codes, code) of each such half-or-more vertex; a leaf is
    # one only in the one-edge tree
    heavy = [([], 0)] if m == 2 else []
    for c, p in edges:
        k = kids[c]
        if k:
            k.sort()
            x = codes[tuple(k)]
            if size[x] >= half:
                heavy.append((k, x))
        else:
            x = 0
        kids[p].append(x)
    above = kids[m - 1]
    if not heavy:  # the root is the only centroid
        above.sort()
        return codes[tuple(above)]
    # Top down: ``up`` holds the code of everything above the next path
    # vertex, rooted at that vertex's parent (nothing above the root).
    up: list[int] = []
    for k, x in reversed(heavy):
        rest = above + up
        rest.remove(x)
        rest.sort()
        up = [codes[tuple(rest)]]
        above = k
    # ``above`` and ``x`` are now the centroid's
    if 2 * size[x] == m:
        y = up[0]
        return (x, y) if x < y else (y, x)
    above += up
    above.sort()
    return codes[tuple(above)]


def prufer_oracle_count(edge_count: int) -> int:
    """Number of isomorphism classes of trees with ``edge_count`` edges,
    counted by decoding every one of the ``(n+1)^(n-1)`` Prüfer sequences
    and counting distinct ``_census_key`` values.

    The keys are integer AHU codes interned in a table made afresh for each
    call, independent of ``tree.canonical_code``, which the catalogue uses.
    """
    if not 1 <= edge_count <= MAX_ORACLE_EDGES:
        raise ValueError(
            f"oracle supports 1..{MAX_ORACLE_EDGES} edges, got {edge_count}"
        )
    m = edge_count + 1
    codes = _RootedCodes()
    return len({
        _census_key(decode_prufer(seq, m), m, codes)
        for seq in product(range(m), repeat=m - 2)
    })


@dataclass(frozen=True)
class TreeCatalog:
    """All free trees with a given edge count, sorted by canonical code."""

    edge_count: int
    trees: tuple[Tree, ...]
    codes: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.trees)


@lru_cache(maxsize=None)
def enumerate_trees(edge_count: int) -> TreeCatalog:
    """One representative per isomorphism class of trees with ``edge_count``
    edges, in ascending canonical-code order.

    Builds on the catalogue one size down: attaching a new leaf at every
    vertex of every representative reaches every class (any tree arises from
    deleting one of its leaves), and canonical codes collapse duplicates.
    """
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
