"""Catalogues of free trees, one representative per isomorphism class.

The Prüfer census below is the independent oracle and is written first: it
decodes every labelled tree on a fixed vertex set and buckets the results by
canonical code. The catalogue generator that follows grows trees one leaf at
a time; its only correctness pin is that its class counts match the census
exactly, which the test suite checks for every census-supported size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .tree import Tree, canonical_code, code_from_adjacency

MAX_ORACLE_EDGES = 8
MAX_CATALOG_EDGES = 12


def decode_prufer(seq: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """Edges of the labelled tree on ``0..m-1`` encoded by ``seq``.

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


def prufer_oracle_count(edge_count: int) -> int:
    """Number of isomorphism classes of trees with ``edge_count`` edges,
    counted by decoding every Prüfer sequence and bucketing canonical codes."""
    if not 1 <= edge_count <= MAX_ORACLE_EDGES:
        raise ValueError(
            f"oracle supports 1..{MAX_ORACLE_EDGES} edges, got {edge_count}"
        )
    m = edge_count + 1
    codes: set[str] = set()
    for seq in product(range(m), repeat=m - 2):
        adj: list[list[int]] = [[] for _ in range(m)]
        for u, v in decode_prufer(seq, m):
            adj[u].append(v)
            adj[v].append(u)
        codes.add(code_from_adjacency(m, adj))
    return len(codes)


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
