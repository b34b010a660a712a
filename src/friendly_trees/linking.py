"""Side and linking predicates on edge sets of one tree.

Three forms, one idea. Colour every vertex by the parity of ``q``-edges on
its root path; ``p`` is on one side of ``q`` when all endpoints of ``p``'s
edges get one colour.

- ``side_tables`` turns that into per-edge vertex masks, so the colouring of
  a whole edge set is an XOR of table entries. The friendliness search's
  kernel decides every constraint from these tables alone.
- ``same_side``/``unlinked`` evaluate the colouring against precomputed
  root paths, validating their edge sets once per call. They are off the
  search's hot path: they serve the unpruned recheck (``exhaustive_search``,
  which decides each distinct image pair once), ``is_realizable`` and the
  witness check.
- The ``*_bruteforce`` forms re-walk an explicit path for every endpoint
  pair and stay, permanently, the oracle the other forms are tested against.
"""

from __future__ import annotations

from itertools import combinations

from .tree import Tree, path_edges


def _check_edge_set(t: Tree, mask: int, name: str) -> None:
    if mask < 0 or mask >> t.edge_count:
        raise ValueError(f"{name} has edge ids outside 0..{t.edge_count - 1}")


def endpoints(t: Tree, mask: int) -> tuple[int, ...]:
    """Sorted distinct endpoints of the edges in ``mask``."""
    seen: set[int] = set()
    m = mask
    while m:
        low = m & -m
        m ^= low
        u, v = t.edges[low.bit_length() - 1]
        seen.add(u)
        seen.add(v)
    return tuple(sorted(seen))


def same_side(t: Tree, p: int, q: int) -> bool:
    """Whether ``p`` lies on one side of ``q``: the two sets share no edge and
    every tree path between endpoints of ``p``'s edges crosses ``q`` an even
    number of times.

    Deleting ``q`` splits the tree; coloring each vertex by the parity of
    ``q``-edges on its root path makes the condition "all endpoints of ``p``
    get one color", which is what is checked here.
    """
    _check_edge_set(t, p, "p")
    _check_edge_set(t, q, "q")
    return _same_side(t, p, q)


def _same_side(t: Tree, p: int, q: int) -> bool:
    # ``same_side`` on edge sets already checked against ``t``.
    if p & q:
        return False
    if p == 0 or q == 0:
        return True
    rp = t.root_path_masks
    ends = t.edges
    first = -1
    m = p
    while m:
        low = m & -m
        m ^= low
        u, v = ends[low.bit_length() - 1]
        cu = (rp[u] & q).bit_count() & 1
        if first < 0:
            first = cu
        elif cu != first:
            return False
        if ((rp[v] & q).bit_count() & 1) != first:
            return False
    return True


def side_tables(t: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(below, ends)``: per edge id, the vertex mask of the subtree under
    the edge (rooted at vertex 0) and the mask of its two endpoints.

    A vertex is below edge ``f`` exactly when ``f`` is on its root path, so
    the XOR of ``below`` over an edge set ``q`` is the set of vertices whose
    root paths cross ``q`` an odd number of times: ``q``'s side colouring.
    With ``S(q)`` that XOR and ``E(p)`` the OR of ``ends`` over ``p``, a set
    ``p`` disjoint from ``q`` is on one side of ``q`` exactly when
    ``E(p) & S(q)`` is ``0`` or ``E(p)``.
    """
    below = [0] * t.edge_count
    for x, path in enumerate(t.root_path_masks):
        bit = 1 << x
        while path:
            low = path & -path
            path ^= low
            below[low.bit_length() - 1] |= bit
    ends = tuple((1 << u) | (1 << v) for u, v in t.edges)
    return tuple(below), ends


def unlinked(t: Tree, p: int, q: int) -> bool:
    """Whether ``p`` and ``q`` are each on the same side of the other."""
    _check_edge_set(t, p, "p")
    _check_edge_set(t, q, "q")
    return _same_side(t, p, q) and _same_side(t, q, p)


def same_side_bruteforce(t: Tree, p: int, q: int) -> bool:
    """Oracle form of ``same_side``: materialize the path for every unordered
    pair of distinct endpoints of ``p`` (pairs from one edge included) and
    count its ``q`` edges directly."""
    _check_edge_set(t, p, "p")
    _check_edge_set(t, q, "q")
    if p & q:
        return False
    for x, y in combinations(endpoints(t, p), 2):
        if (path_edges(t, x, y) & q).bit_count() & 1:
            return False
    return True


def unlinked_bruteforce(t: Tree, p: int, q: int) -> bool:
    return same_side_bruteforce(t, p, q) and same_side_bruteforce(t, q, p)
