"""Side and linking predicates on edge sets of one tree.

Two forms, one idea. Colour every vertex by the parity of ``q``-edges on
its root path; ``p`` is on one side of ``q`` when all endpoints of ``p``'s
edges get one colour.

- ``Tree.side_tables`` turns that into per-edge vertex masks, built once
  per tree and cached on it, so the colouring of a whole edge set is an XOR
  of table entries and the side test is one mask test. Every fast caller
  reads these tables: the friendliness search's kernel, its witness check
  and ``is_realizable``, and ``same_side``/``unlinked`` here, which validate
  their edge sets once per call and serve the unpruned recheck
  (``exhaustive_search``, which decides each distinct image pair once).
- The ``*_bruteforce`` forms re-walk an explicit path for every endpoint
  pair and stay, permanently, the oracle the table form is tested against.
"""

from __future__ import annotations

from itertools import combinations

from .tree import Tree, path_edges


def _check_edge_set(t: Tree, mask: int, name: str) -> None:
    if type(mask) is not int:
        raise ValueError(f"{name} must be an int edge mask, got {mask!r}")
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


def _side_and_ends(t: Tree, mask: int) -> tuple[int, int]:
    # ``(S(mask), E(mask))`` from the side tables.
    below, ends = t.side_tables
    s = e = 0
    while mask:
        low = mask & -mask
        mask ^= low
        f = low.bit_length() - 1
        s ^= below[f]
        e |= ends[f]
    return s, e


def same_side(t: Tree, p: int, q: int) -> bool:
    """Whether ``p`` lies on one side of ``q``: the two sets share no edge and
    every tree path between endpoints of ``p``'s edges crosses ``q`` an even
    number of times.

    Deleting ``q`` splits the tree; colouring each vertex by the parity of
    ``q``-edges on its root path makes the condition "all endpoints of ``p``
    get one colour", which ``Tree.side_tables`` decides in one mask test.
    """
    _check_edge_set(t, p, "p")
    _check_edge_set(t, q, "q")
    if p & q:
        return False
    e_p = _side_and_ends(t, p)[1]
    x = e_p & _side_and_ends(t, q)[0]
    return not x or x == e_p


def unlinked(t: Tree, p: int, q: int) -> bool:
    """Whether ``p`` and ``q`` are each on the same side of the other."""
    _check_edge_set(t, p, "p")
    _check_edge_set(t, q, "q")
    if p & q:
        return False
    s_p, e_p = _side_and_ends(t, p)
    s_q, e_q = _side_and_ends(t, q)
    x = e_p & s_q
    if x and x != e_p:
        return False
    x = e_q & s_p
    return not x or x == e_q


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
