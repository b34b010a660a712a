"""Dual trees of systems of disjoint circles on the sphere.

Up to homeomorphism, a union of disjoint circles is exactly its containment
structure, so circle systems come in as nesting forests: each circle knows
the smallest circle properly containing it, or is a root. The dual tree has
one vertex per complementary region (the outer region plus the region just
inside every circle) and one edge per circle, joining the two regions the
circle separates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import ItemError, Tree, line_records, parse_ints


@dataclass(frozen=True)
class NestingForest:
    """Containment forest of disjoint circles; ``parents[i]`` is the id of
    the smallest circle enclosing circle ``i``, or ``None`` for outermost
    circles. A fault of a single circle is an ``ItemError`` carrying its
    id."""

    parents: tuple[int | None, ...]

    def __post_init__(self) -> None:
        k = len(self.parents)
        for i, p in enumerate(self.parents):
            if p is None:
                continue
            if not (0 <= p < k):
                raise ItemError(i, f"circle {i}: dangling parent id {p}")
            if p == i:
                raise ItemError(i, f"circle {i} contains itself")
        for i in range(k):
            seen = set()
            v: int | None = i
            while v is not None:
                if v in seen:
                    raise ItemError(i, f"containment cycle through circle {i}")
                seen.add(v)
                v = self.parents[v]

    @property
    def circle_count(self) -> int:
        return len(self.parents)


def dual_tree(forest: NestingForest) -> Tree:
    """The region-adjacency tree of the circle system.

    Vertex 0 is the outer region; circle ``i``'s inside region is vertex
    ``i + 1``; edge ``i`` joins circle ``i``'s region to its parent's region.
    One edge per circle, so the tree has ``circle_count`` edges.
    """
    edges = [
        (0 if p is None else p + 1, i + 1)
        for i, p in enumerate(forest.parents)
    ]
    return Tree(forest.circle_count + 1, edges)


def parse_nesting(text: str) -> NestingForest:
    """Parse the nesting file format: one ``C <id> <parent-id|->`` line per
    circle, ids dense from 0. An empty file is the empty system."""
    entries: dict[int, int | None] = {}
    lines: dict[int, int] = {}
    for lineno, fields in line_records(text):
        if len(fields) != 3 or fields[0] != "C":
            raise ValueError(f"line {lineno}: unrecognized line {' '.join(fields)!r}")
        (cid,) = parse_ints(lineno, fields[1:2], "circle id")
        if cid in entries:
            raise ValueError(f"line {lineno}: duplicate circle id {cid}")
        lines[cid] = lineno
        if fields[2] == "-":
            entries[cid] = None
        else:
            (entries[cid],) = parse_ints(lineno, fields[2:], "parent id")
    k = len(entries)
    missing = [i for i in range(k) if i not in entries]
    if missing:
        raise ValueError(f"circle ids are not dense from 0: missing {missing[0]}")
    try:
        return NestingForest(tuple(entries[i] for i in range(k)))
    except ItemError as err:
        raise ValueError(f"line {lines[err.index]}: {err}") from None
