"""Free trees with indexed edges: path queries, incidence sets, canonical codes.

Vertices are dense integers ``0..vertex_count-1``. Edges are unordered vertex
pairs kept in a fixed list; the list position is the edge id, and every edge
set in this package is a plain ``int`` bitmask over those ids. All trees
handled here are small (a few dozen edges at most), so bitmask set algebra is
both the cheapest and the most convenient representation.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence


def edge_mask(ids: Iterable[int]) -> int:
    """Bitmask with the given edge ids set."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def mask_ids(mask: int) -> tuple[int, ...]:
    """Edge ids present in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class ItemError(ValueError):
    """A fault of one numbered item of a whole, such as an edge of a tree or
    a circle of a nesting forest. ``index`` is the item's position, so a
    parser can name the line the item came from."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class Tree:
    """An immutable free tree.

    ``edges[i]`` holds the endpoint pair of edge id ``i``. Input order is
    preserved: file formats, bijections and reports all index edges by it.
    Construction validates every tree invariant and names the violated one;
    a fault of a single edge is an ``ItemError`` carrying its edge id.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        n = int(vertex_count)
        if n < 1:
            raise ValueError("vertex_count must be positive")
        edge_list = tuple((int(u), int(v)) for u, v in edges)
        if len(edge_list) != n - 1:
            raise ValueError(
                f"a tree on {n} vertices needs {n - 1} edges, got {len(edge_list)}"
            )
        seen = set()
        comp = list(range(n))

        def find(x: int) -> int:
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for eid, (u, v) in enumerate(edge_list):
            if not (0 <= u < n and 0 <= v < n):
                raise ItemError(eid, f"edge ({u}, {v}) has a vertex id outside 0..{n - 1}")
            if u == v:
                raise ItemError(eid, f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ItemError(eid, f"duplicate edge ({u}, {v})")
            seen.add(key)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise ItemError(eid, f"contains a cycle (edge ({u}, {v}) closes it)")
            comp[ru] = rv
        # n-1 edges and no cycle force connectivity, so the invariants all hold.
        self.vertex_count = n
        self.edges = edge_list

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Tree({self.vertex_count}, {list(self.edges)!r})"

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: ``(neighbor, edge_id)`` pairs in edge-id order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    @cached_property
    def delta_masks(self) -> tuple[int, ...]:
        """Incident-edge mask per vertex."""
        masks = [0] * self.vertex_count
        for eid, (u, v) in enumerate(self.edges):
            masks[u] |= 1 << eid
            masks[v] |= 1 << eid
        return tuple(masks)

    @cached_property
    def _bfs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(depth, root path mask) per vertex, from a BFS rooted at vertex 0."""
        n = self.vertex_count
        depth = [0] * n
        masks = [0] * n
        queue = [0]
        visited = [False] * n
        visited[0] = True
        for x in queue:
            for y, eid in self.adjacency[x]:
                if not visited[y]:
                    visited[y] = True
                    depth[y] = depth[x] + 1
                    masks[y] = masks[x] | (1 << eid)
                    queue.append(y)
        return tuple(depth), tuple(masks)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Distance of every vertex from vertex 0."""
        return self._bfs[0]

    @cached_property
    def root_path_masks(self) -> tuple[int, ...]:
        """Mask of edges on the path from vertex 0 to each vertex.

        The path between any x and y is the symmetric difference
        ``root_path_masks[x] ^ root_path_masks[y]``: the shared stem cancels.
        """
        return self._bfs[1]


def _check_vertex(t: Tree, v: int) -> None:
    if not (0 <= v < t.vertex_count):
        raise ValueError(f"vertex id {v} outside 0..{t.vertex_count - 1}")


def path_edges(t: Tree, a: int, b: int) -> int:
    """Edges on the unique a-b path, as a bitmask; empty when a == b.

    Walks the tree explicitly (BFS from ``a``, then backtrack from ``b``), so
    it stays an independent reference for the precomputed-path fast paths.
    """
    _check_vertex(t, a)
    _check_vertex(t, b)
    if a == b:
        return 0
    n = t.vertex_count
    parent = [-1] * n
    parent_edge = [-1] * n
    visited = [False] * n
    visited[a] = True
    queue = [a]
    for x in queue:
        if x == b:
            break
        for y, eid in t.adjacency[x]:
            if not visited[y]:
                visited[y] = True
                parent[y] = x
                parent_edge[y] = eid
                queue.append(y)
    mask = 0
    v = b
    while v != a:
        mask |= 1 << parent_edge[v]
        v = parent[v]
    return mask


def parity(t: Tree, a: int, b: int) -> str:
    """``"even"`` or ``"odd"`` length of the a-b path.

    Even exactly when a and b fall in the same class of the tree's unique
    bipartition, so depth parity from any fixed root decides it.
    """
    _check_vertex(t, a)
    _check_vertex(t, b)
    return "even" if ((t.depths[a] ^ t.depths[b]) & 1) == 0 else "odd"


def delta(t: Tree, v: int) -> int:
    """Mask of the edges incident to vertex ``v``."""
    _check_vertex(t, v)
    return t.delta_masks[v]


def vertex_adjacency(t: Tree) -> list[list[int]]:
    """Plain neighbor lists, without edge ids."""
    return [[y for y, _ in nbrs] for nbrs in t.adjacency]


def centroids(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """The one or two vertices minimizing the largest component left by
    their removal."""
    if n == 1:
        return [0]
    parent = [-1] * n
    order = [0]
    for x in order:
        px = parent[x]
        for y in adj[x]:
            if y != px:
                parent[y] = x
                order.append(y)
    size = [1] * n
    heaviest_child = [0] * n
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            if size[v] > heaviest_child[p]:
                heaviest_child[p] = size[v]
    best = n
    out: list[int] = []
    for v in range(n):
        h = n - size[v]
        if heaviest_child[v] > h:
            h = heaviest_child[v]
        if h < best:
            best = h
            out = [v]
        elif h == best:
            out.append(v)
    return out


def subtree_codes(n: int, adj: Sequence[Sequence[int]], root: int) -> list[str]:
    """Parenthesis code of every vertex's subtree, for the tree rooted at
    ``root``.

    A vertex wraps the ascending lexicographic concatenation of its
    children's codes in one more pair, so a childless vertex is ``()``.
    Iterative, so no tree size can exhaust the recursion limit.
    """
    parent = [-1] * n
    order = [root]
    for x in order:
        px = parent[x]
        for y in adj[x]:
            if y != px:
                parent[y] = x
                order.append(y)
    code = [""] * n
    kids: list[list[str]] = [[] for _ in range(n)]
    for v in reversed(order):
        c = kids[v]
        c.sort()
        code[v] = "(" + "".join(c) + ")"
        if v != root:
            kids[parent[v]].append(code[v])
    return code


def rooted_code(n: int, adj: Sequence[Sequence[int]], root: int) -> str:
    """Parenthesis code of the tree rooted at ``root``."""
    return subtree_codes(n, adj, root)[root]


def code_from_adjacency(n: int, adj: Sequence[Sequence[int]]) -> str:
    """Canonical code of a free tree given as neighbor lists.

    Roots at the centroid; with two centroids, takes the lexicographically
    smaller of the two rooted codes. Equal codes characterize isomorphism.

    The second centroid's rooted code reuses the subtree codes of the first
    traversal instead of traversing again; it is pinned against the plain
    ``min`` of ``rooted_code`` calls by the test suite.
    """
    cs = centroids(n, adj)
    c1 = cs[0]
    code = subtree_codes(n, adj, c1)
    if len(cs) == 1:
        return code[c1]
    c2 = cs[1]
    half1 = "(" + "".join(sorted(code[u] for u in adj[c1] if u != c2)) + ")"
    code2 = "(" + "".join(sorted([code[u] for u in adj[c2] if u != c1] + [half1])) + ")"
    return min(code[c1], code2)


def canonical_code(t: Tree) -> str:
    """Canonical parenthesis code of ``t``; equal codes mean isomorphic trees."""
    return code_from_adjacency(t.vertex_count, vertex_adjacency(t))


def is_isomorphic(a: Tree, b: Tree) -> bool:
    """Isomorphism of free trees, decided by comparing canonical codes."""
    return canonical_code(a) == canonical_code(b)


def line_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, whitespace-split fields)`` of every non-blank line,
    numbered from 1. Every text format of the package is read through it."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields:
            yield lineno, fields


def parse_ints(lineno: int, tokens: Sequence[str], what: str) -> tuple[int, ...]:
    """``tokens`` as integers, or a ``ValueError`` naming the line."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ValueError(f"line {lineno}: bad {what} {' '.join(tokens)!r}") from None


def key_values(lineno: int, fields: Sequence[str], **kinds: Callable[[str], object]) -> dict:
    """``key=value`` fields, each value converted by ``kinds[key]``.

    Every key of ``kinds`` must appear exactly once and no other key may;
    anything else is a ``ValueError`` naming the line.
    """
    vals: dict = {}
    for field in fields:
        key, sep, raw = field.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: field {field!r} is not key=value")
        if key not in kinds or key in vals:
            raise ValueError(f"line {lineno}: unexpected field {field!r}")
        try:
            vals[key] = kinds[key](raw)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value in {field!r}") from None
    missing = [key for key in kinds if key not in vals]
    if missing:
        raise ValueError(f"line {lineno}: missing field {missing[0]!r}")
    return vals


def parse_tree(text: str) -> Tree:
    """Parse the tree text format: ``V <n>`` then one ``E <u> <v>`` per edge.

    Edge lines appear in edge-id order; blank lines are ignored.
    """
    vertex_count = None
    edges: list[tuple[int, ...]] = []
    edge_lines: list[int] = []
    for lineno, fields in line_records(text):
        if fields[0] == "V" and len(fields) == 2:
            if vertex_count is not None:
                raise ValueError(f"line {lineno}: second V line")
            (vertex_count,) = parse_ints(lineno, fields[1:], "vertex count")
        elif fields[0] == "E" and len(fields) == 3:
            if vertex_count is None:
                raise ValueError(f"line {lineno}: E line before V line")
            edges.append(parse_ints(lineno, fields[1:], "edge"))
            edge_lines.append(lineno)
        else:
            raise ValueError(f"line {lineno}: unrecognized line {' '.join(fields)!r}")
    if vertex_count is None:
        raise ValueError("missing V line")
    try:
        return Tree(vertex_count, edges)
    except ItemError as err:
        raise ValueError(f"line {edge_lines[err.index]}: {err}") from None


def format_tree(t: Tree) -> str:
    """Serialize to the tree text format, edge lines in edge-id order."""
    lines = [f"V {t.vertex_count}"]
    lines.extend(f"E {u} {v}" for u, v in t.edges)
    return "\n".join(lines) + "\n"
