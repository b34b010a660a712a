"""Free trees with indexed edges: path queries, incidence sets, canonical codes.

Vertices are dense integers ``0..vertex_count-1``. Edges are unordered vertex
pairs kept in a fixed list; the list position is the edge id, and every edge
set in this package is a plain ``int`` bitmask over those ids, the cheapest
and most convenient representation here. Every per-tree table derives from
one rooting, at the centroid of the canonical code (``Tree._centroid``), in
linear passes, so trees of thousands of vertices are served as well as the
dozen-edge trees of a survey.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


def edge_mask(ids: Iterable[int]) -> int:
    """Bitmask with the given edge ids set."""
    m = 0
    for i in ids:
        if type(i) is not int or i < 0:
            raise ValueError(f"edge id must be a non-negative int, got {i!r}")
        m |= 1 << i
    return m


def mask_ids(mask: int) -> tuple[int, ...]:
    """Edge ids present in ``mask``, ascending."""
    if type(mask) is not int or mask < 0:
        raise ValueError(f"edge mask must be a non-negative int, got {mask!r}")
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
    a fault of a single edge is an ``ItemError`` carrying its edge id. The
    one other way a ``Tree`` is made is ``with_leaf``, which grows a tree
    that is already valid by one leaf: a new vertex joined by one edge
    closes no cycle, so it needs no union-find.

    The vertex count is checked first, then that ``edges`` is iterable,
    then the edge count. Then one pass
    over the edges, in id order, names the first faulty edge: not a pair,
    a vertex id that is not an ``int``, one outside ``0..n-1``, or an edge
    whose ends are already joined. A union-find is the one acyclicity test;
    only when it rejects an edge is the fault named a self-loop, a duplicate
    of an earlier edge, or the edge that closes a cycle.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        # A float such as 1.5 would truncate silently under ``int()``.
        if type(vertex_count) is not int:
            raise ValueError(f"vertex_count must be an int, got {vertex_count!r}")
        n = vertex_count
        if n < 1:
            raise ValueError("vertex_count must be positive")
        try:
            edges = tuple(edges)
        except TypeError:
            raise ValueError(f"edges must be an iterable of vertex pairs, got {edges!r}") from None
        if len(edges) != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
        comp = list(range(n))

        def find(x: int) -> int:
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        pairs = []
        for eid, edge in enumerate(edges):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ItemError(eid, f"edge {edge!r} is not a pair of vertex ids") from None
            if type(u) is not int or type(v) is not int:
                raise ItemError(eid, f"edge ({u!r}, {v!r}) has a vertex id that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise ItemError(eid, f"edge ({u}, {v}) has a vertex id outside 0..{n - 1}")
            ru, rv = find(u), find(v)
            if ru == rv:
                # A self-loop and a repeated edge close a cycle too; only
                # the message tells them apart.
                if u == v:
                    raise ItemError(eid, f"self-loop at vertex {u}")
                if (u, v) in pairs or (v, u) in pairs:
                    raise ItemError(eid, f"duplicate edge ({u}, {v})")
                raise ItemError(eid, f"contains a cycle (edge ({u}, {v}) closes it)")
            comp[ru] = rv
            pairs.append((u, v))
        # n-1 edges and no cycle force connectivity, so the invariants all hold.
        self.vertex_count = n
        self.edges = tuple(pairs)

    def with_leaf(self, v: int) -> Tree:
        """This tree plus a new vertex ``vertex_count``, joined to ``v`` by
        the new edge id ``edge_count``.

        Only ``v`` is checked, as ``_check_vertex`` checks a vertex id. A
        tree plus a new vertex joined to it by one edge is a tree (still
        connected, one edge fewer than vertices), so the result is built
        without ``__init__`` and its union-find.
        """
        _check_vertex(self, v)
        n = self.vertex_count
        grown = Tree.__new__(Tree)
        grown.vertex_count = n + 1
        grown.edges = self.edges + ((v, n),)
        return grown

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
    def depths(self) -> tuple[int, ...]:
        """Distance of every vertex from the root of ``_centroid``."""
        order, parent, *_ = self._centroid[0]
        depth = [0] * self.vertex_count
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        return tuple(depth)

    @cached_property
    def side_tables(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(below, ends)``: per edge id, the vertex mask of the subtree
        under the edge (rooted as ``_centroid``) and the mask of its two
        endpoints. Built once per tree; every fast side test reads them.

        One bottom-up pass gives each vertex's subtree mask, and ``below``
        of an edge is the subtree mask of its child endpoint: ``n - 1`` ORs
        in all. A vertex is below edge ``f`` exactly when ``f`` is on its
        root path, so the XOR of ``below`` over an edge set ``q`` is the set
        of vertices whose root paths cross ``q`` an odd number of times:
        ``q``'s side colouring. With ``S(q)`` that XOR and ``E(p)`` the OR
        of ``ends`` over ``p``, a set ``p`` disjoint from ``q`` is on one
        side of ``q`` exactly when ``E(p) & S(q)`` is ``0`` or ``E(p)``.
        Any root would do: another one complements ``S(q)`` or leaves it,
        and the test is the same for a set and its complement.
        """
        order, parent, *_ = self._centroid[0]
        sub = [1 << v for v in range(self.vertex_count)]
        for v in reversed(order[1:]):
            sub[parent[v]] |= sub[v]
        below = tuple(sub[v] if parent[v] == u else sub[u] for u, v in self.edges)
        ends = tuple((1 << u) | (1 << v) for u, v in self.edges)
        return below, ends

    @cached_property
    def _centroid(self) -> tuple[RootedCodes, list[int], list[list[int]], list[int]]:
        """``(rooting, up, kids, other)``: ``rooted_codes`` at the canonical
        centroid, the one whose rooted code is smaller (the rule of
        ``code_from_adjacency``), the lower id on a tie; per vertex the edge
        id to its parent (``-1`` at the root) and its children in ascending
        code order, ties by edge id; and the other centroid, a child of the
        root, if there is one. It is the tree's one rooting: the depths, the
        side tables, the automorphism generators and the search's canonical
        edge order all read it. The centroids come from a rooting at vertex
        0, as in ``code_from_adjacency``."""
        n = self.vertex_count
        adj = vertex_adjacency(self)
        centres = centroids(*rooted(adj, 0))
        rooting = min((rooted_codes(n, adj, c) for c in centres), key=lambda r: r.code[r.order[0]])
        other = [c for c in centres if c != rooting.order[0]]
        up = [-1] * n
        for eid, (u, v) in enumerate(self.edges):
            up[v if rooting.parent[v] == u else u] = eid
        # BFS lists each vertex's children in edge-id order; the sort is stable.
        kids: list[list[int]] = [[] for _ in range(n)]
        for v in sorted(rooting.order[1:], key=rooting.code.__getitem__):
            kids[rooting.parent[v]].append(v)
        return rooting, up, kids, other

    @cached_property
    def automorphism_generators(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Involutions that generate the tree's automorphism group, acting on
        edge ids: each is the ascending tuple of its moved ``(edge id,
        image)`` pairs, and none is the identity.

        Rooted at a centroid, a vertex's children with equal subtree codes
        head isomorphic branches. Each vertex's children are sorted by code,
        ties by edge id, and each consecutive equal pair gives the swap of
        their two branches, matched child by child in that order. With two
        centroids whose halves are isomorphic, the flip about the central
        edge is one more. Every automorphism maps centroids to centroids;
        one that fixes the root is a product of sibling swaps, by induction
        on height, and one that exchanges two centroids is the flip times
        such a product. Built without recursion.
        """
        (order, _, _, code, _), up, kids, other = self._centroid
        root = order[0]

        def exchange(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
            # Map each branch of a pair onto the other, child by child.
            moved = []
            stack = list(pairs)
            while stack:
                a, b = stack.pop()
                moved += ((up[a], up[b]), (up[b], up[a]))
                stack += zip(kids[a], kids[b])
            return tuple(sorted(moved))

        gens = [
            exchange([(a, b)])
            for c in kids
            for a, b in zip(c, c[1:])
            if code[a] == code[b]
        ]
        if other:
            # The second centroid is a child of the root; the rest of the
            # root's children, still in code order, make up the root's half.
            (c2,) = other
            half = [a for a in kids[root] if a != c2]
            if code[c2] == "(" + "".join(code[a] for a in half) + ")":
                gens.append(exchange(zip(half, kids[c2])))
        return tuple(g for g in gens if g)


def _check_vertex(t: Tree, v: int) -> None:
    # A bool is an int subclass and would act as vertex 0 or 1.
    if type(v) is not int:
        raise ValueError(f"vertex id must be an int, got {v!r}")
    if not (0 <= v < t.vertex_count):
        raise ValueError(f"vertex id {v} outside 0..{t.vertex_count - 1}")


def path_edges(t: Tree, a: int, b: int) -> int:
    """Edges on the unique a-b path, as a bitmask; empty when a == b.

    Walks the tree explicitly (BFS from ``a``, then backtrack from ``b``):
    the path walker of ``linking.same_side_bruteforce``, the oracle that the
    side tables are tested against. It keeps its own walk rather than share
    ``rooted`` with the tables, so one traversal bug cannot break both the
    tables and the oracle that checks them.
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


def rooted(adj: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """``(order, parent)`` of the tree with neighbor lists ``adj`` rooted at
    ``root``: its vertices in BFS order, and each vertex's parent, ``-1`` at
    the root. The one traversal every per-tree table is derived from."""
    parent = [-1] * len(adj)
    order = [root]
    for x in order:
        px = parent[x]
        for y in adj[x]:
            if y != px:
                parent[y] = x
                order.append(y)
    return order, parent


def vertex_adjacency(t: Tree) -> list[list[int]]:
    """Plain neighbor lists, without edge ids, each in edge-id order as in
    ``Tree.adjacency``. Read straight from ``t.edges``, so a tree that only
    needs a canonical code never builds and caches ``Tree.adjacency``."""
    adj: list[list[int]] = [[] for _ in range(t.vertex_count)]
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def centroids(order: Sequence[int], parent: Sequence[int]) -> list[int]:
    """The one or two vertices minimizing the largest component left by
    their removal (Jordan 1869), ascending, read off any rooting
    ``(order, parent)`` that lists parents before children, as ``rooted``.

    The half-size rule: the subtrees holding at least half of the ``n``
    vertices lie on one root path, as two disjoint ones would leave out the
    root, and ``order`` meets them top down. The lowest, ``c``, leaves each
    child's subtree under half and at most half above, so it is a centroid;
    its parent is the other exactly when ``c`` holds ``n / 2``.
    """
    n = len(order)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    half = [v for v in order if 2 * size[v] >= n][-2:]
    return sorted(half) if 2 * size[half[-1]] == n else half[-1:]


class RootedCodes(NamedTuple):
    """A tree rooted at ``order[0]``: its vertices in BFS order, and per
    vertex its ``parent`` (``-1`` at the root), its subtree's ``size`` and
    parenthesis ``code``, and its children's codes in ascending order,
    ``kids``."""

    order: list[int]
    parent: list[int]
    size: list[int]
    code: list[str]
    kids: list[list[str]]


def rooted_codes(n: int, adj: Sequence[Sequence[int]], root: int) -> RootedCodes:
    """The tree on ``n`` vertices with neighbor lists ``adj``, rooted at
    ``root``, with the AHU code (Aho, Hopcroft and Ullman 1974) of every
    vertex's subtree.

    A vertex wraps the ascending lexicographic concatenation of its
    children's codes in one more pair, so a childless vertex is ``()``.
    One ``rooted`` walk and one bottom-up pass, so no tree size can exhaust
    the recursion limit.
    """
    order, parent = rooted(adj, root)
    size = [1] * n
    code = [""] * n
    kids: list[list[str]] = [[] for _ in range(n)]
    for v in reversed(order):
        k = kids[v]
        k.sort()
        code[v] = "(" + "".join(k) + ")"
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            kids[p].append(code[v])
    return RootedCodes(order, parent, size, code, kids)


def code_from_adjacency(n: int, adj: Sequence[Sequence[int]]) -> str:
    """Canonical code of a free tree given as neighbor lists.

    Roots at the centroid; with two centroids, takes the lexicographically
    smaller of the two rooted codes. Equal codes characterize isomorphism.
    """
    return min(rooted_codes(n, adj, r).code[r] for r in centroids(*rooted(adj, 0)))


def canonical_code(t: Tree) -> str:
    """Canonical parenthesis code of ``t``; equal codes mean isomorphic trees."""
    return code_from_adjacency(t.vertex_count, vertex_adjacency(t))


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, the last one possibly empty.

    Only ``\n``, ``\r\n`` and a lone ``\r`` end a line, as in Python's
    universal newlines. ``str.splitlines`` also breaks at ``\v``, ``\f``,
    ``\x1c``-``\x1e``, ``\x85``, ``\u2028`` and ``\u2029``, which would
    shift every later line number.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def line_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, whitespace-split fields)`` of every non-blank line,
    numbered from 1 with the line ends of ``split_lines``. Every text format
    of the package is read through it."""
    for lineno, line in enumerate(split_lines(text), start=1):
        fields = line.split()
        if fields:
            yield lineno, fields


def parse_ints(lineno: int, tokens: Sequence[str], what: str) -> tuple[int, ...]:
    """``tokens`` as integers, each a plain decimal ``-?[0-9]+``, or a
    ``ValueError`` naming the line."""
    try:
        return tuple(-count(t[1:]) if t.startswith("-") else count(t) for t in tokens)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {what} {' '.join(tokens)!r}") from None


def count(raw: str) -> int:
    """``raw`` as a count, a plain ASCII decimal ``[0-9]+``. A converter for
    ``key_values``; bare ``int()`` would also take ``+5``, ``1_000`` and
    non-ASCII digits."""
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(raw)
    return int(raw)


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
            v_line = lineno
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
    except ValueError as err:
        raise ValueError(f"line {v_line}: {err}") from None


def format_tree(t: Tree) -> str:
    """Serialize to the tree text format, edge lines in edge-id order."""
    lines = [f"V {t.vertex_count}"]
    lines.extend(f"E {u} {v}" for u, v in t.edges)
    return "\n".join(lines) + "\n"
