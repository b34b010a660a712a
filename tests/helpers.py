"""Shared test utilities: random tree generation, brute-force oracles and the
reference search."""

from __future__ import annotations

import random
from itertools import permutations

from hypothesis import strategies as st

from friendly_trees import realizability
from friendly_trees.realizability import FRIENDLY, UNFRIENDLY, Certificate
from friendly_trees.tree import Tree, edge_mask

# The unordered unfriendly pairs of the 9-edge catalogue, by index.
CATALOG9_UNFRIENDLY = {(9, 101), (9, 102), (16, 101), (41, 97), (60, 75), (74, 87), (74, 88)}


def attachment_tree(parents: list[int]) -> Tree:
    """Tree where vertex ``i + 1`` hangs off ``parents[i]`` (a valid parent is
    any earlier vertex)."""
    return Tree(len(parents) + 1, [(p, i + 1) for i, p in enumerate(parents)])


def random_tree(rng: random.Random, edge_count: int) -> Tree:
    """Uniformly structured random labelled tree built by random attachment,
    then randomly relabelled and edge-shuffled."""
    parents = [rng.randrange(i + 1) for i in range(edge_count)]
    perm = list(range(edge_count + 1))
    rng.shuffle(perm)
    edges = [(perm[p], perm[i + 1]) for i, p in enumerate(parents)]
    rng.shuffle(edges)
    return Tree(edge_count + 1, edges)


def relabel(t: Tree, perm: list[int]) -> Tree:
    """Apply a vertex permutation, keeping edge ids in place."""
    return Tree(t.vertex_count, [(perm[u], perm[v]) for u, v in t.edges])


def incident_mask(t: Tree, v: int) -> int:
    """Mask of the edges incident to vertex ``v``."""
    return edge_mask(eid for _, eid in t.adjacency[v])


def bfs_two_coloring(t: Tree) -> list[int]:
    """Colour 0 or 1 per vertex, alternating along a breadth-first walk from
    vertex 0, with no use of ``Tree.depths``."""
    color = [0] * t.vertex_count
    seen = [False] * t.vertex_count
    seen[0] = True
    queue = [0]
    for x in queue:
        for y, _ in t.adjacency[x]:
            if not seen[y]:
                seen[y] = True
                color[y] = color[x] ^ 1
                queue.append(y)
    return color


def even_pairs(t: Tree) -> list[tuple[int, int]]:
    """The vertex pairs ``a < b`` at even distance: those of one colour of
    ``bfs_two_coloring``."""
    color = bfs_two_coloring(t)
    n = t.vertex_count
    return [(a, b) for a in range(n) for b in range(a + 1, n) if color[a] == color[b]]


def brute_force_isomorphic(a: Tree, b: Tree) -> bool:
    """Permutation-search isomorphism test; exponential, fine to ~8 vertices."""
    if a.vertex_count != b.vertex_count:
        return False
    target = {frozenset(e) for e in b.edges}
    for perm in permutations(range(a.vertex_count)):
        if all(frozenset((perm[u], perm[v])) in target for u, v in a.edges):
            return True
    return False


@st.composite
def trees(draw, max_edges: int = 10, min_edges: int = 0):
    """Hypothesis strategy for arbitrary labelled trees."""
    edge_count = draw(st.integers(min_edges, max_edges))
    parents = [draw(st.integers(0, i)) for i in range(edge_count)]
    perm = draw(st.permutations(range(edge_count + 1)))
    edges = [(perm[p], perm[i + 1]) for i, p in enumerate(parents)]
    return Tree(edge_count + 1, edges)


@st.composite
def trees_with_two_edge_sets(draw, max_edges: int = 10):
    """A tree plus two arbitrary edge-set masks over its edges."""
    t = draw(trees(max_edges=max_edges, min_edges=1))
    top = (1 << t.edge_count) - 1
    p = draw(st.integers(0, top))
    q = draw(st.integers(0, top))
    return t, p, q


def vertex_completions(k: Tree):
    """The first pass of ``two_pass_schedule``: per depth of ``k``'s plan,
    the vertices done there, each at the depth of its last edge, with the
    sorted depths of all its edges. Each depth's entries are sorted."""
    pos = realizability._plan(k)[0]
    complete = [[] for _ in range(k.edge_count)]
    for v, nbrs in enumerate(k.adjacency):
        at = tuple(sorted(pos[e] for _, e in nbrs))
        complete[at[-1]].append((v, at))
    return [sorted(c) for c in complete]


def two_pass_schedule(k: Tree):
    """The search's constraint schedule over every vertex and every
    even-distance pair of ``k``, rebuilt from the edge depths of its plan
    in two more passes: a vertex is done at the depth of its last edge, with
    the depths of all its edges (``vertex_completions``), and each pair of
    ``even_pairs`` is checked at the later of its two. Each depth's
    entries are sorted, pairs as ``(a, b)`` with ``a < b``."""
    complete = vertex_completions(k)
    done = [0] * k.vertex_count
    for depth, vertices in enumerate(complete):
        for v, _ in vertices:
            done[v] = depth
    checks = [[] for _ in range(k.edge_count)]
    for a, b in even_pairs(k):
        checks[max(done[a], done[b])].append((a, b))
    return complete, [sorted(c) for c in checks]


def rooted_code_table(t: Tree, root: int) -> tuple[list[int], list[int], list[str]]:
    """``(order, up, code)`` of ``t`` rooted at ``root``, walked with
    ``Tree.adjacency`` and no helper of ``tree``: the vertices in BFS order,
    each vertex's edge id to its parent (``-1`` at the root) and the AHU
    code of its subtree, its children's codes sorted and wrapped in one
    more pair."""
    up = [-1] * t.vertex_count
    seen = {root}
    order = [root]
    for x in order:
        for y, eid in t.adjacency[x]:
            if y not in seen:
                seen.add(y)
                up[y] = eid
                order.append(y)
    kids = [[] for _ in range(t.vertex_count)]
    code = [""] * t.vertex_count
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(kids[v])) + ")"
        if up[v] >= 0:
            u, w = t.edges[up[v]]
            kids[u if w == v else w].append(code[v])
    return order, up, code


def canonical_edge_order(t: Tree) -> list[int]:
    """The edge ids of ``t`` by canonical rank, built the plain way: root at
    the centroid whose rooted code is smaller (the lower vertex id on a
    tie), list each vertex's children by ascending code, ties by edge id,
    and take each edge at its child end's place in BFS order."""
    n = t.vertex_count
    order, up, _ = rooted_code_table(t, 0)
    size = [1] * n
    for v in reversed(order[1:]):
        u, w = t.edges[up[v]]
        size[u if w == v else w] += size[v]

    def largest_part(v):
        # The largest component left by removing ``v``.
        parts = [n - size[v]] + [size[y] for y, eid in t.adjacency[v] if eid != up[v]]
        return max(parts)

    least = min(map(largest_part, range(n)))
    tables = [rooted_code_table(t, c) for c in range(n) if largest_part(c) == least]
    order, up, code = min(tables, key=lambda table: table[2][table[0][0]])
    kids = [[] for _ in range(n)]
    for v in sorted(order[1:], key=lambda v: (code[v], up[v])):
        u, w = t.edges[up[v]]
        kids[u if w == v else w].append(v)
    ranked = []
    queue = [order[0]]
    for v in queue:
        ranked += (up[w] for w in kids[v])
        queue += kids[v]
    return ranked


def relabel_randomly(t: Tree, rng: random.Random) -> tuple[Tree, list[int]]:
    """``t`` with its vertices, its edge ids and each edge's two ends
    shuffled, and the new id of each old edge id."""
    perm = list(range(t.vertex_count))
    rng.shuffle(perm)
    new_id = list(range(t.edge_count))
    rng.shuffle(new_id)
    edges = [None] * t.edge_count
    for f, (u, v) in enumerate(t.edges):
        edges[new_id[f]] = (u, v) if rng.random() < 0.5 else (v, u)
    return relabel(Tree(t.vertex_count, edges), perm), new_id


def reference_search(k: Tree, k2: Tree) -> Certificate:
    """The friendliness search with one candidate per loop pass, the
    reference for the kernel's image masks and node counts.

    It reads the kernel's edge order and source bounds from ``_plan`` and
    nothing else of it, and tries the target's images in the rank order of
    ``canonical_edge_order``. Each popped candidate is skipped, uncounted,
    while a target generator not yet hit maps it lower in that order;
    otherwise it counts as a node and is tested against every
    even-distance pair its depth completes, leaves included, by the two
    mask tests of ``Tree.side_tables``. A certificate of the kernel is
    equal to this one."""
    n = k.edge_count
    if n == 0:
        return Certificate(FRIENDLY, (), 0, 1)
    pos, bounds = realizability._plan(k)[:2]
    complete, checks = two_pass_schedule(k)
    edge_of = canonical_edge_order(k2)
    rank = [0] * n
    for r, f in enumerate(edge_of):
        rank[f] = r
    lockers = [0] * n
    hitmask = [0] * n
    for i, gen in enumerate(k2.automorphism_generators):
        for f, tf in gen:
            hitmask[rank[f]] |= 1 << i
            if rank[tf] < rank[f]:
                lockers[rank[f]] |= 1 << i
    below, ends = ([table[f] for f in edge_of] for table in k2.side_tables)
    img = [0] * n
    side = [0] * k.vertex_count
    span = [0] * k.vertex_count
    todo = [0] * n
    unused = [0] * n
    unhit = [0] * n
    unused[0] = todo[0] = (1 << n) - 1
    unhit[0] = (1 << len(k2.automorphism_generators)) - 1
    depth = nodes = checked = 0
    while depth >= 0:
        cand = todo[depth]
        if not cand:
            depth -= 1
            continue
        low = cand & -cand
        todo[depth] = cand ^ low
        f = low.bit_length() - 1
        if unhit[depth] & lockers[f]:
            continue
        img[depth] = f
        nodes += 1
        for v, at in complete[depth]:
            s = e = 0
            for d in at:
                s ^= below[img[d]]
                e |= ends[img[d]]
            side[v] = s
            span[v] = e
        ok = True
        for a, b in checks[depth]:
            for p, q in ((a, b), (b, a)):
                x = span[p] & side[q]
                if x and x != span[p]:
                    ok = False
        if depth == n - 1:
            checked += 1
            if ok:
                witness = tuple(edge_of[img[pos[eid]]] for eid in range(n))
                return Certificate(FRIENDLY, witness, nodes, checked)
        elif ok:
            free = unused[depth] ^ low
            live = unhit[depth] & ~hitmask[f]
            depth += 1
            unused[depth] = free
            unhit[depth] = live
            for d in bounds[depth]:
                free &= ~((2 << img[d]) - 1)
            todo[depth] = free
    return Certificate(UNFRIENDLY, None, nodes, checked)
