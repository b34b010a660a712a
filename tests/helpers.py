"""Shared test utilities: random tree generation and brute-force oracles."""

from __future__ import annotations

import random
from itertools import permutations

from hypothesis import strategies as st

from friendly_trees.tree import Tree

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
