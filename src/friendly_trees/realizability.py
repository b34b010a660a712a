"""Realizable edge bijections between two trees, and the friendliness search.

A bijection between the edges of two equal-size trees is realizable when, for
every pair of distinct vertices of the source tree at even distance, the
images of their incident-edge sets are unlinked in the target tree. Two trees
are friendly when at least one realizable bijection exists; an exhaustive
search that finds none certifies the pair unfriendly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations

from .linking import unlinked
from .tree import Tree, key_values, line_records, parse_ints

# Image edge id at each source edge id.
EdgeBijection = tuple[int, ...]

FRIENDLY = "friendly"
UNFRIENDLY = "unfriendly"


@dataclass(frozen=True)
class Certificate:
    """Outcome of one friendliness decision.

    ``witness`` is present exactly for friendly verdicts. ``nodes`` counts
    edge-image assignments the search tried; ``checked`` counts complete
    bijections whose full constraint set was evaluated. An unfriendly
    certificate asserts the whole bijection space was covered (pruning only
    ever cut branches that provably contain no realizable completion).
    """

    verdict: str
    witness: EdgeBijection | None
    nodes: int
    checked: int
    seconds: float


def _check_edge_counts(k: Tree, k2: Tree) -> int:
    if k.edge_count != k2.edge_count:
        raise ValueError(
            f"edge counts differ: {k.edge_count} vs {k2.edge_count}"
        )
    return k.edge_count


def _check_bijection(n: int, h: EdgeBijection) -> None:
    if len(h) != n or sorted(h) != list(range(n)):
        raise ValueError("map is not a bijection on edge ids 0..%d" % (n - 1))


def even_vertex_pairs(k: Tree) -> tuple[tuple[int, int], ...]:
    """Unordered pairs of distinct vertices joined by an even-length path."""
    depths = k.depths
    n = k.vertex_count
    return tuple(
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if ((depths[a] ^ depths[b]) & 1) == 0
    )


def _map_mask(mask: int, img: list[int] | EdgeBijection) -> int:
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << img[low.bit_length() - 1]
    return out


def _constraint_masks(k: Tree) -> tuple[tuple[int, int], ...]:
    dm = k.delta_masks
    return tuple((dm[a], dm[b]) for a, b in even_vertex_pairs(k))


def _satisfies(k2: Tree, pair_masks: tuple[tuple[int, int], ...], h: EdgeBijection) -> bool:
    for ma, mb in pair_masks:
        if not unlinked(k2, _map_mask(ma, h), _map_mask(mb, h)):
            return False
    return True


def is_realizable(k: Tree, k2: Tree, h: EdgeBijection) -> bool:
    """Whether ``h`` maps the incident sets of every even-distance vertex pair
    of ``k`` to an unlinked pair of edge sets in ``k2``."""
    n = _check_edge_counts(k, k2)
    _check_bijection(n, tuple(h))
    return _satisfies(k2, _constraint_masks(k), tuple(h))


def _edge_order(k: Tree) -> list[int]:
    # Edges at high-degree vertices first: their constraints complete earliest.
    deg = k.degrees
    def key(eid: int) -> tuple[int, int, int]:
        u, v = k.edges[eid]
        return (-max(deg[u], deg[v]), -(deg[u] + deg[v]), eid)
    return sorted(range(k.edge_count), key=key)


def find_realizable_bijection(k: Tree, k2: Tree) -> Certificate:
    """Search for a realizable bijection by backtracking over source edges.

    Source edges are assigned in a fixed heuristic order; every even-distance
    vertex pair is checked the moment both its incident sets are fully
    mapped, and a failed check prunes the branch. Once mapped, those images
    never change, so pruning cannot skip a realizable completion. With the
    order fixed the search is deterministic: it returns the first realizable
    bijection reached (candidate images tried in ascending edge id), or an
    exhaustion certificate.
    """
    n = _check_edge_counts(k, k2)
    start = time.perf_counter()
    if n == 0:
        return Certificate(FRIENDLY, (), 0, 1, time.perf_counter() - start)

    order = _edge_order(k)
    pos = [0] * n
    for depth, eid in enumerate(order):
        pos[eid] = depth
    # Bucket each constraint at the depth where its last edge gets an image.
    by_depth: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ma, mb in _constraint_masks(k):
        trigger = 0
        m = ma | mb
        while m:
            low = m & -m
            m ^= low
            d = pos[low.bit_length() - 1]
            if d > trigger:
                trigger = d
        by_depth[trigger].append((ma, mb))

    img = [0] * n
    used = [False] * n
    nodes = 0
    checked = 0

    def extend(depth: int) -> EdgeBijection | None:
        nonlocal nodes, checked
        eid = order[depth]
        last = depth == n - 1
        for f in range(n):
            if used[f]:
                continue
            used[f] = True
            img[eid] = f
            nodes += 1
            ok = True
            for ma, mb in by_depth[depth]:
                if not unlinked(k2, _map_mask(ma, img), _map_mask(mb, img)):
                    ok = False
                    break
            if ok:
                if last:
                    checked += 1
                    return tuple(img)
                w = extend(depth + 1)
                if w is not None:
                    return w
            elif last:
                checked += 1
            used[f] = False
        return None

    witness = extend(0)
    elapsed = time.perf_counter() - start
    if witness is None:
        return Certificate(UNFRIENDLY, None, nodes, checked, elapsed)
    if not _satisfies(k2, _constraint_masks(k), witness):
        raise RuntimeError(f"search produced an unsound witness {witness!r}")
    return Certificate(FRIENDLY, witness, nodes, checked, elapsed)


def exhaustive_search(k: Tree, k2: Tree) -> Certificate:
    """Unpruned reference search: try every bijection in lexicographic order.

    Meant for trees with at most ~8 edges; used to recheck unfriendly
    verdicts independently of the pruned search.
    """
    n = _check_edge_counts(k, k2)
    start = time.perf_counter()
    if n == 0:
        return Certificate(FRIENDLY, (), 0, 1, time.perf_counter() - start)
    pair_masks = _constraint_masks(k)
    checked = 0
    for h in permutations(range(n)):
        checked += 1
        if _satisfies(k2, pair_masks, h):
            return Certificate(FRIENDLY, h, checked, checked, time.perf_counter() - start)
    return Certificate(UNFRIENDLY, None, checked, checked, time.perf_counter() - start)


def recheck_certificate(k: Tree, k2: Tree, cert: Certificate) -> bool:
    """Re-derive a certificate's verdict the slow way.

    Friendly: re-test the stored witness (any corruption, including a
    non-bijective map, comes back ``False``). Unfriendly: re-exhaust the full
    bijection space without pruning and confirm nothing is realizable.
    """
    _check_edge_counts(k, k2)
    if cert.verdict == FRIENDLY:
        if cert.witness is None:
            return False
        try:
            return is_realizable(k, k2, tuple(cert.witness))
        except ValueError:
            return False
    if cert.verdict == UNFRIENDLY:
        return exhaustive_search(k, k2).verdict == UNFRIENDLY
    raise ValueError(f"unknown verdict {cert.verdict!r}")


def certificate_to_text(cert: Certificate, include_witness: bool = True) -> str:
    """Certificate text: VERDICT line, WITNESS line for friendly results,
    STATS line."""
    lines = [f"VERDICT {cert.verdict}"]
    if cert.verdict == FRIENDLY and include_witness:
        lines.append(" ".join(["WITNESS", *map(str, cert.witness or ())]).rstrip())
    lines.append(f"STATS nodes={cert.nodes} checked={cert.checked}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Parse the certificate text format; timing is not part of the format."""
    verdict = None
    witness: EdgeBijection | None = None
    stats = {"nodes": 0, "checked": 0}
    seen: set[str] = set()
    for lineno, fields in line_records(text):
        kind = fields[0]
        if kind == "VERDICT" and len(fields) == 2:
            verdict = fields[1]
            if verdict not in (FRIENDLY, UNFRIENDLY):
                raise ValueError(f"line {lineno}: bad verdict {verdict!r}")
        elif kind == "WITNESS":
            witness = parse_ints(lineno, fields[1:], "witness")
        elif kind == "STATS":
            stats = key_values(lineno, fields[1:], nodes=int, checked=int)
        else:
            raise ValueError(f"line {lineno}: unrecognized line {' '.join(fields)!r}")
        if kind in seen:
            raise ValueError(f"line {lineno}: second {kind} line")
        seen.add(kind)
    if verdict is None:
        raise ValueError("missing VERDICT line")
    return Certificate(verdict, witness, stats["nodes"], stats["checked"], 0.0)
