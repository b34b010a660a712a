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

from .linking import side_tables, unlinked
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

    The search is an explicit per-depth loop, so no tree size exhausts the
    recursion limit. A constraint check is two mask tests: when a source
    vertex's last edge is mapped, its image set's side colouring ``S`` and
    endpoint mask ``E`` are built from ``side_tables(k2)``, and an
    even-distance pair ``(a, b)`` is unlinked exactly when ``E[a] & S[b]`` is
    ``0`` or ``E[a]`` and the same holds with ``a`` and ``b`` swapped. The two
    image sets need no overlap test: vertices at even distance are not
    adjacent, so their incident sets, and hence their images, are disjoint.
    """
    n = _check_edge_counts(k, k2)
    start = time.perf_counter()
    if n == 0:
        return Certificate(FRIENDLY, (), 0, 1, time.perf_counter() - start)

    order = _edge_order(k)
    pos = [0] * n
    for depth, eid in enumerate(order):
        pos[eid] = depth
    # A vertex is complete at the depth that maps its last edge; each
    # constraint is checked at the depth where both its vertices are.
    complete: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    done = []
    for v, nbrs in enumerate(k.adjacency):
        at = tuple(pos[e] for _, e in nbrs)
        done.append(max(at))
        complete[done[v]].append((v, at))
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in even_vertex_pairs(k):
        checks[max(done[a], done[b])].append((a, b))
    below, ends = side_tables(k2)

    img = [0] * n  # image of the edge mapped at each depth
    # S and E of each complete vertex's image set.
    side = [0] * k.vertex_count
    span = [0] * k.vertex_count
    todo = [0] * n  # candidate images not yet tried at each depth
    free = todo[0] = (1 << n) - 1
    last = n - 1
    depth = nodes = checked = 0
    witness = None
    while depth >= 0:
        cand = todo[depth]
        if not cand:
            depth -= 1
            if depth >= 0:
                free |= 1 << img[depth]
            continue
        low = cand & -cand
        todo[depth] = cand ^ low
        img[depth] = low.bit_length() - 1
        nodes += 1
        for v, at in complete[depth]:
            s = e = 0
            for d in at:
                f = img[d]
                s ^= below[f]
                e |= ends[f]
            side[v] = s
            span[v] = e
        ok = True
        for a, b in checks[depth]:
            ea = span[a]
            x = ea & side[b]
            if x and x != ea:
                ok = False
                break
            eb = span[b]
            x = eb & side[a]
            if x and x != eb:
                ok = False
                break
        if depth == last:
            checked += 1
            if ok:
                witness = tuple(img[pos[eid]] for eid in range(n))
                break
        elif ok:
            free ^= low
            depth += 1
            todo[depth] = free

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
