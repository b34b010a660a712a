"""Realizable edge bijections between two trees, and the friendliness search.

A bijection between the edges of two equal-size trees is realizable when, for
every pair of distinct vertices of the source tree at even distance, the
images of their incident-edge sets are unlinked in the target tree. Two trees
are friendly when at least one realizable bijection exists; an exhaustive
search that finds none certifies the pair unfriendly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import permutations

from .linking import unlinked
from .tree import Tree, count, key_values, line_records, parse_ints

# Image edge id at each source edge id.
EdgeBijection = tuple[int, ...]

FRIENDLY = "friendly"
UNFRIENDLY = "unfriendly"

# The unpruned scan tries n! bijections: 3.6 M at 10 edges.
MAX_RECHECK_EDGES = 10


@dataclass(frozen=True)
class Certificate:
    """Outcome of one friendliness decision: a verdict plus a witness or the
    search's exhaustion statistics, nothing else, so equal searches give
    equal certificates and the text format round-trips exactly.

    ``witness`` is present exactly for friendly verdicts. ``nodes`` counts
    edge-image assignments the search tried; ``checked`` counts complete
    bijections whose full constraint set was evaluated. An unfriendly
    certificate asserts the whole bijection space was covered: the search's
    cuts (constraint, source twins, target twins) remove only branches that
    hold no realizable bijection, or only copies of one in a kept branch;
    ``find_realizable_bijection`` gives each cut's rule.
    """

    verdict: str
    witness: EdgeBijection | None
    nodes: int
    checked: int


def _check_edge_counts(k: Tree, k2: Tree) -> int:
    if k.edge_count != k2.edge_count:
        raise ValueError(
            f"edge counts differ: {k.edge_count} vs {k2.edge_count}"
        )
    return k.edge_count


def _check_bijection(n: int, h: EdgeBijection) -> None:
    # A float such as 1.0 sorts equal to 1 but cannot index or shift.
    if len(h) != n or any(type(f) is not int for f in h) or sorted(h) != list(range(n)):
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


def _realizes(k: Tree, k2: Tree, h: EdgeBijection) -> bool:
    # ``is_realizable`` for a checked bijection: the search's constraint
    # check (see ``find_realizable_bijection``) on the whole of ``h``, with
    # ``S`` and ``E`` built once per source vertex's image set.
    below, ends = k2.side_tables
    side = []
    span = []
    for nbrs in k.adjacency:
        s = e = 0
        for _, eid in nbrs:
            f = h[eid]
            s ^= below[f]
            e |= ends[f]
        side.append(s)
        span.append(e)
    for a, b in even_vertex_pairs(k):
        ea = span[a]
        x = ea & side[b]
        if x and x != ea:
            return False
        eb = span[b]
        x = eb & side[a]
        if x and x != eb:
            return False
    return True


def is_realizable(k: Tree, k2: Tree, h: EdgeBijection) -> bool:
    """Whether ``h`` maps the incident sets of every even-distance vertex pair
    of ``k`` to an unlinked pair of edge sets in ``k2``."""
    n = _check_edge_counts(k, k2)
    h = tuple(h)
    _check_bijection(n, h)
    return _realizes(k, k2, h)


def _edge_order(k: Tree) -> list[int]:
    # Edges at high-degree vertices first: their constraints complete earliest.
    deg = k.degrees
    def key(eid: int) -> tuple[int, int, int]:
        u, v = k.edges[eid]
        return (-max(deg[u], deg[v]), -(deg[u] + deg[v]), eid)
    return sorted(range(k.edge_count), key=key)


def _twin_steps(t: Tree, rank: Sequence[int]) -> list[tuple[int, int]]:
    # Consecutive twins, ranked by ``rank[edge id]``: each vertex's leaf
    # edges sorted by rank, as (lower, next) pairs. Swapping two of them is
    # an automorphism of ``t``.
    deg = t.degrees
    steps = []
    for nbrs in t.adjacency:
        twins = sorted(rank[e] for y, e in nbrs if deg[y] == 1)
        steps += zip(twins, twins[1:])
    return steps


def find_realizable_bijection(k: Tree, k2: Tree) -> Certificate:
    """Search for a realizable bijection by backtracking over source edges.

    Source edges are assigned in a fixed heuristic order, candidate images in
    ascending edge id, so the search reaches bijections in lexicographic
    order of their images. Three cuts prune a branch:

    - Constraint: an even-distance vertex pair is checked the moment both its
      incident sets are fully mapped. Mapped images never change, so a
      failed check leaves no realizable completion.
    - Source twins: swapping two leaves on one vertex is an automorphism of
      ``k``, so ``h`` is realizable exactly when ``h`` with those two
      edges' images swapped is. The search keeps only bijections whose twin
      images increase in search order.
    - Target twins: swapping two leaves on one vertex of ``k2`` is an
      automorphism ``t`` of ``k2``. Unlinkedness is a property of ``k2``'s
      edge sets that ``t`` preserves, so ``h`` is realizable exactly when
      ``t∘h`` is. The search keeps only bijections that use the lower-id
      twin at the earlier depth: a twin is locked out of the candidates
      until its next lower twin has been used as an image.

    Each twin rule keeps, of two bijections that differ by one swap, the
    one that comes first in lexicographic order. So the first realizable
    bijection in that order obeys both rules (otherwise one swap would give
    a realizable bijection earlier still), no cut touches any prefix of it,
    and the search is deterministic and returns it, or an exhaustion
    certificate if there is none. ``nodes`` and ``checked`` count what the
    cuts leave. Each twin rule costs O(1) per node: a mask on each depth's
    candidates for the source, and for the target one OR on descent and one
    AND on backtrack of ``free``, the images that are unused and unlocked.

    The search is an explicit per-depth loop, so no tree size exhausts the
    recursion limit. A constraint check is two mask tests: when a source
    vertex's last edge is mapped, its image set's side colouring ``S`` and
    endpoint mask ``E`` are built from ``k2.side_tables``, and an
    even-distance pair ``(a, b)`` is unlinked exactly when ``E[a] & S[b]`` is
    ``0`` or ``E[a]`` and the same holds with ``a`` and ``b`` swapped. The two
    image sets need no overlap test: vertices at even distance are not
    adjacent, so their incident sets, and hence their images, are disjoint.
    A witness is re-tested whole before it is returned, by the same check as
    ``is_realizable``: it reads the same side tables but none of the
    search's per-depth state, and a failure raises ``RuntimeError``.
    """
    n = _check_edge_counts(k, k2)
    if n == 0:
        return Certificate(FRIENDLY, (), 0, 1)

    order = _edge_order(k)
    pos = [0] * n
    for depth, eid in enumerate(order):
        pos[eid] = depth
    # Depth of the previous source twin in search order, or -1.
    prev = [-1] * n
    for before, d in _twin_steps(k, pos):
        prev[d] = before
    # Each target twin but the lowest is locked until the next lower is used.
    unlock = [0] * n
    locked = 0
    for f1, f2 in _twin_steps(k2, range(n)):
        unlock[f1] = 1 << f2
        locked |= 1 << f2
    # A vertex is complete at the depth that maps its last edge; each
    # constraint is checked at the depth where both its vertices are.
    ats = [tuple(sorted(pos[e] for _, e in nbrs)) for nbrs in k.adjacency]
    done = [at[-1] for at in ats]
    complete: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for v, at in enumerate(ats):
        complete[done[v]].append((v, at))
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in even_vertex_pairs(k):
        checks[max(done[a], done[b])].append((a, b))
    below, ends = k2.side_tables

    img = [0] * n  # image of the edge mapped at each depth
    # S and E of each complete vertex's image set.
    side = [0] * k.vertex_count
    span = [0] * k.vertex_count
    todo = [0] * n  # candidate images not yet tried at each depth
    free = todo[0] = ((1 << n) - 1) & ~locked  # unused, unlocked images
    last = n - 1
    depth = nodes = checked = 0
    witness = None
    while depth >= 0:
        cand = todo[depth]
        if not cand:
            depth -= 1
            if depth >= 0:
                f = img[depth]
                free = (free | 1 << f) & ~unlock[f]
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
            free = (free ^ low) | unlock[img[depth]]
            depth += 1
            twin = prev[depth]
            todo[depth] = free if twin < 0 else free & ~((2 << img[twin]) - 1)

    if witness is None:
        return Certificate(UNFRIENDLY, None, nodes, checked)
    if not _realizes(k, k2, witness):
        raise RuntimeError(f"search produced an unsound witness {witness!r}")
    return Certificate(FRIENDLY, witness, nodes, checked)


def exhaustive_search(k: Tree, k2: Tree) -> Certificate:
    """Unpruned reference search: try every bijection in lexicographic order.

    Used to recheck unfriendly verdicts independently of the pruned search:
    every one of the ``n!`` bijections is tested (``checked`` counts them),
    each against every constraint until one fails. It shares no edge order,
    cut or per-depth table with the search, only the side test of
    ``linking``, which is held to the brute-force oracle. No bijection is
    skipped; what bijections share is the verdict on an image pair. Each
    distinct pair of image masks is decided once by ``unlinked`` and
    memoized for the rest of the call: the two masks are disjoint, so there
    are at most 3^n distinct pairs (6,561 at 8 edges, against 40,320
    bijections). Every scan has ``nodes == checked``, the empty bijection of
    a zero-edge pair included.
    Above ``MAX_RECHECK_EDGES`` edges the scan is refused with a
    ``ValueError``.
    """
    n = _check_edge_counts(k, k2)
    if n > MAX_RECHECK_EDGES:
        raise ValueError(
            f"the unpruned scan supports at most {MAX_RECHECK_EDGES} edges, got {n}"
        )
    # Source edge ids incident to each vertex of every even-distance pair.
    ids = [tuple(eid for _, eid in nbrs) for nbrs in k.adjacency]
    constraints = [(ids[a], ids[b]) for a, b in even_vertex_pairs(k)]
    bits = [1 << f for f in range(n)]
    # ``unlinked`` is pure in ``(k2, ma, mb)``, so one memo serves every bijection.
    memo: dict[tuple[int, int], bool] = {}
    checked = 0
    for h in permutations(range(n)):
        checked += 1
        for ids_a, ids_b in constraints:
            ma = 0
            for e in ids_a:
                ma |= bits[h[e]]
            mb = 0
            for e in ids_b:
                mb |= bits[h[e]]
            key = (ma, mb)
            ok = memo.get(key)
            if ok is None:
                ok = memo[key] = unlinked(k2, ma, mb)
            if not ok:
                break
        else:
            return Certificate(FRIENDLY, h, checked, checked)
    return Certificate(UNFRIENDLY, None, checked, checked)


def recheck_certificate(k: Tree, k2: Tree, cert: Certificate) -> bool:
    """Re-derive a certificate's verdict the slow way.

    Friendly: re-test the stored witness (any corruption, including a
    non-bijective map, comes back ``False``). Unfriendly: re-exhaust the full
    bijection space without pruning (``exhaustive_search``) and confirm
    nothing is realizable.
    """
    _check_edge_counts(k, k2)
    if cert.verdict == FRIENDLY:
        if cert.witness is None:
            return False
        try:
            return is_realizable(k, k2, cert.witness)
        except ValueError:
            return False
    if cert.verdict == UNFRIENDLY:
        return exhaustive_search(k, k2).verdict == UNFRIENDLY
    raise ValueError(f"unknown verdict {cert.verdict!r}")


def certificate_to_text(cert: Certificate) -> str:
    """Certificate text: VERDICT line, WITNESS line for friendly results,
    STATS line."""
    lines = [f"VERDICT {cert.verdict}"]
    if cert.verdict == FRIENDLY:
        lines.append(" ".join(["WITNESS", *map(str, cert.witness)]))
    lines.append(f"STATS nodes={cert.nodes} checked={cert.checked}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Parse the certificate text format.

    The VERDICT and STATS lines are required. A WITNESS line must be a
    permutation of ``0..len-1`` and appears exactly under a friendly
    verdict, wherever the VERDICT line is.
    """
    verdict = None
    witness: EdgeBijection | None = None
    stats: dict = {}
    seen: set[str] = set()
    for lineno, fields in line_records(text):
        kind = fields[0]
        if kind == "VERDICT" and len(fields) == 2:
            verdict_line = lineno
            verdict = fields[1]
            if verdict not in (FRIENDLY, UNFRIENDLY):
                raise ValueError(f"line {lineno}: bad verdict {verdict!r}")
        elif kind == "WITNESS":
            witness_line = lineno
            witness = parse_ints(lineno, fields[1:], "witness")
            if sorted(witness) != list(range(len(witness))):
                raise ValueError(
                    f"line {lineno}: witness is not a permutation of 0..{len(witness) - 1}"
                )
        elif kind == "STATS":
            stats = key_values(lineno, fields[1:], nodes=count, checked=count)
        else:
            raise ValueError(f"line {lineno}: unrecognized line {' '.join(fields)!r}")
        if kind in seen:
            raise ValueError(f"line {lineno}: second {kind} line")
        seen.add(kind)
    if verdict is None:
        raise ValueError("missing VERDICT line")
    if verdict == UNFRIENDLY and witness is not None:
        raise ValueError(f"line {witness_line}: WITNESS line in an unfriendly certificate")
    if verdict == FRIENDLY and witness is None:
        raise ValueError(f"line {verdict_line}: friendly certificate without a WITNESS line")
    if not stats:
        raise ValueError("missing STATS line")
    return Certificate(verdict, witness, stats["nodes"], stats["checked"])
