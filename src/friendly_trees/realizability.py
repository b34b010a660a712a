"""Realizable edge bijections between two trees, and the friendliness search.

A bijection between the edges of two equal-size trees is realizable when, for
every pair of distinct vertices of the source tree at even distance, the
images of their incident-edge sets are unlinked in the target tree. Two trees
are friendly when at least one realizable bijection exists; an exhaustive
search that finds none certifies the pair unfriendly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, permutations
from weakref import WeakKeyDictionary

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
    cuts (constraint, and automorphism of either tree) remove only branches
    that hold no realizable bijection, or only copies of one in a kept
    branch, its image under an automorphism; ``find_realizable_bijection``
    gives each cut's rule.
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


def _check_bijection(n: int, h: EdgeBijection) -> tuple[int, ...]:
    """``h`` as a tuple, once it is checked to be a bijection on ``0..n-1``.

    ``h`` lists the images in edge-id order. A mapping or a set holds no
    such order (a dict iterates its keys), so it is refused outright.
    """
    if isinstance(h, (Mapping, Set)):
        raise ValueError(f"map must be a sequence of images, got a {type(h).__name__}")
    try:
        h = tuple(h)
    except TypeError:
        h = None
    # A float such as 1.0 sorts equal to 1 but cannot index or shift.
    if h is None or len(h) != n or any(type(f) is not int for f in h) or sorted(h) != list(range(n)):
        ids = " on edge ids 0..%d" % (n - 1) if n else ": the trees have no edge ids"
        raise ValueError("map is not a bijection" + ids)
    return h


def _realizes(k: Tree, k2: Tree, h: EdgeBijection) -> bool:
    # ``is_realizable`` for a checked bijection: the search's constraint
    # check (see ``find_realizable_bijection``) on the whole of ``h``, with
    # ``S`` and ``E`` built once per source vertex's image set. Vertices at
    # even distance are those of one depth parity, so each pair of one
    # parity's list is tested.
    below, ends = k2.side_tables
    depths = k.depths
    sets: tuple[list[tuple[int, int]], list[tuple[int, int]]] = ([], [])
    for v, nbrs in enumerate(k.adjacency):
        s = e = 0
        for _, eid in nbrs:
            f = h[eid]
            s ^= below[f]
            e |= ends[f]
        sets[depths[v] & 1].append((s, e))
    for group in sets:
        while group:
            sa, ea = group.pop()
            for sb, eb in group:
                x = ea & sb
                if x and x != ea:
                    return False
                x = eb & sa
                if x and x != eb:
                    return False
    return True


def is_realizable(k: Tree, k2: Tree, h: EdgeBijection) -> bool:
    """Whether ``h`` maps the incident sets of every even-distance vertex pair
    of ``k`` to an unlinked pair of edge sets in ``k2``."""
    n = _check_edge_counts(k, k2)
    return _realizes(k, k2, _check_bijection(n, h))


# Each source's plan, for as long as the tree lives: a survey reuses its trees
# as sources, and a tree made for one decision leaves nothing behind.
_plans: WeakKeyDictionary[Tree, tuple] = WeakKeyDictionary()


def _plan(t: Tree) -> tuple:
    # Everything the search reads of ``t`` as source, ``pos, bounds, closes,
    # new_leaf``: the search depth of each edge; per depth the earlier depths
    # whose images bound it from below (a generator σ pairs the first depth
    # ``d0`` whose edge it moves with ``d1``, the depth of that edge's image,
    # and the search keeps ``img[d1] > img[d0]``); and per depth the
    # even-distance pairs checked there, once both vertices are complete. An
    # inner (non-leaf) vertex is named by the depth that completes it. A
    # depth completes at most one: were both ends of its edge inner and
    # complete, the other edges at each end would be mapped before it, and
    # the mapped edges, one subtree, could join them only through this edge.
    # ``closes[depth]`` is ``None``, or for the inner vertex the depth
    # completes, the depths of its other edges, the inner vertices of its
    # depth parity complete before it, and the depths of the complete leaves
    # of its parity. A leaf mapped at this depth lists, in ``new_leaf``, the
    # complete inner vertices it pairs with. Two leaves are never listed:
    # distinct edges are always unlinked.
    #
    # One pass orders the edges and fills the schedule as it goes. The
    # mapped edges grow as one subtree, so each even-distance pair is
    # checked as early as it can be. The first edge is the lowest-id edge at
    # a highest-degree vertex. Each later one is the frontier edge, untaken
    # and next to the subtree, that completes the most pairs, leaf pairs
    # included, then the one with the larger maximum endpoint degree, then
    # the lowest id. A vertex is complete once all its edges are mapped, and
    # then pairs with each complete vertex of its depth parity. Each step
    # scans the whole frontier: quadratic in the worst case, as the pairs
    # are.
    plan = _plans.get(t)
    if plan is not None:
        return plan
    n = t.edge_count
    deg = t.degrees
    edges = t.edges
    parity = [d & 1 for d in t.depths]
    wide = [max(deg[u], deg[v]) for u, v in edges]
    left = list(deg)  # untaken edges at each vertex
    # Complete vertices by depth parity: how many, the inner ones by the
    # depth that completed them, and the depths of the leaves' edges.
    closed = [0, 0]
    inner: tuple[list[int], list[int]] = ([], [])
    leaves: tuple[list[int], list[int]] = ([], [])
    frontier = {wide.index(max(wide))} if n else set()  # untaken edges next to the subtree

    def key(f: int) -> tuple[int, int, int]:
        # ``f`` completes each end that has no other untaken edge.
        u, v = edges[f]
        score = 0
        if left[u] == 1:
            score += closed[parity[u]]
        if left[v] == 1:
            score += closed[parity[v]]
        return score, wide[f], -f

    pos = [0] * n
    closes: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None] = [None] * n
    new_leaf: list[tuple[int, ...]] = [()] * n
    for depth in range(n):
        e = max(frontier, key=key)
        frontier.remove(e)
        pos[e] = depth
        for w in edges[e]:
            if left[w] == deg[w]:  # ``w`` joins the subtree
                frontier.update(f for _, f in t.adjacency[w] if f != e)
            left[w] -= 1
            if not left[w]:
                p = parity[w]
                closed[p] += 1
                if deg[w] == 1:
                    new_leaf[depth] = tuple(inner[p])
                    leaves[p].append(depth)
                    continue
                at = tuple(pos[f] for _, f in t.adjacency[w] if f != e)
                closes[depth] = (at, tuple(inner[p]), tuple(leaves[p]))
                inner[p].append(depth)
    bounds: list[list[int]] = [[] for _ in range(n)]
    for gen in t.automorphism_generators:
        e0, e1 = min(gen, key=lambda moved: pos[moved[0]])
        bounds[pos[e1]].append(pos[e0])
    plan = _plans[t] = (pos, bounds, closes, new_leaf)
    return plan


# Each target's search tables, for as long as the tree lives, like ``_plans``.
_targets: WeakKeyDictionary[Tree, tuple] = WeakKeyDictionary()


def _target(t: Tree) -> tuple:
    # Everything the search reads of ``t`` as target, ``edge_of, below,
    # ends, lockers, hitmask, lows, lock, paths, inside, unsplit``, with
    # every image named by its rank, a canonical order of the edges:
    # ``edge_of[r]`` is the edge id of rank ``r``. An edge's rank is the
    # place of its child end in a BFS of ``Tree._centroid``, the rooting at
    # the centroid of the canonical code, each vertex's children in
    # ascending code order. Isomorphic trees get the same ranked tree,
    # whatever their labels, and so the same search.
    #
    # Per rank, ``below`` and ``ends`` of ``Tree.side_tables``. Per image
    # ``f``: the generators that map ``f`` lower (``lockers``) and those
    # that move ``f`` (``hitmask``), generator ``i`` as bit ``1 << i``. Per
    # generator, the images it maps lower (``lows``), and their union, the
    # lock before any generator is hit (``lock``). Per vertex, the edges on
    # its path to the root, the edges whose ``below`` holds it (``paths``).
    # Per image ``g``, the images with both ends in ``below[g]``
    # (``inside``). And a memo of ``_unsplit`` masks, filled as searches ask
    # for them. ``side_tables`` reads the same rooting, so the paths come
    # with the ranks, and the subtrees in one pass back up the ranks' BFS.
    entry = _targets.get(t)
    if entry is not None:
        return entry
    n = t.edge_count
    rooting, edge_up, kids, _ = t._centroid
    edge_of = []
    paths = [0] * (n + 1)
    queue = [rooting.order[0]]
    for v in queue:
        for w in kids[v]:
            paths[w] = paths[v] | 1 << len(edge_of)
            edge_of.append(edge_up[w])
            queue.append(w)
    rank = [0] * n
    for r, f in enumerate(edge_of):
        rank[f] = r
    below, ends = t.side_tables
    below = tuple(below[f] for f in edge_of)
    ends = tuple(ends[f] for f in edge_of)
    gens = t.automorphism_generators
    lockers = [0] * n
    hitmask = [0] * n
    lows = [0] * len(gens)
    lock = 0
    for i, gen in enumerate(gens):
        for f, tf in gen:
            f, tf = rank[f], rank[tf]
            hitmask[f] |= 1 << i
            if tf < f:
                lockers[f] |= 1 << i
                lows[i] |= 1 << f
                lock |= 1 << f
    inside = [0] * n
    sub = [0] * (n + 1)  # the edges below each vertex
    for v in reversed(queue[1:]):
        f = rank[edge_up[v]]
        inside[f] = sub[v]
        sub[rooting.parent[v]] |= sub[v] | 1 << f
    entry = _targets[t] = (edge_of, below, ends, lockers, hitmask, lows, lock, paths, inside, {})
    return entry


def _unsplit(paths: Sequence[int], e: int) -> int:
    # The images whose ``below`` holds all or none of the vertex set ``e``:
    # those on the root path of every vertex of ``e``, or of none.
    every, some = -1, 0
    while e:
        low = e & -e
        e ^= low
        path = paths[low.bit_length() - 1]
        every &= path
        some |= path
    return every | ~some


def find_realizable_bijection(k: Tree, k2: Tree) -> Certificate:
    """Search for a realizable bijection by backtracking over source edges.

    Source edges are assigned in one fixed order per tree, which grows the
    mapped edges as a single subtree and next takes the edge that completes
    the most even-distance pairs (``_plan`` gives the rule), so each
    pair is checked as early as it can be. Candidate images go in ascending
    canonical rank (``_target`` gives the rule): the order of a BFS from the
    centroid of the canonical code that lists children by their subtree
    codes. So the search reaches bijections in lexicographic order of their
    images' ranks in that edge order, and a relabelling of ``k2`` changes
    no verdict, node count or check count, only the edge ids the witness
    names. The witness is mapped back to ``k2``'s edge ids. Two kinds of
    cut prune a branch:

    - Constraint: an even-distance vertex pair is checked the moment both its
      incident sets are fully mapped. Mapped images never change, so a
      failed check leaves no realizable completion.
    - Automorphism: an automorphism ``σ`` of ``k`` keeps even distance and
      an automorphism ``t`` of ``k2`` keeps unlinkedness, so the realizable
      set is closed under ``h -> t∘h∘σ``. The search keeps ``h`` only if it
      comes before ``h∘σ`` and ``t∘h`` for every generator ``σ`` and ``t``
      of ``Tree.automorphism_generators``. ``h`` and ``h∘σ`` first differ at
      ``d0``, the first depth whose edge ``σ`` moves, where ``h∘σ`` has the
      image at ``d1``, the depth of that edge's image: the source rule keeps
      ``img[d1] > img[d0]``, and the largest bound on a depth applies. ``h``
      and ``t∘h`` first differ at the first depth whose image ``t`` moves:
      the target rule keeps the first image used from ``t``'s moved set the
      lower of its pair, so until one is used the candidates exclude
      ``{f moved by t : t(f) < f}``. Images compare by rank throughout.

    The first realizable bijection in search order is the least element of
    its orbit, so it comes before each of its images under a generator and
    meets every rule; each rule only reads images already assigned, so no
    prefix of it is cut either. The search is therefore deterministic and
    returns it, or an exhaustion certificate if there is none. ``nodes`` and
    ``checked`` count what the cuts leave. The rules cost a few mask
    operations per depth: each depth's candidates are the unused images
    above its source bounds, less the locked ones. On entry to a depth, a
    mask holds the target generators not yet hit, and the lock mask is the
    union, over them, of the images each maps lower; using an image hits
    every generator that moves it, and a hit generator stays hit, so it
    frees each image it maps lower that no unhit generator maps lower. The
    source's edge order, cut bounds and constraint schedule are one
    memoized plan, built in one pass once per tree. The target's tables
    are one memoized entry per tree, each indexed by rank and built in
    linear passes: the ranks from a BFS of the generators' rooting at the
    canonical centroid (``Tree._centroid``), the side tables in rank order,
    its per-image generator masks and first lock, and the root paths and
    subtrees that the leaf masks read, from the same BFS.
    The entry also memoizes each mask of the first leaf kind (below) as
    searches ask for them.

    The search is an explicit per-depth loop, so no tree size exhausts the
    recursion limit. A constraint check between two inner (non-leaf)
    vertices is two mask tests on each candidate. Each depth maps the last
    edge of at most one inner source vertex. On entry to that depth, the
    side colouring ``S`` and endpoint mask ``E`` of the vertex's earlier
    images (its head) are built once from ``k2.side_tables``, and a popped
    candidate ``f`` adds its one image: ``S ^ below[f]`` and
    ``E | ends[f]``. An even-distance pair ``(a, b)`` is unlinked exactly
    when ``E[a] & S[b]`` is ``0`` or ``E[a]`` and the same holds with ``a``
    and ``b`` swapped. The two image sets need no overlap test: vertices at
    even distance are not adjacent, so their incident sets, and hence their
    images, are disjoint.

    A pair with a leaf is decided for all of a depth's candidates at once,
    on entry to the depth (forward checking, Haralick and Elliott 1980). A
    leaf's image set is one edge, and one edge outside a set is always on
    one side of it, as its two ends differ only in that edge. So:

    - Two leaves need no test: two distinct edges are unlinked.
    - A leaf mapped at this depth, against a complete inner vertex with
      image set ``A``: a candidate ``f`` passes when ``below[f]`` holds all
      or none of ``E(A)``, that is when ``f`` is on the root path of every
      vertex of ``E(A)`` or of none. The mask of those ``f`` is memoized per
      target and ``E(A)``.
    - A complete leaf with image ``g``, against an inner vertex whose last
      edge this depth maps and whose head is ``W'``: the pair fails for
      every candidate unless ``E(W')`` lies on one side of ``g``, and then
      a candidate passes when both its ends lie on that side too.
      The images with both ends in ``below[g]`` are the edges under ``g``.

    The masks leave ``nodes`` and ``checked`` those of a search that pops
    every unlocked candidate and tests it against each pair. A candidate a
    mask removes counts as a node when it is removed, and on the last depth
    as a checked bijection. A search that finds its witness stops before it
    would pop the candidates above the witness's image on each depth, so
    the removed ones among them are subtracted once, at the end.
    A witness is re-tested whole before it is returned, by the same check as
    ``is_realizable``: it reads the same side tables but none of the
    search's per-depth state, and a failure raises ``RuntimeError``.
    """
    n = _check_edge_counts(k, k2)
    if n == 0:
        return Certificate(FRIENDLY, (), 0, 1)

    pos, bounds, closes, new_leaf = _plan(k)
    edge_of, below, ends, lockers, hitmask, lows, lock, paths, inside, unsplit = _target(k2)

    img = [0] * n  # image of the edge mapped at each depth
    # S and E of the image set of the inner vertex each depth completes, and
    # of its images at earlier depths (its head), built on entry.
    side = [0] * n
    span = [0] * n
    head_side = [0] * n
    head_span = [0] * n
    todo = [0] * n  # candidate images not yet tried at each depth
    # On entry to each depth: the unused images, the target generators not
    # yet hit, the images they lock, and the candidates a leaf mask removed.
    unused = [0] * n
    unhit = [0] * n
    locked = [0] * n
    cut = [0] * n
    unused[0] = (1 << n) - 1
    unhit[0] = live = (1 << len(lows)) - 1
    locked[0] = lock
    todo[0] = unused[0] & ~lock
    last = n - 1
    depth = nodes = checked = 0
    witness = None
    while depth >= 0:
        cand = todo[depth]
        if not cand:
            depth -= 1
            continue
        low = cand & -cand
        todo[depth] = cand ^ low
        f = low.bit_length() - 1
        img[depth] = f
        nodes += 1
        ok = True
        closing = closes[depth]
        if closing is not None:
            s = side[depth] = head_side[depth] ^ below[f]
            e = span[depth] = head_span[depth] | ends[f]
            for d in closing[1]:
                x = e & side[d]
                if x and x != e:
                    ok = False
                    break
                ed = span[d]
                x = ed & s
                if x and x != ed:
                    ok = False
                    break
        if depth == last:
            checked += 1
            if ok:
                witness = tuple(edge_of[img[pos[eid]]] for eid in range(n))
                break
        elif ok:
            free = unused[depth] ^ low
            live = unhit[depth]
            lock = locked[depth]
            hit = live & hitmask[f]
            if hit:
                live ^= hit
                # A hit generator locks no more: free each image it mapped
                # lower that no live generator still locks.
                while hit:
                    bit = hit & -hit
                    hit ^= bit
                    m = lows[bit.bit_length() - 1]
                    while m:
                        bit = m & -m
                        m ^= bit
                        if not lockers[bit.bit_length() - 1] & live:
                            lock &= ~bit
            depth += 1
            unused[depth] = free
            unhit[depth] = live
            locked[depth] = lock
            free &= ~lock
            for d in bounds[depth]:
                free &= ~((2 << img[d]) - 1)
            keep = free
            for d in new_leaf[depth]:
                e = span[d]
                m = unsplit.get(e)
                if m is None:
                    m = unsplit[e] = _unsplit(paths, e)
                keep &= m
            closing = closes[depth]
            if closing is not None:
                s = e = 0
                for d in closing[0]:
                    g = img[d]
                    s ^= below[g]
                    e |= ends[g]
                head_side[depth] = s
                head_span[depth] = e
                for d in closing[2]:
                    g = img[d]
                    x = e & below[g]
                    if x and x != e:
                        keep = 0
                        break
                    # The candidates exclude ``g``: outside is not inside.
                    keep &= inside[g] if x else ~inside[g]
            todo[depth] = keep
            gone = cut[depth] = free ^ keep
            if gone:
                gone = gone.bit_count()
                nodes += gone
                if depth == last:
                    checked += gone
    if witness is None:
        return Certificate(UNFRIENDLY, None, nodes, checked)
    # The search stopped at the witness, before popping the candidates above
    # its image on each depth, so those a mask removed never were nodes. On
    # the last depth the witness's image is the only candidate.
    for d in range(last):
        nodes -= (cut[d] >> img[d]).bit_count()
    if not _realizes(k, k2, witness):
        raise RuntimeError(f"search produced an unsound witness {witness!r}")
    return Certificate(FRIENDLY, witness, nodes, checked)


def exhaustive_search(k: Tree, k2: Tree) -> Certificate:
    """Unpruned reference search: try every bijection in lexicographic order.

    Used to recheck unfriendly verdicts independently of the pruned search:
    every one of the ``n!`` bijections is tested (``checked`` counts them),
    each against every constraint until one fails. A constraint is a pair of
    source vertices of one depth parity, which are the pairs at even
    distance, and names their incident edge ids. The scan shares no edge
    order, cut or per-depth table with the search, only the depths of
    ``Tree`` and the side test of ``linking``, which is held to the
    brute-force oracle. No bijection is skipped; what bijections share is
    the verdict on an image pair. Each distinct pair of image masks is
    decided once by ``unlinked``, through a ``functools.cache`` made for the
    call: the two masks are disjoint, so there are at most 3^n distinct
    pairs (6,561 at 8 edges, against 40,320 bijections). Every scan has
    ``nodes == checked``, the empty bijection of a zero-edge pair included.
    Above ``MAX_RECHECK_EDGES`` edges the scan is refused with a
    ``ValueError``.

    The constraints are tried in the order of their last failure: the one
    that failed a bijection moves to the front of this call's list.
    Neighbours in lexicographic order share most images, so it mostly fails
    the next one too; on the unfriendly pairs through 9 edges, both ways, a
    bijection costs 1.1-1.7 constraint tests instead of the 1.8-4.7 of a
    fixed order. The order changes no output: a bijection is realizable
    exactly when all its constraints hold, in whatever order they are
    tried, and the bijections are still visited, counted and returned in
    lexicographic order. The order and the cache live and die with the
    call.
    """
    n = _check_edge_counts(k, k2)
    if n > MAX_RECHECK_EDGES:
        raise ValueError(
            f"the unpruned scan supports at most {MAX_RECHECK_EDGES} edges, got {n}"
        )
    # Source edge ids incident to each vertex, by depth parity: the pairs
    # within one parity are the even-distance pairs.
    groups: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] = ([], [])
    for v, nbrs in enumerate(k.adjacency):
        groups[k.depths[v] & 1].append(tuple(eid for _, eid in nbrs))
    constraints = [c for group in groups for c in combinations(group, 2)]
    bits = [1 << f for f in range(n)]
    # ``unlinked`` is pure in ``(k2, ma, mb)``, so one cache serves every
    # bijection of this call, and dies with it.
    decide = cache(partial(unlinked, k2))
    checked = 0
    for h in permutations(range(n)):
        checked += 1
        for c in constraints:
            ids_a, ids_b = c
            ma = 0
            for e in ids_a:
                ma |= bits[h[e]]
            mb = 0
            for e in ids_b:
                mb |= bits[h[e]]
            if not decide(ma, mb):
                # Fail first. The loop ends here, so it never iterates the
                # list it changed.
                if c is not constraints[0]:
                    constraints.remove(c)
                    constraints.insert(0, c)
                break
        else:
            return Certificate(FRIENDLY, h, checked, checked)
    return Certificate(UNFRIENDLY, None, checked, checked)


def recheck_certificate(k: Tree, k2: Tree, cert: Certificate) -> bool:
    """Re-derive a certificate's verdict the slow way.

    Friendly: re-test the stored witness with ``is_realizable``. A missing
    or non-bijective map fails its bijection check, so any corruption comes
    back ``False``. Unfriendly: a
    certificate that carries a witness comes back ``False`` without a scan,
    as ``parse_certificate`` would reject its text; otherwise re-exhaust the
    full bijection space without pruning (``exhaustive_search``) and confirm
    nothing is realizable.
    """
    _check_edge_counts(k, k2)
    if cert.verdict == FRIENDLY:
        try:
            return is_realizable(k, k2, cert.witness)
        except ValueError:
            return False
    if cert.verdict == UNFRIENDLY:
        if cert.witness is not None:
            return False
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


def parse_witness(lineno: int, tokens: Sequence[str], n: int) -> EdgeBijection:
    """``tokens`` as the witness of two trees with ``n`` edges each, a
    permutation of ``0..n-1``, or a ``ValueError`` naming the line."""
    witness = parse_ints(lineno, tokens, "witness")
    if sorted(witness) != list(range(n)):
        what = f"a permutation of 0..{n - 1}" if n else "empty, but the trees have no edge ids"
        raise ValueError(f"line {lineno}: witness is not {what}")
    return witness


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
            witness = parse_witness(lineno, fields[1:], len(fields) - 1)
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
