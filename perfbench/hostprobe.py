"""How fast the host runs pure Python right now.

The shared host this benchmark was built on changes speed by up to 1.4x for
minutes at a time, which moves every wall-clock figure of a run. The probe
times a fixed loop that never calls the package, in the same process,
every half second of the run. The mean of those times over the run, divided
by ``NOMINAL``, is the run's slowdown, and the bounded end-to-end times and
rates are reported at nominal speed: rates times the slowdown, times divided
by it. A change to the package moves the ops and not the probe, so it still
shows in full.

Never edit ``probe_loop`` or ``NOMINAL``: either would rescale every
normalised figure and break comparison with earlier runs.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL = 0.045  # seconds per probe_loop on a quiet core of the baseline host
EVERY = 0.5  # seconds between the end of one probe and the start of the next


def _code(adj: list[list[int]], v: int, parent: int) -> str:
    return "(" + "".join(sorted(_code(adj, u, v) for u in adj[v] if u != parent)) + ")"


def probe_loop() -> int:
    """The package's kind of work, frozen: decode 1500 Prüfer sequences of
    8-vertex trees into neighbour lists and take a parenthesis code of each,
    then walk the set bits of 30,000 integers."""
    m = 8
    codes = set()
    for s in range(1500):
        seq = [(s * 7 + k * 13 + (s >> k)) % m for k in range(m - 2)]
        degree = [1] * m
        for x in seq:
            degree[x] += 1
        adj: list[list[int]] = [[] for _ in range(m)]
        ptr = 0
        while degree[ptr] != 1:
            ptr += 1
        leaf = ptr
        for v in seq:
            adj[leaf].append(v)
            adj[v].append(leaf)
            degree[v] -= 1
            if degree[v] == 1 and v < ptr:
                leaf = v
            else:
                ptr += 1
                while degree[ptr] != 1:
                    ptr += 1
                leaf = ptr
        adj[leaf].append(m - 1)
        adj[m - 1].append(leaf)
        codes.add(_code(adj, 0, -1))
    acc = 0
    for p in range(1, 30000):
        q = (p * 2654435761) & 0xFFFF
        rest = p
        while rest:
            low = rest & -rest
            rest ^= low
            acc += (q >> low.bit_length()) & 1
    return len(codes) + acc


def probe_seconds() -> float:
    """Seconds of one ``probe_loop``."""
    start = time.perf_counter()
    probe_loop()
    return time.perf_counter() - start


class HostProbe:
    """Probe samples of one run. Between ``start`` and ``stop`` a timer
    signal interrupts the run every ``EVERY`` seconds, wherever it is, even
    inside a long library call, and times one ``probe_loop``. ``clock``
    is ``time.perf_counter`` less the time spent probing, so ops timed with
    it do not include the probes."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe_seconds())
        self.spent += time.perf_counter() - start
        # Re-armed only now, so a slow probe cannot queue the next one.
        signal.setitimer(signal.ITIMER_REAL, EVERY)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        self._probe(signal.SIGALRM, None)  # one probe before the first op

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    @property
    def slowdown(self) -> float:
        return statistics.mean(self.samples) / NOMINAL
