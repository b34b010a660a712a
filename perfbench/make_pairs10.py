"""Regenerate ``pairs10.txt``, the recorded input set of the ``pairs10`` workload.

Draws POOL random pairs of 10-edge trees from uniformly random Prüfer
sequences, decides every pair with the library's search, and keeps a
stratified sample of KEEP pairs: the pool is sorted by search node count,
cut into KEEP equal bins, and one pair is drawn from each bin. The sample so
has the pool's cost profile, heavy tail included, in a set small enough to
decide in one benchmark round. Each kept pair is written with its verdict,
which the benchmark checks every decision against.

Run from the repository root (takes a few minutes on one core):

    python3 perfbench/make_pairs10.py > perfbench/pairs10.txt
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from friendly_trees import Tree, find_realizable_bijection  # noqa: E402
from friendly_trees.enumeration import decode_prufer  # noqa: E402

EDGES = 10
POOL = 512
KEEP = 100
SEED = 20131113


def main() -> None:
    rng = random.Random(SEED)
    m = EDGES + 1
    pool = []
    for _ in range(POOL):
        seqs = [tuple(rng.randrange(m) for _ in range(m - 2)) for _ in range(2)]
        a, b = (Tree(m, decode_prufer(s, m)) for s in seqs)
        cert = find_realizable_bijection(a, b)
        pool.append((cert.nodes, len(pool), seqs, cert.verdict))
    pool.sort()
    print(f"# {KEEP} of {POOL} random {EDGES}-edge Prüfer pairs, one per node-count bin "
          f"(seed {SEED}); written by make_pairs10.py")
    print("# prufer_a prufer_b verdict nodes")
    for i in range(KEEP):
        nodes, _, seqs, verdict = pool[rng.randrange(i * POOL // KEEP, (i + 1) * POOL // KEEP)]
        print(" ".join(",".join(map(str, s)) for s in seqs), verdict, nodes)


if __name__ == "__main__":
    main()
