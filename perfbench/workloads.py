"""Benchmark inputs: T(2,n) torus knots and the ``verify`` suites.

The program only ever sees PD strings and CLI arguments.  The torus
diagrams are generated here, mirrors included, and checked against
published codes before any job runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# KnotAtlas PD codes; the generator must reproduce them exactly.
KNOT_ATLAS = {
    5: "X[1,6,2,7] X[3,8,4,9] X[5,10,6,1] X[7,2,8,3] X[9,4,10,5]",
    7: ("X[1,8,2,9] X[3,10,4,11] X[5,12,6,13] X[7,14,8,1] X[9,2,10,3] "
        "X[11,4,12,5] X[13,6,14,7]"),
}

# [pass] lines each verify suite prints over the 10-diagram corpus:
# d2 = 10 x (4 presets + reduced), euler = 10 x 4 presets,
# rm-invariance = 3 classes x (reduced, even, odd); 130 in all.
VERIFY_PASSES = {
    "d2": 50, "euler": 40, "commuting-square": 10, "graph-span": 10,
    "rm-invariance": 9, "arrows": 10, "snf": 1,
}

WORKLOADS = ("torus-unreduced", "torus-reduced", "verify")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy."""

    id: str
    argv: tuple
    kind: str                 # "even" | "odd" | "reduced" | "verify"
    n: int = 0                # torus parameter (0 for verify)
    chirality: str = ""       # "left" | "right"
    pd: str = ""
    suite: str = ""


def torus_pd(n: int, chirality: str) -> str:
    """PD code of the T(2,n) torus knot, n odd.

    ``left`` is ``X[j, j+n, j+1, j+n+1]`` for odd j with labels mod 2n,
    whose incoming over-strand sits in slot 1; ``right`` is its mirror,
    the same crossing read from that over-strand.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"T(2,{n}): only knots (odd n >= 3) are generated")

    def lab(a):
        return (a - 1) % (2 * n) + 1

    out = []
    for j in range(1, 2 * n, 2):
        a, b, c, d = lab(j), lab(j + n), lab(j + 1), lab(j + n + 1)
        out.append((a, b, c, d) if chirality == "left" else (b, c, d, a))
    return " ".join("X[%d,%d,%d,%d]" % x for x in out)


def self_check(corpus_trefoil: str, check_planarity, parse_pd) -> list:
    """Where the generator disagrees with known codes (empty if nowhere)."""
    problems = []
    if torus_pd(3, "left") != corpus_trefoil:
        problems.append("T(2,3) differs from the corpus trefoil")
    for n, code in KNOT_ATLAS.items():
        if torus_pd(n, "left") != code:
            problems.append(f"T(2,{n}) differs from KnotAtlas")
    for n in (3, 5, 7):
        for chirality in ("left", "right"):
            if not check_planarity(parse_pd(torus_pd(n, chirality))):
                problems.append(f"T(2,{n}) {chirality} is not planar")
    return problems


def _torus_job(n, chirality, kind):
    pd = torus_pd(n, chirality)
    flags = ("--reduced",) if kind == "reduced" else ("--theory", kind)
    return Job(f"T2_{n}{chirality[0].upper()}.{kind}",
               ("homology", "--pd", pd) + flags, kind, n, chirality, pd)


def jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload, in an order shuffled by `seed`."""
    if workload == "torus-unreduced":
        out = [_torus_job(n, c, kind) for n in (3, 5, 7)
               for c in ("left", "right") for kind in ("even", "odd")]
    elif workload == "torus-reduced":
        # right-handed T(2,7) takes about twice as long as the left one
        # and is left out only to keep a run short
        out = [_torus_job(n, c, "reduced") for n in (3, 5)
               for c in ("left", "right")]
        out.append(_torus_job(7, "left", "reduced"))
    elif workload == "verify":
        out = [Job(f"verify.{s}", ("verify", "--suite", s), "verify", suite=s)
               for s in VERIFY_PASSES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(out)
    return out
