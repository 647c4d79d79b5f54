"""Output checks that draw on nothing from the chain-complex code.

Each check takes a job and the captured stdout of its CLI call and
returns None when the output is right, or a one-line reason.
"""

from __future__ import annotations

import json

from workloads import VERIFY_PASSES


def even_table(n: int, chirality: str) -> set:
    """Integral Khovanov homology of T(2,n), n odd, as (h, q, betti, torsion).

    Closed form of Khovanov, math/9908171 section 6.2, for the
    right-handed knot; the left-handed table is its mirror, which sends
    free classes at (h, q) to (-h, -q) and torsion at (h, q) to
    (1 - h, -q).
    """
    free = [(0, n - 2), (0, n)]
    torsion = []
    for k in range(1, (n - 1) // 2 + 1):
        free += [(2 * k, n + 4 * k - 2), (2 * k + 1, n + 4 * k + 2)]
        torsion.append((2 * k + 1, n + 4 * k))
    if chirality == "left":
        free = [(-h, -q) for h, q in free]
        torsion = [(1 - h, -q) for h, q in torsion]
    return ({(h, q, 1, ()) for h, q in free}
            | {(h, q, 0, (2,)) for h, q in torsion})


def _rows(out: str) -> set:
    doc = json.loads(out)
    return {(g["h"], g["q"], g["betti"], tuple(g["torsion"]))
            for g in doc["groups"]}


def check_even(job, out, jones_of):
    got = _rows(out)
    want = even_table(job.n, job.chirality)
    if got != want:
        return (f"table differs from the closed form: extra {sorted(got - want)}, "
                f"missing {sorted(want - got)}")
    return None


def check_odd(job, out, jones_of):
    rows = _rows(out)
    if any(t for _, _, _, t in rows):
        return "odd homology of T(2,n) has torsion"
    rank = sum(b for _, _, b, _ in rows)
    if rank != 2 * job.n:
        return f"total rank {rank}, expected {2 * job.n}"
    chi: dict = {}
    for h, q, b, _ in rows:
        chi[q] = chi.get(q, 0) + (-b if h % 2 else b)
    chi = {q: c for q, c in chi.items() if c}
    if chi != jones_of(job.pd):
        return "Euler characteristic differs from the Jones polynomial"
    return None


def check_reduced(job, out, jones_of):
    # q-free on purpose, so that a regrading of the reduced theory does
    # not break the benchmark: one class in each of h = 0, 2, 3, ..., n
    rows = _rows(out)
    if any(t for _, _, _, t in rows):
        return "reduced homology of T(2,n) has torsion"
    sign = 1 if job.chirality == "right" else -1
    want = {0: 1, **{sign * h: 1 for h in range(2, job.n + 1)}}
    got: dict = {}
    for h, _, b, _ in rows:
        got[h] = got.get(h, 0) + b
    got = {h: b for h, b in got.items() if b}
    if got != want:
        return f"ranks by h {sorted(got.items())}, expected {sorted(want.items())}"
    return None


def check_verify(job, out, jones_of):
    lines = out.splitlines()
    failed = [line for line in lines if "FAIL" in line]
    if failed:
        return f"a check failed: {failed[0]}"
    passes = sum(1 for line in lines if line.startswith("[pass]"))
    expected_passes = VERIFY_PASSES[job.suite]
    if passes != expected_passes:
        return f"{passes} [pass] lines, expected {expected_passes}"
    return None


CHECKS = {"even": check_even, "odd": check_odd, "reduced": check_reduced,
          "verify": check_verify}


def check(job, rc, out, jones_of):
    """Reason the job's result is wrong, or None.

    `jones_of` maps a PD string to the Jones polynomial as {q: coeff}.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        return CHECKS[job.kind](job, out, jones_of)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
