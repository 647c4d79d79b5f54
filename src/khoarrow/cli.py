"""Command-line front end: homology tables and verification suites.

``khoarrow homology`` computes the unreduced (at a chosen specialization)
or reduced homology of one diagram and prints it as JSON or a text
table, graded in the standard convention or, with
``--grading-convention paper``, with q negated.  ``khoarrow verify``
runs hermetic self-check suites over the built-in corpus, one
``[pass]``/``[FAIL]`` line per check on stdout and the time each suite
took on stderr.

Exit codes: 0 success / all checks pass; 1 input could not be parsed
or is not a planar diagram; 2 the input exceeds a size guard, or the
command line is malformed (argparse's usage error, e.g. ``--x 2``); 3
an internal consistency check failed (d² != 0 and friends) or a verify
suite reported failures.
Diagnostics go to stderr; stdout carries data only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from time import perf_counter

from . import corpus
from .algebra import EVEN, ODD, RingParams
from .chain import (FaceNotProportional, NotAComplex, Unsolvable,
                    build_unreduced)
from .cube import arrows, circle_labels
from .diagram import DiagramError, parse_gauss, parse_pd
from .homology import homology
from .jones import TooLarge, euler_characteristic, jones
from .lattice import check_commuting_square, check_graph_span
from .reduced import NotASubcomplex, build_reduced
from .snf import smith_normal_form

__all__ = ["main"]

EXIT_PARSE = 1
EXIT_TOO_LARGE = 2
EXIT_INCONSISTENT = 3

# unreduced complexes walk 2^n cube vertices with 2^k(I)-dimensional
# groups.  On one core of a shared 2-vCPU VM (fresh process, median of
# three runs), odd T(3,5) (10 crossings) and T(2,9) (9) take 0.33 s and
# 21 MB and 0.39 s and 26 MB with homology.  Homology holds one q-slice at a
# time, so odd T(2,11) (11 crossings, 177,150 generators) builds in
# 0.6 s and peaks at 112 MB after 3 s of homology, and odd B12 (12
# crossings) peaks at 56 MB, both under the 150 MB target.  The crossing
# number does not bound the generators, though, so the guard stays at
# 10 until a guard on the generator count replaces it
MAX_CLI_CROSSINGS = 10


def _theory(args) -> RingParams:
    if args.theory == "even":
        return EVEN
    if args.theory == "odd":
        return ODD
    return RingParams(args.x, args.y, args.z)


def _load_diagram(args):
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DiagramError(exc) from exc
        return parse_pd(text)
    if args.gauss is not None:
        return parse_gauss(args.gauss)
    return parse_pd(args.pd)


def _input_label(args) -> str:
    if args.file is not None:
        return f"file:{args.file}"
    if args.gauss is not None:
        return f"gauss:{args.gauss}"
    return f"pd:{args.pd}"


def _format_table(rows) -> str:
    lines = ["    h     q  betti  torsion"]
    for h, q, betti, torsion in rows:
        tor = ",".join(f"Z/{t}" for t in torsion) if torsion else "-"
        lines.append(f"{h:5d} {q:5d} {betti:6d}  {tor}")
    return "\n".join(lines)


def cmd_homology(args) -> int:
    d = _load_diagram(args)
    if d.n > MAX_CLI_CROSSINGS:
        raise TooLarge(f"{d.n} crossings exceeds the CLI guard "
                       f"({MAX_CLI_CROSSINGS})")
    p = _theory(args)
    build = build_reduced if args.reduced else build_unreduced
    # a virtual diagram raises DiagramError here, on building
    rows = homology(build(d, p)).group_rows()
    if args.grading_convention == "paper":      # the paper's q is -q
        rows = sorted((h, -q, b, t) for h, q, b, t in rows)
    if args.format == "json":
        doc = {
            "input": _input_label(args),
            "theory": {"x": p.x, "y": p.y, "z": p.z},
            "reduced": bool(args.reduced),
            "convention": args.grading_convention,
            "groups": [
                {"h": h, "q": q, "betti": betti, "torsion": list(torsion)}
                for h, q, betti, torsion in rows
            ],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(_format_table(rows))
    return 0


# --- verify suites ----------------------------------------------------

PRESETS = (RingParams(1, 1, 1), RingParams(1, -1, 1),
           RingParams(-1, 1, 1), RingParams(-1, -1, -1))


def _suite_d2(report):
    def sound(c):
        try:
            c.check()
        except NotAComplex:
            return False
        return True

    for name in corpus.names():
        d = corpus.get(name)
        for p in PRESETS:
            report(f"d2 unreduced {name} ({p.x},{p.y},{p.z})",
                   sound(build_unreduced(d, p)))
        report(f"d2 reduced {name}", sound(build_reduced(d)))


def _suite_euler(report):
    for name in corpus.names():
        d = corpus.get(name)
        target = jones(d)
        for p in PRESETS:
            chi = euler_characteristic(build_unreduced(d, p))
            report(f"euler {name} ({p.x},{p.y},{p.z})", chi == target)


def _suite_commuting_square(report):
    for name in corpus.names():
        d = corpus.get(name)
        report(f"commuting-square {name}",
               not check_commuting_square(d))


def _suite_graph_span(report):
    for name in corpus.names():
        d = corpus.get(name)
        if d.n > 6:
            continue
        report(f"graph-span {name}",
               all(check_graph_span(k, arrows(d, labels))["equal"]
                   for labels, k in circle_labels(d)))


def _suite_rm_invariance(report):
    for cls, names in corpus.EQUIVALENCE_CLASSES.items():
        tables = [homology(build_reduced(corpus.get(n))) for n in names]
        report(f"rm-invariance reduced {cls}",
               all(t == tables[0] for t in tables))
        for preset, p in (("even", EVEN), ("odd", ODD)):
            tables = [homology(build_unreduced(corpus.get(n), p))
                      for n in names]
            report(f"rm-invariance unreduced-{preset} {cls}",
                   all(t == tables[0] for t in tables))


def _suite_arrows(report):
    # arrow direction is recorded but read by no map: reversing every
    # arrow changes no edge map and no single-arrow operator
    from .chain import _edges, _signature, edge_map
    from .lattice import value
    for name in corpus.names():
        d = corpus.get(name)
        n = d.n
        cube = circle_labels(d)
        fwd = [arrows(d, labels) for labels, _ in cube]
        rev = [[(t, s) for s, t in arr] for arr in fwd]
        ok = all(value(k, fwd[I], (a,)) == value(k, rev[I], (a,))
                 for I, (_, k) in enumerate(cube) for a in range(n))
        for I, i, sig in _edges(d, cube):
            J = I | 1 << (n - 1 - i)
            flipped = _signature(i, n, I, cube[I][1], cube[J][1],
                                 *rev[I][i], *rev[J][i])
            ok = ok and all(edge_map(sig, p) == edge_map(flipped, p)
                            for p in PRESETS)
        report(f"arrows {name}", ok)


def _suite_snf(report, count=200, seed=0):
    import random

    def matmul(A, B):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
                for row in A]

    rng = random.Random(seed)
    ok = True
    for _ in range(count):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(M)
        if matmul(matmul(U, M), V) != D:
            ok = False
    report("snf round-trip", ok)


_SUITE_RUNNERS = {
    "d2": _suite_d2,
    "euler": _suite_euler,
    "commuting-square": _suite_commuting_square,
    "graph-span": _suite_graph_span,
    "rm-invariance": _suite_rm_invariance,
    "arrows": _suite_arrows,
    "snf": _suite_snf,
}
SUITES = tuple(_SUITE_RUNNERS)


def cmd_verify(args) -> int:
    failures = []

    def report(label, passed):
        status = "pass" if passed else "FAIL"
        print(f"[{status}] {label}")
        if not passed:
            failures.append(label)

    wanted = SUITES if args.suite == "all" else (args.suite,)
    for name in wanted:
        t0 = perf_counter()
        _SUITE_RUNNERS[name](report)
        print(f"{name} {perf_counter() - t0:.2f} s", file=sys.stderr)
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return EXIT_INCONSISTENT
    return 0


# one parser per process: parse_args leaves it unchanged, so every main()
# call shares it instead of leaving a new one to the cyclic collector
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khoarrow",
        description="Khovanov homology via the arrow algebra")
    sub = parser.add_subparsers(dest="command", required=True)

    hom = sub.add_parser("homology", help="compute a homology table")
    src = hom.add_mutually_exclusive_group(required=True)
    src.add_argument("--pd", help="PD code ('' = crossingless unknot)")
    src.add_argument("--gauss", help="signed Gauss code")
    src.add_argument("--file", help="path to a file holding a PD code")
    hom.add_argument("--theory", choices=("even", "odd", "custom"),
                     default="even")
    for name in ("--x", "--y", "--z"):
        hom.add_argument(name, type=int, choices=(1, -1), default=1)
    hom.add_argument("--reduced", action="store_true")
    hom.add_argument("--grading-convention",
                     choices=("standard", "paper"), default="standard")
    hom.add_argument("--format", choices=("json", "table"), default="json")
    hom.set_defaults(func=cmd_homology)

    ver = sub.add_parser("verify", help="run self-check suites")
    ver.add_argument("--suite", choices=SUITES + ("all",), default="all")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command; the one place that maps a failure to its exit
    code, with a one-line diagnostic on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (NotAComplex, FaceNotProportional, Unsolvable,
            NotASubcomplex) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
