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
command line is malformed (argparse's usage error, e.g. ``--x 2``, or
``--x`` with a ``--theory`` other than ``custom``); 3
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
from .chain import (FaceNotProportional, NotAComplex, NotASubcomplex,
                    Unsolvable, _Assembly, check_slice, q_slices)
from .cube import resolutions
from .diagram import DiagramError, parse_gauss, parse_pd
from .homology import homology
from .jones import TooLarge, euler_characteristic, jones
from .lattice import check_commuting_square, check_graph_span
from .snf import smith_normal_form

__all__ = ["main"]

EXIT_PARSE = 1
EXIT_TOO_LARGE = 2
EXIT_INCONSISTENT = 3

# unreduced complexes walk 2^n cube vertices with 2^k(I)-dimensional
# groups.  `khoarrow homology` assembles, checks and reduces one q-slice
# at a time, so it never holds the whole complex.  In a fresh process on a
# shared 2-vCPU VM (Python 3.11, VmHWM, time after import), odd T(3,5)
# (10 crossings) takes 0.12-0.20 s and 19 MB, and odd T(2,9) (9)
# 0.16-0.21 s and 20 MB.  Through the library on the same slices, odd
# T(2,11) (11 crossings, 177,150 generators) peaks at 52 MB in 1.7-2.4 s,
# odd B12 (12 crossings) at 35 MB in 0.9-1.4 s, and odd T(3,7) (14
# crossings, 235,890 generators) at 100 MB in about 6 s
# (BENCH_cancel.json).  The crossing number does not bound the
# generators, though, so the guard stays at 10 until a guard on the
# generator count replaces it
MAX_CLI_CROSSINGS = 10


def _theory(args) -> RingParams:
    if args.theory == "even":
        return EVEN
    if args.theory == "odd":
        return ODD
    return RingParams(*(1 if v is None else v
                        for v in (args.x, args.y, args.z)))


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
    # one q-slice at a time: the whole complex is never held.  A virtual
    # diagram raises DiagramError here, before the first slice
    rows = homology(q_slices(d, p, args.reduced)).group_rows()
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
    def sound(slices):
        try:
            for q, counts, cols in slices:
                check_slice(q, counts, cols)
        except NotAComplex:
            return False
        return True

    for name in corpus.names():
        d = corpus.get(name)
        for p in PRESETS:
            report(f"d2 unreduced {name} ({p.x},{p.y},{p.z})",
                   sound(q_slices(d, p)))
        report(f"d2 reduced {name}", sound(q_slices(d, EVEN, reduced=True)))


def _generator_counts(d, p):
    """(h, q, count) for every degree of every q-slice of the unreduced
    complex of `d` at `p`, from one assembly, writing no column.  The
    build does all its checks (maps, faces, signs); the assembly dies
    when the counts are spent, before the caller builds the next."""
    assembly = _Assembly(d, p, False)
    for q in assembly.by_q:
        for h, count in assembly.counts(q).items():
            yield h, q, count


def _suite_euler(report):
    # χ needs only the generator counts, which _Assembly.counts gives as
    # the slices would: no column is written here.  The writer's own
    # check runs on these same 40 complexes in the d2 suite
    for name in corpus.names():
        d = corpus.get(name)
        target = jones(d)
        for p in PRESETS:
            chi = euler_characteristic(_generator_counts(d, p))
            report(f"euler {name} ({p.x},{p.y},{p.z})", chi == target)


def _suite_commuting_square(report):
    for name in corpus.names():
        d = corpus.get(name)
        report(f"commuting-square {name}",
               not check_commuting_square(d))


def _suite_graph_span(report):
    for name in corpus.names():
        d = corpus.get(name)
        # vertices with the same circle count and arrows share a lattice
        distinct = dict.fromkeys(resolutions(d))
        report(f"graph-span {name}",
               all(check_graph_span(k, arr)["equal"] for k, arr in distinct))


def _suite_rm_invariance(report):
    for cls, names in corpus.EQUIVALENCE_CLASSES.items():
        tables = [homology(q_slices(corpus.get(n), EVEN, reduced=True))
                  for n in names]
        report(f"rm-invariance reduced {cls}",
               all(t == tables[0] for t in tables))
        for preset, p in (("even", EVEN), ("odd", ODD)):
            tables = [homology(q_slices(corpus.get(n), p)) for n in names]
            report(f"rm-invariance unreduced-{preset} {cls}",
                   all(t == tables[0] for t in tables))


def _suite_arrows(report):
    # arrow direction is recorded but read by no map: reversing every
    # arrow changes no edge map and no single-arrow operator.  An edge
    # map is pure in its signature and preset, and a single-arrow value
    # reads only its circle count and that arrow, so each distinct pair
    # of signatures, and each distinct arrow, is compared once in the
    # whole corpus; every diagram still gets its own verdict
    from .chain import _edges, _signature, edge_map
    from .lattice import value

    @functools.cache
    def same_maps(sig, flipped):
        return all(edge_map(sig, p) == edge_map(flipped, p) for p in PRESETS)

    @functools.cache
    def same_values(k, s, t):
        return value(k, ((s, t),), (0,)) == value(k, ((t, s),), (0,))

    for name in corpus.names():
        d = corpus.get(name)
        cube = resolutions(d)
        ok = all(same_values(k, s, t) for k, arr in cube for s, t in arr)
        for I, i, J, sig in _edges(d, cube):
            (kI, at_I), (kJ, at_J) = cube[I], cube[J]
            flipped = _signature(i, d.n, I, kI, kJ, at_I[i][::-1],
                                 at_J[i][::-1])
            ok = ok and same_maps(sig, flipped)
        report(f"arrows {name}", ok)


def _suite_snf(report):
    import random

    def matmul(A, B):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
                for row in A]

    rng = random.Random(0)
    ok = True
    for _ in range(200):
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
    # default None tells a flag left out from one given: only custom reads them
    for name in ("--x", "--y", "--z"):
        hom.add_argument(name, type=int, choices=(1, -1), default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "homology" and args.theory != "custom":
        for name in ("x", "y", "z"):
            if getattr(args, name) is not None:
                parser.error(f"argument --{name}: not allowed with --theory "
                             f"{args.theory} (only custom reads the sign flags)")
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
