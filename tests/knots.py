"""Diagram families shared by the tests: T(2, n) torus knots and
positive braid closures."""

from khoarrow.diagram import Diagram, parse_gauss


def torus(n):
    """Left-handed T(2, n): X[j, j+n, j+1, j+n+1] over odd j, mod 2n."""
    def lab(a):
        return (a - 1) % (2 * n) + 1
    return Diagram([(lab(j), lab(j + n), lab(j + 1), lab(j + n + 1))
                    for j in range(1, 2 * n, 2)])


def positive_braid_closure(word):
    """The knot closing a positive braid word, through its Gauss code.

    Letter g crosses the strands at positions g and g + 1 (0-based); the
    strand moving up passes over, and every crossing is positive.
    """
    passes, pos = [], 0
    while True:
        for label, g in enumerate(word, 1):
            if pos in (g, g + 1):
                passes.append(f"{'O' if pos == g else 'U'}{label}+")
                pos = 2 * g + 1 - pos
        if pos == 0:
            break
    if len(passes) != 2 * len(word):
        raise ValueError(f"the closure of {word} is not a knot")
    return parse_gauss("".join(passes))
