"""Diagram families shared by the tests: T(2, n) torus knots and
braid closures."""

import random

from khoarrow.diagram import Diagram, parse_gauss


def torus(n):
    """Left-handed T(2, n): X[j, j+n, j+1, j+n+1] over odd j, mod 2n."""
    def lab(a):
        return (a - 1) % (2 * n) + 1
    return Diagram([(lab(j), lab(j + n), lab(j + 1), lab(j + n + 1))
                    for j in range(1, 2 * n, 2)])


def braid_closure(word):
    """The knot closing a signed braid word, through its Gauss code.

    Letter +g or -g (g >= 1) crosses the strands at positions g - 1 and
    g (0-based).  At +g the strand moving up passes over and the crossing
    is positive; -g swaps over and under and is negative.
    """
    passes, pos = [], 0
    while True:
        for label, letter in enumerate(word, 1):
            g, sign = abs(letter) - 1, "+" if letter > 0 else "-"
            if pos in (g, g + 1):
                over = (pos == g) == (letter > 0)
                passes.append(f"{'O' if over else 'U'}{label}{sign}")
                pos = 2 * g + 1 - pos
        if pos == 0:
            break
    if len(passes) != 2 * len(word):
        raise ValueError(f"the closure of {word} is not a knot")
    return parse_gauss("".join(passes))


def positive_braid_closure(word):
    """The closure of a positive braid word of 0-based letters g."""
    return braid_closure([g + 1 for g in word])


def random_signed_knots(count, seed=14):
    """Closures of random 3- and 4-strand words, 5-9 letters, both signs:
    `count` (word, diagram) pairs, the same ones for one `seed`."""
    rng = random.Random(seed)
    while count:
        strands = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randrange(1, strands)
                for _ in range(rng.randint(5, 9))]
        if min(word) > 0 or max(word) < 0:
            continue
        try:
            d = braid_closure(word)
        except ValueError:              # a link, not a knot
            continue
        count -= 1
        yield word, d
