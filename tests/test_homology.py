"""Integral homology of the unreduced complexes against known tables."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khoarrow import corpus
from khoarrow.algebra import EVEN, ODD
from khoarrow.chain import BigradedComplex, build_unreduced
from khoarrow.cube import circle_labels
from khoarrow.diagram import mirror
from khoarrow.homology import NotAComplex, homology
from khoarrow.jones import euler_characteristic, jones
from knots import positive_braid_closure, torus


def table(name, p):
    return homology(build_unreduced(corpus.get(name), p)).group_rows()


def test_unknot():
    expected = [(0, -1, 1, ()), (0, 1, 1, ())]
    assert table("unknot", EVEN) == expected
    assert table("unknot", ODD) == expected
    assert table("kink", EVEN) == expected
    assert table("unknot_2", ODD) == expected


def test_hopf_link():
    expected = [(-2, -6, 1, ()), (-2, -4, 1, ()),
                (0, -2, 1, ()), (0, 0, 1, ())]
    assert table("hopf", EVEN) == expected
    assert table("hopf", ODD) == expected


def test_left_trefoil_even_has_2_torsion():
    assert table("trefoil", EVEN) == [
        (-3, -9, 1, ()), (-2, -7, 0, (2,)), (-2, -5, 1, ()),
        (0, -3, 1, ()), (0, -1, 1, ())]


def test_left_trefoil_odd_is_torsion_free():
    assert table("trefoil", ODD) == [
        (-3, -9, 1, ()), (-3, -7, 1, ()), (-2, -7, 1, ()),
        (-2, -5, 1, ()), (0, -3, 1, ()), (0, -1, 1, ())]


def test_figure8_even():
    assert table("figure8", EVEN) == [
        (-2, -5, 1, ()), (-1, -3, 0, (2,)), (-1, -1, 1, ()),
        (0, -1, 1, ()), (0, 1, 1, ()), (1, 1, 1, ()),
        (2, 3, 0, (2,)), (2, 5, 1, ())]


def test_figure8_odd():
    assert table("figure8", ODD) == [
        (-2, -5, 1, ()), (-2, -3, 1, ()), (-1, -3, 1, ()),
        (-1, -1, 1, ()), (0, -1, 1, ()), (0, 1, 1, ()),
        (1, 1, 1, ()), (1, 3, 1, ()), (2, 3, 1, ()), (2, 5, 1, ())]


@pytest.mark.parametrize("name", ["hopf", "trefoil", "figure8"])
@pytest.mark.parametrize("p", [EVEN, ODD])
def test_euler_characteristic_survives_homology(name, p):
    c = build_unreduced(corpus.get(name), p)
    t = homology(c)
    assert euler_characteristic(t) == euler_characteristic(c)
    assert euler_characteristic(t) == jones(corpus.get(name))


def test_table_accessors():
    t = homology(build_unreduced(corpus.get("trefoil"), EVEN))
    assert t.betti(-3, -9) == 1
    assert t.betti(5, 5) == 0
    assert t.torsion(-2, -7) == (2,)
    assert t.torsion(0, 0) == ()
    assert (-3, -9) in t.bidegrees()
    assert sum(c for _, _, c in t.iter_bidegrees()) == 4
    assert t == homology(build_unreduced(corpus.get("trefoil"), EVEN))
    assert t != homology(build_unreduced(corpus.get("figure8"), EVEN))
    assert isinstance(hash(t), int)


def test_rejects_non_complex():
    bad = BigradedComplex(
        groups={0: [0, 0], 1: [0, 0]},
        boundaries={0: [{0: 1}, {1: 1}], 1: [{0: 1}, {1: 1}]})
    with pytest.raises(NotAComplex):
        homology(bad)


def test_rejects_entries_leaving_a_bidegree():
    # an entry between quantum degrees 0 and 5, one into a degree with no
    # generators, boundaries with more columns than their degree has
    # generators (the second on d_1 of a d^2 pair), a row past the
    # generators of degree 1 on d_0 of such a pair, and negative rows,
    # alone and in a pair, are not part of any complex
    for bad in (BigradedComplex(groups={0: [0], 1: [5]},
                                boundaries={0: [{0: 1}]}),
                BigradedComplex(groups={0: [0]}, boundaries={0: [{0: 1}]}),
                BigradedComplex(groups={0: [1], 1: [1]},
                                boundaries={0: [{0: 1}, {0: 1}]}),
                BigradedComplex(groups={0: [1], 1: [1], 2: [1]},
                                boundaries={0: [{0: 1}], 1: [{}, {}]}),
                BigradedComplex(groups={0: [1], 1: [1], 2: [1]},
                                boundaries={0: [{1: 1}], 1: [{0: 1}]}),
                BigradedComplex(groups={0: [0], 1: [0]},
                                boundaries={0: [{-1: 2}]}),
                BigradedComplex(groups={0: [1], 1: [1], 2: [1]},
                                boundaries={0: [{-1: 1}], 1: [{0: 1}]})):
        with pytest.raises(NotAComplex):
            homology(bad)


@pytest.mark.parametrize("name", ["trefoil", "figure8", "trefoil_r2"])
@pytest.mark.parametrize("p", [EVEN, ODD])
def test_each_graph_holds_one_quantum_degree(name, p, monkeypatch):
    # homology() builds one generator graph per q-slice: each holds the
    # generators of one q, and together they hold every generator once
    module = importlib.import_module("khoarrow.homology")
    graph, seen = module._graph, []

    def spy(c, gens):
        seen.append({(h, i) for h, idx in gens.items() for i in idx})
        assert len({c.groups[h][i] for h, i in seen[-1]}) == 1
        return graph(c, gens)

    monkeypatch.setattr(module, "_graph", spy)
    c = build_unreduced(corpus.get(name), p)
    homology(c)
    assert len(seen) == len({q for qs in c.groups.values() for q in qs})
    assert sorted(g for gens in seen for g in gens) == sorted(
        (h, i) for h, qs in c.groups.items() for i in range(len(qs)))


def test_synthetic_torsion():
    # 0 -> Z --2--> Z -> 0 gives Z/2 in degree 1
    c = BigradedComplex(groups={0: [0], 1: [0]},
                        boundaries={0: [{0: 2}]})
    t = homology(c)
    assert t.group_rows() == [(1, 0, 0, (2,))]


def test_rejects_non_complex_beyond_int64():
    # d^2 = 2^64 would wrap to 0 in int64 arithmetic
    bad = BigradedComplex(
        groups={0: [0], 1: [0], 2: [0]},
        boundaries={0: [{0: 2 ** 32}], 1: [{0: 2 ** 32}]})
    with pytest.raises(NotAComplex):
        homology(bad)


# ------------------------------------------ cancellation on known complexes

DEGREES = range(4)
# a piece at (h, q) is a free class (k = 0), or Z --k--> Z from h to h+1
PIECES = st.tuples(st.sampled_from([0, 1, 2, 3, 4, 6]),
                   st.integers(0, 2), st.sampled_from([0, 2]))


def _invariant_factors(orders):
    """Invariant factors of the sum of Z/k over `orders` (k in 2, 3, 4, 6)."""
    exponents: dict[int, list[int]] = {}
    for k in orders:
        for p in (2, 3):
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
    factors = [1] * max(map(len, exponents.values()), default=0)
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            factors[-1 - i] *= p ** e
    return tuple(factors)


def _basis_change(qs, rnd):
    """A random unimodular U mixing generators of one quantum degree only,
    its inverse, and the gradings of the new basis."""
    n = len(qs)
    perm = list(range(n))
    rnd.shuffle(perm)
    new_qs = [qs[i] for i in perm]
    u = np.eye(n, dtype=np.int64)[perm]
    u_inv = u.T.copy()
    for _ in range(3 * n):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i == j or new_qs[i] != new_qs[j]:
            continue
        a = rnd.choice([-2, -1, 1, 2])
        u[i] += a * u[j]                  # row i += a row j
        u_inv[:, j] -= a * u_inv[:, i]    # column j -= a column i
    return u, u_inv, new_qs


def _columns(mat):
    """A dense matrix as one {row: entry} dict of its nonzeros per column."""
    return [{r: int(v) for r, v in enumerate(col) if v} for col in mat.T]


@settings(max_examples=150, deadline=None)
@given(st.lists(PIECES, max_size=10), st.randoms(use_true_random=False))
def test_cancellation_keeps_known_homology(pieces, rnd):
    groups = {h: [] for h in DEGREES}
    entries = []                      # (h, column, row, coefficient)
    expected_betti: dict = {}
    expected_orders: dict = {}
    for k, h, q in pieces:
        if k == 0:
            groups[h].append(q)
            expected_betti[(h, q)] = expected_betti.get((h, q), 0) + 1
            continue
        entries.append((h, len(groups[h]), len(groups[h + 1]), k))
        groups[h].append(q)
        groups[h + 1].append(q)
        if k > 1:
            expected_orders.setdefault((h + 1, q), []).append(k)
    boundaries = {h: np.zeros((len(groups[h + 1]), len(groups[h])),
                              dtype=np.int64) for h in DEGREES[:-1]}
    for h, col, row, k in entries:
        boundaries[h][row, col] = k
    # in the new bases the boundary d_h becomes U_{h+1} d_h U_h^-1
    changes = {h: _basis_change(groups[h], rnd) for h in DEGREES}
    c = BigradedComplex(
        groups={h: changes[h][2] for h in DEGREES},
        boundaries={h: _columns(changes[h + 1][0] @ d @ changes[h][1])
                    for h, d in boundaries.items()})
    c.check()

    expected = {hq: (b, ()) for hq, b in expected_betti.items()}
    for hq, orders in expected_orders.items():
        expected[hq] = (expected_betti.get(hq, 0), _invariant_factors(orders))
    assert homology(c).entries == expected


# ------------------------------------------------- T(2, n) torus knots

def _torus_even_rows(n, chirality):
    """Khovanov's closed form (math/9908171, section 6.2) for T(2, n);
    the left-handed knot's table is the mirror of the right-handed one."""
    free = [(0, n - 2), (0, n)]
    torsion = []
    for k in range(1, (n - 1) // 2 + 1):
        free += [(2 * k, n + 4 * k - 2), (2 * k + 1, n + 4 * k + 2)]
        torsion.append((2 * k + 1, n + 4 * k))
    if chirality == "left":
        free = [(-h, -q) for h, q in free]
        torsion = [(1 - h, -q) for h, q in torsion]
    return sorted([(h, q, 1, ()) for h, q in free]
                  + [(h, q, 0, (2,)) for h, q in torsion])


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("chirality", ["left", "right"])
def test_torus_knots_unreduced(n, chirality):
    d = torus(n) if chirality == "left" else mirror(torus(n))
    assert homology(build_unreduced(d, EVEN)).group_rows() == \
        _torus_even_rows(n, chirality)
    odd = homology(build_unreduced(d, ODD))
    assert all(t == () for _, _, _, t in odd.group_rows())
    assert sum(b for _, _, b in odd.iter_bidegrees()) == 2 * n
    assert euler_characteristic(odd) == jones(d)


# ------------------------------------------- positive 3-braid closures

@pytest.mark.parametrize("p", [EVEN, ODD])
@pytest.mark.parametrize("q", [4, 5])
def test_positive_torus_knots(q, p):
    # T(3, q), 8 and 10 crossings.  Khovanov (math/0201306, section 6):
    # a positive diagram with c crossings and O circles in its all-0
    # resolution has no homology below h = 0, and H^0 = Z at
    # q = c - O + 1 +- 1
    d = positive_braid_closure([0, 1] * q)
    assert (d.n, d.n_minus) == (2 * q, 0)
    _, k0 = circle_labels(d)[0]
    s = d.n - k0 + 1
    c = build_unreduced(d, p)
    table = homology(c)
    assert all(h >= 0 for h, _ in table.bidegrees())
    assert [row for row in table.group_rows() if row[0] == 0] == [
        (0, s - 1, 1, ()), (0, s + 1, 1, ())]
    assert euler_characteristic(c) == jones(d)


def test_odd_b12_finishes_through_the_library():
    # 12 crossings: unit cancellation leaves a 12 x 13 block with entries
    # up to 440 at (7, 21), on which a pivot-and-remainder Smith form
    # does not finish; homology() reads its invariant factors through
    # snf_diagonal (test_snf.B12_BLOCK)
    d = positive_braid_closure((0, 1) * 5 + (0, 0))
    _, k0 = circle_labels(d)[0]
    s = d.n - k0 + 1
    table = homology(build_unreduced(d, ODD))
    assert all(h >= 0 for h, _ in table.bidegrees())
    assert [row for row in table.group_rows() if row[0] == 0] == [
        (0, s - 1, 1, ()), (0, s + 1, 1, ())]
    assert euler_characteristic(table) == jones(d)


def test_odd_t_2_11_stays_under_150_mb():
    # 177,150 generators; a graph of the whole complex took a fresh
    # interpreter to 259 MB; one q-slice at a time peaks near 112 MB.
    # Linux carries ru_maxrss over fork and exec, so a child started from
    # this test process would report the process's own peak: the child
    # reads the high-water mark of its own memory, VmHWM, where it can
    script = (
        "import json, resource, sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "from khoarrow import ODD, build_unreduced, homology\n"
        "from khoarrow.jones import euler_characteristic, jones\n"
        "from knots import torus\n"
        "d = torus(11)\n"
        "table = homology(build_unreduced(d, ODD))\n"
        "kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        kb = next(int(line.split()[1]) for line in fh\n"
        "                  if line.startswith('VmHWM:'))\n"
        "except (OSError, StopIteration):\n"
        "    pass\n"
        "chi = euler_characteristic(table) == jones(d)\n"
        "print(json.dumps({'mb': kb / 1024, 'rows': table.group_rows(),\n"
        "                  'chi': chi}))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout)
    assert doc["mb"] < 150, doc["mb"]
    assert all(torsion == [] for _, _, _, torsion in doc["rows"])
    assert sum(betti for _, _, betti, _ in doc["rows"]) == 22
    assert doc["chi"]
