"""Integral homology of the unreduced complexes against known tables."""

import importlib
import json
import os
import subprocess
import sys
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khoarrow import corpus
from khoarrow.algebra import EVEN, ODD
from khoarrow.chain import q_slices
from khoarrow.cli import PRESETS
from khoarrow.cube import resolutions
from khoarrow.diagram import mirror
from khoarrow.homology import (NotAComplex, _cancel, _cancel_units, _graph,
                               homology)
from khoarrow.jones import euler_characteristic, jones
from knots import positive_braid_closure, torus
from reference import (check_all, generator_counts, resolution_build,
                       slices_of)


def table(name, p):
    return homology(q_slices(corpus.get(name), p)).group_rows()


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
    d = corpus.get(name)
    chi = euler_characteristic(generator_counts(q_slices(d, p)))
    t = homology(q_slices(d, p))
    assert euler_characteristic(t.iter_bidegrees()) == chi
    assert euler_characteristic(t.iter_bidegrees()) == jones(d)


def test_table_accessors():
    t = homology(q_slices(corpus.get("trefoil"), EVEN))
    assert t.betti(-3, -9) == 1
    assert t.betti(5, 5) == 0
    assert t.torsion(-2, -7) == (2,)
    assert t.torsion(0, 0) == ()
    assert (-3, -9) in t.entries
    assert sum(c for _, _, c in t.iter_bidegrees()) == 4
    assert t == homology(q_slices(corpus.get("trefoil"), EVEN))
    assert t != homology(q_slices(corpus.get("figure8"), EVEN))
    assert isinstance(hash(t), int)


def test_rejects_non_complex():
    # identity followed by identity; rows are slice ids
    bad = [(0, {0: 2, 1: 2, 2: 2},
            {0: [{2: 1}, {3: 1}], 1: [{4: 1}, {5: 1}]})]
    with pytest.raises(NotAComplex, match=r"d_1 d_0 is not zero"):
        homology(bad)


def test_rejects_entries_leaving_a_bidegree():
    # rows are slice ids, those of degree h + 1 following every id of the
    # lower degrees.  An entry between quantum degrees 0 and 5 of a whole
    # complex has no slice id: cutting it into slices raises, as the
    # package's writer does.  Within one slice, an entry into a degree
    # with no generators, boundaries with more columns than their degree
    # has generators (the second on d_1 of a d^2 pair), a row past the
    # generators of degree 1 on d_0 of such a pair, and negative rows,
    # alone and in a pair, are not part of any complex.  So are slices
    # whose d_h has other than one column per generator of degree h:
    # none, two for one, and one for two, which must be rejected before
    # any column is read (the caller's column is left in place)
    short = {0: [{2: 1}]}
    for bad in (slices_of(groups={0: [0], 1: [5]}, boundaries={0: [{0: 1}]}),
                [(0, {0: 1}, {0: [{1: 1}]})],
                [(1, {0: 1, 1: 1}, {0: [{1: 1}, {1: 1}]})],
                [(1, {0: 1, 1: 1, 2: 1}, {0: [{1: 1}], 1: [{}, {}]})],
                [(1, {0: 1, 1: 1, 2: 1}, {0: [{2: 1}], 1: [{2: 1}]})],
                [(0, {0: 1, 1: 1}, {0: [{-1: 2}]})],
                [(1, {0: 1, 1: 1, 2: 1},
                  {0: [{-1: 1}], 1: [{2: 1}]})],
                [(0, {0: 1, 1: 1}, {0: []})],
                [(0, {0: 1, 1: 1}, {0: [{1: 1}, {1: 1}]})],
                [(0, {0: 2, 1: 1}, short)]):
        with pytest.raises(NotAComplex):
            homology(bad)
    assert short == {0: [{2: 1}]}


@pytest.mark.parametrize("name", ["trefoil", "figure8", "trefoil_r2"])
@pytest.mark.parametrize("p", [EVEN, ODD])
def test_each_graph_holds_one_quantum_degree(name, p, monkeypatch):
    # homology() builds one generator graph per q-slice, one for each q
    # of the reference's whole complex: each holds, in each degree h,
    # as many generators as the reference has at (h, q), and so
    # together they hold every generator once
    module = importlib.import_module("khoarrow.homology")
    graph, seen = module._graph, {}
    c = resolution_build(corpus.get(name), p)

    def spy(q, counts, cols):
        assert q not in seen
        seen[q] = dict(counts)
        return graph(q, counts, cols)

    monkeypatch.setattr(module, "_graph", spy)
    homology(q_slices(corpus.get(name), p))
    expected = {}
    for h in sorted(c.groups):
        for q in c.groups[h]:
            at_q = expected.setdefault(q, {})
            at_q[h] = at_q.get(h, 0) + 1
    assert seen == expected


def test_synthetic_torsion():
    # 0 -> Z --2--> Z -> 0 gives Z/2 in degree 1
    c = slices_of(groups={0: [0], 1: [0]}, boundaries={0: [{0: 2}]})
    t = homology(c)
    assert t.group_rows() == [(1, 0, 0, (2,))]


def test_rejects_non_complex_beyond_int64():
    # d^2 = 2^64 would wrap to 0 in int64 arithmetic
    bad = slices_of(
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
    c = list(slices_of(
        groups={h: changes[h][2] for h in DEGREES},
        boundaries={h: _columns(changes[h + 1][0] @ d @ changes[h][1])
                    for h, d in boundaries.items()}))
    check_all(c)

    expected = {hq: (b, ()) for hq, b in expected_betti.items()}
    for hq, orders in expected_orders.items():
        expected[hq] = (expected_betti.get(hq, 0), _invariant_factors(orders))
    assert homology(c).entries == expected


# ------------------------------------------- the pivots cancellation takes

def _named_slice(degrees, boundary):
    """The q-slice, q = 0, of generators named degree by degree in
    `degrees`, in their order, with `boundary` mapping a name to its
    {name: coefficient} column: rows are slice ids."""
    ids = {g: i for i, g in enumerate(
        g for names in degrees.values() for g in names)}
    counts = {h: len(names) for h, names in degrees.items()}
    cols = {h: [{ids[t]: a for t, a in boundary.get(g, {}).items()}
                for g in names]
            for h, names in degrees.items() if h + 1 in degrees}
    return 0, counts, cols


LEAST_FILL = ({0: ["a", "s1", "s2"], 1: ["hi", "lo"]},
              {"a": {"hi": 1, "lo": 1}, "s1": {"hi": 2}, "s2": {"hi": 2}},
              {(0, 0): (1, ()), (1, 0): (0, (2,))})


def test_cancellation_takes_the_unit_of_least_fill():
    # a's first unit, into hi, shares hi with s1 and s2: cancelling it
    # writes -2 from each of them into lo.  Its unit into lo has no
    # other source, so it is taken and nothing is written
    degrees, boundary, table = LEAST_FILL
    assert list(_named_slice(degrees, boundary)[2][0][0]) == [3, 4]
    _, out, inc = _graph(*_named_slice(degrees, boundary))
    _cancel_units(out, inc)
    assert out == [None, {3: 2}, {3: 2}, {}, None]
    assert inc == [None, {}, {}, {1: 2, 2: 2}, None]
    # the first unit leaves two entries of 2 as well: the same table
    _, out, inc = _graph(*_named_slice(degrees, boundary))
    _cancel(0, 3, out, inc)
    _cancel_units(out, inc)
    assert out == [None, {4: -2}, {4: -2}, None, {}]
    assert homology([_named_slice(degrees, boundary)]).entries == table


ORDERED = {
    "a unit beside a 2": (
        {0: ["a", "b"], 1: ["x", "y"]},
        {"a": {"x": 2, "y": 1}, "b": {"y": 1}},
        {(1, 0): (0, (2,))}),
    "units whose fill is a 2": (
        {0: ["a", "b"], 1: ["x", "y"]},
        {"a": {"x": 1, "y": 1}, "b": {"x": 1, "y": -1}},
        {(1, 0): (0, (2,))}),
    "the unit of least fill": LEAST_FILL,
    "torsion 2 and 4": (
        {0: ["a", "b", "c"], 1: ["x", "y", "z"]},
        {"a": {"x": 1, "y": 1}, "b": {"x": 1, "y": 3, "z": 2},
         "c": {"y": 2, "z": 6}},
        {(1, 0): (0, (2, 4))}),
    "torsion 2 and 6": (
        {0: ["a", "b", "c"], 1: ["x", "y", "z"]},
        {"a": {"x": 1, "y": 1}, "b": {"x": 1, "y": -1, "z": 2},
         "c": {"y": 2, "z": 4}},
        {(1, 0): (0, (2, 6))}),
    "one unit among 2s, 3s and 4s over three degrees": (
        {0: ["a"], 1: ["x", "y", "c"], 2: ["u"]},
        {"a": {"x": 2, "y": 4}, "x": {"u": 2}, "y": {"u": -1},
         "c": {"u": 3}},
        {(1, 0): (1, (2,))}),
}


@pytest.mark.parametrize("name", ORDERED)
def test_cancellation_order_keeps_torsion(name):
    # every order of the generators within each degree: the units a
    # source may take, and the fill they write, change with the order;
    # only units are pivots, so the torsion beside them survives
    degrees, boundary, table = ORDERED[name]
    for order in product(*map(permutations, degrees.values())):
        shuffled = dict(zip(degrees, map(list, order)))
        assert homology([_named_slice(shuffled, boundary)]).entries == \
            table, order


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
    assert homology(q_slices(d, EVEN)).group_rows() == \
        _torus_even_rows(n, chirality)
    odd = homology(q_slices(d, ODD))
    assert all(t == () for _, _, _, t in odd.group_rows())
    assert sum(b for _, _, b in odd.iter_bidegrees()) == 2 * n
    assert euler_characteristic(odd.iter_bidegrees()) == jones(d)


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
    k0, _ = resolutions(d)[0]
    s = d.n - k0 + 1
    table = homology(q_slices(d, p))
    assert all(h >= 0 for h, _ in table.entries)
    assert [row for row in table.group_rows() if row[0] == 0] == [
        (0, s - 1, 1, ()), (0, s + 1, 1, ())]
    assert euler_characteristic(generator_counts(q_slices(d, p))) == jones(d)


def test_odd_b12_finishes_through_the_library():
    # 12 crossings: cancelling each source's unit of least fill leaves 22
    # generators, in blocks of at most 2 x 1 with entries up to 3.
    # Cancelling its first unit instead left 56, with a 12 x 13 block of
    # entries up to 440 at (7, 21), on which a pivot-and-remainder Smith
    # form does not finish (test_snf.B12_BLOCK)
    d = positive_braid_closure((0, 1) * 5 + (0, 0))
    k0, _ = resolutions(d)[0]
    s = d.n - k0 + 1
    table = homology(q_slices(d, ODD))
    assert all(h >= 0 for h, _ in table.entries)
    assert [row for row in table.group_rows() if row[0] == 0] == [
        (0, s - 1, 1, ()), (0, s + 1, 1, ())]
    assert euler_characteristic(table.iter_bidegrees()) == jones(d)


# ---------------------------------- one q-slice at a time from a diagram

SLICED = ([(f"{name} ({p.x},{p.y},{p.z})", corpus.get(name), p)
           for name in corpus.names() for p in PRESETS]
          + [(f"T(2,9) {side} {theory}", d, p)
             for side, d in (("left", torus(9)), ("right", mirror(torus(9))))
             for theory, p in (("even", EVEN), ("odd", ODD))]
          + [(f"T(3,{m}) {theory}", positive_braid_closure((0, 1) * m), p)
             for m in (4, 5) for theory, p in (("even", EVEN), ("odd", ODD))])


@pytest.mark.parametrize("name,d,p", SLICED, ids=[s[0] for s in SLICED])
def test_slices_give_the_tables_of_the_whole_complex(name, d, p):
    # the slices the CLI reads give the table of the whole complex the
    # reference assembles from one resolution per vertex, unreduced and
    # reduced
    for reduced in (False, True):
        whole = resolution_build(d, p, reduced)
        assert homology(q_slices(d, p, reduced)) == homology(slices_of(*whole))


def _odd_homology_in_a_fresh_process(knot):
    """The odd unreduced table of the knot that the expression `knot`
    (over tests/knots.py) builds, through the slices in a fresh
    interpreter, with that process's peak memory and whether chi equals
    the Jones polynomial.  Linux carries ru_maxrss over fork and exec, so
    a child started from this test process would report the process's
    own peak: the child reads the high-water mark of its own memory,
    VmHWM, where it can."""
    script = (
        "import json, resource, sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "from khoarrow import ODD\n"
        "from khoarrow.chain import q_slices\n"
        "from khoarrow.homology import homology\n"
        "from khoarrow.jones import euler_characteristic, jones\n"
        "from knots import positive_braid_closure, torus\n"
        f"d = {knot}\n"
        "table = homology(q_slices(d, ODD))\n"
        "kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        kb = next(int(line.split()[1]) for line in fh\n"
        "                  if line.startswith('VmHWM:'))\n"
        "except (OSError, StopIteration):\n"
        "    pass\n"
        "chi = euler_characteristic(table.iter_bidegrees()) == jones(d)\n"
        "print(json.dumps({'mb': kb / 1024, 'rows': table.group_rows(),\n"
        "                  'chi': chi}))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_odd_t_2_11_one_slice_at_a_time_stays_under_70_mb():
    # the whole complex is never held: each q-slice is assembled, checked
    # and reduced before the next.  VmHWM measured 52.0 MB on Python
    # 3.11 (59.3 MB when each source cancelled its first unit, 107 MB for
    # homology() of the whole complex)
    doc = _odd_homology_in_a_fresh_process("torus(11)")
    assert doc["mb"] < 70, doc["mb"]
    assert all(torsion == [] for _, _, _, torsion in doc["rows"])
    assert sum(betti for _, _, betti, _ in doc["rows"]) == 22
    assert doc["chi"]


def test_odd_t_3_7_stays_under_150_mb():
    # 14 crossings, 235,890 generators: VmHWM measured 98-100 MB on
    # Python 3.11 (BENCH_cancel.json), and 176 MB when each source
    # cancelled its first unit.  6-9 s on a shared 2-vCPU VM
    doc = _odd_homology_in_a_fresh_process("positive_braid_closure((0, 1) * 7)")
    assert doc["mb"] < 150, doc["mb"]
    assert doc["chi"]
