"""Exact integer homology of bigraded complexes.

The boundaries of a complex are sparse columns, one ``{row: entry}``
dict of Python integers per generator.  Every differential preserves q,
so a complex is the direct sum of its q-slices, and ``homology`` reads
it one slice at a time, as ``chain.q_slices`` writes them, so that the
whole complex is never held.  A slice (q, counts, cols) numbers its
counts[h] generators of each degree h by slice id alone, their position
in the slice degree by degree, and its rows are those ids.  Each slice
passes the one check (``chain.check_slice``: one column per generator,
rows in the id range of the next degree, and d^2 = 0 exactly), and its
checked columns become the outgoing half of a generator graph on the
ids, which is reduced, read and dropped before the next slice.  Every
+-1 entry of a slice is cancelled by Gaussian elimination (Bar-Natan,
*Fast Khovanov homology computations*, math/0606318): an invertible
entry a = d(c -> r) splits off the contractible summand c -> r, and
every other pair gets d(c' -> r') -= d(c -> r') a^-1 d(c' -> r).  This
is a homotopy equivalence, so torsion survives intact.  Each source
cancels its unit of least fill, the one whose target has the fewest
sources (Markowitz's rule, ``_cancel_units``).  The few generators left
split into small blocks per degree h, and each block's homology is read
off from the Smith normal forms of its boundaries in and out.
"""

from __future__ import annotations

from .chain import NotAComplex, check_slice
from .snf import snf_diagonal

__all__ = ["HomologyTable", "NotAComplex", "homology"]


class HomologyTable:
    """Betti numbers and torsion invariant factors per bidegree (h, q).

    entries maps (h, q) -> (betti, torsion) with torsion a tuple of
    successive invariant factors >= 2.  Bidegrees with trivial homology
    are omitted.  Immutable: `entries` cannot be rebound.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict | None = None):
        object.__setattr__(self, "entries", {} if entries is None else entries)

    def __setattr__(self, name, value):
        raise AttributeError("HomologyTable is immutable")

    def __delattr__(self, name):
        raise AttributeError("HomologyTable is immutable")

    def __reduce__(self):               # copy and pickle through __init__
        return HomologyTable, (self.entries,)

    def __repr__(self):
        return f"HomologyTable(entries={self.entries!r})"

    def betti(self, h: int, q: int) -> int:
        return self.entries.get((h, q), (0, ()))[0]

    def torsion(self, h: int, q: int) -> tuple:
        return self.entries.get((h, q), (0, ()))[1]

    def iter_bidegrees(self):
        for (h, q), (betti, _) in sorted(self.entries.items()):
            if betti:
                yield h, q, betti

    def group_rows(self):
        """Sorted (h, q, betti, torsion) rows for display/serialization."""
        return [(h, q, b, t) for (h, q), (b, t) in sorted(self.entries.items())]

    def __eq__(self, other):
        if not isinstance(other, HomologyTable):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(tuple(sorted(
            (hq, b, tuple(t)) for hq, (b, t) in self.entries.items())))


def _graph(q, counts, cols):
    """The q-slice (counts, cols), once ``chain.check_slice`` has passed
    it, as a generator graph on its slice ids: the degree of each id,
    and the boundary both ways, out[g] mapping each target of g to its
    coefficient and inc[g] each source.  The checked column dicts become
    `out` as they are, and `inc` is built in one walk of them; each
    column leaves `cols` (None in its place), since cancellation
    rewrites it."""
    out = check_slice(q, counts, cols)
    degree: list[int] = []
    for h, count in counts.items():
        degree += [h] * count
    for hcols in cols.values():
        hcols[:] = [None] * len(hcols)
    inc: list[dict[int, int]] = [{} for _ in out]
    for src, col in enumerate(out):
        for dst, a in col.items():
            inc[dst][src] = a
    return degree, out, inc


def _cancel(src, dst, out, inc):
    """Split off the summand src -> dst, whose coefficient is a unit;
    both leave the graph, their places in `out` and `inc` set to None."""
    targets, out[src] = out[src], None
    sources, inc[dst] = inc[dst], None
    a = targets.pop(dst)
    del sources[src]
    for g in targets:
        del inc[g][src]
    for g in sources:
        del out[g][dst]
    for g in inc[src]:
        del out[g][src]
    for g in out[dst]:
        del inc[g][dst]
    inc[src] = out[dst] = None
    for s, b in sources.items():
        row = out[s]
        for t, e in targets.items():
            v = row.get(t, 0) - e * a * b
            if v:
                row[t] = inc[t][s] = v
            else:
                row.pop(t, None)
                inc[t].pop(s, None)


def _cancel_units(out, inc):
    """Cancel +-1 entries until none is left.

    Sources are walked in generator order, and each cancels, of its +-1
    entries, the one whose target has the fewest sources (the first
    such in its column; a target with one source ends the search).
    Cancelling src -> dst creates up to (|out(src)| - 1)(|inc(dst)| - 1)
    entries, so with the source fixed this is the pivot of least fill:
    Markowitz's rule (*The elimination form of the inverse and its
    application to linear programming*, Management Science 1957) along
    one column.  Only units are pivots, so torsion survives."""
    progress = True
    while progress:
        progress = False
        for src, targets in enumerate(out):
            if not targets:
                continue
            dst, fewest = None, 0
            for t, a in targets.items():
                if (a == 1 or a == -1) and (dst is None
                                            or len(inc[t]) < fewest):
                    dst, fewest = t, len(inc[t])
                    if fewest == 1:
                        break
            if dst is not None:
                _cancel(src, dst, out, inc)
                progress = True


def _snf_of_block(out, cols, rows):
    """Rank and torsion of the boundary from `cols` to `rows`."""
    block = [[out[c].get(r, 0) for c in cols] for r in rows]
    if not any(any(row) for row in block):
        return 0, ()
    diag = snf_diagonal(block)
    return len(diag), tuple(d for d in diag if d > 1)


def _add_slice(q, counts, cols, entries):
    """Add the homology of the q-slice (counts, cols) to `entries`."""
    degree, out, inc = _graph(q, counts, cols)
    _cancel_units(out, inc)
    residue: dict[int, list[int]] = {}
    for g, targets in enumerate(out):
        if targets is not None:
            residue.setdefault(degree[g], []).append(g)
    # rank and torsion of the boundary leaving each degree
    leaving = {h: _snf_of_block(out, ids, residue[h + 1])
               for h, ids in residue.items() if h + 1 in residue}
    for h, ids in residue.items():
        rank_out, _ = leaving.get(h, (0, ()))
        rank_in, torsion = leaving.get(h - 1, (0, ()))
        betti = len(ids) - rank_out - rank_in
        if betti < 0:
            raise NotAComplex(
                f"negative rank at (h={h}, q={q}): not a complex")
        if betti or torsion:
            entries[(h, q)] = (betti, torsion)


def homology(slices) -> HomologyTable:
    """Integer homology, exact over Z, of the direct sum of `slices`:
    (q, counts, cols) triples as ``chain.q_slices`` yields them, one per
    q: counts[h] generators in degree h, numbered by slice id, and rows
    as those ids.  Each slice is checked, reduced and read before the
    next is asked for, and dropped after it.  The columns it reads are
    consumed: the slice's generator graph takes them over, and each is
    replaced by None in its list in `cols`, so a caller that keeps a
    slice keeps only its counts."""
    entries: dict = {}
    for q, counts, cols in slices:
        _add_slice(q, counts, cols, entries)
        del counts, cols            # before the next slice is written
    return HomologyTable(entries)
