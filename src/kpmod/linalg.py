"""Sparse exact-rational linear algebra.

Vectors are dicts mapping basis indices to nonzero exact rationals: int, or
Fraction where not integral.  Module actions have integer coefficients, so
a Fraction enters only where an echelon pivot does not divide its row.  The
Echelon class maintains an incrementally grown reduced row-echelon basis
(pivot = smallest nonzero index, pivot entries normalized to 1 and
eliminated from all other rows), which makes spans, membership tests, and
coordinates deterministic.  One reduction pass (``reduce``) serves both
``Echelon.insert`` and the closed modules of ``modules``, which keep the
same two things an Echelon does: the rows, and a map from each pivot to its
row's place.
"""

from __future__ import annotations

from fractions import Fraction

ONE = 1


def axpy(acc: dict, c, v: dict) -> None:
    """acc += c * v, in place, dropping zeros."""
    if not c:
        return
    for i, x in v.items():
        y = acc.get(i, 0) + c * x
        if y:
            acc[i] = y
        else:
            del acc[i]


def scaled(v: dict, c) -> dict:
    if not c:
        return {}
    return {i: c * x for i, x in v.items()}


def reduce(vec: dict, pivots: dict, rows, coords: dict | None = None) -> dict:
    """Residual of vec modulo fully reduced rows (a fresh dict); ``pivots``
    maps the pivot of each row to its place in ``rows``.

    No row has an entry at another's pivot, so the coordinate of vec at a
    row is vec's own entry at that row's pivot: the pass subtracts those
    rows, walking vec's pivots in ascending order, and records each
    coordinate under the row's place in ``coords`` when that is given."""
    v = dict(vec)
    for p in sorted(vec.keys() & pivots.keys()):  # the set walks the smaller
        t, c = pivots[p], vec[p]
        if coords is not None:
            coords[t] = c
        axpy(v, -c, rows[t])
    return v


class Echelon:
    """Reduced echelon basis of a growing subspace: ``rows`` in the order
    they were added, and ``pivots``, each row's pivot -> its place there."""

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: list = []  # row[pivot] == 1
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict):
        """Add vec to the span; returns the new pivot, or None if dependent."""
        v = reduce(vec, self.pivots, self.rows)
        if not v:
            return None
        p = min(v)
        pivot = v[p]
        if pivot == 1:
            row = v
        elif type(pivot) is int and all(type(c) is int and not c % pivot for c in v.values()):
            row = {i: c // pivot for i, c in v.items()}  # the ints the Fraction path gives
        else:
            inv = Fraction(1) / pivot
            row = {}
            for i, c in v.items():
                c *= inv
                row[i] = c.numerator if c.denominator == 1 else c
        for other in self.rows:
            c = other.get(p)
            if c:
                axpy(other, -c, row)
        self.pivots[p] = len(self.rows)
        self.rows.append(row)
        return p
