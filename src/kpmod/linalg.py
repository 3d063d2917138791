"""Sparse exact-rational linear algebra.

Vectors are dicts mapping basis indices to nonzero exact rationals: int, or
Fraction where not integral.  Module actions have integer coefficients, so
a Fraction enters only where an echelon pivot does not divide its row.  The
Echelon class maintains an incrementally grown reduced row-echelon basis
(pivot = smallest nonzero index, pivot entries normalized to 1 and
eliminated from all other rows), which makes spans, membership tests, and
coordinates deterministic.  One ascending reduction pass
(``Echelon.reduce``) serves both ``insert`` and ``express``.
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


class Echelon:
    """Reduced echelon basis of a growing subspace."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}  # pivot index -> row (row[pivot] == 1)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, coords: dict | None = None) -> dict:
        """Residual of vec modulo the current span (a fresh dict).

        The one reduction pass: the rows are fully reduced, so one ascending
        pass suffices, and the multiplier met at pivot p is vec[p], the
        coordinate there, recorded in ``coords`` when that is given."""
        v = dict(vec)
        for p in sorted(self.rows):
            c = v.get(p)
            if c:
                if coords is not None:
                    coords[p] = c
                axpy(v, -c, self.rows[p])
        return v

    def insert(self, vec: dict):
        """Add vec to the span; returns the new pivot, or None if dependent."""
        v = self.reduce(vec)
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
        for other in self.rows.values():
            c = other.get(p)
            if c:
                axpy(other, -c, row)
        self.rows[p] = row
        return p

    def express(self, vec: dict) -> dict:
        """Coordinates {pivot: coeff} of vec in the row basis, read by the
        reduction pass.  Raises ValueError if vec is not in the span."""
        coords: dict = {}
        if self.reduce(vec, coords):
            raise ValueError("vector is not in the span")
        return coords
