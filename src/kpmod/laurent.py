"""Sparse Laurent polynomials in n variables with exact integer coefficients.

Terms map length-n integer exponent tuples (entries may be negative) to
nonzero Python ints; all arithmetic is exact.  Instances are treated as
immutable: every operation returns a fresh polynomial.
"""

from __future__ import annotations


class LaurentPoly:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = int(n)
        clean: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, c in items:
                exp = tuple(int(e) for e in exp)
                if len(exp) != self.n:
                    raise ValueError(f"exponent {exp} has length != {self.n}")
                c = int(c)
                if not c:
                    continue
                acc = clean.get(exp, 0) + c
                if acc:
                    clean[exp] = acc
                else:
                    del clean[exp]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, n: int, exp, coeff: int = 1) -> "LaurentPoly":
        return cls(n, {tuple(exp): coeff})

    @classmethod
    def variable(cls, n: int, i: int) -> "LaurentPoly":
        """The variable x_i (1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range")
        exp = [0] * n
        exp[i - 1] = 1
        return cls(n, {tuple(exp): 1})

    # -- ring structure ----------------------------------------------------

    def _require_same(self, other):
        if self.n != other.n:
            raise ValueError("mixed variable counts")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly(self.n, {(0,) * self.n: other})
        self._require_same(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = out.get(exp, 0) + c
            if acc:
                out[exp] = acc
            else:
                del out[exp]
        res = LaurentPoly(self.n)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly(self.n)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly(self.n, {(0,) * self.n: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            res = LaurentPoly(self.n)
            if other:
                res.terms = {e: c * other for e, c in self.terms.items()}
            return res
        self._require_same(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        res = LaurentPoly(self.n)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        res = LaurentPoly.one(self.n)
        for _ in range(k):
            res = res * self
        return res

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({} if other == 0 else {(0,) * self.n: other})
        return (
            isinstance(other, LaurentPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def coeff(self, exp) -> int:
        return self.terms.get(tuple(exp), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degrees(self) -> set:
        return {sum(e) for e in self.terms}

    def eval_ones(self) -> int:
        """Value at x_1 = ... = x_n = 1."""
        return sum(self.terms.values())

    def sorted_terms(self, reverse: bool = True) -> list:
        """(exponent, coefficient) pairs sorted lexicographically by exponent
        (descending by default, which puts leading x_1 powers first)."""
        return [(e, self.terms[e]) for e in sorted(self.terms, reverse=reverse)]

    # -- transformations ---------------------------------------------------

    def shift(self, delta) -> "LaurentPoly":
        """Multiply by the monomial x^delta."""
        delta = tuple(int(d) for d in delta)
        if len(delta) != self.n:
            raise ValueError("shift vector has wrong length")
        res = LaurentPoly(self.n)
        res.terms = {
            tuple(a + b for a, b in zip(e, delta)): c for e, c in self.terms.items()
        }
        return res

    def invert_variables(self) -> "LaurentPoly":
        """Substitute x_i -> x_i^{-1}."""
        res = LaurentPoly(self.n)
        res.terms = {tuple(-a for a in e): c for e, c in self.terms.items()}
        return res

    def swap_adjacent(self, i: int) -> "LaurentPoly":
        """Exchange x_i and x_{i+1}."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"index {i} out of range")
        res = LaurentPoly(self.n)
        out = {}
        for e, c in self.terms.items():
            f = list(e)
            f[i - 1], f[i] = f[i], f[i - 1]
            out[tuple(f)] = c
        res.terms = out
        return res

    def extend(self, m: int) -> "LaurentPoly":
        """View in m >= n variables (pad exponents with zeros)."""
        if m < self.n:
            raise ValueError("extend cannot drop variables")
        pad = (0,) * (m - self.n)
        res = LaurentPoly(m)
        res.terms = {e + pad: c for e, c in self.terms.items()}
        return res

    def restrict(self, m: int) -> "LaurentPoly":
        """Drop trailing variables, which must not occur."""
        if m > self.n:
            return self.extend(m)
        out = {}
        for e, c in self.terms.items():
            if any(e[m:]):
                raise ValueError(
                    f"term x^{e} involves a variable beyond x_{m}"
                )
            out[e[:m]] = c
        res = LaurentPoly(m)
        res.terms = out
        return res

    # -- rendering / serialization ------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exp, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp, start=1):
                if e == 0:
                    continue
                factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                term = str(mag)
            elif mag == 1:
                term = body
            else:
                term = f"{mag}*{body}"
            if not pieces:
                pieces.append(term if c > 0 else f"-{term}")
            else:
                pieces.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(pieces)

    def __repr__(self):
        return f"LaurentPoly({self.n}, {self.text()!r})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"exp": list(e), "coeff": c} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "LaurentPoly":
        """Inverse of ``to_json``; ValueError says what is malformed."""
        if not (isinstance(data, dict) and "n" in data and isinstance(data.get("terms"), list)):
            raise ValueError(
                f"expected a polynomial object with 'n' and a list of 'terms', got {data!r}"
            )
        _require_int(data["n"], "'n'")
        for t in data["terms"]:
            if not (isinstance(t, dict) and "exp" in t and "coeff" in t):
                raise ValueError(f"expected a term object with 'exp' and 'coeff', got {t!r}")
            if not isinstance(t["exp"], list):
                raise ValueError(f"'exp' must be a list of integers, got {t['exp']!r}")
            for e in t["exp"]:
                _require_int(e, "'exp' entry")
            _require_int(t["coeff"], "'coeff'")
        return cls(data["n"], [(t["exp"], t["coeff"]) for t in data["terms"]])


def _require_int(value, field: str) -> None:
    # JSON numbers arrive as int, float or bool; only an int is exact here.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")


def int_tuple(values, what: str) -> tuple:
    """``values`` as a tuple whose entries pass ``_require_int``: a float or
    a bool is a ValueError naming ``what`` and the input, never truncated.

    >>> int_tuple([1, 0, 1], "code")
    (1, 0, 1)
    """
    values = tuple(values)
    try:
        for x in values:
            _require_int(x, "entry")
    except ValueError as err:
        raise ValueError(f"{what} {values!r}: {err}") from None
    return values
