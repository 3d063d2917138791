"""Sparse Laurent polynomials in n variables with exact integer coefficients.

Terms map length-n integer exponent tuples (entries may be negative) to
nonzero Python ints; all arithmetic is exact.  Instances are treated as
immutable: every operation returns a fresh polynomial.  The public
constructors (``LaurentPoly(...)``, ``zero``, ``one``, ``monomial``,
``variable``, ``from_json``) validate their input: exponents, the variable
count and coefficients must be ints, and a float or a bool is a ValueError
naming the input, never truncated.  A result derived from polynomials that
are already valid (sums, products, shifts, substitutions, divided
differences) is wrapped by the private ``_of`` without re-validation.

A product of two polynomials with several terms each packs exponent vectors
into single ints (Kronecker substitution; Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  Per variable i, every product exponent lies in [lo_i, hi_i], where
lo_i and hi_i are the sums of the factors' least and greatest i-th exponents.
With the mixed-radix weights R_{n-1} = 1 and R_{i-1} = R_i * (hi_i - lo_i + 1),
e -> sum_i e_i R_i is additive, and on that box it is injective, because
sum_i (e_i - lo_i) R_i writes e - lo in base R with every digit in range.
Python ints are unbounded, so the packing stays exact for any exponents; the
packed keys only replace the tuples that the double loop would build, and
the terms come out as in that loop: same coefficients, same order.  The dual
pairing reads the few coefficients it needs straight off the packed keys
(``_product_coeffs``) without decoding the product.  That is exact only
inside the box: an exponent outside it can pack to the key of one inside,
so it reads 0 without a lookup.
"""

from __future__ import annotations

from operator import add, le, mul


class LaurentPoly:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        _require_count(n, "variable count")
        self.n = n
        clean: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, c in items:
                exp = int_tuple(exp, "exponent")
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} has length != {n}")
                if type(c) is not int:
                    _require_int(c, f"coefficient of x^{exp}")
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
    def _of(cls, n: int, terms: dict) -> "LaurentPoly":
        """Wrap terms that are already clean: length-n int tuples mapped to
        nonzero ints.  No validation; only derived results come here."""
        res = cls.__new__(cls)
        res.n = n
        res.terms = terms
        return res

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
        _require_int(i, "variable index")
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range")
        exp = [0] * n
        exp[i - 1] = 1
        return cls(n, {tuple(exp): 1})

    # -- ring structure ----------------------------------------------------

    def _require_same(self, other):
        if self.n != other.n:
            raise ValueError("mixed variable counts")

    def _operand(self, other) -> "LaurentPoly":
        """other as a polynomial in self's variables; an int is a constant."""
        if isinstance(other, LaurentPoly):
            self._require_same(other)
            return other
        _require_int(other, "operand")
        return LaurentPoly._of(self.n, {(0,) * self.n: other} if other else {})

    def __add__(self, other):
        other = self._operand(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = out.get(exp, 0) + c
            if acc:
                out[exp] = acc
            else:
                del out[exp]
        return LaurentPoly._of(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            _require_int(other, "operand")
            if not other:
                return LaurentPoly._of(self.n, {})
            return LaurentPoly._of(self.n, {e: c * other for e, c in self.terms.items()})
        self._require_same(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly._of(self.n, {})
        # A single term c*x^e shifts and scales the other factor.  Products of
        # nonzero ints are nonzero and the shifted exponents stay distinct, so
        # this is the double loop below, in its order, without the dict work:
        # with the single term first, the loop runs over the other factor.
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            ((e, c),) = a.items()
            return LaurentPoly._of(self.n, {tuple(map(add, e, f)): c * d for f, d in b.items()})
        out, radix, lo, _ = _packed_product(self.n, a, b)
        # decode each product key once: its digits in base R are e_i - lo_i
        base = sum(map(mul, lo, radix))
        digits = list(zip(radix, lo))
        terms = {}
        for key, c in out.items():
            key -= base
            exp = []
            for r, low in digits:
                q, key = divmod(key, r)
                exp.append(q + low)
            terms[tuple(exp)] = c
        return LaurentPoly._of(self.n, terms)

    __rmul__ = __mul__

    def _product_coeffs(self, other: "LaurentPoly", exps) -> list:
        """The coefficients of self * other at the exponents ``exps``, in
        order, read off the packed product without decoding it.

        Packing is injective only on the box [lo, hi] of the product's
        exponents, so an exponent outside it reads 0 rather than the key it
        packs to.
        """
        self._require_same(other)
        a, b = self.terms, other.terms
        if len(a) < 2 or len(b) < 2:
            terms = (self * other).terms
            return [terms.get(e, 0) for e in exps]
        out, radix, lo, hi = _packed_product(self.n, a, b)
        get = out.get
        return [
            get(sum(map(mul, e, radix)), 0) if all(map(le, lo, e)) and all(map(le, e, hi)) else 0
            for e in exps
        ]

    def __pow__(self, k: int):
        _require_count(k, "power")
        res = LaurentPoly.one(self.n)
        for _ in range(k):
            res = res * self
        return res

    def __eq__(self, other):
        # a bool is no int here, as in arithmetic
        if type(other) is int:
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
        return self.terms.get(int_tuple(exp, "exponent"), 0)

    def total_degrees(self) -> set:
        return {sum(e) for e in self.terms}

    def eval_ones(self) -> int:
        """Value at x_1 = ... = x_n = 1."""
        return sum(self.terms.values())

    def sorted_terms(self) -> list:
        """(exponent, coefficient) pairs in descending lexicographic order of
        the exponent, which puts leading x_1 powers first."""
        return [(e, self.terms[e]) for e in sorted(self.terms, reverse=True)]

    # -- transformations ---------------------------------------------------

    def shift(self, delta) -> "LaurentPoly":
        """Multiply by the monomial x^delta."""
        delta = int_tuple(delta, "shift vector")
        if len(delta) != self.n:
            raise ValueError("shift vector has wrong length")
        return LaurentPoly._of(
            self.n, {tuple(map(add, e, delta)): c for e, c in self.terms.items()}
        )

    def invert_variables(self) -> "LaurentPoly":
        """Substitute x_i -> x_i^{-1}."""
        return LaurentPoly._of(
            self.n, {tuple(-a for a in e): c for e, c in self.terms.items()}
        )

    def swap_adjacent(self, i: int) -> "LaurentPoly":
        """Exchange x_i and x_{i+1}."""
        _require_int(i, "swap index")
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"index {i} out of range")
        out = {}
        for e, c in self.terms.items():
            f = list(e)
            f[i - 1], f[i] = f[i], f[i - 1]
            out[tuple(f)] = c
        return LaurentPoly._of(self.n, out)

    def extend(self, m: int) -> "LaurentPoly":
        """View in m >= n variables (pad exponents with zeros)."""
        _require_int(m, "variable count")
        if m < self.n:
            raise ValueError("extend cannot drop variables")
        pad = (0,) * (m - self.n)
        return LaurentPoly._of(m, {e + pad: c for e, c in self.terms.items()})

    def restrict(self, m: int) -> "LaurentPoly":
        """Drop trailing variables, which must not occur."""
        _require_count(m, "variable count")
        if m > self.n:
            return self.extend(m)
        out = {}
        for e, c in self.terms.items():
            if any(e[m:]):
                raise ValueError(
                    f"term x^{e} involves a variable beyond x_{m}"
                )
            out[e[:m]] = c
        return LaurentPoly._of(m, out)

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


def _packed_product(n: int, a: dict, b: dict):
    """The product of the term dicts a and b, each of two or more terms, as
    (packed terms, radix, lo, hi): the terms map sum_i e_i R_i to nonzero
    coefficients, and every product exponent e has lo_i <= e_i <= hi_i.

    Kronecker substitution, exact as the module docstring shows.  The double
    loop adds ints and deletes zero sums as they occur, so the packed terms
    keep the order of the plain A-outer, B-inner tuple loop.
    """
    cols = list(zip(zip(*a), zip(*b)))
    lo = [min(ca) + min(cb) for ca, cb in cols]
    hi = [max(ca) + max(cb) for ca, cb in cols]
    radix = [1] * n
    for i in range(n - 1, 0, -1):
        radix[i - 1] = radix[i] * (hi[i] - lo[i] + 1)
    packed_b = [(sum(map(mul, f, radix)), d) for f, d in b.items()]
    out: dict = {}
    get = out.get
    for e, c in a.items():
        ka = sum(map(mul, e, radix))
        for kb, d in packed_b:
            key = ka + kb
            acc = get(key, 0) + c * d
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out, radix, lo, hi


def _require_int(value, field: str) -> None:
    # JSON numbers arrive as int, float or bool; only an int is exact here.
    # The exact-type test comes first: it is the common case on hot paths.
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{field} must be an integer, got {value!r}")


def _require_count(value, field: str) -> None:
    _require_int(value, field)
    if value < 0:
        raise ValueError(f"{field} must be nonnegative, got {value}")


def _require_poly(value, field: str) -> None:
    if not isinstance(value, LaurentPoly):
        raise ValueError(f"{field} must be a LaurentPoly, got {value!r}")


def int_tuple(values, what: str) -> tuple:
    """``values`` as a tuple whose entries pass ``_require_int``: a float or
    a bool is a ValueError naming ``what`` and the input, never truncated.

    >>> int_tuple([1, 0, 1], "code")
    (1, 0, 1)
    """
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            try:
                _require_int(x, "entry")
            except ValueError as err:
                raise ValueError(f"{what} {values!r}: {err}") from None
    return values
