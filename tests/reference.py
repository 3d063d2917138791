"""Slower routes kept as references for the tests; the library calls none
of this.  ``inversion_data`` lists the inversions of a ``Permutation``, and
the tests read the KP diagram's columns from it against ``kp_columns``,
which reads them off the code's window as row lists; ``kp_generator``
hands their fields (``row_fields``) to ``_diagram_generator``, against
which the tests check ``_kp_generator``, which reads the fields off the
window in one pass.  ``ReferenceEchelon`` is the
echelon whose ``express`` reduces vec row by row over all its pivots and
collects the multipliers, against which the tests check ``linalg.reduce``,
which walks only the vector's own pivots and reads them off there.  ``char_criterion`` reads
dim Hom(M, kp(rho - nu)^* (x) K_rho) off the annihilator presentation of
kp(rho - nu), one rank computation inside M;
``hom_dim(M, dual_twist(kp_module(rho - nu)))`` computes the same number by
building the twisted dual and solving the equivariance equations for the
whole Hom space.  ``reference_dual_pairing`` builds the whole dual element
S_{rho-mu}(x^{-1}) * prod (x_i - x_j) and sums its coefficients against f,
against which the tests check ``dual_pairing``, which reads one product
f * S_{rho-mu} at the alternant's exponents.
``reference_shifted_dual_pairing`` and ``reference_cauchy_window_check``
read a Laurent weight's Schubert polynomial off the shifted copy
x^{-k*1} S_{lam+k*1} that ``schubert_poly`` builds, against which the
tests check ``dual_pairing`` and ``cauchy_window_check``, which read the
lift S_{lam+k*1} at exponents raised by k.  ``reference_divided_difference``
emits the geometric sum of every term of f, its mirror's included, against
which the tests check ``divided_difference``, which works on f - s_i f.
``reference_plethysm_eval`` expands the Jacobi-Trudi determinant in the
complete homogeneous sums over all ell! permutations, against which the
tests check ``plethysm_eval``, which runs the branching rule.
``reference_staircase`` peels a reduced word of w0 * w for each code and
divides x^rho down it, against which the tests check the staircase of
``schubert_poly``, which builds each window's polynomial once.
``reference_expand_in_schubert`` builds a new remainder every round,
against which the tests check ``expand_in_schubert``, which subtracts from
one.  ``ReferenceWedgeAmbient`` is the tensor of the Lambda^k K^n on
mixed-radix keys, walking one move table per factor, and
``reference_diagram_module`` and ``reference_annihilator_check`` close and
annihilate the diagram generator in it, against which the tests check
``diagram_module`` and ``annihilator_check``, which run on the bit-field
keys of ``_DiagramAmbient``; ``mixed_radix_key`` translates one key into
the other.  ``reference_m_table`` reads the m_ij off a permutation's
minimal window, against which the tests check ``_presentation``, which
reads them off the untrimmed window of a code lifted to be nonnegative;
``reference_presentation`` counts each m_ij over the tail of that window,
against which the tests check ``_presentation``, which takes it off the
lifted code and a count that runs along j.
``reference_window_code`` counts each code entry's smaller earlier entries
in a loop, against which the tests check ``_window_code``, which finds
them by bisection; ``reference_transition_codes`` counts each child code
of a transition step off its window, against which the tests check
``_transition_codes``, which takes them off the parent's code.
``reference_young_symmetrizer_image`` closes the Schur-functor image in a
``ReferenceWedgeAmbient`` over M, which ranks each column's
combination in closed form, against which the tests check
``young_symmetrizer_image``, which looks it up in the power's own index.
``reference_sl3_module`` is the rank-3 module S^a(Lambda^2 K^3) (x)
S^b(K^3) built eagerly from ``reference_symmetric_power``, and
``reference_sl3_report`` runs a rank-3 check on it, against which the tests
check the checks run on the orbit sums of a ``_DiagramAmbient``.
``ReferenceCloser`` takes all n - 1 simple images of every vector it
queues and reduces each into its weight space, against which the tests
check ``SubmoduleCloser``, which skips the images that commuting operators
or the Serre relations already reach and those that land in a full weight
space.
``reference_standard_key`` inverts the code's window in a loop over its
positions, against which the tests check ``standard_key``, which sorts the
positions by value.  ``reference_cmp`` compares two weights by the inverse
windows of their permutations, padded to a common width
(``reference_windows``), against which the tests check ``compare``, which
reads the first entry off the codes and builds the keys only on a tie;
``random_slice`` and ``random_pair`` draw weights of one degree slice.
``kp_generator`` is a code's diagram ambient and generator, which the
tests close with either closer.
``transposition`` and ``longest_element`` build the permutations t_ij and
w_0 of S_m for the tests; the library walks codes and needs neither.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from kpmod import modules
from kpmod.laurent import LaurentPoly, _require_count, _require_int, _require_poly
from kpmod.linalg import ONE, Echelon, axpy
from kpmod.modules import (
    AnnihilatorReport,
    SubmoduleCloser,
    WeightModule,
    _close,
    _diagram_generator,
    _index,
    _power,
    _raised,
    _Tensor,
    _check_dim,
    _too_large,
    _wedge_place,
    _weight_sum,
    exterior_power,
    max_dim,
    tensor_many,
    vector_rep,
)
from kpmod.permutations import (
    EQUAL,
    GREATER,
    LESS,
    MTable,
    Permutation,
    _code_window,
    _transition_window,
    code,
    perm_of,
    rho,
)
from kpmod.schubert import (
    CauchyReport,
    _check_partition,
    divided_difference,
    dominance_interval,
    kostant_dim,
    schubert_poly,
    vandermonde,
)


class ReferenceEchelon:
    """Reduced echelon basis of a growing subspace."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}  # pivot index -> row (row[pivot] == 1)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the current span (a fresh dict)."""
        v = dict(vec)
        # rows are fully reduced, so one ascending pass suffices
        for p in sorted(self.rows):
            c = v.get(p)
            if c:
                axpy(v, -c, self.rows[p])
        return v

    def insert(self, vec: dict):
        """Add vec to the span; returns the new pivot, or None if dependent."""
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v)
        if v[p] == 1:
            row = v
        else:
            inv = Fraction(1) / v[p]
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
        """Coordinates {pivot: coeff} of vec in the row basis.

        Raises ValueError if vec is not in the span.
        """
        v = dict(vec)
        coeffs = {}
        for p in sorted(self.rows):
            c = v.get(p)
            if c:
                coeffs[p] = c
                axpy(v, -c, self.rows[p])
        if v:
            raise ValueError("vector is not in the span")
        return coeffs


def echelon_rows(ech: Echelon) -> dict:
    """The rows of an ``Echelon`` under their pivots, in the order added:
    the form ``ReferenceEchelon.rows`` holds them in."""
    return dict(zip(ech.pivots, ech.rows))


def reference_standard_key(lam, shift: int) -> tuple:
    """The standard-order key of an int weight at a shift that makes it
    nonnegative: the inverse window of perm(lam + shift*1), filled position
    by position, with the fixed-point tail dropped."""
    win = _code_window(tuple(x + shift for x in lam))
    inv = [0] * len(win)
    for i, v in enumerate(win, start=1):
        inv[v - 1] = i
    while inv and inv[-1] == len(inv):
        inv.pop()
    return tuple(inv)


def reference_windows(lam, mu, order: str) -> tuple:
    """The inverse windows of perm(lam + k) and perm(mu + k) at the pair's
    own shift k, padded to a common width; reversed for the prime order."""
    k = max(0, -min(min(lam), min(mu)))
    a = perm_of(tuple(x + k for x in lam)).inverse()
    b = perm_of(tuple(x + k for x in mu)).inverse()
    width = max(a.size, b.size)
    a, b = a.one_line(width), b.one_line(width)
    return (a[::-1], b[::-1]) if order == "prime" else (a, b)


#: ``compare``'s verdicts as the signs ``reference_cmp`` returns
TO_INT = {LESS: -1, EQUAL: 0, GREATER: 1}


def reference_cmp(lam, mu, order="standard"):
    """The pairwise definition of the two total orders on a degree slice:
    the windows of ``reference_windows`` compared lex, a smaller window
    being a larger weight."""
    if lam == mu:
        return 0
    a, b = reference_windows(lam, mu, order)
    return 1 if a < b else -1


def random_slice(rng):
    """A set of distinct weights of one length and one total degree."""
    n = rng.randint(1, 6)
    total = rng.randint(-3, 6)
    ws = set()
    for _ in range(rng.randint(1, 10)):
        w = [rng.randint(-3, 3) for _ in range(n - 1)]
        last = total - sum(w)
        if last >= -3:
            ws.add(tuple(w) + (last,))
    return sorted(ws)


def random_pair(rng, upto: int, lo: int = -5, hi: int = 6) -> tuple:
    """Two weights of one length n <= upto and one total degree, with
    entries in lo..hi (mu is redrawn until its last entry is)."""
    n = rng.randint(0, upto)
    lam = tuple(rng.randint(lo, hi) for _ in range(n))
    while True:
        mu = [rng.randint(lo, hi) for _ in range(n)]
        if n:
            mu[-1] += sum(lam) - sum(mu)
        if all(lo <= x <= hi for x in mu):
            return lam, tuple(mu)


class ReferenceCloser:
    """Submodule closure that takes all n - 1 simple images of every vector
    it queues and reduces every one into its weight space, full or not."""

    def __init__(self, M, what: str = "submodule closure"):
        self.module = M
        self.echelons: dict = {}
        self.rank = 0
        self.what = what
        self.cap = max_dim()

    def _insert(self, wt: tuple, vec: dict, queue: list, added: dict) -> None:
        ech = self.echelons.setdefault(wt, Echelon())
        if ech.insert(vec) is not None:
            self.rank += 1
            if self.rank > self.cap:
                raise _too_large(f"{self.what} at weight {wt}", "closure rank", self.rank, self.cap)
            added[wt] = added.get(wt, 0) + 1
            queue.append((wt, vec))

    def add(self, vecs) -> dict:
        added: dict = {}
        queue: list = []
        for wt, v in vecs:
            self._insert(wt, v, queue, added)
        pairs = self.module.simple_pairs()
        every = sum(1 << self.module.n - a for a, _ in pairs)
        while queue:
            wt, v = queue.pop()
            for pair, img in zip(pairs, self.module.simple_images(v, every)):
                if img:
                    self._insert(_raised(wt, pair), img, queue, added)
        return added


def closers_agree(M, batches) -> bool:
    """True when ``SubmoduleCloser`` and ``ReferenceCloser`` on M, fed the
    same batches of (weight, vector) seeds in turn, add the same ranks at
    every call and hold the same echelon rows after it."""
    got, want = SubmoduleCloser(M), ReferenceCloser(M)
    for batch in batches:
        if got.add(batch) != want.add(batch):
            return False
        if {wt: echelon_rows(e) for wt, e in got.echelons.items()} != {
            wt: echelon_rows(e) for wt, e in want.echelons.items()
        }:
            return False
    return True


@dataclass(frozen=True)
class InversionData:
    """Inversion diagram I(w), Rothe diagram D(w), and derived statistics."""

    inversions: frozenset  # pairs (i, j), i < j, w(i) > w(j)
    rothe: frozenset       # pairs (i, w(j)) over the same (i, j)
    length: int
    sign: int
    column_sizes: dict     # j -> l_j(w) = #{i : (i, j) in I(w)}


def inversion_data(w: Permutation) -> InversionData:
    win = w.window
    N = len(win)
    inv = set()
    rothe = set()
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            if win[i - 1] > win[j - 1]:
                inv.add((i, j))
                rothe.add((i, win[j - 1]))
    cols = {}
    for _, j in inv:
        cols[j] = cols.get(j, 0) + 1
    ell = len(inv)
    return InversionData(frozenset(inv), frozenset(rothe), ell, (-1) ** (ell % 2), cols)


def transposition(i: int, j: int) -> Permutation:
    """The permutation t_ij exchanging i and j (i < j)."""
    _require_int(i, "transposition i")
    _require_int(j, "transposition j")
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
    images = list(range(1, j + 1))
    images[i - 1], images[j - 1] = j, i
    return Permutation(images)


def longest_element(m: int) -> Permutation:
    _require_count(m, "longest_element m")
    return Permutation(range(m, 0, -1))


def solve_nullspace(equations, nvars: int) -> list:
    """Basis of solutions of homogeneous linear equations over the rationals.

    Equations are dicts {var index: coeff}.  Returns one reduced solution per
    free variable, in ascending free-variable order: the solution has a 1 at
    its free variable and is supported on that variable and the pivots.
    """
    ech = Echelon()
    for eq in equations:
        ech.insert(eq)
    pivots = echelon_rows(ech)
    sols = []
    for f in range(nvars):
        if f in pivots:
            continue
        sol = {f: ONE}
        for p, row in pivots.items():
            c = row.get(f)
            if c:
                sol[p] = -c
        sols.append(sol)
    return sols


def dual_twist(M: WeightModule) -> WeightModule:
    """The twisted dual M* (x) K_rho: dual basis, weight of the dual of a
    weight-mu vector is rho - mu, action the negated transpose.

    Public as part of the reference route for the character criterion:
    ``hom_dim(M, dual_twist(kp_module(rho - nu)))`` is what
    ``char_criterion`` computes from the annihilator presentation, and the
    tests compare the two."""
    r = rho(M.n)
    weights = [tuple(a - b for a, b in zip(r, w)) for w in M.weights]
    spaces = M.weight_spaces()

    def builder(pair, p):
        # e_ij f_p = -f_p o e_ij has f_q-coefficient -<u_p, e_ij u_q>, with
        # u_q of weight wt(u_p) - (eps_i - eps_j)
        col = {}
        for q in spaces.get(_raised(M.weights[p], pair, -1), ()):
            c = M.column(pair, q).get(p)
            if c:
                col[q] = -c
        return col

    return WeightModule(M.n, weights, builder)


@dataclass
class ModuleMap:
    """Linear map between weight modules, stored column-sparse."""

    source: WeightModule
    target: WeightModule
    columns: dict  # source index -> {target index: int, or Fraction where not integral}

    def apply(self, vec: dict) -> dict:
        out: dict = {}
        for c, x in vec.items():
            axpy(out, x, self.columns.get(c, {}))
        return out

    def is_zero(self) -> bool:
        return not any(self.columns.values())

    def commutes_with(self, pair) -> bool:
        M, N = self.source, self.target
        for c in range(M.dim):
            lhs = self.apply(M.apply(pair, {c: ONE}))
            rhs = N.apply(pair, self.apply({c: ONE}))
            if lhs != rhs:
                return False
        return True


def hom_space(M: WeightModule, N: WeightModule) -> list:
    """Basis (reduced, deterministic) of the space of module maps M -> N.

    A map is weight-preserving and commutes with the simple raising
    operators; that forces commutation with every e_ij, since those are
    iterated brackets of simple ones.  Raises RuntimeError if a solution
    fails the composite-pair cross-check, which would mean a bug.

    Together with ``dual_twist`` this is the reference route the tests hold
    ``char_criterion`` against.
    """
    if M.n != N.n:
        raise ValueError("modules over different ranks")
    nws = N.weight_spaces()
    varid: dict = {}
    for c in range(M.dim):
        for r in nws.get(M.weights[c], ()):
            varid[(r, c)] = len(varid)
    eqs = []
    for pair in ((i, i + 1) for i in range(1, M.n)):
        for c in range(M.dim):
            rows: dict = {}
            for r2, a in M.column(pair, c).items():
                for t in nws.get(M.weights[r2], ()):
                    row = rows.setdefault(t, {})
                    v = varid[(t, r2)]
                    row[v] = row.get(v, 0) + a
            for s in nws.get(M.weights[c], ()):
                v = varid[(s, c)]
                for t, b in N.column(pair, s).items():
                    row = rows.setdefault(t, {})
                    row[v] = row.get(v, 0) - b
            eqs.extend({k: x for k, x in row.items() if x} for row in rows.values())
    sols = solve_nullspace([e for e in eqs if e], len(varid))
    back = {v: rc for rc, v in varid.items()}
    maps = []
    for sol in sols:
        cols: dict = {}
        for v, c in sol.items():
            r, cc = back[v]
            cols.setdefault(cc, {})[r] = c
        maps.append(ModuleMap(M, N, cols))
    # imposing the simple pairs must already give full equivariance;
    # cross-check one composite raising pair as a guard
    if maps and M.n >= 3 and not all(T.commutes_with((1, M.n)) for T in maps):
        raise RuntimeError(
            f"hom solution does not commute with e_1{M.n}: "
            "the simple-pair equations lost equivariance"
        )
    return maps


def hom_dim(M: WeightModule, N: WeightModule) -> int:
    """dim Hom(M, N); the reference route for ``char_criterion`` (see
    ``dual_twist``)."""
    return len(hom_space(M, N))


def reference_dual_pairing(f, mu) -> int:
    """<f, S_{rho-mu}(x^{-1}) * prod (x_i - x_j)>, the coefficient sum over
    f against the whole dual element."""
    r = rho(f.n)
    s = schubert_poly(tuple(a - b for a, b in zip(r, mu)))
    g = s.invert_variables() * vandermonde(f.n)
    return sum(c * g.terms.get(exp, 0) for exp, c in f.terms.items())


def reference_shifted_dual_pairing(f, mu) -> int:
    """``dual_pairing`` multiplying f by S_{rho-mu} itself, the shifted copy
    x^{-k*1} S_{rho-mu+k*1} that ``schubert_poly`` builds at a Laurent
    weight, and reading the product at the alternant's exponents."""
    alternant = vandermonde(f.n).terms
    coeffs = f._product_coeffs(schubert_poly(tuple(a - b for a, b in zip(rho(f.n), mu))), alternant)
    return sum(map(operator.mul, alternant.values(), coeffs))


def reference_cauchy_window_check(mu, nu) -> CauchyReport:
    """``cauchy_window_check`` reading both factors of each window term off
    the polynomials ``schubert_poly`` builds, shifted copies at Laurent
    weights included."""
    window = dominance_interval(mu, nu)
    r = rho(len(mu))
    rmu = tuple(a - b for a, b in zip(r, mu))
    lhs = 0
    for kappa in window:
        left = schubert_poly(tuple(a - b for a, b in zip(r, kappa))).coeff(rmu)
        if left:
            lhs += left * schubert_poly(kappa).coeff(nu)
    rhs = kostant_dim(tuple(a - b for a, b in zip(nu, mu)))
    return CauchyReport(tuple(mu), tuple(nu), tuple(window), lhs, rhs, lhs == rhs)


def reference_divided_difference(i: int, f: LaurentPoly) -> LaurentPoly:
    """The i-th divided difference (f - s_i f)/(x_i - x_{i+1}), exactly.

    Works term by term: a monomial with exponents (p, q) at positions
    (i, i+1) contributes the geometric sum between q and p, so the division
    never leaves a remainder.
    """
    _require_int(i, "divided difference index")
    if not 1 <= i <= f.n - 1:
        raise ValueError(f"divided difference index {i} out of range for n={f.n}")
    out: dict = {}
    for exp, c in f.terms.items():
        p, q = exp[i - 1], exp[i]
        if p == q:
            continue
        sign = 1 if p > q else -1
        lo, hi = (q, p) if p > q else (p, q)
        e = list(exp)
        for t in range(lo, hi):
            e[i - 1] = t
            e[i] = lo + hi - 1 - t
            key = tuple(e)
            acc = out.get(key, 0) + sign * c
            if acc:
                out[key] = acc
            else:
                del out[key]
    return LaurentPoly._of(f.n, out)


def reference_plethysm_eval(sigma, f: LaurentPoly) -> LaurentPoly:
    """The Schur polynomial s_sigma evaluated at the monomial multiset of f.

    Requires f to have nonnegative coefficients.  Computed via the
    Jacobi-Trudi determinant in complete homogeneous sums of the monomials,
    which avoids any auxiliary Schubert computation in many variables.
    """
    sigma = _check_partition(sigma)
    if any(c < 0 for c in f.terms.values()):
        raise ValueError("plethysm requires nonnegative coefficients")
    if not sigma:
        return LaurentPoly.one(f.n)
    values = [exp for exp, c in sorted(f.terms.items()) for _ in range(c)]
    ell = len(sigma)
    top = sigma[0] + ell - 1
    h = [LaurentPoly.zero(f.n) for _ in range(top + 1)]
    h[0] = LaurentPoly.one(f.n)
    for exp in values:
        v = LaurentPoly.monomial(f.n, exp)
        for k in range(1, top + 1):
            h[k] = h[k] + v * h[k - 1]

    def entry(i: int, j: int) -> LaurentPoly:
        d = sigma[i] - i + j
        return h[d] if 0 <= d <= top else LaurentPoly.zero(f.n)

    det = LaurentPoly.zero(f.n)
    for perm in itertools.permutations(range(ell)):
        term = LaurentPoly.one(f.n)
        for i in range(ell):
            term = term * entry(i, perm[i])
            if not term:
                break
        det = det + term * Permutation([p + 1 for p in perm]).sign()
    return det


def reference_staircase(lam: tuple) -> LaurentPoly:
    """The Schubert polynomial of a nonnegative code: x^rho divided down a
    reduced word of w0 * w, peeled by bubble sort."""
    win = _code_window(lam)
    while len(win) > 1 and win[-1] == len(win):
        win.pop()
    m = len(win)
    # the window of u = w0 * w; peel a reduced word of u from the right
    win = [m + 1 - x for x in win]
    word = []
    while True:
        for i in range(1, m):
            if win[i - 1] > win[i]:
                word.append(i)
                win[i - 1], win[i] = win[i], win[i - 1]
                break
        else:
            break
    poly = LaurentPoly.monomial(m, tuple(range(m - 1, -1, -1)))
    for i in reversed(word):
        poly = divided_difference(i, poly)
    # a permutation increasing beyond n has a polynomial in x_1..x_n only
    return poly.restrict(len(lam))


def reference_expand_in_schubert(f: LaurentPoly) -> dict:
    """Write f exactly as sum c_mu * S_mu, subtracting the Schubert
    polynomial of the least exponent into a new remainder each round."""
    _require_poly(f, "expand_in_schubert polynomial")
    res: dict = {}
    work = f
    while work.terms:
        pick = min(work.terms)
        c = work.terms[pick]
        res[pick] = res.get(pick, 0) + c
        work = work - schubert_poly(pick) * c
    return {mu: c for mu, c in res.items() if c}


@lru_cache(maxsize=None)
def reference_wedge_factor(n: int, k: int) -> WeightModule:
    """Lambda^k K^n; at most C(n, n/2) vectors, so outside KP_MAX_DIM."""
    return _power(vector_rep(n), _index(itertools.combinations(range(n), k)), _wedge_place)


class ReferenceWedgeAmbient(_Tensor):
    """The tensor of Lambda^k M over the column lengths k of a diagram,
    keyed like ``tensor_many`` over the ``exterior_power(M, k)``; M is
    ``base``, or K^n, and a length-one column is M itself.  Nothing is
    enumerated and no key has a stored weight: a closure derives every
    weight from those of the vectors it starts from.  The action walks the
    factors' move tables; the Lambda^k K^n factors are shared by every
    ambient over K^n, and so are their tables."""

    def __init__(self, lengths, n: int, base=None):
        self.d = n if base is None else base.dim
        if base is None:
            factors = {k: reference_wedge_factor(n, k) for k in lengths}
        else:
            factors = {k: base if k == 1 else exterior_power(base, k) for k in lengths}
        super().__init__([factors[k] for k in lengths], n)

    def wedge(self, columns):
        """(key, sign) of the tensor of the wedges of ``columns``, lists of
        basis indices of M, the sign that of sorting them; None on a repeat."""
        key, sign, d = 0, 1, self.d
        for (_, size, stride), col in zip(self.slots, columns):
            if len(col) == 1:
                key += col[0] * stride
                continue
            combo = sorted(col)
            if len(set(combo)) < len(combo):
                return None
            if combo != col:
                sign *= (-1) ** sum(a > b for t, a in enumerate(col) for b in col[t + 1:])
            # the place of combo among the combinations of range(d)
            lex = sum(math.comb(d - 1 - c, len(col) - t) for t, c in enumerate(combo))
            key += (size - 1 - lex) * stride
        return key, sign


def mixed_radix_key(key: int, lengths, n: int) -> int:
    """The ``ReferenceWedgeAmbient(lengths, n)`` key of the tensor of wedges
    whose ``_DiagramAmbient`` key is ``key``: n bits per column, column 0
    the highest, bit n - r set when row r is absent.  Each column's digit is
    the place of its rows among the combinations of range(n)."""
    out = 0
    for c, k in enumerate(lengths):
        field = key >> n * (len(lengths) - 1 - c) & (1 << n) - 1
        rows = tuple(r for r in range(n) if not field >> n - 1 - r & 1)
        combos = list(itertools.combinations(range(n), k))
        out = out * len(combos) + combos.index(rows)
    return out


def kp_columns(lam: tuple) -> list:
    """Row sets of the nonempty columns of the KP diagram of w = perm(lam),
    for a nonnegative code: column j holds the rows i < j with w(i) > w(j),
    read off the window of w without building it."""
    win = _code_window(lam)
    cols = ([i for i in range(1, j) if win[i - 1] > win[j - 1]] for j in range(2, len(win) + 1))
    return [rows for rows in cols if rows]


def row_fields(columns, n: int) -> list:
    """The ``_diagram_generator`` fields of row lists: one n-bit int per
    column, bit n - r set for each row r it holds."""
    return [sum(1 << n - r for r in rows) for rows in columns]


def kp_generator(lam: tuple) -> tuple:
    """The ``_DiagramAmbient`` of a code's KP diagram and its column-wedge
    generator, a (weight, vector) pair with a fresh dict, from the row lists
    of ``kp_columns``: a negative code takes its lift lam + k(1, ..., 1)'s
    columns, at the weight that counts the columns holding each row, minus
    k."""
    n, k = len(lam), max(0, -min(lam))
    columns = kp_columns(tuple(x + k for x in lam))
    wt = tuple(sum(r in rows for rows in columns) - k for r in range(1, n + 1))
    return _diagram_generator(row_fields(columns, n), wt, n)


def _reference_generator(columns, n: int) -> tuple:
    amb = ReferenceWedgeAmbient([len(rows) for rows in columns], n)
    wt = tuple(sum(r in rows for rows in columns) for r in range(1, n + 1))
    return amb, (wt, {amb.wedge([[r - 1 for r in rows] for rows in columns])[0]: ONE})


def reference_diagram_module(columns, n: int) -> WeightModule:
    """``diagram_module`` of a diagram, the library's closure run in the
    ``ReferenceWedgeAmbient``."""
    amb, gen = _reference_generator(columns, n)
    return _close(amb, [gen], "reference_diagram_module", gen)


def outcome(f, *args):
    """f(*args), or ("ValueError", its message) if it raises one."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def reference_window_code(win, n: int) -> tuple:
    """``_window_code`` counting the smaller earlier entries of each one in a
    loop over the prefix: quadratic in n."""
    tail = list(win[n:])
    if tail != sorted(tail):
        for i, x in enumerate(tail, start=n):
            c = len([y for y in win[i + 1:] if y < x])
            if c:
                raise ValueError(
                    f"{Permutation(win)!r} is not increasing beyond position {n}: "
                    f"code entry {i + 1} equals {c}"
                )
    out = []
    for i, x in enumerate(win[:n]):
        c = x - 1
        for y in win[:i]:
            if y < x:
                c -= 1
        out.append(c)
    out.extend([0] * (n - len(out)))
    return tuple(out)


def reference_transition_codes(lam: tuple) -> tuple:
    """``_transition_codes`` with every child's code counted off its window
    by ``reference_window_code``."""
    j, _, v, branches = _transition_window(_code_window(lam))
    n = len(lam)
    return j, reference_window_code(v, n), tuple(reference_window_code(b, n) for _, b in branches)


def reference_presentation(lam) -> tuple:
    """``_presentation`` counting each m_ij over the tail of the untrimmed
    window of the lift lam + k(1, ..., 1), k = max(0, -min lam)."""
    k = max(0, -min(lam, default=0))
    win = _code_window([x + k for x in lam])
    n = len(lam)
    out = []
    for i in range(n):
        wi = win[i]
        for j in range(i + 1, n):
            wj = win[j]
            m = 0
            if wi < wj:
                for x in win[j + 1:]:
                    if wi < x < wj:
                        m += 1
            out.append(((i + 1, j + 1), m))
    return tuple(out)


def reference_m_table(win, n: int) -> MTable:
    """``m_table`` of the window of a permutation increasing past n."""
    win = tuple(win) + tuple(range(len(win) + 1, n + 1))
    # the identity tail past the window never lies strictly between two images
    entries = {}
    for i in range(n):
        wi = win[i]
        for j in range(i + 1, n):
            wj = win[j]
            m = 0
            if wi < wj:
                for x in win[j + 1:]:
                    if wi < x < wj:
                        m += 1
            entries[(i + 1, j + 1)] = m
    pruned = tuple(
        sorted(
            (i, j)
            for (i, j) in entries
            if not any(
                entries[(i, j)] == entries[(i, q)] + entries[(q, j)]
                for q in range(i + 1, j)
            )
        )
    )
    return MTable(n, entries, pruned)


def reference_annihilator_check(w: Permutation, n: int) -> AnnihilatorReport:
    """``annihilator_check``, its powers applied in the
    ``ReferenceWedgeAmbient`` and its dimension that of
    ``reference_diagram_module``."""
    lam = code(w, n)
    table = reference_m_table(w.window, n)
    columns = kp_columns(lam)
    amb, (_, gen) = _reference_generator(columns, n)
    failed = []
    non_sharp = []
    for (i, j), m in sorted(table.entries.items()):
        v = amb.apply_power((i, j), gen, m)
        if m >= 1 and not v:
            non_sharp.append((i, j))
        if amb.apply((i, j), v):
            failed.append((i, j))
    pruned_ok = all(p not in set(failed) for p in table.pruned)
    dim = reference_diagram_module(columns, n).dim
    sval = schubert_poly(lam).eval_ones()
    return AnnihilatorReport(lam, table, tuple(failed), tuple(non_sharp), pruned_ok, dim, sval)


def reference_young_symmetrizer_image(M: WeightModule, sigma) -> WeightModule:
    """``young_symmetrizer_image`` closed in ``ReferenceWedgeAmbient(lengths,
    M.n, M)``, whose ``wedge`` places each column by the closed-form rank of
    its combination rather than through the power's index."""
    sigma = _check_partition(sigma)
    cap = max_dim()
    what = f"young_symmetrizer_image of sigma {sigma}"
    for size in itertools.accumulate((f for p in sigma for f in range(2, p + 1)), operator.mul):
        if size > cap:
            raise _too_large(what, "symmetrizer terms >=", size, cap)
    if len(sigma) > M.dim:
        return WeightModule(M.n, [])
    slots = [range(M.dim)] * sum(sigma)
    if slots and M.generator:
        slots[0] = sorted(M.generator)
    tuples = math.prod(map(len, slots))
    if tuples > cap:
        raise _too_large(what, "seed tuples", tuples, cap)
    lengths = [sum(p > c for p in sigma) for c in range(sigma[0] if sigma else 0)]
    for k in dict.fromkeys(lengths):
        size = math.comb(M.dim, k)
        if k > 1 and size > cap:
            raise _too_large(what, f"exterior_power {k} basis size", size, cap)
    amb = ReferenceWedgeAmbient(lengths, M.n, M)
    # a row term permutes slots within each row; column c takes each row's slot c
    rows = [range(end - part, end) for end, part in zip(itertools.accumulate(sigma), sigma)]
    placements = [
        [[row[c] for row in term if len(row) > c] for c in range(len(lengths))]
        for term in itertools.product(*map(itertools.permutations, rows))
    ]

    def seeds():
        for x in itertools.product(*slots):
            acc: dict = {}
            for place in placements:
                wedged = amb.wedge([[x[s] for s in col] for col in place])
                if wedged:
                    acc[wedged[0]] = acc.get(wedged[0], 0) + wedged[1]
            v = {key: c for key, c in acc.items() if c}
            if v:  # of the weight of x: wedging and permuting keep weights
                yield _weight_sum(M.n, (M.weights[b] for b in x)), v

    return _close(amb, seeds(), what)


def reference_symmetric_power(M: WeightModule, k: int) -> WeightModule:
    """S^k M in the monomial basis of weakly increasing index tuples."""
    _require_int(k, "symmetric_power k")
    if k < 0:
        raise ValueError("negative symmetric power")
    # C(dim + k - 1, k) multisets; the max covers dim = k = 0, one empty tuple
    _check_dim(math.comb(max(M.dim + k - 1, 0), k), f"symmetric_power {k} of a {M.dim}-dim module")
    combos = itertools.combinations_with_replacement(range(M.dim), k)
    return _power(M, _index(combos), lambda others, r, t: (tuple(sorted(others + (r,))), 1))


@lru_cache(maxsize=None)
def _reference_sl3_tensor(a: int, b: int) -> WeightModule:
    base = vector_rep(3)
    return tensor_many([reference_symmetric_power(exterior_power(base, 2), a), reference_symmetric_power(base, b)], 3)


def reference_sl3_module(a: int, b: int):
    """S^a(Lambda^2 K^3) (x) S^b(K^3), enumerated, and its generator
    (u_2 ^ u_3)^a (x) u_3^b, the last basis vector, as ``_sl3_module``
    returns them."""
    M = _reference_sl3_tensor(a, b)
    return M, ((0, a, a + b), {M.dim - 1: ONE})


def reference_sl3_report(check, *args):
    """``check``, ``sl3_presentation_check`` or ``sl3_identity_check``, run
    on ``reference_sl3_module``."""
    saved = modules._sl3_module
    modules._sl3_module = reference_sl3_module
    try:
        return check(*args)
    finally:
        modules._sl3_module = saved
