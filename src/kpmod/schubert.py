"""Schubert polynomial calculus over exact integers.

Covers divided differences, the two constructions of Schubert polynomials
(staircase descent and the transition recursion, extended to arbitrary
integer weights by monomial shifts), expansion of a Laurent polynomial in the
Schubert basis, the dual coefficient-extraction pairing, Kostant weight
multiplicities of the strictly-upper-triangular enveloping algebra, the
finite Cauchy-window identity relating the two, and Schur-polynomial
plethysm of a nonnegative polynomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentPoly
from .permutations import (
    Permutation,
    code,
    dominates,
    longest_element,
    perm_of,
    rho,
    transition,
)


def divided_difference(i: int, f: LaurentPoly) -> LaurentPoly:
    """The i-th divided difference (f - s_i f)/(x_i - x_{i+1}), exactly.

    Works term by term: a monomial with exponents (p, q) at positions
    (i, i+1) contributes the geometric sum between q and p, so the division
    never leaves a remainder.

    >>> divided_difference(1, LaurentPoly.variable(2, 1)).text()
    '1'
    """
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
    res = LaurentPoly(f.n)
    res.terms = out
    return res


# ---------------------------------------------------------------------------
# Schubert polynomials

def schubert_poly(lam, method: str = "transition") -> LaurentPoly:
    """The Schubert polynomial attached to an integer weight vector.

    For nonnegative lam this is the classical polynomial indexed by
    perm(lam); in general it is x^{-k*1} times the polynomial of lam + k*1,
    independent of the shift k.  Both methods agree exactly; ``staircase``
    descends from the longest element by divided differences, ``transition``
    recurses on the maximal-descent identity with memoization.

    >>> schubert_poly((1, 0, 1, 0)).text()
    'x1^2 + x1*x2 + x1*x3'
    """
    lam = tuple(int(x) for x in lam)
    if not lam:
        raise ValueError("empty weight vector")
    k = max(0, -min(lam))
    core = tuple(x + k for x in lam)
    if method == "transition":
        p = _schubert_transition(core)
    elif method == "staircase":
        p = _schubert_staircase(core)
    else:
        raise ValueError(f"unknown method {method!r}")
    return p.shift((-k,) * len(lam)) if k else p


def schubert_poly_of_perm(w: Permutation, n: int, method: str = "transition") -> LaurentPoly:
    return schubert_poly(code(w, n), method)


@lru_cache(maxsize=None)
def _schubert_staircase(lam: tuple) -> LaurentPoly:
    n = len(lam)
    w = perm_of(lam)
    m = max(w.size, 1)
    u = longest_element(m) * w  # the longest element is an involution
    # peel a reduced word of u from the right
    word = []
    win = list(u.one_line(m))
    while True:
        for i in range(1, m):
            if win[i - 1] > win[i]:
                word.append(i)
                win[i - 1], win[i] = win[i], win[i - 1]
                break
        else:
            break
    word.reverse()
    poly = LaurentPoly.monomial(m, tuple(range(m - 1, -1, -1)))
    for i in word:
        poly = divided_difference(i, poly)
    # a permutation increasing beyond n has a polynomial in x_1..x_n only
    return poly.restrict(n)


# shared cache; plain-dict updates are atomic, so concurrent workers can at
# worst duplicate work, never corrupt entries
_transition_memo: dict = {}


def _schubert_transition(lam: tuple) -> LaurentPoly:
    if lam in _transition_memo:
        return _transition_memo[lam]
    n = len(lam)
    stack = [lam]
    while stack:
        cur = stack[-1]
        if cur in _transition_memo:
            stack.pop()
            continue
        if all(cur[t] >= cur[t + 1] for t in range(n - 1)):
            # weakly decreasing code: the polynomial is the single monomial
            _transition_memo[cur] = LaurentPoly.monomial(n, cur)
            stack.pop()
            continue
        td = transition(perm_of(cur))
        vcode = code(td.v, n)
        bcodes = [code(wa, n) for _, wa in td.branches]
        pending = [c for c in [vcode, *bcodes] if c not in _transition_memo]
        if pending:
            stack.extend(pending)
            continue
        ej = [0] * n
        ej[td.j - 1] = 1
        poly = _transition_memo[vcode].shift(tuple(ej))
        for c in bcodes:
            poly = poly + _transition_memo[c]
        _transition_memo[cur] = poly
        stack.pop()
    return _transition_memo[lam]


# ---------------------------------------------------------------------------
# Schubert-basis expansion and the dual pairing

def expand_in_schubert(f: LaurentPoly) -> dict:
    """Write f exactly as sum c_mu * S_mu; returns {mu: c_mu} (ints, possibly
    negative).

    Repeatedly subtracts the Schubert polynomial of a dominance-minimal
    exponent of the running support (lexicographically smallest minimal one,
    for reproducibility); supports stay inside finite dominance intervals, so
    the loop terminates.
    """
    res: dict = {}
    work = f
    while work.terms:
        supp = sorted(work.terms)
        pick = None
        for mu in supp:
            if not any(nu != mu and dominates(mu, nu) for nu in supp):
                pick = mu
                break
        if pick is None:
            # a finite support always has a dominance-minimal element
            raise RuntimeError(
                f"no dominance-minimal exponent among {len(supp)} terms"
            )
        c = work.terms[pick]
        res[pick] = res.get(pick, 0) + c
        work = work - schubert_poly(pick) * c
    return {mu: c for mu, c in res.items() if c}


@lru_cache(maxsize=None)
def vandermonde(n: int) -> LaurentPoly:
    """The product of (x_i - x_j) over 1 <= i < j <= n."""
    poly = LaurentPoly.one(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            poly = poly * (LaurentPoly.variable(n, i) - LaurentPoly.variable(n, j))
    return poly


@lru_cache(maxsize=None)
def _dual_element(n: int, mu: tuple) -> LaurentPoly:
    r = rho(n)
    s = schubert_poly(tuple(a - b for a, b in zip(r, mu)))
    return s.invert_variables() * vandermonde(n)


def dual_pairing(f: LaurentPoly, mu) -> int:
    """Coefficient pairing <f, S_{rho-mu}(x^{-1}) * prod (x_i - x_j)>.

    On Schubert polynomials of the same total degree this is the Kronecker
    delta, which makes it an independent coefficient-extraction oracle for
    :func:`expand_in_schubert`.
    """
    mu = tuple(int(x) for x in mu)
    if len(mu) != f.n:
        raise ValueError("weight length must match the variable count")
    g = _dual_element(f.n, mu)
    return sum(c * g.terms.get(exp, 0) for exp, c in f.terms.items())


# ---------------------------------------------------------------------------
# Kostant multiplicities and the Cauchy window

def kostant_dim(delta) -> int:
    """Number of multisets of the roots e_i - e_j (i < j) summing to delta.

    Equals the dimension of the delta-weight space of the enveloping algebra
    of the strictly upper-triangular matrices; zero when delta is not a
    nonnegative root combination.

    >>> kostant_dim((1, 0, -1))
    2
    """
    delta = tuple(int(x) for x in delta)
    n = len(delta)
    if sum(delta) != 0:
        return 0
    prefix = list(itertools.accumulate(delta))
    if any(s < 0 for s in prefix[:-1]):
        return 0
    roots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    memo: dict = {}

    def count(d: tuple, idx: int) -> int:
        if idx == len(roots):
            return 1 if not any(d) else 0
        key = (d, idx)
        if key in memo:
            return memo[key]
        i, j = roots[idx]
        pre = list(itertools.accumulate(d))
        top = min(pre[i:j])
        total = 0
        for c in range(top + 1):
            nd = list(d)
            nd[i] -= c
            nd[j] += c
            total += count(tuple(nd), idx + 1)
        memo[key] = total
        return total

    return count(delta, 0)


def dominance_interval(mu, nu) -> list:
    """All kappa with nu >= kappa >= mu in dominance order (empty unless the
    total degrees agree)."""
    mu = tuple(mu)
    nu = tuple(nu)
    if len(mu) != len(nu):
        raise ValueError("weight vectors must share a length")
    n = len(mu)
    if sum(mu) != sum(nu):
        return []
    if n == 1:
        return [mu]
    s = [sum(nu[: t + 1]) - sum(mu[: t + 1]) for t in range(n - 1)]
    if any(x < 0 for x in s):
        return []
    out = []
    for t in itertools.product(*(range(x + 1) for x in s)):
        kappa = [mu[0] + t[0]]
        for p in range(1, n - 1):
            kappa.append(mu[p] + t[p] - t[p - 1])
        kappa.append(mu[n - 1] - t[n - 2])
        out.append(tuple(kappa))
    return out


@dataclass(frozen=True)
class CauchyReport:
    mu: tuple
    nu: tuple
    window: tuple
    lhs: int
    rhs: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "mu": list(self.mu),
            "nu": list(self.nu),
            "window": [list(k) for k in self.window],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ok": self.ok,
        }


def cauchy_window_check(mu, nu, window=None) -> CauchyReport:
    """Check that sum_kappa [x^{rho-mu}] S_{rho-kappa} * [y^nu] S_kappa equals
    the Kostant multiplicity of nu - mu, the sum running over a window that
    must contain every kappa with nu >= kappa >= mu in dominance order."""
    mu = tuple(int(x) for x in mu)
    nu = tuple(int(x) for x in nu)
    if len(mu) != len(nu):
        raise ValueError("weight vectors must share a length")
    n = len(mu)
    needed = dominance_interval(mu, nu)
    if window is None:
        window = needed
    else:
        window = [tuple(int(x) for x in k) for k in window]
        have = set(window)
        missing = [k for k in needed if k not in have]
        if missing:
            raise ValueError(
                f"window misses contributing weights: {sorted(missing)}"
            )
    r = rho(n)
    rmu = tuple(a - b for a, b in zip(r, mu))
    lhs = 0
    for kappa in window:
        rka = tuple(a - b for a, b in zip(r, kappa))
        left = schubert_poly(rka).coeff(rmu)
        if not left:
            continue
        lhs += left * schubert_poly(kappa).coeff(nu)
    rhs = kostant_dim(tuple(a - b for a, b in zip(nu, mu)))
    return CauchyReport(mu, nu, tuple(window), lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# Plethysm

def _check_partition(sigma) -> tuple:
    sigma = tuple(int(p) for p in sigma)
    if any(p <= 0 for p in sigma):
        raise ValueError(f"partition parts must be positive: {sigma}")
    if any(sigma[t] < sigma[t + 1] for t in range(len(sigma) - 1)):
        raise ValueError(f"partition must be weakly decreasing: {sigma}")
    return sigma


def plethysm_eval(sigma, f: LaurentPoly) -> LaurentPoly:
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
        inv = sum(
            1
            for a in range(ell)
            for b in range(a + 1, ell)
            if perm[a] > perm[b]
        )
        term = LaurentPoly.one(f.n)
        for i in range(ell):
            term = term * entry(i, perm[i])
            if term.is_zero():
                break
        det = det + (term if inv % 2 == 0 else -term)
    return det
