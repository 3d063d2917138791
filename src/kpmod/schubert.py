"""Schubert polynomial calculus over exact integers.

Covers divided differences, the two constructions of Schubert polynomials
(staircase descent and the transition recursion, both on the code's
one-line window with no permutation object, extended to arbitrary integer
weights by monomial shifts), expansion of a Laurent polynomial in the
Schubert basis, the dual coefficient-extraction pairing, Kostant weight
multiplicities of the strictly-upper-triangular enveloping algebra, the
finite Cauchy-window identity relating the two, and Schur-polynomial
plethysm of a nonnegative polynomial by the sign-free branching rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import itemgetter, mul

from .laurent import LaurentPoly, _require_count, _require_int, _require_poly, int_tuple
from .permutations import _code_window, _transition_codes, rho


def divided_difference(i: int, f: LaurentPoly) -> LaurentPoly:
    """The i-th divided difference (f - s_i f)/(x_i - x_{i+1}), exactly.

    Works on f - s_i f: for a term with exponents p > q at positions
    (i, i+1), its coefficient minus that of its mirror image (q, p) is
    divided to the geometric sum between q and p, so the division never
    leaves a remainder.  A term with p < q counts only when its mirror is
    absent, as the mirror with the opposite sign; a symmetric f emits nothing.

    >>> divided_difference(1, LaurentPoly.variable(2, 1)).text()
    '1'
    """
    _require_int(i, "divided difference index")
    _require_poly(f, "divided_difference polynomial")
    n = f.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"divided difference index {i} out of range for n={n}")
    terms = f.terms
    # x^e with (e_i, e_{i+1}) = (q + 1, q) divides to x^e with e_i set to q
    idx = list(range(n))
    idx[i - 1] = i
    gap_one = itemgetter(*idx)
    # a mirror image is in f only if some term has p < q; if none has, as in
    # most steps of the staircase, no term looks its mirror up
    swap = None
    if any(e[i - 1] < e[i] for e in terms):
        idx[i] = i - 1
        swap = itemgetter(*idx)
    out: dict = {}
    get = out.get
    for exp, c in terms.items():
        p, q = exp[i - 1], exp[i]
        if p > q:
            if swap:
                c -= terms.get(swap(exp), 0)
                if not c:
                    continue
        elif p < q:
            mirror = swap(exp)
            if mirror in terms:
                continue
            exp, c, p, q = mirror, -c, q, p
        else:
            continue
        if p == q + 1:
            key = gap_one(exp)
            acc = get(key, 0) + c
            if acc:
                out[key] = acc
            else:
                del out[key]
            continue
        e = list(exp)
        for t in range(q, p):
            e[i - 1] = t
            e[i] = p + q - 1 - t
            key = tuple(e)
            acc = get(key, 0) + c
            if acc:
                out[key] = acc
            else:
                del out[key]
    return LaurentPoly._of(n, out)


# ---------------------------------------------------------------------------
# Schubert polynomials

def schubert_poly(lam, method: str = "transition") -> LaurentPoly:
    """The Schubert polynomial attached to an integer weight vector.

    For nonnegative lam this is the classical polynomial indexed by
    perm(lam); in general it is x^{-k*1} times the polynomial of lam + k*1,
    independent of the shift k.  Both methods agree exactly; ``staircase``
    climbs from perm(lam) by first ascents to a permutation it has built, or
    to the longest element, and divides back down, S_w = d_i S_{w s_i},
    keeping each polynomial it builds; ``transition`` runs the
    maximal-descent identity S_w = x_j S_v + sum_a S_{v t_{i_a j}} on an
    explicit stack, keeping each polynomial it builds, and takes each
    child's code off its parent's: code(v) = code(w) - e_j and
    code(v t_ij) = code(v) + (1 + c) e_i - c e_j, with
    c = #{r > j : v(i) < v(r) < v(j)}.

    >>> schubert_poly((1, 0, 1, 0)).text()
    'x1^2 + x1*x2 + x1*x3'
    """
    lam = int_tuple(lam, "schubert_poly weight")
    if not lam:
        raise ValueError("empty weight vector")
    if method == "transition":
        return _at_weight(_schubert_transition, lam)
    if method == "staircase":
        return _at_weight(_schubert_staircase, lam)
    raise ValueError(f"unknown method {method!r}")


def _at_weight(build, lam: tuple) -> LaurentPoly:
    """x^{-k*1} times build's polynomial of the lift lam + k*1
    (:func:`_lifted`)."""
    k, poly = _lifted(build, lam)
    return poly.shift((-k,) * len(lam)) if k else poly


def _lifted(build, lam: tuple) -> tuple:
    """(k, build's polynomial of the code lam + k*1), for the least k >= 0
    that makes it nonnegative; lam is a nonempty tuple of ints, and a
    nonnegative one is handed to build as it is.  S_lam is x^{-k*1} times
    that polynomial."""
    k = max(0, -min(lam))
    return k, build(tuple(x + k for x in lam) if k else lam)


def _lifted_coeff(lam: tuple, exp: tuple) -> int:
    """[x^exp] S_lam, read off the transition memo as [x^{exp + k*1}]
    S_{lam + k*1}, with no shifted copy."""
    k, poly = _lifted(_schubert_transition, lam)
    return poly.terms.get(tuple(x + k for x in exp) if k else exp, 0)


# one tuple object per exponent value held by either memo below or by a closed
# module's weights (modules._close): a memo polynomial's keys are entries of
# this dict, so the thousands of terms and basis vectors that share an
# exponent share its tuple; emptied by clear_caches with the memos
_exponent_pool: dict = {}


# a one-line window -> its Schubert polynomial in len(window) variables, built
# once by the staircase; emptied by clear_caches
_staircase_memo: dict = {}


def _schubert_staircase(lam: tuple) -> LaurentPoly:
    win = _code_window(lam)
    while len(win) > 1 and win[-1] == len(win):
        win.pop()
    m = len(win)
    top = tuple(range(m, 0, -1))
    # climb by the first ascent i (S_w = d_i S_{w s_i}) to a known window or
    # to w0, whose polynomial is x^rho, then divide back down
    cur, chain = tuple(win), []
    while cur not in _staircase_memo and cur != top:
        i = next(t for t in range(1, m) if cur[t - 1] < cur[t])
        chain.append((cur, i))
        cur = cur[: i - 1] + (cur[i], cur[i - 1]) + cur[i + 1 :]
    poly = _staircase_memo[cur] if cur in _staircase_memo else LaurentPoly.monomial(m, rho(m))
    pool = _exponent_pool.setdefault
    for cur, i in reversed(chain):
        # the division makes a fresh tuple per term: keep its terms, in its
        # order, under the pool's tuples
        terms = divided_difference(i, poly).terms
        pooled = dict(zip(map(pool, terms, terms), terms.values()))
        poly = _staircase_memo[cur] = LaurentPoly._of(m, pooled)
    if m == len(lam):
        return poly
    # a permutation increasing beyond n has a polynomial in x_1..x_n only
    return poly.restrict(len(lam))


# the transition's memo; emptied by clear_caches
_transition_memo: dict = {}


def _schubert_transition(lam: tuple) -> LaurentPoly:
    if lam in _transition_memo:
        return _transition_memo[lam]
    n = len(lam)
    pool = _exponent_pool.setdefault
    # an entry keeps its transition step, taken once, until its children are known
    stack = [(lam, None)]
    while stack:
        cur, step = stack.pop()
        if cur in _transition_memo:
            continue
        if all(cur[t] >= cur[t + 1] for t in range(n - 1)):
            # weakly decreasing code: the polynomial is the single monomial
            _transition_memo[cur] = LaurentPoly._of(n, {pool(cur, cur): 1})
            continue
        if step is None:
            step = _transition_codes(cur)
            stack.append((cur, step))
            stack.extend((c, None) for c in (step[1], *step[2]) if c not in _transition_memo)
            continue
        j, vcode, bcodes = step
        # x_j * S_v, as LaurentPoly.shift builds it, each exponent pooled; the
        # children's keys are pooled already, so the sum adds no new tuple
        terms = {}
        for e, c in _transition_memo[vcode].terms.items():
            e = e[: j - 1] + (e[j - 1] + 1,) + e[j:]
            terms[pool(e, e)] = c
        poly = LaurentPoly._of(n, terms)
        for c in bcodes:
            poly = poly + _transition_memo[c]
        _transition_memo[cur] = poly
    return _transition_memo[lam]


# ---------------------------------------------------------------------------
# Schubert-basis expansion and the dual pairing

def expand_in_schubert(f: LaurentPoly) -> dict:
    """Write f exactly as sum c_mu * S_mu; returns {mu: c_mu} (ints, possibly
    negative).

    Repeatedly subtracts c times the Schubert polynomial of the
    lexicographically least exponent of the running support, term by term
    from one running remainder; supports stay inside finite dominance
    intervals, so the loop terminates.  That exponent mu is
    dominance-minimal in the support: if mu dominated some nu != mu, then at
    the first index where they differ the partial sums of mu - nu, zero
    before it and >= 0 there, would give mu_i > nu_i, so nu would be
    lexicographically smaller than mu.
    """
    _require_poly(f, "expand_in_schubert polynomial")
    res: dict = {}
    work = dict(f.terms)
    if work and not f.n:
        # a constant in no variables: there is no empty-weight S_mu
        raise ValueError("empty weight vector")
    # every key of work is on the heap, pushed as it enters, so the least
    # live entry is min(work); an entry popped after its key left is stale
    heap = list(work)
    heapify(heap)
    get = work.get
    while work:
        pick = heappop(heap)
        c = get(pick)
        if c is None:
            continue
        res[pick] = res.get(pick, 0) + c
        for exp, a in _at_weight(_schubert_transition, pick).terms.items():
            d = c * a
            old = get(exp)
            if old is None:
                heappush(heap, exp)
                work[exp] = -d
            elif old == d:
                del work[exp]
            else:
                work[exp] = old - d
    return {mu: c for mu, c in res.items() if c}


@lru_cache(maxsize=None, typed=True)
def vandermonde(n: int) -> LaurentPoly:
    """The product of (x_i - x_j) over 1 <= i < j <= n."""
    # typed: a cached vandermonde(1) must not answer vandermonde(True)
    _require_count(n, "vandermonde n")
    poly = LaurentPoly.one(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            poly = poly * (LaurentPoly.variable(n, i) - LaurentPoly.variable(n, j))
    return poly


def dual_pairing(f: LaurentPoly, mu) -> int:
    """Coefficient pairing <f, S_{rho-mu}(x^{-1}) * prod (x_i - x_j)>.

    On Schubert polynomials of the same total degree this is the Kronecker
    delta, which makes it an independent coefficient-extraction oracle for
    :func:`expand_in_schubert`.  The product prod (x_i - x_j) is the
    alternant sum_w sgn(w) x^{w rho}, so the pairing is the sum of
    sgn(w) * (f * S_{rho-mu})[w rho] over its n! exponents.  Those n!
    coefficients are read off the packed product of f with S_{rho-mu}
    without decoding it (``LaurentPoly._product_coeffs``); an exponent
    outside the product's exponent box reads 0.  At a Laurent weight
    rho - mu the product is taken with the lift S_{rho-mu+k*1}, and each
    coefficient is read at w rho + k*1.
    """
    _require_poly(f, "dual_pairing polynomial")
    mu = int_tuple(mu, "dual_pairing weight")
    if len(mu) != f.n:
        raise ValueError("weight length must match the variable count")
    if not mu:
        raise ValueError("empty weight vector")
    alternant = vandermonde(f.n).terms
    k, lift = _lifted(_schubert_transition, tuple(a - b for a, b in zip(rho(f.n), mu)))
    coeffs = f._product_coeffs(lift, alternant, k)
    return sum(map(mul, alternant.values(), coeffs))


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
    # validated before the cache: True and 1.0 equal and hash like 1, so a
    # cached int weight would otherwise answer them
    return _kostant_count(int_tuple(delta, "kostant_dim weight"))


# the distinct deltas of a Cauchy sweep are few and each is asked for many
# times; emptied by clear_caches
@lru_cache(maxsize=1024)
def _kostant_count(delta: tuple) -> int:
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
    mu = int_tuple(mu, "dominance_interval weight")
    nu = int_tuple(nu, "dominance_interval weight")
    if len(mu) != len(nu):
        raise ValueError("weight vectors must share a length")
    n = len(mu)
    if sum(mu) != sum(nu):
        return []
    if n <= 1:
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


def cauchy_window_check(mu, nu) -> CauchyReport:
    """Check that sum_kappa [x^{rho-mu}] S_{rho-kappa} * [y^nu] S_kappa equals
    the Kostant multiplicity of nu - mu, the sum running over the window of
    every kappa with nu >= kappa >= mu in dominance order (its only
    contributors)."""
    mu = int_tuple(mu, "cauchy_window_check mu")
    nu = int_tuple(nu, "cauchy_window_check nu")
    if not mu:
        raise ValueError("cauchy_window_check needs a nonempty mu, got ()")
    window = dominance_interval(mu, nu)
    r = rho(len(mu))
    rmu = tuple(a - b for a, b in zip(r, mu))
    lhs = 0
    for kappa in window:
        left = _lifted_coeff(tuple(a - b for a, b in zip(r, kappa)), rmu)
        if not left:
            continue
        lhs += left * _lifted_coeff(kappa, nu)
    rhs = kostant_dim(tuple(a - b for a, b in zip(nu, mu)))
    return CauchyReport(mu, nu, tuple(window), lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# Plethysm

def _check_partition(sigma) -> tuple:
    sigma = int_tuple(sigma, "partition")
    if any(p <= 0 for p in sigma):
        raise ValueError(f"partition parts must be positive: {sigma}")
    if any(sigma[t] < sigma[t + 1] for t in range(len(sigma) - 1)):
        raise ValueError(f"partition must be weakly decreasing: {sigma}")
    return sigma


def plethysm_eval(sigma, f: LaurentPoly) -> LaurentPoly:
    """s_sigma at the monomials of f, each taken as often as its coefficient,
    which must be nonnegative.

    By the branching rule (Macdonald, *Symmetric Functions and Hall
    Polynomials*, I (5.11)), s_sigma(y_1, ..., y_N) sums, with no signs, over
    the chains of partitions inside sigma in which y_k adds a horizontal
    strip, y_k per box.  ``layer`` maps each partition to its sum so far.  A
    value grows the rows bottom first, a box at a time, so a box enters row r
    while the row above keeps its old length: the strip condition.  With one
    row this is the recursion h_k += y * h_{k-1}.

    >>> plethysm_eval((1, 1), LaurentPoly(2, {(1, 0): 1, (0, 1): 1})).text()
    'x1*x2'
    """
    sigma = _check_partition(sigma)
    _require_poly(f, "plethysm_eval polynomial")
    if any(c < 0 for c in f.terms.values()):
        raise ValueError("plethysm requires nonnegative coefficients")
    ell = len(sigma)
    layer = {(0,) * ell: LaurentPoly.one(f.n)}
    for exp in (e for e, c in f.terms.items() for _ in range(c)):
        for r in range(ell - 1, -1, -1):
            for t in range(sigma[r]):
                grow = [nu for nu in layer if nu[r] == t and (not r or t < nu[r - 1])]
                for nu in grow:
                    key = nu[:r] + (t + 1,) + nu[r + 1 :]
                    p = layer[nu].shift(exp)
                    layer[key] = layer[key] + p if key in layer else p
    return layer.get(sigma) or LaurentPoly.zero(f.n)
