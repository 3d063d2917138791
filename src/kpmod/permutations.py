"""Permutation combinatorics: Lehmer codes, transition data, annihilator
exponent tables, and orders on integer weight vectors.

Permutations are bijections of the positive integers fixing all but finitely
many points, stored as the minimal one-line window ``[w(1), ..., w(N)]`` with
an implicit identity tail.  Weight vectors are plain ``tuple[int, ...]`` of a
fixed length ``n``; the vectors with nonnegative entries are exactly the
Lehmer codes of permutations that are increasing beyond position ``n``.

Everything here is a pure function over immutable values.  A code and a
window convert both ways on plain tuples (``_code_window``,
``_window_code``), and the transition step works on windows
(``_transition_window``), so the Schubert transition recursion and the KP
diagrams build no ``Permutation``; the public functions wrap the same
helpers.  One routine, ``_presentation``, reads the annihilator exponents
m_ij of kp(lam) with their pairs, for any integer weight: ``m_table``,
``annihilator_check`` and the character criterion all read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .laurent import _require_count, _require_int, int_tuple

LESS = "less"
EQUAL = "equal"
GREATER = "greater"
INCOMPARABLE = "incomparable"


class Permutation:
    """A finite-support permutation of {1, 2, ...} in one-line notation.

    The stored window is minimal: its last entry is not a fixed point (the
    identity has an empty window).  Instances are immutable and hashable.
    """

    __slots__ = ("window",)

    def __init__(self, images=()):
        window = int_tuple(images, "permutation window")
        if sorted(window) != list(range(1, len(window) + 1)):
            raise ValueError(f"not a one-line permutation window: {list(window)}")
        while window and window[-1] == len(window):
            window = window[:-1]
        object.__setattr__(self, "window", window)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __call__(self, i: int) -> int:
        if i < 1:
            raise ValueError("positions are 1-based")
        return self.window[i - 1] if i <= len(self.window) else i

    @property
    def size(self) -> int:
        """Smallest N such that w(i) = i for all i > N."""
        return len(self.window)

    def one_line(self, n: int) -> tuple:
        """(w(1), ..., w(n)): the window cut or extended by the identity tail."""
        _require_count(n, "one_line n")
        win = self.window
        return win[:n] + tuple(range(len(win) + 1, n + 1))

    def is_identity(self) -> bool:
        return not self.window

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (w*v)(i) = w(v(i))
        n = max(self.size, other.size)
        return Permutation(self(other(i)) for i in range(1, n + 1))

    def inverse(self) -> "Permutation":
        images = [0] * self.size
        for i, v in enumerate(self.window, start=1):
            images[v - 1] = i
        return Permutation(images)

    def length(self) -> int:
        """Number of inversions."""
        return _inversions(self.window)

    def sign(self) -> int:
        return -1 if self.length() % 2 else 1

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.window == other.window

    def __hash__(self):
        return hash(self.window)

    def __repr__(self):
        return f"Permutation({list(self.window)})"

    def to_json(self) -> list:
        return list(self.window)


def _inversions(win) -> int:
    """Number of inversions of a one-line window (any identity tail allowed)."""
    return sum(1 for i, x in enumerate(win) for y in win[i + 1:] if y < x)


def all_permutations(m: int):
    """All elements of S_m (as finite-support permutations)."""
    for images in itertools.permutations(range(1, m + 1)):
        yield Permutation(images)


def _codes(m: int):
    """The codes of S_m, in the order in which :func:`all_permutations`
    yields their permutations: the Lehmer code keeps lexicographic order."""
    return itertools.product(*(range(m - i) for i in range(m)))


# ---------------------------------------------------------------------------
# Lehmer codes

def code(w: Permutation, n: int) -> tuple:
    """Lehmer code (c_1, ..., c_n) of w, c_i = #{j > i : w(j) < w(i)}.

    Raises if w is not increasing beyond position n (so that the code would
    have a nonzero entry past n), naming the offending index.

    >>> code(Permutation([2, 1, 4, 3]), 4)
    (1, 0, 1, 0)
    """
    win = _perm_window(w, "code")
    _require_int(n, "code n")
    if n < 1:
        raise ValueError("n must be positive")
    return _window_code(win, n)


def _perm_window(w, fn: str) -> tuple:
    """The window of w; a ValueError naming ``fn`` unless w is a Permutation."""
    if not isinstance(w, Permutation):
        raise ValueError(f"{fn}: argument w must be a Permutation, got {w!r}")
    return w.window


def _window_code(win, n: int) -> tuple:
    """:func:`code` of the permutation with one-line window ``win`` (any
    identity tail allowed).

    The window holds 1..N, so c_i = w(i) - 1 - #{j < i : w(j) < w(i)} reads
    only the prefix; entries past the window are 0, and those from n + 1 on
    all vanish exactly when the window is increasing from position n + 1.
    """
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


def perm_of(lam) -> Permutation:
    """The unique permutation, increasing beyond position n, with code lam.

    >>> perm_of((1, 0, 1))
    Permutation([2, 1, 4, 3])
    """
    lam = int_tuple(lam, "perm_of code")
    if any(c < 0 for c in lam):
        raise ValueError(f"code entries must be nonnegative: {lam}")
    return Permutation(_code_window(lam))


def _code_window(lam) -> list:
    """The one-line window of perm(lam) for a nonnegative integer code lam,
    of length len(lam) + max(lam) (the identity tail is not cut): each code
    entry pops its value from 1..N, and the rest follow in order."""
    avail = list(range(1, len(lam) + max(lam, default=0) + 1))
    win = [avail.pop(c) for c in lam]
    win.extend(avail)
    return win


# ---------------------------------------------------------------------------
# The m_ij exponent table

@dataclass(frozen=True)
class MTable:
    """The exponents m_ij(w) = #{k > j : w(i) < w(k) < w(j)} for i < j <= n,
    together with the pairs surviving the redundancy rule: (i, j) is pruned
    out when some i < q < j has m_ij = m_iq + m_qj."""

    n: int
    entries: dict   # (i, j) -> m_ij
    pruned: tuple   # sorted pairs kept as essential generators


def m_table(w: Permutation, n: int) -> MTable:
    _perm_window(w, "m_table")
    _require_int(n, "m_table n")
    return _m_table(code(w, n))  # code validates membership


def _m_table(lam) -> MTable:
    """:func:`_presentation` as an :class:`MTable`; raising order is sorted.
    A table is a permutation's: a negative code is refused, as perm_of does."""
    if min(lam, default=0) < 0:
        raise ValueError(f"code entries must be nonnegative: {lam}")
    entries = dict(_presentation(lam))
    pruned = []
    for (i, j), m in entries.items():
        for q in range(i + 1, j):
            if m == entries[(i, q)] + entries[(q, j)]:
                break
        else:
            pruned.append((i, j))
    return MTable(len(lam), entries, tuple(pruned))


def _presentation(lam) -> tuple:
    """((i, j), m_ij) for i < j <= n = len(lam), in raising order (i, then
    j): kp(lam) is U(n+) modulo the left ideal of the e_ij^{m_ij+1}.  Any
    integer weight reads the table of its lift lam + k(1, ..., 1),
    k = max(0, -min lam), which has the same module action and the same m.
    The untrimmed window of the lift's code serves: a trailing fixed point
    exceeds every earlier image, so never lies between w(i) < w(j)."""
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


# ---------------------------------------------------------------------------
# Transition

@dataclass(frozen=True)
class TransitionData:
    """One step of the transition recursion at the maximal descent j:
    v = w t_jk drops the length by one and the branches (i_a, w^(a) = v t_{i_a j})
    all have the same length as w."""

    j: int
    k: int
    v: Permutation
    branches: tuple  # ((i_a, Permutation), ...) with i_1 < i_2 < ...


def transition(w: Permutation) -> TransitionData:
    j, k, v, branches = _transition_window(_perm_window(w, "transition"))
    return TransitionData(
        j, k, Permutation(v), tuple((i, Permutation(b)) for i, b in branches)
    )


def _transition_window(win) -> tuple:
    """:func:`transition` on a one-line window (any identity tail allowed):
    ``(j, k, window of v, ((i_a, window of w^(a)), ...))``, the windows as
    tuples of the same length as ``win``.

    The branches are the i < j with v(i) < v(j) and no v(r) strictly between
    them for i < r < j: scanning i down from j - 1, that is v(i) above every
    earlier hit below v(j).
    """
    j = len(win) - 1
    while j > 0 and win[j - 1] < win[j]:
        j -= 1
    if j <= 0:
        raise ValueError("transition undefined at id")
    wj = win[j - 1]
    k = len(win)
    while win[k - 1] > wj:
        k -= 1
    v = list(win)
    v[j - 1], v[k - 1] = v[k - 1], wj
    vj = v[j - 1]
    branches = []
    best = 0
    for i in range(j - 1, 0, -1):
        vi = v[i - 1]
        if best < vi < vj:
            best = vi
            b = v[:]
            b[i - 1], b[j - 1] = vj, vi
            branches.append((i, tuple(b)))
    branches.reverse()
    return j, k, tuple(v), tuple(branches)


# ---------------------------------------------------------------------------
# Orders on weight vectors

def dominates(mu, lam) -> bool:
    """Dominance: mu - lam is a nonnegative sum of the differences
    e_i - e_{i+1} (equivalently, all partial sums of mu - lam are >= 0 and
    the total is 0).

    >>> dominates((1, 0), (0, 1))
    True
    >>> dominates((0, 1), (1, 0))
    False
    """
    mu = int_tuple(mu, "dominates mu")
    lam = int_tuple(lam, "dominates lam")
    if len(mu) != len(lam):
        raise ValueError("weight vectors must share a length")
    total = 0
    for a, b in zip(mu, lam):
        total += a - b
        if total < 0:
            return False
    return total == 0


def standard_key(lam, shift: int) -> tuple:
    """Sort key of the standard order: the inverse one-line window of
    perm(lam + shift*1), with one shift >= -min(entries) shared by all the
    weights compared.  A larger key is a smaller weight.  Unpadded windows
    compare like identity-padded ones: a prefix continues with the identity
    tail, the smallest continuation.

    Computed without building the permutation (``_standard_key``).

    >>> sorted([(0, 2), (1, 1), (2, 0)], key=lambda w: standard_key(w, 0), reverse=True)
    [(1, 1), (2, 0), (0, 2)]
    """
    _require_int(shift, "standard_key shift")
    lam = tuple(x + shift for x in int_tuple(lam, "standard_key weight"))
    if min(lam, default=0) < 0:
        raise ValueError(f"code entries must be nonnegative: {lam}")
    return _standard_key(lam)


def _standard_key(lam: tuple) -> tuple:
    """``standard_key`` of a checked, shifted weight, a nonnegative int
    tuple: the window of :func:`_code_window` inverted by sorting its
    positions by value, with the fixed-point tail dropped."""
    win = _code_window(lam)
    inv = sorted(range(1, len(win) + 1), key=[0, *win].__getitem__)
    while inv and inv[-1] == len(inv):
        inv.pop()
    return tuple(inv)


def compare(lam, mu, order: str = "standard") -> str:
    """Four-valued comparison of two weight vectors of the same length.

    ``standard`` orders each degree slice by :func:`standard_key` at the
    pair's shift, a larger key being a smaller weight; ``prime`` compares the
    same windows, padded to a common width, in reverse-lex order.  Both return
    ``incomparable`` exactly when the total degrees differ.
    ``dominance`` is the usual (partial) dominance order.

    The keys are built only when the first entries they compare tie; those
    are read off the shifted codes c, w = perm(c).  ``standard`` reads
    w^-1(1), the first i with c_i = 0, else n + 1: a padded identity tail is
    the smallest continuation, so it is the first entry of every key.
    ``prime`` reads w^-1(W): each c_i > 0 counts smaller images at i + 1..N,
    so N = max(i + c_i : c_i > 0), first reached at w^-1(N), and a shorter
    window fixes W.
    """
    lam = int_tuple(lam, "compare lam")
    mu = int_tuple(mu, "compare mu")
    if len(lam) != len(mu):
        raise ValueError("weight vectors must share a length")
    if order == "dominance":
        if lam == mu:
            return EQUAL
        if dominates(mu, lam):
            return LESS
        if dominates(lam, mu):
            return GREATER
        return INCOMPARABLE
    if order not in ("standard", "prime"):
        raise ValueError(f"unknown order {order!r}")
    if lam == mu:
        return EQUAL
    if sum(lam) != sum(mu):
        return INCOMPARABLE
    shift = max(0, -min(min(lam), min(mu)))
    if shift:
        lam = tuple(x + shift for x in lam)
        mu = tuple(x + shift for x in mu)
    if order == "standard":  # 0-based places of 1 and of W, as above
        pa = lam.index(0) if 0 in lam else len(lam)
        pb = mu.index(0) if 0 in mu else len(mu)
    else:
        sa = [i + c if c else 0 for i, c in enumerate(lam)]
        sb = [i + c if c else 0 for i, c in enumerate(mu)]
        top = max(max(sa), max(sb))
        pa = sa.index(top) if top in sa else top
        pb = sb.index(top) if top in sb else top
    if pa != pb:
        return GREATER if pa < pb else LESS
    a, b = _standard_key(lam), _standard_key(mu)
    if order == "prime":
        width = max(len(a), len(b))
        a = (a + tuple(range(len(a) + 1, width + 1)))[::-1]
        b = (b + tuple(range(len(b) + 1, width + 1)))[::-1]
    return GREATER if a < b else LESS


def weight_window(lam) -> list:
    """All nu <= lam under the standard order, sorted increasingly.

    Within a degree slice the order is total, and every nu <= lam satisfies
    |nu| = |lam| and min(nu) >= min(lam); the search box and the shift follow.

    >>> weight_window((0, 1))
    [(1, 0), (0, 1)]
    """
    lam = int_tuple(lam, "weight_window weight")
    n = len(lam)
    if n == 0:
        return [()]
    lo = min(lam)
    total = sum(lam)
    hi = total - (n - 1) * lo
    shift = max(0, -lo)

    def key(nu):
        return _standard_key(tuple(x + shift for x in nu))

    top = key(lam)
    out = []
    for nu in itertools.product(range(lo, hi + 1), repeat=n):
        if sum(nu) == total and key(nu) >= top:
            out.append(nu)
    return sorted(out, key=key, reverse=True)


def rho(n: int) -> tuple:
    """The staircase weight (n-1, n-2, ..., 0)."""
    _require_count(n, "rho n")
    return tuple(range(n - 1, -1, -1))


def contains_2143(w: Permutation) -> bool:
    """Does w contain the pattern 2143 (positions i<j<k<l with
    w(j) < w(i) < w(l) < w(k))?"""
    win = _perm_window(w, "contains_2143")
    N = len(win)
    for j in range(1, N):
        for i in range(j):
            if win[i] <= win[j]:
                continue
            for k in range(j + 1, N):
                if win[k] <= win[i]:
                    continue
                for l in range(k + 1, N):
                    if win[i] < win[l] < win[k]:
                        return True
    return False
