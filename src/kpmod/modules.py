"""Finite-dimensional weight modules over the upper-triangular matrices.

A module is a list of basis weights together with the action of the
raising matrix units e_ij (i < j) of n, the strict upper triangle: one
builder per module computes the image of a basis vector under e_ij as a
sparse exact-rational column, the first time it is asked for, and the
module caches it.  Submodules are closed under the simple e_{i,i+1} alone,
which generate U(n+), starting from weight vectors that enter with their
weights: e_ij sends weight wt to wt + eps_i - eps_j, so a closure follows
its vectors' weights and never looks one up (``_close``).  Two ambients are
never enumerated.  Kraskiewicz-Pragacz, Demazure (key) and the rank-3
modules, and ``diagram_module``, close from the column-wedge vector of a
diagram, which ``_diagram_generator`` builds from one n-bit field of rows
per column, equal columns kept as orbit sums.  Schur-functor images
S^sigma(M) close from wedged row-symmetrized tuples
(``young_symmetrizer_image``, in a ``_Tensor`` of the Lambda^k M, each
wedge keyed through the basis index its power is built on).  Cyclic
submodules and annihilator checks of the diagram generator complete it.

Modules are immutable once constructed (lazy column caches only fill in);
every operation is a pure function, safe for data-parallel sweeps.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .laurent import LaurentPoly, _require_count, _require_int, int_tuple
from .linalg import ONE, Echelon, axpy, reduce, scaled
from .permutations import Permutation, _code_window, _m_table, _perm_window, code, perm_of
from .schubert import _check_partition, _exponent_pool, schubert_poly


class ModuleTooLargeError(RuntimeError):
    """A construction outgrew KP_MAX_DIM (named with its code or weight)."""


def max_dim() -> int:
    """Size cap (env KP_MAX_DIM, default 5000) on dimensions: eager basis
    sizes and closure ranks.

    Raises ValueError unless the variable is a positive integer.
    """
    raw = os.environ.get("KP_MAX_DIM", "5000")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"KP_MAX_DIM must be a positive integer, got {raw!r}")
    return cap


def _too_large(what: str, measure: str, size: int, cap: int) -> ModuleTooLargeError:
    return ModuleTooLargeError(f"{what}: {measure} {size} exceeds the KP_MAX_DIM cap {cap}")


def _check_dim(size: int, what: str) -> None:
    cap = max_dim()
    if size > cap:
        raise _too_large(what, "basis size", size, cap)


class _Action:
    """Operator application on top of ``column(pair, idx)``."""

    __slots__ = ()

    def apply(self, pair, vec: dict) -> dict:
        """Image of a sparse vector under e_pair."""
        out: dict = {}
        for idx, c in vec.items():
            axpy(out, c, self.column(pair, idx))
        return out

    def apply_power(self, pair, vec: dict, k: int) -> dict:
        for _ in range(k):
            if not vec:
                return vec
            vec = self.apply(pair, vec)
        return vec

    def simple_images(self, vec: dict, want: int) -> list:
        """Images of a sparse vector under the ``simple_pairs``, in order;
        ``want`` holds bit n - b for each e_{b,b+1} to take, and the images
        of the others are left empty."""
        n = self.n
        return [self.apply(pair, vec) if want >> n - pair[0] & 1 else {} for pair in _pairs(n)[0]]

    def simple_pairs(self) -> tuple:
        return _pairs(self.n)[0]

    def raising_pairs(self) -> tuple:
        return _pairs(self.n)[1]


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """(simple pairs (i, i + 1), raising pairs (i, j), i < j) of n, built once."""
    raising = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return tuple(p for p in raising if p[1] == p[0] + 1), raising


@lru_cache(maxsize=None)
def _simple_bits(n: int) -> tuple:
    """A set of simple e_{b,b+1} as one field of rows, bit n - b for row b,
    the way ``simple_images`` reads it: (the bit of each simple pair, the
    field of e_1 .. e_{a+1} for each simple e_a, and for each e_a that
    table with e_a's own entry cut to e_1 .. e_a), built once per n."""
    bits = tuple(1 << n - a for a, _ in _pairs(n)[0])
    nexts = tuple(sum(bits[:a + 1]) for a in range(1, len(bits) + 1))
    twice = tuple(nexts[:a - 1] + (sum(bits[:a]),) + nexts[a:] for a in range(1, len(bits) + 1))
    return bits, nexts, twice


class WeightModule(_Action):
    """Weight module given by basis weights and a column builder.

    ``column(pair, idx)`` is the image of the idx-th basis vector under the
    raising matrix unit ``e_pair``; vectors are dicts {basis index: int, or
    Fraction where not integral}.
    ``builder(pair, idx)`` computes it once and the module caches it; without
    a builder every e_ij acts by zero.  ``moves(pair)`` holds the same columns
    as one table over the whole basis, which a tensor product containing the
    module as a factor walks.  ``generator``, when set, generates the
    module (M = U(n+) generator); ``young_symmetrizer_image`` relies on that.
    """

    __slots__ = ("n", "weights", "generator", "_cols", "_moves", "_builder", "_wspaces", "_levels")

    def __init__(self, n, weights, builder=None, generator=None):
        _require_count(n, "WeightModule n")
        weights = tuple(int_tuple(w, "WeightModule weight") for w in weights)
        for w in weights:
            if len(w) != n:
                raise ValueError(f"WeightModule weight {w} has length {len(w)}, not n = {n}")
        self._set(n, weights, builder, dict(generator) if generator is not None else None)

    @classmethod
    def _of(cls, n: int, weights, builder=None, generator=None) -> "WeightModule":
        """Derived modules only: weights already clean (length-n int tuples
        summed from checked ones), the generator kept as given, no checks."""
        res = cls.__new__(cls)
        res._set(n, tuple(weights), builder, generator)
        return res

    def _set(self, n, weights, builder, generator) -> None:
        self.n, self.weights = n, weights
        self._cols: dict = {}  # pair -> {basis index: column}, a pair's dict made on first use
        self._moves: dict = {}
        self._builder = builder
        self.generator = generator
        self._wspaces = None
        self._levels = None  # the sorted distinct weights, for sort_weights

    @property
    def dim(self) -> int:
        return len(self.weights)

    def column(self, pair, idx) -> dict:
        col = self._cols.get(pair)
        if col is None:
            if pair not in self.raising_pairs():
                raise KeyError(f"operator {pair} is not a raising pair of n = {self.n}")
            col = self._cols[pair] = {}
        if idx not in col:
            if self._builder is None:
                return {}
            col[idx] = self._builder(pair, idx)
        return col[idx]

    def moves(self, pair) -> tuple:
        """The move table of e_pair: for each basis index t, the nonzero
        entries of ``column(pair, t)`` as (row - t, coeff) tuples, built over
        the whole basis the first time and cached like the columns."""
        table = self._moves.get(pair)
        if table is None:
            table = self._moves[pair] = tuple(
                tuple((r - t, c) for r, c in self.column(pair, t).items()) for t in range(self.dim)
            )
        return table

    def weight_spaces(self) -> dict:
        if self._wspaces is None:
            ws: dict = {}
            for t, w in enumerate(self.weights):
                ws.setdefault(w, []).append(t)
            self._wspaces = ws
        return self._wspaces

    def weight_of(self, vec: dict) -> tuple:
        wts = {self.weights[i] for i in vec}
        if len(wts) != 1:
            raise ValueError("not a homogeneous weight vector")
        return wts.pop()

    def character(self) -> LaurentPoly:
        counts: dict = {}
        for w in self.weights:
            counts[w] = counts.get(w, 0) + 1
        return LaurentPoly._of(self.n, counts)

    def to_json(self) -> dict:
        actions = {}
        for pair in self.raising_pairs():
            entries = []
            for cidx in range(self.dim):
                for ridx, c in self.column(pair, cidx).items():
                    entries.append([ridx, cidx, str(c)])
            entries.sort(key=lambda e: (e[0], e[1]))
            actions[f"{pair[0]},{pair[1]}"] = entries
        return {
            "n": self.n,
            "weights": [list(w) for w in self.weights],
            "actions": actions,
        }

    def __repr__(self):
        return f"<WeightModule n={self.n} dim={self.dim}>"


def _raised(wt: tuple, pair, k: int = 1) -> tuple:
    """Weight of e_pair^k applied to a vector of weight wt: the weight
    wt + k (eps_i - eps_j) for pair (i, j)."""
    w = list(wt)
    w[pair[0] - 1] += k
    w[pair[1] - 1] -= k
    return tuple(w)


# ---------------------------------------------------------------------------
# Plain constructors

def one_dim(lam) -> WeightModule:
    """The one-dimensional module of weight lam (every e_ij acts by zero)."""
    lam = int_tuple(lam, "one_dim weight")
    return WeightModule(len(lam), [lam], generator={0: ONE})


def vector_rep(n: int) -> WeightModule:
    """K^n with e_ab u_k = delta_bk u_a."""
    _require_count(n, "vector_rep n")
    weights = [tuple(int(a == k) for a in range(n)) for k in range(n)]
    return WeightModule(n, weights, lambda pair, k: {pair[0] - 1: ONE} if k == pair[1] - 1 else {})


def _weight_sum(n: int, weights) -> tuple:
    acc = [0] * n
    for w in weights:
        for p, x in enumerate(w):
            acc[p] += x
    return tuple(acc)


def tensor_many(factors, n=None) -> WeightModule:
    """Tensor product of a list of modules (Leibniz action slot by slot).

    The empty product is the trivial module, which needs an explicit n; an
    n given with factors must be theirs.
    """
    factors = list(factors)
    if n is not None:
        _require_count(n, "tensor_many n")
    if not factors:
        if n is None:
            raise ValueError("empty tensor product needs an explicit n")
        return one_dim((0,) * n)
    n0 = factors[0].n
    if any(F.n != n0 for F in factors):
        raise ValueError("mixed ranks in a tensor product")
    if n is not None and n != n0:
        raise ValueError(f"tensor_many n = {n} contradicts the factors' n = {n0}")
    dims = [F.dim for F in factors]
    total = math.prod(dims)
    if total == 0:
        return WeightModule(n0, [])
    _check_dim(total, f"tensor_many of dimensions {dims}")
    weights = [
        _weight_sum(n0, (F.weights[t] for F, t in zip(factors, combo)))
        for combo in itertools.product(*(range(d) for d in dims))
    ]
    return WeightModule._of(n0, weights, _Tensor(factors, n0).column)


class _Tensor(_Action):
    """Action of a tensor product of modules on mixed-radix keys: the digit
    of factor s has stride prod(dims[s+1:]), and e_ij acts by Leibniz, one
    factor at a time.  ``apply`` walks each factor's move table for every
    key of the vector and sums into one output; ``column`` is its image of
    one key."""

    def __init__(self, factors, n: int):
        self.n = n
        dims = [F.dim for F in factors]
        self.slots = [(F, d, math.prod(dims[s + 1:])) for s, (F, d) in enumerate(zip(factors, dims))]

    def apply(self, pair, vec: dict) -> dict:
        out: dict = {}
        for F, d, stride in self.slots:
            # the cached table is read directly: the vectors a closure acts
            # on have one or two keys, and a method call per slot took about
            # a fifth of the time of this loop on them
            try:
                table = F._moves[pair]
            except KeyError:
                table = F.moves(pair)
            for idx, c in vec.items():
                for delta, a in table[idx // stride % d]:
                    key = idx + delta * stride
                    acc = out.get(key, 0) + c * a
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        return out

    def column(self, pair, idx: int) -> dict:
        return self.apply(pair, {idx: ONE})


def _power(M: WeightModule, index: dict, place) -> WeightModule:
    """A power of M on the index tuples of ``index``, each mapped to its
    place in the basis: ``place(others, r, t)`` is the tuple and sign once
    slot t becomes r, or None if that vanishes."""
    combos = list(index)
    weights = [_weight_sum(M.n, (M.weights[b] for b in combo)) for combo in combos]

    def builder(pair, idx):
        combo = combos[idx]
        out: dict = {}
        for t, b in enumerate(combo):
            others = combo[:t] + combo[t + 1:]
            for r, c in M.column(pair, b).items():
                placed = place(others, r, t)
                if placed is None:
                    continue
                key = index[placed[0]]
                acc = out.get(key, 0) + placed[1] * c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return out

    return WeightModule._of(M.n, weights, builder)


def _index(combos) -> dict:
    """{tuple: place} over ``combos``, the basis order of a power."""
    return {c: t for t, c in enumerate(combos)}


def _wedge_place(others, r, t):
    if r in others:
        return None
    m = sum(1 for o in others if o < r)
    return others[:m] + (r,) + others[m:], -1 if (t - m) % 2 else 1


def exterior_power(M: WeightModule, k: int) -> WeightModule:
    """Lambda^k M; k > dim gives the zero module."""
    _require_count(k, "exterior_power k")
    if k == 0:
        return one_dim((0,) * M.n)
    if k > M.dim:
        return WeightModule(M.n, [])
    _check_dim(math.comb(M.dim, k), f"exterior_power {k} of a {M.dim}-dim module")
    return _power(M, _index(itertools.combinations(range(M.dim), k)), _wedge_place)


# ---------------------------------------------------------------------------
# Submodules

class SubmoduleCloser:
    """Incrementally grown submodule, held as one reduced echelon basis per
    weight.  It is closed under the simple e_a = e_{a,a+1} only: every other
    e_ij is an iterated bracket of simple ones, so that is the same
    subspace, and a reduced echelon basis is unique.  Vectors enter with
    their weights and the image of a weight-wt vector under e_ij has weight
    wt + eps_i - eps_j, so the closure never looks up the weight of a basis
    key.

    The closure assumes a genuine U(n+) action: the simple operators of M
    satisfy the commutation relations e_a e_b = e_b e_a, |a - b| >= 2, and
    the Serre relations [e_a, [e_a, e_b]] = 0, |a - b| = 1, as every gl_n
    module does.  On a ``WeightModule`` whose matrices break them the span
    may come out smaller than the closure.

    A seed takes all n - 1 simple images; a vector v = e_a u queued as an
    image takes e_b v for b <= a + 1 only, and for b <= a when u = e_a t
    was itself queued as an e_a image.  The skipped e_b v are in the span
    already.  By induction on the height of v (e_a raises it by one), and
    at one height on b ascending, using that the span at each weight is
    spanned by queued vectors:
    - b >= a + 2 (commuting letters, which have a Cartier-Foata normal
      form): e_b v = e_a (e_b u); e_b u is in the span by induction, a sum
      of queued vectors q of v's height; and each e_a q, a < b, is in it,
      also by induction.
    - b = a + 1 after e_a twice (Serre): e_b v = 2 e_a (e_b u) - e_a e_a
      (e_b t).  e_b u, the image of a vector below v's height, is a sum of
      queued q of v's height, and each e_a q, a < b, is in the span; e_b t
      is a sum of queued vectors below v's height, whose e_a images are in
      the span, sums of queued q of v's height, and each e_a q is in it.
    So the span after each ``add``, and with it the rows, pivots and added
    ranks, is unchanged.

    A full weight space takes nothing.  Over an enumerated ``WeightModule``
    the closure reads dim M_mu off ``weight_spaces()``, 0 at a weight M
    lacks; once the echelon at mu has that rank, no vector is reduced into
    it and no simple image landing there is computed (``simple_images`` is
    not asked for it).  Every vector of M_mu is then in the span, so such an
    insert would be dependent and add no rank, row or queue entry: every
    rank, row and pivot is unchanged.  The diagram ambient and the Schur
    image's tensor of powers are not enumerated and have no sizes, so
    nothing is full there.

    KP_MAX_DIM caps the closure rank, whatever the ambient; an enumerated
    ambient was checked when its basis was built."""

    def __init__(self, M, what: str = "submodule closure"):
        self.module = M
        self.echelons: dict = {}
        self.rank = 0
        self.what = what
        self.cap = max_dim()
        self.bits, self.nexts, self.twice = _simple_bits(M.n)
        spaces = M.weight_spaces() if isinstance(M, WeightModule) else {}
        self.sizes = {wt: len(ts) for wt, ts in spaces.items()}  # dim M_mu, where it is known
        self.blocked: dict = {}  # weight -> the bits of the simple pairs whose images land in a full space
        pairs = M.simple_pairs()
        for wt in spaces:
            lacks = sum(bit for bit, pair in zip(self.bits, pairs) if _raised(wt, pair) not in spaces)
            if lacks:
                self.blocked[wt] = lacks

    def _insert(self, wt: tuple, vec: dict, want: int, wants: tuple, queue: list, added: dict) -> None:
        ech = self.echelons.get(wt)
        if ech is None:  # a weight met first (seeds lie in M, so its space is not empty)
            ech = self.echelons[wt] = Echelon()
        elif len(ech.rows) == self.sizes.get(wt):
            return
        if ech.insert(vec) is not None:
            self.rank += 1
            if self.rank > self.cap:
                raise _too_large(f"{self.what} at weight {wt}", "closure rank", self.rank, self.cap)
            added[wt] = added.get(wt, 0) + 1
            queue.append((wt, vec, want, wants))
            if self.sizes and len(ech.rows) == self.sizes.get(wt):
                self._fill(wt)

    def _fill(self, wt: tuple) -> None:
        """Block e_{b,b+1} at each weight of M it raises to the now full wt."""
        blocked = self.blocked
        for bit, pair in zip(self.bits, self.module.simple_pairs()):
            below = _raised(wt, pair, -1)
            if below in self.sizes:
                blocked[below] = blocked.get(below, 0) | bit

    def add(self, vecs) -> dict:
        """Close the span of vecs together with the current subspace.

        ``vecs`` yields nonzero (weight, vector) pairs, each vector lying in
        the weight space of its weight.  Returns {weight: rank added there};
        summed over calls, these ranks are the character of the closure."""
        added: dict = {}
        # (weight, vector, the rows of the simple images to take, and the
        # rows each of those images takes in turn)
        queue: list = []
        every, nexts = sum(self.bits), self.nexts
        for wt, v in vecs:
            self._insert(wt, v, every, nexts, queue, added)
        pairs, twice, blocked = self.module.simple_pairs(), self.twice, self.blocked
        while queue:
            wt, v, want, wants = queue.pop()
            want &= ~blocked.get(wt, 0)
            for pair, nxt, after, img in zip(pairs, wants, twice, self.module.simple_images(v, want)):
                if img:
                    self._insert(_raised(wt, pair), img, nxt, after, queue, added)
        return added


def _express(vec: dict, pivots: dict, rows: list) -> dict:
    """Coordinates of vec on a closed module's rows; ValueError if vec is not in their span."""
    coords: dict = {}
    if reduce(vec, pivots, rows, coords):
        raise ValueError("subspace is not stable under the module action")
    return coords


def _closed_column(M, rows: list, pivots: dict, pair, t: int) -> dict:
    """A closed module's column: row t's image under e_pair in M, on the rows."""
    return _express(M.apply(pair, rows[t]), pivots, rows)


def _close(M, seeds, what: str, generator=None) -> WeightModule:
    """The closure in M of ``seeds`` (as ``SubmoduleCloser.add`` takes them,
    ``what`` naming it in a size error) on its echelon rows, by weight and
    pivot; it keeps the rows, each pivot's basis index (a key of M lies in
    one weight space) and the weights, pooled with the Schubert memos'
    exponents, and drops the closer.  ``_closed_column`` bound to that data
    expresses a row's image under e_ij on demand (ValueError if it leaves
    the closure).  ``generator``, a (weight, vector) pair in it, generates."""
    closer = SubmoduleCloser(M, what)
    closer.add(seeds)
    weights, rows, pivots = [], [], {}
    for wt in sorted(closer.echelons):
        ech = closer.echelons[wt]
        wt = _exponent_pool.setdefault(wt, wt)
        for p in sorted(ech.pivots):
            pivots[p] = len(rows)
            rows.append(ech.rows[ech.pivots[p]])
            weights.append(wt)
    gen = _express(generator[1], pivots, rows) if generator else None
    return WeightModule._of(M.n, weights, partial(_closed_column, M, rows, pivots), gen)


def cyclic_submodule(M: WeightModule, vec: dict) -> WeightModule:
    """Smallest subspace containing vec closed under the raising operators,
    as a module with induced actions (basis in reduced echelon form per
    weight space).  vec must be a weight vector on basis indices of M, or
    zero, with nonzero int or Fraction coefficients: ValueError otherwise.
    A closure rank above KP_MAX_DIM is a ModuleTooLargeError naming
    "cyclic_submodule at weight ...".  M must carry a genuine U(n+) action,
    its simple e_a satisfying the commutation and Serre relations
    (``SubmoduleCloser``): where its matrices break them, the span may come
    out smaller than the closure.
    """
    for i, c in vec.items():
        if type(i) is not int or not 0 <= i < M.dim:
            raise ValueError(
                f"cyclic_submodule vec: {i!r} is not a basis index of a {M.dim}-dim module"
            )
        if type(c) not in (int, Fraction) or not c:
            raise ValueError(
                f"cyclic_submodule vec: coefficient {c!r} at index {i} "
                "is not a nonzero int or Fraction"
            )
    gen = [(M.weight_of(vec), vec)] if vec else []
    return _close(M, gen, "cyclic_submodule", *gen)


# ---------------------------------------------------------------------------
# Diagram modules: KP and Demazure

class _DiagramAmbient(_Action):
    """The tensor of the Lambda^k K^n over the columns of a diagram, keyed
    by one n-bit field per column, column 0 the highest, with bit n - r set
    when row r is absent; integer order on keys is that of the mixed-radix
    keys of ``tensor_many`` over the ``exterior_power(vector_rep(n), k)``.
    e_ij moves row j of a column to row i: with A_i the bit n - i of every
    field, ``key & A_i & ~(key << (j - i))`` has one bit per column holding
    j but not i, and the sign is the parity of its rows between i and j.
    ``_move`` makes every move: ``apply`` on A_i with d = j - i, and
    ``simple_images`` on the A_b of the rows b in ``want``, one field
    copied into every column, with d = 1 (every sign +1).

    ``classes`` labels each column; columns of one label are equal in the
    generator, so every vector met is symmetric under permuting them and is
    kept as orbit sums: only at the least key of each orbit, whose fields
    rise along each class, with the coefficient every key of the orbit has
    there.  That reading is injective, keeps key order and the least key of
    every vector, so echelon rows, pivots and columns are those of the full
    tensor.  A move u -> w counts at the first column of its class holding
    u; its image is re-sorted into the least key c', where it occurs once
    per column of the class holding w in c'."""

    __slots__ = ("n", "_every", "_pairs", "_single", "_fold")

    def __init__(self, classes: tuple, n: int):
        self.n = n
        every = self._every = sum(1 << n * c for c in range(len(classes)))  # bit 0 of every field
        self._pairs = {(i, j): (every << n - i, j - i) for i, j in self.raising_pairs()}  # A_i, j - i
        shifts: dict = {}  # label -> the shifts of its fields, in column order
        for c, label in enumerate(classes):
            shifts.setdefault(label, []).append(n * (len(classes) - 1 - c))
        self._single = sum((1 << n) - 1 << s[0] for s in shifts.values() if len(s) == 1)
        # field f, from the lowest -> (its shift, the shift before it in its class, the class)
        self._fold = [None] * len(classes)
        for s in shifts.values():
            for t, shift in enumerate(s):
                self._fold[shift // n] = (shift, s[t - 1] if t else None, s)

    def _orbit(self, key: int, img: int, pos: int, c):
        """(least key, coefficient) of the move of ``key`` to ``img``, with
        coefficient c, at bit pos of a repeated column: 0 where an earlier
        column of its class holds the same field."""
        n, mask = self.n, (1 << self.n) - 1
        shift, prev, s = self._fold[pos // n]
        before = -1 if prev is None else key >> prev & mask
        if before == key >> shift & mask:
            return img, 0
        w = img >> shift & mask
        if before < w:  # the class still rises, and no other column holds w
            return img, c
        fields = sorted([img >> t & mask for t in s])
        for t, f in zip(s, fields):
            img ^= ((img >> t ^ f) & mask) << t
        return img, c * fields.count(w)

    def _move(self, vec: dict, mask: int, d: int, images: list) -> None:
        """The one move pass: each bit of ``mask`` at a row i absent from a key
        of vec, row i + d present, adds that move's image to images[i - 1]."""
        n, single = self.n, self._single
        for key, c in vec.items():
            cand = key & mask & ~(key << d)
            while cand:
                low = cand & -cand
                cand ^= low
                pos = low.bit_length() - 1
                img, s = key ^ low ^ low >> d, c
                # the d - 1 bits below low are the rows between; set = absent
                if d > 1 and (d - 1 + (key & low - (low >> d - 1)).bit_count()) & 1:
                    s = -c
                if not low & single:
                    img, s = self._orbit(key, img, pos, s)
                out = images[n - 1 - pos % n]
                acc = out.get(img, 0) + s
                if acc:
                    out[img] = acc
                else:  # cancelled, or a move that did not count
                    out.pop(img, None)

    def apply(self, pair, vec: dict) -> dict:
        try:
            a, d = self._pairs[pair]
        except KeyError:
            raise KeyError(f"operator {pair} is not a raising pair of n = {self.n}") from None
        out: dict = {}
        self._move(vec, a, d, [out] * (self.n - 1))  # every bit of A_i lands at row i
        return out

    def simple_images(self, vec: dict, want: int) -> list:
        images = [{} for _ in range(self.n - 1)]
        self._move(vec, self._every * want, 1, images)
        return images


#: One ambient per (column classes, n): the masks depend on nothing else.
_diagram_ambient = lru_cache(maxsize=None)(_DiagramAmbient)


def diagram_module(columns, n: int) -> WeightModule:
    """Cyclic U(n+)-module generated by the column-wedge vector of a diagram:
    ``columns`` lists one set of rows (1..n) per column, and the generator
    is the tensor of the wedges of their rows, in a ``_DiagramAmbient``
    (``_diagram_generator`` of the columns' fields).  The closure starts
    from the generator's weight, which counts the columns that hold each
    row, and never enumerates or weighs the ambient.  KP_MAX_DIM caps the
    closure rank.

    >>> diagram_module([[1], [3]], 4).dim     # kp_module((1, 0, 1, 0))
    3
    >>> diagram_module([[1, 3]], 4).dim       # demazure_module((1, 0, 1, 0))
    2
    """
    _require_count(n, "diagram_module n")
    columns = [int_tuple(rows, "diagram_module column") for rows in columns]
    for rows in columns:
        if len(set(rows)) != len(rows) or not set(rows) <= set(range(1, n + 1)):
            raise ValueError(f"diagram_module: column {list(rows)} is not a set of rows in 1..{n}")
    wt = tuple(sum(r in rows for rows in columns) for r in range(1, n + 1))
    amb, gen = _diagram_generator([sum(1 << n - r for r in rows) for rows in columns], wt, n)
    return _close(amb, [gen], "diagram_module", gen)


def _diagram_generator(fields, wt: tuple, n: int) -> tuple:
    """The ``_DiagramAmbient`` of a diagram given by one n-bit field per
    column, bit n - r set for each row r the column holds, and its
    column-wedge generator (wt, {key: 1}).  Equal fields are one class,
    labelled by their first column; the key holds each field's complement,
    column 0 the highest."""
    first: dict = {}
    classes, key, full = [], 0, (1 << n) - 1
    for c, field in enumerate(fields):
        classes.append(first.setdefault(field, c))
        key = key << n | full ^ field
    return _diagram_ambient(tuple(classes), n), (wt, {key: ONE})


def young_symmetrizer_image(M: WeightModule, sigma) -> WeightModule:
    """The Schur functor S^sigma(M), the image of the Young symmetrizer
    a_sigma b_sigma (rows symmetrized, columns antisymmetrized) on
    M^{(x) k}, k = |sigma|, closed in the ``_Tensor`` of the Lambda^k M
    over the columns of sigma (M itself for a length-one column), where each
    column wedge finds its key in the basis index of its power.  Wedging
    each column's factors is injective on im(b_sigma) and turns b_sigma into
    a sign, so it carries im(b_sigma a_sigma), a copy of S^sigma(M), onto
    the span of the wedged a_sigma x; if M = U(n+) g, the x whose first
    index lies in the support of ``M.generator`` suffice.  More rows than
    dim M give the zero module.  Raises ValueError unless sigma is a
    partition, and ModuleTooLargeError when the row terms (the product of
    the factorials of the parts), the seed tuples x (counted before any is
    wedged), the basis of an exterior power of M over a column (counted
    before the power is built) or the closure rank exceed KP_MAX_DIM.
    """
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
    indexes = {}
    for k in dict.fromkeys(k for k in lengths if k > 1):
        size = math.comb(M.dim, k)
        if size > cap:
            raise _too_large(what, f"exterior_power {k} basis size", size, cap)
        indexes[k] = _index(itertools.combinations(range(M.dim), k))
    powers = {k: _power(M, index, _wedge_place) for k, index in indexes.items()}
    amb = _Tensor([powers.get(k, M) for k in lengths], M.n)
    # a row term permutes slots within each row; column c takes each row's slot c
    rows = [range(end - part, end) for end, part in zip(itertools.accumulate(sigma), sigma)]
    placements = [
        [[row[c] for row in term if len(row) > c] for c in range(len(lengths))]
        for term in itertools.product(*map(itertools.permutations, rows))
    ]
    columns = [(indexes.get(k), stride) for k, (_, _, stride) in zip(lengths, amb.slots)]

    def seeds():
        for x in itertools.product(*slots):
            acc: dict = {}
            for place in placements:
                key, sign = 0, 1
                for (index, stride), slot in zip(columns, place):
                    if index is None:  # a length-one column
                        key += x[slot[0]] * stride
                        continue
                    col = [x[s] for s in slot]
                    combo = sorted(col)
                    t = index.get(tuple(combo))
                    if t is None:  # a repeated index wedges to zero
                        break
                    if combo != col:
                        sign *= (-1) ** sum(a > b for i, a in enumerate(col) for b in col[i + 1:])
                    key += t * stride
                else:
                    acc[key] = acc.get(key, 0) + sign
            v = {key: c for key, c in acc.items() if c}
            if v:  # of the weight of x: wedging and permuting keep weights
                yield _weight_sum(M.n, (M.weights[b] for b in x)), v

    return _close(amb, seeds(), what)


def _kp_generator(lam: tuple) -> tuple:
    """``_diagram_generator`` of the KP diagram of the code lam, its fields
    read off the window of w = perm(lam + k), k = max(0, -min lam), in one
    pass: column j's field has bit n - r for each row r < j with
    w(r) > w(j), and the nonempty fields are the columns.  The weight is
    lam itself: row r of the inversion diagram holds c_r of its columns,
    and the shift takes k off each entry."""
    n = len(lam)
    k = max(0, -min(lam))
    win = _code_window([x + k for x in lam] if k else lam)
    fields, rows = [], []  # rows: w(1), w(2), .. of the rows before column j
    for j, wj in enumerate(win):
        field, bit = 0, 1 << n
        for x in rows:
            bit >>= 1
            if x > wj:
                field |= bit
        if j < n:
            rows.append(wj)
        if field:
            fields.append(field)
    return _diagram_generator(fields, lam, n)


#: Most KP modules kept: above the distinct codes of one S_6 sweep (720),
#: while a longer sweep (S_7 has 5,040) no longer holds every module.  A
#: module keeps its pooled weights, rows and pivot map, and its columns.
_KP_CACHE_SIZE = 1024


@lru_cache(maxsize=_KP_CACHE_SIZE)
def _kp_cached(lam: tuple, cap: int) -> tuple:
    """(kp_module(lam), its diagram ambient, the generator's key there).  cap,
    the KP_MAX_DIM in force, is part of the key only: a module built under
    one cap is never handed out under another.  A negative code closes its
    lifted code's generator at the weight lam (``_kp_generator``)."""
    amb, seed = _kp_generator(lam)
    (key,) = seed[1]
    return _close(amb, [seed], f"kp_module{lam}", seed), amb, key


def kp_module(lam) -> WeightModule:
    """The cyclic module generated by the diagram vector of perm(lam); its
    character is the Schubert polynomial of lam.  Defined for every integer
    weight via the shift rule; the result carries ``generator`` coordinates
    and its lam-weight space is one-dimensional.

    >>> kp_module((1, 0, 1, 0)).dim
    3
    """
    lam = int_tuple(lam, "kp_module code")
    if not lam:
        raise ValueError("kp_module needs a nonempty code, got ()")
    return _kp_cached(lam, max_dim())[0]


# ---------------------------------------------------------------------------
# Annihilator verification

@dataclass(frozen=True)
class AnnihilatorReport:
    """What the check on kp(code)'s diagram generator shows: each e_ij^{m_ij+1}
    kills it, so the left ideal I_lam they generate lies in its annihilator;
    e_ij^{m_ij} does not kill it where m_ij >= 1; and the module dimension is
    the Schubert polynomial at 1.  It does not show that I_lam is the whole
    annihilator.  The pruned pairs are among all pairs, so ``pruned_ok`` fails
    only where ``annihilated`` does.  The JSON's ``perm`` is perm(code)."""

    code: tuple
    table: object
    failed_annihilation: tuple
    non_sharp: tuple
    pruned_ok: bool
    dim: int
    schubert_value: int

    @property
    def annihilated(self) -> bool:
        return not self.failed_annihilation

    @property
    def all_sharp(self) -> bool:
        return not self.non_sharp

    @property
    def dims_match(self) -> bool:
        return self.dim == self.schubert_value

    @property
    def ok(self) -> bool:
        return self.annihilated and self.pruned_ok and self.dims_match

    def to_json(self) -> dict:
        return {
            "perm": perm_of(self.code).to_json(),
            "n": len(self.code),
            "m": {f"{i},{j}": m for (i, j), m in sorted(self.table.entries.items())},
            "pruned": [list(p) for p in self.table.pruned],
            "annihilated": self.annihilated,
            "failed": [list(p) for p in self.failed_annihilation],
            "non_sharp": [list(p) for p in self.non_sharp],
            "pruned_ok": self.pruned_ok,
            "dim": self.dim,
            "schubert_at_one": self.schubert_value,
            "ok": self.ok,
        }


def annihilator_check(w: Permutation, n: int) -> AnnihilatorReport:
    _perm_window(w, "annihilator_check")
    return _annihilator_check(code(w, n))  # code validates membership


def _annihilator_check(lam: tuple) -> AnnihilatorReport:
    """:func:`annihilator_check` of perm(lam), lam a nonnegative code."""
    table = _m_table(lam)
    S, amb, key = _kp_cached(lam, max_dim())
    failed = []
    non_sharp = []
    for (i, j), m in table.entries.items():
        v = amb.apply_power((i, j), {key: ONE}, m)
        if m >= 1 and not v:
            non_sharp.append((i, j))
        if amb.apply((i, j), v):
            failed.append((i, j))
    failed_set = set(failed)
    pruned_ok = all(p not in failed_set for p in table.pruned)
    sval = schubert_poly(lam).eval_ones()
    return AnnihilatorReport(lam, table, tuple(failed), tuple(non_sharp), pruned_ok, S.dim, sval)


# ---------------------------------------------------------------------------
# Demazure modules

def demazure_module(lam) -> WeightModule:
    """The Demazure (key) module of a nonnegative weight lam: the U(b)-closure
    of the extremal weight-lam vector in the irreducible gl_n module of
    highest weight lam+, the decreasing sort of lam.  That vector is the
    column wedge of the key diagram, whose column c holds the rows
    {i : lam_i >= c}, so row i holds lam_i columns and the generator's
    weight is lam.  The module closes that generator, built from the
    columns' fields by ``_diagram_generator``, under raising operators
    only.  Its character is the key polynomial pi_w x^{lam+}.
    """
    lam = int_tuple(lam, "demazure_module weight")
    if not lam:
        raise ValueError("demazure_module needs a nonempty weight, got ()")
    if any(x < 0 for x in lam):
        raise ValueError("Demazure construction needs a nonnegative weight")
    n = len(lam)
    fields = [sum(1 << n - i for i, x in enumerate(lam, 1) if x >= c) for c in range(1, max(lam) + 1)]
    amb, gen = _diagram_generator(fields, lam, n)
    return _close(amb, [gen], f"demazure_module{lam}", gen)


# ---------------------------------------------------------------------------
# Rank-3 checks (verification suites)

@dataclass(frozen=True)
class Sl3Report:
    kind: str
    params: dict
    checks: tuple  # (description, bool)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "checks": [[name, passed] for name, passed in self.checks],
            "ok": self.ok,
        }


def _sl3_module(a: int, b: int):
    """The ``_DiagramAmbient`` of a columns {2, 3} and b columns {3}, whose
    orbit sums are S^a(Lambda^2 K^3) (x) S^b(K^3), and its generator
    (u_2 ^ u_3)^a (x) u_3^b, a (weight, vector) pair with a fresh dict."""
    _require_int(a, "rank-3 module a")
    _require_int(b, "rank-3 module b")
    return _diagram_generator([0b011] * a + [0b001] * b, (0, a, a + b), 3)


E12, E13, E23 = (1, 2), (1, 3), (2, 3)

#: Largest exponent the rank-3 checks accept.
_SL3_BOUND = 10


def sl3_presentation_check(a: int, b: int) -> Sl3Report:
    """The generator of S^a(Lambda^2 K^3) (x) S^b(K^3) is annihilated by
    e_12^{a+1} and e_23^{b+1}, sharply, and its cyclic closure has the Weyl
    dimension (a+1)(b+1)(a+b+2)/2.  So the left ideal I of those powers lies
    in the generator's annihilator, and the closure is a quotient of U(n+)/I
    of the Weyl dimension.  It does not show the other inclusion, that I is
    the whole annihilator, which needs dim U(n+)/I <= the Weyl dimension
    (ROADMAP item 11)."""
    if not (0 <= a <= _SL3_BOUND and 0 <= b <= _SL3_BOUND):
        raise ValueError(f"parameters must lie in [0, {_SL3_BOUND}]")
    M, (wt, g) = _sl3_module(a, b)
    v12, v23 = M.apply_power(E12, g, a), M.apply_power(E23, g, b)
    checks = [
        (f"e12^{a + 1} annihilates the generator", not M.apply(E12, v12)),
        (f"e23^{b + 1} annihilates the generator", not M.apply(E23, v23)),
    ]
    if a:
        checks.append((f"e12^{a} does not annihilate", bool(v12)))
    if b:
        checks.append((f"e23^{b} does not annihilate", bool(v23)))
    d = _close(M, [(wt, g)], f"sl3_presentation_check{(a, b)}").dim
    weyl = (a + 1) * (b + 1) * (a + b + 2) // 2
    checks.append((f"cyclic closure dimension {d} equals {weyl}", d == weyl))
    return Sl3Report("presentation", {"a": a, "b": b}, tuple(checks))


def _proportional(u: dict, v: dict) -> bool:
    """True when v is nonzero and u lies in its span."""
    if not v:
        return False
    k = min(v)
    return u == scaled(v, Fraction(u.get(k, 0)) / v[k])


def _apply_word(mod, g: dict, word) -> dict:
    """A word, (pair, power) factors acting right to left, applied to g."""
    for pair, k in reversed(word):
        g = mod.apply_power(pair, g, k)
    return g


def _word_text(word) -> str:
    return " ".join(f"e{i}{j}^{k}" for (i, j), k in word)


def sl3_identity_check(case: int, N: int, M: int, N2=None, M2=None) -> Sl3Report:
    """Operator congruences in the strict upper triangle of gl_3, verified by
    acting on the generator of the cyclic module that realizes the quotient
    by <e_12^{a+1}, e_23^{b+1}>.

    Cases, each one row ((a, b), lhs word, (phrase, scalar), rhs word) of a
    table that both computes the check and prints it (words act right to
    left; all mod the ideal of the stated (a,b)):
      1: e_13^N e_23^M = 0            in (a,b) = (N', M') when N+M > N'+M'
      2: e_12^N e_13^M = 0            likewise
      3: e_13^N = (-1)^N/N! e_23^N e_12^N   in (a,b) = (M, 0)
      4: e_13^N = 1/N! e_12^N e_23^N        in (a,b) = (0, M)
      5: e_12^{N+M+1} e_23^M = 0            in (a,b) = (N, M)
      6: e_12^N e_23^M lies in the left ideal generated additionally by
         e_13^N: witnessed in (a,b) = (0, M) by proportionality to
         e_23^{M-N} e_13^N (zero outright when N > M)
    """
    params = {"case": case, "N": N, "M": M}
    for name, x in (("case", case), ("N", N), ("M", M), ("N2", N2), ("M2", M2)):
        if x is not None:
            _require_int(x, f"sl3_identity_check {name}")
    vals = [N, M] + [x for x in (N2, M2) if x is not None]
    if any(x < 0 or x > _SL3_BOUND for x in vals):
        raise ValueError(f"parameters must lie in [0, {_SL3_BOUND}]")
    if case in (1, 2):
        if N2 is None or M2 is None:
            raise ValueError("cases 1 and 2 need the primed exponents")
        if N + M <= N2 + M2:
            raise ValueError("cases 1 and 2 require N + M > N' + M'")
        params.update({"N2": N2, "M2": M2})
    vanishes = ("vanishes", None)
    inverse = Fraction(1, math.factorial(N))
    witness = (vanishes, ()) if N > M else (("is a multiple of", None), ((E23, M - N), (E13, N)))
    table = {
        1: ((N2, M2), ((E13, N), (E23, M)), vanishes, ()),
        2: ((N2, M2), ((E12, N), (E13, M)), vanishes, ()),
        3: ((M, 0), ((E13, N),), (f"matches (-1)^{N}/{N}!", (-1) ** N * inverse), ((E23, N), (E12, N))),
        4: ((0, M), ((E13, N),), (f"matches 1/{N}!", inverse), ((E12, N), (E23, N))),
        5: ((N, M), ((E12, N + M + 1), (E23, M)), vanishes, ()),
        6: ((0, M), ((E12, N), (E23, M)), *witness),
    }
    if case not in table:
        raise ValueError(f"unknown identity case {case}")
    (a, b), lhs, (phrase, scalar), rhs = table[case]
    mod, (_, g) = _sl3_module(a, b)
    u, v = _apply_word(mod, g, lhs), _apply_word(mod, g, rhs)
    if scalar is not None:
        passed = u == scaled(v, scalar)
    elif rhs:
        passed = _proportional(u, v)
    else:
        passed = not u
    desc = " ".join(filter(None, (_word_text(lhs), phrase, _word_text(rhs))))
    return Sl3Report("identity", params, ((f"{desc} on (a,b)=({a},{b})", passed),))
