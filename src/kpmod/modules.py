"""Finite-dimensional weight modules over the upper-triangular matrices.

A module is a list of basis weights together with sparse exact-rational
column maps for the stored matrix units e_ij (raising for i < j, optionally
the transposed lowering maps for full gl builds).  Product-type constructors
build their columns lazily, so large ambient spaces cost only what is
actually touched.  On top of the plain constructors this module provides
cyclic and spanned submodules, quotients by weight sets, Hom spaces,
Kraskiewicz-Pragacz modules, Demazure modules, annihilator verification for
the diagram generator, and the rank-3 operator-identity checks used by the
verification suites.

Modules are immutable once constructed (lazy column caches only fill in);
every operation is a pure function, safe for data-parallel sweeps.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentPoly
from .linalg import ONE, Echelon, axpy, scaled, solve_nullspace
from .permutations import Permutation, code, inversion_data, m_table, perm_of, rho
from .schubert import schubert_poly


class ModuleTooLargeError(RuntimeError):
    pass


def max_dim() -> int:
    """Basis-size cap for constructed modules (env KP_MAX_DIM, default 5000).

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


def _check_dim(d: int) -> None:
    cap = max_dim()
    if d > cap:
        raise ModuleTooLargeError(
            f"construction needs {d} basis vectors, above the KP_MAX_DIM cap {cap}"
        )


def _raising(n: int) -> tuple:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _all_pairs(n: int) -> tuple:
    return tuple(
        (a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b
    )


class WeightModule:
    """Weight module given by basis weights and sparse action columns.

    ``column(pair, idx)`` is the image of the idx-th basis vector under the
    matrix unit ``e_pair``; vectors are dicts {basis index: Fraction}.
    """

    __slots__ = ("n", "weights", "pairs", "labels", "generator", "_cols", "_builder", "_wspaces")

    def __init__(self, n, weights, pairs, columns=None, builder=None, labels=None, generator=None):
        self.n = int(n)
        self.weights = tuple(tuple(int(x) for x in w) for w in weights)
        self.pairs = tuple(sorted(pairs))
        self._cols = {
            p: (dict(columns[p]) if columns and p in columns else {}) for p in self.pairs
        }
        self._builder = builder
        self.labels = tuple(labels) if labels is not None else None
        self.generator = dict(generator) if generator is not None else None
        self._wspaces = None

    @property
    def dim(self) -> int:
        return len(self.weights)

    def raising_pairs(self) -> tuple:
        return tuple(p for p in self.pairs if p[0] < p[1])

    def simple_pairs(self) -> tuple:
        return tuple((i, i + 1) for i in range(1, self.n))

    def basis_vector(self, t: int) -> dict:
        return {t: ONE}

    def column(self, pair, idx) -> dict:
        try:
            col = self._cols[pair]
        except KeyError:
            raise KeyError(f"operator {pair} is not stored on this module") from None
        if idx not in col:
            if self._builder is None:
                return {}
            col[idx] = self._builder(pair, idx)
        return col[idx]

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
        return LaurentPoly(self.n, counts)

    def to_json(self) -> dict:
        actions = {}
        for pair in self.pairs:
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


def _components(M: WeightModule, vec: dict):
    comp: dict = {}
    for i, c in vec.items():
        comp.setdefault(M.weights[i], {})[i] = c
    return comp.items()


def _materialized_columns(M: WeightModule) -> dict:
    if M._builder is not None:
        for pair in M.pairs:
            for idx in range(M.dim):
                M.column(pair, idx)
    return M._cols


# ---------------------------------------------------------------------------
# Plain constructors

def one_dim(lam) -> WeightModule:
    """The one-dimensional module of weight lam (every e_ij acts by zero)."""
    lam = tuple(int(x) for x in lam)
    return WeightModule(len(lam), [lam], _raising(len(lam)), generator={0: ONE})


def vector_rep(n: int, lowering: bool = False) -> WeightModule:
    """K^n with e_ab u_k = delta_bk u_a; pass lowering=True for the full
    gl_n set of matrix units."""
    pairs = _all_pairs(n) if lowering else _raising(n)
    columns = {(a, b): {b - 1: {a - 1: ONE}} for (a, b) in pairs}
    weights = []
    for k in range(n):
        w = [0] * n
        w[k] = 1
        weights.append(tuple(w))
    return WeightModule(n, weights, pairs, columns=columns, labels=range(n))


def _digits(idx: int, dims) -> list:
    out = []
    for d in reversed(dims):
        idx, r = divmod(idx, d)
        out.append(r)
    out.reverse()
    return out


def _fold(digits, dims) -> int:
    idx = 0
    for g, d in zip(digits, dims):
        idx = idx * d + g
    return idx


def tensor_many(factors, n=None) -> WeightModule:
    """Tensor product of a list of modules (Leibniz action slot by slot).

    The empty product is the trivial module, which needs an explicit n.
    """
    factors = list(factors)
    if not factors:
        if n is None:
            raise ValueError("empty tensor product needs an explicit n")
        return one_dim((0,) * n)
    n0 = factors[0].n
    if any(F.n != n0 for F in factors):
        raise ValueError("mixed ranks in a tensor product")
    pairs = set(factors[0].pairs)
    for F in factors[1:]:
        pairs &= set(F.pairs)
    pairs = tuple(sorted(pairs))
    dims = [F.dim for F in factors]
    total = 1
    for d in dims:
        total *= d
    if total == 0:
        return WeightModule(n0, [], pairs)
    _check_dim(total)
    weights = []
    for combo in itertools.product(*(range(d) for d in dims)):
        acc = [0] * n0
        for F, t in zip(factors, combo):
            for p, x in enumerate(F.weights[t]):
                acc[p] += x
        weights.append(tuple(acc))

    def builder(pair, idx):
        digits = _digits(idx, dims)
        out: dict = {}
        for s, F in enumerate(factors):
            for r, c in F.column(pair, digits[s]).items():
                nd = list(digits)
                nd[s] = r
                key = _fold(nd, dims)
                acc = out.get(key, 0) + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return out

    return WeightModule(n0, weights, pairs, builder=builder)


def tensor_product(M: WeightModule, N: WeightModule) -> WeightModule:
    return tensor_many([M, N])


def tensor_power(M: WeightModule, k: int) -> WeightModule:
    if k < 0:
        raise ValueError("negative tensor power")
    return tensor_many([M] * k, M.n)


def exterior_power(M: WeightModule, k: int) -> WeightModule:
    """Lambda^k M; k > dim gives the zero module."""
    if k < 0:
        raise ValueError("negative exterior power")
    if k == 0:
        return one_dim((0,) * M.n)
    if k > M.dim:
        return WeightModule(M.n, [], M.pairs)
    combos = list(itertools.combinations(range(M.dim), k))
    _check_dim(len(combos))
    index = {c: t for t, c in enumerate(combos)}
    weights = []
    for combo in combos:
        acc = [0] * M.n
        for b in combo:
            for p, x in enumerate(M.weights[b]):
                acc[p] += x
        weights.append(tuple(acc))

    def builder(pair, idx):
        combo = combos[idx]
        out: dict = {}
        for t, b in enumerate(combo):
            others = combo[:t] + combo[t + 1:]
            for r, c in M.column(pair, b).items():
                if r in others:
                    continue
                m = sum(1 for o in others if o < r)
                new = others[:m] + (r,) + others[m:]
                val = c if (t - m) % 2 == 0 else -c
                key = index[new]
                acc = out.get(key, 0) + val
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return out

    return WeightModule(M.n, weights, M.pairs, builder=builder, labels=combos)


def symmetric_power(M: WeightModule, k: int) -> WeightModule:
    """S^k M in the monomial basis of weakly increasing index tuples."""
    if k < 0:
        raise ValueError("negative symmetric power")
    combos = list(itertools.combinations_with_replacement(range(M.dim), k))
    _check_dim(len(combos))
    index = {c: t for t, c in enumerate(combos)}
    weights = []
    for combo in combos:
        acc = [0] * M.n
        for b in combo:
            for p, x in enumerate(M.weights[b]):
                acc[p] += x
        weights.append(tuple(acc))

    def builder(pair, idx):
        combo = combos[idx]
        out: dict = {}
        for t, b in enumerate(combo):
            others = combo[:t] + combo[t + 1:]
            for r, c in M.column(pair, b).items():
                new = tuple(sorted(others + (r,)))
                key = index[new]
                acc = out.get(key, 0) + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return out

    return WeightModule(M.n, weights, M.pairs, builder=builder, labels=combos)


def dual_twist(M: WeightModule) -> WeightModule:
    """The twisted dual M* (x) K_rho: dual basis, weight of the dual of a
    weight-mu vector is rho - mu, action the negated transpose.

    Public as part of the reference route for the character criterion:
    ``hom_dim(M, dual_twist(kp_module(rho - nu)))`` is what
    ``char_criterion`` computes from the annihilator presentation, and the
    tests compare the two."""
    r = rho(M.n)
    weights = [tuple(a - b for a, b in zip(r, w)) for w in M.weights]
    columns: dict = {}
    for pair in M.pairs:
        col: dict = {}
        for q in range(M.dim):
            for p, c in M.column(pair, q).items():
                col.setdefault(p, {})[q] = -c
        columns[pair] = col
    return WeightModule(M.n, weights, M.pairs, columns=columns)


def shift_weights(M: WeightModule, delta) -> WeightModule:
    """Tensor with the one-dimensional module of weight delta (same actions,
    all weights shifted)."""
    delta = tuple(int(x) for x in delta)
    cols = _materialized_columns(M)
    return WeightModule(
        M.n,
        [tuple(a + b for a, b in zip(w, delta)) for w in M.weights],
        M.pairs,
        columns=cols,
        labels=M.labels,
        generator=M.generator,
    )


# ---------------------------------------------------------------------------
# Submodules and quotients

class SubmoduleCloser:
    """Incrementally grown subspace closed under a fixed operator set,
    held as one reduced echelon basis per weight."""

    def __init__(self, M: WeightModule, pairs=None):
        self.module = M
        self.pairs = tuple(pairs) if pairs is not None else M.raising_pairs()
        self.echelons: dict = {}
        self.rank = 0

    def _insert(self, vec: dict, queue: list) -> None:
        for wt, comp in _components(self.module, vec):
            ech = self.echelons.setdefault(wt, Echelon())
            if ech.insert(comp) is not None:
                self.rank += 1
                _check_dim(self.rank)
                queue.append(comp)

    def add(self, vecs) -> None:
        queue: list = []
        for v in vecs:
            self._insert(v, queue)
        while queue:
            v = queue.pop()
            for pair in self.pairs:
                img = self.module.apply(pair, v)
                if img:
                    self._insert(img, queue)

    def dim_of(self, wt) -> int:
        ech = self.echelons.get(tuple(wt))
        return ech.rank if ech else 0

    def character(self) -> LaurentPoly:
        return LaurentPoly(
            self.module.n, {wt: e.rank for wt, e in self.echelons.items()}
        )

    def pivots(self) -> set:
        out: set = set()
        for ech in self.echelons.values():
            out.update(ech.rows)
        return out


def _submodule_from_closure(M, closer, out_pairs, generator_vec=None) -> WeightModule:
    basis = []
    for wt in sorted(closer.echelons):
        for p in sorted(closer.echelons[wt].rows):
            basis.append((wt, p))
    pos = {key: t for t, key in enumerate(basis)}

    def express(vec):
        out = {}
        for wt, comp in _components(M, vec):
            ech = closer.echelons.get(wt)
            if ech is None:
                raise ValueError("subspace is not stable under the module action")
            try:
                coords = ech.express(comp)
            except ValueError:
                raise ValueError(
                    "subspace is not stable under the module action"
                ) from None
            for p, c in coords.items():
                out[pos[(wt, p)]] = c
        return out

    columns = {}
    for pair in out_pairs:
        col = {}
        for t, (wt, p) in enumerate(basis):
            img = M.apply(pair, closer.echelons[wt].rows[p])
            if img:
                col[t] = express(img)
        columns[pair] = col
    gen = express(generator_vec) if generator_vec else None
    return WeightModule(
        M.n, [wt for wt, _ in basis], out_pairs, columns=columns, generator=gen
    )


def cyclic_submodule(M: WeightModule, vec: dict, generators: str = "simple") -> WeightModule:
    """Smallest subspace containing vec closed under the selected operators,
    as a module with induced actions (basis in reduced echelon form per
    weight space).

    ``simple`` closes under the e_{i,i+1} only, which suffices for closure
    under all raising operators; ``all`` additionally closes under every
    stored pair (for gl builds with lowering maps).
    """
    if generators == "simple":
        close_pairs = M.simple_pairs()
        out_pairs = M.raising_pairs()
    elif generators == "all":
        close_pairs = M.pairs
        out_pairs = M.pairs
    else:
        raise ValueError(f"unknown generator set {generators!r}")
    closer = SubmoduleCloser(M, close_pairs)
    closer.add([vec])
    return _submodule_from_closure(M, closer, out_pairs, generator_vec=vec)


def span_submodule(M: WeightModule, vecs, out_pairs=None) -> WeightModule:
    """Submodule on an explicitly spanned subspace, which must already be
    stable under the requested operators (verified; raises otherwise)."""
    closer = SubmoduleCloser(M, ())
    closer.add(vecs)
    return _submodule_from_closure(
        M, closer, M.raising_pairs() if out_pairs is None else tuple(out_pairs)
    )


@dataclass
class ModuleMap:
    """Linear map between weight modules, stored column-sparse."""

    source: WeightModule
    target: WeightModule
    columns: dict  # source index -> {target index: Fraction}

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


def largest_quotient(M: WeightModule, allowed) -> tuple:
    """Quotient of M by the submodule generated by all weight spaces whose
    weight is outside ``allowed``; returns (quotient, projection map)."""
    allowed = {tuple(int(x) for x in w) for w in allowed}
    closer = SubmoduleCloser(M)
    closer.add(
        [{i: ONE} for i in range(M.dim) if M.weights[i] not in allowed]
    )
    pivots = closer.pivots()
    reps = [i for i in range(M.dim) if i not in pivots]
    pos = {i: t for t, i in enumerate(reps)}

    def project(vec):
        out: dict = {}
        for wt, comp in _components(M, vec):
            ech = closer.echelons.get(wt)
            red = ech.reduce(comp) if ech else comp
            for i, c in red.items():
                acc = out.get(pos[i], 0) + c
                if acc:
                    out[pos[i]] = acc
                else:
                    del out[pos[i]]
        return out

    columns = {}
    for pair in M.raising_pairs():
        col = {}
        for t, i in enumerate(reps):
            img = project(M.apply(pair, {i: ONE}))
            if img:
                col[t] = img
        columns[pair] = col
    Q = WeightModule(
        M.n, [M.weights[i] for i in reps], M.raising_pairs(), columns=columns
    )
    qmap = ModuleMap(M, Q, {c: project({c: ONE}) for c in range(M.dim)})
    return Q, qmap


# ---------------------------------------------------------------------------
# Hom spaces

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


# ---------------------------------------------------------------------------
# Kraskiewicz-Pragacz modules

def _kp_ambient(lam: tuple):
    """Ambient wedge tensor and diagram generator for a nonnegative code.

    One exterior power Lambda^{l_j}(K^n) per nonempty column j of the
    inversion diagram; the generator wedges the column members.
    """
    n = len(lam)
    w = perm_of(lam)
    data = inversion_data(w)
    cols = sorted(j for j, l in data.column_sizes.items() if l > 0)
    if not cols:
        return one_dim((0,) * n), {0: ONE}, w
    base = vector_rep(n)
    factors = []
    gdigits = []
    for j in cols:
        members = sorted(i for (i, jj) in data.inversions if jj == j)
        E = exterior_power(base, len(members))
        gdigits.append(E.labels.index(tuple(i - 1 for i in members)))
        factors.append(E)
    amb = tensor_many(factors)
    idx = _fold(gdigits, [F.dim for F in factors])
    return amb, {idx: ONE}, w


@lru_cache(maxsize=None)
def _kp_cached(lam: tuple) -> WeightModule:
    n = len(lam)
    k = max(0, -min(lam))
    core = tuple(x + k for x in lam)
    amb, gen, _ = _kp_ambient(core)
    sub = cyclic_submodule(amb, gen, "simple")
    if k:
        sub = shift_weights(sub, (-k,) * n)
    return sub


def kp_module(lam) -> WeightModule:
    """The cyclic module generated by the diagram vector of perm(lam); its
    character is the Schubert polynomial of lam.  Defined for every integer
    weight via the shift rule; the result carries ``generator`` coordinates
    and its lam-weight space is one-dimensional.

    >>> kp_module((1, 0, 1, 0)).dim
    3
    """
    lam = tuple(int(x) for x in lam)
    if not lam:
        raise ValueError("kp_module needs a nonempty code, got ()")
    return _kp_cached(lam)


def character(M: WeightModule) -> LaurentPoly:
    return M.character()


# ---------------------------------------------------------------------------
# Annihilator verification

@dataclass(frozen=True)
class AnnihilatorReport:
    """Evidence that the e_ij^{m_ij+1} generate the annihilator of the
    diagram generator: each such power kills it, the observed exponents are
    sharp where m_ij >= 1, the pruned generator subset already annihilates,
    and the module dimension matches the Schubert polynomial at 1."""

    perm: Permutation
    n: int
    table: object
    failed_annihilation: tuple
    non_sharp: tuple
    pruned_ok: bool
    dim: int
    schubert_value: int

    @property
    def generators(self) -> tuple:
        """(i, j, exponent) triples e_ij^{m_ij+1} presenting the annihilator."""
        return tuple(
            (i, j, m + 1) for (i, j), m in sorted(self.table.entries.items())
        )

    @property
    def pruned_generators(self) -> tuple:
        return tuple(
            (i, j, self.table.entries[(i, j)] + 1) for (i, j) in self.table.pruned
        )

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
            "perm": self.perm.to_json(),
            "n": self.n,
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
    lam = code(w, n)
    table = m_table(w, n)
    amb, gen, _ = _kp_ambient(lam)
    failed = []
    non_sharp = []
    for (i, j), m in sorted(table.entries.items()):
        v = amb.apply_power((i, j), gen, m)
        if m >= 1 and not v:
            non_sharp.append((i, j))
        if amb.apply((i, j), v):
            failed.append((i, j))
    failed_set = set(failed)
    pruned_ok = all(p not in failed_set for p in table.pruned)
    S = kp_module(lam)
    sval = schubert_poly(lam).eval_ones()
    return AnnihilatorReport(
        w, n, table, tuple(failed), tuple(non_sharp), pruned_ok, S.dim, sval
    )


# ---------------------------------------------------------------------------
# Demazure modules

def _conjugate(parts: tuple) -> tuple:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1))


def demazure_module(lam) -> WeightModule:
    """U(b)-closure of the weight-lam extremal vector inside the irreducible
    gl_n module whose highest weight is the decreasing sort of lam.

    The irreducible is realized as the gl-cyclic closure of the column-wedge
    highest vector in a tensor of exterior powers; the lam-weight space it
    contains is one-dimensional (extremal), which is checked.
    """
    lam = tuple(int(x) for x in lam)
    if any(x < 0 for x in lam):
        raise ValueError("Demazure construction needs a nonnegative weight")
    n = len(lam)
    parts = tuple(sorted((x for x in lam if x), reverse=True))
    if not parts:
        return one_dim((0,) * n)
    heights = _conjugate(parts)
    base = vector_rep(n, lowering=True)
    factors = [exterior_power(base, h) for h in heights]
    amb = tensor_many(factors, n)
    gdigits = [F.labels.index(tuple(range(h))) for F, h in zip(factors, heights)]
    idx = _fold(gdigits, [F.dim for F in factors])
    irreducible = cyclic_submodule(amb, {idx: ONE}, "all")
    hits = [t for t, wt in enumerate(irreducible.weights) if wt == lam]
    if len(hits) != 1:
        raise RuntimeError(
            f"extremal weight space for {lam} has dimension {len(hits)}; "
            "the irreducible construction is broken"
        )
    return cyclic_submodule(irreducible, {hits[0]: ONE}, "simple")


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
    """S^a(Lambda^2 K^3) (x) S^b(K^3) and its generator
    (u_2 ^ u_3)^a (x) u_3^b."""
    base = vector_rep(3)
    wedge = exterior_power(base, 2)
    Sa = symmetric_power(wedge, a)
    Sb = symmetric_power(base, b)
    M = tensor_many([Sa, Sb], 3)
    i23 = wedge.labels.index((1, 2))
    ga = Sa.labels.index((i23,) * a)
    gb = Sb.labels.index((2,) * b)
    return M, {ga * Sb.dim + gb: ONE}


E12, E13, E23 = (1, 2), (1, 3), (2, 3)


def sl3_presentation_check(a: int, b: int, bound: int = 10) -> Sl3Report:
    """The generator of S^a(Lambda^2 K^3) (x) S^b(K^3) is annihilated by
    e_12^{a+1} and e_23^{b+1}, sharply, and its cyclic closure has the Weyl
    dimension (a+1)(b+1)(a+b+2)/2 -- so the closure is the quotient of the
    enveloping algebra of the strict upper triangle by exactly those powers."""
    if not (0 <= a <= bound and 0 <= b <= bound):
        raise ValueError(f"parameters must lie in [0, {bound}]")
    M, g = _sl3_module(a, b)
    checks = [
        (f"e12^{a + 1} annihilates the generator", not M.apply_power(E12, g, a + 1)),
        (f"e23^{b + 1} annihilates the generator", not M.apply_power(E23, g, b + 1)),
    ]
    if a:
        checks.append((f"e12^{a} does not annihilate", bool(M.apply_power(E12, g, a))))
    if b:
        checks.append((f"e23^{b} does not annihilate", bool(M.apply_power(E23, g, b))))
    d = cyclic_submodule(M, g, "simple").dim
    weyl = (a + 1) * (b + 1) * (a + b + 2) // 2
    checks.append((f"cyclic closure dimension {d} equals {weyl}", d == weyl))
    return Sl3Report("presentation", {"a": a, "b": b}, tuple(checks))


def _proportional(u: dict, v: dict) -> bool:
    """True when u lies in the span of v."""
    if not u:
        return True
    if not v:
        return False
    k = min(u)
    if k not in v:
        return False
    r = u[k] / v[k]
    return u == scaled(v, r)


def sl3_identity_check(case: int, N: int, M: int, N2=None, M2=None, bound: int = 10) -> Sl3Report:
    """Operator congruences in the strict upper triangle of gl_3, verified by
    acting on the generator of the cyclic module that realizes the quotient
    by <e_12^{a+1}, e_23^{b+1}>.

    Cases (products act right to left; all mod the ideal of the stated (a,b)):
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
    vals = [N, M] + [x for x in (N2, M2) if x is not None]
    if any(x < 0 or x > bound for x in vals):
        raise ValueError(f"parameters must lie in [0, {bound}]")
    if case in (1, 2):
        if N2 is None or M2 is None:
            raise ValueError("cases 1 and 2 need the primed exponents")
        if N + M <= N2 + M2:
            raise ValueError("cases 1 and 2 require N + M > N' + M'")
        params.update({"N2": N2, "M2": M2})
        mod, g = _sl3_module(N2, M2)
        if case == 1:
            v = mod.apply_power(E13, mod.apply_power(E23, g, M), N)
            desc = f"e13^{N} e23^{M} vanishes on (a,b)=({N2},{M2})"
        else:
            v = mod.apply_power(E12, mod.apply_power(E13, g, M), N)
            desc = f"e12^{N} e13^{M} vanishes on (a,b)=({N2},{M2})"
        return Sl3Report("identity", params, ((desc, not v),))
    if case == 3:
        mod, g = _sl3_module(M, 0)
        lhs = mod.apply_power(E13, g, N)
        rhs = scaled(
            mod.apply_power(E23, mod.apply_power(E12, g, N), N),
            Fraction((-1) ** N, math.factorial(N)),
        )
        desc = f"e13^{N} matches (-1)^{N}/{N}! e23^{N} e12^{N} on (a,b)=({M},0)"
        return Sl3Report("identity", params, ((desc, lhs == rhs),))
    if case == 4:
        mod, g = _sl3_module(0, M)
        lhs = mod.apply_power(E13, g, N)
        rhs = scaled(
            mod.apply_power(E12, mod.apply_power(E23, g, N), N),
            Fraction(1, math.factorial(N)),
        )
        desc = f"e13^{N} matches 1/{N}! e12^{N} e23^{N} on (a,b)=(0,{M})"
        return Sl3Report("identity", params, ((desc, lhs == rhs),))
    if case == 5:
        mod, g = _sl3_module(N, M)
        v = mod.apply_power(E12, mod.apply_power(E23, g, M), N + M + 1)
        desc = f"e12^{N + M + 1} e23^{M} vanishes on (a,b)=({N},{M})"
        return Sl3Report("identity", params, ((desc, not v),))
    if case == 6:
        mod, g = _sl3_module(0, M)
        lhs = mod.apply_power(E12, mod.apply_power(E23, g, M), N)
        if N > M:
            desc = f"e12^{N} e23^{M} vanishes on (a,b)=(0,{M})"
            return Sl3Report("identity", params, ((desc, not lhs),))
        wit = mod.apply_power(E23, mod.apply_power(E13, g, N), M - N)
        desc = (
            f"e12^{N} e23^{M} is a multiple of e23^{M - N} e13^{N} on (a,b)=(0,{M})"
        )
        return Sl3Report(
            "identity", params, ((desc, bool(wit) and _proportional(lhs, wit)),)
        )
    raise ValueError(f"unknown identity case {case}")
