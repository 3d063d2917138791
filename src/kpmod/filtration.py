"""Filtration machinery: deciding and extracting filtrations whose layers are
Kraskiewicz-Pragacz modules.

The extractor builds the quotient tower along the increasing list of weights
of M: with N_i the submodule generated by all weight spaces above the i-th
weight, the tower M/N_i has kernels generated in a single weight, and the
filtration exists exactly when every kernel character is the matching
multiple of a Schubert polynomial.

The character criterion compares ch(M) with the sum over weights nu of
dim Hom(M, kp(rho - nu)^* (x) K_rho) times the Schubert polynomial of nu.  By
the annihilator theorem, kp(lam) is U(n+) modulo the left ideal generated by
the powers e_ij^{m_ij(lam)+1}, so that hom dimension is the codimension in
M_nu of the sum of the images e_ij^{m_ij+1} M_{nu - (m_ij+1)(eps_i - eps_j)}:
one rank computation inside M per weight, with no module built for rho - nu.
The two routes must agree, and experiments assert that they do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .laurent import LaurentPoly
from .linalg import ONE, Echelon
from .modules import (
    SubmoduleCloser,
    WeightModule,
    kp_module,
    span_submodule,
    tensor_many,
    tensor_power,
)
from .permutations import m_table, perm_of, rho, sort_key
from .schubert import expand_in_schubert, plethysm_eval, schubert_poly


class MixedDegreeError(ValueError):
    pass


def degree_components(M: WeightModule):
    """Total degrees occurring among the weights of M (the action preserves
    them, so mixed modules split degree by degree)."""
    return sorted({sum(w) for w in M.weights})


def sort_weights(M: WeightModule) -> list:
    """Distinct weights of M, strictly increasing in the standard total
    order.  Requires a single total degree."""
    ws = sorted(set(M.weights))
    if len({sum(w) for w in ws}) > 1:
        raise MixedDegreeError(
            "module mixes total degrees; split into degree components first"
        )
    return sorted(ws, key=sort_key())


@dataclass(frozen=True)
class FiltrationWitness:
    level: int          # 1-based position in the increasing weight list
    nu: tuple
    expected: LaurentPoly
    actual: LaurentPoly

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "nu": list(self.nu),
            "expected": self.expected.to_json(),
            "actual": self.actual.to_json(),
        }


@dataclass(frozen=True)
class FiltrationReport:
    """Outcome of the quotient-tower extraction.

    ``factors`` lists (weight, multiplicity > 0) from the largest weight
    down; when ``ok`` the multiples of Schubert polynomials over all levels
    sum to ch(M) exactly (char_lhs == char_rhs)."""

    ok: bool
    factors: tuple
    witness: FiltrationWitness | None
    char_lhs: LaurentPoly
    char_rhs: LaurentPoly

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "factors": [{"nu": list(nu), "mult": d} for nu, d in self.factors],
            "lhs": self.char_lhs.to_json(),
            "rhs": self.char_rhs.to_json(),
            "witness": self.witness.to_json() if self.witness else None,
        }


def kp_filtration_extract(M: WeightModule) -> FiltrationReport:
    """Decide whether M is filtered by KP modules, extracting the layer
    multiplicities (failure is a result carrying the first bad level)."""
    levels = sort_weights(M)
    ch_m = M.character()
    if not levels:
        zero = LaurentPoly.zero(M.n)
        return FiltrationReport(True, (), None, zero, zero)
    spaces = M.weight_spaces()
    closer = SubmoduleCloser(M)
    stages = []  # (nu, ch of the quotient by weights above nu, layer dim)
    for nu in reversed(levels):
        ch_quot = ch_m - closer.character()
        d = len(spaces[nu]) - closer.dim_of(nu)
        stages.append((nu, ch_quot, d))
        closer.add([{i: ONE} for i in spaces[nu]])
    ok = True
    witness = None
    factors = []
    rhs = LaurentPoly.zero(M.n)
    zero = LaurentPoly.zero(M.n)
    for t, (nu, ch_quot, d) in enumerate(stages):
        below = stages[t + 1][1] if t + 1 < len(stages) else zero
        actual = ch_quot - below
        expected = schubert_poly(nu) * d
        rhs = rhs + expected
        if d:
            factors.append((nu, d))
        if ok and actual != expected:
            ok = False
            witness = FiltrationWitness(len(levels) - t, nu, expected, actual)
    return FiltrationReport(ok, tuple(factors), witness, ch_m, rhs)


@dataclass(frozen=True)
class CriterionReport:
    """Character criterion: ch(M) <= sum of hom multiplicities into twisted
    duals times Schubert polynomials, with equality iff M is KP-filtered."""

    lhs: LaurentPoly
    rhs: LaurentPoly
    hom_multiplicities: tuple  # ((nu, dim Hom(M, twisted dual of kp(rho-nu))), ...)
    leq: bool
    equal: bool

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "hom": [{"nu": list(nu), "dim": h} for nu, h in self.hom_multiplicities],
            "leq": self.leq,
            "equal": self.equal,
        }


def _twisted_dual_hom_dim(M: WeightModule, nu: tuple) -> int:
    """dim Hom(M, kp(rho - nu)^* (x) K_rho), read off inside M.

    With lam = rho - nu, the annihilator of the generator of kp(lam) is the
    left ideal of the e_ij^{m_ij+1}, m = m_table(perm(lam)); shifting lam by a
    multiple of (1, ..., 1) to make it nonnegative changes neither the module
    action nor that table.  A map into the twisted dual is then a functional
    on M_nu vanishing on every e_ij^{m_ij+1} M_{nu - (m_ij+1)(eps_i - eps_j)},
    so the dimension is dim M_nu minus the rank of those images.
    """
    n = M.n
    lam = [a - b for a, b in zip(rho(n), nu)]
    k = max(0, -min(lam))
    table = m_table(perm_of([x + k for x in lam]), n)
    spaces = M.weight_spaces()
    images = Echelon()
    for (i, j), m in table.entries.items():
        e = m + 1
        src = list(nu)
        src[i - 1] -= e
        src[j - 1] += e
        for t in spaces.get(tuple(src), ()):
            v = M.apply_power((i, j), {t: ONE}, e)
            if v:
                images.insert(v)
    return len(spaces[nu]) - images.rank


def char_criterion(M: WeightModule) -> CriterionReport:
    """Compare ch(M) with the hom-weighted sum of Schubert polynomials.

    The multiplicity of nu is dim Hom(M, kp(rho - nu)^* (x) K_rho).  The
    annihilator theorem (kp(lam) = U(n+) / sum_ij U(n+) e_ij^{m_ij+1}, the
    identity the ``annihilators`` verification suite checks) turns it into
    the codimension in M_nu of the images of the powers e_ij^{m_ij+1}, so
    each weight costs one rank computation inside M and no module is built.
    Only weights of M can support a nonzero hom (a nonzero map is determined
    by a nonzero image of that weight space), so the sum ranges over them.
    ``dual_twist`` and ``hom_dim`` compute the same numbers the long way.

    Raises RuntimeError if ch(M) exceeds the bound, which the theory rules
    out: it would mean a bug in the module or in this computation.
    """
    lhs = M.character()
    rhs = LaurentPoly.zero(M.n)
    mults = []
    for nu in sort_weights(M):
        h = _twisted_dual_hom_dim(M, nu)
        if h:
            mults.append((nu, h))
            rhs = rhs + schubert_poly(nu) * h
    diff = rhs - lhs
    leq = all(c >= 0 for c in diff.terms.values())
    if not leq:
        raise RuntimeError(
            f"character exceeds the hom-multiplicity bound: rhs - lhs = {diff.text()}"
        )
    return CriterionReport(lhs, rhs, tuple(mults), leq, rhs == lhs)


# ---------------------------------------------------------------------------
# Experiments

@dataclass(frozen=True)
class TensorExperimentReport:
    lam: tuple
    mu: tuple
    extract: FiltrationReport
    criterion: CriterionReport
    expansion: tuple  # Schubert expansion of the character product

    @property
    def consistent(self) -> bool:
        """Extractor verdict agrees with the character criterion."""
        return self.extract.ok == self.criterion.equal

    @property
    def factors_match(self) -> bool:
        return dict(self.extract.factors) == dict(self.expansion)

    @property
    def ok(self) -> bool:
        return self.extract.ok and self.consistent and self.factors_match

    def to_json(self) -> dict:
        return {
            "lam": list(self.lam),
            "mu": list(self.mu),
            "extract": self.extract.to_json(),
            "criterion": self.criterion.to_json(),
            "expansion": [{"nu": list(nu), "coeff": c} for nu, c in self.expansion],
            "factors_match": self.factors_match,
            "consistent": self.consistent,
            "ok": self.ok,
        }


def tensor_experiment(lam, mu) -> TensorExperimentReport:
    """Filter the tensor product of two KP modules and cross-check the layer
    multiplicities against the Schubert expansion of the character product."""
    lam = tuple(int(x) for x in lam)
    mu = tuple(int(x) for x in mu)
    M = tensor_many([kp_module(lam), kp_module(mu)])
    ext = kp_filtration_extract(M)
    crit = char_criterion(M)
    product = schubert_poly(lam) * schubert_poly(mu)
    expansion = tuple(
        sorted(expand_in_schubert(product).items(), key=lambda t: t[0])
    )
    return TensorExperimentReport(lam, mu, ext, crit, expansion)


def _block_perms(blocks, k):
    """All permutations of range(k) preserving the given blocks."""
    perms = []
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        p = list(range(k))
        for src_block, img_block in zip(blocks, choice):
            for s, d in zip(src_block, img_block):
                p[s] = d
        perms.append(tuple(p))
    return perms


def _perm_sign(p) -> int:
    inv = sum(
        1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b]
    )
    return -1 if inv % 2 else 1


def young_symmetrizer_image(M: WeightModule, sigma) -> WeightModule:
    """Image of the Young symmetrizer of sigma (row symmetrizer times column
    antisymmetrizer, unnormalized) acting on M^{(x) |sigma|} by permuting
    tensor factors; realizes the Schur functor applied to M."""
    sigma = tuple(int(p) for p in sigma)
    k = sum(sigma)
    T = tensor_power(M, k)
    rows = []
    start = 0
    for part in sigma:
        rows.append(list(range(start, start + part)))
        start += part
    ncols = sigma[0] if sigma else 0
    cols = [[rows[r][c] for r in range(len(sigma)) if sigma[r] > c] for c in range(ncols)]
    terms = [
        (tuple(p[q[t]] for t in range(k)), _perm_sign(q))
        for p in _block_perms(rows, k)
        for q in _block_perms(cols, k)
    ]
    vectors = []
    for combo in itertools.product(range(M.dim), repeat=k):
        acc: dict = {}
        for g, sign in terms:
            img = [0] * k
            for t in range(k):
                img[g[t]] = combo[t]
            idx = 0
            for digit in img:
                idx = idx * M.dim + digit
            acc[idx] = acc.get(idx, 0) + sign
        vec = {i: ONE * c for i, c in acc.items() if c}
        if vec:
            vectors.append(vec)
    return span_submodule(T, vectors)


@dataclass(frozen=True)
class SchurExperimentReport:
    sigma: tuple
    lam: tuple
    extract: FiltrationReport
    criterion: CriterionReport
    plethysm: LaurentPoly
    char_matches: bool

    @property
    def consistent(self) -> bool:
        return self.extract.ok == self.criterion.equal

    @property
    def ok(self) -> bool:
        return self.extract.ok and self.consistent and self.char_matches

    def to_json(self) -> dict:
        return {
            "sigma": list(self.sigma),
            "lam": list(self.lam),
            "extract": self.extract.to_json(),
            "criterion": self.criterion.to_json(),
            "plethysm": self.plethysm.to_json(),
            "char_matches": self.char_matches,
            "consistent": self.consistent,
            "ok": self.ok,
        }


def schur_functor_experiment(sigma, lam, bound: int = 3) -> SchurExperimentReport:
    """Filter the Schur-functor image of a KP module and cross-check its
    character against the plethysm of the Schubert polynomial."""
    sigma = tuple(int(p) for p in sigma)
    if sum(sigma) > bound:
        raise ValueError(f"partition size {sum(sigma)} exceeds the bound {bound}")
    lam = tuple(int(x) for x in lam)
    S = kp_module(lam)
    img = young_symmetrizer_image(S, sigma)
    ext = kp_filtration_extract(img)
    crit = char_criterion(img)
    target = plethysm_eval(sigma, schubert_poly(lam))
    return SchurExperimentReport(
        sigma, lam, ext, crit, target, img.character() == target
    )
