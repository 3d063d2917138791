"""Filtration machinery: deciding and extracting filtrations whose layers are
Kraskiewicz-Pragacz modules.  The modules tested here, tensor products and
Schur-functor images of KP modules, are built in ``modules``.

The extractor builds the quotient tower along the increasing list of weights
of M: with N_i the submodule generated by all weight spaces above the i-th
weight, the tower M/N_i has kernels generated in a single weight, and the
filtration exists exactly when every kernel character is the matching
multiple of a Schubert polynomial.

The character criterion compares ch(M) with the sum over weights nu of
dim Hom(M, kp(rho - nu)^* (x) K_rho) times the Schubert polynomial of nu.  By
the annihilator theorem, kp(lam) is U(n+) modulo the left ideal generated by
the powers e_ij^{m_ij(lam)+1}, listed with their pairs by
``permutations._presentation``, so that hom dimension is the codimension in
M_nu of the sum of the images e_ij^{m_ij+1} M_{nu - (m_ij+1)(eps_i - eps_j)}:
one rank computation inside M per weight, with no module built for rho - nu.
The extractor and the criterion must agree, and experiments assert that they
do.  The tests hold the criterion against a nullspace solve for the whole
Hom space into the twisted dual (``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentPoly, int_tuple
from .linalg import ONE, Echelon
from .modules import (
    SubmoduleCloser,
    WeightModule,
    _raised,
    kp_module,
    tensor_many,
    young_symmetrizer_image,
)
from .permutations import _presentation, _standard_key, rho
from .schubert import _check_partition, expand_in_schubert, plethysm_eval, schubert_poly


class MixedDegreeError(ValueError):
    pass


def sort_weights(M: WeightModule) -> list:
    """Distinct weights of M, strictly increasing in the standard total order
    (descending ``standard_key`` at one shift shared by all), sorted once per
    module; each call returns a fresh list.  Requires a single total degree."""
    if M._levels is None:
        ws = M.weight_spaces()
        degrees = sorted({sum(w) for w in ws})
        if len(degrees) > 1:
            raise MixedDegreeError(
                f"module mixes total degrees {degrees}; the standard order compares weights of one degree"
            )
        shift = -min((x for w in ws for x in w), default=0)
        key = _standard_key if shift <= 0 else lambda w: _standard_key(tuple(x + shift for x in w))
        M._levels = tuple(sorted(ws, key=key, reverse=True))
    return list(M._levels)


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
    multiplicities (failure is a result carrying the first bad level).

    From the largest weight down, one closure grows by the weight space
    M_nu of the i-th weight nu, from N_i to N_{i-1}.  The ranks that step
    adds are the character of N_{i-1} / N_i, the tower's kernel generated in
    weight nu; the rank added at nu itself is the layer multiplicity d, and
    that character must be d times the Schubert polynomial of nu."""
    if not M.n:
        raise ValueError("kp_filtration_extract needs a module over n >= 1, got n = 0")
    levels = sort_weights(M)
    spaces = M.weight_spaces()
    closer = SubmoduleCloser(M)
    ok = True
    witness = None
    factors = []
    zero = rhs = LaurentPoly._of(M.n, {})
    for t, nu in enumerate(reversed(levels)):
        added = closer.add([(nu, {i: ONE}) for i in spaces[nu]])
        d = added.get(nu, 0)
        expected = zero
        if d:
            expected = schubert_poly(nu) * d
            rhs = rhs + expected
            factors.append((nu, d))
        actual = LaurentPoly._of(M.n, added)
        if ok and actual != expected:
            ok = False
            witness = FiltrationWitness(len(levels) - t, nu, expected, actual)
    return FiltrationReport(ok, tuple(factors), witness, M.character(), rhs)


@dataclass(frozen=True)
class CriterionReport:
    """Character criterion: ch(M) <= sum of hom multiplicities into twisted
    duals times Schubert polynomials, with equality iff M is KP-filtered."""

    lhs: LaurentPoly
    rhs: LaurentPoly
    hom_multiplicities: tuple  # ((nu, dim Hom(M, twisted dual of kp(rho-nu))), ...)
    leq: bool  # always True: char_criterion raises where it would be False
    equal: bool

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "hom": [{"nu": list(nu), "dim": h} for nu, h in self.hom_multiplicities],
            "leq": self.leq,
            "equal": self.equal,
        }


#: kp(rho - nu)'s presentation, asked for once per weight of each module tested
_cached_presentation = lru_cache(maxsize=4096)(_presentation)


def _twisted_dual_hom_dim(M: WeightModule, nu: tuple) -> int:
    """dim Hom(M, kp(rho - nu)^* (x) K_rho), read off inside M.

    The annihilator of the generator of kp(rho - nu) is the left ideal of
    the e_ij^{m_ij+1} (``_presentation``).  A map into the twisted dual is
    then a functional on M_nu vanishing on every
    e_ij^{m_ij+1} M_{nu - (m_ij+1)(eps_i - eps_j)}, so the dimension is
    dim M_nu minus the rank of those images.  Once they span M_nu that is 0,
    and no further image is computed: each would be dependent, and only the
    rank is read.
    """
    spaces = M.weight_spaces()
    size = len(spaces[nu])
    images = Echelon()
    for pair, m in _cached_presentation(tuple(a - b for a, b in zip(rho(M.n), nu))):
        for t in spaces.get(_raised(nu, pair, -m - 1), ()):
            v = M.apply_power(pair, {t: ONE}, m + 1)
            if v and images.insert(v) is not None and images.rank == size:
                return 0
    return size - images.rank


def char_criterion(M: WeightModule) -> CriterionReport:
    """Compare ch(M) with the hom-weighted sum of Schubert polynomials.

    The multiplicity of nu is dim Hom(M, kp(rho - nu)^* (x) K_rho).  The
    annihilator theorem (kp(lam) = U(n+) / sum_ij U(n+) e_ij^{m_ij+1}, the
    identity the ``annihilators`` verification suite checks) turns it into
    the codimension in M_nu of the images of the powers e_ij^{m_ij+1}, so
    each weight costs one rank computation inside M and no module is built.
    Only weights of M can support a nonzero hom (a nonzero map is determined
    by a nonzero image of that weight space), so the sum ranges over them.
    The tests compute the same numbers the long way, as the dimension of the
    Hom space into the twisted dual (``tests/reference.py``).

    Raises RuntimeError if ch(M) exceeds the bound, which the theory rules
    out: it would mean a bug in the module or in this computation.
    """
    if not M.n:
        raise ValueError("char_criterion needs a module over n >= 1, got n = 0")
    lhs = M.character()
    rhs = LaurentPoly._of(M.n, {})
    mults = []
    for nu in sort_weights(M):
        h = _twisted_dual_hom_dim(M, nu)
        if h:
            mults.append((nu, h))
            rhs = rhs + schubert_poly(nu) * h
    diff = rhs - lhs
    if any(c < 0 for c in diff.terms.values()):
        raise RuntimeError(
            f"character exceeds the hom-multiplicity bound: rhs - lhs = {diff.text()}"
        )
    return CriterionReport(lhs, rhs, tuple(mults), True, rhs == lhs)


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


def _codes_of_one_length(pair: tuple, what: str) -> tuple:
    """The two codes of ``pair``, refused before anything is built unless
    they have one length, the number of variables of both; ``what``, a
    function or a CLI flag, names them in the error."""
    lam, mu = pair
    if len(lam) != len(mu):
        text = [",".join(map(str, c)) for c in pair]
        raise ValueError(
            f"{what}: codes {text[0]} and {text[1]} have lengths {len(lam)} and {len(mu)}; "
            "a pair needs codes of one length"
        )
    return pair


def tensor_experiment(lam, mu) -> TensorExperimentReport:
    """Filter the tensor product of two KP modules and cross-check the layer
    multiplicities against the Schubert expansion of the character product."""
    lam = int_tuple(lam, "tensor_experiment lam")
    mu = int_tuple(mu, "tensor_experiment mu")
    _codes_of_one_length((lam, mu), "tensor_experiment")
    M = tensor_many([kp_module(lam), kp_module(mu)])
    ext = kp_filtration_extract(M)
    crit = char_criterion(M)
    product = schubert_poly(lam) * schubert_poly(mu)
    expansion = tuple(
        sorted(expand_in_schubert(product).items(), key=lambda t: t[0])
    )
    return TensorExperimentReport(lam, mu, ext, crit, expansion)


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


def schur_functor_experiment(sigma, lam) -> SchurExperimentReport:
    """Filter the Schur-functor image of a KP module and cross-check its
    character against the plethysm of the Schubert polynomial.  |sigma| is
    not bounded: whatever ``young_symmetrizer_image`` counts against
    KP_MAX_DIM (row terms, seed tuples, exterior powers of kp(lam), closure
    rank) raises ModuleTooLargeError above the cap (exit 3 at the command
    line).
    """
    sigma = _check_partition(sigma)
    lam = int_tuple(lam, "schur_functor_experiment code")
    S = kp_module(lam)
    img = young_symmetrizer_image(S, sigma)
    ext = kp_filtration_extract(img)
    crit = char_criterion(img)
    target = plethysm_eval(sigma, schubert_poly(lam))
    return SchurExperimentReport(
        sigma, lam, ext, crit, target, img.character() == target
    )
