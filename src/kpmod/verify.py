"""Named verification sweeps behind the ``kp verify`` subcommand.

Each suite runs a family of exact identities at desk scale and returns rows
(name, ok, detail); the CLI renders them as a pass/fail table.  Defaults keep
every suite well under a minute.  Sweeps over S_m walk its codes (``_codes``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .filtration import (
    char_criterion,
    kp_filtration_extract,
    schur_functor_experiment,
    tensor_experiment,
)
from .laurent import _require_int
from .modules import (
    _SL3_BOUND,
    _annihilator_check,
    kp_module,
    one_dim,
    sl3_identity_check,
    sl3_presentation_check,
)
from .permutations import _code_window, _codes, _inversions, _transition_window, _window_code, compare, rho
from .schubert import cauchy_window_check, dual_pairing, schubert_poly


@dataclass(frozen=True)
class CheckRow:
    name: str
    ok: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def suite_transition_all(upto: int = 5, seed: int = 0) -> list:
    # the identity runs on the staircase's polynomials: the transition's are
    # built by the same recursion, so would only check it against itself
    rows = []
    for m in range(2, upto + 1):
        ok = agree = True
        count = 0
        for lam in _codes(m):
            poly = schubert_poly(lam, "staircase")
            agree = agree and poly == schubert_poly(lam, "transition")
            if not any(lam):
                continue
            count += 1
            win = _code_window(lam)[:m]  # the rest are fixed points
            j, _, v, branches = _transition_window(win)
            vcode = _window_code(v, m)
            ej = tuple(int(i == j) for i in range(1, m + 1))
            length = _inversions(win)
            structural = (
                _inversions(v) == length - 1
                and vcode == tuple(a - b for a, b in zip(lam, ej))
                and all(_inversions(b) == length for _, b in branches)
            )
            rhs = schubert_poly(vcode, "staircase").shift(ej)
            for _, b in branches:
                rhs = rhs + schubert_poly(_window_code(b, m), "staircase")
            ok = ok and structural and poly == rhs
        rows.append(CheckRow(f"transition identity on S_{m}", ok, f"{count} permutations"))
        rows.append(CheckRow(f"staircase agrees with transition on S_{m}", agree, ""))
    return rows


def suite_duality(upto: int = 4, seed: int = 0) -> list:
    rows = []
    for d in range(upto + 1):
        lams = [c for c in itertools.product(range(d + 1), repeat=3) if sum(c) == d]
        ok = all(
            dual_pairing(schubert_poly(lam), mu) == (1 if lam == mu else 0)
            for lam in lams
            for mu in lams
        )
        rows.append(CheckRow(f"dual pairing delta at degree {d}", ok, f"{len(lams)}^2 pairs"))
    return rows


def suite_cauchy(upto: int = 2, seed: int = 0) -> list:
    box = list(itertools.product(range(upto + 1), repeat=3))
    ok = True
    count = 0
    for mu in box:
        for nu in box:
            if sum(mu) != sum(nu):
                continue
            count += 1
            if not cauchy_window_check(mu, nu).ok:
                ok = False
    return [CheckRow(f"Cauchy window identity on {{0..{upto}}}^3", ok, f"{count} pairs")]


def suite_u3(upto: int = 3, seed: int = 0) -> list:
    rows = []
    pres = all(
        sl3_presentation_check(a, b).ok
        for a in range(upto + 1)
        for b in range(upto + 1)
    )
    rows.append(CheckRow(f"rank-3 presentation, a,b <= {upto}", pres, "generator + Weyl dims"))
    grid = range(upto + 1)
    for case in (1, 2):
        ok = all(
            sl3_identity_check(case, N, M, N2, M2).ok
            for N in grid
            for M in grid
            for N2 in grid
            for M2 in grid
            if N + M > N2 + M2
        )
        rows.append(CheckRow(f"rank-3 identity case {case}", ok, f"params <= {upto}"))
    for case in (3, 4, 5, 6):
        ok = all(sl3_identity_check(case, N, M).ok for N in grid for M in grid)
        rows.append(CheckRow(f"rank-3 identity case {case}", ok, f"params <= {upto}"))
    return rows


def suite_kp_char(upto: int = 5, seed: int = 0) -> list:
    rows = []
    for m in range(1, upto + 1):
        ok = all(kp_module(lam).character() == schubert_poly(lam) for lam in _codes(m))
        rows.append(CheckRow(f"ch(KP) = Schubert on S_{m} (n={m})", ok, ""))
    return rows


def suite_annihilators(upto: int = 5, seed: int = 0) -> list:
    reports = [_annihilator_check(lam) for lam in _codes(upto)]
    return [
        CheckRow(name, all(getattr(r, verdict) for r in reports), detail)
        for name, verdict, detail in (
            (f"powers m_ij+1 annihilate the generator, S_{upto}", "annihilated",
             f"{len(reports)} permutations"),
            ("pruned generator subsets annihilate", "pruned_ok", ""),
            ("observed sharpness where m_ij >= 1", "all_sharp", ""),
            ("module dimension equals the Schubert polynomial at 1", "dims_match", ""),
        )
    ]


def suite_filtrations(upto: int = 3, seed: int = 0) -> list:
    n = upto
    codes = list(_codes(n))
    tensor_ok = True
    for lam in codes:
        for mu in codes:
            rep = tensor_experiment(lam, mu)
            tensor_ok = tensor_ok and rep.ok and all(
                c > 0 for _, c in rep.expansion
            )
    rows = [
        CheckRow(
            f"tensor products of KP modules, codes of S_{n}",
            tensor_ok,
            f"{len(codes) ** 2} pairs; factors = Schubert expansion",
        )
    ]
    neg = one_dim((0, 1))
    ext = kp_filtration_extract(neg)
    crit = char_criterion(neg)
    rows.append(
        CheckRow(
            "negative control: K_(0,1) has no KP filtration",
            (not ext.ok) and (not crit.equal) and ext.witness.nu == (0, 1),
            "extractor and criterion agree on failure",
        )
    )
    sigmas = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    schur_ok = all(
        schur_functor_experiment(s, lam).ok for s in sigmas for lam in codes
    )
    rows.append(
        CheckRow(
            "Schur functors of KP modules, |sigma| <= 3",
            schur_ok,
            f"{len(sigmas)} shapes x {len(codes)} codes",
        )
    )
    return rows


def _same_degree(rng, lam: tuple) -> tuple:
    """A seeded weight of lam's length and total degree."""
    mu = list(rng.randint(-3, 4) for _ in range(len(lam)))
    mu[-1] += sum(lam) - sum(mu)
    return tuple(mu)


#: The seeded same-degree triples the totality row checks for transitivity.
_ORDER_TRIPLES = 200


def suite_orders(upto: int = 5, seed: int = 0) -> list:
    rng = random.Random(seed)
    mirror_ok = True
    total_ok = True
    shift_ok = True
    for _ in range(1000):
        n = rng.randint(2, upto)
        lam = tuple(rng.randint(-3, 4) for _ in range(n))
        mu = _same_degree(rng, lam)
        r = rho(n)
        rl = tuple(a - b for a, b in zip(r, lam))
        rm = tuple(a - b for a, b in zip(r, mu))
        c = compare(lam, mu)
        if c != compare(rl, rm, "prime"):
            mirror_ok = False
        # total, and antisymmetric: mu against lam answers the mirror of c
        if c == "incomparable" or compare(mu, lam) != {"less": "greater", "greater": "less"}.get(c, c):
            total_ok = False
        if c != compare(tuple(x + 1 for x in lam), tuple(x + 1 for x in mu)):
            shift_ok = False
    # and transitive: for a total, antisymmetric compare a failure is a cycle
    for _ in range(_ORDER_TRIPLES):
        a = tuple(rng.randint(-3, 4) for _ in range(rng.randint(2, upto)))
        b, c = _same_degree(rng, a), _same_degree(rng, a)
        if compare(a, b) == compare(b, c) == compare(c, a) != "equal":
            total_ok = False
    return [
        CheckRow("mirror equivalence of the two orders", mirror_ok, "1000 random pairs"),
        CheckRow("degree slices are totally ordered", total_ok, ""),
        CheckRow("order is shift-invariant", shift_ok, ""),
    ]


#: name -> (suite, smallest bound at which it checks something, largest it accepts or None)
SUITES = {
    "transition-all": (suite_transition_all, 2, None),
    "duality": (suite_duality, 0, None),
    "cauchy": (suite_cauchy, 0, None),
    "u3": (suite_u3, 1, _SL3_BOUND),
    "kp-char": (suite_kp_char, 1, None),
    "annihilators": (suite_annihilators, 1, None),
    "filtrations": (suite_filtrations, 1, None),
    "orders": (suite_orders, 2, None),
}


def run_suite(name: str, upto=None, seed: int = 0) -> list:
    """Rows of one suite, at its own default bound when upto is None.

    Raises ValueError, before any check runs, for an unknown suite, or for a
    bound that is not an int, at which it would check nothing or that it
    does not accept."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    fn, least, most = SUITES[name]
    if upto is None:
        return fn(seed=seed)
    _require_int(upto, f"suite {name!r} upto")
    if upto < least:
        raise ValueError(f"suite {name!r} checks nothing at upto={upto}; it needs upto >= {least}")
    if most is not None and upto > most:
        raise ValueError(f"suite {name!r} cannot check upto={upto}; it accepts upto <= {most}")
    return fn(upto, seed)


def run_suites(name: str, upto=None, seed: int = 0) -> list:
    """Rows for one suite, or for every suite (at its default bound) when
    name == 'all', which takes no bound: ValueError if upto is given."""
    if name == "all":
        if upto is not None:
            raise ValueError(
                f"--upto {upto} needs a single suite: 'all' runs every suite at its default bound"
            )
        rows = []
        for key in SUITES:
            rows.extend(
                CheckRow(f"[{key}] {r.name}", r.ok, r.detail)
                for r in run_suite(key, None, seed)
            )
        return rows
    return run_suite(name, upto, seed)
