"""Differential checks of the library against the slower routes of
``reference.py``, past the sizes tier-1 reaches.

    PYTHONPATH=src python tests/differential.py

Each comparison is one function over one shared ``Tally``; the defaults are
the full sizes, and the tests call every function at a small bound.  Every
mismatch is printed, and the script exits nonzero on any mismatch or
negative Schubert coefficient.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

from kpmod.filtration import sort_weights
from kpmod.linalg import ONE
from kpmod.modules import (
    _diagram_generator,
    _kp_generator,
    _sl3_module,
    annihilator_check,
    cyclic_submodule,
    demazure_module,
    kp_module,
    sl3_identity_check,
    sl3_presentation_check,
    tensor_many,
    young_symmetrizer_image,
)
from kpmod.permutations import (
    _codes,
    _m_table,
    _presentation,
    _transition_codes,
    _window_code,
    all_permutations,
    code,
    compare,
    perm_of,
)
from kpmod.schubert import expand_in_schubert, plethysm_eval, schubert_poly
from reference import (
    TO_INT,
    _reference_generator,
    closers_agree,
    kp_columns,
    kp_generator,
    mixed_radix_key,
    outcome,
    random_pair,
    reference_annihilator_check,
    reference_cmp,
    reference_diagram_module,
    reference_expand_in_schubert,
    reference_m_table,
    reference_plethysm_eval,
    reference_presentation,
    reference_sl3_module,
    reference_sl3_report,
    reference_transition_codes,
    reference_window_code,
    reference_young_symmetrizer_image,
    row_fields,
)


class Tally:
    """Checks made and failed; each failure is printed as it happens."""

    def __init__(self):
        self.checked = self.failed = 0

    def require(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            print(what)


def dumps(M) -> str:
    """The module's JSON and its generator, for a byte-for-byte comparison."""
    gen = None if M.generator is None else {str(k): str(c) for k, c in M.generator.items()}
    return json.dumps([M.to_json(), gen], sort_keys=True)


def partitions(k: int, top: int):
    if k == 0:
        yield ()
    for p in range(min(k, top), 0, -1):
        for rest in partitions(k - p, p):
            yield (p,) + rest


def key_columns(lam) -> list:
    """Row sets of the columns of the key diagram of lam: column c holds
    the rows i with lam_i >= c."""
    return [[i for i, x in enumerate(lam, 1) if x >= c] for c in range(1, max(lam) + 1)]


def diagram_modules(tally: Tally, upto: int = 6, top: int = 3) -> None:
    """Every KP module of S_1..S_upto, the S_upto annihilator reports and the
    Demazure modules of {0..top}^4, built on the bit-field keys, against the
    same closures and powers run on the mixed-radix keys."""
    for n in range(1, upto + 1):
        for w in all_permutations(n):
            lam = code(w, n)
            want = reference_diagram_module(kp_columns(lam), n)
            tally.require(dumps(kp_module(lam)) == dumps(want), f"mismatch: {lam}")
    for w in all_permutations(upto):
        got = json.dumps(annihilator_check(w, upto).to_json(), sort_keys=True)
        want = json.dumps(reference_annihilator_check(w, upto).to_json(), sort_keys=True)
        tally.require(got == want, f"mismatch: {w}")
    for lam in itertools.product(range(top + 1), repeat=4):
        want = reference_diagram_module(key_columns(lam), 4)
        tally.require(dumps(demazure_module(lam)) == dumps(want), f"mismatch: {lam}")


def plethysm_jacobi_trudi(tally: Tally, sizes=((4, 6), (5, 4))) -> None:
    """The branching rule against the Jacobi-Trudi determinant on every
    partition of at most ``size`` over every Schubert polynomial of S_n,
    for each (n, size)."""
    for n, size in sizes:
        shapes = [s for k in range(size + 1) for s in partitions(k, k)]
        for w in all_permutations(n):
            f = schubert_poly(code(w, n))
            for sigma in shapes:
                ok = plethysm_eval(sigma, f) == reference_plethysm_eval(sigma, f)
                tally.require(ok, f"mismatch: {sigma} {code(w, n)}")


def plethysm_expansion(tally: Tally, n: int = 6) -> None:
    """s_sigma[S_w] for every S_n code and every |sigma| = 3, expanded in the
    Schubert basis, against the reference expansion.  A negative coefficient
    fails too: it would answer the paper's positivity question in the
    negative."""
    for w in all_permutations(n):
        lam = code(w, n)
        for sigma in ((3,), (2, 1), (1, 1, 1)):
            f = plethysm_eval(sigma, schubert_poly(lam))
            got = expand_in_schubert(f)
            tally.require(got == reference_expand_in_schubert(f), f"mismatch: {sigma} {lam}")
            tally.require(all(c >= 0 for c in got.values()), f"negative coefficient: {sigma} {lam}")


def schur_images(tally: Tally, n: int = 5, size: int = 3) -> None:
    """Every Schur image with |sigma| <= size of every S_n KP module, keyed
    through each power's index, against the reference image, whose ambient
    ranks each column wedge in closed form."""
    shapes = [s for k in range(size + 1) for s in partitions(k, k)]
    for w in all_permutations(n):
        M = kp_module(code(w, n))
        for sigma in shapes:
            got = young_symmetrizer_image(M, sigma)
            want = reference_young_symmetrizer_image(M, sigma)
            tally.require(dumps(got) == dumps(want), f"mismatch: {sigma} {code(w, n)}")


def sl3_calls(upto: int):
    """(check, args) for every rank-3 check of ``kp verify --suite u3``
    with exponents up to ``upto``."""
    grid = range(upto + 1)
    for a, b in itertools.product(grid, repeat=2):
        yield sl3_presentation_check, (a, b)
    for N, M in itertools.product(grid, repeat=2):
        for case in (3, 4, 5, 6):
            yield sl3_identity_check, (case, N, M)
        for N2, M2 in itertools.product(grid, repeat=2):
            if N + M > N2 + M2:
                yield from ((sl3_identity_check, (case, N, M, N2, M2)) for case in (1, 2))


def repeated_columns(tally: Tally, upto: int = 5, top: int = 6) -> None:
    """Diagrams with equal columns, closed as orbit sums, against the
    enumerated symmetric powers: every rank-3 check with exponents up to
    ``upto`` (its verdict, description and closure dimension), and the
    Demazure module of (0, a, a + b), a, b <= top, whose key diagram has a
    columns {2, 3} and b columns {3}, against the cyclic submodule of the
    generator of S^a(Lambda^2 K^3) (x) S^b(K^3)."""
    for check, args in sl3_calls(upto):
        ok = check(*args).to_json() == reference_sl3_report(check, *args).to_json()
        tally.require(ok, f"mismatch: {check.__name__}{args}")
    for a, b in itertools.product(range(top + 1), repeat=2):
        M, (_, g) = reference_sl3_module(a, b)
        want, got = cyclic_submodule(M, g), demazure_module((0, a, a + b))
        ok = got.dim == want.dim and got.character() == want.character()
        tally.require(ok, f"mismatch: demazure_module{(0, a, a + b)}")


def tower(M) -> list:
    """The batches of (weight, basis vector) seeds the extractor's tower adds
    to one closure of M: each weight space, largest weight first."""
    spaces = M.weight_spaces()
    return [[(nu, {i: ONE}) for i in spaces[nu]] for nu in reversed(sort_weights(M))]


def pruned_closure(
    tally: Tally,
    n: int = 6,
    extractions: int = 200,
    seed: int = 31,
    schur_n: int = 4,
    size: int = 3,
    sl3: int = 5,
    top: int = 3,
) -> None:
    """The closure that skips commuting images, images the Serre relation
    reaches and full weight spaces against the one that takes every simple
    image and reduces it (same added ranks per call, same rows after it):
    on the generator of every S_n KP module; on the extractor's tower for
    ``extractions`` seeded tensor products of two S_{n-1} KP modules; on
    the tower of every Schur image with |sigma| <= size of every S_schur_n
    KP module; on the generator of every rank-3 module with a, b <= sl3;
    and on the generator of every Demazure module of {0..top}^4."""
    for w in all_permutations(n):
        amb, gen = kp_generator(code(w, n))
        tally.require(closers_agree(amb, [[gen]]), f"mismatch: {code(w, n)}")
    rng = random.Random(seed)
    codes = [code(w, n - 1) for w in all_permutations(n - 1)]
    for _ in range(extractions):
        lam, mu = rng.choice(codes), rng.choice(codes)
        M = tensor_many([kp_module(lam), kp_module(mu)])
        tally.require(closers_agree(M, tower(M)), f"mismatch: {lam} (x) {mu}")
    shapes = [s for k in range(1, size + 1) for s in partitions(k, k)]
    for w in all_permutations(schur_n):
        S = kp_module(code(w, schur_n))
        for sigma in shapes:
            img = young_symmetrizer_image(S, sigma)
            tally.require(closers_agree(img, tower(img)), f"mismatch: {sigma} {code(w, schur_n)}")
    for a, b in itertools.product(range(sl3 + 1), repeat=2):
        amb, gen = _sl3_module(a, b)
        tally.require(closers_agree(amb, [[gen]]), f"mismatch: _sl3_module{(a, b)}")
    for lam in itertools.product(range(top + 1), repeat=4):
        amb, gen = _diagram_generator(row_fields(key_columns(lam), 4), lam, 4)
        tally.require(closers_agree(amb, [[gen]]), f"mismatch: demazure generator {lam}")


def standard_order(tally: Tally, pairs: int = 50000, upto: int = 8, seed: int = 34) -> None:
    """``compare``, which reads the first entry off the codes and builds the
    keys only on a tie, against the padded inverse windows of the two
    permutations, on ``pairs`` seeded same-degree pairs of length at most
    ``upto`` with entries in -5..6, in the standard and the prime order."""
    rng = random.Random(seed)
    for _ in range(pairs):
        lam, mu = random_pair(rng, upto)
        for order in ("standard", "prime"):
            ok = TO_INT[compare(lam, mu, order)] == reference_cmp(lam, mu, order)
            tally.require(ok, f"mismatch: compare{(lam, mu, order)}")


def lehmer_codes(tally: Tally, m: int = 7) -> None:
    """``_window_code``, which finds each entry's smaller earlier entries by
    bisection, against the loop of ``reference_window_code`` on every
    one-line window of S_m, as it is and with an identity tail, at every
    width from 1 to m + 2, errors and their messages included: one check per
    window."""
    widths = range(1, m + 3)
    for images in itertools.permutations(range(1, m + 1)):
        ok = all(
            outcome(_window_code, win, n) == outcome(reference_window_code, win, n)
            for win in (images, images + (m + 1, m + 2))
            for n in widths
        )
        tally.require(ok, f"mismatch: _window_code on {images}")


def child_codes(tally: Tally, m: int = 7) -> None:
    """``_transition_codes``, which takes each child's code off its
    parent's, against the codes ``reference_transition_codes`` counts off
    the children's windows, on every nonzero code of S_m: one check per
    transition step, covering v and every branch."""
    for lam in _codes(m):
        if any(lam):
            tally.require(_transition_codes(lam) == reference_transition_codes(lam), f"mismatch: {lam}")


def kp_generators(tally: Tally, m: int = 7) -> None:
    """``_kp_generator``, which reads the generator's fields off the code's
    window in one pass, against ``kp_generator``, which takes them off the
    row lists of ``kp_columns``, on every code of S_m: one check per code,
    the same cached ambient (the same classes) and the same weight and
    generator vector; and that weight and the generator's key, read as a
    mixed-radix key, those of ``_reference_generator`` on the row lists."""
    for lam in _codes(m):
        amb, gen = _kp_generator(lam)
        want_amb, want = kp_generator(lam)
        columns = kp_columns(lam)
        ref_wt, ref_gen = _reference_generator(columns, m)[1]
        (key,) = gen[1]
        radix = mixed_radix_key(key, [len(rows) for rows in columns], m)
        ok = amb is want_amb and gen == want and gen[0] == ref_wt and {radix: ONE} == ref_gen
        tally.require(ok, f"mismatch: _kp_generator{lam}")


def presentations(tally: Tally, m: int = 7) -> None:
    """``_presentation``, whose m_ij run along j off the code, against the
    count over the window's tail of ``reference_presentation``, and the
    m-table, whose redundancy rule reads the raising order by index,
    against ``reference_m_table`` on the minimal window, on every code of
    S_m: one check per code."""
    for lam in _codes(m):
        ok = _presentation(lam) == reference_presentation(lam)
        ok = ok and _m_table(lam) == reference_m_table(perm_of(lam).window, m)
        tally.require(ok, f"mismatch: _presentation{lam}")


COMPARISONS = (
    diagram_modules, plethysm_jacobi_trudi, plethysm_expansion, schur_images, repeated_columns, pruned_closure,
    standard_order, lehmer_codes, child_codes, kp_generators, presentations,
)


def main() -> int:
    tally = Tally()
    for comparison in COMPARISONS:
        before = tally.checked, tally.failed
        comparison(tally)
        checked, failed = tally.checked - before[0], tally.failed - before[1]
        print(f"{comparison.__name__}: {checked} checked, {failed} failed", flush=True)
    print(f"total: {tally.checked} checked, {tally.failed} failed")
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
