import itertools
import random

import pytest

from kpmod import schubert
from kpmod.laurent import LaurentPoly
from kpmod.permutations import all_permutations, code, dominates, perm_of, rho, transition
from kpmod.schubert import (
    cauchy_window_check,
    divided_difference,
    dominance_interval,
    dual_pairing,
    expand_in_schubert,
    kostant_dim,
    plethysm_eval,
    schubert_poly,
    schubert_poly_of_perm,
)


def x(n, i):
    return LaurentPoly.variable(n, i)


def random_poly(rng, n, nterms=4):
    return LaurentPoly(
        n,
        [
            (tuple(rng.randint(-2, 3) for _ in range(n)), rng.randint(-3, 3))
            for _ in range(nterms)
        ],
    )


def compositions(total, n):
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, n - 1):
            yield (head,) + rest


class TestDividedDifference:
    def test_basic_values(self):
        assert divided_difference(1, x(2, 1)) == LaurentPoly.one(2)
        assert divided_difference(1, x(2, 1) * x(2, 2)).is_zero()
        assert divided_difference(2, x(3, 1) ** 2 * x(3, 2)) == x(3, 1) ** 2

    def test_exactness_against_definition(self):
        # (f - s_i f) must equal (x_i - x_{i+1}) * divided_difference(i, f)
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 4)
            i = rng.randint(1, n - 1)
            f = random_poly(rng, n)
            d = divided_difference(i, f)
            assert (x(n, i) - x(n, i + 1)) * d == f - f.swap_adjacent(i)

    def test_nilpotence(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 4)
            i = rng.randint(1, n - 1)
            f = random_poly(rng, n)
            assert divided_difference(i, divided_difference(i, f)).is_zero()

    def test_braid_and_commutation(self):
        rng = random.Random(4)
        for _ in range(25):
            f = random_poly(rng, 4)
            lhs = divided_difference(1, divided_difference(2, divided_difference(1, f)))
            rhs = divided_difference(2, divided_difference(1, divided_difference(2, f)))
            assert lhs == rhs
            a = divided_difference(1, divided_difference(3, f))
            b = divided_difference(3, divided_difference(1, f))
            assert a == b

    def test_index_range(self):
        with pytest.raises(ValueError):
            divided_difference(2, x(2, 1))


class TestSchubertPoly:
    def test_simple_transpositions(self):
        for i in range(1, 4):
            lam = tuple(1 if t == i - 1 else 0 for t in range(4))
            expected = LaurentPoly(4, {})
            for t in range(1, i + 1):
                expected = expected + x(4, t)
            assert schubert_poly(lam) == expected

    def test_2143_example(self):
        p = schubert_poly((1, 0, 1, 0))
        assert p == x(4, 1) ** 2 + x(4, 1) * x(4, 2) + x(4, 1) * x(4, 3)

    def test_two_variable_degree_two(self):
        assert schubert_poly((0, 2)) == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2

    def test_methods_agree_s4(self):
        for w in all_permutations(4):
            lam = code(w, 4)
            assert schubert_poly(lam, "staircase") == schubert_poly(lam, "transition")

    def test_laurent_shift_rule(self):
        lam = (-1, 1)
        shifted = schubert_poly((0, 2)).shift((-1, -1))
        assert schubert_poly(lam) == shifted

    def test_leading_term_and_dominance(self):
        for w in all_permutations(4):
            lam = code(w, 4)
            p = schubert_poly(lam)
            assert p.coeff(lam) == 1
            for exp in p.terms:
                assert exp == lam or (dominates(exp, lam) and exp != lam)

    def test_grassmannian_schubert_is_schur(self):
        # a single descent at k makes the polynomial the Schur polynomial of
        # the sorted code in x_1..x_k; Jacobi-Trudi provides the oracle
        checked = 0
        for w in all_permutations(5):
            descents = w.descents()
            if len(descents) != 1:
                continue
            k = descents[0]
            lam = code(w, 5)
            shape = tuple(sorted((c for c in lam[:k] if c), reverse=True))
            first_k = LaurentPoly(
                5, {tuple(1 if t == i else 0 for t in range(5)): 1 for i in range(k)}
            )
            schur = plethysm_eval(shape, first_k) if shape else LaurentPoly.one(5)
            assert schubert_poly(lam) == schur
            checked += 1
        assert checked == 26

    def test_one_variable_degenerate_rank(self):
        assert schubert_poly((3,)) == LaurentPoly.monomial(1, (3,))
        assert schubert_poly((0,)) == LaurentPoly.one(1)

    def test_transition_identity_small(self):
        for w in all_permutations(4):
            if w.is_identity():
                continue
            td = transition(w)
            lam = code(w, 4)
            ej = [0] * 4
            ej[td.j - 1] = 1
            rhs = schubert_poly(code(td.v, 4)).shift(tuple(ej))
            for _, wa in td.branches:
                rhs = rhs + schubert_poly(code(wa, 4))
            assert schubert_poly(lam) == rhs


class TestExpand:
    def test_roundtrip(self):
        assert expand_in_schubert(schubert_poly((1, 0, 1))) == {(1, 0, 1): 1}

    def test_square_of_linear(self):
        f = (x(2, 1) + x(2, 2)) ** 2
        assert expand_in_schubert(f) == {(0, 2): 1, (1, 1): 1}

    def test_negative_coefficients(self):
        assert expand_in_schubert(x(2, 2)) == {(0, 1): 1, (1, 0): -1}

    def test_missing_minimal_exponent_raises(self, monkeypatch):
        monkeypatch.setattr(schubert, "dominates", lambda a, b: True)
        with pytest.raises(RuntimeError, match="dominance-minimal"):
            expand_in_schubert(x(2, 1) + x(2, 2))

    def test_reconstruction_random(self):
        rng = random.Random(6)
        for _ in range(15):
            f = random_poly(rng, 3, nterms=3)
            coeffs = expand_in_schubert(f)
            rebuilt = LaurentPoly.zero(3)
            for mu, c in coeffs.items():
                rebuilt = rebuilt + schubert_poly(mu) * c
            assert rebuilt == f

    def test_product_positivity_s3(self):
        codes = [code(w, 3) for w in all_permutations(3)]
        for lam in codes:
            for mu in codes:
                coeffs = expand_in_schubert(schubert_poly(lam) * schubert_poly(mu))
                assert all(c > 0 for c in coeffs.values())

    def test_oracle_equivalence_with_pairing(self):
        # the dual pairing extracts each coefficient independently
        rng = random.Random(8)
        codes = [code(w, 3) for w in all_permutations(3)]
        for _ in range(200):
            lam = rng.choice(codes)
            mu = rng.choice(codes)
            f = schubert_poly(lam) * schubert_poly(mu)
            coeffs = expand_in_schubert(f)
            for nu, c in coeffs.items():
                assert dual_pairing(f, nu) == c
            # and a weight absent from the expansion pairs to zero
            absent = (sum(lam) + sum(mu), 0, 0)
            if absent not in coeffs:
                assert dual_pairing(f, absent) == 0


class TestDualPairing:
    def test_delta_exhaustive_two_vars(self):
        for d in range(5):
            lams = list(compositions(d, 2))
            for lam in lams:
                for mu in lams:
                    expected = 1 if lam == mu else 0
                    assert dual_pairing(schubert_poly(lam), mu) == expected

    def test_constant_term_example(self):
        assert dual_pairing(LaurentPoly.one(2), (0, 0)) == 1

    def test_off_diagonal(self):
        assert dual_pairing(schubert_poly((1, 0)), (0, 1)) == 0


class TestKostant:
    def brute(self, delta):
        # enumerate root multiplicity boxes outright
        n = len(delta)
        roots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pos = sum(d for d in delta if d > 0)
        count = 0
        for combo in itertools.product(range(pos + 1), repeat=len(roots)):
            acc = [0] * n
            for c, (i, j) in zip(combo, roots):
                acc[i] += c
                acc[j] -= c
            if tuple(acc) == tuple(delta):
                count += 1
        return count

    def test_known_values(self):
        assert kostant_dim((1, 0, -1)) == 2
        assert kostant_dim((0, 0, 0)) == 1
        assert kostant_dim((2, -1, -1)) == 2

    def test_nonroot_combinations(self):
        assert kostant_dim((1, 0, 0)) == 0
        assert kostant_dim((-1, 1, 0)) == 0

    def test_against_brute_force(self):
        for delta in itertools.product(range(-2, 3), repeat=3):
            if sum(delta) != 0:
                continue
            assert kostant_dim(delta) == self.brute(delta)


class TestCauchyWindow:
    def test_trivial(self):
        rep = cauchy_window_check((0, 0, 0), (0, 0, 0))
        assert (rep.lhs, rep.rhs, rep.ok) == (1, 1, True)

    def test_root_degree_two(self):
        rep = cauchy_window_check((0, 0, 0), (1, 0, -1))
        assert (rep.lhs, rep.rhs, rep.ok) == (2, 2, True)

    def test_single_root(self):
        rep = cauchy_window_check((0, 1, 0), (1, 0, 0))
        assert (rep.lhs, rep.rhs, rep.ok) == (1, 1, True)

    def test_window_too_small(self):
        needed = dominance_interval((0, 0, 0), (1, 0, -1))
        assert len(needed) > 1
        with pytest.raises(ValueError, match="misses"):
            cauchy_window_check((0, 0, 0), (1, 0, -1), window=needed[:1])

    def test_degree_mismatch_is_trivially_zero(self):
        rep = cauchy_window_check((0, 0, 0), (1, 0, 0))
        assert (rep.lhs, rep.rhs, rep.ok) == (0, 0, True)


def ssyt_schur(sigma, values):
    """Oracle: Schur polynomial as a sum over semistandard tableaux of shape
    sigma with entries indexing the value list."""
    m = len(values)
    n = values[0].n if values else 1
    rows = len(sigma)
    total = LaurentPoly.zero(n)

    def fill(cells, tableau):
        nonlocal total
        if not cells:
            term = LaurentPoly.one(n)
            for v in tableau.values():
                term = term * values[v]
            total = total + term
            return
        (r, c), rest = cells[0], cells[1:]
        lo = 0
        if c > 0:
            lo = max(lo, tableau[(r, c - 1)])
        if r > 0:
            lo = max(lo, tableau[(r - 1, c)] + 1)
        for v in range(lo, m):
            tableau[(r, c)] = v
            fill(rest, tableau)
            del tableau[(r, c)]

    cells = [(r, c) for r in range(rows) for c in range(sigma[r])]
    fill(cells, {})
    return total


class TestPlethysm:
    def test_identity_partition(self):
        rng = random.Random(10)
        for _ in range(10):
            f = LaurentPoly(
                3,
                [
                    (tuple(rng.randint(0, 2) for _ in range(3)), rng.randint(1, 3))
                    for _ in range(3)
                ],
            )
            assert plethysm_eval((1,), f) == f

    def test_h2_and_e2(self):
        f = x(2, 1) + x(2, 2)
        assert plethysm_eval((2,), f) == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2
        assert plethysm_eval((1, 1), f) == x(2, 1) * x(2, 2)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError, match="nonnegative"):
            plethysm_eval((2,), x(2, 1) - x(2, 2))

    def test_against_ssyt_oracle(self):
        shapes = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
        polys = [
            x(2, 1) + x(2, 2),
            x(2, 1) ** 2 + x(2, 1) * x(2, 2),
            schubert_poly((1, 0, 1)).restrict(3),
            2 * x(2, 1) + x(2, 2),  # repeated monomial value
        ]
        for sigma in shapes:
            for f in polys:
                values = [
                    LaurentPoly.monomial(f.n, e)
                    for e, c in sorted(f.terms.items())
                    for _ in range(c)
                ]
                assert plethysm_eval(sigma, f) == ssyt_schur(sigma, values)

    def test_exterior_vanishing(self):
        f = x(2, 1) + x(2, 2)
        assert plethysm_eval((1, 1, 1), f).is_zero()
