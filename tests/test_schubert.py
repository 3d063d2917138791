import itertools
import random

import pytest

from kpmod import schubert
from kpmod.laurent import LaurentPoly
from kpmod.permutations import all_permutations, code, dominates, perm_of, rho, transition
from kpmod.schubert import (
    _at_weight,
    cauchy_window_check,
    divided_difference,
    dominance_interval,
    dual_pairing,
    expand_in_schubert,
    kostant_dim,
    plethysm_eval,
    schubert_poly,
    vandermonde,
)
from reference import (
    reference_divided_difference,
    reference_dual_pairing,
    reference_expand_in_schubert,
    reference_plethysm_eval,
    reference_staircase,
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


def dominance_scan_expansion(f):
    """Schubert expansion that picks, each round, the lexicographically first
    dominance-minimal exponent of the running support by a full scan."""
    res = {}
    work = f
    while work.terms:
        supp = sorted(work.terms)
        pick = next(
            mu for mu in supp if not any(nu != mu and dominates(mu, nu) for nu in supp)
        )
        c = work.terms[pick]
        res[pick] = res.get(pick, 0) + c
        work = work - schubert_poly(pick) * c
    return {mu: c for mu, c in res.items() if c}


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
        assert not divided_difference(1, x(2, 1) * x(2, 2))
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
            assert not divided_difference(i, divided_difference(i, f))

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

    @pytest.mark.parametrize("i", [True, 1.0])
    def test_rejects_non_integer_index(self, i):
        with pytest.raises(ValueError, match="divided difference index must be an integer"):
            divided_difference(i, x(2, 1))


class TestDividedDifferenceAgainstReference:
    """``divided_difference`` works on f - s_i f and skips what cancels; the
    reference emits the geometric sum of every term.  Their terms must be
    equal as dicts."""

    def check(self, f):
        for i in range(1, f.n):
            want = reference_divided_difference(i, f).terms
            assert divided_difference(i, f).terms == want, (i, f)

    def test_every_s6_schubert_polynomial(self):
        for w in all_permutations(6):
            self.check(schubert_poly(code(w, 6)))

    def test_seeded_laurent_polynomials(self):
        # negative exponents; mirrors present or absent, gaps of 0 to 5
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(2, 5)
            f = random_poly(rng, n, nterms=rng.randint(1, 8))
            self.check(f)
            for i in range(1, n):
                # f + s_i f is symmetric in x_i, x_{i+1}: every term cancels
                sym = f + f.swap_adjacent(i)
                assert not divided_difference(i, sym)
                self.check(sym)

    def test_mirror_absent_and_wide_gaps(self):
        # p < q with no mirror enters as the mirror with -c; gaps 1 to 4 on
        # either side, with and without the mirror's coefficient differing
        f = LaurentPoly(4, {
            (0, 1, 2, 0): 3, (-1, 3, 0, 1): -2, (2, -2, 1, 1): 5,
            (4, 0, -1, 0): 1, (0, 4, -1, 0): 4, (1, 2, 3, 4): 7,
        })
        self.check(f)
        assert divided_difference(2, LaurentPoly.monomial(3, (0, 0, 2), 3)) == -3 * (x(3, 2) + x(3, 3))

    def test_equal_sums_cancel(self):
        # x1^3 and x1^2 x2 share p + q = 3: their geometric sums overlap at
        # x1 x2 and cancel there, since the signs differ
        f = LaurentPoly(2, {(3, 0): 1, (2, 1): -1})
        assert divided_difference(1, f) == x(2, 1) ** 2 + x(2, 2) ** 2
        self.check(f)
        g = LaurentPoly(3, {(3, 0, 1): 2, (2, 1, 1): -2, (0, 3, 1): 1, (-1, 4, 1): -1, (5, -2, 0): 1})
        self.check(g)

    def test_zero_polynomial(self):
        for n in range(2, 7):
            self.check(LaurentPoly.zero(n))


@pytest.mark.parametrize("lam", [(1.5, 0), (1.0, 0), (0, True)])
def test_schubert_poly_rejects_non_integer_weight(lam):
    for method in ("transition", "staircase"):
        with pytest.raises(ValueError, match=r"schubert_poly weight .*must be an integer"):
            schubert_poly(lam, method)


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

    def test_a_nonnegative_code_is_handed_on_as_it_is(self):
        # a negative one is lifted to the least nonnegative code first
        seen = []

        def build(lam):
            seen.append(lam)
            return schubert_poly(lam)

        lam = (1, 0, 2)
        assert _at_weight(build, lam) == schubert_poly(lam) and seen.pop() is lam
        assert _at_weight(build, (-1, 1)) == schubert_poly((-1, 1)) and seen.pop() == (0, 2)

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
            descents = [j for j in range(1, w.size) if w(j) > w(j + 1)]
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

    def test_cold_s7_sweep_steps_each_node_once(self, monkeypatch):
        # 4,611 of the 5,040 codes of S_7 are not weakly decreasing, and each
        # is stepped once: a node whose children were pending keeps its step
        calls = []
        step = schubert._transition_window
        monkeypatch.setattr(schubert, "_transition_window", lambda win: calls.append(win) or step(win))
        monkeypatch.setattr(schubert, "_transition_memo", {})
        for w in all_permutations(7):
            schubert_poly(code(w, 7))
        assert len(schubert._transition_memo) == 5040
        assert len(calls) == 4611


class TestExpand:
    def test_roundtrip(self):
        assert expand_in_schubert(schubert_poly((1, 0, 1))) == {(1, 0, 1): 1}

    def test_square_of_linear(self):
        f = (x(2, 1) + x(2, 2)) ** 2
        assert expand_in_schubert(f) == {(0, 2): 1, (1, 1): 1}

    def test_negative_coefficients(self):
        assert expand_in_schubert(x(2, 2)) == {(0, 1): 1, (1, 0): -1}

    def test_matches_dominance_minimal_scan(self):
        # the lexicographically least exponent is the first dominance-minimal
        # one in sorted order, so the scan below picks the same exponent each
        # round: same coefficients, same key order; negative exponents and
        # mixed total degrees included
        rng = random.Random(13)
        inputs = [
            random_poly(rng, n, nterms=rng.randint(1, 5)) for n in (2, 3, 4) for _ in range(40)
        ]
        codes = [code(w, 4) for w in all_permutations(4)]
        inputs += [
            schubert_poly(rng.choice(codes)) * schubert_poly(rng.choice(codes)) for _ in range(30)
        ]
        assert any(min(e) < 0 for f in inputs for e in f.terms)
        assert any(len(f.total_degrees()) > 1 for f in inputs)
        for f in inputs:
            got = expand_in_schubert(f)
            assert list(got.items()) == list(dominance_scan_expansion(f).items())

    def test_least_exponent_is_dominance_minimal(self):
        rng = random.Random(14)
        for _ in range(20000):
            n = rng.randint(1, 4)
            supp = {tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))}
            least = min(supp)
            assert not any(nu != least and dominates(least, nu) for nu in supp)

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


class TestStaircaseAgainstReference:
    """The staircase climbs to a window it has built and divides back down;
    the reference divides x^rho down a reduced word of w0 * w for each code.
    Both walk the same chain, so the polynomials and their term order
    agree."""

    @staticmethod
    def check(lam):
        k = max(0, -min(lam))
        ref = reference_staircase(tuple(x + k for x in lam))
        if k:
            ref = ref.shift((-k,) * len(lam))
        got = schubert_poly(lam, "staircase")
        assert list(got.terms.items()) == list(ref.terms.items()), lam

    def test_every_code_of_s1_to_s6(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                self.check(code(w, n))

    def test_seeded_laurent_weights(self):
        rng = random.Random(41)
        weights = [
            tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 4))) for _ in range(200)
        ]
        assert any(min(lam) < 0 for lam in weights)
        for lam in weights:
            self.check(lam)

    def test_cold_s7_sweep_divides_once_per_window(self, monkeypatch):
        # each of the 5,040 windows of S_1..S_7 is divided to once, but for
        # the seven longest elements, which are x^rho: 5,033 steps (a reduced
        # word from w0 for every code took 53,096)
        calls = []
        dd = schubert.divided_difference
        monkeypatch.setattr(schubert, "divided_difference", lambda i, f: calls.append(i) or dd(i, f))
        monkeypatch.setattr(schubert, "_staircase_memo", {})
        for n in range(1, 8):
            for w in all_permutations(n):
                schubert_poly(code(w, n), "staircase")
        assert len(calls) == 5033

    def test_long_chain_is_a_loop(self):
        # 1,770 divided differences down from w0 of S_61, more levels than
        # Python's default recursion limit allows: the climb must be a loop
        assert schubert_poly((60,), "staircase") == LaurentPoly.monomial(1, (60,))


class TestExponentPool:
    """Both Schubert memos keep their exponents through one pool, so a value
    held by many terms is one tuple; the transition builds x_j * S_v itself,
    and its terms keep the order of shift-then-add."""

    def test_cold_s6_sweeps_store_pool_entries(self, monkeypatch):
        for memo in ("_transition_memo", "_staircase_memo", "_exponent_pool"):
            monkeypatch.setattr(schubert, memo, {})
        for n in range(1, 7):
            for w in all_permutations(n):
                for method in ("transition", "staircase"):
                    schubert_poly(code(w, n), method)
        pool = schubert._exponent_pool
        polys = [*schubert._transition_memo.values(), *schubert._staircase_memo.values()]
        keys = [e for p in polys for e in p.terms]
        assert all(pool[e] is e for e in keys)
        # the pool holds what the memos hold and no more: the transition's
        # sums never cancel, so no pooled exponent is dropped from a memo
        assert set(pool) == set(keys)
        # the sharing is real: terms outnumber distinct exponents here
        assert len(keys) > 5 * len(pool)

    def test_transition_keeps_the_identity_order(self):
        # S_w = x_j * S_v + sum of S_b over the branches, term order included
        checked = 0
        for w in all_permutations(6):
            lam = code(w, 6)
            if all(lam[t] >= lam[t + 1] for t in range(5)):
                continue
            td = transition(w)
            ej = [0] * 6
            ej[td.j - 1] = 1
            rhs = schubert_poly(code(td.v, 6)).shift(tuple(ej))
            for _, wa in td.branches:
                rhs = rhs + schubert_poly(code(wa, 6))
            assert list(schubert_poly(lam).terms.items()) == list(rhs.terms.items()), lam
            checked += 1
        # the other 132 codes, a Catalan number, are weakly decreasing
        assert checked == 588


class TestExpandAgainstReference:
    """``expand_in_schubert`` subtracts from one running remainder; the
    reference builds a new remainder each round.  Picks, coefficients and
    key order agree."""

    @staticmethod
    def check(f):
        assert list(expand_in_schubert(f).items()) == list(reference_expand_in_schubert(f).items()), f

    def test_seeded_laurent_polynomials(self):
        rng = random.Random(43)
        inputs = [
            random_poly(rng, n, nterms=rng.randint(1, 6)) for n in (1, 2, 3, 4) for _ in range(30)
        ]
        assert any(min(e) < 0 for f in inputs for e in f.terms)
        assert any(c < 0 for f in inputs for c in f.terms.values())
        for f in inputs:
            self.check(f)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_and_one_variable(self, n):
        self.check(LaurentPoly.zero(n))
        assert expand_in_schubert(LaurentPoly.zero(n)) == {}
        self.check(LaurentPoly.monomial(n, (-2,) * n, -3) + LaurentPoly.one(n))

    def test_s4_products_and_plethysms(self):
        fs = [schubert_poly(code(w, 4)) for w in all_permutations(4)]
        for f in fs:
            for g in fs:
                self.check(f * g)
            for sigma in [s for k in range(1, 4) for s in partitions(k, k)]:
                self.check(plethysm_eval(sigma, f))

    def test_leaves_f_and_the_schubert_memo_unchanged(self):
        f = schubert_poly((0, 2, 1, 0)) * schubert_poly((1, 0, 1, 0)) - x(4, 4) ** 3
        reference_expand_in_schubert(f)  # caches every S_mu the expansion reads
        terms = list(f.terms.items())
        memo = {lam: list(p.terms.items()) for lam, p in schubert._transition_memo.items()}
        expand_in_schubert(f)
        assert list(f.terms.items()) == terms
        assert {lam: list(p.terms.items()) for lam, p in schubert._transition_memo.items()} == memo


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

    @pytest.mark.parametrize("mu", [(1.5, 0, 0), (True, 0, 0), (1.0, 0, 0)])
    def test_rejects_non_integer_weight(self, mu):
        # (1.5, 0, 0) and (True, 0, 0) both paired to 1 with S_(1,0,0)
        with pytest.raises(ValueError, match=r"dual_pairing weight .*must be an integer"):
            dual_pairing(schubert_poly((1, 0, 0)), mu)


class TestDualPairingAgainstReference:
    """``dual_pairing`` reads one product at the alternant's exponents; the
    reference builds the whole dual element. Both must give the expansion's
    coefficient, zero for a weight absent from it."""

    def check(self, f, mus):
        coeffs = expand_in_schubert(f)
        for mu in [*coeffs, *mus]:
            got = dual_pairing(f, mu)
            assert got == reference_dual_pairing(f, mu) == coeffs.get(mu, 0), (f, mu)

    def test_random_laurent_polynomials(self):
        # Laurent f with negative exponents and mixed degrees; mu with
        # negative entries, mostly absent from the expansion
        rng = random.Random(19)
        for n in range(1, 6):
            for _ in range(6):
                f = random_poly(rng, n, nterms=rng.randint(1, 4))
                mus = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(4)]
                self.check(f, mus)

    def test_non_homogeneous(self):
        rng = random.Random(20)
        for n in range(2, 6):
            f = schubert_poly((1, 0, 2, 0, 1)[:n]) * 3 - schubert_poly((0, -1, 1, 0, 0)[:n])
            assert len(f.total_degrees()) == 2
            absent = (0,) * (n - 1) + (sum((1, 0, 2, 0, 1)[:n]),)
            assert absent not in expand_in_schubert(f)
            self.check(f, [absent, *(tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(3))])

    def test_zero_polynomial(self):
        for n in range(1, 6):
            self.check(LaurentPoly.zero(n), [rho(n), (0,) * n, tuple(range(-1, n - 1))])

    def test_one_variable(self):
        # n = 1: the alternant is 1 and the pairing is the coefficient of x^mu
        f = LaurentPoly(1, [((-2,), 5), ((0,), -1), ((3,), 2)])
        assert expand_in_schubert(f) == {(-2,): 5, (0,): -1, (3,): 2}
        self.check(f, [(-1,), (1,), (4,)])


class TestVandermonde:
    def test_small_products(self):
        assert vandermonde(0) == LaurentPoly.one(0)
        assert vandermonde(1) == LaurentPoly.one(1)
        assert vandermonde(2) == x(2, 1) - x(2, 2)
        assert len(vandermonde(4).terms) == 24

    @pytest.mark.parametrize("n", [2.0, True])
    def test_rejects_non_integer(self, n):
        # 2.0 failed inside the product as a TypeError
        with pytest.raises(ValueError, match=r"vandermonde n must be an integer"):
            vandermonde(n)

    def test_rejects_true_after_one_is_cached(self):
        # an lru_cache that is not typed keys True like 1
        vandermonde(1)
        with pytest.raises(ValueError, match=r"vandermonde n must be an integer, got True"):
            vandermonde(True)

    def test_rejects_negative(self):
        # -1 failed as "exponent () has length != -1"
        with pytest.raises(ValueError, match=r"vandermonde n must be nonnegative, got -1"):
            vandermonde(-1)


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

    @pytest.mark.parametrize("delta", [(1.9, 0, -1), (True, 0, -1)])
    def test_rejects_non_integer_weight(self, delta):
        # (1.9, 0, -1) was counted as (1, 0, -1): 2
        with pytest.raises(ValueError, match=r"kostant_dim weight .*must be an integer"):
            kostant_dim(delta)


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

    def test_degree_mismatch_is_trivially_zero(self):
        rep = cauchy_window_check((0, 0, 0), (1, 0, 0))
        assert (rep.lhs, rep.rhs, rep.ok) == (0, 0, True)

    @pytest.mark.parametrize(
        "mu, nu, message",
        [
            # this was reported as mu = nu = (0, 0, 0) and ok
            ((0.5, 0, 0), (0, 0, 0.2), r"cauchy_window_check mu .*must be an integer"),
            ((0, 0, 0), (0, 0, True), r"cauchy_window_check nu .*must be an integer"),
        ],
    )
    def test_rejects_non_integer_weights(self, mu, nu, message):
        with pytest.raises(ValueError, match=message):
            cauchy_window_check(mu, nu)

    def test_empty_weights(self):
        # both raised IndexError
        assert dominance_interval((), ()) == [()]
        with pytest.raises(ValueError, match=r"cauchy_window_check needs a nonempty mu, got \(\)"):
            cauchy_window_check((), ())

    def test_dominance_interval_rejects_non_integer_weights(self):
        with pytest.raises(ValueError, match=r"dominance_interval weight .*must be an integer"):
            dominance_interval((1.0, 0), (0, 1))


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

    @pytest.mark.parametrize("sigma", [(1.9,), (True,), (2, 1.0), (1, 2)])
    def test_rejects_non_partitions(self, sigma):
        # (1.9,) was read as (1,) and (True,) as (1,)
        with pytest.raises(ValueError, match="partition"):
            plethysm_eval(sigma, x(2, 1) + x(2, 2))

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
        assert not plethysm_eval((1, 1, 1), f)


def partitions(k, largest):
    """Partitions of k with parts at most ``largest``, largest part first."""
    if k == 0:
        yield ()
    for p in range(min(k, largest), 0, -1):
        for rest in partitions(k - p, p):
            yield (p,) + rest


class TestPlethysmAgainstReference:
    """``plethysm_eval`` adds horizontal strips by the branching rule; the
    reference expands the Jacobi-Trudi determinant.  The polynomials must
    be equal."""

    def check(self, sigma, f):
        assert plethysm_eval(sigma, f) == reference_plethysm_eval(sigma, f), (sigma, f)

    def test_every_s4_schubert_polynomial_up_to_size_6(self):
        shapes = [s for k in range(7) for s in partitions(k, k)]
        for w in all_permutations(4):
            f = schubert_poly(code(w, 4))
            for sigma in shapes:
                self.check(sigma, f)

    def test_seeded_repeated_monomials_and_negative_exponents(self):
        rng = random.Random(31)
        shapes = [s for k in range(1, 5) for s in partitions(k, k)]
        for _ in range(40):
            n = rng.randint(1, 4)
            f = LaurentPoly(n, [
                (tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ])
            self.check(rng.choice(shapes), f)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_zero_empty_partition_and_few_variables(self, n):
        for sigma in [(), (1,), (2,), (1, 1), (2, 1), (3, 2, 1)]:
            self.check(sigma, LaurentPoly.zero(n))
            self.check(sigma, LaurentPoly.one(n) * 3)
            self.check(sigma, LaurentPoly.monomial(n, (-1,) * n, 2) + LaurentPoly.one(n))
        assert plethysm_eval((), LaurentPoly.zero(n)) == 1
        assert not plethysm_eval((2, 1), LaurentPoly.zero(n))
        # three copies of the value 1: s_(2,1)(1, 1, 1) = 8
        assert plethysm_eval((2, 1), LaurentPoly.one(n) * 3) == 8


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: plethysm_eval((2,), 5), "plethysm_eval"),
        (lambda: expand_in_schubert(5), "expand_in_schubert"),
        (lambda: dual_pairing(5, (0,)), "dual_pairing"),
        (lambda: divided_difference(1, 5), "divided_difference"),
    ],
    ids=["plethysm_eval", "expand_in_schubert", "dual_pairing", "divided_difference"],
)
def test_non_polynomial_argument(call, name):
    # each was an AttributeError on 'terms' or 'n'
    with pytest.raises(ValueError, match=f"{name} polynomial must be a LaurentPoly, got 5"):
        call()
