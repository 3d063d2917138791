import json
import operator
import random

import pytest

from kpmod.laurent import LaurentPoly, _packed_product


def x(n, i):
    return LaurentPoly.variable(n, i)


def random_poly(rng, n, nterms=5, lo=-2, hi=3):
    return LaurentPoly(
        n,
        [
            (tuple(rng.randint(lo, hi) for _ in range(n)), rng.randint(-4, 4))
            for _ in range(nterms)
        ],
    )


class TestArithmetic:
    def test_zero_coefficients_dropped(self):
        p = LaurentPoly(2, {(1, 0): 1}) - LaurentPoly(2, {(1, 0): 1})
        assert not p
        assert p.terms == {}

    def test_accumulation_in_constructor(self):
        p = LaurentPoly(1, [((1,), 2), ((1,), -2), ((0,), 3)])
        assert p.terms == {(0,): 3}

    def test_ring_axioms_random(self):
        rng = random.Random(0)
        for _ in range(30):
            a, b, c = (random_poly(rng, 3) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)

    def test_int_mixing(self):
        p = x(2, 1) + 1
        assert p.coeff((0, 0)) == 1
        assert (p * 2).coeff((1, 0)) == 2
        assert p - 1 == x(2, 1)

    def test_pow(self):
        assert (x(2, 1) + x(2, 2)) ** 2 == x(2, 1) ** 2 + 2 * x(2, 1) * x(2, 2) + x(2, 2) ** 2

    def test_mixed_n_rejected(self):
        with pytest.raises(ValueError):
            x(2, 1) + x(3, 1)


def naive_product_terms(f, g) -> dict:
    """The product's terms by the plain double loop over exponent tuples:
    the reference for the packed product in ``LaurentPoly.__mul__``."""
    out: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc = out.get(key, 0) + c1 * c2
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


def random_factor(rng, n):
    """A factor with 0, 1 or several terms; exponents are small and negative
    or near +-10^20 (big-int radices), coefficients small so terms cancel."""
    nterms = rng.choice([0, 1, 1, 2, 3, 6, 12, 25])
    big = rng.random() < 0.25

    def pick():
        return rng.choice([-1, 1]) * 10**20 + rng.randint(-2, 2) if big else rng.randint(-3, 3)

    return LaurentPoly(
        n,
        [(tuple(pick() for _ in range(n)), rng.choice([-2, -1, 1, 2])) for _ in range(nterms)],
    )


class TestPackedProduct:
    def test_matches_the_double_loop_in_terms_and_order(self):
        rng = random.Random(9)
        shapes = set()
        for _ in range(2000):
            n = rng.randint(0, 6)
            f, g = random_factor(rng, n), random_factor(rng, n)
            want = naive_product_terms(f, g)
            got = (f * g).terms
            assert got == want, (f, g)
            assert list(got) == list(want), (f, g)
            shapes.add((min(len(f.terms), 2), min(len(g.terms), 2)))
        # empty, single-term and packed factors on either side all occurred
        assert shapes == {(a, b) for a in range(3) for b in range(3)}

    def test_cancellation_leaves_no_zero_terms(self):
        p = x(2, 1) + x(2, 2)
        q = x(2, 1) - x(2, 2)
        assert (p * q).terms == {(2, 0): 1, (0, 2): -1}
        assert list((p * q).terms) == [(2, 0), (0, 2)]

    def test_large_and_negative_exponents(self):
        big = 10**20
        p = LaurentPoly(2, {(big, -big): 3, (-1, 0): 1})
        q = LaurentPoly(2, {(0, big): 2, (big, 1): -1})
        assert (p * q).terms == naive_product_terms(p, q)
        assert (p * q).coeff((big, 0)) == 6

    def test_results_are_fresh(self):
        p, q = x(2, 1) + 1, LaurentPoly.monomial(2, (1, 1), 3)
        for r in (p * q, q * p, p * p):
            assert r is not p and r is not q
            assert r.terms is not p.terms and r.terms is not q.terms
        assert p == x(2, 1) + 1 and q.terms == {(1, 1): 3}


class TestProductCoeffs:
    """``_product_coeffs`` reads the packed product at chosen exponents; it
    must agree with the decoded product there, zero included."""

    def check(self, f, g, exps):
        product = (f * g).terms
        want = [product.get(e, 0) for e in exps]
        assert f._product_coeffs(g, exps) == want, (f, g, exps)

    def test_matches_the_product_on_seeded_factors(self):
        # empty, single-term and packed factors; negative and +-10^20
        # exponents; read at the product's terms and at exponents around them
        rng = random.Random(23)
        for _ in range(1500):
            n = rng.randint(1, 5)
            f, g = random_factor(rng, n), random_factor(rng, n)
            exps = list((f * g).terms)
            exps += [tuple(a + rng.randint(-2, 2) for a in e) for e in exps]
            exps += [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(5)]
            self.check(f, g, exps)

    def test_single_term_and_zero_factors(self):
        f = LaurentPoly(3, {(-1, 0, 2): 2, (0, -3, 1): -1, (1, 1, 1): 4})
        mono = LaurentPoly.monomial(3, (2, -1, 0), -3)
        zero = LaurentPoly.zero(3)
        exps = [(1, -1, 2), (2, -4, 1), (3, 0, 1), (0, 0, 0)]
        for a, b in [(f, mono), (mono, f), (f, zero), (zero, f), (mono, mono)]:
            self.check(a, b, exps)
        assert f._product_coeffs(mono, exps) == [-6, 3, -12, 0]

    def test_out_of_box_exponent_reads_zero(self):
        # n = 2: (x + 1, lo_2 - 1) packs to the key of (x, hi_2), a term of
        # the product; the box check is what tells them apart
        f = g = LaurentPoly.variable(2, 1) + LaurentPoly.variable(2, 2)
        _, radix, lo, hi = _packed_product(2, f.terms, g.terms)
        inside, outside = (0, hi[1]), (1, lo[1] - 1)
        assert sum(map(operator.mul, outside, radix)) == sum(map(operator.mul, inside, radix))
        assert (f * g).terms[inside] == 1
        assert f._product_coeffs(g, [outside, inside]) == [0, 1]
        self.check(f, g, [outside, inside, (3, -1), (-1, 3)])


class TestTransforms:
    def test_shift_and_invert(self):
        p = x(2, 1) ** 2 * x(2, 2)
        assert p.shift((-1, -1)) == x(2, 1) * LaurentPoly.one(2)  # x1^2 x2 / (x1 x2)
        assert p.invert_variables() == LaurentPoly.monomial(2, (-2, -1))

    def test_swap_adjacent(self):
        p = x(3, 1) ** 2 * x(3, 2)
        assert p.swap_adjacent(1) == x(3, 2) ** 2 * x(3, 1)
        sym = x(3, 1) * x(3, 2)
        assert sym.swap_adjacent(1) == sym

    def test_eval_ones(self):
        p = x(2, 1) ** 2 + 3 * x(2, 2) - 1
        assert p.eval_ones() == 3

    def test_extend_restrict(self):
        p = x(2, 1) + x(2, 2)
        q = p.extend(4)
        assert q.n == 4
        assert q.restrict(2) == p
        bad = x(3, 3)
        with pytest.raises(ValueError, match="beyond"):
            bad.restrict(2)


class TestRendering:
    def test_text(self):
        p = x(3, 1) ** 2 + x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3)
        assert p.text() == "x1^2 + x1*x2 + x1*x3"

    def test_text_signs_and_constants(self):
        p = 2 * x(2, 1) - x(2, 2) + 3
        assert p.text() == "2*x1 - x2 + 3"
        assert LaurentPoly.zero(2).text() == "0"

    def test_text_negative_exponent(self):
        p = LaurentPoly.monomial(2, (-1, 0))
        assert p.text() == "x1^-1"

    def test_json_roundtrip(self):
        rng = random.Random(1)
        for _ in range(20):
            p = random_poly(rng, 3)
            blob = json.dumps(p.to_json(), sort_keys=True)
            assert LaurentPoly.from_json(json.loads(blob)) == p

    def test_json_term_order_is_stable(self):
        p = x(2, 2) + x(2, 1)
        exps = [t["exp"] for t in p.to_json()["terms"]]
        assert exps == [[1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1], "polynomial object with 'n'"),
            (None, "polynomial object with 'n'"),
            ({}, "polynomial object with 'n'"),
            ({"n": 2, "terms": 5}, "list of 'terms'"),
            ({"n": 2, "terms": [[1]]}, "term object with 'exp' and 'coeff'"),
            ({"n": 2, "terms": [{"exp": [1, 0]}]}, "term object with 'exp' and 'coeff'"),
            ({"n": 2, "terms": [{"exp": [1, 0], "coeff": 1.5}]}, "'coeff' must be an integer"),
            ({"n": 2, "terms": [{"exp": [1, 0], "coeff": True}]}, "'coeff' must be an integer"),
            ({"n": 2, "terms": [{"exp": [1.5, 0], "coeff": 1}]}, "'exp' entry must be an integer"),
            ({"n": 2, "terms": [{"exp": "10", "coeff": 1}]}, "'exp' must be a list"),
            ({"n": True, "terms": []}, "'n' must be an integer"),
        ],
    )
    def test_from_json_rejects_malformed_payloads(self, data, message):
        with pytest.raises(ValueError, match=message):
            LaurentPoly.from_json(data)


class TestInputChecks:
    """Floats and bools are refused, never truncated by ``int()``."""

    @pytest.mark.parametrize(
        "n, terms, message",
        [
            (1, {(1.5,): 2}, r"exponent \(1.5,\): entry must be an integer, got 1.5"),
            (2, {(0, True): 1}, r"exponent \(0, True\): entry must be an integer"),
            (1, {(1,): 2.7}, r"coefficient of x\^\(1,\) must be an integer, got 2.7"),
            (1, {(1,): True}, r"coefficient of x\^\(1,\) must be an integer, got True"),
            (2.0, None, r"variable count must be an integer, got 2.0"),
            (True, None, r"variable count must be an integer, got True"),
        ],
    )
    def test_constructor(self, n, terms, message):
        # LaurentPoly(1, {(1.5,): 2.7}) was 2*x1
        with pytest.raises(ValueError, match=message):
            LaurentPoly(n, terms)

    @pytest.mark.parametrize("exp", [(0.5, True), (1, 1.0), (True, 0)])
    def test_monomial(self, exp):
        # LaurentPoly.monomial(2, (0.5, True)) was x2
        with pytest.raises(ValueError, match=r"exponent .*must be an integer"):
            LaurentPoly.monomial(2, exp)

    def test_monomial_coefficient(self):
        with pytest.raises(ValueError, match="coefficient .*must be an integer, got 0.5"):
            LaurentPoly.monomial(2, (1, 0), 0.5)

    @pytest.mark.parametrize("delta", [(0.9, 0), (True, 0)])
    def test_shift(self, delta):
        # (0.9, 0) did not shift
        with pytest.raises(ValueError, match=r"shift vector .*must be an integer"):
            (x(2, 1) + 1).shift(delta)

    def test_variable(self):
        with pytest.raises(ValueError, match="variable index must be an integer, got True"):
            LaurentPoly.variable(2, True)

    @pytest.mark.parametrize(
        "k, message",
        [
            (True, "power must be an integer, got True"),
            (2.0, "power must be an integer, got 2.0"),
            (-1, "power must be nonnegative, got -1"),
        ],
        ids=["True", "2.0", "-1"],
    )
    def test_pow(self, k, message):
        # (x1 + 1) ** True was x1 + 1
        with pytest.raises(ValueError, match=message):
            (x(2, 1) + 1) ** k

    @pytest.mark.parametrize("i", [True, 1.0])
    def test_swap_adjacent(self, i):
        # swap_adjacent(True) swapped x1 and x2
        with pytest.raises(ValueError, match=f"swap index must be an integer, got {i}"):
            x(2, 1).swap_adjacent(i)

    @pytest.mark.parametrize("m", [True, 3.0])
    def test_extend(self, m):
        with pytest.raises(ValueError, match=f"variable count must be an integer, got {m}"):
            x(1, 1).extend(m)

    @pytest.mark.parametrize("m", [True, 1.0])
    def test_restrict(self, m):
        with pytest.raises(ValueError, match=f"variable count must be an integer, got {m}"):
            x(2, 1).restrict(m)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LaurentPoly(-1),
            lambda: LaurentPoly.zero(-1),
            lambda: LaurentPoly.from_json({"n": -1, "terms": []}),
            lambda: LaurentPoly(2, {(1, 0): 1, (0, 0): 2}).restrict(-1),
        ],
        ids=["constructor", "zero", "from_json", "restrict"],
    )
    def test_negative_variable_count(self, make):
        # each was accepted; restrict(-1) sliced from the end to n = -1
        with pytest.raises(ValueError, match="variable count must be nonnegative, got -1"):
            make()

    @pytest.mark.parametrize("exp", [(True, 0), (1.0, 0)])
    def test_coeff(self, exp):
        # a float or bool exponent hashes like an int and found x1's coefficient
        with pytest.raises(ValueError, match=r"exponent .*must be an integer"):
            (3 * x(2, 1)).coeff(exp)

    @pytest.mark.parametrize("other", [1.5, True, False, "x"])
    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul],
        ids=["add", "sub", "mul"],
    )
    def test_arithmetic_operand(self, op, other):
        # x1 + 1.5 and x1 * 1.5 were AttributeErrors; x1 * True was x1
        f = x(2, 1) + 1
        with pytest.raises(ValueError, match=f"operand must be an integer, got {other!r}"):
            op(f, other)
        with pytest.raises(ValueError, match=f"operand must be an integer, got {other!r}"):
            op(other, f)

    def test_integer_operands_on_either_side(self):
        f = x(2, 1) + 1
        assert 3 + f == f + 3 == x(2, 1) + 4
        assert 3 - f == -(f - 3) == 2 - x(2, 1)
        assert 3 * f == f * 3 == 3 * x(2, 1) + 3
        assert not f * 0 and (0 - f) == -f and f + 0 == f

    def test_equality_with_an_int_is_not_with_a_bool(self):
        # one(2) == True and zero(2) == False held, though arithmetic refuses a bool
        one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
        assert one != True and zero != False
        assert one == 1 and zero == 0 and 3 * x(2, 1) != 3
        assert one != 1.0
