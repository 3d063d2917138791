import json
import random

import pytest

from kpmod.laurent import LaurentPoly


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
        assert p.is_zero()
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
