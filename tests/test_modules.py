import random
from fractions import Fraction

import pytest

from kpmod.laurent import LaurentPoly
from kpmod.linalg import ONE, axpy
from kpmod.modules import (
    ModuleMap,
    ModuleTooLargeError,
    annihilator_check,
    cyclic_submodule,
    demazure_module,
    dual_twist,
    exterior_power,
    hom_dim,
    hom_space,
    kp_module,
    largest_quotient,
    one_dim,
    sl3_identity_check,
    sl3_presentation_check,
    symmetric_power,
    tensor_many,
    tensor_power,
    tensor_product,
    vector_rep,
)
from kpmod.permutations import (
    LESS,
    EQUAL,
    Permutation,
    all_permutations,
    code,
    compare,
    contains_2143,
    rho,
)
from kpmod.schubert import schubert_poly


def x(n, i):
    return LaurentPoly.variable(n, i)


def bracket_ok(M, p1, p2):
    """[e_p1, e_p2] == delta_bc e_ad - delta_da e_cb on every basis vector
    (diagonal matrix units act by the weight coordinates)."""
    (a, b), (c, d) = p1, p2
    for col in range(M.dim):
        v = {col: ONE}
        lhs = M.apply(p1, M.apply(p2, v))
        axpy(lhs, -ONE, M.apply(p2, M.apply(p1, v)))
        rhs = {}
        if b == c and a == d:
            coeff = Fraction(M.weights[col][a - 1] - M.weights[col][b - 1])
            if coeff:
                rhs = {col: coeff}
        else:
            if b == c:
                axpy(rhs, ONE, M.apply((a, d), v))
            if d == a:
                axpy(rhs, -ONE, M.apply((c, b), v))
        if lhs != rhs:
            return False
    return True


class TestConstructors:
    def test_vector_rep_action(self):
        V = vector_rep(3)
        assert V.apply((1, 3), {2: ONE}) == {0: ONE}
        assert V.apply((1, 3), {1: ONE}) == {}
        assert V.character() == x(3, 1) + x(3, 2) + x(3, 3)

    def test_one_dim(self):
        K = one_dim((2, 1, 0))
        assert K.dim == 1
        assert K.character() == LaurentPoly.monomial(3, (2, 1, 0))
        for pair in K.pairs:
            assert K.apply(pair, {0: ONE}) == {}

    def test_exterior_square_of_plane(self):
        E = exterior_power(vector_rep(2), 2)
        assert E.dim == 1
        assert E.weights == ((1, 1),)

    def test_symmetric_square_of_plane(self):
        S = symmetric_power(vector_rep(2), 2)
        assert S.dim == 3
        assert S.character() == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2

    def test_exterior_character_is_elementary(self):
        E = exterior_power(vector_rep(3), 2)
        assert E.character() == (
            x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3) + x(3, 2) * x(3, 3)
        )

    def test_exterior_above_dim_is_zero_module(self):
        Z = exterior_power(vector_rep(2), 3)
        assert Z.dim == 0
        assert Z.character().is_zero()

    def test_tensor_character_multiplicative(self):
        rng = random.Random(0)
        codes = [code(w, 3) for w in all_permutations(3)]
        for _ in range(10):
            A = kp_module(rng.choice(codes))
            B = kp_module(rng.choice(codes))
            assert tensor_product(A, B).character() == A.character() * B.character()

    def test_bracket_identity_gl(self):
        V = vector_rep(3, lowering=True)
        for p1 in V.pairs:
            for p2 in V.pairs:
                assert bracket_ok(V, p1, p2)

    def test_bracket_identity_on_products(self):
        M = tensor_product(exterior_power(vector_rep(3), 2), vector_rep(3))
        for p1 in M.raising_pairs():
            for p2 in M.raising_pairs():
                assert bracket_ok(M, p1, p2)

    def test_bracket_identity_on_kp_induced_actions(self):
        S = kp_module((1, 0, 1, 0))
        for p1 in S.pairs:
            for p2 in S.pairs:
                assert bracket_ok(S, p1, p2)

    def test_power_characters_are_plethysms(self):
        # ch of a symmetric/exterior power is the h/e plethysm of ch
        from kpmod.schubert import plethysm_eval

        for lam in [(0, 1, 0), (1, 0, 1), (1, 1, 0)]:
            M = kp_module(lam)
            ch = M.character()
            for k in (2, 3):
                assert symmetric_power(M, k).character() == plethysm_eval((k,), ch)
                expected = plethysm_eval((1,) * k, ch)
                assert exterior_power(M, k).character() == expected

    def test_bracket_identity_with_lowering_on_powers(self):
        V = vector_rep(3, lowering=True)
        for M in (exterior_power(V, 2), symmetric_power(V, 2)):
            for p1 in M.pairs:
                for p2 in M.pairs:
                    assert bracket_ok(M, p1, p2)


class TestDualTwist:
    def test_one_dim(self):
        D = dual_twist(one_dim((0, 1, 0)))
        assert D.weights == ((2, 0, 0),)

    def test_character_identity(self):
        r = rho(3)
        for lam in [(0, 1, 0), (1, 0, 1), (2, 1, 0)]:
            M = kp_module(lam)
            D = dual_twist(M)
            assert D.character() == M.character().invert_variables().shift(r)

    def test_involution_on_characters(self):
        M = kp_module((1, 0, 1))
        assert dual_twist(dual_twist(M)).character() == M.character()

    def test_dual_is_a_module(self):
        D = dual_twist(kp_module((1, 0, 1)))
        for p1 in D.pairs:
            for p2 in D.pairs:
                assert bracket_ok(D, p1, p2)


class TestCyclicSubmodule:
    def test_vector_rep_column(self):
        V = vector_rep(3)
        S = cyclic_submodule(V, {1: ONE})
        assert S.dim == 2
        assert S.character() == x(3, 1) + x(3, 2)

    def test_killed_vector_gives_line(self):
        V = vector_rep(3)
        S = cyclic_submodule(V, {0: ONE})
        assert S.dim == 1

    def test_symmetric_square_inside_tensor(self):
        V = vector_rep(2)
        T = tensor_product(V, V)
        # u_2 (x) u_2 sits at index 3
        S = cyclic_submodule(T, {3: ONE})
        assert S.dim == 3
        assert S.character() == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2

    def test_zero_vector_gives_zero_module(self):
        S = cyclic_submodule(vector_rep(2), {})
        assert S.dim == 0


class TestKPModule:
    def test_2143(self):
        S = kp_module((1, 0, 1, 0))
        assert S.dim == 3
        assert S.character() == x(4, 1) ** 2 + x(4, 1) * x(4, 2) + x(4, 1) * x(4, 3)

    def test_13254_footnote_dimension(self):
        lam = code(Permutation([1, 3, 2, 5, 4]), 5)
        assert kp_module(lam).dim == 8

    def test_trivial_weight(self):
        S = kp_module((0, 0, 0))
        assert S.dim == 1
        assert S.character() == LaurentPoly.one(3)

    def test_generator_weight_space_is_a_line(self):
        for w in all_permutations(3):
            lam = code(w, 3)
            S = kp_module(lam)
            assert S.generator is not None
            assert len([t for t in S.weights if t == lam]) == 1
            assert S.weight_of(S.generator) == lam

    def test_character_theorem_s3(self):
        for w in all_permutations(3):
            lam = code(w, 3)
            assert kp_module(lam).character() == schubert_poly(lam)

    def test_character_theorem_s5_codes_at_rank_4(self):
        # every member of S_5 is increasing beyond position 4, so its code
        # fits in four entries and the character identity applies with n = 4
        for w in all_permutations(5):
            lam = code(w, 4)
            assert kp_module(lam).character() == schubert_poly(lam)

    def test_negative_weight_shift(self):
        lam = (-1, 0, 1)
        S = kp_module(lam)
        assert S.character() == schubert_poly(lam)
        assert S.weight_of(S.generator) == lam

    def test_weights_below_generator_in_both_orders(self):
        for w in all_permutations(3):
            lam = code(w, 3)
            for mu in set(kp_module(lam).weights):
                assert compare(mu, lam) in (LESS, EQUAL)
                assert compare(mu, lam, "prime") in (LESS, EQUAL)


class TestHom:
    def test_endomorphisms_of_kp(self):
        S = kp_module((1, 0, 1, 0))
        assert hom_dim(S, S) == 1

    def test_kp_onto_demazure(self):
        S = kp_module((1, 0, 1, 0))
        D = demazure_module((1, 0, 1, 0))
        maps = hom_space(S, D)
        assert len(maps) == 1
        assert not maps[0].is_zero()

    def test_one_dim_delta(self):
        assert hom_dim(one_dim((1, 0)), one_dim((1, 0))) == 1
        assert hom_dim(one_dim((1, 0)), one_dim((0, 1))) == 0

    def test_rank_one_has_no_operators(self):
        # n = 1: no raising pairs, homs are plain weight-matched matrices
        assert hom_dim(one_dim((2,)), one_dim((2,))) == 1
        assert kp_module((3,)).character() == LaurentPoly.monomial(1, (3,))

    def test_solutions_commute_with_all_raising_operators(self):
        # equivariance is imposed for simple pairs only; it must follow for
        # every raising pair
        S = kp_module((1, 0, 1, 0))
        D = demazure_module((1, 0, 1, 0))
        for T in hom_space(S, D):
            for pair in S.raising_pairs():
                assert T.commutes_with(pair)

    def test_equivariance_guard_raises(self, monkeypatch):
        monkeypatch.setattr(ModuleMap, "commutes_with", lambda self, pair: False)
        S = kp_module((1, 0, 1, 0))
        with pytest.raises(RuntimeError, match="does not commute with e_14"):
            hom_space(S, S)

    def test_kp_duality_delta_s3(self):
        r = rho(3)
        codes = [code(w, 3) for w in all_permutations(3)]
        for lam in codes:
            for mu in codes:
                D = dual_twist(kp_module(tuple(a - b for a, b in zip(r, mu))))
                expected = 1 if lam == mu else 0
                assert hom_dim(kp_module(lam), D) == expected


class TestLargestQuotient:
    def test_cyclic_module_dies(self):
        S = kp_module((1, 0, 1, 0))
        lam = (1, 0, 1, 0)
        allowed = [w for w in set(S.weights) if w != lam]
        Q, _ = largest_quotient(S, allowed)
        assert Q.dim == 0

    def test_exterior_square_survives(self):
        V = vector_rep(2)
        T = tensor_product(V, V)
        Q, qmap = largest_quotient(T, [(1, 1)])
        assert Q.dim == 1
        assert Q.weights == ((1, 1),)
        # the class of u1 (x) u2 generates the quotient
        assert qmap.apply({1: ONE}) != {}

    def test_full_weight_set_is_identity(self):
        T = tensor_product(vector_rep(2), vector_rep(2))
        Q, qmap = largest_quotient(T, set(T.weights))
        assert Q.dim == T.dim
        assert all(qmap.apply({c: ONE}) for c in range(T.dim))

    def test_universal_property_on_homs(self):
        # maps into a module with weights inside the allowed set factor
        # through the quotient
        T = tensor_product(vector_rep(2), vector_rep(2))
        Q, _ = largest_quotient(T, [(1, 1)])
        target = one_dim((1, 1))
        assert hom_dim(T, target) == hom_dim(Q, target)

    def test_quotient_map_is_equivariant(self):
        T = tensor_product(vector_rep(3), vector_rep(3))
        Q, qmap = largest_quotient(T, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        for pair in T.raising_pairs():
            assert qmap.commutes_with(pair)


class TestAnnihilator:
    def test_2143_report(self):
        rep = annihilator_check(Permutation([2, 1, 4, 3]), 4)
        assert rep.annihilated
        assert rep.pruned_ok
        assert rep.all_sharp  # e_13 and e_23 act nontrivially once
        assert rep.dim == 3 == rep.schubert_value
        assert rep.ok

    def test_explicit_action_in_ambient(self):
        # the [2143] ambient is K^4 (x) K^4 with generator u_1 (x) u_3
        V = vector_rep(4)
        T = tensor_product(V, V)
        gen = {0 * 4 + 2: ONE}
        once = T.apply((2, 3), gen)
        assert once == {0 * 4 + 1: ONE}  # u_1 (x) u_2
        assert T.apply((2, 3), once) == {}

    def test_identity_permutation(self):
        rep = annihilator_check(Permutation([]), 3)
        assert rep.ok
        assert rep.dim == 1
        assert all(m == 0 for m in rep.table.entries.values())

    def test_dimensions_match_schubert_at_one_s4(self):
        for w in all_permutations(4):
            rep = annihilator_check(w, 4)
            assert rep.dims_match


class TestDemazure:
    def test_2143_has_smaller_demazure(self):
        D = demazure_module((1, 0, 1, 0))
        assert D.dim == 2
        S = kp_module((1, 0, 1, 0))
        assert S.character() != D.character()

    def test_antidominant_line(self):
        assert demazure_module((1, 1, 0, 0)).dim == 1

    def test_zero_weight(self):
        assert demazure_module((0, 0, 0)).dim == 1

    def test_avoiding_cases_match_kp(self):
        for window in [(1, 3, 2), (2, 3, 1), (1, 4, 2, 3)]:
            w = Permutation(window)
            n = max(len(window), 2)
            lam = code(w, n)
            assert not contains_2143(w)
            assert demazure_module(lam).character() == kp_module(lam).character()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            demazure_module((1, -1))

    def test_antidominant_weight_fills_the_irreducible(self):
        # a weakly increasing weight is the lowest weight of the irreducible,
        # so the closure is everything: dim V(2,1,0) = 8
        D = demazure_module((0, 1, 2))
        assert D.dim == 8
        assert D.character() == kp_module((0, 1, 2)).character()


class TestSl3:
    def test_presentation_adjoint_case(self):
        rep = sl3_presentation_check(1, 1)
        assert rep.ok
        assert any("8" in name for name, _ in rep.checks)

    def test_presentation_weyl_sweep(self):
        for a in range(3):
            for b in range(3):
                assert sl3_presentation_check(a, b).ok

    def test_identity_case5_example(self):
        assert sl3_identity_check(5, 1, 1).ok

    def test_identity_case3_example(self):
        assert sl3_identity_check(3, 1, 2).ok

    def test_identity_case6_with_large_power(self):
        assert sl3_identity_check(6, 3, 1).ok  # N > M: product must vanish

    def test_identity_cases_need_hypothesis(self):
        with pytest.raises(ValueError, match="N' \\+ M'"):
            sl3_identity_check(1, 1, 0, 1, 1)

    def test_parameter_bound(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 10\]"):
            sl3_presentation_check(20, 0, bound=10)


class TestLimitsAndSerialization:
    def test_max_dim_guard(self, monkeypatch):
        monkeypatch.setenv("KP_MAX_DIM", "5")
        with pytest.raises(ModuleTooLargeError, match="KP_MAX_DIM"):
            tensor_power(vector_rep(3), 3)

    @pytest.mark.parametrize("raw", ["many", "2.5", "0", "-3", ""])
    def test_max_dim_rejects_bad_values(self, monkeypatch, raw):
        monkeypatch.setenv("KP_MAX_DIM", raw)
        with pytest.raises(ValueError, match=f"KP_MAX_DIM must be a positive integer, got '{raw}'"):
            tensor_power(vector_rep(2), 2)

    def test_empty_code_rejected(self):
        with pytest.raises(ValueError, match=r"nonempty code, got \(\)"):
            kp_module(())

    def test_json_export(self):
        S = kp_module((0, 1))
        data = S.to_json()
        assert data["n"] == 2
        assert sorted(map(tuple, data["weights"])) == [(0, 1), (1, 0)]
        assert "1,2" in data["actions"]
        triples = data["actions"]["1,2"]
        assert all(isinstance(v, str) for _, _, v in triples)

    def test_tensor_many_empty_needs_n(self):
        with pytest.raises(ValueError):
            tensor_many([])
        assert tensor_many([], n=2).dim == 1
