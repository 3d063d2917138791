import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import types
from fractions import Fraction
from functools import lru_cache, partial

import pytest

import kpmod
from kpmod import filtration, modules, schubert
from kpmod.laurent import LaurentPoly
from kpmod.linalg import ONE, Echelon, axpy, reduce
from kpmod.modules import (
    ModuleTooLargeError,
    SubmoduleCloser,
    _proportional,
    _Tensor,
    _close,
    _diagram_ambient,
    _diagram_generator,
    _kp_columns,
    annihilator_check,
    cyclic_submodule,
    demazure_module,
    diagram_module,
    exterior_power,
    kp_module,
    one_dim,
    sl3_identity_check,
    sl3_presentation_check,
    tensor_many,
    vector_rep,
    young_symmetrizer_image,
    WeightModule,
)
from kpmod.permutations import (
    LESS,
    EQUAL,
    Permutation,
    all_permutations,
    code,
    compare,
    contains_2143,
    perm_of,
    rho,
)
from kpmod.schubert import divided_difference, dual_pairing, schubert_poly
import reference
from differential import sl3_calls
from reference import (
    ModuleMap,
    ReferenceCloser,
    ReferenceEchelon,
    ReferenceWedgeAmbient,
    closers_agree,
    dual_twist,
    echelon_rows,
    hom_dim,
    hom_space,
    inversion_data,
    kp_generator,
    mixed_radix_key,
    reference_annihilator_check,
    reference_diagram_module,
    reference_sl3_report,
    reference_symmetric_power,
)


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
        for pair in K.raising_pairs():
            assert K.apply(pair, {0: ONE}) == {}

    def test_one_dim_rejects_non_integer_weights(self):
        # (0.7, True) was read as the weight (0, 1)
        with pytest.raises(ValueError, match=r"one_dim weight .*must be an integer"):
            one_dim((0.7, True))

    @pytest.mark.parametrize(
        "n, weights, message",
        [
            # WeightModule(2.7, [(0.5, True)]) was a module over n = 2 of weight (0, 1)
            (2.7, [(0, 1)], "WeightModule n must be an integer, got 2.7"),
            (True, [(0,)], "WeightModule n must be an integer, got True"),
            (2, [(0.5, True)], r"WeightModule weight \(0.5, True\): entry must be an integer"),
            (2, [(1, 0), (0, True)], r"WeightModule weight \(0, True\): entry must be an integer"),
        ],
    )
    def test_weight_module_rejects_non_integers(self, n, weights, message):
        with pytest.raises(ValueError, match=message):
            WeightModule(n, weights)

    def test_weight_module_rejects_negative_rank(self):
        # n = 0 stays allowed: one_dim(()) is the trivial module of rank 0
        with pytest.raises(ValueError, match="vector_rep n must be nonnegative, got -1"):
            vector_rep(-1)
        assert one_dim(()).n == 0

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: exterior_power(vector_rep(2), 1.5), "exterior_power k must be an integer, got 1.5"),
            (lambda: exterior_power(vector_rep(2), True), "exterior_power k must be an integer, got True"),
            (lambda: vector_rep(2.5), "vector_rep n must be an integer, got 2.5"),
            (lambda: diagram_module([[1]], 2.0), "diagram_module n must be an integer, got 2.0"),
            # a "negative shift count", and a column "not a set of rows in 1..-1"
            (lambda: diagram_module([], -2), "diagram_module n must be nonnegative, got -2"),
            (lambda: diagram_module([[1]], -1), "diagram_module n must be nonnegative, got -1"),
            (lambda: diagram_module([[1.0]], 2), r"diagram_module column \(1.0,\): entry must be an integer"),
            (lambda: diagram_module([[True]], 2), r"diagram_module column \(True,\): entry must be an integer"),
            (lambda: demazure_module(()), r"demazure_module needs a nonempty weight, got \(\)"),
            (lambda: cyclic_submodule(vector_rep(2), {5: ONE}), "cyclic_submodule vec: 5 is not a basis index"),
            (lambda: cyclic_submodule(vector_rep(2), {True: ONE}), "cyclic_submodule vec: True is not a basis index"),
            # these two failed inside the echelon, with AttributeError and ZeroDivisionError
            (lambda: cyclic_submodule(vector_rep(2), {0: 1.5}), "cyclic_submodule vec: coefficient 1.5 at index 0"),
            (lambda: cyclic_submodule(vector_rep(2), {0: 0}), "cyclic_submodule vec: coefficient 0 at index 0"),
            # a module over n = 0, a TypeError, and an n silently ignored
            (lambda: tensor_many([], -1), "tensor_many n must be nonnegative, got -1"),
            (lambda: tensor_many([], 2.0), "tensor_many n must be an integer, got 2.0"),
            (lambda: tensor_many([vector_rep(2)], 3), "tensor_many n = 3 contradicts the factors' n = 2"),
            (lambda: exterior_power(vector_rep(2), -1), "exterior_power k must be nonnegative, got -1"),
        ],
    )
    def test_constructors_reject_bad_arguments(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_fraction_coefficient_is_accepted(self):
        assert cyclic_submodule(vector_rep(2), {1: Fraction(1, 2)}).dim == 2

    @pytest.mark.parametrize(
        "build, message",
        [
            # accepted before, as a module over n = 2
            (lambda: WeightModule(2, [(1, 0, 0)]), r"WeightModule weight \(1, 0, 0\) has length 3, not n = 2"),
            (lambda: WeightModule(2, [(1, 0), (1,)]), r"WeightModule weight \(1,\) has length 1, not n = 2"),
        ],
    )
    def test_weights_must_have_length_n(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([(1.5, 0)], r"WeightModule weight \(1.5, 0\): entry must be an integer"),
            ([(0, 1), (True, 0)], r"WeightModule weight \(True, 0\): entry must be an integer"),
            ([(1, 0, 0)], r"WeightModule weight \(1, 0, 0\) has length 3, not n = 2"),
        ],
    )
    def test_public_constructor_keeps_every_check(self, weights, message):
        with pytest.raises(ValueError, match=message):
            WeightModule(2, weights)

    def test_derived_weights_are_not_checked_again(self, monkeypatch):
        # closures, powers and tensor products sum weights already checked
        checked = []
        real = modules.int_tuple
        monkeypatch.setattr(modules, "int_tuple", lambda values, what: checked.append(what) or real(values, what))
        kpmod.clear_caches()  # a cached module would not be built again
        M = kp_module((0, 2, 1, 0))
        derived = [M, exterior_power(M, 2), tensor_many([M, M]), young_symmetrizer_image(M, (2, 1))]
        assert checked == ["kp_module code"]
        for D in derived:
            assert D.dim and all(type(w) is tuple and len(w) == 4 for w in D.weights)
            assert all(type(x) is int for w in D.weights for x in w)
        kpmod.clear_caches()

    @pytest.mark.parametrize(
        "name, build, size",
        [
            ("combinations", lambda: exterior_power(vector_rep(12), 6), 924),
        ],
    )
    def test_powers_are_refused_before_enumerating(self, monkeypatch, name, build, size):
        def spy(*args):
            raise AssertionError(f"{name} called before the size check")

        monkeypatch.setattr(kpmod.modules.itertools, name, spy)
        monkeypatch.setenv("KP_MAX_DIM", "100")
        with pytest.raises(ModuleTooLargeError, match=f"basis size {size} exceeds the KP_MAX_DIM cap 100"):
            build()

    def test_exterior_square_of_plane(self):
        E = exterior_power(vector_rep(2), 2)
        assert E.dim == 1
        assert E.weights == ((1, 1),)

    def test_symmetric_square_of_plane(self):
        S = young_symmetrizer_image(vector_rep(2), (2,))
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
        assert not Z.character()

    def test_tensor_character_multiplicative(self):
        rng = random.Random(0)
        codes = [code(w, 3) for w in all_permutations(3)]
        for _ in range(10):
            A = kp_module(rng.choice(codes))
            B = kp_module(rng.choice(codes))
            assert tensor_many([A, B]).character() == A.character() * B.character()

    def test_bracket_identity_on_products(self):
        M = tensor_many([exterior_power(vector_rep(3), 2), vector_rep(3)])
        for p1 in M.raising_pairs():
            for p2 in M.raising_pairs():
                assert bracket_ok(M, p1, p2)

    def test_bracket_identity_on_kp_induced_actions(self):
        S = kp_module((1, 0, 1, 0))
        for p1 in S.raising_pairs():
            for p2 in S.raising_pairs():
                assert bracket_ok(S, p1, p2)

    def test_power_characters_are_plethysms(self):
        # ch of a symmetric/exterior power is the h/e plethysm of ch
        from kpmod.schubert import plethysm_eval

        for lam in [(0, 1, 0), (1, 0, 1), (1, 1, 0)]:
            M = kp_module(lam)
            ch = M.character()
            for k in (2, 3):
                assert young_symmetrizer_image(M, (k,)).character() == plethysm_eval((k,), ch)
                expected = plethysm_eval((1,) * k, ch)
                assert exterior_power(M, k).character() == expected

    def test_bracket_identity_on_powers(self):
        V = vector_rep(3)
        for M in (exterior_power(V, 2), reference_symmetric_power(V, 2), reference_symmetric_power(V, 3)):
            for p1 in M.raising_pairs():
                for p2 in M.raising_pairs():
                    assert bracket_ok(M, p1, p2)

    def test_non_raising_pair_is_a_key_error(self):
        V = vector_rep(3)
        for pair in [(2, 1), (1, 4), (2, 2)]:
            with pytest.raises(KeyError, match=r"not a raising pair of n = 3"):
                V.column(pair, 0)
        # the diagram ambient checks too, and so does the tensor action,
        # which reads the factors' move tables
        amb = _diagram_ambient((0, 1), 3)
        key = amb.key([[1, 2], [3]])
        ref_key = ReferenceWedgeAmbient([2, 1], 3).wedge([[0, 1], [2]])[0]
        assert mixed_radix_key(key, [2, 1], 3) == ref_key
        gen = {key: ONE}
        T = tensor_many([kp_module((0, 1, 0)), kp_module((1, 0, 1))])
        for act in (lambda: amb.apply((2, 1), gen), lambda: T.column((2, 1), 0)):
            with pytest.raises(KeyError, match=r"operator \(2, 1\) is not a raising pair of n = 3"):
                act()


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
        for p1 in D.raising_pairs():
            for p2 in D.raising_pairs():
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
        T = tensor_many([V, V])
        # u_2 (x) u_2 sits at index 3
        S = cyclic_submodule(T, {3: ONE})
        assert S.dim == 3
        assert S.character() == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2

    def test_zero_vector_gives_zero_module(self):
        S = cyclic_submodule(vector_rep(2), {})
        assert S.dim == 0

    def test_mixed_weight_vector_rejected(self):
        # u_1 + u_2 is no weight vector: closing the span of its components
        # would not give the cyclic submodule it generates
        with pytest.raises(ValueError, match="not a homogeneous weight vector"):
            cyclic_submodule(vector_rep(2), {0: ONE, 1: ONE})


def held_objects(root) -> list:
    """Every object reachable from root through function closure cells,
    bound methods, partials, the items of lists, tuples, sets and dicts, and
    the slots and attributes of kpmod objects."""
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, types.MethodType):
            stack.extend((obj.__self__, obj.__func__))
        elif isinstance(obj, partial):
            stack.extend((obj.func, *obj.args, *obj.keywords.values()))
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("kpmod"):
            names = [n for cls in type(obj).__mro__ for n in getattr(cls, "__slots__", ())]
            stack.extend(getattr(obj, n) for n in names if hasattr(obj, n))
            stack.extend(getattr(obj, "__dict__", {}).values())
    return found


class TestClosedModule:
    """A closed module keeps its weights, its reduced rows in basis order
    and each pivot's basis index; the closure's bookkeeping is dropped."""

    @pytest.mark.parametrize(
        "M, seed, outside",
        [
            # u_1 spans a line that every e_ij kills; u_3 has a weight it lacks
            (vector_rep(3), ((1, 0, 0), {0: ONE}), ((0, 0, 1), {2: ONE})),
            # u_1 (x) u_2 closes to span{u_1 (x) u_2, u_1 (x) u_1}; u_2 (x) u_1
            # has the seed's weight and lies outside
            (tensor_many([vector_rep(3)] * 2), ((1, 1, 0), {1: ONE}), ((1, 1, 0), {3: ONE})),
        ],
    )
    def test_vector_outside_the_closure_is_refused(self, M, seed, outside):
        with pytest.raises(ValueError, match="^subspace is not stable under the module action$"):
            _close(M, [seed], "test closure", outside)

    def test_builder_holds_no_closer(self):
        kpmod.clear_caches()
        S = kp_module((0, 1, 0, 2))  # 20 basis vectors over 16 weights
        held = held_objects(S._builder)
        assert not [o for o in held if isinstance(o, (SubmoduleCloser, Echelon))]
        # a (weight, pivot) key of the basis
        assert not [o for o in held if type(o) is tuple and len(o) == 2 and type(o[0]) is tuple]
        assert all(schubert._exponent_pool[w] is w for w in S.weights)
        assert len({id(w) for w in S.weights}) == len(set(S.weights)) < S.dim
        kpmod.clear_caches()
        assert not schubert._exponent_pool

    def test_builder_holds_no_function(self):
        # a closed module is data: its builder binds the ambient, the rows
        # and the pivot map to the one module-level column rule
        S = kp_module((0, 1, 0, 2))
        assert S._builder.func is modules._closed_column and not S._builder.keywords
        assert not [o for o in held_objects(S._builder.args) if callable(o)]


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
        T = tensor_many([V, V])
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

    @pytest.mark.parametrize("lam", [(1.0, 0), (0, 1.5), (True, 0)])
    def test_rejects_non_integer_entries(self, lam):
        with pytest.raises(ValueError, match=r"demazure_module weight .*must be an integer"):
            demazure_module(lam)

    def test_antidominant_weight_fills_the_irreducible(self):
        # a weakly increasing weight is the lowest weight of the irreducible,
        # so the closure is everything: dim V(2,1,0) = 8
        D = demazure_module((0, 1, 2))
        assert D.dim == 8
        assert D.character() == kp_module((0, 1, 2)).character()


def inversion_columns(lam):
    """Row sets of the nonempty columns of the inversion diagram of perm(lam)."""
    data = inversion_data(perm_of(lam))
    cols = sorted(j for j, size in data.column_sizes.items() if size > 0)
    return [[i for (i, jj) in sorted(data.inversions) if jj == j] for j in cols]


def eager_kp(lam):
    """Reference route for a nonnegative code: the whole tensor_many of the
    column exterior powers, then cyclic_submodule of the diagram wedge."""
    n = len(lam)
    columns = inversion_columns(lam)
    factors = [exterior_power(vector_rep(n), len(rows)) for rows in columns]
    key = 0
    for F, rows in zip(factors, columns):
        subsets = list(itertools.combinations(range(n), len(rows)))
        key = key * F.dim + subsets.index(tuple(r - 1 for r in rows))
    return cyclic_submodule(tensor_many(factors, n), {key: ONE})


@lru_cache(maxsize=None)
def key_polynomial(lam: tuple):
    """pi_w x^{lam+}: x^lam when lam is weakly decreasing, otherwise
    pi_i of the key polynomial of lam with an ascent at i swapped, where
    pi_i f = d_i(x_i f)."""
    n = len(lam)
    i = next((i for i in range(1, n) if lam[i - 1] < lam[i]), None)
    if i is None:
        return LaurentPoly.monomial(n, lam)
    up = lam[: i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
    return divided_difference(i, key_polynomial(up) * x(n, i))


def dumps(M):
    return json.dumps(M.to_json(), sort_keys=True)


class TestDiagramEngine:
    """The lazily keyed engine against the eager tensor_many route."""

    def test_kp_columns_match_the_inversion_diagram(self):
        codes = [code(w, m) for m in range(1, 7) for w in all_permutations(m)]
        # uniform S_8 codes: entry i ranges over 0..8-i
        rng = random.Random(1)
        codes += [tuple(rng.randint(0, 8 - i) for i in range(1, 9)) for _ in range(300)]
        for lam in codes:
            assert _kp_columns(lam) == inversion_columns(lam), lam

    def test_kp_matches_eager_route_on_all_s4_codes(self):
        for w in all_permutations(4):
            lam = code(w, 4)
            S, R = kp_module(lam), eager_kp(lam)
            assert dumps(S) == dumps(R)
            assert S.generator == R.generator

    def test_kp_matches_eager_route_on_s5_sample(self):
        codes = [code(w, 5) for w in all_permutations(5)]
        for lam in random.Random(5).sample(codes, 30):
            S, R = kp_module(lam), eager_kp(lam)
            assert dumps(S) == dumps(R)
            assert S.generator == R.generator

    def test_ambient_columns_match_eager_tensor(self):
        n = 4
        for lam in [(1, 0, 1, 0), (0, 2, 1, 0), (2, 0, 1, 0), (3, 2, 0, 0)]:
            columns = inversion_columns(lam)
            lengths = [len(c) for c in columns]
            view = RadixView(_diagram_ambient(tuple(range(len(columns))), n), lengths)
            gen_key = view.amb.key(columns)
            gen = {view.radix(gen_key): ONE}
            ref = ReferenceWedgeAmbient(lengths, n)
            assert list(gen) == [ref.wedge([[r - 1 for r in c] for c in columns])[0]]
            eager = tensor_many([exterior_power(vector_rep(n), len(c)) for c in columns], n)
            frontier = list(gen)
            seen = set(frontier)
            while frontier:
                key = frontier.pop()
                for pair in view.raising_pairs():
                    col = view.column(pair, key)
                    assert col == eager.column(pair, key)
                    frontier.extend(k for k in col if k not in seen)
                    seen.update(col)
            # the weight of the column wedge counts the columns holding each row
            gen_wt = eager.weight_of(gen)
            assert gen_wt == tuple(sum(r in c for c in columns) for r in range(1, n + 1))
            # every basis weight of diagram_module is the eager weight at
            # the pivot key of its echelon row, and at the row's other keys
            closer = SubmoduleCloser(view.amb)
            closer.add([(gen_wt, {gen_key: ONE})])
            basis = [(wt, p) for wt in sorted(closer.echelons) for p in sorted(closer.echelons[wt].pivots)]
            assert list(diagram_module(columns, n).weights) == [wt for wt, _ in basis]
            for wt, p in basis:
                assert all(eager.weights[view.radix(key)] == wt for key in echelon_rows(closer.echelons[wt])[p])
            view.assert_order_kept()

    @pytest.mark.parametrize("m", [4, 5])
    def test_demazure_character_is_key_polynomial(self, m):
        for w in all_permutations(m):
            lam = code(w, m)
            assert demazure_module(lam).character() == key_polynomial(lam)

    def test_key_diagram_generator(self):
        D = demazure_module((0, 2, 1))
        assert D.weight_of(D.generator) == (0, 2, 1)
        assert D.weights.count((0, 2, 1)) == 1

    def test_rejects_columns_outside_the_rows(self):
        with pytest.raises(ValueError, match="not a set of rows in 1..3"):
            diagram_module([[1, 4]], 3)
        with pytest.raises(ValueError, match="not a set of rows"):
            diagram_module([[2, 2]], 3)

    def test_empty_diagram_is_the_trivial_module(self):
        assert dumps(diagram_module([], 3)) == dumps(one_dim((0, 0, 0)))

    def test_annihilators_on_s6_sample_at_default_cap(self, monkeypatch):
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        perms = list(all_permutations(6))
        for w in random.Random(6).sample(perms, 40):
            rep = annihilator_check(w, 6)
            assert rep.ok and rep.all_sharp

    @pytest.mark.parametrize(
        "lam, dim",
        # of the seeded S_8 sample random.Random(1).sample(perms of 1..8, 300),
        # the four whose closures pass 5,000 ambient keys; the cap counts
        # their dimensions, which are far below it
        [
            ((0, 6, 1, 4, 3, 0, 1, 0), 1745),
            ((1, 0, 4, 1, 0, 2, 1, 0), 1653),
            ((2, 1, 0, 4, 3, 0, 1, 0), 1505),
            ((0, 6, 5, 4, 1, 0, 1, 0), 445),
        ],
    )
    def test_s8_codes_with_many_ambient_keys_at_default_cap(self, monkeypatch, lam, dim):
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        S = kp_module(lam)
        assert S.dim == dim
        assert S.character() == schubert_poly(lam)


def reference_axpy(acc: dict, c, v: dict) -> None:
    """acc += c * v, in place, dropping zeros."""
    if not c:
        return
    for i, x in v.items():
        y = acc.get(i, 0) + c * x
        if y:
            acc[i] = y
        else:
            del acc[i]


class ReferenceTensor:
    """The tensor action before move tables, kept as the route the fused
    ``_Tensor.apply`` is held to: one column dict per key, built slot by
    slot from the factors' ``column`` by Leibniz, merged into the image by
    axpy."""

    def __init__(self, factors, n: int):
        self.n = n
        dims = [F.dim for F in factors]
        self.slots = [(F, d, math.prod(dims[s + 1:])) for s, (F, d) in enumerate(zip(factors, dims))]

    def column(self, pair, idx: int) -> dict:
        out: dict = {}
        for F, d, stride in self.slots:
            digit = idx // stride % d
            for r, c in F.column(pair, digit).items():
                key = idx + (r - digit) * stride
                acc = out.get(key, 0) + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return out

    def apply(self, pair, vec: dict) -> dict:
        out: dict = {}
        for idx, c in vec.items():
            reference_axpy(out, c, self.column(pair, idx))
        return out


COEFFS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))


def check_against_reference(action, ref, starts, rng) -> int:
    """Compare ``action.apply`` with the reference, for every raising pair,
    on seeded vectors over the keys within two raising steps of ``starts``.
    Where two of those keys share an image key, a vector takes both with
    coefficients that cancel there.  Returns how many image keys cancelled."""
    pairs = action.raising_pairs()
    pool = set(starts)
    for _ in range(2):
        pool |= {k for key in list(pool) for pair in pairs for k in ref.apply(pair, {key: ONE})}
    pool = sorted(pool)
    cancelled = 0
    for pair in pairs:
        hits: dict = {}
        for key in pool:
            for out, c in ref.apply(pair, {key: ONE}).items():
                hits.setdefault(out, []).append((key, c))
        shared = [h for h in hits.values() if len(h) > 1]
        for _ in range(3):
            vec = {k: rng.choice(COEFFS) for k in rng.sample(pool, min(len(pool), rng.randint(1, 4)))}
            if shared:
                (k1, c1), (k2, c2) = rng.sample(rng.choice(shared), 2)
                a = rng.choice(COEFFS)
                vec[k1], vec[k2] = a * c2, -a * c1
            want = ref.apply(pair, vec)
            assert action.apply(pair, vec) == want
            cancelled += len({k for idx in vec for k in ref.apply(pair, {idx: ONE})} - set(want))
    return cancelled


class RadixView:
    """A ``_DiagramAmbient`` read on the mixed-radix keys of the reference
    ambients: keys are translated both ways, and every bit key met is kept
    with its translation, for ``assert_order_kept``."""

    def __init__(self, amb, lengths):
        self.amb, self.lengths, self.n = amb, list(lengths), amb.n
        self.seen: dict = {}  # bit key -> mixed-radix key

    def raising_pairs(self):
        return self.amb.raising_pairs()

    def simple_pairs(self):
        return self.amb.simple_pairs()

    def radix(self, key: int) -> int:
        out = self.seen[key] = mixed_radix_key(key, self.lengths, self.n)
        return out

    def bits(self, radix: int) -> int:
        rest, columns = radix, []
        for k in reversed(self.lengths):
            combos = list(itertools.combinations(range(1, self.n + 1), k))
            rest, digit = divmod(rest, len(combos))
            columns.append(combos[digit])
        key = self.amb.key(columns[::-1])
        assert self.radix(key) == radix
        return key

    def apply(self, pair, vec: dict) -> dict:
        image = self.amb.apply(pair, {self.bits(k): c for k, c in vec.items()})
        return {self.radix(k): c for k, c in image.items()}

    def simple_images(self, vec: dict, want: int) -> list:
        images = self.amb.simple_images({self.bits(k): c for k, c in vec.items()}, want)
        return [{self.radix(k): c for k, c in image.items()} for image in images]

    def column(self, pair, radix: int) -> dict:
        return self.apply(pair, {radix: ONE})

    def assert_order_kept(self):
        """The translation is strictly increasing on every key met."""
        radix = [self.seen[k] for k in sorted(self.seen)]
        assert all(a < b for a, b in zip(radix, radix[1:]))


class SimpleImagesView:
    """``simple_images`` of an action read one simple pair at a time; the
    images of the rows up to i, or of row i alone, as a closure asks for
    them, are those of the full call, the rest empty."""

    def __init__(self, action):
        self.action = action

    def raising_pairs(self):
        return self.action.simple_pairs()

    def apply(self, pair, vec: dict) -> dict:
        n, top = self.action.n, pair[0]
        images = self.action.simple_images(vec, (1 << n) - 2)  # rows 1..n-1, bit n - b for row b
        assert len(images) == n - 1
        assert self.action.simple_images(vec, (1 << n) - (1 << n - top)) == images[:top] + [{}] * (n - 1 - top)
        alone = [{}] * (n - 1)
        alone[top - 1] = images[top - 1]
        assert self.action.simple_images(vec, 1 << n - top) == alone
        return images[top - 1]


class TestFusedTensorAction:
    """``_Tensor.apply`` (the move tables) and the bit-field action of
    ``_DiagramAmbient`` against ``ReferenceTensor``, on multi-key vectors
    whose images cancel."""

    def test_diagram_ambients_of_s5_and_an_s6_slice(self):
        rng = random.Random(15)
        codes = [(code(w, 5), 5) for w in all_permutations(5)]
        codes += [(code(w, 6), 6) for w in rng.sample(list(all_permutations(6)), 40)]
        cancelled = 0
        for lam, n in codes:
            columns = inversion_columns(lam)
            view = RadixView(_diagram_ambient(tuple(range(len(columns))), n), [len(c) for c in columns])
            ref = ReferenceTensor([exterior_power(vector_rep(n), len(c)) for c in columns], n)
            gen = view.radix(view.amb.key(columns))
            cancelled += check_against_reference(view, ref, [gen], rng)
            view.assert_order_kept()
        assert cancelled > 0

    def test_simple_images_of_s5_and_an_s6_slice(self):
        # apply and simple_images run one move pass; this holds the simple
        # images to the reference's per-pair columns, not to apply
        rng = random.Random(28)
        codes = [(code(w, 5), 5) for w in all_permutations(5)]
        codes += [(code(w, 6), 6) for w in rng.sample(list(all_permutations(6)), 40)]
        cancelled = 0
        for lam, n in codes:
            columns = inversion_columns(lam)
            view = RadixView(_diagram_ambient(tuple(range(len(columns))), n), [len(c) for c in columns])
            ref = ReferenceTensor([exterior_power(vector_rep(n), len(c)) for c in columns], n)
            gen = view.radix(view.amb.key(columns))
            cancelled += check_against_reference(SimpleImagesView(view), ref, [gen], rng)
            view.assert_order_kept()
        assert cancelled > 0

    def test_simple_images_match_per_pair_apply(self):
        rng = random.Random(25)
        codes = [(code(w, 5), 5) for w in all_permutations(5)]
        codes += [(code(w, 6), 6) for w in rng.sample(list(all_permutations(6)), 40)]
        cancelled = 0
        for lam, n in codes:
            columns = inversion_columns(lam)
            amb = _diagram_generator(columns, n)[0]  # equal columns kept as orbit sums
            cancelled += check_against_reference(SimpleImagesView(amb), amb, [amb.key(columns)], rng)
        assert cancelled > 0

    @pytest.mark.parametrize(
        "lengths", [[1, 1], [2], [2, 1], [2, 2], [3]], ids=["(2)", "(1,1)", "(2,1)", "(2,2)", "(1,1,1)"]
    )
    def test_schur_ambients(self, lengths):
        # the column lengths of sigma
        rng = random.Random(len(lengths) * 10 + lengths[0])
        cancelled = 0
        for lam in [(0, 2, 1, 0), (1, 0, 2, 0), (0, 1, 2)]:
            M = kp_module(lam)
            factors = [M if k == 1 else exterior_power(M, k) for k in lengths]
            amb, ref = _Tensor(factors, M.n), ReferenceTensor(factors, M.n)
            size = math.prod(F.dim for F, _, _ in ref.slots)
            cancelled += check_against_reference(amb, ref, rng.sample(range(size), 3), rng)
        assert cancelled > 0

    def test_tensor_of_two_kp_modules(self):
        rng = random.Random(2)
        cancelled = 0
        for lam, mu in [((0, 2, 1, 0), (1, 0, 1, 0)), ((1, 0, 2, 0), (0, 2, 1, 0)), ((0, 1, 2), (1, 1, 0))]:
            factors = [kp_module(lam), kp_module(mu)]
            ref = ReferenceTensor(factors, len(lam))
            T = tensor_many(factors)
            starts = rng.sample(range(T.dim), 3)
            cancelled += check_against_reference(_Tensor(factors, len(lam)), ref, starts, rng)
            cancelled += check_against_reference(T, ref, starts, rng)
        assert cancelled > 0


class TestMixedRadixReference:
    """``diagram_module`` and ``annihilator_check`` against the same
    closures and powers run in the ``ReferenceWedgeAmbient`` of
    tests/reference.py, byte for byte."""

    def assert_same(self, M, R):
        assert dumps(M) == dumps(R)
        assert M.generator == R.generator

    def test_every_s5_code(self):
        for w in all_permutations(5):
            lam = code(w, 5)
            self.assert_same(kp_module(lam), reference_diagram_module(_kp_columns(lam), 5))

    def test_seeded_s6_slice(self):
        for w in random.Random(25).sample(list(all_permutations(6)), 60):
            lam = code(w, 6)
            self.assert_same(kp_module(lam), reference_diagram_module(_kp_columns(lam), 6))
            assert annihilator_check(w, 6).to_json() == reference_annihilator_check(w, 6).to_json()

    def test_demazure_box(self):
        for lam in itertools.product(range(3), repeat=4):
            columns = [[i for i, x in enumerate(lam, 1) if x >= c] for c in range(1, max(lam) + 1)]
            self.assert_same(demazure_module(lam), reference_diagram_module(columns, 4))


def orbit(key: int, classes: tuple, n: int) -> set:
    """The keys of a diagram ambient reached from ``key`` by permuting the
    fields of the columns of each class."""
    ncols, mask = len(classes), (1 << n) - 1
    fields = [key >> n * (ncols - 1 - c) & mask for c in range(ncols)]
    groups = [[c for c in range(ncols) if classes[c] == label] for label in dict.fromkeys(classes)]
    out = set()
    for perms in itertools.product(*(itertools.permutations([fields[c] for c in g]) for g in groups)):
        new = fields[:]
        for g, perm in zip(groups, perms):
            for c, f in zip(g, perm):
                new[c] = f
        out.add(sum(f << n * (ncols - 1 - c) for c, f in enumerate(new)))
    return out


class TestOrbitSums:
    """A ``_DiagramAmbient`` with column classes against the class-free one
    on symmetric vectors, read at the least key of each orbit."""

    @staticmethod
    def diagrams():
        for w in all_permutations(5):
            yield _kp_columns(code(w, 5)), 5
        for lam in itertools.product(range(3), repeat=4):
            yield [[i for i, x in enumerate(lam, 1) if x >= c] for c in range(1, max(lam) + 1)], 4

    def test_apply_and_simple_images_match_the_full_tensor(self):
        rng = random.Random(27)
        tested = 0
        for columns, n in self.diagrams():
            first: dict = {}
            classes = tuple(first.setdefault(frozenset(rows), c) for c, rows in enumerate(columns))
            if len(set(classes)) == len(classes):
                continue
            amb, full = _diagram_ambient(classes, n), _diagram_ambient(tuple(range(len(classes))), n)
            # the keys within two raising steps of the generator, by orbit
            pool = {amb.key(columns)}
            for _ in range(2):
                pool |= {k for key in pool for p in full.raising_pairs() for k in full.apply(p, {key: ONE})}
            least = sorted({min(orbit(k, classes, n)) for k in pool})
            for _ in range(4):
                sym = {}
                for k in rng.sample(least, min(len(least), rng.randint(1, 3))):
                    c = rng.choice(COEFFS)
                    sym.update(dict.fromkeys(orbit(k, classes, n), c))
                stored = {k: c for k, c in sym.items() if min(orbit(k, classes, n)) == k}

                def read(vec):
                    # the full image is symmetric too
                    assert all(vec.get(o) == c for k, c in vec.items() for o in orbit(k, classes, n))
                    return {k: c for k, c in vec.items() if min(orbit(k, classes, n)) == k}

                for p in amb.raising_pairs():
                    assert amb.apply(p, stored) == read(full.apply(p, sym)), (columns, p)
                every = (1 << n) - 2
                assert amb.simple_images(stored, every) == [read(v) for v in full.simple_images(sym, every)]
                tested += 1
        assert tested > 100

    def test_repeated_columns_close_as_in_the_full_tensor(self):
        # the closure in the orbit sums against the closure in the full
        # tensor of the same columns, both on the bit-field keys, with
        # classes of three and four columns (the {0..2}^4 box has two)
        for lam in [(0, 3, 4), (0, 4, 4, 5), (4, 0, 4, 1), (3, 3, 0, 3)]:
            columns = [[i for i, x in enumerate(lam, 1) if x >= c] for c in range(1, max(lam) + 1)]
            amb, (wt, gen) = _diagram_generator(columns, len(lam))
            assert max(columns.count(rows) for rows in columns) >= 3
            full = _diagram_ambient(tuple(range(len(columns))), len(lam))
            got = demazure_module(lam)
            want = _close(full, [(wt, gen)], "full", (wt, gen))
            assert dumps(got) == dumps(want) and got.generator == want.generator

    def test_negative_codes_are_shifted_closures(self):
        for lam in itertools.product(range(-2, 3), repeat=4):
            k = max(0, -min(lam))
            core = tuple(x + k for x in lam)
            S = kp_module(lam)
            assert S.to_json() == tensor_many([kp_module(core), one_dim((-k,) * 4)]).to_json(), lam
            assert S.generator == kp_module(core).generator

    def test_capped_negative_code_names_its_own_weight(self, monkeypatch):
        monkeypatch.setenv("KP_MAX_DIM", "4")
        kpmod.clear_caches()
        with pytest.raises(ModuleTooLargeError, match=r"^kp_module\(-1, 1, 0, -1\) at weight \(1, 0, -1, -1\): "
                           "closure rank 5 exceeds"):
            kp_module((-1, 1, 0, -1))


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

    @pytest.mark.parametrize("args, desc", [
        ((1, 2, 1, 1, 1), "e13^2 e23^1 vanishes on (a,b)=(1,1)"),
        ((2, 1, 2, 1, 1), "e12^1 e13^2 vanishes on (a,b)=(1,1)"),
        ((3, 2, 1), "e13^2 matches (-1)^2/2! e23^2 e12^2 on (a,b)=(1,0)"),
        ((4, 2, 1), "e13^2 matches 1/2! e12^2 e23^2 on (a,b)=(0,1)"),
        ((5, 1, 1), "e12^3 e23^1 vanishes on (a,b)=(1,1)"),
        ((6, 2, 1), "e12^2 e23^1 vanishes on (a,b)=(0,1)"),
        ((6, 1, 2), "e12^1 e23^2 is a multiple of e23^1 e13^1 on (a,b)=(0,2)"),
    ])
    def test_identity_descriptions(self, args, desc):
        assert sl3_identity_check(*args).checks == ((desc, True),)

    @pytest.mark.parametrize("case", [0, 7, -1])
    def test_unknown_identity_case(self, case):
        with pytest.raises(ValueError, match=f"^unknown identity case {case}$"):
            sl3_identity_check(case, 1, 1)

    def test_parameter_bound(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 10\]"):
            sl3_presentation_check(20, 0)

    def test_generator_is_fresh_and_clear_caches_empties_the_ambients(self):
        from kpmod.modules import _sl3_module

        kpmod.clear_caches()
        amb, (wt, g) = _sl3_module(2, 1)
        assert wt == (0, 2, 3) and g == {amb.key([(2, 3), (2, 3), (3,)]): ONE}
        g[amb.key([(1, 3), (2, 3), (3,)])] = ONE  # a caller that mutates its generator
        amb2, (_, g2) = _sl3_module(2, 1)
        assert amb2 is amb and g2 == {amb.key([(2, 3), (2, 3), (3,)]): ONE}
        assert sl3_presentation_check(2, 1).ok
        kpmod.clear_caches()
        assert _diagram_ambient.cache_info().currsize == 0
        assert _sl3_module(2, 1)[0] is not amb

    def test_lowered_cap_refuses_the_presentation_at_its_closure_rank(self, monkeypatch):
        assert sl3_presentation_check(3, 3).ok
        monkeypatch.setenv("KP_MAX_DIM", "50")
        with pytest.raises(ModuleTooLargeError, match=r"^sl3_presentation_check\(3, 3\) at weight "
                           r"\(\d+, \d+, \d+\): closure rank 51 exceeds the KP_MAX_DIM cap 50$"):
            sl3_presentation_check(3, 3)

    def test_identity_checks_build_nothing_so_no_cap_refuses_them(self, monkeypatch):
        monkeypatch.setenv("KP_MAX_DIM", "1")
        assert sl3_identity_check(5, 3, 3).ok
        assert sl3_identity_check(1, 4, 3, 3, 3).ok

    def test_checks_agree_with_the_enumerated_module(self):
        # every presentation and identity check of the u3 suite at a, b <= 3
        for check, args in sl3_calls(3):
            assert check(*args).to_json() == reference_sl3_report(check, *args).to_json(), args

    @pytest.mark.parametrize("name, args", [
        ("case", (3.0, 1, 1)), ("case", (True, 1, 1)),
        ("N", (3, 1.0, 1)), ("N", (3, True, 1)),
        ("M", (3, 1, 1.0)), ("M", (3, 1, True)),
        ("N2", (1, 2, 1, 1.0, 1)), ("N2", (1, 2, 1, True, 1)),
        ("M2", (1, 2, 1, 1, 1.0)), ("M2", (1, 2, 1, 1, False)),
    ])
    def test_identity_rejects_non_integer_arguments(self, name, args):
        # (3, 1.0, 1) was a TypeError from range inside apply_power
        with pytest.raises(ValueError, match=f"sl3_identity_check {name} must be an integer"):
            sl3_identity_check(*args)

    @pytest.mark.parametrize("a, b", [(1.0, 0), (True, 0), (0, 2.0)])
    def test_rejects_non_integer_parameters(self, a, b):
        sl3_presentation_check(1, 0)  # 1.0 and True must not pass for 1
        with pytest.raises(ValueError, match="rank-3 module [ab] must be an integer"):
            sl3_presentation_check(a, b)


class TestLimitsAndSerialization:
    def test_max_dim_guard(self, monkeypatch):
        monkeypatch.setenv("KP_MAX_DIM", "5")
        with pytest.raises(ModuleTooLargeError, match="KP_MAX_DIM"):
            tensor_many([vector_rep(3)] * 3, 3)

    def test_size_error_names_construction_code_size_and_cap(self, monkeypatch):
        # kp(0,2,1,0) has dimension 5, demazure(0,1,2) dimension 8
        monkeypatch.setenv("KP_MAX_DIM", "4")
        kpmod.clear_caches()  # a cached module would not be rebuilt
        with pytest.raises(ModuleTooLargeError) as err:
            kp_module((0, 2, 1, 0))
        msg = str(err.value)
        assert "kp_module(0, 2, 1, 0)" in msg and "KP_MAX_DIM cap 4" in msg
        assert "closure rank 5" in msg
        with pytest.raises(ModuleTooLargeError, match=r"demazure_module\(0, 1, 2\) at weight \(2, 0, 1\): closure rank 5"):
            demazure_module((0, 1, 2))

    def test_module_cached_at_a_larger_cap_is_refused_under_a_lower_one(self, monkeypatch):
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        assert kp_module((0, 2, 1, 0)).dim == 5
        monkeypatch.setenv("KP_MAX_DIM", "4")
        # no clear_caches(): the module cached at the default cap must not
        # be handed out, so the call fails as a cold one does
        with pytest.raises(ModuleTooLargeError) as err:
            kp_module((0, 2, 1, 0))
        assert str(err.value) == (
            "kp_module(0, 2, 1, 0) at weight (2, 1, 0, 0): closure rank 5 exceeds the KP_MAX_DIM cap 4"
        )

    def test_closure_rank_error_names_the_weight(self, monkeypatch):
        T = tensor_many([vector_rep(3)] * 2, 3)
        monkeypatch.setenv("KP_MAX_DIM", "5")
        # u_3 (x) u_3 generates the 6-dimensional symmetric square
        with pytest.raises(ModuleTooLargeError, match=r"cyclic_submodule at weight \(\d, \d, \d\): "
                           "closure rank 6 exceeds the KP_MAX_DIM cap 5"):
            cyclic_submodule(T, {8: ONE})

    @pytest.mark.parametrize("raw", ["many", "2.5", "0", "-3", ""])
    def test_max_dim_rejects_bad_values(self, monkeypatch, raw):
        monkeypatch.setenv("KP_MAX_DIM", raw)
        with pytest.raises(ValueError, match=f"KP_MAX_DIM must be a positive integer, got '{raw}'"):
            tensor_many([vector_rep(2)] * 2, 2)

    @pytest.mark.parametrize("lam", [(1.5, 0, 1, 0), (1.0, 0), (True, 0), (0, False)])
    def test_non_integer_code_rejected(self, lam):
        # a float was truncated and a bool read as 0 or 1 before
        with pytest.raises(ValueError, match=r"kp_module code .*must be an integer"):
            kp_module(lam)

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


class TestClearCaches:
    def test_results_identical_after_clear(self):
        from kpmod import filtration, schubert

        def snapshot():
            return (
                [dumps(kp_module(lam)) for lam in [(1, 0, 1, 0), (-1, 0, 1), (0, 2, 1, 0)]],
                [schubert_poly((1, 3, 0, 1), m).to_json() for m in ("transition", "staircase")],
                dual_pairing(schubert_poly((0, 1, 2)), (0, 1, 2)),
                demazure_module((0, 2, 1)).character(),
                filtration.char_criterion(
                    tensor_many([kp_module((1, 0, 1)), kp_module((0, 1, 0))])
                ).to_json(),
            )

        before = snapshot()
        assert filtration._cached_presentation.cache_info().currsize > 0
        kpmod.clear_caches()
        assert kpmod.modules._kp_cached.cache_info().currsize == 0
        assert filtration._cached_presentation.cache_info().currsize == 0
        assert not schubert._transition_memo
        assert not schubert._staircase_memo
        assert not schubert._exponent_pool
        assert schubert.vandermonde.cache_info().currsize == 0
        assert snapshot() == before

    def test_clear_drops_every_move_table(self):
        # in a fresh interpreter, where no other test holds a module: after
        # clear_caches no live module keeps a move table
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import gc, kpmod\n"
            "def build():\n"
            "    kpmod.kp_module((0, 2, 1, 0))\n"
            "    kpmod.annihilator_check(kpmod.perm_of((0, 2, 1, 0)), 4)\n"
            "    kpmod.tensor_experiment((0, 1, 0), (1, 0, 1))\n"
            "    kpmod.schur_functor_experiment((2, 1), (0, 2, 1, 0))\n"
            "def tabled():\n"
            "    gc.collect()\n"
            "    return sum(isinstance(m, kpmod.WeightModule) and bool(m._moves) for m in gc.get_objects())\n"
            "build()\n"
            "before = tabled()\n"
            "kpmod.clear_caches()\n"
            "print(before > 0, tabled())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out == "True 0\n"


def typed_rows(rows: dict) -> dict:
    """Echelon rows by pivot with each entry's type, in key order."""
    return {p: [(i, type(c), c) for i, c in row.items()] for p, row in rows.items()}


class TestIntegerEntries:
    """Ambient actions have integer coefficients, so module entries stay
    ints; a Fraction appears only where an echelon pivot divides."""

    @pytest.mark.parametrize("m", [4, 5])
    def test_kp_columns_are_ints(self, m):
        for w in all_permutations(m):
            S = kp_module(code(w, m))
            assert all(type(c) is int for c in S.generator.values())
            for pair in S.raising_pairs():
                for idx in range(S.dim):
                    for c in S.column(pair, idx).values():
                        assert type(c) is int, (code(w, m), pair, idx, c)

    def test_non_unit_pivot_stays_exact(self):
        ech = Echelon()
        assert ech.insert({0: 2, 1: 1}) == 0
        row = echelon_rows(ech)[0]
        assert row == {0: 1, 1: Fraction(1, 2)}
        assert type(row[0]) is int and type(row[1]) is Fraction

    def test_unit_pivot_row_keeps_ints(self):
        ech = Echelon()
        ech.insert({1: 1, 2: -3})
        ech.insert({0: -1, 1: 2})
        assert echelon_rows(ech) == {0: {0: 1, 2: -6}, 1: {1: 1, 2: -3}}
        assert all(type(c) is int for row in ech.rows for c in row.values())

    @pytest.mark.parametrize("entries", ["int", "fraction"])
    def test_echelon_matches_the_reduction_route(self, entries):
        # sparse vectors over a small index range, so that many are dependent
        rng = random.Random(f"echelon-{entries}")

        def entry():
            c = rng.choice([-3, -2, -1, 1, 2, 3, 5])
            return Fraction(c, rng.choice([1, 2, 3, 7])) if entries == "fraction" else c

        def vector(size):
            return {i: entry() for i in rng.sample(range(12), rng.randint(1, size))}

        for _ in range(150):
            new, ref = Echelon(), ReferenceEchelon()
            for _ in range(rng.randint(1, 10)):
                v = vector(5)
                assert new.insert(v) == ref.insert(v)
            assert new.rank == ref.rank and echelon_rows(new) == ref.rows
            assert list(new.pivots) == list(ref.rows)
            spanned = {}
            for p in rng.sample(sorted(ref.rows), rng.randint(1, ref.rank)):
                axpy(spanned, entry(), ref.rows[p])
            order = list(new.pivots)
            for v in [spanned, vector(8), vector(3)]:
                coords = {}
                residual = reduce(v, new.pivots, new.rows, coords)
                assert residual == ref.reduce(v) and list(residual) == list(ref.reduce(v))
                got = {order[t]: c for t, c in coords.items()}
                try:
                    want = ref.express(v)
                except ValueError:
                    assert residual
                else:
                    assert not residual
                    assert got == want and list(got) == list(want)
                    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]

    @pytest.mark.parametrize(
        "vecs",
        [
            [{0: 3, 2: 6, 5: -9}],  # the pivot divides every entry
            [{0: 2, 1: 3}, {1: 4, 3: 6}],  # it does not
            [{0: -4, 3: 8, 4: -12}, {1: -1, 2: 7}],  # negative pivots that divide
            [{0: -3, 1: 2}, {1: -2, 2: 1}],  # negative pivots that do not
            [{1: 1, 2: 2}, {1: 3, 2: 5, 3: 6}],  # reduced to {2: -1, 3: 6}
            [{0: 4, 1: Fraction(8, 3)}, {0: Fraction(4), 1: 8}],  # rows holding Fractions
            [{1: 2, 2: 1}, {1: 4, 2: 4, 3: 2}],  # reduced to a Fraction(2) pivot
        ],
    )
    def test_integer_pivot_division_matches_the_reference(self, vecs):
        new, ref = Echelon(), ReferenceEchelon()
        for v in vecs:
            assert new.insert(v) == ref.insert(v)
            assert list(new.pivots) == list(ref.rows)
            assert typed_rows(echelon_rows(new)) == typed_rows(ref.rows)

    def test_integer_pivot_division_on_seeded_rows(self):
        # half of the vectors are multiples of their first entry, so that
        # many pivots divide their rows
        rng = random.Random("integer-pivots")
        divided = 0
        for _ in range(200):
            new, ref = Echelon(), ReferenceEchelon()
            for _ in range(rng.randint(1, 6)):
                v = {i: rng.choice([-3, -2, -1, 1, 2, 4]) for i in rng.sample(range(8), rng.randint(1, 4))}
                if rng.random() < 0.5:
                    v = {i: c * rng.choice([-6, -2, 3]) for i, c in v.items()}
                p = new.insert(v)
                assert p == ref.insert(v) and list(new.pivots) == list(ref.rows)
                assert typed_rows(echelon_rows(new)) == typed_rows(ref.rows)
                divided += p is not None and abs(v.get(p, 0)) > 1 and all(
                    type(c) is int for c in echelon_rows(new)[p].values()
                )
        assert divided > 50

    def test_proportional_with_a_fraction_ratio(self):
        # as a float, the ratio 1/3 would make 7 * r differ from Fraction(7, 3)
        assert _proportional({0: 1, 1: Fraction(7, 3)}, {0: 3, 1: 7})
        assert not _proportional({0: 1, 1: 2}, {0: 3, 1: 7})
        assert _proportional({}, {0: 3}) and not _proportional({}, {})

    @pytest.mark.parametrize("case", [3, 4])
    def test_factorial_identity_cases(self, case):
        for N in range(4):
            for M in range(4):
                assert sl3_identity_check(case, N, M).ok, (case, N, M)


class TestPrunedClosure:
    """``SubmoduleCloser`` skips e_b v for v = e_a u and b >= a + 2, which
    commuting operators already reach; every closure a route makes, fed the
    same batches, against ``ReferenceCloser``, which takes every simple
    image: the same added ranks per call and the same rows after it."""

    @staticmethod
    def closers(monkeypatch, build) -> list:
        """(module, batches) of every closure ``build`` makes, from cold caches."""
        made = []

        class Recording(SubmoduleCloser):
            def __init__(self, M, what="submodule closure"):
                super().__init__(M, what)
                made.append((M, []))

            def add(self, vecs):
                batch = list(vecs)
                made[-1][1].append(batch)
                return super().add(batch)

        monkeypatch.setattr(modules, "SubmoduleCloser", Recording)
        monkeypatch.setattr(filtration, "SubmoduleCloser", Recording)
        kpmod.clear_caches()  # a cached module would not be closed again
        build()
        kpmod.clear_caches()
        return made

    def check(self, monkeypatch, build, least: int) -> None:
        made = self.closers(monkeypatch, build)
        assert len(made) >= least
        for M, batches in made:
            assert closers_agree(M, batches), batches[0][:1]

    def test_s5_kp_modules(self, monkeypatch):
        self.check(monkeypatch, lambda: [kp_module(code(w, 5)) for w in all_permutations(5)], 120)

    def test_demazure_modules(self, monkeypatch):
        lams = list(itertools.product(range(4), repeat=4))
        self.check(monkeypatch, lambda: [demazure_module(lam) for lam in lams], len(lams))

    def test_rank_3_modules(self, monkeypatch):
        grid = list(itertools.product(range(5), repeat=2))
        self.check(monkeypatch, lambda: [sl3_presentation_check(a, b) for a, b in grid], len(grid))

    def test_schur_images_of_s4_kp_modules(self, monkeypatch):
        shapes = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]

        def build():
            for w in all_permutations(4):
                M = kp_module(code(w, 4))
                for sigma in shapes:
                    young_symmetrizer_image(M, sigma)

        self.check(monkeypatch, build, 24 * 4)

    def test_tensor_extractions_across_the_tower(self, monkeypatch):
        rng = random.Random(31)
        codes = {n: [code(w, n) for w in all_permutations(n)] for n in (4, 5)}
        pairs = [tuple(rng.choice(codes[4]) for _ in range(2)) for _ in range(24)]
        pairs += [tuple(rng.choice(codes[5]) for _ in range(2)) for _ in range(8)]

        def build():
            for lam, mu in pairs:
                filtration.kp_filtration_extract(tensor_many([kp_module(lam), kp_module(mu)]))

        made = self.closers(monkeypatch, build)
        assert sum(len(batches) > 1 for _, batches in made) >= 20  # towers of several steps
        for M, batches in made:
            assert closers_agree(M, batches)

    def test_s6_kp_sweep_makes_fewer_inserts(self, monkeypatch):
        inserts = [0]

        class Counting(Echelon):
            __slots__ = ()

            def insert(self, vec):
                inserts[0] += 1
                return super().insert(vec)

        monkeypatch.setattr(modules, "Echelon", Counting)
        monkeypatch.setattr(reference, "Echelon", Counting)
        counts = []
        for closer in (SubmoduleCloser, ReferenceCloser):
            inserts[0] = 0
            for w in all_permutations(6):
                amb, gen = kp_generator(code(w, 6))
                closer(amb).add([gen])
            counts.append(inserts[0])
        pruned, full = counts
        assert pruned <= 7904 < full

    def test_annihilator_check_reads_each_diagram_once(self, monkeypatch):
        read = []
        real = modules._kp_columns
        monkeypatch.setattr(modules, "_kp_columns", lambda lam: read.append(lam) or real(lam))
        kpmod.clear_caches()
        for w in all_permutations(4):
            kp_module(code(w, 4))
            annihilator_check(w, 4)
        assert sorted(read) == sorted(code(w, 4) for w in all_permutations(4))
        kpmod.clear_caches()

    def test_one_memo_entry_serves_module_and_annihilator_check(self):
        kpmod.clear_caches()
        assert kp_module((0, 2, 1, 0)).generator == {0: ONE}
        assert annihilator_check(perm_of((0, 2, 1, 0)), 4).ok
        info = modules._kp_cached.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        S, amb, key = modules._kp_cached((0, 2, 1, 0), modules.max_dim())
        assert S is kp_module((0, 2, 1, 0)) and key == amb.key(_kp_columns((0, 2, 1, 0)))
        kpmod.clear_caches()
        assert modules._kp_cached.cache_info().currsize == 0
