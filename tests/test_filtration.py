import itertools
import random

import pytest

from kpmod import filtration
from kpmod.filtration import (
    MixedDegreeError,
    _twisted_dual_hom_dim,
    char_criterion,
    degree_components,
    kp_filtration_extract,
    schur_functor_experiment,
    sort_weights,
    tensor_experiment,
    young_symmetrizer_image,
)
from kpmod.laurent import LaurentPoly
from kpmod.linalg import ONE
from kpmod.modules import (
    WeightModule,
    cyclic_submodule,
    dual_twist,
    hom_dim,
    kp_module,
    one_dim,
    tensor_many,
    tensor_product,
    vector_rep,
)
from kpmod.permutations import all_permutations, code, rho
from kpmod.schubert import expand_in_schubert, plethysm_eval, schubert_poly


def x(n, i):
    return LaurentPoly.variable(n, i)


class TestSortWeights:
    def test_tensor_of_lines(self):
        M = tensor_product(kp_module((0, 1)), kp_module((0, 1)))
        assert sort_weights(M) == [(1, 1), (2, 0), (0, 2)]

    def test_one_dim(self):
        assert sort_weights(one_dim((2, 1))) == [(2, 1)]

    def test_kp_101(self):
        M = kp_module((1, 0, 1))
        assert sort_weights(M) == [(1, 1, 0), (2, 0, 0), (1, 0, 1)]

    def test_mixed_degrees_rejected(self):
        M = WeightModule(2, [(0, 0), (1, 0)])
        with pytest.raises(MixedDegreeError, match="degree"):
            sort_weights(M)
        assert degree_components(M) == [0, 1]


class TestExtractor:
    def test_kp_module_is_its_own_filtration(self):
        for lam in [(0, 1), (1, 0, 1), (2, 0, 1)]:
            rep = kp_filtration_extract(kp_module(lam))
            assert rep.ok
            assert rep.factors == ((lam, 1),)
            assert rep.char_lhs == rep.char_rhs == schubert_poly(lam)

    def test_tensor_square_of_plane(self):
        M = tensor_product(kp_module((0, 1)), kp_module((0, 1)))
        rep = kp_filtration_extract(M)
        assert rep.ok
        assert rep.factors == (((0, 2), 1), ((1, 1), 1))
        # the top layer is the symmetric square
        assert schubert_poly((0, 2)) == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2

    def test_negative_control(self):
        rep = kp_filtration_extract(one_dim((0, 1)))
        assert not rep.ok
        assert rep.witness is not None
        assert rep.witness.nu == (0, 1)
        assert rep.witness.expected == x(2, 1) + x(2, 2)
        assert rep.witness.actual == x(2, 2)

    def test_empty_module(self):
        Z = WeightModule(2, [])
        rep = kp_filtration_extract(Z)
        assert rep.ok
        assert rep.factors == ()

    def test_layer_sum_telescopes(self):
        M = tensor_product(kp_module((1, 0, 1)), kp_module((0, 1, 0)))
        rep = kp_filtration_extract(M)
        assert rep.ok
        total = LaurentPoly.zero(3)
        for nu, d in rep.factors:
            total = total + schubert_poly(nu) * d
        assert total == M.character()


class TestCriterion:
    def test_kp_module(self):
        M = kp_module((1, 0, 1, 0))
        rep = char_criterion(M)
        assert rep.equal and rep.leq
        assert rep.rhs == schubert_poly((1, 0, 1, 0))
        assert rep.hom_multiplicities == (((1, 0, 1, 0), 1),)

    def test_tensor_hom_multiplicities(self):
        M = tensor_product(kp_module((0, 1)), kp_module((0, 1)))
        rep = char_criterion(M)
        assert rep.equal
        assert dict(rep.hom_multiplicities) == {(0, 2): 1, (1, 1): 1}

    def test_strict_inequality_on_line(self):
        rep = char_criterion(one_dim((0, 1)))
        assert rep.leq and not rep.equal
        assert rep.lhs == x(2, 2)
        assert rep.rhs == x(2, 1) + x(2, 2)

    def test_violated_bound_raises(self, monkeypatch):
        monkeypatch.setattr(filtration, "_twisted_dual_hom_dim", lambda M, nu: 0)
        with pytest.raises(RuntimeError, match="exceeds the hom-multiplicity bound"):
            char_criterion(kp_module((1, 0, 1)))

    def test_n5_pair_at_default_cap(self):
        # kp(rho - nu) for some weights here has an ambient above the default
        # KP_MAX_DIM; the criterion must not build it
        lam, mu = (0, 0, 2, 1, 0), (0, 1, 1, 0, 0)
        rep = char_criterion(tensor_many([kp_module(lam), kp_module(mu)]))
        assert rep.equal
        assert dict(rep.hom_multiplicities) == expand_in_schubert(
            schubert_poly(lam) * schubert_poly(mu)
        )


def _criterion_corpus():
    rng = random.Random(2024)
    corpus = []
    for n in (2, 3):
        codes = [code(w, n) for w in all_permutations(n)]
        for a, b in itertools.product(codes, repeat=2):
            corpus.append(tensor_product(kp_module(a), kp_module(b)))
    codes4 = [code(w, 4) for w in all_permutations(4)]
    for _ in range(10):
        M = tensor_product(kp_module(rng.choice(codes4)), kp_module(rng.choice(codes4)))
        corpus.append(M)
        corpus.append(dual_twist(M))
    for lam in rng.sample(codes4, 4):
        for sigma in ((2,), (1, 1)):
            corpus.append(young_symmetrizer_image(kp_module(lam), sigma))
    corpus.append(one_dim((0, 1)))
    return corpus


class TestCriterionAgainstHomSpace:
    def test_annihilator_route_matches_hom_route_weight_by_weight(self):
        checked = positive = 0
        for M in _criterion_corpus():
            for nu in sort_weights(M):
                lam = tuple(a - b for a, b in zip(rho(M.n), nu))
                expected = hom_dim(M, dual_twist(kp_module(lam)))
                assert _twisted_dual_hom_dim(M, nu) == expected, (M, nu)
                checked += 1
                positive += expected > 0
        # both zero and nonzero multiplicities are exercised
        assert 0 < positive < checked


class TestEquivalence:
    def test_extractor_matches_criterion_on_corpus(self):
        rng = random.Random(13)
        codes = [code(w, 3) for w in all_permutations(3)]
        corpus = []
        for lam in [(0, 1), (1, 0, 1)]:
            corpus.append(kp_module(lam))
            corpus.append(dual_twist(kp_module(lam)))
        corpus.append(one_dim((0, 1)))
        corpus.append(one_dim((1, 1, 0)))
        for _ in range(6):
            A = kp_module(rng.choice(codes))
            B = kp_module(rng.choice(codes))
            M = tensor_product(A, B)
            corpus.append(M)
            # a random cyclic submodule of the tensor product
            idx = rng.randrange(M.dim)
            corpus.append(cyclic_submodule(M, {idx: ONE}))
            # the twisted dual usually has no filtration; both sides must
            # agree on that too
            corpus.append(dual_twist(M))
        failing = 0
        for M in corpus:
            if M.dim == 0:
                continue
            ext = kp_filtration_extract(M)
            crit = char_criterion(M)
            assert ext.ok == crit.equal
            assert crit.leq
            if ext.ok:
                assert dict(ext.factors) == {
                    nu: h for nu, h in crit.hom_multiplicities
                }
            else:
                failing += 1
        assert failing > 0  # the corpus genuinely exercises the failing side


class TestTensorExperiment:
    def test_plane_square(self):
        rep = tensor_experiment((0, 1), (0, 1))
        assert rep.ok
        assert dict(rep.extract.factors) == {(0, 2): 1, (1, 1): 1}
        assert dict(rep.expansion) == {(0, 2): 1, (1, 1): 1}

    def test_tensoring_with_trivial(self):
        rep = tensor_experiment((1, 0, 1), (0, 0, 0))
        assert rep.ok
        assert rep.extract.factors == (((1, 0, 1), 1),)

    def test_factors_equal_product_expansion(self):
        rep = tensor_experiment((0, 1, 0), (1, 0, 1))
        assert rep.ok
        product = schubert_poly((0, 1, 0)) * schubert_poly((1, 0, 1))
        assert dict(rep.expansion) == expand_in_schubert(product)


class TestSchurFunctors:
    def test_symmetric_square_of_plane(self):
        rep = schur_functor_experiment((2,), (0, 1))
        assert rep.ok
        assert rep.extract.factors == (((0, 2), 1),)

    def test_exterior_square_of_plane(self):
        rep = schur_functor_experiment((1, 1), (0, 1))
        assert rep.ok
        assert rep.extract.factors == (((1, 1), 1),)

    def test_single_box_is_identity(self):
        rep = schur_functor_experiment((1,), (1, 0, 1))
        assert rep.ok
        assert rep.extract.factors == (((1, 0, 1), 1),)
        assert rep.plethysm == schubert_poly((1, 0, 1))

    def test_vanishing_wedge(self):
        rep = schur_functor_experiment((1, 1, 1), (0, 1))
        assert rep.ok
        assert rep.extract.factors == ()
        assert rep.plethysm.is_zero()

    def test_hook_at_default_cap(self):
        # kp(rho - nu) for some weights of this image has a 6,144-vector
        # ambient, above the default KP_MAX_DIM
        rep = schur_functor_experiment((2, 1), (0, 2, 1, 0))
        assert rep.consistent

    def test_hook_shape_character(self):
        rep = schur_functor_experiment((2, 1), (0, 1, 0))
        assert rep.ok
        assert rep.char_matches
        assert rep.plethysm == plethysm_eval((2, 1), schubert_poly((0, 1, 0)))

    def test_size_bound(self):
        with pytest.raises(ValueError, match="bound"):
            schur_functor_experiment((2, 1, 1), (0, 1))


class TestYoungSymmetrizerImage:
    def test_images_are_modules(self):
        V = vector_rep(2)
        sym = young_symmetrizer_image(V, (2,))
        assert sym.character() == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2
        alt = young_symmetrizer_image(V, (1, 1))
        assert alt.character() == x(2, 1) * x(2, 2)

    def test_hook_dimension(self):
        # the mixed-symmetry component of (K^2)^{(x)3} has dimension 2
        V = vector_rep(2)
        hook = young_symmetrizer_image(V, (2, 1))
        assert hook.dim == 2
