import hashlib
import itertools
import json
import math
import random
import time

import pytest

from kpmod import filtration
from kpmod.filtration import (
    MixedDegreeError,
    _twisted_dual_hom_dim,
    char_criterion,
    kp_filtration_extract,
    schur_functor_experiment,
    sort_weights,
    tensor_experiment,
    young_symmetrizer_image,
)
from kpmod.laurent import LaurentPoly
from kpmod.linalg import ONE, Echelon
from kpmod.modules import (
    ModuleTooLargeError,
    SubmoduleCloser,
    WeightModule,
    _close,
    cyclic_submodule,
    exterior_power,
    kp_module,
    one_dim,
    tensor_many,
    vector_rep,
)
from kpmod.permutations import Permutation, _presentation, all_permutations, code, m_table, perm_of, rho
from kpmod.schubert import expand_in_schubert, plethysm_eval, schubert_poly
from differential import dumps as dumps_with_generator
from reference import dual_twist, hom_dim, reference_m_table, reference_young_symmetrizer_image


def x(n, i):
    return LaurentPoly.variable(n, i)


class TestSortWeights:
    def test_tensor_of_lines(self):
        M = tensor_many([kp_module((0, 1)), kp_module((0, 1))])
        assert sort_weights(M) == [(1, 1), (2, 0), (0, 2)]

    def test_one_dim(self):
        assert sort_weights(one_dim((2, 1))) == [(2, 1)]

    def test_kp_101(self):
        M = kp_module((1, 0, 1))
        assert sort_weights(M) == [(1, 1, 0), (2, 0, 0), (1, 0, 1)]

    def test_sorted_once_per_module_and_returned_fresh(self, monkeypatch):
        M = tensor_many([kp_module((0, 1)), kp_module((0, 1))])
        keyed = []
        key = filtration._standard_key
        monkeypatch.setattr(filtration, "_standard_key", lambda w: keyed.append(w) or key(w))
        first = sort_weights(M)
        first.reverse()
        assert sort_weights(M) == [(1, 1), (2, 0), (0, 2)]
        assert len(keyed) == 3

    def test_mixed_degrees_rejected(self):
        M = WeightModule(2, [(0, 0), (1, 0)])
        with pytest.raises(MixedDegreeError, match=r"module mixes total degrees \[0, 1\]"):
            sort_weights(M)


class TestExtractor:
    def test_kp_module_is_its_own_filtration(self):
        for lam in [(0, 1), (1, 0, 1), (2, 0, 1)]:
            rep = kp_filtration_extract(kp_module(lam))
            assert rep.ok
            assert rep.factors == ((lam, 1),)
            assert rep.char_lhs == rep.char_rhs == schubert_poly(lam)

    def test_tensor_square_of_plane(self):
        M = tensor_many([kp_module((0, 1)), kp_module((0, 1))])
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

    def test_module_over_zero_variables_is_refused(self):
        # failed inside schubert_poly with "empty weight vector"
        with pytest.raises(ValueError, match="kp_filtration_extract needs a module over n >= 1, got n = 0"):
            kp_filtration_extract(one_dim(()))

    def test_reports_pinned_on_a_fixed_corpus(self):
        # every S_3 tensor pair and its twisted dual, the Schur images with
        # 2 <= |sigma| <= 3, the twisted duals of the S_3 KP modules, a line
        # and a shifted module: 26 of the 110 fail, so witnesses with their
        # expected and actual characters are pinned too
        codes = [code(w, 3) for w in all_permutations(3)]
        corpus = [tensor_many([kp_module(a), kp_module(b)]) for a in codes for b in codes]
        corpus += [
            young_symmetrizer_image(kp_module(lam), sigma)
            for sigma in [(2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
            for lam in codes
        ]
        corpus += [dual_twist(kp_module(lam)) for lam in codes]
        corpus += [dual_twist(M) for M in corpus[:36]]
        corpus += [
            one_dim((0, 1)),
            tensor_many([kp_module((1, 0, 1)), kp_module((0, 1, 0)), one_dim((-1, 2, 0))]),
        ]
        reports = [kp_filtration_extract(M).to_json() for M in corpus]
        assert sum(r["witness"] is not None for r in reports) == 26
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert digest == "e527f820ba0fbb9c1eccf00c0b8146392a19a822955e95594a0c175ebc8e52fa"

    def test_layer_sum_telescopes(self):
        M = tensor_many([kp_module((1, 0, 1)), kp_module((0, 1, 0))])
        rep = kp_filtration_extract(M)
        assert rep.ok
        total = LaurentPoly.zero(3)
        for nu, d in rep.factors:
            total = total + schubert_poly(nu) * d
        assert total == M.character()


class TestFullWeightSpaces:
    """A full weight space takes nothing: over every S_4 tensor pair, no
    ``Echelon.insert`` of the extractor's tower or of the criterion runs on
    an echelon whose rank is already dim M_mu of its vectors' weight."""

    def test_every_s4_pair_inserts_into_no_full_space(self, monkeypatch):
        codes = [code(w, 4) for w in all_permutations(4)]
        products = [tensor_many([kp_module(a), kp_module(b)]) for a in codes for b in codes]
        real = Echelon.insert
        ambient, inserts, full = [None], [0], []

        def insert(self, vec):
            M = ambient[0]
            if M is not None:
                inserts[0] += 1
                wt = M.weight_of(vec)
                if self.rank == len(M.weight_spaces()[wt]):
                    full.append(wt)
            return real(self, vec)

        monkeypatch.setattr(Echelon, "insert", insert)
        for M in products:
            ambient[0] = M
            kp_filtration_extract(M)
            char_criterion(M)
        ambient[0] = None
        assert inserts[0] > 2000 and not full, full[:5]


class TestCriterion:
    def test_kp_module(self):
        M = kp_module((1, 0, 1, 0))
        rep = char_criterion(M)
        assert rep.equal and rep.leq
        assert rep.rhs == schubert_poly((1, 0, 1, 0))
        assert rep.hom_multiplicities == (((1, 0, 1, 0), 1),)

    def test_tensor_hom_multiplicities(self):
        M = tensor_many([kp_module((0, 1)), kp_module((0, 1))])
        rep = char_criterion(M)
        assert rep.equal
        assert dict(rep.hom_multiplicities) == {(0, 2): 1, (1, 1): 1}

    def test_strict_inequality_on_line(self):
        rep = char_criterion(one_dim((0, 1)))
        assert rep.leq and not rep.equal
        assert rep.lhs == x(2, 2)
        assert rep.rhs == x(2, 1) + x(2, 2)

    def test_module_over_zero_variables_is_refused(self):
        # failed inside schubert_poly with "empty weight vector"
        with pytest.raises(ValueError, match="char_criterion needs a module over n >= 1, got n = 0"):
            char_criterion(one_dim(()))

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
            corpus.append(tensor_many([kp_module(a), kp_module(b)]))
    codes4 = [code(w, 4) for w in all_permutations(4)]
    for _ in range(10):
        M = tensor_many([kp_module(rng.choice(codes4)), kp_module(rng.choice(codes4))])
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
            M = tensor_many([A, B])
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

    @pytest.mark.parametrize("lam, mu", [((1.5, 0), (0, 1)), ((0, 1), (True, 0))])
    def test_rejects_non_integer_weights(self, lam, mu):
        with pytest.raises(ValueError, match="must be an integer"):
            tensor_experiment(lam, mu)

    def test_codes_of_two_lengths_are_refused_before_building(self, monkeypatch):
        # tensor_many refused them only once both modules were built, with
        # "mixed ranks in a tensor product", which names neither code
        built = []
        monkeypatch.setattr(filtration, "kp_module", built.append)
        with pytest.raises(
            ValueError,
            match="^tensor_experiment: codes 1,0 and 1,0,0 have lengths 2 and 3; a pair needs codes of one length$",
        ):
            tensor_experiment((1, 0), (1, 0, 0))
        assert built == []


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
        assert not rep.plethysm

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

    def test_size_four_on_all_s4_codes(self):
        shapes = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        for w in all_permutations(4):
            for sigma in shapes:
                assert schur_functor_experiment(sigma, code(w, 4)).ok, (sigma, w)

    @pytest.mark.parametrize("sigma", [(1, 1, 1, 1), (2, 2), (3, 1)])
    def test_size_four_on_a_9_dimensional_s5_code_at_default_cap(self, monkeypatch, sigma):
        # the image lives in the tensor of the Lambda^{|c|} kp(0,2,2,1,0) over
        # the columns c of sigma, not in the 9^4 = 6,561-vector fourth power
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        assert schur_functor_experiment(sigma, (0, 2, 2, 1, 0)).ok

    def test_symmetric_fourth_power_of_a_14_dimensional_code_is_refused_at_its_seeds(self, monkeypatch):
        # S^4 kp(0,0,2,1,0) has dimension C(17, 4) = 2,380, below its
        # 14^3 = 2,744 seed tuples: a cap that admits the seeds admits the
        # closure (it completes at the default cap), and a lower one refuses
        # it before any seed is wedged
        monkeypatch.setenv("KP_MAX_DIM", "2743")
        with pytest.raises(ModuleTooLargeError) as err:
            young_symmetrizer_image(kp_module((0, 0, 2, 1, 0)), (4,))
        assert str(err.value) == (
            "young_symmetrizer_image of sigma (4,): seed tuples 2744 exceeds the KP_MAX_DIM cap 2743"
        )

    def test_closure_of_a_14_dimensional_code_is_refused_at_rank_above_the_default_cap(self, monkeypatch):
        # S^(3,1) kp(0,0,2,1,0) has dimension 5,460: its 2,744 seed tuples
        # fit the cap, and the closure stops at rank 5,001
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        with pytest.raises(ModuleTooLargeError) as err:
            young_symmetrizer_image(kp_module((0, 0, 2, 1, 0)), (3, 1))
        assert str(err.value) == (
            "young_symmetrizer_image of sigma (3, 1) at weight (4, 4, 2, 2, 0): "
            "closure rank 5001 exceeds the KP_MAX_DIM cap 5000"
        )

    def test_exterior_power_above_the_cap_names_the_schur_construction(self, monkeypatch):
        # kp(0,0,1,2,1,0) has dimension 35, and the one column of (1,1,1)
        # needs Lambda^3 of it: C(35, 3) = 6,545 vectors, counted before the
        # ambient is built
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        with pytest.raises(ModuleTooLargeError) as err:
            young_symmetrizer_image(kp_module((0, 0, 1, 2, 1, 0)), (1, 1, 1))
        assert str(err.value) == (
            "young_symmetrizer_image of sigma (1, 1, 1): exterior_power 3 basis size 6545 exceeds the KP_MAX_DIM cap 5000"
        )

    def test_closure_above_the_cap_is_a_size_error(self, monkeypatch):
        # kp(0,2,2,1,0) has dimension 9; the image under (3,1), of dimension
        # 990, starts from 9^3 = 729 seed tuples and is refused at closure
        # rank 801
        monkeypatch.setenv("KP_MAX_DIM", "800")
        with pytest.raises(ModuleTooLargeError) as err:
            schur_functor_experiment((3, 1), (0, 2, 2, 1, 0))
        assert str(err.value) == (
            "young_symmetrizer_image of sigma (3, 1) at weight (7, 3, 7, 3, 0): "
            "closure rank 801 exceeds the KP_MAX_DIM cap 800"
        )

    @pytest.mark.parametrize(
        "sigma, lam, terms",
        # kp(0,0) has dimension 1 and kp(0,1,0) dimension 2; only the row
        # terms of the symmetrizer are built, 4!^3 = 13,824 for (4,4,4), and
        # they are counted before anything else is looked at
        [((11,), (0, 0), 5040), ((12,), (0, 1, 0), 5040), ((4, 4, 4), (0, 0), 13824)],
    )
    def test_symmetrizer_above_the_cap_is_a_size_error(self, sigma, lam, terms):
        with pytest.raises(ModuleTooLargeError, match=f"symmetrizer terms >= {terms} exceeds the KP_MAX_DIM cap 5000"):
            schur_functor_experiment(sigma, lam)

    @pytest.mark.parametrize(
        "sigma, lam",
        [((1, 2), (0, 1)), ((2, 1.5), (0, 1)), ((True,), (0, 1)), ((2,), (0.5, 1))],
    )
    def test_rejects_non_partitions_and_non_integer_codes(self, sigma, lam):
        with pytest.raises(ValueError):
            schur_functor_experiment(sigma, lam)


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

    @pytest.mark.parametrize("sigma", [(10**9,), (1,) * 10**5, (8, 8)])
    def test_symmetrizer_is_counted_before_it_is_built(self, sigma):
        # each of these would take hours or all memory to build: the row
        # terms are counted first, and then more rows than dim M give the
        # zero module before anything is built
        M = one_dim((0, 0))
        if max(sigma) > 1:
            with pytest.raises(ModuleTooLargeError, match="symmetrizer terms"):
                young_symmetrizer_image(M, sigma)
        else:
            start = time.perf_counter()
            assert young_symmetrizer_image(M, sigma).dim == 0
            assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("length, tuples", [(8, 14**7), (14, 14**13)])
    def test_seed_tuples_are_counted_before_any_is_wedged(self, monkeypatch, length, tuples):
        # a column of 8 or 14 boxes on the 14-dimensional kp(0,0,2,1,0) has
        # one row term and at most C(14, 8) = 3,003 keys, but its seeds are
        # the 14^(length - 1) tuples with first index the generator's
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        M = kp_module((0, 0, 2, 1, 0))
        start = time.perf_counter()
        with pytest.raises(ModuleTooLargeError) as err:
            young_symmetrizer_image(M, (1,) * length)
        assert time.perf_counter() - start < 5
        assert str(err.value) == (
            f"young_symmetrizer_image of sigma {(1,) * length}: seed tuples {tuples} exceeds the KP_MAX_DIM cap 5000"
        )

    @pytest.mark.parametrize("sigma", [(1, 2), (1.9,), (2, False), (0,)])
    def test_rejects_non_partitions(self, sigma):
        with pytest.raises(ValueError, match="partition"):
            young_symmetrizer_image(vector_rep(2), sigma)


def young_slots(sigma):
    """The slot groups of the rows and of the columns of sigma, slots
    numbered along the rows."""
    rows = []
    start = 0
    for part in sigma:
        rows.append(list(range(start, start + part)))
        start += part
    ncols = sigma[0] if sigma else 0
    cols = [[rows[r][c] for r in range(len(sigma)) if sigma[r] > c] for c in range(ncols)]
    return rows, cols


def block_perms(blocks, k):
    """All permutations of range(k) preserving the given blocks."""
    perms = []
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        p = list(range(k))
        for src_block, img_block in zip(blocks, choice):
            for s, d in zip(src_block, img_block):
                p[s] = d
        perms.append(tuple(p))
    return perms


def reference_image_closure(M, sigma):
    """The route before generator seeding and before the column wedge, kept
    as a reference: c_sigma, all |R_sigma| |C_sigma| of its terms, of every
    one of the dim^k basis tuples, whose span must already be stable under
    the action.  Returns M^{(x) k} and the closer holding the image."""
    k = sum(sigma)
    T = tensor_many([M] * k, M.n)
    rows, cols = young_slots(sigma)
    terms = [
        (tuple(p[q[t]] for t in range(k)), Permutation([t + 1 for t in q]).sign())
        for p in block_perms(rows, k)
        for q in block_perms(cols, k)
    ]
    vectors = []
    for combo in itertools.product(range(M.dim), repeat=k):
        acc = {}
        for g, sign in terms:
            img = [0] * k
            for t in range(k):
                img[g[t]] = combo[t]
            idx = 0
            for digit in img:
                idx = idx * M.dim + digit
            acc[idx] = acc.get(idx, 0) + sign
        vec = {i: c for i, c in acc.items() if c}
        if vec:
            vectors.append(vec)
    span = {}
    for v in vectors:
        span.setdefault(T.weight_of(v), Echelon()).insert(v)
    closer = SubmoduleCloser(T)
    closer.add((T.weight_of(v), v) for v in vectors)
    assert closer.rank == sum(e.rank for e in span.values()), "span is not a submodule"
    return T, closer


def projected_reference_image(M, sigma):
    """The closure of pi(row) over the echelon rows of the reference image,
    inside the target of ``column_wedge_projection``: the reference image
    carried to where ``young_symmetrizer_image`` closes it, a module whose
    reduced echelon basis must equal that of the new route byte for byte."""
    _, closer = reference_image_closure(M, sigma)
    L, pi = column_wedge_projection(M, sigma)
    seeds = ((wt, pi(row)) for wt, ech in closer.echelons.items() for row in ech.rows)
    return _close(L, seeds, "projected reference image")


def column_wedge_projection(M, sigma):
    """pi: M^{(x) k} -> (x)_c Lambda^{|c|}(M) over the columns c of sigma:
    the factors in the slots of each column, top to bottom, are wedged into
    the increasing basis of Lambda^{|c|}(M), with the sign of the sort, and
    zero on a repeated index.  Returns the target module and pi on sparse
    vectors."""
    k = sum(sigma)
    _, cols = young_slots(sigma)
    L = tensor_many([exterior_power(M, len(c)) for c in cols], M.n)
    index = [
        {combo: t for t, combo in enumerate(itertools.combinations(range(M.dim), len(c)))}
        for c in cols
    ]
    strides = [math.prod(len(ix) for ix in index[s + 1:]) for s in range(len(cols))]

    def pi(vec):
        out = {}
        for idx, x in vec.items():
            digits = [idx // M.dim ** (k - 1 - t) % M.dim for t in range(k)]
            key, sign = 0, 1
            for c, ix, stride in zip(cols, index, strides):
                entries = [digits[s] for s in c]
                combo = tuple(sorted(entries))
                if combo not in ix:
                    break  # a repeated index wedges to zero
                sign *= Permutation([combo.index(e) + 1 for e in entries]).sign()
                key += ix[combo] * stride
            else:
                acc = out.get(key, 0) + sign * x
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return out

    return L, pi


def dumps(M):
    return json.dumps(M.to_json(), sort_keys=True)


class TestYoungSymmetrizerReference:
    SHAPES = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    S5_CODES = [(0, 1, 0, 1, 0), (2, 0, 2, 1, 0), (0, 3, 1, 1, 0)]
    S5_SHAPES = [(3,), (2, 1), (1, 1, 1)]

    @staticmethod
    def small_modules():
        modules = [vector_rep(2), vector_rep(3)]
        return modules + [kp_module(code(w, m)) for m in (2, 3, 4) for w in all_permutations(m)]

    def test_matches_reference_on_small_modules(self):
        modules = self.small_modules()
        assert len(modules) * len(self.SHAPES) == 204
        for M in modules:
            for sigma in self.SHAPES:
                new = young_symmetrizer_image(M, sigma)
                assert dumps(new) == dumps(projected_reference_image(M, sigma))

    @pytest.mark.parametrize("lam", S5_CODES)
    def test_matches_reference_on_s5_codes(self, lam):
        M = kp_module(lam)
        for sigma in self.S5_SHAPES:
            new = young_symmetrizer_image(M, sigma)
            assert dumps(new) == dumps(projected_reference_image(M, sigma))

    def test_column_wedge_projection_is_an_isomorphism_onto_its_image(self):
        # c_sigma^2 = n_sigma c_sigma, so the column wedge projection is
        # injective on im c_sigma; it is a module map, so it keeps weights and
        # commutes with every e_{i,i+1}
        cases = [(M, sigma) for M in self.small_modules() for sigma in self.SHAPES]
        cases += [(kp_module(lam), sigma) for lam in self.S5_CODES for sigma in self.S5_SHAPES]
        assert len(cases) == 213
        for M, sigma in cases:
            T, closer = reference_image_closure(M, sigma)
            L, pi = column_wedge_projection(M, sigma)
            for wt, ech in closer.echelons.items():
                images = Echelon()
                for row in ech.rows:
                    img = pi(row)
                    assert img and L.weight_of(img) == wt
                    assert images.insert(img) is not None, (M, sigma, wt)
                    for pair in T.simple_pairs():
                        assert pi(T.apply(pair, row)) == L.apply(pair, img)

    def test_empty_partition_is_the_trivial_module(self):
        M = kp_module((1, 0, 1))
        assert dumps(young_symmetrizer_image(M, ())) == dumps(projected_reference_image(M, ()))
        assert young_symmetrizer_image(M, ()).dim == 1


class TestYoungSymmetrizerIndexedWedges:
    """``young_symmetrizer_image``, whose seeds find their keys through each
    power's own index, against ``reference_young_symmetrizer_image``, whose
    ambient ranks each column's combination in closed form."""

    SHAPES = [(2,), (1, 1), (2, 1), (3,), (1, 1, 1), (2, 2), (3, 1)]

    def test_every_s4_code(self):
        for w in all_permutations(4):
            M = kp_module(code(w, 4))
            for sigma in self.SHAPES:
                got = young_symmetrizer_image(M, sigma)
                assert dumps_with_generator(got) == dumps_with_generator(reference_young_symmetrizer_image(M, sigma))

    def test_seeded_s5_slice(self):
        rng = random.Random(26)
        for w in rng.sample(list(all_permutations(5)), 6):
            M = kp_module(code(w, 5))
            for sigma in ((2,), (1, 1), (2, 1), (1, 1, 1)):
                got = young_symmetrizer_image(M, sigma)
                assert dumps_with_generator(got) == dumps_with_generator(reference_young_symmetrizer_image(M, sigma))


def test_presentation_matches_the_minimal_window_table():
    # the untrimmed window of the code against the table of the minimal
    # window: every code of S_1..S_6, and the codes of {0..3}^4, most of
    # whose permutations move points past n, as the criterion's rho - nu do;
    # a weight with a negative entry reads the table of its lift
    cores = [code(w, n) for n in range(1, 7) for w in all_permutations(n)]
    cores += list(itertools.product(range(4), repeat=4))
    for core in cores:
        expected = reference_m_table(perm_of(core).window, len(core))
        assert _presentation(core) == tuple(expected.entries.items()), core
        assert m_table(perm_of(core), len(core)) == expected, core
        assert _presentation(tuple(x - min(core) - 1 for x in core)) == _presentation(core), core
    assert len(cores) == 873 + 256
