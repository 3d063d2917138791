import itertools
import random
from functools import cmp_to_key

import pytest

from kpmod.filtration import sort_weights
from kpmod.laurent import LaurentPoly
from kpmod.modules import WeightModule, annihilator_check, tensor_many
from kpmod.permutations import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    Permutation,
    all_permutations,
    code,
    compare,
    contains_2143,
    dominates,
    _code_window,
    _codes,
    _standard_key,
    _transition_window,
    _window_code,
    m_table,
    perm_of,
    rho,
    standard_key,
    transition,
    weight_window,
)
from kpmod.schubert import schubert_poly, vandermonde
from reference import (
    TO_INT,
    inversion_data,
    longest_element,
    random_pair,
    random_slice,
    reference_cmp,
    reference_standard_key,
    reference_windows,
    transposition,
)


def brute_code(w, n):
    # independent inversion count on a wide window
    width = max(w.size, n) + 2
    win = [w(i) for i in range(1, width + 1)]
    return tuple(
        sum(1 for j in range(i + 1, width) if win[j] < win[i]) for i in range(n)
    )


class TestCodes:
    def test_known_values(self):
        assert code(Permutation([2, 1, 4, 3]), 4) == (1, 0, 1, 0)
        assert perm_of((0, 0, 0, 0)) == Permutation()
        assert perm_of((1, 0, 1)).window == (2, 1, 4, 3)

    def test_roundtrip_on_s4(self):
        for w in all_permutations(4):
            assert perm_of(code(w, 4)) == w

    def test_roundtrip_on_random_codes(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 5)
            lam = tuple(rng.randint(0, 4) for _ in range(n))
            assert code(perm_of(lam), n) == lam

    def test_codes_come_in_the_order_of_all_permutations(self):
        # the sweeps walk _codes(m) and print their rows in this order
        for m in range(1, 7):
            assert list(_codes(m)) == [code(w, m) for w in all_permutations(m)]

    def test_code_window_round_trip(self):
        # _window_code counts the code off the window, not off the code
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randint(1, 8)
            lam = tuple(rng.randint(0, 6) for _ in range(n))
            win = _code_window(lam)
            assert sorted(win) == list(range(1, n + max(lam) + 1))
            assert _window_code(win, n) == lam

    def test_code_matches_brute_inversions(self):
        rng = random.Random(11)
        for _ in range(100):
            lam = tuple(rng.randint(0, 3) for _ in range(4))
            w = perm_of(lam)
            assert code(w, 4) == brute_code(w, 4)

    def test_rejects_nonzero_code_beyond_n(self):
        # [1,3,2] has a descent at position 2
        with pytest.raises(ValueError, match="2"):
            code(Permutation([1, 3, 2]), 1)

    def test_rejects_negative_code(self):
        with pytest.raises(ValueError):
            perm_of((1, -1))

    @pytest.mark.parametrize("lam", [(1.9, 0, 1), (1.0, 0), (True, 0)])
    def test_rejects_non_integer_code(self, lam):
        # (1.9, 0, 1) was truncated to the code of [2, 1, 4, 3] before
        with pytest.raises(ValueError, match=r"perm_of code .*must be an integer"):
            perm_of(lam)


class TestPermutation:
    def test_window_is_minimal(self):
        assert Permutation([2, 1, 3, 4]).window == (2, 1)
        assert Permutation([1, 2, 3]).window == ()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 2])

    def test_non_bijection_message_shows_a_consumed_iterator(self):
        # the images are read once; the message must not read them again
        with pytest.raises(ValueError, match=r"not a one-line permutation window: \[1, 1\]$"):
            Permutation(x for x in [1, 1])

    @pytest.mark.parametrize("images", [(2.5, 1), (2, True), (1.0,)])
    def test_rejects_non_integer_images(self, images):
        # (2.5, 1) was read as [2, 1]
        with pytest.raises(ValueError, match=r"permutation window .*must be an integer"):
            Permutation(images)

    def test_composition_and_inverse(self):
        w = Permutation([2, 1, 4, 3])
        assert (w * w.inverse()) == Permutation()
        s1 = transposition(1, 2)
        assert (w * s1).window == (1, 2, 4, 3)

    def test_length_additivity_on_transposition(self):
        w = Permutation([3, 1, 4, 2])
        assert w.length() == len(inversion_data(w).inversions)


class TestInversionData:
    def test_2143(self):
        d = inversion_data(Permutation([2, 1, 4, 3]))
        assert set(d.inversions) == {(1, 2), (3, 4)}
        assert d.length == 2
        assert d.sign == 1

    def test_identity(self):
        d = inversion_data(Permutation())
        assert d.inversions == frozenset()
        assert d.length == 0

    def test_grassmannian_young_shape(self):
        # [136245]: the diagram is a staircase-free shape with rows 3 and 1
        d = inversion_data(Permutation([1, 3, 6, 2, 4, 5]))
        assert set(d.inversions) == {(2, 4), (3, 4), (3, 5), (3, 6)}
        assert d.column_sizes == {4: 2, 5: 1, 6: 1}
        assert d.length == 4

    def test_rothe_same_size(self):
        for w in all_permutations(4):
            d = inversion_data(w)
            assert len(d.rothe) == len(d.inversions) == d.length


class TestMTable:
    def test_2143_entries(self):
        t = m_table(Permutation([2, 1, 4, 3]), 4)
        nonzero = {p: m for p, m in t.entries.items() if m}
        assert nonzero == {(1, 3): 1, (2, 3): 1}

    def test_2143_pruned(self):
        t = m_table(Permutation([2, 1, 4, 3]), 4)
        assert set(t.pruned) == {(1, 2), (2, 3), (2, 4), (3, 4)}

    def test_identity(self):
        t = m_table(Permutation(), 4)
        assert all(m == 0 for m in t.entries.values())
        assert set(t.pruned) == {(1, 2), (2, 3), (3, 4)}

    def test_zero_when_w_i_greater(self):
        for w in all_permutations(4):
            t = m_table(w, 4)
            for (i, j), m in t.entries.items():
                if w(i) > w(j):
                    assert m == 0

    def test_triangle_inequality_s6(self):
        for w in all_permutations(6):
            t = m_table(w, 6)
            e = t.entries
            for i in range(1, 7):
                for q in range(i + 1, 7):
                    for r in range(q + 1, 7):
                        assert e[(i, r)] <= e[(i, q)] + e[(q, r)]


class TestTransition:
    def test_2143(self):
        td = transition(Permutation([2, 1, 4, 3]))
        assert (td.j, td.k) == (3, 4)
        assert td.v == Permutation([2, 1, 3, 4])
        assert [(i, wa.window) for i, wa in td.branches] == [
            (1, (3, 1, 2)),
            (2, (2, 3, 1)),
        ]

    def test_1423(self):
        td = transition(Permutation([1, 4, 2, 3]))
        assert (td.j, td.k) == (2, 4)
        assert td.v == Permutation([1, 3, 2, 4])
        assert [(i, wa.window) for i, wa in td.branches] == [(1, (3, 1, 2))]

    def test_simple_transposition(self):
        td = transition(Permutation([2, 1]))
        assert (td.j, td.k) == (1, 2)
        assert td.v == Permutation()
        assert td.branches == ()

    def test_undefined_at_identity(self):
        with pytest.raises(ValueError, match="transition undefined at id"):
            transition(Permutation())

    def test_structural_invariants_s5(self):
        for w in all_permutations(5):
            if w.is_identity():
                continue
            td = transition(w)
            assert td.v.length() == w.length() - 1
            lam = code(w, 5)
            vcode = code(td.v, 5)
            expected = list(lam)
            expected[td.j - 1] -= 1
            assert vcode == tuple(expected)
            for _, wa in td.branches:
                assert wa.length() == w.length()


class TestOrders:
    def test_inverse_lex_example(self):
        assert compare((1, 1, 0), (2, 0, 0)) == LESS

    def test_equal_all_orders(self):
        lam = (2, 0, 1)
        for order in ("standard", "prime", "dominance"):
            assert compare(lam, lam, order) == EQUAL

    def test_incomparable_across_degrees(self):
        assert compare((1, 0), (1, 1)) == INCOMPARABLE
        assert compare((1, 0), (1, 1), "prime") == INCOMPARABLE

    def test_mirror_equivalence_small_example(self):
        lam, mu = (1, 0, 1), (0, 2, 0)
        r = rho(3)
        rl = tuple(a - b for a, b in zip(r, lam))
        rm = tuple(a - b for a, b in zip(r, mu))
        assert compare(lam, mu) == compare(rl, rm, "prime")

    def test_mirror_equivalence_random(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(2, 5)
            lam = tuple(rng.randint(-2, 3) for _ in range(n))
            mu = list(rng.randint(-2, 3) for _ in range(n))
            mu[-1] += sum(lam) - sum(mu)
            mu = tuple(mu)
            r = rho(n)
            rl = tuple(a - b for a, b in zip(r, lam))
            rm = tuple(a - b for a, b in zip(r, mu))
            assert compare(lam, mu) == compare(rl, rm, "prime")

    def test_shift_invariance(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 5)
            lam = tuple(rng.randint(-3, 3) for _ in range(n))
            mu = list(rng.randint(-3, 3) for _ in range(n))
            mu[-1] += sum(lam) - sum(mu)
            mu = tuple(mu)
            base = compare(lam, mu)
            for k in (1, 2):
                shifted = compare(
                    tuple(x + k for x in lam), tuple(x + k for x in mu)
                )
                assert shifted == base

    def test_total_on_degree_slice(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(2, 5)
            lam = tuple(rng.randint(-2, 4) for _ in range(n))
            mu = list(rng.randint(-2, 4) for _ in range(n))
            mu[-1] += sum(lam) - sum(mu)
            r = compare(lam, tuple(mu))
            assert r in (LESS, EQUAL, GREATER)

    def test_dominance(self):
        assert compare((1, 0, 1), (2, 0, 0), "dominance") == LESS
        assert compare((2, 0, 0), (1, 0, 1), "dominance") == GREATER
        assert compare((0, 2, 0), (1, 0, 1), "dominance") == INCOMPARABLE
        assert compare((0, 1, 1, 0), (1, 1, 0, 0), "dominance") == LESS
        assert compare((1, 0, 0, 1), (0, 1, 1, 0), "dominance") == INCOMPARABLE
        assert dominates((1, 0), (0, 1)) is True
        assert dominates((0, 1), (1, 0)) is False


class TestReferenceOrder:
    def test_sorts_match_the_pairwise_definition(self):
        rng = random.Random(11)
        checked = 0
        while checked < 2000:
            ws = random_slice(rng)
            if not ws:
                continue
            checked += 1
            for order in ("standard", "prime"):
                expected = sorted(ws, key=cmp_to_key(lambda a, b: reference_cmp(a, b, order)))
                got = sorted(ws, key=cmp_to_key(lambda a, b: TO_INT[compare(a, b, order)]))
                assert got == expected, (ws, order)
                if order == "standard":
                    assert sort_weights(WeightModule(len(ws[0]), ws)) == expected, ws
                    shifted = [tuple(x + 3 for x in w) for w in ws]
                    assert sort_weights(WeightModule(len(ws[0]), shifted)) == [
                        tuple(x + 3 for x in w) for w in expected
                    ], ws


class TestFirstEntry:
    """``compare`` reads the first entry of each order's windows off the
    shifted codes and builds the two keys only when those entries tie."""

    def test_matches_the_pairwise_definition(self, monkeypatch):
        built = []

        def spy(lam):
            built.append(lam)
            return _standard_key(lam)

        monkeypatch.setattr("kpmod.permutations._standard_key", spy)
        rng = random.Random(34)
        decided = {"standard": 0, "prime": 0}
        ties = {"standard": 0, "prime": 0}
        checked = 0
        while checked < 20000:
            lam, mu = random_pair(rng, 7)
            if lam == mu:
                continue
            checked += 1
            for order in ("standard", "prime"):
                built.clear()
                assert TO_INT[compare(lam, mu, order)] == reference_cmp(lam, mu, order), (lam, mu, order)
                a, b = reference_windows(lam, mu, order)
                tie = a[0] == b[0]
                assert len(built) == (2 if tie else 0), (lam, mu, order)
                (ties if tie else decided)[order] += 1
        for order in ("standard", "prime"):
            assert decided[order] >= 500 and ties[order] >= 500, (order, decided, ties)

    #: order -> a pair whose first entries tie
    TIES = {"standard": ((0, 2, 0), (0, 1, 1)), "prime": ((0, 1, 1), (1, 0, 1))}

    @pytest.mark.parametrize(
        "lam, mu, order, want",
        [
            ((1, 0), (0, 1), "standard", LESS),
            ((2, 0, -1), (0, 0, 1), "standard", GREATER),
            ((1, 0), (0, 1), "prime", LESS),
            ((-1, 3, -2), (0, -2, 2), "prime", GREATER),
            ((1, 0, 0, 0), (0, 1, 0, 0), "prime", LESS),  # windows shorter than n
        ],
    )
    def test_differing_first_places_build_no_key(self, monkeypatch, lam, mu, order, want):
        def refused(lam):
            raise AssertionError("a key was built")

        assert reference_cmp(lam, mu, order) == TO_INT[want]
        monkeypatch.setattr("kpmod.permutations._standard_key", refused)
        assert compare(lam, mu, order) == want
        with pytest.raises(AssertionError, match="a key was built"):
            compare(*self.TIES[order], order)


class TestStandardKey:
    def test_matches_the_inverse_of_perm_of(self):
        # the key is computed without Permutation objects; the reference
        # builds the permutation of the shifted code and inverts it
        rng = random.Random(5)
        for _ in range(6000):
            n = rng.randint(0, 6)
            lam = tuple(rng.randint(-4, 5) for _ in range(n))
            shift = max(0, -min(lam, default=0)) + rng.randint(0, 3)
            expected = perm_of(tuple(x + shift for x in lam)).inverse().window
            assert standard_key(lam, shift) == expected, (lam, shift)

    def test_matches_the_reference_loop(self):
        # the key sorts the window's positions by value; the reference fills
        # the inverse position by position
        rng = random.Random(32)
        for _ in range(20000):
            n = rng.randint(0, 7)
            lam = tuple(rng.randint(-5, 6) for _ in range(n))
            shift = max(0, -min(lam, default=0)) + rng.randint(0, 3)
            assert standard_key(lam, shift) == reference_standard_key(lam, shift), (lam, shift)

    def test_negative_shifted_entry_is_rejected(self):
        with pytest.raises(ValueError, match=r"code entries must be nonnegative: \(2, -1\)"):
            standard_key((1, -2), 1)

    @pytest.mark.parametrize(
        "lam, shift, message",
        [
            ((1.5, 0), 0, r"standard_key weight \(1.5, 0\): entry must be an integer, got 1.5"),
            ((True, 0), 0, r"standard_key weight \(True, 0\): entry must be an integer, got True"),
            ((1, 0), 0.0, r"standard_key shift must be an integer, got 0.0"),
            ((1, 0), True, r"standard_key shift must be an integer, got True"),
        ],
    )
    def test_rejects_non_integers(self, lam, shift, message):
        with pytest.raises(ValueError, match=message):
            standard_key(lam, shift)


class TestWeightWindow:
    def test_two_variable_example(self):
        assert weight_window((0, 1)) == [(1, 0), (0, 1)]

    def test_zero_is_alone(self):
        assert weight_window((0, 0, 0)) == [(0, 0, 0)]

    def test_shift_invariance(self):
        lam = (1, 0, 2)
        base = weight_window(lam)
        shifted = weight_window(tuple(x + 2 for x in lam))
        assert shifted == [tuple(x + 2 for x in nu) for nu in base]

    def test_window_properties(self):
        lam = (0, 2, 1)
        window = weight_window(lam)
        assert window[-1] == lam
        lo = min(lam)
        for nu in window:
            assert sum(nu) == sum(lam)
            assert min(nu) >= lo
        for a, b in zip(window, window[1:]):
            assert compare(a, b) == LESS

    @pytest.mark.parametrize("lam", [(1.0, 0), (1.5, 0), (0, True)])
    def test_rejects_non_integer_weight(self, lam):
        # (1.0, 0) failed inside standard_key, whose name the message carried
        with pytest.raises(ValueError, match=r"weight_window weight .*must be an integer"):
            weight_window(lam)


class TestPattern:
    def test_2143_itself(self):
        assert contains_2143(Permutation([2, 1, 4, 3]))

    def test_s4_only_2143(self):
        hits = [w.window for w in all_permutations(4) if contains_2143(w)]
        assert hits == [(2, 1, 4, 3)]

    def test_bigger_window(self):
        assert contains_2143(Permutation([3, 1, 2, 5, 4]))  # pattern at 1,2,4,5
        assert contains_2143(Permutation([1, 3, 2, 5, 4]))  # pattern at 2,3,4,5
        assert not contains_2143(Permutation([1, 4, 2, 3]))


def reference_code(w, n):
    """Lehmer code counted on Permutation calls over the whole width
    max(size, n), as code() did before it read window tuples."""
    if n < 1:
        raise ValueError("n must be positive")
    N = max(w.size, n)
    win = [w(i) for i in range(1, N + 1)]
    full = [sum(1 for j in range(i + 1, N) if win[j] < win[i]) for i in range(N)]
    for i in range(n, N):
        if full[i]:
            raise ValueError(
                f"{w!r} is not increasing beyond position {n}: "
                f"code entry {i + 1} equals {full[i]}"
            )
    return tuple(full[:n])


def reference_transition(w):
    """(j, k, v, branches) built from Permutation products with
    transpositions, as transition() did before it read window tuples."""
    j = max(j for j in range(1, w.size) if w(j) > w(j + 1))
    k = max(p for p in range(j + 1, w.size + 1) if w(p) < w(j))
    v = w * transposition(j, k)
    vj = v(j)
    branches = tuple(
        (i, v * transposition(i, j))
        for i in range(1, j)
        if v(i) < vj and not any(v(i) < v(r) < vj for r in range(i + 1, j))
    )
    return j, k, v, branches


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def check_against_reference(w, widths):
    # the recursion hands the helpers windows with an identity tail
    padded = w.window + tuple(range(w.size + 1, w.size + 3))
    for n in widths:
        expected = outcome(reference_code, w, n)
        assert outcome(code, w, n) == expected, (w, n)
        if expected[0] != "ValueError":
            assert _window_code(padded, n) == expected, (w, n)
    if w.is_identity():
        return
    j, k, v, branches = reference_transition(w)
    td = transition(w)
    assert (td.j, td.k, td.v, td.branches) == (j, k, v, branches), w
    pj, pk, pv, pbranches = _transition_window(padded)
    assert (pj, pk, Permutation(pv)) == (j, k, v), w
    assert [(i, Permutation(b)) for i, b in pbranches] == list(branches), w


class TestWindowRoutes:
    """code() and transition() read window tuples; they must agree with the
    Permutation-level definitions, errors included."""

    def test_every_permutation_of_s1_to_s6(self):
        for m in range(1, 7):
            for w in all_permutations(m):
                check_against_reference(w, range(1, m + 3))

    def test_seeded_permutations_of_s8(self):
        rng = random.Random(8)
        for _ in range(1000):
            images = list(range(1, 9))
            rng.shuffle(images)
            w = Permutation(images)
            check_against_reference(w, (rng.randint(1, 8), w.size + rng.randint(1, 3)))

    def test_tail_not_increasing_message(self):
        w = Permutation([1, 4, 3, 2])
        expected = outcome(reference_code, w, 2)
        assert expected == (
            "ValueError",
            "Permutation([1, 4, 3, 2]) is not increasing beyond position 2: "
            "code entry 3 equals 1",
        )
        assert outcome(code, w, 2) == expected

    def test_transition_recursion_matches_staircase(self):
        for length in range(1, 7):
            for lam in itertools.product(range(7), repeat=length):
                if sum(lam) <= 6:
                    assert schubert_poly(lam) == schubert_poly(lam, "staircase"), lam


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: code(Permutation([2, 1]), True), r"code n must be an integer, got True"),
            (lambda: code(Permutation([2, 1]), 4.0), r"code n must be an integer, got 4.0"),
            (lambda: m_table(Permutation([2, 1]), 2.0), r"m_table n must be an integer, got 2.0"),
            (lambda: Permutation([2, 1]).one_line(True), r"one_line n must be an integer, got True"),
            (lambda: rho(True), r"rho n must be an integer, got True"),
            (lambda: longest_element(3.0), r"longest_element m must be an integer, got 3.0"),
            (lambda: transposition(1.5, 2), r"transposition i must be an integer, got 1.5"),
            (lambda: transposition(1, True), r"transposition j must be an integer, got True"),
            (lambda: compare((1, 0), (0, 1.5)), r"compare mu \(0, 1.5\): entry must be an integer, got 1.5"),
            (lambda: compare((1.0, 0), (0, 1), "dominance"), r"compare lam \(1.0, 0\): entry"),
            (lambda: dominates((1, 0), (0, 1.0)), r"dominates lam \(0, 1.0\): entry must be an integer, got 1.0"),
            (lambda: dominates((True, 0), (0, 1)), r"dominates mu \(True, 0\): entry must be an integer, got True"),
        ],
    )
    def test_rejects_float_and_bool(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: rho(-1), r"rho n must be nonnegative, got -1"),
            (lambda: longest_element(-2), r"longest_element m must be nonnegative, got -2"),
            # every count check of the package, one message each
            (lambda: Permutation([2, 1]).one_line(-3), r"one_line n must be nonnegative, got -3"),
            (lambda: vandermonde(-4), r"vandermonde n must be nonnegative, got -4"),
            (lambda: LaurentPoly(-5), r"variable count must be nonnegative, got -5"),
            (lambda: LaurentPoly.one(2).restrict(-6), r"variable count must be nonnegative, got -6"),
            (lambda: WeightModule(-7, []), r"WeightModule n must be nonnegative, got -7"),
            (lambda: tensor_many([], -8), r"tensor_many n must be nonnegative, got -8"),
        ],
    )
    def test_rejects_negative_sizes(self, call, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            call()

    @pytest.mark.parametrize(
        "fn, args",
        [
            (code, (3,)),
            (m_table, (3,)),
            (transition, ()),
            (contains_2143, ()),
            (annihilator_check, (3,)),
        ],
        ids=["code", "m_table", "transition", "contains_2143", "annihilator_check"],
    )
    def test_rejects_a_tuple_for_a_permutation(self, fn, args):
        # each was an AttributeError on 'window'
        message = rf"^{fn.__name__}: argument w must be a Permutation, got \(2, 1, 3\)$"
        with pytest.raises(ValueError, match=message):
            fn((2, 1, 3), *args)

    def test_smallest_arguments_still_accepted(self):
        assert rho(0) == ()
        assert longest_element(0) == Permutation([])
        assert transposition(1, 2) == Permutation([2, 1])

    def test_one_line_rejects_negative_width(self):
        with pytest.raises(ValueError, match="one_line n must be nonnegative"):
            Permutation([2, 1]).one_line(-1)

    def test_one_line_cuts_and_extends(self):
        w = Permutation([3, 1, 2])
        assert w.one_line(0) == ()
        assert w.one_line(2) == (3, 1)
        assert w.one_line(5) == (3, 1, 2, 4, 5)
