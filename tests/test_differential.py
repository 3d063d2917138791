"""Each comparison of ``differential.py`` at a small bound: it checks
something and finds no mismatch."""

import pytest

import differential
from differential import (
    COMPARISONS,
    Tally,
    child_codes,
    diagram_modules,
    kp_generators,
    lehmer_codes,
    plethysm_expansion,
    plethysm_jacobi_trudi,
    presentations,
    pruned_closure,
    repeated_columns,
    schur_images,
    standard_order,
)


@pytest.mark.parametrize(
    "compare, bound",
    [
        (diagram_modules, {"upto": 4, "top": 1}),
        (plethysm_jacobi_trudi, {"sizes": ((3, 4), (4, 2))}),
        (plethysm_expansion, {"n": 4}),
        (schur_images, {"n": 4, "size": 3}),
        (repeated_columns, {"upto": 2, "top": 3}),
        (pruned_closure, {"n": 4, "extractions": 5, "schur_n": 3, "sl3": 2, "top": 1}),
        (standard_order, {"pairs": 500, "upto": 5}),
        (lehmer_codes, {"m": 4}),
        (child_codes, {"m": 4}),
        (kp_generators, {"m": 4}),
        (presentations, {"m": 4}),
    ],
    ids=[
        "diagram_modules", "plethysm_jacobi_trudi", "plethysm_expansion", "schur_images", "repeated_columns",
        "pruned_closure", "standard_order", "lehmer_codes", "child_codes", "kp_generators", "presentations",
    ],
)
def test_comparison_at_a_small_bound(compare, bound):
    tally = Tally()
    compare(tally, **bound)
    assert tally.checked > 0 and tally.failed == 0


def test_every_comparison_is_tested():
    assert set(COMPARISONS) == {
        diagram_modules, plethysm_jacobi_trudi, plethysm_expansion, schur_images, repeated_columns, pruned_closure,
        standard_order, lehmer_codes, child_codes, kp_generators, presentations,
    }


def test_a_failed_check_is_counted_and_printed(capsys):
    tally = Tally()
    tally.require(True, "fine")
    tally.require(False, "mismatch: (1, 0)")
    assert (tally.checked, tally.failed) == (2, 1)
    assert capsys.readouterr().out == "mismatch: (1, 0)\n"


def test_main_exits_nonzero_on_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(differential, "COMPARISONS", (lambda tally: tally.require(False, "mismatch: x"),))
    assert differential.main() == 1
    assert "total: 1 checked, 1 failed" in capsys.readouterr().out
