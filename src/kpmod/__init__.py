"""Exact workbench for Schubert polynomials and Kraskiewicz-Pragacz modules.

Computes Schubert polynomials over exact integers, realizes KP modules as
explicit weight modules over the upper-triangular matrices with rational
action matrices, verifies annihilator and duality identities at desk scale,
and decides/extracts KP filtrations of weight modules (tensor products and
Schur-functor images included).
"""

from . import modules, schubert
from . import filtration  # after modules: importing it first added 0.7 MB to peak RSS
from .filtration import (
    CriterionReport,
    FiltrationReport,
    MixedDegreeError,
    char_criterion,
    kp_filtration_extract,
    schur_functor_experiment,
    sort_weights,
    tensor_experiment,
)
from .laurent import LaurentPoly
from .modules import (
    AnnihilatorReport,
    ModuleTooLargeError,
    WeightModule,
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
)
from .permutations import (
    MTable,
    Permutation,
    TransitionData,
    code,
    compare,
    contains_2143,
    dominates,
    m_table,
    perm_of,
    rho,
    transition,
    weight_window,
)
from .schubert import (
    cauchy_window_check,
    divided_difference,
    dominance_interval,
    dual_pairing,
    expand_in_schubert,
    kostant_dim,
    plethysm_eval,
    schubert_poly,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the process-wide memos (KP modules, one entry per code with its
    diagram ambient and generator key, the diagram ambients of KP, Demazure
    and rank-3 modules, criterion exponent tables, Vandermonde products, the
    staircase's and the transition's Schubert polynomials, and the pool of
    exponent tuples those two share with the weights of closed modules);
    results stay equal."""
    for memo in (
        modules._kp_cached,
        filtration._cached_presentation,
        modules._diagram_ambient,
        schubert.vandermonde,
    ):
        memo.cache_clear()
    schubert._staircase_memo.clear()
    schubert._transition_memo.clear()
    schubert._exponent_pool.clear()
