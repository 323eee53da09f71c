"""Stochastic duality for finite-state Markov generators.

Checks and solves duality relations L_hat D = D L^T, constructs duality
functions from spectral and Jordan data, builds Siegmund duals, verifies
intertwining relations, and ships the worked random-walk and exclusion-process
examples with closed-form spectra.
"""

from .config import DEFAULTS, Tolerances, max_states
from .core import (
    MatrixKind,
    Measure,
    RateMatrix,
    StateSpace,
    adjoint,
    check_detailed_balance,
    classify_matrix,
    generator,
    is_irreducible,
    stationary_measure,
)
from .duality import (
    DualityFunction,
    DualitySpace,
    build_from_spectra,
    chain_duality,
    cheap_duality,
    compose_dualities,
    factor_check,
    make_duality,
    max_duality_rank,
    orthogonal_selfduality,
    residual,
    solve_duality_space,
)
from .intertwining import (
    IntertwiningOperator,
    intertwining_residual,
    inverse_intertwiner,
    lumping_operator,
    push_duality,
    push_duality_left,
)
from .models import (
    BlockedAbsorbedRW,
    ConfigurationSpace,
    ReflectedAbsorbedRW,
    SingleSiteDualityParams,
    SpaceKind,
    classify_regime,
    factorized_duality,
    ladder_bracket_sum,
    ladder_projection,
    ladder_sep_generator,
    rw_blocked_absorbed,
    rw_reflected_absorbed,
    sep_generator,
    single_site_duality,
    single_site_duality_bruteforce,
    ssep_selfduality,
)
from .siegmund import (
    SiegmundPair,
    check_monotone,
    cumulative_transform,
    extend_with_cemetery,
    reconstruct_siegmund,
    siegmund_dual,
    siegmund_matrix,
    siegmund_spectral,
)
from .spectral import (
    JordanBlock,
    JordanStructure,
    SpectralData,
    Witness,
    check_r_similar,
    decompose,
    match_jordan_blocks,
    reversible_eigenbasis,
    spectral_from_eigenbasis,
)

__version__ = "0.1.0"
