"""Global numerical defaults.

Every threshold in the package is read from DEFAULTS where it is applied.
A function takes a tolerance argument only where a caller needs a value
other than the default (classify_matrix and RateMatrix.from_entries
row_tol, check_detailed_balance tol, decompose tol_residual and
tol_cluster, match_jordan_blocks and check_r_similar tol, push_duality and
push_duality_left tol).  The defaults are tuned for the package's intended
regime of small (n up to a few hundred), well-conditioned dense matrices.  The configuration-space cap is set only
through the DUALITY_MAX_STATES environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

MAX_STATES_ENV = "DUALITY_MAX_STATES"
DEFAULT_MAX_STATES = 20_000


@dataclass(frozen=True)
class Tolerances:
    """Default tolerance bundle.

    row: row-sum / off-diagonal slack used when classifying rate matrices.
    residual: acceptance bound for spectral and duality residuals.
    cluster: eigenvalues closer than this are merged into one Jordan cluster
        (looser than `residual` because repeated eigenvalues of non-normal
        matrices split under rounding).
    """

    row: float = 1e-10
    residual: float = 1e-9
    cluster: float = 1e-7


DEFAULTS = Tolerances()


def max_states() -> int:
    """Enumeration cap for configuration spaces; env override via DUALITY_MAX_STATES."""
    raw = os.environ.get(MAX_STATES_ENV)
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_STATES
    return value if value > 0 else DEFAULT_MAX_STATES
