"""Global numerical defaults.

Every threshold in the package is read from DEFAULTS where it is applied,
and every field of Tolerances is a relative factor: a check compares its
defect with the factor times the scale of its own input
(linalg.scaled_tol, the factor times ||L||_inf, the largest absolute row
sum, times the size of the vectors L acts on), so multiplying every rate by
c > 0 changes no verdict.  A function takes a tolerance argument only where
a caller needs a value other than the default, and one such option
remains: push_duality(tol) (passed on by push_duality_left), the one
absolute bound.  No eigenvalue radius is set here: decompose decides its
Jordan structure on a single-linkage tree with one fixed separation ratio
(spectral.RATIO), and block matching (match_jordan_blocks,
check_r_similar) pairs eigenvalues within `residual` times the largest
|eigenvalue| of both sides.  The defaults are tuned for small (n up to a
few hundred), well-conditioned dense matrices.  The configuration-space cap
is set only through the DUALITY_MAX_STATES environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

MAX_STATES_ENV = "DUALITY_MAX_STATES"
DEFAULT_MAX_STATES = 20_000


@dataclass(frozen=True)
class Tolerances:
    """Default tolerance bundle; each field is relative to the scale of the checked input.

    row: row-sum / off-diagonal slack, and the smallest rate that counts as
        an edge, per unit of ||L||_inf.
    residual: acceptance bound for spectral, stationary, balance and duality
        defects, per unit of the input's scale (dimensionless for a
        bi-orthogonality defect Uinv U - I), and the radius, per unit of the
        largest |eigenvalue|, within which block matching pairs eigenvalues.
    """

    row: float = 1e-10
    residual: float = 1e-9


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
