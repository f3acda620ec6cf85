"""Exact workbench for Eulerian and two-sided Eulerian numbers.

Every number computed is an exact integer or polynomial. Floats appear only
where boxes names the size of a census it refuses (lgamma, log2) and where
the CLI's verify prints its elapsed seconds on stderr.
The same quantities are computed by independent routes (direct enumeration,
recurrences, balls-in-boxes counting, series windows) so results can be
cross-checked rather than trusted.
"""

from .common import CheckReport, ConsistencyError, GuardRailError
from .eulerian import (
    eulerian_polynomial,
    gamma_extract,
    table_brute_force,
    table_from_recurrence,
    worpitzky_identity,
)
from .exactnum import BiPoly, UniPoly, binomial
from .hopping import hop, orbit_census, orbit_of
from .perm import parse_permutation, statistic_profile
from .twosided import (
    gessel_solve,
    two_sided_brute_force,
    two_sided_from_recurrence,
    two_sided_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "CheckReport",
    "ConsistencyError",
    "GuardRailError",
    "UniPoly",
    "__version__",
    "binomial",
    "eulerian_polynomial",
    "gamma_extract",
    "gessel_solve",
    "hop",
    "orbit_census",
    "orbit_of",
    "parse_permutation",
    "statistic_profile",
    "table_brute_force",
    "table_from_recurrence",
    "two_sided_brute_force",
    "two_sided_from_recurrence",
    "two_sided_polynomial",
    "worpitzky_identity",
]
