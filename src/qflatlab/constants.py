"""Dimensional constants for conformal metrics on R^n.

The normalization constant of the logarithmic kernel is
``2 / ((n-1)! |S^n|)`` where ``|S^n|`` is the volume of the unit n-sphere
sitting in R^{n+1}.  For n = 4 this equals 1/(8 pi^2).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionError
from .fields import Dimension


@dataclass(frozen=True)
class SphereConstants:
    """Geometric constants attached to one ambient dimension n.

    sphere_volume    |S^n| = 2 pi^{(n+1)/2} / Gamma((n+1)/2)
    boundary_area    |S^{n-1}|, area of the unit sphere inside R^n
    unit_ball_volume omega_n = |B_1| in R^n
    green_constant   2 / ((n-1)! |S^n|), kernel normalizer
    """

    dim: int
    sphere_volume: float
    boundary_area: float
    unit_ball_volume: float
    green_constant: float


@lru_cache(maxsize=None)
def sphere_constants(n: int) -> SphereConstants:
    """The constants of dimension n.  Raises DimensionError when one of them
    is not a finite, nonzero double, as (n-1)! |S^n| overflows from n = 172."""
    Dimension(n)
    try:
        s_n = 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
        s_nm1 = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
        omega = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        green = 2.0 / (math.factorial(n - 1) * s_n)
        usable = all(math.isfinite(c) and c != 0.0 for c in (s_n, s_nm1, omega, green))
    except OverflowError:
        usable = False
    if not usable:
        raise DimensionError(f"dimension {n} is too large: its sphere constants "
                             "are not finite, nonzero doubles")
    return SphereConstants(
        dim=n,
        sphere_volume=s_n,
        boundary_area=s_nm1,
        unit_ball_volume=omega,
        green_constant=green,
    )


def cohn_vossen_bound(n: int) -> float:
    """Lower bound (n-1)! |S^n| / 2 for the total curvature of finite-volume
    metrics; equals 2 pi when n = 2."""
    c = sphere_constants(n)
    return math.factorial(n - 1) * c.sphere_volume / 2.0
