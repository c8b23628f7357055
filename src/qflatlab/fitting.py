"""Scaling-exponent fits on logarithmic windows.

Every fitted exponent carries sup/inf variants from the first and last
third of the window; a persistent gap between them flags a slope that has
not settled, which is exactly the distinction between limsup- and
liminf-style growth exponents.
"""

from dataclasses import dataclass

import numpy as np

from .errors import QflatError

MIN_WINDOW_DECADES = 2.0


@dataclass(frozen=True)
class GrowthEstimate:
    """Fitted log-log slope plus window diagnostics (dimensionless)."""

    exponent: float
    sup_exponent: float
    inf_exponent: float
    window: tuple          # (R_min, R_max) of the sampled radii
    residual: float        # rms of the fit residuals
    low_confidence: bool   # window narrower than two decades

    def to_json_dict(self):
        return {
            "exponent": self.exponent,
            "sup": self.sup_exponent,
            "inf": self.inf_exponent,
            "window": [self.window[0], self.window[1]],
            "residual": self.residual,
            "low_confidence": self.low_confidence,
        }


def _slope(t, y):
    a = np.stack([t, np.ones_like(t)], axis=1)
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    rms = float(np.sqrt(np.mean((a @ sol - y) ** 2)))
    return float(sol[0]), rms


def _split_fit(t, y, radii):
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise QflatError("exponent fit needs finite samples")
    order = np.argsort(t)
    t, y = t[order], y[order]
    if len(t) < 4:
        raise QflatError(f"need at least 4 samples for an exponent fit, got {len(t)}")
    k = max(2, len(t) // 3)
    slope, rms = _slope(t, y)
    first, _ = _slope(t[:k], y[:k])
    last, _ = _slope(t[-k:], y[-k:])
    low = (np.max(radii) / np.min(radii)) < 10.0 ** MIN_WINDOW_DECADES * (1 - 1e-9)
    return GrowthEstimate(
        exponent=slope,
        sup_exponent=max(first, last),
        inf_exponent=min(first, last),
        window=(float(np.min(radii)), float(np.max(radii))),
        residual=rms,
        low_confidence=bool(low),
    )


def fit_loglog(radii, values, abscissa=None) -> GrowthEstimate:
    """Slope of log(values) against log(abscissa); abscissa defaults to radii.

    The window recorded (and the two-decade confidence rule) always refers
    to the radii.
    """
    x = np.asarray(radii if abscissa is None else abscissa, dtype=float)
    if np.any(x <= 0):
        raise QflatError("log-log fit needs strictly positive samples")
    return fit_log_slope(np.log(x), values, radii)


def fit_log_slope(t, values, radii) -> GrowthEstimate:
    """Slope of log(values) against t, for an abscissa known by its log."""
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise QflatError("log-log fit needs strictly positive samples")
    return _split_fit(np.asarray(t, dtype=float), np.log(values), np.asarray(radii, dtype=float))


def fit_linear_logx(radii, values) -> GrowthEstimate:
    """Slope of raw values against log(radii) (potential asymptotes)."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(radii <= 0):
        raise QflatError("radii must be positive")
    return _split_fit(np.log(radii), values, radii)


def require_window(radii, what="radii"):
    radii = np.asarray(radii, dtype=float)
    if np.max(radii) / np.min(radii) < 10.0 ** MIN_WINDOW_DECADES * (1 - 1e-9):
        raise QflatError(
            f"insufficient window: {what} must span >= {MIN_WINDOW_DECADES} decades "
            f"(got [{np.min(radii):g}, {np.max(radii):g}])")
    return radii
