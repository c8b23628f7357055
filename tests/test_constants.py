import math

import pytest

from qflatlab import (DimensionError, GrowthEstimate, QflatError, cohn_vossen_bound,
                      fit_loglog, sphere_constants)
import numpy as np


def test_green_constant_n4():
    # 2/((n-1)! |S^n|) = 1/(8 pi^2) for n = 4
    c = sphere_constants(4)
    assert c.green_constant == pytest.approx(1.0 / (8 * math.pi ** 2), rel=1e-14)


def test_sphere_volumes():
    assert sphere_constants(2).sphere_volume == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_constants(4).sphere_volume == pytest.approx(8 * math.pi ** 2 / 3,
                                                              rel=1e-14)
    assert sphere_constants(2).boundary_area == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_constants(2).unit_ball_volume == pytest.approx(math.pi, rel=1e-14)


def test_cohn_vossen_bound_n2():
    assert cohn_vossen_bound(2) == pytest.approx(2 * math.pi, rel=1e-14)


def test_odd_dimension_rejected():
    with pytest.raises(DimensionError):
        sphere_constants(5)


@pytest.mark.parametrize("n", [172, 400])
def test_dimension_beyond_doubles_rejected(n):
    # (n-1)! |S^n| overflows from n = 172, Gamma((n+1)/2) from n = 343
    with pytest.raises(DimensionError, match="too large"):
        sphere_constants(n)


class TestFitEnvelope:
    def test_sup_inf_bracket(self):
        # a slope drifting upward: inf < full-window slope < sup
        radii = np.geomspace(1.0, 1e4, 24)
        vals = radii ** 1.0 * np.log(radii + 3.0)
        est = fit_loglog(radii, vals)
        assert est.inf_exponent <= est.exponent <= est.sup_exponent + 1e-9
        assert isinstance(est, GrowthEstimate)
        assert not est.low_confidence

    def test_low_confidence_flag(self):
        radii = np.geomspace(1.0, 50.0, 12)
        est = fit_loglog(radii, radii ** 2)
        assert est.low_confidence

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_samples_rejected(self, bad):
        radii = np.geomspace(1.0, 1e4, 16)
        with pytest.raises(QflatError, match="finite"):
            fit_loglog(radii, radii, abscissa=np.where(radii > 1e3, bad, radii))
        with pytest.raises(QflatError, match="finite"):
            fit_loglog(radii, np.where(radii > 1e3, bad, radii))

    def test_exact_powerlaw(self):
        radii = np.geomspace(1.0, 1e4, 16)
        est = fit_loglog(radii, 3.0 * radii ** 1.5)
        assert est.exponent == pytest.approx(1.5, abs=1e-12)
        assert est.sup_exponent == pytest.approx(est.inf_exponent, abs=1e-12)
        assert est.residual <= 1e-12
