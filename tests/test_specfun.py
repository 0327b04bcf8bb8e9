import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import cython_special, k0e, k1e

from triporo import specfun
from triporo.specfun import bessel_k0_scaled, bessel_k1_scaled

from oracle import _bessel_k_scaled, k0_scaled_oracle, k1_scaled_oracle

# Every fifth decade of the double range, and 40 points a decade over
# 1e-6..1e4: both sides of the kernels' branch at x = 2, and the oracle's
# switch from its series to CF2 at 40.
GRID = np.union1d(np.logspace(-300, 300, 121), np.logspace(-6, 4, 401))


# The worst on GRID with scipy 1.17: 7.91 ulp for k0e at x = 0.0355 and
# 4.23 ulp for k1e at x = 1.585.
@pytest.mark.parametrize("fn, order, ulps", [(bessel_k0_scaled, 0, 8), (bessel_k1_scaled, 1, 5)],
                         ids=["k0e", "k1e"])
def test_within_pinned_ulps_of_the_oracle_and_decreasing(fn, order, ulps):
    values = [fn(float(x)) for x in GRID]
    with mp.workdps(20):
        for x, got in zip(GRID, values):
            ref = _bessel_k_scaled(float(x))[order]
            assert abs(got - ref) <= ulps * math.ulp(float(ref)), x
    assert min(values) > 0.0
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("name, ufunc", [("bessel_k0_scaled", k0e), ("bessel_k1_scaled", k1e)],
                         ids=["bessel_k0_scaled-k0e", "bessel_k1_scaled-k1e"])
def test_bit_equal_to_the_scipy_ufunc(monkeypatch, name, ufunc):
    # Each name starts as a stand-in whose first call binds scipy's Cython
    # entry point in its place; the entry point and the ufunc run the same
    # kernel, so every value, through the stand-in and through the bound
    # entry point, is the ufunc's to the bit, as a float.
    kernel = getattr(cython_special, ufunc.__name__)
    stand_in = specfun._bound_on_first_call(name, ufunc.__name__)
    monkeypatch.setattr(specfun, name, stand_in)
    grid = np.concatenate((np.logspace(-300, 300, 12001), np.linspace(0.0, 800.0, 80001)[1:]))
    for fn in (stand_in, kernel):
        for x in map(float, grid):
            y = fn(x)
            assert type(y) is float and y == float(ufunc(x)) and 0.0 < y < math.inf, x
        assert getattr(specfun, name) is kernel


def test_bessel_oracle_agrees_with_itself_and_the_quadrature():
    # Each side of the series-to-CF2 switch at 40 and of mpmath besselk's
    # slow band (60-100 at 40-70 digits), against the oracle at 70 digits;
    # below 1e3, criterion 2's quadrature against it at 1e-13.
    for a in (1e-9, 1e-3, 0.5, 2.0, 10.0, 39.99, 40.0, 61.0, 75.0, 86.0, 100.0, 1e3, 1e5):
        values = {dps: mp.workdps(dps)(_bessel_k_scaled)(a) for dps in (20, 40, 60, 70)}
        for dps in (20, 40, 60):
            for v, ref in zip(values[dps], values[70]):
                assert abs(v - ref) <= mp.mpf(10) ** (2 - dps) * ref, (a, dps)
        if a < 1e3:
            quad = (k0_scaled_oracle(a), k1_scaled_oracle(a))
            assert quad == pytest.approx([float(v) for v in values[40]], rel=1e-13, abs=0), a
