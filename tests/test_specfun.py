import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import cython_special, k0e, k1e, kve

from triporo import specfun
from triporo.specfun import bessel_k0_scaled, bessel_k1_scaled

EULER_GAMMA = 0.5772156649015329


# Independent oracle: the integral representations, scaled by e^x,
#   e^x K0(x) = int_0^inf exp(-x (cosh t - 1)) dt
#   e^x K1(x) = int_0^inf exp(-x (cosh t - 1)) cosh t dt
# integrated adaptively up to the point where the integrand underflows.

def _top(x: float) -> float:
    return math.acosh(745.0 / x + 1.0)


def k0_scaled_oracle(x: float) -> float:
    return quad(lambda t: math.exp(-x * (math.cosh(t) - 1.0)), 0.0, _top(x),
                epsabs=1e-300, epsrel=1.3e-14, limit=400)[0]


def k1_scaled_oracle(x: float) -> float:
    return quad(lambda t: math.exp(-x * (math.cosh(t) - 1.0)) * math.cosh(t), 0.0, _top(x),
                epsabs=1e-300, epsrel=1.3e-14, limit=400)[0]


def test_k0_at_one_matches_quadrature_oracle():
    e_k0 = math.e * 0.42102443824070834
    assert k0_scaled_oracle(1.0) == pytest.approx(e_k0, rel=1e-13)
    assert bessel_k0_scaled(1.0) == pytest.approx(e_k0, rel=1e-13)


def test_k1_frozen_oracle_values():
    for x, k1 in ((1.0, 0.6019072301972346), (5.0, 0.004044613445452164)):
        assert k1_scaled_oracle(x) == pytest.approx(math.exp(x) * k1, rel=1e-13)
        assert bessel_k1_scaled(x) == pytest.approx(math.exp(x) * k1, rel=1e-13)


def test_k0_small_argument_log_divergence():
    # Leading expansion K0(x) -> -ln(x/2) - gamma; at x = 1e-8 the
    # correction terms are O(x^2 ln x), far below the check tolerance.
    x = 1e-8
    expansion = -math.log(x / 2.0) - EULER_GAMMA
    assert expansion == pytest.approx(18.536612259610777, rel=1e-12)
    assert bessel_k0_scaled(x) * math.exp(-x) == pytest.approx(expansion, rel=1e-9)


def test_k1_small_argument_reciprocal_limit():
    x = 1e-6
    assert x * bessel_k1_scaled(x) * math.exp(-x) == pytest.approx(1.0, abs=1e-6)


def test_scaled_values():
    # two-term large-x expansion sqrt(pi/(2x)) (1 - 1/(8x))
    asym = math.sqrt(math.pi / 2000.0) * (1.0 - 1.0 / 8000.0)
    assert bessel_k0_scaled(1000.0) == pytest.approx(asym, rel=1e-4)


def test_scaled_unscaled_consistency():
    # Removing the scale factor recovers mpmath's unscaled K0 and K1.
    assert bessel_k0_scaled(10.0) * math.exp(-10.0) == pytest.approx(
        float(mp.besselk(0, 10)), rel=1e-14)
    assert bessel_k1_scaled(10.0) * math.exp(-10.0) == pytest.approx(
        float(mp.besselk(1, 10)), rel=1e-14)


def test_scaled_ratio_matches_unscaled_ratio():
    for x in (0.5, 3.0, 30.0, 300.0):
        assert bessel_k0_scaled(x) / bessel_k1_scaled(x) == pytest.approx(
            float(mp.besselk(0, x) / mp.besselk(1, x)), rel=1e-13)


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


def test_k1_derivative_from_both_recurrences():
    # K1' = -K0 - K1/x and K1' = -K2 + K1/x agree when K2 satisfies
    # K2 = K0 + 2 K1 / x; K2e comes from an independent evaluation.  Both
    # sides carry the same factor e^x.
    for x in np.logspace(-2, math.log10(50.0), 40):
        x = float(x)
        k0x, k1x = bessel_k0_scaled(x), bessel_k1_scaled(x)
        k2x = float(kve(2, x))
        d_low = -k0x - k1x / x
        d_high = -k2x + k1x / x
        assert d_high == pytest.approx(d_low, rel=1e-10)


def test_positive_and_strictly_decreasing():
    grid = np.logspace(-6, 4, 200)
    vals0 = [bessel_k0_scaled(float(x)) for x in grid]
    vals1 = [bessel_k1_scaled(float(x)) for x in grid]
    assert all(v > 0.0 for v in vals0 + vals1)
    assert all(b < a for a, b in zip(vals0, vals0[1:]))
    assert all(b < a for a, b in zip(vals1, vals1[1:]))
