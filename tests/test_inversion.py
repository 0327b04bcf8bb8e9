import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from triporo.inversion import (StehfestScheme, TransformEvaluationError,
                               invert, stehfest_weights, stehfest_weights_exact)
from triporo.model import TriplePorosityParams, wellbore_pressure_laplace

from conftest import REF_KWARGS
from oracle import stehfest_exact


def test_weights_low_orders():
    assert stehfest_weights(2) == (2.0, -2.0)
    assert stehfest_weights(4) == (-2.0, 26.0, -48.0, 24.0)


def test_weight_identities_exact_all_orders():
    # sum V_k = 0 and sum V_k / k = 1 hold exactly for the true weights;
    # verified in rational arithmetic for every admissible order.
    for n in range(2, 21, 2):
        w = stehfest_weights_exact(n)
        assert sum(w) == 0
        assert sum(v / Fraction(k) for k, v in enumerate(w, start=1)) == 1


def test_weight_identities_float_level():
    for n in range(2, 21, 2):
        w = stehfest_weights(n)
        assert abs(math.fsum(w)) <= 1e-6 * max(abs(v) for v in w)
    # In doubles the sum V_k/k identity is limited by the representation
    # of the large alternating weights; it holds to 1e-10 through n = 12
    # (6.2e-11 there; 5.6e-10 at n = 14, 1.2e-8 at n = 16, 4.6e-6 at n = 20).
    for n in (2, 4, 6, 8, 10, 12):
        w = stehfest_weights(n)
        assert abs(math.fsum(v / k for k, v in enumerate(w, start=1)) - 1.0) <= 1e-10


def test_weight_growth_documents_double_precision_limit():
    assert max(abs(v) for v in stehfest_weights(16)) > 1e8


@pytest.mark.parametrize("bad", [3, 0, -2, 22, 7])
def test_order_domain_errors(bad):
    with pytest.raises(ValueError):
        stehfest_weights(bad)


def test_scheme_construction():
    s = StehfestScheme.of_order(12)
    assert s.n == 12 and s.weights == stehfest_weights(12)
    # The weights follow from n alone, and an integral float order is the
    # int order: invert and the exact weights of that order run over it.
    with pytest.raises(TypeError):
        StehfestScheme(n=4, weights=(0.0,) * 4)
    s = StehfestScheme.of_order(12.0)
    assert type(s.n) is int and s == StehfestScheme(12)
    assert invert(lambda u: 1.0 / u, 1.0, s) == pytest.approx(1.0, abs=1e-9)
    assert stehfest_exact(lambda u: 1.0 / u, 1.0, stehfest_weights_exact(s.n))[0] == 1.0
    with pytest.raises(ValueError):
        StehfestScheme.of_order(13)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="Stehfest order"):
            StehfestScheme.of_order(bad)


def test_invert_constant_pair():
    # F = 1/u has original f = 1, exact for the scheme; the achievable
    # accuracy in doubles is set by the weight magnitudes (2.2e-10 at
    # n = 12, 9.7e-8 at n = 16; the exact sum gives 0 at both).
    ts = (3.7, *map(float, np.logspace(-1, 2, 16)))
    for n, tol in ((4, 1e-13), (8, 1e-11), (12, 5e-10)):
        s = StehfestScheme.of_order(n)
        vals = [invert(lambda u: 1.0 / u, t, s) for t in ts]
        assert vals == pytest.approx([1.0] * len(ts), abs=tol), n


def test_invert_ramp_pair():
    # F = 1/u^2 -> f(t) = t.  The order-12 scheme carries a relative
    # method error of 9.62e-7 on this pair, independent of t (frozen from
    # the exact-weight evaluation).
    s = StehfestScheme.of_order(12)
    for t in (0.1, 3.7, 100.0):
        assert invert(lambda u: 1.0 / u**2, t, s) == pytest.approx(t, rel=2e-6)


def test_invert_exponential_pair():
    s = StehfestScheme.of_order(12)
    assert invert(lambda u: 1.0 / (u + 1.0), 1.0, s) == pytest.approx(
        math.exp(-1.0), rel=5e-4)


def test_invert_fractional_power_pair():
    s = StehfestScheme.of_order(14)
    for t in np.logspace(-1, 1, 12):
        t = float(t)
        expected = math.sqrt(t) / math.gamma(1.5)
        assert invert(lambda u: u**-1.5, t, s) == pytest.approx(expected, rel=1e-3)


def test_invert_linearity():
    # The evaluator's rounding is amplified by sum |V_k| (~1e2 at n = 4,
    # ~3e7 at n = 12), which bounds how closely the two sides can agree.
    F = lambda u: 1.0 / (u + 1.0)
    G = lambda u: 1.0 / u**2
    a, b = 2.5, -0.75
    for n, tol in ((4, 1e-12), (12, 5e-9)):
        s = StehfestScheme.of_order(n)
        for t in (0.5, 2.0):
            combined = invert(lambda u: a * F(u) + b * G(u), t, s)
            split = a * invert(F, t, s) + b * invert(G, t, s)
            assert combined == pytest.approx(split, rel=tol)


def test_order_stability_on_decaying_pairs():
    s12, s14, s16 = (StehfestScheme.of_order(n) for n in (12, 14, 16))
    F = lambda u: 1.0 / u**2
    for t in np.logspace(-1, 2, 10):
        t = float(t)
        spread = abs(invert(F, t, s12) - invert(F, t, s16)) / abs(invert(F, t, s14))
        assert spread <= 1e-3
    G = lambda u: 1.0 / (u + 1.0)
    # The exponential original loses accuracy at late t (method error
    # ~2e-2 by t = 5); order agreement is meaningful where the scheme
    # itself still converges.
    for t in np.linspace(0.1, 2.0, 12):
        t = float(t)
        spread = abs(invert(G, t, s12) - invert(G, t, s16)) / abs(invert(G, t, s14))
        assert spread <= 1e-3


def test_invert_rejects_bad_time():
    s = StehfestScheme.of_order(8)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            invert(lambda u: 1.0 / u, bad, s)


def test_evaluator_errors_carry_u():
    s = StehfestScheme.of_order(8)

    def explosive(u):
        if u > 2.0:
            raise ArithmeticError("boom")
        return 1.0 / u

    with pytest.raises(TransformEvaluationError) as err:
        invert(explosive, 1.0, s)
    assert type(err.value.u) is float and err.value.u > 2.0
    assert "u=" in str(err.value)
    assert isinstance(err.value.__cause__, ArithmeticError)


def test_nonfinite_transform_values_are_refused():
    # NaN would pass silently and +-inf would end in a bare fsum ValueError.
    s = StehfestScheme.of_order(8)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(TransformEvaluationError, match="not finite") as err:
            invert(lambda u: bad if u > 2.0 else 1.0 / u, 1.0, s)
        assert err.value.u > 2.0 and err.value.t == 1.0
    # Finite samples whose weighted terms overflow (the exact sum gives 1.0):
    # the error names the u of the first non-finite term, k = 6.
    with pytest.raises(TransformEvaluationError, match=r"\(t=1e\+303\)") as err:
        invert(lambda u: 1.0 / u, 1e303, StehfestScheme.of_order(12))
    assert err.value.u == 6 * (math.log(2.0) / 1e303)


_FRACTIONAL_REF = TriplePorosityParams(**REF_KWARGS).with_betas(0.9, 0.8, 0.7)


@pytest.mark.parametrize("F, n, ts", [
    (lambda u: wellbore_pressure_laplace(_FRACTIONAL_REF, u), 12,
     [float(t) for t in np.logspace(-2, 6, 9)]),
    (lambda u: 1.0 / (u + 1.0), 8, [0.1, 1.0, 3.7]),
], ids=["wellbore-n12", "decay-n8"])
def test_invert_within_cancellation_bound_of_exact_sum(F, n, ts):
    # invert against the exact sum of the same order over the exact weights
    # (oracle.stehfest_exact, 50 digits) agrees to the double path's
    # cancellation bound 4 eps (ln 2 / t) sum |V_k F(u_k)|.  The wellbore
    # transform converts u to a float, so the exact sum sees the same
    # double-rounded F_k (measured: 2.8e-10 relative at worst, bound 1.4e-9
    # at least); 1/(u + 1) is evaluated at 50 digits there (measured: at
    # most 0.095 of the bound).
    s = StehfestScheme.of_order(n)
    weights = stehfest_weights_exact(n)
    for t in ts:
        exact, spread = stehfest_exact(F, t, weights)
        assert abs(invert(F, t, s) - exact) <= 4.0 * sys.float_info.epsilon * spread
