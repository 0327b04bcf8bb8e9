import math
import re

import numpy as np
import pytest

from triporo.model import characteristic_coefficients, m_terms
from triporo.roots import (RESIDUAL_TOL, RootClassificationError,
                           alpha_roots, solve_cubic_real)



def cubic_residual(c, x: float) -> tuple[float, float]:
    """The cubic c = (c3, c2, c1, c0) at x, and its largest term's magnitude.

    ``roots.alpha_roots`` bounds the first by RESIDUAL_TOL times the second.
    """
    c3, c2, c1, c0 = c
    return (((c3 * x + c2) * x + c1) * x + c0,
            max(abs(c3 * x**3), abs(c2 * x**2), abs(c1 * x), abs(c0)))


def from_roots(r, c3=1.0):
    a, b, c = r
    return (c3, -c3 * (a + b + c), c3 * (a * b + a * c + b * c), -c3 * a * b * c)


def test_three_distinct_real_roots():
    roots = solve_cubic_real((1.0, -14.0, 49.0, -36.0))
    assert roots == pytest.approx((1.0, 4.0, 9.0), rel=1e-12)


def test_triple_root():
    # The solver returns the triple root; alpha_roots refuses it, since a
    # repeated root leaves the modal basis short of three distinct modes.
    c = (1.0, -3.0, 3.0, -1.0)
    assert solve_cubic_real(c) == pytest.approx((1.0, 1.0, 1.0), rel=1e-7)
    with pytest.raises(RootClassificationError, match="nearly repeated"):
        alpha_roots(c)


def test_one_real_two_complex():
    with pytest.raises(ValueError, match="complex pair"):
        solve_cubic_real((1.0, 0.0, 1.0, 0.0))


def test_degenerate_leading_coefficient():
    with pytest.raises(ValueError, match="leading"):
        solve_cubic_real((0.0, 1.0, 1.0, 1.0))


def test_near_equal_roots_refused():
    c = from_roots((1.0, 1.0 + 1e-12, 5.0))
    roots = solve_cubic_real(c)
    assert roots[:2] == pytest.approx((1.0, 1.0), rel=1e-6)
    assert roots[2] == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(RootClassificationError, match="nearly repeated"):
        alpha_roots(c)


def test_roots_just_beyond_the_repeat_gap_are_accepted():
    out = alpha_roots(from_roots((1.0, 1.0 + 1e-6, 5.0)))
    assert [a * a for a in out] == pytest.approx((1.0, 1.0 + 1e-6, 5.0), rel=1e-8)


def test_brute_force_recovery():
    # 1000 constructed coefficient sets with real roots spanning twelve
    # decades; pairwise separation >= 1% keeps each root well conditioned.
    rng = np.random.RandomState(42)
    worst = 0.0
    for _ in range(1000):
        while True:
            r = np.sort(10.0 ** rng.uniform(-6, 6, size=3))
            if r[1] / r[0] > 1.01 and r[2] / r[1] > 1.01:
                break
        c3 = 10.0 ** rng.uniform(-3, 3) * rng.choice([-1.0, 1.0])
        real = solve_cubic_real(from_roots(tuple(r), c3))
        worst = max(worst, float(np.max(np.abs(np.array(real) / r - 1.0))))
    assert worst <= 1e-7


def test_close_pair_under_dominant_root_stays_real():
    # A close pair (relative gap 1e-4..1e-2) six to twelve decades below the
    # dominant root: the deflated q1 = c2 + c3*x1 cancels there, and its
    # rounding error alone can make the pair's discriminant negative.
    rng = np.random.RandomState(11)
    worst = 0.0
    for _ in range(1000):
        b = 10.0 ** rng.uniform(-6, 3)
        pair = (b, b * (1.0 + 10.0 ** rng.uniform(-4, -2)))
        r = np.sort([*pair, b * 10.0 ** rng.uniform(6, 12)])
        c3 = 10.0 ** rng.uniform(-3, 3) * rng.choice([-1.0, 1.0])
        real = solve_cubic_real(from_roots(tuple(r), c3))
        worst = max(worst, float(np.max(np.abs(np.array(real) / r - 1.0))))
    assert worst <= 1e-10


def test_complex_pair_under_dominant_real_root():
    # One real root two to ten decades above the modulus of a complex
    # pair, where q1 = c2 + c3*x1 would cancel: the pair is still refused.
    rng = np.random.RandomState(12)
    for _ in range(2000):
        modulus = 10.0 ** rng.uniform(-6, 3)
        theta = rng.uniform(0.1, math.pi - 0.1)
        z = modulus * complex(math.cos(theta), math.sin(theta))
        x1 = abs(z) * 10.0 ** rng.uniform(2, 10) * rng.choice([-1.0, 1.0])
        c3 = 10.0 ** rng.uniform(-3, 3) * rng.choice([-1.0, 1.0])
        c = (c3, -c3 * (x1 + 2.0 * z.real),
             c3 * (2.0 * z.real * x1 + abs(z) ** 2),
             -c3 * x1 * abs(z) ** 2)
        with pytest.raises(ValueError, match="complex pair"):
            solve_cubic_real(c)


def test_vieta_identities():
    rng = np.random.RandomState(7)
    for _ in range(500):
        while True:
            r = np.sort(10.0 ** rng.uniform(-6, 6, size=3))
            if r[1] / r[0] > 1.01 and r[2] / r[1] > 1.01:
                break
        c = from_roots(tuple(r), c3=10.0 ** rng.uniform(-3, 3))
        c3, c2, c1, c0 = c
        x = np.array(solve_cubic_real(c))
        assert x.sum() == pytest.approx(-c2 / c3, rel=1e-8)
        assert x[0] * x[1] + x[0] * x[2] + x[1] * x[2] == pytest.approx(
            c1 / c3, rel=1e-8)
        assert np.prod(x) == pytest.approx(-c0 / c3, rel=1e-8)


def test_alpha_roots_square_roots():
    out = alpha_roots(from_roots((1.0, 4.0, 9.0)))
    assert isinstance(out, tuple)
    assert out == pytest.approx((1.0, 2.0, 3.0), rel=1e-12)


def test_alpha_roots_residual_bound():
    c = from_roots((1e-4, 2.5, 9e4))
    for a in alpha_roots(c):
        res, scale = cubic_residual(c, a * a)
        assert abs(res) <= 1e-10 * scale


@pytest.mark.parametrize("delta, passes", [(2.69e-9, True), (2.71e-9, False)])
def test_alpha_roots_residual_bound_either_side(monkeypatch, delta, passes):
    # x = 3 + delta against the cubic of roots 1, 2, 3: the residual (~2 delta)
    # is far above RESIDUAL_TOL * |c0| = 6e-10, so the full bound
    # RESIDUAL_TOL * scale (~5.4e-9), scale the cubic's largest term at x,
    # decides, within 1 % either side.
    c = from_roots((1.0, 2.0, 3.0))
    x = 3.0 + delta
    res, scale = cubic_residual(c, x)
    assert abs(res) > 8.0 * RESIDUAL_TOL * abs(c[3])
    assert abs(abs(res) / (RESIDUAL_TOL * scale) - 1.0) < 0.01
    monkeypatch.setattr("triporo.roots.solve_cubic_real", lambda _: (1.0, 2.0, x))
    if passes:
        assert alpha_roots(c) == (1.0, math.sqrt(2.0), math.sqrt(x))
    else:
        with pytest.raises(RootClassificationError, match=re.escape(
                f"root x={x!r} fails residual bound: |{res!r}| > "
                f"{RESIDUAL_TOL} * {scale!r}")):
            alpha_roots(c)


def test_alpha_roots_rejects_complex():
    with pytest.raises(RootClassificationError, match="complex"):
        alpha_roots((1.0, 0.0, 1.0, 0.0))


def test_alpha_roots_rejects_nonpositive():
    with pytest.raises(RootClassificationError, match=re.escape("non-positive roots [-1.0]")):
        alpha_roots(from_roots((-1.0, 1.0, 2.0)))


def test_alpha_product_matches_vieta_on_reference_set(ref_params):
    # alpha_1 alpha_2 alpha_3 = sqrt(-c0/c3)
    m = m_terms(ref_params, 1.0)
    c = characteristic_coefficients(m, ref_params.kappa_m, ref_params.kappa_f,
                                    ref_params.kappa_v)
    out = alpha_roots(c)
    assert all(a > 0 for a in out)
    assert math.prod(out) == pytest.approx(math.sqrt(-c[3] / c[0]), rel=1e-10)
