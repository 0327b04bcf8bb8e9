import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest

import oracle

from triporo.curves import (CSV_HEADER, CurvePoint, bourdet_derivative,
                            log_time_grid, pressure_curve, write_curve)
from triporo.inversion import StehfestScheme, TransformEvaluationError, stehfest_weights_exact
from triporo.model import TriplePorosityParams

from conftest import LATE_TIME_DEFECT, read_curve_csv


def test_log_grid_decade_endpoints():
    assert log_time_grid(1.0, 100.0, 1) == pytest.approx([1.0, 10.0, 100.0], rel=1e-14)


def test_log_grid_ten_per_decade():
    g = log_time_grid(1.0, 10.0, 10)
    assert len(g) == 11
    ratio = 10.0 ** 0.1
    for a, b in zip(g, g[1:]):
        assert b / a == pytest.approx(ratio, rel=1e-12)
    assert g[0] == 1.0 and g[-1] == 10.0


def test_log_grid_long_span():
    g = log_time_grid(1e-2, 1e8, 10)
    assert len(g) == 101
    assert g[0] == 1e-2 and g[-1] == 1e8
    # Up to the largest double: 10.0 ** log10(t_max) would overflow.
    g = log_time_grid(1e300, 1.7976931348623157e308, 1)
    assert len(g) == 9 and g[-1] == 1.7976931348623157e308


def test_log_grid_validation():
    with pytest.raises(ValueError):
        log_time_grid(-1.0, 10.0, 5)
    with pytest.raises(ValueError):
        log_time_grid(10.0, 1.0, 5)
    with pytest.raises(ValueError):
        log_time_grid(1.0, 10.0, 0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="points_per_decade"):
            log_time_grid(1e-2, 1e8, bad)


def test_bourdet_log_ramp_is_exact():
    g = log_time_grid(1.0, 1e4, 7)
    vals = [math.log(t) for t in g]
    d = bourdet_derivative(g, vals)
    assert d == pytest.approx([1.0] * len(g), rel=1e-12)


def test_bourdet_constant_is_zero():
    g = log_time_grid(1.0, 100.0, 8)
    d = bourdet_derivative(g, [4.2] * len(g))
    assert d == pytest.approx([0.0] * len(g), abs=1e-12)


def test_bourdet_linear_ramp():
    # d t / d ln t = t; central-difference truncation on a log grid is
    # (h^2/6) t with h = ln 10 / ppd, so 40 points per decade keeps the
    # interior error within 1e-3 (20 ppd would give 2.2e-3).
    g = log_time_grid(1.0, 1e3, 40)
    d = bourdet_derivative(g, list(g))
    for i in range(1, len(g) - 1):
        assert d[i] == pytest.approx(g[i], rel=1e-3)


def test_bourdet_validation():
    with pytest.raises(ValueError):
        bourdet_derivative([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        bourdet_derivative([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        bourdet_derivative([1.0, 3.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.xfail(strict=True, reason=(
    "known defect: Stehfest-12 on double F_k dips at t = 2.51e4 -> 3.98e4 "
    "(9.33596 -> 9.28312); the F_k there are off by up to 2.5e-8 because "
    "m4 = u^beta_f omega_f + lambda_mf + lambda_fv rounds away the ~1e-11 "
    "storage term against lambda_fv = 0.29.  Accurate modes (ROADMAP item 2) "
    "make this pass, and the marker then goes."))
def test_pressure_curve_monotone_where_storage_rounds_away():
    # param_scan draw 1218 of seed 5: fracture storage omega_f ~ 1e-9 under a
    # fracture-vug transfer lambda_fv ~ 0.29.
    p = TriplePorosityParams(
        omega_f=1.0091817715828265e-09, omega_v=4.978571319822783e-11,
        kappa_f=0.0020454248917181864, kappa_v=0.8808357526730936,
        lambda_mf=6.803113187259675e-11, lambda_mv=1.141810650100742e-12,
        lambda_fv=0.29370894373483775, beta_m=0.8220019124209252,
        beta_f=0.41402813664688676, beta_v=0.6185898488893815)
    pw = [pt.p_w for pt in pressure_curve(p, log_time_grid(1e-1, 1e5, 5),
                                          StehfestScheme(12))]
    assert all(b >= a for a, b in zip(pw, pw[1:]))


@pytest.mark.parametrize("t", [1e8, *(pytest.param(t, marks=LATE_TIME_DEFECT)
                                      for t in (1e9, 1e10, 1e12, 1e14, 1e16, 1e20))])
def test_classic_late_time_follows_the_radial_flow_asymptote(ref_params, t):
    # p_w -> (ln t + ln 4 - gamma) / 2.  The exact order-12 Stehfest sum of
    # 40-digit oracle F_k is within 1.2e-8 of it at t = 1e14, 8.5e-9 at 1e20.
    pw = pressure_curve(ref_params, [t], StehfestScheme(12))[0].p_w
    assert pw == pytest.approx(0.5 * (math.log(t) + math.log(4.0) - np.euler_gamma), rel=1e-7)


@LATE_TIME_DEFECT
def test_fractional_late_time_value(ref_params):
    # The truth of ROADMAP finding 5; the exact order-12 Stehfest sum of
    # 40-digit oracle F_k is within 3.4e-9 of it.
    p = ref_params.with_betas(0.9, 0.8, 0.7)
    assert pressure_curve(p, [1e20], StehfestScheme(12))[0].p_w == pytest.approx(
        16.547498, rel=1e-5)


@LATE_TIME_DEFECT
@pytest.mark.parametrize("betas", [(0.9, 0.8, 0.7), (0.77, 0.56, 0.6)])
def test_fractional_late_time_curve_is_finite_and_non_decreasing(ref_params, betas):
    # At 0.77/0.56/0.6, p_w is -32.8 at t = 1e25, swings to +-1e5 by 1e33
    # and the evaluation at t = 1e34 raises TransformEvaluationError.
    pw = [pt.p_w for pt in pressure_curve(ref_params.with_betas(*betas),
                                          log_time_grid(1e8, 1e40, 1), StehfestScheme(12))]
    assert all(math.isfinite(v) for v in pw)
    assert all(b >= a for a, b in zip(pw, pw[1:]))


@pytest.mark.parametrize("t", [1e14, *(pytest.param(t, marks=LATE_TIME_DEFECT)
                                       for t in (1e16, 1e18, 1e20))])
def test_fractional_late_time_derivative_plateau(ref_params, t):
    # With orders 0.9/0.8/0.7 the true dp_w/dln t is within 1e-4 of beta*/2 =
    # 0.35 (beta* the smallest order) from t = 1e14 on: 0.350076 at 1e14,
    # 0.350014 at 1e20.  The curve's derivative must hold 1e-3.
    pts = pressure_curve(ref_params.with_betas(0.9, 0.8, 0.7), log_time_grid(1e13, 1e21, 2),
                         StehfestScheme(12))
    assert {pt.t_D: pt.dp_w_dlnt for pt in pts}[t] == pytest.approx(0.35, abs=1e-3)


def _media(p):
    """(omega_i, kappa_i, beta_i, Lambda_i) of matrix, fracture and vugs, with
    Lambda_i the sum of medium i's couplings."""
    return ((p.omega_m, p.kappa_m, p.beta_m, p.lambda_mf + p.lambda_mv),
            (p.omega_f, p.kappa_f, p.beta_f, p.lambda_mf + p.lambda_fv),
            (p.omega_v, p.kappa_v, p.beta_v, p.lambda_mv + p.lambda_fv))


def _commingled(p, u):
    """The lambda = 0 transform 1 / (u sum_i kappa_i g(alpha_i)), g(a) = a K1(a) / K0(a)
    and alpha_i^2 = u^beta_i omega_i / kappa_i, from the oracle's Bessel values."""
    total = 0
    for omega, kappa, order, _ in _media(p):
        a = mp.sqrt(u ** mp.mpf(order) * omega / kappa)
        k0, k1 = oracle._bessel_k_scaled(a)
        total += kappa * a * k1 / k0
    return 1 / (u * total)


def _coupling_share(p, u):
    """delta(u) = max_i Lambda_i / (u^beta_i omega_i): the couplings' share of the storage."""
    return max(lam / (u ** mp.mpf(order) * omega) for omega, _, order, lam in _media(p))


@pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("betas", [(1.0, 1.0, 1.0), (0.9, 0.8, 0.7), (0.77, 0.56, 0.6)])
def test_early_time_curve_tends_to_the_commingled_curve(ref_params, betas, t):
    """As t -> 0 the couplings have not acted yet, so p_w tends to the commingled
    (lambda = 0) curve, inverted here by the same order-12 sum at 50 digits.

    The bound follows from lambda and t.  p_bar_w = 1 / (u y^T h(T) y) with
    y = sqrt(kappa), T = K^-1/2 (diag(u^beta_i omega_i) + L) K^-1/2, L the
    couplings' Laplacian and h(x) = sqrt(x) K1(sqrt x) / K0(sqrt x), whose
    h(x)/x is a Stieltjes function (Ismail, Canad. J. Math. 29, 1977): h is
    operator monotone, concave and h(0+) = 0.  As 0 <= L <= 2 diag(Lambda_i),
    T lies between its lambda = 0 value T0 and (1 + 2 delta) T0, so
    0 <= p_bar_0 - p_bar_w <= 2 delta p_bar_0 at each node u_k = k ln 2 / t.
    The two sums then differ by at most (ln 2 / t) sum_k |V_k| 2 delta(u_k)
    p_bar_0(u_k).  The double path adds its cancellation bound 4 eps and the
    chain's 1e-12 pin against the oracle, each times (ln 2 / t) sum_k |V_k|
    p_bar_0(u_k).
    """
    p = ref_params.with_betas(*betas)
    weights = stehfest_weights_exact(12)
    commingled, spread = oracle.stehfest_exact(lambda u: _commingled(p, u), t, weights)
    _, coupled_spread = oracle.stehfest_exact(
        lambda u: _coupling_share(p, u) * _commingled(p, u), t, weights)
    bound = 2.0 * coupled_spread + (4.0 * sys.float_info.epsilon + 1e-12) * spread
    pw = pressure_curve(p, [t], StehfestScheme(12))[0].p_w
    assert abs(pw - commingled) <= bound


def test_pressure_curve_classic_monotone(ref_params):
    scheme = StehfestScheme.of_order(12)
    grid = log_time_grid(1e-2, 1e8, 2)
    pts = pressure_curve(ref_params, grid, scheme)
    assert len(pts) == len(grid)
    assert all(b.p_w > a.p_w for a, b in zip(pts, pts[1:]))
    assert all(p.dp_w_dlnt is not None for p in pts)


def test_pressure_curve_refinement_stability(ref_params):
    # Inversion is per-point: doubling the density leaves shared times
    # bit-identical.
    scheme = StehfestScheme.of_order(12)
    coarse = pressure_curve(ref_params, log_time_grid(1.0, 1e4, 2), scheme)
    dense = pressure_curve(ref_params, log_time_grid(1.0, 1e4, 4), scheme)
    dense_by_t = {p.t_D: p.p_w for p in dense}
    shared = [p for p in coarse if p.t_D in dense_by_t]
    assert len(shared) == len(coarse)
    for p in shared:
        assert dense_by_t[p.t_D] == p.p_w


def test_pressure_curve_derivative_consistency(ref_params):
    # Bourdet on the working grid against plain central differences of a
    # 4x denser curve, interior points of the classic case.
    scheme = StehfestScheme.of_order(12)
    coarse_grid = log_time_grid(1.0, 1e6, 10)
    dense_grid = log_time_grid(1.0, 1e6, 40)
    coarse = pressure_curve(ref_params, coarse_grid, scheme)
    dense = pressure_curve(ref_params, dense_grid, scheme)
    lnt = [math.log(t) for t in dense_grid]
    dense_fd = {}
    for i in range(1, len(dense) - 1):
        dense_fd[dense_grid[i]] = ((dense[i + 1].p_w - dense[i - 1].p_w)
                                   / (lnt[i + 1] - lnt[i - 1]))
    for p in coarse[1:-1]:
        assert p.dp_w_dlnt == pytest.approx(dense_fd[p.t_D], rel=0.02)


def test_pressure_curve_decay_condition(ref_params):
    # u * pw_bar stays bounded along increasing u (zero initial pressure).
    from triporo.model import wellbore_pressure_laplace
    products = [u * wellbore_pressure_laplace(ref_params, u)
                for u in np.logspace(0, 8, 17)]
    assert all(math.isfinite(v) for v in products)
    assert all(b < a for a, b in zip(products, products[1:]))


def test_pressure_curve_error_context(ref_params, monkeypatch):
    import triporo.curves as curves_mod

    def broken(p, u):
        raise ArithmeticError("synthetic failure")

    monkeypatch.setattr(curves_mod, "wellbore_pressure_laplace", broken)
    with pytest.raises(TransformEvaluationError, match=r"\(t=1\.0\)"):
        pressure_curve(ref_params, [1.0, 10.0, 100.0], StehfestScheme.of_order(8))


def test_pressure_curve_refuses_nonfinite_transform(ref_params, monkeypatch):
    # A NaN from the transform must not come out as a NaN curve.
    import triporo.curves as curves_mod

    monkeypatch.setattr(curves_mod, "wellbore_pressure_laplace", lambda p, u: math.nan)
    with pytest.raises(TransformEvaluationError, match=r"not finite"):
        pressure_curve(ref_params, [1.0, 10.0, 100.0], StehfestScheme.of_order(8))


def test_pressure_curve_grid_validation(ref_params, monkeypatch):
    # A bad grid is refused before the transform is evaluated once.
    import triporo.curves as curves_mod

    def never(p, u):
        raise AssertionError("transform evaluated on a bad grid")

    monkeypatch.setattr(curves_mod, "wellbore_pressure_laplace", never)
    s = StehfestScheme.of_order(8)
    for grid in ([], [1.0, 1.0], [-1.0, 2.0], [10.0, 1.0], [1.0, math.inf]):
        with pytest.raises(ValueError, match="time grid"):
            pressure_curve(ref_params, grid, s)


def test_short_grid_has_no_derivative(ref_params):
    pts = pressure_curve(ref_params, [1.0, 10.0], StehfestScheme.of_order(8))
    assert [p.dp_w_dlnt for p in pts] == [None, None]


# ---------------------------------------------------------------- output

def test_csv_single_point(tmp_path):
    out = tmp_path / "one.csv"
    write_curve([CurvePoint(1.0, 2.0, 0.5)], "csv", out)
    assert out.read_text() == f"{CSV_HEADER}\n1.0,2.0,0.5\n"


def test_csv_absent_derivative(tmp_path):
    out = tmp_path / "nod.csv"
    write_curve([CurvePoint(1.0, 2.0, None)], "csv", out)
    assert out.read_text().splitlines()[1] == "1.0,2.0,"


def test_json_absent_derivative_is_null(tmp_path):
    out = tmp_path / "nod.json"
    write_curve([CurvePoint(1.0, 2.0, None)], "json", out)
    assert json.loads(out.read_text()) == [{"t_D": 1.0, "p_w": 2.0, "dp_w_dlnt": None}]
    assert out.read_bytes() == (b'[\n  {\n    "t_D": 1.0,\n    "p_w": 2.0,\n'
                                b'    "dp_w_dlnt": null\n  }\n]\n')


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip_bitwise(tmp_path, fmt):
    pts = [CurvePoint(0.1, 0.123456789012345678, 0.5),
           CurvePoint(1.0, 2.0 / 3.0, None),
           CurvePoint(10.0, math.pi, -1.25e-17)]
    out = tmp_path / f"curve.{fmt}"
    write_curve(pts, fmt, out)
    if fmt == "csv":
        assert out.read_text().split("\n", 1)[0] == CSV_HEADER
        assert read_curve_csv(out) == pts
    else:
        assert [CurvePoint(**row) for row in json.loads(out.read_text())] == pts


def test_write_empty_curve_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_curve([], "csv", tmp_path / "x.csv")


def test_write_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown curve format 'xml'"):
        write_curve([CurvePoint(1.0, 2.0)], "xml", tmp_path / "x.xml")
    assert not (tmp_path / "x.xml").exists()


def test_write_io_error_names_path(tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        write_curve([CurvePoint(1.0, 2.0)], "csv", dest)
