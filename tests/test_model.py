import math
from dataclasses import fields
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import oracle

from triporo import batch, specfun
from triporo.curves import log_time_grid, pressure_curve
from triporo.inversion import StehfestScheme, TransformEvaluationError, invert
from triporo.model import (ModelError, PhysicalParams, TriplePorosityParams,
                           field_pressure_laplace, laplace_assembly, to_dimensionless,
                           wellbore_pressure_laplace)
from triporo.specfun import bessel_k0_scaled

from conftest import (COLLAPSED, REF_KWARGS, SYMMETRIC_KWARGS, column_rows, hex_rows,
                      laplace_dump_rows, run_laplace)

# The README set with every coupling exactly zero.
UNCOUPLED = TriplePorosityParams(**dict(REF_KWARGS, lambda_mf=0.0, lambda_mv=0.0, lambda_fv=0.0))
# The README set with every coupling 1e-20: under half an ulp of each storage
# term, so the m-terms are the uncoupled ones, and the chain still solves it.
NEARLY_UNCOUPLED = TriplePorosityParams(
    **dict(REF_KWARGS, lambda_mf=1e-20, lambda_mv=1e-20, lambda_fv=1e-20))

# Parameter sets whose characteristic cubic has, at the paired u (a Stehfest
# node of a 1e-1..1e5 curve), a close pair of roots far below the dominant
# one, where the deflated q1 = c2 + c3*x1 cancels and the pair can come out
# complex or off the residual bound.  Field order: omega_f, omega_v,
# kappa_f, kappa_v, lambda_mf, lambda_mv, lambda_fv, beta_m, beta_f, beta_v.
DOMAIN_PROBE = [
    ((1.4905481671909264e-08, 2.80772534890579e-09, 1.2700808609465033e-10,
      1.2106299829987156e-06, 5.433766290943357e-10, 2.012225952098962e-10,
      0.14158995259071666, 0.9205511272125928, 0.5658634322909177, 0.6706572378775174),
     0.00043734630438003596),
    ((6.652794933710239e-12, 1.8400121961344302e-06, 0.00025957425428455906,
      6.10608797728646e-10, 9.183934654170337e-12, 4.959973618797946e-10,
      0.6641783933628098, 0.8630032994085137, 0.6570843426836053, 0.37434591375097565),
     4.373463043800359e-05),
    ((8.2568812625546e-08, 0.0021813474052058313, 2.329788451094042e-05,
      2.2628782570948424e-12, 1.3206509233104361e-08, 1.8469425347478626e-05,
      0.00014773848158848734, 0.9757244597106633, 0.35460387999075615, 0.9680088310501298),
     6.591385487058428),
    ((5.6839903180911345e-08, 4.1495770342272414e-12, 9.17965706779152e-06,
      1.276231597128095e-12, 1.489048539930827e-07, 4.4150921245710575e-12,
      0.07540074367270266, 0.4511686158238825, 0.7926366434014516, 0.5935215432430225),
     0.00010985642478430719),
    ((3.8074940549096216e-11, 1.3266244554701493e-08, 1.0442615881431216e-12,
      6.0938706330512435e-05, 5.787653548478645e-12, 7.672409887907052e-06,
      0.658879958537923, 0.7171964852769648, 0.40222864465853203, 0.9406577953569897),
     0.05518937256597079),
    ((0.11731843339466247, 8.208345108373412e-07, 0.32025331846264204,
      1.1358223801941438e-12, 0.0001208427613651681, 0.018163693354096646,
      3.830008257362163e-08, 0.8359439236403716, 0.40113786054313183, 0.7770474859849941),
     0.05518937256597079),
    ((6.793517203622391e-11, 1.3565187560676033e-08, 1.2102662631429299e-10,
      2.9112316288231967e-10, 1.243682103884681e-10, 0.3645362392512239,
      4.756945071536051e-10, 0.778444800629577, 0.6935046143709733, 0.9603865598667216),
     16.556811769791235),
    ((0.001587522719742284, 0.0005763337823734498, 0.0021007338857560753,
      1.079003387243234e-12, 9.689076465545205e-08, 5.35150703446304e-09,
      0.03316374342085333, 0.577872424704656, 0.75619248279904, 0.8295940803812762),
     0.8746926087600723),
    ((1.7992498741336497e-07, 0.8673879639408221, 0.11155975745955682,
      1.8377177508735894e-12, 2.1183386357342045e-06, 6.119793881012411e-06,
      0.0002927252408159593, 0.5450938696706288, 0.9294036529309824, 0.7727190257608652),
     0.00048520302639196166),
    ((0.3246264678777949, 0.04952373021891043, 0.9140097171915275, 1.2575043630317694e-12,
      3.706112168984152e-12, 3.450287051595649e-10, 0.19235954315250525, 0.9222943505407368,
      0.4764908908011349, 0.938658996217282),
     0.001098564247843072),
    ((2.6996171714368618e-09, 1.9325776889627644e-12, 2.0826685144273595e-07,
      1.4287584743557791e-11, 2.3700098369840738e-11, 0.0040060729072538435,
      1.0770313872824163e-12, 0.9532834384406619, 0.9386915355659748, 0.37740332271707877),
     7.624618986159398e-05),
    ((2.548517282695472e-09, 1.40308174084551e-06, 8.196140334566076e-12,
      1.984034846877241e-05, 3.7582711497320676e-12, 3.9256425179302375e-09,
      0.21412595287479644, 0.9137287549994793, 0.740798521848218, 0.7531876976916951),
     0.00013862943611198905),
]


# ---------------------------------------------------------------- params

def test_params_invariants(ref_params):
    for edit, match in ((dict(omega_f=-0.1), "omega_f"),
                        (dict(omega_f=0.5, omega_v=0.6), r"omega_f \+ omega_v"),
                        (dict(kappa_v=0.30), r"kappa_f \+ kappa_v"),
                        (dict(kappa_v=0.0), "kappa_v"),
                        (dict(lambda_mf=-1e-3), "lambda_mf"),
                        (dict(beta_m=1.2), "beta_m")):
        with pytest.raises(ValueError, match=match):
            TriplePorosityParams(**dict(REF_KWARGS, **edit))
    assert ref_params.omega_m == pytest.approx(0.18)
    assert ref_params.kappa_m == pytest.approx(0.23)


# ---------------------------------------------------------------- m-terms

def test_m_terms_reference_values(ref_params):
    m = laplace_assembly(ref_params, 1.0).mterms
    assert m[0] == pytest.approx(0.18100001, rel=1e-12)
    assert m[1] == 1e-3
    assert m[2] == 1e-8
    assert m[3] == pytest.approx(0.02101, rel=1e-12)
    assert m[4] == 1e-5
    assert m[5] == pytest.approx(0.80001001, rel=1e-12)


def test_m_terms_zero_coupling_collapse():
    p = NEARLY_UNCOUPLED
    assert laplace_assembly(p, 1.0).mterms == (p.omega_m, 1e-20, 1e-20, p.omega_f, 1e-20,
                                                p.omega_v)


def test_m_terms_u_scaling(ref_params):
    p = ref_params.with_betas(0.5, 1.0, 1.0)
    d = laplace_assembly(p, 4.0).mterms[0] - laplace_assembly(p, 1.0).mterms[0]
    assert d == pytest.approx(p.omega_m, rel=1e-12)  # 4^0.5 - 1^0.5 = 1


# ------------------------------------------------- characteristic roots

def test_characteristic_leading_coefficient(ref_params):
    # det M(x) leads with kappa_m kappa_f kappa_v, so its roots x = alpha^2
    # sum to m1/kappa_m + m4/kappa_f + m6/kappa_v and multiply to
    # det S / (kappa_m kappa_f kappa_v), S the coupling matrix.
    asm = laplace_assembly(ref_params, 1.0)
    m1, m2, m3, m4, m5, m6 = asm.mterms
    km, kf, kv = ref_params.kappa_m, ref_params.kappa_f, ref_params.kappa_v
    x = [a * a for a in asm.alpha]
    det_s = m1 * m4 * m6 - m1 * m5 * m5 - m2 * m2 * m6 - 2.0 * m2 * m3 * m5 - m3 * m3 * m4
    assert sum(x) == pytest.approx(m1 / km + m4 / kf + m6 / kv, rel=1e-12)
    assert math.prod(x) == pytest.approx(det_s / (km * kf * kv), rel=1e-12)


def test_characteristic_zero_coupling_factors():
    # Uncoupled media decay at alpha_i^2 = u^beta_i omega_i / kappa_i.
    p = NEARLY_UNCOUPLED
    expected = sorted((p.omega_m / p.kappa_m, p.omega_f / p.kappa_f, p.omega_v / p.kappa_v))
    assert [a * a for a in laplace_assembly(p, 1.0).alpha] == pytest.approx(expected, rel=1e-10)


def test_determinant_vanishes_at_roots(ref_params):
    asm = laplace_assembly(ref_params, 1.0)
    m1, m2, m3, m4, m5, m6 = asm.mterms
    km, kf, kv = ref_params.kappa_m, ref_params.kappa_f, ref_params.kappa_v
    for a in asm.alpha:
        x = a * a
        M = np.array([[km * x - m1, m2, m3],
                      [m2, kf * x - m4, m5],
                      [m3, m5, kv * x - m6]])
        rownorms = np.linalg.norm(M, axis=1)
        assert abs(np.linalg.det(M)) <= 1e-8 * np.prod(rownorms)


# ------------------------------------------------------ modal vectors

def test_modal_null_space_residual_componentwise(ref_params):
    # At u = 1 the per-row componentwise residual is already tiny; at
    # extreme u only the normwise residual is meaningful (acceptance
    # criterion 3 checks that one over u in [1e-6, 1e6]).
    asm = laplace_assembly(ref_params, 1.0)
    m1, m2, m3, m4, m5, m6 = asm.mterms
    km, kf, kv = ref_params.kappa_m, ref_params.kappa_f, ref_params.kappa_v
    for i, a in enumerate(asm.alpha):
        x = a * a
        M = np.array([[km * x - m1, m2, m3],
                      [m2, kf * x - m4, m5],
                      [m3, m5, kv * x - m6]])
        vec = np.array([asm.A[i], asm.B[i], 1.0])
        resid = M @ vec
        for j in range(3):
            assert abs(resid[j]) <= 1e-8 * np.linalg.norm(M[j]) * np.linalg.norm(vec)


def _assert_modes_match_oracle(p):
    # alpha, A and B of all three modes over u = 1e-6..1e6, against the
    # 40-digit eigenpairs (alpha_j^2, w_j) of T, with A = v_m/v_v and
    # B = v_f/v_v of v = K^-1/2 w.  No mode is skipped.
    for u in map(float, np.logspace(-6, 6, 25)):
        asm = laplace_assembly(p, u)
        with mp.workdps(40):
            modes = oracle.modes(p, u)
            v = [[wi / mp.sqrt(k) for wi, k in zip(w, (p.kappa_m, p.kappa_f, p.kappa_v))]
                 for _, w in modes]
            expected = [float(x) for x in ([a for a, _ in modes] + [vj[0] / vj[2] for vj in v]
                                           + [vj[1] / vj[2] for vj in v])]
        assert [*asm.alpha, *asm.A, *asm.B] == pytest.approx(expected, rel=1e-12, abs=0), u


def test_modal_closed_form_cross_check(ref_params):
    # Classic orders on the README set, against the oracle's closed-form modes.
    _assert_modes_match_oracle(ref_params.with_betas(1.0, 1.0, 1.0))


def test_modal_closed_form_wide_sweep(ref_params):
    # The fractional README triples, on the same u sweep.
    for betas in ((0.9, 0.8, 0.7), (0.77, 0.56, 0.6)):
        _assert_modes_match_oracle(ref_params.with_betas(*betas))


def test_modal_decoupled_medium_reports_degeneracy():
    # With all couplings exactly zero each null vector is axis-directed and
    # C-normalization must fail loudly.
    with pytest.raises(ModelError, match=r"decoupled medium.*\(u=1\.0, params="):
        laplace_assembly(UNCOUPLED, 1.0)


# ------------------------------------------------------ boundary system

def test_boundary_vectors_definitions(ref_params):
    # The scaled weights meet the wellbore conditions with mpmath's Bessel values.
    for betas in ((1.0, 1.0, 1.0), (0.9, 0.8, 0.7), (0.77, 0.56, 0.6)):
        asm = laplace_assembly(ref_params.with_betas(*betas), 1.0)
        assert max(oracle.boundary_residuals(asm)) <= 1e-14, betas


def test_boundary_vectors_scaled_consistency(ref_params):
    # Removing the implicit e^{-alpha_i}: the unscaled weights (the dump's D
    # columns) meet the conditions with the unscaled Bessel values.
    for u in (1e-3, 1.0, 1e3):
        asm = laplace_assembly(ref_params, u)
        with mp.workdps(30):
            D = [d * mp.exp(-mp.mpf(a)) for d, a in zip(asm.D, asm.alpha)]
        assert max(oracle.boundary_residuals(asm._replace(D_scaled=D))) <= 1e-13


def test_boundary_residuals_on_reference_set(ref_params):
    for u in (1e-6, 1e-3, 1e3):
        assert max(oracle.boundary_residuals(laplace_assembly(ref_params, u))) <= 1e-14, u


def test_boundary_condition_number_reasonable(ref_params):
    with mp.workdps(30):
        M = np.array(oracle.boundary_rows(laplace_assembly(ref_params, 1.0)), dtype=float)
    assert np.all(np.isfinite(M))
    assert np.linalg.cond(M) < 1e12


# ------------------------------------------------------ wellbore pressure

def test_wellbore_pressures_check_triple_equality(ref_params):
    # The one check site: a finite disagreement and a NaN both raise, and
    # the message ends by naming the evaluation, as the other model errors do.
    asm = laplace_assembly(ref_params, 1.0)
    A = (asm.A[0] * (1.0 + 1e-6), *asm.A[1:])
    D = (asm.D_scaled[0], math.nan, asm.D_scaled[2])
    for bad in (asm._replace(A=A), asm._replace(D_scaled=D)):
        with pytest.raises(ModelError) as info:
            bad.wellbore_pressures()
        assert str(info.value).endswith(f" (u=1.0, params={ref_params!r})")


def test_wellbore_pressure_decreasing_in_u(ref_params):
    vals = [wellbore_pressure_laplace(ref_params, float(u))
            for u in np.logspace(-2, 8, 41)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 0.0


def test_collapsed_limit_matches_single_medium():
    # The single-medium value comes from the oracle's mpmath Bessel
    # functions, not from the library's scipy kernels.
    for alpha in (1.0, 0.8, 0.6):
        p = COLLAPSED.with_betas(alpha, alpha, alpha)
        for u in np.logspace(-3, 3, 13):
            triple = wellbore_pressure_laplace(p, float(u))
            with mp.workdps(20):
                single = float(oracle.single_medium(alpha, float(u)))
            assert triple == pytest.approx(single, rel=1e-4)


def _identical_media(lam, order):
    third = 1.0 / 3.0
    return TriplePorosityParams(omega_f=third, omega_v=third, kappa_f=third, kappa_v=third,
                                lambda_mf=lam, lambda_mv=lam, lambda_fv=lam,
                                beta_m=order, beta_f=order, beta_v=order)


@pytest.mark.xfail(strict=True, raises=(ModelError, AssertionError), reason=(
    "known defect (ROADMAP finding 8): equal media share a decoupled mode, so the "
    "chain finds a complex pair, nearly repeated roots or a singular boundary "
    "system, and misses the single-medium value by up to 1e-5 where it gives one"))
@pytest.mark.parametrize("order", [1.0, 0.8])
@pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0])
def test_identical_media_match_single_medium(lam, order):
    # Three identical media carry one pressure, so the couplings do nothing
    # and p_w is the single medium's, from the oracle's Bessel functions.
    # 1e-12 is the README set's pin against the oracle (worst 2.1e-14).
    p = _identical_media(lam, order)
    for u in np.logspace(-8, 8, 161):
        got = wellbore_pressure_laplace(p, float(u))
        with mp.workdps(20):
            expected = float(oracle.single_medium(order, float(u)))
        assert got == pytest.approx(expected, rel=1e-12, abs=0), u


@pytest.mark.xfail(strict=True, raises=TransformEvaluationError, reason=(
    "known defect (ROADMAP finding 8): the curve fails at its first node, u = 69.31 (t = 0.01)"))
@pytest.mark.parametrize("order", [1.0, 0.8])
@pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0])
def test_identical_media_curve_matches_single_medium(lam, order):
    # The single medium's curve is the same inversion of the oracle's p_w.
    grid, scheme = log_time_grid(1e-2, 1e8, 10), StehfestScheme.of_order(12)
    curve = pressure_curve(_identical_media(lam, order), grid, scheme)
    with mp.workdps(20):
        for t, point in zip(grid, curve):
            expected = invert(lambda u: float(oracle.single_medium(order, u)), t, scheme)
            assert point.p_w == pytest.approx(expected, rel=1e-9, abs=0), t


def _equal_media_refused(where):
    return pytest.mark.xfail(
        strict=True, raises=(TransformEvaluationError, AssertionError),
        reason=f"known defect (ROADMAP finding 8): the curve fails with {where}")


@pytest.mark.parametrize("lam, t_min", [
    pytest.param(1e-6, 1e-2, marks=_equal_media_refused("nearly repeated roots at u = 485.2")),
    pytest.param(1e-3, 1e-8, marks=_equal_media_refused("a complex pair at u = 6.9e7")),
    (1e-3, 1e-4),
])
def test_two_equal_media_give_a_finite_non_decreasing_curve(lam, t_min):
    # Fracture and vugs share omega/kappa, so only lambda splits their mode,
    # and less so relative to the eigenvalues as u grows (early times).
    p = TriplePorosityParams(omega_f=0.1, omega_v=0.1, kappa_f=0.3, kappa_v=0.3,
                             lambda_mf=lam, lambda_mv=lam, lambda_fv=lam)
    pw = [pt.p_w for pt in pressure_curve(p, log_time_grid(t_min, 1e8, 10),
                                          StehfestScheme.of_order(12))]
    assert all(math.isfinite(v) for v in pw)
    assert all(b >= a for a, b in zip(pw, pw[1:]))


@pytest.mark.parametrize("lam", [
    pytest.param(1e-6, marks=pytest.mark.xfail(
        strict=True, raises=(ModelError, AssertionError),
        reason="known defect (ROADMAP finding 8): nearly repeated roots at u = 1e3")),
    1e-3,
])
def test_two_equal_media_match_the_oracle(lam):
    # The oracle gives 3.40854853922788e-5 at lambda = 1e-6 and
    # 3.40854695722462e-5 at 1e-3, where the chain is ~2e-16 off.
    p = TriplePorosityParams(omega_f=0.1, omega_v=0.1, kappa_f=0.3, kappa_v=0.3,
                             lambda_mf=lam, lambda_mv=lam, lambda_fv=lam)
    with mp.workdps(40):
        expected = float(oracle.wellbore(p, 1e3))
    assert wellbore_pressure_laplace(p, 1e3) == pytest.approx(expected, rel=1e-14, abs=0)


@pytest.mark.parametrize("betas", [(0.9, 0.8, 0.7), (0.77, 0.56, 0.6), (1.0, 1.0, 1.0)])
def test_fractional_orders_against_closed_form(ref_params, betas):
    # Classic orders lose accuracy below u = 1e-6 (5e-13 at 1e-8, a known
    # defect of the chain), so their range starts there.
    p = ref_params.with_betas(*betas)
    for k in range(-6 if betas == (1.0, 1.0, 1.0) else -10, 7):
        u = 10.0 ** k
        with mp.workdps(40):
            expected = oracle.wellbore(p, u)
        assert wellbore_pressure_laplace(p, u) == pytest.approx(float(expected), rel=1e-12,
                                                          abs=0)


def test_oracle_agrees_with_itself_across_precisions(ref_params):
    # p_w and alpha at 40 digits against 140: alpha_3 > 700 at u = 1e6, and
    # from u = 1e-20 on, the classic orders' smallest storage term falls 19
    # to 79 digits under its couplings, which the oracle must not round away.
    for betas, u in [*(((0.9, 0.8, 0.7), u) for u in (1e-6, 1.0, 1e6)),
                     *(((1.0, 1.0, 1.0), u) for u in (1e-20, 1e-40, 1e-60, 1e-80))]:
        p = ref_params.with_betas(*betas)
        values = []
        for dps in (40, 140):
            with mp.workdps(dps):
                values.append([oracle.wellbore(p, u), *(a for a, _ in oracle.modes(p, u))])
        assert all(abs(a - b) <= 1e-30 * b for a, b in zip(*values)), (betas, u)


def test_classic_betas_share_the_fractional_path(ref_params):
    # No special-casing of order 1: explicitly setting the orders must give
    # bit-identical results to the defaults.
    explicit = ref_params.with_betas(1.0, 1.0, 1.0)
    for u in (1e-3, 1.0, 1e3):
        assert wellbore_pressure_laplace(explicit, u) == \
            wellbore_pressure_laplace(ref_params, u)


def test_coupling_continuity_towards_zero(ref_kwargs):
    # p_w varies continuously as each coupling coefficient tends to zero.
    for key in ("lambda_mf", "lambda_mv", "lambda_fv"):
        hi = dict(ref_kwargs); hi[key] = 1e-11
        lo = dict(ref_kwargs); lo[key] = 1e-12
        p_hi = TriplePorosityParams(**hi)
        p_lo = TriplePorosityParams(**lo)
        for u in np.logspace(-4, 4, 9):
            a = wellbore_pressure_laplace(p_hi, float(u))
            b = wellbore_pressure_laplace(p_lo, float(u))
            assert a == pytest.approx(b, rel=1e-3)


def test_wellbore_rejects_bad_u(ref_params):
    with pytest.raises(ValueError):
        wellbore_pressure_laplace(ref_params, 0.0)


@pytest.mark.parametrize("bad", [0, -1, math.nan, math.inf])
def test_bad_u_is_named_in_one_message(ref_params, bad):
    message = f"Laplace variable u must be a positive finite real, got {float(bad)!r}"
    for evaluate in (laplace_assembly, wellbore_pressure_laplace,
                     lambda p, u: field_pressure_laplace(p, u, 1.0)):
        with pytest.raises(ValueError) as err:
            evaluate(ref_params, bad)
        assert str(err.value) == message


def test_int_and_numpy_u_give_the_float_bits(ref_params):
    for u, as_float in ((2, 2.0), (np.float64(0.37), 0.37), (np.float64(1e6), 1e6)):
        got = wellbore_pressure_laplace(ref_params, u)
        assert type(got) is float
        assert got.hex() == wellbore_pressure_laplace(ref_params, as_float).hex()
        assert type(laplace_assembly(ref_params, u).u) is float


@pytest.mark.parametrize("betas, u, cause", [
    ((1.0, 1.0, 1.0), 1e51, OverflowError),          # (q/2)**2 overflows
    ((0.9, 0.8, 0.7), 1e58, OverflowError),
    ((1.0, 1.0, 1.0), 1e200, ValueError),            # non-finite coefficients
    ((0.9, 0.8, 0.7), 1.7976931348623157e308, ValueError),
])
def test_unsolvable_large_u_is_a_root_classification_error(ref_kwargs, betas, u, cause):
    p = TriplePorosityParams(**ref_kwargs).with_betas(*betas)
    with pytest.raises(ModelError) as info:
        wellbore_pressure_laplace(p, u)
    # The roots' refusal is chained, and the arithmetic cause behind it.
    arithmetic = getattr(info.value.__cause__, "__cause__", None)
    assert isinstance(arithmetic, cause)
    assert str(info.value) == (f"characteristic equation cannot be solved: {arithmetic} "
                               f"(u={u!r}, params={p!r})")


@pytest.mark.parametrize("kwargs, u, message", [
    # No matrix storage (omega_m = 0): two roots ~u/kappa agree to ~1e-16.
    (dict(omega_f=0.5, omega_v=0.5, kappa_f=0.3, kappa_v=0.3,
          lambda_mf=1.0, lambda_mv=1.0, lambda_fv=1.0), 1e27, "nearly repeated"),
    (dict(omega_f=0.5, omega_v=0.5, kappa_f=0.3, kappa_v=0.3,
          lambda_mf=1.0, lambda_mv=1.0, lambda_fv=1.0), 1e30, "nearly repeated"),
    # Decoupled media with equal ratios: a triple root the cubic splits
    # into a real root and a complex pair.
    (dict(omega_f=0.3, omega_v=0.3, kappa_f=0.3, kappa_v=0.3,
          lambda_mf=0.0, lambda_mv=0.0, lambda_fv=0.0), 1e-6, "complex"),
    # No fracture or vug storage at the top of the double range: the closed
    # form's NaN must be refused rather than reach the modal step.
    (dict(omega_f=0.0, omega_v=0.0, kappa_f=0.3, kappa_v=0.3,
          lambda_mf=0.0, lambda_mv=0.0, lambda_fv=0.0), 1.7e308, "cannot be solved"),
], ids=["omega_m0-1e27", "omega_m0-1e30", "decoupled-equal-ratios", "nan-roots"])
def test_inadmissible_roots_are_refused_before_the_boundary_solve(kwargs, u, message):
    p = TriplePorosityParams(**kwargs)
    with pytest.raises(ModelError) as info:
        laplace_assembly(p, u)
    # The roots' refusal is chained.
    assert str(info.value.__cause__).startswith("characteristic equation ")
    assert message in str(info.value.__cause__)
    assert str(info.value).endswith(f"(u={u!r}, params={p!r})")


# ------------------------------------------------------ field pressures

def test_field_pressure_at_wellbore_equals_pw(ref_params):
    # One modal sum serves both: at r_d = 1 the field triple is the checked
    # wellbore triple, bit for bit.
    for betas in ((1.0, 1.0, 1.0), (0.9, 0.8, 0.7)):
        p = ref_params.with_betas(*betas)
        for u in log_time_grid(1e-8, 1e6, 4):
            assert field_pressure_laplace(p, u, 1.0) == laplace_assembly(p, u).wellbore_pressures()


def test_field_pressure_decays_with_radius(ref_params):
    # At r_d = 1e308, alpha * r_d overflows to inf, where K0e(inf) = 0.
    vals = [field_pressure_laplace(ref_params, 1.0, rd)
            for rd in (1.0, 2.0, 10.0, 100.0, 1e308)]
    for j in range(3):
        comp = [v[j] for v in vals]
        assert all(b < a for a, b in zip(comp, comp[1:]))
    assert vals[3][2] < 1e-3 * vals[0][2]
    assert vals[-1] == (0.0, 0.0, 0.0)


def test_field_pressure_satisfies_laplace_system(ref_params):
    # Substituting the modal expansion into the coupled Laplace-space
    # equations, the radial operator acting on K0(alpha r) contributes
    # alpha^2 K0(alpha r); the residual of each equation must vanish.
    p = ref_params
    km, kf, kv = p.kappa_m, p.kappa_f, p.kappa_v
    for u in (0.01, 1.0, 100.0):
        asm = laplace_assembly(p, u)
        for rd in (1.0, 2.0, 5.0):
            terms = [asm.D_scaled[i]
                     * bessel_k0_scaled(asm.alpha[i] * rd)
                     * math.exp(-asm.alpha[i] * (rd - 1.0))
                     for i in range(3)]
            pm = math.fsum(asm.A[i] * terms[i] for i in range(3))
            pf = math.fsum(asm.B[i] * terms[i] for i in range(3))
            pv = math.fsum(terms)
            lap_m = math.fsum(asm.A[i] * terms[i] * asm.alpha[i] ** 2 for i in range(3))
            lap_f = math.fsum(asm.B[i] * terms[i] * asm.alpha[i] ** 2 for i in range(3))
            lap_v = math.fsum(terms[i] * asm.alpha[i] ** 2 for i in range(3))
            r_m = p.omega_m * u ** p.beta_m * pm - (
                km * lap_m + p.lambda_mf * (pf - pm) + p.lambda_mv * (pv - pm))
            r_f = p.omega_f * u ** p.beta_f * pf - (
                kf * lap_f - p.lambda_mf * (pf - pm) + p.lambda_fv * (pv - pf))
            r_v = p.omega_v * u ** p.beta_v * pv - (
                kv * lap_v - p.lambda_mv * (pv - pm) - p.lambda_fv * (pv - pf))
            assert abs(r_m) <= 1e-7 * max(abs(p.omega_m * u * pm), abs(km * lap_m))
            assert abs(r_f) <= 1e-7 * max(abs(p.omega_f * u * pf), abs(kf * lap_f))
            assert abs(r_v) <= 1e-7 * max(abs(p.omega_v * u * pv), abs(kv * lap_v))


@pytest.mark.parametrize("betas", [(1.0, 1.0, 1.0), (0.9, 0.8, 0.7)])
def test_field_pressure_beyond_the_well_matches_oracle(ref_params, betas):
    p = ref_params.with_betas(*betas)
    for u in (1e-4, 1e-2, 1.0):
        for rd in (2.0, 10.0):
            with mp.workdps(40):
                expected = [float(v) for v in oracle.field(p, u, rd)]
            assert field_pressure_laplace(p, u, rd) == pytest.approx(expected, rel=1e-12)


def test_field_pressure_rejects_small_radius(ref_params):
    with pytest.raises(ValueError):
        field_pressure_laplace(ref_params, 1.0, 0.5)


# ------------------------------------------- the oracle's single medium

def test_single_medium_at_unit_radius():
    # Three identical media carry one pressure, so at r = 1 the oracle's
    # single-medium value is its three-media wellbore value for any
    # coupling: the Bessel closed form against the eigenpairs of T.
    with mp.workdps(40):
        third = mp.mpf(1) / 3
        for order in (1, 0.8):
            for lam in (1e-3, 1):
                p = SimpleNamespace(omega_m=third, omega_f=third, omega_v=third,
                                    kappa_m=third, kappa_f=third, kappa_v=third,
                                    lambda_mf=lam, lambda_mv=lam, lambda_fv=lam,
                                    beta_m=order, beta_f=order, beta_v=order)
                for u in (1e-2, 1e2):
                    single = oracle.single_medium(order, u)
                    assert abs(oracle.wellbore(p, u) / single - 1) <= mp.mpf(10) ** -35


def test_single_medium_flux_boundary_condition():
    # -r dp/dr at r = 1 equals 1/u, the unit-rate well condition; mpmath
    # differentiates the oracle's pressure numerically in r.
    for alpha in (1.0, 0.7):
        for u in (0.1, 1.0, 10.0):
            with mp.workdps(30):
                slope = mp.diff(lambda r: oracle.single_medium(alpha, u, r), 1)
                assert abs(slope * u + 1) <= mp.mpf(10) ** -20


def test_single_medium_decays_with_radius():
    with mp.workdps(20):
        vals = [oracle.single_medium(1.0, 1.0, rd) for rd in (1.0, 3.0, 30.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-10 * vals[0]


# ------------------------------------------------------ dimensionless map

def _symmetric_physical(**overrides):
    return PhysicalParams(**dict(SYMMETRIC_KWARGS, **overrides))


def test_symmetric_media_map():
    tr = to_dimensionless(_symmetric_physical())
    assert [f.name for f in fields(tr)] == ["params", "t_scale", "p_scale"]
    p = tr.params
    third = 1.0 / 3.0
    assert p.omega_f == pytest.approx(third, rel=1e-14)
    assert p.omega_v == pytest.approx(third, rel=1e-14)
    assert p.kappa_f == pytest.approx(third, rel=1e-14)
    assert p.kappa_v == pytest.approx(third, rel=1e-14)
    assert p.lambda_mf == p.lambda_mv == p.lambda_fv == 0.0
    assert (p.beta_m, p.beta_f, p.beta_v) == (1.0, 1.0, 1.0)


def test_inadmissible_derived_groups_are_refused():
    for overrides, message in (
            # k_m is positive, but kappa_f + kappa_v rounds to 1, so kappa_m = 0.
            (dict(k_m=1e-300), r"kappa_f \+ kappa_v must be < 1"),
            # 1 - kappa_f - kappa_v gives 2.08e-17, where k_m / sum k = 1.2e-287.
            (dict(k_m=1e-300, k_f=8e-14, k_v=2e-15),
             r"kappa_m = 2\.08\d*e-17 by subtraction misses its direct ratio 1\.2\d*e-287"),
            (dict(phi_m=1e-300), r"omega_m = 0\.0 by subtraction misses"),
            # mu r_w^2 storage underflows to 0; q0 b0 mu is subnormal, so p_scale = inf.
            (dict(mu=1e-300, r_w=1e-10), r"t_scale = 3e-14 / 0\.0 must be finite and > 0"),
            (dict(q0=1e-320), r"p_scale = .* / 1e-323 must be finite and > 0"),
            (dict(r_w=1e200), r"r_w\*\*2 overflows for r_w = 1e\+200")):
        with pytest.raises(ValueError, match=message):
            to_dimensionless(_symmetric_physical(**overrides))


def test_ratios_sum_to_one():
    rng = np.random.RandomState(3)
    for _ in range(50):
        phys = _symmetric_physical(
            phi_m=float(10 ** rng.uniform(-2, 0)), phi_f=float(10 ** rng.uniform(-3, 0)),
            phi_v=float(10 ** rng.uniform(-3, 0)), c_m=float(10 ** rng.uniform(-10, -8)),
            c_f=float(10 ** rng.uniform(-10, -8)), c_v=float(10 ** rng.uniform(-10, -8)),
            k_m=float(10 ** rng.uniform(-16, -12)), k_f=float(10 ** rng.uniform(-16, -12)),
            k_v=float(10 ** rng.uniform(-16, -12)))
        p = to_dimensionless(phys).params
        st = phys.phi_m * phys.c_m + phys.phi_f * phys.c_f + phys.phi_v * phys.c_v
        assert p.omega_m == pytest.approx(phys.phi_m * phys.c_m / st, rel=1e-10)
        assert p.kappa_m == pytest.approx(phys.k_m / (phys.k_m + phys.k_f + phys.k_v), rel=1e-10)


def test_coupling_coefficient_formula():
    phys = _symmetric_physical(a_mf=1e-10, mu=1e-3, r_w=0.1,
                               k_m=0.4e-13, k_f=0.35e-13, k_v=0.25e-13)
    assert to_dimensionless(phys).params.lambda_mf == pytest.approx(1e-2, rel=1e-12)


def test_pressure_scale_example():
    phys = _symmetric_physical(h=10.0, k_m=0.4e-13, k_f=0.35e-13, k_v=0.25e-13,
                               q0=1e-3, b0=1.0, mu=1e-3, p_i=3e7)
    tr = to_dimensionless(phys)
    # p = p_i - p_D / p_scale: a unit dimensionless drawdown is 1.5915e5 Pa.
    assert 1.0 / tr.p_scale == pytest.approx(1.5915e5, rel=1e-4)


def test_from_dimensionless_zero_drawdown():
    # p = p_i - p_D / p_scale is p_i at p_D = 0 for a finite, positive scale.
    tr = to_dimensionless(_symmetric_physical())
    assert math.isfinite(tr.p_scale) and tr.p_scale > 0.0


def test_dimensionless_round_trip():
    phys = _symmetric_physical()
    tr = to_dimensionless(phys)
    rng = np.random.RandomState(11)
    for _ in range(20):
        p_d = float(10 ** rng.uniform(-3, 3))
        back = tr.p_scale * (phys.p_i - (phys.p_i - p_d / tr.p_scale))
        assert back == pytest.approx(p_d, rel=1e-12)


def test_physical_params_validation():
    with pytest.raises(ValueError, match="k_m"):
        _symmetric_physical(k_m=0.0)
    with pytest.raises(ValueError, match="a_mf"):
        _symmetric_physical(a_mf=-1.0)


# ------------------------------------------------------ assembly record

def test_assembly_unscaled_views(ref_params):
    asm = laplace_assembly(ref_params, 1.0)
    for i in range(3):
        f = math.exp(-asm.alpha[i])
        assert asm.D[i] == pytest.approx(asm.D_scaled[i] / f, rel=1e-13)


def test_assembly_extreme_u_stays_finite(ref_params):
    # alpha > 700 at u = 1e6, with fractional orders alpha_3 ~ 796.
    for p in (ref_params, ref_params.with_betas(0.9, 0.8, 0.7)):
        asm = laplace_assembly(p, 1e6)
        assert all(math.isfinite(v) for v in asm.D_scaled)
        assert max(oracle.boundary_residuals(asm)) <= 1e-14
        pv = asm.wellbore_pressures()[2]
        assert math.isfinite(pv) and pv > 0.0


def test_unscaled_weights_overflow_only_past_the_double_range(ref_params):
    # alpha_3 ~ 796 puts D_3 past the double range; D_1 and D_2 stay finite.
    asm = laplace_assembly(ref_params.with_betas(0.9, 0.8, 0.7), 1e6)
    d0, d1, d2 = asm.D
    assert math.isfinite(d0) and math.isfinite(d1) and d2 == math.inf


def test_collapsed_params_assemble_without_degeneracy_error():
    # Nearly decoupled but nonzero couplings must assemble cleanly.
    asm = laplace_assembly(COLLAPSED, 1.0)
    assert all(math.isfinite(a) for a in asm.A)


@pytest.mark.parametrize("values,u_first", DOMAIN_PROBE,
                         ids=[f"set{i}" for i in range(len(DOMAIN_PROBE))])
def test_domain_probe_curves_and_roots(values, u_first):
    p = TriplePorosityParams(*values)
    pts = pressure_curve(p, log_time_grid(1e-1, 1e5, 5), StehfestScheme.of_order(12))
    pw = [pt.p_w for pt in pts]
    assert all(math.isfinite(v) for v in pw)
    assert all(b >= a for a, b in zip(pw, pw[1:]))

    with mp.workdps(40):
        ref = [alpha for alpha, _ in oracle.modes(p, u_first)]
        alpha = laplace_assembly(p, u_first).alpha
        worst = max(abs(a - r) / r for a, r in zip(alpha, ref))
    assert worst <= 1e-7


# ------------------------------------------------------ regression pins

PIN_US = (1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e4, 1e6)
# betas: wellbore_pressure_laplace of the README set at each of PIN_US, as float.hex.
PINNED_PW_BAR = {
    (0.9, 0.8, 0.7): (
        "0x1.34c057d6bc937p+36", "0x1.4217333e345abp+29", "0x1.631f2268352c3p+22",
        "0x1.71383e2cb7882p+15", "0x1.da6434bb240f2p+11", "0x1.21d40a090566bp+8",
        "0x1.45721cf785396p+4", "0x1.3b2a8f42af1aep+0", "0x1.04d237d6ea73dp-4",
        "0x1.79f89664e8658p-9", "0x1.39e9f31879484p-18", "0x1.ccb391a673cfdp-28",
    ),
    (1.0, 1.0, 1.0): (
        "0x1.b135738cbf74cp+36", "0x1.bcb9cdf8e2a26p+29", "0x1.ae6ef399e1803p+22",
        "0x1.9b12c48419b9fp+15", "0x1.0a33e97f94991p+12", "0x1.4316057353b6fp+8",
        "0x1.63e12373b0217p+4", "0x1.3b2a8f42af1aep+0", "0x1.bb9e078f3b683p-5",
        "0x1.0703d6d4e1c77p-9", "0x1.25733ff4e071fp-19", "0x1.2f70dc4701d21p-29",
    ),
}
# (betas, u): A, B and D_scaled of laplace_assembly.
PINNED_ASSEMBLY = {
    ((0.9, 0.8, 0.7), 0.001): (
        "0x1.f54b29c2cc555p+8", "-0x1.42d99ae3aaab1p+11", "0x1.dfb2dd9434f76p-22",
        "0x1.3d94a5f2c4d15p+9", "0x1.388fbe46f3105p+9", "-0x1.61185793851b8p-15",
        "0x1.843134c8cbedcp+0", "-0x1.77eee58986063p-4", "0x1.46197072a5c56p+11",
    ),
    ((0.9, 0.8, 0.7), 1000000.0): (
        "0x1.c35a642a246d5p+4", "0x1.97570159414a1p+39", "-0x1.bfb09763cb867p-44",
        "0x1.2d7df919a4fc8p+30", "-0x1.7604efad64f05p+12", "-0x1.72fb5e0d5813ap-36",
        "0x1.f542bf9905126p-56", "0x1.301c3e2024becp-63", "0x1.442f55fbd2f03p-23",
    ),
    ((1.0, 1.0, 1.0), 0.001): (
        "0x1.1bf2a7cd98ea7p+6", "-0x1.fbe2e3bd4aec3p+7", "0x1.56820e0e74372p-15",
        "0x1.422308e78f2bfp+6", "0x1.1292e78eec17cp+6", "-0x1.66c7a04dd3749p-12",
        "0x1.86f2bb715c86dp+3", "-0x1.1d3930243a6a6p-1", "0x1.ec4de3e3cd484p+10",
    ),
    ((1.0, 1.0, 1.0), 1000000.0): (
        "0x1.cbd0e209ffce5p+8", "0x1.1d583667528a9p+46", "-0x1.3f8bbd8adc08bp-50",
        "0x1.29d3152a883b7p+36", "-0x1.0e33e69f1c8bap+17", "-0x1.778ce2cf5c6bfp-42",
        "0x1.4cae2fb530b50p-62", "0x1.93d7ab310618bp-71", "0x1.2cdaf7d5d50acp-23",
    ),
}
PINNED_CURVE = (
    "0x1.f3f579d32f814p-2", "0x1.12b3adb15fcd5p-1", "0x1.2d46b16812277p-1",
    "0x1.49be60e2b07bep-1", "0x1.6821fc8e24ab6p-1", "0x1.88752711c5183p-1",
    "0x1.aab7b7ac4a6b7p-1", "0x1.cee5a6c281b93p-1", "0x1.f4f717d7ce8b7p-1",
    "0x1.0e703f954b8cbp+0", "0x1.23497217d6445p+0", "0x1.38fe1d92f96fcp+0",
    "0x1.4f83e9dbb1c6ap+0", "0x1.66cf6ac242d19p+0", "0x1.7ed462bd1206ap+0",
    "0x1.978606aa1233ep+0", "0x1.b0d740094942dp+0", "0x1.cabaeaceccbeep+0",
    "0x1.e5240d3499d95p+0", "0x1.000303f361b6bp+1", "0x1.0daa5edca79c3p+1",
    "0x1.1b82597741b57p+1", "0x1.298591cd4fcc3p+1", "0x1.37af0962ffc9ap+1",
    "0x1.45fa28ef03a24p+1", "0x1.5462c16c03d8ap+1", "0x1.62e50a5480c2cp+1",
    "0x1.717d9e6f277c6p+1", "0x1.802976bea9049p+1", "0x1.8ee5e4f63b05ap+1",
    "0x1.9db08d2ac6d02p+1",
)
# The first parameter set of the benchmark's param_scan workload (seed 0).
PIN_SCAN_PARAMS = TriplePorosityParams(
    omega_f=0.013585080564931578, omega_v=0.001245812933676447,
    kappa_f=0.0003337563098149278, kappa_v=3.5768481382380376e-05,
    lambda_mf=1.365515569902938e-06, lambda_mv=7.231187945414989e-08,
    lambda_fv=0.002544386416720936, beta_m=0.5123189082552492,
    beta_f=0.6336178679066491, beta_v=0.7083674276185218)


def test_laplace_chain_bits_are_pinned(ref_kwargs):
    """Regression pin, not an accuracy test: the oracle tests judge accuracy.

    The Laplace chain's outputs must stay bit-identical to the recorded
    values: p_bar_w on the README set at u from 1e-10 to 1e6 (alpha > 700 at
    1e6), the A, B and D_scaled of two assemblies, and the p_w of one
    param_scan curve (1e-1..1e5 at 5 per decade, n = 12).  A change that
    alters the arithmetic on purpose re-records them and says so.
    """
    for betas, pinned in PINNED_PW_BAR.items():
        p = TriplePorosityParams(**ref_kwargs).with_betas(*betas)
        got = [wellbore_pressure_laplace(p, u) for u in PIN_US]
        assert got == [float.fromhex(h) for h in pinned], betas
    for (betas, u), pinned in PINNED_ASSEMBLY.items():
        asm = laplace_assembly(TriplePorosityParams(**ref_kwargs).with_betas(*betas), u)
        assert [*asm.A, *asm.B, *asm.D_scaled] == [float.fromhex(h) for h in pinned], (betas, u)
    assert max(laplace_assembly(TriplePorosityParams(**ref_kwargs), 1e6).alpha) > 700.0
    pts = pressure_curve(PIN_SCAN_PARAMS, log_time_grid(1e-1, 1e5, 5),
                         StehfestScheme.of_order(12))
    assert [pt.p_w for pt in pts] == [float.fromhex(h) for h in PINNED_CURVE]


@pytest.mark.parametrize("betas", [(1.0, 1.0, 1.0), (0.9, 0.8, 0.7), (0.77, 0.56, 0.6)])
def test_laplace_rows_equal_the_per_u_chain_bit_for_bit(ref_kwargs, betas, monkeypatch):
    # The benchmark's laplace_scan grid, 1e-10..1e6 at 62 per decade, which
    # reaches alpha > 700 and the alpha_roots residual bound's slow form.  No
    # row there is sent back to the per-u chain.
    p = TriplePorosityParams(**ref_kwargs).with_betas(*betas)
    us = log_time_grid(1e-10, 1e6, 62)
    expected = hex_rows(laplace_dump_rows(p, us))
    monkeypatch.setattr("triporo.model.laplace_assembly",
                        lambda p, u: pytest.fail(f"row u={u!r} went back to the per-u chain"))
    assert hex_rows(column_rows(batch.laplace_columns(p, us))) == expected


def test_laplace_rows_take_the_chains_bessel_kernels(ref_params, monkeypatch):
    # The batch looks the Bessel names up in specfun when it runs and calls
    # each once per root, so a wrapper there (the benchmark's tracer, say)
    # sees every call and changes no bit.
    p = ref_params.with_betas(0.9, 0.8, 0.7)
    us = log_time_grid(1e-10, 1e6, 62)
    expected = hex_rows(column_rows(batch.laplace_columns(p, us)))
    calls = dict.fromkeys(("bessel_k0_scaled", "bessel_k1_scaled"), 0)
    for name in calls:
        def counting(x, name=name, kernel=getattr(specfun, name)):
            calls[name] += 1
            return kernel(x)
        monkeypatch.setattr(specfun, name, counting)
    assert hex_rows(column_rows(batch.laplace_columns(p, us))) == expected
    assert calls == dict.fromkeys(calls, 3 * len(us))


def test_laplace_rows_sent_back_come_from_the_per_u_chain(ref_params, monkeypatch):
    # Every row sent back, its batch values spoiled, comes from the chain.
    p = ref_params.with_betas(0.9, 0.8, 0.7)
    us = log_time_grid(1e-10, 1e6, 2)
    laplace_table = batch._laplace_table

    def spoiled(p, us):
        columns, _ = laplace_table(p, us)
        return ([[math.nan] * len(c) if isinstance(c, list) else c for c in columns],
                list(range(len(us))))

    monkeypatch.setattr(batch, "_laplace_table", spoiled)
    assert hex_rows(column_rows(batch.laplace_columns(p, us))) == hex_rows(laplace_dump_rows(p, us))


# Cardano's seed is off the batch's main path: finding 8's two-equal-media
# set near u = 4e5, and the second draw of the benchmark's param_scan workload
# at seed 1, whose cubic's discriminant changes sign by rounding near u = 6e-6.
SEED1_DRAW1 = TriplePorosityParams(
    omega_f=0.010695011282004863, omega_v=1.560288166929056e-07,
    kappa_f=0.037469724054544115, kappa_v=1.0295236322606903e-06,
    lambda_mf=2.2112931910660557e-07, lambda_mv=0.0004554916165685127,
    lambda_fv=5.560920101555585e-10, beta_m=0.9616894868877455,
    beta_f=0.9309992203280384, beta_v=0.32141298812348745)
CARDANO_ROWS = {
    "two equal media": (
        TriplePorosityParams(omega_f=0.1, omega_v=0.1, kappa_f=0.3, kappa_v=0.3,
                             lambda_mf=1e-3, lambda_mv=1e-3, lambda_fv=1e-3),
        [1e-2, 1.0, 1e3, 416092.781273734, 448189.04344833194, 501034.71371148777],
        [416092.781273734, 448189.04344833194, 501034.71371148777]),
    "param_scan seed 1 draw 1": (
        SEED1_DRAW1,
        [1e-6, 4.8e-6, 5.0105853996750844e-06, 5.6e-06, 5.623413251903491e-06, 6.9e-06,
         7.079457843841373e-06, 1e-05, 1.0],
        [4.8e-6, 5.0105853996750844e-06, 5.623413251903491e-06, 7.079457843841373e-06]),
}


@pytest.mark.parametrize("p, us, sent_back", CARDANO_ROWS.values(), ids=CARDANO_ROWS)
def test_laplace_rows_off_the_main_path_go_back_to_the_per_u_chain(p, us, sent_back,
                                                                    monkeypatch):
    expected = hex_rows(laplace_dump_rows(p, us))
    sent = []

    def counting(p, u):
        sent.append(u)
        return laplace_assembly(p, u)

    monkeypatch.setattr("triporo.model.laplace_assembly", counting)
    assert hex_rows(column_rows(batch.laplace_columns(p, us))) == expected
    assert sent == sent_back


# Each refusal of the Laplace chain that an admissible input reaches, and its message's start.
CUBIC = "characteristic equation cannot be solved: "
REFUSALS = {
    "cubic-2pm-underflows": (dict(
        omega_f=5.424396922406457e-07, omega_v=0.0012902557757679958,
        kappa_f=7.353521854243767e-110, kappa_v=1.3319874792231334e-59, lambda_mf=0.0,
        lambda_mv=0.0, lambda_fv=0.0, beta_m=0.5270416213626772, beta_f=1.0,
        beta_v=0.8848375860528052), 5.066771200579466e-277, CUBIC + "float division by zero"),
    "det-terms-inf": (dict(
        omega_f=2.807369247383324e-09, omega_v=4.3156592554865416e-05, kappa_f=8.21670284605342e-28,
        kappa_v=2.352435256169442e-62, lambda_mf=3.688777503498572e-24, lambda_mv=0.0,
        lambda_fv=3.850236278264769e-205, beta_m=0.6693645484831208, beta_f=0.5620748538618672,
        beta_v=0.508609736583612), 2.8671908457743297e-28, "arithmetic failed: -inf + inf in fsum"),
    "modal-sums-inf": (dict(
        omega_f=0.0, omega_v=0.0, kappa_f=9.22540303806144e-39, kappa_v=6.9380627878849645e-46,
        lambda_mf=6.369217942903918e-59, lambda_mv=2.0949221967210737e-295,
        lambda_fv=8.432992746012543e-51, beta_m=0.9268153027878444, beta_f=0.9264954051760612,
        beta_v=0.43213307777775584), 5e-324, "modal sums failed: -inf + inf in fsum"),
    "u-det-underflows": (dict(
        omega_f=4.4212785368294e-10, omega_v=5.274118953973973e-10, kappa_f=2.2933691229304738e-10,
        kappa_v=2.8345254410225023e-10, lambda_mf=3.081745491211984e-05,
        lambda_mv=0.06363558700580584, lambda_fv=0.012168199665464285, beta_m=0.6356313983830767,
        beta_f=0.7570846299887063, beta_v=0.8597506213947621), 5e-324,
        "arithmetic failed: float division by zero"),
    "equal-diffusivities-2pm-underflows": (dict(
        omega_f=0.3, omega_v=0.3, kappa_f=0.3, kappa_v=0.3, lambda_mf=1e-111, lambda_mv=3e-111,
        lambda_fv=2e-111), 1e-105, CUBIC + "float division by zero"),
    "c3-degenerate": (dict(REF_KWARGS, kappa_f=1e-151, kappa_v=1e-151), 1.0,
                      CUBIC + "degenerate leading coefficient"),
    "triple-equality": (dict(
        omega_f=0.25, omega_v=0.5, kappa_f=0.25, kappa_v=0.5, lambda_mf=1e-116, lambda_mv=3e-116,
        lambda_fv=2e-116), 1e-107, "wellbore pressure triple equality violated"),
    "decoupled-medium": (dict(REF_KWARGS, lambda_mf=0.0, lambda_mv=0.0, lambda_fv=0.0), 1.0,
                         "null direction (0.0, 0.1390006044444444, 0.0)"),
    "rank-below-2": (dict(REF_KWARGS, lambda_mf=0.0, lambda_fv=0.0), 1e-20,
                     "modal matrix has rank < 2"),
    "cubic-overflows": (REF_KWARGS, 1e51, CUBIC + "(34,"),
    "no-matrix-storage": (dict(
        omega_f=0.5, omega_v=0.5, kappa_f=0.3, kappa_v=0.3, lambda_mf=1.0, lambda_mv=1.0,
        lambda_fv=1.0), 1e27, "characteristic equation has nearly repeated roots"),
    "cubic-non-finite": (REF_KWARGS, 1e200, CUBIC + "cubic coefficients must be finite"),
}


@pytest.mark.parametrize("kwargs, u, message", REFUSALS.values(), ids=list(REFUSALS))
def test_each_refusal_is_one_model_error_at_every_layer(tmp_path, capsys, kwargs, u, message):
    p = TriplePorosityParams(**kwargs)
    with pytest.raises(ModelError) as chain:
        wellbore_pressure_laplace(p, u)
    text = str(chain.value)
    assert text.startswith(message) and text.count(f"(u={u!r}, params=") == 1
    with pytest.raises(ModelError) as got:
        batch.laplace_columns(p, [u])
    assert str(got.value) == text
    assert run_laplace(tmp_path, p, {"u_values": u}) == (2, "")
    assert capsys.readouterr().err == f"model error: {text}\n"
    if message == "wellbore pressure triple equality violated":
        field_pressure_laplace(p, u, 1.0)  # the field pressures make no such check
    else:
        with pytest.raises(ModelError) as field:
            field_pressure_laplace(p, u, 1.0)
        assert str(field.value) == text


@pytest.mark.parametrize("u", [-1.0, 0.0, math.nan, math.inf])
def test_laplace_columns_refuse_a_bad_u_as_the_chain_does(ref_params, u):
    # Fractional orders: a negative u to the power 0.9 is complex.
    p = ref_params.with_betas(0.9, 0.8, 0.7)
    with pytest.raises(ValueError) as expected:
        laplace_assembly(p, u)
    with pytest.raises(ValueError) as got:
        batch.laplace_columns(p, [1.0, u])
    assert str(got.value) == str(expected.value)
