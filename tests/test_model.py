import math
import re
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest

import oracle

from triporo.curves import log_time_grid, pressure_curve
from triporo.inversion import StehfestScheme
from triporo.model import (ConsistencyError, MTerms, NullSpaceError,
                           PhysicalParams, SingularBoundaryError,
                           TriplePorosityParams, _modal_from_x, _unscale_weight,
                           boundary_vectors, characteristic_coefficients,
                           field_pressure_laplace, from_dimensionless,
                           laplace_assembly, m_terms,
                           single_medium_pressure_laplace, solve_boundary,
                           to_dimensionless, wellbore_pressure_laplace)
from triporo.roots import RootClassificationError, solve_cubic_real
from triporo.specfun import bessel_k0_scaled, bessel_k1_scaled

from conftest import COLLAPSED, REF_KWARGS, SYMMETRIC_KWARGS

# The README set with every coupling exactly zero.
UNCOUPLED = TriplePorosityParams(**dict(REF_KWARGS, lambda_mf=0.0, lambda_mv=0.0, lambda_fv=0.0))

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
    m = m_terms(ref_params, 1.0)
    assert m.m1 == pytest.approx(0.18100001, rel=1e-12)
    assert m.m2 == 1e-3
    assert m.m3 == 1e-8
    assert m.m4 == pytest.approx(0.02101, rel=1e-12)
    assert m.m5 == 1e-5
    assert m.m6 == pytest.approx(0.80001001, rel=1e-12)


def test_m_terms_zero_coupling_collapse():
    p = UNCOUPLED
    assert m_terms(p, 1.0) == (p.omega_m, 0.0, 0.0, p.omega_f, 0.0, p.omega_v)


def test_m_terms_u_scaling(ref_params):
    p = ref_params.with_betas(0.5, 1.0, 1.0)
    d = m_terms(p, 4.0).m1 - m_terms(p, 1.0).m1
    assert d == pytest.approx(p.omega_m, rel=1e-12)  # 4^0.5 - 1^0.5 = 1


def test_m_terms_rejects_bad_u(ref_params):
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            m_terms(ref_params, bad)


# ------------------------------------------------- characteristic cubic

def test_characteristic_leading_coefficient(ref_params):
    c = characteristic_coefficients(m_terms(ref_params, 1.0), ref_params.kappa_m,
                                    ref_params.kappa_f, ref_params.kappa_v)
    assert c.c3 == pytest.approx(0.23 * 0.75 * 0.02, rel=1e-12)


def test_characteristic_zero_coupling_factors():
    p = UNCOUPLED
    m = m_terms(p, 1.0)
    c = characteristic_coefficients(m, p.kappa_m, p.kappa_f, p.kappa_v)
    expected = sorted((m.m1 / p.kappa_m, m.m4 / p.kappa_f, m.m6 / p.kappa_v))
    assert solve_cubic_real(c) == pytest.approx(expected, rel=1e-10)


def test_determinant_vanishes_at_roots(ref_params):
    asm = laplace_assembly(ref_params, 1.0)
    m = asm.mterms
    km, kf, kv = ref_params.kappa_m, ref_params.kappa_f, ref_params.kappa_v
    for a in asm.alpha:
        x = a * a
        M = np.array([[km * x - m.m1, m.m2, m.m3],
                      [m.m2, kf * x - m.m4, m.m5],
                      [m.m3, m.m5, kv * x - m.m6]])
        rownorms = np.linalg.norm(M, axis=1)
        assert abs(np.linalg.det(M)) <= 1e-8 * np.prod(rownorms)


# ------------------------------------------------------ modal vectors

def test_modal_null_space_residual_componentwise(ref_params):
    # At u = 1 the per-row componentwise residual is already tiny; at
    # extreme u only the normwise residual is meaningful (acceptance
    # criterion 3 checks that one over u in [1e-6, 1e6]).
    m = m_terms(ref_params, 1.0)
    asm = laplace_assembly(ref_params, 1.0)
    km, kf, kv = ref_params.kappa_m, ref_params.kappa_f, ref_params.kappa_v
    for i, a in enumerate(asm.alpha):
        x = a * a
        M = np.array([[km * x - m.m1, m.m2, m.m3],
                      [m.m2, kf * x - m.m4, m.m5],
                      [m.m3, m.m5, kv * x - m.m6]])
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
        assert [*asm.alpha, *asm.A, *asm.B] == pytest.approx(expected, rel=1e-12), u


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
    with pytest.raises(NullSpaceError, match=r"decoupled medium.*\(u=1\.0, params="):
        laplace_assembly(UNCOUPLED, 1.0)


def test_modal_rank_deficient_matrix_raises():
    # kappa = 1, x = 1: M(x) = diag(0, 0, -1) has rank 1, so every 2x2 minor
    # of the adjugate vanishes and no null direction is singled out.
    with pytest.raises(NullSpaceError, match="rank < 2"):
        _modal_from_x(1.0, MTerms(1, 0, 0, 1, 0, 2), 1.0, 1.0, 1.0)


@pytest.mark.parametrize("m, expected", [
    # Columns 2 and 1 tie (max |entry| 9) above column 0 (8); column 2 = (0, 3, 9).
    (MTerms(4, 0, 0, 4, 1, 4), (0.0 / 9.0, 3.0 / 9.0)),
    # Columns 1 and 0 tie (8) above column 2 (5); column 1 = (7, 8, 5).
    (MTerms(4, 2, 1, 4, 1, 4), (7.0 / 5.0, 8.0 / 5.0)),
    # All three columns tie (9); column 2 = (9, 9, 9).
    (MTerms(4, 0, 3, 4, 3, 4), (1.0, 1.0)),
], ids=["cols-2-1", "cols-1-0", "all"])
def test_modal_column_ties_prefer_column_2_then_1(m, expected):
    # At a non-root x the adjugate columns are not parallel, so the column
    # chosen shows in (A, B): ties go to column 2, then column 1.
    assert _modal_from_x(1.0, m, 1.0, 1.0, 1.0) == expected


# ------------------------------------------------------ boundary system

def test_boundary_vectors_definitions(ref_params):
    alpha = (0.5, 1.0, 2.0)
    A = (1.0, 2.0, 3.0)
    B = (1.0, 0.5, -1.0)
    km, kf, kv = ref_params.kappa_m, ref_params.kappa_f, ref_params.kappa_v
    P, Q, R = boundary_vectors(alpha, A, B, km, kf, kv)
    E = [km * A[i] + kf * B[i] + kv for i in range(3)]
    assert Q[0] == 0.0  # A_1 = 1 exactly
    for i in range(3):
        assert P[i] == pytest.approx(alpha[i] * bessel_k1_scaled(alpha[i]) * E[i],
                                     rel=1e-14)
        assert Q[i] == pytest.approx((A[i] - 1.0) * bessel_k0_scaled(alpha[i]), rel=1e-14)
        assert R[i] == pytest.approx((B[i] - 1.0) * bessel_k0_scaled(alpha[i]), rel=1e-14)


def test_boundary_vectors_scaled_consistency(ref_params):
    alpha = (0.5, 1.0, 2.0)
    A = (1.1, 2.0, 3.0)
    B = (0.9, 0.5, -1.0)
    km, kf, kv = ref_params.kappa_m, ref_params.kappa_f, ref_params.kappa_v
    # Removing the implicit e^{-alpha_i} recovers the unscaled definitions.
    Ps, Qs, Rs = boundary_vectors(alpha, A, B, km, kf, kv)
    E = [km * A[i] + kf * B[i] + kv for i in range(3)]
    for i in range(3):
        f = math.exp(-alpha[i])
        k0, k1 = float(mp.besselk(0, alpha[i])), float(mp.besselk(1, alpha[i]))
        assert Ps[i] * f == pytest.approx(alpha[i] * k1 * E[i], rel=1e-13)
        assert Qs[i] * f == pytest.approx((A[i] - 1.0) * k0, rel=1e-13)
        assert Rs[i] * f == pytest.approx((B[i] - 1.0) * k0, rel=1e-13)


def test_solve_boundary_identity_rows():
    D = solve_boundary((1, 0, 0), (0, 1, 0), (0, 0, 1), 1.0)
    assert D == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_solve_boundary_permuted_rows():
    D = solve_boundary((0, 1, 0), (1, 0, 0), (0, 0, 1), 2.0)
    assert D == pytest.approx([0.0, 0.5, 0.0], abs=1e-15)


def test_solve_boundary_singular():
    with pytest.raises(SingularBoundaryError, match="singular"):
        solve_boundary((1, 0, 0), (1, 0, 0), (0, 0, 1), 1.0)


def test_singular_boundary_from_assembly_names_u_once(ref_params, monkeypatch):
    # laplace_assembly adds the context; solve_boundary does not repeat it.
    monkeypatch.setattr("triporo.model.boundary_vectors",
                        lambda *args: ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
    with pytest.raises(SingularBoundaryError) as info:
        laplace_assembly(ref_params, 1.0)
    assert str(info.value).count("u=") == 1
    assert "(u=1.0, params=TriplePorosityParams(" in str(info.value)


def test_solve_boundary_refuses_nan_entry():
    with pytest.raises(SingularBoundaryError, match="nan"):
        solve_boundary((1, 0, 0), (0, math.nan, 0), (0, 0, 1), 1.0)


def _boundary_rows(asm):
    """The scaled boundary rows (P, Q, R) that the assembly's weights solve."""
    p = asm.params
    return boundary_vectors(asm.alpha, asm.A, asm.B, p.kappa_m, p.kappa_f, p.kappa_v)


def test_boundary_residuals_on_reference_set(ref_params):
    asm = laplace_assembly(ref_params, 1.0)
    P, Q, R = _boundary_rows(asm)
    D = asm.D_scaled
    assert math.fsum(p * d for p, d in zip(P, D)) == pytest.approx(1.0, rel=1e-10)
    qd = math.fsum(q * d for q, d in zip(Q, D))
    rd = math.fsum(r * d for r, d in zip(R, D))
    scale_q = np.linalg.norm(Q) * np.linalg.norm(D)
    scale_r = np.linalg.norm(R) * np.linalg.norm(D)
    assert abs(qd) <= 1e-10 * scale_q
    assert abs(rd) <= 1e-10 * scale_r
    # unscaled rows at moderate alpha satisfy the same system
    P_unscaled = [p * math.exp(-a) for p, a in zip(P, asm.alpha)]
    assert math.fsum(p * d for p, d in zip(P_unscaled, asm.D)) == pytest.approx(1.0, rel=1e-9)


def test_boundary_condition_number_reasonable(ref_params):
    M = np.array(_boundary_rows(laplace_assembly(ref_params, 1.0)))
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
        with pytest.raises(ConsistencyError) as info:
            bad.wellbore_pressures()
        assert str(info.value).endswith(f" (u=1.0, params={ref_params!r})")


def test_wellbore_pressure_decreasing_in_u(ref_params):
    vals = [wellbore_pressure_laplace(ref_params, float(u))
            for u in np.logspace(-2, 8, 41)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 0.0


def test_collapsed_limit_matches_single_medium():
    for alpha in (1.0, 0.8, 0.6):
        p = COLLAPSED.with_betas(alpha, alpha, alpha)
        for u in np.logspace(-3, 3, 13):
            triple = wellbore_pressure_laplace(p, float(u))
            single = single_medium_pressure_laplace(alpha, float(u))
            assert triple == pytest.approx(single, rel=1e-4)


@pytest.mark.parametrize("betas", [(0.9, 0.8, 0.7), (0.77, 0.56, 0.6), (1.0, 1.0, 1.0)])
def test_fractional_orders_against_closed_form(ref_params, betas):
    # Classic orders lose accuracy below u = 1e-6 (5e-13 at 1e-8, a known
    # defect of the chain), so their range starts there.
    p = ref_params.with_betas(*betas)
    for k in range(-6 if betas == (1.0, 1.0, 1.0) else -10, 7):
        u = 10.0 ** k
        with mp.workdps(40):
            expected = oracle.wellbore(p, u)
        assert wellbore_pressure_laplace(p, u) == pytest.approx(float(expected), rel=1e-12)


def test_oracle_agrees_with_itself_across_precisions(ref_params):
    # p_w and alpha at 40 digits against 60; alpha_3 > 700 at u = 1e6.
    p = ref_params.with_betas(0.9, 0.8, 0.7)
    for u in (1e-6, 1.0, 1e6):
        values = []
        for dps in (40, 60):
            with mp.workdps(dps):
                values.append([oracle.wellbore(p, u), *(a for a, _ in oracle.modes(p, u))])
        with mp.workdps(60):
            assert all(abs(a - b) <= 1e-30 * b for a, b in zip(*values)), u


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
    for evaluate in (m_terms, laplace_assembly, wellbore_pressure_laplace):
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
    context = re.escape(f"(u={u!r}, params={p!r})")
    with pytest.raises(RootClassificationError, match=context) as info:
        wellbore_pressure_laplace(p, u)
    # The error from alpha_roots is chained, and the arithmetic cause behind it.
    assert isinstance(info.value.__cause__, RootClassificationError)
    assert isinstance(info.value.__cause__.__cause__, cause)


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
    with pytest.raises(RootClassificationError) as info:
        laplace_assembly(p, u)
    assert message in str(info.value)
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
    vals = [field_pressure_laplace(ref_params, 1.0, rd) for rd in (1.0, 2.0, 10.0, 100.0)]
    for j in range(3):
        comp = [v[j] for v in vals]
        assert all(b < a for a, b in zip(comp, comp[1:]))
    assert vals[-1][2] < 1e-3 * vals[0][2]


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


# --------------------------------------------------- single-medium model

def test_single_medium_at_unit_radius():
    assert single_medium_pressure_laplace(1.0, 1.0, 1.0) == pytest.approx(
        float(mp.besselk(0, 1) / mp.besselk(1, 1)), rel=1e-13)


def test_single_medium_flux_boundary_condition():
    # r dp/dr at r_D = 1 equals -1/u: the derivative of K0(r z) is
    # -z K1(r z), so the residual is algebraically zero.
    for alpha in (1.0, 0.7):
        for u in (0.1, 1.0, 10.0):
            z = math.sqrt(u ** alpha)
            amp = single_medium_pressure_laplace(alpha, u, 1.0) / float(mp.besselk(0, z))
            flux = -amp * z * float(mp.besselk(1, z))
            assert flux == pytest.approx(-1.0 / u, rel=1e-12)


def test_single_medium_decays_with_radius():
    vals = [single_medium_pressure_laplace(1.0, 1.0, rd) for rd in (1.0, 3.0, 30.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-10 * vals[0]


def test_single_medium_domain_errors():
    with pytest.raises(ValueError):
        single_medium_pressure_laplace(1.5, 1.0)
    with pytest.raises(ValueError):
        single_medium_pressure_laplace(1.0, -1.0)
    with pytest.raises(ValueError):
        single_medium_pressure_laplace(1.0, 1.0, 0.0)


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
    p_j = from_dimensionless(1.0, tr, phys)
    assert p_j == pytest.approx(3e7 - 1.5915e5, rel=1e-4)


def test_from_dimensionless_zero_drawdown():
    phys = _symmetric_physical()
    tr = to_dimensionless(phys)
    assert from_dimensionless(0.0, tr, phys) == phys.p_i


def test_dimensionless_round_trip():
    phys = _symmetric_physical()
    tr = to_dimensionless(phys)
    rng = np.random.RandomState(11)
    for _ in range(20):
        p_d = float(10 ** rng.uniform(-3, 3))
        back = tr.p_scale * (phys.p_i - from_dimensionless(p_d, tr, phys))
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
    asm = laplace_assembly(ref_params, 1e6)
    assert all(math.isfinite(v) for v in asm.D_scaled)
    assert all(math.isfinite(v) for v in _boundary_rows(asm)[0])
    pm, pf, pv = asm.wellbore_pressures()
    assert math.isfinite(pv) and pv > 0.0


def test_unscaled_weights_overflow_only_past_the_double_range(ref_params):
    # e^709.5 = 1.35e308 fits in a double; e^710 does not.
    assert _unscale_weight(1.0, 709.5) == math.exp(709.5)
    assert _unscale_weight(-1.0, 709.0) == -math.exp(709.0)
    assert _unscale_weight(1.0, 710.0) == math.inf
    assert _unscale_weight(0.0, 800.0) == 0.0
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
