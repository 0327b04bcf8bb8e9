"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 1 checks the Gaver-Stehfest layer on two paths, at tolerances
that are never relaxed:

- The exact sum (``oracle.stehfest_exact``: the package's exact rational
  weights ``stehfest_weights_exact(n)``, nodes and sum at 50 digits)
  carries the legs that test what the method promises.  ``1/u`` is
  inverted exactly by every order, but in doubles the weights (up to
  8.0e6 at n = 12, 3.6e9 at n = 16) turn the rounding of F(u_k) into
  2.2e-10 and 9.7e-8; summed exactly, all four orders give 0.  ``1/u^2``
  and ``1/(u+1)`` run at n = 20, where the method error of the scheme
  itself is 6.9e-10 and 7.1e-5; at n = 12 it is 9.6e-7 and 2.2e-2, which
  no arithmetic can bring under 1e-8 and 5e-4.
- ``invert`` (double weights, double sum) is pinned at n = 12, the order
  the curves use, on those two pairs: it must agree with the exact
  arithmetic order-12 value, summed over the textbook weights at 50
  digits (``oracle.stehfest_weights_50``), within its own cancellation
  bound 4 eps (ln 2 / t) sum |V_k F(u_k)|.  The ``1/u^1.5`` leg runs on
  ``invert`` at n = 14.

The README's numerical notes give the same figures.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from triporo.cli import main
from triporo.curves import log_time_grid, pressure_curve
from triporo.inversion import StehfestScheme, invert, stehfest_weights_exact
from triporo.model import TriplePorosityParams, laplace_assembly, wellbore_pressure_laplace
from triporo.specfun import bessel_k0_scaled, bessel_k1_scaled

from conftest import COLLAPSED, PHYSICAL_KWARGS, REF_KWARGS, ini, read_curve_csv
from oracle import boundary_residuals, single_medium, stehfest_exact, stehfest_weights_50
from test_specfun import k0_scaled_oracle, k1_scaled_oracle

REF = TriplePorosityParams(**REF_KWARGS)
BETA_TRIPLES = [(1.0, 1.0, 1.0), (0.9, 0.8, 0.7), (0.77, 0.56, 0.6)]


def _report(num: int, title: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{status}] {title}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def test_criterion_1_stehfest_exactness_and_analytic_pairs():
    legs = []

    # The order-n sum of 1/u is 1 to 1e-10 abs for n in {4, 8, 12, 16};
    # exact for the scheme, so summed exactly where the weights cost nothing.
    for n in (4, 8, 12, 16):
        weights = stehfest_weights_exact(n)
        worst = max(abs(stehfest_exact(lambda u: 1.0 / u, t, weights)[0] - 1.0)
                    for t in (0.1, 1.0, 3.7, 10.0, 100.0))
        legs.append((f"1/u exact n={n} (tol 1e-10 abs)", worst <= 1e-10, worst))

    ramp = (lambda u: 1.0 / u**2, lambda t: t,
            [float(t) for t in np.logspace(-1, 2, 31)])
    decay = (lambda u: 1.0 / (u + 1.0), lambda t: math.exp(-t),
             [float(t) for t in np.linspace(0.1, 5.0, 50)])

    # The order-20 sum of 1/u^2 is t to 1e-8 rel on t in [0.1, 100], and
    # that of 1/(u+1) is e^-t to 5e-4 rel on t in [0.1, 5].
    w20 = stehfest_weights_exact(20)
    for name, (F, f, ts), tol, label in (("1/u^2", ramp, 1e-8, "1e-8"),
                                         ("1/(u+1)", decay, 5e-4, "5e-4")):
        worst = max(abs(stehfest_exact(F, t, w20)[0] / f(t) - 1.0) for t in ts)
        legs.append((f"{name} exact n=20 (tol {label} rel)", worst <= tol, worst))

    # The double path at n = 12 against the exact order-12 value on the
    # same t-sets, within its cancellation bound 4 eps (ln 2 / t) sum |V_k F_k|.
    s12 = StehfestScheme.of_order(12)
    w12 = stehfest_weights_50(12)
    for name, (F, f, ts) in (("1/u^2", ramp), ("1/(u+1)", decay)):
        within, worst = True, 0.0
        for t in ts:
            exact, spread = stehfest_exact(F, t, w12)
            dev = abs(invert(F, t, s12) - exact)
            within = within and dev <= 4.0 * sys.float_info.epsilon * spread
            worst = max(worst, dev / abs(f(t)))
        legs.append((f"{name} invert n=12 vs exact n=12 (tol 4 eps cancellation)",
                     within, worst))

    # invert(1/u^1.5)(t) = sqrt(t)/Gamma(1.5) to 1e-3 rel, n = 14
    s14 = StehfestScheme.of_order(14)
    worst = max(abs(invert(lambda u: u**-1.5, float(t), s14)
                    / (math.sqrt(float(t)) / math.gamma(1.5)) - 1.0)
                for t in np.logspace(-1, 1, 30))
    legs.append(("1/u^1.5 invert n=14 (tol 1e-3 rel)", worst <= 1e-3, worst))

    detail = "; ".join(f"{name}: {'ok' if ok else 'FAIL'} worst={worst:.3e}"
                       for name, ok, worst in legs)
    ok = _report(1, "Stehfest exactness and analytic pairs", all(l[1] for l in legs), detail)
    assert ok, ("criterion 1: a leg missed its tolerance (1/u and the n = 20 "
                "pairs summed exactly; the n = 12 pairs on invert against the "
                f"exact order-12 value; 1/u^1.5 on invert): {detail}")


def test_criterion_2_bessel_oracle_agreement():
    # The model evaluates K0 and K1 only in scaled form, at alpha from ~4e-5
    # to ~3e3 on the benchmark's parameter sets; [1e-6, 1e4] covers that.
    worst = 0.0
    for x in np.logspace(-6, 4, 100):
        x = float(x)
        worst = max(worst, abs(bessel_k0_scaled(x) / k0_scaled_oracle(x) - 1.0),
                    abs(bessel_k1_scaled(x) / k1_scaled_oracle(x) - 1.0))
    worst_d = 0.0
    for x in np.logspace(math.log10(0.01), math.log10(50.0), 50):
        x = float(x)
        h = 1e-5 * x
        fd = (bessel_k0_scaled(x + h) - bessel_k0_scaled(x - h)) / (2.0 * h)
        exact = bessel_k0_scaled(x) - bessel_k1_scaled(x)  # d/dx K0e, as K0' = -K1
        worst_d = max(worst_d, abs(fd / exact - 1.0))
    ok = _report(2, "Bessel quadrature-oracle agreement",
                 worst <= 1e-12 and worst_d <= 1e-6,
                 f"oracle worst={worst:.3e} (tol 1e-12), "
                 f"derivative worst={worst_d:.3e} (tol 1e-6)")
    assert ok


def test_criterion_3_laplace_structural_residuals():
    # At 30 digits: each root x by its error |det M(x) / (x det M'(x))|, which
    # bounds det M by 6x that error times the cubic's largest term at x, and
    # the weights by the wellbore conditions of tests/oracle.py.
    worst_char = worst_ns = worst_bnd = worst_tri = 0.0
    for beta in BETA_TRIPLES:
        p = REF.with_betas(*beta)
        km, kf, kv = p.kappa_m, p.kappa_f, p.kappa_v
        for u in np.logspace(-6, 6, 40):
            asm = laplace_assembly(p, float(u))
            m1, m2, m3, m4, m5, m6 = asm.mterms
            worst_bnd = max(worst_bnd, *boundary_residuals(asm))
            with mp.workdps(30):
                for x in (mp.mpf(a) ** 2 for a in asm.alpha):
                    d0, d1, d2 = km * x - m1, kf * x - m4, kv * x - m6
                    a00, a11, a22 = d1 * d2 - m5 * m5, d0 * d2 - m3 * m3, d0 * d1 - m2 * m2
                    det = d0 * a00 + m2 * (m3 * m5 - m2 * d2) + m3 * (m2 * m5 - m3 * d1)
                    worst_char = max(worst_char, float(abs(det / (x * (km * a00 + kf * a11
                                                                         + kv * a22)))))
            for i, a in enumerate(asm.alpha):
                x = a * a
                M = np.array([[km * x - m1, m2, m3],
                              [m2, kf * x - m4, m5],
                              [m3, m5, kv * x - m6]])
                vec = np.array([asm.A[i], asm.B[i], 1.0])
                resid = M @ vec
                scale = max(np.linalg.norm(M, axis=1)) * np.linalg.norm(vec)
                worst_ns = max(worst_ns, float(np.max(np.abs(resid))) / scale)
            pm, pf, pv = asm.wellbore_pressures()
            worst_tri = max(worst_tri, abs(pm - pv) / abs(pv), abs(pf - pv) / abs(pv))
    ok = _report(3, "Laplace-space structural residuals",
                 worst_char <= 1e-9 and worst_ns <= 1e-8
                 and worst_bnd <= 1e-9 and worst_tri <= 1e-9,
                 f"root error={worst_char:.2e} (1e-9), null-space={worst_ns:.2e} (1e-8), "
                 f"boundary={worst_bnd:.2e} (1e-9), triple-eq={worst_tri:.2e} (1e-9)")
    assert ok


def test_criterion_4_classic_radial_flow_plateau():
    scheme = StehfestScheme.of_order(12)
    grid = log_time_grid(1e6, 1e8, 10)
    points = pressure_curve(REF, grid, scheme)
    devs = [abs(p.dp_w_dlnt - 0.5) for p in points]
    mean_dev = sum(devs) / len(devs)
    ok = _report(4, "classic-case radial-flow plateau",
                 mean_dev <= 0.03,
                 f"mean |dp/dln t - 0.5| = {mean_dev:.4f} (tol 0.03)")
    assert ok


def test_criterion_5_single_medium_collapse():
    # The single-medium values come from the oracle's mpmath Bessel
    # functions, independent of the scipy kernels the library calls.
    scheme = StehfestScheme.of_order(12)
    worst_lap = worst_time = 0.0
    for alpha in (1.0, 0.8, 0.6):
        p = COLLAPSED.with_betas(alpha, alpha, alpha)

        def single(u):
            with mp.workdps(20):
                return float(single_medium(alpha, u))

        for u in np.logspace(-6, 1, 25):
            worst_lap = max(worst_lap, abs(
                wellbore_pressure_laplace(p, float(u)) / single(float(u)) - 1.0))
        for t in np.logspace(0, 6, 13):
            a = invert(lambda u: wellbore_pressure_laplace(p, u), float(t), scheme)
            b = invert(single, float(t), scheme)
            worst_time = max(worst_time, abs(a / b - 1.0))
    ok = _report(5, "single-medium collapse",
                 worst_lap <= 1e-4 and worst_time <= 1e-3,
                 f"laplace worst={worst_lap:.2e} (1e-4), "
                 f"time worst={worst_time:.2e} (1e-3)")
    assert ok


def test_criterion_6_classic_line_source_late_time():
    scheme = StehfestScheme.of_order(12)
    worst = 0.0
    for t in np.logspace(2, 8, 25):
        got = invert(lambda u: wellbore_pressure_laplace(COLLAPSED, u),
                     float(t), scheme)
        expected = 0.5 * (math.log(float(t)) + 0.80907)
        worst = max(worst, abs(got / expected - 1.0))
    ok = _report(6, "classic line-source late-time expansion",
                 worst <= 0.01, f"worst rel={worst:.2e} (tol 1e-2)")
    assert ok


def test_criterion_7_qualitative_sweep_reproduction(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(ini("model", REF_KWARGS) + """
[grid]
t_min = 1e-2
t_max = 1e8
points_per_decade = 10

[sweep]
triples =
    0.9 0.8 0.7
    0.77 0.56 0.6
    0.8 0.8 0.8
""")
    base = tmp_path / "run.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(base), "--quiet"])
    files = sorted(tmp_path.glob("run_*.csv"))
    curves = {f.name: read_curve_csv(f) for f in files}
    classic_name = "run_bm1.0_bf1.0_bv1.0.csv"

    right_size = all(len(pts) == 101 for pts in curves.values())
    all_finite = all(
        math.isfinite(pt.p_w) and (pt.dp_w_dlnt is None or math.isfinite(pt.dp_w_dlnt))
        for pts in curves.values() for pt in pts)
    monotone = all(
        all(b.p_w > a.p_w for a, b in zip(tail, tail[1:]))
        for pts in curves.values()
        for tail in [[pt for pt in pts if pt.t_D >= 1.0]])

    classic = curves.get(classic_name, [])
    classic_by_t = {pt.t_D: pt.p_w for pt in classic}
    divergences = {}
    for name, pts in curves.items():
        if name == classic_name:
            continue
        divergences[name] = max(
            abs(pt.p_w - classic_by_t[pt.t_D]) / abs(classic_by_t[pt.t_D])
            for pt in pts if 1e2 <= pt.t_D <= 1e8)
    separated = all(d > 0.05 for d in divergences.values())

    ok = _report(7, "qualitative sweep reproduction",
                 code == 0 and len(files) == 4 and classic_name in curves
                 and right_size and all_finite and monotone and separated,
                 f"files={len(files)}, finite={all_finite}, monotone={monotone}, "
                 "divergence=" + ", ".join(f"{k.split('run_')[1]}:{v:.2f}"
                                           for k, v in sorted(divergences.items())))
    assert ok


def test_criterion_8_determinism(tmp_path, capsys):
    cfg = tmp_path / "det.ini"
    cfg.write_text(ini("model", REF_KWARGS) + """
[grid]
t_min = 1.0
t_max = 1e4
points_per_decade = 5

[sweep]
triples =
    0.9 0.8 0.7

[laplace]
u_values = 0.01 1.0 100.0
""")
    checks = []

    for i in (1, 2):
        assert main(["curve", "--config", str(cfg),
                     "--out", str(tmp_path / f"c{i}.csv"), "--quiet"]) == 0
    checks.append((tmp_path / "c1.csv").read_bytes()
                  == (tmp_path / "c2.csv").read_bytes())

    for i in (1, 2):
        assert main(["laplace", "--config", str(cfg),
                     "--out", str(tmp_path / f"l{i}.csv"), "--quiet"]) == 0
    checks.append((tmp_path / "l1.csv").read_bytes()
                  == (tmp_path / "l2.csv").read_bytes())

    sweep_bytes = []
    for i in (1, 2):
        sub = tmp_path / f"s{i}"
        sub.mkdir()
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(sub / "s.csv"), "--quiet"]) == 0
        sweep_bytes.append({f.name: f.read_bytes() for f in sorted(sub.glob("*.csv"))})
    checks.append(sweep_bytes[0] == sweep_bytes[1])

    phys = tmp_path / "phys.ini"
    phys.write_text(ini("physical", PHYSICAL_KWARGS))
    outs = []
    for _ in (1, 2):
        assert main(["dimensionless", "--config", str(phys)]) == 0
        outs.append(capsys.readouterr().out)
    checks.append(outs[0] == outs[1])

    ok = _report(8, "byte-identical reruns",
                 all(checks),
                 f"curve={checks[0]}, laplace={checks[1]}, sweep={checks[2]}, "
                 f"dimensionless={checks[3]}")
    assert ok
