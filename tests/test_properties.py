"""Property tests of the Laplace assembly over the admissible parameter domain.

omega and lambda are drawn from {0} and log-uniformly from [1e-12, 1]; kappa
log-uniformly from [1e-12, 1] (the model refuses kappa = 0); beta from
(0, 1]; and u log-uniformly from [1e-12, 1e300], or from [1e-300, 1e300]
where the laplace batch is checked against the per-u chain, since most of
its send-backs act at the extremes.  Every evaluation either gives a finite,
non-negative p_bar_w or a named model error that carries u.
The first test also draws fracture and vugs tied: omega_v/kappa_v =
omega_f/kappa_f with kappa_v = 2^k kappa_f (|k| <= 12), and beta_v = beta_f.
A last test checks that the test configuration reports a failing property
as a failure.
"""

import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from triporo import (ModelError, StehfestScheme, TriplePorosityParams,
                     laplace_assembly, log_time_grid, pressure_curve)
from triporo.batch import laplace_columns

from conftest import (LATE_TIME_DEFECT, REF_KWARGS, column_rows, hex_rows, laplace_dump_rows,
                      laplace_dump_text, run_laplace)

log_unit = st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)
zero_or_log_unit = st.one_of(st.just(0.0), log_unit)
beta = st.floats(0.0, 1.0, exclude_min=True)
log_u = st.floats(-12.0, 300.0).map(lambda e: 10.0 ** e)
media = st.fixed_dictionaries(dict(
    omega_f=zero_or_log_unit, omega_v=zero_or_log_unit, kappa_f=log_unit, kappa_v=log_unit,
    lambda_mf=zero_or_log_unit, lambda_mv=zero_or_log_unit, lambda_fv=zero_or_log_unit,
    beta_m=beta, beta_f=beta, beta_v=beta))
# Fracture and vugs of equal omega/kappa and beta share a mode that only
# lambda splits (ROADMAP finding 8); a power of two apart, the tie is exact.
tied_media = st.builds(lambda kw, k: dict(kw, omega_v=kw["omega_f"] * 2.0 ** k,
                                          kappa_v=kw["kappa_f"] * 2.0 ** k, beta_v=kw["beta_f"]),
                       media, st.integers(-12, 12))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(kwargs=st.one_of(media, tied_media), u=log_u)
# All couplings zero: the null direction of a decoupled medium cannot be
# normalized.
@example(kwargs=dict(REF_KWARGS, lambda_mf=0.0, lambda_mv=0.0, lambda_fv=0.0,
                     beta_m=1.0, beta_f=1.0, beta_v=1.0), u=1.0)
def test_wellbore_pressure_is_finite_or_a_named_error_with_u(kwargs, u):
    assume(kwargs["omega_f"] + kwargs["omega_v"] <= 1.0)
    assume(kwargs["kappa_f"] + kwargs["kappa_v"] < 1.0)
    p = TriplePorosityParams(**kwargs)
    try:
        pw = laplace_assembly(p, u).wellbore_pressures()[2]
    except ModelError as exc:
        assert f"u={u!r}" in str(exc)
    else:
        # p_bar_w underflows to 0.0 beyond u ~ 1e280.
        assert math.isfinite(pw) and pw >= 0.0


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(omega_f=zero_or_log_unit, omega_v=zero_or_log_unit,
       kappa_f=log_unit, kappa_v=log_unit,
       lambda_mf=zero_or_log_unit, lambda_mv=zero_or_log_unit,
       lambda_fv=zero_or_log_unit,
       beta_m=beta, beta_f=beta, beta_v=beta,
       us=st.lists(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), min_size=1, max_size=6))
@example(**dict(REF_KWARGS, lambda_mf=0.0, lambda_mv=0.0, lambda_fv=0.0),
         beta_m=1.0, beta_f=1.0, beta_v=1.0, us=[0.1, 1.0])
def test_laplace_rows_equal_the_per_u_rows_or_raise_their_error(tmp_path_factory, us, **kwargs):
    assume(kwargs["omega_f"] + kwargs["omega_v"] <= 1.0)
    assume(kwargs["kappa_f"] + kwargs["kappa_v"] < 1.0)
    p = TriplePorosityParams(**kwargs)
    try:
        expected = laplace_dump_rows(p, us)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            laplace_columns(p, us)
        assert str(got.value) == str(exc)
    else:
        assert hex_rows(column_rows(laplace_columns(p, us))) == hex_rows(expected)
        rc, text = run_laplace(tmp_path_factory.getbasetemp(), p,
                               {"u_values": " ".join(map(repr, us))})
        assert (rc, text) == (0, laplace_dump_text(expected))


# Late times (ROADMAP item 10).  Both pinned examples fail today, so the
# strict xfail is reached without a search.
@LATE_TIME_DEFECT
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(omega_f=zero_or_log_unit, omega_v=zero_or_log_unit,
       kappa_f=log_unit, kappa_v=log_unit,
       lambda_mf=zero_or_log_unit, lambda_mv=zero_or_log_unit,
       lambda_fv=zero_or_log_unit,
       beta_m=beta, beta_f=beta, beta_v=beta)
# Dips from t = 1e23 and reads -32.8 at t = 1e25.
@example(**REF_KWARGS, beta_m=0.77, beta_f=0.56, beta_v=0.6)
# TransformEvaluationError at t = 1e29.
@example(**REF_KWARGS, beta_m=0.9, beta_f=0.8, beta_v=0.7)
def test_late_time_curve_is_finite_and_non_decreasing(**kwargs):
    assume(kwargs["omega_f"] + kwargs["omega_v"] <= 1.0)
    assume(kwargs["kappa_f"] + kwargs["kappa_v"] < 1.0)
    pw = [pt.p_w for pt in pressure_curve(TriplePorosityParams(**kwargs),
                                          log_time_grid(1e-1, 1e30, 1), StehfestScheme(12))]
    assert all(math.isfinite(v) for v in pw)
    assert all(b >= a for a, b in zip(pw, pw[1:]))


TWO_TESTS = """\
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_property_is_a_failure_and_the_session_goes_on(tmp_path):
    # Reporting a failing example imports libcst where it is installed, and
    # libcst 1.0 warns on import; pyproject.toml must keep that warning from
    # becoming an INTERNALERROR that ends the session.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(config), "--rootdir", str(tmp_path), "test_two.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
