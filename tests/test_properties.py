"""Property tests of the Laplace assembly over the admissible parameter domain.

omega and lambda are drawn from {0} and log-uniformly from [1e-12, 1]; kappa
log-uniformly from [1e-12, 1] (the model refuses kappa = 0); beta from
(0, 1]; and u log-uniformly from [1e-12, 1e300].  Every evaluation either
gives a finite, non-negative p_bar_w or a named model error that carries u.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from triporo import (ConsistencyError, NullSpaceError, RootClassificationError,
                     SingularBoundaryError, TriplePorosityParams,
                     laplace_assembly)

MODEL_ERRORS = (RootClassificationError, NullSpaceError, SingularBoundaryError,
                ConsistencyError)

log_unit = st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)
zero_or_log_unit = st.one_of(st.just(0.0), log_unit)
beta = st.floats(0.0, 1.0, exclude_min=True)
log_u = st.floats(-12.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(omega_f=zero_or_log_unit, omega_v=zero_or_log_unit,
       kappa_f=log_unit, kappa_v=log_unit,
       lambda_mf=zero_or_log_unit, lambda_mv=zero_or_log_unit,
       lambda_fv=zero_or_log_unit,
       beta_m=beta, beta_f=beta, beta_v=beta, u=log_u)
# All couplings zero: the null direction of a decoupled medium cannot be
# normalized, and the NullSpaceError used to name neither u nor the params.
@example(omega_f=0.02, omega_v=0.8, kappa_f=0.75, kappa_v=0.02, lambda_mf=0.0,
         lambda_mv=0.0, lambda_fv=0.0, beta_m=1.0, beta_f=1.0, beta_v=1.0, u=1.0)
def test_wellbore_pressure_is_finite_or_a_named_error_with_u(u, **kwargs):
    assume(kwargs["omega_f"] + kwargs["omega_v"] <= 1.0)
    assume(kwargs["kappa_f"] + kwargs["kappa_v"] < 1.0)
    p = TriplePorosityParams(**kwargs)
    try:
        pw = laplace_assembly(p, u).wellbore_pressures()[2]
    except MODEL_ERRORS as exc:
        assert f"u={u!r}" in str(exc)
    else:
        # p_bar_w underflows to 0.0 beyond u ~ 1e280.
        assert math.isfinite(pw) and pw >= 0.0
