"""Exponentially scaled modified Bessel functions of the second kind.

K0e(x) = e^x K0(x) and K1e(x) = e^x K1(x), for positive real x only.  They
stay finite for arbitrarily large x, where the unscaled K0 and K1
underflow to zero near x ~ 740, so the model works in scaled form
throughout: its boundary rows and wellbore sums carry the factor e^{-x}
implicitly.

Both bind ``scipy.special.cython_special``: the same scipy kernel as the
``k0e``/``k1e`` ufuncs, called without the ufunc dispatch, and returning a
Python float rather than a numpy scalar.  Nine calls per Laplace
evaluation make that the cheaper entry point.
"""

import math

from scipy.special.cython_special import k0e as _k0e, k1e as _k1e


def _check_arg(x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise ValueError(f"Bessel argument must be a positive finite real, got {x!r}")
    return x


def bessel_k0_scaled(x: float) -> float:
    """e^x * K_0(x), finite for all representable x > 0."""
    # Inline domain test on the hot path; anything else gets the full check.
    if type(x) is not float or not 0.0 < x < math.inf:
        x = _check_arg(x)
    return _k0e(x)


def bessel_k1_scaled(x: float) -> float:
    """e^x * K_1(x), finite for all representable x > 0."""
    if type(x) is not float or not 0.0 < x < math.inf:
        x = _check_arg(x)
    return _k1e(x)
