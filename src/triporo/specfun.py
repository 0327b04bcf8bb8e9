"""Modified Bessel functions of the second kind, orders 0 and 1.

Positive real arguments only.  The scaled variants return e^x * K_nu(x)
and stay finite for arbitrarily large x; ratios of Bessel functions at
large argument must be formed from them, since the unscaled values
underflow to zero near x ~ 740.
"""

import math

from scipy.special import k0 as _k0, k0e as _k0e, k1 as _k1, k1e as _k1e


def _check_arg(x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise ValueError(f"Bessel argument must be a positive finite real, got {x!r}")
    return x


def bessel_k0(x: float) -> float:
    """K_0(x) for x > 0; underflows gracefully to 0 for large x."""
    return float(_k0(_check_arg(x)))


def bessel_k1(x: float) -> float:
    """K_1(x) for x > 0; underflows gracefully to 0 for large x."""
    return float(_k1(_check_arg(x)))


def bessel_k0_scaled(x: float) -> float:
    """e^x * K_0(x), finite for all representable x > 0."""
    # Inline domain test on the hot path; anything else gets the full check.
    if type(x) is not float or not 0.0 < x < math.inf:
        x = _check_arg(x)
    return float(_k0e(x))


def bessel_k1_scaled(x: float) -> float:
    """e^x * K_1(x), finite for all representable x > 0."""
    if type(x) is not float or not 0.0 < x < math.inf:
        x = _check_arg(x)
    return float(_k1e(x))

