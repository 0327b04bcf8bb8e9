"""Exponentially scaled modified Bessel functions of the second kind.

K0e(x) = e^x K0(x) and K1e(x) = e^x K1(x) for real x > 0.  They stay
finite for arbitrarily large x, where the unscaled K0 and K1 underflow to
zero near x ~ 740, so the model works in scaled form throughout: its
boundary rows and wellbore sums carry the factor e^{-x} implicitly.

Both names are ``scipy.special.cython_special``'s kernels themselves: the
same kernel as the ``k0e``/``k1e`` ufuncs, called without the ufunc
dispatch and returning a Python float.  No Python frame sits in between,
because nine calls per Laplace evaluation make one costly and the chain
needs no domain check: ``alpha_roots`` refuses non-positive roots, a
refined root is accepted only if positive and finite, and the field and
single-medium pressures pass alpha * r_d or r_d * z, which overflow to inf
past the double range, where K0e(inf) = 0 is the right value.  Outside
(0, inf] the kernels return inf or nan, not an error.  This is the one
module that imports scipy.
"""

from scipy.special.cython_special import k0e as bessel_k0_scaled
from scipy.special.cython_special import k1e as bessel_k1_scaled

__all__ = ["bessel_k0_scaled", "bessel_k1_scaled"]
