"""Exponentially scaled modified Bessel functions of the second kind.

K0e(x) = e^x K0(x) and K1e(x) = e^x K1(x) for real x > 0.  They stay
finite for arbitrarily large x, where the unscaled K0 and K1 underflow to
zero near x ~ 740, so the model works in scaled form throughout: its
boundary rows and wellbore sums carry the factor e^{-x} implicitly.

The kernels are ``scipy.special.cython_special``'s ``k0e`` and ``k1e``,
called without the ufunc dispatch and returning a Python float.  No other
module imports scipy, and this one does so at the first evaluation, not
with the package: importing ``cython_special`` takes most of a second,
mostly for parts of scipy and numpy the model never uses, which a command
that evaluates nothing should not pay.  So each name starts as a stand-in
that, on its first call, imports its kernel and puts it in its own place.
From then on the name is the kernel itself, with no Python frame in
between, because nine calls per Laplace evaluation make one costly.  A
stand-in whose name was rebound meanwhile (a caller's wrapper, say) leaves
the name alone and passes its calls on to the kernel.  Callers look the
names up here at call time (``specfun.bessel_k0_scaled``), so none keeps a
stand-in; the per-u chain and ``batch.laplace_columns`` call the same names,
so they get the same Bessel values by construction.

The callers need no domain check: ``alpha_roots`` refuses non-positive
roots, a refined root is accepted only if positive and finite, and the
field pressures pass alpha * r_d, which overflows to inf past the double
range, where K0e(inf) = 0 is the right value.  Outside (0, inf] the kernels
return inf or nan, not an error, so the batch passes them unguarded the
roots of the rows it sends back to the chain.
"""

__all__ = ["bessel_k0_scaled", "bessel_k1_scaled"]


def _bound_on_first_call(name: str, kernel_name: str):
    """Stand-in for ``name`` that binds scipy's kernel there when first called."""
    kernel = None

    def stand_in(x: float) -> float:
        nonlocal kernel
        if kernel is None:
            from scipy.special import cython_special
            kernel = getattr(cython_special, kernel_name)
        if globals()[name] is stand_in:
            globals()[name] = kernel
        return kernel(x)

    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in


bessel_k0_scaled = _bound_on_first_call("bessel_k0_scaled", "k0e")
bessel_k1_scaled = _bound_on_first_call("bessel_k1_scaled", "k1e")

