"""Gaver-Stehfest numerical inversion of Laplace transforms.

The method approximates the original f(t) of a transform F(u) sampled on
the real axis only:

    f(t) ~ (ln 2 / t) * sum_{k=1}^{n} V_k F(k ln 2 / t),   n even,

with weights

    V_k = (-1)^{n/2 + k} * sum_{j=floor((k+1)/2)}^{min(k, n/2)}
          j^{n/2} (2j)! / [ (n/2 - j)! j! (j-1)! (k-j)! (2j-k)! ].

The weights are integers divided by integers; they are derived here once
per order in exact rational arithmetic, the exact identities sum V_k = 0 and
sum V_k / k = 1 are verified symbolically, and each is rounded once to a
float.  The weights alternate in sign and grow roughly like 10^(n/2),
so double-precision results degrade beyond n ~ 16 and orders above 20 are
refused outright.  ``invert`` works in doubles; ``invert_mp`` keeps the
exact weights and sums in mpmath, which removes the cancellation error for
transforms that compute in the argument's own arithmetic but not the
method error of the order.

The method suits smooth originals that decay (or grow slowly) without
oscillation, which is the regime of the pressure-transient curves computed
by this package.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

MIN_ORDER = 2
MAX_ORDER = 20

_LN2 = math.log(2.0)


class TransformEvaluationError(RuntimeError):
    """The transform evaluator failed; carries the offending u."""

    def __init__(self, u: float, t: float, cause: BaseException):
        super().__init__(f"transform evaluation failed at u={u!r} (t={t!r}): {cause}")
        self.u = u
        self.t = t


def _check_order(n: int) -> int:
    if (not math.isfinite(n) or n != int(n) or n % 2 != 0
            or not MIN_ORDER <= n <= MAX_ORDER):
        raise ValueError(
            f"Stehfest order must be an even integer in [{MIN_ORDER}, {MAX_ORDER}], "
            f"got {n!r}")
    return int(n)


def stehfest_weights_exact(n: int) -> tuple[Fraction, ...]:
    """The n weights as exact rationals."""
    return _exact_weights(_check_order(n))


@functools.cache
def _exact_weights(n: int) -> tuple[Fraction, ...]:
    """Derived and checked once per order; a tuple, so the cache is immutable."""
    half = n // 2
    weights = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            acc += Fraction(
                j**half * math.factorial(2 * j),
                math.factorial(half - j) * math.factorial(j)
                * math.factorial(j - 1) * math.factorial(k - j)
                * math.factorial(2 * j - k))
        weights.append((-1) ** (half + k) * acc)
    # Exact identities; failure means the formula above is mistyped.
    if sum(weights) != 0:
        raise AssertionError(f"Stehfest weights for n={n} do not sum to 0")
    if sum(w / k for k, w in enumerate(weights, start=1)) != 1:
        raise AssertionError(f"Stehfest weights for n={n} fail sum V_k/k = 1")
    return tuple(weights)


def stehfest_weights(n: int) -> tuple[float, ...]:
    """The n weights, correctly rounded to floats."""
    return tuple(float(w) for w in stehfest_weights_exact(n))


@dataclass(frozen=True)
class StehfestScheme:
    """An inversion scheme of even order n; its float weights follow from n."""

    n: int
    weights: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        n = _check_order(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", stehfest_weights(n))

    @classmethod
    def of_order(cls, n: int) -> "StehfestScheme":
        return cls(n)


def _check_time(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"time must be a positive finite real, got {t!r}")
    return t


def _samples(transform, t: float, ratio, n: int):
    """Yield F(k * ratio), k = 1..n; a raising or non-finite F carries its u."""
    for k in range(1, n + 1):
        u = k * ratio
        try:
            f = transform(u)
            if not math.isfinite(f):
                raise ValueError(f"transform value {f!r} is not finite")
        except Exception as exc:
            raise TransformEvaluationError(float(u), t, exc) from exc
        yield f


def invert(transform, t: float, scheme: StehfestScheme) -> float:
    """Invert ``transform`` (a callable u -> F(u)) at time t > 0.

    Evaluator exceptions and non-finite F(u) raise TransformEvaluationError
    with the offending u attached (the original exception is chained).  So
    does a weighted sum that overflows: it names the u of the first
    non-finite weighted term, or else of the largest one.
    """
    t = _check_time(t)
    ratio = _LN2 / t
    terms = [w * f for w, f in zip(scheme.weights, _samples(transform, t, ratio, scheme.n))]
    # fsum: the weights alternate in sign with large magnitude; the exact
    # summation preserves what accuracy the rounded terms still carry.
    try:
        value = ratio * math.fsum(terms)
        if math.isfinite(value):
            return value
        raise OverflowError(f"weighted sum {value!r} is not finite")
    except (OverflowError, ValueError) as exc:  # fsum: "-inf + inf", "intermediate overflow"
        k = next((k for k, x in enumerate(terms) if not math.isfinite(x)),
                 max(range(len(terms)), key=lambda k: abs(terms[k])))
        raise TransformEvaluationError((k + 1) * ratio, t, exc) from exc


def invert_mp(transform, t: float, scheme: StehfestScheme) -> float:
    """Invert ``transform`` at time t > 0 with exact weights in mpmath.

    The exact rational weights of order ``scheme.n`` and the nodes
    u_k = k ln 2 / t are evaluated in mpmath, u is passed to ``transform``
    as an ``mpf``, and the weighted sum is carried at
    17 + ceil(log10 sum |V_k|) significant digits (19 at n = 4, 30 at
    n = 20), so the cancellation among the large alternating weights costs
    none of double's digits.  The result is rounded once to a float.

    The extra digits reach only transforms that compute in the argument's
    own arithmetic (``1 / u``, ``1 / (u + 1)``, ...).  A transform that
    converts u to a float returns double-rounded values, and the result
    then carries the same cancellation error as ``invert``.  What remains
    is the method error of the order, which no precision removes.

    The order, time and evaluator checks are those of ``invert``; the u
    that a TransformEvaluationError carries is a float.
    """
    weights = stehfest_weights_exact(scheme.n)
    t = _check_time(t)
    import mpmath  # deferred: keeps mpmath out of ``import triporo``
    dps = 17 + math.ceil(math.log10(sum(abs(w) for w in weights)))
    with mpmath.workdps(dps):
        ratio = mpmath.log(2) / t
        acc = mpmath.mpf(0)
        for w, f in zip(weights, _samples(transform, t, ratio, scheme.n)):
            acc += mpmath.mpf(w.numerator) / w.denominator * f
        return float(ratio * acc)
