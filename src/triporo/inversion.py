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
refused outright.  ``invert`` sums the rounded terms with ``math.fsum``;
what it cannot remove is the rounding of each F(u_k), amplified by the
weights, and the method error of the order.

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


@functools.cache
def stehfest_weights_exact(n: int) -> tuple[Fraction, ...]:
    """The n weights as exact rationals.

    Derived and checked once per order; a tuple, so the cache is immutable.
    A refused order raises and is not cached.
    """
    n = _check_order(n)
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


def invert(transform, t: float, scheme: StehfestScheme) -> float:
    """Invert ``transform`` (a callable u -> F(u)) at time t > 0.

    Evaluator exceptions and non-finite F(u) raise TransformEvaluationError
    with the offending u attached (the original exception is chained).  So
    does a weighted sum that overflows: it names the u of the first
    non-finite weighted term, or else of the largest one.  An ImportError
    propagates as it is: scipy is imported at the first evaluation, and a
    missing scipy is a broken installation, not a value of F.
    """
    t = _check_time(t)
    ratio = _LN2 / t
    terms = []
    for k, w in enumerate(scheme.weights, start=1):
        u = k * ratio
        try:
            f = transform(u)
            if not math.isfinite(f):
                raise ValueError(f"transform value {f!r} is not finite")
        except ImportError:
            raise
        except Exception as exc:
            raise TransformEvaluationError(u, t, exc) from exc
        terms.append(w * f)
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
