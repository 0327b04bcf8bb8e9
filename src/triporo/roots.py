"""Cubic characteristic-equation solver with guaranteed root classification.

The degree-six equation in alpha has only even powers, so it is solved as a
cubic in x = alpha^2.  Closed forms (trigonometric for three real roots,
Cardano otherwise) seed the dominant root; the remaining pair comes from
synthetic deflation, and every real root is polished by safeguarded Newton
steps on the original coefficients.  Deflation uses the Vieta forms q0 = -c0/x1
and, when x1 dominates, q1 = (q0 - c1)/x1, so the small roots stay accurate.
"""

import math
from typing import NamedTuple

#: Imaginary parts at or below COMPLEX_TOL * (1 + |Re|) are rounding noise.
COMPLEX_TOL = 1e-9

#: Real roots closer than this relative gap are merged arithmetically.
DEDUP_TOL = 1e-9

#: Relative residual bound guaranteed for returned roots.
RESIDUAL_TOL = 1e-10


class RootClassificationError(Exception):
    """A characteristic root is complex or non-positive beyond tolerance.

    Signals a parameter set outside the regime where the model's three
    positive real roots exist.
    """


class CubicCoefficients(NamedTuple):
    """Coefficients of c3*x^3 + c2*x^2 + c1*x + c0 with x = alpha^2."""

    c3: float
    c2: float
    c1: float
    c0: float

    def __call__(self, x: float) -> float:
        return ((self.c3 * x + self.c2) * x + self.c1) * x + self.c0

    def scale_at(self, x: float) -> float:
        """Natural magnitude of the polynomial's terms at x."""
        return max(abs(self.c3 * x**3), abs(self.c2 * x**2),
                   abs(self.c1 * x), abs(self.c0))


class AlphaRoots(NamedTuple):
    """The three positive roots alpha_i (ascending) with residuals."""

    alpha: tuple[float, float, float]
    residuals: tuple[float, float, float]


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish(c: CubicCoefficients, x: float) -> float:
    """Safeguarded Newton on the original cubic; never worsens |f|."""
    c3, c2, c1, _ = c
    f = c(x)
    for _ in range(12):
        fp = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if fp == 0.0:
            break
        xn = x - f / fp
        if not math.isfinite(xn):
            break
        fn = c(xn)
        if abs(fn) < abs(f):
            x, f = xn, fn
        else:
            break
    return x


def solve_cubic_real(c: CubicCoefficients) -> tuple[list[float], list[complex]]:
    """All three roots, split into classified-real (sorted) and complex.

    Roots with imaginary magnitude <= COMPLEX_TOL * (1 + |Re|) are
    classified real and their imaginary part discarded.  Near-equal real
    roots (relative gap < DEDUP_TOL) are deduplicated arithmetically.
    """
    c3, c2, c1, c0 = c
    if not (math.isfinite(c3) and math.isfinite(c2) and math.isfinite(c1)
            and math.isfinite(c0)):
        raise ValueError("cubic coefficients must be finite")
    if abs(c3) <= 1e-300:
        raise ValueError(f"degenerate leading coefficient c3={c3!r}")

    b = c2 / c3
    p = c1 / c3 - b * b / 3.0
    q = c0 / c3 - b * (c1 / c3) / 3.0 + 2.0 * b**3 / 27.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    shift = -b / 3.0

    # Seed one root from the closed form: for three real roots the largest
    # trigonometric root is the best conditioned; otherwise the single
    # Cardano real root (with the stable v = -p/(3u) pairing).
    if disc <= 0.0:
        m = math.sqrt(max(-p / 3.0, 0.0))
        if m == 0.0:
            x1 = shift
        else:
            arg = min(1.0, max(-1.0, 3.0 * q / (2.0 * p * m)))
            theta = math.acos(arg) / 3.0
            # The largest |root| of the three; on a tie the lower k wins.
            x1 = 2.0 * m * math.cos(theta) + shift
            for k in (1, 2):
                xk = 2.0 * m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift
                if abs(xk) > abs(x1):
                    x1 = xk
    else:
        w = math.sqrt(disc)
        s = -q / 2.0
        u = _cbrt(s + w) if s >= 0.0 else _cbrt(s - w)
        v = 0.0 if u == 0.0 else -p / (3.0 * u)
        x1 = u + v + shift
    x1 = _polish(c, x1)

    # Deflate to c3*x^2 + q1*x + q0.  The Vieta forms q0 = -c0/x1 and, when x1
    # dominates (x1^2 >= |x2 x3|), q1 = (q0 - c1)/x1 avoid catastrophic cancellation.
    if x1 == 0.0:
        q1, q0 = c2, c1
    else:
        q0 = -c0 / x1
        q1 = (q0 - c1) / x1 if x1 * x1 * abs(c3) >= abs(q0) else c2 + c3 * x1
    disc2 = q1 * q1 - 4.0 * c3 * q0

    real = [x1]
    cplx: list[complex] = []
    if disc2 >= 0.0:
        sq = math.sqrt(disc2)
        qq = -0.5 * (q1 + math.copysign(sq, q1)) if q1 != 0.0 else -0.5 * sq
        r1, r2 = (qq / c3, q0 / qq) if qq != 0.0 else (0.0, 0.0)
        real += [_polish(c, r1), _polish(c, r2)]
    else:
        re = -q1 / (2.0 * c3)
        im = math.sqrt(-disc2) / (2.0 * abs(c3))
        if im <= COMPLEX_TOL * (1.0 + abs(re)):
            real += [_polish(c, re)] * 2
        else:
            cplx = [complex(re, im), complex(re, -im)]

    real.sort()
    for i in range(len(real) - 1):
        if real[i + 1] - real[i] <= DEDUP_TOL * max(abs(real[i]), abs(real[i + 1])):
            mid = 0.5 * (real[i] + real[i + 1])
            real[i] = real[i + 1] = mid
    return real, cplx


def alpha_roots(c: CubicCoefficients, u: float | None = None) -> AlphaRoots:
    """The three alpha_i = sqrt(x_i) for strictly positive real roots x_i.

    Raises RootClassificationError when any root is complex beyond
    tolerance or has non-positive real part, and when the cubic cannot be
    solved in doubles (a non-finite coefficient or an overflow, as at very
    large u; the cause is chained); the offending root and the Laplace
    variable u (when supplied) are reported.
    """
    where = "" if u is None else f" at u={u!r}"
    try:
        real, cplx = solve_cubic_real(c)
    except (ValueError, OverflowError) as exc:
        raise RootClassificationError(
            f"characteristic equation cannot be solved{where}: {exc}") from exc
    if cplx:
        raise RootClassificationError(
            f"characteristic equation has complex roots {cplx}{where}")
    x0, x1, x2 = real
    if x0 <= 0.0 or x1 <= 0.0 or x2 <= 0.0:
        raise RootClassificationError(
            f"characteristic equation has non-positive roots "
            f"{[x for x in real if x <= 0.0]}{where}")
    residuals = []
    for x in real:
        res = c(x)
        scale = c.scale_at(x)
        if abs(res) > RESIDUAL_TOL * scale:
            raise RootClassificationError(
                f"root x={x!r} fails residual bound: |{res!r}| > "
                f"{RESIDUAL_TOL} * {scale!r}{where}")
        residuals.append(res)
    return AlphaRoots((math.sqrt(x0), math.sqrt(x1), math.sqrt(x2)), tuple(residuals))
