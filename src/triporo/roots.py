"""Cubic characteristic-equation solver with guaranteed root classification.

The degree-six equation in alpha has only even powers, so it is solved as a
cubic in x = alpha^2.  Closed forms (trigonometric for three real roots,
Cardano otherwise) seed the dominant root; the remaining pair comes from
synthetic deflation, and every real root is polished by safeguarded Newton
steps on the original coefficients.  Deflation uses the Vieta forms q0 = -c0/x1
and, when x1 dominates, q1 = (q0 - c1)/x1, so the small roots stay accurate.

A cubic c3*x^3 + c2*x^2 + c1*x + c0 is passed as the plain tuple
(c3, c2, c1, c0), leading coefficient first.
"""

import math

#: Roots closer than this relative gap are refused as nearly repeated.
REPEAT_TOL = 1e-9

#: Relative residual bound guaranteed for returned roots.
RESIDUAL_TOL = 1e-10


class RootClassificationError(Exception):
    """The characteristic roots are not three distinct positive reals.

    Signals a parameter set outside the regime where the model's modal
    basis exists.
    """


def _polish(c: tuple[float, float, float, float], x: float) -> float:
    """Safeguarded Newton on the original cubic: never worsens |f| or takes a non-finite step."""
    c3, c2, c1, c0 = c
    d2, d1 = 3.0 * c3, 2.0 * c2  # f'(x) = (d2 x + d1) x + c1
    f = ((c3 * x + c2) * x + c1) * x + c0
    for _ in range(12):
        fp = (d2 * x + d1) * x + c1
        if fp == 0.0:
            break
        xn = x - f / fp
        fn = ((c3 * xn + c2) * xn + c1) * xn + c0
        if abs(fn) < abs(f):
            x, f = xn, fn
        else:
            break
    return x


def solve_cubic_real(c: tuple[float, float, float, float]) -> tuple[float, float, float]:
    """The three real roots of the cubic, ascending.

    Raises ValueError when the coefficients are not finite, the leading one
    is degenerate, or the deflated quadratic has a complex pair.  Whether
    the roots suit the model is for alpha_roots to judge.
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
    # Cardano real root (with the stable v = -p/(3u) pairing; disc > 0 keeps
    # u away from zero).
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
        z = s + w if s >= 0.0 else s - w
        u = math.copysign(abs(z) ** (1.0 / 3.0), z)  # real cube root
        v = -p / (3.0 * u)
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
    if not disc2 >= 0.0:
        raise ValueError(f"complex pair: deflated discriminant {disc2!r} "
                         f"beside the real root x={x1!r}")
    sq = math.sqrt(disc2)
    qq = -0.5 * (q1 + math.copysign(sq, q1)) if q1 != 0.0 else -0.5 * sq
    r1, r2 = (qq / c3, q0 / qq) if qq != 0.0 else (0.0, 0.0)
    return tuple(sorted((x1, _polish(c, r1), _polish(c, r2))))


def alpha_roots(c: tuple[float, float, float, float]) -> tuple[float, float, float]:
    """The three alpha_i = sqrt(x_i) (ascending) of the cubic's roots x_i.

    The model's modal basis needs three distinct positive real roots.
    RootClassificationError refuses everything else: a cubic that cannot be
    solved in doubles (a non-finite coefficient, an overflow at very large u,
    a divisor that underflows to zero or a complex pair; the cause is
    chained), a non-positive root, two roots within REPEAT_TOL of each
    other, and a root that fails the residual bound.
    """
    try:
        x0, x1, x2 = solve_cubic_real(c)
    except (ValueError, ArithmeticError) as exc:
        raise RootClassificationError(
            f"characteristic equation cannot be solved: {exc}") from exc
    if not (x0 > 0.0 and x1 > 0.0 and x2 > 0.0):
        raise RootClassificationError(
            f"characteristic equation has non-positive roots "
            f"{[x for x in (x0, x1, x2) if not x > 0.0]}")
    if not (x1 - x0 > REPEAT_TOL * x1 and x2 - x1 > REPEAT_TOL * x2):
        raise RootClassificationError(
            f"characteristic equation has nearly repeated roots "
            f"{[x0, x1, x2]}")
    c3, c2, c1, c0 = c
    # The bound is RESIDUAL_TOL times the largest term of the cubic at x.
    # That term is >= |c0|, so passing against |c0| alone passes the bound.
    tol0 = RESIDUAL_TOL * abs(c0)
    for x in (x0, x1, x2):
        res = ((c3 * x + c2) * x + c1) * x + c0
        if abs(res) <= tol0:
            continue
        scale = max(abs(c3 * x**3), abs(c2 * x**2), abs(c1 * x), abs(c0))
        if not abs(res) <= RESIDUAL_TOL * scale:
            raise RootClassificationError(
                f"root x={x!r} fails residual bound: |{res!r}| > "
                f"{RESIDUAL_TOL} * {scale!r}")
    return math.sqrt(x0), math.sqrt(x1), math.sqrt(x2)
