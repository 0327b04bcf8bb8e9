"""The ``laplace`` dump's chain over a whole u grid at once, bit for bit.

``cli.cmd_laplace`` imports this module when it runs, so that ``import
triporo`` loads neither numpy nor this code.  The batch copies only the
main path of the per-u chain (``model.laplace_assembly`` and
``LaplaceAssembly.wellbore_pressures``), with the same floating-point
operations in the same order; every other branch goes to the chain.  numpy
does only +, -, *, /, sqrt, abs, copysign and comparisons, which round as
Python's floats do; ``**``, acos and cos run per element on Python floats,
through libm as in the chain, because numpy's vectorised versions round
differently on some inputs.  ``math.fsum`` forms each row's sums.  Only
stages that would cost too much per row are copied, ``model._mode`` (each
root's Newton steps and null direction) as ``_mode_rows`` among them: the
boundary rows are ``model.boundary_vectors`` on columns, and ``specfun``'s
Bessel names and ``model._unscale_weight`` run per element.
"""

import math

import numpy as np

from . import model, roots, specfun


def laplace_columns(p, us) -> list:
    """The ``laplace`` dump's columns u, m1..m6, alpha1..3, A1..3, B1..3,
    D1..3 and p_bar_w for the whole u grid, in one batch.

    Row j is that of ``model.laplace_assembly(p, us[j])`` and its
    ``wellbore_pressures()``, bit for bit.  The couplings m2, m3 and m5 are
    one float each; every other column is a list.  A row off the main path,
    or one that the chain refuses, raises on or leaves non-finite, is
    recomputed by the chain, in u order, so an error is the one the per-u
    loop raises first.
    """
    us = list(us)
    columns, recompute = _laplace_table(p, us)
    for j in recompute:
        asm = model.laplace_assembly(p, us[j])
        row = (asm.u, *asm.mterms, *asm.alpha, *asm.A, *asm.B, *asm.D, asm.wellbore_pressures()[2])
        for column, v in zip(columns, row):
            if isinstance(column, list):
                column[j] = v
    return columns


@np.errstate(all="ignore")  # no numpy warning reaches a user
def _laplace_table(p, us) -> tuple[list, list[int]]:
    """The dump's columns for ``us``, and the indices of the rows to recompute
    (with the tolerances of ``model`` and ``roots`` at the call)."""
    u = np.array(us, dtype=float)
    bad = ~((u > 0.0) & (u < math.inf))
    ul = np.where(bad, 1.0, u).tolist()  # a negative u**beta would be complex
    lmf, lmv, lfv = p.lambda_mf, p.lambda_mv, p.lambda_fv
    kf, kv = p.kappa_f, p.kappa_v
    km = 1.0 - kf - kv
    # m_terms and characteristic_coefficients.
    m1 = _each(pow, ul, p.beta_m) * (1.0 - p.omega_f - p.omega_v) + lmf + lmv
    m4 = _each(pow, ul, p.beta_f) * p.omega_f + lmf + lfv
    m6 = _each(pow, ul, p.beta_v) * p.omega_v + lmv + lfv
    c3, c2, c1, c0 = model.characteristic_coefficients((m1, lmf, lmv, m4, lfv, m6), km, kf, kv)

    # roots.solve_cubic_real: the trigonometric seed x1 with m != 0.  A nan
    # from _each is a power that raised, and a non-finite disc covers every
    # non-finite b, p or q.  Cardano's seed (disc > 0) and den == 0, which
    # covers m = 0 and a den that underflows, go to the chain.
    if not (math.isfinite(c3) and abs(c3) > 1e-300):
        bad[:] = True
    b = c2 / c3
    pc = c1 / c3 - b * b / 3.0
    q = c0 / c3 - b * (c1 / c3) / 3.0 + 2.0 * _each(pow, b, 3) / 27.0
    disc = _each(pow, q / 2.0, 2) + _each(pow, pc / 3.0, 3)
    bad |= ~(np.isfinite(c2) & np.isfinite(c1) & np.isfinite(c0) & np.isfinite(disc))
    shift = -b / 3.0
    m = np.sqrt(_first_max(-pc / 3.0, 0.0))
    den = 2.0 * pc * m
    bad |= (disc > 0.0) | (den == 0.0)
    arg = _first_max(-1.0, 3.0 * q / den)
    theta, two_m = _each(math.acos, np.where(arg < 1.0, arg, 1.0)) / 3.0, 2.0 * m
    x1 = two_m * _each(math.cos, theta) + shift
    for k in (1, 2):
        xk = two_m * _each(math.cos, theta - 2.0 * math.pi * k / 3.0) + shift
        x1 = np.where(abs(xk) > abs(x1), xk, x1)
    x1 = _polish_rows((c3, c2, c1, c0), x1)

    # Deflation by the Vieta forms with x1 dominant, which x1 = 0 is not; the
    # other form of q1 and q1 = 0 go to the chain, and qq = 0 gives a root 0.
    q0 = -c0 / x1
    bad |= ~(x1 * x1 * abs(c3) >= abs(q0))
    q1 = (q0 - c1) / x1
    disc2 = q1 * q1 - 4.0 * c3 * q0
    bad |= (q1 == 0.0) | ~(disc2 >= 0.0)
    qq = -0.5 * (q1 + np.copysign(np.sqrt(disc2), q1))
    col = (c3, c2[:, None], c1[:, None], c0[:, None])
    pair = _polish_rows(col, np.column_stack((qq / c3, q0 / qq)))
    x = np.sort(np.column_stack((x1, pair)), axis=1)

    # alpha_roots' checks; the residual bound's slow form where the fast one misses.
    x0, x1, x2 = x.T
    bad |= ~((x0 > 0.0) & (x1 > 0.0) & (x2 > 0.0))
    bad |= ~((x1 - x0 > roots.REPEAT_TOL * x1) & (x2 - x1 > roots.REPEAT_TOL * x2))
    res = abs(((c3 * x + col[1]) * x + col[2]) * x + col[3])
    r, j = np.nonzero(~(res <= roots.RESIDUAL_TOL * abs(col[3])) & ~bad[:, None])
    xs = x[r, j]
    scale = _first_max(abs(c3 * _each(pow, xs, 3)), abs(c2[r] * _each(pow, xs, 2)),
                       abs(c1[r] * xs), abs(c0[r]))
    bad[r[~(res[r, j] <= roots.RESIDUAL_TOL * scale)]] = True

    # model._mode on each root.
    mcol = (m1[:, None], lmf, lmv, m4[:, None], lfv, m6[:, None])
    alpha, A, B, refused = _mode_rows(np.sqrt(x), mcol, km, kf, kv)
    bad |= refused.any(axis=1)

    # The chain's Bessel values and rows; solve_boundary, wellbore_pressures.
    k0 = _each(specfun.bessel_k0_scaled, alpha.ravel()).reshape(alpha.shape)
    k1 = _each(specfun.bessel_k1_scaled, alpha.ravel()).reshape(alpha.shape)
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = model.boundary_vectors(
        alpha.T, A.T, B.T, k0.T, k1.T, km, kf, kv)
    t = np.column_stack((q0 * r1 * p2, -q0 * p1 * r2, -r0 * q1 * p2,
                         -r1 * p0 * q2, p1 * r0 * q2, p0 * q1 * r2))
    det = _each(math.fsum, t)  # inf or nan where t is not finite
    bad |= ~(abs(det) > model.SINGULAR_TOL * abs(t).max(axis=1))
    ud = u * det
    D = np.column_stack(((q1 * r2 - q2 * r1) / ud, (q2 * r0 - q0 * r2) / ud,
                         (q0 * r1 - q1 * r0) / ud))
    pv = _each(math.fsum, D * k0)
    pm, pf = _each(math.fsum, A * D * k0), _each(math.fsum, B * D * k0)
    tol = model.CONSISTENCY_TOL * abs(pv)
    bad |= ~((abs(pm - pv) <= tol) & (abs(pf - pv) <= tol))
    unscaled = _each(model._unscale_weight, D.ravel(), alpha.ravel()).reshape(D.shape)
    # Any non-finite stage shows here or, for m1, m4 and m6, in c2; only the
    # unscaled D may overflow, as the chain's does past alpha ~ 709.
    bad |= ~np.isfinite(np.column_stack((alpha, A, B, D, pv))).all(axis=1)
    columns = [ul, m1.tolist(), float(lmf), float(lmv), m4.tolist(), float(lfv), m6.tolist(),
               *alpha.T.tolist(), *A.T.tolist(), *B.T.tolist(), *unscaled.T.tolist(), pv.tolist()]
    return columns, np.flatnonzero(bad).tolist()


def _each(fn, xs, *args):
    """fn(x, *args) for each x of xs, a list of Python floats or an array (each
    row as a list when it is 2-D), and each array of args entry by entry along
    xs, as the per-u chain calls it; nan where it raises."""
    xs = xs.tolist() if isinstance(xs, np.ndarray) else xs
    args = [a.tolist() if isinstance(a, np.ndarray) else [a] * len(xs) for a in args]
    try:
        return np.fromiter(map(fn, xs, *args), float, len(xs))
    except (ArithmeticError, ValueError):
        return np.array([_or_nan(fn, *x) for x in zip(xs, *args)])


def _or_nan(fn, *args):
    """fn(*args), or nan where it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError):
        return math.nan


def _first_max(first, *rest):
    """Elementwise ``max(first, *rest)`` as Python's max picks: a later value
    replaces the current one only when greater, so a nan after the first is skipped."""
    for v in rest:
        first = np.where(v > first, v, first)
    return first


def _polish_rows(c, x):
    """``roots._polish`` on every entry of x; an entry stops where the scalar loop breaks."""
    c3, c2, c1, c0 = c
    d2, d1 = 3.0 * c3, 2.0 * c2
    f = ((c3 * x + c2) * x + c1) * x + c0
    go = np.ones(x.shape, dtype=bool)
    for _ in range(12):
        fp = (d2 * x + d1) * x + c1
        xn = x - f / fp
        fn = ((c3 * xn + c2) * xn + c1) * xn + c0
        go &= (fp != 0.0) & np.isfinite(xn) & (abs(fn) < abs(f))
        if not go.any():
            break
        x, f = np.where(go, xn, x), np.where(go, fn, f)
    return x


def _mode_rows(alpha, m, kappa_m: float, kappa_f: float, kappa_v: float):
    """``model._mode`` on every entry of alpha, an entry's steps stopping where
    the scalar loop breaks: (alpha, A, B) and where it refuses."""
    m1, m2, m3, m4, m5, m6 = m
    m22, m33, m55 = m2 * m2, m3 * m3, m5 * m5
    x, go = alpha * alpha, np.ones(alpha.shape, dtype=bool)
    for step in range(4):
        d0, d1, d2 = kappa_m * x - m1, kappa_f * x - m4, kappa_v * x - m6
        a00, a11, a22 = d1 * d2 - m55, d0 * d2 - m33, d0 * d1 - m22
        a01, a02, a12 = m3 * m5 - m2 * d2, m2 * m5 - m3 * d1, m2 * m3 - d0 * m5
        if step == 3 or not go.any():
            break
        fp = kappa_m * a00 + kappa_f * a11 + kappa_v * a22
        xn = x - (d0 * a00 + m2 * a01 + m3 * a02) / fp
        go &= (fp != 0.0) & (xn > 0.0) & np.isfinite(xn)
        converged = abs(xn - x) <= 4e-16 * abs(x)
        x = np.where(go, xn, x)
        go &= ~converged
    n0 = np.sqrt(d0 * d0 + m22 + m33)
    n1 = np.sqrt(m22 + d1 * d1 + m55)
    n2 = np.sqrt(m33 + m55 + d2 * d2)
    scale = _first_max(n0 * n1, n0 * n2, n1 * n2)
    b00, b11, b22 = abs(a00), abs(a11), abs(a22)
    b01, b02, b12 = abs(a01), abs(a02), abs(a12)
    mag, mag1 = _first_max(b02, b12, b22), _first_max(b01, b11, b12)
    mag0 = _first_max(b00, b01, b02)
    n = (a02, a12, a22)
    for col, mag_col in (((a01, a11, a12), mag1), ((a00, a01, a02), mag0)):
        pick = mag_col > mag
        n = tuple(np.where(pick, c, v) for c, v in zip(col, n))
        mag = np.where(pick, mag_col, mag)
    # A zero n[2] leaves a or b inf or nan, so it needs no mask of its own.
    a, b = n[0] / n[2], n[1] / n[2]
    refused = (mag <= model.RANK_TOL * scale) | ~(np.isfinite(a) & np.isfinite(b))
    return np.sqrt(x), a, b, refused
