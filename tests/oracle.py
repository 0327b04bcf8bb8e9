"""Independent mpmath reference for the Laplace-space solution.

The one reference the tests check Laplace-space values against.  It shares
no code with ``triporo``: no cubic, no root polish, no boundary solve.  With
K = diag(kappa_m, kappa_f, kappa_v) and S the coupling matrix (diagonal
u^beta_i omega_i + sum_j lambda_ij, off-diagonals -lambda_ij), the modes are
the eigenpairs (alpha_j^2, w_j) of T = K^-1/2 S K^-1/2, |w_j| = 1.  The
modal vectors are v_j = K^-1/2 w_j, so A_j = v_mj / v_vj and
B_j = v_fj / v_vj.  With y = sqrt(kappa) and s_j = (y.w_j)^2, equal wellbore
pressures and the unit-rate flux condition give

    p_w = 1 / (u sum_j s_j alpha_j K1(alpha_j) / K0(alpha_j)),
    p_i(r) = p_w sum_j (w_ij / sqrt(kappa_i)) (y.w_j) K0(alpha_j r) / K0(alpha_j).

The float parameters and u are taken as exact; everything runs at the
caller's ``mp.workdps``.

It also holds the single-medium fractional solution of order a,
K0(r z) / (u z K1(z)) with z = sqrt(u^a), from mpmath's Bessel functions:
the limit the triple-porosity model collapses to.

It also holds the tests' one exact Gaver-Stehfest sum: the textbook
weights at 50 digits, and the order-n sum (ln 2 / t) sum V_k F(u_k) at
50 digits over those or any other weights, the package's exact rationals
included.
"""

from fractions import Fraction

import mpmath as mp


def _sqrt_kappa(p):
    return [mp.sqrt(mp.mpf(k)) for k in (p.kappa_m, p.kappa_f, p.kappa_v)]


def modes(p, u):
    """The ascending (alpha_j, w_j): w_j is the j-th unit eigenvector of T."""
    u = mp.mpf(u)
    S = mp.matrix(3, 3)
    for (i, j), lam in (((0, 1), p.lambda_mf), ((0, 2), p.lambda_mv), ((1, 2), p.lambda_fv)):
        S[i, j] = S[j, i] = -mp.mpf(lam)
    for i, (beta, omega) in enumerate(((p.beta_m, p.omega_m), (p.beta_f, p.omega_f),
                                       (p.beta_v, p.omega_v))):
        S[i, i] = u ** mp.mpf(beta) * mp.mpf(omega) - sum(S[i, j] for j in range(3) if j != i)
    y = _sqrt_kappa(p)
    T = mp.matrix(3, 3)
    for i in range(3):
        for j in range(3):
            T[i, j] = S[i, j] / (y[i] * y[j])
    x, W = mp.eigsy(T)
    return [(mp.sqrt(x[j]), [W[i, j] for i in range(3)]) for j in range(3)]


def _wellbore_terms(p, u):
    """p_w, y, and per mode (alpha_j, w_j, y.w_j, K0(alpha_j)), from one eigsy."""
    y = _sqrt_kappa(p)
    total, terms = 0, []
    for alpha, w in modes(p, u):
        yw, k0 = mp.fdot(y, w), mp.besselk(0, alpha)
        total += yw ** 2 * alpha * mp.besselk(1, alpha) / k0
        terms.append((alpha, w, yw, k0))
    return 1 / (mp.mpf(u) * total), y, terms


def wellbore(p, u):
    """The wellbore pressure p_w(u)."""
    return _wellbore_terms(p, u)[0]


def field(p, u, r):
    """The (matrix, fracture, vug) pressures at radius r."""
    pw, y, terms = _wellbore_terms(p, u)
    r = mp.mpf(r)
    out = [0, 0, 0]
    for alpha, w, yw, k0 in terms:
        c = yw * mp.besselk(0, alpha * r) / k0
        for i in range(3):
            out[i] += w[i] / y[i] * c
    return [pw * v for v in out]


def single_medium(order, u, r=1):
    """The single-medium pressure of fractional order ``order`` at radius r."""
    u = mp.mpf(u)
    z = mp.sqrt(u ** mp.mpf(order))
    return mp.besselk(0, mp.mpf(r) * z) / (u * z * mp.besselk(1, z))


def stehfest_weights_50(n):
    """Order-n Stehfest weights from the textbook formula, at 50 digits."""
    half = n // 2
    fac = mp.factorial
    with mp.workdps(50):
        return [(-1) ** (half + k) * mp.fsum(
                    mp.mpf(j) ** half * fac(2 * j)
                    / (fac(half - j) * fac(j) * fac(j - 1) * fac(k - j) * fac(2 * j - k))
                    for j in range((k + 1) // 2, min(k, half) + 1))
                for k in range(1, n + 1)]


def stehfest_exact(transform, t, weights):
    """The Stehfest sum at t and (ln 2 / t) sum |V_k F(u_k)|, both at 50 digits.

    ``weights`` are mpf or exact ``Fraction`` values; u_k = k ln 2 / t is
    passed to ``transform`` as an mpf.  Both results are rounded to floats.
    """
    with mp.workdps(50):
        ratio = mp.log(2) / t
        terms = [(mp.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else v)
                 * transform(k * ratio) for k, v in enumerate(weights, start=1)]
        return (float(ratio * mp.fsum(terms)),
                float(ratio * mp.fsum(abs(x) for x in terms)))
