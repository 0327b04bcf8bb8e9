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

The float parameters and u are taken as exact.  Every value holds the
caller's ``mp.workdps``, as ``modes`` and the Bessel values add the guard
digits they need, except ``boundary_residuals``, which checks at 30 digits.

It also holds the single-medium fractional solution of order a,
K0(r z) / (u z K1(z)) with z = sqrt(u^a): the limit the triple-porosity
model collapses to.

It also holds the tests' one exact Gaver-Stehfest sum: the textbook
weights at 50 digits, and the order-n sum (ln 2 / t) sum V_k F(u_k) at
50 digits over those or any other weights, the package's exact rationals
included; and acceptance criterion 2's quadratures of e^x K0 and e^x K1.
"""

import math
from fractions import Fraction
from functools import partial

import mpmath as mp
from scipy.integrate import quad


def _sqrt_kappa(p):
    return [mp.sqrt(mp.mpf(k)) for k in (p.kappa_m, p.kappa_f, p.kappa_v)]


def _bessel_k_scaled(a):
    """e^a K0(a) and e^a K1(a): below a = 40 the ascending series (A&S 9.6.11
    and 9.6.13) with the digits it cancels added, from 40 on Steed's CF2 for
    order 0 (Thompson & Barnett, J. Comput. Phys. 64, 1986), whose term count
    climbs as a falls.  Near 40 the two cost about the same."""
    a = mp.mpf(a)
    if a >= 40:
        with mp.extradps(10):
            # Steed's method: h sums the continued fraction for K1/K0 and s
            # the series with e^a K0 = sqrt(pi / 2a) / s, both term by term.
            b = 2 * (1 + a)
            d = h = dh = 1 / b
            c = q = mp.mpf(0.25)
            q1, q2, s, i = 0, 1, 1 + q * dh, 1
            while abs(q * dh) >= mp.eps * s:
                i += 1
                m = -(i - mp.mpf(0.5)) ** 2
                c, q1, q2 = -m * c / i, q2, (q1 - b * q2) / m
                q, b = q + c * q2, b + 2
                d = 1 / (b + m * d)
                dh *= b * d - 1
                h, s = h + dh, s + q * dh
            k0 = mp.sqrt(mp.pi / (2 * a)) / s
            return [k0, k0 * (a + mp.mpf(0.5) - h / 4) / a]
    with mp.extradps(int(a) + 10):
        q, lg = a * a / 4, mp.log(a / 2) + mp.euler
        t, h, k, i0, s0, i1, s1 = mp.mpf(1), mp.mpf(0), 0, 0, 0, 0, 0
        while t > mp.eps * i0:  # t = q^k / k!^2 and h = 1 + 1/2 + ... + 1/k
            i0, s0, i1 = i0 + t, s0 + t * h, i1 + t / (k + 1)
            s1 += t / (k + 1) * (2 * h + mp.mpf(1) / (k + 1))
            k += 1
            t, h = t * q / (k * k), h + mp.mpf(1) / k
        return [(s0 - lg * i0) * mp.exp(a), (1 / a + a * lg * i1 / 2 - a * s1 / 4) * mp.exp(a)]


def modes(p, u):
    """The ascending (alpha_j, w_j): w_j is the j-th unit eigenvector of T.

    T is formed with the digits added that the smallest storage term
    r_i = u^beta_i omega_i would lose against sum_j lambda_ij in S's
    diagonal, since the slowest mode rests on the r_i alone.
    """
    u, y = mp.mpf(u), _sqrt_kappa(p)
    r = [u ** mp.mpf(beta) * mp.mpf(omega) for beta, omega in
         ((p.beta_m, p.omega_m), (p.beta_f, p.omega_f), (p.beta_v, p.omega_v))]
    lam = [[0] * 3 for _ in range(3)]
    for (i, j), v in (((0, 1), p.lambda_mf), ((0, 2), p.lambda_mv), ((1, 2), p.lambda_fv)):
        lam[i][j] = lam[j][i] = mp.mpf(v)
    lost = max([0] + [mp.log10(sum(row) / ri) for ri, row in zip(r, lam) if ri])
    with mp.extradps(int(mp.ceil(lost))):
        x, W = mp.eigsy(mp.matrix([[(r[i] + mp.fsum(lam[i]) if i == j else -lam[i][j])
                                    / (y[i] * y[j]) for j in range(3)] for i in range(3)]))
        return [(mp.sqrt(x[j]), [W[i, j] for i in range(3)]) for j in range(3)]


def _wellbore_terms(p, u):
    """p_w, y, and per mode (alpha_j, w_j, y.w_j, e^alpha_j K0(alpha_j)), from one eigsy."""
    y = _sqrt_kappa(p)
    total, terms = 0, []
    for alpha, w in modes(p, u):
        yw, (k0, k1) = mp.fdot(y, w), _bessel_k_scaled(alpha)
        total += yw ** 2 * alpha * k1 / k0
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
        c = yw * _bessel_k_scaled(alpha * r)[0] * mp.exp(alpha * (1 - r)) / k0
        for i in range(3):
            out[i] += w[i] / y[i] * c
    return [pw * v for v in out]


def boundary_rows(s):
    """Unit-rate flux and p_m(1) = p_f(1) = p_v(1) on the weights D of the modes
    (alpha_j, A_j, B_j, 1) of a solution s, as rows F.D = 1/u and G.D = H.D = 0:
    F_j = alpha_j K1(alpha_j) (kappa_m A_j + kappa_f B_j + kappa_v), G_j and
    H_j = (A_j - 1) and (B_j - 1) times K0(alpha_j).  Each Bessel value carries
    e^{alpha_j}, so D_j is scaled by e^{-alpha_j}."""
    km, kf, kv = (mp.mpf(k) for k in (s.params.kappa_m, s.params.kappa_f, s.params.kappa_v))
    rows = []
    for a, Aj, Bj in zip(*([mp.mpf(v) for v in c] for c in (s.alpha, s.A, s.B))):
        k0, k1 = _bessel_k_scaled(a)
        rows.append((a * k1 * (km * Aj + kf * Bj + kv), (Aj - 1) * k0, (Bj - 1) * k0))
    return [list(row) for row in zip(*rows)]


def boundary_residuals(s):
    """|u F.D - 1|, and |G.D| and |H.D| over the sum of their terms'
    magnitudes, at 30 digits, for the rows of ``boundary_rows`` and the scaled
    weights D = s.D_scaled at s.u."""
    with mp.workdps(30):
        F, G, H = boundary_rows(s)
        D = [mp.mpf(d) for d in s.D_scaled]

        def gap(row):
            terms = [r * d for r, d in zip(row, D)]
            return float(abs(mp.fsum(terms)) / mp.fsum(abs(t) for t in terms))

        return float(abs(s.u * mp.fdot(F, D) - 1)), gap(G), gap(H)


def single_medium(order, u, r=1):
    """The single-medium pressure of fractional order ``order`` at radius r."""
    u = mp.mpf(u)
    z, r = mp.sqrt(u ** mp.mpf(order)), mp.mpf(r)
    return (_bessel_k_scaled(r * z)[0] * mp.exp(z - r * z)
            / (u * z * _bessel_k_scaled(z)[1]))


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


def _k_scaled_by_quadrature(n, x):
    # e^x K_n(x) = int_0^inf exp(-x (cosh t - 1)) cosh(n t) dt, integrated
    # adaptively up to where the integrand underflows.
    return quad(lambda t: math.exp(-x * (math.cosh(t) - 1.0)) * math.cosh(n * t), 0.0,
                math.acosh(745.0 / x + 1.0), epsabs=1e-300, epsrel=1.3e-14, limit=400)[0]


k0_scaled_oracle = partial(_k_scaled_by_quadrature, 0)
k1_scaled_oracle = partial(_k_scaled_by_quadrature, 1)
