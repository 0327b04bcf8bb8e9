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
"""

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


def wellbore(p, u):
    """The wellbore pressure p_w(u)."""
    y = _sqrt_kappa(p)
    total = 0
    for alpha, w in modes(p, u):
        s = mp.fdot(y, w) ** 2
        total += s * alpha * mp.besselk(1, alpha) / mp.besselk(0, alpha)
    return 1 / (mp.mpf(u) * total)


def field(p, u, r):
    """The (matrix, fracture, vug) pressures at radius r."""
    y = _sqrt_kappa(p)
    pw = wellbore(p, u)
    r = mp.mpf(r)
    out = [0, 0, 0]
    for alpha, w in modes(p, u):
        c = mp.fdot(y, w) * mp.besselk(0, alpha * r) / mp.besselk(0, alpha)
        for i in range(3):
            out[i] += w[i] / y[i] * c
    return [pw * v for v in out]
