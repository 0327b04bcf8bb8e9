"""Laplace-space solution assembly for triple-porosity radial flow.

The three coupled diffusion equations (rock matrix m, fracture network f,
vug system v) with Caputo time-fractional orders beta reduce, after the
Laplace transform, to a modal expansion

    p_m(r) = sum_i A_i D_i K0(alpha_i r)
    p_f(r) = sum_i B_i D_i K0(alpha_i r)
    p_v(r) = sum_i     D_i K0(alpha_i r)

where alpha_i^2 are the three positive roots of a cubic characteristic
equation, (A_i, B_i, 1) spans the null space of the 3x3 modal matrix at
alpha_i^2, and the weights D_i solve the wellbore boundary system.

Everything is assembled in scaled-Bessel space: row i of the boundary
system carries an implicit factor e^{-alpha_i} which cancels against the
matching factor in D_i, so the wellbore pressure stays representable for
arbitrarily large alpha (small times in the Stehfest inversion).
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .roots import CubicCoefficients, RootClassificationError, alpha_roots
from .specfun import bessel_k0_scaled, bessel_k1_scaled

#: det(boundary matrix) below SINGULAR_TOL times the magnitude of its own
#: six expansion terms means the boundary system cannot be solved.
SINGULAR_TOL = 1e-14

#: Null-space candidates (row cross products) below RANK_TOL times the row
#: norm product indicate a rank-deficient modal matrix (repeated root).
RANK_TOL = 1e-12

#: Relative tolerance of the wellbore pressure triple-equality check.
CONSISTENCY_TOL = 1e-9

#: Relative tolerance between kappa_m (omega_m), formed as 1 minus the other
#: two ratios, and its direct ratio in ``to_dimensionless``.
RATIO_TOL = 1e-8


class NullSpaceError(Exception):
    """The modal matrix has no unique (A, B, 1)-normalizable null direction."""


class SingularBoundaryError(Exception):
    """The wellbore boundary system is numerically singular."""


class ConsistencyError(Exception):
    """The three-media wellbore pressures disagree beyond tolerance."""


@dataclass(frozen=True)
class TriplePorosityParams:
    """Dimensionless parameters of the triple-porosity model.

    omega are storativity ratios (omega_m = 1 - omega_f - omega_v), kappa
    permeability ratios (kappa_m = 1 - kappa_f - kappa_v), lambda the
    interporosity transfer coefficients, and beta the fractional orders of
    the time derivative in each medium, all dimensionless.
    """

    omega_f: float
    omega_v: float
    kappa_f: float
    kappa_v: float
    lambda_mf: float
    lambda_mv: float
    lambda_fv: float
    beta_m: float = 1.0
    beta_f: float = 1.0
    beta_v: float = 1.0

    def __post_init__(self):
        for name in ("omega_f", "omega_v"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)!r}")
        if self.omega_m < 0.0:
            raise ValueError(
                f"omega_f + omega_v must be <= 1, got {self.omega_f + self.omega_v!r}")
        for name in ("kappa_f", "kappa_v"):
            if not getattr(self, name) > 0.0:
                raise ValueError(
                    f"{name} must be > 0 (required by the modal solve), "
                    f"got {getattr(self, name)!r}")
        if self.kappa_m <= 0.0:
            raise ValueError(
                f"kappa_f + kappa_v must be < 1, got {self.kappa_f + self.kappa_v!r}")
        for name in ("lambda_mf", "lambda_mv", "lambda_fv"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be >= 0, got {v!r}")
        for name in ("beta_m", "beta_f", "beta_v"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v!r}")

    @property
    def omega_m(self) -> float:
        return 1.0 - self.omega_f - self.omega_v

    @property
    def kappa_m(self) -> float:
        return 1.0 - self.kappa_f - self.kappa_v

    def with_betas(self, beta_m: float, beta_f: float, beta_v: float) -> "TriplePorosityParams":
        return replace(self, beta_m=beta_m, beta_f=beta_f, beta_v=beta_v)


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional reservoir, fluid and well quantities (SI units).

    phi: porosity (m3/m3); c: compressibility (1/Pa); k: permeability (m2);
    mu: viscosity (Pa s); a: interface transfer coefficients (1/(Pa s));
    r_w: well radius (m); h: thickness (m); q0: flow rate (m3/s);
    b0: formation volume factor (-); p_i: initial pressure (Pa).
    """

    phi_m: float
    phi_f: float
    phi_v: float
    c_m: float
    c_f: float
    c_v: float
    k_m: float
    k_f: float
    k_v: float
    mu: float
    a_mf: float
    a_mv: float
    a_fv: float
    r_w: float
    h: float
    q0: float
    b0: float
    p_i: float

    def __post_init__(self):
        for name in ("phi_m", "phi_f", "phi_v", "c_m", "c_f", "c_v",
                     "k_m", "k_f", "k_v", "mu", "r_w", "h", "q0", "b0", "p_i"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be > 0, got {v!r}")
        for name in ("a_mf", "a_mv", "a_fv"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be >= 0, got {v!r}")


class MTerms(NamedTuple):
    """The six auxiliary coefficients of the Laplace-space modal matrix."""

    m1: float
    m2: float
    m3: float
    m4: float
    m5: float
    m6: float


@dataclass(frozen=True)
class DimensionlessTransform:
    """Dimensionless model parameters plus the t_D and p_D scale factors.

    t_D = t * t_scale and p_D = p_scale * (p_i - p).  Fractional orders are
    not part of the map: ``params`` has the classical orders, and
    ``params.with_betas`` sets others.
    """

    params: TriplePorosityParams
    t_scale: float
    p_scale: float


def _check_u(u: float) -> float:
    u = float(u)
    if not (math.isfinite(u) and u > 0.0):
        raise ValueError(f"Laplace variable u must be a positive finite real, got {u!r}")
    return u


def _check_radius(r_d: float) -> float:
    r_d = float(r_d)
    if not (math.isfinite(r_d) and r_d >= 1.0):
        raise ValueError(f"r_d must be >= 1, got {r_d!r}")
    return r_d


def m_terms(p: TriplePorosityParams, u: float) -> MTerms:
    """Auxiliary coefficients at Laplace variable u > 0."""
    # Inline domain test on the hot path; anything else gets the full check.
    if type(u) is not float or not 0.0 < u < math.inf:
        u = _check_u(u)
    lmf, lmv, lfv = p.lambda_mf, p.lambda_mv, p.lambda_fv
    return MTerms(u**p.beta_m * (1.0 - p.omega_f - p.omega_v) + lmf + lmv, lmf, lmv,
                  u**p.beta_f * p.omega_f + lmf + lfv, lfv,
                  u**p.beta_v * p.omega_v + lmv + lfv)


def characteristic_coefficients(m: MTerms, kappa_m: float, kappa_f: float,
                                kappa_v: float) -> CubicCoefficients:
    """Cubic in x = alpha^2 whose roots are the squared modal decay rates."""
    m1, m2, m3, m4, m5, m6 = m
    return CubicCoefficients(
        kappa_m * kappa_f * kappa_v,
        -(kappa_m * (kappa_f * m6 + kappa_v * m4) + kappa_f * kappa_v * m1),
        (kappa_m * m4 * m6 - kappa_m * m5 * m5
         + (kappa_f * m6 + kappa_v * m4) * m1
         - kappa_v * m2 * m2 - kappa_f * m3 * m3),
        (-m1 * m4 * m6 + m1 * m5 * m5 + m2 * m2 * m6
         + 2.0 * m2 * m3 * m5 + m3 * m3 * m4))


def _refine_root(x: float, m: MTerms, kappa_m: float, kappa_f: float,
                 kappa_v: float) -> float:
    """Newton steps on det(M(x)) directly.

    The expanded cubic's coefficients carry rounding noise that shifts its
    roots off the true determinant zero; refining against the assembled
    matrix keeps the null-space extraction residual at machine level.
    """
    m1, m2, m3, m4, m5, m6 = m
    for _ in range(3):
        d0, d1, d2 = kappa_m * x - m1, kappa_f * x - m4, kappa_v * x - m6
        a00 = d1 * d2 - m5 * m5
        # det M is row 0 times adjugate column 0; d det/dx is kappa . adj M's diagonal.
        f = d0 * a00 + m2 * (m3 * m5 - m2 * d2) + m3 * (m2 * m5 - m3 * d1)
        fp = kappa_m * a00 + kappa_f * (d0 * d2 - m3 * m3) + kappa_v * (d0 * d1 - m2 * m2)
        if fp == 0.0:
            break
        xn = x - f / fp
        if xn <= 0.0 or not math.isfinite(xn):
            break
        converged = abs(xn - x) <= 4e-16 * abs(x)
        x = xn
        if converged:
            break
    return x


def _modal_from_x(x: float, m: MTerms, kappa_m: float, kappa_f: float,
                  kappa_v: float) -> tuple[float, float]:
    """(A, B) from the null direction of the (rank-2) modal matrix M(x).

    M(x) has rows (d0, m2, m3), (m2, d1, m5), (m3, m5, d2) with
    d = kappa x - (m1, m4, m6).  Column j of adj M(x) is the cross product of
    the two rows other than j, and adj M is symmetric.  The adjugate columns
    of a rank-2 matrix are parallel copies of the null vector scaled by its
    own components; the largest one is the best conditioned.  Ties go to the
    column from rows (0, 1), then (0, 2).
    """
    m1, m2, m3, m4, m5, m6 = m
    m22, m33, m55 = m2 * m2, m3 * m3, m5 * m5
    d0, d1, d2 = kappa_m * x - m1, kappa_f * x - m4, kappa_v * x - m6
    a00, a11, a22 = d1 * d2 - m55, d0 * d2 - m33, d0 * d1 - m22
    a01, a02, a12 = m3 * m5 - m2 * d2, m2 * m5 - m3 * d1, m2 * m3 - d0 * m5
    n0 = math.sqrt(d0 * d0 + m22 + m33)
    n1 = math.sqrt(m22 + d1 * d1 + m55)
    n2 = math.sqrt(m33 + m55 + d2 * d2)
    scale = max(n0 * n1, n0 * n2, n1 * n2)
    b00, b11, b22 = abs(a00), abs(a11), abs(a22)
    b01, b02, b12 = abs(a01), abs(a02), abs(a12)
    # Each column's max(|entries|), unrolled in max()'s own order: a later
    # entry wins only when larger, so ties and NaN resolve as max() does.
    mag = b12 if b12 > b02 else b02
    mag = b22 if b22 > mag else mag
    mag1 = b11 if b11 > b01 else b01
    mag1 = b12 if b12 > mag1 else mag1
    mag0 = b01 if b01 > b00 else b00
    mag0 = b02 if b02 > mag0 else mag0
    n = (a02, a12, a22)
    if mag1 > mag:
        n, mag = (a01, a11, a12), mag1
    if mag0 > mag:
        n, mag = (a00, a01, a02), mag0
    if mag <= RANK_TOL * scale:
        raise NullSpaceError(
            f"modal matrix has rank < 2 (cross products <= {RANK_TOL} * row scale "
            f"{scale!r}); no unique null direction")
    if n[2] == 0.0:
        raise NullSpaceError(
            f"null direction {n!r} at x={x!r} has zero third component; "
            "normalization to C=1 is impossible (decoupled medium)")
    a, b = n[0] / n[2], n[1] / n[2]
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NullSpaceError(
            f"normalization to C=1 overflows for null direction {n!r} at x={x!r}")
    return a, b


def boundary_vectors(alpha, A, B, kappa_m: float, kappa_f: float,
                     kappa_v: float):
    """Scaled boundary-system rows (P, Q, R).

    P_i = alpha_i K1e(alpha_i) E_i with the modal totals E_i = kappa_m A_i
    + kappa_f B_i + kappa_v; Q_i = (A_i - 1) K0e(alpha_i); R_i = (B_i - 1)
    K0e(alpha_i), where K0e and K1e are the e^{alpha_i}-scaled Bessel
    functions, so row entry i carries an implicit e^{-alpha_i}.  The
    unscaled rows underflow once alpha_i exceeds ~740 and are not formed.
    """
    (a0, a1, a2), (A0, A1, A2), (B0, B1, B2) = alpha, A, B
    e0 = kappa_m * A0 + kappa_f * B0 + kappa_v
    e1 = kappa_m * A1 + kappa_f * B1 + kappa_v
    e2 = kappa_m * A2 + kappa_f * B2 + kappa_v
    k00, k01, k02 = bessel_k0_scaled(a0), bessel_k0_scaled(a1), bessel_k0_scaled(a2)
    k10, k11, k12 = bessel_k1_scaled(a0), bessel_k1_scaled(a1), bessel_k1_scaled(a2)
    return ((a0 * k10 * e0, a1 * k11 * e1, a2 * k12 * e2),
            ((A0 - 1.0) * k00, (A1 - 1.0) * k01, (A2 - 1.0) * k02),
            ((B0 - 1.0) * k00, (B1 - 1.0) * k01, (B2 - 1.0) * k02))


def solve_boundary(P, Q, R, u: float) -> tuple[float, float, float]:
    """Solve [P; Q; R] D = (1/u, 0, 0) via the cross-product form.

    D = (Q x R) / (u * det) with det expanded in the six-term form; the
    cross product makes Q.D and R.D vanish to rounding level by
    construction.  Column scalings of (P, Q, R) carry through to D
    unchanged in the inner products.
    """
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = P, Q, R
    t0, t1, t2 = q0 * r1 * p2, -q0 * p1 * r2, -r0 * q1 * p2
    t3, t4, t5 = -r1 * p0 * q2, p1 * r0 * q2, p0 * q1 * r2
    det = math.fsum((t0, t1, t2, t3, t4, t5))
    # Cancellation metric: the determinant against its own expansion terms.
    scale = max(abs(t0), abs(t1), abs(t2), abs(t3), abs(t4), abs(t5))
    if not abs(det) > SINGULAR_TOL * scale:
        raise SingularBoundaryError(
            f"boundary system singular: |det|={abs(det)!r} "
            f"<= {SINGULAR_TOL} * row scale {scale!r}")
    ud = u * det
    return ((q1 * r2 - q2 * r1) / ud,
            (q2 * r0 - q0 * r2) / ud,
            (q0 * r1 - q1 * r0) / ud)


def _context(u: float, p: TriplePorosityParams) -> str:
    """The suffix that names the evaluation a model error comes from."""
    return f" (u={u!r}, params={p!r})"


def _unscale_weight(d_scaled: float, alpha: float) -> float:
    # D_i = e^{alpha_i} * D_scaled_i; go through logs past the exp range.
    if d_scaled == 0.0:
        return 0.0
    if alpha <= 700.0:
        return d_scaled * math.exp(alpha)
    try:
        return math.copysign(math.exp(alpha + math.log(abs(d_scaled))), d_scaled)
    except OverflowError:
        return math.copysign(math.inf, d_scaled)


class LaplaceAssembly(NamedTuple):
    """Per-u solution of the triple-porosity Laplace problem.

    It holds the roots alpha, the modal coefficients (A, B, 1) and the
    scaled weights D_scaled_i = D_i e^{-alpha_i}.  Times the scaled Bessel
    value k0e(alpha_i) = K0(alpha_i) e^{alpha_i}, a scaled weight gives the
    wellbore term D_i K0(alpha_i), so the pressures stay finite for any
    alpha.  The unscaled view D is for output; it overflows to
    +-inf once alpha_i + ln|D_scaled_i| exceeds ln(max double) ~709.78.
    """

    params: TriplePorosityParams
    u: float
    mterms: MTerms
    alpha: tuple[float, float, float]
    A: tuple[float, float, float]
    B: tuple[float, float, float]
    D_scaled: tuple[float, float, float]

    @property
    def D(self) -> tuple[float, float, float]:
        (d0, d1, d2), (a0, a1, a2) = self.D_scaled, self.alpha
        return _unscale_weight(d0, a0), _unscale_weight(d1, a1), _unscale_weight(d2, a2)

    def _modal_sum(self, k0, k1, k2) -> tuple[float, float, float]:
        """(matrix, fracture, vug) sums of (A_i D_scaled_i) k_i, (B_i D_scaled_i) k_i
        and D_scaled_i k_i, in that association: the wellbore bits are pinned."""
        (d0, d1, d2), (A0, A1, A2), (B0, B1, B2) = self.D_scaled, self.A, self.B
        pv = math.fsum((d0 * k0, d1 * k1, d2 * k2))
        pm = math.fsum((A0 * d0 * k0, A1 * d1 * k1, A2 * d2 * k2))
        pf = math.fsum((B0 * d0 * k0, B1 * d1 * k1, B2 * d2 * k2))
        return pm, pf, pv

    def wellbore_pressures(self) -> tuple[float, float, float]:
        """(matrix, fracture, vug) wellbore pressures; equal in exact arithmetic.

        Their disagreement beyond CONSISTENCY_TOL, or a non-finite value,
        raises ConsistencyError ending in "(u=..., params=...)".
        """
        a0, a1, a2 = self.alpha
        pm, pf, pv = self._modal_sum(
            bessel_k0_scaled(a0), bessel_k0_scaled(a1), bessel_k0_scaled(a2))
        tol = CONSISTENCY_TOL * abs(pv)
        if not (abs(pm - pv) <= tol and abs(pf - pv) <= tol):
            raise ConsistencyError(
                f"wellbore pressure triple equality violated: matrix={pm!r} "
                f"fracture={pf!r} vug={pv!r}{_context(self.u, self.params)}")
        return pm, pf, pv


def laplace_assembly(p: TriplePorosityParams, u: float) -> LaplaceAssembly:
    """Assemble the full Laplace-space solution state at u > 0."""
    if type(u) is not float or not 0.0 < u < math.inf:
        u = _check_u(u)
    m = m_terms(p, u)
    kf, kv = p.kappa_f, p.kappa_v
    km = 1.0 - kf - kv
    try:
        a0, a1, a2 = alpha_roots(characteristic_coefficients(m, km, kf, kv))
        x0 = _refine_root(a0 * a0, m, km, kf, kv)
        x1 = _refine_root(a1 * a1, m, km, kf, kv)
        x2 = _refine_root(a2 * a2, m, km, kf, kv)
        alpha = (math.sqrt(x0), math.sqrt(x1), math.sqrt(x2))
        A0, B0 = _modal_from_x(x0, m, km, kf, kv)
        A1, B1 = _modal_from_x(x1, m, km, kf, kv)
        A2, B2 = _modal_from_x(x2, m, km, kf, kv)
        A, B = (A0, A1, A2), (B0, B1, B2)
        D = solve_boundary(*boundary_vectors(alpha, A, B, km, kf, kv), u)
    except (RootClassificationError, NullSpaceError, SingularBoundaryError) as exc:
        raise type(exc)(f"{exc}{_context(u, p)}") from exc
    return LaplaceAssembly(p, u, m, alpha, A, B, D)


def wellbore_pressure_laplace(p: TriplePorosityParams, u: float) -> float:
    """Dimensionless wellbore pressure in Laplace space, sum_i D_i K0(alpha_i)."""
    return laplace_assembly(p, u).wellbore_pressures()[2]


def field_pressure_laplace(p: TriplePorosityParams, u: float,
                           r_d: float) -> tuple[float, float, float]:
    """Laplace-space pressures (matrix, fracture, vug) at radius r_d >= 1."""
    r_d = _check_radius(r_d)
    asm = laplace_assembly(p, u)
    # K0(alpha r) = k0e(alpha r) e^{-alpha r}; with D_scaled = D e^{-alpha}
    # the net factor is e^{-alpha (r-1)}, which underflows harmlessly.
    return asm._modal_sum(*(bessel_k0_scaled(a * r_d) * math.exp(-a * (r_d - 1.0))
                            for a in asm.alpha))


def single_medium_pressure_laplace(alpha_order: float, u: float,
                                   r_d: float = 1.0) -> float:
    """Laplace-space pressure of the single-medium fractional model.

    p(u, r_d) = K0(r_d sqrt(u^a)) / (u sqrt(u^a) K1(sqrt(u^a))), the
    decaying branch of the modified Bessel equation.
    """
    if not 0.0 < alpha_order <= 1.0:
        raise ValueError(f"fractional order must be in (0, 1], got {alpha_order!r}")
    u = _check_u(u)
    r_d = _check_radius(r_d)
    z = math.sqrt(u**alpha_order)
    val = bessel_k0_scaled(r_d * z) / (u * z * bessel_k1_scaled(z))
    if r_d != 1.0:
        val *= math.exp(-(r_d - 1.0) * z)
    return val


def to_dimensionless(phys: PhysicalParams) -> DimensionlessTransform:
    """Dimensionless parameters and scale factors from dimensional quantities.

    Raises ValueError when the derived groups are inadmissible, e.g. a k_m
    so small against k_f + k_v that kappa_f + kappa_v rounds to 1; when
    kappa_m or omega_m, formed by subtraction, misses its direct ratio
    k_m / sum k or phi_m c_m / storage by more than RATIO_TOL relative; or
    when r_w**2, t_scale or p_scale is not finite and > 0.
    """
    storage = phys.phi_m * phys.c_m + phys.phi_f * phys.c_f + phys.phi_v * phys.c_v
    ksum = phys.k_m + phys.k_f + phys.k_v
    try:
        rw2 = phys.r_w**2
    except OverflowError as exc:
        raise ValueError(f"r_w**2 overflows for r_w = {phys.r_w!r}") from exc
    lam = phys.mu * rw2 / ksum
    params = TriplePorosityParams(
        omega_f=phys.phi_f * phys.c_f / storage,
        omega_v=phys.phi_v * phys.c_v / storage,
        kappa_f=phys.k_f / ksum,
        kappa_v=phys.k_v / ksum,
        lambda_mf=phys.a_mf * lam,
        lambda_mv=phys.a_mv * lam,
        lambda_fv=phys.a_fv * lam)
    for name, derived, direct in (("kappa_m", params.kappa_m, phys.k_m / ksum),
                                  ("omega_m", params.omega_m, phys.phi_m * phys.c_m / storage)):
        if not abs(derived - direct) <= RATIO_TOL * direct:
            raise ValueError(f"{name} = {derived!r} by subtraction misses its direct "
                             f"ratio {direct!r} by more than {RATIO_TOL} relative")
    return DimensionlessTransform(
        params=params,
        t_scale=_scale("t_scale", ksum, phys.mu * rw2 * storage),
        p_scale=_scale("p_scale", 2.0 * math.pi * phys.h * ksum, phys.q0 * phys.b0 * phys.mu))


def _scale(name: str, num: float, den: float) -> float:
    value = num / den if den > 0.0 else math.inf
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} = {num!r} / {den!r} must be finite and > 0")
    return value


def from_dimensionless(p_d: float, scales: DimensionlessTransform,
                       phys: PhysicalParams) -> float:
    """Pressure in Pa from a dimensionless pressure deficit value."""
    return phys.p_i - p_d / scales.p_scale
