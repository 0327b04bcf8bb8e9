import csv

import pytest

from triporo import CurvePoint, TriplePorosityParams, laplace_assembly, specfun
from triporo.cli import LAPLACE_HEADER, main

# Carbonate-style reference set used throughout: fracture-dominated flow,
# vug-dominated storage, weak interporosity coupling.
REF_KWARGS = dict(omega_f=0.02, omega_v=0.8, kappa_f=0.75, kappa_v=0.02,
                  lambda_mf=1e-3, lambda_mv=1e-8, lambda_fv=1e-5)

# The [physical] set of the CLI tests (SI units).
PHYSICAL_KWARGS = dict(phi_m=0.1, phi_f=0.02, phi_v=0.05, c_m=1e-9, c_f=4e-9, c_v=2e-9,
                       k_m=1e-15, k_f=8e-14, k_v=2e-15, mu=1e-3,
                       a_mf=1e-10, a_mv=1e-12, a_fv=1e-11,
                       r_w=0.1, h=10.0, q0=1e-3, b0=1.0, p_i=3e7)

# Three identical, uncoupled media: every ratio is 1/3 and every lambda 0.
SYMMETRIC_KWARGS = dict(PHYSICAL_KWARGS, phi_f=0.1, phi_v=0.1, c_f=1e-9, c_v=1e-9,
                        k_m=1e-14, k_f=1e-14, k_v=1e-14, a_mf=0.0, a_mv=0.0, a_fv=0.0)

# Every dimensionless parameter at 1e-12: the single-medium limit.
COLLAPSED = TriplePorosityParams(**dict.fromkeys(REF_KWARGS, 1e-12))

# Late times (ROADMAP finding 5).  Each case that fails there is a strict
# xfail; accurate modes (ROADMAP items 2 and 3) turn it into an XPASS, and
# its marker then goes.
LATE_TIME_DEFECT = pytest.mark.xfail(strict=True, reason=(
    "known defect: as u falls, the storage term u^beta omega of m1, m4 and m6 "
    "rounds away against the couplings, so the slowest mode is lost"))


def cubic_residual(c, x: float) -> tuple[float, float]:
    """The cubic c = (c3, c2, c1, c0) at x, and its largest term's magnitude.

    ``roots.alpha_roots`` bounds the first by RESIDUAL_TOL times the second.
    """
    c3, c2, c1, c0 = c
    return (((c3 * x + c2) * x + c1) * x + c0,
            max(abs(c3 * x**3), abs(c2 * x**2), abs(c1 * x), abs(c0)))


def bessel_triples(alpha) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The scaled Bessel values (K0e, K1e) at each of the three alpha, the
    triples that ``model.boundary_vectors`` takes."""
    return (tuple(specfun.bessel_k0_scaled(a) for a in alpha),
            tuple(specfun.bessel_k1_scaled(a) for a in alpha))


def laplace_dump_rows(p, us) -> list[list[float]]:
    """The ``laplace`` dump's rows from the per-u chain, one u at a time.

    ``batch.laplace_columns`` must give these bit for bit, or raise the first
    error they raise.
    """
    rows = []
    for u in us:
        asm = laplace_assembly(p, u)
        rows.append([u, *asm.mterms, *asm.alpha, *asm.A, *asm.B, *asm.D,
                     asm.wellbore_pressures()[2]])
    return rows


def hex_rows(rows) -> list[list[str]]:
    """Each value of each row as ``float.hex``, so that rows compare bit for bit."""
    return [[float.hex(float(v)) for v in row] for row in rows]


def column_rows(columns) -> list[list[float]]:
    """The rows of ``batch.laplace_columns``; a coupling's one float fills its column."""
    n = len(columns[0])
    return [list(row) for row in zip(*(c if isinstance(c, list) else [c] * n for c in columns))]


def laplace_dump_text(rows) -> str:
    """The ``laplace`` dump of these rows: the header, then each value as
    ``repr(float(v))``, one line per row."""
    lines = [LAPLACE_HEADER, *(",".join(repr(float(v)) for v in row) for row in rows)]
    return "".join(line + "\n" for line in lines)


def run_laplace(directory, p, laplace: dict) -> tuple[int, str]:
    """``triporo laplace`` on the parameters p with the ``[laplace]`` keys
    given, run in directory: its exit code and the text it wrote."""
    cfg, out = directory / "dump.ini", directory / "dump.csv"
    cfg.write_text(ini("model", vars(p)) + ini("laplace", laplace), encoding="utf-8")
    out.unlink(missing_ok=True)
    rc = main(["laplace", "--config", str(cfg), "--out", str(out), "--quiet"])
    return rc, out.read_text(encoding="utf-8") if out.exists() else ""


def read_curve_csv(path) -> list[CurvePoint]:
    """The points of a curve CSV file, through the stdlib csv module."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [CurvePoint(**{k: float(v) if v else None for k, v in row.items()})
                for row in csv.DictReader(fh)]


def ini(section: str, values: dict) -> str:
    """One INI section with a ``key = value`` line per entry, in order."""
    return "".join([f"[{section}]\n", *(f"{k} = {v}\n" for k, v in values.items())])


@pytest.fixture
def ref_params() -> TriplePorosityParams:
    return TriplePorosityParams(**REF_KWARGS)


@pytest.fixture
def ref_kwargs() -> dict:
    return dict(REF_KWARGS)
