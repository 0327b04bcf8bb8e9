import pytest

from triporo import TriplePorosityParams

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


def ini(section: str, values: dict) -> str:
    """One INI section with a ``key = value`` line per entry, in order."""
    return "".join([f"[{section}]\n", *(f"{k} = {v}\n" for k, v in values.items())])


@pytest.fixture
def ref_params() -> TriplePorosityParams:
    return TriplePorosityParams(**REF_KWARGS)


@pytest.fixture
def ref_kwargs() -> dict:
    return dict(REF_KWARGS)
