"""Pins of stages of the per-u Laplace chain that no public output shows,
and refusals that no admissible input is known to reach, forced.  Only this
module and test_roots.py name the stages; ROADMAP items 2 and 3 delete them
and both modules."""

import math

import pytest

from triporo.model import (ModelError, _modal_from_x, _unscale_weight, laplace_assembly,
                           solve_boundary)

from conftest import run_laplace


def test_modal_rank_deficient_matrix_raises():
    # kappa = 1, x = 1: M(x) = diag(0, 0, -1) has rank 1, so every 2x2 minor
    # of the adjugate vanishes and no null direction is singled out.
    with pytest.raises(ModelError, match="rank < 2"):
        _modal_from_x(1.0, (1, 0, 0, 1, 0, 2), 1.0, 1.0, 1.0)


@pytest.mark.parametrize("m, expected", [
    # Columns 2 and 1 tie (max |entry| 9) above column 0 (8); column 2 = (0, 3, 9).
    ((4, 0, 0, 4, 1, 4), (0.0 / 9.0, 3.0 / 9.0)),
    # Columns 1 and 0 tie (8) above column 2 (5); column 1 = (7, 8, 5).
    ((4, 2, 1, 4, 1, 4), (7.0 / 5.0, 8.0 / 5.0)),
    # All three columns tie (9); column 2 = (9, 9, 9).
    ((4, 0, 3, 4, 3, 4), (1.0, 1.0)),
], ids=["cols-2-1", "cols-1-0", "all"])
def test_modal_column_ties_prefer_column_2_then_1(m, expected):
    # At a non-root x the adjugate columns are not parallel, so the column
    # chosen shows in (A, B): ties go to column 2, then column 1.
    assert _modal_from_x(1.0, m, 1.0, 1.0, 1.0) == expected


def test_solve_boundary_identity_rows():
    D = solve_boundary((1, 0, 0), (0, 1, 0), (0, 0, 1), 1.0)
    assert D == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_solve_boundary_permuted_rows():
    D = solve_boundary((0, 1, 0), (1, 0, 0), (0, 0, 1), 2.0)
    assert D == pytest.approx([0.0, 0.5, 0.0], abs=1e-15)


def test_solve_boundary_singular():
    with pytest.raises(ModelError, match="singular"):
        solve_boundary((1, 0, 0), (1, 0, 0), (0, 0, 1), 1.0)


def test_singular_boundary_from_assembly_names_u_once(ref_params, monkeypatch):
    # laplace_assembly adds the context; solve_boundary does not repeat it.
    monkeypatch.setattr("triporo.model.boundary_vectors",
                        lambda *args: ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
    with pytest.raises(ModelError) as info:
        laplace_assembly(ref_params, 1.0)
    assert str(info.value).count("u=") == 1
    assert "(u=1.0, params=TriplePorosityParams(" in str(info.value)


def test_solve_boundary_refuses_nan_entry():
    with pytest.raises(ModelError, match="nan"):
        solve_boundary((1, 0, 0), (0, math.nan, 0), (0, 0, 1), 1.0)


def test_unscale_weight_at_the_edge_of_the_exp_range():
    # e^709.5 = 1.35e308 fits in a double; e^710 does not.
    assert _unscale_weight(1.0, 709.5) == math.exp(709.5)
    assert _unscale_weight(-1.0, 709.0) == -math.exp(709.0)
    assert _unscale_weight(1.0, 710.0) == math.inf
    assert _unscale_weight(0.0, 800.0) == 0.0


def test_forced_singular_boundary_names_the_evaluation_once(tmp_path, monkeypatch, capsys,
                                                            ref_params):
    # The laplace dump's refusal of a singular boundary system, forced on the
    # README set at u = 1, is one model error that names the evaluation once.
    monkeypatch.setattr("triporo.model.SINGULAR_TOL", 10.0)
    assert run_laplace(tmp_path, ref_params, {"u_values": 1.0}) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("model error: boundary system singular")
    assert err.count("(u=1.0, params=") == 1
