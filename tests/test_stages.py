"""Pins of stages of the per-u Laplace chain that no public output shows,
and refusals that no admissible input is known to reach, forced.  Only this
module and test_roots.py name the stages; ROADMAP items 2 and 3 delete them
and both modules."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from triporo import batch
from triporo.model import (ModelError, _mode, _unscale_weight, laplace_assembly,
                           solve_boundary)

from conftest import run_laplace


def _mode_both(alpha, m):
    """``_mode`` with kappa = 1, after checking that ``batch._mode_rows`` gives
    the same bits, or refuses where it raises."""
    with np.errstate(all="ignore"):
        rows = batch._mode_rows(np.array([alpha]), m, 1.0, 1.0, 1.0)
    *got, (refused,) = (v.tolist() for v in rows)
    try:
        expected = _mode(alpha, m, 1.0, 1.0, 1.0)
    except ModelError:
        assert refused
        raise
    assert not refused
    assert [v.hex() for (v,) in got] == [v.hex() for v in expected]
    return expected


def test_modal_rank_deficient_matrix_raises():
    # kappa = 1, x = 1: M(x) = diag(0, 0, -1) has rank 1, so every 2x2 minor
    # of the adjugate vanishes and no null direction is singled out.  d det/dx
    # is 0 there too, so no Newton step is taken.
    with pytest.raises(ModelError, match="rank < 2"):
        _mode_both(1.0, (1, 0, 0, 1, 0, 2))


# At alpha = 0.5 (x = 0.25) the first Newton step would take x below 0, so
# it is refused and x stays put.  Off a root the adjugate columns are not
# parallel, so the column chosen shows in (A, B).
@pytest.mark.parametrize("m, expected", [
    # d = 3; columns 2 and 1 tie (max |entry| 9) above column 0 (8);
    # column 2 = (0, -3, 9).
    ((-2.75, 0, 0, -2.75, 1, -2.75), (0.0 / 9.0, -3.0 / 9.0)),
    # d = 3; columns 1 and 0 tie (8) above column 2 (5); column 1 = (-5, 8, -1).
    ((-2.75, 2, 1, -2.75, 1, -2.75), (5.0, -8.0)),
    # d = -3; all three columns tie (9); column 2 = (9, 9, 9).
    ((3.25, 0, 3, 3.25, 3, 3.25), (1.0, 1.0)),
], ids=["cols-2-1", "cols-1-0", "all"])
def test_modal_column_ties_prefer_column_2_then_1(m, expected):
    assert _mode_both(0.5, m) == (0.5, *expected)


@pytest.mark.parametrize("m3, match", [
    # m3 = m5 = 0 decouples the vug; columns 1 and 0 tie (9) above column 2
    # (8), and column 1 = (-3, 9, 0).
    (0.0, "zero third component"),
    # Column 1 = (-3, 9, 1e-308): -3 / 1e-308 overflows.
    (1e-308, "normalization to C=1 overflows"),
], ids=["zero", "overflow"])
def test_modal_normalization_refusals(m3, match):
    with pytest.raises(ModelError, match=match):
        _mode_both(0.5, (-2.75, 1, m3, -2.75, 0, -2.75))


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


STAGE_NAMES = {"m_terms", "characteristic_coefficients", "solve_cubic_real", "_mode",
               "_mode_rows", "boundary_vectors", "solve_boundary", "_unscale_weight",
               "RootClassificationError", "RANK_TOL", "SINGULAR_TOL", "REPEAT_TOL",
               "RESIDUAL_TOL"}


def test_stage_names_only_in_the_stage_test_modules():
    # The other tests check the chain through its public outputs: no import,
    # reference or monkeypatch string such as "triporo.model.SINGULAR_TOL"
    # names a stage there, so that ROADMAP items 2 and 3 can delete the stages
    # with this module and test_roots.py.
    found = []
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        if path.name in ("test_roots.py", "test_stages.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = re.fullmatch(r"(?:triporo(?:\.\w+)*\.)?(\w+)", node.value)
                name = name and name.group(1)
            else:
                continue
            if name in STAGE_NAMES:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
