"""Checks of the benchmark itself: the gates, the tracer and compare.

Run from the checkout root: python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import tracing  # noqa: E402
import triporo  # noqa: E402
import triporo.cli  # noqa: E402
from workloads import (REL_TOL, GateError, LaplaceScan, ParamScan,  # noqa: E402
                       RefCurve, check_series)


@pytest.fixture(scope="module")
def ref(tmp_path_factory):
    wl = RefCurve(triporo, tmp_path_factory.mktemp("ref"), 0)
    out = wl.op(wl.next_input())
    return wl, out


def _rewrite_column(path: Path, col: int, row: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[row + 1].split(",")
    fields[col] = repr(edit(float(fields[col])))
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


def test_ref_curve_gate_passes_then_fails_on_perturbed_output(ref):
    wl, out = ref
    wl.check(None, out)
    _rewrite_column(out, 1, 50, lambda v: v * (1.0 + 10 * REL_TOL))
    with pytest.raises(GateError, match="golden"):
        wl.check(None, out)


@pytest.mark.parametrize("edit, match", [
    (lambda v: v[:-1], "values"),
    (lambda v: v[:3] + [math.nan] + v[4:], "finite"),
    (lambda v: v[:3] + [v[4], v[3]] + v[5:], "monotone"),
    (lambda v: v[:7] + [v[7] * (1 - 2 * REL_TOL)] + v[8:], "golden"),
])
def test_series_gate_rejects(edit, match):
    golden = [1.0 + 0.1 * i for i in range(20)]
    check_series(golden, golden)
    with pytest.raises(GateError, match=match):
        check_series(edit(list(golden)), golden)


def test_laplace_gate_counts_nonfinite_fields_and_checks_pw_bar(tmp_path):
    wl = LaplaceScan(triporo, tmp_path, 0)
    out = wl.op(wl.next_input())
    wl.check(None, out)
    assert wl.nonfinite_fields == 8
    _rewrite_column(out, 19, 500, lambda v: v * (1.0 + 10 * REL_TOL))
    with pytest.raises(GateError, match="golden"):
        wl.check(None, out)


def test_param_scan_matches_golden_for_default_seed(tmp_path):
    wl = ParamScan(triporo, tmp_path, 0)
    for _ in range(3):
        inp = wl.next_input()
        wl.check(inp, wl.op(inp))
    other = ParamScan(triporo, tmp_path, 7)
    assert other.golden is None


def test_tracer_counts_every_call_of_ref_curve(tmp_path):
    wl = RefCurve(triporo, tmp_path, 0)
    original = triporo.curves.invert
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert triporo.curves.invert is not original
        assert triporo.model.alpha_roots is triporo.roots.alpha_roots
        assert hasattr(triporo.model.alpha_roots, "__wrapped__")
        tracer.run_op(wl.op, wl.next_input())
    finally:
        tracer.uninstall()
    assert triporo.curves.invert is original
    assert triporo.inversion.invert is original
    metrics = tracing.layer_metrics(tracer, tracer.spans(), *tracing.calibrate(n=2000))
    expected = {"model.laplace_assembly": 1212, "roots.alpha_roots": 1212,
                "specfun.bessel_k0_scaled": 7272, "specfun.bessel_k1_scaled": 3636,
                "inversion.invert": 101, "model.LaplaceAssembly.wellbore_pressures": 1212,
                "cli.main": 1, "cli.cmd_laplace": 0}
    for name, calls in expected.items():
        assert metrics[f"{name}.calls"] == calls, name
    assert 0.95 < metrics["trace.accounted_frac"] < 1.05


def test_tracer_counts_errors_once_per_layer():
    tracer = tracing.Tracer(targets=(("model", "m_terms"),))
    tracer.install()
    try:
        with pytest.raises(ValueError):
            tracer.run_op(triporo.model.m_terms, triporo.TriplePorosityParams(
                0.02, 0.8, 0.75, 0.02, 1e-3, 1e-8, 1e-5), -1.0)
    finally:
        tracer.uninstall()
    assert tracer.errors["model"] == 1


@pytest.mark.parametrize("parent, change, better, expected", [
    ([100 + i % 3 for i in range(10)], [80 + i % 3 for i in range(10)], "lower", "GAIN"),
    ([100 + i % 3 for i in range(10)], [120 + i % 3 for i in range(10)], "lower", "REGRESSION"),
    ([100 + i % 3 for i in range(10)], [101 + i % 3 for i in range(10)], "lower", "no regression"),
    ([100, 140, 70, 130, 90, 60, 150, 100, 80, 120], [100] * 10, "lower", "UNRESOLVED"),
    ([100 + i % 3 for i in range(10)], [80 + i % 3 for i in range(10)], "higher", "REGRESSION"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1)[0] == expected


def test_compare_rejects_more_failures(tmp_path, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    for side, failed in (("parent", 0), ("change", 1)):
        for i in range(2):
            rec = {"workload": "ref_curve", "trace": 0, "attempted": 10, "failed": failed,
                   "started": f"2026-01-01T00:00:0{2 * i + (side == 'change')}",
                   "metrics": metrics}
            path = tmp_path / side / f"{i}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(rec), encoding="utf-8")
    assert compare.compare(str(tmp_path / "parent"), str(tmp_path / "change"), spec) == 1
    assert "REJECT" in capsys.readouterr().out


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ref_curve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
