import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import triporo

from conftest import PHYSICAL_KWARGS, REF_KWARGS, ini


def test_all_names_resolve():
    missing = [name for name in triporo.__all__ if not hasattr(triporo, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(triporo.__all__) == len(set(triporo.__all__))


def test_public_api_matches_readme():
    # The README's Library section names the public API, and nothing else,
    # in backticks outside its code block.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    names = {span for span in re.findall(r"`([^`\n]+)`", section)
             if span.isidentifier()}
    assert names == set(triporo.__all__)


def fresh_interpreter(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports this checkout's package."""
    src = str(Path(triporo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


def test_import_does_not_load_mpmath():
    # mpmath is a test-only dependency (the "test" extra of pyproject.toml),
    # so no module of the package may import it; a fresh interpreter that
    # imports the package and its command line shows it.
    proc = fresh_interpreter(
        "import sys, triporo, triporo.cli; print('mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Prints which of numpy, scipy and triporo.batch are loaded after each step:
# the import, three commands that evaluate nothing, and one Laplace
# evaluation; then whether the Bessel names are scipy's kernels themselves.
FIRST_EVALUATION = f"""
import contextlib, io, sys
def loaded():
    names = {{m.partition(".")[0] for m in sys.modules}} | set(sys.modules)
    return sorted(names & {{"numpy", "scipy", "triporo.batch"}})
import triporo, triporo.cli
from triporo import cli, specfun
print("import", loaded())
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
    after_help = loaded()
    code = cli.main(["dimensionless", "--config", sys.argv[1]])
print("help", after_help)
print("dimensionless", code, loaded())
print("config error", cli.main(["curve", "--config", sys.argv[2]]), loaded())
triporo.wellbore_pressure_laplace(triporo.TriplePorosityParams(**{REF_KWARGS!r}), 1.0)
from scipy.special import cython_special
print("bound", specfun.bessel_k0_scaled is cython_special.k0e,
      specfun.bessel_k1_scaled is cython_special.k1e)
"""


def test_scipy_is_imported_at_the_first_evaluation(tmp_path):
    # scipy (and numpy under it) cost most of a second to import; a command
    # that evaluates nothing must not pay it, and after the first evaluation
    # the names must be the kernels, with no Python frame per call.
    phys = tmp_path / "phys.ini"
    phys.write_text(ini("physical", PHYSICAL_KWARGS))
    unknown_key = tmp_path / "unknown.ini"
    unknown_key.write_text(ini("model", dict(REF_KWARGS, betaf=0.5)))
    proc = fresh_interpreter(FIRST_EVALUATION, str(phys), str(unknown_key))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import []", "help []", "dimensionless 0 []", "config error 1 []",
        "bound True True"]


# Counting wrappers replace both names before any evaluation, as a tracer
# does; prints the counts, whether the wrappers are still in place, then the
# value with and without them, and whether the restored names bind.
WRAPPED_BEFORE_FIRST_CALL = f"""
import triporo
from triporo import specfun
names = ("bessel_k0_scaled", "bessel_k1_scaled")
stand_ins = [getattr(specfun, name) for name in names]
calls = dict.fromkeys(names, 0)
def counting(name, func):
    def wrapper(x):
        calls[name] += 1
        return func(x)
    return wrapper
wrappers = [counting(name, func) for name, func in zip(names, stand_ins)]
for name, wrapper in zip(names, wrappers):
    setattr(specfun, name, wrapper)
params = triporo.TriplePorosityParams(**{REF_KWARGS!r})
wrapped = triporo.wellbore_pressure_laplace(params, 1.0)
print(*calls.values(), all(getattr(specfun, n) is w for n, w in zip(names, wrappers)))
for name, stand_in in zip(names, stand_ins):
    setattr(specfun, name, stand_in)
plain = triporo.wellbore_pressure_laplace(params, 1.0)
print(wrapped.hex(), plain.hex())
from scipy.special import cython_special
print(specfun.bessel_k0_scaled is cython_special.k0e,
      specfun.bessel_k1_scaled is cython_special.k1e)
"""


def test_names_wrapped_before_the_first_call_stay_wrapped(ref_params):
    # perfbench/tracing.py replaces the module's names with wrappers, maybe
    # before anything was evaluated; the first call must not overwrite them.
    proc = fresh_interpreter(WRAPPED_BEFORE_FIRST_CALL)
    assert proc.returncode == 0, proc.stderr
    counts, values, bound = proc.stdout.splitlines()
    assert counts == "6 3 True"
    here = triporo.wellbore_pressure_laplace(ref_params, 1.0).hex()
    assert values.split() == [here, here]
    assert bound == "True True"


# scipy made unimportable: a command that evaluates nothing still runs, and
# one that evaluates stops at the ImportError instead of a model error.
WITHOUT_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None
from triporo import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["dimensionless", "--config", sys.argv[1]])
print("dimensionless", code)
try:
    code = cli.main(["curve", "--config", sys.argv[2], "--out", sys.argv[3], "--quiet"])
except ImportError as exc:
    print(type(exc).__name__, exc.__cause__)
else:
    print("exit", code)
"""


def test_missing_scipy_is_an_import_error_not_a_model_error(tmp_path):
    phys = tmp_path / "phys.ini"
    phys.write_text(ini("physical", PHYSICAL_KWARGS))
    run = tmp_path / "run.ini"
    run.write_text(ini("model", REF_KWARGS) + ini("grid", dict(
        t_min=1.0, t_max=1e2, points_per_decade=2)))
    proc = fresh_interpreter(WITHOUT_SCIPY, str(phys), str(run),
                             str(tmp_path / "curve.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["dimensionless 0", "ModuleNotFoundError None"]
    assert proc.stderr == ""


def test_traced_benchmark_targets_exist(monkeypatch):
    # perfbench/tracing.py wraps these functions by name; one renamed or
    # deleted would otherwise show up only in a traced benchmark run.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    sys_path = list(sys.path)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert sys.path == sys_path
    missing = []
    for layer, name in tracing.TARGETS:
        obj = importlib.import_module(f"triporo.{layer}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{layer}.{name}")
    assert tracing.TARGETS and missing == []
