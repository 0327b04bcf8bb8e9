import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import triporo


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


def test_import_does_not_load_mpmath():
    # mpmath is a test-only dependency (the "test" extra of pyproject.toml),
    # so no module of the package may import it; a fresh interpreter that
    # imports the package and its command line shows it.
    src = str(Path(triporo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, triporo, triporo.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
