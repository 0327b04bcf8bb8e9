import os
import subprocess
import sys
from pathlib import Path

import triporo


def test_all_names_resolve():
    missing = [name for name in triporo.__all__ if not hasattr(triporo, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(triporo.__all__) == len(set(triporo.__all__))


def test_import_does_not_load_mpmath():
    # mpmath is imported by invert_mp only; a fresh interpreter shows it.
    src = str(Path(triporo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, triporo; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
