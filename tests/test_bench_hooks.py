"""The benchmark's traced runs patch netcent functions by name
(``perfbench/spans.py``); renaming or deleting one breaks every traced
run, so installing the patches is checked here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_spans_install_on_netcent():
    paths = [ROOT / "src", ROOT / "perfbench", os.environ.get("PYTHONPATH")]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(str(p) for p in paths if p)}
    done = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
