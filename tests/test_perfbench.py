"""The benchmark's smoke mode must keep running against the library: the
tracer wraps library functions by name, so a rename breaks it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["smoke_ok"] is True


def test_tracer_targets_resolve():
    """Every function the tracer wraps still exists under its name, so a
    rename fails here and not only in the slow smoke run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for modname, fname, *_ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(modname), fname)), \
            f"{modname}.{fname}"
