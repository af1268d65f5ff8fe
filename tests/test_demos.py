"""Every demo script, and ``python -m sympdet``, runs against the package in src/,
with every warning an error (pytest's warning filter reaches no subprocess)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, tmp_path):
    proc = _run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path):
    proc = _run(["-m", "sympdet", "suite", "form-identities", "--trials", "2"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "suite: form-identities" in proc.stdout
    proc = _run(["-m", "sympdet", "suite", "real-theorem", "--trials", "2", "--n", "2",
                 "--tol", "1e-22"], tmp_path)  # membership gate below machine precision
    assert proc.returncode == 1, proc.stderr
    proc = _run(["-m", "sympdet", "suite", "no-such-suite"], tmp_path)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
