"""Commands that compute nothing must not import scipy or networkx.

Both libraries are imported where they are used (the LP/L-BFGS solvers,
the G-test, the causal graph), so ``import repro.cli`` and the commands
that only read a finished sweep -- a warm re-run, ``repro report``,
``repro doctor`` -- start in a fraction of the second those imports
cost.  Each probe runs in a fresh interpreter and lists the modules of
either library that the command left in ``sys.modules``; a module-level
import of either library anywhere on the CLI's import path fails it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PROBE = """
import json, sys
from repro.cli import main
out, argv = sys.argv[1], json.loads(sys.argv[2])
code = main(argv) if argv else 0
heavy = sorted(m for m in sys.modules
               if m.partition(".")[0] in ("scipy", "networkx"))
with open(out, "w") as fh:
    json.dump({"code": code, "heavy": heavy}, fh)
"""

# Hardt-eo solves an LP with scipy.optimize, so its cold computation
# loads scipy; reusing its cached cell must not.
SWEEP = ["sweep", "--dataset", "german", "--rows", "200",
         "--approach", "Hardt-eo", "--causal-samples", "100", "-q"]


def probe(tmp_path: Path, *argv: str) -> list[str]:
    """Run ``repro <argv>`` (just ``import repro.cli`` when empty) in a
    fresh interpreter; return the scipy/networkx modules it loaded."""
    out = tmp_path / "probe.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out), json.dumps(list(argv))],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["code"] == 0, proc.stdout + proc.stderr
    return result["heavy"]


def test_import_cli_loads_neither_library(tmp_path):
    assert probe(tmp_path) == []


def test_doctor_loads_neither_library(tmp_path):
    assert probe(tmp_path, "doctor") == []


@pytest.mark.parametrize("scheme,name", [("file", "cache"),
                                         ("sqlite", "cache.sqlite")])
def test_warm_sweep_and_report_load_neither_library(tmp_path, scheme, name):
    store = f"{scheme}:{tmp_path / name}"
    cold = probe(tmp_path, *SWEEP, "--store", store)
    assert any(m.startswith("scipy.optimize") for m in cold)
    assert probe(tmp_path, *SWEEP, "--store", store) == []
    assert probe(tmp_path, "report", "--store", store) == []
