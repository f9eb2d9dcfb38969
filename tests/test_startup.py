"""No entry point loads scipy, and no figure run loads ``numpy.ma``.

Importing scipy would more than double the start-up time and resident
memory of every process the CLI, ``--workers N``, ``repro-serve`` or the
benchmark starts (docs/PERFORMANCE.md, "Start-up").  The β polish is a
pure-Python port of scipy's bounded Brent method, and only the LU and
Cholesky numerical replays import scipy, when they are called.  A plain
``np.unique(x)`` imports ``numpy.ma`` (~13 ms) on its first call, so the
engine and the task pools deduplicate ids without it.  The test checks
module names in a fresh interpreter, not seconds, so it cannot flake on a
slow host.
"""

import json
import subprocess
import sys

from tests.test_docs import ROOT, SCRIPTS, _subprocess_env

STARTUP_MODULES = sorted({module for module, _ in SCRIPTS.values()} | {"repro.store.claims"})

CODE = """
import importlib, json, sys

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

for name in {modules!r}:
    importlib.import_module(name)
imported = loaded("scipy")
from repro.experiments.cli import main
code = main(["run", "fig06", "fig04", "--scale", "ci", "--quiet", "--outdir", {outdir!r}])
print(json.dumps({{"code": code, "import": imported, "run": loaded("scipy"), "ma": loaded("numpy.ma")}}))
"""


def test_entry_points_and_a_ci_figure_run_without_scipy(tmp_path):
    assert {"repro.experiments.cli", "repro.serve.cli", "repro.store.claims"} <= set(STARTUP_MODULES)
    code = CODE.format(modules=STARTUP_MODULES, outdir=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    assert report["import"] == []
    assert report["run"] == []
    assert report["ma"] == []
    assert (tmp_path / "fig06_ci.csv").is_file()
    assert (tmp_path / "fig04_ci.csv").is_file()
