"""numpy is loaded by the first finite-field sweep, not by `import postlie`.

The checks run in fresh interpreters, since this process has numpy
loaded already.  A module named `numpy.<something>` in `sys.modules`
means that numpy itself has run: a lazily bound `numpy` may sit there
unexecuted, its submodules may not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import postlie

# the directory that holds the imported package, for the child processes
PACKAGE_ROOT = str(Path(postlie.__file__).resolve().parent.parent)

SCRIPT = r"""
import contextlib, io, json, sys
first = None
if sys.argv[1] == "numpy-first":
    import numpy as first
import postlie, postlie.cli, postlie.fpkernel
from postlie import fpkernel


def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return postlie.cli.main(argv)


doc = sys.argv[2]
report = {"names": [fpkernel.NAME, fpkernel.BACKEND, postlie.KERNEL_BACKEND,
                    [b.NAME for b in fpkernel.backends()]]}
report["codes"] = [run(["catalog", "export", "V5", "-o", doc])]
report["codes"] += [run([command, doc])
                    for command in ("check", "analyze", "embed", "audit")]
report["codes"].append(run(["catalog", "verify"]))
report["before_sweep"] = numpy_modules()
from postlie.catalog import builtin_algebra
from postlie.fields import GF
from postlie.search import phi_ansatz_sweep
report["indices"] = list(phi_ansatz_sweep(
    builtin_algebra("sl2", field=GF(3))).indices)
report["after_sweep"] = numpy_modules()
report["one_numpy"] = (fpkernel.np is sys.modules["numpy"]
                       and first in (None, fpkernel.np))
print(json.dumps(report))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _python(args, cwd):
    return subprocess.run([sys.executable] + args, cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=300,
                          check=False)


def _report(mode, tmp_path):
    proc = _python(["-c", SCRIPT, mode, str(tmp_path / "v5.json")],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_non_sweep_commands_never_load_numpy(tmp_path):
    report = _report("lazy", tmp_path)
    assert report["names"] == ["python", "python", "python", ["python"]]
    assert report["codes"] == [0, 0, 0, 0, 0, 0]
    assert report["before_sweep"] == []
    # the phi sweep of sl2 over GF(3) loads numpy and finds its hits
    assert len(report["indices"]) == 86
    assert report["after_sweep"] != []
    assert report["one_numpy"]


def test_sweep_hits_do_not_depend_on_when_numpy_loads(tmp_path):
    lazy = _report("lazy", tmp_path)
    first = _report("numpy-first", tmp_path)
    assert first["before_sweep"] != []
    assert first["one_numpy"]
    assert first["codes"] == lazy["codes"]
    assert first["indices"] == lazy["indices"]


def test_module_entry_point_exit_codes(tmp_path):
    doc = tmp_path / "v5.json"
    proc = _python(["-m", "postlie", "catalog", "export", "V5", "-o",
                    str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = _python(["-m", "postlie", "check", str(doc)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout
    proc = _python(["-m", "postlie", "check", str(tmp_path / "missing.json")],
                   tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error:")
