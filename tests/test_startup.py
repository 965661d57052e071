"""Each command imports only the hwcost modules it runs.

A lazy import fails only when its command first runs, and a module-level
import puts its cost on every command, so each case runs one command in a
fresh interpreter and checks what it left in `sys.modules`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hwcost
from hwcost import cli

# runs `cli.main(argv)` (or only imports cli when argv is empty) and writes
# the exit code and the loaded module names to the file named first
PROBE = """
import json, sys
from hwcost import cli
code = cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
with open(sys.argv[1], "w") as f:
    json.dump({"code": code, "modules": sorted(sys.modules)}, f)
"""

SPACE = {"dimensions": [{"name": "x1", "kind": "continuous", "lo": 0.0, "hi": 1.0},
                        {"name": "x2", "kind": "continuous", "lo": 0.0, "hi": 1.0}],
         "structural": ["x1", "x2"]}
SCHEMA = {"dimensions": [{"name": "x1", "lo": 1, "hi": 16}, {"name": "x2", "lo": 1, "hi": 16}]}


def _mods(*names):
    return tuple(f"hwcost.{name}" for name in names)


# command -> (argv in directory d, modules it must not load)
CASES = {
    "import only": (lambda d: [], ("numpy",) + _mods("analytic", "bayesopt", "linmod",
                                                      "polyreg", "reference", "synth")),
    "sample": (lambda d: ["sample", d / "schema.json", "--count", 8, "--output-dir", d / "s"],
               _mods("bayesopt", "polyreg", "analytic", "synth")),
    "fit-linear": (lambda d: ["fit-linear", d / "profiled.csv", "--folds", 2,
                              "--output-dir", d / "fl"],
                   _mods("bayesopt", "polyreg", "analytic", "synth")),
    "synth": (lambda d: ["synth", "--count", 6, "--output-dir", d / "sy"],
              _mods("bayesopt", "linmod", "analytic")),
    "fit": (lambda d: ["fit", d / "synthetic_profile.csv", "--folds", 2,
                       "--output-dir", d / "fi"],
            _mods("bayesopt", "linmod", "analytic")),
    "predict paleo": (lambda d: ["predict", d / "net.txt", "--family", "paleo",
                                 "--device", d / "device.txt"], ("numpy",)),
    "predict energy": (lambda d: ["predict", d / "net.txt", "--family", "energy",
                                  "--energy", d / "energy.txt",
                                  "--accesses", d / "accesses.txt"], ("numpy",)),
    "compare-reference": (lambda d: ["compare-reference"], ("numpy",)),
    "version": (lambda d: ["--version"], ("numpy",)),
    "optimize": (lambda d: ["optimize", d / "space.json", "--budget", 4, "--candidates", 16,
                            "--power-model", d / "models" / "linear_power.json",
                            "--memory-model", d / "models" / "linear_memory.json",
                            "--power-budget", 100, "--memory-budget", 100,
                            "--output-dir", d / "opt"],
                 _mods("polyreg", "analytic", "synth")),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Every input the cases read, written in-process."""
    d = tmp_path_factory.mktemp("startup")
    (d / "net.txt").write_text("c1 conv in=1x3x8x8 k=3x3 p=1 out=4\np1 pool k=2x2\nf1 fc out=10\n")
    (d / "device.txt").write_text("peak_flops = 1e12\nread_bandwidth = 4e9\n"
                                  "write_bandwidth = 2e9\n")
    (d / "energy.txt").write_text("e_mac = 1.5\nlevels = RF:0.5, DRAM:200\n")
    (d / "accesses.txt").write_text("c1 DRAM 300\n")
    (d / "space.json").write_text(json.dumps(SPACE))
    (d / "schema.json").write_text(json.dumps(SCHEMA))
    rows = ["x1,x2,power_w,memory_mb"]
    rows += [f"{a},{b},{0.5 * a + 2.0 * b},{3.0 * a + 0.25 * b}"
             for a in range(1, 5) for b in range(1, 5)]
    (d / "profiled.csv").write_text("\n".join(rows) + "\n")
    assert cli.main(["synth", "--count", "6", "--output-dir", str(d)]) == 0
    assert cli.main(["fit-linear", str(d / "profiled.csv"), "--folds", "2",
                     "--output-dir", str(d / "models")]) == 0
    return d


@pytest.mark.parametrize("case", list(CASES))
def test_command_loads_only_what_it_runs(work, tmp_path, case):
    argv, absent = CASES[case]
    report = tmp_path / "modules.json"
    src = str(Path(hwcost.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(report),
                           *(str(a) for a in argv(work))],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    assert result["code"] == 0, proc.stderr
    loaded = set(result["modules"])
    assert "hwcost.cli" in loaded
    assert not loaded & set(absent), sorted(loaded & set(absent))
