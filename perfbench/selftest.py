"""Self-test of the benchmark, at the tiny size (about three minutes).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, emits every BENCHMARK.json metric of
   its mode with its unit, and every named metric of the workload.
2. A truncated fitted model (fit-small) or constraint model (search) makes
   error_rate > 0, so the output checks fire.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import NAMED_METRICS, OUT, WORKLOADS  # noqa: E402


def _run(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args, "--seed", "1",
                           "--seconds", "1", "--size", "tiny"],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = _run(["--workload", workload, "--trace", str(trace)])
            result = _result(out)
            where = f"{workload} trace {trace}"
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics/units {got} != {expected}")
            if trace == 0:
                record = json.loads((OUT / "results" / f"{workload}-s1-t0.json").read_text())
                missing = [name for name, _, _, used in NAMED_METRICS
                           if workload in used and name not in record["named"]]
                if missing:
                    problems.append(f"{where}: named metrics missing: {missing}")

    for workload in ("fit-small", "search"):
        code, out = _run(["--workload", workload, "--trace", "0", "--corrupt"])
        result = _result(out)
        record = json.loads((OUT / "results" / f"{workload}-s1-t0.json").read_text())
        if code == 0 or result is None or result["failed"] == 0 \
                or record["named"]["error_rate"] <= 0:
            problems.append(f"{workload} --corrupt: exit {code}, result {result}: "
                            f"the checks did not fire")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = _run(["--workload", "fit-small", "--trace", "0"], cwd=bare)
    if code == 0 or _result(out) is not None:
        problems.append(f"bare directory: exit {code}, stdout {out!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
