"""hwcost benchmark: the two user paths of the paper, end to end and per layer.

    python3 perfbench/run.py --workload fit-small|fit-large|search --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads run the same `hwcost.cli.main` calls a user types, in-process, on
inputs generated from --seed. `--trace 0` measures the end-to-end metrics
named in BENCHMARK.json; `--trace 1` runs the same work once untraced and once
with every public hwcost function wrapped (tracer.py) and reports the
per-layer metrics. Every run checks the program's outputs, prints a report
naming all end-to-end metrics of the workload, writes it to
perfbench/_out/results/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))
# hwcost's hot loops are single-threaded Python over small matrices; on a
# 2-vCPU machine a second OpenBLAS thread made `fit` 5-25% slower in paired
# runs (19.5-23.7 s against 18.3-18.7 s), so runs use one BLAS thread unless
# told otherwise. The environment record reports the count in effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import inputs  # noqa: E402  (the benchmark's own module, next to this file)

WORKLOADS = ("fit-small", "fit-large", "search")
# A measured run repeats rounds of fixed commands: fit-*, the six single-model
# fits; search, a gated and a free `optimize` per BO seed. rounds: the least
# number of rounds (more follow while one more still ends before --seconds);
# a traced run does one round in each pass.
SIZES = {
    "full": {
        "fit-small": {"train": 40, "profiles": 5, "held_out": 100, "nets": 36, "folds": 3,
                      "rounds": 1},
        "fit-large": {"train": 400, "profiles": 2, "held_out": 100, "nets": 36, "folds": 3,
                      "rounds": 1},
        "search": {"profiled": 60, "budget": 100, "bo_seeds": 2, "rounds": 2},
    },
    # self-test size: every code path, a few seconds per workload
    "tiny": {
        "fit-small": {"train": 8, "profiles": 2, "held_out": 10, "nets": 3, "folds": 2,
                      "rounds": 2},
        "fit-large": {"train": 12, "profiles": 2, "held_out": 10, "nets": 3, "folds": 2,
                      "rounds": 2},
        "search": {"profiled": 20, "budget": 12, "bo_seeds": 1, "rounds": 2},
    },
}
SETUP_REPEATS = 7
GATE_FACTOR = 1.01
N_SEED = 4  # bo_run seeds 2 * dim points before its first proposal

# wrappers each workload must see called at least once in a traced run
EXPECTED_CALLS = {
    "fit": ("synth.generate_csv", "polyreg.read_profile_csv", "cli.fit",
            "polyreg.fit_with_metrics.conv", "polyreg.fit_with_metrics.fc",
            "polyreg.fit_with_metrics.pool", "polyreg.model_to_json", "cli.predict",
            "netgraph.parse_network", "polyreg.model_from_json", "polyreg.predict_network",
            "analytic.parse_device_spec", "analytic.paleo_network_runtime",
            "analytic.parse_energy_spec", "analytic.eyeriss_network_energy",
            "polyreg.evaluate", "seeding.kfold_indices"),
    "search": ("cli.sample", "linmod.offline_sample", "cli.fit-linear",
               "linmod.read_profiled_csv", "linmod.fit_linear", "cli.optimize",
               "objectives.build_objective", "objectives.eval", "bayesopt.bo_run",
               "bayesopt.GPState.fit", "bayesopt.propose_next", "bayesopt.draw_candidates",
               "bayesopt.gp_posterior_batch", "bayesopt.ei_batch", "bayesopt.hw_ieci_batch",
               "bayesopt.ei_value", "bayesopt.ConstraintSpec.predict", "linmod.predict",
               "bayesopt.update", "seeding.generator"),
}


class Ledger:
    """Attempted and failed operations: every CLI command and every output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


class Hwcost:
    """Runs `hwcost <argv>` through cli.main, capturing stdout, as a ledger entry."""

    def __init__(self, ledger: Ledger | None, tracer=None):
        from hwcost import cli
        self.cli = cli
        self.ledger = ledger
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # the CLI contract maps every error to an exit code
            traceback.print_exc()
            code = -1
        if self.ledger is not None:
            shown = " ".join(a.replace(f"{OUT}{os.sep}", "") for a in argv)
            self.ledger.check(code == 0, f"hwcost {shown} exited {code}")
        return code, out.getvalue()


def _calibration_inputs():
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 30))
    return a @ a.T + 30.0 * np.eye(30), rng.standard_normal(30)


_CALIBRATION = None
# the calibration loop's time on the 2-vCPU development host in a quiet moment
# (the fastest of several hundred timings); it only scales the calibrated times
QUIET_LOOP_S = 0.011
# the loop run at each objective evaluation: about a millisecond on a quiet host
STEP_SWEEPS = 20


def calibration_loop_s(sweeps: int = 200) -> float:
    """Wall time of 200 sweeps of a fixed loop of the kind that dominates
    hwcost: cyclic coordinate descent in Python over a 30x30 Gram matrix, one
    small numpy dot product per coordinate. Fewer sweeps are timed and scaled
    up. It does not touch hwcost, so its time moves with the host's speed only."""
    global _CALIBRATION
    if _CALIBRATION is None:
        _CALIBRATION = _calibration_inputs()
    gram, corr = _CALIBRATION
    beta = gram[0] * 0.0
    started = time.perf_counter()
    for _ in range(sweeps):
        for j in range(30):
            rho = corr[j] - gram[j] @ beta + gram[j, j] * beta[j]
            beta[j] = math.copysign(max(abs(rho) - 0.1, 0.0), rho) / gram[j, j]
    return (time.perf_counter() - started) * 200 / sweeps


class Timeline:
    """Each timed command of a run, with the calibration loop timed right
    before and right after it: (unit, seconds, loop before, loop after)."""

    def __init__(self):
        self.rows: list[tuple[str, float, float, float]] = []
        self._last = calibration_loop_s()

    def record(self, unit: str, seconds: float) -> None:
        after = calibration_loop_s()
        self.rows.append((unit, seconds, self._last, after))
        self._last = after


class ObjectiveClock:
    """Stamps each objective evaluation, by wrapping what cli.build_objective
    returns, and times a short calibration loop there first: (loop start,
    loop seconds) in `loops`, the loop's end in `stamps`."""

    def __init__(self, cli):
        self.cli = cli
        self.stamps: list[float] = []
        self.loops: list[tuple[float, float]] = []

    def __enter__(self):
        self._original = self.cli.build_objective

        def build(*args, **kwargs):
            objective = self._original(*args, **kwargs)

            def stamped(x):
                started = time.perf_counter()
                self.loops.append((started, calibration_loop_s(STEP_SWEEPS)))
                self.stamps.append(time.perf_counter())
                return objective(x)
            return stamped
        self.cli.build_objective = build
        return self

    def __exit__(self, *exc):
        self.cli.build_objective = self._original


# --- helpers -------------------------------------------------------------------

def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# total row column(s) of each predict family and their per-layer sums
_PREDICT_TOTALS = {"poly": (2, 4), "paleo": (4,), "energy": (3,)}


def predict_output_ok(family: str, text: str) -> bool:
    """Every cell finite, and each total equals the sum of its layer rows."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if len(rows) < 3 or rows[-1][0] != "total":
        return False
    layers = rows[1:-1]
    try:
        numbers = [[float(c) for c in row[1:] if c and c not in ("conv", "fc", "pool")]
                   for row in rows[1:]]
        if not all(_finite(r) for r in numbers):
            return False
        for col in _PREDICT_TOTALS[family]:
            total = float(rows[-1][col])
            parts = sum(float(row[col]) for row in layers)
            if not math.isclose(total, parts, rel_tol=1e-5, abs_tol=1e-12):
                return False
    except (ValueError, IndexError):
        return False
    return True


def _weights(path: Path) -> list[float]:
    return [float(w) for w in json.loads(path.read_text())["weights"]]


def feasible_optimum(power_w: list[float]) -> float:
    """min (x1-1)^2 + (x2-1)^2 subject to power_w . x <= budget: the distance
    of the centre to the budget line, squared (the projection stays in the box
    for the generator used here)."""
    excess = sum(w * c for w, c in zip(power_w, inputs.CENTER)) - inputs.POWER_BUDGET
    return max(excess, 0.0) ** 2 / sum(w * w for w in power_w)


def _digest(parts: list[bytes]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(hashlib.sha256(part).digest())
    return sha.hexdigest()


# --- fit workloads ---------------------------------------------------------------

def held_out_rmspe(ledger: Ledger, models: Path, held_out: Path) -> float:
    """Mean held-out RMSPE (%) of the six fitted models."""
    from hwcost import polyreg
    from hwcost.netgraph import LayerKind
    values = []
    try:
        samples = polyreg.read_profile_csv(held_out.read_text())
        for kind in LayerKind:
            for target in polyreg.Target:
                model = polyreg.model_from_json(
                    (models / f"model_{kind.value}_{target.value}.json").read_text())
                pairs = [(s.layer, getattr(s, target.value)) for s in samples
                         if s.layer.kind is kind]
                values.append(polyreg.evaluate(model, pairs).rmspe)
    except (OSError, ValueError, KeyError) as exc:
        ledger.check(False, f"held-out evaluation failed: {exc!r}")
        return math.nan
    ledger.check(len(values) == 6 and _finite(values), "six finite held-out RMSPEs")
    return statistics.fmean(values)


def predict_sweep(hw: Hwcost, ledger: Ledger, inp: dict, models: Path,
                  latencies_ms: list[float], outputs: list[bytes]) -> None:
    extra = {"poly": ["--models-dir", str(models)], "paleo": ["--device", str(inp["device"])],
             "energy": ["--energy", str(inp["energy"])]}
    for net in inp["nets"]:
        for family, args in extra.items():
            started = time.perf_counter()
            code, out = hw(["predict", str(net), "--family", family, *args, "--format", "csv"])
            latencies_ms.append((time.perf_counter() - started) * 1e3)
            outputs.append(out.encode())
            if code == 0:
                ledger.check(predict_output_ok(family, out),
                             f"predict {family} {net.name}: finite rows summing to the total")


def _calibrated(rows: list[tuple]) -> dict:
    """Time of each command, or step of one, at the host's quiet speed: its
    seconds times QUIET_LOOP_S over the mean of the calibration loop timed
    right before and right after it, the median over its repeats. Rows are
    (key, seconds, loop before, loop after)."""
    scaled: dict = {}
    for unit, seconds, before, after in rows:
        scaled.setdefault(unit, []).append(seconds * QUIET_LOOP_S / ((before + after) / 2))
    return {unit: statistics.median(values) for unit, values in scaled.items()}


def fit_pass(hw: Hwcost, ledger: Ledger, inp: dict, d: Path, seed: int, size: dict,
             deadline: float | None, min_rounds: int, corrupt: bool, timeline: Timeline,
             between=lambda: None) -> dict:
    """Rounds of the six single-model fits of every training profile (at least
    `min_rounds`, more while another still ends before the deadline) ->
    held-out evaluation and one predict sweep with the first profile's models.
    Every rerun of a fit must reproduce its first byte for byte."""
    units = {f"p{k}.{name}": (k, name, profile)
             for k, parts in enumerate(inp["train"]) for name, profile in parts.items()}
    times: dict[str, list[float]] = {unit: [] for unit in units}
    first: dict[str, list[bytes]] = {}
    rounds, round_s = 0, 0.0
    while rounds < min_rounds or (
            deadline is not None and time.perf_counter() + round_s < deadline):
        round_started = time.perf_counter()
        for unit, (k, name, profile) in units.items():
            models = d / "models" / f"p{k}"
            argv = ["fit", str(profile), "--seed", str(inputs.train_seed(seed, k)),
                    "--folds", str(size["folds"]), "--output-dir", str(models),
                    "--format", "csv"]
            started = time.perf_counter()
            code, out = hw(argv)
            times[unit].append(time.perf_counter() - started)
            timeline.record(unit, times[unit][-1])
            between()
            model = models / f"model_{name}.json"
            produced = [out.encode(), model.read_bytes() if model.exists() else b""]
            if rounds == 0:
                ledger.check(code == 0 and model.exists(), f"fit {unit} wrote its model file")
                first[unit] = produced
            else:
                ledger.check(produced == first[unit],
                             f"fit {unit} rerun reproduced its outputs byte for byte")
        round_s = time.perf_counter() - round_started
        rounds += 1
    models = d / "models" / "p0"
    outputs = [part for unit in sorted(first) for part in first[unit]]
    rows = [row for unit in sorted(first) if unit.startswith("p0.")
            for row in csv.DictReader(io.StringIO(first[unit][0].decode()))]
    try:
        cv = [float(r["cv_rmspe_pct"]) for r in rows]
        terms = sum(int(r["size"]) for r in rows)
    except (KeyError, ValueError):
        cv, terms = [], 0
    ledger.check(len(cv) == 6 and _finite(cv), "fit printed six finite CV RMSPEs")
    if corrupt:
        for path in models.glob("model_*.json"):
            path.write_text(path.read_text()[:40])
    heldout = held_out_rmspe(ledger, models, inp["held_out"])

    latencies: list[float] = []
    sweep_started = time.perf_counter()
    predict_sweep(hw, ledger, inp, models, latencies, outputs)
    sweep_s = time.perf_counter() - sweep_started
    profiles = len(inp["train"])
    return {"fit_s": sum(_calibrated(timeline.rows).values()) / profiles,
            "fit_raw_s": sum(statistics.median(ts) for ts in times.values()) / profiles,
            "rounds": rounds,
            "cv_rmspe_pct": statistics.fmean(cv) if cv else math.nan,
            "heldout_rmspe_pct": heldout, "model_terms": terms,
            "predict_nets_per_s": len(inp["nets"]) / sweep_s,
            "predict_ms": latencies, "digest": _digest(outputs)}


# --- search workload -------------------------------------------------------------

def _feasible(x) -> bool:
    """Post-hoc feasibility under the generator the constraint models were fitted to."""
    return (sum(w * v for w, v in zip(inputs.POWER_WEIGHTS, x)) <= inputs.POWER_BUDGET
            and sum(w * v for w, v in zip(inputs.MEMORY_WEIGHTS, x)) <= inputs.MEMORY_BUDGET)


def optimize_run(hw: Hwcost, ledger: Ledger, clock: ObjectiveClock, inp: dict, out: Path,
                 bo_seed: int, budget: int, gated: bool) -> dict:
    argv = ["optimize", str(inp["space"]), "--objective", "quadratic", "--center", "1,1",
            "--budget", str(budget), "--seed", str(bo_seed), "--output-dir", str(out)]
    if gated:
        argv += ["--power-model", str(inp["power_model"]),
                 "--memory-model", str(inp["memory_model"]),
                 "--power-budget", repr(inputs.POWER_BUDGET),
                 "--memory-budget", repr(inputs.MEMORY_BUDGET)]
    clock.stamps, clock.loops = [], []
    started = time.perf_counter()
    code, _ = hw(argv)
    ended = time.perf_counter()
    begins = [b for b, _ in clock.loops]
    loops = [loop for _, loop in clock.loops]
    gaps = [(b - a) * 1e3 for a, b in zip(clock.stamps[N_SEED - 1:], begins[N_SEED:])]
    # the run cut at each objective evaluation, calibration loops left out:
    # (seconds, loop before, loop after) from the start to the first evaluation,
    # between consecutive evaluations, and from the last to the end
    cuts = [b - a for a, b in zip([started, *clock.stamps], [*begins, ended])]
    around = list(zip(loops[:1] + loops, loops + loops[-1:]))
    result = {"wall_s": ended - started,
              "steps": [(t, *pair) for t, pair in zip(cuts, around)] if loops else [],
              "gaps_ms": gaps, "iters_to_gate": budget + 1,
              "bo_rows": 0, "fallbacks": 0, "outputs": []}
    if code != 0:
        return result
    try:
        records = list(csv.DictReader(io.StringIO((out / "trace.csv").read_text())))
        best_y = json.loads((out / "summary.json").read_text())["best_y"]
        result["outputs"] = [(out / "trace.csv").read_bytes(),
                             (out / "summary.json").read_bytes()]
        _check_trace(ledger, result, records, best_y, budget, len(gaps), gated,
                     f"optimize seed {bo_seed} ({'gated' if gated else 'free'})")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ledger.check(False, f"optimize seed {bo_seed}: malformed outputs: {exc!r}")
    return result


def _check_trace(ledger: Ledger, result: dict, records: list[dict], best_y, budget: int,
                 n_gaps: int, gated: bool, what: str) -> None:
    ledger.check(len(records) == budget and n_gaps == budget - N_SEED,
                 f"{what}: {budget} trace rows and evaluations")
    opt = feasible_optimum(inputs.POWER_WEIGHTS)
    floor = opt * (1.0 - 1e-9)
    bo_rows = [r for r in records if int(r["iter"]) > N_SEED]
    if gated:
        # criterion 5: a proposal with positive acquisition is never a fallback,
        # so it must be predicted feasible
        ledger.check(all(r["feasible"] == "true" for r in bo_rows if float(r["acq"]) > 0.0),
                     f"{what}: no non-fallback proposal predicted infeasible")
        ledger.check(best_y is not None and best_y >= floor,
                     f"{what}: best feasible y >= the feasible optimum")
        feasible = [r["feasible"] == "true" for r in records]
        result["fallbacks"] = sum(1 for r in bo_rows if float(r["acq"]) == 0.0)
        result["bo_rows"] = len(bo_rows)
    else:
        feasible = [_feasible((float(r["x1"]), float(r["x2"]))) for r in records]
        ys = [float(r["y"]) for r, ok in zip(records, feasible) if ok]
        ledger.check(bool(ys) and min(ys) >= floor,
                     f"{what}: best post-hoc feasible y >= the feasible optimum")
    for r, ok in zip(records, feasible):
        if ok and float(r["y"]) <= GATE_FACTOR * opt:
            result["iters_to_gate"] = int(r["iter"])
            break


def fitted_weights_ok(inp: dict) -> bool:
    """fit-linear recovered the noise-free generator (criterion 8's tolerance)."""
    try:
        fitted = (_weights(inp["power_model"]), _weights(inp["memory_model"]))
    except (OSError, ValueError, KeyError):
        return False
    truth = (inputs.POWER_WEIGHTS, inputs.MEMORY_WEIGHTS)
    return all(len(f) == len(t) and all(abs(a - b) <= 1e-6 for a, b in zip(f, t))
               for f, t in zip(fitted, truth))


def search_pass(hw: Hwcost, ledger: Ledger, inp: dict, d: Path, seed: int, size: dict,
                deadline: float | None, min_rounds: int, corrupt: bool, timeline: Timeline,
                between=lambda: None) -> dict:
    """Rounds of a gated and a free run per BO seed (at least `min_rounds`, more
    while another still ends before the deadline). Every rerun must reproduce
    its first byte for byte; quality and digest come from the first round."""
    if corrupt:
        inp["power_model"].write_text(inp["power_model"].read_text()[:40])
    ledger.check(fitted_weights_ok(inp), "fit-linear recovered the generator weights")
    units = [(inputs.bo_seed(seed, i), gated)
             for i in range(size["bo_seeds"]) for gated in (True, False)]
    runs: dict[tuple, list[dict]] = {unit: [] for unit in units}
    outputs = [inp["power_model"].read_bytes(), inp["memory_model"].read_bytes()]
    rounds, round_s = 0, 0.0
    with ObjectiveClock(hw.cli) as clock:
        while rounds < min_rounds or (
                deadline is not None and time.perf_counter() + round_s < deadline):
            round_started = time.perf_counter()
            for bo_seed, gated in units:
                mode = "gated" if gated else "free"
                run = optimize_run(hw, ledger, clock, inp, d / f"opt_{bo_seed}_{mode}",
                                   bo_seed, size["budget"], gated)
                timeline.record(f"{bo_seed}_{mode}", run["wall_s"])
                between()
                if rounds == 0:
                    outputs += run["outputs"]
                else:
                    ledger.check(run["outputs"] == runs[bo_seed, gated][0]["outputs"],
                                 f"optimize seed {bo_seed} ({mode}) rerun reproduced "
                                 f"its outputs byte for byte")
                runs[bo_seed, gated].append(run)
            round_s = time.perf_counter() - round_started
            rounds += 1
    # a run of seconds is calibrated step by step, each step (tens of
    # milliseconds) by the loops timed right around it
    steps = _calibrated([((unit, j), *step) for unit, rs in runs.items()
                         for r in rs for j, step in enumerate(r["steps"])])
    best = {unit: sum(t for (of, _), t in steps.items() if of == unit) for unit in runs}
    firsts = {unit: rs[0] for unit, rs in runs.items()}
    gated_q = [r for (_, gated), r in firsts.items() if gated]
    free_q = [r for (_, gated), r in firsts.items() if not gated]
    bo_rows = sum(r["bo_rows"] for r in gated_q)
    return {
        "search_gated_s": statistics.fmean(t for (_, g), t in best.items() if g),
        "search_free_s": statistics.fmean(t for (_, g), t in best.items() if not g),
        "iter_ms": [g for rs in runs.values() for r in rs for g in r["gaps_ms"]],
        "iters_to_gate_median": statistics.median(r["iters_to_gate"] for r in gated_q),
        "posthoc_iters_to_gate_median": statistics.median(r["iters_to_gate"] for r in free_q),
        "fallback_frac": sum(r["fallbacks"] for r in gated_q) / bo_rows if bo_rows else 0.0,
        "rounds": rounds,
        "digest": _digest(outputs),
    }


# --- environment -----------------------------------------------------------------

def _blas_threads() -> str:
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "unknown"))


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int, size: dict) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": np.__version__, "blas": blas_name, "blas_threads": _blas_threads(),
           "git_commit": _git_commit(), "seed": seed}
    if workload == "search":
        env["bo_seeds"] = [inputs.bo_seed(seed, i) for i in range(size["bo_seeds"])]
    else:
        env["held_out_seed"] = inputs.held_out_seed(seed)
    return env


# --- runs ------------------------------------------------------------------------

def setup_probe(workload: str, seed: int, size_name: str, d: Path) -> float:
    """One set-up in a fresh interpreter: hwcost imports plus input generation."""
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                           "--seed", str(seed), "--size", size_name, "--setup-probe", str(d)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _work(workload: str, hw: Hwcost, ledger: Ledger, inp: dict, d: Path, seed: int,
          size: dict, deadline: float | None, rounds: int, corrupt: bool = False,
          timeline: Timeline | None = None, between=lambda: None) -> dict:
    """One measured pass of at least `rounds` rounds; `between` runs after each
    timed command."""
    work = search_pass if workload == "search" else fit_pass
    return work(hw, ledger, inp, d, seed, size, deadline, rounds, corrupt,
                timeline or Timeline(), between)


def measure(workload: str, seed: int, seconds: float, size_name: str, d: Path,
            ledger: Ledger, corrupt: bool) -> tuple[dict, dict]:
    """Untraced run: (BENCHMARK.json end-to-end metrics, every named metric)."""
    size = SIZES[size_name][workload]
    setups: list[float] = []

    def probe(due: bool = True):
        # set-ups are spread evenly over the measured time, between commands,
        # so that they meet the host in the phases its calibration loops do
        if len(setups) < SETUP_REPEATS and (
                not due or time.perf_counter() >= started + len(setups) * seconds / SETUP_REPEATS):
            where = d / f"probe{len(setups)}"
            setups.append(setup_probe(workload, seed, size_name, where))
            shutil.rmtree(where, ignore_errors=True)

    hw = Hwcost(ledger)
    inp = inputs.setup(hw, workload, d / "inputs", seed, size)
    started = time.perf_counter()
    timeline = Timeline()
    res = _work(workload, hw, ledger, inp, d, seed, size, started + seconds, size["rounds"],
                corrupt, timeline, probe)
    while len(setups) < SETUP_REPEATS:
        probe(due=False)
    # set-ups run in fresh interpreters, so they are scaled by the run's median
    # loop, not by loops right around each: the median set-up at the quiet speed
    loops = [loop for row in timeline.rows for loop in row[2:]]
    named = {"setup_s": statistics.median(setups) * QUIET_LOOP_S / statistics.median(loops),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if workload == "search":
        named.update({k: res[k] for k in ("search_gated_s", "search_free_s",
                                           "iters_to_gate_median",
                                           "posthoc_iters_to_gate_median")})
        named["search_iter_ms_p50"] = _quantile(res["iter_ms"], 50)
        named["search_iter_ms_p90"] = _quantile(res["iter_ms"], 90)
        e2e = {"command_s": (res["search_gated_s"] + res["search_free_s"]) / 2}
        samples = {"rounds": res["rounds"], "optimize_runs": 2 * size["bo_seeds"] * res["rounds"],
                   "bo_iterations": len(res["iter_ms"])}
    else:
        named.update({k: res[k] for k in ("fit_s", "cv_rmspe_pct", "heldout_rmspe_pct",
                                           "predict_nets_per_s")})
        e2e = {"command_s": res["fit_s"]}
        samples = {"rounds": res["rounds"], "fit_commands": len(timeline.rows),
                   "fit_raw_s": res["fit_raw_s"], "predict_commands": len(res["predict_ms"]),
                   "predict_ms_p50": _quantile(res["predict_ms"], 50),
                   "predict_ms_p90": _quantile(res["predict_ms"], 90)}
    e2e.update({k: named[k] for k in ("setup_s", "peak_rss_mb")})
    named["error_rate"] = ledger.failed / max(ledger.attempted, 1)
    samples["setup_raw_s"] = statistics.median(setups)
    return e2e, {"named": named, "samples": samples, "setup_runs_s": setups,
                 "timeline": timeline.rows,
                 "digest": res["digest"]}


def measure_traced(workload: str, seed: int, size_name: str, d: Path,
                   ledger: Ledger) -> tuple[dict, dict]:
    """The same fixed work untraced, then traced: per-layer metrics and overhead."""
    from tracer import Tracer
    size = SIZES[size_name][workload]
    tracer = Tracer()
    tracer.install()
    try:
        inp = inputs.setup(Hwcost(ledger, tracer), workload, d / "inputs", seed, size)
    finally:
        tracer.uninstall()
    started = time.perf_counter()
    plain = _work(workload, Hwcost(ledger), ledger, inp, d / "untraced", seed, size, None, 1)
    untraced_s = time.perf_counter() - started
    tracer.install()
    try:
        started = time.perf_counter()
        traced = _work(workload, Hwcost(ledger, tracer), ledger, inp, d / "traced", seed,
                       size, None, 1)
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    ledger.check(plain["digest"] == traced["digest"], "traced outputs equal untraced outputs")
    layers = tracer.summary()
    path = "search" if workload == "search" else "fit"
    for name in EXPECTED_CALLS[path]:
        ledger.check(layers.get(name, {}).get("calls", 0) > 0, f"wrapper {name} saw no call")
    special = {"polyreg.model_terms": traced.get("model_terms", 0),
               "bayesopt.fallback_frac": traced.get("fallback_frac", 0.0),
               "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0}
    return special, {"layers": layers, "untraced_s": untraced_s, "traced_s": traced_s,
                     "digest": traced["digest"]}


def per_layer_value(name: str, layers: dict, special: dict) -> float:
    if name in special:
        return special[name]
    base, _, field = name.rpartition(".")
    return layers.get(base, {}).get(field, 0)


NAMED_METRICS = (  # (name, unit, better, workloads)
    ("setup_s", "s", "lower", WORKLOADS),
    ("peak_rss_mb", "MB", "lower", WORKLOADS),
    ("error_rate", "ratio", "lower", WORKLOADS),
    ("fit_s", "s", "lower", ("fit-small", "fit-large")),
    ("cv_rmspe_pct", "%", "lower", ("fit-small", "fit-large")),
    ("heldout_rmspe_pct", "%", "lower", ("fit-small", "fit-large")),
    ("predict_nets_per_s", "1/s", "higher", ("fit-small", "fit-large")),
    ("search_gated_s", "s", "lower", ("search",)),
    ("search_free_s", "s", "lower", ("search",)),
    ("search_iter_ms_p50", "ms", "lower", ("search",)),
    ("search_iter_ms_p90", "ms", "lower", ("search",)),
    ("iters_to_gate_median", "iterations", "lower", ("search",)),
    ("posthoc_iters_to_gate_median", "iterations", "lower", ("search",)),
)


def print_named(named_by_workload: dict[str, dict]) -> None:
    cols = list(named_by_workload)
    print(f"{'metric':30s} {'unit':10s} {'better':6s} " + " ".join(f"{c:>12s}" for c in cols))
    for name, unit, better, _ in NAMED_METRICS:
        cells = []
        for c in cols:
            value = named_by_workload[c].get(name)
            cells.append(f"{value:12.6g}" if value is not None else f"{'-':>12s}")
        print(f"{name:30s} {unit:10s} {better:6s} " + " ".join(cells))


def run_one(args, spec: dict) -> int:
    d = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    ledger = Ledger()
    try:
        if args.trace:
            special, detail = measure_traced(args.workload, args.seed, args.size, d, ledger)
            metrics = {m["name"]: {"value": per_layer_value(m["name"], detail["layers"], special),
                                   "unit": m["unit"]} for m in spec["per_layer"]}
        else:
            e2e, detail = measure(args.workload, args.seed, args.seconds, args.size, d, ledger,
                                  args.corrupt)
            metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    env = environment(args.workload, args.seed, SIZES[args.size][args.workload])
    record = {"workload": args.workload, "trace": args.trace, "size": args.size,
              "seconds": args.seconds, "environment": env, "failures": ledger.failures,
              **detail, "result": result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        print(f"tracing overhead: traced {detail['traced_s']:.3f} s vs untraced "
              f"{detail['untraced_s']:.3f} s")
    else:
        print_named({args.workload: detail["named"]})
        print("samples: " + "  ".join(f"{k}={v}" for k, v in detail["samples"].items()))
    print(f"output digest: {detail['digest']}")
    print(f"checks: {ledger.attempted} attempted, {ledger.failed} failed")
    for failure in ledger.failures[:20]:
        print(f"  FAILED: {failure}")
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced, each in its own process, then one table."""
    named, code = {}, 0
    for workload in WORKLOADS:
        path = OUT / "results" / f"{workload}-s{args.seed}-t0.json"
        path.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0", "--size", args.size], cwd=ROOT, timeout=900)
        code = code or proc.returncode
        if path.exists():
            named[workload] = json.loads(path.read_text())["named"]
    print()
    if named:
        print_named(named)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: truncate the fitted models the run goes on to read")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hwcost" / "cli.py").is_file():
        print(f"hwcost sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        started = time.perf_counter()
        inputs.setup(Hwcost(None), args.workload, Path(args.setup_probe), args.seed,
                     SIZES[args.size][args.workload])
        print(time.perf_counter() - started)
        return 0
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
