import csv
import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hwcost import __version__, cli, linmod, polyreg, synth
from hwcost.netgraph import LayerKind

NETWORK_SPEC = """
c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4
p1 pool k=2x2 s=2
f1 fc out=10
"""

DEVICE_SPEC = """
peak_flops = 1e12
read_bandwidth = 4e9
write_bandwidth = 4e9
ppp_compute = 1.0
ppp_io = 1.0
bytes_per_element = 4
"""

ENERGY_SPEC = """
e_mac = 1.0
levels = DRAM:100.0
bitwidth_reference = 16
"""

SPACE_SPEC = {
    "dimensions": [
        {"name": "x1", "kind": "continuous", "lo": 0.0, "hi": 1.0},
        {"name": "x2", "kind": "continuous", "lo": 0.0, "hi": 1.0},
    ],
    "structural": ["x1", "x2"],
}

SCHEMA_SPEC = {
    "dimensions": [
        {"name": "units1", "lo": 1, "hi": 64},
        {"name": "units2", "lo": 1, "hi": 64},
    ],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out == f"hwcost {__version__}\n"


def test_help_flag_returns_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: hwcost")


def test_compare_reference_values(capsys):
    code, out, _ = run(capsys, "compare-reference")
    assert code == 0
    assert "-6.13" in out and "+1.47" in out          # VGG-16
    assert "-15.02" in out and "+11.25" in out        # AlexNet
    assert "-9.83" in out and "+23.61" in out         # NIN
    assert "-42.06" in out and "-1.40" in out         # Overfeat
    assert "-42.60" in out and "+2.08" in out         # CIFAR10-6conv
    assert "39.97" in out and "1.019" in out          # CONV layer metrics echo
    assert "41.92" in out and "11.41" in out


def test_compare_reference_csv_format(capsys):
    code, out, _ = run(capsys, "compare-reference", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("network,paleo_ms,neuralpower_ms,actual_ms")
    assert lines[1].split(",")[0] == "VGG-16"


def test_synth_fit_predict_pipeline(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, "synth", "--count", "60", "--noise", "0.0",
                         "--seed", "11", "--output-dir", str(out_dir))
    assert code == 0, err
    csv_path = out_dir / "synthetic_profile.csv"
    assert csv_path.exists()
    assert (out_dir / "manifest.json").exists()

    code, out, err = run(capsys, "fit", str(csv_path), "--seed", "1",
                         "--output-dir", str(out_dir))
    assert code == 0, err
    models = sorted(p.name for p in out_dir.glob("model_*.json"))
    assert models == [
        "model_conv_power_w.json", "model_conv_runtime_ms.json",
        "model_fc_power_w.json", "model_fc_runtime_ms.json",
        "model_pool_power_w.json", "model_pool_runtime_ms.json",
    ]
    # outputs re-parse into valid models
    model = polyreg.model_from_json((out_dir / "model_fc_runtime_ms.json").read_text())
    assert model.layer_kind is LayerKind.FULLY_CONNECTED

    net = tmp_path / "net.txt"
    net.write_text(NETWORK_SPEC)
    code, out, err = run(capsys, "predict", str(net), "--family", "poly",
                         "--models-dir", str(out_dir))
    assert code == 0, err
    assert "total" in out


def test_fit_prints_the_minimum_of_the_cv_curve_it_chose_lambda_on(tmp_path, capsys,
                                                                   monkeypatch):
    """`cv_rmspe_pct` is the mean CV curve at the chosen lambda, the least
    value of the curve prefix the fold paths computed, and not the RMSPE of
    the folds' pooled predictions there, which differs from it."""
    curves, pooled = [], []
    cv_curves = polyreg._cv_curves

    def recorded(*args):
        curve, fold_preds, lambdas = cv_curves(*args)
        chosen = int(np.argmin(curve))
        curves.append(curve)
        pooled.append(polyreg._rmspe(np.concatenate([p[:, chosen] for p, _ in fold_preds]),
                                     np.concatenate([a for _, a in fold_preds])))
        return curve, fold_preds, lambdas

    monkeypatch.setattr(polyreg, "_cv_curves", recorded)
    run(capsys, "synth", "--count", "40", "--seed", "22", "--output-dir", str(tmp_path))
    code, out, err = run(capsys, "fit", str(tmp_path / "synthetic_profile.csv"),
                         "--output-dir", str(tmp_path), "--format", "csv")
    assert code == 0, err
    printed = [row["cv_rmspe_pct"] for row in csv.DictReader(out.splitlines())]
    assert printed == [f"{curve.min():.6g}" for curve in curves]
    assert all(value != f"{other:.6g}" for value, other in zip(printed, pooled))


def test_fit_empty_csv_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    code, _, err = run(capsys, "fit", str(bad))
    assert code == 1
    assert "error" in err


def _profile(tmp_path, counts):
    """A synthesized profile with `counts[kind]` rows of each kind."""
    samples = [s for kind, n in counts.items()
               for s in synth.generate_samples(synth.SynthConfig(count=n, kinds=(kind,)), 5)]
    path = tmp_path / "profile.csv"
    path.write_text(polyreg.write_profile_csv(samples))
    return path


def test_fit_skips_a_kind_below_twice_the_folds(tmp_path, capsys):
    csv_path = _profile(tmp_path, {LayerKind.CONV2D: 8, LayerKind.FULLY_CONNECTED: 5,
                                   LayerKind.POOL2D: 8})
    code, out, err = run(capsys, "fit", str(csv_path), "--folds", "3",
                         "--output-dir", str(tmp_path / "models"))
    assert code == 0, err
    for target in ("runtime_ms", "power_w"):
        assert f"warning: skipping fc/{target}: need at least 6 samples, got 5\n" in err
    assert sorted(p.name for p in (tmp_path / "models").glob("model_*.json")) == [
        "model_conv_power_w.json", "model_conv_runtime_ms.json",
        "model_pool_power_w.json", "model_pool_runtime_ms.json",
    ]
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["conv", "conv", "pool", "pool"]


def test_fit_skips_a_target_that_no_row_of_its_kind_measured(tmp_path, capsys):
    """Every pool row's power_w cell is blank: pool gets no power model, fit
    warns that it skips it, and the other five models are written."""
    csv_path = _profile(tmp_path, dict.fromkeys(LayerKind, 8))
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("".join((line.rpartition(",")[0] + "," if line.startswith("pool,")
                                 else line) + "\n" for line in lines))
    code, out, err = run(capsys, "fit", str(csv_path), "--folds", "3",
                         "--output-dir", str(tmp_path / "models"))
    assert code == 0, err
    assert err == "warning: skipping pool/power_w: no pool row measured power_w\n"
    assert sorted(p.name for p in (tmp_path / "models").glob("model_*.json")) == [
        "model_conv_power_w.json", "model_conv_runtime_ms.json", "model_fc_power_w.json",
        "model_fc_runtime_ms.json", "model_pool_runtime_ms.json",
    ]
    assert [line.split()[:2] for line in out.splitlines()[1:]] == [
        ["conv", "runtime_ms"], ["conv", "power_w"], ["fc", "runtime_ms"], ["fc", "power_w"],
        ["pool", "runtime_ms"]]


def test_fit_with_no_kind_large_enough_exits_1(tmp_path, capsys):
    csv_path = _profile(tmp_path, dict.fromkeys(LayerKind, 5))
    code, out, err = run(capsys, "fit", str(csv_path), "--folds", "3",
                         "--output-dir", str(tmp_path / "models"))
    assert code == 1
    assert out == ""
    assert err.count("warning: skipping") == 6
    assert "no (kind, target) had enough samples to fit" in err
    assert not list((tmp_path / "models").glob("model_*.json"))


@pytest.mark.parametrize("tiny", ["1e-300", "1e-320"])
def test_fit_skips_a_model_whose_tiny_measurement_overflows_its_cv_curve(tmp_path, capsys, tiny):
    """One runtime of 1e-300 or 1e-320 makes the pool runtime model's CV
    curve overflow: that model is skipped with one warning naming the
    sample, the other five are written, and no numpy warning leaks."""
    code, _, err = run(capsys, "synth", "--count", "40", "--noise", "0.05", "--seed", "21000",
                       "--output-dir", str(tmp_path / "synth"))
    assert code == 0, err
    lines = (tmp_path / "synth" / "synthetic_profile.csv").read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("kind,"))
    at = next(i for i, line in enumerate(lines) if line.startswith("pool,"))
    cells = lines[at].split(",")
    cells[11] = tiny
    lines[at] = ",".join(cells)
    (tmp_path / "tiny.csv").write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "fit", str(tmp_path / "tiny.csv"), "--folds", "3",
                             "--output-dir", str(tmp_path / "models"))
    assert code == 0 and not caught
    assert re.fullmatch(f"warning: skipping pool/runtime_ms: CV RMSPE is not finite: sample layer "
                        f"row{at - header + 1} measured {tiny}, against a median of [0-9.]+\n", err)
    assert [line.split()[:2] for line in out.splitlines()[1:]] == [
        ["conv", "runtime_ms"], ["conv", "power_w"], ["fc", "runtime_ms"], ["fc", "power_w"],
        ["pool", "power_w"]]
    assert "inf" not in out and "nan" not in out
    assert len(list((tmp_path / "models").glob("model_*.json"))) == 5


# runs `cli.main` on its arguments in a fresh interpreter, whose warnings print
# as a user sees them (pytest captures them); the profile read first warns with
# a RuntimeWarning, as a numpy warning would
WARNING_PROBE = """
import sys, warnings
from hwcost import cli, polyreg
read = polyreg.read_profile_csv
def read_and_warn(text):
    warnings.warn("a numpy-style warning", RuntimeWarning)
    return read(text)
polyreg.read_profile_csv = read_and_warn
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_prints_a_library_user_warning_as_one_warning_line(tmp_path, capsys):
    """`fit` on identical fc runtimes prints its UserWarning as one
    `warning:` line, with no source location; a RuntimeWarning still prints
    in Python's own format, so a leaked numpy warning stays visible."""
    assert cli.main(["synth", "--count", "6", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "synthetic_profile.csv").read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("fc,"):
            cells = line.split(",")
            cells[11] = "1.5"
            lines[i] = ",".join(cells)
    (tmp_path / "same.csv").write_text("\n".join(lines) + "\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", WARNING_PROBE, "fit", str(tmp_path / "same.csv"),
                           "--folds", "2", "--output-dir", str(tmp_path / "models")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    err = proc.stderr.splitlines()
    assert "warning: all fc runtime_ms targets identical; fitting a constant-only model" in err
    assert "UserWarning" not in proc.stderr
    runtime = [line for line in err if "RuntimeWarning" in line]
    assert len(runtime) == 1 and runtime[0].endswith(": RuntimeWarning: a numpy-style warning")


def test_a_fit_rerun_after_another_kinds_fit_writes_the_same_models(tmp_path, capsys):
    """Term tables are built once per process: a pool fit, a conv fit (other
    tables), then the pool fit again writes the first pool fit's bytes."""
    profiles = {}
    for kind in (LayerKind.POOL2D, LayerKind.CONV2D):
        (tmp_path / kind.value).mkdir()
        profiles[kind] = _profile(tmp_path / kind.value, {kind: 8})
    models = []
    for i, kind in enumerate((LayerKind.POOL2D, LayerKind.CONV2D, LayerKind.POOL2D)):
        code, _, err = run(capsys, "fit", str(profiles[kind]), "--folds", "3",
                           "--output-dir", str(tmp_path / f"models{i}"))
        assert code == 0, err
        models.append({p.name: p.read_bytes() for p in (tmp_path / f"models{i}").glob("model_*")})
    assert len(models[0]) == 2 and models[0] == models[2]


def test_malformed_kernel_exits_1_naming_its_line(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    net_path.write_text("c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4\np1 pool k=2xa s=2\n")
    dev_path = tmp_path / "device.txt"
    dev_path.write_text(DEVICE_SPEC)
    code, _, err = run(capsys, "predict", str(net_path), "--family", "paleo",
                       "--device", str(dev_path))
    assert code == 1
    assert "line 2" in err and "k=" in err


def test_predict_paleo_matches_module(tmp_path, capsys):
    from hwcost.analytic import paleo_network_runtime, parse_device_spec
    from hwcost.netgraph import parse_network

    net_path = tmp_path / "net.txt"
    net_path.write_text(NETWORK_SPEC)
    dev_path = tmp_path / "device.txt"
    dev_path.write_text(DEVICE_SPEC)
    code, out, err = run(capsys, "predict", str(net_path), "--family", "paleo",
                         "--device", str(dev_path), "--format", "csv")
    assert code == 0, err
    total_row = [line for line in out.splitlines() if line.startswith("total")][0]
    reported = float(total_row.split(",")[-1])
    expected = paleo_network_runtime(parse_network(NETWORK_SPEC),
                                     parse_device_spec(DEVICE_SPEC)).total_ms
    assert reported == pytest.approx(expected, rel=1e-5)


def test_predict_energy_reproduces_5100pj_example(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    net_path.write_text("f1 fc in=1x10x1x1 out=10\n")  # 100 MACs
    spec_path = tmp_path / "energy.txt"
    spec_path.write_text(ENERGY_SPEC)
    acc_path = tmp_path / "accesses.txt"
    acc_path.write_text("f1 DRAM 50\n")
    code, out, err = run(capsys, "predict", str(net_path), "--family", "energy",
                         "--energy", str(spec_path), "--accesses", str(acc_path),
                         "--format", "csv")
    assert code == 0, err
    total_row = [line for line in out.splitlines() if line.startswith("total")][0]
    assert float(total_row.split(",")[-1]) == 5100.0


@pytest.mark.parametrize("accesses, reason", [
    ("f1 DRAM 50\nf1 RF 5\n", "accesses line 2: no level 'RF' in the energy spec"),
    ("f1 DRAM -5\n", "accesses line 1: access count must be >= 0"),
], ids=["unknown level", "negative count"])
def test_predict_energy_names_the_accesses_line_of_a_bad_level_or_count(
        tmp_path, capsys, accesses, reason):
    net_path = tmp_path / "net.txt"
    net_path.write_text("f1 fc in=1x10x1x1 out=10\n")
    spec_path = tmp_path / "energy.txt"
    spec_path.write_text(ENERGY_SPEC)
    acc_path = tmp_path / "accesses.txt"
    acc_path.write_text(accesses)
    code, out, err = run(capsys, "predict", str(net_path), "--family", "energy",
                         "--energy", str(spec_path), "--accesses", str(acc_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {reason}"), err
    assert "Traceback" not in err


def test_predict_requires_family_inputs(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    net_path.write_text(NETWORK_SPEC)
    for family, flag in (("poly", "--models-dir"), ("paleo", "--device"), ("energy", "--energy")):
        code, out, err = run(capsys, "predict", str(net_path), "--family", family)
        assert (code, out, err) == (1, "", f"error: --family {family} requires {flag}\n")


def test_sample_and_fit_linear(tmp_path, capsys):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(SCHEMA_SPEC))
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "sample", str(schema_path), "--count", "40",
                       "--seed", "3", "--output-dir", str(out_dir))
    assert code == 0, err
    samples = (out_dir / "samples.csv").read_text().splitlines()
    assert samples[0] == "units1,units2"
    assert len(samples) == 41

    profile = ["units1,units2,power_w,memory_mb"]
    for line in samples[1:]:
        a, b = (int(v) for v in line.split(","))
        profile.append(f"{a},{b},{1.5 * a + 0.25 * b},{0.5 * a + 2.0 * b}")
    profile_path = tmp_path / "profile.csv"
    profile_path.write_text("\n".join(profile) + "\n")

    code, out, err = run(capsys, "fit-linear", str(profile_path), "--seed", "5",
                         "--output-dir", str(out_dir))
    assert code == 0, err
    power = linmod.model_from_json((out_dir / "linear_power.json").read_text())
    assert power.weights == pytest.approx((1.5, 0.25), abs=1e-8)
    memory = linmod.model_from_json((out_dir / "linear_memory.json").read_text())
    assert memory.weights == pytest.approx((0.5, 2.0), abs=1e-8)


def test_sample_quotes_a_name_with_a_comma_and_fit_linear_reads_it_back(tmp_path, capsys):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"dimensions": [{"name": "a,b", "lo": 1, "hi": 30},
                                                      {"name": "c", "lo": 1, "hi": 20}]}))
    code, _, err = run(capsys, "sample", str(schema_path), "--count", "30", "--seed", "2",
                       "--output-dir", str(tmp_path / "sample"))
    assert code == 0, err
    text = (tmp_path / "sample" / "samples.csv").read_text()
    assert text.startswith('"a,b",c\n')
    header, *rows = csv.reader(text.splitlines())
    assert header == ["a,b", "c"] and len(rows) == 30 and all(len(row) == 2 for row in rows)

    profile_path = tmp_path / "profiled.csv"
    with profile_path.open("w") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([*header, "power_w", "memory_mb"])
        writer.writerows([a, c, 2 * int(a) + int(c), int(a) + 3 * int(c)] for a, c in rows)
    code, _, err = run(capsys, "fit-linear", str(profile_path), "--output-dir",
                       str(tmp_path / "linear"))
    assert code == 0, err
    power = linmod.model_from_json((tmp_path / "linear" / "linear_power.json").read_text())
    assert power.schema == ("a,b", "c")
    assert power.weights == pytest.approx((2.0, 1.0), abs=1e-8)


def test_optimize_quadratic(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    out_dir = tmp_path / "opt"
    code, out, err = run(capsys, "optimize", str(space_path), "--objective", "quadratic",
                         "--budget", "20", "--seed", "5", "--output-dir", str(out_dir))
    assert code == 0, err
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["best_y"] <= 1e-2
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,x1,x2,acq,y,pred_power,pred_mem,feasible,best_y"
    assert len(trace) == 21


def test_optimize_constrained_and_infeasible_exit_codes(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    power_path = tmp_path / "power.json"
    power_path.write_text(linmod.model_to_json(
        linmod.LinearModel(("x1", "x2"), (1.0, 1.0), linmod.LinTarget.POWER_W)))
    memory_path = tmp_path / "memory.json"
    memory_path.write_text(linmod.model_to_json(
        linmod.LinearModel(("x1", "x2"), (1.0, 0.0), linmod.LinTarget.MEMORY_MB)))

    out_dir = tmp_path / "ok"
    code, out, err = run(capsys, "optimize", str(space_path), "--objective", "quadratic",
                         "--center", "1,1", "--budget", "30", "--seed", "5",
                         "--power-model", str(power_path), "--memory-model", str(memory_path),
                         "--power-budget", "1.0", "--memory-budget", "10.0",
                         "--output-dir", str(out_dir))
    assert code == 0, err
    rows = (out_dir / "trace.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        if cells[-2] == "true":
            assert float(cells[-4]) <= 1.0 + 1e-9

    out_dir2 = tmp_path / "infeasible"
    code, out, err = run(capsys, "optimize", str(space_path), "--objective", "quadratic",
                         "--budget", "10", "--seed", "5",
                         "--power-model", str(power_path), "--memory-model", str(memory_path),
                         "--power-budget", "1e-6", "--memory-budget", "10.0",
                         "--output-dir", str(out_dir2))
    assert code == 2
    assert (out_dir2 / "trace.csv").exists()
    summary = json.loads((out_dir2 / "summary.json").read_text())
    assert summary["status"] == "infeasible"


def test_optimize_rejects_swapped_constraint_models(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    power_path = tmp_path / "linear_power.json"
    power_path.write_text(linmod.model_to_json(
        linmod.LinearModel(("x1", "x2"), (1.0, 1.0), linmod.LinTarget.POWER_W)))
    memory_path = tmp_path / "linear_memory.json"
    memory_path.write_text(linmod.model_to_json(
        linmod.LinearModel(("x1", "x2"), (1.0, 0.0), linmod.LinTarget.MEMORY_MB)))
    out_dir = tmp_path / "swapped"
    code, out, err = run(capsys, "optimize", str(space_path), "--budget", "12",
                         "--power-model", str(memory_path), "--memory-model", str(power_path),
                         "--power-budget", "1.0", "--memory-budget", "10.0",
                         "--output-dir", str(out_dir))
    assert code == 1 and out == ""
    assert err == "error: the power model predicts memory_mb, not power_w\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("role, weights", [("power", (1e308, 1.0)), ("memory", (1.0, -1e308))])
def test_optimize_refuses_a_constraint_model_whose_predictions_can_overflow(tmp_path, capsys,
                                                                          role, weights):
    """Refused once, before the first evaluation: a weight of 1e308 would
    put inf into trace.csv and every row would read infeasible (exit 2)."""
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    paths = {}
    for name, target in (("power", linmod.LinTarget.POWER_W),
                         ("memory", linmod.LinTarget.MEMORY_MB)):
        paths[name] = tmp_path / f"linear_{name}.json"
        paths[name].write_text(linmod.model_to_json(linmod.LinearModel(
            ("x1", "x2"), weights if name == role else (1.0, 1.0), target)))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "optimize", str(space_path), "--budget", "12",
                         "--power-model", str(paths["power"]),
                         "--memory-model", str(paths["memory"]),
                         "--power-budget", "1.0", "--memory-budget", "10.0",
                         "--output-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err == f"error: the {role} model's predictions can overflow in the search space\n"
    assert not out_dir.exists()


def test_optimize_counts_an_excess_past_the_float_range_as_violated(tmp_path, capsys):
    """A prediction of up to 1e303 W against a budget of 1e-6 W is an excess
    of about 1e309 budgets: inf, still violated, and no overflow warning."""
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    paths = {}
    for name, target, weights in (("power", linmod.LinTarget.POWER_W, (1e303, 1.0)),
                                  ("memory", linmod.LinTarget.MEMORY_MB, (1.0, 1.0))):
        paths[name] = tmp_path / f"linear_{name}.json"
        paths[name].write_text(linmod.model_to_json(linmod.LinearModel(("x1", "x2"), weights,
                                                                       target)))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "optimize", str(space_path), "--budget", "8",
                         "--power-model", str(paths["power"]),
                         "--memory-model", str(paths["memory"]),
                         "--power-budget", "1e-6", "--memory-budget", "10.0",
                         "--output-dir", str(out_dir))
    assert (code, out, err) == (2, "no feasible point found; full trace written\n", "")
    rows = list(csv.DictReader((out_dir / "trace.csv").read_text().splitlines()))
    assert len(rows) == 8 and all(row["feasible"] == "false" for row in rows)


@pytest.mark.parametrize("flags", [
    ("--center", "0.1,0.2,0.9"),     # three values on a 2-D space
    ("--center", "nan"),
    ("--center", "0.5,inf"),
    ("--noise", "nan"),
    ("--power-budget", "inf", "--memory-budget", "10", "--power-model", "p.json",
     "--memory-model", "m.json"),
    ("--memory-budget", "nan", "--power-budget", "1", "--power-model", "p.json",
     "--memory-model", "m.json"),
    ("--eval-timeout", "0"),
    ("--eval-timeout", "nan"),
])
def test_optimize_rejects_non_finite_or_misshapen_numbers(tmp_path, capsys, flags):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    out_dir = tmp_path / "opt"
    code, out, err = run(capsys, "optimize", str(space_path), "--budget", "6", *flags,
                         "--output-dir", str(out_dir))
    assert code == 1 and out == "" and "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and flags[0] in last, err
    assert not out_dir.exists()


def test_optimize_partial_constraint_flags_rejected(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    code, _, err = run(capsys, "optimize", str(space_path), "--budget", "10",
                       "--power-budget", "1.0")
    assert code == 1


def test_usage_error_exit_code(capsys):
    assert cli.main(["predict"]) == 1          # missing required args
    assert cli.main(["no-such-command"]) == 1


def test_missing_file_exit_code(capsys):
    assert cli.main(["fit", "/nonexistent/profile.csv"]) == 1


def _constant_fc_models(models_dir, runtime_ms, power_w):
    """Constant fc runtime and power models written to `models_dir`."""
    models_dir.mkdir()
    const = (0,) * len(polyreg._SCHEMAS[LayerKind.FULLY_CONNECTED])
    for target, value in ((polyreg.Target.RUNTIME_MS, runtime_ms),
                          (polyreg.Target.POWER_W, power_w)):
        model = polyreg.PolynomialModel(LayerKind.FULLY_CONNECTED, target, 2,
                                        ((const, value),), ())
        (models_dir / f"model_fc_{target.value}.json").write_text(polyreg.model_to_json(model))


def test_predict_constant_model_single_fc(tmp_path, capsys):
    # a constant-5ms runtime model makes the single-layer network total 5 ms
    models_dir = tmp_path / "models"
    _constant_fc_models(models_dir, 5.0, 2.0)
    net = tmp_path / "net.txt"
    net.write_text("f1 fc in=1x4x1x1 out=2\n")
    code, out, err = run(capsys, "predict", str(net), "--family", "poly",
                         "--models-dir", str(models_dir), "--format", "csv")
    assert code == 0, err
    assert err == ""  # nothing clamped, so no warning
    total = [line for line in out.splitlines() if line.startswith("total")][0].split(",")
    assert float(total[2]) == 5.0


def test_predict_poly_without_a_kinds_power_model_exits_1_naming_the_kind(tmp_path, capsys):
    models_dir = tmp_path / "models"
    _constant_fc_models(models_dir, 5.0, 2.0)
    (models_dir / "model_fc_power_w.json").unlink()
    net = tmp_path / "net.txt"
    net.write_text("f1 fc in=1x4x1x1 out=2\n")
    code, out, err = run(capsys, "predict", str(net), "--family", "poly",
                         "--models-dir", str(models_dir))
    assert (code, out, err) == (1, "", "error: no power model for kind fc\n")


def test_predict_poly_zero_total_runtime_prints_layers_then_exits_1(tmp_path, capsys):
    # a runtime model below zero everywhere clamps both layers to 0 ms, so the
    # network's average power is undefined; the layers print, the total does not
    models_dir = tmp_path / "models"
    _constant_fc_models(models_dir, -1.0, 2.0)
    net = tmp_path / "net.txt"
    net.write_text("f1 fc in=1x4x1x1 out=2\nf2 fc out=3\n")
    code, out, err = run(capsys, "predict", str(net), "--family", "poly",
                         "--models-dir", str(models_dir))
    assert code == 1
    assert out == ("layer  kind  t_ms  p_w  e_mj\n"
                   "f1     fc    0     2    0\n"
                   "f2     fc    0     2    0\n")
    assert err == ("warning: negative predictions clamped to 0 for layers: f1, f2\n"
                   "error: total predicted runtime is zero; average power undefined\n")


def _fc_models(models_dir, runtime_terms, power_terms):
    """fc runtime and power models of the given (exponents, coefficient) terms."""
    models_dir.mkdir()
    for target, terms in ((polyreg.Target.RUNTIME_MS, runtime_terms),
                          (polyreg.Target.POWER_W, power_terms)):
        degree = max(sum(exponents) for exponents, _ in terms)
        model = polyreg.PolynomialModel(LayerKind.FULLY_CONNECTED, target, degree,
                                        tuple(terms), ())
        (models_dir / f"model_fc_{target.value}.json").write_text(polyreg.model_to_json(model))


@pytest.mark.parametrize("runtime_terms, power_terms, error", [
    # 1e308 times f1's 4 inputs overflows
    ([((0, 1, 0), 1e308)], [((0, 0, 0), 2.0)],
     "layer f1: the fc runtime_ms model predicts inf"),
    # inf - inf
    ([((0, 1, 0), 1e308), ((0, 0, 1), -1e308)], [((0, 0, 0), 2.0)],
     "layer f1: the fc runtime_ms model predicts nan"),
    ([((0, 0, 0), 1.0)], [((0, 1, 0), -1e308)],
     "layer f1: the fc power_w model predicts -inf"),
    # a float power past the range raises OverflowError, not inf
    ([((0, 600, 0), 1.0)], [((0, 0, 0), 2.0)],
     "layer f1: the fc runtime_ms model predicts inf"),
    # exponents the power table holds as one level each, not a level per power below them
    ([((0, 10 ** 9, 0), 1.0)], [((0, 0, 0), 2.0)],
     "layer f1: the fc runtime_ms model predicts inf"),
    # an exponent past the float range has no float power, even of a batch of 1
    ([((10 ** 400, 0, 0), 1.0)], [((0, 0, 0), 2.0)],
     "layer f1: the fc runtime_ms model predicts inf"),
    # finite predictions whose energy overflows at f1, or whose runtimes sum past it at f2
    ([((0, 0, 0), 1e308)], [((0, 0, 0), 10.0)],
     "layer f1: 1e+308 ms at 10.0 W overflows the totals"),
    ([((0, 0, 0), 1e308)], [((0, 0, 0), 1e-300)],
     "layer f2: 1e+308 ms at 1e-300 W overflows the totals"),
], ids=["inf", "nan", "power", "power-overflow", "huge-exponent", "exponent-past-float",
        "energy", "total"])
def test_predict_poly_exits_1_naming_the_layer_on_a_prediction_that_is_not_finite(
        tmp_path, capsys, runtime_terms, power_terms, error):
    """Coefficients the loader accepts can still overflow a prediction: no
    table is printed, and one error line names the layer and the model."""
    _fc_models(tmp_path / "models", runtime_terms, power_terms)
    net = tmp_path / "net.txt"
    net.write_text("f1 fc in=1x4x1x1 out=2\nf2 fc out=3\n")
    code, out, err = run(capsys, "predict", str(net), "--family", "poly",
                         "--models-dir", str(tmp_path / "models"))
    assert (code, out, err) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("exponent", [10 ** 9, 10 ** 30], ids=["1e9", "1e30"])
def test_predict_poly_takes_a_huge_exponent_of_a_feature_equal_to_1(tmp_path, capsys, exponent):
    """A batch of 1 to any float power is 1: the runtime model is 1 ms."""
    _fc_models(tmp_path / "models", [((exponent, 0, 0), 1.0)], [((0, 0, 0), 2.0)])
    net = tmp_path / "net.txt"
    net.write_text("f1 fc in=1x4x1x1 out=2\nf2 fc out=3\n")
    code, out, err = run(capsys, "predict", str(net), "--family", "poly",
                         "--models-dir", str(tmp_path / "models"))
    assert (code, err) == (0, "")
    assert out == ("layer  kind  t_ms  p_w  e_mj\n"
                   "f1     fc    1     2    2\n"
                   "f2     fc    1     2    2\n"
                   "total        2     2    4\n")


def test_predict_csv_quotes_a_layer_name_with_a_comma(tmp_path, capsys):
    net = tmp_path / "net.txt"
    net.write_text("a,b conv in=1x3x8x8 k=3x3 out=4\n")
    dev = tmp_path / "device.txt"
    dev.write_text(DEVICE_SPEC)
    code, out, err = run(capsys, "predict", str(net), "--family", "paleo",
                         "--device", str(dev), "--format", "csv")
    assert code == 0, err
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["layer", "r_ms", "c_ms", "w_ms", "t_ms"]
    assert [row[0] for row in rows[1:]] == ["a,b", "total"]
    assert all(len(row) == 5 for row in rows)


def test_predict_poly_warns_on_clamped_layers(tmp_path, capsys):
    # the fc power model fitted on this small profile predicts below zero for
    # f1 (4,096 inputs); the table shows the clamped 0 and stderr names f1
    run(capsys, "synth", "--count", "20", "--seed", "3", "--output-dir", str(tmp_path))
    code, _, err = run(capsys, "fit", str(tmp_path / "synthetic_profile.csv"), "--folds", "3",
                       "--output-dir", str(tmp_path))
    assert code == 0, err
    net = tmp_path / "net.txt"
    net.write_text("c1 conv in=1x3x32x32 k=3x3 p=1 out=16\np1 pool k=2x2\nf1 fc out=10\n")
    code, out, err = run(capsys, "predict", str(net), "--family", "poly",
                         "--models-dir", str(tmp_path))
    assert code == 0
    assert err == "warning: negative predictions clamped to 0 for layers: f1\n"
    f1 = next(line for line in out.splitlines() if line.startswith("f1")).split()
    assert f1[3:] == ["0", "0"]  # p_w, e_mj


def test_optimize_command_objective(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({"dimensions": [
        {"name": "x", "kind": "continuous", "lo": 0.0, "hi": 1.0}]}))
    out_dir = tmp_path / "opt"
    script = ("import sys; x = float(sys.stdin.readline().split(',')[0]); "
              "print((x - 0.3) ** 2)")
    code, out, err = run(capsys, "optimize", str(space_path), "--objective", "command",
                         "--budget", "10", "--seed", "2", "--output-dir", str(out_dir),
                         "--command", "python3", "-c", script)
    assert code == 0, err
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["best_y"] <= 0.05


def test_optimize_command_past_the_eval_timeout_is_a_failed_row(tmp_path, capsys):
    """A command that sleeps past --eval-timeout is killed and its call
    recorded as failed: the run ends in well under one sleep, every row
    holds the failed-call y of 1.0, and no row is ever the best."""
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({"dimensions": [
        {"name": "x", "kind": "continuous", "lo": 0.0, "hi": 1.0}]}))
    out_dir = tmp_path / "opt"
    started = time.perf_counter()
    code, out, err = run(capsys, "optimize", str(space_path), "--objective", "command",
                         "--budget", "3", "--output-dir", str(out_dir), "--eval-timeout", "0.2",
                         "--command", sys.executable, "-c", "import time; time.sleep(30)")
    assert time.perf_counter() - started < 20.0
    assert code == 2 and out == "no feasible point found; full trace written\n", err
    rows = list(csv.DictReader((out_dir / "trace.csv").read_text().splitlines()))
    assert len(rows) == 3
    assert all(row["y"] == "1.0" and row["best_y"] == "" for row in rows)
    assert json.loads((out_dir / "summary.json").read_text())["status"] == "infeasible"


def test_optimize_record_rules(monkeypatch, tmp_path, capsys):
    """A failed call is imputed as the largest earlier non-failed y (1.0 when
    there is none) and is never the best; best_y is the running minimum over
    feasible non-failed rows; iterations_to_best is the first row reaching it."""
    calls = []

    def flaky(x):  # fails on calls 1, 5, 9, ...: the first call and some later ones
        calls.append(x)
        if len(calls) % 4 == 1:
            raise RuntimeError("evaluator crashed")
        return (x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2

    monkeypatch.setattr(cli, "build_objective", lambda *args, **kwargs: flaky)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    power_path = tmp_path / "power.json"
    power_path.write_text(linmod.model_to_json(
        linmod.LinearModel(("x1", "x2"), (1.0, 1.0), linmod.LinTarget.POWER_W)))
    memory_path = tmp_path / "memory.json"
    memory_path.write_text(linmod.model_to_json(
        linmod.LinearModel(("x1", "x2"), (1.0, 0.0), linmod.LinTarget.MEMORY_MB)))
    out_dir = tmp_path / "opt"
    code, _, err = run(capsys, "optimize", str(space_path), "--budget", "20", "--seed", "4",
                       "--power-model", str(power_path), "--memory-model", str(memory_path),
                       "--power-budget", "1.0", "--memory-budget", "10.0",
                       "--output-dir", str(out_dir))
    assert code == 0, err
    rows = list(csv.DictReader((out_dir / "trace.csv").read_text().splitlines()))
    assert len(rows) == len(calls) == 20
    assert {row["feasible"] for row in rows} == {"true", "false"}
    worst = best = None
    for i, row in enumerate(rows):
        y = float(row["y"])
        if i % 4 == 0:
            assert y == (1.0 if worst is None else worst)
        else:
            worst = y if worst is None else max(worst, y)
            if row["feasible"] == "true":
                best = y if best is None else min(best, y)
        assert row["best_y"] == ("" if best is None else repr(best))
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["best_y"] == best
    assert summary["iterations_to_best"] == next(
        int(row["iter"]) for row in rows if row["best_y"] == repr(best))


def test_numerical_failure_exit_code(monkeypatch, tmp_path, capsys):
    from hwcost.bayesopt import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("covariance not positive definite at jitter 1")

    monkeypatch.setattr("hwcost.bayesopt.bo_run", boom)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({"dimensions": [
        {"name": "x", "kind": "continuous", "lo": 0.0, "hi": 1.0}]}))
    code, _, err = run(capsys, "optimize", str(space_path), "--budget", "10")
    assert code == 3
    assert "numerical failure" in err


def test_cli_determinism_byte_identical(tmp_path, capsys):
    """Representative determinism check; the acceptance suite covers every command."""
    args = ["synth", "--count", "30", "--noise", "0.05", "--seed", "9"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, stdout_a, _ = run(capsys, *args, "--output-dir", str(out_a))
    assert code == 0
    code, stdout_b, _ = run(capsys, *args, "--output-dir", str(out_b))
    assert code == 0
    assert (out_a / "synthetic_profile.csv").read_bytes() == \
        (out_b / "synthetic_profile.csv").read_bytes()


def _outputs(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_reused_parser_carries_no_state_between_optimize_calls(monkeypatch, tmp_path, capsys):
    """main() builds its parser once; a call after an `--command` run parses
    and writes what a first call does, and a replaced build_objective is used."""
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    script = tmp_path / "x"
    script.write_text("awk -F, '{print ($1 - 0.3) ^ 2 + ($2 - 0.3) ^ 2}'\n")
    plain = ["optimize", str(space_path), "--budget", "6", "--seed", "3"]
    cli._build_parser.cache_clear()
    first = run(capsys, *plain, "--output-dir", str(tmp_path / "first"))
    assert first[0] == 0, first[2]
    code, _, err = run(capsys, *plain, "--objective", "command", "--output-dir",
                       str(tmp_path / "command"), "--command", "sh", str(script))
    assert code == 0, err
    assert run(capsys, *plain, "--output-dir", str(tmp_path / "again")) == first
    assert _outputs(tmp_path / "again") == _outputs(tmp_path / "first")
    argv = plain + ["--output-dir", "d"]
    assert vars(cli._build_parser().parse_args(argv)) == \
        vars(cli._build_parser.__wrapped__().parse_args(argv))

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    build = cli.build_objective
    monkeypatch.setattr(cli, "build_objective", counted)
    assert run(capsys, *plain, "--output-dir", str(tmp_path / "patched")) == first
    assert len(calls) == 1


def test_reused_parser_carries_no_state_past_errors_and_help(tmp_path, capsys):
    """A usage error, then --help, then a valid fit: the fit prints and writes
    what a first call does."""
    profile = _profile(tmp_path, {LayerKind.FULLY_CONNECTED: 20})
    fit = ["fit", str(profile), "--folds", "3", "--seed", "2"]
    cli._build_parser.cache_clear()
    first = run(capsys, *fit, "--output-dir", str(tmp_path / "first"))
    assert first[0] == 0, first[2]
    code, out, err = run(capsys, "fit", str(profile), "--folds", "x")
    assert code == 1 and out == "" and "--folds" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage: hwcost" in out
    assert run(capsys, *fit, "--output-dir", str(tmp_path / "again")) == first
    assert _outputs(tmp_path / "again") == _outputs(tmp_path / "first")


def test_readme_examples_parse():
    """Every `hwcost ...` line of README's sh blocks, continuations joined and
    comments stripped, goes through the parser: a renamed or removed flag
    raises ValueError. Only parsed, so none of the files they name is read."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line.split("#", 1)[0].strip()
             for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("hwcost ")]
    assert len(commands) >= 9
    for argv in commands:
        cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("noise", ["nan", "inf", "Infinity"])
def test_synth_rejects_a_non_finite_noise_flag(tmp_path, capsys, noise):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "synth", "--count", "5", "--noise", noise,
                         "--output-dir", str(out_dir))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == f"error: argument --noise: value {noise!r} is not finite"
    assert not out_dir.exists()


@pytest.mark.parametrize("l1", ["nan", "inf", "Infinity"])
def test_fit_rejects_a_non_finite_l1_flag(tmp_path, capsys, l1):
    profile = tmp_path / "profile.csv"
    profile.write_text("kind,batch,runtime_ms\n")  # never read: the flag fails first
    out_dir = tmp_path / "models"
    code, out, err = run(capsys, "fit", str(profile), "--l1", l1, "--output-dir", str(out_dir))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == f"error: argument --l1: value {l1!r} is not finite"
    assert not out_dir.exists()


@pytest.mark.parametrize("noise, message", [
    ("NaN", "synth config key 'noise': value 'nan' is not finite"),
    ("Infinity", "synth config key 'noise': value 'inf' is not finite"),
    ("-0.5", "synth config: noise must be a finite number >= 0, got -0.5"),
])
def test_synth_rejects_a_bad_noise_config_key(tmp_path, capsys, noise, message):
    config = tmp_path / "synth.json"
    config.write_text(f'{{"count": 5, "noise": {noise}}}')
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "synth", "--config", str(config), "--output-dir", str(out_dir))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


def test_optimize_branin_with_noise_reruns_byte_identical(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(SPACE_SPEC))
    argv = ["optimize", str(space), "--objective", "branin", "--budget", "8", "--seed", "5"]
    noisy = argv + ["--noise", "0.05"]
    first = run(capsys, *noisy, "--output-dir", str(tmp_path / "a"))
    assert first[0] == 0, first[2]
    assert run(capsys, *noisy, "--output-dir", str(tmp_path / "b")) == first
    assert run(capsys, *argv, "--output-dir", str(tmp_path / "plain"))[0] == 0
    for name in ("trace.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # the noise is drawn: the seeding points match the noise-free run, their y do not
    noise_free, with_noise = (list(csv.DictReader((tmp_path / d / "trace.csv").read_text()
                                                  .splitlines())) for d in ("plain", "a"))
    assert [r["x1"] for r in with_noise[:4]] == [r["x1"] for r in noise_free[:4]]
    assert all(a["y"] != b["y"] for a, b in zip(with_noise[:4], noise_free[:4]))


@pytest.mark.parametrize("command, flag", [
    ("predict", ["--seed", "1"]), ("predict", ["--output-dir", "out"]),
    ("compare-reference", ["--seed", "1"]), ("compare-reference", ["--output-dir", "out"]),
    ("synth", ["--format", "csv"]), ("sample", ["--format", "csv"]),
    ("optimize", ["--format", "csv"]),
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    """--seed and --output-dir go to the commands that write files, --format
    to the ones that print a table; each command runs without the flag."""
    for name, text in (("net.txt", NETWORK_SPEC), ("device.txt", DEVICE_SPEC),
                       ("schema.json", json.dumps(SCHEMA_SPEC)),
                       ("space.json", json.dumps(SPACE_SPEC))):
        (tmp_path / name).write_text(text)
    out_dir = str(tmp_path / "written")
    argv = {
        "predict": ["predict", str(tmp_path / "net.txt"), "--family", "paleo",
                    "--device", str(tmp_path / "device.txt")],
        "compare-reference": ["compare-reference"],
        "synth": ["synth", "--count", "5", "--output-dir", out_dir],
        "sample": ["sample", str(tmp_path / "schema.json"), "--count", "5",
                   "--output-dir", out_dir],
        "optimize": ["optimize", str(tmp_path / "space.json"), "--budget", "4",
                     "--output-dir", out_dir],
    }[command]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, *flag)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == f"error: unrecognized arguments: {' '.join(flag)}"


PALEO = ["predict", "{net}", "--family", "paleo", "--device", "{device}"]
ENERGY = ["predict", "{net}", "--family", "energy", "--energy", "{energy}"]
POLY = ["predict", "{net}", "--family", "poly", "--models-dir", "{d}"]


@pytest.mark.parametrize("command, option", [
    (PALEO, ["--sparsity", "0.5"]), (PALEO, ["--bitwidth", "8"]),
    (PALEO, ["--energy", "{energy}"]), (PALEO, ["--models-dir", "{d}"]),
    (ENERGY, ["--device", "{device}"]), (ENERGY, ["--models-dir", "{d}"]),
    (POLY, ["--device", "{device}"]), (POLY, ["--accesses", "{net}"]),
    (["optimize", "{space}", "--objective", "branin", "--budget", "5", "--output-dir", "{d}"],
     ["--center", "0.5"]),
    (["optimize", "{space}", "--objective", "quadratic", "--budget", "5", "--output-dir", "{d}"],
     ["--command", "echo", "1"]),
    (["optimize", "{space}", "--objective", "branin", "--budget", "5", "--output-dir", "{d}"],
     ["--eval-timeout", "1"]),
])
def test_an_option_the_family_or_objective_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                                           command, option):
    """Each --family of predict and each --objective of optimize reads only its
    own options: with another's, the command exits 1 naming the option."""
    for name, text in (("net.txt", NETWORK_SPEC), ("device.txt", DEVICE_SPEC),
                       ("energy.txt", ENERGY_SPEC), ("space.json", json.dumps(SPACE_SPEC))):
        (tmp_path / name).write_text(text)
    paths = {"d": tmp_path, "net": tmp_path / "net.txt", "device": tmp_path / "device.txt",
             "energy": tmp_path / "energy.txt", "space": tmp_path / "space.json"}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in command + option))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: {option[0]} is read only by {command[2]} ")
    assert err.endswith(f", not {command[3]}\n") and len(err.splitlines()) == 1



def _profiled(tmp_path, points):
    """A profiled-point CSV over (x1, x2) with power and memory linear in them."""
    path = tmp_path / "profiled.csv"
    rows = [f"{a},{b},{0.5 * a + 2.0 * b + 1.0},{3.0 * a + 0.25 * b + 1.0}" for a, b in points]
    path.write_text("\n".join(["x1,x2,power_w,memory_mb", *rows]) + "\n")
    return path


def _write_inputs(tmp_path):
    """One valid file of each input the writing commands read, by name."""
    paths = {"net": tmp_path / "net.txt", "energy": tmp_path / "energy.txt",
             "space": tmp_path / "space.json", "schema": tmp_path / "schema.json",
             "out": tmp_path / "out"}
    for name, text in (("net", NETWORK_SPEC), ("energy", ENERGY_SPEC),
                       ("space", json.dumps(SPACE_SPEC)), ("schema", json.dumps(SCHEMA_SPEC))):
        paths[name].write_text(text)
    paths["profiled"] = _profiled(tmp_path, [(a, b) for a in range(1, 4) for b in range(1, 5)])
    paths["profile"] = _profile(tmp_path, dict.fromkeys(LayerKind, 8))
    return paths


WRITING = {
    "synth": ["synth", "--count", "5", "--output-dir", "{out}"],
    "fit": ["fit", "{profile}", "--folds", "3", "--output-dir", "{out}"],
    "sample": ["sample", "{schema}", "--count", "5", "--output-dir", "{out}"],
    "fit-linear": ["fit-linear", "{profiled}", "--folds", "3", "--output-dir", "{out}"],
    "optimize": ["optimize", "{space}", "--budget", "5", "--output-dir", "{out}"],
}


@pytest.mark.parametrize("command", sorted(WRITING))
def test_a_command_writes_after_its_work_and_the_manifest_last(monkeypatch, tmp_path, capsys,
                                                               command):
    """The output directory is made only once every model is fitted; the
    manifest's `outputs` are the directory's other files, in write order."""
    paths = _write_inputs(tmp_path)
    events = []

    def log(owner, name, event):
        original = getattr(owner, name)

        def logged(*args, **kwargs):
            events.append(event(args[0]))
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, logged)

    log(Path, "write_text", lambda path: path.name)
    log(Path, "mkdir", lambda path: "mkdir")
    log(polyreg, "fit_with_metrics", lambda samples: "fit")
    log(linmod, "fit_linear", lambda points: "fit")
    code, _, err = run(capsys, *(arg.format(**paths) for arg in WRITING[command]))
    assert code == 0, err
    manifest = json.loads((paths["out"] / "manifest.json").read_text())
    assert manifest["subcommand"] == command and manifest["outputs"]
    assert sorted(p.name for p in paths["out"].iterdir()) == \
        sorted(manifest["outputs"] + ["manifest.json"])
    assert events[events.index("mkdir"):] == ["mkdir", *manifest["outputs"], "manifest.json"]


# input written into the test's directory, argv reading it, exit code, last stderr line
FAILING = {
    "fit with too few rows for its folds": (
        lambda d: _profile(d, dict.fromkeys(LayerKind, 5)), ["fit", "{input}", "--folds", "3"],
        1, "error: no (kind, target) had enough samples to fit"),
    # without the bound, this fit asks for 17.6 GiB of Gram matrices
    "fit at a degree past the memory bound": (
        lambda d: _profile(d, {LayerKind.CONV2D: 20}),
        ["fit", "{input}", "--folds", "3", "--degree", "9"],
        1, "error: degree 9 gives conv models 24312 columns: the 4 Gram matrices of a 3-fold "
           "fit need 17.6 GiB, more than the 1 GiB limit"),
    "fit-linear on a rank-deficient profile": (  # x2 = 2 x1 on every row
        lambda d: _profiled(d, [(a, 2 * a) for a in range(1, 7)]),
        ["fit-linear", "{input}", "--folds", "3"],
        1, "error: rank-deficient design; unidentifiable dimension(s): x1, x2"),
    "fit-linear with fewer points than folds": (
        lambda d: _profiled(d, [(1, 2), (2, 1), (3, 5), (4, 4)]), ["fit-linear", "{input}"],
        1, "error: need at least 10 points, got 4"),
    "optimize with a numerical failure": (
        lambda d: _write_inputs(d)["space"], ["optimize", "{input}", "--budget", "10"],
        3, "numerical failure: covariance not positive definite at jitter 1"),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_a_command_that_fails_writes_nothing(monkeypatch, tmp_path, capsys, case):
    from hwcost.bayesopt import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("covariance not positive definite at jitter 1")

    monkeypatch.setattr("hwcost.bayesopt.bo_run", boom)  # only optimize calls it
    write, argv, want, message = FAILING[case]
    path, out_dir = write(tmp_path), tmp_path / "written"
    code, out, err = run(capsys, *(arg.format(input=path) for arg in argv),
                         "--output-dir", str(out_dir))
    assert code == want and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == message
    assert not out_dir.exists()


def test_an_infeasible_search_writes_its_trace_summary_and_manifest(tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    models = []
    for target, weights in ((linmod.LinTarget.POWER_W, (1.0, 1.0)),
                            (linmod.LinTarget.MEMORY_MB, (1.0, 0.0))):
        models.append(tmp_path / f"{target.value}.json")
        models[-1].write_text(linmod.model_to_json(
            linmod.LinearModel(("x1", "x2"), weights, target)))
    code, out, err = run(capsys, "optimize", str(paths["space"]), "--budget", "6",
                         "--power-model", str(models[0]), "--memory-model", str(models[1]),
                         "--power-budget", "1e-6", "--memory-budget", "10",
                         "--output-dir", str(paths["out"]))
    assert code == 2, err
    assert out == "no feasible point found; full trace written\n"
    assert sorted(p.name for p in paths["out"].iterdir()) == \
        ["manifest.json", "summary.json", "trace.csv"]
    manifest = json.loads((paths["out"] / "manifest.json").read_text())
    assert manifest["outputs"] == ["trace.csv", "summary.json"]
    assert json.loads((paths["out"] / "summary.json").read_text())["status"] == "infeasible"
    assert len((paths["out"] / "trace.csv").read_text().splitlines()) == 7


@pytest.mark.parametrize("argv, flag, message", [
    (ENERGY + ["--sparsity", "1.5"], "--sparsity", "must be in [0, 1], got 1.5"),
    (ENERGY + ["--sparsity", "-0.25"], "--sparsity", "must be in [0, 1], got -0.25"),
    (ENERGY + ["--sparsity", "nan"], "--sparsity", "value 'nan' is not finite"),
    (ENERGY + ["--bitwidth", "0"], "--bitwidth", "must be >= 1, got 0"),
    (WRITING["optimize"] + ["--candidates", "0"], "--candidates", "must be >= 1, got 0"),
    (["synth", "--count", "0", "--output-dir", "{out}"], "--count", "must be >= 1, got 0"),
    (["sample", "{schema}", "--count", "0", "--output-dir", "{out}"], "--count",
     "must be >= 1, got 0"),
    (WRITING["fit"] + ["--folds", "1"], "--folds", "must be >= 2, got 1"),
    (WRITING["fit-linear"] + ["--folds", "1"], "--folds", "must be >= 2, got 1"),
    (WRITING["fit"] + ["--degree", "0"], "--degree", "must be >= 1, got 0"),
    (WRITING["fit"] + ["--degree", "-2"], "--degree", "must be >= 1, got -2"),
    (WRITING["fit"] + ["--l1", "-1"], "--l1", "must be >= 0, got -1.0"),
    # past 2**53 --bitwidth overflowed a float energy, --degree the Gram size message
    (ENERGY + ["--bitwidth", str(10 ** 400)], "--bitwidth", f"must be <= 2**53, got {10 ** 400}"),
    (WRITING["fit"] + ["--degree", str(10 ** 400)], "--degree",
     f"must be <= 2**53, got {10 ** 400}"),
    # a seed is any 64-bit integer, signed or not
    (WRITING["synth"] + ["--seed", str(10 ** 400)], "--seed",
     f"must be <= 2**64 - 1, got {10 ** 400}"),
    (WRITING["synth"] + [f"--seed={-2 ** 63 - 1}"], "--seed",
     f"must be >= -2**63, got {-2 ** 63 - 1}"),
    (WRITING["optimize"] + ["--budget", str(10 ** 400)], "--budget",
     f"must be <= 2**53, got {10 ** 400}"),
    (WRITING["optimize"] + ["--budget", "0"], "--budget", "must be >= 1, got 0"),
], ids=["sparsity 1.5", "sparsity -0.25", "sparsity nan", "bitwidth 0", "candidates 0",
        "synth count 0", "sample count 0", "fit folds 1", "fit-linear folds 1", "degree 0",
        "degree -2", "l1 -1", "bitwidth 1e400", "degree 1e400", "seed 1e400", "seed -2**63 - 1",
        "budget 1e400", "budget 0"])
def test_an_option_out_of_range_names_its_flag(tmp_path, capsys, argv, flag, message):
    paths = _write_inputs(tmp_path)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == f"error: argument {flag}: {message}"
    assert not paths["out"].exists()


@pytest.mark.parametrize("seed", [-2 ** 63, 2 ** 64 - 1])
def test_a_seed_at_either_end_of_the_64_bit_range_runs(tmp_path, capsys, seed):
    code, out, err = run(capsys, "synth", "--count", "2", f"--seed={seed}",
                         "--output-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == seed


@pytest.mark.parametrize("family", [PALEO, ENERGY, POLY], ids=["paleo", "energy", "poly"])
def test_predict_names_the_line_of_a_layer_dimension_past_2_53(tmp_path, capsys, family):
    """Every family reads the spec first, so none meets a dimension whose
    float feature or count would overflow."""
    (tmp_path / "net.txt").write_text(f"f1 fc in={10 ** 400}x4x1x1 out=2\n")
    (tmp_path / "device.txt").write_text(DEVICE_SPEC)
    (tmp_path / "energy.txt").write_text(ENERGY_SPEC)
    paths = {"d": tmp_path, "net": tmp_path / "net.txt", "device": tmp_path / "device.txt",
             "energy": tmp_path / "energy.txt"}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in family))
    assert (code, out) == (1, "")
    assert err == f"error: network spec line 1: batch must be <= 2**53, got {10 ** 400}\n"


# options whose change changes a file each writing command writes
DIGESTED = {
    "synth": [["--count", "6"], ["--noise", "0.2"], ["--seed", "1"]],
    "fit": [["--folds", "4"], ["--degree", "1"], ["--l1", "0.01"], ["--seed", "1"]],
    "sample": [["--count", "6"], ["--seed", "1"]],
    "fit-linear": [["--folds", "4"], ["--bias"], ["--seed", "1"]],
    "optimize": [["--budget", "6"], ["--objective", "branin"], ["--center", "0.5"],
                 ["--noise", "0.1"], ["--candidates", "8"], ["--seed", "1"]],
}


@pytest.mark.parametrize("command", sorted(WRITING))
def test_the_config_digest_follows_every_option_but_output_dir_and_format(tmp_path, capsys,
                                                                          command):
    paths = _write_inputs(tmp_path)

    def digest(*flags, out="out"):
        argv = [arg.format(**{**paths, "out": tmp_path / out}) for arg in WRITING[command]]
        code, _, err = run(capsys, *argv, *flags)
        assert code == 0, err
        return json.loads((tmp_path / out / "manifest.json").read_text())["config_digest"]

    base = digest()
    assert digest(out="elsewhere") == base
    if command in ("fit", "fit-linear"):
        assert digest("--format", "csv") == base
    for flags in DIGESTED[command]:
        assert digest(*flags) != base, flags


def _trace_rows(out_dir):
    return list(csv.DictReader((out_dir / "trace.csv").read_text().splitlines()))


def test_a_3_fold_fit_reruns_byte_identical(tmp_path, capsys):
    """Criterion 9 reruns a fit at the default 10 folds; at 3 folds the CV
    steps a batch of three fold paths, and a rerun writes the same models."""
    code, _, err = run(capsys, "synth", "--count", "20", "--seed", "3",
                       "--output-dir", str(tmp_path / "synth"))
    assert code == 0, err
    for name in ("a", "b"):
        code, _, err = run(capsys, "fit", str(tmp_path / "synth" / "synthetic_profile.csv"),
                           "--folds", "3", "--output-dir", str(tmp_path / name))
        assert code == 0, err
    models = {name: {path.name: path.read_bytes() for path in (tmp_path / name).glob("model_*")}
              for name in ("a", "b")}
    assert len(models["a"]) == 6 and models["a"] == models["b"]


def test_a_gated_search_past_four_blocks_reruns_byte_identical(tmp_path, capsys):
    """36 refits extend the stored trial factors past four 8-row blocks, and
    each state's factor is one of them; a rerun writes the same trace."""
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    models = []
    for target, weights in ((linmod.LinTarget.POWER_W, (1.0, 1.0)),
                            (linmod.LinTarget.MEMORY_MB, (1.0, 0.0))):
        models.append(tmp_path / f"{target.value}.json")
        models[-1].write_text(linmod.model_to_json(
            linmod.LinearModel(("x1", "x2"), weights, target)))
    for name in ("a", "b"):
        code, _, err = run(capsys, "optimize", str(space_path), "--budget", "40", "--seed", "7",
                           "--power-model", str(models[0]), "--memory-model", str(models[1]),
                           "--power-budget", "1.0", "--memory-budget", "10",
                           "--output-dir", str(tmp_path / name))
        assert code == 0, err
    assert len(_trace_rows(tmp_path / "a")) == 40
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()


def test_a_command_evaluator_whose_first_call_fails_traces_1(tmp_path, capsys):
    """An external evaluator that exits 1 on its first call only: that row
    holds the failed-call y of 1.0, and every later row the evaluator's y."""
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_SPEC))
    script = tmp_path / "eval.sh"
    script.write_text('[ -e "$0.ran" ] || { : > "$0.ran"; exit 1; }\n'
                      "awk -F, '{print ($1 - 1) ^ 2 + ($2 - 1) ^ 2}'\n")
    code, _, err = run(capsys, "optimize", str(space_path), "--budget", "8", "--seed", "7",
                       "--output-dir", str(tmp_path / "opt"), "--objective", "command",
                       "--command", "sh", str(script))
    assert code == 0, err
    rows = _trace_rows(tmp_path / "opt")
    assert rows[0]["y"] == "1.0" and rows[0]["best_y"] == ""
    for row in rows[1:]:
        want = (float(row["x1"]) - 1) ** 2 + (float(row["x2"]) - 1) ** 2
        assert float(row["y"]) == pytest.approx(want, rel=1e-5)


def test_an_integer_dimension_traces_whole_numbers_in_bounds(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({"dimensions": [
        {"name": "n", "kind": "integer", "lo": 1, "hi": 4},
        {"name": "x", "kind": "continuous", "lo": 0, "hi": 1}]}))
    code, _, err = run(capsys, "optimize", str(space_path), "--budget", "12", "--seed", "7",
                       "--center", "2,0.5", "--output-dir", str(tmp_path / "opt"))
    assert code == 0, err
    rows = _trace_rows(tmp_path / "opt")
    assert len(rows) == 12
    assert all(float(row["n"]).is_integer() and 1 <= float(row["n"]) <= 4 for row in rows)
