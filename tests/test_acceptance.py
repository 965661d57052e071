"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from hwcost import bayesopt as bo
from hwcost import cli, linmod, polyreg, reference
from hwcost.analytic import (AccessProfile, DeviceSpec, EnergySpec, SparsityInfo,
                             eyeriss_layer_energy, paleo_layer_runtime)
from hwcost.linmod import LinearModel, LinTarget, Profile
from hwcost.netgraph import LayerKind, TensorShape, conv2d, fully_connected, \
    pool2d
from hwcost.objectives import quadratic_bowl

from oracles import conv_loopnest, ei_quadrature, fc_loopnest, gp_posterior_dense, \
    pool_loopnest


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {number}: {label}")
        raise
    print(f"\n[PASS] criterion {number}: {label}")


# --- 1: modeling pipeline accuracy on synthetic profiles ----------------------

def test_criterion_1_synthetic_pipeline_accuracy(tmp_path):
    with criterion(1, "synthetic-profile model accuracy (<=10% noisy, <=1% clean, <60 s)"):
        started = time.perf_counter()
        for noise, gate in ((0.05, 10.0), (0.0, 1.0)):
            out_dir = tmp_path / f"noise_{noise}"
            code = cli.main(["synth", "--count", "500", "--noise", str(noise),
                             "--seed", "42", "--output-dir", str(out_dir)])
            assert code == 0
            samples = polyreg.read_profile_csv(
                (out_dir / "synthetic_profile.csv").read_text())
            by_kind = {}
            for sample in samples:
                by_kind.setdefault(sample.layer.kind, []).append(sample)
            assert set(by_kind) == {LayerKind.CONV2D, LayerKind.FULLY_CONNECTED,
                                    LayerKind.POOL2D}
            for kind, kind_samples in by_kind.items():
                assert len(kind_samples) == 500
                for target in (polyreg.Target.RUNTIME_MS, polyreg.Target.POWER_W):
                    pairs = [(s.layer, getattr(s, target.value)) for s in kind_samples]
                    train, held_out = pairs[:400], pairs[400:]
                    model = polyreg.fit(train, polyreg.FitConfig(seed=7), kind, target)
                    metrics = polyreg.evaluate(model, held_out)
                    assert metrics.rmspe <= gate, \
                        f"{kind.value}/{target.value} at noise {noise}: {metrics.rmspe}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"


# --- 2: published reference tables --------------------------------------------

def test_criterion_2_reference_tables(capsys):
    with criterion(2, "reference-table relative errors and layer-metric echo"):
        stated = {
            "VGG-16": (-6.13, 1.47),
            "AlexNet": (-15.02, 11.25),
            "NIN": (-9.83, 23.61),
            "Overfeat": (-42.06, -1.40),
            "CIFAR10-6conv": (-42.60, 2.08),
        }
        rows = {row.network: row for row in reference.relative_errors()}
        assert set(rows) == set(stated)
        for network, (paleo_err, np_err) in stated.items():
            assert abs(rows[network].paleo_error_pct - paleo_err) <= 0.01
            assert abs(rows[network].neuralpower_error_pct - np_err) <= 0.01

        code = cli.main(["compare-reference"])
        out = capsys.readouterr().out
        assert code == 0
        for fragment in ("-6.13", "+1.47", "-15.02", "+11.25", "-9.83", "+23.61",
                         "-42.06", "-1.40", "-42.60", "+2.08"):
            assert fragment in out
        for fragment in ("60", "39.97", "1.019", "58.29", "4.304",
                         "17", "41.92", "0.7474", "73.76", "0.8265",
                         "31", "11.41", "0.0686", "79.91", "1.763"):
            assert fragment in out


# --- 3: GP posterior vs dense-inverse oracle -----------------------------------

def test_criterion_3_gp_oracle_equivalence():
    with criterion(3, "GP posterior matches dense-inverse oracle within 1e-8"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            n = int(rng.integers(1, 11))
            space = bo.SearchSpace(tuple(
                bo.Dimension(f"d{i}", "continuous", 0.0, 1.0) for i in range(dim)))
            obs = [bo.Observation(tuple(rng.uniform(0, 1, dim)), float(rng.normal()))
                   for _ in range(n)]
            lengthscales = tuple(float(v) for v in rng.uniform(0.15, 1.5, dim))
            signal_var = float(rng.uniform(0.5, 3.0))
            noise_var = float(rng.uniform(1e-4, 1e-1))
            prior_mean = float(rng.normal())
            state = bo.GPState(space, obs, lengthscales=lengthscales,
                               signal_var=signal_var, noise_var=noise_var,
                               prior_mean=prior_mean)
            for _ in range(3):
                query = tuple(rng.uniform(0, 1, dim))
                (mean,), (var,) = bo.gp_posterior_batch(state, [query])
                mean_o, var_o = gp_posterior_dense(
                    [o.x for o in obs], [o.y for o in obs], query,
                    lengthscales, signal_var, noise_var, prior_mean)
                assert abs(mean - mean_o) <= 1e-8
                assert abs(var - var_o) <= 1e-8


# --- 4: EI closed form vs quadrature -------------------------------------------

def test_criterion_4_ei_quadrature_grid():
    with criterion(4, "EI closed form vs quadrature <= 1e-6 on 20x20x5 grid"):
        worst = 0.0
        for mean in np.linspace(-3.0, 3.0, 20):
            for sd in np.geomspace(0.05, 2.5, 20):
                for y_best in np.linspace(-2.0, 2.0, 5):
                    closed = bo.ei_value(float(mean), float(sd), float(y_best))
                    quad = ei_quadrature(float(mean), float(sd), float(y_best))
                    worst = max(worst, abs(closed - quad))
        assert worst <= 1e-6, f"max discrepancy {worst}"


# --- 5: budget gating over constrained traces ----------------------------------

def _constrained_setup(power_budget):
    space = bo.SearchSpace((bo.Dimension("x1", "continuous", 0.0, 1.0),
                            bo.Dimension("x2", "continuous", 0.0, 1.0)),
                           structural_subset=("x1", "x2"))
    power = LinearModel(("x1", "x2"), (1.0, 1.0), LinTarget.POWER_W)
    memory = LinearModel(("x1", "x2"), (1.0, 0.0), LinTarget.MEMORY_MB)
    return space, bo.ConstraintSpec(power_budget, 10.0, power, memory)


def test_criterion_5_gating_over_traces():
    with criterion(5, "no non-fallback proposal violates predicted budgets (20 runs)"):
        run_specs = [(seed, 1.0) for seed in range(1, 11)] + \
                    [(seed, 0.05) for seed in range(1, 11)]
        saw_fallback = False
        for seed, power_budget in run_specs:
            space, cons = _constrained_setup(power_budget)
            _, trace = bo.bo_run(quadratic_bowl(1.0), space, cons, budget=30, seed=seed)
            for record in trace.records:
                if record.phase != "bo":
                    continue
                if record.fallback:
                    saw_fallback = True
                    assert record.acquisition == 0.0
                if not record.feasible:
                    assert record.fallback, \
                        f"seed {seed}: unflagged infeasible proposal at iter {record.iteration}"
        assert saw_fallback  # the tight-budget runs must exercise the fallback path


# --- 6: constrained convergence beats post-hoc filtering ------------------------

def test_criterion_6_constrained_convergence():
    with criterion(6, "gated acquisition reaches the feasible optimum faster (median)"):
        started = time.perf_counter()
        space, cons = _constrained_setup(1.0)
        objective = quadratic_bowl(1.0)
        feasible_opt = 0.5          # min of (x1-1)^2+(x2-1)^2 on x1+x2 <= 1
        gate = feasible_opt * 1.01

        def iterations_to_gate(trace, posthoc):
            for record in trace.records:
                if posthoc:
                    feasible = record.x[0] + record.x[1] <= 1.0
                else:
                    feasible = record.feasible
                if feasible and not record.failed and record.y <= gate:
                    return record.iteration
            return 51

        gated, posthoc = [], []
        for seed in range(1, 21):
            _, trace_hw = bo.bo_run(objective, space, cons, budget=50, seed=seed)
            gated.append(iterations_to_gate(trace_hw, posthoc=False))
            _, trace_ei = bo.bo_run(objective, space, None, budget=50, seed=seed)
            posthoc.append(iterations_to_gate(trace_ei, posthoc=True))
        elapsed = time.perf_counter() - started
        assert statistics.median(gated) < statistics.median(posthoc), \
            f"medians: gated {statistics.median(gated)} vs post-hoc {statistics.median(posthoc)}"
        assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s"


# --- 7: analytic exactness -------------------------------------------------------

# frozen from exact rational arithmetic over loop-nest counts with
# peak=1e12 flops, read 4e9 B/s, write 2e9 B/s, ppp_c=0.5, ppp_io=0.25, 4 B/elem
PALEO_FIXTURES = [
    ("conv", dict(b=1, ic=1, hw=3, k=3, s=1, p=0, oc=1),
     7.2e-05, 3.6e-08, 8e-06),
    ("conv", dict(b=2, ic=3, hw=8, k=3, s=1, p=1, oc=16),
     0.003264, 0.000221184, 0.016384),
    ("conv", dict(b=1, ic=4, hw=16, k=5, s=2, p=2, oc=8),
     0.007296, 0.0002048, 0.004096),
    ("conv", dict(b=4, ic=2, hw=10, k=2, s=2, p=0, oc=4),
     0.003328, 1.28e-05, 0.0032),
    ("fc", dict(b=1, iu=4, ou=2),
     4.8e-05, 3.2e-08, 1.6e-05),
    ("fc", dict(b=8, iu=128, ou=64),
     0.036864, 0.000262144, 0.004096),
    ("fc", dict(b=2, iu=100, ou=10),
     0.0048, 8e-06, 0.00016),
    ("pool", dict(b=1, c=1, hw=4, k=2, s=2, p=0),
     6.4e-05, 3.2e-08, 3.2e-05),
    ("pool", dict(b=2, c=16, hw=8, k=2, s=2, p=0),
     0.008192, 4.096e-06, 0.004096),
    ("pool", dict(b=1, c=8, hw=7, k=3, s=2, p=1),
     0.001568, 2.304e-06, 0.001024),
]


def _fixture_layer(kind, d):
    if kind == "conv":
        return conv2d("c", TensorShape(d["b"], d["ic"], d["hw"], d["hw"]),
                      out_channels=d["oc"], kernel=d["k"], stride=d["s"], padding=d["p"])
    if kind == "fc":
        return fully_connected("f", TensorShape(d["b"], d["iu"], 1, 1), units=d["ou"])
    return pool2d("p", TensorShape(d["b"], d["c"], d["hw"], d["hw"]),
                  kernel=d["k"], stride=d["s"], padding=d["p"])


def _small_layers():
    layers = []
    for b in (1, 2):
        for ic in (1, 3):
            for k in (1, 2, 3):
                for s in (1, 2):
                    for p in (0, 1):
                        if k > 6 + 2 * p:
                            continue
                        layers.append(conv2d("c", TensorShape(b, ic, 6, 6),
                                             out_channels=4, kernel=k, stride=s,
                                             padding=p))
                        layers.append(pool2d("p", TensorShape(b, ic, 6, 6),
                                             kernel=k, stride=s, padding=p))
    for b in (1, 4):
        for iu in (1, 8):
            for ou in (2, 8):
                layers.append(fully_connected("f", TensorShape(b, iu, 1, 1), units=ou))
    return layers


def test_criterion_7_analytic_exactness():
    with criterion(7, "analytic runtime and energy match hand-computed values exactly"):
        device = DeviceSpec(peak_flops=1e12, read_bandwidth=4e9, write_bandwidth=2e9,
                            ppp_compute=0.5, ppp_io=0.25, bytes_per_element=4)
        for kind, d, read_ms, compute_ms, write_ms in PALEO_FIXTURES:
            rt = paleo_layer_runtime(_fixture_layer(kind, d), device)
            assert rt.read_ms == read_ms
            assert rt.compute_ms == compute_ms
            assert rt.write_ms == write_ms
            assert rt.total_ms == read_ms + compute_ms + write_ms

        spec = EnergySpec(e_mac=1.0, levels=(("DRAM", 100.0),), bitwidth_reference=16)
        for layer in _small_layers():
            s = layer.input
            if layer.kind is LayerKind.CONV2D:
                o = conv_loopnest(s.batch, s.channels, s.height, s.width, layer.kernel_h,
                                  layer.kernel_w, layer.stride, layer.padding,
                                  layer.output_channels)
                macs = o["macs"]
            elif layer.kind is LayerKind.POOL2D:
                o = pool_loopnest(s.batch, s.channels, s.height, s.width, layer.kernel_h,
                                  layer.kernel_w, layer.stride, layer.padding)
                macs = 0
                o["weight_reads"] = 0
            else:
                o = fc_loopnest(s.batch, layer.in_units, layer.output_units)
                macs = o["macs"]
            accesses = o["input_reads"] + o["weight_reads"] + o["output_writes"]

            energy = eyeriss_layer_energy(layer, spec)
            assert energy.compute_pj == float(macs)
            assert energy.data_pj == float(accesses * 100)

            # power-of-two sparsity and bitwidth make the scaled check exact too
            scaled = eyeriss_layer_energy(layer, spec, AccessProfile((("DRAM", accesses),)),
                                          SparsityInfo(0.5), bitwidth=8)
            assert scaled.compute_pj == macs * 0.5 * 1.0 * 0.5
            assert scaled.data_pj == accesses * 0.5 * 100.0 * 0.5

            zeroed = eyeriss_layer_energy(layer, spec, sparsity=SparsityInfo(1.0))
            assert zeroed.total_pj == 0.0


# --- 8: linear model recovery ----------------------------------------------------

def test_criterion_8_linear_recovery():
    with criterion(8, "linear power/memory fits recover generators within 1e-6"):
        zs = np.array([(z1, z2) for z1 in range(3, 31, 3) for z2 in range(5, 26, 5)])
        profile = Profile(("units1", "units2"), zs, 1.5 * zs[:, 0] + 0.2 * zs[:, 1],
                          0.75 * zs[:, 0] + 3.0 * zs[:, 1])
        power = linmod.fit_linear(profile, LinTarget.POWER_W, folds=10, seed=33)
        assert abs(power.weights[0] - 1.5) <= 1e-6
        assert abs(power.weights[1] - 0.2) <= 1e-6
        memory = linmod.fit_linear(profile, LinTarget.MEMORY_MB, folds=10, seed=33)
        assert abs(memory.weights[0] - 0.75) <= 1e-6
        assert abs(memory.weights[1] - 3.0) <= 1e-6

        again = linmod.fit_linear(profile, LinTarget.POWER_W, folds=10, seed=33)
        assert again.cv_report == power.cv_report
        assert len(power.cv_report) == 10


# --- 9: CLI determinism -----------------------------------------------------------

def _snapshot(base):
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "every CLI command is byte-identical across reruns"):
        inputs = {}
        inputs["network"] = tmp_path / "net.txt"
        inputs["network"].write_text("""
c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4
p1 pool k=2x2 s=2
f1 fc out=10
""")
        inputs["device"] = tmp_path / "device.txt"
        inputs["device"].write_text("peak_flops = 1e12\nread_bandwidth = 4e9\n"
                                    "write_bandwidth = 4e9\n")
        inputs["energy"] = tmp_path / "energy.txt"
        inputs["energy"].write_text("e_mac = 1.0\nlevels = DRAM:100.0\n")
        inputs["schema"] = tmp_path / "schema.json"
        inputs["schema"].write_text(json.dumps({"dimensions": [
            {"name": "units1", "lo": 1, "hi": 64},
            {"name": "units2", "lo": 1, "hi": 64}]}))
        inputs["space"] = tmp_path / "space.json"
        inputs["space"].write_text(json.dumps({
            "dimensions": [{"name": "x1", "kind": "continuous", "lo": 0.0, "hi": 1.0},
                           {"name": "x2", "kind": "continuous", "lo": 0.0, "hi": 1.0}],
            "structural": ["x1", "x2"]}))
        # dimension names match the search space so the fitted linear models
        # plug straight into the constrained optimize run
        profiled = ["x1,x2,power_w,memory_mb"]
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b = (int(v) for v in rng.integers(1, 65, 2))
            profiled.append(f"{a},{b},{0.8 * a + 0.2 * b},{0.5 * a + 2.0 * b}")
        inputs["profiled"] = tmp_path / "profiled.csv"
        inputs["profiled"].write_text("\n".join(profiled) + "\n")

        base = tmp_path / "out"
        synth_dir = base / "synth"
        fit_dir = base / "fit"
        sample_dir = base / "sample"
        linear_dir = base / "linear"
        commands = [
            ["synth", "--count", "40", "--noise", "0.05", "--seed", "9",
             "--output-dir", str(synth_dir)],
            ["fit", str(synth_dir / "synthetic_profile.csv"), "--seed", "1",
             "--output-dir", str(fit_dir)],
            ["predict", str(inputs["network"]), "--family", "poly",
             "--models-dir", str(fit_dir), "--format", "csv"],
            ["predict", str(inputs["network"]), "--family", "paleo",
             "--device", str(inputs["device"]), "--format", "csv"],
            ["predict", str(inputs["network"]), "--family", "energy",
             "--energy", str(inputs["energy"]), "--format", "csv"],
            ["compare-reference"],
            ["sample", str(inputs["schema"]), "--count", "30", "--seed", "4",
             "--output-dir", str(sample_dir)],
            ["fit-linear", str(inputs["profiled"]), "--seed", "2",
             "--output-dir", str(linear_dir)],
            ["optimize", str(inputs["space"]), "--objective", "quadratic",
             "--budget", "12", "--seed", "6", "--output-dir", str(base / "opt")],
            ["optimize", str(inputs["space"]), "--objective", "quadratic",
             "--center", "1,1", "--budget", "12", "--seed", "6",
             "--power-model", str(linear_dir / "linear_power.json"),
             "--memory-model", str(linear_dir / "linear_memory.json"),
             "--power-budget", "1.0", "--memory-budget", "100.0",
             "--output-dir", str(base / "opt_c")],
        ]
        # two passes with identical argv: stdout and every written file must
        # agree byte for byte
        for argv in commands:
            code_a = cli.main(list(argv))
            out_a = capsys.readouterr()
            files_a = _snapshot(base)
            code_b = cli.main(list(argv))
            out_b = capsys.readouterr()
            files_b = _snapshot(base)
            assert code_a == code_b == 0, f"{argv[0]}: exit codes {code_a}/{code_b}"
            assert out_a.out == out_b.out, f"{argv[0]}: stdout differs"
            assert set(files_a) == set(files_b)
            for name in files_a:
                assert files_a[name] == files_b[name], f"{argv[0]}: file differs: {name}"
