"""Seeded input generation for the benchmark workloads.

Everything the program sees is written here as files: profile CSVs from
`hwcost synth`, network specs and device/energy specs for `predict`, and for
the search path a schema, the profiled-point CSV computed from a known linear
generator, the fitted constraint models and the search space. The benchmark's
own draws use `random.Random`, so they do not depend on the program's
generators.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SYNTH_NOISE = "0.05"
DEVICE_SPEC = ("peak_flops = 1e12\nread_bandwidth = 4e9\nwrite_bandwidth = 2e9\n"
               "ppp_compute = 0.5\nppp_io = 0.25\n")
ENERGY_SPEC = "e_mac = 1.0\nlevels = DRAM:200.0\n"
NET_DEPTHS = tuple(range(2, 14))  # every sweep holds each depth equally often

# criterion-6 problem: minimise (x1-1)^2 + (x2-1)^2 on the unit box with the
# predicted power x1 + x2 <= 1; memory x1 <= 10 never binds
POWER_WEIGHTS = (1, 1)
MEMORY_WEIGHTS = (1, 0)
POWER_BUDGET = 1.0
MEMORY_BUDGET = 10.0
CENTER = (1.0, 1.0)
PROFILE_RANGE = (1, 64)


def held_out_seed(seed: int) -> int:
    """Seed of the held-out profile, kept apart from every training seed in use."""
    return seed + 1_000_000_007


def train_seed(seed: int, k: int) -> int:
    """Seed of the k-th training profile, and of the fold split fitted on it."""
    return seed * 1000 + k


def bo_seed(seed: int, i: int) -> int:
    """Seed of the i-th search pair; consecutive, as criterion 6 uses them."""
    return seed * 1000 + i + 1


def _network(rng: random.Random, depth: int) -> str:
    """A conv/pool chain ending in fc layers, inside the synth ranges where it can be."""
    batch, channels, hw = rng.randint(1, 8), rng.randint(4, 32), rng.randint(8, 32)
    lines = [f"in0 conv in={batch}x{channels}x{hw}x{hw} k=3x3 s=1 p=1 out={rng.randint(4, 32)}"]
    n_fc = 1 if depth < 6 else 2
    for i in range(1, depth - n_fc):
        if hw >= 16 and rng.random() < 0.4:
            lines.append(f"l{i} pool k=2x2 s=2")
            hw //= 2
        else:
            k = rng.choice((1, 3, 5))
            lines.append(f"l{i} conv k={k}x{k} s=1 p={k // 2} out={rng.randint(4, 32)}")
    lines.append(f"gp pool k={hw}x{hw} s={hw}")
    for i in range(n_fc):
        lines.append(f"fc{i} fc out={rng.randint(1, 512)}")
    return "\n".join(lines) + "\n"


def write_networks(directory: Path, seed: int, count: int) -> list[Path]:
    rng = random.Random(f"nets-{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        depth = NET_DEPTHS[i % len(NET_DEPTHS)]
        path = directory / f"net{i:03d}.txt"
        path.write_text(_network(rng, depth))
        paths.append(path)
    return paths


def _must(call, argv: list[str]) -> None:
    code, _ = call(argv)
    if code != 0:
        raise RuntimeError(f"set-up command exited {code}: hwcost {' '.join(argv)}")


# profile CSV columns of the two targets; a blank cell leaves a target unfitted
TARGET_COLUMNS = {"runtime_ms": 11, "power_w": 12}


def split_profile(profile: Path, directory: Path) -> dict[str, Path]:
    """One CSV per (kind, target) model: the rows of one kind, the other
    target's cell blanked, so that `fit` on it fits exactly that model on the
    same samples, in the same order, as `fit` on the whole profile does."""
    lines = [line for line in profile.read_text().splitlines()
             if line and not line.startswith("#")]
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    directory.mkdir(parents=True, exist_ok=True)
    parts = {}
    for kind in sorted({row[0] for row in rows}):
        for target, keep in TARGET_COLUMNS.items():
            out = [header]
            for row in rows:
                if row[0] == kind:
                    cells = list(row)
                    for column in TARGET_COLUMNS.values():
                        if column != keep:
                            cells[column] = ""
                    out.append(",".join(cells))
            parts[f"{kind}_{target}"] = directory / f"{kind}_{target}.csv"
            parts[f"{kind}_{target}"].write_text("\n".join(out) + "\n")
    return parts


def setup_fit(call, d: Path, seed: int, size: dict) -> dict:
    """`size["profiles"]` training profiles, each split per model, a held-out
    profile, networks and analytic specs.

    `call(argv) -> (exit code, stdout)` runs one hwcost command.
    """
    train = []
    for k in range(size["profiles"]):
        out = d / f"train{k}"
        _must(call, ["synth", "--count", str(size["train"]), "--noise", SYNTH_NOISE,
                     "--seed", str(train_seed(seed, k)), "--output-dir", str(out)])
        train.append(split_profile(out / "synthetic_profile.csv", out / "parts"))
    _must(call, ["synth", "--count", str(size["held_out"]), "--noise", SYNTH_NOISE,
                 "--seed", str(held_out_seed(seed)), "--output-dir", str(d / "held_out")])
    (d / "device.txt").write_text(DEVICE_SPEC)
    (d / "energy.txt").write_text(ENERGY_SPEC)
    return {"train": train,
            "held_out": d / "held_out" / "synthetic_profile.csv",
            "nets": write_networks(d / "nets", seed, size["nets"]),
            "device": d / "device.txt", "energy": d / "energy.txt"}


def setup_search(call, d: Path, seed: int, size: dict) -> dict:
    """sample -> profiled CSV from the linear generator -> fit-linear, plus the space."""
    d.mkdir(parents=True, exist_ok=True)
    lo, hi = PROFILE_RANGE
    (d / "schema.json").write_text(json.dumps({"dimensions": [
        {"name": "x1", "lo": lo, "hi": hi}, {"name": "x2", "lo": lo, "hi": hi}]}))
    (d / "space.json").write_text(json.dumps({
        "dimensions": [{"name": "x1", "kind": "continuous", "lo": 0.0, "hi": 1.0},
                       {"name": "x2", "kind": "continuous", "lo": 0.0, "hi": 1.0}],
        "structural": ["x1", "x2"]}))
    _must(call, ["sample", str(d / "schema.json"), "--count", str(size["profiled"]),
                 "--seed", str(seed), "--output-dir", str(d / "sample")])
    rows = (d / "sample" / "samples.csv").read_text().split()
    profiled = ["x1,x2,power_w,memory_mb"]
    for row in rows[1:]:
        z = [int(v) for v in row.split(",")]
        power = float(sum(w * v for w, v in zip(POWER_WEIGHTS, z)))
        memory = float(sum(w * v for w, v in zip(MEMORY_WEIGHTS, z)))
        profiled.append(f"{z[0]},{z[1]},{power!r},{memory!r}")
    (d / "profiled.csv").write_text("\n".join(profiled) + "\n")
    _must(call, ["fit-linear", str(d / "profiled.csv"), "--seed", str(seed),
                 "--output-dir", str(d / "linear")])
    return {"space": d / "space.json",
            "power_model": d / "linear" / "linear_power.json",
            "memory_model": d / "linear" / "linear_memory.json"}


def setup(call, workload: str, d: Path, seed: int, size: dict) -> dict:
    if workload == "search":
        return setup_search(call, d, seed, size)
    return setup_fit(call, d, seed, size)
