"""Seeded mutation sweeps of the CLI's inputs: the profile CSV through `fit`,
a fitted polynomial model JSON through `predict --family poly`, a fitted
linear model JSON through `optimize --power-model/--memory-model`, and the
network, device and energy specs through `predict --family paleo|energy`.

Each case applies one mutation, drawn from `seeding.generator(SWEEP_SEED,
case)` (the model sweeps from `MODEL_SWEEP_SEED` and `LINEAR_SWEEP_SEED`,
the spec sweep from `SPEC_SWEEP_SEED`), to a small valid input and runs the
command on it in-process. The command must either exit 1 with one `error:` line in the
package's own words and no traceback, or exit 0 having printed and written
only finite numbers; either way no numpy warning may reach the user. A
failing case is a program fault: the message names the case, its mutation
and what went wrong, and the case stays in the sweep.
"""

import json
import math
import re
import warnings

import pytest

from hwcost import cli
from hwcost.seeding import generator

SWEEP_SEED = 12
CASES = 200
# the substitutes for one cell: non-finite, out of range, fractional where an
# integer is read, at the ends of the float range, not a number, or blank
VALUES = ("nan", "inf", "-inf", "-1", "0", "-0", "1.5", "1e309", "1e300", "1e-300",
          "1e-320", "x", "true", "")
MUTATIONS = ("substitute", "substitute", "substitute", "delete cell", "duplicate cell",
             "truncate line", "delete line", "duplicate line")
MODEL_SWEEP_SEED = 13
# the substitutes for one number of a model JSON, and one value of each JSON
# type, of which a swap picks one of another type than the value it replaces
MODEL_VALUES = (math.nan, math.inf, -1, 0, 1.5, 1e308, "x", True, None)
JSON_VALUES = (1.5, "x", True, None, [], {})
MODEL_MUTATIONS = ("substitute", "substitute", "substitute", "delete key",
                   "truncate exponents", "swap type", "duplicate entry")
LINEAR_SWEEP_SEED = 15
# a linear model has no exponents to truncate
LINEAR_MUTATIONS = tuple(m for m in MODEL_MUTATIONS if m != "truncate exponents")
# both structural dimensions reach past 1, so a weight of 1e308 overflows a prediction
LINEAR_SPACE = {"dimensions": [{"name": "x1", "kind": "continuous", "lo": 0.0, "hi": 4.0},
                               {"name": "x2", "kind": "integer", "lo": 0, "hi": 4}],
                "structural": ["x1", "x2"]}
SPEC_SWEEP_SEED = 14
# a spec line's entries: comma-separated where the line has commas (the
# energy levels), else whitespace-separated (a layer's tokens)
SPEC_MUTATIONS = ("substitute", "substitute", "substitute", "delete entry", "duplicate entry",
                  "truncate line", "delete line", "duplicate line")
NETWORK = "c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4\np1 pool k=2x2 s=2\nf1 fc out=10\n"
DEVICE = ("peak_flops = 1e12\nread_bandwidth = 4e9\nwrite_bandwidth = 2e9\nppp_compute = 0.5\n"
          "ppp_io = 0.25\nbytes_per_element = 4\n")
ENERGY = "e_mac = 1.5\nlevels = RF:0.5, SRAM:6, DRAM:200\nbitwidth_reference = 16\n"
NUMBER = re.compile(r"\d+(\.\d+)?(e-?\d+)?")
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
# Python's own wording for a value of the wrong shape, which an error line should not pass on
PYTHON_WORDING = ("cannot unpack", "is not iterable", "is not a valid")


@pytest.fixture(scope="module")
def base_lines(tmp_path_factory):
    """A valid profile, six rows of each kind, as the lines `synth` writes."""
    out_dir = tmp_path_factory.mktemp("base")
    assert cli.main(["synth", "--count", "6", "--seed", "7", "--output-dir", str(out_dir)]) == 0
    return (out_dir / "synthetic_profile.csv").read_text().splitlines()


def _mutate(lines: list[str], case: int) -> tuple[list[str], str]:
    """The lines with case `case`'s one mutation, and its description."""
    rng = generator(SWEEP_SEED, case)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    at = int(rng.integers(header, len(lines)))  # the header or a data row
    mutation = MUTATIONS[int(rng.integers(len(MUTATIONS)))]
    lines = list(lines)
    if mutation == "delete line":
        del lines[at]
    elif mutation == "duplicate line":
        lines.insert(at, lines[at])
    elif mutation == "truncate line":
        cut = int(rng.integers(len(lines[at])))
        lines[at] = lines[at][:cut]
        mutation += f" at {cut}"
    else:
        cells = lines[at].split(",")
        i = int(rng.integers(len(cells)))
        if mutation == "substitute":
            value = VALUES[int(rng.integers(len(VALUES)))]
            cells[i] = value
            mutation = f"cell {i} := {value!r}"
        elif mutation == "delete cell":
            del cells[i]
            mutation = f"delete cell {i}"
        else:
            cells.insert(i, cells[i])
            mutation = f"duplicate cell {i}"
        lines[at] = ",".join(cells)
    return lines, f"file line {at + 1}: {mutation}"


def _finite_numbers(doc) -> bool:
    if isinstance(doc, float):
        return math.isfinite(doc)
    if isinstance(doc, dict):
        doc = list(doc.values())
    return all(_finite_numbers(v) for v in doc) if isinstance(doc, list) else True


def _fault(code: int, out: str, err: str, caught, out_dir) -> str | None:
    """What the run did wrong, or None."""
    if "Traceback" in err:
        return "traceback"
    if caught:
        return f"{caught[0].category.__name__}: {caught[0].message}"
    lines = err.splitlines()
    if code == 1:
        if sum(line.startswith("error: ") for line in lines) != 1:
            return f"exit 1 without exactly one error line: {err!r}"
        if any(words in err for words in PYTHON_WORDING):
            return f"exit 1 with Python's wording, not the package's: {err!r}"
        if not all(line.startswith(("error: ", "warning: ")) for line in lines):
            return f"exit 1 with a stray stderr line: {err!r}"
        if out_dir.exists():
            return "exit 1 wrote its output directory"
        return None
    if code != 0:
        return f"exit {code}"
    if not all(line.startswith("warning: ") for line in lines):
        return f"exit 0 with a stray stderr line: {err!r}"
    if NON_FINITE.search(out):
        return f"exit 0 printed a number that is not finite: {out!r}"
    for path in sorted(out_dir.glob("*.json")):
        if not _finite_numbers(json.loads(path.read_text())):
            return f"exit 0 wrote a number that is not finite to {path.name}"
    for path in sorted(out_dir.glob("*.csv")):
        if NON_FINITE.search(path.read_text()):
            return f"exit 0 wrote a number that is not finite to {path.name}"
    return None


def test_fit_on_a_mutated_profile_exits_1_with_one_error_or_writes_finite_models(
        base_lines, tmp_path, capsys):
    faults = []
    for case in range(CASES):
        lines, mutation = _mutate(base_lines, case)
        profile = tmp_path / f"case{case}.csv"
        profile.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / f"models{case}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["fit", str(profile), "--degree", "1", "--folds", "2",
                             "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        fault = _fault(code, captured.out, captured.err, caught, out_dir)
        if fault is not None:
            faults.append(f"case {case} ({mutation}): {fault}")
    assert not faults, "\n".join(faults)


@pytest.fixture(scope="module")
def base_models(base_lines, tmp_path_factory):
    """The six models `fit` writes for the base profile, by file name."""
    profile = tmp_path_factory.mktemp("fit") / "profile.csv"
    profile.write_text("\n".join(base_lines) + "\n")
    out_dir = profile.parent / "models"
    assert cli.main(["fit", str(profile), "--degree", "2", "--folds", "2",
                     "--output-dir", str(out_dir)]) == 0
    return {path.name: json.loads(path.read_text()) for path in sorted(out_dir.glob("model_*"))}


def _places(doc, path=()):
    """(path, value) of every value inside `doc`, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _places(value, path + (key,))


def _json_type(value) -> type:
    return float if type(value) is int else type(value)  # one JSON type: number


def _mutate_model(models: dict, case: int, seed: int = MODEL_SWEEP_SEED,
                  mutations: tuple = MODEL_MUTATIONS) -> tuple[str, object, str]:
    """One model file of `models` with case `case`'s one mutation, drawn
    from `mutations` by the stream (seed, case): its name, its document and
    the mutation's description."""
    rng = generator(seed, case)
    name = sorted(models)[int(rng.integers(len(models)))]
    doc = json.loads(json.dumps(models[name]))
    mutation = mutations[int(rng.integers(len(mutations)))]
    places = list(_places(doc))
    if mutation == "delete key":
        places = [(path, v) for path, v in places if len(path) == 1]
    elif mutation == "duplicate entry":
        places = [(path, v) for path, v in places if isinstance(v, list) and v]
    elif mutation == "truncate exponents":
        places = [(path, v) for path, v in places if path[0] == "terms" and len(path) == 3
                  and path[2] == 0]
    elif mutation == "substitute":
        places = [(path, v) for path, v in places if type(v) in (int, float)]
    path, value = places[int(rng.integers(len(places)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "delete key":
        del parent[path[-1]]
    elif mutation == "truncate exponents":
        cut = int(rng.integers(len(value)))
        del value[cut:]
        mutation += f" to {cut}"
    elif mutation == "duplicate entry":
        at = int(rng.integers(len(value)))
        value.insert(at, json.loads(json.dumps(value[at])))
        mutation += f" {at}"
    else:
        pool = MODEL_VALUES if mutation == "substitute" else [
            v for v in JSON_VALUES if _json_type(v) is not _json_type(value)]
        parent[path[-1]] = pool[int(rng.integers(len(pool)))]
        mutation += f" := {parent[path[-1]]!r}"
    return name, doc, f"{name} {list(path)}: {mutation}"


def test_predict_on_a_mutated_model_exits_1_with_one_error_or_prints_finite_numbers(
        base_models, tmp_path, capsys):
    network = tmp_path / "net.txt"
    network.write_text(NETWORK)
    faults = []
    for case in range(CASES):
        name, doc, mutation = _mutate_model(base_models, case)
        models_dir = tmp_path / f"models{case}"
        models_dir.mkdir()
        for other, other_doc in base_models.items():
            (models_dir / other).write_text(json.dumps(doc if other == name else other_doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["predict", str(network), "--family", "poly",
                             "--models-dir", str(models_dir)])
        captured = capsys.readouterr()
        # predict writes no files: the output directory passed is one that never exists
        fault = _fault(code, captured.out, captured.err, caught, tmp_path / "no output")
        if fault is not None:
            faults.append(f"case {case} ({mutation}): {fault}")
    assert not faults, "\n".join(faults)


@pytest.fixture(scope="module")
def base_linear_models(tmp_path_factory):
    """The two models `fit-linear` writes for a small profile, by file name."""
    d = tmp_path_factory.mktemp("linear")
    rows = ["x1,x2,power_w,memory_mb"]
    rows += [f"{a},{b},{0.5 * a + 2.0 * b + 1.0},{3.0 * a + 0.25 * b + 1.0}"
             for a in range(1, 5) for b in range(1, 5)]
    (d / "profiled.csv").write_text("\n".join(rows) + "\n")
    assert cli.main(["fit-linear", str(d / "profiled.csv"), "--folds", "2",
                     "--output-dir", str(d / "models")]) == 0
    return {path.name: json.loads(path.read_text()) for path in sorted(d.glob("models/linear_*"))}


def test_optimize_on_a_mutated_linear_model_exits_1_with_one_error_or_writes_finite_numbers(
        base_linear_models, tmp_path, capsys):
    """A seeding-only budget: every evaluated row is predicted and traced,
    and no GP proposal is made."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps(LINEAR_SPACE))
    faults = []
    for case in range(CASES):
        name, doc, mutation = _mutate_model(base_linear_models, case, LINEAR_SWEEP_SEED,
                                            LINEAR_MUTATIONS)
        paths = {}
        for model, model_doc in base_linear_models.items():
            paths[model] = tmp_path / f"case{case}_{model}"
            paths[model].write_text(json.dumps(doc if model == name else model_doc))
        out_dir = tmp_path / f"out{case}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["optimize", str(space), "--budget", "4", "--seed", str(case),
                             "--power-model", str(paths["linear_power.json"]),
                             "--memory-model", str(paths["linear_memory.json"]),
                             "--power-budget", "1e3", "--memory-budget", "1e3",
                             "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        fault = _fault(code, captured.out, captured.err, caught, out_dir)
        if fault is not None:
            faults.append(f"case {case} ({mutation}): {fault}")
    assert not faults, "\n".join(faults)


def _mutate_spec(case: int) -> tuple[dict[str, str], str, str]:
    """The network, device and energy specs, one of them with case `case`'s
    one mutation; the family that reads it; the mutation's description."""
    rng = generator(SPEC_SWEEP_SEED, case)
    texts = {"network": NETWORK, "device": DEVICE, "energy": ENERGY}
    name = sorted(texts)[int(rng.integers(len(texts)))]
    family = {"device": "paleo", "energy": "energy"}.get(name) or \
        ("paleo", "energy")[int(rng.integers(2))]
    lines = texts[name].splitlines()
    at = int(rng.integers(len(lines)))
    mutation = SPEC_MUTATIONS[int(rng.integers(len(SPEC_MUTATIONS)))]
    if mutation == "delete line":
        del lines[at]
    elif mutation == "duplicate line":
        lines.insert(at, lines[at])
    elif mutation == "truncate line":
        cut = int(rng.integers(len(lines[at])))
        lines[at] = lines[at][:cut]
        mutation += f" at {cut}"
    elif mutation == "substitute":
        numbers = list(NUMBER.finditer(lines[at]))
        number = numbers[int(rng.integers(len(numbers)))]
        value = VALUES[int(rng.integers(len(VALUES)))]
        lines[at] = lines[at][:number.start()] + value + lines[at][number.end():]
        mutation = f"{number.group()!r} := {value!r}"
    else:
        sep = "," if "," in lines[at] else " "
        entries = lines[at].split(sep)
        i = int(rng.integers(len(entries)))
        if mutation == "delete entry":
            del entries[i]
        else:
            entries.insert(i, entries[i])
        lines[at] = sep.join(entries)
        mutation += f" {i}"
    texts[name] = "\n".join(lines) + "\n"
    return texts, family, f"{name} line {at + 1}: {mutation}"


def test_predict_on_a_mutated_spec_exits_1_with_one_error_or_prints_finite_numbers(
        tmp_path, capsys):
    faults = []
    for case in range(CASES):
        texts, family, mutation = _mutate_spec(case)
        paths = {name: tmp_path / f"case{case}_{name}.txt" for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text)
        spec = ["--device", paths["device"]] if family == "paleo" else ["--energy", paths["energy"]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["predict", str(paths["network"]), "--family", family,
                             *map(str, spec)])
        captured = capsys.readouterr()
        fault = _fault(code, captured.out, captured.err, caught, tmp_path / "no output")
        if fault is not None:
            faults.append(f"case {case} ({mutation}, --family {family}): {fault}")
    assert not faults, "\n".join(faults)
