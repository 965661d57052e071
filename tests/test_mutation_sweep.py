"""Seeded mutation sweeps of the CLI's inputs: the profile CSV through `fit`,
and a fitted polynomial model JSON through `predict --family poly`.

Each case applies one mutation, drawn from `seeding.generator(SWEEP_SEED,
case)` (the model sweep from `MODEL_SWEEP_SEED`), to a small valid input and
runs the command on it in-process. The command must either exit 1 with one
`error:` line and no traceback, or exit 0 having printed and written only
finite numbers; either way no numpy warning may reach the user. A failing
case is a program fault: the message names the case, its mutation and what
went wrong, and the case stays in the sweep.
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
                   "truncate exponents", "swap type")
NETWORK = "c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4\np1 pool k=2x2 s=2\nf1 fc out=10\n"
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


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


def _mutate_model(models: dict, case: int) -> tuple[str, object, str]:
    """One model file of `models` with case `case`'s one mutation: its name,
    its document and the mutation's description."""
    rng = generator(MODEL_SWEEP_SEED, case)
    name = sorted(models)[int(rng.integers(len(models)))]
    doc = json.loads(json.dumps(models[name]))
    mutation = MODEL_MUTATIONS[int(rng.integers(len(MODEL_MUTATIONS)))]
    places = list(_places(doc))
    if mutation == "delete key":
        places = [(path, v) for path, v in places if len(path) == 1]
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
