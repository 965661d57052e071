"""A seeded mutation sweep of the profile CSV through `fit`.

Each case applies one mutation, drawn from `seeding.generator(SWEEP_SEED,
case)`, to a small valid profile and runs `fit` on it in-process. The
command must either exit 1 with one `error:` line and no traceback, or exit
0 having printed and written only finite numbers; either way no numpy
warning may reach the user. A failing case is a program fault: the message
names the case, its mutation and what went wrong, and the case stays in the
sweep.
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
