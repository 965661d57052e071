"""One seeded mutation sweep over the eleven inputs the CLI reads, the ones
`CASES` in test_inputs.py lists: the two profile CSVs, the polynomial and
linear model JSONs, the network, device, energy and access specs, the
space, the schema and the synth config.

Each case applies one mutation, drawn from `seeding.generator(SWEEP_SEED,
input, case)`, to one of the input's valid files and runs the command that
reads it, in-process. The command must either exit 1 with one `error:` line
in the package's own words and no output directory, or exit 0 having printed
and written only finite numbers; either way no numpy warning may reach the
user. A text the input's reader rejects must exit 1 with exactly the
reader's message, and that message names its line, row, key or entry. A
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
from test_inputs import CASES, bad_input, work  # noqa: F401 (work is a fixture)

SWEEP_SEED = 31
CASES_PER_INPUT = 200
# the substitutes for one number or entry of a text input: non-finite, out of
# range, fractional where an integer is read, at the ends of the float range,
# not a number, or blank
TEXT_VALUES = ("nan", "inf", "-inf", "-1", "0", "-0", "1.5", "1e309", "1e300", "1e-300",
               "1e-320", "x", "true", "")
# the entries of a line are a CSV row's cells or a spec line's comma-separated
# parts (the energy levels), else its whitespace-separated tokens
TEXT_MUTATIONS = ("substitute", "substitute", "substitute", "delete entry", "duplicate entry",
                  "truncate line", "delete line", "duplicate line", "letter for digit",
                  "truncate text")
# the substitutes for one number of a JSON input, and one value of each JSON
# type, of which a swap picks one of another type than the value it replaces
JSON_VALUES = (math.nan, math.inf, -1, 0, 3, 1.5, 1e308, "x", True, None)
JSON_TYPES = (1.5, "x", True, None, [], [0], {})
JSON_MUTATIONS = ("substitute", "substitute", "swap type", "swap type", "delete key",
                  "truncate list", "duplicate entry", "letter for digit", "truncate text")
NUMBER = re.compile(r"\d+(\.\d+)?(e-?\d+)?")
# a whole cell or word, so a layer named f-inf is not a number
NON_FINITE = re.compile(r"(?<![^\s,])[-+]?(nan|inf|infinity)(?![^\s,])", re.IGNORECASE)
# Python's own wording for a value of the wrong shape, which an error line should not pass on
PYTHON_WORDING = ("cannot unpack", "is not iterable", "is not a valid", "not subscriptable",
                  "indices must be", "dictionary update sequence")
PLACE = re.compile(r"\b(line|row|entry) \d+|\bkey '|\bempty\b")


def _places(doc, path=()):
    """(path, value) of every value inside `doc`, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _places(value, path + (key,))


def _json_type(value) -> type:
    return float if type(value) is int else type(value)  # one JSON type: number


def _mutate_json(text: str, mutation: str, rng) -> tuple[str, str]:
    doc = json.loads(text)
    places = list(_places(doc))
    if mutation == "delete key":
        places = [(path, v) for path, v in places if isinstance(path[-1], str)]
    elif mutation in ("truncate list", "duplicate entry"):
        places = [(path, v) for path, v in places if isinstance(v, list) and v]
    elif mutation == "substitute":
        places = [(path, v) for path, v in places if type(v) in (int, float)]
    path, value = places[int(rng.integers(len(places)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "delete key":
        del parent[path[-1]]
    elif mutation == "truncate list":
        cut = int(rng.integers(len(value)))
        del value[cut:]
        mutation += f" to {cut}"
    elif mutation == "duplicate entry":
        at = int(rng.integers(len(value)))
        value.insert(at, json.loads(json.dumps(value[at])))
        mutation += f" {at}"
    else:
        pool = JSON_VALUES if mutation == "substitute" else [
            v for v in JSON_TYPES if _json_type(v) is not _json_type(value)]
        parent[path[-1]] = pool[int(rng.integers(len(pool)))]
        mutation += f" := {parent[path[-1]]!r}"
    return json.dumps(doc, indent=1), f"{list(path)}: {mutation}"


def _mutate_lines(text: str, mutation: str, rng) -> tuple[str, str]:
    lines = text.splitlines()
    content = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    at = content[int(rng.integers(len(content)))]
    if mutation == "delete line":
        del lines[at]
    elif mutation == "duplicate line":
        lines.insert(at, lines[at])
    elif mutation == "truncate line":
        cut = int(rng.integers(len(lines[at])))
        lines[at] = lines[at][:cut]
        mutation += f" at {cut}"
    else:
        sep = "," if "," in lines[at] else " "
        entries = lines[at].split(sep)
        i = int(rng.integers(len(entries)))
        if mutation == "delete entry":
            del entries[i]
        elif mutation == "duplicate entry":
            entries.insert(i, entries[i])
        else:  # one number of the entry, or the whole entry where it has none
            value = TEXT_VALUES[int(rng.integers(len(TEXT_VALUES)))]
            numbers = list(NUMBER.finditer(entries[i])) or [re.match(".*", entries[i])]
            number = numbers[int(rng.integers(len(numbers)))]
            entries[i] = entries[i][:number.start()] + value + entries[i][number.end():]
            mutation = f"{number.group()!r} := {value!r} in"
        lines[at] = sep.join(entries)
        mutation += f" entry {i}"
    return "\n".join(lines) + "\n", f"line {at + 1}: {mutation}"


def _mutate(text: str, is_json: bool, rng) -> tuple[str, str]:
    """`text` with one mutation drawn from `rng`, and the mutation's description."""
    mutations = JSON_MUTATIONS if is_json else TEXT_MUTATIONS
    mutation = mutations[int(rng.integers(len(mutations)))]
    if mutation == "letter for digit":
        digits = [i for i, ch in enumerate(text) if ch.isdigit()]
        i = digits[int(rng.integers(len(digits)))]
        return text[:i] + "abxyz"[int(rng.integers(5))] + text[i + 1:], f"{mutation} at {i}"
    if mutation == "truncate text":
        cut = int(rng.integers(len(text)))
        return text[:cut], f"{mutation} at {cut}"
    return (_mutate_json if is_json else _mutate_lines)(text, mutation, rng)


def _finite_numbers(doc) -> bool:
    if isinstance(doc, float):
        return math.isfinite(doc)
    if isinstance(doc, dict):
        doc = list(doc.values())
    return all(_finite_numbers(v) for v in doc) if isinstance(doc, list) else True


def _judge(message, keys, code: int, out: str, err: str, caught, out_dir) -> str | None:
    """What the run did wrong, or None; `message` is the reader's rejection, or None."""
    if caught:
        return f"{caught[0].category.__name__}: {caught[0].message}"
    if message is not None:
        if (code, err) != (1, f"error: {message}\n"):
            return f"the reader's rejection {message!r} gave exit {code}, {err!r}"
        if not (PLACE.search(message)
                or any(re.search(rf"\b{re.escape(key)}\b", message) for key in keys)):
            return f"the reader's message names no line, row, key or entry: {message!r}"
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
        return f"exit {code}: {err!r}"
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


def _fault(work, name: str, bad, keys, capsys) -> tuple[str | None, bool]:
    """What reading and running input `name`'s command on the file `bad` did
    wrong, or None; and whether the input's reader rejected the file."""
    _, read, argv, _ = CASES[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            read(bad.read_text())
            message = None
        except ValueError as exc:
            message = str(exc)
        code = cli.main([str(a) for a in argv(work, bad)])
    out, err = capsys.readouterr()
    return _judge(message, keys, code, out, err, caught, bad.parent / "out"), message is not None


def _sweep(work, tmp_path, capsys, name: str) -> None:
    """Input `name`'s valid files and its seeded cases all pass the oracle.
    At least a third of the cases are rejected by the input's reader, so the
    sweep reaches the readers' checks, not only the commands' later ones."""
    pattern, _, _, keys = CASES[name]
    files = sorted(work.glob(pattern))
    if keys is None:  # every key of the valid JSON files
        keys = {path[-1] for file in files for path, _ in _places(json.loads(file.read_text()))
                if isinstance(path[-1], str)}
    (tmp_path / "valid").mkdir()
    for file in files:
        valid = bad_input(work, name, tmp_path / "valid", file.name, file.read_text())
        assert _fault(work, name, valid, keys, capsys) == (None, False), valid.name
    faults = []
    rejected = 0
    for case in range(CASES_PER_INPUT):
        rng = generator(SWEEP_SEED, sorted(CASES).index(name), case)
        file = files[int(rng.integers(len(files)))]
        text, mutation = _mutate(file.read_text(), file.suffix == ".json", rng)
        directory = tmp_path / f"case{case}"
        directory.mkdir()
        fault, reader_rejected = _fault(work, name, bad_input(work, name, directory, file.name,
                                                              text), keys, capsys)
        rejected += reader_rejected
        if fault is not None:
            faults.append(f"case {case} ({file.name} {mutation}): {fault}")
    assert not faults, "\n".join(faults)
    assert 3 * rejected >= CASES_PER_INPUT, f"{rejected} of {CASES_PER_INPUT} rejected"


# the four inputs the sweep began with keep their tests' names
NAMED = {"profile", "polynomial model", "linear model", "network"}


def test_fit_on_a_mutated_profile_exits_1_with_one_error_or_writes_finite_models(
        work, tmp_path, capsys):
    _sweep(work, tmp_path, capsys, "profile")


def test_predict_on_a_mutated_model_exits_1_with_one_error_or_prints_finite_numbers(
        work, tmp_path, capsys):
    _sweep(work, tmp_path, capsys, "polynomial model")


def test_optimize_on_a_mutated_linear_model_exits_1_with_one_error_or_writes_finite_numbers(
        work, tmp_path, capsys):
    _sweep(work, tmp_path, capsys, "linear model")


def test_predict_on_a_mutated_spec_exits_1_with_one_error_or_prints_finite_numbers(
        work, tmp_path, capsys):
    """The network spec; the device and energy specs are inputs of the test below."""
    _sweep(work, tmp_path, capsys, "network")


@pytest.mark.parametrize("name", sorted(set(CASES) - NAMED))
def test_a_mutated_input_exits_1_naming_its_place_or_0(work, tmp_path, capsys, name):
    _sweep(work, tmp_path, capsys, name)
