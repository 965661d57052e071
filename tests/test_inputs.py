"""Malformed input never ends in a traceback.

Every file the CLI reads goes through one reading path: a bad value exits 1
with a message naming the input and its line, its row (the file line,
comments counted) or its JSON key. `CASES` lists the eleven inputs;
test_mutation_sweep.py damages each of them with seeded mutations, and the
named cases here pin one message each.
"""

import json
import math

import numpy as np
import pytest

from hwcost import analytic, cli, linmod, polyreg, synth
from hwcost.netgraph import (InputError, LayerKind, NetworkConfig, NetworkParseError,
                             ShapeMismatchError, TensorShape, _number, conv2d, fully_connected,
                             parse_network, pool2d)
from oracles import format_network

NETWORK = """# three layers
c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4
p1 pool k=2x2 s=2   # halves the map
f1 fc out=10
"""
NETWORK_LAYERS = {layer.name for layer in parse_network(NETWORK).layers}
DEVICE = "# workstation\npeak_flops = 1e12\nread_bandwidth = 4e9\nwrite_bandwidth = 2e9\n" \
         "ppp_compute = 0.5\nppp_io = 0.25\nbytes_per_element = 4\n"
ENERGY = "e_mac = 1.5\nlevels = RF:0.5, DRAM:200\nbitwidth_reference = 16\n"
ENERGY_LEVELS = {name for name, _ in analytic.parse_energy_spec(ENERGY).levels}
ACCESSES = "# layer level count\nc1 RF 1200\nc1 DRAM 300\np1 DRAM 64\n"
SPACE = {"dimensions": [{"name": "x1", "kind": "continuous", "lo": 0.0, "hi": 1.0},
                        {"name": "x2", "kind": "integer", "lo": 0, "hi": 4}],
         "structural": ["x1", "x2"]}
SCHEMA = {"dimensions": [{"name": "units1", "lo": 1, "hi": 64},
                         {"name": "units2", "lo": 1, "hi": 8}]}
SYNTH_CONFIG = {"count": 6, "noise": 0.01, "use": ["conv", "fc"],
                "kinds": {"fc": {"ranges": {"batch": [1, 4], "in_units": [1, 64],
                                            "out_units": [1, 64]},
                                 "runtime_ms": {"const": 0.1, "flops": 1e-7, "mem": 1e-6}}}}
DEVICE_KEYS = ("peak_flops", "read_bandwidth", "write_bandwidth", "ppp_compute", "ppp_io",
               "bytes_per_element")
ENERGY_KEYS = ("e_mac", "levels", "bitwidth_reference")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding one valid file of every input the CLI reads."""
    d = tmp_path_factory.mktemp("inputs")
    for name, text in (("net.txt", NETWORK), ("device.txt", DEVICE), ("energy.txt", ENERGY),
                       ("accesses.txt", ACCESSES), ("space.json", json.dumps(SPACE, indent=1)),
                       ("schema.json", json.dumps(SCHEMA, indent=1)),
                       ("synth.json", json.dumps(SYNTH_CONFIG, indent=1))):
        (d / name).write_text(text)
    rows = ["x1,x2,power_w,memory_mb"]
    rows += [f"{a},{b},{0.5 * a + 2.0 * b + 1.0},{3.0 * a + 0.25 * b + 1.0}"
             for a in range(1, 4) for b in range(1, 5)]
    (d / "profiled.csv").write_text("# profiled on the bench\n" + "\n".join(rows) + "\n")
    assert cli.main(["synth", "--count", "6", "--seed", "5", "--output-dir", str(d)]) == 0
    assert cli.main(["fit", str(d / "synthetic_profile.csv"), "--folds", "2",
                     "--output-dir", str(d / "models")]) == 0
    assert cli.main(["fit-linear", str(d / "profiled.csv"), "--folds", "2",
                     "--output-dir", str(d / "linear")]) == 0
    return d


def _optimize(space, power, memory, out):
    return ["optimize", space, "--budget", 6, "--candidates", 16, "--output-dir", out,
            "--power-model", power, "--memory-model", memory, "--power-budget", 20,
            "--memory-budget", 20]


# input name -> (its valid file, or a glob of the files it may be, its reader,
# argv reading the file at p, keys a message may name: None for every key of
# the valid JSON). A command that writes files writes them to p.parent / "out".
CASES = {
    "network": ("net.txt", parse_network,
                lambda d, p: ["predict", p, "--family", "paleo", "--device", d / "device.txt"],
                ()),
    "device": ("device.txt", analytic.parse_device_spec,
               lambda d, p: ["predict", d / "net.txt", "--family", "paleo", "--device", p],
               DEVICE_KEYS),
    "energy": ("energy.txt", analytic.parse_energy_spec,
               lambda d, p: ["predict", d / "net.txt", "--family", "energy", "--energy", p],
               ENERGY_KEYS),
    "accesses": ("accesses.txt", lambda text: cli._load_accesses(text, NETWORK_LAYERS,
                                                                    ENERGY_LEVELS),
                 lambda d, p: ["predict", d / "net.txt", "--family", "energy",
                               "--energy", d / "energy.txt", "--accesses", p], ()),
    "profile": ("synthetic_profile.csv", polyreg.read_profile_csv,
                lambda d, p: ["fit", p, "--folds", "2", "--output-dir", p.parent / "out"], ()),
    "profiled": ("profiled.csv", linmod.read_profiled_csv,
                 lambda d, p: ["fit-linear", p, "--folds", "2", "--output-dir", p.parent / "out"],
                 ()),
    "polynomial model": ("models/model_*.json", polyreg.model_from_json,
                         lambda d, p: ["predict", d / "net.txt", "--family", "poly",
                                       "--models-dir", p.parent], None),
    "linear model": ("linear/linear_*.json", linmod.model_from_json,
                     lambda d, p: _optimize(d / "space.json", p.parent / "linear_power.json",
                                            p.parent / "linear_memory.json", p.parent / "out"),
                     None),
    "space": ("space.json", cli._load_space,
              lambda d, p: _optimize(p, d / "linear" / "linear_power.json",
                                     d / "linear" / "linear_memory.json", p.parent / "out"), None),
    "schema": ("schema.json", cli._load_schema,
               lambda d, p: ["sample", p, "--count", 5, "--output-dir", p.parent / "out"], None),
    "synth config": ("synth.json", synth.load_config,
                     lambda d, p: ["synth", "--config", p, "--output-dir", p.parent / "out"], None),
}


def bad_input(work, name: str, directory, filename: str, text: str):
    """The path of `filename` in `directory`, written with `text`, beside
    copies of input `name`'s valid files (the other models of a model input)."""
    for path in work.glob(CASES[name][0]):
        (directory / path.name).write_bytes(path.read_bytes())
    bad = directory / filename
    bad.write_text(text)
    return bad


def _synth_profile_with_bad_line_15(d):
    lines = (d / "synthetic_profile.csv").read_text().splitlines()
    assert lines[10].startswith("kind,")  # after the ten comment lines
    lines[14] = lines[14].replace(",", ",x", 1)
    return "\n".join(lines) + "\n"


def _synth_profile_with_nan_line_15(d):
    lines = (d / "synthetic_profile.csv").read_text().splitlines()
    cells = lines[14].split(",")
    cells[-2] = "nan"  # runtime_ms
    lines[14] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _synth_profile_with_line_15(row):
    """The synth profile with its data row at file line 15 replaced by `row`."""
    def text(d):
        lines = (d / "synthetic_profile.csv").read_text().splitlines()
        lines[14] = row
        return "\n".join(lines) + "\n"
    return text


def _linear_power_with_nan_weight(d):
    doc = json.loads((d / "linear" / "linear_power.json").read_text())
    doc["weights"][0] = math.nan
    return json.dumps(doc)


def _fc_runtime_model(edit):
    """The fc runtime model's text after edit(doc)."""
    def text(d):
        doc = json.loads((d / "models" / "model_fc_runtime_ms.json").read_text())
        edit(doc)
        return json.dumps(doc)
    return text


def _linear_power(key, value):
    def text(d):
        doc = json.loads((d / "linear" / "linear_power.json").read_text())
        doc[key] = value
        return json.dumps(doc)
    return text


# input name, the bad file's name and text, and what the message must say
MOTIVATION = {
    "space lo null": ("space", "space.json", lambda d: json.dumps(
                          {"dimensions": [{"name": "x1", "lo": None, "hi": 1.0}]}),
                      "space dimensions[0] key 'lo'"),
    "space dimensions 5": ("space", "space.json",
                           lambda d: json.dumps({"dimensions": 5}), "space key 'dimensions'"),
    "synth ranges 5": ("synth config", "synth.json",
                       lambda d: json.dumps({"kinds": {"conv": {"ranges": 5}}}),
                       "synth config kinds.conv key 'ranges'"),
    "peak_flops abc": ("device", "device.txt",
                       lambda d: DEVICE.replace("1e12", "abc"), "device spec line 2"),
    "levels DRAM twice": ("energy", "energy.txt",
                          lambda d: "e_mac = 1\nlevels = DRAM:200, DRAM:1\n",
                          "energy spec: levels entry 1"),
    "levels DRAM:abc": ("energy", "energy.txt",
                        lambda d: "e_mac = 1\nlevels = DRAM:abc\n", "energy spec line 2"),
    "accesses count x": ("accesses", "accesses.txt",
                         lambda d: "c1 DRAM x\n", "accesses line 1"),
    # an override that would do nothing: a repeated (layer, level) pair, a layer
    # the network does not have
    "accesses repeated pair": ("accesses", "accesses.txt",
                               lambda d: "c1 RF 10\nc1 RF 20\n", "accesses line 2"),
    "accesses unknown layer": ("accesses", "accesses.txt",
                               lambda d: "c1 RF 10\n# typo\ntypo DRAM 5\n", "accesses line 3"),
    "profile row 15": ("profile", "profile.csv", _synth_profile_with_bad_line_15,
                       "profile CSV row 15"),
    "schema missing hi": ("schema", "schema.json",
                          lambda d: json.dumps({"dimensions": [{"name": "a", "lo": 1}]}),
                          "schema dimensions[0] key 'hi'"),
    "synth range lo > hi": ("synth config", "synth.json", lambda d: json.dumps(
                                {"kinds": {"fc": {"ranges": {"batch": [4, 1], "in_units": [1, 64],
                                                             "out_units": [1, 64]}}}}),
                            "synth config kinds.fc key 'ranges': batch"),
    "profiled power 0": ("profiled", "profiled.csv",
                         lambda d: "x1,power_w,memory_mb\n1,1.0,2\n2,0.0,4\n",
                         "profiled CSV row 3"),
    "profiled memory inf": ("profiled", "profiled.csv",
                            lambda d: "x1,power_w,memory_mb\n1,1.0,2\n2,1.5,inf\n",
                            "profiled CSV row 3"),
    "profile runtime nan": ("profile", "profile.csv", _synth_profile_with_nan_line_15,
                            "profile CSV row 15"),
    # a measured value <= 0
    "profile runtime -1.5": ("profile", "profile.csv",
                             _synth_profile_with_line_15("fc,1,16,,,,,,,,8,-1.5,2.0"),
                             "profile CSV row 15"),
    "profile runtime 0": ("profile", "profile.csv",
                          _synth_profile_with_line_15("fc,1,16,,,,,,,,8,0.0,2.0"),
                          "profile CSV row 15"),
    "profile power -0": ("profile", "profile.csv",
                         _synth_profile_with_line_15("pool,1,4,8,8,2,2,2,0,,,1.0,-0"),
                         "profile CSV row 15"),
    # a cell the row's kind does not take, or a zero or blank input extent
    "profile pool out_c": ("profile", "profile.csv",
                           _synth_profile_with_line_15("pool,1,4,8,8,2,2,2,0,4,,1.0,2.0"),
                           "profile CSV row 15"),
    "profile fc k_h": ("profile", "profile.csv",
                       _synth_profile_with_line_15("fc,1,16,,,3,,,,,8,1.0,2.0"),
                       "profile CSV row 15"),
    "profile conv out_units": ("profile", "profile.csv",
                               _synth_profile_with_line_15("conv,1,3,8,8,3,3,1,1,4,8,1.0,2.0"),
                               "profile CSV row 15"),
    "profile conv in_h 0": ("profile", "profile.csv",
                            _synth_profile_with_line_15("conv,1,3,0,8,3,3,1,1,4,,1.0,2.0"),
                            "profile CSV row 15"),
    "profile conv in_h blank": ("profile", "profile.csv",
                                _synth_profile_with_line_15("conv,1,3,,8,3,3,1,1,4,,1.0,2.0"),
                                "profile CSV row 15"),
    "profile fc in_h 0": ("profile", "profile.csv",
                          _synth_profile_with_line_15("fc,1,16,0,,,,,,,8,1.0,2.0"),
                          "profile CSV row 15"),
    "peak_flops nan": ("device", "device.txt",
                       lambda d: DEVICE.replace("1e12", "nan"), "device spec line 2"),
    "e_mac inf": ("energy", "energy.txt", lambda d: ENERGY.replace("1.5", "inf"),
                  "energy spec line 1"),
    "levels DRAM:nan": ("energy", "energy.txt",
                        lambda d: ENERGY.replace("DRAM:200", "DRAM:nan"), "energy spec line 2"),
    "linear weight NaN": ("linear model", "linear_power.json",
                          _linear_power_with_nan_weight, "linear model key 'weights'"),
    "space hi Infinity": ("space", "space.json", lambda d: json.dumps(
                              {"dimensions": [{"name": "x1", "lo": 0.0, "hi": math.inf}]}),
                          "space dimensions[0] key 'hi'"),
    "space range 2e308": ("space", "space.json", lambda d: json.dumps(
                              {"dimensions": [{"name": "x1", "lo": -1e308, "hi": 1e308}]}),
                          "space"),
    "space integer 0.2..0.8": ("space", "space.json", lambda d: json.dumps(
                                   {"dimensions": [{"name": "x1", "kind": "integer",
                                                    "lo": 0.2, "hi": 0.8}]}), "space"),
    "space dimensions []": ("space", "space.json",
                            lambda d: json.dumps({"dimensions": []}), "space"),
    "poly constant NaN": ("polynomial model", "model_fc_runtime_ms.json",
                          _fc_runtime_model(lambda doc: doc.update(
                              terms=[[[0, 0, 0], math.nan]] + doc["terms"][1:])),
                          "polynomial model key 'terms'"),
    "poly special Infinity": ("polynomial model", "model_fc_runtime_ms.json",
                              _fc_runtime_model(lambda doc: doc.update(
                                  special_terms=[["total_flops", math.inf]])),
                              "polynomial model key 'special_terms'"),
    "poly exponent 1.5": ("polynomial model", "model_fc_runtime_ms.json",
                          _fc_runtime_model(lambda doc: doc.update(terms=[[[1.5, 0, 0], 1.0]])),
                          "polynomial model key 'terms'"),
    "poly degree 2.7": ("polynomial model", "model_fc_runtime_ms.json",
                        _fc_runtime_model(lambda doc: doc.update(degree=2.7)),
                        "polynomial model key 'degree'"),
    "schema lo 1.5": ("schema", "schema.json", lambda d: json.dumps(
                          {"dimensions": [{"name": "a", "lo": 1.5, "hi": 64.9}]}),
                      "schema dimensions[0] key 'lo'"),
    "schema hi true": ("schema", "schema.json", lambda d: json.dumps(
                           {"dimensions": [{"name": "a", "lo": 0, "hi": True}]}),
                       "schema dimensions[0] key 'hi'"),
    "linear has_bias 'false'": ("linear model", "linear_power.json",
                                _linear_power("has_bias", "false"),
                                "linear model key 'has_bias'"),
    "linear schema 'ab'": ("linear model", "linear_power.json",
                           _linear_power("schema", "ab"), "linear model key 'schema'"),
    "synth count 2.5": ("synth config", "synth.json",
                        lambda d: json.dumps({"count": 2.5}), "synth config key 'count'"),
    "space structural 'x1'": ("space", "space.json",
                              lambda d: json.dumps({**SPACE, "structural": "x1"}),
                              "space key 'structural'"),
    "space lo '0'": ("space", "space.json", lambda d: json.dumps(
                         {"dimensions": [{"name": "x1", "lo": "0", "hi": 1}]}),
                     "space dimensions[0] key 'lo'"),
    "space hi true": ("space", "space.json", lambda d: json.dumps(
                          {"dimensions": [{"name": "x1", "lo": 0, "hi": True}]}),
                      "space dimensions[0] key 'hi'"),
    "linear weight '1.5'": ("linear model", "linear_power.json",
                            _linear_power("weights", ["1.5", 1.0, 1.0]),
                            "linear model key 'weights'"),
    "linear cv_report NaN": ("linear model", "linear_power.json",
                             _linear_power("cv_report", [1.0, math.nan]),
                             "linear model key 'cv_report'"),
    "poly constant '1.5'": ("polynomial model", "model_fc_runtime_ms.json",
                            _fc_runtime_model(lambda doc: doc.update(
                                terms=[[[0, 0, 0], "1.5"]] + doc["terms"][1:])),
                            "polynomial model key 'terms'"),
    "poly special false": ("polynomial model", "model_fc_runtime_ms.json",
                           _fc_runtime_model(lambda doc: doc.update(
                               special_terms=[["total_flops", False]])),
                           "polynomial model key 'special_terms'"),
    "synth const NaN": ("synth config", "synth.json", lambda d: json.dumps(
                            {"kinds": {"fc": {"runtime_ms": {"const": math.nan, "flops": 1e-7,
                                                             "mem": 1e-6}}}}),
                        "synth config kinds.fc.runtime_ms key 'const'"),
    "synth flops '1e-7'": ("synth config", "synth.json", lambda d: json.dumps(
                               {"kinds": {"pool": {"power_w": {"const": 1, "flops": "1e-7",
                                                               "mem": 0}}}}),
                           "synth config kinds.pool.power_w key 'flops'"),
    "synth mem Infinity": ("synth config", "synth.json", lambda d: json.dumps(
                               {"kinds": {"conv": {"runtime_ms": {"const": 1, "flops": 0,
                                                                  "mem": math.inf}}}}),
                           "synth config kinds.conv.runtime_ms key 'mem'"),
    "synth mem missing": ("synth config", "synth.json", lambda d: json.dumps(
                              {"kinds": {"fc": {"power_w": {"const": 1, "flops": 0}}}}),
                          "synth config kinds.fc.power_w key 'mem'"),
    "synth noise '0.1'": ("synth config", "synth.json",
                          lambda d: json.dumps({"noise": "0.1"}), "synth config key 'noise'"),
}


KINDS = [kind.value for kind in LayerKind]
HUGE = 10 ** 400


# input name, the bad file's name and text, and the whole error line after `error: `
ENUMS_AND_ENTRIES = {
    "poly layer_kind": ("polynomial model", "model_fc_runtime_ms.json",
                        _fc_runtime_model(lambda doc: doc.update(layer_kind="convx")),
                        f"polynomial model key 'layer_kind': expected one of {KINDS}, "
                        f"got 'convx'"),
    "poly target": ("polynomial model", "model_fc_runtime_ms.json",
                    _fc_runtime_model(lambda doc: doc.update(target="energy")),
                    "polynomial model key 'target': expected one of ['runtime_ms', 'power_w'], "
                    "got 'energy'"),
    "poly special name": ("polynomial model", "model_fc_runtime_ms.json",
                          _fc_runtime_model(lambda doc: doc.update(
                              special_terms=[["nope", 1.0]])),
                          f"polynomial model key 'special_terms': entry 0: expected one of "
                          f"{[term.value for term in polyreg.SpecialTerm]}, got 'nope'"),
    "profile kind": ("profile", "profile.csv",
                     _synth_profile_with_line_15("convx,1,3,8,8,3,3,1,1,4,,1.0,2.0"),
                     f"profile CSV row 15: expected one of {KINDS}, got 'convx'"),
    "synth use entry": ("synth config", "synth.json", lambda d: json.dumps(
                            {"use": ["conv", "nope"]}),
                        f"synth config key 'use': entry 1: expected one of {KINDS}, "
                        f"got 'nope'"),
    "synth use 5": ("synth config", "synth.json", lambda d: json.dumps({"use": 5}),
                    "synth config key 'use': expected a list of kind names, got 5"),
    "synth kinds key": ("synth config", "synth.json", lambda d: json.dumps(
                            {"kinds": {"convx": {}}}),
                        f"synth config key 'kinds': expected one of {KINDS}, got 'convx'"),
    "linear target": ("linear model", "linear_power.json", _linear_power("target", "nope"),
                      "linear model key 'target': expected one of ['power_w', 'memory_mb'], "
                      "got 'nope'"),
    "linear weights '12'": ("linear model", "linear_power.json",
                            _linear_power("weights", "12"),
                            "linear model key 'weights': expected a list of numbers, got '12'"),
    "linear weights 5": ("linear model", "linear_power.json", _linear_power("weights", 5),
                         "linear model key 'weights': expected a list of numbers, got 5"),
    "linear weight entry": ("linear model", "linear_power.json",
                            _linear_power("weights", [1.0, "1.5"]),
                            "linear model key 'weights': entry 1: expected a number, "
                            "got '1.5'"),
    "linear cv_report entry": ("linear model", "linear_power.json",
                               _linear_power("cv_report", [1.0, None]),
                               "linear model key 'cv_report': entry 1: expected a number, "
                               "got None"),
    "poly special bool": ("polynomial model", "model_fc_runtime_ms.json",
                          _fc_runtime_model(lambda doc: doc.update(special_terms=[True])),
                          "polynomial model key 'special_terms': entry 0: expected "
                          "[name, coefficient], got True"),
    "poly special twice": ("polynomial model", "model_fc_runtime_ms.json",
                           _fc_runtime_model(lambda doc: doc.update(
                               special_terms=[["total_flops", 1.0], ["total_flops", 1.0]])),
                           "polynomial model: special_terms entry 1: total_flops was given at "
                           "entry 0"),
    "poly exponents 1.5": ("polynomial model", "model_fc_runtime_ms.json",
                           _fc_runtime_model(lambda doc: doc.update(
                               terms=[[[0, 0, 0], 1.0], [1.5, 1.0]])),
                           "polynomial model key 'terms': entry 1: expected a list of integers, "
                           "got 1.5"),
    "poly arity": ("polynomial model", "model_fc_runtime_ms.json",
                   _fc_runtime_model(lambda doc: doc.update(
                       terms=[[[0, 0, 0], 1.0], [[1, 0], 1.0]])),
                   "polynomial model: terms entry 1: 2 exponents for the 3 features of the "
                   "schema"),
    "poly schema 1.5": ("polynomial model", "model_fc_runtime_ms.json",
                        _fc_runtime_model(lambda doc: doc.update(schema=1.5)),
                        "polynomial model key 'schema': expected a list of strings, got 1.5"),
    "poly schema entry 2": ("polynomial model", "model_fc_runtime_ms.json",
                            _fc_runtime_model(lambda doc: doc.update(
                                schema=["batch", 2, "out_units"])),
                            "polynomial model key 'schema': entry 1: expected a string, got 2"),
    # a JSON object is read where one is required, not indexed as whatever it is
    "space dimensions 1.5": ("space", "space.json", lambda d: json.dumps({"dimensions": 1.5}),
                             "space key 'dimensions': expected a list of dimensions, got 1.5"),
    "schema dimension 1.5": ("schema", "schema.json",
                             lambda d: json.dumps({"dimensions": [1.5]}),
                             "schema key 'dimensions': entry 0: expected a JSON object, got 1.5"),
    "schema [1]": ("schema", "schema.json", lambda d: "[1]",
                   "schema: expected a JSON object, got [1]"),
    "synth truth 5": ("synth config", "synth.json", lambda d: json.dumps(
                          {"kinds": {"fc": {"runtime_ms": 5}}}),
                      "synth config kinds.fc.runtime_ms: expected a JSON object, got 5"),
    "synth kinds []": ("synth config", "synth.json", lambda d: json.dumps({"kinds": []}),
                       "synth config key 'kinds': expected a JSON object, got []"),
    "synth kinds 5": ("synth config", "synth.json", lambda d: json.dumps({"kinds": 5}),
                      "synth config key 'kinds': expected a JSON object, got 5"),
    "synth ranges [1]": ("synth config", "synth.json", lambda d: json.dumps(
                             {"kinds": {"fc": {"ranges": [1]}}}),
                         "synth config kinds.fc key 'ranges': expected a JSON object, got [1]"),
    "synth range 1.5": ("synth config", "synth.json", lambda d: json.dumps(
                            {"kinds": {"fc": {"ranges": {"batch": 1.5, "in_units": [1, 4],
                                                         "out_units": [1, 4]}}}}),
                        "synth config kinds.fc key 'ranges': batch: expected [lo, hi], got 1.5"),
    # a name given twice is named at its second place
    "network layer twice": ("network", "net.txt", lambda d: NETWORK + "f1 fc out=10\n",
                            "network spec line 5: layer f1 was given on line 4"),
    "space dimension twice": ("space", "space.json", lambda d: json.dumps(
                                  {"dimensions": [{"name": "x1", "lo": 0, "hi": 1},
                                                  {"name": "x1", "lo": 0, "hi": 2}]}),
                              "space: dimensions entry 1: x1 was given at entry 0"),
    "schema dimension twice": ("schema", "schema.json", lambda d: json.dumps(
                                   {"dimensions": [{"name": "a", "lo": 0, "hi": 1},
                                                   {"name": "a", "lo": 0, "hi": 2}]}),
                               "schema key 'dimensions': dimensions entry 1: a was given at "
                               "entry 0"),
    "space structural twice": ("space", "space.json", lambda d: json.dumps(
                                   {**SPACE, "structural": ["x1", "x1"]}),
                               "space: structural entry 1: x1 was given at entry 0"),
    "synth use twice": ("synth config", "synth.json", lambda d: json.dumps({"use": ["fc", "fc"]}),
                        "synth config: use entry 1: fc was given at entry 0"),
    # a ground truth that overflows a target, and a CV score that overflows
    "synth flops 1e308": ("synth config", "synth.json", lambda d: json.dumps(
                              {"count": 2, "use": ["fc"],
                               "kinds": {"fc": {"runtime_ms": {"const": 1, "flops": 1e308,
                                                               "mem": 0}}}}),
                          "fc runtime_ms of layer fc0 is inf, not a finite number"),
    "profiled x 1e200": ("profiled", "profiled.csv",
                         lambda d: f"a,power_w,memory_mb\n1,1,2\n2,2,3\n3,3,4\n{10 ** 200},4,5\n",
                         "CV RMSPE is not finite: the point (a=1e+200) measured power_w 4.0"),
    # an integer past 2**53 of a text input, which a float feature or count could not hold
    "network batch 1e400": ("network", "net.txt",
                            lambda d: NETWORK.replace("in=1x", f"in={HUGE}x", 1),
                            f"network spec line 2: batch must be <= 2**53, got {HUGE}"),
    "network padding 1e400": ("network", "net.txt", lambda d: NETWORK.replace("p=1", f"p={HUGE}"),
                              f"network spec line 2: padding must be <= 2**53, got {HUGE}"),
    "profile in_c 1e400": ("profile", "profile.csv",
                           _synth_profile_with_line_15(f"conv,1,{HUGE},8,8,3,3,1,1,4,,1.0,2.0"),
                           f"profile CSV row 15: channels must be <= 2**53, got {HUGE}"),
    "device bytes_per_element 1e400": ("device", "device.txt",
                                       lambda d: DEVICE.replace("element = 4", f"element = {HUGE}"),
                                       f"device spec line 7: value must be <= 2**53, got {HUGE}"),
    "energy bitwidth_reference 1e400": ("energy", "energy.txt",
                                        lambda d: ENERGY.replace("= 16", f"= {HUGE}"),
                                        f"energy spec line 3: value must be <= 2**53, got {HUGE}"),
    "accesses count 1e400": ("accesses", "accesses.txt", lambda d: f"c1 DRAM {HUGE}\n",
                             f"accesses line 1: access count must be <= 2**53, got {HUGE}"),
}


@pytest.mark.parametrize("case", sorted(ENUMS_AND_ENTRIES))
def test_a_bad_enum_value_or_list_entry_exits_1_in_the_packages_words(work, tmp_path, capsys,
                                                                      case):
    """An enum value names the accepted values, a list entry its index; not
    Python's 'is not a valid LayerKind', 'is not iterable' or 'cannot unpack'.
    Nothing is written."""
    name, filename, text, error = ENUMS_AND_ENTRIES[case]
    bad = bad_input(work, name, tmp_path, filename, text(work))
    code = cli.main([str(a) for a in CASES[name][2](work, bad)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {error}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", sorted(MOTIVATION))
def test_malformed_input_exits_1_naming_its_place(work, tmp_path, capsys, case):
    name, filename, text, place = MOTIVATION[case]
    bad = bad_input(work, name, tmp_path, filename, text(work))
    code = cli.main([str(a) for a in CASES[name][2](work, bad)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: {place}: ") and "Traceback" not in err


@pytest.mark.parametrize("value, number", [(3, 3.0), (-0.5, -0.5), (1e-300, 1e-300)])
def test_number_reads_finite_json_numbers(value, number):
    got = _number(json.loads(json.dumps(value)))
    assert type(got) is float and got == number


@pytest.mark.parametrize("text", ['"1.5"', "true", "false", "null", "NaN", "Infinity",
                                  "-Infinity", "1e999", "[1]"])
def test_number_rejects_what_is_not_a_finite_number(text):
    with pytest.raises((TypeError, ValueError)):
        _number(json.loads(text))


def test_model_schema_must_match_its_layer_kind(work, tmp_path, capsys):
    # two features and a batch-only term: read as a conv model, it would
    # predict from the first two conv features
    bad_input(work, "polynomial model", tmp_path, "model_conv_runtime_ms.json", json.dumps(
        {"layer_kind": "conv", "target": "runtime_ms", "degree": 1, "schema": ["batch", "in_c"],
         "terms": [[[1, 0], 1.0]], "special_terms": []}))
    code = cli.main(["predict", str(work / "net.txt"), "--family", "poly",
                     "--models-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: polynomial model key 'schema': ") and "Traceback" not in err


def test_parse_errors_are_input_errors_with_line_numbers():
    with pytest.raises(NetworkParseError) as err:
        parse_network("c1 conv in=1x3x8x8 k=3x3 out=4\n\n# note\nc2 conv in=1x4x9x9 k=3 out=4\n")
    assert isinstance(err.value, InputError) and err.value.line_no == 4
    assert str(err.value).startswith("network spec line 4: k= expects KhxKw")
    with pytest.raises(ShapeMismatchError, match="network spec line 2: layer c2"):
        parse_network("c1 conv in=1x3x8x8 k=3x3 p=1 out=4\nc2 conv in=1x4x9x9 k=3x3 out=4\n")


def test_parse_network_round_trips_seeded_chains():
    rng = np.random.default_rng(0x2E7)
    for _ in range(40):
        shape = TensorShape(*(int(v) for v in rng.integers([1, 1, 3, 3], [4, 8, 33, 33])))
        layers = []
        for i in range(int(rng.integers(1, 7))):
            kind = ("conv", "pool", "fc")[rng.integers(3)]
            if kind == "fc" or min(shape.height, shape.width) < 3:
                layer = fully_connected(f"l{i}", shape.flattened() if i else shape,
                                        units=int(rng.integers(1, 64)))
            elif kind == "conv":
                layer = conv2d(f"l{i}", shape, out_channels=int(rng.integers(1, 16)),
                               kernel=tuple(int(k) for k in rng.integers(1, 4, size=2)),
                               stride=int(rng.integers(1, 3)), padding=int(rng.integers(0, 2)))
            else:
                layer = pool2d(f"l{i}", shape, kernel=int(rng.integers(1, 3)),
                               stride=int(rng.integers(1, 3)))
            layers.append(layer)
            shape = layer.output
        net = NetworkConfig("chain", tuple(layers))
        assert parse_network(format_network(net), name="chain") == net
