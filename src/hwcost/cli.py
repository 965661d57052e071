"""Command-line surface.

Subcommands: fit, predict, optimize, compare-reference, synth, sample,
fit-linear. Every command is deterministic given its inputs and, where it
takes one, --seed; all randomness flows through one counter-based generator
(Philox). Exit codes: 0 success, 1 usage/parse error, 2
infeasible-everywhere, 3 numerical failure. A command that writes files
writes them, then its manifest, only once its work has succeeded. A
UserWarning of the library prints as one `warning: <message>` line; other
warning categories print as Python prints them.

Each command imports only the hwcost modules it runs, so start-up stays
small: `predict --family paleo|energy`, `compare-reference` and `--version`
load no numpy, and only `optimize` loads the GP search code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .netgraph import (LayerKind, _finite, _integer, _lines, _located, _names, _number, _text,
                       _value, parse_network)
# a module-level name: callers that wrap the objective replace cli.build_objective
from .objectives import build_objective

if TYPE_CHECKING:
    from . import analytic, bayesopt, linmod, polyreg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the exit-code contract
    # reserves 2 for infeasible-everywhere
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(ValueError):
    pass


def _finite_arg(text: str) -> float:
    """argparse type for a finite number; the parser's message names the flag."""
    try:
        return _finite(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_arg(text: str) -> float:
    """argparse type for a finite number > 0."""
    value = _finite_arg(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value!r}")
    return value


def _fraction_arg(text: str) -> float:
    """argparse type for a finite number in [0, 1]."""
    value = _finite_arg(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value!r}")
    return value


def _int_arg(minimum: int):
    """argparse type for an integer >= `minimum`."""
    def at_least(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return at_least


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_table(header: list[str], rows: list[list[str]], fmt: str) -> None:
    if fmt == "csv":  # quotes only the cells that need it: a layer name with a comma
        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
        return
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _digest(parts: list[str], files: list[Path]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode())
        sha.update(b"\0")
    for path in files:
        sha.update(path.read_bytes())
        sha.update(b"\0")
    return sha.hexdigest()


def _write_outputs(args, texts: dict[str, str], args_repr: list[str],
                   inputs: list[Path]) -> None:
    """Create --output-dir, write each of `texts` (file name -> text) in
    order, then the manifest naming them. A command calls this once, after
    its work has succeeded, so a run that fails leaves no directory."""
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text)
    manifest = {
        "subcommand": args.subcommand,
        "inputs": [str(p) for p in inputs],
        "outputs": list(texts),
        "seed": args.seed,
        "config_digest": _digest(args_repr + [str(args.seed), __version__], inputs),
        "version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _only_for(args, choice: str, options: dict[str, tuple[str, ...]]) -> None:
    """UsageError for an option given with a --`choice` value that does not
    read it; `options` maps each value to the options only it reads."""
    chosen = getattr(args, choice)
    for value, names in options.items():
        for name in names:
            if value != chosen and getattr(args, name) is not None:
                raise UsageError(f"--{name.replace('_', '-')} is read only by "
                                 f"--{choice} {value}, not {chosen}")


# --- subcommands -------------------------------------------------------------

def _cmd_synth(args) -> int:
    from . import synth
    if args.config:
        config = synth.load_config(Path(args.config).read_text())
    else:
        config = synth.SynthConfig()
    if args.count is not None:
        config = dataclasses.replace(config, count=args.count)
    if args.noise is not None:
        config = dataclasses.replace(config, noise=args.noise)
    _write_outputs(args, {"synthetic_profile.csv": synth.generate_csv(config, args.seed)},
                   [f"count={config.count}", f"noise={config.noise}"],
                   [Path(args.config)] if args.config else [])
    print(f"wrote {Path(args.output_dir) / 'synthetic_profile.csv'}")
    return EXIT_OK


def _models_by_kind(samples):
    by_kind: dict[LayerKind, list] = {}
    for sample in samples:
        by_kind.setdefault(sample.layer.kind, []).append(sample)
    return by_kind


def _cmd_fit(args) -> int:
    from . import polyreg
    csv_path = Path(args.profile)
    samples = polyreg.read_profile_csv(csv_path.read_text())
    config = polyreg.FitConfig(degree=args.degree, l1_strength=args.l1,
                               cv_folds=args.folds, seed=args.seed)
    rows = []
    texts = {}
    for kind, kind_samples in sorted(_models_by_kind(samples).items(), key=lambda kv: kv[0].value):
        for target in (polyreg.Target.RUNTIME_MS, polyreg.Target.POWER_W):
            pairs = [(s.layer, getattr(s, target.value)) for s in kind_samples
                     if getattr(s, target.value) is not None]
            if not pairs:
                continue
            try:
                model, metrics = polyreg.fit_with_metrics(pairs, config, kind, target)
            except polyreg.FitError as exc:
                print(f"warning: skipping {kind.value}/{target.value}: {exc}", file=sys.stderr)
                continue
            texts[f"model_{kind.value}_{target.value}.json"] = polyreg.model_to_json(model)
            rows.append([kind.value, target.value, str(model.size),
                         _fmt(metrics.rmspe), _fmt(metrics.rmse)])
    if not texts:
        raise UsageError("no (kind, target) had enough samples to fit")
    _write_outputs(args, texts, [f"degree={args.degree}", f"l1={args.l1}", f"folds={args.folds}"],
                   [csv_path])
    _print_table(["kind", "target", "size", "cv_rmspe_pct", "cv_rmse"], rows, args.format)
    return EXIT_OK


def _load_poly_models(models_dir: Path, target: polyreg.Target):
    from . import polyreg
    models = {}
    for kind in LayerKind:
        path = models_dir / f"model_{kind.value}_{target.value}.json"
        if path.exists():
            models[kind] = polyreg.model_from_json(path.read_text())
    return models


def _cmd_predict(args) -> int:
    _only_for(args, "family", {"poly": ("models_dir",), "paleo": ("device",),
                               "energy": ("energy", "accesses", "sparsity", "bitwidth")})
    net_path = Path(args.network)
    net = parse_network(net_path.read_text(), name=net_path.stem)
    if args.family == "poly":
        if not args.models_dir:
            raise UsageError("--family poly requires --models-dir")
        from . import polyreg
        runtime = _load_poly_models(Path(args.models_dir), polyreg.Target.RUNTIME_MS)
        power = _load_poly_models(Path(args.models_dir), polyreg.Target.POWER_W)
        try:
            pred = polyreg.predict_network(runtime, power, net)
        except polyreg.ZeroRuntimeError as exc:  # the layers still print, then exit 1
            zero, layers = exc, exc.layers
        else:
            zero, layers = None, pred.layers
        rows = [[lp.name, lp.kind.value, _fmt(lp.runtime_ms), _fmt(lp.power_w),
                 _fmt(lp.energy_mj)] for lp in layers]
        if zero is None:
            rows.append(["total", "", _fmt(pred.total_runtime_ms), _fmt(pred.average_power_w),
                         _fmt(pred.total_energy_mj)])
        _print_table(["layer", "kind", "t_ms", "p_w", "e_mj"], rows, args.format)
        clamped = [lp.name for lp in layers if lp.clamped]
        if clamped:
            print(f"warning: negative predictions clamped to 0 for layers: "
                  f"{', '.join(clamped)}", file=sys.stderr)
        if zero is not None:
            raise zero
    elif args.family == "paleo":
        if not args.device:
            raise UsageError("--family paleo requires --device")
        from . import analytic
        device = analytic.parse_device_spec(Path(args.device).read_text())
        result = analytic.paleo_network_runtime(net, device)
        rows = [[name, _fmt(rt.read_ms), _fmt(rt.compute_ms), _fmt(rt.write_ms),
                 _fmt(rt.total_ms)] for name, rt in result.layers]
        rows.append(["total", "", "", "", _fmt(result.total_ms)])
        _print_table(["layer", "r_ms", "c_ms", "w_ms", "t_ms"], rows, args.format)
    else:  # energy
        if not args.energy:
            raise UsageError("--family energy requires --energy")
        from . import analytic
        spec = analytic.parse_energy_spec(Path(args.energy).read_text())
        accesses = (_load_accesses(Path(args.accesses).read_text(),
                                   {layer.name for layer in net.layers},
                                   {name for name, _ in spec.levels})
                    if args.accesses else None)
        sparsity = analytic.SparsityInfo(args.sparsity) if args.sparsity is not None else None
        result = analytic.eyeriss_network_energy(net, spec, accesses, sparsity, args.bitwidth)
        rows = [[name, _fmt(e.compute_pj), _fmt(e.data_pj), _fmt(e.total_pj)]
                for name, e in result.layers]
        rows.append(["total", "", "", _fmt(result.total_pj)])
        _print_table(["layer", "e_comp_pj", "e_data_pj", "e_pj"], rows, args.format)
    return EXIT_OK


def _load_accesses(text: str, layers: set[str],
                   levels: set[str]) -> dict[str, analytic.AccessProfile]:
    """Per-layer access overrides: lines `layer_name level count`, each naming
    one of `layers` and one of `levels`, a count >= 0 and no (layer, level)
    pair twice."""
    from . import analytic
    counts: dict[str, dict[str, int]] = {}
    first_line: dict[tuple[str, str], int] = {}
    for line_no, line in _lines(text):
        with _located(f"accesses line {line_no}"):
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("expected 'layer level count'")
            layer, level, count = parts
            if layer not in layers:
                raise ValueError(f"no layer {layer!r} in the network")
            if level not in levels:
                raise ValueError(f"no level {level!r} in the energy spec "
                                 f"(it defines {sorted(levels)})")
            first = first_line.setdefault((layer, level), line_no)
            if first != line_no:
                raise ValueError(f"'{layer} {level}' was given on line {first}")
            counts.setdefault(layer, {})[level] = int(count)
            if counts[layer][level] < 0:
                raise ValueError("access count must be >= 0")
    return {layer: analytic.AccessProfile(tuple(levels.items()))
            for layer, levels in counts.items()}


def _cmd_compare_reference(args) -> int:
    from . import reference
    rows = [[row.network, _fmt(row.paleo_ms), _fmt(row.neuralpower_ms), _fmt(row.actual_ms),
             f"{row.paleo_error_pct:+.2f}", f"{row.neuralpower_error_pct:+.2f}"]
            for row in reference.relative_errors()]
    _print_table(["network", "paleo_ms", "neuralpower_ms", "actual_ms",
                  "paleo_err_pct", "neuralpower_err_pct"], rows, args.format)
    print()
    rows = [[kind, str(size), _fmt(np_rmspe), _fmt(np_rmse), _fmt(p_rmspe), _fmt(p_rmse)]
            for kind, size, np_rmspe, np_rmse, p_rmspe, p_rmse in reference.LAYER_MODELS]
    _print_table(["layer", "np_model_size", "np_rmspe_pct", "np_rmse_ms",
                  "paleo_rmspe_pct", "paleo_rmse_ms"], rows, args.format)
    return EXIT_OK


def _cmd_sample(args) -> int:
    from . import linmod
    schema = _load_schema(Path(args.schema).read_text())
    points = linmod.offline_sample(schema, args.count, args.seed)
    lines = [",".join(schema.names)]
    lines += [",".join(str(v) for v in point.z) for point in points]
    _write_outputs(args, {"samples.csv": "\n".join(lines) + "\n"}, [f"count={args.count}"],
                   [Path(args.schema)])
    print(f"wrote {Path(args.output_dir) / 'samples.csv'}")
    return EXIT_OK


def _dimensions(doc, what: str) -> list[tuple[str, object]]:
    """(place, entry) of each entry of the `dimensions` list of a schema or space."""
    return [(f"{what} dimensions[{i}]", entry)
            for i, entry in enumerate(_value(doc, "dimensions", list, what))]


def _load_schema(text: str) -> linmod.StructuralSchema:
    from . import linmod
    with _located("schema"):
        doc = json.loads(text)
    with _located("schema key 'dimensions'"):
        dims = _dimensions(doc, "schema")
        return linmod.StructuralSchema(tuple(_value(d, "name", _text, at) for at, d in dims),
                                       tuple(_value(d, "lo", _integer, at) for at, d in dims),
                                       tuple(_value(d, "hi", _integer, at) for at, d in dims))


def _cmd_fit_linear(args) -> int:
    from . import linmod
    points = linmod.read_profiled_csv(Path(args.profile).read_text())
    rows = []
    texts = {}
    for target, filename in ((linmod.LinTarget.POWER_W, "linear_power.json"),
                             (linmod.LinTarget.MEMORY_MB, "linear_memory.json")):
        model = linmod.fit_linear(points, target, folds=args.folds, seed=args.seed,
                                  include_bias=args.bias)
        texts[filename] = linmod.model_to_json(model)
        mean_cv = sum(model.cv_report) / len(model.cv_report)
        rows.append([target.value,
                     " ".join(_fmt(w) for w in model.weights),
                     _fmt(mean_cv)])
    _write_outputs(args, texts, [f"folds={args.folds}", f"bias={args.bias}"],
                   [Path(args.profile)])
    _print_table(["target", "weights", "mean_cv_rmspe_pct"], rows, args.format)
    return EXIT_OK


def _load_space(text: str) -> bayesopt.SearchSpace:
    from . import bayesopt
    with _located("space"):
        doc = json.loads(text)
        dims = tuple(bayesopt.Dimension(_value(d, "name", _text, at),
                                        _value(d, "kind", _text, at, "continuous"),
                                        _value(d, "lo", _number, at), _value(d, "hi", _number, at))
                     for at, d in _dimensions(doc, "space"))
        return bayesopt.SearchSpace(dims, _value(doc, "structural", _names, "space", ()))


def _cmd_optimize(args) -> int:
    _only_for(args, "objective", {"quadratic": ("center",),
                                  "command": ("command", "eval_timeout")})
    from . import bayesopt, linmod
    space_path = Path(args.space)
    space = _load_space(space_path.read_text())
    inputs = [space_path]

    constraints = None
    constraint_flags = [args.power_model, args.memory_model, args.power_budget,
                        args.memory_budget]
    if any(flag is not None for flag in constraint_flags):
        if any(flag is None for flag in constraint_flags):
            raise UsageError("constrained runs need --power-model, --memory-model, "
                             "--power-budget and --memory-budget together")
        power_model = linmod.model_from_json(Path(args.power_model).read_text())
        memory_model = linmod.model_from_json(Path(args.memory_model).read_text())
        constraints = bayesopt.ConstraintSpec(args.power_budget, args.memory_budget,
                                              power_model, memory_model)
        inputs += [Path(args.power_model), Path(args.memory_model)]

    center = 0.3
    if args.center is not None:
        with _located("--center"):
            values = [_finite(v) for v in args.center.split(",")]
            if len(values) not in (1, space.dim):
                raise ValueError(f"expected one value or one per dimension ({space.dim}), "
                                 f"got {len(values)}")
        center = values[0] if len(values) == 1 else tuple(values)
    objective = build_objective(args.objective, center=center, noise=args.noise,
                                seed=args.seed, command=args.command,
                                timeout=args.eval_timeout)

    candidates = bayesopt.DEFAULT_CANDIDATES if args.candidates is None else args.candidates
    try:
        best, trace = bayesopt.bo_run(objective, space, constraints, args.budget, args.seed,
                                      candidate_count=candidates)
    except bayesopt.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    summary = {"status": "infeasible", "best_y": None, "best_x": None,
               "iterations_to_best": None, "budget": args.budget, "seed": args.seed}
    if best is not None:
        summary.update(status="ok", best_y=best.y, best_x=list(best.x),
                       iterations_to_best=next(r.iteration for r in trace.records
                                               if r.best_y == best.y))
    config_repr = [f"budget={args.budget}", f"objective={args.objective}",
                   f"center={args.center}", f"noise={args.noise}",
                   f"candidates={candidates}",
                   f"power_budget={args.power_budget}",
                   f"memory_budget={args.memory_budget}",
                   f"command={args.command}", f"eval_timeout={args.eval_timeout}"]
    _write_outputs(args, {"trace.csv": trace.csv_text(),
                          "summary.json": json.dumps(summary, indent=2) + "\n"},
                   config_repr, inputs)
    if best is None:
        print("no feasible point found; full trace written")
        return EXIT_INFEASIBLE
    print(f"best y {_fmt(best.y)} at ({', '.join(_fmt(v) for v in best.x)}) "
          f"after {summary['iterations_to_best']} evaluations")
    return EXIT_OK


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="hwcost", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hwcost {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def writes_files(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output-dir", default=".")

    def prints_table(p):
        p.add_argument("--format", choices=("table", "csv"), default="table")

    p = sub.add_parser("synth", help="generate a synthetic profiling CSV")
    writes_files(p)
    p.add_argument("--config", help="JSON generator config (defaults built in)")
    p.add_argument("--count", type=_int_arg(1), help="samples per layer kind")
    p.add_argument("--noise", type=_finite_arg, help="multiplicative noise sigma")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit polynomial runtime/power models from a profile CSV")
    writes_files(p)
    prints_table(p)
    p.add_argument("profile")
    p.add_argument("--degree", type=_int_arg(1), default=None)
    p.add_argument("--l1", type=_finite_arg, default=None, help="fixed L1 strength (default: CV)")
    p.add_argument("--folds", type=_int_arg(2), default=10)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict per-layer and total costs for a network")
    prints_table(p)
    p.add_argument("network")
    p.add_argument("--family", choices=("poly", "paleo", "energy"), required=True)
    p.add_argument("--models-dir")
    p.add_argument("--device")
    p.add_argument("--energy")
    p.add_argument("--accesses", help="per-layer access overrides: 'layer level count' lines")
    p.add_argument("--sparsity", type=_fraction_arg, default=None)
    p.add_argument("--bitwidth", type=_int_arg(1), default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("compare-reference", help="print embedded published comparison tables")
    prints_table(p)
    p.set_defaults(func=_cmd_compare_reference)

    p = sub.add_parser("sample", help="offline-sample structural points from a schema")
    writes_files(p)
    p.add_argument("schema", help="JSON schema: dimensions with name/lo/hi")
    p.add_argument("--count", type=_int_arg(1), default=100)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit-linear", help="fit linear power/memory models from a profiled CSV")
    writes_files(p)
    prints_table(p)
    p.add_argument("profile")
    p.add_argument("--folds", type=_int_arg(2), default=10)
    p.add_argument("--bias", action="store_true", help="append a constant-1 feature")
    p.set_defaults(func=_cmd_fit_linear)

    p = sub.add_parser("optimize", help="run the search loop on an objective")
    writes_files(p)
    p.add_argument("space", help="JSON search space")
    p.add_argument("--objective", choices=("quadratic", "branin", "command"),
                   default="quadratic")
    p.add_argument("--center", help="quadratic center, scalar or comma list")
    p.add_argument("--noise", type=_finite_arg, default=0.0)
    p.add_argument("--eval-timeout", type=_positive_arg, metavar="SECONDS",
                   help="fail a command objective call that runs longer (before --command)")
    p.add_argument("--command", nargs=argparse.REMAINDER,
                   help="external objective command (reads x CSV line on stdin); "
                        "takes the rest of the line, so it comes last")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--candidates", type=_int_arg(1))
    p.add_argument("--power-model")
    p.add_argument("--memory-model")
    p.add_argument("--power-budget", type=_finite_arg)
    p.add_argument("--memory-budget", type=_finite_arg)
    p.set_defaults(func=_cmd_optimize)

    return parser


def _warning_lines(show):
    """A `warnings.showwarning` that prints a UserWarning as one `warning:`
    line and hands every other category to `show` unchanged."""
    def shown(message, category, *where):
        if issubclass(category, UserWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *where)
    return shown


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings():  # restores the caller's showwarning on return
        warnings.showwarning = _warning_lines(warnings.showwarning)
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # --help and --version print, then argparse exits 0
            return exc.code
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
