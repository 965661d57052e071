"""Synthetic profiling-data generator.

Samples layer configurations from declared hyper-parameter ranges and
assigns runtime/power targets from a known ground-truth polynomial (a
constant plus FLOP and memory-access terms) with multiplicative Gaussian
noise. This gives the modeling pipeline a desk-scale stand-in for real GPU
measurements, with a recoverable generator to validate fits against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .netgraph import (LayerConfig, LayerKind, TensorShape, _bounded_integer, _distinct, _entries,
                       _EntryError, _located, _member, _number, _object, _value)
from .polyreg import ProfileSample, special_terms, write_profile_csv
from .seeding import generator


@dataclass(frozen=True)
class GroundTruth:
    """target = const + flops_coef * FLOPs + mem_coef * memory accesses."""

    const: float
    flops_coef: float
    mem_coef: float

    def value(self, layer: LayerConfig) -> float:
        flops, mem = special_terms(layer)
        return self.const + self.flops_coef * flops + self.mem_coef * mem


@dataclass(frozen=True)
class KindGenerator:
    ranges: dict[str, tuple[int, int]]
    runtime: GroundTruth
    power: GroundTruth


DEFAULT_GENERATORS: dict[LayerKind, KindGenerator] = {
    LayerKind.CONV2D: KindGenerator(
        # the launch-overhead constant floors the smallest configurations, so
        # relative errors stay bounded across conv's wide FLOP range
        ranges={"batch": (1, 8), "in_c": (4, 32), "in_hw": (8, 32), "kernel": (1, 5),
                "stride": (1, 2), "pad": (0, 2), "out_c": (1, 64)},
        runtime=GroundTruth(0.5, 2.0e-7, 0.0),
        power=GroundTruth(25.0, 4.0e-7, 2.0e-6),
    ),
    LayerKind.FULLY_CONNECTED: KindGenerator(
        ranges={"batch": (1, 8), "in_units": (1, 512), "out_units": (1, 512)},
        runtime=GroundTruth(0.02, 3.0e-7, 2.0e-6),
        power=GroundTruth(18.0, 6.0e-7, 3.0e-6),
    ),
    LayerKind.POOL2D: KindGenerator(
        ranges={"batch": (1, 8), "in_c": (1, 64), "in_hw": (2, 32), "kernel": (1, 3),
                "stride": (1, 2)},
        runtime=GroundTruth(0.01, 5.0e-7, 8.0e-7),
        power=GroundTruth(12.0, 9.0e-7, 1.5e-6),
    ),
}


@dataclass(frozen=True)
class SynthConfig:
    count: int = 500
    noise: float = 0.05  # multiplicative sigma
    kinds: tuple[LayerKind, ...] = (LayerKind.CONV2D, LayerKind.FULLY_CONNECTED,
                                    LayerKind.POOL2D)
    generators: dict[LayerKind, KindGenerator] = field(
        default_factory=lambda: dict(DEFAULT_GENERATORS))

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be a finite number >= 0, got {self.noise!r}")


def _ranges(doc, base: dict[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
    """`{name: [lo, hi]}` integer ranges; only `pad` may be left out of `base`'s names."""
    ranges = {}
    for name, bounds in _object(doc).items():
        with _located(name, _EntryError):
            if not (isinstance(bounds, list) and len(bounds) == 2):
                raise TypeError(f"expected [lo, hi], got {bounds!r}")
            lo, hi = ranges[name] = (_bounded_integer(bounds[0]), _bounded_integer(bounds[1]))
            if lo > hi:
                raise ValueError(f"empty range [{lo}, {hi}], lo > hi")
    missing = sorted(set(base) - set(ranges) - {"pad"})
    if missing:
        raise ValueError(f"missing {missing}")
    return ranges


def _truth(doc, where: str) -> GroundTruth:
    return GroundTruth(*(_value(doc, key, _number, where) for key in ("const", "flops", "mem")))


def load_config(text: str) -> SynthConfig:
    """JSON override of the built-in generator config."""
    what = "synth config"
    with _located(what):
        doc = json.loads(text)
        generators = dict(DEFAULT_GENERATORS)
        kinds = _value(doc, "kinds", lambda kinds: {_member(LayerKind)(name): spec
                                                    for name, spec in _object(kinds).items()},
                       what, {})
        for kind, spec in kinds.items():
            base = generators[kind]
            where = f"{what} kinds.{kind.value}"
            generators[kind] = KindGenerator(
                _value(spec, "ranges", lambda r: _ranges(r, base.ranges), where, base.ranges),
                _value(spec, "runtime_ms", lambda doc: _truth(doc, f"{where}.runtime_ms"),
                       where, base.runtime),
                _value(spec, "power_w", lambda doc: _truth(doc, f"{where}.power_w"),
                       where, base.power))
        use = _value(doc, "use", lambda names: _entries(names, _member(LayerKind), "kind names"),
                     what, tuple(generators))
        _distinct((kind.value for kind in use), "use")
        return SynthConfig(count=_value(doc, "count", _bounded_integer, what, 500),
                           noise=_value(doc, "noise", _number, what, 0.05),
                           kinds=use, generators=generators)


def _draw(rng, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _sample_layer(kind: LayerKind, ranges: dict[str, tuple[int, int]], rng,
                  name: str) -> LayerConfig:
    if kind is LayerKind.FULLY_CONNECTED:
        shape = TensorShape(_draw(rng, *ranges["batch"]), _draw(rng, *ranges["in_units"]), 1, 1)
        return LayerConfig(name, kind, shape, output_units=_draw(rng, *ranges["out_units"]))
    batch = _draw(rng, *ranges["batch"])
    in_c = _draw(rng, *ranges["in_c"])
    in_hw = _draw(rng, *ranges["in_hw"])
    pad = _draw(rng, *ranges["pad"]) if "pad" in ranges else 0
    kernel = min(_draw(rng, *ranges["kernel"]), in_hw + 2 * pad)  # keep geometry valid
    stride = _draw(rng, *ranges["stride"])
    shape = TensorShape(batch, in_c, in_hw, in_hw)
    if kind is LayerKind.CONV2D:
        return LayerConfig(name, kind, shape, kernel_h=kernel, kernel_w=kernel,
                           stride=stride, padding=pad,
                           output_channels=_draw(rng, *ranges["out_c"]))
    return LayerConfig(name, kind, shape, kernel_h=kernel, kernel_w=kernel,
                       stride=stride, padding=pad)


_KIND_TAG = {LayerKind.CONV2D: 1, LayerKind.FULLY_CONNECTED: 2, LayerKind.POOL2D: 3}


def generate_samples(config: SynthConfig, seed: int) -> list[ProfileSample]:
    samples = []
    for kind in config.kinds:
        gen = config.generators[kind]
        rng = generator(seed, 0x5E7, _KIND_TAG[kind])
        for i in range(config.count):
            layer = _sample_layer(kind, gen.ranges, rng, f"{kind.value}{i}")
            noise_r = 1.0 + config.noise * float(rng.standard_normal())
            noise_p = 1.0 + config.noise * float(rng.standard_normal())
            runtime = max(gen.runtime.value(layer) * noise_r, 1e-6)
            power = max(gen.power.value(layer) * noise_p, 1e-6)
            for target, value in (("runtime_ms", runtime), ("power_w", power)):
                if not math.isfinite(value):
                    raise ValueError(f"{kind.value} {target} of layer {layer.name} is {value}, "
                                     f"not a finite number")
            samples.append(ProfileSample(layer, runtime, power))
    return samples


def generate_csv(config: SynthConfig, seed: int) -> str:
    """Profiling CSV with the generator config echoed as comment lines."""
    comments = [f"synthetic profile: count={config.count} noise={config.noise} seed={seed}"]
    for kind in config.kinds:
        gen = config.generators[kind]
        ranges = " ".join(f"{k}={lo}..{hi}" for k, (lo, hi) in gen.ranges.items())
        comments.append(f"generator {kind.value} ranges: {ranges}")
        for label, truth in (("runtime_ms", gen.runtime), ("power_w", gen.power)):
            comments.append(f"generator {kind.value} {label}: const={truth.const!r} "
                            f"flops={truth.flops_coef!r} mem={truth.mem_coef!r}")
    return write_profile_csv(generate_samples(config, seed), comments)
