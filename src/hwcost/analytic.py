"""Closed-form cost models that need no training data.

Two families: a roofline-style layer runtime split into read/compute/write
components (the Paleo model), and an accelerator energy account that sums
MAC energy plus per-memory-level access energy with sparsity skipping and
bitwidth scaling (the Eyeriss model).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .netgraph import (InputError, LayerConfig, NetworkConfig, _bounded, _distinct, _finite,
                       _located, _lines, _put, count_ops)


def _check_fraction(name: str, value: float) -> None:
    if not (0.0 < value <= 1.0):
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")


@dataclass(frozen=True)
class DeviceSpec:
    """Platform parameters for the runtime model.

    Rates are SI base units (FLOP/s, bytes/s). The two percent-of-peak
    fractions derate compute speed and IO bandwidth separately; a derated
    rate must not underflow to 0.
    """

    peak_flops: float
    read_bandwidth: float
    write_bandwidth: float
    ppp_compute: float = 1.0
    ppp_io: float = 1.0
    bytes_per_element: int = 4

    def __post_init__(self):
        for field in ("peak_flops", "read_bandwidth", "write_bandwidth"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be > 0")
        _check_fraction("ppp_compute", self.ppp_compute)
        _check_fraction("ppp_io", self.ppp_io)
        for rate, fraction in (("peak_flops", "ppp_compute"), ("read_bandwidth", "ppp_io"),
                               ("write_bandwidth", "ppp_io")):
            if getattr(self, rate) * getattr(self, fraction) == 0.0:
                raise ValueError(f"{rate} * {fraction} underflows to 0")
        if self.bytes_per_element < 1:
            raise ValueError("bytes_per_element must be >= 1")


@dataclass(frozen=True)
class EnergySpec:
    """Per-operation and per-access energies, in picojoules.

    `levels` is the memory hierarchy in order, each entry (name, pJ/access),
    no name twice. `bitwidth_reference` is the word size the energies were
    profiled at.
    """

    e_mac: float
    levels: tuple[tuple[str, float], ...]
    bitwidth_reference: int = 16

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple((str(n), float(e)) for n, e in self.levels))
        if self.e_mac < 0:
            raise ValueError("e_mac must be >= 0")
        if not self.levels:
            raise ValueError("levels must be non-empty")
        _distinct([name for name, _ in self.levels], "levels")
        if any(e < 0 for _, e in self.levels):
            raise ValueError("level energies must be >= 0")
        if self.bitwidth_reference <= 0:
            raise ValueError("bitwidth_reference must be > 0")


@dataclass(frozen=True)
class AccessProfile:
    """Access counts per memory level for one layer, no level twice."""

    counts: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple((str(n), int(c)) for n, c in self.counts))
        _distinct([name for name, _ in self.counts], "counts")
        if any(c < 0 for _, c in self.counts):
            raise ValueError("access counts must be >= 0")

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)


@dataclass(frozen=True)
class SparsityInfo:
    """Fraction of MACs (and their accesses) that can be skipped as zeros."""

    zero_fraction: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.zero_fraction <= 1.0):
            raise ValueError(f"zero_fraction must be in [0, 1], got {self.zero_fraction!r}")


@dataclass(frozen=True)
class LayerRuntime:
    read_ms: float
    compute_ms: float
    write_ms: float

    @property
    def total_ms(self) -> float:
        return self.read_ms + self.compute_ms + self.write_ms


@dataclass(frozen=True)
class NetworkRuntime:
    layers: tuple[tuple[str, LayerRuntime], ...]
    total_ms: float


@dataclass(frozen=True)
class LayerEnergy:
    compute_pj: float
    data_pj: float

    @property
    def total_pj(self) -> float:
        return self.compute_pj + self.data_pj


def paleo_layer_runtime(layer: LayerConfig, device: DeviceSpec) -> LayerRuntime:
    """Layer runtime in ms, split into input-fetch, compute and write-back.

    compute = flops / (peak * ppp_compute); reads and writes are byte volumes
    over the derated bandwidths.
    """
    ops = count_ops(layer)
    read_bytes = (ops.input_reads + ops.weight_reads) * device.bytes_per_element
    write_bytes = ops.output_writes * device.bytes_per_element
    # single division per component keeps the ms values correctly rounded
    read_ms = read_bytes * 1000.0 / (device.read_bandwidth * device.ppp_io)
    compute_ms = ops.flops * 1000.0 / (device.peak_flops * device.ppp_compute)
    write_ms = write_bytes * 1000.0 / (device.write_bandwidth * device.ppp_io)
    return LayerRuntime(read_ms, compute_ms, write_ms)


def _network_total(layer_totals, what: str, unit: str) -> float:
    """The left-to-right sum of the layers' (name, total) `layer_totals`,
    their `what` in `unit`. Raises ValueError naming the layer where a
    layer's total or the sum stops being finite; every total is >= 0, so
    neither is ever nan."""
    total = 0.0
    for name, value in layer_totals:
        total += value
        if total == math.inf:
            raise ValueError(f"layer {name}: {value!r} {unit} overflows the network total"
                             if value < math.inf else f"layer {name}: the {what} overflows")
    return total


def paleo_network_runtime(net: NetworkConfig, device: DeviceSpec) -> NetworkRuntime:
    """Sum of per-layer runtimes, accumulated left to right over the chain;
    ValueError, naming the layer, where a runtime or the sum overflows."""
    per_layer = tuple((layer.name, paleo_layer_runtime(layer, device)) for layer in net.layers)
    total = _network_total(((name, rt.total_ms) for name, rt in per_layer), "runtime", "ms")
    return NetworkRuntime(per_layer, total)


def default_access_profile(layer: LayerConfig) -> AccessProfile:
    """Single-level default: all traffic (reads and writes) hits DRAM.

    Real per-level counts depend on the accelerator dataflow; callers with
    a mapped dataflow supply their own profile instead.
    """
    ops = count_ops(layer)
    total = ops.input_reads + ops.weight_reads + ops.output_writes
    return AccessProfile((("DRAM", total),))


def eyeriss_layer_energy(layer: LayerConfig, spec: EnergySpec,
                         accesses: AccessProfile | None = None,
                         sparsity: SparsityInfo | None = None,
                         bitwidth: int | None = None) -> LayerEnergy:
    """Layer energy in pJ: MAC energy plus per-level data-movement energy.

    A zero operand skips both the MAC and its accesses, so the zero fraction
    scales compute and data terms alike. Energy scales linearly with
    bitwidth relative to the spec's reference width.
    """
    if accesses is None:
        accesses = default_access_profile(layer)
    zero_fraction = sparsity.zero_fraction if sparsity is not None else 0.0
    if bitwidth is None:
        bitwidth = spec.bitwidth_reference
    if bitwidth <= 0:
        raise ValueError("bitwidth must be > 0")
    level_energy = dict(spec.levels)
    unknown = [name for name, _ in accesses.counts if name not in level_energy]
    if unknown:
        raise ValueError(f"access profile references unknown level(s) {unknown}; "
                         f"energy spec defines {list(level_energy)}")
    active = 1.0 - zero_fraction
    scale = bitwidth / spec.bitwidth_reference
    compute_pj = count_ops(layer).macs * active * spec.e_mac * scale
    data_pj = 0.0
    for name, count in accesses.counts:
        data_pj += count * active * level_energy[name] * scale
    return LayerEnergy(compute_pj, data_pj)


@dataclass(frozen=True)
class NetworkEnergy:
    layers: tuple[tuple[str, LayerEnergy], ...]
    total_pj: float


def eyeriss_network_energy(net: NetworkConfig, spec: EnergySpec,
                           accesses: dict[str, AccessProfile] | None = None,
                           sparsity: SparsityInfo | None = None,
                           bitwidth: int | None = None) -> NetworkEnergy:
    """Per-layer energies and their left-to-right sum; ValueError, naming the
    layer, where an energy or the sum overflows.

    `accesses` optionally overrides the default profile per layer name.
    """
    per_layer = []
    for layer in net.layers:
        profile = accesses.get(layer.name) if accesses else None
        per_layer.append((layer.name, eyeriss_layer_energy(layer, spec, profile, sparsity, bitwidth)))
    total = _network_total(((name, e.total_pj) for name, e in per_layer), "energy", "pJ")
    return NetworkEnergy(tuple(per_layer), total)


def _parse_levels(text: str) -> tuple[tuple[str, float], ...]:
    levels = []
    for entry in text.split(","):
        name, colon, energy = entry.partition(":")
        if not colon:
            raise ValueError(f"levels entries are name:pJ, got {entry.strip()!r}")
        levels.append((name.strip(), _finite(energy)))
    return tuple(levels)


# spec-file value parsers by dataclass field annotation
_FROM_TEXT = {"float": _finite, "int": lambda text: _bounded(int(text), "value"),
              "tuple[tuple[str, float], ...]": _parse_levels}


def _parse_spec(text: str, spec_type, what: str):
    """Build `spec_type` from `key = value` lines, one per dataclass field.

    Fields without a default are required; the rest keep their defaults.
    """
    fields = {f.name: f for f in dataclasses.fields(spec_type)}
    values = {}
    for line_no, line in _lines(text):
        with _located(f"{what} line {line_no}"):
            key = _put(values, line, fields)
            values[key] = _FROM_TEXT[fields[key].type](values[key])
    missing = [name for name, f in fields.items()
               if f.default is dataclasses.MISSING and name not in values]
    if missing:
        raise InputError(what, f"missing keys {missing}")
    with _located(what):
        return spec_type(**values)


def parse_device_spec(text: str) -> DeviceSpec:
    return _parse_spec(text, DeviceSpec, "device spec")


def parse_energy_spec(text: str) -> EnergySpec:
    return _parse_spec(text, EnergySpec, "energy spec")
