"""Typed feed-forward CNN descriptions: shapes, layer chains, op counting.

This is the shared substrate for every cost model in the package. Networks
are plain layer chains (no branches); all types are immutable and all
operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class LayerKind(Enum):
    CONV2D = "conv"
    FULLY_CONNECTED = "fc"
    POOL2D = "pool"


class GeometryError(ValueError):
    """Layer hyper-parameters produce an output smaller than 1x1."""


class ShapeMismatchError(ValueError):
    """A layer's input does not match the previous layer's output."""


class NetworkParseError(ValueError):
    """Malformed network spec text."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _positive(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class TensorShape:
    """N x C x H x W activation shape; every dimension is at least 1."""

    batch: int
    channels: int
    height: int
    width: int

    def __post_init__(self):
        for field in ("batch", "channels", "height", "width"):
            _positive(field, getattr(self, field))

    @property
    def elements(self) -> int:
        return self.batch * self.channels * self.height * self.width

    def flattened(self) -> "TensorShape":
        """Collapse C/H/W into a unit vector, as seen by a dense layer."""
        return TensorShape(self.batch, self.channels * self.height * self.width, 1, 1)


def _spatial_out(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


@dataclass(frozen=True)
class LayerConfig:
    """One layer's hyper-parameters.

    Conv2D and Pool2D carry kernel/stride/padding; FullyConnected carries
    only output_units. Constructing an invalid combination raises.
    """

    name: str
    kind: LayerKind
    input: TensorShape
    kernel_h: int | None = None
    kernel_w: int | None = None
    stride: int | None = None
    padding: int | None = None
    output_channels: int | None = None
    output_units: int | None = None

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"layer name must be a non-empty identifier, got {self.name!r}")
        if self.kind in (LayerKind.CONV2D, LayerKind.POOL2D):
            _positive("kernel_h", self.kernel_h)
            _positive("kernel_w", self.kernel_w)
            _positive("stride", self.stride)
            if not isinstance(self.padding, int) or self.padding < 0:
                raise ValueError(f"padding must be a non-negative integer, got {self.padding!r}")
            if self.output_units is not None:
                raise ValueError(f"layer {self.name}: output_units is only valid for fc layers")
            if self.kind is LayerKind.CONV2D:
                _positive("output_channels", self.output_channels)
            elif self.output_channels is not None:
                raise ValueError(f"layer {self.name}: pool layers preserve channel count")
            for extent, kernel in ((self.input.height, self.kernel_h), (self.input.width, self.kernel_w)):
                if _spatial_out(extent, kernel, self.stride, self.padding) < 1:
                    raise GeometryError(
                        f"layer {self.name}: kernel {self.kernel_h}x{self.kernel_w} with "
                        f"stride {self.stride}, padding {self.padding} does not fit a "
                        f"{self.input.height}x{self.input.width} input"
                    )
        else:  # FULLY_CONNECTED
            for field in ("kernel_h", "kernel_w", "stride", "padding", "output_channels"):
                if getattr(self, field) is not None:
                    raise ValueError(f"layer {self.name}: fc layers carry no {field}")
            _positive("output_units", self.output_units)

    @property
    def in_units(self) -> int:
        """Flattened input width as consumed by a fully-connected layer."""
        return self.input.channels * self.input.height * self.input.width


def conv2d(name: str, input: TensorShape, out_channels: int, kernel, stride: int = 1,
           padding: int = 0) -> LayerConfig:
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
    return LayerConfig(name, LayerKind.CONV2D, input, kernel_h=kh, kernel_w=kw,
                       stride=stride, padding=padding, output_channels=out_channels)


def pool2d(name: str, input: TensorShape, kernel, stride: int | None = None,
           padding: int = 0) -> LayerConfig:
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
    return LayerConfig(name, LayerKind.POOL2D, input, kernel_h=kh, kernel_w=kw,
                       stride=stride if stride is not None else kh, padding=padding)


def fully_connected(name: str, input: TensorShape, units: int) -> LayerConfig:
    return LayerConfig(name, LayerKind.FULLY_CONNECTED, input, output_units=units)


def infer_output_shape(layer: LayerConfig) -> TensorShape:
    """Output activation shape produced by `layer`."""
    if layer.kind is LayerKind.FULLY_CONNECTED:
        return TensorShape(layer.input.batch, layer.output_units, 1, 1)
    oh = _spatial_out(layer.input.height, layer.kernel_h, layer.stride, layer.padding)
    ow = _spatial_out(layer.input.width, layer.kernel_w, layer.stride, layer.padding)
    if oh < 1 or ow < 1:
        raise GeometryError(f"layer {layer.name}: output spatial size {oh}x{ow} is invalid")
    channels = layer.output_channels if layer.kind is LayerKind.CONV2D else layer.input.channels
    return TensorShape(layer.input.batch, channels, oh, ow)


@dataclass(frozen=True)
class OpCounts:
    """Work and traffic totals for one layer, in operations / elements.

    flops == 2 * macs for conv/fc (multiply + add per MAC); pool has no MACs
    and its flops count the per-window comparisons instead.
    """

    flops: int
    macs: int
    params: int
    input_reads: int
    weight_reads: int
    output_writes: int


def count_ops(layer: LayerConfig) -> OpCounts:
    out = infer_output_shape(layer)
    input_reads = layer.input.elements
    output_writes = out.elements
    if layer.kind is LayerKind.CONV2D:
        macs = (layer.input.batch * out.height * out.width * layer.output_channels
                * layer.kernel_h * layer.kernel_w * layer.input.channels)
        params = layer.kernel_h * layer.kernel_w * layer.input.channels * layer.output_channels
        return OpCounts(2 * macs, macs, params, input_reads, params, output_writes)
    if layer.kind is LayerKind.FULLY_CONNECTED:
        macs = layer.input.batch * layer.in_units * layer.output_units
        params = layer.in_units * layer.output_units
        return OpCounts(2 * macs, macs, params, input_reads, params, output_writes)
    # pool: one comparison per kernel element per output element
    flops = output_writes * layer.kernel_h * layer.kernel_w
    return OpCounts(flops, 0, 0, input_reads, 0, output_writes)


@dataclass(frozen=True)
class NetworkConfig:
    """An ordered layer chain with validated shape chaining."""

    name: str
    layers: tuple[LayerConfig, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            seen.add(layer.name)
        for prev, nxt in zip(self.layers, self.layers[1:]):
            expected = infer_output_shape(prev)
            if nxt.kind is LayerKind.FULLY_CONNECTED:
                expected = expected.flattened()
            if nxt.input != expected:
                raise ShapeMismatchError(
                    f"layer {nxt.name}: input {nxt.input} does not match "
                    f"{prev.name}'s output {expected}"
                )


_SPEC_KEYS = frozenset({"in", "k", "s", "p", "out"})


def _parse_shape(line_no: int, text: str) -> TensorShape:
    parts = text.split("x")
    if len(parts) != 4:
        raise NetworkParseError(line_no, f"in= expects NxCxHxW, got {text!r}")
    try:
        n, c, h, w = (int(p) for p in parts)
        return TensorShape(n, c, h, w)
    except ValueError as exc:
        raise NetworkParseError(line_no, f"bad shape {text!r}: {exc}") from None


def parse_network(text: str, name: str = "network") -> NetworkConfig:
    """Parse the line-oriented network spec format.

    One layer per line: ``name kind key=value ...`` with kinds conv/fc/pool
    and keys in=NxCxHxW, k=KhxKw, s=N, p=N, out=N. `#` starts a comment. The
    first layer must declare in=; later layers inherit the inferred input and
    may restate it (a mismatch is an error). A missing s= means stride 1 on
    conv layers and the kernel height on pool layers, as in pool2d().
    """
    layers: list[LayerConfig] = []
    inherited: TensorShape | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise NetworkParseError(line_no, f"expected 'name kind key=value ...', got {raw!r}")
        lname, kind_token = tokens[0], tokens[1].lower()
        kv: dict[str, str] = {}
        for token in tokens[2:]:
            if "=" not in token:
                raise NetworkParseError(line_no, f"expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            if key not in _SPEC_KEYS:
                raise NetworkParseError(line_no, f"unknown key {key!r}")
            if key in kv:
                raise NetworkParseError(line_no, f"duplicate key {key!r}")
            kv[key] = value

        if "in" in kv:
            declared = _parse_shape(line_no, kv["in"])
        elif inherited is None:
            raise NetworkParseError(line_no, "first layer must declare in=NxCxHxW")
        else:
            declared = None

        def _int(key: str, default: int | None = None) -> int:
            if key not in kv:
                if default is None:
                    raise NetworkParseError(line_no, f"layer {lname} requires {key}=")
                return default
            try:
                return int(kv[key])
            except ValueError:
                raise NetworkParseError(line_no, f"{key}= expects an integer, got {kv[key]!r}") from None

        def _kernel() -> tuple[int, int]:
            if "k" not in kv:
                raise NetworkParseError(line_no, f"layer {lname} requires k=KhxKw")
            try:
                kh, kw = (int(part) for part in kv["k"].split("x"))
            except ValueError:
                raise NetworkParseError(line_no, f"k= expects KhxKw, got {kv['k']!r}") from None
            return kh, kw

        try:
            if kind_token == "conv":
                expected = inherited
                inp = declared if declared is not None else expected
                layer = conv2d(lname, inp, out_channels=_int("out"), kernel=_kernel(),
                               stride=_int("s", 1), padding=_int("p", 0))
            elif kind_token == "pool":
                expected = inherited
                inp = declared if declared is not None else expected
                if "out" in kv:
                    raise NetworkParseError(line_no, "pool layers take no out=")
                # without s= the stride is pool2d's default, the kernel height
                layer = pool2d(lname, inp, kernel=_kernel(),
                               stride=_int("s") if "s" in kv else None, padding=_int("p", 0))
            elif kind_token == "fc":
                for bad in ("k", "s", "p"):
                    if bad in kv:
                        raise NetworkParseError(line_no, f"fc layers take no {bad}=")
                expected = inherited.flattened() if inherited is not None else None
                inp = declared if declared is not None else expected
                layer = fully_connected(lname, inp, units=_int("out"))
            else:
                raise NetworkParseError(line_no, f"unknown layer kind {kind_token!r}")
        except NetworkParseError:
            raise
        except (GeometryError, ValueError) as exc:
            raise NetworkParseError(line_no, str(exc)) from None

        if declared is not None and expected is not None and declared != expected:
            raise ShapeMismatchError(
                f"layer {lname}: declared input {declared} does not match inferred {expected}"
            )
        layers.append(layer)
        inherited = infer_output_shape(layer)
    return NetworkConfig(name, tuple(layers))


def format_network(net: NetworkConfig) -> str:
    """Inverse of parse_network for the supported layer kinds."""
    lines = []
    for i, layer in enumerate(net.layers):
        parts = [layer.name, layer.kind.value]
        if i == 0:
            s = layer.input
            parts.append(f"in={s.batch}x{s.channels}x{s.height}x{s.width}")
        if layer.kind in (LayerKind.CONV2D, LayerKind.POOL2D):
            parts.append(f"k={layer.kernel_h}x{layer.kernel_w}")
            parts.append(f"s={layer.stride}")
            parts.append(f"p={layer.padding}")
        if layer.kind is LayerKind.CONV2D:
            parts.append(f"out={layer.output_channels}")
        elif layer.kind is LayerKind.FULLY_CONNECTED:
            parts.append(f"out={layer.output_units}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
