"""Typed feed-forward CNN descriptions: shapes, layer chains, op counting.

This is the shared substrate for every cost model in the package. Networks
are plain layer chains (no branches); all types are immutable and all
operations are pure functions.
"""

from __future__ import annotations

import contextlib
import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum


class LayerKind(Enum):
    CONV2D = "conv"
    FULLY_CONNECTED = "fc"
    POOL2D = "pool"


class InputError(ValueError):
    """Malformed input; the message names the input and its line, row or key."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")


class _EntryError(ValueError):
    """A bad entry of a list, named by its index, or of an object, by its key;
    not an InputError, so the reader of the list's or object's key names the
    input and that key in front of it."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")


# the largest integer an input may give: every integer up to it is an exact
# float, and a count made of a few of them stays far inside the float range
MAX_INT = 2 ** 53


def _bounded(value: int, name: str) -> int:
    """`value`, an integer `name` read from an input, if it is at most MAX_INT."""
    if value > MAX_INT:
        raise ValueError(f"{name} must be <= 2**53, got {value}")
    return value


def _positive(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    _bounded(value, name)


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
    only output_units. Constructing an invalid combination raises. The
    output activation shape is derived once, here, as `output`.
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
    output: TensorShape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"layer name must be a non-empty identifier, got {self.name!r}")
        if self.kind in (LayerKind.CONV2D, LayerKind.POOL2D):
            _positive("kernel_h", self.kernel_h)
            _positive("kernel_w", self.kernel_w)
            _positive("stride", self.stride)
            if not isinstance(self.padding, int) or self.padding < 0:
                raise ValueError(f"padding must be a non-negative integer, got {self.padding!r}")
            _bounded(self.padding, "padding")
            if self.output_units is not None:
                raise ValueError(f"layer {self.name}: output_units is only valid for fc layers")
            if self.kind is LayerKind.CONV2D:
                _positive("output_channels", self.output_channels)
            elif self.output_channels is not None:
                raise ValueError(f"layer {self.name}: pool layers preserve channel count")
            out_h = _spatial_out(self.input.height, self.kernel_h, self.stride, self.padding)
            out_w = _spatial_out(self.input.width, self.kernel_w, self.stride, self.padding)
            if min(out_h, out_w) < 1:
                raise ValueError(f"layer {self.name}: kernel {self.kernel_h}x{self.kernel_w} "
                                 f"with stride {self.stride}, padding {self.padding} does not "
                                 f"fit a {self.input.height}x{self.input.width} input")
            channels = (self.output_channels if self.kind is LayerKind.CONV2D
                        else self.input.channels)
            output = TensorShape(self.input.batch, channels, out_h, out_w)
        else:  # FULLY_CONNECTED
            for name in ("kernel_h", "kernel_w", "stride", "padding", "output_channels"):
                if getattr(self, name) is not None:
                    raise ValueError(f"layer {self.name}: fc layers carry no {name}")
            _positive("output_units", self.output_units)
            output = TensorShape(self.input.batch, self.output_units, 1, 1)
        object.__setattr__(self, "output", output)

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
    out = layer.output
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
            expected = prev.output
            if nxt.kind is LayerKind.FULLY_CONNECTED:
                expected = expected.flattened()
            if nxt.input != expected:
                raise ValueError(f"layer {nxt.name}: input {nxt.input} does not match "
                                 f"{prev.name}'s output {expected}")


# --- input reading: every text reader in the package goes through these ---

def _lines(text: str) -> Iterator[tuple[int, str]]:
    """(file line number, text) of each line left once `#` comments and blanks go."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


# what reading a bad value raises
_BAD_VALUE = (ValueError, KeyError, TypeError, AttributeError, OverflowError)


def _reason(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


@contextlib.contextmanager
def _located(where, error=InputError):
    """Re-raise a bad value met inside the block as `error(where, reason)`.

    `where` names the input and the line, row or key being read; an
    InputError from an inner block has named its own place and passes on.
    """
    try:
        yield
    except InputError:
        raise
    except _BAD_VALUE as exc:
        raise error(where, _reason(exc)) from None


def _csv_rows(text: str, what: str, header_ok) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and (file line number, cells) data rows of a CSV with `#` comments.

    Rows of blank cells are skipped. A table without data rows, a header
    `header_ok` rejects or a row whose cell count differs from the header's
    raises InputError.
    """
    numbered = list(_lines(text))
    rows = [(line_no, cells) for (line_no, _), cells
            in zip(numbered, csv.reader(line for _, line in numbered))
            if any(cell.strip() for cell in cells)]
    if len(rows) < 2:
        raise InputError(what, "empty, no data rows")
    (header_line, header), data = rows[0], rows[1:]
    if not header_ok(header):
        raise InputError(f"{what} row {header_line}", f"bad header {header}")
    for line_no, cells in data:
        if len(cells) != len(header):
            raise InputError(f"{what} row {line_no}",
                             f"expected {len(header)} cells, got {len(cells)}")
    return header, data


def _put(kv: dict[str, str], item: str, known) -> str:
    """Add one `key=value` item to `kv` and return its key, which must be
    one of `known` and not yet in `kv`."""
    key, eq, value = (part.strip() for part in item.partition("="))
    if not eq:
        raise ValueError(f"expected key=value, got {item!r}")
    if key not in known:
        raise ValueError(f"unknown key {key!r}")
    if key in kv:
        raise ValueError(f"duplicate key {key!r}")
    kv[key] = value
    return key


def _distinct(names, field: str) -> None:
    """Raise ValueError at the first entry of `names`, the keys of the
    entries of `field`, that repeats an earlier one, naming both entries."""
    first: dict = {}
    for i, name in enumerate(names):
        j = first.setdefault(name, i)
        if j != i:
            raise ValueError(f"{field} entry {i}: {name} was given at entry {j}")


def _value(doc, key: str, convert, where: str, *default):
    """convert(doc[key]), or default[0] when given and the key is absent;
    `doc`, the JSON value at `where`, must be an object."""
    with _located(where):
        _object(doc)
    with _located(f"{where} key {key!r}"):
        if default and key not in doc:
            return default[0]
        return convert(doc[key])


def _finite(value) -> float:
    """float(value) for a number read from an input; nan and inf are errors."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"value {str(value).strip()!r} is not finite")
    return number


def _number(value) -> float:
    """A finite JSON number (integer or not) as a float; a string, a bool,
    nan or an infinity is an error."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return _finite(value)


def _text(value) -> str:
    """A JSON string value as is; any other JSON type is an error."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _integer(value) -> int:
    """A JSON integer value as is; any other JSON type (1.5, 2.0, true) is an error."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _bounded_integer(value) -> int:
    """A JSON integer from -2**53 to 2**53, a bound that keeps it an exact
    float and inside numpy's int64; any other JSON type is an error."""
    value = _integer(value)
    if value < -MAX_INT:
        raise ValueError(f"value must be >= -2**53, got {value}")
    return _bounded(value, "value")


def _object(value) -> dict:
    """A JSON object as is; any other JSON type is an error."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def _flag(value) -> bool:
    """A JSON true or false as is; any other JSON type is an error."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _member(enum):
    """A converter to the member of `enum` with a given value; any other
    value is an error that lists the accepted values."""
    def member(value):
        try:
            return enum(value)
        except ValueError:
            raise ValueError(f"expected one of {[m.value for m in enum]}, "
                             f"got {value!r}") from None
    return member


def _entries(value, convert, what: str) -> tuple:
    """convert(entry) for each entry of a JSON list of `what`; any other JSON
    type is an error, and an error in an entry names the entry's index."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of {what}, got {value!r}")
    out = []
    for i, entry in enumerate(value):
        try:   # as _located does, without a context manager per entry
            out.append(convert(entry))
        except InputError:
            raise
        except _BAD_VALUE as exc:
            raise _EntryError(f"entry {i}", _reason(exc)) from None
    return tuple(out)


def _names(value) -> tuple[str, ...]:
    """A JSON list of strings as a tuple."""
    return _entries(value, _text, "strings")


def _pairs(value, convert_key, convert_value, form: str) -> tuple:
    """A JSON list of two-entry lists as (key, value) tuples, each part
    converted; `form` (`[name, coefficient]`, say) describes an entry."""
    def pair(entry):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise TypeError(f"expected {form}, got {entry!r}")
        return convert_key(entry[0]), convert_value(entry[1])
    return _entries(value, pair, f"{form} pairs")


_LAYER_KEYS = {"conv": {"in", "k", "s", "p", "out"}, "pool": {"in", "k", "s", "p"},
               "fc": {"in", "out"}}


def _spec_ints(kv: dict[str, str], key: str, form: str = "N"):
    """The x-separated integers of `key=`, shaped as `form` (N, KhxKw, NxCxHxW)."""
    parts = kv[key].split("x")
    if len(parts) != form.count("x") + 1 or not all(part.isdecimal() for part in parts):
        raise ValueError(f"{key}= expects {form}, got {kv[key]!r}")
    return int(parts[0]) if form == "N" else tuple(int(part) for part in parts)


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
    first_line: dict[str, int] = {}
    for line_no, line in _lines(text):
        with _located(f"network spec line {line_no}"):
            tokens = line.split()
            if len(tokens) < 2:
                raise ValueError(f"expected 'name kind key=value ...', got {line!r}")
            lname, kind_token = tokens[0], tokens[1].lower()
            first = first_line.setdefault(lname, line_no)
            if first != line_no:
                raise ValueError(f"layer {lname} was given on line {first}")
            if kind_token not in _LAYER_KEYS:
                raise ValueError(f"unknown layer kind {kind_token!r}")
            kv: dict[str, str] = {}
            for token in tokens[2:]:
                _put(kv, token, _LAYER_KEYS[kind_token])

            expected = inherited
            if kind_token == "fc" and inherited is not None:
                expected = inherited.flattened()
            if "in" in kv:
                inp = TensorShape(*_spec_ints(kv, "in", "NxCxHxW"))
            elif expected is None:
                raise ValueError("first layer must declare in=NxCxHxW")
            else:
                inp = expected
            if kind_token == "conv":
                kv = {"s": "1", "p": "0", **kv}
                layer = conv2d(lname, inp, out_channels=_spec_ints(kv, "out"),
                               kernel=_spec_ints(kv, "k", "KhxKw"), stride=_spec_ints(kv, "s"),
                               padding=_spec_ints(kv, "p"))
            elif kind_token == "pool":
                kv = {"p": "0", **kv}
                # without s= the stride is pool2d's default, the kernel height
                layer = pool2d(lname, inp, kernel=_spec_ints(kv, "k", "KhxKw"),
                               stride=_spec_ints(kv, "s") if "s" in kv else None,
                               padding=_spec_ints(kv, "p"))
            else:
                layer = fully_connected(lname, inp, units=_spec_ints(kv, "out"))
        if expected is not None and inp != expected:
            raise InputError(f"network spec line {line_no}", f"layer {lname}: declared "
                             f"input {inp} does not match inferred {expected}")
        layers.append(layer)
        inherited = layer.output
    return NetworkConfig(name, tuple(layers))

