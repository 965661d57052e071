"""Linear power/memory predictors over structural hyper-parameters.

These are the cheap a-priori constraint models used inside the search loop:
origin-passing linear fits (no intercept) from offline-profiled samples,
validated with seeded 10-fold cross validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .netgraph import _csv_rows, _finite, _flag, _located, _names, _number, _value
from .seeding import generator, kfold_indices


class RankDeficientError(ValueError):
    """The profiled design cannot identify every weight."""

    def __init__(self, dimensions: tuple[str, ...]):
        super().__init__(f"rank-deficient design; unidentifiable dimension(s): "
                         f"{', '.join(dimensions)}")
        self.dimensions = dimensions


class LinTarget(Enum):
    POWER_W = "power_w"
    MEMORY_MB = "memory_mb"


@dataclass(frozen=True)
class StructuralSchema:
    """Named integer dimensions with inclusive ranges."""

    names: tuple[str, ...]
    lows: tuple[int, ...]
    highs: tuple[int, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("schema needs at least one dimension")
        if not (len(self.names) == len(self.lows) == len(self.highs)):
            raise ValueError("schema fields must have equal lengths")
        for name, lo, hi in zip(self.names, self.lows, self.highs):
            if lo > hi:
                raise ValueError(f"dimension {name}: empty range [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class StructuralPoint:
    z: tuple[int, ...]
    schema: StructuralSchema

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(int(v) for v in self.z))
        if len(self.z) != self.schema.dim:
            raise ValueError("point arity does not match schema")
        for value, name, lo, hi in zip(self.z, self.schema.names, self.schema.lows,
                                       self.schema.highs):
            if not (lo <= value <= hi):
                raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class ProfiledPoint:
    z: StructuralPoint
    power_w: float
    memory_mb: float

    def __post_init__(self):
        if self.power_w <= 0 or self.memory_mb <= 0:
            raise ValueError("profiled power and memory must be > 0")


@dataclass(frozen=True)
class LinearModel:
    """Origin-passing linear predictor, one weight per structural dimension.

    With has_bias set, a trailing constant-1 feature was appended at fit
    time (for platforms with idle power); predictions append it too.
    """

    schema: tuple[str, ...]
    weights: tuple[float, ...]
    target: LinTarget
    cv_report: tuple[float, ...] = ()
    has_bias: bool = False

    def __post_init__(self):
        expected = len(self.schema) + (1 if self.has_bias else 0)
        if len(self.weights) != expected:
            raise ValueError(f"expected {expected} weights, got {len(self.weights)}")


def offline_sample(schema: StructuralSchema, count: int, seed: int) -> list[StructuralPoint]:
    """`count` points uniform over the schema's integer box; duplicates allowed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = generator(seed, 0x5A11)
    lows = np.asarray(schema.lows)
    highs = np.asarray(schema.highs)
    draws = rng.integers(lows, highs + 1, size=(count, schema.dim))
    return [StructuralPoint(tuple(int(v) for v in row), schema) for row in draws]


def _design(points: list[ProfiledPoint], include_bias: bool) -> tuple[np.ndarray, tuple[str, ...]]:
    schema = points[0].z.schema
    for point in points:
        if point.z.schema.names != schema.names:
            raise ValueError("profiled points mix schemas")
    Z = np.array([point.z.z for point in points], dtype=float)
    names = schema.names
    if include_bias:
        Z = np.column_stack([Z, np.ones(len(points))])
        names = names + ("bias",)
    return Z, names


def _ols(Z: np.ndarray, y: np.ndarray) -> np.ndarray:
    w, *_ = np.linalg.lstsq(Z, y, rcond=None)
    return w


def fit_linear(points: list[ProfiledPoint], target: LinTarget, folds: int = 10,
               seed: int = 0, include_bias: bool = False) -> LinearModel:
    """Ordinary least squares through the origin, with a seeded CV report.

    Raises RankDeficientError naming the dimensions the data cannot
    identify (directions in the design's null space).
    """
    Z, names = _design(points, include_bias)
    n, j = Z.shape
    if n < max(folds, j + 1):
        raise ValueError(f"need at least {max(folds, j + 1)} points, got {n}")
    y = np.array([getattr(p, target.value) for p in points], dtype=float)

    _, singular, vt = np.linalg.svd(Z, full_matrices=False)
    rank = int(np.sum(singular > singular[0] * max(n, j) * np.finfo(float).eps))
    if rank < j:
        null_basis = vt[rank:]
        bad = tuple(names[k] for k in range(j) if np.any(np.abs(null_basis[:, k]) > 1e-8))
        raise RankDeficientError(bad)

    weights = _ols(Z, y)
    fold_of = kfold_indices(n, folds, seed)
    cv = []
    for k in range(folds):
        val = fold_of == k
        w_k = _ols(Z[~val], y[~val])
        pred = Z[val] @ w_k
        rel = (pred - y[val]) / y[val]
        cv.append(100.0 * math.sqrt(float(np.mean(rel * rel))))
    return LinearModel(points[0].z.schema.names, tuple(float(w) for w in weights),
                       target, tuple(cv), include_bias)


def predict(model: LinearModel, z):
    """Raw dot product; never clamped, so constraint checks see the model.

    `z` is one point (a float comes back) or a 2-D array with one point per
    row (an array comes back). The product is summed column by column in a
    fixed order, so a row predicts the same bits alone as in a batch.
    """
    Z = np.asarray(z, dtype=float)
    k = len(model.schema)
    if Z.ndim not in (1, 2) or Z.shape[-1] != k:
        raise ValueError(f"expected {k} values, got {Z.shape[-1] if Z.ndim else 0}")
    total = np.zeros(Z.shape[:-1])
    for j in range(k):
        total = total + model.weights[j] * Z[..., j]
    if model.has_bias:
        total = total + model.weights[k]
    return float(total) if Z.ndim == 1 else total


# --- profiled-point CSV ------------------------------------------------------

def read_profiled_csv(text: str) -> list[ProfiledPoint]:
    """CSV with header `dim1,...,dimJ,power_w,memory_mb`; `#` starts a comment.

    The loaded schema's ranges are the observed per-dimension min/max.
    """
    header, data = _csv_rows(text, "profiled CSV",
                             lambda header: len(header) >= 3
                             and header[-2:] == ["power_w", "memory_mb"])
    names = tuple(h.strip() for h in header[:-2])
    rows = []
    for line_no, row in data:
        with _located(f"profiled CSV row {line_no}"):
            rows.append((tuple(int(c) for c in row[:-2]), _finite(row[-2]), _finite(row[-1])))
    zs = np.array([r[0] for r in rows])
    schema = StructuralSchema(names, tuple(int(v) for v in zs.min(axis=0)),
                              tuple(int(v) for v in zs.max(axis=0)))
    points = []
    for (line_no, _), (z, power, memory) in zip(data, rows):
        with _located(f"profiled CSV row {line_no}"):
            points.append(ProfiledPoint(StructuralPoint(z, schema), power, memory))
    return points


def model_to_json(model: LinearModel) -> str:
    doc = {
        "schema": list(model.schema),
        "weights": list(model.weights),
        "target": model.target.value,
        "cv_report": list(model.cv_report),
        "has_bias": model.has_bias,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def model_from_json(text: str) -> LinearModel:
    what = "linear model"
    with _located(what):
        doc = json.loads(text)
        return LinearModel(_value(doc, "schema", _names, what),
                           _value(doc, "weights", lambda ws: tuple(map(_number, ws)), what),
                           _value(doc, "target", LinTarget, what),
                           _value(doc, "cv_report", lambda vs: tuple(map(_number, vs)), what),
                           _value(doc, "has_bias", _flag, what))
