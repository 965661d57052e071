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

from .netgraph import (_csv_rows, _distinct, _entries, _finite, _flag, _located, _member, _names,
                       _number, _value)
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
        _distinct(self.names, "dimensions")
        for name, lo, hi in zip(self.names, self.lows, self.highs):
            if lo > hi:
                raise ValueError(f"dimension {name}: empty range [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.names)


_NOT_MEASURED = "profiled power and memory must be > 0"


@dataclass(frozen=True, eq=False)
class Profile:
    """Profiled points: row i of `z`, a (points, dimensions) array of whole
    numbers with one column per name, measured power_w[i] W and memory_mb[i] MB."""

    names: tuple[str, ...]
    z: np.ndarray
    power_w: np.ndarray
    memory_mb: np.ndarray

    def __post_init__(self):
        if not (np.all(np.asarray(self.power_w) > 0) and np.all(np.asarray(self.memory_mb) > 0)):
            raise ValueError(_NOT_MEASURED)


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


def offline_sample(schema: StructuralSchema, count: int, seed: int) -> np.ndarray:
    """`count` integer points uniform over the schema's box, one per row of
    the (count, dim) array returned; duplicates allowed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = generator(seed, 0x5A11)
    return rng.integers(np.asarray(schema.lows), np.asarray(schema.highs) + 1,
                        size=(count, schema.dim))


def fit_linear(profile: Profile, target: LinTarget, folds: int = 10,
               seed: int = 0, include_bias: bool = False) -> LinearModel:
    """Ordinary least squares through the origin, with a seeded CV report.

    Raises RankDeficientError naming the dimensions the data cannot
    identify (directions in the design's null space).
    """
    Z = np.asarray(profile.z, dtype=float)
    names = profile.names
    if include_bias:
        Z = np.column_stack([Z, np.ones(len(Z))])
        names = names + ("bias",)
    n, j = Z.shape
    if n < max(folds, j + 1):
        raise ValueError(f"need at least {max(folds, j + 1)} points, got {n}")
    y = np.asarray(getattr(profile, target.value), dtype=float)

    _, singular, vt = np.linalg.svd(Z, full_matrices=False)
    rank = int(np.sum(singular > singular[0] * max(n, j) * np.finfo(float).eps))
    if rank < j:
        null_basis = vt[rank:]
        bad = tuple(names[k] for k in range(j) if np.any(np.abs(null_basis[:, k]) > 1e-8))
        raise RankDeficientError(bad)

    weights = np.linalg.lstsq(Z, y, rcond=None)[0]
    fold_of = kfold_indices(n, folds, seed)
    cv = []
    for k in range(folds):
        val = fold_of == k
        w_k = np.linalg.lstsq(Z[~val], y[~val], rcond=None)[0]
        # an overflow (of a 1e200 value's prediction, say) leaves a score that is not finite
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            pred = Z[val] @ w_k
            rel = (pred - y[val]) / y[val]
            cv.append(100.0 * math.sqrt(float(np.mean(rel * rel))))
        if not math.isfinite(cv[-1]):
            i = np.flatnonzero(val)[np.argmax(np.abs(rel))]
            point = ", ".join(f"{name}={z:g}" for name, z in zip(profile.names, profile.z[i]))
            raise ValueError(f"CV RMSPE is not finite: the point ({point}) measured "
                             f"{target.value} {float(y[i])!r}")
    return LinearModel(profile.names, tuple(float(w) for w in weights),
                       target, tuple(cv), include_bias)


def predict(model: LinearModel, Z) -> np.ndarray:
    """Raw dot product of each row of the 2-D `Z`, one point per row; never
    clamped, so constraint checks see the model.

    The product is summed column by column in a fixed order, so a row
    predicts the same bits alone as in a batch.
    """
    Z = np.asarray(Z, dtype=float)
    k = len(model.schema)
    if Z.ndim != 2 or Z.shape[1] != k:
        raise ValueError(f"expected rows of {k} values, got an array of shape {Z.shape}")
    total = np.zeros(len(Z))
    for j in range(k):
        total = total + model.weights[j] * Z[:, j]
    if model.has_bias:
        total = total + model.weights[k]
    return total


# --- profiled-point CSV ------------------------------------------------------

def read_profiled_csv(text: str) -> Profile:
    """CSV with header `dim1,...,dimJ,power_w,memory_mb`; `#` starts a comment."""
    header, data = _csv_rows(text, "profiled CSV",
                             lambda header: len(header) >= 3
                             and header[-2:] == ["power_w", "memory_mb"])
    rows = []
    for line_no, row in data:
        with _located(f"profiled CSV row {line_no}"):
            rows.append([*(float(int(c)) for c in row[:-2]), _finite(row[-2]), _finite(row[-1])])
            if not min(rows[-1][-2:]) > 0:
                raise ValueError(_NOT_MEASURED)
    table = np.array(rows)
    return Profile(tuple(h.strip() for h in header[:-2]), table[:, :-2], table[:, -2],
                   table[:, -1])


def model_to_json(model: LinearModel) -> str:
    doc = {
        "schema": list(model.schema),
        "weights": list(model.weights),
        "target": model.target.value,
        "cv_report": list(model.cv_report),
        "has_bias": model.has_bias,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _numbers(value) -> tuple[float, ...]:
    return _entries(value, _number, "numbers")


def model_from_json(text: str) -> LinearModel:
    what = "linear model"
    with _located(what):
        doc = json.loads(text)
        return LinearModel(_value(doc, "schema", _names, what),
                           _value(doc, "weights", _numbers, what),
                           _value(doc, "target", _member(LinTarget), what),
                           _value(doc, "cv_report", _numbers, what),
                           _value(doc, "has_bias", _flag, what))
