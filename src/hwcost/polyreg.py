"""Learned per-layer-kind cost models: sparse polynomial regression.

Each model is a degree-bounded polynomial over a layer-kind-specific feature
vector plus two special terms (total FLOPs and total memory accesses),
fitted with L1-regularized least squares. The lasso is solved exactly along
its piecewise-linear homotopy path (`_lasso_homotopy`) on the standardized
design. Network-level runtime/energy/average-power come from summing
per-layer predictions.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .netgraph import (LayerConfig, LayerKind, NetworkConfig, TensorShape, _csv_rows,
                       _distinct, _entries, _finite, _integer, _located, _member, _names,
                       _number, _pairs, _value, count_ops)
from .seeding import kfold_indices

CV_LAMBDA_GRID_SIZE = 50
CV_LAMBDA_FLOOR = 1e-4  # relative to the smallest lambda that zeroes everything
# the CV fold paths stop once the mean CV curve has stayed at or above its running
# minimum for this many grid points in a row (`_held_minimum`)
CV_PATIENCE = 10
SCHUR_TOL = 1e-10       # a column this close to the active columns' span cannot join
KKT_TOL = 1e-9          # a fitted model whose lasso solution misses KKT by more warns
DEFAULT_DEGREE = {LayerKind.CONV2D: 3, LayerKind.FULLY_CONNECTED: 2, LayerKind.POOL2D: 2}
# a fit holds one Gram matrix per CV fold and one for the final fit; a degree
# whose matrices would need more is refused (conv fits up to degree 6 at 10 folds)
MAX_GRAM_BYTES = 1 << 30


class Target(Enum):
    RUNTIME_MS = "runtime_ms"
    POWER_W = "power_w"


class SpecialTerm(Enum):
    TOTAL_FLOPS = "total_flops"
    TOTAL_MEM_ACCESSES = "total_mem_accesses"


SPECIAL_TERMS = (SpecialTerm.TOTAL_FLOPS, SpecialTerm.TOTAL_MEM_ACCESSES)


class FitError(ValueError):
    """Fitting preconditions violated (sample count, kind mismatch, ...)."""


_SCHEMAS = {
    LayerKind.CONV2D: ("batch", "in_c", "in_hw", "kernel_hw", "stride", "padding",
                       "out_c", "out_hw"),
    LayerKind.FULLY_CONNECTED: ("batch", "in_units", "out_units"),
    LayerKind.POOL2D: ("batch", "in_c", "in_hw", "kernel_hw", "stride", "out_hw"),
}


def _hw(h: int, w: int) -> float:
    # square spatial dims collapse to one feature; non-square uses the geometric mean
    return float(h) if h == w else math.sqrt(h * w)


def build_features(layer: LayerConfig) -> tuple[float, ...]:
    """Layer hyper-parameters as the model's input vector, in `_SCHEMAS` order."""
    s = layer.input
    if layer.kind is LayerKind.FULLY_CONNECTED:
        return (float(s.batch), float(layer.in_units), float(layer.output_units))
    out = layer.output
    if layer.kind is LayerKind.CONV2D:
        return (float(s.batch), float(s.channels), _hw(s.height, s.width),
                _hw(layer.kernel_h, layer.kernel_w), float(layer.stride),
                float(layer.padding), float(layer.output_channels), _hw(out.height, out.width))
    return (float(s.batch), float(s.channels), _hw(s.height, s.width),
            _hw(layer.kernel_h, layer.kernel_w), float(layer.stride), _hw(out.height, out.width))


def special_terms(layer: LayerConfig) -> tuple[float, float]:
    """(total FLOPs, total memory accesses) for the layer."""
    ops = count_ops(layer)
    return (float(ops.flops),
            float(ops.input_reads + ops.weight_reads + ops.output_writes))


@functools.cache
def enumerate_terms(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with total degree <= `degree`, graded-lex order.

    Within each total degree, vectors are lexicographically descending
    (leftmost feature most significant). Count is C(dim + degree, degree).
    A process builds each table once.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")

    def compositions(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in compositions(total - head, slots - 1):
                yield (head,) + rest

    return tuple(exps for total in range(degree + 1) for exps in compositions(total, dim))


@dataclass(frozen=True)
class PolynomialModel:
    """Fitted sparse polynomial for one (layer kind, target) pair.

    Only nonzero-coefficient terms are stored, each as its exponent per
    feature of `schema`; `size` is the published model-size notion (regular
    + special term count). A bad term is named by its index, as the model
    file names it (`terms`, `special_terms`).
    """

    layer_kind: LayerKind
    target: Target
    degree: int
    terms: tuple[tuple[tuple[int, ...], float], ...]
    special: tuple[tuple[SpecialTerm, float], ...]

    def __post_init__(self):
        for i, (term, _) in enumerate(self.terms):
            if any(e < 0 for e in term):
                raise ValueError(f"terms entry {i}: exponents must be non-negative")
            if len(term) != len(self.schema):
                raise ValueError(f"terms entry {i}: {len(term)} exponents for the "
                                 f"{len(self.schema)} features of the schema")
            if sum(term) > self.degree:
                raise ValueError(f"terms entry {i}: degree {sum(term)} exceeds the model's "
                                 f"degree {self.degree}")
        _distinct([term for term, _ in self.terms], "terms")
        _distinct([name.value for name, _ in self.special], "special_terms")

    @property
    def schema(self) -> tuple[str, ...]:
        return _SCHEMAS[self.layer_kind]

    @property
    def size(self) -> int:
        return len(self.terms) + len(self.special)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the sparse fit.

    degree=None picks the per-kind default (3 for conv, 2 for fc/pool);
    l1_strength=None selects lambda by cross-validated RMSPE over a
    50-point logarithmic grid, descending: the first CV minimum that holds
    for CV_PATIENCE (10) grid points, where the CV paths stop, which is the
    grid's argmin only when no later point goes below it. A curve that
    keeps falling runs the whole grid. An explicit l1_strength applies to the
    internally standardized problem (features and target scaled to unit
    variance), so values are comparable across datasets. Either way the
    lasso is solved exactly at that lambda by the homotopy path.
    """

    degree: int | None = None
    l1_strength: float | None = None
    cv_folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.degree is not None and self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.l1_strength is not None and not 0 <= self.l1_strength < math.inf:
            raise ValueError(f"l1_strength must be finite and >= 0, got {self.l1_strength}")
        if self.cv_folds < 2:
            raise ValueError(f"cross-validation needs at least 2 folds, got {self.cv_folds}")

    def resolved_degree(self, kind: LayerKind) -> int:
        return self.degree if self.degree is not None else DEFAULT_DEGREE[kind]


@dataclass(frozen=True)
class Metrics:
    rmspe: float  # percent
    rmse: float   # target units (ms or W)


def _rmspe(pred: np.ndarray, actual: np.ndarray,
           warn_context: str | None = None) -> float | np.ndarray:
    """RMSPE (%) of `pred` against `actual`; one per column of a 2-D `pred`."""
    nonzero = actual != 0
    if not nonzero.all() and warn_context is not None:
        warnings.warn(f"{warn_context}: excluded {int((~nonzero).sum())} zero-actual "
                      f"sample(s) from RMSPE", stacklevel=3)
    if not nonzero.any():
        raise ValueError("RMSPE undefined: every actual value is zero")
    rel = (pred[nonzero].T - actual[nonzero]) / actual[nonzero]
    return 100.0 * np.sqrt(np.mean(rel * rel, axis=-1))


def evaluate(model: PolynomialModel, samples: list[tuple[LayerConfig, float]]) -> Metrics:
    """RMSPE (%) and RMSE of the model over a held-out sample set."""
    if not samples:
        raise ValueError("empty test set")
    pred = predict(model, [layer for layer, _ in samples])[0]
    actual = np.array([value for _, value in samples], dtype=float)
    rmse = math.sqrt(float(np.mean((pred - actual) ** 2)))
    return Metrics(float(_rmspe(pred, actual, warn_context="evaluate")), rmse)


def _design_matrix(layers: list[LayerConfig], terms: list[tuple[int, ...]],
                   specials=SPECIAL_TERMS) -> np.ndarray:
    """One row per layer: one column per term, then one per special term."""
    feats = np.array([build_features(layer) for layer in layers], dtype=float)
    n, dim = feats.shape
    # an exponent past the float range has no float power: its powers are inf
    exps = np.array([[e if e <= sys.float_info.max else math.inf for e in term] for term in terms],
                    dtype=float).reshape(len(terms), dim)
    levels = np.array(sorted(set(exps.ravel().tolist())))  # those that occur: 0..degree in a fit
    # row i*len(levels) + k holds feature i to the power levels[k]; pow gets only contiguous
    # operands, as a per-term feats ** exponents does, so numpy picks the same kernel
    powers = np.repeat(feats.T, len(levels), axis=0) ** np.repeat(
        np.tile(levels, dim), n).reshape(-1, n)
    powers[np.tile(np.isinf(levels), dim)] = np.inf
    rows = levels.searchsorted(exps) + len(levels) * np.arange(dim)
    cols = powers[rows[:, 0]]
    for i in range(1, dim):  # multiplied in np.prod's order (the same bits)
        cols *= powers[rows[:, i]]
    picks = [SPECIAL_TERMS.index(name) for name in specials]
    values = [[row[i] for i in picks] for row in map(special_terms, layers)] if picks else []
    return np.column_stack([cols.T, np.reshape(values, (n, len(picks)))])


def _warn_off_kkt(gram: np.ndarray, corr: np.ndarray, lambdas: np.ndarray,
                  path: np.ndarray, where: str) -> None:
    """Warn (UserWarning) when a row of `path`, one row per lambda, misses its
    KKT conditions by more than KKT_TOL; the warning names the worst row."""
    grad = path @ gram - corr
    lam = lambdas[:, None]
    violation = np.where(path != 0.0, np.abs(grad + lam * np.sign(path)),
                         np.maximum(np.abs(grad) - lam, 0.0))
    violation = np.maximum.reduce(violation, axis=1, initial=0.0)
    worst = int(np.argmax(violation))
    if violation[worst] > KKT_TOL:
        warnings.warn(f"{where}: lasso solution at lambda {lambdas[worst]:.6g} violates "
                      f"its KKT conditions by {violation[worst]:.3g}", stacklevel=3)


_SIDES = np.array([[1.0], [-1.0]])  # a column joins at +lam (row 0) or -lam (row 1)


@np.errstate(divide="ignore", invalid="ignore")
def _lasso_homotopy(problems: list[tuple[np.ndarray, np.ndarray]], lambdas: np.ndarray,
                    stop=None) -> list[np.ndarray]:
    """Exact minimizers of (1/2)b'Gb - c'b + lam*||b||_1 at the descending
    `lambdas`, one row each, for each (G, c) of `problems`: one path each.

    After each lockstep pass, `stop(paths, done)`, when given, gets the paths
    and the number of rows that every path has finished, up to a last call
    with done == len(lambdas). When it returns True the run ends there: rows
    at and past `done` may be unfinished, and rows before it are the bytes
    of a run to the end.

    LARS-lasso homotopy (Efron et al. 2004): b = 0 for lam >= max|c|; between
    events the active set A with signs s has b_A = a - lam*d, where
    [a, d] = G_AA^-1 [c_A, s], so each grid row is exact. An inactive column j
    joins when its correlation c_j - G_jA b_A reaches +-lam (ties: lowest
    index) and stays if its Schur complement S_j against A exceeds SCHUR_TOL
    (an exact copy of an active column, in A's span, does not). An active
    coefficient reaching zero drops. Either event changes A first and then
    makes one solve, the same for both, of the new G_AA against [c_A, s, e],
    where e is zero but for a joining column's 1: it gives the next [a, d],
    and a join reads S_j off (G_AA^-1)_jj = 1/S_j. A failed test or a
    singular G_AA blocks j until the next accepted join or drop and keeps
    the [a, d] of the unchanged A. A dropped column j needs no rule against
    rejoining on its own side at once: with S > 0 its Schur complement
    against the remaining set and d_j its old slope (s_j d_j < 0, as it was
    falling to zero), its new slope has s_j q_j = 1 + S |d_j| > 1, so the
    s*q < 1 mask below already excludes that side (Efron et al. 2004,
    sec. 3).

    The paths step in lockstep, one event each per pass. The per-column work
    of a pass runs once for all of them, on arrays padded to the widest
    problem (a padded column is never free and has no coefficient), through
    views bound once and `np.minimum.reduce`, which skips ndarray.min's Python
    layer. A done path, or an empty problem after one pass, leaves the live
    list. Each path binds its own views once and keeps its own G_jA [a, d]
    product, formed after an accepted join or drop, grid rows, event, solve
    and event bound, so it is the path it would be alone, bit for bit.
    """
    out = [np.zeros((len(lambdas), len(c))) for _, c in problems]
    sizes = [len(c) for _, c in problems]
    n, width = len(problems), max(sizes, default=0)
    if not width:
        if stop is not None:
            stop(out, len(lambdas))
        return out
    corr = np.zeros((n, width))
    for b, (_, c) in enumerate(problems):
        corr[b, :sizes[b]] = c
    # path b's active set, in join order, is idx[:ks[b]] of its views, with the Gram columns
    # cols[:, :ks[b]] and rows [c_j, s_j, 0] of rhs[b, :ks[b]] (a joining column's ends in 1)
    rhs = np.zeros((n, width, 3))
    ad = np.zeros((n, width, 2))  # [a, d] of each active set, zero past its end
    gq = np.zeros((n, width, 2))  # G_jA [a, d] of each column
    free = np.arange(width) < np.array(sizes)[:, None]  # inactive, not blocked by a Schur test
    a, d, s, g0, q = ad[..., 0], ad[..., 1], rhs[..., 1], gq[..., 0], gq[..., 1]
    views = [(out[b], g, np.empty((p, p), order="F"), np.empty(p, np.intp), rhs[b], ad[b],
              gq[b, :p], free[b]) for b, ((g, _), p) in enumerate(zip(problems, sizes))]
    ks, blocked = [0] * n, [[] for _ in problems]
    lam = np.maximum.reduce(np.abs(corr), axis=1)
    rising = -lambdas  # ascending: searchsorted counts the lambdas >= lam
    ends, live = [0] * n, list(range(n))
    # finite in exact arithmetic; the bound on passes stops a degenerate cycle,
    # and the rows it leaves at zero fail the KKT check
    bound = [100 * p + 1 for p in sizes]
    for step in range(1, max(bound) + 1):
        lc = lam[:, None]
        beta = a - lc * d
        # as lam falls by t: correlations r - t*q, active coefficients beta + t*d
        r = corr - g0 + lc * q
        # a masked-out ratio may divide by zero; the errstate decorator hides it
        sq = _SIDES * q[:, None]
        to_side = np.where(free[:, None] & (sq < 1.0 - 1e-12),
                           np.maximum(lc[:, None] - _SIDES * r[:, None], 0.0) / (1.0 - sq), np.inf)
        to_join = np.minimum.reduce(to_side, axis=1)
        to_zero = np.where(s * d < 0.0, np.maximum(-beta / d, 0.0), np.inf)
        t_join, t_drop = np.minimum.reduce(to_join, axis=1), np.minimum.reduce(to_zero, axis=1)
        lam = lam - np.minimum(np.minimum(t_join, t_drop), lam)
        # rows row:end of a path lie in its segment: the lambdas before its row
        # are above its last lam, so `end` counts them too
        rows, ends = ends, rising.searchsorted(-lam, "right").tolist()
        drop = (t_drop <= t_join).tolist()
        leaving = to_zero.argmin(axis=1).tolist()
        joining = (to_join <= (t_join + 1e-12 * lam)[:, None]).argmax(axis=1).tolist()
        for b in live.copy():
            path, gram, cols, idx, rhs_b, ad_b, gq_b, free_b = views[b]
            k, row, end = ks[b], rows[b], ends[b]
            if end > row:
                coef = a[b, :k] - lambdas[row:end, None] * d[b, :k]
                path[row:end, idx[:k]] = np.where(coef * s[b, :k] > 0.0, coef, 0.0)
            if end == len(lambdas) or step == bound[b]:
                live.remove(b)
                continue
            if drop[b]:
                i = leaving[b]
                free_b[idx[i]] = True
                idx[i:k - 1] = idx[i + 1:k]
                rhs_b[i:k - 1] = rhs_b[i + 1:k]
                cols[:, i:k - 1] = cols[:, i + 1:k]
                k -= 1
                ad_b[k] = 0.0
            else:
                j = joining[b]
                free_b[j] = False
                idx[k] = j
                # the sides tie only where r = lam*q, which gives t = lam: the path
                # has ended there, so `<=` or `<` cannot change a returned row
                rhs_b[k] = corr[b, j], 1.0 if to_side[b, 0, j] <= to_side[b, 1, j] else -1.0, 1.0
                cols[:, k] = gram[:, j]
                k += 1
            try:
                x = np.linalg.solve(cols[idx[:k], :k], rhs_b[:k])
            except np.linalg.LinAlgError:
                x = np.full((k, 3), np.nan)
            if not drop[b]:
                rhs_b[k - 1, 2] = 0.0
                if not 1.0 / x[k - 1, 2] > SCHUR_TOL:  # blocked until a join or drop
                    blocked[b].append(j)
                    continue
            ad_b[:k] = x[:, :2]
            if blocked[b]:
                free_b[blocked[b]] = True
                blocked[b].clear()
            ks[b] = k
            np.matmul(cols[:, :k], ad_b[:k], out=gq_b)
        done = min((ends[b] for b in live), default=len(lambdas))
        if stop is not None and stop(out, done) or not live:
            break
    return out


def _lasso_problem(design: np.ndarray, y: np.ndarray):
    """The standardized lasso problem of (design, y), as (gram, corr, live, to_raw).

    The live (non-constant) columns and the target are scaled to zero mean
    and unit variance; gram = X'X/n and corr = X'y/n. `to_raw` maps a path
    row (or a 2-D path, row by row) to the raw coefficients of the `live`
    columns and the intercept(s); a 1-D row's intercept is one dot product.
    """
    n = len(y)  # means and stds bit for bit, without numpy's Python-level _methods
    means = np.add.reduce(design, axis=0) / n
    centred = design - means
    stds = np.sqrt(np.add.reduce(centred * centred, axis=0) / n)
    live = np.flatnonzero(stds > 0)
    y_mean = float(np.add.reduce(y) / n)
    ys = y - y_mean
    y_std = math.sqrt(np.add.reduce(ys * ys) / n) or 1.0

    def to_raw(path: np.ndarray):
        coef = path * y_std / stds[live]
        return coef, y_mean - coef @ means[live]

    x = centred[:, live] / stds[live]
    return x.T @ x / n, x.T @ (ys / y_std) / n, live, to_raw


def _lambda_grid(corr: np.ndarray) -> np.ndarray:
    lam_max = float(np.maximum.reduce(np.abs(corr), initial=0.0)) or 1.0
    return np.geomspace(lam_max, lam_max * CV_LAMBDA_FLOOR, CV_LAMBDA_GRID_SIZE)


def _check_samples(samples, config: FitConfig, kind: LayerKind) -> None:
    if len(samples) < 2 * config.cv_folds:
        raise FitError(f"need at least {2 * config.cv_folds} samples, got {len(samples)}")
    for layer, _ in samples:
        if layer.kind is not kind:
            raise FitError(f"sample layer {layer.name} is {layer.kind.value}, expected {kind.value}")


def _assemble_model(kind: LayerKind, target: Target, degree: int,
                    terms: tuple[tuple[int, ...], ...], coef: np.ndarray) -> PolynomialModel:
    """The model of the nonzero entries of `coef`: one per term, then one per special term."""
    kept = [(i, float(coef[i])) for i in np.flatnonzero(coef).tolist()]
    p = len(terms)
    return PolynomialModel(kind, target, degree,
                           tuple((terms[i], c) for i, c in kept if i < p),
                           tuple((SPECIAL_TERMS[i - p], c) for i, c in kept if i >= p))


def _held_minimum(curve: np.ndarray) -> int:
    """The length of the prefix of `curve` that ends CV_PATIENCE rows past its
    first minimum that no row of those goes below. While no minimum has held
    that long, more than len(curve): the least length at which one can."""
    low = np.minimum.accumulate(curve)
    lows = np.flatnonzero(np.r_[True, curve[1:] < low[:-1]])  # each below all rows before it
    held = np.diff(lows, append=len(curve)) > CV_PATIENCE
    return int(lows[held.argmax()] if held.any() else lows[-1]) + CV_PATIENCE + 1


def _cv_curves(design: np.ndarray, y: np.ndarray, lambdas: np.ndarray, folds: int, seed: int,
               label: str) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Mean held-out RMSPE per lambda, per-fold (pred-matrix, actual) and the
    lambdas, over the prefix of the grid that the fold paths computed.

    The fold paths stop at the first grid point CV_PATIENCE points past a
    minimum of the mean curve that none of those points goes below
    (`_held_minimum`); a curve that keeps falling runs the whole grid. Warns
    (UserWarning) when a fold path misses its KKT conditions by more than
    KKT_TOL at a lambda of the prefix.
    """
    fold_of = kfold_indices(design.shape[0], folds, seed)
    held_out = [fold_of == k for k in range(folds)]
    problems = [_lasso_problem(design[~val], y[~val]) for val in held_out]
    # only the live columns: a zero-padded product moves the last bits
    tests = [(design[val][:, live], y[val]) for val, (_, _, live, _) in zip(held_out, problems)]
    rmspe = np.zeros((folds, len(lambdas)))
    preds = [np.zeros((len(actual), len(lambdas))) for _, actual in tests]
    scored, end = 0, CV_PATIENCE + 1

    def score(paths, done):
        # rows are scored in blocks: no row before `end` can end a held minimum
        nonlocal scored, end
        if done < min(end, len(lambdas)):
            return False
        for (*_, to_raw), (x, actual), path, pred, row in zip(problems, tests, paths, preds, rmspe):
            coef, intercepts = to_raw(path[scored:done])
            pred[:, scored:done] = x @ coef.T + intercepts
            row[scored:done] = _rmspe(pred[:, scored:done], actual)
        scored, end = done, _held_minimum(rmspe[:, :done].mean(axis=0))
        return end <= done

    paths = _lasso_homotopy([(gram, corr) for gram, corr, _, _ in problems], lambdas, score)
    end = min(end, len(lambdas))
    for k, ((gram, corr, _, _), path) in enumerate(zip(problems, paths)):
        _warn_off_kkt(gram, corr, lambdas[:end], path[:end], f"{label}: fold {k + 1} of {folds}")
    fold_preds = [(pred[:, :end], actual) for pred, (_, actual) in zip(preds, tests)]
    return rmspe[:, :end].mean(axis=0), fold_preds, lambdas[:end]


def fit(samples: list[tuple[LayerConfig, float]], config: FitConfig,
        kind: LayerKind, target: Target) -> PolynomialModel:
    return fit_with_metrics(samples, config, kind, target)[0]


def fit_with_metrics(samples: list[tuple[LayerConfig, float]], config: FitConfig,
                     kind: LayerKind, target: Target) -> tuple[PolynomialModel, Metrics]:
    """Fit a model and report held-out CV metrics at the chosen lambda: the
    mean CV curve's RMSPE, on which the lambda is chosen, and the RMSE of
    the folds' pooled predictions.

    Deterministic given (samples, config, config.seed): the fold split is
    seed-derived, the lambda grid follows from the data, and each lasso
    solution is read off an exact homotopy path. The chosen lambda is the
    first minimum of the mean CV curve that no grid point goes below for
    the CV_PATIENCE (10) points after it: the fold paths stop there, and
    the lambda is the argmin of the grid prefix they computed, the whole
    grid when the curve keeps falling. The fit runs on the targets
    divided by `unit`, the largest power of two not above the largest
    |target|: the division is exact, so every standardized quantity keeps its
    bits, and a profile measured in other units gives the same terms with
    scaled coefficients. The model keeps each term whose coefficient on the
    final path's standardized row exceeds KKT_TOL, and the constant when the
    intercept in those units does. Warns (UserWarning) when a
    fold path or the final solution misses its KKT conditions by more than
    KKT_TOL. Raises ValueError, before building anything, when the degree's
    Gram matrices would need more than MAX_GRAM_BYTES, and FitError when the
    CV curve is not finite (a measurement of 1e-300 overflows its percentage
    error), naming the sample whose measurement is farthest, in ratio, from
    the median.
    """
    _check_samples(samples, config, kind)
    degree = config.resolved_degree(kind)
    columns = math.comb(len(_SCHEMAS[kind]) + degree, degree) + len(SPECIAL_TERMS)
    gram_bytes = (config.cv_folds + 1) * columns ** 2 * 8
    if gram_bytes > MAX_GRAM_BYTES:
        raise ValueError(f"degree {degree} gives {kind.value} models {columns} columns: the "
                         f"{config.cv_folds + 1} Gram matrices of a {config.cv_folds}-fold fit "
                         f"need {gram_bytes / 2 ** 30:.1f} GiB, more than the "
                         f"{MAX_GRAM_BYTES / 2 ** 30:g} GiB limit")
    layers = [layer for layer, _ in samples]
    y = np.array([value for _, value in samples], dtype=float)
    terms = enumerate_terms(len(_SCHEMAS[kind]), degree)
    design = _design_matrix(layers, terms)

    # an overflow (of 1e-300's percentage error, say) leaves a curve that is not finite
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if (y == y[0]).all():
            warnings.warn(f"all {kind.value} {target.value} targets identical; "
                          f"fitting a constant-only model", stacklevel=2)
            # terms[0], of degree 0, is the constant: y[:1] is the whole coefficient vector
            return _assemble_model(kind, target, degree, terms, y[:1]), Metrics(0.0, 0.0)
        unit = math.ldexp(1.0, math.frexp(float(np.maximum.reduce(np.abs(y))))[1] - 1)
        scaled = y / unit
        gram, corr, live, to_raw = _lasso_problem(design, scaled)
        if config.l1_strength is None:
            lambdas = _lambda_grid(corr)
        else:
            lambdas = np.array([config.l1_strength])
        label = f"{kind.value} {target.value}"
        mean_rmspe, fold_preds, lambdas = _cv_curves(design, scaled, lambdas, config.cv_folds,
                                                     config.seed, label)
        if not np.isfinite(mean_rmspe).all():
            i = int(np.argmax(np.abs(np.log(y) - np.median(np.log(y)))))
            raise FitError(f"CV RMSPE is not finite: sample layer {layers[i].name} measured "
                           f"{float(y[i])!r}, against a median of {float(np.median(y)):.6g}")
    chosen = int(np.argmin(mean_rmspe))
    pooled_pred = np.concatenate([preds[:, chosen] for preds, _ in fold_preds])
    pooled_act = np.concatenate([act for _, act in fold_preds])

    final = lambdas[chosen:chosen + 1]  # one lambda: a whole-grid path costs about 30% more
    [path] = _lasso_homotopy([(gram, corr)], final)
    # gram is a correlation matrix, so a term cut at |b_j| <= KKT_TOL moves each KKT
    # residual by at most KKT_TOL; the check then reads the row the model keeps
    path[np.abs(path) <= KKT_TOL] = 0.0
    _warn_off_kkt(gram, corr, final, path, label)
    coef = np.zeros(design.shape[1])
    coef[live], intercept = to_raw(path[0])
    coef[0] = intercept if abs(intercept) > KKT_TOL else 0.0  # terms[0] is the constant
    model = _assemble_model(kind, target, degree, terms, coef * unit)
    metrics = Metrics(float(mean_rmspe[chosen]),
                      math.sqrt(float(np.mean((pooled_pred - pooled_act) ** 2))) * unit)
    return model, metrics


def _values(model: PolynomialModel, layers: list[LayerConfig]) -> np.ndarray:
    """Model values of `layers`, of the model's kind, unchecked: not clamped
    and maybe not finite.

    The term columns of `_design_matrix` are added one by one in the model's
    order, so a layer gets the same bits alone as in a batch."""
    with np.errstate(all="ignore"):  # `_check` names a value that is not finite
        design = _design_matrix(layers, [term for term, _ in model.terms],
                                [name for name, _ in model.special])
        total = np.zeros(len(layers))
        for column, (_, coef) in zip(design.T, model.terms + model.special):
            total = total + coef * column
    return total


def _check(model: PolynomialModel, layer: LayerConfig, value: float = 0.0) -> float:
    """`value`, the model's value of `layer`, if the layer is of the model's
    kind and the value is finite; else ValueError naming the layer and the model."""
    if layer.kind is not model.layer_kind:
        raise ValueError(f"layer {layer.name} is {layer.kind.value}, "
                         f"model is for {model.layer_kind.value}")
    if not math.isfinite(value):
        raise ValueError(f"layer {layer.name}: the {model.layer_kind.value} "
                         f"{model.target.value} model predicts {value!r}")
    return value


def predict(model: PolynomialModel, layers: list[LayerConfig]) -> tuple[np.ndarray, np.ndarray]:
    """Model values of `layers`, clamped at zero, and a mask of the clamped ones.

    A layer predicts the same bits alone as in a batch. Raises ValueError,
    naming the first such layer and the model, when a layer is not of the
    model's kind or its value is not finite (a coefficient of 1e308 times a
    feature above 1, or a feature to a power of 600, overflows)."""
    for layer in layers:
        _check(model, layer)
    total = _values(model, layers)
    for layer, value in zip(layers, total.tolist()):
        _check(model, layer, value)
    clamped = total < 0.0
    return np.where(clamped, 0.0, total), clamped


@dataclass(frozen=True)
class LayerPrediction:
    name: str
    kind: LayerKind
    runtime_ms: float
    power_w: float
    energy_mj: float
    clamped: bool


@dataclass(frozen=True)
class NetworkPrediction:
    layers: tuple[LayerPrediction, ...]
    total_runtime_ms: float
    total_energy_mj: float
    average_power_w: float | None  # None when the total runtime is zero


def predict_network(runtime_models: dict[LayerKind, PolynomialModel],
                    power_models: dict[LayerKind, PolynomialModel],
                    net: NetworkConfig) -> NetworkPrediction:
    """Network totals: runtimes sum, energies sum (T*P per layer, in mJ),
    average power is total energy over total runtime, None when that is
    zero. Raises ValueError at the first layer, in network order, whose kind
    has no runtime or power model, whose prediction `predict` refuses, or
    whose energy or running totals overflow.

    Each (kind, target) is predicted as one batch of that kind's layers,
    which gives each layer the bits it gets alone; the walk over the layers
    then checks each value where a per-layer `predict` would have."""
    targets = (("runtime", runtime_models), ("power", power_models))
    by_kind: dict[LayerKind, list[LayerConfig]] = {}
    for layer in net.layers:
        by_kind.setdefault(layer.kind, []).append(layer)
    # each batch's values in network order; a model of another kind is not run:
    # its zeros stand in until `_check` refuses the kind
    values = {(kind, target): iter(_values(models[kind], layers).tolist()
                                   if models[kind].layer_kind is kind else [0.0] * len(layers))
              for kind, layers in by_kind.items() for target, models in targets if kind in models}
    per_layer = []
    total_t = total_e = 0.0
    for layer in net.layers:
        for target, models in targets:
            if layer.kind not in models:
                raise ValueError(f"no {target} model for kind {layer.kind.value}")
        t_p = [_check(models[layer.kind], layer, next(values[layer.kind, target]))
               for target, models in targets]
        t, p = (0.0 if value < 0.0 else value for value in t_p)
        e = t * p  # ms * W = mJ
        per_layer.append(LayerPrediction(layer.name, layer.kind, t, p, e, min(t_p) < 0.0))
        total_t += t
        total_e += e
        if math.inf in (total_t, total_e):  # t and p are finite and >= 0, so e is not nan
            raise ValueError(f"layer {layer.name}: {t!r} ms at {p!r} W overflows the totals")
    return NetworkPrediction(tuple(per_layer), total_t, total_e,
                             total_e / total_t if total_t else None)


# --- serialization ---------------------------------------------------------

def model_to_json(model: PolynomialModel) -> str:
    doc = {
        "layer_kind": model.layer_kind.value,
        "target": model.target.value,
        "degree": model.degree,
        "schema": list(model.schema),
        "terms": [[list(term), coef] for term, coef in model.terms],
        "special_terms": [[special.value, coef] for special, coef in model.special],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _kind_schema(names, kind: LayerKind) -> None:
    """Raise unless `names`, a model file's feature schema, is the one of `kind`."""
    if tuple(names) != _SCHEMAS[kind]:
        raise ValueError(f"{kind.value} models take the features {list(_SCHEMAS[kind])}, "
                         f"got {list(names)}")


def model_from_json(text: str) -> PolynomialModel:
    what = "polynomial model"
    with _located(what):
        doc = json.loads(text)
        kind = _value(doc, "layer_kind", _member(LayerKind), what)
        target = _value(doc, "target", _member(Target), what)
        degree = _value(doc, "degree", _integer, what)
        _value(doc, "schema", lambda names: _kind_schema(_names(names), kind), what)
        return PolynomialModel(
            layer_kind=kind, target=target, degree=degree,
            terms=_value(doc, "terms", lambda terms: _pairs(
                terms, lambda exps: _entries(exps, _integer, "integers"), _number,
                "[exponents, coefficient]"), what),
            special=_value(doc, "special_terms", lambda terms: _pairs(
                terms, _member(SpecialTerm), _number, "[name, coefficient]"), what),
        )


# --- profiling-sample CSV ---------------------------------------------------

PROFILE_HEADER = ("kind", "batch", "in_c", "in_h", "in_w", "k_h", "k_w", "stride",
                  "pad", "out_c", "out_units", "runtime_ms", "power_w")


@dataclass(frozen=True)
class ProfileSample:
    """One profiled layer; a measurement is None when not taken, else > 0."""

    layer: LayerConfig
    runtime_ms: float | None
    power_w: float | None

    def __post_init__(self):
        for name, value in (("runtime_ms", self.runtime_ms), ("power_w", self.power_w)):
            if value is not None and not value > 0:
                raise ValueError(f"measured {name} must be > 0, got {value!r}")


def _opt_int(value: str) -> int | None:
    return int(value) if value.strip() else None


def _opt_float(value: str) -> float | None:
    return _finite(value) if value.strip() else None


def read_profile_csv(text: str) -> list[ProfileSample]:
    """Parse the profiling CSV; `#` starts a comment.

    Errors name a row by its file line. Layers are named row2, row3, ... by
    data row, so comment lines do not change a parsed profile. The geometry
    cells go to LayerConfig as read, a blank one as None, so its checks
    reject a cell the row's kind does not take; only an fc row's blank
    in_h or in_w means 1.
    """
    _, rows = _csv_rows(text, "profile CSV", lambda header: tuple(header) == PROFILE_HEADER)
    samples = []
    kind_of = _member(LayerKind)
    for row_no, (line_no, row) in enumerate(rows, start=2):
        with _located(f"profile CSV row {line_no}"):
            kind = kind_of(row[0].strip())
            in_h, in_w, k_h, k_w, stride, pad, out_c, out_units = map(_opt_int, row[3:11])
            if kind is LayerKind.FULLY_CONNECTED:
                in_h = 1 if in_h is None else in_h
                in_w = 1 if in_w is None else in_w
            shape = TensorShape(int(row[1]), int(row[2]), in_h, in_w)
            layer = LayerConfig(f"row{row_no}", kind, shape, kernel_h=k_h, kernel_w=k_w,
                                stride=stride, padding=pad, output_channels=out_c,
                                output_units=out_units)
            samples.append(ProfileSample(layer, _opt_float(row[11]), _opt_float(row[12])))
    return samples


def write_profile_csv(samples: list[ProfileSample], comments: list[str] | None = None) -> str:
    out = io.StringIO()
    for comment in comments or []:
        out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PROFILE_HEADER)
    for sample in samples:
        layer, s = sample.layer, sample.layer.input
        # cells a kind does not take are None, which csv writes empty
        flat = layer.kind is LayerKind.FULLY_CONNECTED and (s.height, s.width) == (1, 1)
        writer.writerow([layer.kind.value, s.batch, s.channels,
                         *((None, None) if flat else (s.height, s.width)),
                         layer.kernel_h, layer.kernel_w, layer.stride, layer.padding,
                         layer.output_channels, layer.output_units,
                         repr(sample.runtime_ms) if sample.runtime_ms is not None else "",
                         repr(sample.power_w) if sample.power_w is not None else ""])
    return out.getvalue()
