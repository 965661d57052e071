"""Gaussian-process sequential search with budget-gated acquisition.

The loop is the classic three-step one: maximize an acquisition function
over sampled candidates, evaluate the black-box objective there, update the
GP posterior. With constraint models attached, the acquisition is expected
improvement hard-gated to zero wherever the predicted power or memory
budget is violated, so the search never spends evaluations on predicted-
infeasible configurations (minimization orientation throughout).
Acquisitions score the whole candidate array in one pass.
"""

from __future__ import annotations

import csv
import io
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .cholstack import CholeskyStack, substitute
from .linmod import LinearModel, LinTarget, predict as lin_predict
from .netgraph import _distinct
from .seeding import generator

SQRT5 = math.sqrt(5.0)

# log-spaced hyper-parameter grids, searched coordinate-wise by marginal
# likelihood after every update (inputs are unit-box normalized, targets
# standardized, so fixed grids cover the useful regimes)
LENGTHSCALE_GRID = tuple(0.05 * 2.0 ** i for i in range(7))        # 0.05 .. 3.2
SIGNAL_VAR_GRID = tuple(0.125 * 2.0 ** i for i in range(7))        # 0.125 .. 8
NOISE_VAR_GRID = tuple(1e-8 * 10.0 ** i for i in range(7))         # 1e-8 .. 1e-2
DEFAULT_CANDIDATES = 512

_TAG_SAMPLER = 0xCA9D


class NumericalError(RuntimeError):
    """Covariance factorization failed even with the reported jitter."""


@dataclass(frozen=True)
class Dimension:
    name: str
    kind: str  # "integer" | "continuous"
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in ("integer", "continuous"):
            raise ValueError(f"dimension kind must be integer|continuous, got {self.kind!r}")
        if not self.lo < self.hi:
            raise ValueError(f"dimension {self.name}: lo must be < hi")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"dimension {self.name}: lo, hi and hi - lo must be finite")
        if self.kind == "integer" and (self.lo % 1 or self.hi % 1):
            raise ValueError(f"dimension {self.name}: integer lo and hi must be whole numbers")


@dataclass(frozen=True)
class SearchSpace:
    dimensions: tuple[Dimension, ...]
    structural_subset: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.dimensions:
            raise ValueError("search space has no dimensions")
        names = [d.name for d in self.dimensions]
        _distinct(names, "dimensions")
        _distinct(self.structural_subset, "structural")
        missing = [n for n in self.structural_subset if n not in names]
        if missing:
            raise ValueError(f"structural subset names not in space: {missing}")
        # read-only, built once: the bounds, and the box that candidates are
        # drawn on, integer dimensions half a step wider each way
        lo, hi, half = np.array([(d.lo, d.hi, 0.5 * (d.kind == "integer"))
                                 for d in self.dimensions]).T
        for name, value in (("_lo", lo), ("_hi", hi), ("_span", hi - lo), ("_low", lo - half),
                            ("_width", hi + half - (lo - half))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.dimensions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension lower and upper bounds as read-only arrays."""
        return self._lo, self._hi

    def normalize(self, X: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(X) - self._lo) / self._span


@dataclass(frozen=True)
class Observation:
    x: tuple[float, ...]
    y: float


@dataclass(frozen=True)
class ConstraintSpec:
    """Budgets plus the linear models that predict consumption from z."""

    power_budget: float
    memory_budget: float
    power_model: LinearModel
    memory_model: LinearModel

    def __post_init__(self):
        if not (0 < self.power_budget < math.inf and 0 < self.memory_budget < math.inf):
            raise ValueError("budgets must be finite and > 0")
        for role, model, target in (("power", self.power_model, LinTarget.POWER_W),
                                    ("memory", self.memory_model, LinTarget.MEMORY_MB)):
            if model.target is not target:
                raise ValueError(f"the {role} model predicts {model.target.value}, "
                                 f"not {target.value}")

    def predict(self, Z):
        """(power, memory) arrays at the structural rows of the 2-D `Z`."""
        return lin_predict(self.power_model, Z), lin_predict(self.memory_model, Z)

    @np.errstate(over="ignore")  # an excess past the float range is inf: still violated
    def violation(self, power, memory):
        """Summed excess over the budgets, each relative to its budget, element-wise;
        zero exactly when both are met (inclusive), as an excess is >= ~1e-16 of its budget."""
        return (np.maximum(power - self.power_budget, 0.0) / self.power_budget
                + np.maximum(memory - self.memory_budget, 0.0) / self.memory_budget)


def _correlation(r2: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Matérn-5/2 correlation at squared scaled distances r2, which it
    overwrites, as it does the scratch t of r2's shape if given.

    In place, in the operation order of (1 + sr + sr*sr/3) * exp(-sr) with
    sr = sqrt(5) * sqrt(max(r2, 0)), so every value is bit for bit that
    expression's.
    """
    sr = np.maximum(r2, 0.0, out=r2)
    np.sqrt(sr, out=sr)
    sr *= SQRT5
    out = sr + 1.0
    t = np.multiply(sr, sr, out=t)
    t /= 3.0
    out += t
    np.negative(sr, out=t)
    out *= np.exp(t, out=t)
    return out


def _matern52(Xa: np.ndarray, Xb: np.ndarray, lengthscales: np.ndarray,
              signal_var) -> np.ndarray:
    """The Matérn-5/2 kernel between the rows of Xa and of Xb. `lengthscales`
    (dim,) and `signal_var` may carry a leading trial axis, (trials, dim)
    and (trials,); the result then does too, (trials, rows of Xa, rows of Xb)."""
    lengthscales = np.asarray(lengthscales)
    r2 = np.empty((*lengthscales.shape[:-1], Xa.shape[0], Xb.shape[0]))
    t = np.empty_like(r2)
    for d in range(lengthscales.shape[-1]):
        u = t if d else r2   # r2 starts as the first square: 0 + u is u
        np.subtract(Xa[:, d, None], Xb[None, :, d], out=u)
        u /= lengthscales[..., d, None, None]
        u *= u
        if d:
            r2 += u
    K = _correlation(r2, t)
    K *= np.asarray(signal_var)[..., None, None]
    return K


class GPState:
    """GP regression state over a SearchSpace, immutable apart from one
    private store that `update` hands to its successor.

    Inputs live in the unit box. Auto states standardize the targets
    (numpy's mean and std) and re-select the kernel's hyper-parameters on
    every update by `_select_hypers` from `hyper_start` (lengthscales,
    signal var, noise var): the previous choice, or the grid midpoints
    (None). Fixed states keep the hyper-parameters they take, in raw units.
    A state holds its covariance's Cholesky factor L, packed as by
    CholeskyStack.pack, and w = L^-1 of its (standardized) targets.

    A refit inherits its predecessor's normalized points (`points`), so it
    checks and normalizes only the new observation, and an auto refit its
    trial store (`_trial_factors`, see `_select_hypers`), from which it
    copies the chosen trial's L and w. A rejected update leaves the store
    where it was; a second update from one state finds none and
    selects cold, to the same hyper-parameters but with a fresh factor
    that can differ from an extended one in the last bits. A fixed state,
    or an auto state none of whose trials scored finite, factorizes its
    covariance itself (`_factorize`, adding jitter where it must).
    """

    def __init__(self, space: SearchSpace, observations=(),
                 lengthscales=None, signal_var: float = 1.0, noise_var: float = 0.0,
                 prior_mean: float = 0.0, auto_hypers: bool = False, *, hyper_start=None,
                 trial_factors: CholeskyStack | None = None, points=None):
        self.space = space
        self.observations = tuple(observations)
        new = self.observations if points is None else self.observations[-1:]
        if any(len(obs.x) != space.dim for obs in new):
            raise ValueError("observation arity does not match space")
        self.auto_hypers = auto_hypers

        self._trial_factors = None
        n = len(self.observations)
        X = np.array([obs.x for obs in new], dtype=float).reshape(len(new), space.dim)
        lo, hi = space.bounds()
        # the raw coordinates: rounding in normalized ones could admit a point past hi
        inside = np.logical_and(lo <= X, X <= hi).all(axis=1)
        if not inside.all():
            outside = new[int(np.argmin(inside))]
            raise ValueError(f"observation {outside.x} outside the search space")
        self._xn = space.normalize(X)
        if points is not None:
            self._xn = np.concatenate([points, self._xn])
        y = np.array([obs.y for obs in self.observations], dtype=float)

        if auto_hypers and n:
            # y.mean() and y.std() bit for bit, without numpy's Python-level _methods
            self.prior_mean = float(np.add.reduce(y) / n)
            centred = y - self.prior_mean
            scale = math.sqrt(np.add.reduce(centred * centred) / n)
            self.y_scale = scale if scale > 0 else 1.0
            self._ys = centred / self.y_scale
            self._trial_factors = trial_factors or CholeskyStack()
            self.lengthscales, self.signal_var, self.noise_var = _select_hypers(
                self._xn, self._ys, hyper_start, factors=self._trial_factors)
        else:
            self.prior_mean = prior_mean
            self.y_scale = 1.0
            self._ys = y - prior_mean
            if lengthscales is None:
                lengthscales = (0.4,) * space.dim
            self.lengthscales = tuple(float(v) for v in lengthscales)
            if len(self.lengthscales) != space.dim or any(v <= 0 for v in self.lengthscales):
                raise ValueError("need one positive lengthscale per dimension")
            if signal_var <= 0 or noise_var < 0:
                raise ValueError("signal_var must be > 0 and noise_var >= 0")
            self.signal_var = signal_var
            self.noise_var = noise_var

        key = (*self.lengthscales, self.signal_var, self.noise_var)
        if self._trial_factors and key in self._trial_factors.keys:
            t = self._trial_factors.keys.index(key)
            # copies: views would pin the store's arrays once keep replaces them
            self._factor = tuple([part[t:t + 1].copy() for part in parts] for parts in
                                 (self._trial_factors.blocks, self._trial_factors.inverses))
            self._w = self._trial_factors.w[t].copy()
            self.jitter = 0.0
        else:   # fixed hyper-parameters, or no trial scored finite
            L, self._w, self.jitter = _factorize(
                self._xn, self.lengthscales, self.signal_var, self.noise_var, self._ys)
            self._factor = CholeskyStack.pack(L)

    @classmethod
    def fit(cls, space: SearchSpace, observations) -> "GPState":
        """State with hyper-parameters selected from the data, from the midpoints."""
        return cls(space, observations, auto_hypers=True)


def _bordered_cholesky(R: np.ndarray, ys: np.ndarray, signal_var: float,
                       diag: float) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky factor L of K = signal_var * R + diag * I and v = L^-1 ys,
    both from one Cholesky of K bordered by ys, [[K, ys], [ys^T, inf]].

    Only the last pivot reads the corner, and comes out inf, so for any
    positive-definite K, noise-free included, the leading block is K's
    factor and the last row is v, copied so the bordered array goes
    with L. Raises LinAlgError when K is not positive definite.
    """
    n = ys.shape[0]
    A = np.empty((n + 1, n + 1))
    np.multiply(signal_var, R, out=A[:n, :n])
    A.flat[:n * (n + 1):n + 2] += diag
    A[n, :n] = ys
    A[:n, n] = ys
    A[n, n] = math.inf
    L = np.linalg.cholesky(A)
    return L[:n, :n], L[n, :n].copy()


def _factorize(Xn: np.ndarray, lengthscales: tuple, signal_var: float, noise_var: float,
               ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(L, L^-1 ys, jitter): L is the Cholesky factor of K + jitter * I, with
    K = signal_var * R + noise_var * I the covariance over the points Xn, and
    both come from one `_bordered_cholesky`. The jitter is 0 unless K is not
    positive definite or, with zero noise, Xn repeats a point (which warns).
    """
    R = _matern52(Xn, Xn, lengthscales, 1.0)   # the correlation
    jitter = 0.0
    if noise_var == 0.0 and np.unique(Xn, axis=0).shape[0] < Xn.shape[0]:
        jitter = 1e-8 * signal_var
        warnings.warn(f"duplicate observation locations with zero noise; "
                      f"adding jitter {jitter:g}", stacklevel=3)
    for _ in range(6):
        try:
            return (*_bordered_cholesky(R, ys, signal_var, noise_var + jitter), jitter)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * signal_var if jitter == 0.0 else jitter * 100.0
    raise NumericalError(f"covariance not positive definite at jitter {jitter:g}")


def _log_marginal_likelihood(R: np.ndarray, ys: np.ndarray, signal_var: float,
                             noise_var: float) -> tuple[float, tuple | None]:
    """log N(ys; 0, K) for K = signal_var * R + noise_var * I, and (L, v,
    log det L): K's Cholesky factor and v = L^-1 ys, from one
    `_bordered_cholesky`, so ys^T K^-1 ys is v.v (None, with -inf, when K
    is not positive definite).
    """
    try:
        L, v = _bordered_cholesky(R, ys, signal_var, noise_var)
    except np.linalg.LinAlgError:
        return -math.inf, None
    logdet = np.log(L.diagonal()).sum()
    return (float(-0.5 * v @ v - logdet - 0.5 * ys.shape[0] * math.log(2 * math.pi)),
            (L, v, logdet))


def _bordering(params: np.ndarray, Xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each trial, a row (*lengthscales, signal var, noise var) of
    `params`, the column of its K between the last point of Xn and the
    others, and its diagonal."""
    k = _matern52(Xn[:-1], Xn[-1:], params[:, :-2], params[:, -2])
    return k[:, :, 0], params[:, -2] + params[:, -1]


def _select_hypers(Xn: np.ndarray, ys: np.ndarray, start=None, *,
                   factors: CholeskyStack | None = None
                   ) -> tuple[tuple[float, ...], float, float]:
    """Coordinate-wise grid ascent of the log marginal likelihood.

    Two deterministic passes over (each lengthscale, signal var, noise var),
    each restricted to its 7-point log grid, ties to the earliest point,
    from `start` (lengthscales, signal var, noise var: a refit's previous
    choice) or the grid midpoints (None). A first pass that ends at its
    start is the only one: a second would repeat its lookups and choices.
    A full factorial sweep over per-dimension lengthscales would be
    exponential in the dimension for no accuracy gain at this scale.

    Sweeps repeat trials, each starting at the previous choice: a sweep
    builds its trials' keys once, and each trial is scored once and looked
    up after that. A trial stored in `factors` (default: an empty store),
    over all points of Xn but the last, is scored by CholeskyStack.extend,
    any other by `_log_marginal_likelihood`; the signal and noise sweeps
    share the chosen lengthscales' correlation R. The store then holds the
    factor and L^-1 ys of every trial looked up.
    """
    dim = Xn.shape[1]
    if factors is None:
        factors = CholeskyStack()
    stored = factors.extend(Xn, ys, _bordering)
    last_R: tuple = (None, None)   # (lengthscales, R): the sweeps share the chosen R
    scored: dict[tuple[float, ...], float] = {}
    fresh: dict[tuple[float, ...], tuple] = {}

    def best(grid: tuple[float, ...], keys: list[tuple[float, ...]]) -> float:
        nonlocal last_R
        scores = []
        for key in keys:
            value = scored.get(key)
            if value is None:
                value = stored.get(key)
                if value is None:
                    lengthscales = key[:dim]
                    if last_R[0] != lengthscales:
                        last_R = (lengthscales, _matern52(Xn, Xn, lengthscales, 1.0))
                    value, factor = _log_marginal_likelihood(last_R[1], ys, key[-2], key[-1])
                    if factor is not None:
                        L, v, logdet = factor
                        fresh[key] = (CholeskyStack.split(L), logdet, v)
                scored[key] = value
            scores.append(value)
        return grid[scores.index(max(scores))]

    lengthscales, s2f, s2n = start or ((LENGTHSCALE_GRID[3],) * dim, SIGNAL_VAR_GRID[3],
                                       NOISE_VAR_GRID[3])
    ls = [float(v) for v in lengthscales]
    for _ in range(2):
        began = (ls.copy(), s2f, s2n)
        for d in range(dim):
            head, tail = ls[:d], (*ls[d + 1:], s2f, s2n)
            ls[d] = best(LENGTHSCALE_GRID, [(*head, c, *tail) for c in LENGTHSCALE_GRID])
        point = tuple(ls)
        s2f = best(SIGNAL_VAR_GRID, [(*point, c, s2n) for c in SIGNAL_VAR_GRID])
        s2n = best(NOISE_VAR_GRID, [(*point, s2f, c) for c in NOISE_VAR_GRID])
        if (ls, s2f, s2n) == began:
            break
    factors.keep(Xn, scored, fresh)
    return tuple(ls), float(s2f), float(s2n)


def gp_posterior_batch(state: GPState, X) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and (latent) variance at each query row, raw units, both
    from one forward solve v = L^-1 k* (Rasmussen & Williams 2006, alg. 2.1)."""
    Xq = state.space.normalize(np.asarray(X, dtype=float))
    # k*^T built as (points, queries), so the substitution reads contiguous row blocks
    k_star_t = _matern52(state._xn, Xq, state.lengthscales, state.signal_var)
    v = substitute(*state._factor, k_star_t[None])[0]
    # v * w and v * v reuse k*^T's buffer
    mean_std = np.multiply(v, state._w[:, None], out=k_star_t).sum(axis=0)
    var_std = np.maximum(state.signal_var - np.multiply(v, v, out=k_star_t).sum(axis=0), 0.0)
    return state.prior_mean + state.y_scale * mean_std, state.y_scale ** 2 * var_std


def update(state: GPState, observation: Observation, earlier=None) -> GPState:
    """New state with the observation appended and the factorization rebuilt.

    `earlier`, when given, replaces the state's observations before the new
    one, so a caller can revise earlier y values at no extra cost; it must
    hold the state's points in order (ValueError otherwise). Auto states
    re-select hyper-parameters from the previous choice (the grid
    midpoints if the state had no data), extending the trial factors it
    hands over; fixed states keep theirs.
    """
    if earlier is None:
        earlier = state.observations
    else:
        earlier = tuple(earlier)
        if [obs.x for obs in earlier] != [obs.x for obs in state.observations]:
            raise ValueError("earlier observations must be the state's points in order; "
                             "only their y values may change")
    observations = earlier + (observation,)
    if not state.auto_hypers:
        return GPState(state.space, observations, state.lengthscales, state.signal_var,
                       state.noise_var, state.prior_mean, points=state._xn)
    start = (state.lengthscales, state.signal_var, state.noise_var) if state.observations else None
    successor = GPState(state.space, observations, auto_hypers=True, hyper_start=start,
                        trial_factors=state._trial_factors, points=state._xn)
    state._trial_factors = None   # now the successor's
    return successor


def _Phi(u: np.ndarray) -> np.ndarray:
    """Standard normal CDF; numpy has no erfc, so math.erfc maps over the
    array where its argument is not past 40 (erfc(40) is 0.0 in floats)."""
    x = -u / math.sqrt(2.0)
    out = np.zeros(x.shape)
    live = ~(x > 40.0)   # nan too: math.erfc(nan) is nan
    out[live] = np.fromiter(map(math.erfc, x[live].tolist()), float)
    return 0.5 * out


def ei_value(mean, sd, y_best: float):
    """Closed-form expected improvement below y_best for N(mean, sd^2).

    Works element-wise on arrays of means and sds (a float for scalars).
    Where sd <= 0 the improvement is the deterministic max(y_best - mean, 0).
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    gap = y_best - mean
    spread = sd > 0.0
    u = np.divide(gap, sd, out=np.zeros(np.broadcast(gap, sd).shape), where=spread)
    ei = gap * _Phi(u) + sd * (np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))
    values = np.maximum(np.where(spread, ei, gap), 0.0)
    return float(values) if values.ndim == 0 else values


def _structural(space: SearchSpace, constraints: ConstraintSpec) -> list[int]:
    if space.structural_subset != constraints.power_model.schema or \
            space.structural_subset != constraints.memory_model.schema:
        raise ValueError(
            f"structural subset {space.structural_subset} does not match constraint "
            f"model schemas {constraints.power_model.schema} / "
            f"{constraints.memory_model.schema}")
    return [space.names.index(name) for name in space.structural_subset]


def _check_reach(space: SearchSpace, constraints: ConstraintSpec, idx: list[int]) -> None:
    """Raise ValueError naming a constraint model whose prediction can
    overflow somewhere in the space's box.

    The bound adds |weight| times the largest |value| of each dimension (1 for
    the bias) in lin_predict's order. Rounding is monotonic, so each partial
    sum of a prediction in the box is at most the bound; doubling it leaves
    room for a continuous draw rounded an ulp past its dimension's end.
    """
    reach = np.maximum(np.abs(space._lo[idx]), np.abs(space._hi[idx])).tolist() + [1.0]
    for role, model in (("power", constraints.power_model), ("memory", constraints.memory_model)):
        bound = 0.0
        for weight, value in zip(model.weights, reach):
            bound += abs(weight) * value
        if not math.isfinite(2.0 * bound):
            raise ValueError(f"the {role} model's predictions can overflow in the search space")


def ei_batch(state: GPState, X: np.ndarray, y_best: float) -> np.ndarray:
    """Expected improvement below y_best at every candidate row."""
    mean, var = gp_posterior_batch(state, X)
    return ei_value(mean, np.sqrt(var), y_best)


def hw_ieci_batch(state: GPState, X: np.ndarray, y_best: float,
                  feasible: np.ndarray) -> np.ndarray:
    """ei_batch on the rows `feasible` marks, zero on every other row.

    The posterior and the improvement are computed only on the marked rows
    (none marked: no posterior call), so a marked row's value can differ
    from ei_batch's on the whole array in the last bits: the BLAS matmuls of
    the blocked substitution round an array's last columns another way.
    """
    values = np.zeros(X.shape[0])
    if feasible.any():
        values[feasible] = ei_batch(state, X[feasible], y_best)
    return values


def draw_candidates(space: SearchSpace, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform candidates over the box; integer dimensions are drawn on
    [lo - 0.5, hi + 0.5) and rounded in place, so each value is equally likely."""
    X = rng.random((count, space.dim))   # rng.uniform's low + (high - low) * u, bit for bit
    X *= space._width
    X += space._low
    for i, d in enumerate(space.dimensions):
        if d.kind == "integer":
            X[:, i] = np.clip(np.floor(X[:, i] + 0.5), d.lo, d.hi)
    return X


@dataclass(frozen=True)
class Proposal:
    x: tuple[float, ...]
    acquisition: float
    fallback: bool


def propose_next(state: GPState, y_best: float, candidate_count: int, seed: int,
                 constraints: ConstraintSpec | None = None, *, iteration: int) -> Proposal:
    """Maximize expected improvement below y_best over candidates drawn from state.space.

    Candidates come from the stream tagged (seed, sampler, iteration), so
    each iteration of a run draws independently of every iteration of runs
    with other seeds. Ties break to the lowest candidate index. With
    constraints, one prediction of the candidates gives their violations:
    the improvement is zero wherever one is positive, and when every value
    is zero the candidate with the smallest violation is taken (the first
    predicted-feasible one, if any), flagged as exploration fallback only
    when no candidate is predicted feasible.
    """
    X = draw_candidates(state.space, candidate_count, generator(seed, _TAG_SAMPLER, iteration))
    if constraints is None:
        values = ei_batch(state, X, y_best)
    else:
        violations = constraints.violation(
            *constraints.predict(X[:, _structural(state.space, constraints)]))
        values = hw_ieci_batch(state, X, y_best, violations == 0.0)
    best = int(np.argmax(values))
    if values[best] > 0.0 or constraints is None:
        return Proposal(tuple(float(v) for v in X[best]), float(values[best]), False)
    pick = int(np.argmin(violations))
    return Proposal(tuple(float(v) for v in X[pick]), 0.0, bool(violations[pick] > 0))


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    x: tuple[float, ...]
    acquisition: float
    y: float
    pred_power: float | None
    pred_memory: float | None
    feasible: bool
    best_y: float | None
    phase: str          # "seed" | "bo"
    fallback: bool
    failed: bool
    elapsed_s: float    # the proposal ("bo" rows), the evaluation and the GP fit or update


@dataclass
class Trace:
    dim_names: tuple[str, ...]
    records: list[TraceRecord]

    def csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["iter", *self.dim_names, "acq", "y", "pred_power", "pred_mem",
                         "feasible", "best_y"])
        for r in self.records:
            writer.writerow([
                r.iteration,
                *[repr(v) for v in r.x],
                repr(r.acquisition),
                repr(r.y),
                repr(r.pred_power) if r.pred_power is not None else "",
                repr(r.pred_memory) if r.pred_memory is not None else "",
                "true" if r.feasible else "false",
                repr(r.best_y) if r.best_y is not None else "",
            ])
        return out.getvalue()


def _call_objective(objective, x: tuple[float, ...]) -> tuple[float, bool]:
    try:
        y = float(objective(x))
    except Exception:
        return math.nan, True
    if not math.isfinite(y):
        return math.nan, True
    return y, False


def bo_run(objective, space: SearchSpace, constraints: ConstraintSpec | None,
           budget: int, seed: int,
           candidate_count: int = DEFAULT_CANDIDATES) -> tuple[Observation | None, Trace]:
    """Run the search: 2*dim seeding evaluations, then propose/evaluate/update.

    A failed objective call (exception or non-finite value) is never the
    best. Its trace row records the worst non-failed y seen so far (1.0
    before any success); in the GP's data every failed row is re-imputed at
    each refit as the current worst non-failed y (1.0 while no call has
    succeeded), so the surrogate steers away from it. Until a feasible
    non-failed row exists, the EI incumbent is the lowest y in the GP's
    data: the lowest non-failed y, or 1.0 before any success. Returns the
    best feasible non-failed observation, or None when the budget ends
    without one, plus the full per-iteration trace. Deterministic given
    (seed, space, objective).
    """
    n_seed = 2 * space.dim
    if budget < n_seed:
        raise ValueError(f"budget {budget} below seeding need {n_seed}")
    if candidate_count < 1:
        raise ValueError("candidate_count must be >= 1")
    structural_idx = ()
    if constraints is not None:  # the model schemas, and the predictions' reach, up front
        structural_idx = _structural(space, constraints)
        _check_reach(space, constraints, structural_idx)
    seeds = draw_candidates(space, n_seed, generator(seed, 0))
    records: list[TraceRecord] = []
    observed: list[Observation] = []  # the GP's data, failed rows at the current worst y
    failed_rows: list[int] = []
    best = None           # best feasible non-failed observation so far
    worst_y = -math.inf   # largest non-failed y so far
    lowest_y = math.inf   # smallest non-failed y so far
    for iteration in range(1, budget + 1):
        started = time.perf_counter()
        if iteration <= n_seed:
            proposal = Proposal(tuple(float(v) for v in seeds[iteration - 1]), 0.0, False)
        else:
            y_best = (best.y if best is not None
                      else lowest_y if lowest_y < math.inf else 1.0)
            proposal = propose_next(state, y_best, candidate_count, seed, constraints,
                                    iteration=iteration)
        x = proposal.x
        y, failed = _call_objective(objective, x)
        if failed:
            y = worst_y if worst_y > -math.inf else 1.0  # canonical error scale
            failed_rows.append(iteration - 1)
        else:
            lowest_y = min(lowest_y, y)
            if y > worst_y:
                worst_y = y
                for i in failed_rows:
                    observed[i] = Observation(observed[i].x, y)
        if constraints is None:
            power = memory = None
            feasible = True
        else:
            power, memory = (v.item() for v in constraints.predict(
                np.array([x])[:, structural_idx]))
            feasible = bool(constraints.violation(power, memory) == 0.0)
        obs = Observation(x, y)
        if feasible and not failed and (best is None or y < best.y):
            best = obs
        if iteration == n_seed:
            state = GPState.fit(space, [*observed, obs])
        elif iteration > n_seed:
            state = update(state, obs, observed) if failed_rows else update(state, obs)
        observed.append(obs)
        records.append(TraceRecord(iteration, x, proposal.acquisition, y, power, memory,
                                   feasible, None if best is None else best.y,
                                   "seed" if iteration <= n_seed else "bo",
                                   proposal.fallback, failed,
                                   time.perf_counter() - started))
    return best, Trace(space.names, records)
