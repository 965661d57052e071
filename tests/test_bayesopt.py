import math
import time

import numpy as np
import pytest

from hwcost import bayesopt as bo
from hwcost.bayesopt import (ConstraintSpec, Dimension, GPState, Observation, SearchSpace,
                             bo_run, draw_candidates, ei_batch, ei_value, gp_posterior_batch,
                             hw_ieci_batch, propose_next, update)
from hwcost.cholstack import CholeskyStack, substitute
from hwcost.linmod import LinearModel, LinTarget
from hwcost.objectives import branin, quadratic_bowl, with_noise
from hwcost.seeding import generator

from oracles import (ei_quadrature, gp_posterior_dense, gp_posterior_long_double,
                     matern52_correlation_reference, matern52_matrix_reference,
                     select_hypers_dense)


def space_1d():
    return SearchSpace((Dimension("x", "continuous", 0.0, 1.0),))


def space_2d(structural=()):
    return SearchSpace((Dimension("x1", "continuous", 0.0, 1.0),
                        Dimension("x2", "continuous", 0.0, 1.0)),
                       structural_subset=tuple(structural))


def constraints_halfbox(power_budget=1.0, memory_budget=10.0):
    power = LinearModel(("x1", "x2"), (1.0, 1.0), LinTarget.POWER_W)
    memory = LinearModel(("x1", "x2"), (1.0, 0.0), LinTarget.MEMORY_MB)
    return ConstraintSpec(power_budget, memory_budget, power, memory)


def within_budgets(cons, Z):
    """Both budgets met (inclusive) at the structural rows Z, as propose_next
    and bo_run read them."""
    return cons.violation(*cons.predict(Z)) == 0.0


# --- posterior ---------------------------------------------------------------

def test_posterior_with_no_observations_is_prior():
    state = GPState(space_1d(), signal_var=2.0, noise_var=0.0, prior_mean=0.7)
    (mean,), (var,) = gp_posterior_batch(state, [(0.4,)])
    assert mean == 0.7
    assert var == 2.0


def test_noise_free_interpolation():
    state = GPState(space_1d(), [Observation((0.4,), 1.7)], signal_var=2.0, noise_var=0.0)
    (mean,), (var,) = gp_posterior_batch(state, [(0.4,)])
    assert mean == pytest.approx(1.7, abs=1e-9)
    assert var == pytest.approx(0.0, abs=1e-9)


def test_posterior_matches_dense_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        space = SearchSpace(tuple(Dimension(f"d{i}", "continuous", 0.0, 1.0)
                                  for i in range(dim)))
        obs = [Observation(tuple(rng.uniform(0, 1, dim)), float(rng.normal()))
               for _ in range(n)]
        ls = tuple(float(v) for v in rng.uniform(0.2, 1.5, dim))
        s2f = float(rng.uniform(0.5, 3.0))
        s2n = float(rng.uniform(1e-4, 1e-1))
        state = GPState(space, obs, lengthscales=ls, signal_var=s2f, noise_var=s2n,
                        prior_mean=0.3)
        query = tuple(rng.uniform(0, 1, dim))
        (mean,), (var,) = gp_posterior_batch(state, [query])
        mean_o, var_o = gp_posterior_dense([o.x for o in obs], [o.y for o in obs],
                                           query, ls, s2f, s2n, 0.3)
        assert abs(mean - mean_o) < 1e-8
        assert abs(var - var_o) < 1e-8


def test_posterior_variance_bounded_by_prior():
    rng = np.random.default_rng(5)
    space = space_2d()
    obs = [Observation(tuple(rng.uniform(0, 1, 2)), float(rng.normal()))
           for _ in range(8)]
    state = GPState(space, obs, lengthscales=(0.3, 0.5), signal_var=1.5, noise_var=1e-3)
    for _ in range(50):
        _, (var,) = gp_posterior_batch(state, [tuple(rng.uniform(0, 1, 2))])
        assert var <= 1.5 + 1e-3 + 1e-12


def test_batch_mean_matches_dense_oracle_on_every_row():
    """Every row of a 513-row batch, one past a multiple of common BLAS and
    LAPACK block sizes, against the dense oracle on states of up to 60
    observations."""
    rng = np.random.default_rng(61)
    space = space_2d()
    for n in (1, 8, 60):
        obs = [Observation(tuple(rng.uniform(0, 1, 2)), float(rng.normal()))
               for _ in range(n)]
        ls = tuple(float(v) for v in rng.uniform(0.2, 1.5, 2))
        s2f = float(rng.uniform(0.5, 3.0))
        s2n = float(10.0 ** rng.uniform(-4.0, -1.0))
        state = GPState(space, obs, lengthscales=ls, signal_var=s2f, noise_var=s2n,
                        prior_mean=0.3)
        X = rng.uniform(0, 1, (513, 2))
        means, variances = gp_posterior_batch(state, X)
        for x, mean, var in zip(X, means, variances):
            mean_o, var_o = gp_posterior_dense([o.x for o in obs], [o.y for o in obs],
                                               tuple(x), ls, s2f, s2n, 0.3)
            assert abs(mean - mean_o) < 1e-8
            assert abs(var - var_o) < 1e-8


def _assert_posterior_as_long_double(state, X):
    """Mean and variance on the rows of X, in the standardized units the
    state computes in, within criterion 3's 1e-8 of the long-double
    posterior of the state's own float64 K and standardized targets."""
    ls, s2f = state.lengthscales, state.signal_var
    K = matern52_matrix_reference(state._xn, state._xn, ls, s2f)
    K += (state.noise_var + state.jitter) * np.eye(len(state._xn))
    K_star = matern52_matrix_reference(state._xn, state.space.normalize(X), ls, s2f)
    want_mean, want_var = gp_posterior_long_double(K, K_star, s2f, state._ys)
    mean, var = gp_posterior_batch(state, X)
    assert np.abs((mean - state.prior_mean) / state.y_scale - want_mean).max() <= 1e-8
    assert np.abs(var / state.y_scale ** 2 - want_var).max() <= 1e-8


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is float64 here, so the reference is no sharper")
@pytest.mark.parametrize("dim, objective, seed", [(2, "quadratic", 1), (2, "branin", 2),
                                                  (6, "quadratic", 3)])
def test_auto_posteriors_at_search_size_match_a_long_double_reference(dim, objective, seed):
    """The auto states at the end of a seeded chain of updates to 100 points,
    whose K are far worse conditioned than criterion 3's: the last update
    takes its chosen trial's grown factor from the store, and a second
    update from the same state, which finds no store, selects cold from
    fresh factors."""
    f = quadratic_bowl(0.3) if objective == "quadratic" else branin()
    rng = np.random.default_rng(seed)
    obs = [Observation(tuple(float(v) for v in x), float(f(x)))
           for x in rng.uniform(0, 1, (100, dim))]
    state = GPState.fit(_unit_space(dim), obs[:2 * dim])
    for ob in obs[2 * dim:-1]:
        state = update(state, ob)
    stored = list(state._trial_factors.keys)
    grown = update(state, obs[-1])
    assert (*grown.lengthscales, grown.signal_var, grown.noise_var) in stored
    assert state._trial_factors is None   # the store went to `grown`
    fresh = update(state, obs[-1])
    X = rng.uniform(0, 1, (64, dim))
    for final in (grown, fresh):
        _assert_posterior_as_long_double(final, X)


# --- update ------------------------------------------------------------------

def test_update_never_increases_variance_at_observed_points():
    rng = np.random.default_rng(3)
    space = space_1d()
    state = GPState(space, [Observation((0.2,), 1.0)], signal_var=1.0, noise_var=0.0)
    _, (before,) = gp_posterior_batch(state, [(0.2,)])
    state2 = update(state, Observation((0.8,), 0.5))
    _, (after,) = gp_posterior_batch(state2, [(0.2,)])
    assert after <= before + 1e-12
    assert gp_posterior_batch(state2, [(0.8,)])[1][0] == pytest.approx(0.0, abs=1e-9)


def test_update_then_query_interpolates():
    state = GPState(space_1d(), signal_var=2.0, noise_var=0.0)
    state = update(state, Observation((0.4,), 1.7))
    (mean,), (var,) = gp_posterior_batch(state, [(0.4,)])
    assert mean == pytest.approx(1.7, abs=1e-9)
    assert var == pytest.approx(0.0, abs=1e-9)


def test_sequential_updates_match_batch_construction():
    rng = np.random.default_rng(7)
    space = space_2d()
    obs = [Observation(tuple(rng.uniform(0, 1, 2)), float(rng.normal()))
           for _ in range(7)]
    sequential = GPState(space, [], lengthscales=(0.5, 0.7), signal_var=1.2, noise_var=1e-4)
    for o in obs:
        sequential = update(sequential, o)
    batch = GPState(space, obs, lengthscales=(0.5, 0.7), signal_var=1.2, noise_var=1e-4)
    for _ in range(20):
        q = tuple(rng.uniform(0, 1, 2))
        (ms,), (vs,) = gp_posterior_batch(sequential, [q])
        (mb,), (vb,) = gp_posterior_batch(batch, [q])
        assert abs(ms - mb) < 1e-8
        assert abs(vs - vb) < 1e-8


def test_duplicate_with_zero_noise_adds_jitter_and_warns():
    space = space_1d()
    state = GPState(space, [Observation((0.4,), 1.0)], signal_var=1.0, noise_var=0.0)
    with pytest.warns(UserWarning, match="jitter"):
        state2 = update(state, Observation((0.4,), 1.0))
    assert state2.jitter == pytest.approx(1e-8 * 1.0)


def test_update_rejects_out_of_bounds():
    state = GPState(space_1d(), [Observation((0.4,), 1.0)], noise_var=1e-6)
    with pytest.raises(ValueError):
        update(state, Observation((1.4,), 0.0))


def test_update_rejects_a_wrong_arity_observation():
    """A refit checks only its new observation, with the constructor's error."""
    obs = [Observation((0.4, 0.1), 1.0), Observation((0.8, 0.6), 0.2)]
    for state in (GPState(space_2d(), obs, noise_var=1e-6), GPState.fit(space_2d(), obs)):
        for x in ((0.4,), (0.4, 0.1, 0.2)):
            with pytest.raises(ValueError, match="^observation arity does not match space$"):
                update(state, Observation(x, 0.0))


@pytest.mark.parametrize("auto", [False, True])
def test_update_chains_inherit_the_normalized_points(auto):
    """A refit normalizes only its new point and takes the others from its
    predecessor, with and without revising earlier y values: every state's
    points are space.normalize of all its observations."""
    space = SearchSpace((Dimension("a", "continuous", -1.0, 0.3),
                         Dimension("n", "integer", 1, 64)))
    rng = np.random.default_rng(31)
    xs = [(float(a), float(n)) for a, n in zip(rng.uniform(-1.0, 0.3, 24),
                                               rng.integers(1, 65, 24))]
    for revise in (False, True):
        state = GPState(space, auto_hypers=auto, noise_var=1e-6)
        observed = []
        for x in xs:
            ob = Observation(x, x[0] + 0.01 * x[1])
            if revise:
                observed = [Observation(o.x, o.y + 0.5) for o in observed]
                state = update(state, ob, observed)
            else:
                state = update(state, ob)
            observed.append(ob)
            assert state.observations == tuple(observed)
            assert np.array_equal(state._xn, space.normalize(np.array([o.x for o in observed])))


def test_bounds_are_read_only():
    lo, hi = space_2d().bounds()
    for bound in (lo, hi):
        with pytest.raises(ValueError, match="read-only"):
            bound[0] = 0.5
    assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [1.0, 1.0]


def test_bounds_check_at_the_edges():
    # on [-1, 0.3] the point just past hi normalizes to exactly 1.0, so only
    # a check of the raw coordinates rejects it
    space = SearchSpace((Dimension("a", "continuous", -1.0, 0.3),
                         Dimension("b", "continuous", 0.0, 1.0)))
    state = GPState(space, [Observation((-1.0, 1.0), 0.5), Observation((0.3, 0.0), 0.2)],
                    noise_var=1e-6)
    assert len(state.observations) == 2
    for outside in ((float(np.nextafter(0.3, math.inf)), 0.5),
                    (float(np.nextafter(-1.0, -math.inf)), 0.5),
                    (0.0, float(np.nextafter(1.0, math.inf))), (0.0, math.nan)):
        with pytest.raises(ValueError) as err:
            GPState(space, [Observation((0.0, 0.5), 1.0), Observation(outside, 0.0)],
                    noise_var=1e-6)
        assert str(err.value) == f"observation {outside} outside the search space"
    with pytest.raises(ValueError, match="^observation arity does not match space$"):
        GPState(space, [Observation((0.0, 0.5), 1.0), Observation((0.0,), 0.0)])


def test_kernel_bit_exact_with_plain_expression():
    rng = np.random.default_rng(29)
    for n, dim in ((1, 1), (7, 2), (40, 3), (64, 2)):
        Xn = rng.uniform(0, 1, (n, dim))
        Xn[n // 2] = Xn[0]                                  # r2 = 0 off the diagonal
        Xq = np.vstack([Xn[:3], rng.uniform(0, 1, (509, dim))])  # (512, n), r2 = 0 rows
        for lengthscales in (np.full(dim, 0.4), rng.uniform(0.05, 3.2, dim),
                             np.full(dim, 1e-3)):            # r2 to 1e6: exp underflows
            for Xa in (Xn, Xq):
                got = bo._matern52(Xa, Xn, lengthscales, 1.7)
                assert got.shape == (Xa.shape[0], n)
                assert np.array_equal(got, matern52_matrix_reference(Xa, Xn, lengthscales, 1.7))
    r2 = np.concatenate([[0.0, -0.0, -1e-18, 1e-300, 1e-12, 1.0, 1e4, 1e6, 1e300],
                         rng.uniform(0, 50, 500)]).reshape(-1, 1)
    assert np.array_equal(bo._correlation(r2.copy()), matern52_correlation_reference(r2))


def test_auto_hypers_selected_from_grids():
    rng = np.random.default_rng(4)
    obs = [Observation((float(x),), math.sin(6 * x)) for x in rng.uniform(0, 1, 12)]
    state = GPState.fit(space_1d(), obs)
    assert state.lengthscales[0] in bo.LENGTHSCALE_GRID
    assert state.signal_var in bo.SIGNAL_VAR_GRID
    assert state.noise_var in bo.NOISE_VAR_GRID


def test_hyper_selection_matches_dense_oracle():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(5, 61))
        X = rng.uniform(0, 1, (n, dim))
        y = np.sin(3.0 * X @ rng.uniform(0.5, 2.0, dim)) + 0.1 * rng.normal(size=n)
        ys = (y - y.mean()) / y.std()
        got = bo._select_hypers(X, ys)
        want = select_hypers_dense(X, ys, bo.LENGTHSCALE_GRID, bo.SIGNAL_VAR_GRID,
                                   bo.NOISE_VAR_GRID)
        assert got == want, f"dim {dim}, n {n}"
        for _ in range(3):  # warm starts anywhere on the grids
            start = (tuple(float(v) for v in rng.choice(bo.LENGTHSCALE_GRID, dim)),
                     float(rng.choice(bo.SIGNAL_VAR_GRID)), float(rng.choice(bo.NOISE_VAR_GRID)))
            got = bo._select_hypers(X, ys, start)
            want = select_hypers_dense(X, ys, bo.LENGTHSCALE_GRID, bo.SIGNAL_VAR_GRID,
                                       bo.NOISE_VAR_GRID, start)
            assert got == want, f"dim {dim}, n {n}, start {start}"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_first_pass_that_ends_at_its_start_ends_the_ascent(dim, monkeypatch):
    """A pass that comes back to its start would be repeated lookup for
    lookup, so it is the last: the selection returns what the two-pass
    oracle returns from that start, with and without a store, and sweeps
    each grid once in all. A pass that moves is followed by a second."""
    sweeps = []

    class Grid(tuple):
        def __iter__(self):
            sweeps.append(self)
            return super().__iter__()

    for name in ("LENGTHSCALE_GRID", "SIGNAL_VAR_GRID", "NOISE_VAR_GRID"):
        monkeypatch.setattr(bo, name, Grid(getattr(bo, name)))
    one_pass = dim + 2
    rng = np.random.default_rng(70 + dim)
    X = rng.uniform(0, 1, (30, dim))
    y = np.sin(3.0 * X @ rng.uniform(0.5, 2.0, dim)) + 0.1 * rng.normal(size=30)
    ys = (y - y.mean()) / y.std()
    cold = bo._select_hypers(X, ys)
    assert len(sweeps) == 2 * one_pass   # the midpoints are not its optimum
    for factors in (None, CholeskyStack()):
        sweeps.clear()
        if factors is not None:   # a store over the points before the last
            bo._select_hypers(X[:-1], ys[:-1], cold, factors=factors)
            assert factors.keys
            sweeps.clear()
        assert bo._select_hypers(X, ys, cold, factors=factors) == cold
        assert len(sweeps) == one_pass
    assert cold == select_hypers_dense(X, ys, bo.LENGTHSCALE_GRID, bo.SIGNAL_VAR_GRID,
                                       bo.NOISE_VAR_GRID, cold)


def test_auto_states_standardize_as_numpy_does_bit_for_bit(monkeypatch):
    """An auto state's prior mean, scale and standardized targets against
    y.mean() and y.std() of the numpy running the test, over lengths 1-130,
    magnitudes far from 1 and constant y (scale 1)."""
    monkeypatch.setattr(bo, "_select_hypers", lambda *args, **kwargs: ((0.4,), 1.0, 1e-4))
    rng = np.random.default_rng(77)
    cases = [rng.normal(loc, scale, n) for n in range(1, 131)
             for loc, scale in ((0.0, 1.0), (1e6, 1e-3), (-3e-7, 5e-9))]
    cases += [np.full(n, value) for n in (1, 2, 9, 100) for value in (0.0, 0.1, -7.3e12)]
    for y in cases:
        xs = np.linspace(0.0, 1.0, len(y))
        state = GPState(space_1d(), [Observation((float(x),), float(v)) for x, v in zip(xs, y)],
                        auto_hypers=True)
        scale = y.std() if y.std() > 0 else 1.0
        assert state.prior_mean == y.mean() and state.y_scale == scale, len(y)
        assert np.array_equal(state._ys, (y - y.mean()) / scale)


def test_update_warm_starts_from_the_previous_hypers():
    space = SearchSpace((Dimension("x1", "continuous", 0.0, 1.0),
                         Dimension("x2", "continuous", 0.0, 1.0)))
    xs = np.random.default_rng(5).uniform(0, 1, (16, 2))
    obs = [Observation(tuple(float(v) for v in x), float(np.sin(5 * x[0]) + x[1] ** 2))
           for x in xs]
    state = GPState.fit(space, obs[:6])
    differ = 0
    for ob in obs[6:]:
        new = update(state, ob)
        start = (state.lengthscales, state.signal_var, state.noise_var)
        warm = bo._select_hypers(new._xn, new._ys, start)
        assert (new.lengthscales, new.signal_var, new.noise_var) == warm
        refit = GPState.fit(space, new.observations)  # a first fit starts cold
        assert (refit.lengthscales, refit.signal_var, refit.noise_var) == \
            bo._select_hypers(new._xn, new._ys)
        differ += bo._select_hypers(new._xn, new._ys) != warm
        state = new
    assert differ  # some refit lands elsewhere from the warm start than from the midpoints
    empty = GPState(space, auto_hypers=True)  # no previous choice: update starts cold
    first = update(empty, obs[0])
    assert (first.lengthscales, first.signal_var, first.noise_var) == \
        bo._select_hypers(first._xn, first._ys)


def _hypers(state):
    return state.lengthscales, state.signal_var, state.noise_var


def _assert_refit_selects_cold(state, start):
    """The state's hypers (its selection extended the stored trial factors)
    are those of a cold selection and of the dense oracle from `start`."""
    assert _hypers(state) == bo._select_hypers(state._xn, state._ys, start)
    assert _hypers(state) == select_hypers_dense(state._xn, state._ys, bo.LENGTHSCALE_GRID,
                                                 bo.SIGNAL_VAR_GRID, bo.NOISE_VAR_GRID, start)


def _unit_space(dim):
    return SearchSpace(tuple(Dimension(f"x{i}", "continuous", 0.0, 1.0) for i in range(dim)))


def _counting_fresh_scores(monkeypatch):
    """A list that grows by one at every trial scored from scratch."""
    fresh = []

    def counted(*args):
        fresh.append(None)
        return score(*args)

    score = bo._log_marginal_likelihood
    monkeypatch.setattr(bo, "_log_marginal_likelihood", counted)
    return fresh


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_refits_from_stored_trial_factors_select_as_cold(dim, monkeypatch):
    """Chains of 36 updates, past four blocks of the stored factors' forward
    substitution, whose ascents both stay and move."""
    rng = np.random.default_rng(40 + dim)
    xs = rng.uniform(0, 1, (2 * dim + 36, dim))
    w = rng.uniform(1.0, 3.0, dim)
    obs = [Observation(tuple(float(v) for v in x), float(np.sin(x @ w) + 0.05 * rng.normal()))
           for x in xs]
    fresh = _counting_fresh_scores(monkeypatch)
    state = GPState.fit(_unit_space(dim), obs[:2 * dim])
    moved = in_refits = 0
    for ob in obs[2 * dim:]:
        start = _hypers(state)
        before = len(fresh)
        state = update(state, ob)
        in_refits += len(fresh) - before
        moved += _hypers(state) != start
        _assert_refit_selects_cold(state, start)
    # both paths ran, and the store served most lookups: a refit looks up
    # 6 * dim + 13 distinct trials when its ascent stays
    assert moved and in_refits < 36 * (6 * dim + 13) / 3


def test_refits_with_reimputed_rows_select_as_cold(monkeypatch):
    """As bo_run does: failed rows re-enter the data at the worst y so far,
    and each refit revises them through `earlier`."""
    rng = np.random.default_rng(8)
    xs = rng.uniform(0, 1, (34, 2))
    failed = {1, 7, 8, 15, 22, 30}
    ys = [None if i in failed else float(np.sin(5 * x[0]) + x[1] ** 2 + 0.3 * i / 34)
          for i, x in enumerate(xs)]

    def data(k):
        worst = max(y for y in ys[:k] if y is not None)
        return [Observation(tuple(float(v) for v in x), worst if y is None else y)
                for x, y in zip(xs[:k], ys[:k])]

    fresh = _counting_fresh_scores(monkeypatch)
    state = GPState.fit(space_2d(), data(4))
    in_refits = 0
    for k in range(5, len(xs) + 1):
        start = _hypers(state)
        observations = data(k)
        before = len(fresh)
        state = update(state, observations[-1], observations[:-1])
        in_refits += len(fresh) - before
        assert state.observations == tuple(observations)
        _assert_refit_selects_cold(state, start)
    assert in_refits < 30 * 25 / 2   # the store served about two lookups in three


def test_two_updates_from_one_state_both_select_as_cold(monkeypatch):
    rng = np.random.default_rng(9)
    xs = rng.uniform(0, 1, (24, 2))
    obs = [Observation(tuple(float(v) for v in x), float(np.cos(4 * x[0]) * x[1])) for x in xs]
    state = GPState.fit(space_2d(), obs[:4])
    for ob in obs[4:20]:
        state = update(state, ob)
    start = _hypers(state)
    first = update(state, obs[20])
    fresh = _counting_fresh_scores(monkeypatch)
    second = update(state, obs[21])   # the store went to `first` and moved on a row
    assert len(fresh) >= 24           # scored from scratch, not from `first`'s store
    _assert_refit_selects_cold(second, start)
    lines = [first, second]
    for ob in obs[22:]:               # both lines go on, each from its own store
        for i, line in enumerate(lines):
            lines[i] = update(line, ob)
            _assert_refit_selects_cold(lines[i], _hypers(line))


def test_a_rejected_update_keeps_the_store(monkeypatch):
    """An update whose new observation is refused leaves the store with the
    state, so the next update extends it: it scores from scratch exactly the
    trials an update of an untouched twin does, and gives the same state."""
    rng = np.random.default_rng(21)
    xs = rng.uniform(0, 1, (22, 2))
    obs = [Observation(tuple(float(v) for v in x), float(np.sin(4 * x[0]) - x[1])) for x in xs]
    states = [GPState.fit(space_2d(), obs[:4]) for _ in range(2)]
    for ob in obs[4:21]:
        states = [update(state, ob) for state in states]
    rejected, twin = states
    store = rejected._trial_factors
    assert len(store.keys) > 20
    for x in ((1.5, 0.2), (0.5,)):
        with pytest.raises(ValueError):
            update(rejected, Observation(x, 0.0))
        assert rejected._trial_factors is store
    fresh = _counting_fresh_scores(monkeypatch)
    got = update(rejected, obs[21])
    from_store = len(fresh)
    want = update(twin, obs[21])
    assert len(fresh) == 2 * from_store < len(store.keys)
    assert rejected._trial_factors is None and got._trial_factors is store
    assert _hypers(got) == _hypers(want) and np.array_equal(got._w, want._w)
    for got_part, want_part in zip(got._factor, want._factor):
        assert all(np.array_equal(a, b) for a, b in zip(got_part, want_part))


def test_a_states_posterior_is_unchanged_by_an_update_from_it():
    """A successor's extend writes the store's last block in place and its
    keep rebuilds the store; the state's factor follows neither, so its
    posterior keeps every bit, across block ends."""
    rng = np.random.default_rng(22)
    xs = rng.uniform(0, 1, (30, 2))
    obs = [Observation(tuple(float(v) for v in x), float(np.cos(3 * x[0]) * x[1])) for x in xs]
    X = rng.uniform(0, 1, (64, 2))
    state = GPState.fit(space_2d(), obs[:4])
    for ob in obs[4:]:
        before = gp_posterior_batch(state, X)
        successor = update(state, ob)
        for got, want in zip(gp_posterior_batch(state, X), before):
            assert np.array_equal(got, want)
        state = successor


def test_refits_that_stay_put_make_no_fresh_factorization(monkeypatch):
    """Once a selection has looked its trials up, refits whose ascent stays at
    the same hyper-parameters extend the stored factors and factorize nothing."""
    rng = np.random.default_rng(10)
    xs = rng.uniform(0, 1, (26, 2))
    obs = [Observation(tuple(float(v) for v in x), float(np.sin(3 * x[0]) + x[1])) for x in xs]
    chosen = _hypers(GPState.fit(space_2d(), obs[:6]))
    state = GPState(space_2d(), obs[:6], auto_hypers=True, hyper_start=chosen)
    assert _hypers(state) == chosen
    fresh = _counting_fresh_scores(monkeypatch)
    for ob in obs[6:15]:
        state = update(state, ob)
        assert _hypers(state) == chosen
    assert fresh == []


def test_searches_make_no_lu_solve(monkeypatch):
    """The posterior and the stored trial factors solve by blocked triangular
    substitution, so a gated and a free search never call np.linalg.solve."""
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.solve called in the search loop")

    monkeypatch.setattr(np.linalg, "solve", refused)
    space = space_2d(structural=("x1", "x2"))
    for constraints in (constraints_halfbox(), None):
        _, trace = bo_run(quadratic_bowl(0.4), space, constraints, budget=30, seed=7)
        assert any(r.acquisition > 0.0 for r in trace.records)


def test_auto_searches_take_their_factor_from_the_selection(monkeypatch):
    """Every auto state takes its factor from its selection's trial store, so
    a gated and a free search never factorize a state's covariance again."""
    def refused(*args, **kwargs):
        raise AssertionError("_factorize called for an auto state")

    monkeypatch.setattr(bo, "_factorize", refused)
    space = space_2d(structural=("x1", "x2"))
    for constraints in (constraints_halfbox(), None):
        _, trace = bo_run(quadratic_bowl(0.4), space, constraints, budget=30, seed=7)
        assert any(r.acquisition > 0.0 for r in trace.records)


def test_a_first_fit_whose_trials_all_fail_takes_its_factor_from_factorize(monkeypatch):
    """With every trial at -inf the store holds nothing, and the state's
    factor comes from _factorize, the path that retries with jitter."""
    factorized = []

    def counted(*args):
        factorized.append(None)
        return factorize(*args)

    factorize = bo._factorize
    monkeypatch.setattr(bo, "_factorize", counted)
    monkeypatch.setattr(bo, "_log_marginal_likelihood", lambda *args: (-math.inf, None))
    obs = [Observation((0.1, 0.2), 1.0), Observation((0.7, 0.4), 0.3),
           Observation((0.5, 0.9), 0.6), Observation((0.2, 0.6), 0.8)]
    state = GPState.fit(space_2d(), obs)
    assert factorized == [None] and state._trial_factors.keys == []
    assert _hypers(state) == ((bo.LENGTHSCALE_GRID[0],) * 2, bo.SIGNAL_VAR_GRID[0],
                              bo.NOISE_VAR_GRID[0])
    mean, var = gp_posterior_batch(state, [ob.x for ob in obs])
    assert np.all(np.isfinite(mean)) and np.all(var >= 0.0)


def test_states_from_extended_trials_predict_as_fresh_factors_do():
    """An updated state whose chosen trial was in the store takes that
    trial's factor, grown by bordering; a fixed-hyper state with the same
    kernel in raw units factorizes that K afresh. Both give the same
    posterior up to rounding on 512 queries, wherever the trial sits in
    the store."""
    rng = np.random.default_rng(12)
    xs = rng.uniform(0, 1, (40, 2))
    obs = [Observation(tuple(float(v) for v in x), float(np.sin(4 * x[0]) + x[1] ** 2))
           for x in xs]
    X = rng.uniform(0, 1, (512, 2))
    state = GPState.fit(space_2d(), obs[:4])
    places = set()
    for ob in obs[4:]:
        stored = list(state._trial_factors.keys)
        state = update(state, ob)
        key = (*state.lengthscales, state.signal_var, state.noise_var)
        if key not in stored:   # a fresh trial
            continue
        places.add(state._trial_factors.keys.index(key))
        scale2 = state.y_scale ** 2
        fresh = GPState(space_2d(), state.observations, state.lengthscales,
                        state.signal_var * scale2, state.noise_var * scale2, state.prior_mean)
        for got, want in zip(gp_posterior_batch(state, X), gp_posterior_batch(fresh, X)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    assert len(places) > 1


def test_auto_states_take_l_inverse_y_from_their_selection(monkeypatch):
    """Over 36 refits that choose both stored and fresh trials, every auto
    state copies its chosen trial's L^-1 ys from the store, substituting
    nothing itself, and the copy is what a substitution against its factor
    gives."""
    def refused(*args, **kwargs):
        raise AssertionError("an auto state substituted its own targets")

    rng = np.random.default_rng(23)
    xs = rng.uniform(0, 1, (40, 2))
    obs = [Observation(tuple(float(v) for v in x), float(np.sin(5 * x[0]) + x[1] ** 2))
           for x in xs]
    state, chosen = None, set()
    for k in range(4, 41):
        with monkeypatch.context() as patch:
            patch.setattr(bo, "substitute", refused)
            if state is None:
                state = GPState.fit(space_2d(), obs[:k])
            else:
                stored = list(state._trial_factors.keys)
                state = update(state, obs[k - 1])
                chosen.add((*state.lengthscales, state.signal_var, state.noise_var) in stored)
        w = substitute(*state._factor, state._ys[None, :, None])[0, :, 0]
        assert np.abs(state._w - w).max() <= 1e-12 * np.abs(w).max()
    assert chosen == {True, False}


def test_a_stored_trial_that_is_no_longer_positive_definite_scores_minus_inf():
    """delta^2 = s2f + s2n - l.l <= 0: the trial scores -inf and leaves the store."""
    Xn = np.array([[0.5], [0.5001], [0.4999]])
    key = (0.4, 1.0, 1e-8)
    factors = CholeskyStack()
    # an identity factor is not K's on points this close, so l.l is about 2 s2f^2
    factors.keep(Xn[:2], {key: 0.0}, {key: (CholeskyStack.split(np.eye(2)), 0.0, np.zeros(2))})
    scores = factors.extend(Xn, np.zeros(3), bo._bordering)
    assert scores == {key: -math.inf}
    factors.keep(Xn, scores, {})
    assert factors.keys == []


@pytest.mark.parametrize("noise_var", [0.0, 1e-6])
@pytest.mark.parametrize("n", [0, 1, 7, 64, 130])
def test_bordered_cholesky_gives_the_factor_and_its_forward_solve(n, noise_var):
    """For a positive-definite K = s2f R + noise I, noise-free included, the
    +inf corner leaves K's factor L and v = L^-1 ys to read off."""
    rng = np.random.default_rng(n)
    Xn = rng.uniform(0, 1, (n, 3))
    R = bo._matern52(Xn, Xn, np.full(3, 0.2), 1.0)
    ys = rng.standard_normal(n)
    L, v = bo._bordered_cholesky(R, ys, 2.0, noise_var)
    K = 2.0 * R + noise_var * np.eye(n)
    assert L.shape == (n, n) and v.shape == (n,)
    assert np.array_equal(L, np.tril(L)) and np.all(L.diagonal() > 0.0)
    assert np.abs(L @ L.T - K).max(initial=0.0) <= 1e-12 * np.abs(K).max(initial=0.0)
    assert np.abs(L @ v - ys).max(initial=0.0) <= 1e-12 * np.abs(ys).max(initial=0.0)


def test_bordered_cholesky_rejects_a_k_that_is_not_positive_definite():
    R = np.array([[1.0, 1.5, 0.0], [1.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        bo._bordered_cholesky(R, np.ones(3), 1.0, 0.0)


def test_update_rejects_earlier_observations_at_other_points():
    obs = [Observation((0.1,), 1.0), Observation((0.5,), 2.0), Observation((0.9,), 0.5)]
    state = GPState.fit(space_1d(), obs[:2])
    new = Observation((0.3,), 1.5)
    revised = [Observation(ob.x, 9.0) for ob in obs[:2]]
    assert update(state, new, revised).observations == (*revised, new)
    for earlier in (obs[1::-1], obs[:1], obs, [obs[0], obs[2]]):
        with pytest.raises(ValueError, match="earlier observations"):
            update(state, new, earlier)


# --- expected improvement ----------------------------------------------------

def test_ei_value_on_arrays_matches_scalar_calls():
    rng = np.random.default_rng(31)
    mean = rng.normal(size=200)
    sd = np.abs(rng.normal(size=200))
    sd[::7] = 0.0  # deterministic improvement, both signs of y_best - mean
    values = ei_value(mean, sd, 0.3)
    assert values.shape == (200,)
    for m, s, v in zip(mean, sd, values):
        scalar = ei_value(float(m), float(s), 0.3)
        assert isinstance(scalar, float)
        assert v == scalar


def test_phi_matches_the_plain_erfc_map():
    """_Phi skips math.erfc past an argument of 40, where it is 0.0: bit for
    bit the map over every entry, on arguments either side of 40, at 40
    exactly, nan and both infinities."""
    near_40 = -40.0 * math.sqrt(2.0) + np.arange(-4, 5) * np.spacing(40.0 * math.sqrt(2.0))
    assert 40.0 in -near_40 / math.sqrt(2.0)
    u = np.concatenate([np.linspace(-80.0, 5.0, 991), near_40,
                        [math.nan, math.inf, -math.inf, 0.0]])
    for shaped in (u, u.reshape(4, 251), u[:1].reshape(())):
        flat = (-shaped / math.sqrt(2.0)).ravel()
        want = (0.5 * np.array([math.erfc(v) for v in flat.tolist()])).reshape(shaped.shape)
        got = bo._Phi(shaped)
        assert got.shape == shaped.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert 200 < (-u / math.sqrt(2.0) > 40.0).sum() < 800


def test_ei_at_zero_margin_equals_phi0():
    assert ei_value(1.0, 1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
    assert ei_value(1.0, 1.0, 1.0) == pytest.approx(0.39894, abs=1e-5)


def test_ei_degenerate_sd():
    assert ei_value(2.0, 0.0, 1.0) == 0.0          # no possible improvement
    assert ei_value(0.25, 0.0, 1.0) == 0.75        # deterministic improvement


def test_ei_nonnegative_and_increasing_in_sd():
    previous = -1.0
    for sd in [0.01, 0.1, 0.5, 1.0, 2.0]:
        value = ei_value(0.0, sd, 0.0)
        assert value >= 0.0
        assert value > previous
        previous = value


def test_ei_matches_quadrature():
    for mean in (-1.0, 0.0, 0.5, 2.0):
        for sd in (0.05, 0.3, 1.0, 2.5):
            for y_best in (-0.5, 0.0, 1.0):
                closed = ei_value(mean, sd, y_best)
                quad = ei_quadrature(mean, sd, y_best)
                assert abs(closed - quad) < 1e-6


def test_expected_improvement_uses_posterior():
    state = GPState(space_1d(), [Observation((0.5,), 1.0)], signal_var=1.0, noise_var=0.0)
    # at the observation: mean=1.0, sd=0, y_best=1.0 -> EI 0
    assert ei_batch(state, [(0.5,)], 1.0)[0] == 0.0


# --- constraint gating -------------------------------------------------------

def test_gated_acquisition_zero_when_budget_exceeded():
    space = space_2d(structural=("x1", "x2"))
    cons = constraints_halfbox(power_budget=1.0)
    state = GPState(space, [Observation((0.2, 0.2), 1.0)], lengthscales=(0.4, 0.4),
                    signal_var=1.0, noise_var=1e-6)
    X = np.array([(0.8, 0.8)])  # predicted power 1.6 > 1.0
    assert hw_ieci_batch(state, X, 1.0, within_budgets(cons, X))[0] == 0.0
    assert ei_batch(state, X, 1.0)[0] > 0.0


def test_gated_acquisition_equals_ei_when_satisfied():
    space = space_2d(structural=("x1", "x2"))
    cons = constraints_halfbox()
    state = GPState(space, [Observation((0.2, 0.2), 1.0)], lengthscales=(0.4, 0.4),
                    signal_var=1.0, noise_var=1e-6)
    X = np.array([(0.3, 0.3)])
    assert hw_ieci_batch(state, X, 1.0, within_budgets(cons, X)) == ei_batch(state, X, 1.0)


@pytest.mark.parametrize("budgets", [(math.inf, 10.0), (1.0, math.nan), (0.0, 10.0)])
def test_budgets_must_be_finite_and_positive(budgets):
    with pytest.raises(ValueError, match="budgets must be finite and > 0"):
        constraints_halfbox(*budgets)


def test_budget_boundary_is_inclusive():
    space = space_2d(structural=("x1", "x2"))
    cons = constraints_halfbox(power_budget=1.0)
    state = GPState(space, [Observation((0.2, 0.2), 1.0)], lengthscales=(0.4, 0.4),
                    signal_var=1.0, noise_var=1e-6)
    X = np.array([(0.5, 0.5)])  # predicted power exactly 1.0
    assert hw_ieci_batch(state, X, 1.0, within_budgets(cons, X)) == ei_batch(state, X, 1.0)


@pytest.mark.parametrize("has_bias", [False, True])
def test_constraint_predict_rows_match_per_row_calls(has_bias):
    rng = np.random.default_rng(17)
    names = ("a", "b", "c")
    width = len(names) + has_bias
    power = LinearModel(names, tuple(rng.normal(size=width)), LinTarget.POWER_W,
                        has_bias=has_bias)
    memory = LinearModel(names, tuple(rng.normal(size=width)), LinTarget.MEMORY_MB,
                         has_bias=has_bias)
    cons = ConstraintSpec(1.0, 1.0, power, memory)
    Z = rng.uniform(0, 8, (300, 3))
    powers, memories = cons.predict(Z)
    assert powers.shape == memories.shape == (300,)
    for z, p_row, m_row in zip(Z, powers, memories):
        p, m = cons.predict(z[None])
        assert p.shape == m.shape == (1,)
        assert p_row == p[0] and m_row == m[0]


def test_gated_batch_zeroes_exactly_the_rows_satisfied_rejects():
    space = space_2d(structural=("x1", "x2"))
    cons = constraints_halfbox(power_budget=1.0, memory_budget=0.75)
    state = GPState(space, [Observation((0.2, 0.2), 1.0)], lengthscales=(0.4, 0.4),
                    signal_var=1.0, noise_var=1e-6)
    rng = np.random.default_rng(23)
    boundary = np.array([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25],  # power exactly 1.0
                         [0.75, 0.0]])                             # memory exactly 0.75
    X = np.vstack([boundary, rng.uniform(0, 1, (200, 2))])
    gated = hw_ieci_batch(state, X, 2.0, within_budgets(cons, X))
    ungated = ei_batch(state, X, 2.0)
    assert np.all(ungated > 0.0)
    kept = [within_budgets(cons, row[None])[0] for row in X]
    assert all(kept[:len(boundary)])          # budgets are inclusive
    assert 0 < sum(kept) < len(X)
    for keep, g, u in zip(kept, gated, ungated):
        assert g == (u if keep else 0.0)
    assert np.array_equal(within_budgets(cons, X), kept)


def test_gated_batch_scores_only_feasible_rows(monkeypatch):
    """The gated batch computes the posterior on the predicted-feasible rows
    alone. Those rows get exactly ei_batch's values on them; against ei_batch
    on the whole array they may differ in the last bits, because the BLAS
    matmuls of the posterior's blocked substitution round the last columns
    of an array another way."""
    space = space_2d(structural=("x1", "x2"))
    rng = np.random.default_rng(31)
    objective = quadratic_bowl(0.4)   # minimum inside the power budget
    state = GPState.fit(space, [Observation(tuple(x), objective(x))
                                for x in rng.uniform(0, 1, (64, 2))])
    y_best = float(np.median([obs.y for obs in state.observations]))
    cons = constraints_halfbox(power_budget=1.0)
    posterior_calls = []

    def counted(*args):
        posterior_calls.append(1)
        return gp_posterior_batch(*args)

    monkeypatch.setattr(bo, "gp_posterior_batch", counted)
    for count in (1, 7, 511, 512, 513):
        X = rng.uniform(0, 1, (count, 2))
        kept = within_budgets(cons, X)
        assert count == 1 or 0 < kept.sum() < count
        posterior_calls.clear()
        gated = hw_ieci_batch(state, X, y_best, kept)
        assert len(posterior_calls) == (1 if kept.any() else 0)
        assert not np.any(gated[~kept])
        assert np.array_equal(gated[kept], ei_batch(state, X[kept], y_best))
        whole = ei_batch(state, X, y_best)
        np.testing.assert_allclose(gated[kept], whole[kept], rtol=0.0, atol=1e-12)
        assert count == 1 or np.any(gated > 0.0)
    posterior_calls.clear()
    X = rng.uniform(0.5, 1.0, (512, 2))         # predicted power above 1.0 everywhere
    gated = hw_ieci_batch(state, X, y_best, within_budgets(cons, X))
    assert gated.shape == (512,) and not np.any(gated)
    assert posterior_calls == []


def test_schema_mismatch_rejected():
    space = space_2d(structural=("x1",))
    cons = constraints_halfbox()
    state = GPState(space, [Observation((0.2, 0.2), 1.0)], noise_var=1e-6)
    with pytest.raises(ValueError, match="does not match constraint model schemas"):
        propose_next(state, 1.0, 8, seed=3, constraints=cons, iteration=0)


# --- proposals ---------------------------------------------------------------

def test_single_candidate_returned():
    space = space_1d()
    state = GPState(space, [Observation((0.5,), 1.0)], noise_var=1e-6)
    proposal = propose_next(state, 1.0, 1, seed=3, iteration=0)
    expected = draw_candidates(space, 1, generator(3, bo._TAG_SAMPLER, 0))
    assert proposal.x == tuple(expected[0])


def test_constant_acquisition_tie_breaks_to_first(monkeypatch):
    space = space_1d()
    state = GPState(space, [Observation((0.5,), 1.0)], noise_var=1e-6)

    def flat(state, X, y_best):
        return np.ones(len(X))

    monkeypatch.setattr(bo, "ei_batch", flat)
    proposal = propose_next(state, 1.0, 64, seed=9, iteration=0)
    expected = draw_candidates(space, 64, generator(9, bo._TAG_SAMPLER, 0))
    assert proposal.x == tuple(expected[0])
    assert not proposal.fallback


def test_proposal_feasible_whenever_any_candidate_is():
    space = space_2d(structural=("x1", "x2"))
    cons = constraints_halfbox(power_budget=1.0)  # feasible half-box
    state = GPState(space, [Observation((0.1, 0.1), 0.8), Observation((0.4, 0.3), 0.5)],
                    lengthscales=(0.4, 0.4), signal_var=1.0, noise_var=1e-6)
    proposal = propose_next(state, 0.5, 512, seed=21, constraints=cons, iteration=0)
    candidates = draw_candidates(space, 512, generator(21, bo._TAG_SAMPLER, 0))
    any_feasible = any(c[0] + c[1] <= 1.0 for c in candidates)
    assert any_feasible
    assert proposal.x[0] + proposal.x[1] <= 1.0


def test_zero_acquisition_with_feasible_candidates_is_not_a_fallback(monkeypatch):
    # expected improvement underflows to 0.0 once the GP has converged
    space = space_2d(structural=("x1", "x2"))
    cons = constraints_halfbox(power_budget=1.0)
    state = GPState(space, [Observation((0.1, 0.1), 0.8)], lengthscales=(0.4, 0.4),
                    signal_var=1.0, noise_var=1e-6)

    def underflowed(state, X, y_best):
        return np.zeros(len(X))

    monkeypatch.setattr(bo, "ei_batch", underflowed)
    proposal = propose_next(state, 0.8, 64, seed=5, constraints=cons, iteration=0)
    candidates = draw_candidates(space, 64, generator(5, bo._TAG_SAMPLER, 0))
    first_feasible = next(c for c in candidates if c[0] + c[1] <= 1.0)
    assert proposal.x == tuple(first_feasible)
    assert proposal.acquisition == 0.0
    assert not proposal.fallback


def test_fallback_when_nothing_feasible():
    space = space_2d(structural=("x1", "x2"))
    power = LinearModel(("x1", "x2"), (1.0, 1.0), LinTarget.POWER_W)
    memory = LinearModel(("x1", "x2"), (1.0, 0.0), LinTarget.MEMORY_MB)
    cons = ConstraintSpec(0.05, 10.0, power, memory)  # nearly nothing feasible
    state = GPState(space, [Observation((0.9, 0.9), 1.0)], lengthscales=(0.4, 0.4),
                    signal_var=1.0, noise_var=1e-6)
    proposal = propose_next(state, 1.0, 16, seed=2, constraints=cons, iteration=0)
    candidates = draw_candidates(space, 16, generator(2, bo._TAG_SAMPLER, 0))
    feasible = [c for c in candidates if c[0] + c[1] <= 0.05]
    assert not feasible
    assert proposal.fallback
    assert proposal.acquisition == 0.0
    violations = [max(c[0] + c[1] - 0.05, 0.0) / 0.05 for c in candidates]
    assert proposal.x == tuple(candidates[int(np.argmin(violations))])


def test_gated_proposal_predicts_the_candidates_once(monkeypatch):
    """The gate and the fallback read one prediction of the candidates."""
    space = space_2d(structural=("x1", "x2"))
    cons = constraints_halfbox(power_budget=1.0)
    state = GPState(space, [Observation((0.1, 0.1), 0.8)], lengthscales=(0.4, 0.4),
                    signal_var=1.0, noise_var=1e-6)
    predicted = []
    original = ConstraintSpec.predict

    def counted(self, z):
        predicted.append(np.shape(z))
        return original(self, z)

    monkeypatch.setattr(ConstraintSpec, "predict", counted)
    monkeypatch.setattr(bo, "ei_batch", lambda state, X, y_best: np.zeros(len(X)))
    proposal = propose_next(state, 0.8, 64, seed=5, constraints=cons, iteration=0)
    assert proposal.acquisition == 0.0 and not proposal.fallback
    assert predicted == [(64, 2)]


def test_consecutive_run_seeds_draw_different_candidates(monkeypatch):
    drawn = []

    def recording(space, count, rng):
        X = draw_candidates(space, count, rng)
        drawn[-1].append(X.tobytes())
        return X

    monkeypatch.setattr(bo, "draw_candidates", recording)
    for seed in (7, 8):
        drawn.append([])
        bo_run(quadratic_bowl(0.3), space_1d(), None, budget=10, seed=seed)
    # each run draws its 2 seeding points, then 8 candidate sets
    assert len(drawn[0]) == len(drawn[1]) == 9
    assert not set(drawn[0]) & set(drawn[1])


@pytest.mark.parametrize("dims", [
    (("continuous", -0.7, 2.3), ("continuous", 0.0, 1.0)),
    (("integer", -3, 17), ("integer", 1, 64)),
    (("integer", 1, 8), ("continuous", -0.7, 2.3), ("integer", 0, 1))])
def test_candidates_are_the_uniform_draw_bit_for_bit(dims):
    """draw_candidates maps one rng.random draw onto the box, which is
    rng.uniform's draw on it bit for bit, before rounding integer columns."""
    space = SearchSpace(tuple(Dimension(f"x{i}", *d) for i, d in enumerate(dims)))
    lo, hi = (np.array([d[j] for d in dims], dtype=float) for j in (1, 2))
    half = np.array([0.5 if d[0] == "integer" else 0.0 for d in dims])
    for seed in (0, 5, 3001):
        for count in (1, 7, 512):
            X = generator(seed, 9).uniform(lo - half, hi + half, size=(count, len(dims)))
            for i, d in enumerate(dims):
                if d[0] == "integer":
                    X[:, i] = np.clip(np.floor(X[:, i] + 0.5), d[1], d[2])
            assert draw_candidates(space, count, generator(seed, 9)).tobytes() == X.tobytes()


def test_integer_dimensions_rounded():
    space = SearchSpace((Dimension("n", "integer", 1.0, 8.0),
                         Dimension("x", "continuous", 0.0, 1.0)))
    candidates = draw_candidates(space, 100, generator(5, 1))
    assert all(float(v).is_integer() for v in candidates[:, 0])
    assert all(1.0 <= v <= 8.0 for v in candidates[:, 0])


def test_integer_values_drawn_uniformly_ends_included():
    """Each of 1..4 gets a quarter of the draws (rounding a draw on [1, 4]
    gave each end half an interior value's share), and the continuous
    column is the draw an all-continuous space makes from the same stream."""
    mixed = SearchSpace((Dimension("n", "integer", 1, 4), Dimension("x", "continuous", 0, 1)))
    plain = SearchSpace((Dimension("n", "continuous", 1, 4),
                         Dimension("x", "continuous", 0, 1)))
    X = draw_candidates(mixed, 100_000, generator(7, 2))
    values, counts = np.unique(X[:, 0], return_counts=True)
    assert values.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert all(abs(c - 25_000) < 700 for c in counts), counts   # sd about 137
    assert np.array_equal(X[:, 1], draw_candidates(plain, 100_000, generator(7, 2))[:, 1])


@pytest.mark.parametrize("kind, lo, hi", [("continuous", 0.0, math.inf),
                                          ("continuous", -math.inf, 0.0),
                                          ("continuous", -1e308, 1e308),
                                          ("integer", 0.2, 0.8),
                                          ("integer", 0, 4.5)])
def test_dimension_rejects_bounds_it_cannot_draw_from(kind, lo, hi):
    with pytest.raises(ValueError, match=r"dimension d: .*\blo\b.*\bhi\b"):
        Dimension("d", kind, lo, hi)


# --- the loop ----------------------------------------------------------------

def test_bo_run_converges_on_quadratic():
    best, trace = bo_run(quadratic_bowl(0.3), space_1d(), None, budget=20, seed=5)
    assert best is not None
    assert best.y <= 1e-3
    assert len(trace.records) == 20


def test_elapsed_covers_the_gp_update(monkeypatch):
    pause = 0.02
    real_update = bo.update

    def slow_update(state, observation):
        time.sleep(pause)
        return real_update(state, observation)

    monkeypatch.setattr(bo, "update", slow_update)
    _, trace = bo_run(quadratic_bowl(0.3), space_1d(), None, budget=6, seed=3)
    bo_rows = [r for r in trace.records if r.phase == "bo"]
    assert len(bo_rows) == 4
    assert all(r.elapsed_s >= pause for r in bo_rows)


def test_bo_run_budget_precondition():
    with pytest.raises(ValueError):
        bo_run(quadratic_bowl(0.3), space_2d(), None, budget=3, seed=0)


def test_bo_run_rejects_no_candidates_before_evaluating():
    calls = []

    def objective(x):
        calls.append(x)
        return 0.0

    with pytest.raises(ValueError, match="candidate_count"):
        bo_run(objective, space_1d(), None, budget=4, seed=0, candidate_count=0)
    assert calls == []


def test_constrained_run_returns_predicted_feasible_best():
    space = space_2d(structural=("x1", "x2"))
    cons = constraints_halfbox(power_budget=1.0)
    best, trace = bo_run(quadratic_bowl(1.0), space, cons, budget=40, seed=11)
    assert best is not None
    assert best.x[0] + best.x[1] <= 1.0
    # constrained optimum of (x-1)^2+(y-1)^2 on x+y<=1 is 0.5 at (0.5, 0.5)
    assert best.y <= 0.5 * 1.05


def test_infeasible_everywhere_reports_none_with_full_trace():
    space = SearchSpace((Dimension("x1", "continuous", 0.5, 1.0),
                         Dimension("x2", "continuous", 0.5, 1.0)),
                        structural_subset=("x1", "x2"))
    power = LinearModel(("x1", "x2"), (1.0, 1.0), LinTarget.POWER_W)
    memory = LinearModel(("x1", "x2"), (1.0, 0.0), LinTarget.MEMORY_MB)
    cons = ConstraintSpec(0.5, 10.0, power, memory)  # min power is 1.0 > 0.5
    best, trace = bo_run(quadratic_bowl(0.6), space, cons, budget=12, seed=3)
    assert best is None
    assert len(trace.records) == 12
    assert all(not r.feasible for r in trace.records)
    assert all(r.best_y is None for r in trace.records)


def test_trace_best_sequence_non_increasing():
    best, trace = bo_run(quadratic_bowl(0.3), space_1d(), None, budget=25, seed=1)
    bests = [r.best_y for r in trace.records if r.best_y is not None]
    assert all(a >= b for a, b in zip(bests, bests[1:]))
    assert bests[-1] == best.y


def test_bo_run_deterministic():
    _, trace_a = bo_run(quadratic_bowl(0.3), space_1d(), None, budget=15, seed=7)
    _, trace_b = bo_run(quadratic_bowl(0.3), space_1d(), None, budget=15, seed=7)
    assert [r.x for r in trace_a.records] == [r.x for r in trace_b.records]
    assert [r.y for r in trace_a.records] == [r.y for r in trace_b.records]
    assert trace_a.csv_text() == trace_b.csv_text()


def test_positive_scaling_leaves_proposals_unchanged():
    base = quadratic_bowl(0.3)

    def scaled(x):
        return 4.0 * base(x)

    _, trace_a = bo_run(base, space_1d(), None, budget=16, seed=9)
    _, trace_b = bo_run(scaled, space_1d(), None, budget=16, seed=9)
    assert [r.x for r in trace_a.records] == [r.x for r in trace_b.records]


def test_failed_evaluations_imputed_and_flagged():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("profiler crashed")
        return (x[0] - 0.3) ** 2

    best, trace = bo_run(flaky, space_1d(), None, budget=10, seed=2)
    failed = [r for r in trace.records if r.failed]
    assert len(failed) == 1
    observed = [r.y for r in trace.records[:2]]
    assert failed[0].y == max(observed)  # imputed as worst seen so far
    assert best is not None and not any(r.failed and r.y == best.y for r in trace.records)


def test_non_finite_values_are_failed_and_imputed():
    """An objective value of nan (call 3) or inf (call 5) is a failed
    evaluation: recorded as the worst non-failed y so far and never the best."""
    calls = []

    def non_finite(x):
        calls.append(x)
        return {3: math.nan, 5: math.inf}.get(len(calls), (x[0] - 0.3) ** 2)

    best, trace = bo_run(non_finite, space_1d(), None, budget=10, seed=2)
    rows = trace.records
    assert [i for i, r in enumerate(rows) if r.failed] == [2, 4]
    for i in (2, 4):
        assert rows[i].y == max(r.y for r in rows[:i] if not r.failed)
    assert all(math.isfinite(r.y) and math.isfinite(r.best_y) for r in rows)
    assert best is not None and best.y == min(r.y for r in rows if not r.failed)


def test_failed_rows_reimputed_at_every_refit(monkeypatch):
    """Gated quadratic centred at (1, 1), seed 4, failing calls 1, 5, 9, ...: later
    successes are worse than the 1.0 the first failure was imputed with."""
    calls = []

    def flaky(x):
        calls.append(x)
        if len(calls) % 4 == 1:
            raise RuntimeError("evaluator crashed")
        return (x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2

    refits = []

    def recorded(state, observation, *earlier):
        refitted = update(state, observation, *earlier)
        refits.append(refitted.observations)
        return refitted

    monkeypatch.setattr(bo, "update", recorded)
    _, trace = bo_run(flaky, space_2d(structural=("x1", "x2")), constraints_halfbox(),
                      budget=20, seed=4)
    rows = trace.records
    assert rows[0].failed and rows[0].y == 1.0        # the trace keeps its own-time value
    assert max(r.y for r in rows if not r.failed) > 1.0
    assert len(refits) == 20 - 4
    for observations in refits:
        seen = rows[:len(observations)]
        worst = max(r.y for r in seen if not r.failed)
        assert [obs.x for obs in observations] == [r.x for r in seen]
        assert [obs.y for obs in observations] == [worst if r.failed else r.y for r in seen]


def test_incumbent_ignores_a_failed_row_the_gp_reimputes(monkeypatch):
    """Until a feasible non-failed row exists, EI improves on the lowest y in
    the GP's data, not on the 1.0 a failed first call was recorded with."""
    calls = []

    def flaky(x):
        calls.append(x)
        if len(calls) == 1:
            raise RuntimeError("evaluator crashed")
        return 2.0 + (x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2

    incumbents = []

    def gated(state, X, y_best, feasible):
        incumbents.append(y_best)
        return hw_ieci_batch(state, X, y_best, feasible)

    monkeypatch.setattr(bo, "hw_ieci_batch", gated)
    _, trace = bo_run(flaky, space_2d(structural=("x1", "x2")),
                      constraints_halfbox(power_budget=0.3), budget=12, seed=4)
    rows = trace.records
    assert rows[0].failed and rows[0].y == 1.0
    assert len(incumbents) == 12 - 4
    for k, y_best in enumerate(incumbents, start=4):
        ok = [r.y for r in rows[:k] if not r.failed]
        feasible = [r.y for r in rows[:k] if r.feasible and not r.failed]
        assert y_best == (min(feasible) if feasible else min(ok))
    assert not any(r.feasible and not r.failed for r in rows[:4])


def test_noisy_objective_is_deterministic_given_seed():
    noisy = with_noise(quadratic_bowl(0.3), 0.05, seed=4)
    y1 = [noisy((0.1,)), noisy((0.2,))]
    noisy2 = with_noise(quadratic_bowl(0.3), 0.05, seed=4)
    y2 = [noisy2((0.1,)), noisy2((0.2,))]
    assert y1 == y2


def test_branin_minimum_region():
    fn = branin()
    # known minimizer (pi, 2.275) maps to ((pi+5)/15, 2.275/15) in the unit box
    assert fn(((math.pi + 5) / 15, 2.275 / 15)) == pytest.approx(0.397887, abs=1e-4)


def test_command_objective_round_trip():
    from hwcost.objectives import ObjectiveError, command_objective

    # command echoes the sum of the CSV fields it reads on stdin
    script = ("import sys; parts = sys.stdin.readline().split(','); "
              "print(sum(float(p) for p in parts))")
    fn = command_objective(["python3", "-c", script])
    assert fn((0.25, 0.5)) == pytest.approx(0.75)

    failing = command_objective(["python3", "-c", "import sys; sys.exit(3)"])
    with pytest.raises(ObjectiveError):
        failing((0.1,))
    # bo_run records the failure instead of crashing
    best, trace = bo_run(failing, space_1d(), None, budget=4, seed=1)
    assert all(r.failed for r in trace.records)
    assert best is None or not any(r.failed and r.y == best.y for r in trace.records)


def test_command_objective_timeout_kills_what_the_command_started(tmp_path):
    """The command's process group goes on timeout: a child it left running
    is gone, or a zombie waiting for its new parent, within a second."""
    from hwcost.objectives import ObjectiveError, command_objective

    pidfile = tmp_path / "pid"
    fn = command_objective(["sh", "-c", f"sleep 3 & echo $! > '{pidfile}'; wait"], timeout=0.2)
    with pytest.raises(ObjectiveError, match="ran past 0.2 s"):
        fn((0.5,))
    stat = f"/proc/{int(pidfile.read_text())}/stat"
    deadline = time.monotonic() + 1.0
    while True:
        try:
            with open(stat) as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    break
        except FileNotFoundError:
            break
        assert time.monotonic() < deadline, "the command's child outlived its timeout"
        time.sleep(0.01)


def test_trace_csv_layout():
    space = space_2d(structural=("x1", "x2"))
    cons = constraints_halfbox()
    _, trace = bo_run(quadratic_bowl(1.0), space, cons, budget=8, seed=13)
    lines = trace.csv_text().splitlines()
    assert lines[0] == "iter,x1,x2,acq,y,pred_power,pred_mem,feasible,best_y"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[-2] in ("true", "false")


def test_quadratic_center_list_must_match_the_point():
    assert quadratic_bowl((0.1, 0.2))((0.1, 0.2)) == 0.0
    for center in ((0.1, 0.2, 0.3), (0.1,)):
        with pytest.raises(ValueError, match=f"center has {len(center)} values, the point 2"):
            quadratic_bowl(center)((0.1, 0.2))


@pytest.mark.parametrize("noise", [-0.1, math.nan, math.inf])
def test_build_objective_rejects_a_negative_or_non_finite_noise(noise):
    from hwcost.objectives import build_objective
    with pytest.raises(ValueError, match="noise must be a finite number >= 0"):
        build_objective("quadratic", noise=noise)
    assert build_objective("quadratic", noise=0.0)((0.3,)) == 0.0
