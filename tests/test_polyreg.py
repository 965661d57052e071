import itertools
import math
import re
import warnings

import numpy as np
import pytest

from hwcost.netgraph import LayerConfig, LayerKind, TensorShape, conv2d, \
    parse_network, pool2d
from hwcost import polyreg, synth
from hwcost.seeding import kfold_indices
from hwcost.polyreg import (FitConfig, FitError, Metrics,
                            MissingModelError, PolynomialModel, SpecialTerm, Target,
                            TermSpec, ZeroRuntimeError, build_features, enumerate_terms,
                            evaluate, fit, model_from_json, model_to_json, predict, predict_network,
                            predict_with_flag, read_profile_csv, special_terms,
                            write_profile_csv)
from oracles import design_matrix_reference, lasso_homotopy_reference


def fc_layer(batch, in_units, out_units, name="f"):
    return LayerConfig(name, LayerKind.FULLY_CONNECTED, TensorShape(batch, in_units, 1, 1),
                       output_units=out_units)


def pool_grid_samples(target_fn):
    """batch x in_c on the 1..5 integer grid; fixed spatial config."""
    samples = []
    for b in range(1, 6):
        for c in range(1, 6):
            layer = LayerConfig(f"s{b}_{c}", LayerKind.POOL2D, TensorShape(b, c, 6, 6),
                                kernel_h=2, kernel_w=2, stride=2, padding=0)
            samples.append((layer, target_fn(float(b), float(c))))
    return samples


# --- features ----------------------------------------------------------------

def test_fc_features():
    fv = build_features(fc_layer(1, 4, 2))
    assert fv == (1.0, 4.0, 2.0)
    assert polyreg._SCHEMAS[LayerKind.FULLY_CONNECTED] == ("batch", "in_units", "out_units")


def test_schema_length_varies_by_kind():
    assert len(polyreg._SCHEMAS[LayerKind.FULLY_CONNECTED]) == 3
    assert len(polyreg._SCHEMAS[LayerKind.CONV2D]) == 8
    assert len(polyreg._SCHEMAS[LayerKind.POOL2D]) == 6


def test_square_input_collapses_to_single_spatial_feature():
    layer = conv2d("c", TensorShape(1, 3, 32, 32), out_channels=8, kernel=3, padding=1)
    fv = build_features(layer)
    assert fv[polyreg._SCHEMAS[LayerKind.CONV2D].index("in_hw")] == 32.0


def test_non_square_uses_geometric_mean():
    layer = conv2d("c", TensorShape(1, 3, 16, 4), out_channels=8, kernel=3, padding=1)
    fv = build_features(layer)
    assert fv[polyreg._SCHEMAS[LayerKind.CONV2D].index("in_hw")] == pytest.approx(8.0)


# --- special terms -----------------------------------------------------------

def test_fc_special_terms():
    assert special_terms(fc_layer(1, 4, 2)) == (16.0, 14.0)


def test_special_terms_strictly_positive():
    for layer in (fc_layer(1, 1, 1),
                  conv2d("c", TensorShape(1, 1, 1, 1), out_channels=1, kernel=1),
                  pool2d("p", TensorShape(1, 1, 1, 1), kernel=1, stride=1)):
        flops, mem = special_terms(layer)
        assert flops > 0 and mem > 0


def test_single_placement_conv_special_terms():
    layer = conv2d("c", TensorShape(1, 1, 3, 3), out_channels=1, kernel=3)
    assert special_terms(layer) == (18.0, 19.0)


# --- term enumeration --------------------------------------------------------

def test_enumerate_terms_d2_k2():
    terms = [t.exponents for t in enumerate_terms(2, 2)]
    assert terms == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_enumerate_terms_constant_only():
    assert [t.exponents for t in enumerate_terms(1, 0)] == [(0,)]


def test_enumerate_terms_d3_k3_against_exhaustive():
    got = [t.exponents for t in enumerate_terms(3, 3)]
    brute = {e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3}
    assert len(got) == 20 == math.comb(3 + 3, 3)
    assert set(got) == brute
    # graded first, then lexicographically descending within a grade
    for a, b in zip(got, got[1:]):
        assert (sum(a), tuple(-v for v in a)) < (sum(b), tuple(-v for v in b))


def test_term_count_formula():
    for dim, degree in [(1, 4), (4, 2), (8, 3), (6, 2)]:
        assert len(enumerate_terms(dim, degree)) == math.comb(dim + degree, degree)


def test_each_call_gets_its_own_list_of_the_term_table():
    first, second = enumerate_terms(6, 2), enumerate_terms(6, 2)
    assert first == second and first is not second
    first.reverse()
    first.append(TermSpec((9, 0, 0, 0, 0, 0)))
    assert enumerate_terms(6, 2) == second and len(second) == math.comb(6 + 2, 2)


# --- fitting -----------------------------------------------------------------

def test_fit_recovers_generating_polynomial():
    # T = 2*x1 + 3*x1*x2 on the 1..5 integer grid, K=2, lam=0
    samples = pool_grid_samples(lambda b, c: 2.0 * b + 3.0 * b * c)
    model = fit(samples, FitConfig(degree=2, l1_strength=0.0, seed=1),
                LayerKind.POOL2D, Target.RUNTIME_MS)
    coefs = {t.exponents: c for t, c in model.terms}
    assert coefs[(1, 0, 0, 0, 0, 0)] == pytest.approx(2.0, abs=1e-6)
    assert coefs[(1, 1, 0, 0, 0, 0)] == pytest.approx(3.0, abs=1e-6)
    assert len(model.terms) == 2
    assert model.special == ()
    # the recovered model evaluated at x1=2, x2=4: 2*2 + 3*8 = 28
    query = LayerConfig("q", LayerKind.POOL2D, TensorShape(2, 4, 6, 6),
                        kernel_h=2, kernel_w=2, stride=2, padding=0)
    assert predict(model, query) == pytest.approx(28.0, rel=1e-9)


def test_fit_constant_targets_warns_and_returns_constant_model():
    samples = [(fc_layer(1, i, j, f"s{i}{j}"), 5.0)
               for i in range(1, 6) for j in range(1, 5)]
    with pytest.warns(UserWarning):
        model = fit(samples, FitConfig(seed=0), LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS)
    assert predict(model, fc_layer(3, 7, 2)) == 5.0
    assert model.size == 1


def test_fit_requires_enough_samples():
    samples = [(fc_layer(1, i, 1, f"s{i}"), float(i)) for i in range(1, 6)]
    with pytest.raises(FitError):
        fit(samples, FitConfig(cv_folds=10), LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS)


@pytest.mark.parametrize("value", [1e-300, 1e-320, 1e300])
def test_a_measurement_that_overflows_the_cv_curve_raises_naming_its_sample(value):
    """The relative error of 1e-300 (or of the others against 1e300)
    overflows: FitError names the sample, and no numpy warning leaks."""
    samples = pool_grid_samples(lambda b, c: 1.0 + b + c)
    layer, _ = samples[7]
    samples[7] = (layer, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"sample layer {layer.name} measured {value!r}"
        with pytest.raises(FitError, match=re.escape(message)):
            polyreg.fit_with_metrics(samples, FitConfig(degree=1, cv_folds=3), LayerKind.POOL2D,
                                     Target.RUNTIME_MS)


def _synth_runtime(kind, seed=21):
    samples = synth.generate_samples(synth.SynthConfig(count=40, noise=0.05), seed)
    return [(s.layer, s.runtime_ms) for s in samples if s.layer.kind is kind]


@pytest.mark.parametrize("kind", list(LayerKind), ids=lambda kind: kind.value)
def test_targets_in_other_units_give_the_same_terms_with_scaled_coefficients(kind):
    """Scaling a profile's targets by 2^k scales the coefficients and RMSE by
    exactly 2^k and keeps the CV RMSPE's bits; scaling by 10^k keeps the
    terms and the coefficients within 1e-9 relative."""
    samples = _synth_runtime(kind)
    config = FitConfig(cv_folds=3, seed=5)
    base, base_metrics = polyreg.fit_with_metrics(samples, config, kind, Target.RUNTIME_MS)
    assert base.size >= 3
    for k in (-500, -40, 40, 500):
        scaled = [(layer, math.ldexp(value, k)) for layer, value in samples]
        model, metrics = polyreg.fit_with_metrics(scaled, config, kind, Target.RUNTIME_MS)
        assert model.terms == tuple((t, math.ldexp(c, k)) for t, c in base.terms), k
        assert model.special == tuple((t, math.ldexp(c, k)) for t, c in base.special), k
        assert metrics == Metrics(base_metrics.rmspe, math.ldexp(base_metrics.rmse, k)), k
    for factor in (1e-150, 1e-12, 1e-6, 1e6, 1e150):
        scaled = [(layer, value * factor) for layer, value in samples]
        model = fit(scaled, config, kind, Target.RUNTIME_MS)
        assert [t for t, _ in model.terms] == [t for t, _ in base.terms], factor
        assert [t for t, _ in model.special] == [t for t, _ in base.special], factor
        got = np.array([c for _, c in model.terms + model.special]) / factor
        want = np.array([c for _, c in base.terms + base.special])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0, err_msg=str(factor))


@pytest.mark.parametrize("scale", [1e-13, 1e-300])
def test_tiny_distinct_targets_keep_their_terms(scale):
    """Targets of (1 + b + c) * scale are neither cut to an empty model nor
    called identical: the model is the unscaled one's, scaled."""
    base = fit(pool_grid_samples(lambda b, c: 1.0 + b + c), FitConfig(degree=1, cv_folds=3),
               LayerKind.POOL2D, Target.RUNTIME_MS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(pool_grid_samples(lambda b, c: (1.0 + b + c) * scale),
                    FitConfig(degree=1, cv_folds=3), LayerKind.POOL2D, Target.RUNTIME_MS)
    assert base.size >= 2
    assert [t for t, _ in model.terms] == [t for t, _ in base.terms]
    assert [t for t, _ in model.special] == [t for t, _ in base.special]
    for (_, got), (_, want) in zip(model.terms + model.special, base.terms + base.special):
        assert got / scale == pytest.approx(want, rel=1e-9)


def test_fit_rejects_kind_mismatch():
    samples = [(fc_layer(1, i, j, f"s{i}{j}"), 1.0)
               for i in range(1, 6) for j in range(1, 5)]
    with pytest.raises(FitError):
        fit(samples, FitConfig(), LayerKind.CONV2D, Target.RUNTIME_MS)


def test_fit_optimality_at_zero_lambda():
    # well-conditioned design: random FC layers, varied batch; compare the
    # standardized residual gradient against an independent lstsq solve
    rng = np.random.default_rng(11)
    samples = []
    for i in range(60):
        layer = fc_layer(int(rng.integers(1, 6)), int(rng.integers(1, 30)),
                         int(rng.integers(1, 30)), f"s{i}")
        flops, mem = special_terms(layer)
        target = 0.3 + 0.05 * layer.input.batch + 2e-3 * flops + 1e-3 * mem \
            + 0.01 * layer.in_units
        samples.append((layer, target))
    model = fit(samples, FitConfig(degree=2, l1_strength=0.0, seed=3),
                LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS)

    terms, design, y, _, xs, _ = _standardized_problem(samples, LayerKind.FULLY_CONNECTED, 2)
    coef = _coef_vector(model, terms)
    resid = design @ coef - y
    # standardized-space gradient of the (1/2n) objective
    grad = xs.T @ (resid / y.std()) / len(y)
    assert float(np.abs(grad).max()) < 1e-8
    # and the model must match an independent least-squares fit's predictions
    w, *_ = np.linalg.lstsq(np.column_stack([design, np.ones(len(y))]), y, rcond=None)
    pred_lstsq = np.column_stack([design, np.ones(len(y))]) @ w
    assert np.allclose(design @ coef, pred_lstsq, atol=1e-7)


def _standardized_problem(samples, kind, degree):
    """Raw design, standardized live columns and target, as the fit sees them."""
    terms = enumerate_terms(len(polyreg._SCHEMAS[kind]), degree)
    feats = np.array([build_features(layer) for layer, _ in samples])
    cols = [np.prod(feats ** np.asarray(t.exponents, dtype=float), axis=1) for t in terms]
    sp = np.array([special_terms(layer) for layer, _ in samples])
    design = np.column_stack(cols + [sp[:, 0], sp[:, 1]])
    y = np.array([t for _, t in samples])
    stds = design.std(axis=0)
    live = stds > 0
    xs = (design[:, live] - design[:, live].mean(axis=0)) / stds[live]
    return terms, design, y, live, xs, (y - y.mean()) / y.std()


def _coef_vector(model, terms):
    coef = np.zeros(len(terms) + 2)
    for term, c in model.terms:
        coef[terms.index(term)] = c
    for s_term, c in model.special:
        coef[len(terms) + (0 if s_term is SpecialTerm.TOTAL_FLOPS else 1)] = c
    return coef


def _conv_samples(n, seed):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        layer = conv2d(f"c{i}", TensorShape(int(rng.integers(1, 9)), int(rng.integers(4, 33)),
                                            int(rng.integers(8, 33)), int(rng.integers(8, 33))),
                       out_channels=int(rng.integers(1, 65)), kernel=int(rng.integers(1, 6)),
                       stride=int(rng.integers(1, 3)), padding=int(rng.integers(0, 3)))
        flops, mem = special_terms(layer)
        samples.append((layer, (0.5 + 2e-7 * flops + 1e-6 * mem)
                        * (1.0 + 0.05 * rng.standard_normal())))
    return samples


def _fc_samples(n, seed):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        layer = fc_layer(int(rng.integers(1, 9)), int(rng.integers(1, 200)),
                         int(rng.integers(1, 200)), f"s{i}")
        flops, mem = special_terms(layer)
        samples.append((layer, (2.0 + 1e-5 * flops + 3e-5 * mem)
                        * (1.0 + 0.05 * rng.standard_normal())))
    return samples


HARD_DESIGNS = {
    # flops and accesses are copies of the b*c column, b*in_hw of b, c*k of c, ...
    "pool-grid-duplicates": (LayerKind.POOL2D, pool_grid_samples(
        lambda b, c: 1.0 + 0.5 * b + 2.0 * b * c + 0.1 * c * c)),
    # the access count b*in + in*out + b*out is a sum of degree-2 monomials
    "fc-collinear-special": (LayerKind.FULLY_CONNECTED, _fc_samples(40, 8)),
    # 40 samples, 166 live columns
    "conv-n-below-p": (LayerKind.CONV2D, _conv_samples(40, 13)),
}


@pytest.mark.parametrize("kind, samples", HARD_DESIGNS.values(), ids=HARD_DESIGNS.keys())
def test_fit_meets_kkt_conditions_along_the_grid(kind, samples):
    degree = polyreg.DEFAULT_DEGREE[kind]
    terms, design, y, live, xs, ys = _standardized_problem(samples, kind, degree)
    if kind is LayerKind.CONV2D:
        assert xs.shape[1] == 166 > len(samples)
    lam_max = float(np.abs(xs.T @ ys).max()) / len(y)
    grid = np.geomspace(lam_max, lam_max * 1e-4, 50)
    for lam in grid[[0, 12, 25, 37, 49]]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # the fit's own KKT check
            model = fit(samples, FitConfig(degree=degree, l1_strength=float(lam),
                                           cv_folds=3, seed=1), kind, Target.RUNTIME_MS)
        coef = _coef_vector(model, terms)
        beta = coef[live] * design[:, live].std(axis=0) / y.std()
        grad = xs.T @ ((design @ coef - y) / y.std()) / len(y)
        active = beta != 0.0
        assert np.all(np.abs(grad[active] + lam * np.sign(beta[active])) <= 1e-9), lam
        assert np.all(np.abs(grad[~active]) <= lam + 1e-9), lam


def test_fit_warns_when_solution_misses_kkt(monkeypatch):
    def zeros(problems, lambdas):
        return [np.zeros((len(lambdas), len(corr))) for _, corr in problems]

    monkeypatch.setattr(polyreg, "_lasso_homotopy", zeros)
    with pytest.warns(UserWarning, match=r"fc runtime_ms: .*KKT"):
        fit(_fc_samples(40, 8), FitConfig(degree=2, l1_strength=1e-3, cv_folds=3),
            LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS)


@pytest.mark.parametrize("strength", [math.nan, math.inf])
def test_fit_config_rejects_a_non_finite_l1(strength):
    with pytest.raises(ValueError, match="l1_strength must be finite and >= 0"):
        FitConfig(l1_strength=strength)


@pytest.mark.parametrize("strength", [None, 0.1])
def test_fit_config_needs_two_folds_whatever_the_l1(strength):
    """CV runs whether or not lambda is fixed, so one fold is refused at once."""
    with pytest.raises(ValueError, match="cross-validation needs at least 2 folds, got 1"):
        FitConfig(l1_strength=strength, cv_folds=1)


def test_fold_paths_are_kkt_checked(monkeypatch):
    solve = polyreg._lasso_homotopy

    def zeros_on_grids(problems, lambdas):
        if len(lambdas) > 1:  # the CV fold paths; the final fit solves one lambda
            return [np.zeros((len(lambdas), len(corr))) for _, corr in problems]
        return solve(problems, lambdas)

    monkeypatch.setattr(polyreg, "_lasso_homotopy", zeros_on_grids)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit(_fc_samples(40, 8), FitConfig(degree=2, cv_folds=3),
            LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS)
    messages = sorted(str(w.message) for w in caught)
    assert len(messages) == 3
    for k, message in enumerate(messages, start=1):
        assert re.match(rf"fc runtime_ms: fold {k} of 3: lasso solution at lambda \S+ "
                        r"violates its KKT conditions by ", message), message


def _synth_pool_power(seed):
    samples = synth.generate_samples(synth.SynthConfig(count=40, noise=0.05), seed)
    return [(s.layer, s.power_w) for s in samples if s.layer.kind is LayerKind.POOL2D]


@pytest.mark.parametrize("kind, samples", [
    *HARD_DESIGNS.values(),
    # a synthesized profile whose paths meet columns that fail the Schur test
    (LayerKind.POOL2D, _synth_pool_power(11000)),
], ids=[*HARD_DESIGNS, "synth-pool-schur-blocks"])
def test_homotopy_path_matches_reference(kind, samples):
    """Same support and standardized coefficients as the reference event loop
    at every grid lambda, on the full data and on each 3-fold training set."""
    terms = enumerate_terms(len(polyreg._SCHEMAS[kind]), polyreg.DEFAULT_DEGREE[kind])
    design = polyreg._design_matrix([layer for layer, _ in samples], terms)
    y = np.array([value for _, value in samples])
    fold_of = kfold_indices(len(y), 3, 1)
    for rows in [np.ones(len(y), dtype=bool)] + [fold_of != k for k in range(3)]:
        gram, corr, _, _ = polyreg._lasso_problem(design[rows], y[rows])
        lambdas = polyreg._lambda_grid(corr)
        [got] = polyreg._lasso_homotopy([(gram, corr)], lambdas)
        want = lasso_homotopy_reference(gram, corr, lambdas)
        assert np.array_equal(got != 0.0, want != 0.0)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("kind, samples", HARD_DESIGNS.values(), ids=HARD_DESIGNS.keys())
def test_design_matrix_bit_exact_with_per_term_product(kind, samples):
    layers = [layer for layer, _ in samples]
    terms = enumerate_terms(len(polyreg._SCHEMAS[kind]), polyreg.DEFAULT_DEGREE[kind])
    want = design_matrix_reference(np.array([build_features(layer) for layer in layers]),
                                   [t.exponents for t in terms],
                                   np.array([special_terms(layer) for layer in layers]))
    assert np.array_equal(polyreg._design_matrix(layers, terms), want)


def _traced_paths(monkeypatch, gram, corr, lambdas):
    """The reference path and the count of its accepted joins and drops (the
    active set grows or shrinks from one event to the next), then the homotopy
    path with its np.linalg.solve calls, the join attempts among them (the
    right side's last row is [c_j, s_j, 1]) that failed the Schur test, and
    the singular ones."""
    sizes, solves, failed, singular = [], [], [], []
    cholesky, solve = np.linalg.cholesky, np.linalg.solve

    def sized_cholesky(a):
        sizes.append(a.shape[0])
        return cholesky(a)

    def counted_solve(a, b):
        solves.append(b.shape)
        try:
            x = solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(b.shape)
            failed.append(b.shape)
            raise
        if len(b) and b[-1, 2] == 1.0 and not 1.0 / x[-1, 2] > polyreg.SCHUR_TOL:
            failed.append(b.shape)
        return x

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "cholesky", sized_cholesky)
        want = lasso_homotopy_reference(gram, corr, lambdas)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", counted_solve)
        [got] = polyreg._lasso_homotopy([(gram, corr)], lambdas)
    assert np.array_equal(got != 0.0, want != 0.0)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), 1.0))
    changes = sum(a != b for a, b in zip(sizes, sizes[1:]))
    return want, sizes, changes, len(solves), len(failed), len(singular)


def _copies_problem():
    """(gram, corr, lambdas) whose columns 4 and 5 copy active columns."""
    base = np.random.default_rng(0).integers(-3, 4, size=(12, 4)).astype(float)
    x = np.column_stack([base, base[:, 0], base[:, 1] + base[:, 2]])
    return x.T @ x, np.array([-25.0, 25.0, 18.0, 2.0, -7.5, 12.9]), np.geomspace(25.0, 25e-3, 40)


def test_homotopy_blocks_copies_of_active_columns(monkeypatch):
    """Column 4 is an exact copy of column 0 and column 5 is column 1 +
    column 2. Their correlations are set off X'y, so each reaches +-lam
    mid-path while the columns it copies are active. Both attempts fail the
    Schur test, the copy's by a singular solve, twice in a row before column
    3 joins and twice after; the path matches the reference, with one solve
    per drop or join attempt."""
    want, sizes, changes, solves, failed, singular = _traced_paths(monkeypatch,
                                                                    *_copies_problem())
    assert sizes == [0, 1, 2, 3, 3, 3, 4, 4, 4]
    assert np.all(want[:, 4:] == 0.0) and np.any(np.all(want[:, :3] != 0.0, axis=1))
    assert failed == 4 and singular >= 1
    assert solves == changes + failed


def test_homotopy_forms_one_product_per_active_set_change(monkeypatch):
    """The G_jA [a, d] product is formed once per accepted join or drop: a
    join attempt that fails the Schur test leaves the active set, and so the
    product, as they were."""
    gram, corr, lambdas = _copies_problem()
    _, _, changes, _, failed, _ = _traced_paths(monkeypatch, gram, corr, lambdas)
    products = []
    matmul = np.matmul

    def counted_matmul(*args, **kwargs):
        products.append(args[0].shape)
        return matmul(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "matmul", counted_matmul)
        polyreg._lasso_homotopy([(gram, corr)], lambdas)
    assert failed == 4
    assert len(products) == changes


def test_homotopy_solves_once_per_event(monkeypatch):
    """One G_AA solve per drop or join attempt, blocked or not, on paths that
    meet Schur-test blocks."""
    kind, samples = LayerKind.POOL2D, _synth_pool_power(11000)
    terms = enumerate_terms(len(polyreg._SCHEMAS[kind]), polyreg.DEFAULT_DEGREE[kind])
    design = polyreg._design_matrix([layer for layer, _ in samples], terms)
    y = np.array([value for _, value in samples])
    fold_of = kfold_indices(len(y), 3, 1)
    blocked = 0
    for rows in [np.ones(len(y), dtype=bool)] + [fold_of != k for k in range(3)]:
        gram, corr, _, _ = polyreg._lasso_problem(design[rows], y[rows])
        _, _, changes, solves, failed, _ = _traced_paths(monkeypatch, gram, corr,
                                                         polyreg._lambda_grid(corr))
        assert solves == changes + failed
        blocked += failed
    assert blocked > 0


def test_a_drop_and_a_join_make_the_same_solve(monkeypatch):
    """Every G_AA solve, after a drop or a join attempt, blocked or not, takes
    the three right sides [c_A, s, e], where e is zero but for the last row of
    a join attempt, which is [c_j, s_j, 1]; over the copies path and a 3-fold
    pool batch, which have both drops and blocked joins."""
    kind, samples = LayerKind.POOL2D, _synth_pool_power(11000)
    terms = enumerate_terms(len(polyreg._SCHEMAS[kind]), polyreg.DEFAULT_DEGREE[kind])
    design = polyreg._design_matrix([layer for layer, _ in samples], terms)
    y = np.array([value for _, value in samples])
    fold_of = kfold_indices(len(y), 3, 1)
    folds = [polyreg._lasso_problem(design[fold_of != k], y[fold_of != k])[:2] for k in range(3)]
    gram, corr, lambdas = _copies_problem()
    sides = []
    solve = np.linalg.solve

    def recorded(a, b):
        sides.append(b.copy())
        return solve(a, b)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", recorded)
        polyreg._lasso_homotopy([(gram, corr)], lambdas)
        polyreg._lasso_homotopy(folds, polyreg._lambda_grid(polyreg._lasso_problem(design, y)[1]))
    assert all(b.ndim == 2 and b.shape[1] == 3 for b in sides)
    assert all(np.all(b[:-1, 2] == 0.0) and b[-1, 2] in (0.0, 1.0) for b in sides if len(b))
    joins = [b for b in sides if len(b) and b[-1, 2] == 1.0]
    assert all(abs(b[-1, 1]) == 1.0 for b in joins)
    assert len(joins) > len(sides) - len(joins) > 0


def test_batches_of_no_problems_or_only_empty_ones():
    """No problems give no paths, and empty problems alone their zero-width paths."""
    lambdas = np.geomspace(1.0, 1e-3, 7)
    assert polyreg._lasso_homotopy([], lambdas) == []
    empty = (np.zeros((0, 0)), np.zeros(0))
    assert [path.shape for path in polyreg._lasso_homotopy([empty, empty], lambdas)] == [(7, 0)] * 2


def _one_by_one(problems, lambdas):
    return [polyreg._lasso_homotopy([problem], lambdas)[0] for problem in problems]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("folds", [3, 10])
def test_batched_fold_paths_are_the_one_problem_paths(seed, folds):
    """Every fold path of a CV batch, bit for bit the path of a call with
    that problem alone, over every kind and target of a synthesized profile."""
    samples = synth.generate_samples(synth.SynthConfig(count=40, noise=0.05), seed)
    for kind in polyreg.DEFAULT_DEGREE:
        terms = enumerate_terms(len(polyreg._SCHEMAS[kind]), polyreg.DEFAULT_DEGREE[kind])
        of_kind = [s for s in samples if s.layer.kind is kind]
        design = polyreg._design_matrix([s.layer for s in of_kind], terms)
        fold_of = kfold_indices(len(of_kind), folds, seed)
        for target in Target:
            y = np.array([getattr(s, target.value) for s in of_kind])
            lambdas = polyreg._lambda_grid(polyreg._lasso_problem(design, y)[1])
            problems = [polyreg._lasso_problem(design[fold_of != k], y[fold_of != k])[:2]
                        for k in range(folds)]
            got = polyreg._lasso_homotopy(problems, lambdas)
            assert len(got) == folds
            for path, alone in zip(got, _one_by_one(problems, lambdas)):
                assert np.array_equal(path, alone), (kind, target)


def test_batch_of_unequal_widths_and_an_empty_problem():
    """A column constant on one fold's training rows leaves that fold a
    narrower problem than the others; an empty problem in the middle of the
    batch gets an empty path, and every other path is the one it has alone."""
    rng = np.random.default_rng(3)
    fold_of = kfold_indices(30, 3, 0)
    x = rng.standard_normal((30, 6))
    x[:, 5] = np.where(fold_of == 0, x[:, 5], 2.0)  # constant where fold 0 trains
    y = x @ np.array([1.0, -2.0, 0.5, 0.0, 0.0, 3.0]) + 0.1 * rng.standard_normal(30)
    problems = [polyreg._lasso_problem(x[fold_of != k], y[fold_of != k])[:2] for k in range(3)]
    assert [len(corr) for _, corr in problems] == [5, 6, 6]
    problems.insert(1, (np.zeros((0, 0)), np.zeros(0)))
    lambdas = polyreg._lambda_grid(polyreg._lasso_problem(x, y)[1])
    got = polyreg._lasso_homotopy(problems, lambdas)
    assert [path.shape for path in got] == [(50, 5), (50, 0), (50, 6), (50, 6)]
    for path, alone in zip(got, _one_by_one(problems, lambdas)):
        assert np.array_equal(path, alone)
    assert polyreg._lasso_homotopy([problems[1]], lambdas)[0].shape == (50, 0)
    assert polyreg._lasso_homotopy([], lambdas) == []


def test_batch_with_a_path_done_on_its_first_pass():
    """A problem whose max|c| is below the grid's last lambda has an all-zero
    path and finishes on the first pass; the long paths on either side of it
    in the batch step on past it, each the path it has alone."""
    gram, corr, lambdas = _copies_problem()
    wide = np.random.default_rng(1).standard_normal((20, 9))
    problems = [(gram, corr), (wide.T @ wide, np.full(9, 1e-3)),
                (wide.T @ wide, wide.T @ np.arange(20.0))]
    assert np.abs(problems[1][1]).max() < lambdas[-1]
    got = polyreg._lasso_homotopy(problems, lambdas)
    for path, alone in zip(got, _one_by_one(problems, lambdas)):
        assert np.array_equal(path, alone)
    assert np.all(got[1] == 0.0)
    assert all(np.count_nonzero(path[-1]) > 1 for path in (got[0], got[2]))


def test_batch_goes_on_past_one_paths_singular_join(monkeypatch):
    """One path of the batch blocks a copy of an active column by a singular
    solve; the other paths step on, each path is the one it has alone, and
    the batch makes exactly the solves, and the singular ones, of the calls
    one problem at a time."""
    base = np.random.default_rng(0).integers(-3, 4, size=(12, 4)).astype(float)
    x = np.column_stack([base, base[:, 0], base[:, 1] + base[:, 2]])
    gram = x.T @ x
    wide = np.random.default_rng(1).standard_normal((20, 9))
    problems = [(wide.T @ wide, wide.T @ np.arange(20.0)),
                (gram, np.array([-25.0, 25.0, 18.0, 2.0, -7.5, 12.9])),
                (gram[:4, :4], np.array([-25.0, 25.0, 18.0, 2.0]))]
    lambdas = np.geomspace(25.0, 25e-3, 40)
    solve = np.linalg.solve

    def counted(problems):
        solves, singular = [], []

        def counted_solve(a, b):
            solves.append(b.shape)
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(b.shape)
                raise

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", counted_solve)
            paths = polyreg._lasso_homotopy(problems, lambdas)
        return paths, sorted(solves), sorted(singular)

    got, solves, singular = counted(problems)
    alone = [counted([problem]) for problem in problems]
    assert [len(s) > 0 for _, _, s in alone] == [False, True, False]
    for path, (want, _, _) in zip(got, alone):
        assert np.array_equal(path, want[0])
    assert solves == sorted(shape for _, s, _ in alone for shape in s)
    assert singular == sorted(shape for _, _, s in alone for shape in s)


def test_sparsity_non_increasing_in_lambda():
    rng = np.random.default_rng(5)
    samples = []
    for i in range(80):
        layer = fc_layer(int(rng.integers(1, 5)), int(rng.integers(1, 40)),
                         int(rng.integers(1, 40)), f"s{i}")
        flops, _ = special_terms(layer)
        noise = 1.0 + 0.02 * rng.standard_normal()
        samples.append((layer, (0.5 + 1e-3 * flops + 0.02 * layer.in_units) * noise))
    sizes = []
    for lam in [0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]:
        model = fit(samples, FitConfig(degree=2, l1_strength=lam, seed=2),
                    LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS)
        sizes.append(model.size)
    assert sizes == sorted(sizes, reverse=True)


def test_oracle_recovery_on_held_out_points():
    def truth(b, c):
        return 1.0 + 0.5 * b + 0.25 * c * c + 2.0 * b * c
    samples = pool_grid_samples(truth)
    model = fit(samples, FitConfig(degree=2, l1_strength=0.0, seed=9),
                LayerKind.POOL2D, Target.RUNTIME_MS)
    for b, c in [(6, 7), (9, 2), (1, 11)]:
        layer = LayerConfig("h", LayerKind.POOL2D, TensorShape(b, c, 6, 6),
                            kernel_h=2, kernel_w=2, stride=2, padding=0)
        assert predict(model, layer) == pytest.approx(truth(b, c), rel=1e-6)


def test_fit_determinism_bit_identical():
    rng = np.random.default_rng(21)
    samples = []
    for i in range(40):
        layer = fc_layer(int(rng.integers(1, 5)), int(rng.integers(1, 20)),
                         int(rng.integers(1, 20)), f"s{i}")
        samples.append((layer, float(rng.uniform(1, 10))))
    config = FitConfig(degree=2, seed=123)
    a = fit(samples, config, LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS)
    b = fit(samples, config, LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS)
    assert a == b  # dataclass equality covers every term and coefficient bit


# --- prediction --------------------------------------------------------------

def test_constant_model_predicts_constant():
    const = TermSpec((0, 0, 0))
    model = PolynomialModel(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 2,
                            polyreg._SCHEMAS[LayerKind.FULLY_CONNECTED],
                            ((const, 5.0),), ())
    assert predict(model, fc_layer(3, 9, 4)) == 5.0


def test_empty_model_predicts_zero():
    model = PolynomialModel(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 2,
                            polyreg._SCHEMAS[LayerKind.FULLY_CONNECTED], (), ())
    value, clamped = predict_with_flag(model, fc_layer(1, 2, 2))
    assert value == 0.0 and not clamped


def test_negative_prediction_clamps_with_flag():
    model = PolynomialModel(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 2,
                            polyreg._SCHEMAS[LayerKind.FULLY_CONNECTED],
                            ((TermSpec((0, 0, 0)), -3.0),), ())
    value, clamped = predict_with_flag(model, fc_layer(1, 2, 2))
    assert value == 0.0 and clamped


def test_predict_rejects_kind_mismatch():
    model = PolynomialModel(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 2,
                            polyreg._SCHEMAS[LayerKind.FULLY_CONNECTED], (), ())
    with pytest.raises(ValueError):
        predict(model, pool2d("p", TensorShape(1, 1, 4, 4), kernel=2, stride=2))


# --- network aggregation -----------------------------------------------------

def _constant_model(kind, target, value):
    dim = len(polyreg._SCHEMAS[kind])
    return PolynomialModel(kind, target, 2, polyreg._SCHEMAS[kind],
                           ((TermSpec((0,) * dim), value),), ())


def test_network_aggregation_definition():
    net = parse_network("""
f1 fc in=1x4x1x1 out=4
f2 fc out=2
""")
    # both layers fc, but distinct runtime/power pairs need per-layer models;
    # use one model per kind so both layers share it: pick (2ms,10W) & (3ms,20W)
    # via two sub-networks instead
    runtime = {LayerKind.FULLY_CONNECTED: _constant_model(LayerKind.FULLY_CONNECTED,
                                                          Target.RUNTIME_MS, 2.0)}
    power = {LayerKind.FULLY_CONNECTED: _constant_model(LayerKind.FULLY_CONNECTED,
                                                        Target.POWER_W, 10.0)}
    pred = predict_network(runtime, power, net)
    assert pred.total_runtime_ms == 4.0
    assert pred.total_energy_mj == 40.0
    assert pred.average_power_w == 10.0


def test_mixed_layer_aggregation():
    # layers (2 ms, 10 W) and (3 ms, 20 W): T=5 ms, E=80 mJ, P_avg=16 W
    net = parse_network("""
p1 pool in=1x4x4x4 k=2x2 s=2
f1 fc out=2
""")
    runtime = {
        LayerKind.POOL2D: _constant_model(LayerKind.POOL2D, Target.RUNTIME_MS, 2.0),
        LayerKind.FULLY_CONNECTED: _constant_model(LayerKind.FULLY_CONNECTED,
                                                   Target.RUNTIME_MS, 3.0),
    }
    power = {
        LayerKind.POOL2D: _constant_model(LayerKind.POOL2D, Target.POWER_W, 10.0),
        LayerKind.FULLY_CONNECTED: _constant_model(LayerKind.FULLY_CONNECTED,
                                                   Target.POWER_W, 20.0),
    }
    pred = predict_network(runtime, power, net)
    assert pred.total_runtime_ms == 5.0
    assert pred.total_energy_mj == 80.0
    assert pred.average_power_w == 16.0


def test_single_layer_network_equals_layer_values():
    net = parse_network("f1 fc in=1x4x1x1 out=2")
    runtime = {LayerKind.FULLY_CONNECTED: _constant_model(LayerKind.FULLY_CONNECTED,
                                                          Target.RUNTIME_MS, 7.5)}
    power = {LayerKind.FULLY_CONNECTED: _constant_model(LayerKind.FULLY_CONNECTED,
                                                        Target.POWER_W, 3.0)}
    pred = predict_network(runtime, power, net)
    assert pred.total_runtime_ms == 7.5
    assert pred.average_power_w == 3.0
    assert pred.layers[0].energy_mj == pred.total_energy_mj


def test_aggregation_identity_against_breakdown():
    net = parse_network("""
c1 conv in=2x3x8x8 k=3x3 s=1 p=1 out=4
p1 pool k=2x2 s=2
f1 fc out=10
""")
    runtime, power = {}, {}
    for kind, value in ((LayerKind.CONV2D, 1.5), (LayerKind.POOL2D, 0.25),
                        (LayerKind.FULLY_CONNECTED, 0.75)):
        runtime[kind] = _constant_model(kind, Target.RUNTIME_MS, value)
        power[kind] = _constant_model(kind, Target.POWER_W, value * 10)
    pred = predict_network(runtime, power, net)
    t = 0.0
    e = 0.0
    for lp in pred.layers:
        t += lp.runtime_ms
        e += lp.energy_mj
    assert pred.total_runtime_ms == t
    assert pred.total_energy_mj == e
    assert pred.average_power_w == e / t


def test_missing_model_is_error():
    net = parse_network("f1 fc in=1x4x1x1 out=2")
    with pytest.raises(MissingModelError):
        predict_network({}, {}, net)


def test_zero_total_runtime_is_error():
    net = parse_network("f1 fc in=1x4x1x1 out=2")
    zero = {LayerKind.FULLY_CONNECTED: _constant_model(LayerKind.FULLY_CONNECTED,
                                                       Target.RUNTIME_MS, 0.0)}
    power = {LayerKind.FULLY_CONNECTED: _constant_model(LayerKind.FULLY_CONNECTED,
                                                        Target.POWER_W, 1.0)}
    with pytest.raises(ZeroRuntimeError):
        predict_network(zero, power, net)


# --- evaluation --------------------------------------------------------------

def test_perfect_predictions_give_zero_metrics():
    model = _constant_model(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 5.0)
    samples = [(fc_layer(1, i, 1, f"s{i}"), 5.0) for i in range(1, 4)]
    metrics = evaluate(model, samples)
    assert metrics == Metrics(0.0, 0.0)


def test_single_sample_metrics():
    model = _constant_model(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 11.0)
    metrics = evaluate(model, [(fc_layer(1, 2, 2), 10.0)])
    assert metrics.rmspe == pytest.approx(10.0)
    assert metrics.rmse == pytest.approx(1.0)


def test_symmetric_errors():
    model = _constant_model(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 0.0)
    # preds are 0 after clamp; build via two samples around 10 using two models
    m11 = _constant_model(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 11.0)
    m9 = _constant_model(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 9.0)
    a = evaluate(m11, [(fc_layer(1, 2, 2), 10.0)])
    b = evaluate(m9, [(fc_layer(1, 2, 2), 10.0)])
    combined_rmspe = math.sqrt((a.rmspe ** 2 + b.rmspe ** 2) / 2)
    assert combined_rmspe == pytest.approx(10.0)
    assert a.rmse == b.rmse == pytest.approx(1.0)


def test_zero_actual_excluded_with_warning():
    model = _constant_model(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, 1.0)
    samples = [(fc_layer(1, 2, 2, "a"), 0.0), (fc_layer(1, 3, 3, "b"), 2.0)]
    with pytest.warns(UserWarning):
        metrics = evaluate(model, samples)
    assert metrics.rmspe == pytest.approx(50.0)


# --- serialization and CSV ---------------------------------------------------

def test_model_json_round_trip_exact():
    samples = pool_grid_samples(lambda b, c: 0.123456789 + 1.5 * b + 0.07 * b * c)
    model = fit(samples, FitConfig(degree=2, seed=4), LayerKind.POOL2D, Target.RUNTIME_MS)
    again = model_from_json(model_to_json(model))
    assert again == model
    with pytest.raises(ValueError):  # NaN is not JSON
        model_to_json(_constant_model(LayerKind.FULLY_CONNECTED, Target.RUNTIME_MS, math.nan))


def test_profile_csv_round_trip():
    samples = [
        polyreg.ProfileSample(conv2d("row2", TensorShape(2, 3, 8, 8), out_channels=4,
                                     kernel=3, padding=1), 1.25, 30.5),
        polyreg.ProfileSample(fc_layer(1, 16, 4, "row3"), 0.5, None),
        polyreg.ProfileSample(pool2d("row4", TensorShape(1, 4, 8, 8), kernel=2, stride=2),
                              None, 12.0),
        # an fc layer's spatial input survives; a 1x1 one leaves in_h/in_w blank
        polyreg.ProfileSample(LayerConfig("row5", LayerKind.FULLY_CONNECTED,
                                          TensorShape(1, 16, 4, 4), output_units=8), 0.5, None),
    ]
    text = write_profile_csv(samples, comments=["demo"])
    lines = text.splitlines()
    assert lines[1] == ",".join(polyreg.PROFILE_HEADER)
    assert (lines[3], lines[5]) == ("fc,1,16,,,,,,,,4,0.5,", "fc,1,16,4,4,,,,,,8,0.5,")
    parsed = read_profile_csv(text)
    assert len(parsed) == 4
    for original, loaded in zip(samples, parsed):
        assert loaded.runtime_ms == original.runtime_ms
        assert loaded.power_w == original.power_w
        o, l = original.layer, loaded.layer
        assert (o.kind, o.input, o.kernel_h, o.kernel_w, o.stride, o.padding,
                o.output_channels, o.output_units) == \
               (l.kind, l.input, l.kernel_h, l.kernel_w, l.stride, l.padding,
                l.output_channels, l.output_units)


def test_profile_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        read_profile_csv("kind,batch\nconv,1\n")


def test_profile_csv_reports_bad_row_number():
    text = ",".join(polyreg.PROFILE_HEADER) + "\nconv,1,3,8,8,3,3,1,oops,4,,1.0,2.0\n"
    with pytest.raises(ValueError) as err:
        read_profile_csv(text)
    assert "row 2" in str(err.value)
