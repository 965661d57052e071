import csv
import io
import math

import numpy as np
import pytest

from hwcost.bayesopt import ConstraintSpec
from hwcost.linmod import (LinearModel, LinTarget, Profile, RankDeficientError,
                           StructuralSchema, fit_linear, model_from_json, model_to_json,
                           offline_sample, predict, read_profiled_csv)


def schema2(lo=1, hi=100):
    return StructuralSchema(("units1", "units2"), (lo, lo), (hi, hi))


def make_profile(schema, zs, power_fn, memory_fn):
    measured = np.array([(power_fn(*z), memory_fn(*z)) for z in zs])
    return Profile(schema.names, np.array(zs), measured[:, 0], measured[:, 1])


def test_degenerate_range_sampling():
    schema = StructuralSchema(("n",), (5,), (5,))
    zs = offline_sample(schema, 20, seed=3)
    assert zs.shape == (20, 1) and np.all(zs == 5)


def test_sampling_determinism():
    schema = schema2(1, 10)
    a = offline_sample(schema, 50, seed=42)
    b = offline_sample(schema, 50, seed=42)
    assert np.array_equal(a, b)
    c = offline_sample(schema, 50, seed=43)
    assert not np.array_equal(a, c)


def test_sampling_uniform_mean():
    # mean of uniform{1..10} is 5.5, sd = sqrt(99/12); 3 standard errors
    schema = schema2(1, 10)
    zs = offline_sample(schema, 10_000, seed=7)
    se = math.sqrt(99.0 / 12.0 / 10_000)
    for dim in range(2):
        assert abs(zs[:, dim].mean() - 5.5) < 3 * se


def test_sample_bounds_respected():
    schema = StructuralSchema(("a", "b"), (2, 30), (4, 40))
    for z in offline_sample(schema, 200, seed=0):
        assert 2 <= z[0] <= 4
        assert 30 <= z[1] <= 40


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        StructuralSchema(("a",), (5,), (4,))


def test_fit_recovers_generating_weights():
    schema = schema2()
    zs = [(z1, z2) for z1 in range(1, 8) for z2 in range(1, 4)]
    profile = make_profile(schema, zs, lambda a, b: 1.5 * a + 0.2 * b,
                         lambda a, b: 3.0 * a + 7.0 * b)
    power = fit_linear(profile, LinTarget.POWER_W, folds=10, seed=1)
    assert power.weights[0] == pytest.approx(1.5, abs=1e-6)
    assert power.weights[1] == pytest.approx(0.2, abs=1e-6)
    memory = fit_linear(profile, LinTarget.MEMORY_MB, folds=10, seed=1)
    assert memory.weights == pytest.approx((3.0, 7.0), abs=1e-6)


def test_single_dimension_slope():
    schema = StructuralSchema(("n",), (1,), (10,))
    zs = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (2,)]
    profile = make_profile(schema, zs, lambda a: 2.0 * a, lambda a: 1.0 * a)
    model = fit_linear(profile, LinTarget.POWER_W, folds=10, seed=0)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-9)


def test_identical_points_rank_deficient():
    schema = schema2()
    profile = make_profile(schema, [(3, 4)] * 12, lambda a, b: 10.0, lambda a, b: 5.0)
    with pytest.raises(RankDeficientError) as err:
        fit_linear(profile, LinTarget.POWER_W)
    assert set(err.value.dimensions) <= {"units1", "units2"}
    assert err.value.dimensions  # names at least one offending dimension


def test_collinear_dimensions_named():
    schema = schema2()
    zs = [(k, 2 * k) for k in range(1, 13)]  # second dim is exactly twice the first
    profile = make_profile(schema, zs, lambda a, b: a + b, lambda a, b: a + b)
    with pytest.raises(RankDeficientError) as err:
        fit_linear(profile, LinTarget.POWER_W)
    assert set(err.value.dimensions) == {"units1", "units2"}


def test_ols_normal_equation_residual():
    rng = np.random.default_rng(17)
    schema = StructuralSchema(("a", "b", "c"), (1, 1, 1), (50, 50, 50))
    zs = [tuple(int(v) for v in rng.integers(1, 51, 3)) for _ in range(60)]
    profile = make_profile(schema, zs,
                         lambda a, b, c: 0.7 * a + 0.1 * b + 2.0 * c + rng.uniform(0, 5),
                         lambda a, b, c: a + b + c)
    model = fit_linear(profile, LinTarget.POWER_W, folds=10, seed=5)
    Z = np.asarray(profile.z, dtype=float)
    y = profile.power_w
    resid = Z.T @ (Z @ np.array(model.weights) - y)
    assert float(np.abs(resid).max()) < 1e-8


def test_cv_report_deterministic():
    schema = schema2()
    rng = np.random.default_rng(2)
    zs = [tuple(int(v) for v in rng.integers(1, 100, 2)) for _ in range(40)]
    profile = make_profile(schema, zs,
                         lambda a, b: 2.0 * a + 0.5 * b + 1.0,
                         lambda a, b: 0.1 * a + 0.9 * b + 2.0)
    a = fit_linear(profile, LinTarget.POWER_W, folds=10, seed=9)
    b = fit_linear(profile, LinTarget.POWER_W, folds=10, seed=9)
    assert a.cv_report == b.cv_report
    assert len(a.cv_report) == 10
    c = fit_linear(profile, LinTarget.POWER_W, folds=10, seed=10)
    assert a.cv_report != c.cv_report


def test_insufficient_points():
    schema = schema2()
    profile = make_profile(schema, [(1, 2), (3, 4), (5, 6)],
                         lambda a, b: a + b, lambda a, b: a + b)
    with pytest.raises(ValueError):
        fit_linear(profile, LinTarget.POWER_W, folds=10)


def test_prediction_is_raw_dot_product():
    model = LinearModel(("a", "b"), (1.5, 0.2), LinTarget.POWER_W)
    assert predict(model, [(10, 50)])[0] == pytest.approx(25.0)
    assert predict(model, [(0, 0)])[0] == 0.0
    assert predict(model, [(2, 4)])[0] == 2 * predict(model, [(1, 2)])[0]
    negative = LinearModel(("a",), (-2.0,), LinTarget.POWER_W)
    assert predict(negative, [(3,)])[0] == -6.0  # never clamped


def test_predict_dimension_mismatch():
    model = LinearModel(("a", "b"), (1.0, 1.0), LinTarget.POWER_W)
    with pytest.raises(ValueError):
        predict(model, [(1, 2, 3)])
    with pytest.raises(ValueError):  # one point is a one-row array
        predict(model, (1, 2))


def test_predict_target_guards():
    power = LinearModel(("a",), (1.0,), LinTarget.POWER_W)
    memory = LinearModel(("a",), (1.0,), LinTarget.MEMORY_MB)
    ConstraintSpec(1.0, 1.0, power, memory)
    with pytest.raises(ValueError):
        ConstraintSpec(1.0, 1.0, power, power)  # power as the memory model
    with pytest.raises(ValueError):
        ConstraintSpec(1.0, 1.0, memory, memory)  # memory as the power model
    with pytest.raises(ValueError):
        ConstraintSpec(1.0, 1.0, memory, power)  # swapped


def test_optional_bias_feature():
    schema = StructuralSchema(("n",), (1,), (20,))
    zs = [(k,) for k in range(1, 16)]
    profile = make_profile(schema, zs, lambda a: 3.0 * a + 10.0, lambda a: a + 1.0)
    model = fit_linear(profile, LinTarget.POWER_W, folds=10, seed=0, include_bias=True)
    assert model.has_bias
    assert model.weights[0] == pytest.approx(3.0, abs=1e-8)
    assert model.weights[1] == pytest.approx(10.0, abs=1e-8)
    assert predict(model, [(5,)])[0] == pytest.approx(25.0)


def test_point_bounds_validation():
    with pytest.raises(ValueError):
        Profile(("n",), np.array([[5]]), power_w=np.array([0.0]), memory_mb=np.array([1.0]))


def write_profiled_csv(profile: Profile) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(profile.names) + ["power_w", "memory_mb"])
    for z, power, memory in zip(profile.z.tolist(), profile.power_w.tolist(),
                                profile.memory_mb.tolist()):
        writer.writerow([*z, repr(power), repr(memory)])
    return out.getvalue()


def test_profiled_csv_round_trip():
    schema = StructuralSchema(("units1", "units2"), (1, 1), (64, 64))
    profile = make_profile(schema, [(1, 64), (32, 2), (64, 1)],
                         lambda a, b: 0.5 * a + 0.25 * b,
                         lambda a, b: float(a * b))
    text = write_profiled_csv(profile)
    assert text.splitlines()[0] == "units1,units2,power_w,memory_mb"
    loaded = read_profiled_csv(text)
    assert np.array_equal(loaded.z, profile.z)
    assert np.array_equal(loaded.power_w, profile.power_w)
    assert loaded.names == ("units1", "units2")


def test_model_json_round_trip():
    model = LinearModel(("a", "b"), (1.25, -0.5), LinTarget.MEMORY_MB, (3.0, 4.0), False)
    assert model_from_json(model_to_json(model)) == model
    with pytest.raises(ValueError):  # NaN is not JSON
        model_to_json(LinearModel(("a",), (math.nan,), LinTarget.POWER_W))
