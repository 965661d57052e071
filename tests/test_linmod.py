import csv
import io
import math

import numpy as np
import pytest

from hwcost.bayesopt import ConstraintSpec
from hwcost.linmod import (LinearModel, LinTarget, ProfiledPoint, RankDeficientError,
                           StructuralPoint, StructuralSchema, fit_linear, model_from_json,
                           model_to_json, offline_sample, predict, read_profiled_csv)


def schema2(lo=1, hi=100):
    return StructuralSchema(("units1", "units2"), (lo, lo), (hi, hi))


def make_points(schema, zs, power_fn, memory_fn):
    return [ProfiledPoint(StructuralPoint(z, schema), power_fn(*z), memory_fn(*z))
            for z in zs]


def test_degenerate_range_sampling():
    schema = StructuralSchema(("n",), (5,), (5,))
    points = offline_sample(schema, 20, seed=3)
    assert all(p.z == (5,) for p in points)


def test_sampling_determinism():
    schema = schema2(1, 10)
    a = offline_sample(schema, 50, seed=42)
    b = offline_sample(schema, 50, seed=42)
    assert [p.z for p in a] == [p.z for p in b]
    c = offline_sample(schema, 50, seed=43)
    assert [p.z for p in a] != [p.z for p in c]


def test_sampling_uniform_mean():
    # mean of uniform{1..10} is 5.5, sd = sqrt(99/12); 3 standard errors
    schema = schema2(1, 10)
    points = offline_sample(schema, 10_000, seed=7)
    zs = np.array([p.z for p in points])
    se = math.sqrt(99.0 / 12.0 / 10_000)
    for dim in range(2):
        assert abs(zs[:, dim].mean() - 5.5) < 3 * se


def test_sample_bounds_respected():
    schema = StructuralSchema(("a", "b"), (2, 30), (4, 40))
    for p in offline_sample(schema, 200, seed=0):
        assert 2 <= p.z[0] <= 4
        assert 30 <= p.z[1] <= 40


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        StructuralSchema(("a",), (5,), (4,))


def test_fit_recovers_generating_weights():
    schema = schema2()
    zs = [(z1, z2) for z1 in range(1, 8) for z2 in range(1, 4)]
    points = make_points(schema, zs, lambda a, b: 1.5 * a + 0.2 * b,
                         lambda a, b: 3.0 * a + 7.0 * b)
    power = fit_linear(points, LinTarget.POWER_W, folds=10, seed=1)
    assert power.weights[0] == pytest.approx(1.5, abs=1e-6)
    assert power.weights[1] == pytest.approx(0.2, abs=1e-6)
    memory = fit_linear(points, LinTarget.MEMORY_MB, folds=10, seed=1)
    assert memory.weights == pytest.approx((3.0, 7.0), abs=1e-6)


def test_single_dimension_slope():
    schema = StructuralSchema(("n",), (1,), (10,))
    zs = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (2,)]
    points = make_points(schema, zs, lambda a: 2.0 * a, lambda a: 1.0 * a)
    model = fit_linear(points, LinTarget.POWER_W, folds=10, seed=0)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-9)


def test_identical_points_rank_deficient():
    schema = schema2()
    points = make_points(schema, [(3, 4)] * 12, lambda a, b: 10.0, lambda a, b: 5.0)
    with pytest.raises(RankDeficientError) as err:
        fit_linear(points, LinTarget.POWER_W)
    assert set(err.value.dimensions) <= {"units1", "units2"}
    assert err.value.dimensions  # names at least one offending dimension


def test_collinear_dimensions_named():
    schema = schema2()
    zs = [(k, 2 * k) for k in range(1, 13)]  # second dim is exactly twice the first
    points = make_points(schema, zs, lambda a, b: a + b, lambda a, b: a + b)
    with pytest.raises(RankDeficientError) as err:
        fit_linear(points, LinTarget.POWER_W)
    assert set(err.value.dimensions) == {"units1", "units2"}


def test_ols_normal_equation_residual():
    rng = np.random.default_rng(17)
    schema = StructuralSchema(("a", "b", "c"), (1, 1, 1), (50, 50, 50))
    zs = [tuple(int(v) for v in rng.integers(1, 51, 3)) for _ in range(60)]
    points = make_points(schema, zs,
                         lambda a, b, c: 0.7 * a + 0.1 * b + 2.0 * c + rng.uniform(0, 5),
                         lambda a, b, c: a + b + c)
    model = fit_linear(points, LinTarget.POWER_W, folds=10, seed=5)
    Z = np.array([p.z.z for p in points], dtype=float)
    y = np.array([p.power_w for p in points])
    resid = Z.T @ (Z @ np.array(model.weights) - y)
    assert float(np.abs(resid).max()) < 1e-8


def test_cv_report_deterministic():
    schema = schema2()
    rng = np.random.default_rng(2)
    zs = [tuple(int(v) for v in rng.integers(1, 100, 2)) for _ in range(40)]
    points = make_points(schema, zs,
                         lambda a, b: 2.0 * a + 0.5 * b + 1.0,
                         lambda a, b: 0.1 * a + 0.9 * b + 2.0)
    a = fit_linear(points, LinTarget.POWER_W, folds=10, seed=9)
    b = fit_linear(points, LinTarget.POWER_W, folds=10, seed=9)
    assert a.cv_report == b.cv_report
    assert len(a.cv_report) == 10
    c = fit_linear(points, LinTarget.POWER_W, folds=10, seed=10)
    assert a.cv_report != c.cv_report


def test_insufficient_points():
    schema = schema2()
    points = make_points(schema, [(1, 2), (3, 4), (5, 6)],
                         lambda a, b: a + b, lambda a, b: a + b)
    with pytest.raises(ValueError):
        fit_linear(points, LinTarget.POWER_W, folds=10)


def test_prediction_is_raw_dot_product():
    model = LinearModel(("a", "b"), (1.5, 0.2), LinTarget.POWER_W)
    assert predict(model, (10, 50)) == pytest.approx(25.0)
    assert predict(model, (0, 0)) == 0.0
    assert predict(model, (2, 4)) == 2 * predict(model, (1, 2))
    negative = LinearModel(("a",), (-2.0,), LinTarget.POWER_W)
    assert predict(negative, (3,)) == -6.0  # never clamped


def test_predict_dimension_mismatch():
    model = LinearModel(("a", "b"), (1.0, 1.0), LinTarget.POWER_W)
    with pytest.raises(ValueError):
        predict(model, (1, 2, 3))


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
    points = make_points(schema, zs, lambda a: 3.0 * a + 10.0, lambda a: a + 1.0)
    model = fit_linear(points, LinTarget.POWER_W, folds=10, seed=0, include_bias=True)
    assert model.has_bias
    assert model.weights[0] == pytest.approx(3.0, abs=1e-8)
    assert model.weights[1] == pytest.approx(10.0, abs=1e-8)
    assert predict(model, (5,)) == pytest.approx(25.0)


def test_point_bounds_validation():
    schema = StructuralSchema(("n",), (1,), (10,))
    with pytest.raises(ValueError):
        StructuralPoint((11,), schema)
    with pytest.raises(ValueError):
        ProfiledPoint(StructuralPoint((5,), schema), power_w=0.0, memory_mb=1.0)


def write_profiled_csv(points: list[ProfiledPoint]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(points[0].z.schema.names) + ["power_w", "memory_mb"])
    for point in points:
        writer.writerow([*point.z.z, repr(point.power_w), repr(point.memory_mb)])
    return out.getvalue()


def test_profiled_csv_round_trip():
    schema = StructuralSchema(("units1", "units2"), (1, 1), (64, 64))
    points = make_points(schema, [(1, 64), (32, 2), (64, 1)],
                         lambda a, b: 0.5 * a + 0.25 * b,
                         lambda a, b: float(a * b))
    text = write_profiled_csv(points)
    assert text.splitlines()[0] == "units1,units2,power_w,memory_mb"
    loaded = read_profiled_csv(text)
    assert [p.z.z for p in loaded] == [p.z.z for p in points]
    assert [p.power_w for p in loaded] == [p.power_w for p in points]
    assert loaded[0].z.schema.names == ("units1", "units2")


def test_model_json_round_trip():
    model = LinearModel(("a", "b"), (1.25, -0.5), LinTarget.MEMORY_MB, (3.0, 4.0), False)
    assert model_from_json(model_to_json(model)) == model
    with pytest.raises(ValueError):  # NaN is not JSON
        model_to_json(LinearModel(("a",), (math.nan,), LinTarget.POWER_W))
