import json

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LinearMap, Lorentz, Lp, LogF
from logmaj.errors import ShapeMismatch
from logmaj.jordan import random_plan
from logmaj.sampling import gaussian, rng_for
from logmaj.serialize import (decode_algebra, decode_linear_map,
                              decode_norm_spec, decode_operator, decode_plan,
                              decode_step_function, encode_algebra,
                              encode_linear_map, encode_norm_spec,
                              encode_operator, encode_plan,
                              encode_step_function, jsonable)
from logmaj.stepfun import StepFunction


def test_algebra_round_trip():
    alg = FiniteAlgebra(((2, 1.0), (3, 0.25)))
    assert decode_algebra(encode_algebra(alg)) == alg


def test_operator_round_trip():
    rng = rng_for(110, "ser-op")
    alg = FiniteAlgebra(((2, 1.0), (3, 2.0)))
    x = gaussian(alg, rng)
    y = decode_operator(json.loads(json.dumps(encode_operator(x))))
    assert y.algebra == alg
    assert y.isclose(x, tol=0.0) or (y - x).norm_inf() == 0.0


def test_step_function_round_trip():
    f = StepFunction(((3.0, 1.0), (1.5, 0.5), (0.0, 2.0)))
    assert decode_step_function(json.loads(json.dumps(encode_step_function(f)))) == f


def test_norm_spec_round_trips():
    w = StepFunction(((2.0, 4.0), (1.0, 4.0)))
    for spec in (Lp(0.5), Lp(2.0), Lorentz(1.0, w), LogF()):
        data = json.loads(json.dumps(encode_norm_spec(spec)))
        assert decode_norm_spec(data) == spec


def test_linear_map_round_trip():
    alg = FiniteAlgebra(((2, 1.0), (1, 3.0)))
    m = LinearMap.transpose_map(alg)
    back = decode_linear_map(json.loads(json.dumps(encode_linear_map(m))))
    assert back.domain == alg and back.codomain == alg
    assert np.array_equal(back.matrix, m.matrix)


def test_plan_round_trip():
    rng = rng_for(111, "ser-plan")
    plan = random_plan(rng, fanout=True)
    assert decode_plan(json.loads(json.dumps(encode_plan(plan)))) == plan


def test_malformed_inputs_raise_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        decode_algebra({"wrong": []})
    with pytest.raises(ShapeMismatch):
        decode_operator({"algebra": {"blocks": [{"dim": 2, "weight": 1.0}]}})
    with pytest.raises(ShapeMismatch):
        decode_norm_spec({"type": "banana"})
    with pytest.raises(ShapeMismatch):
        decode_step_function({"pieces": [{"value": 1.0}]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entries_raise_shape_mismatch(bad):
    alg = FiniteAlgebra(((2, 1.0),))
    doc = encode_operator(alg.identity())
    doc["blocks"][0][1][0] = [0.0, bad]
    with pytest.raises(ShapeMismatch, match="finite"):
        decode_operator(doc)
    m = encode_linear_map(LinearMap(alg, alg, np.eye(4, dtype=complex)))
    m["matrix"][2][3] = [bad, 0.0]
    with pytest.raises(ShapeMismatch, match="finite"):
        decode_linear_map(m)


def test_jsonable_handles_nonfinite_and_numpy():
    doc = jsonable({
        "a": np.float64(1.5),
        "b": float("-inf"),
        "c": np.array([1.0, float("inf")]),
        "d": np.int32(7),
        "e": (True, np.bool_(False)),
    })
    text = json.dumps(doc)  # must be strict JSON
    assert json.loads(text) == {
        "a": 1.5, "b": "-inf", "c": [1.0, "inf"], "d": 7, "e": [True, False]}
