import json

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LinearMap, Lorentz, Lp, LogF
from logmaj.errors import ShapeMismatch
from logmaj.jordan import random_plan
from logmaj.sampling import gaussian, rng_for
from logmaj.serialize import (decode_algebra, decode_linear_map,
                              decode_norm_spec, decode_operator, decode_plan,
                              decode_step_function, decode_synth_spec,
                              encode_algebra,
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


def _plan_doc(**entry):
    alg = {"blocks": [{"dim": 2, "weight": 1.0}]}
    base = {"source": 0, "target": 0, "transpose": False, "unitary_seed": 3}
    return {"domain": alg, "codomain": alg, "entries": [{**base, **entry}]}


@pytest.mark.parametrize("doc, field", [
    (_plan_doc(transpose="false"), "transpose"),
    (_plan_doc(transpose=0), "transpose"),
    (_plan_doc(target=0.9), "target"),
    (_plan_doc(source=True), "source"),
    (_plan_doc(unitary_seed=3.7), "unitary_seed"),
    (_plan_doc(unitary_seed="3"), "unitary_seed"),
])
def test_decode_plan_rejects_coercible_fields(doc, field):
    with pytest.raises(ShapeMismatch, match=field):
        decode_plan(doc)


@pytest.mark.parametrize("block, field", [
    ({"dim": 2.9, "weight": 1.0}, "dim"),
    ({"dim": 2.0, "weight": 1.0}, "dim"),
    ({"dim": True, "weight": 1.0}, "dim"),
    ({"dim": 2, "weight": True}, "weight"),
    ({"dim": 2, "weight": "1.0"}, "weight"),
    ({"dim": 2, "weight": 10 ** 400}, "weight"),
])
def test_decode_algebra_rejects_coercible_fields(block, field):
    with pytest.raises(ShapeMismatch, match=field):
        decode_algebra({"blocks": [block]})


@pytest.mark.parametrize("spec, field", [
    ({"type": "lp", "p": True}, "p"),
    ({"type": "lp", "p": "2"}, "p"),
    ({"type": "lorentz", "p": 1, "weight": {"pieces": [{"value": "2", "width": 1.0}]}},
     "value"),
    ({"type": "lorentz", "p": 1, "weight": {"pieces": [{"value": 2.0, "width": False}]}},
     "width"),
])
def test_decode_norm_spec_rejects_non_numbers(spec, field):
    with pytest.raises(ShapeMismatch, match=field):
        decode_norm_spec(spec)


@pytest.mark.parametrize("entry", [[1, 0, 3], [1], [], 1.0, [True, 0.0], ["1", 0.0],
                                   [1.0, None], {"re": 1.0, "im": 0.0}])
def test_matrix_entry_must_be_a_number_pair(entry):
    doc = encode_operator(FiniteAlgebra(((2, 1.0),)).identity())
    doc["blocks"][0][0][1] = entry
    with pytest.raises(ShapeMismatch, match="matrix"):
        decode_operator(doc)


def test_well_formed_json_numbers_decode_unchanged():
    alg = decode_algebra({"blocks": [{"dim": 2, "weight": 1}, {"dim": 1, "weight": 0.5}]})
    assert alg == FiniteAlgebra(((2, 1.0), (1, 0.5)))
    assert decode_norm_spec({"type": "lp", "p": 2}) == Lp(2.0)
    doc = encode_operator(FiniteAlgebra.full(1).identity())
    doc["blocks"][0][0][0] = [2, -1]
    assert decode_operator(doc).blocks[0][0, 0] == 2 - 1j
    plan = decode_plan(_plan_doc(transpose=True))
    assert plan.entries[0].transpose is True and plan.entries[0].unitary_seed == 3


def _synth_doc(**fields):
    lp = {"type": "lp", "p": 1}
    doc = {"plan": _plan_doc(), "b_blocks": [1.0], "norm_domain": lp, "norm_codomain": lp}
    doc.update(fields)
    return {k: v for k, v in doc.items() if v is not None}


def test_decode_synth_spec_takes_json_numbers():
    spec = decode_synth_spec(_synth_doc(b_blocks=[1]))
    assert spec.b_blocks == (1.0,) and spec.calibrated
    assert spec.plan == decode_plan(_plan_doc())


@pytest.mark.parametrize("doc, message", [
    (_synth_doc(b_blocks=["1.0"]), "b_blocks"),
    (_synth_doc(b_blocks=[True]), "b_blocks"),
    (_synth_doc(b_blocks=["nan"]), "b_blocks"),
    (_synth_doc(b_blocks=[float("nan")]), "finite"),
    (_synth_doc(b_blocks=[float("inf")]), "finite"),
    (_synth_doc(b_blocks=1.0), "list"),
    (_synth_doc(b_blocks={"0": 1.0}), "list"),
    ({"plan": _plan_doc(), "norm_domain": {"type": "log"},
      "norm_codomain": {"type": "log"}}, "b_blocks"),
    (_synth_doc(plan=None), "plan"),
    (_synth_doc(norm_codomain={"type": "lp", "p": "1"}), "p"),
    ([1.0], "synth spec"),
])
def test_decode_synth_spec_rejects_malformed_fields(doc, message):
    with pytest.raises(ShapeMismatch, match=message):
        decode_synth_spec(doc)
