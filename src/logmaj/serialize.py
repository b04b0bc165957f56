"""JSON wire formats shared by the CLI.

Formats:

* algebra:       ``{"blocks": [{"dim": n, "weight": c}, ...]}``
* operator:      ``{"algebra": {...}, "blocks": [[[re, im], ...], ...]}``
  with row-major block matrices, entries as [re, im] pairs
* step function: ``{"pieces": [{"value": v, "width": w}, ...]}``
* norm spec:     ``{"type": "lp", "p": 2}``,
                 ``{"type": "lorentz", "p": 1, "weight": {...}}``,
                 ``{"type": "log"}``
* linear map:    ``{"domain": {...}, "codomain": {...}, "matrix": [[[re, im], ...], ...]}``
  in the canonical blockwise row-major matrix-unit basis
* plan:          ``{"domain": {...}, "codomain": {...}, "entries": [...]}``
* synth spec:    ``{"plan": {...}, "b_blocks": [b, ...], "norm_domain": {...},
  "norm_codomain": {...}}``

Non-finite floats are encoded as the strings "inf", "-inf", "nan" so the
emitted documents stay strict JSON.

Decoding takes the JSON types at their word: ``dim``, ``source``,
``target`` and ``unitary_seed`` must be JSON integers, ``transpose`` a
JSON boolean, weights, values, widths and ``p`` JSON numbers (a boolean
is neither an integer nor a number here), ``b_blocks`` a list of finite
JSON numbers, and a matrix entry exactly a ``[re, im]`` pair of numbers.
Anything else, a missing field included, raises ``ShapeMismatch``;
nothing is coerced.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .algebra import FiniteAlgebra, Operator
from .errors import ShapeMismatch
from .isometry import SynthSpec
from .jordan import JordanPlan, LinearMap, PlanEntry
from .norms import LogF, Lorentz, Lp, NormSpec
from .stepfun import StepFunction


def jsonable(value: Any) -> Any:
    """Recursively convert to JSON-safe primitives (strict JSON floats)."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def encode_algebra(alg: FiniteAlgebra) -> dict:
    return {"blocks": [{"dim": d, "weight": c} for d, c in alg.blocks]}


def _integer(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ShapeMismatch(f"{field} must be a JSON integer, got {value!r}")
    return value


def _number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ShapeMismatch(f"{field} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ShapeMismatch(f"{field} is too large for a float") from exc


def _boolean(value: Any, field: str) -> bool:
    if not isinstance(value, bool):
        raise ShapeMismatch(f"{field} must be a JSON boolean, got {value!r}")
    return value


def decode_algebra(data: dict) -> FiniteAlgebra:
    try:
        blocks = tuple((_integer(b["dim"], "dim"), _number(b["weight"], "weight"))
                       for b in data["blocks"])
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed algebra object: {exc}") from exc
    return FiniteAlgebra(blocks)


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _decode_entry(entry: Any) -> complex:
    if not (isinstance(entry, list) and len(entry) == 2):
        raise ShapeMismatch(f"matrix entry must be a [re, im] pair, got {entry!r}")
    return complex(_number(entry[0], "matrix entry"), _number(entry[1], "matrix entry"))


def _decode_matrix(rows: list) -> np.ndarray:
    try:
        m = np.array([[_decode_entry(e) for e in row] for row in rows],
                     dtype=complex)
    except TypeError as exc:
        raise ShapeMismatch(f"malformed complex matrix: {exc}") from exc
    if not np.isfinite(m).all():
        raise ShapeMismatch("matrix entries must be finite (got NaN or infinity)")
    return m


def encode_operator(x: Operator) -> dict:
    return {
        "algebra": encode_algebra(x.algebra),
        "blocks": [_encode_matrix(b) for b in x.blocks],
    }


def decode_operator(data: dict) -> Operator:
    try:
        alg = decode_algebra(data["algebra"])
        blocks = [_decode_matrix(b) for b in data["blocks"]]
    except KeyError as exc:
        raise ShapeMismatch(f"operator object missing field {exc}") from exc
    return Operator(alg, blocks)


def encode_step_function(f: StepFunction) -> dict:
    return {"pieces": [{"value": v, "width": w} for v, w in f.pieces]}


def decode_step_function(data: dict) -> StepFunction:
    try:
        pieces = tuple((_number(p["value"], "value"), _number(p["width"], "width"))
                       for p in data["pieces"])
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed step function object: {exc}") from exc
    return StepFunction(pieces)


def encode_norm_spec(spec: NormSpec) -> dict:
    if isinstance(spec, Lp):
        return {"type": "lp", "p": spec.p}
    if isinstance(spec, Lorentz):
        return {"type": "lorentz", "p": spec.p, "weight": encode_step_function(spec.weight)}
    return {"type": "log"}


def decode_norm_spec(data: dict) -> NormSpec:
    try:
        kind = data["type"]
        if kind == "lp":
            return Lp(_number(data["p"], "p"))
        if kind == "lorentz":
            return Lorentz(_number(data["p"], "p"), decode_step_function(data["weight"]))
        if kind == "log":
            return LogF()
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeMismatch(f"malformed norm spec: {exc}") from exc
    raise ShapeMismatch(f"unknown norm spec type {kind!r}")


def encode_linear_map(m: LinearMap) -> dict:
    return {
        "domain": encode_algebra(m.domain),
        "codomain": encode_algebra(m.codomain),
        "matrix": _encode_matrix(m.matrix),
    }


def decode_linear_map(data: dict) -> LinearMap:
    try:
        return LinearMap(decode_algebra(data["domain"]),
                         decode_algebra(data["codomain"]),
                         _decode_matrix(data["matrix"]))
    except KeyError as exc:
        raise ShapeMismatch(f"linear map object missing field {exc}") from exc


def encode_plan(plan: JordanPlan) -> dict:
    return {
        "domain": encode_algebra(plan.domain),
        "codomain": encode_algebra(plan.codomain),
        "entries": [
            {"source": e.source, "target": e.target,
             "transpose": e.transpose, "unitary_seed": e.unitary_seed}
            for e in plan.entries
        ],
    }


def decode_plan(data: dict) -> JordanPlan:
    try:
        entries = tuple(PlanEntry(_integer(e["source"], "source"),
                                  _integer(e["target"], "target"),
                                  _boolean(e["transpose"], "transpose"),
                                  _integer(e["unitary_seed"], "unitary_seed"))
                        for e in data["entries"])
        return JordanPlan(decode_algebra(data["domain"]),
                          decode_algebra(data["codomain"]), entries)
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed plan object: {exc}") from exc


def decode_synth_spec(data: dict) -> SynthSpec:
    try:
        plan, b_blocks = data["plan"], data["b_blocks"]
        norm_domain, norm_codomain = data["norm_domain"], data["norm_codomain"]
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed synth spec: {exc}") from exc
    if not isinstance(b_blocks, list):
        raise ShapeMismatch(f"b_blocks must be a JSON list, got {b_blocks!r}")
    betas = tuple(_number(b, "b_blocks entry") for b in b_blocks)
    if not all(math.isfinite(b) for b in betas):
        raise ShapeMismatch("b_blocks entries must be finite (got NaN or infinity)")
    return SynthSpec(decode_plan(plan), betas, decode_norm_spec(norm_domain),
                     decode_norm_spec(norm_codomain))
