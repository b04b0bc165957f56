"""The CLI's exit contract on hostile input files: every verb, given a
malformed or non-finite JSON document in any of its input files (the
``--tolerances`` file included), exits 2 and writes exactly one JSON error
object, with no traceback.  The documents are valid ones with one node
corrupted: a required key removed, a value of the wrong JSON type, a
non-finite number, a wrong top-level type, or truncated text."""

import contextlib
import io
import json
import math
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from logmaj import FiniteAlgebra, LinearMap
from logmaj.cli import main
from logmaj.serialize import encode_linear_map, encode_operator

_ALG = {"blocks": [{"dim": 2, "weight": 1.0}, {"dim": 1, "weight": 0.5}]}
_M2 = {"blocks": [{"dim": 2, "weight": 1.0}]}
_PLAN = {"domain": _M2, "codomain": _M2,
         "entries": [{"source": 0, "target": 0, "transpose": True, "unitary_seed": 3}]}
_LP = {"type": "lp", "p": 2.0}

VALID = {
    "operator": encode_operator(FiniteAlgebra(((2, 1.0), (1, 0.5))).diagonal(
        [[3.0, 1.0], [2.0]])),
    "step": {"pieces": [{"value": 2.0, "width": 1.0}, {"value": 1.0, "width": 2.0}]},
    "norm": _LP,
    "lorentz": {"type": "lorentz", "p": 1.0,
                "weight": {"pieces": [{"value": 1.0, "width": 8.0}]}},
    "map": encode_linear_map(LinearMap.identity(FiniteAlgebra.full(2))),
    "plan": _PLAN,
    "synth": {"plan": _PLAN, "b_blocks": [1.0], "norm_domain": _LP, "norm_codomain": _LP},
    "tolerances": {"maj": 1e-8, "jordan": 1e-8},
}
assert VALID["operator"]["algebra"] == _ALG

# each verb, the kinds of its input files and its trailing options
VERBS = [
    (["mu"], ["operator"], []),
    (["det"], ["operator"], []),
    (["norm"], ["norm", "operator"], []),
    (["norm"], ["lorentz", "operator"], []),
    (["majorize"], ["step", "step"], []),
    (["majorize", "--log"], ["step", "step"], []),
    (["jordan", "verify"], ["map"], []),
    (["jordan", "split"], ["map"], []),
    (["jordan", "random"], ["plan"], []),
    (["isometry", "analyze"], ["map", "norm", "lorentz"], ["--trials", "2"]),
    (["isometry", "synth"], ["synth"], []),
    (["isometry", "reflect"], ["map", "norm"], ["--trials", "2"]),
    (["suite", "run", "--only", "sum-diff", "--trials", "1"], [], []),
]

NON_FINITE = [math.nan, math.inf, -math.inf]
# values of another JSON type than the node they replace
WRONG = {
    "number": [None, True, False, "1", [1.0], {"v": 1.0}],
    "bool": [None, 0, 1, "true", [True], {"v": True}],
    "string": [None, 1, True, ["lp"], {"type": "lp"}, "bogus"],
    "list": [None, 1, 2.5, True, {"v": 1}],
    "dict": [None, 1, True, "blocks", [1]],
}


def _kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "dict"}[type(value)]


def _nodes(doc, path=()):
    """(path, value) of every node, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(value, path + (key,))


_DELETE = object()


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def corrupted(draw, kind: str) -> str:
    """The text of ``VALID[kind]`` with one corruption."""
    doc = VALID[kind]
    how = draw(st.sampled_from(["node", "node", "node", "truncate"]))
    if how == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    path, value = draw(st.sampled_from(list(_nodes(doc))))
    choices = list(WRONG[_kind(value)])
    if _kind(value) == "number":
        choices += NON_FINITE
    if path and isinstance(path[-1], str) and kind != "tolerances":
        choices.append(_DELETE)  # every key of these documents is required
    return json.dumps(_replace(doc, path, draw(st.sampled_from(choices))))


@st.composite
def invocations(draw):
    verb, kinds, options = draw(st.sampled_from(VERBS))
    files = list(kinds) + ["tolerances"]
    bad = draw(st.sampled_from(range(len(files))))
    texts = [draw(corrupted(kind)) if i == bad else json.dumps(VALID[kind])
             for i, kind in enumerate(files)]
    return verb, options, texts


def _run(verb, options, texts) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = pathlib.Path(tmp) / f"in{i}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(verb + ["--tolerances", paths[-1]] + paths[:-1] + options)
    return code, out.getvalue(), err.getvalue()


def test_valid_documents_run():
    for verb, kinds, options in VERBS:
        code, out, err = _run(verb, options, [json.dumps(VALID[k]) for k in kinds + ["tolerances"]])
        assert code in (0, 1), (verb, out)
        assert "error" not in json.loads(out)


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_corrupted_inputs_exit_2_with_one_error(invocation):
    code, out, err = _run(*invocation)
    assert code == 2, (invocation, out)
    doc = json.loads(out)  # one JSON document, nothing after it
    assert list(doc) == ["error"] and sorted(doc["error"]) == ["message", "type"], out
    assert "Traceback" not in err
