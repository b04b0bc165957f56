import json

import numpy as np
import pytest

from logmaj import FiniteAlgebra
from logmaj.cli import main
from logmaj.serialize import (encode_linear_map, encode_operator,
                              encode_plan, encode_step_function)
from logmaj.stepfun import StepFunction


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def diag23(tmp_path):
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([2.0, 3.0])])
    return write(tmp_path, "x.json", encode_operator(x))


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_mu_subcommand(diag23, capsys):
    code, doc = run_cli(capsys, ["mu", diag23])
    assert code == 0
    assert doc["pieces"] == [{"value": 3.0, "width": 1.0}, {"value": 2.0, "width": 1.0}]


def test_det_subcommand(diag23, capsys):
    code, doc = run_cli(capsys, ["det", diag23])
    assert code == 0
    assert doc["det"] == pytest.approx(6.0)
    assert doc["log_det"] == pytest.approx(np.log(6.0))


def test_norm_subcommand(diag23, tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"type": "lp", "p": 2})
    code, doc = run_cli(capsys, ["norm", spec, diag23])
    assert code == 0
    assert doc["norm"] == pytest.approx(np.sqrt(13.0))


def test_majorize_log_pair(tmp_path, capsys):
    b = write(tmp_path, "b.json",
              encode_step_function(StepFunction(((2.0, 2.0),))))
    a = write(tmp_path, "a.json",
              encode_step_function(StepFunction(((4.0, 1.0), (1.0, 1.0)))))
    code, doc = run_cli(capsys, ["majorize", "--log", b, a])
    assert code == 0
    assert doc["holds"] is True

    code, doc = run_cli(capsys, ["majorize", b, a])  # plain: 4 >= 4 at t=2, ok
    assert code == 0

    code, doc = run_cli(capsys, ["majorize", "--log", a, b])  # reversed fails
    assert code == 1
    assert doc["holds"] is False


def test_jordan_verify_subcommand(tmp_path, capsys):
    from logmaj import LinearMap

    alg = FiniteAlgebra.full(3)
    path = write(tmp_path, "map.json", encode_linear_map(LinearMap.transpose_map(alg)))
    code, doc = run_cli(capsys, ["jordan", "verify", path])
    assert code == 0
    assert doc["jordan"] is True

    n = alg.vector_dim
    bad = LinearMap(alg, alg, np.ones((n, n), dtype=complex) / n)
    path = write(tmp_path, "bad.json", encode_linear_map(bad))
    code, doc = run_cli(capsys, ["jordan", "verify", path])
    assert code == 1
    assert doc["jordan"] is False
    assert doc["worst"]["witness"] is not None


def test_jordan_verify_seed_is_ignored(tmp_path, capsys):
    # the certificate is complete, so --seed (still accepted) changes no byte
    from logmaj import LinearMap

    alg = FiniteAlgebra(((2, 1.0), (1, 2.0)))
    n = alg.vector_dim
    maps = [LinearMap.transpose_map(alg),
            LinearMap(alg, alg, np.eye(n) + 0.05 * np.arange(n * n).reshape(n, n) / n)]
    for i, m in enumerate(maps):
        path = write(tmp_path, f"map{i}.json", encode_linear_map(m))
        outputs = []
        for extra in ([], ["--seed", "1"], ["--seed", "2"]):
            code = main(["jordan", "verify", path] + extra)
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0][0] == i
        assert outputs[1:] == outputs[:1] * 2


def test_jordan_split_subcommand(tmp_path, capsys):
    from logmaj import LinearMap

    alg = FiniteAlgebra.full(2)
    path = write(tmp_path, "map.json", encode_linear_map(LinearMap.transpose_map(alg)))
    code, doc = run_cli(capsys, ["jordan", "split", path])
    assert code == 0
    assert [s["kind"] for s in doc["summands"]] == ["anti"]
    # the split is seedless: a --seed is a usage error
    code, doc = run_cli(capsys, ["jordan", "split", path, "--seed", "3"])
    assert code == 2
    assert doc["error"]["type"] == "UsageError"


def test_jordan_random_subcommand(tmp_path, capsys):
    from logmaj.jordan import random_plan
    from logmaj.sampling import rng_for

    plan = random_plan(rng_for(120, "cli-plan"))
    path = write(tmp_path, "plan.json", encode_plan(plan))
    code, doc = run_cli(capsys, ["jordan", "random", path])
    assert code == 0
    assert doc["certificate"]["selfadjoint_ok"] is True


def test_isometry_synth_and_analyze(tmp_path, capsys):
    from logmaj import JordanPlan, PlanEntry

    dom = FiniteAlgebra.full(2)
    cod = FiniteAlgebra(((2, 1.0), (2, 1.0)))
    plan = JordanPlan(dom, cod, (PlanEntry(0, 0, False, 1), PlanEntry(0, 1, True, 2)))
    synth = write(tmp_path, "synth.json", {
        "plan": encode_plan(plan),
        "b_blocks": [0.5, 0.5],
        "norm_domain": {"type": "lp", "p": 1},
        "norm_codomain": {"type": "lp", "p": 1},
    })
    code, doc = run_cli(capsys, ["isometry", "synth", synth])
    assert code == 0
    assert doc["calibrated"] is True

    map_path = write(tmp_path, "t.json", doc["map"])
    e = write(tmp_path, "e.json", {"type": "lp", "p": 1})
    f = write(tmp_path, "f.json", {"type": "lp", "p": 1})
    code, doc = run_cli(capsys, ["isometry", "analyze", map_path, e, f,
                                 "--trials", "30", "--seed", "5"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["chain"]["first_broken"] is None


def test_isometry_analyze_of_a_map_with_a_huge_entry_exits_2(tmp_path, capsys):
    from logmaj import LinearMap

    alg = FiniteAlgebra.full(2)
    matrix = np.array(LinearMap.identity(alg).matrix)
    matrix[0, 0] = 1e200
    map_path = write(tmp_path, "t.json", encode_linear_map(LinearMap(alg, alg, matrix)))
    e = write(tmp_path, "e.json", {"type": "lp", "p": 2})
    code, doc = run_cli(capsys, ["isometry", "analyze", map_path, e, e, "--trials", "2"])
    assert code == 2
    assert doc["error"]["type"] == "ClassificationFailure"


def test_isometry_reflect_subcommand(tmp_path, capsys):
    from logmaj import LinearMap

    alg = FiniteAlgebra.full(2)
    path = write(tmp_path, "t.json", encode_linear_map(LinearMap.identity(alg)))
    f = write(tmp_path, "f.json", {"type": "lp", "p": 1})
    code, doc = run_cli(capsys, ["isometry", "reflect", path, f, "--trials", "20"])
    assert code == 0
    assert doc["ok"] is True


def test_isometry_reflect_verdict_does_not_change_with_the_scale(tmp_path, capsys):
    """The singularity gate is relative to the largest singular value, so
    an invertible map scaled by c keeps its verdict and exit code."""
    from logmaj import LinearMap, synthesize
    from logmaj.sampling import rng_for
    from logmaj.suites import _invertible_synth_spec

    T = synthesize(_invertible_synth_spec(rng_for(1, "surjective-reflection", 0), 2.0))
    f = write(tmp_path, "f.json", {"type": "lp", "p": 2})
    runs = {}
    for exponent in range(-12, 13):
        scaled = LinearMap(T.domain, T.codomain, 10.0 ** exponent * T.matrix)
        path = write(tmp_path, "t.json", encode_linear_map(scaled))
        code, doc = run_cli(capsys, ["isometry", "reflect", path, f, "--trials", "20"])
        runs[exponent] = (code, doc["ok"])
    assert runs[0] == (0, True)
    assert set(runs.values()) == {runs[0]}


def test_error_exit_code_and_payload(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, doc = run_cli(capsys, ["mu", str(bad)])
    assert code == 2
    assert "error" in doc

    missing = str(tmp_path / "missing.json")
    code, doc = run_cli(capsys, ["det", missing])
    assert code == 2

    spec = write(tmp_path, "spec.json", {"type": "banana"})
    op = write(tmp_path, "op.json",
               encode_operator(FiniteAlgebra.full(2).identity()))
    code, doc = run_cli(capsys, ["norm", spec, op])
    assert code == 2
    assert doc["error"]["type"] == "ShapeMismatch"


def test_det_overflow_reports_inf(tmp_path, capsys):
    op = write(tmp_path, "big.json",
               encode_operator(FiniteAlgebra.full(2).diagonal([[1e200, 1e200]])))
    code, doc = run_cli(capsys, ["det", op])
    assert code == 0
    assert doc == {"det": "inf", "log_det": 2.0 * np.log(1e200)}


def test_det_underflow_and_singular_are_told_apart_by_log_det(tmp_path, capsys):
    small = write(tmp_path, "small.json", encode_operator(
        FiniteAlgebra(((1, 100.0),)).diagonal([[1e-5]])))
    singular = write(tmp_path, "singular.json", encode_operator(
        FiniteAlgebra.full(2).diagonal([[1.0, 0.0]])))
    code, doc = run_cli(capsys, ["det", small])
    assert code == 0 and doc["det"] == 0.0
    assert doc["log_det"] == pytest.approx(100.0 * np.log(1e-5), rel=1e-12)
    code, doc = run_cli(capsys, ["det", singular])
    assert code == 0 and doc == {"det": 0.0, "log_det": "-inf"}


def test_non_finite_inputs_are_input_errors(diag23, tmp_path, capsys):
    spec = tmp_path / "inf.json"
    spec.write_text('{"type": "lp", "p": 1e999}', encoding="utf-8")
    op = write(tmp_path, "x31.json",
               encode_operator(FiniteAlgebra.full(2).diagonal([[3.0, 1.0]])))
    code, doc = run_cli(capsys, ["norm", str(spec), op])
    assert code == 2
    assert doc["error"]["type"] == "ShapeMismatch"
    assert "finite" in doc["error"]["message"]

    nan_op = tmp_path / "nan.json"
    nan_op.write_text(open(diag23).read().replace("2.0", "NaN", 1), encoding="utf-8")
    code, doc = run_cli(capsys, ["mu", str(nan_op)])
    assert code == 2
    assert doc["error"]["type"] == "ShapeMismatch"
    assert "finite" in doc["error"]["message"]


def test_unknown_flag_is_usage_error(capsys):
    assert main(["majorize", "--frobnicate", "a", "b"]) == 2


def test_suite_run_single(capsys):
    code, doc = run_cli(capsys, ["suite", "run", "--only", "product-logmaj",
                                 "--trials", "10", "--seed", "3"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["suites"][0]["name"] == "product-logmaj"
    assert capsys.readouterr  # progress went to stderr, stdout was pure JSON


def test_suite_run_unknown_suite(capsys):
    code, doc = run_cli(capsys, ["suite", "run", "--only", "nope"])
    assert code == 2
    assert "error" in doc


def test_suite_determinism_byte_identical(tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    args = ["suite", "run", "--only", "sandwich-logmaj", "--trials", "25",
            "--seed", "42"]
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    b1 = open(out1, "rb").read()
    b2 = open(out2, "rb").read()
    assert b1 == b2


def test_suite_run_has_no_jobs_flag(capsys):
    # suites run serially; a --jobs is a usage error
    code, doc = run_cli(capsys, ["suite", "run", "--only", "sum-diff", "--trials", "1",
                                 "--jobs", "2"])
    assert code == 2
    assert doc == {"error": {"type": "UsageError",
                             "message": "invalid arguments; see --help"}}


def test_output_flag_writes_file(diag23, tmp_path, capsys):
    out = str(tmp_path / "mu.json")
    code = main(["--output", out, "mu", diag23])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(open(out).read())
    assert doc["pieces"][0]["value"] == 3.0


def test_repeated_calls_in_one_process_give_the_first_output(diag23, tmp_path, capsys):
    # main builds its parser once per process; parsing must not carry
    # state from one call into the next, a usage error included
    spec = write(tmp_path, "spec.json", {"type": "lp", "p": 2})
    calls = [["mu", diag23], ["mu", "--bogus", diag23], ["norm", spec, diag23],
             ["mu", diag23], ["norm", "--output", str(tmp_path / "n.json"), spec, diag23],
             ["norm", spec, diag23], ["mu", "--bogus", diag23]]
    first = {}
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        seen = first.setdefault(tuple(argv), (code, captured.out, captured.err))
        assert (code, captured.out, captured.err) == seen, argv
    assert first[("mu", "--bogus", diag23)][0] == 2
    assert first[("norm", spec, diag23)][0] == 0
    assert json.loads(first[("mu", diag23)][1])["pieces"][0] == {"value": 3.0, "width": 1.0}


def test_negative_trial_counts_are_usage_errors(tmp_path, capsys):
    from logmaj import LinearMap

    alg = FiniteAlgebra.full(2)
    path = write(tmp_path, "t.json", encode_linear_map(LinearMap.identity(alg)))
    lp1 = write(tmp_path, "lp1.json", {"type": "lp", "p": 1})
    usage = {"error": {"type": "UsageError", "message": "invalid arguments; see --help"}}
    for argv in (["suite", "run", "--only", "sum-diff", "--trials", "-2"],
                 ["isometry", "analyze", path, lp1, lp1, "--trials", "-3"],
                 ["isometry", "reflect", path, lp1, "--trials", "-3"],
                 ["isometry", "reflect", path, lp1, "--trials", "three"]):
        assert run_cli(capsys, argv) == (2, usage), argv
    # a count of 0 is still a (vacuous) run
    code, doc = run_cli(capsys, ["isometry", "reflect", path, lp1, "--trials", "0"])
    assert code == 0 and doc["trials"] == 0
    code, doc = run_cli(capsys, ["isometry", "analyze", path, lp1, lp1, "--trials", "0"])
    assert code == 0 and doc["positive"]["trials"] == 0
    code, doc = run_cli(capsys, ["suite", "run", "--only", "sum-diff", "--trials", "0"])
    assert code == 0 and doc["suites"][0]["trials"] == 0


@pytest.mark.parametrize("verb, change", [
    ("jordan-random", {"transpose": "false"}),
    ("jordan-random", {"target": 0.9}),
    ("jordan-random", {"unitary_seed": 3.7}),
    ("mu", {"dim": 2.9}),
    ("mu", {"weight": True}),
    ("mu", {"entry": [1, 0, 3]}),
])
def test_coercible_inputs_exit_2_with_one_error(tmp_path, capsys, verb, change):
    if verb == "jordan-random":
        alg = {"blocks": [{"dim": 2, "weight": 1.0}]}
        entry = {"source": 0, "target": 0, "transpose": False, "unitary_seed": 3, **change}
        path = write(tmp_path, "plan.json",
                     {"domain": alg, "codomain": alg, "entries": [entry]})
        argv = ["jordan", "random", path]
    else:
        doc = encode_operator(FiniteAlgebra.full(2).identity())
        if "entry" in change:
            doc["blocks"][0][1][1] = change["entry"]
        else:
            doc["algebra"]["blocks"][0].update(change)
        argv = ["mu", write(tmp_path, "op.json", doc)]
    code, doc = run_cli(capsys, argv)
    assert code == 2
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == "ShapeMismatch"


@pytest.mark.parametrize("b_blocks", [["1.0"], [True], ["nan"], [float("nan")],
                                      [float("inf")], None])
def test_malformed_synth_specs_exit_2_with_one_error(tmp_path, capsys, b_blocks):
    alg = {"blocks": [{"dim": 2, "weight": 1.0}]}
    entry = {"source": 0, "target": 0, "transpose": False, "unitary_seed": 3}
    spec = {"plan": {"domain": alg, "codomain": alg, "entries": [entry]},
            "norm_domain": {"type": "lp", "p": 1}, "norm_codomain": {"type": "lp", "p": 1}}
    if b_blocks is not None:
        spec["b_blocks"] = b_blocks
    # json.dumps writes NaN and Infinity, which json.load reads back as floats
    code, doc = run_cli(capsys, ["isometry", "synth", write(tmp_path, "spec.json", spec)])
    assert code == 2
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == "ShapeMismatch"
