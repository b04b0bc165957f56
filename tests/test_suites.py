import json
import subprocess
import sys
from pathlib import Path

import pytest

import logmaj
from logmaj import FiniteAlgebra
from logmaj.serialize import encode_operator, jsonable
from logmaj.suites import SUITES, RunConfig, run_suites


def test_every_registered_suite_runs_and_passes_small():
    for name, (func, _default) in SUITES.items():
        result = func(2, 9)
        assert result.name == name
        assert result.passed, f"{name}: {result.failures}"
        json.dumps(jsonable(result.to_json()))  # payload is serializable


def test_run_suites_report_shape():
    report = run_suites(RunConfig(seed=5, trials=2, only="sum-diff"))
    assert report["passed"] is True
    assert report["config"]["seed"] == 5
    assert [s["name"] for s in report["suites"]] == ["sum-diff"]
    assert "version" in report
    assert list(report["config"]) == ["seed", "trials", "only", "tolerance_overrides"]


def test_failures_are_bounded_in_reports():
    from logmaj.suites import suite_isometry_roundtrip

    result = suite_isometry_roundtrip(12, 3, fault="calibration")
    assert not result.passed
    assert 0 < len(result.to_json()["failures"]) <= 5


def test_default_trial_counts_match_stated_budgets():
    expected = {
        "sandwich-logmaj": 1000,
        "det-monotone": 1000,
        "product-logmaj": 1000,
        "slm-all-variants": 500,
        "sum-diff": 500,
        "jordan-roundtrip": 100,
        "stormer-roundtrip": 100,
        "isometry-roundtrip": 100,
        "surjective-reflection": 500,
    }
    for name, count in expected.items():
        assert SUITES[name][1] == count


def test_tolerance_env_override_is_read_at_import(tmp_path):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"maj": 1e-5}), encoding="utf-8")
    code = (
        "from logmaj.config import tolerances\n"
        "assert tolerances().maj == 1e-5\n"
        "assert tolerances().alg == 1e-9\n"
    )
    # The child imports logmaj from the root the parent imported it from,
    # however that root was made importable (PYTHONPATH=src or an
    # editable install), and from a neutral working directory.
    import_root = Path(logmaj.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"LOGMAJ_TOLERANCES": str(cfg), "PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(import_root)},
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr



@pytest.mark.parametrize("content, error", [('{"maj": ', "JSONDecodeError"),
                                            ('{"maj": NaN}', "ValueError")])
@pytest.mark.parametrize("argv", [["mu", "x.json"],
                                  ["suite", "run", "--only", "sum-diff", "--trials", "1"]],
                         ids=["mu", "suite"])
def test_malformed_tolerance_file_is_a_cli_error(tmp_path, content, error, argv):
    """The ``LOGMAJ_TOLERANCES`` file is read on first use, inside the
    CLI's error handling: exit code 2 and one JSON error, no traceback."""
    cfg = tmp_path / "tol.json"
    cfg.write_text(content, encoding="utf-8")
    (tmp_path / "x.json").write_text(
        json.dumps(encode_operator(FiniteAlgebra.full(2).identity())), encoding="utf-8")
    import_root = Path(logmaj.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "logmaj.cli", *argv],
        env={"LOGMAJ_TOLERANCES": str(cfg), "PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(import_root)},
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == error


def test_cli_tolerances_flag(tmp_path, capsys):
    from logmaj.cli import main
    from logmaj.config import tolerances
    from logmaj.serialize import encode_step_function
    from logmaj.stepfun import StepFunction

    before = tolerances()
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"iso": 1e-6}), encoding="utf-8")
    code = main(["suite", "run", "--only", "sum-diff", "--trials", "2",
                 "--seed", "1", "--tolerances", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["config"]["tolerance_overrides"] == {"iso": 1e-6}
    # the override lasts for its call only
    assert tolerances() == before

    # a predicate that is false (exit 1), an input error inside the
    # override (exit 2) and an invalid override file (exit 2)
    steps = []
    for name, pieces in (("b", ((4.0, 1.0), (1.0, 1.0))), ("a", ((2.0, 2.0),))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(encode_step_function(StepFunction(pieces))),
                        encoding="utf-8")
        steps.append(str(path))
    assert main(["majorize", *steps, "--tolerances", str(cfg)]) == 1
    assert tolerances() == before
    code = main(["mu", str(tmp_path / "missing.json"), "--tolerances", str(cfg)])
    assert code == 2
    assert tolerances() == before
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"iso": 1e-6, "no_such_tolerance": 1.0}), encoding="utf-8")
    code = main(["suite", "run", "--only", "sum-diff", "--trials", "2",
                 "--tolerances", str(bad)])
    assert code == 2
    capsys.readouterr()
    assert tolerances() == before


def test_cli_reads_tolerances_file_once(tmp_path, capsys, monkeypatch):
    from logmaj import cli

    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"iso": 1e-6}), encoding="utf-8")
    loaded = []
    load = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: loaded.append(path) or load(path))
    code = cli.main(["suite", "run", "--only", "sum-diff", "--trials", "2",
                     "--tolerances", str(cfg)])
    assert code == 0
    assert loaded == [str(cfg)]
    assert json.loads(capsys.readouterr().out)["config"]["tolerance_overrides"] == {"iso": 1e-6}


def test_run_suites_tolerance_overrides_are_scoped(monkeypatch):
    from logmaj import suites
    from logmaj.config import tolerances

    before = tolerances()
    seen = []

    def probe(trials, seed):
        seen.append(tolerances().iso)
        return suites.SuiteResult("probe", True, trials, [], {})

    def broken(trials, seed):
        raise RuntimeError("suite crashed")

    monkeypatch.setattr(suites, "SUITES", {"probe": (probe, 1), "probe-2": (probe, 1),
                                           "broken": (broken, 1)})
    overrides = {"iso": 1e-6}
    report = run_suites(RunConfig(only="probe", tolerance_overrides=overrides))
    assert report["passed"] and seen == [1e-6]
    assert tolerances() == before
    # every suite of the run sees the override, and it ends with the run,
    # also when a suite raises
    with pytest.raises(RuntimeError):
        run_suites(RunConfig(tolerance_overrides=overrides))
    assert seen == [1e-6] * 3
    assert tolerances() == before


def test_failed_split_is_a_recorded_failure(monkeypatch, capsys):
    from logmaj import suites
    from logmaj.cli import main
    from logmaj.errors import ClassificationFailure

    def failing_split(J, *args, **kwargs):
        raise ClassificationFailure("central summand is neither hom nor anti-hom")

    monkeypatch.setattr(suites, "stormer_split", failing_split)
    result = suites.suite_stormer_roundtrip(2, 0)
    assert result.passed is False
    assert [f["what"] for f in result.failures] == [
        "split mismatch: central summand is neither hom nor anti-hom"] * 2
    code = main(["suite", "run", "--only", "stormer-roundtrip", "--trials", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["passed"] is False and "error" not in out


def test_split_runs_once_per_trial(monkeypatch):
    from logmaj import jordan, suites

    calls = []

    def counting(split):
        def counting_split(J, *args, **kwargs):
            calls.append(J)
            return split(J, *args, **kwargs)
        return counting_split

    split = jordan.stormer_split
    monkeypatch.setattr(suites, "stormer_split", counting(split))
    monkeypatch.setattr(jordan, "stormer_split", counting(split))
    assert suites.suite_stormer_roundtrip(3, 4).passed
    assert len(calls) == 3
    calls.clear()
    assert suites.suite_isometry_roundtrip(2, 4).passed
    assert len(calls) == 2


def test_law_defects_run_once_per_trial(monkeypatch):
    from logmaj import jordan, suites

    calls = []
    table = jordan.LinearMap.__dict__["law_defects"]
    build = table.build

    def counting(linear_map):
        calls.append(linear_map)
        return build(linear_map)

    monkeypatch.setattr(table, "build", counting)
    trials = 6
    anti = 0
    for trial in range(trials):
        plan = jordan.random_plan(suites.rng_for(4, "stormer-roundtrip", trial),
                                  fanout=bool(trial % 2))
        anti += "anti" in plan.effective_flags().values()
    assert anti >= 2
    assert suites.suite_stormer_roundtrip(trials, 4).passed
    # one table per trial, on the generated map: it verifies the map
    # (random_jordan) and serves both the split and the anti-target control
    assert len(calls) == trials == len(set(map(id, calls)))
    calls.clear()
    # one map per trial: the extracted B^+ T, whose table verifies it and
    # classifies its split (synthesize builds the plan's J uncertified)
    assert suites.suite_isometry_roundtrip(4, 4).passed
    assert len(calls) == 4 == len(set(map(id, calls)))
    plan = jordan.random_plan(suites.rng_for(4, "stormer-roundtrip", 1), fanout=True)
    built = jordan.random_jordan(plan.domain, plan).map
    # verify_jordan, then stormer_split twice, on one fresh map: one table
    linear_map = jordan.LinearMap(built.domain, built.codomain, built.matrix)
    calls.clear()
    J = jordan.verify_jordan(linear_map)
    jordan.stormer_split(J)
    jordan.stormer_split(J)
    assert len(calls) == 1 and calls[0] is linear_map


def test_multiplicative_anti_target_is_a_recorded_failure(monkeypatch):
    """A plan that says "transposed" while its map is built without the
    transpose must fail the anti control, read from the complete law
    defects on every pair of domain matrix units."""
    import dataclasses

    from logmaj import jordan, suites

    def untransposed_jordan(domain, plan):
        plain = dataclasses.replace(plan, entries=tuple(
            dataclasses.replace(e, transpose=False) for e in plan.entries))
        return dataclasses.replace(jordan.random_jordan(domain, plain), plan=plan)

    # the anti control reads the law table of the untransposed map
    monkeypatch.setattr(suites, "random_jordan", untransposed_jordan)
    result = suites.suite_stormer_roundtrip(8, 3)
    anti_trials = [t for t in range(8) if "anti" in jordan.random_plan(
        suites.rng_for(3, "stormer-roundtrip", t), fanout=bool(t % 2)
    ).effective_flags().values()]
    assert anti_trials
    assert result.passed is False
    controls = [f["trial"] for f in result.failures
                if f["what"] == "anti block behaved multiplicatively"]
    assert controls == anti_trials[:len(controls)] and controls
    # the honest maps pass the same control
    monkeypatch.undo()
    assert suites.suite_stormer_roundtrip(8, 3).passed
