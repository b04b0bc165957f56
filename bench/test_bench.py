"""Tests of the benchmark itself: python -m pytest bench"""

import bisect
import inspect
import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from run import PACE_REF_S, Pace
from tracer import LAYERS, Tracer, self_times
from workloads import (BAND_ORDER, BIG_ROWS, BIG_SEEDS, MAX_ROWS, ROW_OCTILES,
                       Case, build_inputs, check_output, plan_rows, suite_ops)

RUN = Path(__file__).resolve().parent / "run.py"


def test_self_time_on_nested_span_tree():
    # root [0, 10] has children a [1, 4], b [5, 6] and c [7, 9.5];
    # a has a child g [2, 3], and g a child h [2.5, 2.75]
    starts = [0.0, 1.0, 5.0, 7.0, 2.0, 2.5]
    ends = [10.0, 4.0, 6.0, 9.5, 3.0, 2.75]
    parents = [-1, 0, 0, 0, 1, 4]
    got = self_times(starts, ends, parents)
    assert got.tolist() == [3.5, 2.0, 1.0, 2.5, 0.75, 0.25]


def test_self_time_of_a_flat_trace_is_its_duration():
    got = self_times([0.0, 5.0], [2.0, 6.5], [-1, -1])
    assert got.tolist() == [2.0, 1.5]


def _namespace_snapshot():
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "logmaj" or modname.startswith("logmaj."):
            for name, obj in vars(mod).items():
                snap[(modname, name)] = obj
                if inspect.isclass(obj) and obj.__module__ == modname:
                    for attr, val in vars(obj).items():
                        snap[(modname, name, attr)] = val
    suites = sys.modules["logmaj.suites"]
    for name, entry in suites.SUITES.items():
        snap[("SUITES", name)] = entry
    return snap


def test_tracer_wraps_reexports_and_restores_every_original():
    import logmaj.cli  # noqa: F401  (loads every layer module)
    from logmaj import algebra, stepfun, suites

    before = _namespace_snapshot()
    with Tracer():
        assert stepfun.mu is not before[("logmaj.stepfun", "mu")]
        assert suites.mu is stepfun.mu                       # re-import patched
        assert suites.SUITES["sum-diff"][0] is not before[("SUITES", "sum-diff")][0]
        assert algebra.Operator.__init__ is not before[
            ("logmaj.algebra", "Operator", "__init__")]
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_counts_calls_and_keeps_results():
    from logmaj import suites

    config = suites.RunConfig(only="sum-diff", trials=2, seed=4)
    plain = suites.run_suites(config)
    with Tracer() as tracer:
        traced = suites.run_suites(config)
    assert traced == plain
    calls = tracer.layer_calls()
    assert calls["suites"] >= 2 and calls["stepfun"] > 0 and calls["algebra"] > 0
    assert tracer.calls("stepfun.mu") > 0
    self_s = tracer.layer_self_s()
    assert set(self_s) == set(LAYERS)
    assert all(v >= 0.0 for v in self_s.values())


def test_same_seed_regenerates_identical_inputs(tmp_path):
    first = build_inputs("calculus", 7, 1.0, None)
    assert first == list(islice(suite_ops("calculus", 7), len(first)))
    assert first == build_inputs("calculus", 7, 1.0, None)
    assert first != build_inputs("calculus", 8, 1.0, None)

    def pool(seed, directory):
        cases = build_inputs("cli", seed, 1.0, directory)
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        argv = [[Path(a).name if str(directory) in a else a for a in c.argv]
                for c in cases]
        return argv, files

    a = pool(7, tmp_path / "a")
    assert a == pool(7, tmp_path / "b")
    assert a != pool(8, tmp_path / "c")


def test_output_check_rejects_a_wrong_determinant():
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((2, 2)) + 0j]
    case = Case("det-0", [], 0, ("det", ([1.5], blocks)))
    s = np.linalg.svd(blocks[0], compute_uv=False)
    right = float(np.prod(s ** 1.5))
    assert check_output(case, 0, json.dumps({"det": right}).encode()) is None
    assert check_output(case, 0, json.dumps({"det": right * 1.001}).encode())
    assert check_output(case, 1, json.dumps({"det": right}).encode())


def test_calculus_trace_touches_neither_jordan_nor_serialize():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "calculus", "--seed", "3",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["jordan.calls"] == 0
    assert metrics["jordan.self_s"] == 0.0
    assert metrics["serialize.calls"] == 0
    assert metrics["stepfun.calls"] > 0 and metrics["norms.calls"] > 0


def test_plan_rows_matches_the_commutation_systems_solved(monkeypatch):
    # plan_rows restates how the round-trip suites draw their plans, and the
    # size cap and strata rest on it; if the library's draws change, the
    # sizes it predicts stop matching the systems stormer_split solves
    from logmaj import jordan, suites

    solved = []
    center = jordan._center_elements

    def recording(ops):
        if ops:
            solved.append(len(ops) * ops[0].algebra.vector_dim)
        return center(ops)

    monkeypatch.setattr(jordan, "_center_elements", recording)
    ops = build_inputs("factorisation", 11, 1.0, None)
    checked = [op for op in ops
               if op.suite in ("stormer-roundtrip", "isometry-roundtrip")]
    big = checked[:2 * len(BIG_SEEDS):2]
    assert [(op.suite, op.seed) for op in big] == [
        ("stormer-roundtrip", seed) for seed in BIG_SEEDS]
    for op in big:
        assert plan_rows(op.suite, op.seed, op.trials) == BIG_ROWS
    for op in big[:1] + [op for op in checked if op not in big]:
        solved.clear()
        report = suites.run_suites(suites.RunConfig(only=op.suite, trials=op.trials,
                                                    seed=op.seed))
        assert report["passed"] is True
        assert max(solved) == plan_rows(op.suite, op.seed, op.trials)
        if op not in big:
            assert max(solved) <= MAX_ROWS


def test_round_trip_sizes_follow_the_band_order():
    ops = build_inputs("factorisation", 5, 6.0, None)
    for suite, bounds in ROW_OCTILES.items():
        sizes = [plan_rows(suite, op.seed, op.trials) for op in ops
                 if op.suite == suite and op.seed not in BIG_SEEDS]
        assert [bisect.bisect_left(bounds, rows) for rows in sizes[:8]] == list(BAND_ORDER)


def test_pace_scales_timings_to_the_reference_speed():
    pace = Pace()
    pace.at = [0.0, 10.0, 20.0, 30.0, 40.0]
    pace.seconds = [PACE_REF_S] * 2 + [2 * PACE_REF_S] * 3
    # running medians of five samples: 1, 1.5, 2, 2, 2 reference times
    assert np.allclose(pace.factor([0.0, 5.0, 10.0, 40.0, 45.0]),
                       [1.0, 0.8, 1 / 1.5, 0.5, 0.5])
