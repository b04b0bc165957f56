"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload calculus|factorisation|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  With ``--trace 0`` the end-to-end metrics are
measured; with ``--trace 1`` a shorter untraced pass is replayed under the
layer tracer and the per-layer metrics are reported.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

import os

# One BLAS thread, set before numpy loads: a second thread buys a few
# percent of wall time for much more CPU, which would blur cpu_s.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (FACTORISATION, CALCULUS, SUITE_WORKLOADS, WORKLOADS,  # noqa: E402
                       build_inputs, canonical, check_output)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated in fresh processes and its median reported.  The
# repetitions are spread over the run, between cycles and outside the
# measured time, because the speed of a shared machine drifts over seconds.
SETUP_EVERY_S = 5.0
# The speed of a shared machine drifts by up to about 1.9x over tens of
# seconds.  A fixed reference kernel, small numpy linear algebra driven
# from Python like the library's own work, is timed between operations
# every PACE_EVERY_S, outside the measured time.  Every timing is scaled by
# PACE_REF_S over the kernel's time at that moment (a running median of
# PACE_WINDOW samples), so it reads as on a machine where the kernel takes
# PACE_REF_S.  The unscaled figures are in the info line.
PACE_EVERY_S = 0.5
PACE_WINDOW = 5
PACE_REF_S = 0.02
_PACE_SMALL = [np.random.default_rng(d).standard_normal((d, d))
               for d in (2, 3, 4, 6, 8)] * 4
_PACE_MEDIUM = (np.random.default_rng(0).standard_normal((96, 96))
                + 1j * np.random.default_rng(1).standard_normal((96, 96)))
# One set-up, timed inside a fresh interpreter once numpy is loaded:
# import the library's entry modules and build the workload's inputs.
# Arguments: bench dir, src dir, workload, seed, seconds, input directory.
SETUP_CHILD = """
import sys, time
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
t0 = time.perf_counter()
import logmaj.cli, logmaj.suites
workloads.build_inputs(sys.argv[3], int(sys.argv[4]), float(sys.argv[5]), Path(sys.argv[6]))
print(time.perf_counter() - t0)
"""
TAIL_BEYOND = 10        # samples required beyond the tail percentile
UNTRACED_SHARE = 0.45   # share of --seconds for the untraced pass of --trace 1

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                    "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
ALL_SUITES = tuple(name for name, _ in CALCULUS + FACTORISATION)


def _cpu_s() -> float:
    """CPU seconds of this process's threads and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident memory of this process (not of the set-up children)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pace_kernel() -> None:
    """The reference kernel: fixed numpy and Python work whose time follows
    the machine's speed."""
    for _ in range(12):
        for m in _PACE_SMALL:
            s = np.linalg.svd(m, compute_uv=False)
            p = np.kron(m, m.T) @ np.ones(m.shape[0] ** 2)
            np.cumsum(np.sort(np.abs(p)))[::-1] + np.log(s + 1e-9).sum()
    np.linalg.svd(_PACE_MEDIUM)


class Pace:
    """Reference kernel times over a run, as a speed factor at any moment."""

    def __init__(self):
        self.at = []
        self.seconds = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        pace_kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)

    def factor(self, at):
        """PACE_REF_S over the kernel's running-median time at ``at``."""
        half = PACE_WINDOW // 2
        smooth = [statistics.median(self.seconds[max(0, j - half):j + half + 1])
                  for j in range(len(self.seconds))]
        return PACE_REF_S / np.interp(at, self.at, smooth)


class SuiteRunner:
    """One operation is one ``run_suites`` call for a single suite."""

    def __init__(self, workload: str, op_list, suites):
        self.op_list = op_list    # drawn at set-up, before the timed loop
        self.suites = suites
        self.cycle = len(SUITE_WORKLOADS[workload])
        self.slm_pairs = 0
        self.slm_attempts = 0
        self.bytes_out = 0

    def ops(self):
        return self.op_list

    def run(self, op):
        config = self.suites.RunConfig(only=op.suite, trials=op.trials, seed=op.seed)
        t0 = time.perf_counter()
        report = self.suites.run_suites(config)
        latency = time.perf_counter() - t0
        data = canonical(report)
        if op.suite == "slm-all-variants":
            result = report["suites"][0]
            for stats in result["stats"].values():
                self.slm_pairs += result["trials"]
                self.slm_attempts += stats["attempts"]
        error = None if report["passed"] is True else "suite reported passed: false"
        return error, data, latency

    def trials(self, op) -> int:
        return op.trials

    def label(self, op) -> str:
        return op.suite


class CliRunner:
    """One operation is one in-process ``logmaj.cli.main`` call."""

    def __init__(self, cases, cli):
        self.cases = cases
        self.cli = cli
        self.cycle = 1            # the pool is shuffled; stop at any call
        self.first = {}           # case name -> (exit code, output bytes)
        self.bytes_out = 0

    def ops(self):
        while True:
            yield from self.cases

    def run(self, case):
        out = Path(case.output)
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = self.cli.main(case.argv + ["--output", case.output])
        latency = time.perf_counter() - t0
        data = out.read_bytes()
        self.bytes_out += len(data)
        error = None
        if code != case.expect_code:
            error = f"{case.name}: exit code {code}, expected {case.expect_code}"
        seen = self.first.setdefault(case.name, (code, data))
        if seen != (code, data):
            error = f"{case.name}: output differs between identical calls"
        return error, data, latency

    def trials(self, case) -> int:
        return 1

    def label(self, case) -> str:
        return case.name


class Phase:
    """Operations of one timed pass, with their latencies and outcomes."""

    def __init__(self):
        self.ops = []
        self.started = []
        self.latency = []         # seconds, unscaled
        self.scaled = []          # seconds, scaled to the reference speed
        self.digest = []
        self.errors = {}          # op index -> reason
        self.data = {}            # op index -> output bytes, kept for re-checks
        self.wall = 0.0           # seconds, unscaled
        self.scaled_wall = 0.0
        self.cpu = 0.0


def timed_pass(runner, ops, seconds: float, pace: Pace, keep: int = 0,
               interlude=None) -> Phase:
    """Run operations until ``seconds`` have passed, finishing the cycle in
    progress and at least TAIL_BEYOND + 1 operations, or until a finite
    ``ops`` runs out.  The reference kernel is sampled into ``pace`` every
    PACE_EVERY_S, and ``interlude`` runs between cycles every
    SETUP_EVERY_S; neither's wall or CPU time is measured."""
    phase = Phase()
    paused = paused_cpu = 0.0

    def outside(fn) -> float:
        nonlocal paused, paused_cpu
        t0, cpu0 = time.perf_counter(), _cpu_s()
        fn()
        t1 = time.perf_counter()
        paused += t1 - t0
        paused_cpu += _cpu_s() - cpu0
        return t1

    pace.sample()
    t_start = time.perf_counter()
    next_pace = t_start + PACE_EVERY_S
    cpu_start = _cpu_s()
    next_interlude = t_start + SETUP_EVERY_S
    for i, op in enumerate(ops):
        if time.perf_counter() >= next_pace:
            next_pace = outside(pace.sample) + PACE_EVERY_S
        t_op = time.perf_counter()
        try:
            error, data, latency = runner.run(op)
        except Exception as exc:  # an operation that raises counts as failed
            error, data = f"{type(exc).__name__}: {exc}", b""
            latency = time.perf_counter() - t_op
        phase.ops.append(op)
        phase.started.append(t_op)
        phase.latency.append(latency)
        phase.digest.append(hashlib.sha256(data).digest())
        if keep:                  # the outputs of the last ``keep`` operations
            phase.data[i] = data
            phase.data.pop(i - keep, None)
        if error is not None:
            phase.errors[i] = error
        if (i + 1) % runner.cycle:
            continue
        now = time.perf_counter()
        if seconds > 0 and i >= TAIL_BEYOND and now - t_start - paused >= seconds:
            break
        if interlude is not None and now >= next_interlude:
            next_interlude = outside(interlude) + SETUP_EVERY_S
    phase.wall = time.perf_counter() - t_start - paused
    phase.cpu = _cpu_s() - cpu_start - paused_cpu
    pace.sample()
    factor = pace.factor(np.add(phase.started, np.divide(phase.latency, 2)))
    phase.scaled = (factor * phase.latency).tolist()
    phase.scaled_wall = phase.wall * sum(phase.scaled) / sum(phase.latency)
    return phase


def recheck_repeats(runner, phase: Phase) -> None:
    """Identical (suite, trials, seed) operations must give byte-identical
    reports: re-run the operations of the last cycle and compare."""
    for i, data in phase.data.items():
        try:
            _, again, _ = runner.run(phase.ops[i])
        except Exception as exc:
            phase.errors.setdefault(i, f"re-run raised {type(exc).__name__}: {exc}")
            continue
        if again != data:
            phase.errors.setdefault(i, f"{runner.label(phase.ops[i])}: "
                                       "report differs on an identical re-run")


def check_cli_outputs(runner: CliRunner, phase: Phase) -> None:
    """Check each case's output against the construction and dense numpy."""
    bad = {}
    for case in runner.cases:
        if case.name in runner.first:
            code, data = runner.first[case.name]
            reason = check_output(case, code, data)
            if reason is not None:
                bad[case.name] = f"{case.name}: {reason}"
    for i, case in enumerate(phase.ops):
        if case.name in bad:
            phase.errors.setdefault(i, bad[case.name])


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # show_config differs between numpy versions
        blas = "unknown"
    return {**{k: os.environ.get(k) for k in BLAS_ENV},
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def layer_metrics(tracer: Tracer, runner, untraced: Phase, traced: Phase) -> dict:
    calls = tracer.layer_calls()
    self_s = tracer.layer_self_s()
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["algebra.operator_inits"] = (tracer.calls("algebra.Operator.__init__"), "count")
    m["stepfun.mu_calls"] = (tracer.calls("stepfun.mu"), "count")
    ratio = 0.0
    if isinstance(runner, SuiteRunner) and runner.slm_attempts:
        ratio = runner.slm_pairs / runner.slm_attempts
    m["norms.slm_accept_ratio"] = (ratio, "ratio")
    m["jordan.apply_calls"] = (tracer.calls("jordan.LinearMap.apply"), "count")
    m["jordan.verify_s"] = (tracer.inclusive_s("jordan.verify_jordan"), "s")
    m["jordan.split_s"] = (tracer.inclusive_s("jordan.stormer_split"), "s")
    m["isometry.analyze_s"] = (tracer.inclusive_s("isometry.analyze"), "s")
    m["serialize.bytes_out"] = (runner.bytes_out, "bytes")
    per_suite = {name: [0.0, 0] for name in ALL_SUITES}
    for op, latency in zip(untraced.ops, untraced.scaled):
        if runner.label(op) in per_suite:
            per_suite[runner.label(op)][0] += latency
            per_suite[runner.label(op)][1] += runner.trials(op)
    for name, (total, trials) in per_suite.items():
        m[f"suites.{name}.ms_per_trial"] = (1e3 * total / trials if trials else 0.0, "ms")
    m["trace.overhead_frac"] = (traced.scaled_wall / untraced.scaled_wall - 1.0, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "logmaj" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    import logmaj.cli
    import logmaj.suites

    inputs = build_inputs(args.workload, args.seed, args.seconds, work / "inputs")
    if args.workload == "cli":
        runner = CliRunner(inputs, logmaj.cli)
    else:
        runner = SuiteRunner(args.workload, inputs, logmaj.suites)
    setup_at, setup_times = [], []
    pace = Pace()

    def setup_again():
        # a fresh process repeats the set-up into a directory of its own,
        # which is discarded; the run keeps its own inputs
        directory = work / "setup"
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH), str(SRC), args.workload,
             str(args.seed), str(args.seconds), str(directory)],
            capture_output=True, text=True, check=True, timeout=120)
        shutil.rmtree(directory, ignore_errors=True)
        setup_at.append(time.perf_counter())
        setup_times.append(float(proc.stdout.split()[-1]))

    if not args.trace:
        setup_again()
    keep = runner.cycle if isinstance(runner, SuiteRunner) else 0
    seconds = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    untraced = timed_pass(runner, runner.ops(), seconds, pace, keep=keep,
                          interlude=None if args.trace else setup_again)
    peak_rss = _peak_rss_mb()
    phases = [untraced]
    if isinstance(runner, SuiteRunner):
        recheck_repeats(runner, untraced)

    if args.trace:
        runner.bytes_out = 0
        with Tracer() as tracer:
            traced = timed_pass(runner, list(untraced.ops), 0.0, pace)
        phases.append(traced)
        for i, (a, b) in enumerate(zip(untraced.digest, traced.digest)):
            if a != b:
                traced.errors.setdefault(i, f"{runner.label(traced.ops[i])}: "
                                            "traced output differs from untraced")
        tracer.write(OUT / f"trace-{args.workload}.npz")
    if isinstance(runner, CliRunner):
        for phase in phases:
            check_cli_outputs(runner, phase)

    if not args.trace:
        setup_again()

    attempted = sum(len(p.ops) for p in phases)
    failed = sum(len(p.errors) for p in phases)
    n = len(untraced.latency)
    tail_ms, tail_pct = tail(untraced.scaled)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), "ops": n, "wall_s": untraced.wall,
            "op_ms_tail_percentile": tail_pct, "op_ms_tail_samples": n,
            "pace_ms_median": 1e3 * statistics.median(pace.seconds),
            "unscaled": {"ops_per_s": n / untraced.wall,
                         "op_ms_p50": 1e3 * statistics.median(untraced.latency),
                         "op_ms_tail": 1e3 * tail(untraced.latency)[0]},
            "setup_repetitions": len(setup_times),
            "ran_out_of_ops": n == len(getattr(runner, "op_list", ())),
            "failed_frac": failed / attempted,
            "failures": sorted({e for p in phases for e in p.errors.values()})[:5]}
    if args.trace:
        metrics = layer_metrics(tracer, runner, untraced, traced)
        info["spans"] = len(tracer.span_start)
    else:
        info["unscaled"]["setup_s"] = statistics.median(setup_times)
        metrics = {
            "ops_per_s": n / untraced.scaled_wall,
            "op_ms_p50": 1e3 * statistics.median(untraced.scaled),
            "op_ms_tail": 1e3 * tail_ms,
            # per --seconds of wall: the loop overruns by part of a cycle
            "cpu_s": untraced.cpu * args.seconds / untraced.wall,
            "peak_rss_mb": peak_rss,
            "setup_s": float(np.median(pace.factor(setup_at) * setup_times)),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {n}  wall {untraced.wall:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'(op_ms_tail is percentile)':40s} {tail_pct:14.6g} of {n} samples")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ratio")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
