"""Seeded workloads and the independent checks of their outputs.

``calculus`` and ``factorisation`` issue ``run_suites`` calls, one suite
per operation, cycling through a fixed suite list with a fresh suite seed
per operation.  ``cli`` issues in-process ``logmaj.cli.main`` calls over a
pool of input files written at set-up.  Everything here is derived from
the workload seed; the library only ever sees the generated inputs.

The per-operation trial counts keep each suite's default work shape:
``norm-axioms`` runs at its default 200 (its per-variant sample count is
trials/5), ``surjective-reflection`` at 50 (one map of 50 reflections, as
in the default 500 = 10 maps x 50), ``stormer-roundtrip`` at an even count
(it alternates fan-out by trial parity), ``isometry-roundtrip`` at a
multiple of 4 (it cycles through four Lp exponents), and
``slm-all-variants`` at 20, well above the count where its 10x attempt cap
could trip.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

# (suite, trials per operation), in cycle order
CALCULUS = (
    ("sandwich-logmaj", 10), ("det-monotone", 10), ("product-logmaj", 10),
    ("power-transfer", 10), ("convex-transfer", 10), ("mu-rigidity", 10),
    ("projection-rigidity", 10), ("anticommute", 10), ("sum-diff", 10),
    ("norm-axioms", 200), ("slm-all-variants", 20),
)
FACTORISATION = (
    ("jordan-roundtrip", 2), ("stormer-roundtrip", 2),
    ("isometry-roundtrip", 4), ("surjective-reflection", 50),
)
SUITE_WORKLOADS = {"calculus": CALCULUS, "factorisation": FACTORISATION}
WORKLOADS = ("calculus", "factorisation", "cli")

# A suite workload's operations are drawn before its timed loop starts,
# this many cycles per second of the run: several times the rate measured
# on a 2-core machine (about 1.4 cycles/s for calculus and 0.5 for
# factorisation), so the timed loop runs out of operations only after a
# large speed-up.
CYCLES_PER_S = {"calculus": 8.0, "factorisation": 2.0}


# Commutation-system sizes (rows = generated-algebra dimension x codomain
# dimension) that a factorisation operation may ask stormer_split to solve.
# The suites draw their plans themselves, and about 5% of fan-out trials
# exceed MAX_ROWS; there the library's full SVD builds a U factor of
# 100 MB to 1.3 GB and takes seconds, so the number of such draws in a run
# decided its time and memory.  Draws above MAX_ROWS are skipped, and
# instead the first stormer-roundtrip operations of every run use the
# suite seeds BIG_SEEDS, whose largest system has BIG_ROWS rows: a fixed
# share of the large cases, where the full-U SVD dominates.  They are
# fixed rather than drawn from the workload seed because fewer than 1 in
# 300 draws is that large, so a seeded search made the set-up time of a
# run vary several-fold with its seed.  A test checks their size.
MAX_ROWS = 2500
BIG_SEEDS = (1365990320, 915823162)
BIG_ROWS = 3536
# Octiles of the sizes of each round-trip suite's draws up to MAX_ROWS.
# A suite's successive operations take their size from the eighths in
# BAND_ORDER, large and small alternating (stratified sampling): every run
# gets the natural mix of sizes, and its cost hardly depends on the seed,
# where an operation's cost grows about tenfold with its size.
ROW_OCTILES = {"stormer-roundtrip": (100, 256, 324, 486, 676, 1024, 1364, MAX_ROWS),
               "isometry-roundtrip": (324, 512, 676, 850, 1089, 1296, 1700, MAX_ROWS)}
BAND_ORDER = (7, 0, 4, 3, 6, 1, 5, 2)
MAX_DRAWS = 10_000


@dataclasses.dataclass(frozen=True)
class SuiteOp:
    suite: str
    trials: int
    seed: int


def plan_rows(suite: str, seed: int, trials: int) -> int:
    """Largest commutation system among the trials of one operation.

    Mirrors how the round-trip suites draw their plans (through the
    library's public ``rng_for`` and ``random_plan``) and counts rows as
    dim(generated *-algebra) x dim(codomain): a source feeding targets with
    mixed transpose flags generates both a hom and an anti-hom summand."""
    from logmaj.jordan import random_plan
    from logmaj.sampling import rng_for

    worst = 0
    for trial in range(trials):
        rng = rng_for(seed, suite, trial)
        if suite == "stormer-roundtrip":
            plan = random_plan(rng, fanout=bool(trial % 2))
        else:
            plan = random_plan(rng, fanout=bool(rng.uniform() < 0.5))
        flags: dict[int, set] = {}
        for e in plan.entries:
            flags.setdefault(e.source, set()).add(e.transpose)
        m = sum(d * d * (2 if d > 1 and len(flags[s]) > 1 else 1)
                for s, d in enumerate(plan.domain.dims) if s in flags)
        worst = max(worst, m * plan.codomain.vector_dim)
    return worst


def suite_ops(workload: str, seed: int):
    """Endless operation sequence of a suite workload, one cycle at a time."""
    rng = random.Random(f"{workload}:{seed}")
    big = list(BIG_SEEDS)
    drawn = dict.fromkeys(ROW_OCTILES, 0)
    spare = {suite: [[] for _ in BAND_ORDER] for suite in ROW_OCTILES}
    while True:
        for suite, trials in SUITE_WORKLOADS[workload]:
            if suite == "stormer-roundtrip" and big:
                yield SuiteOp(suite, trials, big.pop(0))
                continue
            if suite not in ROW_OCTILES:
                yield SuiteOp(suite, trials, rng.randrange(2 ** 31))
                continue
            # draw until the band due has a seed, keeping the others' draws
            band = spare[suite][BAND_ORDER[drawn[suite] % len(BAND_ORDER)]]
            drawn[suite] += 1
            for _ in range(MAX_DRAWS):
                if band:
                    break
                op_seed = rng.randrange(2 ** 31)
                rows = plan_rows(suite, op_seed, trials)
                if rows <= MAX_ROWS:
                    spare[suite][bisect.bisect_left(ROW_OCTILES[suite], rows)].append(op_seed)
            else:
                raise RuntimeError(f"{suite}: a band of sizes stayed empty "
                                   f"for {MAX_DRAWS} draws")
            yield SuiteOp(suite, trials, band.pop(0))


def build_inputs(workload: str, seed: int, seconds: float, directory: Path):
    """The set-up of one run: the operation list of a suite workload, or
    the cli workload's pool of cases with its input files written into
    ``directory``."""
    if workload == "cli":
        return cli_cases(seed, directory)
    cycles = math.ceil(seconds * CYCLES_PER_S[workload]) + 1
    count = cycles * len(SUITE_WORKLOADS[workload])
    return list(itertools.islice(suite_ops(workload, seed), count))


def canonical(report) -> bytes:
    """Byte form of a report used for the identity checks."""
    def default(value):
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
        raise TypeError(f"not serialisable: {type(value).__name__}")
    return json.dumps(report, sort_keys=True, default=default).encode()


# ---------------------------------------------------------------------------
# cli workload: input generation

# Algebra shapes (block dimensions) are assigned from fixed cycles so that
# the cost of a pool hardly depends on the seed; entries, weights, unitaries
# and flags are drawn from the seed.
OPERATOR_SHAPES = ((1,), (2,), (3,), (4,), (1, 2), (2, 2), (1, 3), (2, 4),
                   (3, 3), (1, 2, 3), (2, 2, 2), (1, 3, 4), (2, 3, 4), (4, 4),
                   (3, 4, 4))
MAP_SHAPES = ((2,), (3,), (1, 2), (2, 2), (1, 3), (2, 3), (4,), (1, 4))

# verb -> number of cases in the pool
POOL = (("mu", 30), ("det", 20), ("norm-lp", 12), ("norm-lorentz", 12),
        ("norm-log", 12), ("majorize", 12), ("majorize-false", 8),
        ("majorize-log", 12), ("majorize-log-false", 8),
        ("jordan-verify", 8), ("jordan-verify-false", 4), ("jordan-split", 6),
        ("jordan-random", 6), ("isometry-synth", 6), ("isometry-analyze", 6),
        ("isometry-analyze-false", 2), ("isometry-reflect", 6),
        ("malformed", 8))
MALFORMED = ("bad-json", "bad-shape", "bad-norm", "short-weight",
             "missing-pieces", "bad-map", "bad-calibration", "missing-file")


@dataclasses.dataclass
class Case:
    """One CLI invocation with the result known by construction."""

    name: str
    argv: list
    expect_code: int
    check: tuple          # (kind, data) for the output check
    output: str = ""


def _algebra_json(dims, weights) -> dict:
    return {"blocks": [{"dim": int(d), "weight": float(c)} for d, c in zip(dims, weights)]}


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _weights(rng: np.random.Generator, n: int) -> list:
    return [float(c) for c in rng.uniform(0.5, 2.0, size=n)]


def _gaussian_blocks(rng: np.random.Generator, dims) -> list:
    return [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            / math.sqrt(2.0 * d) for d in dims]


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _decreasing_steps(rng: np.random.Generator, n: int) -> list:
    values = sorted(rng.uniform(0.1, 3.0, size=n), reverse=True)
    widths = rng.uniform(0.5, 2.0, size=n)
    return [(float(v), float(w)) for v, w in zip(values, widths)]


def _flattened(pieces, rng: np.random.Generator, log: bool) -> list:
    """Strict (log-)submajorant witness: average a run of ``pieces`` (the
    geometric mean for ``log``) and shrink every value by rho < 1."""
    values = [v for v, _ in pieces]
    widths = [w for _, w in pieces]
    i = int(rng.integers(0, len(values) - 1))
    j = int(rng.integers(i + 1, len(values)))
    seg = sum(widths[i:j + 1])
    if log:
        mean = math.exp(sum(w * math.log(v) for v, w in
                            zip(values[i:j + 1], widths[i:j + 1])) / seg)
    else:
        mean = sum(v * w for v, w in zip(values[i:j + 1], widths[i:j + 1])) / seg
    values[i:j + 1] = [mean] * (j + 1 - i)
    rho = float(rng.uniform(0.5, 0.95))
    return [(v * rho, w) for v, w in zip(values, widths)]


def _steps_json(pieces) -> dict:
    return {"pieces": [{"value": v, "width": w} for v, w in pieces]}


@dataclasses.dataclass
class _Plan:
    dom_dims: tuple
    dom_weights: list
    cod_dims: tuple
    cod_weights: list
    entries: list          # (source, target, transpose)


def _plan(rng: np.random.Generator, dims, fanout: bool) -> _Plan:
    """Random plan over ``dims``; with ``fanout`` the first source feeds two
    targets with independent transpose flags (at most three targets)."""
    entries, cod_dims = [], []
    for s, d in enumerate(dims):
        copies = 2 if (fanout and s == 0) else 1
        for _ in range(copies):
            cod_dims.append(d)
            entries.append([s, len(cod_dims) - 1, bool(rng.uniform() < 0.5)])
    order = [int(k) for k in rng.permutation(len(cod_dims))]
    remap = {old: new for new, old in enumerate(order)}
    for e in entries:
        e[1] = remap[e[1]]
    return _Plan(tuple(dims), _weights(rng, len(dims)),
                 tuple(cod_dims[old] for old in order),
                 _weights(rng, len(cod_dims)),
                 [tuple(e) for e in entries])


def _calibrated_betas(plan: _Plan, rng: np.random.Generator, p: float) -> list:
    """Scalars with sum_t c'_t beta_t^p = c_s for every source block, which
    makes T = B.J an Lp isometry."""
    betas = [0.0] * len(plan.cod_dims)
    for s, c_s in enumerate(plan.dom_weights):
        targets = [t for src, t, _ in plan.entries if src == s]
        shares = rng.uniform(0.5, 1.5, size=len(targets))
        shares = shares / shares.sum()
        for t, share in zip(targets, shares):
            betas[t] = float((c_s * share / plan.cod_weights[t]) ** (1.0 / p))
    return betas


def _offsets(dims) -> list:
    out, pos = [], 0
    for d in dims:
        out.append(pos)
        pos += d * d
    return out


def _map_matrix(plan: _Plan, betas, unitaries) -> np.ndarray:
    """Matrix of T(x)_t = beta_t u_t x_s^(T) u_t^* on the blockwise
    row-major matrix-unit basis, built independently of the library."""
    dom_off, cod_off = _offsets(plan.dom_dims), _offsets(plan.cod_dims)
    n_dom = sum(d * d for d in plan.dom_dims)
    n_cod = sum(d * d for d in plan.cod_dims)
    m = np.zeros((n_cod, n_dom), dtype=complex)
    for s, t, transpose in plan.entries:
        d = plan.dom_dims[s]
        u = unitaries[t]
        pattern = "aj,bi->abij" if transpose else "ai,bj->abij"
        block = betas[t] * np.einsum(pattern, u, u.conj()).reshape(d * d, d * d)
        m[cod_off[t]:cod_off[t] + d * d, dom_off[s]:dom_off[s] + d * d] = block
    return m


def _map_json(plan: _Plan, matrix: np.ndarray) -> dict:
    return {"domain": _algebra_json(plan.dom_dims, plan.dom_weights),
            "codomain": _algebra_json(plan.cod_dims, plan.cod_weights),
            "matrix": _matrix_json(matrix)}


def _plan_json(plan: _Plan, rng: np.random.Generator) -> dict:
    return {"domain": _algebra_json(plan.dom_dims, plan.dom_weights),
            "codomain": _algebra_json(plan.cod_dims, plan.cod_weights),
            "entries": [{"source": s, "target": t, "transpose": tr,
                         "unitary_seed": int(rng.integers(1, 2 ** 31))}
                        for s, t, tr in plan.entries]}


def _expected_kinds(plan: _Plan) -> list:
    """Classification of each target block: dimension-one blocks are hom."""
    kinds = ["hom"] * len(plan.cod_dims)
    for _, t, transpose in plan.entries:
        if transpose and plan.cod_dims[t] > 1:
            kinds[t] = "anti"
    return kinds


class _Writer:
    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def json(self, data) -> str:
        return self.text(json.dumps(data))

    def text(self, text: str) -> str:
        path = self.directory / f"in{self.count:04d}.json"
        self.count += 1
        path.write_text(text, encoding="utf-8")
        return str(path)


def cli_cases(seed: int, directory: Path) -> list:
    """Write the cli workload's input files into ``directory`` and return
    the pool of cases in the (seeded) order they are issued."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC11]))
    out = _Writer(directory)
    cases: list[Case] = []

    def operator(k: int):
        dims = OPERATOR_SHAPES[k % len(OPERATOR_SHAPES)]
        weights = _weights(rng, len(dims))
        blocks = _gaussian_blocks(rng, dims)
        path = out.json({"algebra": _algebra_json(dims, weights),
                         "blocks": [_matrix_json(b) for b in blocks]})
        return path, (weights, blocks)

    def plan_and_map(k: int, p: float = 2.0, fanout: bool | None = None,
                     square: bool = False):
        dims = MAP_SHAPES[k % len(MAP_SHAPES)]
        if fanout is None:
            fanout = bool(k % 2) and len(dims) <= 2
        plan = _plan(rng, dims, fanout and not square)
        betas = _calibrated_betas(plan, rng, p)
        unitaries = [_unitary(rng, d) for d in plan.cod_dims]
        return plan, betas, unitaries

    for verb, count in POOL:
        for k in range(count):
            name = f"{verb}-{k}"
            if verb in ("mu", "det"):
                path, op = operator(k)
                cases.append(Case(name, [verb, path], 0, (verb, op)))
            elif verb.startswith("norm-"):
                path, op = operator(k + 3)
                kind = verb[5:]
                tau = sum(c * b.shape[0] for c, b in zip(*op))
                if kind == "lp":
                    spec = {"type": "lp", "p": (0.5, 1.0, 2.0, 3.0)[k % 4]}
                elif kind == "lorentz":
                    weight = _decreasing_steps(rng, 3)
                    stretch = 1.25 * tau / sum(w for _, w in weight)
                    weight = [(v, w * stretch) for v, w in weight]
                    spec = {"type": "lorentz", "p": (1.0, 2.0)[k % 2],
                            "weight": _steps_json(weight)}
                else:
                    spec = {"type": "log"}
                cases.append(Case(name, ["norm", out.json(spec), path], 0,
                                  ("norm", (spec, op))))
            elif verb.startswith("majorize"):
                log = "log" in verb
                g = _decreasing_steps(rng, int(rng.integers(3, 8)))
                f = _flattened(g, rng, log)
                minorant, majorant = (g, f) if verb.endswith("false") else (f, g)
                argv = ["majorize"] + (["--log"] if log else []) + [
                    out.json(_steps_json(minorant)), out.json(_steps_json(majorant))]
                holds = not verb.endswith("false")
                cases.append(Case(name, argv, 0 if holds else 1,
                                  ("majorize", holds)))
            elif verb.startswith("jordan-verify"):
                plan, _, unitaries = plan_and_map(k)
                m = _map_matrix(plan, [1.0] * len(plan.cod_dims), unitaries)
                jordan = not verb.endswith("false")
                if not jordan:
                    m = m + 0.05 * (rng.standard_normal(m.shape)
                                    + 1j * rng.standard_normal(m.shape))
                argv = ["jordan", "verify", out.json(_map_json(plan, m)),
                        "--seed", str(int(rng.integers(0, 1000)))]
                cases.append(Case(name, argv, 0 if jordan else 1,
                                  ("jordan-verify", jordan)))
            elif verb == "jordan-split":
                plan, _, unitaries = plan_and_map(k, fanout=True)
                m = _map_matrix(plan, [1.0] * len(plan.cod_dims), unitaries)
                argv = ["jordan", "split", out.json(_map_json(plan, m))]
                cases.append(Case(name, argv, 0,
                                  ("jordan-split", _expected_kinds(plan))))
            elif verb == "jordan-random":
                plan, _, _ = plan_and_map(k)
                argv = ["jordan", "random", out.json(_plan_json(plan, rng))]
                cases.append(Case(name, argv, 0, ("jordan-random", None)))
            elif verb == "isometry-synth":
                p = (0.5, 1.0, 2.0, 3.0)[k % 4]
                plan, betas, _ = plan_and_map(k, p=p)
                spec = {"plan": _plan_json(plan, rng), "b_blocks": betas,
                        "norm_domain": {"type": "lp", "p": p},
                        "norm_codomain": {"type": "lp", "p": p}}
                cases.append(Case(name, ["isometry", "synth", out.json(spec)], 0,
                                  ("isometry-synth", None)))
            elif verb.startswith("isometry-analyze"):
                p = (0.5, 1.0, 2.0, 3.0)[k % 4]
                plan, betas, unitaries = plan_and_map(k, p=p)
                passed = not verb.endswith("false")
                if not passed:
                    top = max(range(len(betas)), key=lambda t: betas[t])
                    betas[top] *= 1.02
                m = _map_matrix(plan, betas, unitaries)
                norm = out.json({"type": "lp", "p": p})
                argv = ["isometry", "analyze", out.json(_map_json(plan, m)),
                        norm, norm, "--seed", str(int(rng.integers(0, 1000)))]
                cases.append(Case(name, argv, 0 if passed else 1,
                                  ("isometry-analyze", passed)))
            elif verb == "isometry-reflect":
                p = (0.5, 1.0, 2.0, 3.0)[k % 4]
                plan, betas, unitaries = plan_and_map(k, p=p, square=True)
                m = _map_matrix(plan, betas, unitaries)
                argv = ["isometry", "reflect", out.json(_map_json(plan, m)),
                        out.json({"type": "lp", "p": p}),
                        "--seed", str(int(rng.integers(0, 1000)))]
                cases.append(Case(name, argv, 0, ("isometry-reflect", None)))
            else:
                cases.append(_malformed(MALFORMED[k % len(MALFORMED)], name,
                                        rng, out, operator, plan_and_map))
    order = rng.permutation(len(cases))
    cases = [cases[int(i)] for i in order]
    for i, case in enumerate(cases):
        case.output = str(directory / f"out{i:04d}.json")
    return cases


def _malformed(kind: str, name: str, rng, out: _Writer, operator,
               plan_and_map) -> Case:
    """A case the CLI must reject with exit code 2 and an error object."""
    if kind == "bad-json":
        text = json.dumps({"algebra": _algebra_json((2,), [1.0]),
                           "blocks": [[[[1.0, 0.0]]]]})
        argv = ["mu", out.text(text[: len(text) // 2])]
    elif kind == "bad-shape":
        dims = (2, 3)
        blocks = _gaussian_blocks(rng, (2, 2))   # second block has the wrong size
        argv = ["det", out.json({"algebra": _algebra_json(dims, _weights(rng, 2)),
                                 "blocks": [_matrix_json(b) for b in blocks]})]
    elif kind == "bad-norm":
        path, _ = operator(int(rng.integers(0, 15)))
        argv = ["norm", out.json({"type": "schatten", "p": 2}), path]
    elif kind == "short-weight":
        path, op = operator(int(rng.integers(0, 15)))
        tau = sum(c * b.shape[0] for c, b in zip(*op))
        weight = [(1.0, 0.5 * tau)]
        argv = ["norm", out.json({"type": "lorentz", "p": 1.0,
                                  "weight": _steps_json(weight)}), path]
    elif kind == "missing-pieces":
        g = _decreasing_steps(rng, 4)
        argv = ["majorize", out.json({"values": [v for v, _ in g]}),
                out.json(_steps_json(g))]
    elif kind == "bad-map":
        plan, _, unitaries = plan_and_map(int(rng.integers(0, 8)))
        m = _map_matrix(plan, [1.0] * len(plan.cod_dims), unitaries)
        argv = ["jordan", "verify", out.json(_map_json(plan, m[:, :-1]))]
    elif kind == "bad-calibration":
        plan, betas, _ = plan_and_map(int(rng.integers(0, 8)), p=2.0)
        betas[0] *= 1.05
        spec = {"plan": _plan_json(plan, rng), "b_blocks": betas,
                "norm_domain": {"type": "lp", "p": 2.0},
                "norm_codomain": {"type": "lp", "p": 2.0}}
        argv = ["isometry", "synth", out.json(spec)]
    else:  # missing-file
        argv = ["mu", str(out.directory / "absent.json")]
    return Case(name, argv, 2, ("error", kind))


# ---------------------------------------------------------------------------
# cli workload: output checks against dense numpy

def _oracle_pieces(weights, blocks) -> list:
    pieces = []
    for c, b in zip(weights, blocks):
        pieces.extend((float(s), c) for s in np.linalg.svd(b, compute_uv=False))
    pieces.sort(key=lambda p: -p[0])
    return pieces


def _step_values(pieces, t: np.ndarray) -> np.ndarray:
    values = np.array([v for v, _ in pieces] + [0.0])
    ends = np.cumsum([w for _, w in pieces])
    return values[np.searchsorted(ends, t, side="right")]


def _integrate(f, g, p: float, length: float) -> float:
    """int_0^length f(t)^p g(t) dt for step functions given as pieces."""
    grid = np.union1d(np.cumsum([w for _, w in f]), np.cumsum([w for _, w in g]))
    grid = np.union1d(grid[grid < length], [length])
    cells = np.concatenate([[0.0], grid])
    mids = (cells[:-1] + cells[1:]) / 2.0
    return float(np.sum(_step_values(f, mids) ** p * _step_values(g, mids)
                        * np.diff(cells)))


def _close(a: float, b: float, rel: float = 1e-8) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_output(case: Case, code: int, data: bytes) -> str | None:
    """Return a reason when the output disagrees with the expected result."""
    if code != case.expect_code:
        return f"exit code {code}, expected {case.expect_code}"
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    kind, info = case.check
    if kind == "mu":
        weights, blocks = info
        want = _oracle_pieces(weights, blocks)
        got = [(float(p["value"]), float(p["width"])) for p in doc["pieces"]]
        length = sum(w for _, w in want)
        if not _close(sum(w for _, w in got), length, 1e-12):
            return "mu has the wrong total length"
        grid = np.union1d(np.cumsum([w for _, w in want]), np.cumsum([w for _, w in got]))
        cells = np.concatenate([[0.0], grid[grid < length * (1 - 1e-12)], [length]])
        mids = (cells[:-1] + cells[1:]) / 2.0
        scale = max(1.0, want[0][0])
        if np.max(np.abs(_step_values(want, mids) - _step_values(got, mids))) > 1e-8 * scale:
            return "mu differs from the dense singular values"
    elif kind == "det":
        weights, blocks = info
        log_det = sum(c * math.log(s) for s, c in _oracle_pieces(weights, blocks))
        if not _close(float(doc["det"]), math.exp(log_det)):
            return "det differs from prod s^w"
    elif kind == "norm":
        spec, (weights, blocks) = info
        mu = _oracle_pieces(weights, blocks)
        length = sum(w for _, w in mu)
        if spec["type"] == "lp":
            p = spec["p"]
            want = sum(c * s ** p for s, c in mu) ** (1.0 / p)
        elif spec["type"] == "log":
            want = sum(c * math.log1p(s) for s, c in mu)
        else:
            p = spec["p"]
            weight = [(q["value"], q["width"]) for q in spec["weight"]["pieces"]]
            want = _integrate(mu, weight, p, length) ** (1.0 / p)
        if not _close(float(doc["norm"]), want):
            return f"{spec['type']} norm differs from the dense value"
    elif kind == "majorize":
        if doc["holds"] is not info:
            return "majorisation verdict differs from the construction"
        if not info and "worst_t" not in doc:
            return "false verdict carries no witness"
    elif kind == "jordan-verify":
        if doc["jordan"] is not info:
            return "Jordan verdict differs from the construction"
        if not info and doc.get("worst", {}).get("witness") is None:
            return "failed verification carries no witness"
    elif kind == "jordan-split":
        for summand in doc["summands"]:
            blocks = summand["projection"]["blocks"]
            for t, block in enumerate(blocks):
                if np.linalg.norm(np.array(block)) > 0.5 and summand["kind"] != info[t]:
                    return f"target block {t} classified {summand['kind']}"
        covered = {t for s in doc["summands"]
                   for t, block in enumerate(s["projection"]["blocks"])
                   if np.linalg.norm(np.array(block)) > 0.5}
        if covered != set(range(len(info))):
            return "central summands do not cover the codomain"
    elif kind == "jordan-random":
        if not all(doc["certificate"][k] for k in
                   ("selfadjoint_ok", "square_ok", "positivity_ok")):
            return "generated map lacks a passing certificate"
    elif kind == "isometry-synth":
        if "map" not in doc:
            return "synthesis returned no map"
    elif kind == "isometry-analyze":
        if doc["passed"] is not info:
            return "analysis verdict differs from the construction"
    elif kind == "isometry-reflect":
        if doc["ok"] is not True:
            return "reflection check failed"
    elif kind == "error":
        err = doc.get("error")
        if not (isinstance(err, dict) and err.get("type") and "message" in err):
            return "exit 2 without an error object"
    return None
