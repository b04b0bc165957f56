"""Symmetric Delta-norms: evaluation and axiom/monotonicity checkers.

Three norm families are supported, all functions of mu(x) alone:

* ``Lp(p)``      -- (integral of mu^p)^(1/p), 0 < p < infinity;
* ``Lorentz(p, w)`` -- (integral of mu^p w)^(1/p) against a strictly
  positive non-increasing step weight;
* ``LogF()``     -- integral of log(1 + mu), an F-norm.

Evaluation is exact piecewise arithmetic over the refined partition of
mu(x) and the weight, batched over many functions (``evaluate_norms``,
``evaluate_norms_mu``) with the bits of a function-by-function
evaluation.  The checkers are randomized: they verify the Delta-norm
axioms, the symmetry property (monotonicity under pointwise
mu-domination) and strict log-monotonicity, reporting violations with
witnesses instead of raising.

Each checker draws its inputs per trial, in a fixed order from the
trial's stream, evaluates them stacked per block dimension (one LAPACK
call per dimension for all trials, whatever their algebras) and then
takes its decisions in trial order: the same bits as a trial-by-trial
evaluation.  Norms that only gate a check are evaluated in one batch per
checker (per round in ``check_slm``, after its accept/reject decisions);
Lp and LogF norms are read from the arrays of ``stepfun.mu_arrays``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence, Union

import numpy as np

from .algebra import BlockStacks, FiniteAlgebra, Operator, OperatorBatch, norm_inf_many
from .config import tolerances
from .errors import GenerationFailure, NegativeValue, ShapeMismatch, WeightTooShort
from .majorization import log_submajorizes
from .sampling import gaussian, random_algebra, rng_streams, unitaries, unitary_draws
from .stepfun import StepFunction, _refine, mu_arrays, mu_many


@dataclasses.dataclass(frozen=True)
class Lp:
    p: float

    def __post_init__(self):
        if not (self.p > 0.0):
            raise ValueError(f"Lp exponent must be positive, got {self.p}")
        if not math.isfinite(self.p):
            raise ValueError(f"Lp exponent must be finite, got {self.p}")


@dataclasses.dataclass(frozen=True)
class Lorentz:
    p: float
    weight: StepFunction

    def __post_init__(self):
        if not (self.p > 0.0):
            raise ValueError(f"Lorentz exponent must be positive, got {self.p}")
        if not math.isfinite(self.p):
            raise ValueError(f"Lorentz exponent must be finite, got {self.p}")
        if not self.weight.pieces:
            raise ValueError("Lorentz weight must be nonempty")
        if not self.weight.is_decreasing:
            raise ValueError("Lorentz weight must be non-increasing")
        if float(self.weight.values.min()) <= 0.0:
            raise ValueError("Lorentz weight must be strictly positive")


@dataclasses.dataclass(frozen=True)
class LogF:
    pass


NormSpec = Union[Lp, Lorentz, LogF]


def norm_label(spec: NormSpec) -> str:
    if isinstance(spec, Lp):
        return f"lp({spec.p:g})"
    if isinstance(spec, Lorentz):
        return f"lorentz({spec.p:g})"
    return "log"


def quasi_constant(spec: NormSpec) -> float | None:
    """Closed-form quasi-triangle constant, or None when only an empirical
    estimate is reported (Lorentz)."""
    if isinstance(spec, Lp):
        return 1.0 if spec.p >= 1.0 else 2.0 ** (1.0 / spec.p - 1.0)
    if isinstance(spec, LogF):
        return 1.0
    return None


def evaluate_norm_mu(spec: NormSpec, f: StepFunction) -> float:
    """Evaluate a norm on an already-computed singular value function."""
    return evaluate_norms_mu(spec, [f])[0]


def evaluate_norms_mu(spec: NormSpec, fs: Sequence[StepFunction]) -> list[float]:
    """``[evaluate_norm_mu(spec, f) for f in fs]``, batched (see
    ``_norms_of_arrays`` and ``_lorentz_norms``)."""
    if isinstance(spec, Lorentz):
        return _lorentz_norms(spec, fs)
    return _norms_of_arrays(spec, [(f.values, f.widths) for f in fs])


def evaluate_norm(spec: NormSpec, x: Operator) -> float:
    return evaluate_norms(spec, [x])[0]


def evaluate_norms(spec: NormSpec, xs: Sequence[Operator] | OperatorBatch) -> list[float]:
    """``[evaluate_norm(spec, x) for x in xs]``; Lp and LogF norms are read
    from the arrays of ``stepfun.mu_arrays``, without building a step
    function per x."""
    if isinstance(spec, Lorentz):
        return _lorentz_norms(spec, mu_many(xs))
    return _norms_of_arrays(spec, [(values, widths) for values, widths, _ in mu_arrays(xs)])


def _norms_of_arrays(spec: Lp | LogF,
                     arrays: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    """Lp or LogF norms of the step functions with the given ``(values,
    widths)``, in stacks of equal piece count.

    Every norm is bit for bit that of a function-by-function evaluation:
    it is the pairwise sum of ``values ** p * widths`` (of ``log1p(values)
    * widths``) over one row of a stack, which numpy sums as it sums the
    row alone.
    """
    groups: dict[int, list[int]] = {}
    for i, (values, _) in enumerate(arrays):
        groups.setdefault(values.size, []).append(i)
    out = [0.0] * len(arrays)
    for rows in groups.values():
        values = np.array([arrays[i][0] for i in rows])
        widths = np.array([arrays[i][1] for i in rows])
        if not np.all(values >= 0.0):
            raise NegativeValue("norms are evaluated on nonnegative mu functions")
        if isinstance(spec, LogF):
            norms = np.sum(np.log1p(values) * widths, axis=1).tolist()
        else:
            norms = [total ** (1.0 / spec.p)
                     for total in np.sum(values ** spec.p * widths, axis=1).tolist()]
        for i, norm in zip(rows, norms):
            out[i] = norm
    return out


def _lorentz_norms(spec: Lorentz, fs: Sequence[StepFunction]) -> list[float]:
    """Lorentz norms of ``fs`` over each function's common refinement with
    the weight, which is truncated once per distinct length of the
    functions.  The refinements with the same number of cells are summed in
    one stack, whose rows numpy sums as it sums each row alone."""
    weight = spec.weight
    truncated: dict[float, StepFunction] = {}
    cells = []
    stacks: dict[int, list[int]] = {}
    for i, f in enumerate(fs):
        if not f.is_nonnegative:
            raise NegativeValue("norms are evaluated on nonnegative mu functions")
        length = f.total_length
        if weight.total_length < length * (1.0 - 1e-12):
            raise WeightTooShort(f"weight length {weight.total_length} < trace length {length}")
        w = truncated.get(length)
        if w is None:
            w = truncated[length] = weight.truncate(min(length, weight.total_length))
        cells.append(_refine(f, w))
        stacks.setdefault(len(cells[-1][0]), []).append(i)
    out = [0.0] * len(fs)
    for rows in stacks.values():
        widths, fv, wv = (np.array([cells[i][k] for i in rows], dtype=float) for k in range(3))
        for i, total in zip(rows, np.sum(fv ** spec.p * wv * widths, axis=1).tolist()):
            out[i] = total ** (1.0 / spec.p)
    return out


@dataclasses.dataclass(frozen=True)
class Violation:
    axiom: str
    witness: str
    magnitude: float

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "witness": self.witness, "magnitude": self.magnitude}


@dataclasses.dataclass(frozen=True)
class NormCheckReport:
    passed: bool
    axiom_violations: tuple[Violation, ...]
    trials: int
    stats: dict

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.to_json() for v in self.axiom_violations],
            "trials": self.trials,
            "stats": self.stats,
        }


def _report(violations: list[Violation], trials: int, stats: dict | None = None) -> NormCheckReport:
    return NormCheckReport(not violations, tuple(violations), trials, stats or {})


def check_delta_axioms(spec: NormSpec, samples: OperatorBatch | Sequence[Operator]
                       ) -> NormCheckReport:
    """Verify the four Delta-norm axioms on samples of one algebra.

    Positivity and definiteness, contractivity under |alpha| <= 1,
    vanishing along alpha = 2^-k, and the quasi-triangle inequality with
    the variant's constant.  For Lorentz norms the constant is estimated
    empirically (max observed ratio) and reported in ``stats``.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    tol = tolerances().norm
    violations: list[Violation] = []
    n, n_halved = len(samples), min(8, len(samples))
    rng = np.random.default_rng(20570)
    alphas = [rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
              for _ in range(n)]
    if not isinstance(samples, OperatorBatch):
        if any(x.algebra != samples[0].algebra for x in samples):
            raise ShapeMismatch("operators live in different algebras")
        samples = OperatorBatch.of(samples[0].algebra, [x.blocks for x in samples])
    # every operator whose norm is needed, in one batch: the samples, zero,
    # alpha * x, 2^-k * x (k = 1..40) and the sums of neighbours
    alg, rows = samples.algebra, samples.rows
    norms = iter(evaluate_norms(spec, OperatorBatch(alg, np.concatenate([
        rows,
        np.zeros((1, alg.vector_dim)),
        np.array(alphas)[:, None] * rows,
        (rows[:n_halved, None] * (2.0 ** -np.arange(1, 41))[:, None]).reshape(-1, alg.vector_dim),
        rows[:-1] + rows[1:],
    ]))))
    sample_norms = [next(norms) for _ in range(n)]
    zero_norm = next(norms)
    scaled_norms = [next(norms) for _ in range(n)]
    halved_norms = [[next(norms) for _ in range(40)] for _ in range(n_halved)]
    sum_norms = list(norms)

    if zero_norm != 0.0:
        violations.append(Violation("definiteness", "zero operator", zero_norm))
    sizes = norm_inf_many(samples)
    for i, (size, nx) in enumerate(zip(sizes, sample_norms)):
        if nx < 0.0:
            violations.append(Violation("positivity", f"sample {i}", nx))
        if size > 1e-12 and nx <= 0.0:
            violations.append(Violation("definiteness", f"sample {i}", nx))

    for i, (alpha, na, nx) in enumerate(zip(alphas, scaled_norms, sample_norms)):
        if na > nx * (1.0 + tol) + tol:
            violations.append(Violation("contractivity", f"sample {i}, |alpha|={abs(alpha):.3f}",
                                        na - nx))

    for i, ns in enumerate(halved_norms):
        prev = sample_norms[i]
        for k, cur in enumerate(ns, start=1):
            if cur > prev * (1.0 + tol) + tol:
                violations.append(Violation("continuity-at-0", f"sample {i}, k={k}", cur - prev))
                break
            prev = cur
        else:
            if prev > 1e-7:
                violations.append(Violation("continuity-at-0", f"sample {i} tail", prev))

    c_closed = quasi_constant(spec)
    worst_ratio = 0.0
    for i, n_sum in enumerate(sum_norms):
        denom = sample_norms[i] + sample_norms[i + 1]
        if denom <= 1e-15:
            continue
        ratio = n_sum / denom
        worst_ratio = max(worst_ratio, ratio)
        if c_closed is not None and ratio > c_closed * (1.0 + 1e-9) + 1e-12:
            violations.append(Violation("quasi-triangle", f"pair ({i}, {i+1})", ratio - c_closed))
    stats = {"quasi_triangle_worst_ratio": worst_ratio}
    if c_closed is not None:
        stats["quasi_triangle_constant"] = c_closed
    elif not math.isfinite(worst_ratio):
        violations.append(Violation("quasi-triangle", "non-finite ratio", worst_ratio))
    return _report(violations, len(samples), stats)


def check_symmetric(spec: NormSpec, trials: int, seed: int) -> NormCheckReport:
    """Monotonicity under mu-domination: mu(y) <= mu(x) implies
    ||y|| <= ||x||, on randomly generated pairs.

    Per trial: a random algebra, a Gaussian ``x``, two unitaries ``u``,
    ``v`` and shrink factors ``r`` in [0, 1); with ``x = U diag(s) V*``,
    ``y = u (U diag(s r) V*) v``.  The draws are value-independent, so all
    trials are drawn first; then one stacked QR and one stacked SVD per
    block dimension, and one ``evaluate_norms`` over every ``x`` and ``y``.
    """
    tol = tolerances().norm
    label = f"symmetric:{norm_label(spec)}"
    draws = []
    for rng in rng_streams(seed, label, range(trials)):
        alg = random_algebra(rng)
        x = gaussian(alg, rng)
        u = unitary_draws(alg, rng)
        v = unitary_draws(alg, rng)
        shrink = [rng.uniform(0.0, 1.0, size=d) for d in alg.dims]
        draws.append((x, u, v, shrink))
    xs = [x for x, *_ in draws]
    uvs = unitaries([(x.algebra, u) for x, u, _, _ in draws]
                    + [(x.algebra, v) for x, _, v, _ in draws])
    stacks = BlockStacks.of(xs)
    ys = []
    for (x, _, _, shrink), u, v, svds in zip(
            draws, uvs[:trials], uvs[trials:],
            stacks.rows([np.linalg.svd(s) for s in stacks.stacks])):
        blocks = [uu @ np.diag((s * r).astype(complex)) @ vh
                  for (uu, s, vh), r in zip(svds, shrink)]
        ys.append(u @ Operator(x.algebra, blocks) @ v)
    norms = evaluate_norms(spec, xs + ys)
    violations: list[Violation] = []
    for trial, (nx, ny) in enumerate(zip(norms[:trials], norms[trials:])):
        if ny > nx + tol * nx:
            violations.append(Violation("symmetry", f"trial {trial}", ny - nx))
    return _report(violations, trials)


def _flatten_and_shrink(slots: list[tuple[float, float]], rng: np.random.Generator):
    """Redistribute log-mass of a descending slot list and shrink.

    A contiguous run of positive slots is replaced by its width-weighted
    geometric mean (this preserves total log-mass and lowers every proper
    log-prefix), then all values are scaled by a factor rho < 1.  Returns
    the new values and the constructed log-mass gap at full length.
    """
    values = [v for v, _ in slots]
    widths = [w for _, w in slots]
    pos = [i for i, v in enumerate(values) if v > 0.0]
    if len(pos) >= 2 and rng.uniform() < 0.7:
        i = int(rng.integers(0, len(pos) - 1))
        j = int(rng.integers(i + 1, len(pos)))
        lo, hi = pos[i], pos[j]
        seg_w = sum(widths[lo:hi + 1])
        seg_log = sum(w * math.log(v) for v, w in zip(values[lo:hi + 1], widths[lo:hi + 1]))
        mean = math.exp(seg_log / seg_w)
        for k in range(lo, hi + 1):
            values[k] = mean
    rho = float(rng.uniform(0.5, 0.95))
    values = [v * rho for v in values]
    pos_width = sum(w for v, w in zip(values, widths) if v > 0.0)
    gap = pos_width * (-math.log(rho))
    return values, gap


def _slm_diagonals(alg: FiniteAlgebra, svals: Sequence[np.ndarray],
                   rng: np.random.Generator):
    """The per-block descending diagonals of an SLM candidate ``x`` from
    ``y``'s per-block singular values (see ``_flatten_and_shrink``), and
    the constructed log-mass gap."""
    slots = [(float(v), c) for (_, c), s in zip(alg.blocks, svals) for v in s]
    order = sorted(range(len(slots)), key=lambda i: -slots[i][0])
    new_sorted, gap = _flatten_and_shrink([slots[i] for i in order], rng)
    new_values = [0.0] * len(slots)
    for rank, idx in enumerate(order):
        new_values[idx] = new_sorted[rank]
    diags = []
    pos = 0
    for d in alg.dims:
        diags.append(sorted(new_values[pos:pos + d], reverse=True))
        pos += d
    return diags, gap


def check_slm(spec: NormSpec, trials: int, seed: int) -> NormCheckReport:
    """Strict log-monotonicity on constructed strict pairs.

    Per candidate, a random y is drawn and x is built with
    mu(x) <<_log mu(y) and mu(x) != mu(y) by flattening a run of the
    singular value slots of y to its geometric mean and shrinking all
    values by rho < 1.  The pair is verified by the predicate before the
    norm gap is asserted; the strictness threshold is proportional to the
    constructed log-mass gap rather than a bare epsilon.

    Candidates come in rounds of ``trials - produced`` (at most the
    ``10 * trials`` attempts left): each round draws its algebras and
    ``y``'s, takes ``y``'s singular values in one stacked call per block
    dimension, continues every stream (the flattening, then the unitaries'
    Gaussians), makes one stacked QR per dimension and one ``mu_many``,
    accepts or rejects in candidate order, and then evaluates the norms of
    the accepted pairs in one batch.
    """
    tol = tolerances()
    violations: list[Violation] = []
    label = f"slm:{norm_label(spec)}"
    produced = 0
    attempts = 0
    max_attempts = 10 * trials
    while produced < trials:
        if attempts >= max_attempts:
            raise GenerationFailure(
                f"no valid SLM pair in {max_attempts} attempts for {norm_label(spec)}")
        first = attempts
        streams = rng_streams(seed, label,
                              range(first, first + min(trials - produced, max_attempts - attempts)))
        ys = []
        for rng in streams:
            alg = random_algebra(rng)
            ys.append(gaussian(alg, rng))
        stacks = BlockStacks.of(ys)
        svals = stacks.rows([np.linalg.svd(s, compute_uv=False) for s in stacks.stacks])
        diags, gaps, uv_draws = [], [], []
        for rng, y, sv in zip(streams, ys, svals):
            d, gap = _slm_diagonals(y.algebra, sv, rng)
            diags.append(d)
            gaps.append(gap)
            uv_draws.append((y.algebra, unitary_draws(y.algebra, rng)))
            uv_draws.append((y.algebra, unitary_draws(y.algebra, rng)))
        uvs = unitaries(uv_draws)
        xs = [uvs[2 * i] @ y.algebra.diagonal(d) @ uvs[2 * i + 1]
              for i, (y, d) in enumerate(zip(ys, diags))]
        mus = mu_many(xs + ys)
        accepted = []
        for i in range(len(xs)):
            attempts += 1
            fx, fy = mus[i], mus[len(xs) + i]
            verdict = log_submajorizes(fx, fy)
            # both mu are padded to tau(1): the verdict's partition is theirs
            _, fxv, fyv = _refine(fx, fy, verdict.checked_points)
            distinct = any(abs(p - q) > 1e-12 for p, q in zip(fxv, fyv))
            if verdict.holds and distinct:
                accepted.append(i)
        produced += len(accepted)
        # the norms read by no accept/reject decision, in one batch
        norms = evaluate_norms_mu(spec, [f for i in accepted
                                         for f in (mus[i], mus[len(xs) + i])])
        for i, nx, ny in zip(accepted, norms[::2], norms[1::2]):
            if nx > ny + tol.norm * ny:
                violations.append(Violation("log-monotone", f"trial {first + i}", nx - ny))
            threshold = tol.strict * gaps[i] * max(ny, 1e-300)
            if ny - nx <= threshold:
                violations.append(Violation("slm-strict", f"trial {first + i}", ny - nx))
    return _report(violations, trials, {"attempts": attempts})
