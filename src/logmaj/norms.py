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
evaluation.  ``check_symmetric_many`` and ``check_slm_many`` do this for
several variants at once: every variant draws from its own streams, the
trials of all variants share the stacks, the ``mu`` calls and one stacked
QR, and each variant decides in variant order.  ``check_symmetric`` and
``check_slm`` are their one-variant case.  Norms that only gate a check
are evaluated in one batch per checker and variant (per round in
``check_slm_many``, after its accept/reject decisions).  The checkers
take each singular value once: ``check_slm_many`` reads mu of its
``y``'s off the SVD its round takes of them, and ``check_delta_axioms``
scales the rows of ``2^-k x`` from the samples' singular values.

All norms are read from zero-padded ``values`` and ``widths`` arrays: for
two or more operators, those of the table of mu's array pass
(``stepfun._mu_table``), with no step function but its cascade rows';
otherwise those of mu's step functions, packed in the same layout.  Lp
and LogF norms sum the rows of each piece count in one call; Lorentz
norms refine all rows against the weight, truncated once per length, in
one array pass; a lone function, and the rows the pass cannot take (a
chain of breakpoints within the slop), are refined one by one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence, Union

import numpy as np

from .algebra import (BlockStacks, FiniteAlgebra, Operator, OperatorBatch, exactly_hermitian,
                      stacked_singular_values)
from .config import tolerances
from .errors import GenerationFailure, NegativeValue, ShapeMismatch, WeightTooShort
from .majorization import log_submajorizes
from .sampling import GAUSSIAN, UNITARY, random_algebra, rng_streams, unitaries
from .stepfun import (_EDGE_REL, StepFunction, _algebra_table, _mu_table, _refine, _row_sums,
                      _stacks_table, mu_many)


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
    """``[evaluate_norm_mu(spec, f) for f in fs]``, batched: the pieces of
    ``fs`` are packed as the rows of two arrays, zero past each row's
    count, the layout of ``stepfun._mu_table`` (see ``_norms``)."""
    sizes = np.array([f.values.size for f in fs], dtype=int)
    filled = np.arange(max(sizes.tolist(), default=0)) < sizes[:, None]
    values, widths = np.zeros(filled.shape), np.zeros(filled.shape)
    if fs:
        values[filled] = np.concatenate([f.values for f in fs])
        widths[filled] = np.concatenate([f.widths for f in fs])
    lengths = np.array([f.total_length for f in fs]) if isinstance(spec, Lorentz) else None
    return _norms(spec, values, widths, sizes, lengths, lambda rows: [fs[i] for i in rows])


def evaluate_norm(spec: NormSpec, x: Operator) -> float:
    return evaluate_norms(spec, [x])[0]


def evaluate_norms(spec: NormSpec, xs: Sequence[Operator] | OperatorBatch) -> list[float]:
    """``[evaluate_norm(spec, x) for x in xs]``.  The norms of two or more
    operators are read off the table of mu's array pass
    (``stepfun._mu_table``), in which only the cascade rows are step
    functions; a lone operator goes through ``mu_many``."""
    if len(xs) < 2:
        return evaluate_norms_mu(spec, mu_many(xs))
    return _table_norms(spec, _mu_table(xs))


def _table_norms(spec: NormSpec, table) -> list[float]:
    """The norms of the rows of one of mu's tables (``stepfun._MuTable``)."""
    return _norms(spec, table.values, table.widths, table.counts, table.lengths, table.functions)


def _norms(spec: NormSpec, values: np.ndarray, widths: np.ndarray, sizes: np.ndarray,
           lengths: np.ndarray | None, functions) -> list[float]:
    """The norms of step functions whose pieces are ``values[i, :sizes[i]]``
    and ``widths[i, :sizes[i]]`` (zeros past them), of total length
    ``lengths[i]`` (read by Lorentz norms only); ``functions(rows)`` gives
    the step functions of ``rows``, for the Lorentz rows refined alone.

    Every norm is bit for bit that of a function-by-function evaluation:
    an Lp or LogF norm is the pairwise sum of ``values ** p * widths`` (of
    ``log1p(values) * widths``) over one row, which numpy sums in a stack
    of the rows of equal count as it sums the row alone.
    """
    if isinstance(spec, Lorentz):
        return _lorentz_norms(spec, values, widths, sizes, lengths, functions)
    if not (values >= 0.0).all():
        raise NegativeValue("norms are evaluated on nonnegative mu functions")
    terms = np.log1p(values) * widths if isinstance(spec, LogF) else values ** spec.p * widths
    totals = _row_sums(terms, sizes, np.arange(len(sizes))).tolist()
    return totals if isinstance(spec, LogF) else [total ** (1.0 / spec.p) for total in totals]


def _lorentz_norms(spec: Lorentz, values: np.ndarray, widths: np.ndarray, sizes: np.ndarray,
                   lengths: np.ndarray, functions) -> list[float]:
    """Lorentz norms (see ``_norms``) over each function's common
    refinement with the weight, which is truncated once per distinct
    length of the functions.

    The refinements of two or more functions are taken in one array pass
    (``_lorentz_totals``); a lone function, and the rows the pass leaves,
    are refined one by one by ``_refine``.  Each row's total is the
    pairwise sum that numpy takes of the row alone.
    The first function that is negative or longer than the weight raises,
    as in a function-by-function evaluation.
    """
    weight = spec.weight
    truncated: dict[float, int] = {}   # length -> its index in ``weights``
    weights: list[StepFunction] = []
    owner = []
    for length, bad in zip(lengths.tolist(), (values < 0.0).any(axis=1).tolist()):
        if bad:
            raise NegativeValue("norms are evaluated on nonnegative mu functions")
        j = truncated.get(length)
        if j is None:
            if weight.total_length < length * (1.0 - 1e-12):
                raise WeightTooShort(
                    f"weight length {weight.total_length} < trace length {length}")
            j = truncated[length] = len(weights)
            weights.append(weight.truncate(min(length, weight.total_length)))
        owner.append(j)
    totals = np.zeros(len(sizes))
    alone = (range(len(sizes)) if len(sizes) < 2 or not sizes.any()
             else _lorentz_totals(spec.p, values, widths, sizes, lengths, weights, owner, totals))
    for i, f in zip(alone, functions(alone)):
        cell_widths, fv, wv = map(np.array, _refine(f, weights[owner[i]]))
        totals[i] = np.sum(fv ** spec.p * wv * cell_widths)
    return [total ** (1.0 / spec.p) for total in totals.tolist()]


def _lorentz_totals(p: float, values: np.ndarray, widths: np.ndarray, sizes: np.ndarray,
                    lengths: np.ndarray, weights: Sequence[StepFunction], owner: Sequence[int],
                    totals: np.ndarray) -> list[int]:
    """``_refine`` of every function (row ``i`` of ``values`` and
    ``widths``) against its truncated weight ``weights[owner[i]]``, in one
    array pass: the integral of ``fv ** p * wv`` over the cells goes to
    ``totals``.  Returns the rows left to ``_refine``.

    Each row's ends (its cumulative widths) and its weight's ends are
    sorted together, and a breakpoint is kept when it lies more than the
    slop above the breakpoint before it; ``_union_breakpoints`` compares
    with the last breakpoint kept instead, which is the same unless two
    consecutive gaps are within the slop.  The rows with such a chain, the
    rows that ``_refine`` would pad (a weight shorter than the function by
    more than the slop) and empty rows are left.  The cells' values are
    looked up as ``_refine`` looks them up, and the cells of equal count
    are summed in one stack.
    """
    m = len(sizes)
    w_ends = [w._ends for w in weights]
    k = max(map(len, w_ends))
    w_lengths = np.array([w.total_length for w in weights])[owner]
    longest = np.maximum(lengths, w_lengths)
    slop = _EDGE_REL * np.maximum(1.0, longest)
    # the rows that _refine pads, and empty rows, are left to it
    alone = (longest - lengths > slop) | (longest - w_lengths > slop) | (sizes == 0)
    n = int(sizes.max())
    # values[i, sizes[i]:] = 0, as past the last end
    values = np.concatenate([values[:, :n], np.zeros((m, 1))], axis=1)
    f_ends = np.cumsum(widths[:, :n], axis=1)
    f_ends[np.arange(n) >= sizes[:, None]] = np.inf
    w_table = np.full((len(weights), k), np.inf)
    w_values = np.zeros((len(weights), k + 1))
    for j, (ends, w) in enumerate(zip(w_ends, weights)):
        w_table[j, :len(ends)] = ends
        w_values[j, :len(ends)] = w._values
    g_ends, g_values = w_table[owner], w_values[owner]
    points = np.sort(np.concatenate([f_ends, g_ends], axis=1), axis=1)
    real = points < np.inf
    gaps = np.subtract(points[:, 1:], points[:, :-1], out=np.full((m, n + k - 1), np.inf),
                       where=real[:, 1:])
    near = gaps <= slop[:, None]
    alone |= (near[:, 1:] & near[:, :-1]).any(axis=1)
    keep = np.concatenate([real[:, :1], ~near & real[:, 1:]], axis=1)
    counts = keep.sum(axis=1)
    # the kept breakpoints first, in order; past them a row's terms are 0
    # and never read
    right = np.take_along_axis(points, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    beyond = np.arange(n + k) >= counts[:, None]
    right[beyond] = 0.0
    lo = np.concatenate([np.zeros((m, 1)), right[:, :-1]], axis=1)
    mids = (lo + right) / 2.0
    fv = np.take_along_axis(values, (f_ends[:, None, :] <= mids[:, :, None]).sum(axis=2), axis=1)
    wv = np.take_along_axis(g_values, (g_ends[:, None, :] <= mids[:, :, None]).sum(axis=2), axis=1)
    fv[beyond] = 0.0
    terms = fv ** p * wv * (right - lo)
    kept = np.flatnonzero(~alone)
    totals[kept] = _row_sums(terms, counts, kept)[kept]
    return np.flatnonzero(alone).tolist()


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

    The continuity tail and the quasi-triangle pair skip are relative to
    the samples' own norms: the norm of ``2^-40 x`` must be at most
    ``1e-7 ||x||``, and a pair is left out of the ratios only when its
    norms sum to at most ``1e-15`` times the largest sample norm.  For Lp
    and Lorentz norms, which are homogeneous, neither depends on the scale
    of the samples.  LogF is not homogeneous: ``||2^-40 x|| / ||x||``
    grows with the scale of ``x`` once ``x`` is large, and 40 halvings
    meet the tail gate on Gaussian samples up to a scale of about 1e5.

    Every singular value comes from one stacked call per block, over the
    samples, zero, ``alpha * x`` and the sums of neighbours.  The rows of
    ``2^-k x`` (``k = 1..40``, the first eight samples) are the samples'
    singular values times ``2^-k``: a power of two scales every float
    exactly, and LAPACK's SVD and eigensolver are equivariant under it,
    so these are the rows a decomposition of ``2^-k x`` gives.  All rows
    then take one pass of mu's table (``stepfun._algebra_table``).
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    tol = tolerances().norm
    violations: list[Violation] = []
    n, n_halved = len(samples), min(8, len(samples))
    alphas = _contraction_factors(n)
    if not isinstance(samples, OperatorBatch):
        if any(x.algebra != samples[0].algebra for x in samples):
            raise ShapeMismatch("operators live in different algebras")
        samples = OperatorBatch.of(samples[0].algebra, [x.blocks for x in samples])
    # the singular values of the samples, zero, alpha * x and the sums of
    # neighbours; then those of 2^-k * x inserted after alpha * x
    alg, rows = samples.algebra, samples.rows
    decomposed = OperatorBatch(alg, np.concatenate([
        rows, np.zeros((1, alg.vector_dim)), alphas[:, None] * rows, rows[:-1] + rows[1:]]))
    sv = np.concatenate([stacked_singular_values(b) for b in decomposed.blocks], axis=1)
    halved = (sv[:n_halved, None] * _HALVINGS[:, None]).reshape(-1, sv.shape[1])
    norms = iter(_table_norms(spec, _algebra_table(alg, np.concatenate(
        [sv[:2 * n + 1], halved, sv[2 * n + 1:]]))))
    sample_norms = [next(norms) for _ in range(n)]
    zero_norm = next(norms)
    scaled_norms = [next(norms) for _ in range(n)]
    halved_norms = [[next(norms) for _ in range(len(_HALVINGS))] for _ in range(n_halved)]
    sum_norms = list(norms)

    if zero_norm != 0.0:
        violations.append(Violation("definiteness", "zero operator", zero_norm))
    for i, (size, nx) in enumerate(zip(sv[:n].max(axis=1).tolist(), sample_norms)):
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
            if prev > 1e-7 * sample_norms[i]:
                violations.append(Violation("continuity-at-0", f"sample {i} tail", prev))

    c_closed = quasi_constant(spec)
    worst_ratio = 0.0
    negligible = 1e-15 * max(sample_norms)
    for i, n_sum in enumerate(sum_norms):
        denom = sample_norms[i] + sample_norms[i + 1]
        if denom <= negligible:
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


# the factors 2^-k, k = 1..40, of check_delta_axioms' continuity check
_HALVINGS = 2.0 ** -np.arange(1, 41)
_HALVINGS.setflags(write=False)


@functools.cache
def _contraction_factors(n: int) -> np.ndarray:
    """The read-only factors ``alpha`` of ``check_delta_axioms``'
    contractivity check for ``n`` samples, drawn from the constant seed
    20570: a modulus in [0, 1) and a phase per sample."""
    rng = np.random.default_rng(20570)
    alphas = np.array([rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
                       for _ in range(n)])
    alphas.setflags(write=False)
    return alphas


def check_symmetric(spec: NormSpec, trials: int, seed: int) -> NormCheckReport:
    """Monotonicity under mu-domination: mu(y) <= mu(x) implies
    ||y|| <= ||x||, on randomly generated pairs (see
    ``check_symmetric_many``)."""
    return check_symmetric_many([spec], trials, seed)[0]


def check_symmetric_many(specs: Sequence[NormSpec], trials: int,
                         seed: int) -> list[NormCheckReport]:
    """``[check_symmetric(spec, trials, seed) for spec in specs]``, with
    every variant's trials evaluated in the same stacks.

    Per trial: a random algebra, a Gaussian ``x``, two unitaries ``u``,
    ``v`` and shrink factors ``r`` in [0, 1); with ``x = U diag(s) V*``,
    ``y = u (U diag(s r) V*) v``.  Each variant draws its trials from its
    own streams (label ``symmetric:<variant>``).  The draws are
    value-independent, so every trial of every variant is drawn first;
    then one stacked QR and one stacked SVD per block dimension, the
    ``y``'s in stacked products per dimension (``_sandwiches``), one
    ``mu_many`` over every ``x`` and ``y``, and each variant's norms
    and violations, in variant order.
    """
    tol = tolerances().norm
    algs, x_normals, u_normals, v_normals, shrinks = [], [], [], [], []
    for spec in specs:
        for rng in rng_streams(seed, f"symmetric:{norm_label(spec)}", range(trials)):
            alg = random_algebra(rng)
            algs.append(alg)
            x_normals.append(GAUSSIAN.normals(alg, rng))
            u_normals.append(UNITARY.normals(alg, rng))
            v_normals.append(UNITARY.normals(alg, rng))
            shrinks.append([rng.uniform(0.0, 1.0, size=d) for d in alg.dims])
    n = len(algs)
    xs = GAUSSIAN.many(algs, x_normals)
    uvs = unitaries(algs + algs, u_normals + v_normals)
    stacks = BlockStacks.of(xs)
    shrunk = []
    for stack, where in zip(stacks.stacks, stacks.where):
        uu, s, vh = np.linalg.svd(stack)
        shrunk.append(uu @ _diagonals(s * np.array([shrinks[i][k] for i, k in where])) @ vh)
    ys = _sandwiches(stacks, uvs[:n], shrunk, uvs[n:])
    mus = mu_many(xs + ys)
    reports = []
    for k, spec in enumerate(specs):
        own = slice(k * trials, (k + 1) * trials)
        norms = evaluate_norms_mu(spec, mus[own] + mus[n:][own])
        violations: list[Violation] = []
        for trial, (nx, ny) in enumerate(zip(norms[:trials], norms[trials:])):
            if ny > nx + tol * nx:
                violations.append(Violation("symmetry", f"trial {trial}", ny - nx))
        reports.append(_report(violations, trials))
    return reports


def _diagonals(values: np.ndarray) -> np.ndarray:
    """The complex ``(m, d, d)`` stack of the diagonal matrices whose
    diagonals are the rows of ``values``, as ``np.diag`` makes them."""
    out = np.zeros(values.shape + values.shape[-1:], dtype=complex)
    diagonal = np.arange(values.shape[-1])
    out[:, diagonal, diagonal] = values
    return out


def _sandwiches(stacks: BlockStacks, us: Sequence[Operator], middles: Sequence[np.ndarray],
                vs: Sequence[Operator]) -> list[Operator]:
    """``us[i] @ m_i @ vs[i]`` for every operator ``i`` of the list
    ``stacks``, the blocks of ``m_i`` the rows of ``middles`` (one stack
    per stack of ``stacks``): one stacked matmul per block dimension and
    factor, row for row the products of the single blocks."""
    out = []
    for middle, where in zip(middles, stacks.where):
        u = np.array([us[i].blocks[k] for i, k in where])
        v = np.array([vs[i].blocks[k] for i, k in where])
        out.append(u @ middle @ v)
    return stacks.operators(out)


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


def _mu_singular_values(stack: np.ndarray, svals: np.ndarray) -> np.ndarray:
    """``stacked_singular_values(stack)`` given the SVD's singular values
    ``svals`` of every matrix: only the exactly hermitian matrices, which
    it sends to the eigensolver, are decomposed again."""
    herm = exactly_hermitian(stack)
    if not herm.any():
        return svals
    out = svals.copy()
    out[herm] = stacked_singular_values(stack[herm])
    return out


def check_slm(spec: NormSpec, trials: int, seed: int) -> NormCheckReport:
    """Strict log-monotonicity on constructed strict pairs (see
    ``check_slm_many``)."""
    return check_slm_many([spec], trials, seed)[0]


def check_slm_many(specs: Sequence[NormSpec], trials: int,
                   seed: int) -> list[NormCheckReport]:
    """``[check_slm(spec, trials, seed) for spec in specs]``, with every
    variant's candidates evaluated in the same stacks.

    Per candidate, a random y is drawn and x is built with
    mu(x) <<_log mu(y) and mu(x) != mu(y) by flattening a run of the
    singular value slots of y to its geometric mean and shrinking all
    values by rho < 1.  The pair is verified by the predicate before the
    norm gap is asserted; the strictness threshold is proportional to the
    constructed log-mass gap rather than a bare epsilon.

    Each variant draws its candidates from its own streams (label
    ``slm:<variant>``), in rounds of ``trials - produced`` candidates (at
    most the ``10 * trials`` attempts it has left).  The variants run
    their rounds jointly: a round draws every variant's algebras and
    ``y``'s, takes their singular values in one stacked call per block
    dimension, continues every stream (the flattening, then the unitaries'
    Gaussians), makes one stacked QR per dimension, builds the ``x``'s
    in stacked products per dimension and takes their ``mu_many``.  mu of
    the ``y``'s is read off the round's own singular values (an exactly
    hermitian block, which ``mu`` sends to the eigensolver, is decomposed
    again there, and keeps its SVD for the flattening).  Then, variant by
    variant, it accepts or rejects in candidate order
    and evaluates the norms of the accepted pairs in one batch.  A variant
    out of attempts raises ``GenerationFailure`` once no variant before it
    can still fail, so the error is that of the first failing variant.
    """
    tol = tolerances()
    max_attempts = 10 * trials
    produced = [0] * len(specs)
    attempts = [0] * len(specs)
    violations: list[list[Violation]] = [[] for _ in specs]
    failed = len(specs)   # the first variant out of attempts
    while True:
        active = []
        for k in range(failed):
            if produced[k] < trials:
                if attempts[k] >= max_attempts:
                    failed = k
                    break
                active.append(k)
        if not active:
            break
        rounds = []   # (variant, first attempt, streams) of the round
        for k in active:
            size = min(trials - produced[k], max_attempts - attempts[k])
            rounds.append((k, attempts[k], rng_streams(seed, f"slm:{norm_label(specs[k])}",
                                                       range(attempts[k], attempts[k] + size))))
        streams = [rng for _, _, rngs in rounds for rng in rngs]
        algs, y_normals = [], []
        for rng in streams:
            alg = random_algebra(rng)
            algs.append(alg)
            y_normals.append(GAUSSIAN.normals(alg, rng))
        ys = GAUSSIAN.many(algs, y_normals)
        stacks = BlockStacks.of(ys)
        y_svals = [np.linalg.svd(s, compute_uv=False) for s in stacks.stacks]
        svals = stacks.rows(y_svals)
        diags, gaps, uv_normals = [], [], []
        for rng, alg, sv in zip(streams, algs, svals):
            d, gap = _slm_diagonals(alg, sv, rng)
            diags.append(d)
            gaps.append(gap)
            uv_normals += [UNITARY.normals(alg, rng), UNITARY.normals(alg, rng)]
        uvs = unitaries([alg for alg in algs for _ in range(2)], uv_normals)
        xs = _sandwiches(stacks, uvs[::2], [_diagonals(np.array([diags[i][k] for i, k in where]))
                                            for where in stacks.where], uvs[1::2])
        fxs = mu_many(xs)
        fys = _stacks_table(stacks, [_mu_singular_values(s, sv) for s, sv in
                                     zip(stacks.stacks, y_svals)]).functions()
        start = 0
        for k, first, rngs in rounds:
            accepted = []
            for i in range(start, start + len(rngs)):
                attempts[k] += 1
                verdict = log_submajorizes(fxs[i], fys[i])
                # both mu are padded to tau(1): the verdict's partition is theirs
                _, fxv, fyv = _refine(fxs[i], fys[i], verdict.checked_points)
                distinct = any(abs(p - q) > 1e-12 for p, q in zip(fxv, fyv))
                if verdict.holds and distinct:
                    accepted.append(i)
            produced[k] += len(accepted)
            # the norms read by no accept/reject decision, in one batch
            norms = evaluate_norms_mu(specs[k], [f for i in accepted
                                                 for f in (fxs[i], fys[i])])
            for i, nx, ny in zip(accepted, norms[::2], norms[1::2]):
                trial = first + i - start
                if nx > ny + tol.norm * ny:
                    violations[k].append(Violation("log-monotone", f"trial {trial}", nx - ny))
                threshold = tol.strict * gaps[i] * max(ny, 1e-300)
                if ny - nx <= threshold:
                    violations[k].append(Violation("slm-strict", f"trial {trial}", ny - nx))
            start += len(rngs)
    if failed < len(specs):
        raise GenerationFailure(
            f"no valid SLM pair in {max_attempts} attempts for {norm_label(specs[failed])}")
    return [_report(v, trials, {"attempts": a}) for v, a in zip(violations, attempts)]
