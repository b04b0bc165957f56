"""Independent oracles used by the tests.

Each oracle recomputes an expected value along a different construction
path than the library: distribution-function inversion instead of
sort-merge-pad for mu, dense-grid summation for prefix integrals,
characteristic-polynomial roots (Faddeev-LeVerrier plus a companion
matrix) instead of the hermitian eigensolver, and direct outer products
for rank-one supports.  They are deliberately slow and simple.

The ``frozen_*`` functions at the end are the other kind of reference:
copies of earlier library code that a faster implementation must match
bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from logmaj.algebra import Operator
from logmaj.config import tolerances
from logmaj.errors import NegativeValue, OutOfDomain, ShapeMismatch, WeightTooShort
from logmaj.norms import LogF, Lp, NormCheckReport, Violation, quasi_constant
from logmaj.stepfun import NEG_INF, StepFunction


def weighted_singular_values(x: Operator) -> list[tuple[float, float]]:
    """(singular value, block weight) pairs, unsorted."""
    out = []
    for (_, c), b in zip(x.algebra.blocks, x.blocks):
        for s in np.linalg.svd(b, compute_uv=False):
            out.append((float(s), c))
    return out


def mu_by_distribution_inverse(x: Operator, ts: np.ndarray) -> np.ndarray:
    """mu(t) = inf{s >= 0 : d(s) <= t} with d from counting singular values.

    The candidate levels are the singular values themselves plus 0; the
    infimum over all s >= 0 is attained at one of them because d is a
    right-continuous step function with jumps there.
    """
    pairs = weighted_singular_values(x)
    levels = sorted({s for s, _ in pairs} | {0.0})

    def dist(s: float) -> float:
        return sum(c for v, c in pairs if v > s)

    dvals = [(s, dist(s)) for s in levels]
    out = np.empty(len(ts))
    for i, t in enumerate(ts):
        feasible = [s for s, d in dvals if d <= t]
        out[i] = min(feasible) if feasible else float("inf")
    return out


def mu_oracle_vectorized(x: Operator, ts: np.ndarray) -> np.ndarray:
    """Distribution-inverse oracle evaluated on a dense grid at once.

    Tabulates d over the descending singular value levels (weights of the
    strictly-larger values accumulate in descending order, matching how
    distribution tables are built), then inverts: the feasible set
    {s : d(s) <= t} is a suffix of the ascending level list because d is
    non-increasing in s, so its minimum is found by bisection.
    """
    pairs = sorted(weighted_singular_values(x), key=lambda p: -p[0])
    values = np.array([v for v, _ in pairs])
    weights = np.array([c for _, c in pairs])
    cumw = np.concatenate([[0.0], np.cumsum(weights)])
    levels_asc = np.unique(np.concatenate([values, [0.0]]))
    counts = np.searchsorted(-values, -levels_asc, side="left")  # strictly greater
    d_asc = cumw[counts]
    j = np.searchsorted(-d_asc, -np.asarray(ts), side="left")
    return levels_asc[j]


_DYADIC_H = 2.0 ** -17  # cell width; ~10^6 cells for desk-scale lengths


def _grid_values(f: StepFunction, t: float) -> tuple[np.ndarray, float]:
    """Cell-midpoint samples of ``f`` on the dyadic grid covering (0, t).

    The grid cell width 2^-17 divides every dyadic piece width the tests
    construct, so no cell straddles a breakpoint and the midpoint rule is
    exact up to float summation.
    """
    cells = round(t / _DYADIC_H)
    assert abs(cells * _DYADIC_H - t) < 1e-12, "t must sit on the dyadic grid"
    mids = (np.arange(cells) + 0.5) * _DYADIC_H
    vals = np.concatenate([f.values, [0.0]])
    idx = np.searchsorted(f.ends, mids, side="right")
    return vals[idx], _DYADIC_H


def prefix_integral_by_grid(f: StepFunction, t: float) -> float:
    """Dense-grid integral of a step function over (0, t)."""
    if t == 0.0:
        return 0.0
    picked, h = _grid_values(f, t)
    return float(np.sum(picked) * h)


def log_prefix_integral_by_grid(f: StepFunction, t: float) -> float:
    if t == 0.0:
        return 0.0
    picked, h = _grid_values(f, t)
    if np.any(picked <= 0.0):
        return float("-inf")
    return float(np.sum(np.log(picked)) * h)


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c_1, ..., c_n] with p(x) = x^n + c_1 x^(n-1) + ... + c_n,
    using only traces and matrix products (no eigensolver).
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    ident = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * ident
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def eigenvalues_by_charpoly(a: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial.

    np.roots builds the companion matrix and runs the general (non-
    hermitian) QR algorithm, a path independent of np.linalg.eigh.
    """
    roots = np.roots(charpoly_coefficients(a))
    return np.sort(roots.real)[::-1]


def rank_one_support(v: np.ndarray) -> np.ndarray:
    """The support projection of vv*: the normalized outer product."""
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return np.zeros((len(v), len(v)), dtype=complex)
    u = v / nv
    return np.outer(u, u.conj())


def dyadic_step_function(rng: np.random.Generator, max_pieces: int = 12,
                         nonnegative: bool = True,
                         decreasing: bool = False) -> StepFunction:
    """Random step function whose widths are dyadic rationals, so that a
    uniform grid of 2^k cells aligns exactly with every breakpoint."""
    n = int(rng.integers(1, max_pieces + 1))
    widths = rng.integers(1, 17, size=n) / 16.0
    values = rng.uniform(0.0 if nonnegative else -3.0, 3.0, size=n)
    if rng.uniform() < 0.3 and nonnegative:
        values[rng.integers(0, n)] = 0.0
    if decreasing:
        values = np.sort(np.abs(values))[::-1]
    return StepFunction(tuple((float(v), float(w)) for v, w in zip(values, widths)))


# ---------------------------------------------------------------------------
# Frozen reference copies of the step-function canonicalisation, of mu and
# of check_delta_axioms as they stood before mu was batched and a step
# function was canonicalised once.  The library must reproduce them bit for
# bit; they work on plain piece tuples and call one LAPACK routine per block.
# Their rank cut ``tol * s_max`` and snap ``snap * max(|v|, |w|)`` are
# relative, as the library's have been since the absolute floor ``max(1, .)``
# was dropped (it made mu of an operator of norm 1e-12 zero).

_FROZEN_EDGE_REL = 1e-12


def frozen_canonical(pieces, snap: float = 0.0) -> tuple:
    merged: list[list[float]] = []
    for value, width in pieces:
        value = float(value)
        width = float(width)
        if width < 0.0 or not np.isfinite(width):
            raise ValueError(f"piece width must be positive, got {width}")
        if width == 0.0:
            continue
        if not np.isfinite(value):
            raise ValueError(f"piece value must be finite, got {value}")
        if merged:
            prev_v, prev_w = merged[-1]
            tol = snap * max(abs(prev_v), abs(value))
            if value == prev_v:  # an exact tie keeps its value
                merged[-1] = [prev_v if prev_v else prev_v + value, prev_w + width]
                continue
            if snap > 0.0 and abs(value - prev_v) <= tol:
                total = prev_w + width
                merged[-1] = [(prev_v * prev_w + value * width) / total, total]
                continue
        merged.append([value, width])
    return tuple((v, w) for v, w in merged)


def frozen_from_pieces(pieces, snap: float = 0.0) -> tuple:
    """``StepFunction.from_pieces(...).pieces``: the snapped pass, then the
    constructor's own pass."""
    return frozen_canonical(frozen_canonical(pieces, snap=snap))


def frozen_total_length(pieces) -> float:
    return float(np.array([w for _, w in pieces], dtype=float).sum()) if pieces else 0.0


def frozen_pad_to(pieces, length: float) -> tuple:
    gap = length - frozen_total_length(pieces)
    slop = _FROZEN_EDGE_REL * max(1.0, length)
    if gap <= slop:
        if gap < -slop:
            raise ShapeMismatch(
                f"cannot pad length {frozen_total_length(pieces)} down to {length}")
        return pieces
    return frozen_canonical(pieces + ((0.0, gap),))


def frozen_block_singular_values(b: np.ndarray) -> np.ndarray:
    if np.array_equal(b, b.conj().T):
        return np.sort(np.abs(np.linalg.eigvalsh(b)))[::-1]
    return np.linalg.svd(b, compute_uv=False)


def frozen_mu_of_singular_values(alg, svals, tol: float) -> tuple:
    """The pieces of mu from per-block descending singular values: rank
    cut, descending stable sort, snapped canonicalisation, zero padding to
    tau(1) (``stepfun._mu_of_singular_values`` before the array pass)."""
    entries: list[tuple[float, float]] = []
    smax = 0.0
    for (_, c), s in zip(alg.blocks, svals):
        s = s.tolist()
        if s:
            smax = max(smax, s[0])
        entries.extend((v, c) for v in s)
    cut = tol * smax
    entries = [(0.0 if v <= cut else v, w) for v, w in entries]
    entries.sort(key=lambda p: -p[0])
    return frozen_pad_to(frozen_from_pieces(entries, snap=tol), alg.total_trace)


def frozen_mu_pieces(x: Operator) -> tuple:
    return frozen_mu_of_singular_values(
        x.algebra, [frozen_block_singular_values(b) for b in x.blocks], tolerances().alg)


def frozen_mu(x: Operator) -> StepFunction:
    pieces = frozen_mu_pieces(x)
    f = StepFunction(pieces)
    if float_bits(f.pieces) != float_bits(pieces):
        raise AssertionError("frozen mu pieces are not a fixed point of StepFunction")
    return f


def frozen_truncate(f: StepFunction, length: float) -> StepFunction:
    """``StepFunction.truncate`` when it canonicalised the pieces it kept."""
    length = f._locate(length)
    out = []
    consumed = 0.0
    for v, w in f.pieces:
        if consumed + w <= length:
            out.append((v, w))
            consumed += w
        else:
            rest = length - consumed
            if rest > 0.0:
                out.append((v, rest))
            break
    return StepFunction(tuple(out))


def frozen_grouped_mu_tail(xs) -> list:
    """``stepfun._mu_tail`` before it read mu's rows straight from the
    stacks: the operators grouped by their number of singular values, a
    group of fewer than 8 through the cascade one operator at a time, the
    others through the array pass of ``_frozen_mu_rows``.  Each mu is a
    step function or its ``(values, widths, total_length)``."""
    from logmaj.algebra import (BlockStacks, OperatorBatch, block_singular_values,
                                stacked_singular_values)

    tol = tolerances().alg
    if isinstance(xs, OperatorBatch) or len(xs) != 1:
        stacks = BlockStacks.of(xs)
        algebras = stacks.algebras
        per_block = stacks.rows([stacked_singular_values(s) for s in stacks.stacks])
    else:
        algebras = [xs[0].algebra]
        per_block = [[block_singular_values(b) for b in xs[0].blocks]]
    layouts = {}
    groups: dict = {}
    for i, alg in enumerate(algebras):
        layout = layouts.get(id(alg))
        if layout is None:
            layout = layouts[id(alg)] = ([c for d, c in alg.blocks for _ in range(d)],
                                         alg.total_trace)
        groups.setdefault(len(layout[0]), []).append(i)
    out: list = [None] * len(algebras)
    for n, idx in groups.items():
        algs = [layouts[id(algebras[i])] for i in idx]
        if len(idx) < 8:
            rows = [_frozen_cascade_row([(v, c) for (_, c), s in zip(algebras[i].blocks, per_block[i])
                                         for v in s.tolist()], t, tol)
                    for i, (_, t) in zip(idx, algs)]
        else:
            sv = np.concatenate([s for i in idx for s in per_block[i]]).reshape(len(idx), n)
            rows = _frozen_mu_rows(sv, np.array([c for c, _ in algs]), [t for _, t in algs], tol)
        for i, row in zip(idx, rows):
            out[i] = row
    return out


def _frozen_cascade_row(entries, trace: float, tol: float) -> StepFunction:
    cut = tol * max(entries)[0]
    entries = [(0.0 if v <= cut else v, w) for v, w in entries]
    entries.sort(key=lambda p: -p[0])
    return StepFunction.from_pieces(entries, snap=tol).pad_to(trace)


def _frozen_mu_rows(sv: np.ndarray, weights: np.ndarray, traces, tol: float) -> list:
    m, n = sv.shape
    cut = tol * sv.max(axis=1)
    cut_sv = np.where(sv <= cut[:, None], 0.0, sv)
    flat = np.argsort(-cut_sv, axis=1, kind="stable")
    flat += np.arange(0, m * n, n)[:, None]
    values = cut_sv.ravel()[flat]
    widths = weights.ravel()[flat]
    zero = values == 0.0
    prev, nxt = values[:, :-1], values[:, 1:]
    tie = (nxt == prev) | (np.abs(nxt - prev) <= tol * np.maximum(prev, nxt))
    tie &= ~(zero[:, :-1] & zero[:, 1:])
    tail = np.cumsum(np.where(zero, widths, 0.0), axis=1)[:, -1]
    cascade = (tie.any(axis=1) | ~np.isfinite(cut + tail)).tolist()
    n_pos = n - zero.sum(axis=1)
    counts = np.minimum(n_pos + 1, n).tolist()
    zr = np.flatnonzero(n_pos < n)
    widths[zr, n_pos[zr]] = tail[zr]
    values.setflags(write=False)
    widths.setflags(write=False)
    by_count: dict = {}
    for r in range(m):
        if not cascade[r]:
            by_count.setdefault(counts[r], []).append(r)
    lengths = [0.0] * m
    for count, rs in by_count.items():
        for r, total in zip(rs, widths[rs, :count].sum(axis=1).tolist()):
            lengths[r] = total
    out = []
    for r in range(m):
        length, trace, count = lengths[r], traces[r], counts[r]
        slop = _FROZEN_EDGE_REL * max(1.0, trace)
        if cascade[r] or not -slop <= trace - length <= slop:
            out.append(_frozen_cascade_row(list(zip(sv[r].tolist(), weights[r].tolist())),
                                           trace, tol))
        else:
            out.append((values[r, :count], widths[r, :count], length))
    return out


def frozen_evaluate_norm_mu(spec, f: StepFunction) -> float:
    """``norms.evaluate_norm_mu`` before norms were evaluated in batches:
    one function at a time, the Lorentz weight truncated on every call."""
    if not f.is_nonnegative:
        raise NegativeValue("norms are evaluated on nonnegative mu functions")
    if isinstance(spec, Lp):
        total = float(np.sum(f.values ** spec.p * f.widths)) if f.pieces else 0.0
        return total ** (1.0 / spec.p)
    if isinstance(spec, LogF):
        total = float(np.sum(np.log1p(f.values) * f.widths)) if f.pieces else 0.0
        return total
    length = f.total_length
    if spec.weight.total_length < length * (1.0 - 1e-12):
        raise WeightTooShort(
            f"weight length {spec.weight.total_length} < trace length {length}")
    w = frozen_truncate(spec.weight, min(length, spec.weight.total_length))
    widths, fv, wv = frozen_refine(f, w)
    total = float(np.sum(fv ** spec.p * wv * widths))
    return total ** (1.0 / spec.p)


def frozen_evaluate_norm(spec, x: Operator) -> float:
    return frozen_evaluate_norm_mu(spec, frozen_mu(x))


def frozen_check_delta_axioms(spec, samples) -> NormCheckReport:
    def norm_of(x):
        return frozen_evaluate_norm(spec, x)

    if len(samples) < 2:
        raise ValueError("need at least two samples")
    tol = tolerances().norm
    violations: list[Violation] = []
    norms = [norm_of(x) for x in samples]

    zero = samples[0].algebra.zero()
    if norm_of(zero) != 0.0:
        violations.append(Violation("definiteness", "zero operator", norm_of(zero)))
    for i, (x, nx) in enumerate(zip(samples, norms)):
        if nx < 0.0:
            violations.append(Violation("positivity", f"sample {i}", nx))
        if x.norm_inf() > 1e-12 and nx <= 0.0:
            violations.append(Violation("definiteness", f"sample {i}", nx))

    rng = np.random.default_rng(20570)
    for i, (x, nx) in enumerate(zip(samples, norms)):
        alpha = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        na = norm_of(alpha * x)
        if na > nx * (1.0 + tol) + tol:
            violations.append(Violation("contractivity", f"sample {i}, |alpha|={abs(alpha):.3f}",
                                        na - nx))

    for i, x in enumerate(samples[: min(8, len(samples))]):
        prev = norm_of(x)
        for k in range(1, 41):
            cur = norm_of((2.0 ** -k) * x)
            if cur > prev * (1.0 + tol) + tol:
                violations.append(Violation("continuity-at-0", f"sample {i}, k={k}", cur - prev))
                break
            prev = cur
        else:
            if prev > 1e-7:
                violations.append(Violation("continuity-at-0", f"sample {i} tail", prev))

    c_closed = quasi_constant(spec)
    worst_ratio = 0.0
    for i in range(len(samples) - 1):
        x, y = samples[i], samples[i + 1]
        denom = norms[i] + norms[i + 1]
        if denom <= 1e-15:
            continue
        ratio = norm_of(x + y) / denom
        worst_ratio = max(worst_ratio, ratio)
        if c_closed is not None and ratio > c_closed * (1.0 + 1e-9) + 1e-12:
            violations.append(Violation("quasi-triangle", f"pair ({i}, {i+1})", ratio - c_closed))
    stats = {"quasi_triangle_worst_ratio": worst_ratio}
    if c_closed is not None:
        stats["quasi_triangle_constant"] = c_closed
    elif not math.isfinite(worst_ratio):
        violations.append(Violation("quasi-triangle", "non-finite ratio", worst_ratio))
    return NormCheckReport(not violations, tuple(violations), len(samples), stats)


def float_bits(value):
    """Nested tuples/lists of floats with every float replaced by its hex
    form, so that equality means bit equality (-0.0 != 0.0)."""
    if isinstance(value, (tuple, list)):
        return tuple(float_bits(v) for v in value)
    if isinstance(value, float):
        return value.hex()
    return value


# ---------------------------------------------------------------------------
# Frozen reference copies of the per-call-site common refinements that
# ``stepfun.refine`` replaced: ``values_on_grid`` (one ``value_at`` per
# cell mid-point), the padded refinement of ``pointwise_product`` and
# ``mu_values_equal``, and the unpadded Lorentz branch of
# ``evaluate_norm_mu``.


def frozen_values_on_grid(f: StepFunction, grid: np.ndarray) -> np.ndarray:
    cells = np.concatenate([[0.0], grid])
    mids = (cells[:-1] + cells[1:]) / 2.0
    return np.array([frozen_value_at(f, t) for t in mids])


def frozen_refine(f: StepFunction, g: StepFunction):
    length = max(f.total_length, g.total_length)
    f = f.pad_to(length)
    g = g.pad_to(length)
    grid = frozen_union_breakpoints(f, g)
    widths = np.diff(np.concatenate([[0.0], grid]))
    return widths, frozen_values_on_grid(f, grid), frozen_values_on_grid(g, grid)


def frozen_pointwise_product(f: StepFunction, g: StepFunction) -> StepFunction:
    widths, fv, gv = frozen_refine(f, g)
    return StepFunction.from_pieces(list(zip(fv * gv, widths)))


def frozen_mu_values_equal(f: StepFunction, g: StepFunction, tol: float) -> bool:
    length = max(f.total_length, g.total_length)
    f = f.pad_to(length)
    g = g.pad_to(length)
    grid = frozen_union_breakpoints(f, g)
    cells = np.concatenate([[0.0], grid])
    mids = (cells[:-1] + cells[1:]) / 2.0
    for t in mids:
        if abs(frozen_value_at(f, float(t)) - frozen_value_at(g, float(t))) > tol:
            return False
    return True


def frozen_lorentz_norm(spec, f: StepFunction) -> float:
    """The Lorentz branch of ``evaluate_norm_mu``: the weight is truncated
    to the length of ``f`` and neither function is padded."""
    length = f.total_length
    w = frozen_truncate(spec.weight, min(length, spec.weight.total_length))
    grid = frozen_union_breakpoints(f, w)
    fv = frozen_values_on_grid(f, grid)
    wv = frozen_values_on_grid(w, grid)
    widths = np.diff(np.concatenate([[0.0], grid]))
    total = float(np.sum(fv ** spec.p * wv * widths))
    return total ** (1.0 / spec.p)


# ---------------------------------------------------------------------------
# Frozen reference copies of the breakpoint calculus as it was before it
# read float tables of the step functions: ``np.searchsorted`` on the
# ``np.cumsum`` ends and integrals for every point, ``np.log`` and
# ``np.sum`` for every log-prefix integral, and the union of breakpoints
# deduplicated over a sorted numpy array.


def _frozen_ends(f: StepFunction) -> np.ndarray:
    return np.cumsum(f.widths) if f.pieces else np.array([], dtype=float)


def frozen_union_breakpoints(*fns: StepFunction) -> np.ndarray:
    length = max((f.total_length for f in fns), default=0.0)
    pts = np.concatenate([_frozen_ends(f) for f in fns]) if fns else np.array([])
    if pts.size == 0:
        return pts
    pts = np.sort(pts)
    slop = _FROZEN_EDGE_REL * max(1.0, length)
    keep = [float(pts[0])]
    for t in pts[1:]:
        if float(t) - keep[-1] > slop:
            keep.append(float(t))
    return np.array(keep)


def frozen_value_at(f: StepFunction, t: float) -> float:
    if t < 0.0:
        raise OutOfDomain(f"t={t} < 0")
    if not f.pieces or t >= f.total_length:
        return 0.0
    i = int(np.searchsorted(_frozen_ends(f), t, side="right"))
    return float(f.values[min(i, f.values.size - 1)])


def _frozen_locate(f: StepFunction, t: float) -> float:
    length = f.total_length
    slop = _FROZEN_EDGE_REL * max(1.0, length)
    if t < -slop or t > length + slop:
        raise OutOfDomain(f"t={t} outside [0, {length}]")
    return min(max(t, 0.0), length)


def frozen_prefix_integral(f: StepFunction, t: float) -> float:
    t = _frozen_locate(f, t)
    if not f.pieces or t == 0.0:
        return 0.0
    ends = _frozen_ends(f)
    cumint = np.cumsum(f.values * f.widths)
    i = int(np.searchsorted(ends, t, side="right"))
    if i >= len(f.pieces):
        return float(cumint[-1])
    base = float(cumint[i - 1]) if i > 0 else 0.0
    start = float(ends[i - 1]) if i > 0 else 0.0
    return base + float(f.values[i]) * (t - start)


def frozen_log_prefix_integral(f: StepFunction, t: float) -> float:
    if not np.all(f.values >= 0.0):
        raise NegativeValue("log prefix integral requires a nonnegative function")
    t = _frozen_locate(f, t)
    if not f.pieces or t == 0.0:
        return 0.0
    ends = _frozen_ends(f)
    i = int(np.searchsorted(ends, t, side="right"))
    full_vals = f.values[:i]
    if np.any(full_vals == 0.0):
        return NEG_INF
    total = float(np.sum(np.log(full_vals) * f.widths[:i])) if i > 0 else 0.0
    if i < len(f.pieces):
        start = float(ends[i - 1]) if i > 0 else 0.0
        overlap = t - start
        if overlap > 0.0:
            v = float(f.values[i])
            if v == 0.0:
                return NEG_INF
            total += np.log(v) * overlap
    return total


def _frozen_checked_pair(b: StepFunction, a: StepFunction):
    for f in (b, a):
        if f.pieces and not np.all(np.diff(f.values) <= 0.0):
            raise ShapeMismatch("submajorisation requires decreasing step functions")
    for f in (b, a):
        if not np.all(f.values >= 0.0):
            raise ShapeMismatch("submajorisation requires nonnegative step functions")
    la, lb = a.total_length, b.total_length
    if abs(la - lb) > 1e-12 * max(1.0, la, lb):
        length = max(la, lb)
        a = a.pad_to(length)
        b = b.pad_to(length)
    return b, a


def frozen_submajorizes(b: StepFunction, a: StepFunction):
    from logmaj.majorization import MajorizationVerdict
    tol = tolerances().maj
    b, a = _frozen_checked_pair(b, a)
    points = frozen_union_breakpoints(b, a)
    if points.size == 0:
        return MajorizationVerdict(True, 0.0, 0.0, ())
    scale = max(abs(frozen_prefix_integral(b, b.total_length)),
                abs(frozen_prefix_integral(a, a.total_length)))
    holds = True
    slack = math.inf
    worst_t = float(points[0])
    for t in points:
        gap = frozen_prefix_integral(a, float(t)) - frozen_prefix_integral(b, float(t))
        if gap < slack:
            slack = gap
            worst_t = float(t)
        if gap < -tol * scale:
            holds = False
    if slack == math.inf:
        slack = 0.0
    return MajorizationVerdict(holds, worst_t, slack, tuple(float(t) for t in points))


def frozen_log_submajorizes(b: StepFunction, a: StepFunction):
    from logmaj.majorization import MajorizationVerdict
    tol = tolerances().maj
    b, a = _frozen_checked_pair(b, a)
    points = frozen_union_breakpoints(b, a)
    if points.size == 0:
        return MajorizationVerdict(True, 0.0, 0.0, ())
    holds = True
    slack = math.inf
    worst_t = float(points[0])
    for t in points:
        lhs = frozen_log_prefix_integral(b, float(t))
        rhs = frozen_log_prefix_integral(a, float(t))
        if lhs == NEG_INF:
            continue
        if rhs == NEG_INF:
            holds = False
            slack = NEG_INF
            worst_t = float(t)
            continue
        gap = rhs - lhs
        if gap < slack:
            slack = gap
            worst_t = float(t)
        if gap < -tol:
            holds = False
    if slack == math.inf:
        slack = 0.0
    return MajorizationVerdict(holds, worst_t, slack, tuple(float(t) for t in points))


# ---------------------------------------------------------------------------
# Frozen reference copies of the per-operator spectral routines as they were
# before they became the one-element case of their stacked forms: one LAPACK
# call per block, eigenpairs ordered and phase-fixed one column at a time,
# the support projection from per-block SVDs, and the per-vector image of a
# linear map.


def frozen_fixed_phase(col: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first significant entry is real positive."""
    idx = np.flatnonzero(np.abs(col) > 1e-12 * max(1.0, float(np.abs(col).max())))
    if idx.size == 0:
        return col
    pivot = col[idx[0]]
    return col * (np.conj(pivot) / abs(pivot))


def frozen_lex_key(col: np.ndarray) -> tuple:
    fixed = frozen_fixed_phase(col)
    return tuple((round(float(z.real), 12), round(float(z.imag), 12)) for z in fixed)


def frozen_descending_order(w: np.ndarray, v: np.ndarray) -> list[int]:
    """Column order by the key ``(-w[i], frozen_lex_key(v[:, i]))``, with
    the eigenvector key computed only within runs of equal eigenvalues."""
    order = sorted(range(len(w)), key=lambda i: -w[i])
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and w[order[stop]] == w[order[start]]:
            stop += 1
        if stop - start > 1:
            order[start:stop] = sorted(order[start:stop],
                                       key=lambda i: frozen_lex_key(v[:, i]))
        start = stop
    return order


def frozen_sorted_eigenpairs(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block's ``eigh`` output in descending order, phase-fixed."""
    order = frozen_descending_order(w, v)
    w = np.array([w[i] for i in order], dtype=float)
    v = np.column_stack([frozen_fixed_phase(v[:, i]) for i in order]) if len(order) else v
    return w, v


def frozen_spectral_decompose(x: Operator):
    from logmaj.algebra import SpectralDecomposition
    from logmaj.errors import NotHermitian

    if not x.is_hermitian():
        raise NotHermitian("spectral decomposition requires a hermitian operator")
    pairs = [frozen_sorted_eigenpairs(*np.linalg.eigh((b + b.conj().T) / 2.0))
             for b in x.blocks]
    return SpectralDecomposition(x.algebra, tuple(w for w, _ in pairs),
                                 tuple(v for _, v in pairs))


def frozen_projection(dec, lower: float, upper: float) -> Operator:
    """``SpectralDecomposition.projection`` with its per-block body."""
    blocks = []
    for w, u in zip(dec.eigenvalues, dec.bases):
        cols = u[:, (w > lower) & (w <= upper)]
        blocks.append(cols @ cols.conj().T)
    return Operator(dec.algebra, blocks)


def frozen_spectral_projection(x: Operator, lower: float, upper: float) -> Operator:
    return frozen_projection(frozen_spectral_decompose(x), lower, upper)


def frozen_functional_calculus(x: Operator, f) -> Operator:
    return frozen_spectral_decompose(x).apply(f)


def frozen_support_projection(x: Operator) -> Operator:
    decs = [np.linalg.svd(b) for b in x.blocks]
    smax = max((float(s[0]) if s.size else 0.0) for _, s, _ in decs)
    # relative (the cut was ``tol * max(1, smax)`` when this copy was
    # frozen; it made the support of an operator of norm 1e-10 zero)
    tol_rank = tolerances().alg * smax
    blocks = []
    for _, s, vh in decs:
        rows = vh[s > tol_rank]
        blocks.append(rows.conj().T @ rows)
    return Operator(x.algebra, blocks)


def frozen_min_eigenvalue(x: Operator) -> float:
    return min(float(np.linalg.eigvalsh((b + b.conj().T) / 2.0).min()) for b in x.blocks)


def frozen_apply(linear_map, x: Operator) -> Operator:
    """``LinearMap.apply`` as one matrix-vector product per operator."""
    from logmaj.jordan import unvectorize, vectorize

    if x.algebra != linear_map.domain:
        raise ShapeMismatch("operator not in the map's domain")
    return unvectorize(linear_map.codomain, linear_map.matrix @ vectorize(x))


# ---------------------------------------------------------------------------
# Frozen reference copy of ``jordan.stormer_split`` as it was before the
# complete, matrix-unit-pair classification: the summands are classified on
# 20 random hermitian pairs plus adjacent hermitian basis pairs, and the
# split is re-verified on ``n_verify`` further random pairs.  Its summands
# are the minimal central projections of the *-algebra generated by the
# range (``frozen_generated_algebra``), separated by the spectrum of a
# seeded generic element of its centre (``frozen_center_elements``), as
# they were before the closed-form split read them off the unit images.


def frozen_stormer_split(J, seed: int = 0, n_verify: int = 100):
    from logmaj.algebra import frobenius_norm
    from logmaj.errors import ClassificationFailure, InternalError
    from logmaj.jordan import StormerSplit
    from logmaj.sampling import rng_for
    hermitian = frozen_hermitian

    tol = tolerances().jordan
    dom, cod = J.domain, J.codomain
    unit = frozen_apply(J.map, dom.identity())
    if unit.norm_inf() <= tol:
        return StormerSplit(unit, (), ())
    center = frozen_center_elements(np.array(frozen_generated_algebra(J.map)), cod)

    projections = []
    for attempt in range(8):
        rng = rng_for(seed, "stormer-generic", attempt)
        generic = cod.zero()
        for op in center:
            h = (op + op.adjoint()) * 0.5
            ah = (op - op.adjoint()) * (-0.5j)
            generic = generic + float(rng.standard_normal()) * h
            generic = generic + float(rng.standard_normal()) * ah
        dec = frozen_spectral_decompose(generic)
        eigs = sorted(float(v) for w in dec.eigenvalues for v in w)
        scale = max(1.0, abs(eigs[0]), abs(eigs[-1])) if eigs else 1.0
        clusters = []
        for v in eigs:
            if clusters and abs(v - clusters[-1][-1]) <= 1e-6 * scale:
                clusters[-1].append(v)
            else:
                clusters.append([v])
        candidates = []
        margin = 1e-7 * scale
        for cluster in clusters:
            lo, hi = cluster[0] - margin, cluster[-1] + margin
            blocks = []
            for w, u in zip(dec.eigenvalues, dec.bases):
                cols = u[:, (w > lo) & (w <= hi)]
                blocks.append(cols @ cols.conj().T)
            p = Operator(cod, blocks)
            proj = p @ unit
            if proj.norm_inf() > tol:
                candidates.append(proj)
        if len(candidates) == len(center):
            projections = candidates
            break
    else:
        raise InternalError("could not separate the central summands")

    rng = rng_for(seed, "stormer-classify")
    sample_pairs = [(hermitian(dom, rng), hermitian(dom, rng)) for _ in range(20)]
    basis = dom.hermitian_basis()
    for i in range(0, len(basis) - 1, 2):
        sample_pairs.append((basis[i], basis[i + 1]))
    triples = []
    for x, y in sample_pairs:
        jxy = frozen_apply(J.map, x @ y)
        triples.append((jxy, frozen_apply(J.map, x), frozen_apply(J.map, y)))
    kinds = []
    for p in projections:
        hom_res = 0.0
        anti_res = 0.0
        for jxy, jx, jy in triples:
            hom_res = max(hom_res, frobenius_norm((jxy - jx @ jy) @ p))
            anti_res = max(anti_res, frobenius_norm((jxy - jy @ jx) @ p))
        is_hom = hom_res <= tol
        is_anti = anti_res <= tol
        if not (is_hom or is_anti):
            raise ClassificationFailure(
                f"central summand is neither hom (res {hom_res:.2e}) nor "
                f"anti-hom (res {anti_res:.2e})")
        kinds.append("hom" if is_hom else "anti")

    split = StormerSplit(unit, tuple(projections), tuple(kinds))
    z = split.z
    anti = unit - z
    rng = rng_for(seed, "stormer-global")
    for _ in range(n_verify):
        x = hermitian(dom, rng)
        y = hermitian(dom, rng)
        jxy = frozen_apply(J.map, x @ y)
        jx, jy = frozen_apply(J.map, x), frozen_apply(J.map, y)
        if frobenius_norm((jxy - jx @ jy) @ z) > tol:
            raise ClassificationFailure("global hom verification failed")
        if frobenius_norm((jxy - jy @ jx) @ anti) > tol:
            raise ClassificationFailure("global anti-hom verification failed")
    return split


# Frozen reference copies of the generated-algebra closure loop as it was
# when every round, the confirming one included, took an SVD of the span
# with its adjoints and pairwise products, and of the classification
# residual as it was when each law-defect stack was multiplied by a central
# projection one (d, d) product at a time, and of the centre solve: the
# commutation system with its commutators from two einsums and its kernel
# from a thin SVD.  ``_law_residual`` must match its copy bit for bit; the
# closure and the centre serve ``frozen_stormer_split``.


def frozen_orthonormal_span(vectors: np.ndarray, tol: float) -> np.ndarray:
    if vectors.size == 0:
        return vectors
    u, s, vh = np.linalg.svd(vectors, full_matrices=False)
    if s.size == 0:
        return np.zeros((0, vectors.shape[1]), dtype=complex)
    keep = s > tol * max(1.0, float(s[0]))
    return vh[keep]


def frozen_span_blocks(cod, span: np.ndarray) -> list:
    out = []
    pos = 0
    for d in cod.dims:
        out.append(span[:, pos:pos + d * d].reshape(-1, d, d))
        pos += d * d
    return out


def frozen_generated_algebra(J) -> list[np.ndarray]:
    """The rows of the orthonormal span that the closure loop returns."""
    cod = J.codomain
    span = frozen_orthonormal_span(J.matrix.T.copy(), 1e-12)
    for _ in range(cod.vector_dim + 1):
        m = span.shape[0]
        if m == 0:
            return []
        pieces = []
        for stack in frozen_span_blocks(cod, span):
            adj = np.conj(np.transpose(stack, (0, 2, 1)))
            prods = np.einsum("aij,bjk->abik", stack, stack).reshape(m * m, -1)
            pieces.append(np.vstack([adj.reshape(m, -1), prods]))
        stacked = np.hstack(pieces)
        new_span = frozen_orthonormal_span(np.vstack([span, stacked]), 1e-12)
        if new_span.shape[0] == m:
            return list(span)
        span = new_span
    raise AssertionError("generated-algebra closure did not stabilize")


def frozen_center_elements(span: np.ndarray, cod) -> list[Operator]:
    """Basis of the centre of the *-algebra spanned by the rows of ``span``:
    the kernel of its commutation system, read off the right singular
    vectors of a thin SVD."""
    from logmaj.jordan import unvectorize

    if len(span) == 0:
        return []
    system = frozen_commutation_system(span, cod)
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    kernel = vh[s <= 1e-10 * max(1.0, float(s[0]))]
    return [unvectorize(cod, span.T @ np.conj(coeffs)) for coeffs in kernel]


def frozen_commutation_system(span: np.ndarray, cod) -> np.ndarray:
    """The (m*n) x m commutation system of the span rows, with the
    commutators from two einsums."""
    m, n = span.shape
    comm_blocks = []
    for stack in frozen_span_blocks(cod, span):
        left = np.einsum("iab,rbc->riac", stack, stack)
        right = np.einsum("rab,ibc->riac", stack, stack)
        comm_blocks.append((left - right).reshape(m, m, -1))
    comms = np.concatenate(comm_blocks, axis=2)
    return comms.transpose(0, 2, 1).reshape(m * n, m)


def frozen_law_residual(defects, law: int, p: Operator) -> float:
    sq = sum(np.sum(np.abs(pair[law] @ pk) ** 2, axis=(2, 3))
             for pair, pk in zip(defects, p.blocks))
    return float(np.sqrt(np.max(sq)))


# The sampled Jordan verifier that the complete unit-pair certificate
# replaced: *-preservation on the hermitian basis, J(x^2) = J(x)^2 on the
# basis and ``n_square`` random hermitians, a polarization spot check on
# ``n_pairs`` random pairs and positivity on ``n_psd`` random PSD inputs.
# The complete certificate must reach the same verdict and failure kind.


def frozen_verify_jordan(linear_map, seed: int = 0, n_square: int = 200,
                         n_pairs: int = 50, n_psd: int = 25):
    from logmaj.algebra import frobenius_norm
    from logmaj.jordan import JordanCertificate, JordanFailure, JordanMap
    from logmaj.sampling import rng_for
    hermitian, psd = frozen_hermitian, frozen_psd

    tol = tolerances().jordan
    dom = linear_map.domain
    worst_f = -1.0
    worst_residual = None
    worst_witness = None
    worst_kind = ""
    sa_ok = sq_ok = pos_ok = True

    def note(kind, residual_op, witness):
        nonlocal worst_f, worst_residual, worst_witness, worst_kind
        f = frobenius_norm(residual_op)
        if f > worst_f:
            worst_f, worst_residual = f, residual_op
            worst_witness, worst_kind = witness, kind
        return f <= tol

    basis = dom.hermitian_basis()
    for h in basis:
        jh = frozen_apply(linear_map, h)
        sa_ok &= note("selfadjoint", jh - jh.adjoint(), h)

    rng = rng_for(seed, "verify-jordan-square")
    candidates = list(basis)
    for _ in range(n_square):
        candidates.append(hermitian(dom, rng))
    for h in candidates:
        jh = frozen_apply(linear_map, h)
        sq_ok &= note("square", frozen_apply(linear_map, h @ h) - jh @ jh, h)
    rng = rng_for(seed, "verify-jordan-pairs")
    for _ in range(n_pairs):
        x = hermitian(dom, rng)
        y = hermitian(dom, rng)
        jx, jy = frozen_apply(linear_map, x), frozen_apply(linear_map, y)
        res = frozen_apply(linear_map, x @ y + y @ x) - (jx @ jy + jy @ jx)
        sq_ok &= note("polarization", res, x)

    rng = rng_for(seed, "verify-jordan-psd")
    for _ in range(n_psd):
        a = psd(dom, rng)
        ja = frozen_apply(linear_map, a)
        herm_defect = frobenius_norm(ja - ja.adjoint())
        if herm_defect > tol:
            pos_ok &= note("positivity", ja - ja.adjoint(), a)
            continue
        neg = max(0.0, -frozen_min_eigenvalue(ja))
        if neg > tol:
            pos_ok = False
            if neg > worst_f:
                worst_f, worst_residual = neg, None
                worst_witness, worst_kind = a, "positivity"
        elif neg > worst_f:
            worst_f, worst_residual = neg, None
            worst_witness, worst_kind = a, "positivity"

    max_residual = (worst_residual.norm_inf() if worst_residual is not None
                    else max(worst_f, 0.0))
    cert = JordanCertificate(sa_ok, sq_ok, pos_ok, max_residual)
    if cert.passed:
        return JordanMap(linear_map, cert)
    return JordanFailure(worst_kind, max_residual, worst_witness, cert)


# ---------------------------------------------------------------------------
# The trial-by-trial isometry analysis and surjective reflection check that
# the stacked evaluation replaced: every sampled input is evaluated on its
# own, through the single-operator functions, as soon as it is drawn.  The
# stacked versions must match them bit for bit, ``passed`` included.


def frozen_analyze(T, norm_domain, norm_codomain, trials: int = 200, seed: int = 0):
    from logmaj.algebra import singular_values
    from logmaj.isometry import ChainReport, CheckStats, IsometryAnalysis
    from logmaj.jordan import JordanMap, unvectorize, verify_jordan
    from logmaj.sampling import rng_for
    mu, evaluate_norm = frozen_mu, frozen_evaluate_norm
    mu_values_equal = frozen_mu_values_equal
    gaussian, hermitian, psd = frozen_gaussian, frozen_hermitian, frozen_psd
    rank_one_psd = frozen_rank_one_psd

    disjoint_psd_pair = frozen_disjoint_psd_pair

    def sample_inputs(dom, rng, kind):
        if kind % 3 == 0:
            return rank_one_psd(dom, rng)
        if kind % 3 == 1:
            return psd(dom, rng, delta=1e-3 if kind % 6 == 1 else 0.0)
        return gaussian(dom, rng)

    def random_projection(alg, rng):
        h = hermitian(alg, rng)
        cut = float(rng.uniform(-0.3, 0.3))
        return frozen_spectral_projection(h, cut, float("inf"))

    tol = tolerances().iso
    dom, cod = T.domain, T.codomain

    worst_pos = 0.0
    for trial in range(trials):
        rng = rng_for(seed, "iso-positive", trial)
        x = rank_one_psd(dom, rng) if trial % 2 == 0 else psd(dom, rng)
        tx = frozen_apply(T, x)
        herm_defect = (tx - tx.adjoint()).norm_inf()
        scale = max(1.0, tx.norm_inf())
        if herm_defect > tol * scale:
            worst_pos = max(worst_pos, herm_defect / scale)
            continue
        neg = max(0.0, -frozen_min_eigenvalue(tx))
        worst_pos = max(worst_pos, neg / scale)
    positive = CheckStats(worst_pos <= tol, trials, worst_pos,
                          "sampled on rank-one and mixed PSD inputs; no certificate")

    worst_iso = 0.0
    for trial in range(trials):
        rng = rng_for(seed, "iso-isometry", trial)
        x = sample_inputs(dom, rng, trial)
        ne = evaluate_norm(norm_domain, x)
        nf = evaluate_norm(norm_codomain, frozen_apply(T, x))
        # relative to ||x|| (the gate was ``max(1, ||x||)`` when this copy
        # was frozen; it was made scale-free since)
        gap = abs(nf - ne) / ne if ne > 0.0 else (0.0 if nf == 0.0 else math.inf)
        worst_iso = max(worst_iso, gap)
    isometric = CheckStats(worst_iso <= tol, trials, worst_iso)

    worst_dis = 0.0
    worst_norm_gap = 0.0
    link_norm = link_mu = link_prod = True
    first_broken = None
    n_dis = max(1, trials // 2)
    for trial in range(n_dis):
        rng = rng_for(seed, "iso-disjoint", trial)
        x, y = disjoint_psd_pair(dom, rng)
        tx, ty = frozen_apply(T, x), frozen_apply(T, y)
        prod = (tx @ ty).norm_inf() / (1.0 + tx.norm_inf() * ty.norm_inf())
        worst_dis = max(worst_dis, prod)

        norm_sum = evaluate_norm(norm_domain, x + y)
        gap = abs(evaluate_norm(norm_domain, x - y) - norm_sum)
        worst_norm_gap = max(worst_norm_gap, gap)
        ok_norm = gap <= 1e-10 * max(1.0, norm_sum)
        f_diff, f_sum = mu(tx - ty), mu(tx + ty)
        scale = max(1.0, f_sum.values.max() if f_sum.pieces else 0.0)
        ok_mu = mu_values_equal(f_diff, f_sum, tol * scale)
        ok_prod = prod <= tol
        link_norm &= ok_norm
        link_mu &= ok_mu
        link_prod &= ok_prod
        if first_broken is None:
            for name, ok in (("norm-equality", ok_norm), ("mu-equality", ok_mu),
                             ("product-zero", ok_prod)):
                if not ok:
                    first_broken = name
                    break
    disjointness = CheckStats(worst_dis <= tol, n_dis, worst_dis)
    chain = ChainReport(link_norm, link_mu, link_prod, first_broken, worst_norm_gap)

    B = frozen_apply(T, dom.identity())
    basis_images = [unvectorize(cod, col) for col in T.matrix.T]
    comm = 0.0
    for img in basis_images:
        comm = max(comm, (B @ img - img @ B).norm_inf())

    J = None
    jordan_failure = None
    fact_res = float("inf")
    supp_res = float("inf")
    if B.is_hermitian(tol):
        smax = max((float(s[0]) if s.size else 0.0) for s in singular_values(B))
        cut = tolerances().alg * max(1.0, smax)
        b_pinv = frozen_functional_calculus(B, lambda t: 1.0 / t if t > cut else 0.0)
        j_map = T.left_compose(b_pinv)
        verified = verify_jordan(j_map)
        if isinstance(verified, JordanMap):
            J = verified
            fact_res = 0.0
            rng = rng_for(seed, "iso-factorization")
            test_set = ([e for *_, e in dom.matrix_units()]
                        + [gaussian(dom, rng) for _ in range(50)])
            for x in test_set:
                fact_res = max(fact_res, (frozen_apply(T, x) - B @ frozen_apply(J.map, x)).norm_inf())
            supp_res = 0.0
            for trial in range(50):
                rng = rng_for(seed, "iso-support", trial)
                e = random_projection(dom, rng)
                supp_res = max(supp_res, (frozen_apply(J.map, e) - frozen_support_projection(frozen_apply(T, e))).norm_inf())
                x = psd(dom, rng)
                supp_res = max(supp_res,
                               (frozen_support_projection(frozen_apply(T, x)) - frozen_apply(J.map, frozen_support_projection(x))).norm_inf())
        else:
            jordan_failure = verified
    passed = (positive.ok and isometric.ok and disjointness.ok and chain.intact
              and J is not None and comm <= tol and fact_res <= tol and supp_res <= tol)
    return IsometryAnalysis(positive, isometric, disjointness, chain, B, comm,
                            J, jordan_failure, fact_res, supp_res, passed)


def frozen_check_surjective_reflection(T, norm_codomain, trials: int = 200, seed: int = 0):
    from logmaj.errors import Singular
    from logmaj.isometry import ReflectionReport
    from logmaj.jordan import unvectorize, vectorize
    from logmaj.majorization import log_submajorizes
    from logmaj.sampling import rng_for
    mu, evaluate_norm = frozen_mu, frozen_evaluate_norm
    hermitian, psd = frozen_hermitian, frozen_psd

    if T.matrix.shape[0] != T.matrix.shape[1]:
        raise Singular("map is not square, cannot be surjective")
    s = np.linalg.svd(T.matrix, compute_uv=False)
    if s.size == 0 or s[-1] <= 1e-12 * max(1.0, float(s[0])):
        raise Singular("map matrix is numerically singular")
    tol = tolerances().iso
    cod = T.codomain
    worst = 0.0
    note = ""
    for trial in range(trials):
        rng = rng_for(seed, "reflect", trial)
        y = psd(cod, rng, delta=1e-3 if trial % 2 else 0.0)
        x = unvectorize(T.domain, np.linalg.solve(T.matrix, vectorize(y)))
        herm_defect = (x - x.adjoint()).norm_inf()
        scale = max(1.0, x.norm_inf())
        bad = herm_defect / scale if herm_defect > tol * scale else \
            max(0.0, -frozen_min_eigenvalue(x)) / scale
        if bad > worst:
            worst = bad
            if bad > tol:
                note = f"trial {trial}: preimage of a PSD operator fails positivity"

    mono_ok = True
    for trial in range(10):
        rng = rng_for(seed, "reflect-mono", trial)
        a = psd(cod, rng, delta=1e-3)
        h = hermitian(cod, rng)
        h = h / (h.norm_inf() + 1e-3)
        root = frozen_functional_calculus(a, lambda t: t ** 0.5 if t > 0 else 0.0)
        b = root @ h @ root
        if not log_submajorizes(mu(b), mu(a)).holds:
            continue
        if evaluate_norm(norm_codomain, b) > evaluate_norm(norm_codomain, a) * (1 + 1e-9) + 1e-12:
            mono_ok = False
    return ReflectionReport(worst <= tol and mono_ok, trials, worst, mono_ok, note)


def frozen_suite_surjective_reflection(trials: int, seed: int):
    """The surjective-reflection suite as it was when it read B and J from
    a full ``analyze(trials=20)`` per map."""
    from logmaj.isometry import (analyze, central_B_check,
                                 check_surjective_reflection, synthesize)
    from logmaj.sampling import rng_for
    from logmaj.suites import (_SYNTH_POWERS, SuiteResult, _fail,
                               _invertible_synth_spec)

    failures = []
    n_maps = max(1, trials // 50)
    per_map = max(1, trials // n_maps)
    done = 0
    for m in range(n_maps):
        rng = rng_for(seed, "surjective-reflection", m)
        p = _SYNTH_POWERS[m % len(_SYNTH_POWERS)]
        spec = _invertible_synth_spec(rng, p)
        T = synthesize(spec)
        report = check_surjective_reflection(T, spec.norm_codomain,
                                             trials=per_map, seed=seed + m)
        done += per_map
        if not report.ok:
            _fail(failures, m, "reflection failed", worst=report.worst,
                  note=report.witness_note)
        analysis = analyze(T, spec.norm_domain, spec.norm_codomain, trials=20,
                           seed=seed + m)
        if analysis.J is not None:
            central = central_B_check(analysis.B, analysis.J, onto=True)
            if central.ok is False:
                _fail(failures, m, "B not central for an onto map",
                      residual=central.residual)
    return SuiteResult("surjective-reflection", not failures, done, failures, {})


# ---------------------------------------------------------------------------
# The per-trial symmetry and SLM checkers and the samplers they drew from,
# as they were before the checkers were stacked by block dimension: one
# QR per unitary block, one SVD per operator block and one ``mu`` per
# operator, each called as soon as its input is drawn.


def frozen_unitary(algebra, rng):
    blocks = []
    for d in algebra.dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        phases = np.diag(r).copy()
        phases[phases == 0] = 1.0
        q = q * (phases / np.abs(phases))
        blocks.append(q)
    return Operator(algebra, blocks)


def frozen_disjoint_psd_pair(algebra, rng):
    h = frozen_hermitian(algebra, rng)
    dec = frozen_spectral_decompose(h)
    xb, yb = [], []
    for d, w, u in zip(algebra.dims, dec.eigenvalues, dec.bases):
        split = int(rng.integers(0, d + 1))
        dx = np.zeros(d, dtype=complex)
        dy = np.zeros(d, dtype=complex)
        dx[:split] = rng.uniform(0.2, 1.5, size=split)
        dy[split:] = rng.uniform(0.2, 1.5, size=d - split)
        xb.append(u @ np.diag(dx) @ u.conj().T)
        yb.append(u @ np.diag(dy) @ u.conj().T)
    return Operator(algebra, xb), Operator(algebra, yb)


def frozen_shrunken_copy(x, rng):
    u = frozen_unitary(x.algebra, rng)
    v = frozen_unitary(x.algebra, rng)
    blocks = []
    for b in x.blocks:
        uu, s, vh = np.linalg.svd(b)
        s = s * rng.uniform(0.0, 1.0, size=s.shape)
        blocks.append(uu @ np.diag(s.astype(complex)) @ vh)
    y = Operator(x.algebra, blocks)
    return u @ y @ v


def frozen_check_symmetric(spec, trials: int, seed: int) -> NormCheckReport:
    from logmaj.norms import norm_label
    from logmaj.sampling import random_algebra, rng_for
    evaluate_norm, gaussian = frozen_evaluate_norm, frozen_gaussian

    tol = tolerances().norm
    violations = []
    label = f"symmetric:{norm_label(spec)}"
    for trial in range(trials):
        rng = rng_for(seed, label, trial)
        alg = random_algebra(rng)
        x = gaussian(alg, rng)
        y = frozen_shrunken_copy(x, rng)
        nx = evaluate_norm(spec, x)
        ny = evaluate_norm(spec, y)
        if ny > nx + tol * nx:
            violations.append(Violation("symmetry", f"trial {trial}", ny - nx))
    return NormCheckReport(not violations, tuple(violations), trials, {})


def frozen_check_slm(spec, trials: int, seed: int) -> NormCheckReport:
    from logmaj.errors import GenerationFailure
    from logmaj.norms import _flatten_and_shrink, norm_label
    from logmaj.sampling import random_algebra, rng_for
    mu, gaussian = frozen_mu, frozen_gaussian
    log_submajorizes, refine = frozen_log_submajorizes, frozen_refine

    tol = tolerances()
    violations = []
    label = f"slm:{norm_label(spec)}"
    produced = 0
    attempts = 0
    max_attempts = 10 * trials
    trial = 0
    while produced < trials:
        if attempts >= max_attempts:
            raise GenerationFailure(
                f"no valid SLM pair in {max_attempts} attempts for {norm_label(spec)}")
        rng = rng_for(seed, label, trial)
        trial += 1
        attempts += 1
        alg = random_algebra(rng)
        y = gaussian(alg, rng)
        slots = []
        block_sizes = []
        for (d, c), b in zip(alg.blocks, y.blocks):
            s = np.linalg.svd(b, compute_uv=False)
            slots.extend((float(v), c) for v in s)
            block_sizes.append(d)
        order = sorted(range(len(slots)), key=lambda i: -slots[i][0])
        sorted_slots = [slots[i] for i in order]
        new_sorted, gap = _flatten_and_shrink(sorted_slots, rng)
        new_values = [0.0] * len(slots)
        for rank, idx in enumerate(order):
            new_values[idx] = new_sorted[rank]
        diags = []
        pos = 0
        for d in block_sizes:
            diags.append(sorted(new_values[pos:pos + d], reverse=True))
            pos += d
        x = alg.diagonal(diags)
        u = frozen_unitary(alg, rng)
        v = frozen_unitary(alg, rng)
        x = u @ x @ v
        fx, fy = mu(x), mu(y)
        verdict = log_submajorizes(fx, fy)
        _, fxv, fyv = refine(fx, fy)
        distinct = bool(np.any(np.abs(fxv - fyv) > 1e-12))
        if not verdict.holds or not distinct:
            continue
        produced += 1
        nx = frozen_evaluate_norm_mu(spec, fx)
        ny = frozen_evaluate_norm_mu(spec, fy)
        if nx > ny + tol.norm * ny:
            violations.append(Violation("log-monotone", f"trial {trial - 1}", nx - ny))
        threshold = tol.strict * gap * max(ny, 1e-300)
        if ny - nx <= threshold:
            violations.append(Violation("slm-strict", f"trial {trial - 1}", ny - nx))
    return NormCheckReport(not violations, tuple(violations), trials, {"attempts": attempts})


# ---------------------------------------------------------------------------
# Frozen reference copies of the samplers as they were before they drew
# their blocks as arrays for packing into a batch: two ``standard_normal``
# calls per block and every step ``Operator`` arithmetic.  Every frozen
# checker above draws from these, not from the live ``logmaj.sampling``.


def frozen_gaussian(algebra, rng) -> Operator:
    blocks = []
    for d in algebra.dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(g / np.sqrt(2.0 * d))
    return Operator(algebra, blocks)


def frozen_hermitian(algebra, rng) -> Operator:
    g = frozen_gaussian(algebra, rng)
    return (g + g.adjoint()) * 0.5


def frozen_psd(algebra, rng, delta: float = 0.0) -> Operator:
    g = frozen_gaussian(algebra, rng)
    a = g.adjoint() @ g
    if delta:
        a = a + delta * algebra.identity()
    return a


def frozen_rank_one_psd(algebra, rng) -> Operator:
    blocks = []
    for d in algebra.dims:
        v = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2.0 * d)
        blocks.append(np.outer(v, v.conj()))
    return Operator(algebra, blocks)


def frozen_plan_unitary(dim: int, seed: int) -> np.ndarray:
    """``jordan._plan_unitary`` before it called the stacked
    ``sampling._phase_fixed_qr``: one 2-D QR and phase fix."""
    if seed == 0:
        return np.eye(dim, dtype=complex)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases[phases == 0] = 1.0
    return q * (phases / np.abs(phases))


def frozen_plan_matrix(domain, plan) -> np.ndarray:
    """The matrix of ``jordan.random_jordan``'s map as it was built before
    the unit images were stacked: one ``Operator`` per domain matrix unit,
    vectorised column by column."""
    from logmaj.jordan import LinearMap

    cod = plan.codomain
    unitaries = {e.target: frozen_plan_unitary(cod.dims[e.target], e.unitary_seed)
                 for e in plan.entries}

    def act(x):
        blocks = [np.zeros((d, d), dtype=complex) for d in cod.dims]
        for e in plan.entries:
            src = x.blocks[e.source]
            mat = src.T if e.transpose else src
            u = unitaries[e.target]
            blocks[e.target] = u @ mat @ u.conj().T
        return Operator(cod, blocks)

    return LinearMap.from_function(domain, cod, act).matrix


def frozen_ortho_extension_check(linear_map, trials: int = 50, seed: int = 0):
    """``jordan.ortho_extension_check`` as it was before its trials were
    packed: one projection pair and three images per trial."""
    from logmaj.jordan import JordanMap, OrthoReport, verify_jordan
    from logmaj.sampling import rng_for

    tol = tolerances().jordan
    dom = linear_map.domain
    worst = 0.0
    failures = []
    for trial in range(trials):
        rng = rng_for(seed, "ortho-check", trial)
        h = frozen_hermitian(dom, rng)
        cut = float(rng.uniform(-0.5, 0.5))
        p = frozen_spectral_projection(h, cut, float("inf"))
        q = dom.identity() - p
        jp, jq, jpq = (frozen_apply(linear_map, x) for x in (p, q, p + q))
        for name, img in (("p", jp), ("q", jq)):
            res = max((img @ img - img).norm_inf(), (img - img.adjoint()).norm_inf())
            worst = max(worst, res)
            if res > tol:
                failures.append(f"trial {trial}: image of {name} is not a projection")
        cross = (jp @ jq).norm_inf()
        join = (jpq - jp - jq).norm_inf()
        worst = max(worst, cross, join)
        if cross > tol:
            failures.append(f"trial {trial}: images not orthogonal")
        if join > tol:
            failures.append(f"trial {trial}: join not additive")
    ortho_ok = not failures
    jordan_ok = isinstance(verify_jordan(linear_map), JordanMap)
    return OrthoReport(ortho_ok, jordan_ok, trials, worst, tuple(failures[:5]))


def frozen_central_B_check(B, J, onto: bool):
    """``isometry.central_B_check`` as it was before its codomain units
    were packed: one commutator norm per matrix unit."""
    from logmaj.algebra import trace
    from logmaj.isometry import CentralBReport

    cod = J.codomain
    if not (onto and J.map.rank() == cod.vector_dim):
        return CentralBReport("not-applicable", None, None, 0.0)
    tol = tolerances().iso
    worst = 0.0
    for _, _, _, e in cod.matrix_units():
        worst = max(worst, (B @ e - e @ B).norm_inf())
    if cod.n_blocks == 1:
        alpha = float(np.real(trace(B))) / cod.total_trace
        dev = (B - alpha * cod.identity()).norm_inf()
        worst = max(worst, dev)
        return CentralBReport("factor", worst <= tol, alpha, worst)
    return CentralBReport("central", worst <= tol, None, worst)


# ---------------------------------------------------------------------------
# The nine calculus suites as they were before they drew every trial first
# and evaluated all trials in stacks: each trial is evaluated through the
# single-operator functions as soon as it is drawn, from the frozen samplers,
# mu, decompositions and projections above.  The live suites must give the
# same reports, byte for byte.


def frozen_fk_determinant(x: Operator) -> float:
    from logmaj.majorization import exp_log_determinant

    f = frozen_mu(x)
    return exp_log_determinant(float(f.log_prefix_integral(f.total_length)))


def frozen_is_psd(x: Operator) -> bool:
    tol = tolerances().alg
    scale = x.norm_inf()
    for b in x.blocks:
        defect = b - b.conj().T
        if defect.any() and not np.linalg.norm(defect, 2) <= tol * scale:
            return False
    return frozen_min_eigenvalue(x) >= -tol * scale


def frozen_disjointness_from_mu_equality(x: Operator, y: Operator):
    from logmaj.errors import NotPSD
    from logmaj.majorization import DisjointnessDiagnostic, mu_values_equal

    if not frozen_is_psd(x) or not frozen_is_psd(y):
        raise NotPSD("diagnostic requires positive semidefinite operators")
    tol = tolerances()
    f_diff = frozen_mu(x - y)
    f_sum = frozen_mu(x + y)
    scale = f_sum.values.max() if f_sum.pieces else 0.0
    mu_equal = mu_values_equal(f_diff, f_sum, tol.maj * scale)
    product_zero = (x @ y).norm_inf() <= tol.alg * x.norm_inf() * y.norm_inf()
    return DisjointnessDiagnostic(mu_equal, product_zero)


def frozen_sandwich_pair(rng):
    from logmaj.sampling import random_algebra

    alg = random_algebra(rng)
    mode = rng.integers(0, 3)
    a = frozen_psd(alg, rng, delta=1e-3 if mode == 1 else 0.0)
    if mode == 2:
        h0 = frozen_hermitian(alg, rng)
        p = frozen_spectral_projection(h0, 0.0, float("inf"))
        a = p @ a @ p  # rank-deficient regime
    h = frozen_hermitian(alg, rng)
    h = h / (h.norm_inf() + 1e-3)
    root = frozen_functional_calculus(a, lambda t: t ** 0.5 if t > 0.0 else 0.0)
    b = root @ h @ root
    return a, b


def frozen_suite_sandwich(trials: int, seed: int):
    from logmaj.majorization import log_submajorizes
    from logmaj.sampling import rng_for
    from logmaj.suites import SuiteResult, _fail

    failures = []
    worst = float("inf")
    for trial in range(trials):
        rng = rng_for(seed, "sandwich-logmaj", trial)
        a, b = frozen_sandwich_pair(rng)
        verdict = log_submajorizes(frozen_mu(b), frozen_mu(a))
        worst = min(worst, verdict.slack)
        if not verdict.holds:
            _fail(failures, trial, "log-submajorisation failed",
                  slack=verdict.slack, worst_t=verdict.worst_t)
        elif verdict.slack != float("-inf") and verdict.slack < -1e-8:
            _fail(failures, trial, "slack below tolerance",
                  slack=verdict.slack, worst_t=verdict.worst_t)
    return SuiteResult("sandwich-logmaj", not failures, trials, failures,
                       {"min_slack": worst})


def frozen_suite_det_monotone(trials: int, seed: int):
    from logmaj.sampling import rng_for
    from logmaj.suites import SuiteResult, _fail

    failures = []
    for trial in range(trials):
        rng = rng_for(seed, "sandwich-logmaj", trial)
        a, b = frozen_sandwich_pair(rng)
        da, db = frozen_fk_determinant(a), frozen_fk_determinant(b)
        if db > da * (1.0 + 1e-8):
            _fail(failures, trial, "determinant monotonicity failed", det_a=da, det_b=db)
    return SuiteResult("det-monotone", not failures, trials, failures, {})


def frozen_suite_product(trials: int, seed: int):
    from logmaj.majorization import log_submajorizes
    from logmaj.sampling import random_algebra, rng_for
    from logmaj.stepfun import pointwise_product
    from logmaj.suites import SuiteResult, _fail

    failures = []
    for trial in range(trials):
        rng = rng_for(seed, "product-logmaj", trial)
        alg = random_algebra(rng)
        x, y = frozen_gaussian(alg, rng), frozen_gaussian(alg, rng)
        verdict = log_submajorizes(frozen_mu(x @ y),
                                   pointwise_product(frozen_mu(x), frozen_mu(y)))
        if not verdict.holds:
            _fail(failures, trial, "product inequality failed",
                  slack=verdict.slack, worst_t=verdict.worst_t)
    return SuiteResult("product-logmaj", not failures, trials, failures, {})


def frozen_suite_power_transfer(trials: int, seed: int):
    from logmaj.majorization import log_submajorizes, submajorizes
    from logmaj.sampling import rng_for
    from logmaj.suites import _POWERS, SuiteResult, _fail

    failures = []
    for trial in range(trials):
        rng = rng_for(seed, "power-transfer", trial)
        a, b = frozen_sandwich_pair(rng)
        fa, fb = frozen_mu(a), frozen_mu(b)
        if not log_submajorizes(fb, fa).holds:
            continue
        for p in _POWERS:
            verdict = submajorizes(fb.power(p), fa.power(p))
            if not verdict.holds:
                _fail(failures, trial, f"power transfer failed at p={p}",
                      slack=verdict.slack, worst_t=verdict.worst_t)
    return SuiteResult("power-transfer", not failures, trials, failures, {})


def frozen_suite_convex_transfer(trials: int, seed: int):
    from logmaj.majorization import submajorizes
    from logmaj.sampling import rng_for
    from logmaj.suites import _CONVEX, SuiteResult, _fail

    failures = []
    for trial in range(trials):
        rng = rng_for(seed, "convex-transfer", trial)
        a, b = frozen_sandwich_pair(rng)
        f = frozen_mu(b).power(2.0)
        g = frozen_mu(a).power(2.0)
        if not submajorizes(f, g).holds:
            continue
        for name, phi in _CONVEX:
            verdict = submajorizes(f.map_values(phi).rearrange(), g.map_values(phi).rearrange())
            if not verdict.holds:
                _fail(failures, trial, f"convex transfer failed for {name}",
                      slack=verdict.slack)
    return SuiteResult("convex-transfer", not failures, trials, failures, {})


def frozen_suite_mu_rigidity(trials: int, seed: int):
    from logmaj.majorization import mu_values_equal
    from logmaj.sampling import random_algebra, rng_for
    from logmaj.suites import SuiteResult, _fail

    tol = tolerances()
    failures = []
    for trial in range(trials):
        rng = rng_for(seed, "mu-rigidity", trial)
        alg = random_algebra(rng)
        a = frozen_psd(alg, rng, delta=1e-3)
        fa = frozen_mu(a)
        scale = max(1.0, float(fa.values.max()))
        # equal pair: identical mu and identical operators
        if not mu_values_equal(fa, frozen_mu(a), tol.maj * scale):
            _fail(failures, trial, "mu of equal operators differs")
        # perturbed pair 0 <= b <= a must change mu detectably
        dec = frozen_spectral_decompose(a)
        top = max(float(w[0]) for w in dec.eigenvalues if w.size)
        if top <= 1e-6:
            continue
        k = max(range(alg.n_blocks), key=lambda i: dec.eigenvalues[i][0])
        lam_k = float(dec.eigenvalues[k][0])
        eps = 0.5 * lam_k
        p = frozen_spectral_projection(a, lam_k - 1e-9 * max(1.0, lam_k), float("inf"))
        b = a - eps * p
        if mu_values_equal(frozen_mu(b), fa, 10 * tol.alg * scale):
            _fail(failures, trial, "perturbation left mu unchanged", eps=eps)
        if (a - b).norm_inf() <= 10 * tol.alg:
            _fail(failures, trial, "perturbation too small to be a control")
    return SuiteResult("mu-rigidity", not failures, trials, failures, {})


def frozen_suite_projection_rigidity(trials: int, seed: int):
    from logmaj.algebra import trace
    from logmaj.majorization import mu_values_equal
    from logmaj.sampling import random_algebra, rng_for
    from logmaj.suites import SuiteResult, _fail

    tol = tolerances()
    failures = []
    for trial in range(trials):
        rng = rng_for(seed, "projection-rigidity", trial)
        alg = random_algebra(rng)
        z = frozen_psd(alg, rng, delta=1e-3)
        dec = frozen_spectral_decompose(z)
        eigs = np.sort(np.concatenate([w for w in dec.eigenvalues]))
        top = float(eigs[-1])
        lam = None
        for _ in range(16):
            cand = float(rng.uniform(0.2, 0.8)) * top
            if np.all(np.abs(eigs - cand) > 1e-6 * max(1.0, top)):
                lam = cand
                break
        if lam is None:
            continue
        r = frozen_spectral_projection(z, lam, float("inf"))
        t_r = float(np.real(trace(r)))
        if t_r <= 0.0:
            continue
        scale = max(1.0, top)
        fz = frozen_truncate(frozen_mu(z), t_r)
        frzr = frozen_truncate(frozen_mu(r @ z @ r), t_r)
        if not mu_values_equal(fz, frzr, tol.maj * scale):
            _fail(failures, trial, "mu(rzr) != mu(z) on (0, tau(r))")
        # a rotated projection of equal trace must break the equality
        u = frozen_unitary(alg, rng)
        p = u @ r @ u.adjoint()
        if (p - r).norm_inf() > 1e-6:
            fpzp = frozen_truncate(frozen_mu(p @ z @ p), t_r)
            if mu_values_equal(fz, fpzp, tol.maj * scale):
                _fail(failures, trial, "rotated projection preserved mu")
    return SuiteResult("projection-rigidity", not failures, trials, failures, {})


def frozen_suite_anticommute(trials: int, seed: int):
    from logmaj.sampling import random_algebra, rng_for
    from logmaj.suites import SuiteResult, _fail

    tol = tolerances()
    failures = []
    checked = 0
    for trial in range(trials):
        rng = rng_for(seed, "anticommute", trial)
        alg = random_algebra(rng)
        x, y = frozen_disjoint_psd_pair(alg, rng)
        anti = (x @ y + y @ x).norm_inf()
        scale = 1.0 + x.norm_inf() * y.norm_inf()
        if anti <= tol.alg * scale:
            checked += 1
            if (x @ y).norm_inf() > 10 * tol.alg * scale:
                _fail(failures, trial, "anticommuting PSD pair with nonzero product",
                      product=(x @ y).norm_inf())
        # control: overlapping pair must not satisfy the hypothesis
        w = frozen_psd(alg, rng)
        x2, y2 = x + w, y + w
        if (x2 @ y2 + y2 @ x2).norm_inf() <= tol.alg * scale and w.norm_inf() > 1e-3:
            _fail(failures, trial, "overlapping pair passed the anticommutator cut")
    return SuiteResult("anticommute", not failures, trials, failures,
                       {"hypothesis_hits": checked})


def frozen_suite_sum_diff(trials: int, seed: int):
    from logmaj.sampling import random_algebra, rng_for
    from logmaj.suites import SuiteResult, _fail

    failures = []
    for trial in range(trials):
        rng = rng_for(seed, "sum-diff", trial)
        alg = random_algebra(rng)
        x, y = frozen_disjoint_psd_pair(alg, rng)
        diag = frozen_disjointness_from_mu_equality(x, y)
        if not (diag.mu_equal and diag.product_zero):
            _fail(failures, trial, "disjoint pair misclassified",
                  mu_equal=diag.mu_equal, product_zero=diag.product_zero)
        # overlapping pair: make a shared support component and expect
        # mu-inequality
        w = frozen_psd(alg, rng)
        x2 = x + w
        y2 = y + w
        if (x2 @ y2).norm_inf() > 1e-6:
            diag2 = frozen_disjointness_from_mu_equality(x2, y2)
            if diag2.mu_equal:
                _fail(failures, trial, "overlapping pair reported mu-equal")
            if diag2.violation:
                _fail(failures, trial, "mu-equality/disjointness rigidity violated",
                      trial_kind="overlap")
        if diag.violation:
            _fail(failures, trial, "mu-equality/disjointness rigidity violated",
                  trial_kind="disjoint")
    return SuiteResult("sum-diff", not failures, trials, failures, {})


FROZEN_CALCULUS_SUITES = {
    "sandwich-logmaj": frozen_suite_sandwich,
    "det-monotone": frozen_suite_det_monotone,
    "product-logmaj": frozen_suite_product,
    "power-transfer": frozen_suite_power_transfer,
    "convex-transfer": frozen_suite_convex_transfer,
    "mu-rigidity": frozen_suite_mu_rigidity,
    "projection-rigidity": frozen_suite_projection_rigidity,
    "anticommute": frozen_suite_anticommute,
    "sum-diff": frozen_suite_sum_diff,
}


# The two norm suites as they were before the variants were stacked: one
# variant after another, each through the frozen per-trial checkers.


def frozen_suite_norm_axioms(trials: int, seed: int):
    from logmaj.norms import norm_label
    from logmaj.sampling import GAUSSIAN, random_algebra, rng_for
    from logmaj.suites import SuiteResult, _fail, _norm_variants

    failures = []
    stats = {}
    per_variant = max(2, trials // 5)
    for spec in _norm_variants():
        rng = rng_for(seed, f"norm-axioms:{norm_label(spec)}")
        alg = random_algebra(rng)
        batch = GAUSSIAN.batch(alg, rng.standard_normal((per_variant, GAUSSIAN.size(alg))))
        report = frozen_check_delta_axioms(spec, [batch[i] for i in range(per_variant)])
        stats[norm_label(spec)] = report.stats
        if not report.passed:
            for v in report.axiom_violations[:2]:
                _fail(failures, 0, f"{norm_label(spec)}: {v.axiom}",
                      witness=v.witness, magnitude=v.magnitude)
        sym = frozen_check_symmetric(spec, max(10, trials // 10), seed)
        if not sym.passed:
            _fail(failures, 0, f"{norm_label(spec)}: symmetry violations",
                  count=len(sym.axiom_violations))
    return SuiteResult("norm-axioms", not failures, trials, failures, stats)


def frozen_suite_slm(trials: int, seed: int):
    from logmaj.norms import norm_label
    from logmaj.suites import SuiteResult, _fail, _norm_variants

    failures = []
    stats = {}
    for spec in _norm_variants():
        report = frozen_check_slm(spec, trials, seed)
        stats[norm_label(spec)] = report.stats
        if not report.passed:
            for v in report.axiom_violations[:2]:
                _fail(failures, 0, f"{norm_label(spec)}: {v.axiom}",
                      witness=v.witness, magnitude=v.magnitude)
    return SuiteResult("slm-all-variants", not failures, trials, failures, stats)


FROZEN_NORM_SUITES = {
    "norm-axioms": frozen_suite_norm_axioms,
    "slm-all-variants": frozen_suite_slm,
}


# The stream derivation that ``rng_streams`` replaced: one numpy
# SeedSequence per trial, its spawn key the first 8 bytes of the label's
# SHA-256 and the trial.  Every stream must equal it on its state and on
# its draws.


def frozen_rng_for(seed: int, label: str, trial: int = 0) -> np.random.Generator:
    import hashlib

    label_entropy = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(label_entropy, int(trial))))


# ---------------------------------------------------------------------------
# Exact rational norms of diagonal operators with dyadic entries and block
# weights: mu(x) is the list of |entries| with their block weights, sorted
# descending, and a norm is a finite sum of products of dyadic rationals.


def exact_mu_pieces(x: Operator) -> list[tuple[Fraction, Fraction]]:
    """mu(x) of a diagonal operator as ``(value, width)`` Fractions, in
    descending order of value (equal values stay separate pieces)."""
    pieces = []
    for (_, c), b in zip(x.algebra.blocks, x.blocks):
        if np.count_nonzero(b - np.diag(np.diag(b))):
            raise ValueError("exact_mu_pieces takes diagonal operators")
        pieces += [(Fraction(abs(complex(v))), Fraction(c)) for v in np.diag(b).tolist()]
    return sorted(pieces, key=lambda p: -p[0])


def exact_mu(x: Operator) -> list[tuple[Fraction, Fraction]]:
    """The canonical pieces of mu(x) of a diagonal operator, as Fractions:
    those of ``exact_mu_pieces`` with exactly equal values merged, and a
    zero piece up to tau(1)."""
    merged: list[tuple[Fraction, Fraction]] = []
    gap = Fraction(x.algebra.total_trace) - sum(w for _, w in exact_mu_pieces(x))
    for v, w in exact_mu_pieces(x) + [(Fraction(0), gap)]:
        if w == 0:
            continue
        if merged and merged[-1][0] == v:
            w += merged.pop()[1]
        merged.append((v, w))
    return merged


def exact_lp1_norm(x: Operator) -> Fraction:
    return sum((v * w for v, w in exact_mu_pieces(x)), Fraction(0))


def exact_lorentz1_norm(x: Operator, weight: StepFunction) -> Fraction:
    """The integral of mu(x) times the weight over (0, tau(1))."""
    f = exact_mu_pieces(x)
    g = [(Fraction(v), Fraction(w)) for v, w in weight.pieces]
    total, i, j = Fraction(0), 0, 0
    f_left, g_left = f[0][1], g[0][1]   # what is left of the current pieces
    while i < len(f) and j < len(g):
        step = min(f_left, g_left)
        total += f[i][0] * g[j][0] * step
        f_left -= step
        g_left -= step
        if f_left == 0:
            i += 1
            f_left = f[i][1] if i < len(f) else 0
        if g_left == 0:
            j += 1
            g_left = g[j][1] if j < len(g) else 0
    return total
