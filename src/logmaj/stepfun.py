"""Exact step-function calculus for singular value functions.

Step functions are finite lists of ``(value, width)`` pieces on the
interval ``(0, L)`` with ``L`` the sum of widths, right-continuous and
constant on each piece.  Generalized singular value functions mu(x),
distribution functions, decreasing rearrangements and the prefix
integrals consumed by the majorisation predicates are all exact
operations on this representation; no quadrature is involved.  mu of many
operators is one array pass (``_mu_table``), whose table of stacked
pieces the norms read with no step function per row.

Extended-real results use IEEE ``-inf`` (log of a zero piece); the
arithmetic here never produces NaN because infinite branches are
resolved explicitly before any subtraction.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from .algebra import (BlockStacks, Operator, OperatorBatch, block_singular_values,
                      first_read, spectral_decompose, stacked_singular_values)
from .config import tolerances
from .errors import NegativeValue, NotHermitian, OutOfDomain, ShapeMismatch

NEG_INF = float("-inf")

# Relative slop when locating breakpoints; covers the one-ulp drift of
# cumulative sums taken in different orders, far below every predicate
# tolerance.
_EDGE_REL = 1e-12


def _canonical(pieces: Iterable[tuple[float, float]], snap: float = 0.0) -> tuple[tuple[float, float], ...]:
    """Drop zero-width pieces and merge adjacent (near-)equal values.

    Exactly equal adjacent values merge into one piece of that value and
    the summed width.  With ``snap > 0`` adjacent values v, w with
    ``|v - w| <= snap * max(|v|, |w|)`` merge to their width-weighted
    mean, cascading left to right; the test is relative at every scale.
    """
    merged: list[list[float]] = []
    for value, width in pieces:
        value = float(value)
        width = float(width)
        if width < 0.0 or not math.isfinite(width):
            raise ValueError(f"piece width must be positive, got {width}")
        if width == 0.0:
            continue
        if not math.isfinite(value):
            raise ValueError(f"piece value must be finite, got {value}")
        if merged:
            prev_v, prev_w = merged[-1]
            if value == prev_v:
                # the value, not the mean, which can round off it; zeros
                # take the mean's sign (-0.0 only from two -0.0)
                merged[-1] = [prev_v if prev_v else prev_v + value, prev_w + width]
                continue
            if snap > 0.0 and abs(value - prev_v) <= snap * max(abs(prev_v), abs(value)):
                total = prev_w + width
                merged[-1] = [(prev_v * prev_w + value * width) / total, total]
                continue
        merged.append([value, width])
    return tuple((v, w) for v, w in merged)


def _is_canonical(pieces: tuple[tuple[float, float], ...]) -> bool:
    """Whether ``_canonical(pieces)`` returns ``pieces`` unchanged: every
    value finite, every width finite and positive, and no two adjacent
    values exactly equal.  ``pieces`` must hold Python floats."""
    prev = None
    for value, width in pieces:
        if value == prev or not (0.0 < width < math.inf and math.isfinite(value)):
            return False
        prev = value
    return True


class StepFunction:
    """Piecewise-constant function on (0, L) as (value, width) pieces.

    It keeps what it is built from, its canonical ``pieces`` or mu's
    read-only ``values`` and ``widths`` arrays and ``total_length``, and
    builds every other table on first read (``algebra.first_read``, which
    takes no lock), among them one evaluator per prefix integral with its
    tables bound.  It is immutable; equality and hashing go by ``pieces``.
    """

    def __init__(self, pieces: Iterable[tuple[float, float]]):
        vars(self)["pieces"] = _canonical(pieces)

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return self.pieces == other.pieces if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.pieces,))

    def __repr__(self):
        return f"StepFunction(pieces={self.pieces!r})"

    @classmethod
    def _of(cls, **tables) -> "StepFunction":
        """Step function over canonical ``pieces``, or canonical read-only
        float64 ``values`` and ``widths`` and ``total_length``, which must
        be ``float(widths.sum())``: they are not canonicalised again."""
        out = object.__new__(cls)
        vars(out).update(tables)
        return out

    @classmethod
    def from_pieces(cls, pieces: Sequence[tuple[float, float]], snap: float = 0.0) -> "StepFunction":
        pieces = _canonical(pieces, snap=snap)
        if not _is_canonical(pieces):
            # a cascading merge can round onto the previous value
            pieces = _canonical(pieces)
        return cls._of(pieces=pieces)

    @first_read
    def pieces(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.values.tolist(), self.widths.tolist()))

    @first_read
    def values(self) -> np.ndarray:
        return _read_only(self._values)

    @first_read
    def widths(self) -> np.ndarray:
        return _read_only([w for _, w in self.pieces])

    @first_read
    def total_length(self) -> float:
        # the bits of float(self.widths.sum()), without building the array
        return 0.0 + _pairwise_sum([w for _, w in self.pieces])

    @first_read
    def is_decreasing(self) -> bool:
        return self._values == sorted(self._values, reverse=True)   # finite values

    @first_read
    def is_nonnegative(self) -> bool:
        return min(self._values, default=0.0) >= 0.0

    # Float tables of the breakpoint calculus: ``_values``, ``_ends`` and
    # ``_logs``.  Python floats round as float64 does, ``accumulate`` adds as
    # ``np.cumsum`` does and ``_prefix_sums`` as numpy's ``add.reduce``, so
    # their lookups have numpy's bits.

    @first_read
    def _values(self) -> list[float]:
        return [v for v, _ in self.pieces]

    @first_read
    def _ends(self) -> list[float]:
        return list(accumulate(w for _, w in self.pieces))

    @first_read
    def _logs(self) -> tuple[int, list[float], list[float]]:
        """The first zero piece ``z``, ``np.log`` of the values before it, and
        the sums over whole pieces: ``sums[i]`` is numpy's ``add.reduce`` of
        the first ``i`` log pieces ``log(v) * w``, for ``i = 0..z``, bit for
        bit."""
        values = self._values
        z = values.index(0.0) if 0.0 in values else len(values)
        logs = np.log(self.values[:z]).tolist()
        return z, logs, _prefix_sums([v * w for v, (_, w) in zip(logs, self.pieces)])

    @first_read
    def ends(self) -> np.ndarray:
        """Cumulative right endpoints of the pieces."""
        return _read_only(self._ends)

    def value_at(self, t: float) -> float:
        """Right-continuous evaluation; 0 beyond the domain length.

        The convention ``value_at(t) = v_i`` on ``[end_{i-1}, end_i)`` and
        ``0`` for ``t >= L`` serves both decreasing rearrangements (which
        are padded with an explicit zero tail) and distribution functions
        (which vanish above the top of the spectrum).
        """
        if t < 0.0:
            raise OutOfDomain(f"t={t} < 0")
        if not self.pieces or t >= self.total_length:
            return 0.0
        values = self._values
        # ends[-1] (a cumulative sum) can round below total_length
        return values[min(bisect_right(self._ends, t), len(values) - 1)]

    def _locate(self, t: float) -> float:
        length = self.total_length
        slop = _EDGE_REL * max(1.0, length)
        if t < -slop or t > length + slop:
            raise OutOfDomain(f"t={t} outside [0, {length}]")
        return min(max(float(t), 0.0), length)

    # Evaluators: one closure per function with its tables bound, so that a
    # verdict's loop over the breakpoints reads no attribute per point.  Each
    # starts with ``_locate`` inlined: its clamp as comparisons, which pick
    # what ``min`` and ``max`` pick (-0.0 and NaN pass through).

    @first_read
    def _prefix(self):
        """``prefix_integral`` of this function."""
        values, ends, length = self._values, self._ends, self.total_length
        slop = _EDGE_REL * max(1.0, length)
        cumint = list(accumulate(v * w for v, w in self.pieces))
        n = len(ends)

        def prefix(t: float) -> float:
            if t < -slop or t > length + slop:
                raise OutOfDomain(f"t={t} outside [0, {length}]")
            t = float(t)
            if t < 0.0:
                t = 0.0
            elif t > length:
                t = length
            if not n or t == 0.0:
                return 0.0
            i = bisect_right(ends, t)
            if i >= n:
                return cumint[-1]
            base, start = (cumint[i - 1], ends[i - 1]) if i > 0 else (0.0, 0.0)
            return base + values[i] * (t - start)
        return prefix

    @first_read
    def _log_prefix(self):
        """``log_prefix_integral`` of this function."""
        if not self.is_nonnegative:
            raise NegativeValue("log prefix integral requires a nonnegative function")
        ends, length = self._ends, self.total_length
        slop = _EDGE_REL * max(1.0, length)
        zero, logs, sums = self._logs
        n = len(ends)

        def log_prefix(t: float) -> float:
            if t < -slop or t > length + slop:
                raise OutOfDomain(f"t={t} outside [0, {length}]")
            t = float(t)
            if t < 0.0:
                t = 0.0
            elif t > length:
                t = length
            if not n or t == 0.0:
                return 0.0
            i = bisect_right(ends, t)
            if i > zero:
                return NEG_INF
            total = sums[i]
            if i < n:
                overlap = t - (ends[i - 1] if i > 0 else 0.0)
                if overlap > 0.0:
                    if i == zero:
                        return NEG_INF
                    total += logs[i] * overlap
            return total
        return log_prefix

    def prefix_integral(self, t: float) -> float:
        """Exact integral of the function over (0, t)."""
        return self._prefix(t)

    def log_prefix_integral(self, t: float) -> float:
        """Integral of log(value) over (0, t); -inf once a zero piece has
        positive overlap with (0, t)."""
        return self._log_prefix(t)

    def rearrange(self) -> "StepFunction":
        """Decreasing rearrangement: pieces sorted by value descending.

        Equimeasurable with the input (same distribution function);
        requires a nonnegative function.
        """
        if not self.is_nonnegative:
            raise NegativeValue("rearrangement requires a nonnegative function")
        ordered = sorted(self.pieces, key=lambda p: -p[0])
        return StepFunction(tuple(ordered))

    def pad_to(self, length: float) -> "StepFunction":
        """Extend with an explicit zero piece up to total length ``length``."""
        gap = length - self.total_length
        slop = _EDGE_REL * max(1.0, length)
        if gap <= slop:
            if gap < -slop:
                raise ShapeMismatch(
                    f"cannot pad length {self.total_length} down to {length}")
            return self
        return StepFunction._of(pieces=_canonical(self.pieces + ((0.0, gap),)))

    def truncate(self, length: float) -> "StepFunction":
        """Restrict to (0, length); length may not exceed the domain.

        A prefix of canonical pieces, the last one cut to a positive width,
        is canonical: it is not canonicalised again."""
        length = self._locate(length)
        out = []
        consumed = 0.0
        for v, w in self.pieces:
            if consumed + w <= length:
                out.append((v, w))
                consumed += w
            else:
                rest = length - consumed
                if rest > 0.0:
                    out.append((v, rest))
                break
        return StepFunction._of(pieces=tuple(out))

    def power(self, p: float) -> "StepFunction":
        """Pointwise p-th power of a nonnegative function (0**p = 0)."""
        if not self.is_nonnegative:
            raise NegativeValue("power requires a nonnegative function")
        return StepFunction(tuple(((v ** p if v > 0.0 else 0.0), w) for v, w in self.pieces))

    def map_values(self, f) -> "StepFunction":
        return StepFunction(tuple((float(f(v)), w) for v, w in self.pieces))


def _read_only(floats: list[float]) -> np.ndarray:
    arr = np.array(floats, dtype=float)
    arr.setflags(write=False)
    return arr


def _prefix_sums(terms: list[float]) -> list[float]:
    """The sum of each prefix ``terms[:i]``, ``i = 0..len(terms)``, as numpy's
    float64 ``add.reduce`` gives it, bit for bit, in Python floats.

    ``add.reduce`` adds the pairwise sum of its terms to the identity 0.0
    (which turns a sum of -0.0 into 0.0).  The pairwise sum (``pairwise_sum``
    in numpy's loops) takes up to 128 terms in one block
    (``_block_prefix_sums``) and splits more terms at
    ``n2 = n//2 - (n//2) % 8`` into two halves summed alike.
    """
    sums = _block_prefix_sums(terms[:128])
    sums += (_pairwise_sum(terms[:i]) for i in range(129, len(terms) + 1))
    return [0.0 + s for s in sums]


def _block_prefix_sums(terms: list[float]) -> list[float]:
    """numpy's pairwise sum of each prefix of at most 128 ``terms``: up to
    7 terms a running sum from 0.0; from 8 on, eight running sums seeded
    with the first eight terms and stepped by 8 over the complete blocks,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the rest
    added one by one."""
    sums = list(accumulate(terms[:7], initial=0.0))
    r = terms[:8]
    for k in range(8, len(terms) + 1, 8):
        if k > 8:
            r = [a + b for a, b in zip(r, terms[k - 8:k])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        sums += accumulate(terms[k:k + 7], initial=total)
    return sums


def _pairwise_sum(terms: list[float]) -> float:
    """numpy's pairwise sum of ``terms``."""
    n = len(terms)
    if n <= 128:
        return _block_prefix_sums(terms)[-1]
    n2 = n // 2 - (n // 2) % 8
    return _pairwise_sum(terms[:n2]) + _pairwise_sum(terms[n2:])


def union_breakpoints(*fns: StepFunction) -> np.ndarray:
    """Sorted union of all breakpoints, deduplicated up to one-ulp drift."""
    return np.array(_union_breakpoints(*fns), dtype=float)


def _union_breakpoints(*fns: StepFunction) -> list[float]:
    length = max((f.total_length for f in fns), default=0.0)
    pts = sorted(chain.from_iterable(f._ends for f in fns))
    if not pts:
        return pts
    slop = _EDGE_REL * max(1.0, length)
    keep = [pts[0]]
    for t in pts[1:]:
        if t - keep[-1] > slop:
            keep.append(t)
    return keep


def refine(f: StepFunction, g: StepFunction,
           breakpoints: Sequence[float] | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common refinement of two step functions: ``(widths, fv, gv)``.

    The shorter function is padded with zeros to the longer length; the
    cells are those of :func:`union_breakpoints` starting at 0, and
    ``fv``, ``gv`` are the values of ``f`` and ``g`` on each cell, i.e.
    their ``value_at`` at the cell mid-point.  A caller that holds that
    union already (a verdict's ``checked_points``) passes it as
    ``breakpoints``.
    """
    return tuple(np.array(col, dtype=float) for col in _refine(f, g, breakpoints))


def _refine(f: StepFunction, g: StepFunction, breakpoints: Sequence[float] | None = None
            ) -> tuple[list[float], list[float], list[float]]:
    """``refine`` as lists of floats."""
    length = max(f.total_length, g.total_length)
    f = f.pad_to(length)
    g = g.pad_to(length)
    right = _union_breakpoints(f, g) if breakpoints is None else [float(t) for t in breakpoints]
    left = [0.0, *right[:-1]]
    mids = [(lo + hi) / 2.0 for lo, hi in zip(left, right)]

    def on_cells(h: StepFunction) -> list[float]:
        # past the last piece (only when h has none) value_at gives 0
        values, ends = h._values + [0.0], h._ends
        return [values[bisect_right(ends, t)] for t in mids]

    return [hi - lo for lo, hi in zip(left, right)], on_cells(f), on_cells(g)


def pointwise_product(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise product over the refined common partition.

    The shorter function is padded with zeros, so the result is defined on
    the longer domain.
    """
    widths, fv, gv = _refine(f, g)
    return StepFunction.from_pieces([(a * b, w) for a, b, w in zip(fv, gv, widths)])


def mu(x: Operator) -> StepFunction:
    """Generalized singular value function of an operator.

    Each singular value s of block k contributes a piece ``(s, c_k)``;
    pieces are sorted descending, near-equal neighbours are merged (the
    eigensolver splits multiplicities by ~1e-12), and the result is padded
    with an explicit zero piece to total length tau(1).  Singular values
    below the relative rank threshold ``tol_alg * s_max`` are
    flattened to exact zero so that rank decisions are unambiguous.
    ``mu(x)`` is ``mu_many([x])[0]``.
    """
    return mu_many([x])[0]


# Calls of fewer operators take mu's cascade one by one.  The array pass
# ``_mu_table`` costs about 80 us plus 12 us per operator, the cascade 25
# to 35 us per operator (5 to 10 singular values), so the array pass wins
# from 4 to 8 operators on.
_MIN_STACK_ROWS = 8


def mu_many(xs: Sequence[Operator] | OperatorBatch) -> list[StepFunction]:
    """``[mu(x) for x in xs]``, batched; the operators of a list may live
    on different algebras.

    Fewer than ``_MIN_STACK_ROWS`` operators take mu's cascade one by one,
    the blocks of a lone operator solved one by one too; from there on mu
    is read off the table of one array pass (``_mu_table``), whose step
    functions keep its arrays.
    """
    tol = tolerances().alg
    if not isinstance(xs, OperatorBatch) and len(xs) == 1:
        # one call per block costs less than a stack of one
        x = xs[0]
        return [_cascade_row(_entries(x.algebra, map(block_singular_values, x.blocks)),
                             x.algebra.total_trace, tol)]
    if len(xs) >= _MIN_STACK_ROWS:
        return _mu_table(xs).functions()
    stacks = BlockStacks.of(xs)
    results = [stacked_singular_values(s) for s in stacks.stacks]
    return [_cascade_row(_entries(alg, svs), alg.total_trace, tol)
            for alg, svs in zip(stacks.algebras, stacks.rows(results))]


def _mu_table(xs: Sequence[Operator] | OperatorBatch) -> "_MuTable":
    """mu of each operator of ``xs`` as a row of one ``_mu_rows`` pass.

    The blocks of a list are solved in one stack per block dimension, those
    of an ``OperatorBatch`` in one stack per block (``algebra.BlockStacks``,
    ``algebra.stacked_singular_values``); LAPACK runs the same routine on
    each matrix of a stack as on a single matrix.  The singular values go
    straight from the stacks into the rows, in block order: a batch's
    stacks side by side, a list's rows padded with zeros of weight 0
    (``_padded_rows``).
    """
    tol = tolerances().alg
    stacks = BlockStacks.of(xs)
    results = [stacked_singular_values(s) for s in stacks.stacks]
    if stacks.batched:
        alg, m = xs.algebra, len(xs)
        weights = np.repeat(alg.weights, alg.dims)
        return _mu_rows(np.concatenate(results, axis=1), np.broadcast_to(weights, (m, weights.size)),
                        np.full(m, alg.total_trace), np.full(m, weights.size), tol)
    return _mu_rows(*_padded_rows(stacks, results), tol)


def _entries(algebra, svs: Iterable[np.ndarray]) -> list[tuple[float, float]]:
    """One operator's ``(singular value, weight)`` pairs in block order."""
    return [(v, c) for (_, c), s in zip(algebra.blocks, svs) for v in s.tolist()]


def _padded_rows(stacks: BlockStacks, results: Sequence[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The singular values of a list's operators (``results``, one array
    per stack) as the rows of one array, in block order, padded with zeros
    of weight 0 to the longest row; the weights, and per row tau(1) and
    the number of singular values."""
    algebras = stacks.algebras
    layouts: dict[int, tuple[list[int], float]] = {}   # id(algebra) -> (offsets, tau(1))
    for alg in algebras:
        if id(alg) not in layouts:
            layouts[id(alg)] = (list(accumulate(alg.dims, initial=0)), alg.total_trace)
    rows = [layouts[id(alg)] for alg in algebras]
    sizes = np.array([offsets[-1] for offsets, _ in rows])
    sv = np.zeros((len(rows), sizes.max()))
    weights = np.zeros_like(sv)
    for result, where in zip(results, stacks.where):
        owner = np.array([i for i, _ in where])[:, None]
        column = np.array([rows[i][0][k] for i, k in where])[:, None] + np.arange(result.shape[1])
        sv[owner, column] = result
        weights[owner, column] = np.array([algebras[i].blocks[k][1] for i, k in where])[:, None]
    return sv, weights, np.array([trace for _, trace in rows]), sizes


def _cascade_row(entries: list[tuple[float, float]], trace: float,
                 tol: float) -> StepFunction:
    """mu from one operator's ``(singular value, weight)`` pairs: rank cut,
    descending stable sort, ``StepFunction.from_pieces(..., snap=tol)`` and
    zero padding to tau(1)."""
    cut = tol * max(entries)[0]
    entries = [(0.0 if v <= cut else v, w) for v, w in entries]
    entries.sort(key=lambda p: -p[0])
    return StepFunction.from_pieces(entries, snap=tol).pad_to(trace)


@dataclasses.dataclass(frozen=True)
class _MuTable:
    """mu of the rows of one array pass: row ``r`` has the pieces
    ``values[r, :counts[r]]`` and ``widths[r, :counts[r]]`` (read-only,
    zeros past them) of total length ``lengths[r]``.  The rows that took
    ``_cascade_row`` keep its step function in ``cascade``."""

    values: np.ndarray
    widths: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray
    cascade: dict[int, StepFunction]

    def functions(self, rows: Iterable[int] | None = None) -> list[StepFunction]:
        """The step functions of ``rows`` (all by default), over the arrays."""
        counts, lengths, cascade = self.counts.tolist(), self.lengths.tolist(), self.cascade
        return [cascade[r] if r in cascade else StepFunction._of(
                    values=self.values[r, :counts[r]], widths=self.widths[r, :counts[r]],
                    total_length=lengths[r])
                for r in (range(len(counts)) if rows is None else rows)]


def _row_sums(terms: np.ndarray, counts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """numpy's sum of ``terms[r, :counts[r]]`` for each row ``r`` of ``rows``
    (0 elsewhere), rows of equal count in one reduction: the row's bits."""
    out, sizes = np.zeros(len(terms)), counts[rows]
    for count in set(sizes.tolist()):
        group = rows[sizes == count]
        out[group] = terms[group, :count].sum(axis=1)
    return out


def _mu_rows(sv: np.ndarray, weights: np.ndarray, traces: np.ndarray,
             sizes: np.ndarray, tol: float) -> _MuTable:
    """mu for each row of ``sv``, the ``sizes[r]`` singular values of one
    operator in block order and then zeros, with their block weights (0
    past ``sizes[r]``) in ``weights`` and its algebra's tau(1) in
    ``traces``.

    One array pass makes the rank cut ``tol * row max`` and the
    descending stable sort of every row, and screens the sorted rows for
    neighbours within the snap ``tol`` (zeros aside).  A row without such
    a tie takes no merge but that of its zero tail, whose widths add left
    to right as in ``_canonical`` (a padding zero adds a width of 0 after
    them); the zero piece is kept if the row has a zero of its own.  Its
    length is summed with the rows of equal piece count.  When the row is
    also within the padding slop of tau(1) its pieces are read off the
    sorted arrays.  Every other row (a tie, a non-finite value or a length
    outside the slop) runs ``_cascade_row`` on its own entries, which
    gives the same bits, and its pieces are written into the arrays.
    """
    m, n = sv.shape
    cut = tol * sv.max(axis=1)
    cut_sv = np.where(sv <= cut[:, None], 0.0, sv)
    flat = np.argsort(-cut_sv, axis=1, kind="stable")
    flat += np.arange(0, m * n, n)[:, None]
    values = cut_sv.ravel()[flat]
    widths = weights.ravel()[flat]
    zero = values == 0.0
    prev, nxt = values[:, :-1], values[:, 1:]
    # the merge test of _canonical (a snap tol <= 0 merges equal values only)
    tie = (nxt == prev) | (np.abs(nxt - prev) <= tol * np.maximum(prev, nxt))
    tie &= ~(zero[:, :-1] & zero[:, 1:])
    tail = np.cumsum(np.where(zero, widths, 0.0), axis=1)[:, -1]
    # a non-finite singular value makes the cut non-finite
    cascade = tie.any(axis=1) | ~np.isfinite(cut + tail)
    # the pieces of the other rows: the positive values, then one zero piece
    n_pos = n - zero.sum(axis=1)
    own_zero = n_pos < sizes
    counts = n_pos + own_zero
    zr = np.flatnonzero(own_zero)
    widths[zr, n_pos[zr]] = tail[zr]
    widths[np.arange(n) >= counts[:, None]] = 0.0
    lengths = _row_sums(widths, counts, np.flatnonzero(~cascade))
    slop = _EDGE_REL * np.maximum(1.0, traces)
    cascade |= ~((-slop <= traces - lengths) & (traces - lengths <= slop))
    rows = np.flatnonzero(cascade).tolist()
    fs = [_cascade_row(list(zip(sv[r, :size].tolist(), weights[r, :size].tolist())), trace, tol)
          for r, size, trace in zip(rows, sizes[rows].tolist(), traces[rows].tolist())]
    if fs:
        extra = max(f.values.size for f in fs) - n
        values, widths = (np.pad(a, ((0, 0), (0, max(extra, 0)))) for a in (values, widths))
        values[rows] = widths[rows] = 0.0
        for r, f in zip(rows, fs):
            values[r, :f.values.size] = f.values
            widths[r, :f.widths.size] = f.widths
        counts[rows] = [f.values.size for f in fs]
        lengths[rows] = [f.total_length for f in fs]
    values.setflags(write=False)
    widths.setflags(write=False)
    return _MuTable(values, widths, counts, lengths, dict(zip(rows, fs)))


def distribution(x: Operator) -> StepFunction:
    """Distribution function d(s) = tau(e^x(s, inf)) over s in (0, ||x||].

    Requires a hermitian operator; apply to |x| for the singular value
    distribution of a general operator.  Represented as a step function of
    the level variable s, right-continuous, vanishing above the top of the
    spectrum.
    """
    if not x.is_hermitian():
        raise NotHermitian("distribution function requires a hermitian operator")
    dec = spectral_decompose(x)
    eigs: list[tuple[float, float]] = []
    for (_, c), w in zip(x.algebra.blocks, dec.eigenvalues):
        eigs.extend((float(lam), c) for lam in w if lam > 0.0)
    if not eigs:
        return StepFunction(())
    thresholds = sorted({lam for lam, _ in eigs})
    merged = [thresholds[0]]
    # relative to the top eigenvalue: the merge must not depend on scale
    slop = _EDGE_REL * thresholds[-1]
    for t in thresholds[1:]:
        if t - merged[-1] > slop:
            merged.append(t)
    pieces = []
    prev = 0.0
    for s in merged:
        weight_ge = sum(c for lam, c in eigs if lam >= s - slop)
        pieces.append((weight_ge, s - prev))
        prev = s
    return StepFunction.from_pieces(pieces)
