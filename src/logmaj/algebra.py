"""Weighted direct sums of matrix blocks and their spectral calculus.

A :class:`FiniteAlgebra` models the finite-dimensional tracial setting
``M = M_{d_1} (+) ... (+) M_{d_m}`` with trace
``tau(x) = sum_k c_k * Tr(x_k)`` for strictly positive block weights
``c_k``.  Operators are tuples of complex matrices, one per block, and
batches stacks of them, with one blockwise arithmetic.  The module also
provides the weighted trace, hermitian eigendecompositions, spectral and
support projections, and functional calculus.  Each spectral routine has
one body, the stacked one (see "Stacked forms" below); its
single-operator function is the one-element case.

All values are immutable after construction and every operation is pure;
the only shared state is the tolerance configuration, read through
``config.tolerances()`` (see :mod:`logmaj.config` for its scopes).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import tolerances
from .errors import DomainError, NotHermitian, ShapeMismatch


class first_read:
    """A table of an immutable value, built by the decorated method on its
    first read and stored in the instance's ``vars``, so that every later
    read is a plain attribute lookup.

    The standard library's cached property does the same but takes a lock
    on every first read on Python 3.10 and 3.11.  Without one, two threads
    that read a table first at once both build it; the table is a pure
    function of the instance, so either result is the right one.
    """

    def __init__(self, build):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


@dataclasses.dataclass(frozen=True)
class FiniteAlgebra:
    """A direct sum of full matrix blocks with per-block trace weights.

    ``blocks`` is a tuple of ``(dim, weight)`` pairs.  Block order is part
    of the identity: two algebras are equal iff their block lists are equal.
    """

    blocks: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ShapeMismatch("algebra needs at least one block")
        normalized = []
        for dim, weight in self.blocks:
            dim = int(dim)
            weight = float(weight)
            if dim < 1:
                raise ShapeMismatch(f"block dimension must be >= 1, got {dim}")
            if not (weight > 0.0) or not math.isfinite(weight):
                raise ShapeMismatch(f"block weight must be > 0, got {weight}")
            normalized.append((dim, weight))
        object.__setattr__(self, "blocks", tuple(normalized))

    @classmethod
    def full(cls, dim: int, weight: float = 1.0) -> "FiniteAlgebra":
        """Single matrix block M_dim with trace weight ``weight``."""
        return cls(((dim, weight),))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @first_read
    def dims(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.blocks)

    @first_read
    def weights(self) -> tuple[float, ...]:
        return tuple(c for _, c in self.blocks)

    @first_read
    def total_trace(self) -> float:
        """tau(1) = sum_k c_k * d_k."""
        return float(sum(c * d for d, c in self.blocks))

    @first_read
    def vector_dim(self) -> int:
        """Dimension of the algebra as a complex vector space."""
        return int(sum(d * d for d, _ in self.blocks))

    @first_read
    def units(self) -> "OperatorBatch":
        """The matrix units, in canonical order: the rows of ``np.eye(vector_dim)``."""
        return OperatorBatch(self, np.eye(self.vector_dim))

    @first_read
    def unit_indices(self) -> tuple[np.ndarray, ...]:
        """Per block, the read-only ``(d, d)`` positions of its matrix units
        e_ab in the canonical vectorization."""
        positions = np.arange(self.vector_dim)
        positions.setflags(write=False)
        return _row_views(self, positions)

    def operator(self, blocks: Sequence[np.ndarray]) -> "Operator":
        return Operator(self, blocks)

    def zero(self) -> "Operator":
        return Operator(self, [np.zeros((d, d), dtype=complex) for d in self.dims])

    def identity(self) -> "Operator":
        return Operator(self, [np.eye(d, dtype=complex) for d in self.dims])

    def block_identity(self, k: int) -> "Operator":
        """The central projection 1_k supported on block ``k``."""
        blocks = [np.zeros((d, d), dtype=complex) for d in self.dims]
        blocks[k] = np.eye(self.dims[k], dtype=complex)
        return Operator(self, blocks)

    def diagonal(self, values: Sequence[Sequence[float]]) -> "Operator":
        """Operator with the given diagonal entries per block."""
        if len(values) != self.n_blocks:
            raise ShapeMismatch("one diagonal per block required")
        return Operator(self, [np.diag(np.asarray(v, dtype=complex)) for v in values])

    def matrix_units(self) -> Iterator[tuple[int, int, int, "Operator"]]:
        """Yield (block, i, j, e_ij) over the canonical matrix-unit basis."""
        for k, d in enumerate(self.dims):
            for i in range(d):
                for j in range(d):
                    blocks = [np.zeros((dd, dd), dtype=complex) for dd in self.dims]
                    blocks[k][i, j] = 1.0
                    yield k, i, j, Operator(self, blocks)

    def hermitian_basis(self) -> list["Operator"]:
        """A real basis of the hermitian part, built from matrix units."""
        out = []
        for k, d in enumerate(self.dims):
            for i in range(d):
                blocks = [np.zeros((dd, dd), dtype=complex) for dd in self.dims]
                blocks[k][i, i] = 1.0
                out.append(Operator(self, blocks))
                for j in range(i + 1, d):
                    sym = [np.zeros((dd, dd), dtype=complex) for dd in self.dims]
                    sym[k][i, j] = sym[k][j, i] = 1.0
                    out.append(Operator(self, sym))
                    asym = [np.zeros((dd, dd), dtype=complex) for dd in self.dims]
                    asym[k][i, j] = 1.0j
                    asym[k][j, i] = -1.0j
                    out.append(Operator(self, asym))
        return out


class Blockwise:
    """Blockwise arithmetic, written once for an :class:`Operator` and an
    :class:`OperatorBatch` of one algebra.

    Each operation acts on the trailing two axes of the block arrays: a
    block is ``(d, d)`` for an operator and ``(n, d, d)`` for a batch, and
    numpy broadcasts one against the other, so an operator and a batch
    combine into a batch.  ``@`` is the algebra product, one ``np.matmul``
    per block, which runs the 2-D product's BLAS call on every matrix of a
    stack: each result is bit for bit that of the operators one at a time.
    ``*`` and ``/`` take a scalar.  Results are read-only; ``rows``, the
    canonical coordinates (the blocks in order, each row-major, along the
    last axis), is built on first read.
    """

    __array_ufunc__ = None  # a numpy scalar on the left defers to ``__rmul__``

    @classmethod
    def _wrap(cls, algebra: FiniteAlgebra, blocks: Sequence[np.ndarray]) -> "Blockwise":
        """The operator, or the batch for ``(n, d, d)`` blocks, over fresh
        complex blocks of the right shapes (or views of read-only ones):
        they are marked read-only, not copied or checked again."""
        mats = tuple(blocks)
        for b in mats:
            b.setflags(write=False)
        out = object.__new__(OperatorBatch if mats[0].ndim == 3 else Operator)
        out.algebra = algebra
        out.blocks = mats
        return out

    @first_read
    def rows(self) -> np.ndarray:
        rows = np.concatenate([b.reshape(*b.shape[:-2], b.shape[-1] ** 2) for b in self.blocks],
                              axis=-1)
        rows.setflags(write=False)
        return rows

    def _require_same_algebra(self, other: "Blockwise") -> None:
        if self.algebra != other.algebra:
            raise ShapeMismatch("operators live in different algebras")

    def __add__(self, other: "Blockwise") -> "Blockwise":
        self._require_same_algebra(other)
        return self._wrap(self.algebra, list(map(np.add, self.blocks, other.blocks)))

    def __sub__(self, other: "Blockwise") -> "Blockwise":
        self._require_same_algebra(other)
        return self._wrap(self.algebra, list(map(np.subtract, self.blocks, other.blocks)))

    def __neg__(self) -> "Blockwise":
        return self._wrap(self.algebra, [-b for b in self.blocks])

    def _scaled(self, scalar, blocks: list[np.ndarray]) -> "Blockwise":
        # a Python number keeps complex blocks of the same shapes; anything
        # else (an array, a Fraction, a long double) is cast and checked
        if isinstance(scalar, (int, float, complex)):
            return self._wrap(self.algebra, blocks)
        checked = OperatorBatch.from_stacks if isinstance(self, OperatorBatch) else Operator
        return checked(self.algebra, blocks)

    def __mul__(self, scalar: complex) -> "Blockwise":
        return self._scaled(scalar, [scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "Blockwise":
        return self._scaled(scalar, [b / scalar for b in self.blocks])

    def __matmul__(self, other: "Blockwise") -> "Blockwise":
        self._require_same_algebra(other)
        return self._wrap(self.algebra, list(map(np.matmul, self.blocks, other.blocks)))

    def adjoint(self) -> "Blockwise":
        return self._wrap(self.algebra, [b.conj().swapaxes(-1, -2) for b in self.blocks])

    def transpose(self) -> "Blockwise":
        return self._wrap(self.algebra, [b.swapaxes(-1, -2) for b in self.blocks])


def _row_views(algebra: FiniteAlgebra, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The blocks whose coordinates are ``rows`` (along its last axis), as views."""
    views, end = [], 0
    for d in algebra.dims:
        views.append(rows[..., end:end + d * d].reshape(*rows.shape[:-1], d, d))
        end += d * d
    return tuple(views)


def _from_rows(algebra: FiniteAlgebra, rows: np.ndarray) -> Blockwise:
    """The operator with the coordinates ``rows``, or the batch for a 2-D
    array, which the caller has just made: it keeps them, read-only, and
    its blocks are views into them."""
    rows.setflags(write=False)
    out = Blockwise._wrap(algebra, _row_views(algebra, rows))
    out.rows = rows
    return out


class Operator(Blockwise):
    """An element of a :class:`FiniteAlgebra`: one complex matrix per block,
    with the arithmetic of :class:`Blockwise`.  Instances are immutable
    (the underlying arrays are marked read-only) and safe to share across
    threads.
    """

    def __init__(self, algebra: FiniteAlgebra, blocks: Sequence[np.ndarray]):
        mats = tuple(np.array(b, dtype=complex) for b in blocks)
        if len(mats) != algebra.n_blocks:
            raise ShapeMismatch(
                f"expected {algebra.n_blocks} blocks, got {len(mats)}")
        for (d, _), b in zip(algebra.blocks, mats):
            if b.shape != (d, d):
                raise ShapeMismatch(f"block shape {b.shape} != ({d}, {d})")
            b.setflags(write=False)
        self.algebra = algebra
        self.blocks = mats

    def norm_inf(self) -> float:
        """Largest singular value across blocks (the operator norm)."""
        return _largest(np.linalg.svd(b, compute_uv=False)[0] for b in self.blocks)

    def is_hermitian(self, tol: float | None = None) -> bool:
        """Whether every block's defect ``||b - b^H||_2`` is at most
        ``tol * ||x||_inf``.

        An exactly hermitian block needs no norm, and a defect within
        ``tol`` times the largest entry modulus of x, a lower bound on
        ``||x||_inf``, needs no ``||x||_inf``.  Blocks are checked in
        order, stopping at the first failure.
        """
        if tol is None:
            tol = tolerances().alg
        peak = scale = None
        for b in self.blocks:
            defect = b - b.conj().T
            if tol >= 0.0 and not defect.any():
                continue
            norm = float(np.linalg.norm(defect, 2))
            if peak is None:
                peak = _largest(np.abs(c).max() for c in self.blocks)
            if norm <= tol * peak:
                continue
            if scale is None:
                scale = self.norm_inf()
            if not norm <= tol * scale:
                return False
        return True

    def isclose(self, other: "Operator", tol: float | None = None) -> bool:
        self._require_same_algebra(other)
        if tol is None:
            tol = tolerances().alg * max(1.0, self.norm_inf(), other.norm_inf())
        return (self - other).norm_inf() <= tol

    def __repr__(self) -> str:
        dims = "+".join(str(d) for d in self.algebra.dims)
        return f"Operator(dims={dims}, norm={self.norm_inf():.3g})"


class OperatorBatch(Blockwise):
    """``n`` operators of one algebra: ``blocks[k]`` is the read-only
    ``(n, d_k, d_k)`` stack of every operator's block ``k``, and row ``i``
    of ``rows`` (``(n, vector_dim)``) the coordinates of operator ``i``.
    The arithmetic is that of :class:`Blockwise`, with a batch or an
    ``Operator`` on either side.  A batch built from rows keeps the array
    it is given, made contiguous, and marks it read-only; its blocks are
    views into it.  ``batch[i]`` is operator ``i``, whose blocks are views
    of the batch's; a slice or an index array gives a batch.
    """

    def __init__(self, algebra: FiniteAlgebra, rows: np.ndarray):
        rows = np.ascontiguousarray(rows, dtype=complex)
        if rows.ndim != 2 or rows.shape[1] != algebra.vector_dim:
            raise ShapeMismatch(f"batch shape {rows.shape} != (n, {algebra.vector_dim})")
        rows.setflags(write=False)
        self.algebra = algebra
        self.rows = rows
        self.blocks = _row_views(algebra, rows)

    @classmethod
    def of(cls, algebra: FiniteAlgebra,
           block_lists: Sequence[Sequence[np.ndarray]]) -> "OperatorBatch":
        """The batch of the operators with the given blocks (an
        ``Operator``'s ``blocks``, or one array per block)."""
        if not block_lists:
            return cls(algebra, np.zeros((0, algebra.vector_dim)))
        try:
            return cls.from_stacks(algebra, [[blocks[k] for blocks in block_lists]
                                             for k in range(algebra.n_blocks)])
        except (ValueError, IndexError) as exc:
            raise ShapeMismatch("blocks do not fit the algebra") from exc

    @classmethod
    def from_stacks(cls, algebra: FiniteAlgebra, stacks: Sequence[np.ndarray]) -> "OperatorBatch":
        """The batch whose block ``k`` is a complex copy of the
        ``(n, d_k, d_k)`` stack ``stacks[k]``."""
        mats = [np.array(s, dtype=complex, order="C") for s in stacks]
        n = mats[0].shape[:1]
        if len(mats) != algebra.n_blocks or any(
                m.shape != (*n, d, d) for m, d in zip(mats, algebra.dims)):
            raise ShapeMismatch("blocks do not fit the algebra")
        return cls._wrap(algebra, mats)

    def __len__(self) -> int:
        return len(self.blocks[0])

    def __getitem__(self, i) -> "Operator | OperatorBatch":
        return self._wrap(self.algebra, [b[i] for b in self.blocks])


def _largest(block_norms) -> float:
    """The largest of the per-block norms, or 0.0; the tail of
    ``Operator.norm_inf`` and ``norm_inf_many``."""
    out = 0.0
    for value in block_norms:
        if value > out:
            out = float(value)
    return out


def trace(x: Operator) -> complex:
    """Weighted trace tau(x) = sum_k c_k * Tr(x_k)."""
    return complex(sum(c * np.trace(b) for (_, c), b in zip(x.algebra.blocks, x.blocks)))


def frobenius_norm(x: Operator) -> float:
    """Hilbert-Schmidt norm; dominates the operator norm, cheap to compute."""
    total = 0.0
    for b in x.blocks:
        total += float(np.vdot(b, b).real)
    return float(np.sqrt(total))


@dataclasses.dataclass(frozen=True)
class SpectralDecomposition:
    """Per-block eigendecomposition of a hermitian operator.

    Eigenvalues are real and sorted descending per block; ``bases`` holds
    the corresponding orthonormal eigenbases as unitary matrices whose
    columns are the eigenvectors.
    """

    algebra: FiniteAlgebra
    eigenvalues: tuple[np.ndarray, ...]
    bases: tuple[np.ndarray, ...]

    def reconstruct(self) -> Operator:
        """U D U*: ``apply`` with the identity function."""
        return self.apply(float)

    def projection(self, lower: float, upper: float) -> Operator:
        """The spectral projection onto (lower, upper]; see
        :func:`spectral_projection`.  Each block is the one-matrix case of
        ``_span``, which ``_span_projections`` applies per pattern."""
        return Operator._wrap(self.algebra, [
            _span(u[None], (w > lower) & (w <= upper), rows=False)[0]
            for w, u in zip(self.eigenvalues, self.bases)])

    def apply(self, f: Callable[[float], float]) -> Operator:
        """U f(D) U*; see :func:`functional_calculus`."""
        return Operator._wrap(self.algebra, self.apply_blocks(f))

    def apply_blocks(self, f: Callable[[float], float]) -> list[np.ndarray]:
        """The blocks of ``apply(f)``."""
        blocks = []
        for w, u in zip(self.eigenvalues, self.bases):
            fw = np.empty(len(w), dtype=float)
            for i, lam in enumerate(w):
                try:
                    val = float(f(float(lam)))
                except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
                    raise DomainError(f"function undefined at eigenvalue {lam}") from exc
                if not np.isfinite(val):
                    raise DomainError(f"function non-finite at eigenvalue {lam}")
                fw[i] = val
            blocks.append(u @ np.diag(fw.astype(complex)) @ u.conj().T)
        return blocks


def _symmetrized(b: np.ndarray) -> np.ndarray:
    """(b + b^H) / 2 for one block or a stack of blocks."""
    return (b + b.conj().swapaxes(-1, -2)) / 2.0


def spectral_decompose(x: Operator) -> SpectralDecomposition:
    """Blockwise hermitian eigendecomposition, eigenvalues descending.

    Ties in the descending eigenvalue order are broken by a lexicographic
    order on phase-fixed eigenvectors, so the output is deterministic.

    Raises ``NotHermitian`` if ``x`` fails the hermiticity check.
    """
    return spectral_decompose_many([x])[0]


def spectral_projection(x: Operator, lower: float, upper: float) -> Operator:
    """Spectral projection e^x(lower, upper] onto the half-open interval.

    Eigenvalue-versus-endpoint comparisons use strict ``> lower`` and
    ``<= upper`` on the computed eigenvalues, with no interval fudging;
    ``lower=-inf`` / ``upper=inf`` are allowed.
    """
    return spectral_projection_many([x], [lower], upper)[0]


def functional_calculus(x: Operator, f: Callable[[float], float]) -> Operator:
    """Apply a real scalar function to a hermitian operator: U f(D) U*.

    Raises ``DomainError`` if ``f`` is undefined or non-finite at an
    eigenvalue.
    """
    return spectral_decompose(x).apply(f)


def absolute_value(x: Operator) -> Operator:
    """|x| = (x* x)^(1/2), defined for arbitrary operators.

    Computed from the singular value decomposition rather than the Gram
    matrix, which keeps small singular values at full precision.
    """
    blocks = []
    for b in x.blocks:
        _, s, vh = np.linalg.svd(b)
        blocks.append(vh.conj().T @ np.diag(s.astype(complex)) @ vh)
    return Operator(x.algebra, blocks)


def positive_part(x: Operator) -> Operator:
    """x_+ = the positive spectral part of a hermitian operator."""
    return functional_calculus(x, lambda t: max(t, 0.0))


def negative_part(x: Operator) -> Operator:
    """x_- with x = x_+ - x_- and x_+ x_- = 0."""
    return functional_calculus(x, lambda t: max(-t, 0.0))


def block_singular_values(b: np.ndarray) -> np.ndarray:
    """Singular values of one block, descending.

    Exactly hermitian blocks go through the symmetric eigensolver, which
    (unlike the SVD's bidiagonalization) is bit-exact on already-diagonal
    input; general blocks use the SVD.  ``stacked_singular_values`` makes
    the same choice for a stack of blocks; the two must change together.
    """
    if np.array_equal(b, b.conj().T):
        return np.sort(np.abs(np.linalg.eigvalsh(b)))[::-1]
    return np.linalg.svd(b, compute_uv=False)


def stacked_singular_values(stack: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``block_singular_values(stack[i])`` for a ``(n, d, d)``
    stack, bit for bit.

    The stack is split by the same exact hermitian test; each part takes
    one stacked LAPACK call, which runs the routine of a single call on
    every matrix.  A change to the routine choice here must be made in
    ``block_singular_values`` too.
    """
    herm = np.all(stack == stack.conj().swapaxes(1, 2), axis=(1, 2))
    out = np.empty(stack.shape[:2])
    if herm.any():
        out[herm] = np.sort(np.abs(np.linalg.eigvalsh(stack[herm])), axis=-1)[:, ::-1]
    if not herm.all():
        out[~herm] = np.linalg.svd(stack[~herm], compute_uv=False)
    return out


def singular_values(x: Operator) -> tuple[np.ndarray, ...]:
    """Per-block singular values in descending order."""
    return tuple(block_singular_values(b) for b in x.blocks)


def support_projection(x: Operator) -> Operator:
    """Projection onto the closure of the range of |x|.

    The rank decision uses the relative threshold
    ``tol_rank = tol_alg * sigma_max``, so that ``s(c*x) = s(x)`` for every
    ``c != 0``; this equals the spectral projection of |x| over
    (tol_rank, inf).  The support satisfies
    ``x @ s(x) = x`` and ``s(x*) @ x = x``.
    """
    return support_projection_many([x])[0]


def min_eigenvalue(x: Operator) -> float:
    """Smallest eigenvalue of a hermitian operator (no hermiticity check)."""
    return min_eigenvalue_many([x])[0]


def is_psd(x: Operator) -> bool:
    """Whether ``x`` is positive semidefinite, up to ``tolerances().alg``
    relative to ``||x||_inf``.

    Both gates scale with ``x``: every block's hermitian defect
    ``||b - b^H||_2`` and the depth of the smallest eigenvalue must be at
    most ``tol * ||x||_inf``, so the verdict on ``c x`` is the verdict on
    ``x`` for every ``c > 0``.  The zero operator is PSD.
    """
    return is_psd_many([x])[0]


# ---------------------------------------------------------------------------
# Stacked forms.  Each ``*_many`` function returns, bit for bit, the results
# of its operators one at a time.  It takes an ``OperatorBatch`` or a list
# of operators, which may live on different algebras, and lays their blocks
# out as ``BlockStacks``: one stacked LAPACK call per block of a batch, and
# per block dimension of a list.  LAPACK runs the routine of a single call
# on every matrix of a stack, as ``np.matmul`` (stacked or broadcast, in the
# shared arithmetic) runs the 2-D product's.  The single-operator functions
# above take a list of one operator; only ``Operator.norm_inf`` and
# ``block_singular_values`` keep bodies of their own, cheaper than a stack.


def _dimension_stacks(block_lists: Sequence[Sequence[np.ndarray]]
                      ) -> tuple[list[np.ndarray], list[list[tuple[int, int]]]]:
    """Every square block of every list grouped with the blocks of its
    dimension into one ``(m, d, d)`` stack, in list order (a lone block as
    the view ``b[None]``, not copied), and per stack the ``(list, block)``
    of each of its matrices."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, blocks in enumerate(block_lists):
        for k, b in enumerate(blocks):
            groups.setdefault(b.shape[0], []).append((i, k))
    stacks = []
    for where in groups.values():
        group = [block_lists[i][k] for i, k in where]
        stacks.append(np.array(group) if len(group) > 1 else group[0][None])
    return stacks, list(groups.values())


def _scatter(block_lists: Sequence[Sequence], where: list[list[tuple[int, int]]],
             results: Sequence) -> list[list]:
    """Per list, the rows of the per-stack ``results`` that belong to its
    blocks, in block order."""
    out = [[None] * len(blocks) for blocks in block_lists]
    for rows, idx in zip(results, where):
        for (i, k), row in zip(idx, rows):
            out[i][k] = row
    return out


class BlockStacks:
    """The blocks of some operators laid out as ``(m, d, d)`` stacks, each
    evaluated in one call.

    ``of(xs)`` takes an ``OperatorBatch``, whose stacks are its blocks
    (stack ``k`` holds block ``k`` of every operator, row ``i`` of operator
    ``i``), or a list of operators, which may live on different algebras,
    whose blocks are stacked by dimension in list order.  ``where[s][r]``
    is the ``(operator, block)`` of row ``r`` of stack ``s``.  Results come
    back per operator (``rows``), or as operators laid out as the input
    (``operators``: a batch for a batch, a list for a list).
    """

    __slots__ = ("xs", "stacks", "_where")

    def __init__(self, xs, stacks: list[np.ndarray], where):
        self.xs = xs
        self.stacks = stacks
        self._where = where

    @classmethod
    def of(cls, xs: "BlockStacks | OperatorBatch | Sequence[Operator]") -> "BlockStacks":
        if isinstance(xs, BlockStacks):
            return xs
        if isinstance(xs, OperatorBatch):
            return cls(xs, list(xs.blocks), None)
        return cls(xs, *_dimension_stacks([x.blocks for x in xs]))

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def batched(self) -> bool:
        return isinstance(self.xs, OperatorBatch)

    @property
    def algebras(self) -> list[FiniteAlgebra]:
        return [self.xs.algebra] * len(self.xs) if self.batched else [x.algebra for x in self.xs]

    @property
    def where(self) -> list[list[tuple[int, int]]]:
        if self._where is None:
            n = len(self.xs)
            self._where = [[(i, k) for i in range(n)] for k in range(len(self.stacks))]
        return self._where

    def owners(self, s: int, rows: np.ndarray | None = None) -> np.ndarray:
        """The operator of each row of stack ``s`` (of ``rows`` only, if given)."""
        if self.batched:
            return np.arange(len(self.xs)) if rows is None else rows
        where = self.where[s]
        if rows is not None:
            where = [where[r] for r in rows.tolist()]
        return np.array([i for i, _ in where], dtype=int)

    def take(self, idx: np.ndarray) -> "OperatorBatch | list[Operator]":
        """The operators ``idx``, as a batch for a batch."""
        return self.xs[idx] if self.batched else [self.xs[i] for i in idx.tolist()]

    def rows(self, results: Sequence) -> list:
        """Per operator, its blocks' rows of the per-stack ``results``, in
        block order.  A stack's result is an array with one row per matrix,
        or a tuple of such arrays (as ``np.linalg.svd`` gives), whose rows
        come back as tuples."""
        results = [list(zip(*r)) if isinstance(r, tuple) else r for r in results]
        if self.batched:
            return list(zip(*results))
        return _scatter([x.blocks for x in self.xs], self.where, results)

    def operators(self, stacks: Sequence[np.ndarray]) -> "OperatorBatch | list[Operator]":
        """The operators whose blocks are the rows of ``stacks``, laid out
        as ours."""
        if self.batched:
            return Blockwise._wrap(self.xs.algebra, stacks)
        return [Operator._wrap(x.algebra, blocks) for x, blocks in zip(self.xs, self.rows(stacks))]


def norm_inf_many(xs: BlockStacks | OperatorBatch | Sequence[Operator]) -> list[float]:
    """``[x.norm_inf() for x in xs]``: one stacked SVD per stack."""
    stacks = BlockStacks.of(xs)
    return [_largest(block_norms) for block_norms in stacks.rows(
        [np.linalg.svd(s, compute_uv=False)[:, 0].tolist() for s in stacks.stacks])]


def min_eigenvalue_many(xs: BlockStacks | OperatorBatch | Sequence[Operator]) -> list[float]:
    """The smallest eigenvalue of each operator: one stacked hermitian
    eigensolver call per stack."""
    stacks = BlockStacks.of(xs)
    return [min(block_lows) for block_lows in stacks.rows(
        [np.linalg.eigvalsh(_symmetrized(s)).min(axis=-1).tolist() for s in stacks.stacks])]


def _inexact_defects(stacks: BlockStacks) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per stack, its rows with a nonzero hermitian defect ``b - b^H`` and
    those defects."""
    out = []
    for s in stacks.stacks:
        defect = s - s.conj().swapaxes(1, 2)
        rows = np.flatnonzero(defect.any(axis=(1, 2)))
        out.append((rows, defect[rows]))
    return out


def is_psd_many(xs: OperatorBatch | Sequence[Operator]) -> list[bool]:
    """``is_psd`` of each operator: stacked SVDs of the norms and of the
    nonzero hermitian defects, and ``min_eigenvalue_many``."""
    tol = tolerances().alg
    stacks = BlockStacks.of(xs)
    limits = [tol * scale for scale in norm_inf_many(stacks)]
    ok = [True] * len(stacks)
    for s, (rows, defects) in enumerate(_inexact_defects(stacks)):
        if rows.size:
            tops = np.linalg.svd(defects, compute_uv=False)[:, 0].tolist()
            for i, top in zip(stacks.owners(s, rows).tolist(), tops):
                if not top <= limits[i]:
                    ok[i] = False
    return [passed and low >= -limit
            for passed, low, limit in zip(ok, min_eigenvalue_many(stacks), limits)]


def support_projection_many(xs: OperatorBatch | Sequence[Operator]
                            ) -> OperatorBatch | list[Operator]:
    """The support projection of each operator (see
    ``support_projection``): one stacked SVD per stack."""
    tol = tolerances().alg
    stacks = BlockStacks.of(xs)
    decs = [np.linalg.svd(s) for s in stacks.stacks]
    tol_ranks = np.array([tol * max(tops) for tops in stacks.rows(
        [s[:, 0].tolist() for _, s, _ in decs])])
    return stacks.operators([
        _span_projections(s > tol_ranks[stacks.owners(k)][:, None], vh, rows=True)
        for k, (_, s, vh) in enumerate(decs)])


def spectral_projection_many(xs: OperatorBatch | Sequence[Operator], lowers: Sequence[float],
                             upper: float = float("inf")) -> OperatorBatch | list[Operator]:
    """Operator ``i`` is ``spectral_projection(xs[i], lowers[i], upper)``,
    bit for bit, read off the stacks of ``eigenpairs_many``."""
    stacks = BlockStacks.of(xs)
    lowers = np.array(lowers, dtype=float)
    return stacks.operators([
        _span_projections((w > lowers[stacks.owners(s)][:, None]) & (w <= upper), v, rows=False)
        for s, (w, v) in enumerate(eigenpairs_many(stacks))])


def _span_projections(keep: np.ndarray, vectors: np.ndarray, rows: bool) -> np.ndarray:
    """Per matrix ``i`` of ``vectors``, its kept rows ``r`` (``rows``) or
    columns ``c``, ``keep[i]``, as ``r^H @ r`` or ``c @ c^H``: one stacked
    ``np.matmul`` per pattern of kept vectors."""
    patterns: dict[tuple, list[int]] = {}
    for i, kept in enumerate(keep.tolist()):
        patterns.setdefault(tuple(kept), []).append(i)
    if len(patterns) == 1:  # every matrix keeps the same vectors
        return _span(vectors, keep[0], rows)
    out = np.empty(vectors.shape, dtype=complex)
    for idx in patterns.values():
        out[idx] = _span(vectors[idx], keep[idx[0]], rows)
    return out


def _span(vectors: np.ndarray, kept: np.ndarray, rows: bool) -> np.ndarray:
    """``_span_projections`` of a stack that keeps the vectors ``kept``
    in every matrix."""
    if rows:
        r = vectors[:, kept]
        return np.matmul(r.conj().swapaxes(1, 2), r)
    c = vectors[:, :, kept]
    return np.matmul(c, c.conj().swapaxes(1, 2))


def _descending_eigenpairs(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An ``eigh`` stack, eigenvalues ``(n, d)`` and eigenvectors
    ``(n, d, d)``, in descending order with phase-fixed columns, read-only.

    ``eigh`` returns each row ascending, so reversing it gives the
    descending order.  Each column is rotated so that its first entry of
    modulus above ``1e-12 * max(1, max modulus)`` (a unit vector has one)
    is real positive, by the factor ``conj(p) / abs(p)`` with ``abs`` and
    the division in scalar arithmetic: numpy's array ``abs`` and complex
    division round otherwise in about a third of the entries.  Only rows
    with exactly equal eigenvalues are re-sorted (``_tie_order``).
    """
    n, d = w.shape
    w = w[:, ::-1].copy()
    v = v[:, :, ::-1]
    size = np.abs(v)
    first = (size > 1e-12 * np.maximum(1.0, size.max(axis=1, keepdims=True))).argmax(axis=1)
    pivots = v[np.arange(n)[:, None], first, np.arange(d)]
    phases = [c / abs(p) for c, p in zip(np.conj(pivots).flat, pivots.flat)]
    v = v * np.reshape(phases, (n, 1, d))
    for i in np.flatnonzero((w[:, 1:] == w[:, :-1]).any(axis=1)):
        order = _tie_order(w[i], v[i])
        w[i], v[i] = w[i, order], v[i][:, order]
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _tie_order(w: np.ndarray, v: np.ndarray) -> list[int]:
    """The column order of one descending block that sorts each run of
    equal eigenvalues by its phase-fixed eigenvectors rounded to 12
    decimals, and then by ``eigh``'s ascending order (last to first)."""
    order: list[int] = []
    for _, run in itertools.groupby(range(len(w)), key=w.__getitem__):
        order += sorted(reversed(list(run)), key=lambda j: tuple(
            (round(float(z.real), 12), round(float(z.imag), 12)) for z in v[:, j]))
    return order


def eigenpairs_many(xs: BlockStacks | OperatorBatch | Sequence[Operator]
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per stack of ``BlockStacks.of(xs)`` (per block of a batch), the
    eigenvalues ``(m, d)`` and eigenvectors ``(m, d, d)`` of its matrices,
    descending and phase-fixed: one stacked hermitian eigensolver call and
    one ``_descending_eigenpairs`` pass per stack.

    Raises ``NotHermitian`` if any operator fails the hermiticity check,
    which is made on the operators with an inexactly hermitian block: they
    pass together when every block defect ``||b - b^H||`` is at most
    ``tol * ||x||`` (stacked SVDs of the defects and ``norm_inf_many``:
    the verdict of ``is_hermitian``), and otherwise ``is_hermitian``
    decides one operator at a time."""
    stacks = BlockStacks.of(xs)
    inexact = _inexact_defects(stacks)
    if any(rows.size for rows, _ in inexact):
        owners = [stacks.owners(s, rows) for s, (rows, _) in enumerate(inexact)]
        flagged = np.zeros(len(stacks), dtype=bool)
        for who in owners:
            flagged[who] = True
        suspects = np.flatnonzero(flagged)
        tol = tolerances().alg
        limits = np.zeros(len(stacks))
        try:
            limits[suspects] = tol * np.array(norm_inf_many(stacks.take(suspects)))
            passed = all(bool(np.all(np.linalg.svd(defects, compute_uv=False)[:, 0]
                                     <= limits[who]))  # NaN fails
                         for (_, defects), who in zip(inexact, owners) if who.size)
        except np.linalg.LinAlgError:  # a NaN entry
            passed = False
        if not (passed or all(stacks.xs[i].is_hermitian() for i in suspects.tolist())):
            raise NotHermitian("spectral decomposition requires a hermitian operator")
    return [_descending_eigenpairs(*np.linalg.eigh(_symmetrized(s))) for s in stacks.stacks]


def spectral_decompose_many(xs: OperatorBatch | Sequence[Operator]
                            ) -> list[SpectralDecomposition]:
    """``spectral_decompose`` of each operator: views of ``eigenpairs_many``."""
    stacks = BlockStacks.of(xs)
    pairs = eigenpairs_many(stacks)
    return [SpectralDecomposition(alg, tuple(ws), tuple(vs)) for alg, ws, vs in zip(
        stacks.algebras, stacks.rows([w for w, _ in pairs]), stacks.rows([v for _, v in pairs]))]
