"""The blockwise arithmetic that ``Operator`` and ``OperatorBatch`` share:
each operation on an operator equals, bit for bit, the same operation on
its row of a batch and the mixed operator/batch forms, on algebras with a
repeated block dimension and a 1x1 block, for every scalar type."""

import operator
from fractions import Fraction

import numpy as np
import pytest

from logmaj.algebra import Blockwise, FiniteAlgebra, Operator, OperatorBatch
from logmaj.errors import ShapeMismatch
from logmaj.sampling import GAUSSIAN, HERMITIAN

ALGEBRAS = (FiniteAlgebra(((2, 1.0), (2, 0.5), (3, 2.0))),
            FiniteAlgebra(((1, 0.7), (3, 1.0))),
            FiniteAlgebra(((3, 1.0), (2, 0.5), (4, 2.0))),
            FiniteAlgebra.full(1))
SCALARS = (3, -0.75, 1.5 - 2j, np.float64(0.3), Fraction(2, 3))
BINARY = (operator.add, operator.sub, operator.matmul)
UNARY = (operator.neg, Blockwise.adjoint, Blockwise.transpose)
N = 6


def _bits(x: Operator):
    assert type(x) is Operator
    return tuple(b.tobytes() for b in x.blocks)


def _rows(batch: OperatorBatch) -> list:
    assert type(batch) is OperatorBatch and len(batch) == N
    return [_bits(batch[i]) for i in range(N)]


def _batch(alg, seed):
    """Gaussian rows, then hermitian ones (exact ``b == b^H`` blocks)."""
    rng = np.random.default_rng(seed)
    half = N // 2
    return OperatorBatch(alg, np.concatenate([
        GAUSSIAN.batch(alg, rng.standard_normal((half, GAUSSIAN.size(alg)))).rows,
        HERMITIAN.batch(alg, rng.standard_normal((N - half, HERMITIAN.size(alg)))).rows]))


def _read_only(x) -> bool:
    return not any(b.flags.writeable for b in x.blocks) and not x.rows.flags.writeable


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_binary_operations_equal_their_rows_and_mixed_forms(alg):
    bx, by = _batch(alg, 1), _batch(alg, 2)
    xs, ys = [bx[i] for i in range(N)], [by[i] for i in range(N)]
    for op in BINARY:
        want = [_bits(op(x, y)) for x, y in zip(xs, ys)]
        assert _rows(op(bx, by)) == want
        # a stacked operand against a broadcast one, on either side
        assert _rows(op(xs[0], by)) == [_bits(op(xs[0], y)) for y in ys]
        assert _rows(op(bx, ys[0])) == [_bits(op(x, ys[0])) for x in xs]
        for result in (op(bx, by), op(xs[0], by), op(xs[0], ys[0])):
            assert _read_only(result)


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_unary_operations_equal_their_rows(alg):
    bx = _batch(alg, 3)
    for op in UNARY:
        assert _rows(op(bx)) == [_bits(op(bx[i])) for i in range(N)]
        assert _read_only(op(bx)) and _read_only(op(bx[0]))


@pytest.mark.parametrize("alg", ALGEBRAS)
@pytest.mark.parametrize("scalar", SCALARS, ids=lambda c: type(c).__name__)
def test_scalar_operations_equal_their_rows(alg, scalar):
    bx = _batch(alg, 4)
    for op in (operator.mul, operator.truediv, lambda x, c: c * x):
        got = op(bx, scalar)
        assert _rows(got) == [_bits(op(bx[i], scalar)) for i in range(N)]
        assert all(b.dtype == complex for b in got.blocks)
        assert _read_only(got) and _read_only(op(bx[0], scalar))


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_rows_are_the_raveled_blocks(alg):
    bx = _batch(alg, 5)
    x = Operator(alg, [np.arange(d * d).reshape(d, d) * (1 - 2j) for d in alg.dims])
    for y in (x, x.adjoint(), x @ x, bx[2], bx[2].transpose()):
        assert np.array_equal(y.rows, np.concatenate([b.ravel() for b in y.blocks]))
        assert y.rows.shape == (alg.vector_dim,)
    for batch in (bx, bx.adjoint(), x @ bx, -bx):
        assert np.array_equal(batch.rows, np.concatenate(
            [b.reshape(N, -1) for b in batch.blocks], axis=1))
        assert _read_only(batch)


def test_indexing_gives_views_and_an_operator_is_no_batch():
    alg = ALGEBRAS[0]
    bx = _batch(alg, 6)
    x = bx[1]
    assert isinstance(x, Operator) and not isinstance(x, OperatorBatch)
    assert all(np.shares_memory(b, s) for b, s in zip(x.blocks, bx.blocks))
    assert all(np.shares_memory(b, bx.rows) for b in x.blocks)
    assert isinstance(bx[1:4], OperatorBatch) and len(bx[1:4]) == 3
    assert _rows(bx[np.arange(N)]) == _rows(bx)
    other = FiniteAlgebra(((2, 1.0), (2, 1.0), (3, 2.0)))
    for op in BINARY:
        with pytest.raises(ShapeMismatch):
            op(bx, other.identity())
        with pytest.raises(ShapeMismatch):
            op(other.identity(), x)
