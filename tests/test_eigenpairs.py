"""The stacked eigenpair kernel ``algebra._descending_eigenpairs`` and the
single-operator spectral routines, which are the one-element case of the
stacked ones, against frozen copies of the earlier per-block, per-column
bodies (tests/oracles.py), bit for bit.

The stacks mix generic hermitian blocks with blocks whose eigenvectors
have an exactly or nearly zero first entry, where the phase pivot is a
complex entry further down: there numpy's array ``abs`` differs from the
scalar one, so a phase factor taken in array arithmetic shows."""

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LinearMap, Operator
from logmaj.algebra import (BlockStacks, _descending_eigenpairs, functional_calculus,
                            min_eigenvalue, spectral_decompose, support_projection)
from logmaj.sampling import disjoint_psd_pair, gaussian, hermitian, psd, rng_for

from oracles import (frozen_apply, frozen_disjoint_psd_pair,
                     frozen_functional_calculus, frozen_min_eigenvalue,
                     frozen_sorted_eigenpairs, frozen_spectral_decompose,
                     frozen_support_projection)

SIZES = (1, 8, 64, 256)
DIMS = (1, 2, 3, 4, 5)
SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
KINDS = ("gaussian", "split", "near-split", "identity", "beta", "diagonal")


def _block(rng: np.random.Generator, kind: str, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    if kind == "split":
        # a permuted direct sum: the first coordinate couples to one part
        part = rng.uniform(size=d) < 0.5
        part[0] = True
        h = np.where(part[:, None] == part[None, :], h, 0.0)
    elif kind == "near-split":
        h[0, 1:] *= 1e-14
        h[1:, 0] *= 1e-14
    elif kind == "identity":
        h = np.eye(d, dtype=complex)
    elif kind == "beta":
        # a beta * 1 block, as jordan_factor's B has on each codomain block
        h = float(rng.choice([0.5, 1.0, 2.0 ** 0.5])) * np.eye(d, dtype=complex)
    elif kind == "diagonal":
        # repeated entries, signed zeros included
        h = np.diag(rng.choice([-1.0, -0.0, 0.0, 2.0], size=d).astype(complex))
    return h


def _stack(seed: int, n: int, d: int, scale: float, first_kind: int = 0) -> np.ndarray:
    rng = np.random.default_rng([seed, n, d])
    return np.stack([_block(rng, KINDS[(first_kind + i) % len(KINDS)], d) * scale
                     for i in range(n)])


def _assert_kernel_matches_frozen(stack: np.ndarray) -> None:
    sym = (stack + stack.conj().swapaxes(1, 2)) / 2.0
    w, v = _descending_eigenpairs(*np.linalg.eigh(sym))
    assert not w.flags.writeable and not v.flags.writeable
    for i, b in enumerate(sym):
        fw, fv = frozen_sorted_eigenpairs(*np.linalg.eigh(b))
        assert w[i].tobytes() == fw.tobytes(), (i, w[i], fw)
        assert v[i].tobytes() == fv.tobytes(), i
        assert v[i].flags.c_contiguous


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_kernel_matches_frozen_per_column_tail(n, d):
    for scale in SCALES:
        if n == 1:
            for kind in range(len(KINDS)):
                _assert_kernel_matches_frozen(_stack(kind, 1, d, scale, kind))
        else:
            _assert_kernel_matches_frozen(_stack(0, n, d, scale))


def test_kernel_sorts_exact_ties_by_eigenvector():
    # eigh returns e_1, e_2, e_3 for the identity; the key puts e_3 first
    w, v = _descending_eigenpairs(*np.linalg.eigh(np.eye(3, dtype=complex)[None]))
    assert np.array_equal(w[0], [1.0, 1.0, 1.0])
    assert np.array_equal(v[0], np.eye(3)[:, ::-1])
    stack = np.stack([np.diag([2.0, -1.0, 2.0]).astype(complex),
                      np.diag([1.0, 3.0, 2.0]).astype(complex)])
    w, v = _descending_eigenpairs(*np.linalg.eigh(stack))
    assert np.array_equal(w, [[2.0, 2.0, -1.0], [3.0, 2.0, 1.0]])
    assert np.array_equal(v[0], np.eye(3)[:, [2, 0, 1]])
    assert np.array_equal(v[1], np.eye(3)[:, [1, 2, 0]])


def test_split_blocks_exercise_complex_pivots():
    """The split kinds must reach a pivot below the first row with a
    nonzero imaginary part, or the tests above could not tell the scalar
    phase factor from an array one."""
    stack = _stack(0, 256, 4, 1.0)
    _, v = np.linalg.eigh(stack)
    size = np.abs(v)
    first = (size > 1e-12 * np.maximum(1.0, size.max(axis=1, keepdims=True))).argmax(axis=1)
    pivots = np.take_along_axis(v, first[:, None, :], axis=1)[:, 0, :]
    complex_pivots = pivots[first > 0]
    assert np.count_nonzero(complex_pivots.imag) > 50
    scalar = np.array([abs(p) for p in complex_pivots])
    assert np.any(np.abs(complex_pivots) != scalar)


def test_lone_block_is_stacked_as_a_view():
    b, c = np.eye(3, dtype=complex), np.eye(2, dtype=complex)
    x = Operator._wrap(FiniteAlgebra.full(3), [b])
    one = BlockStacks.of([x])
    (row,), = one.rows(one.stacks)
    assert np.shares_memory(row, b)
    two = BlockStacks.of([Operator._wrap(FiniteAlgebra(((3, 1.0), (2, 1.0))), [b, c]), x])
    rows = two.rows(two.stacks)
    assert not np.shares_memory(rows[0][0], b)
    assert np.shares_memory(rows[0][1], c)


def _operators():
    """Operators on several algebras: Gaussian, hermitian, PSD, and the
    beta * 1 and repeated-diagonal kinds with exact ties."""
    algebras = [FiniteAlgebra(((3, 1.0), (2, 2.0), (1, 1.0))), FiniteAlgebra.full(4),
                FiniteAlgebra(((2, 0.5), (2, 1.5), (5, 1.0)))]
    out = []
    for k, alg in enumerate(algebras):
        rng = rng_for(41, "eigenpairs-single", k)
        out += [gaussian(alg, rng), hermitian(alg, rng), psd(alg, rng),
                alg.diagonal([[2.0, -1.0, 2.0, 0.0, 2.0][:d] for d in alg.dims]),
                alg.operator([beta * np.eye(d) for d, beta in zip(alg.dims, (2.0, 0.5, 2.0))])]
        for c in (1e-12, 1e12):
            out.append(hermitian(alg, rng) * c)
    return out


def _op_bits(x):
    return tuple(b.tobytes() for b in x.blocks)


def _dec_bits(dec):
    return (tuple(w.tobytes() for w in dec.eigenvalues),
            tuple(v.tobytes() for v in dec.bases))


def test_single_operator_routines_match_frozen_bodies():
    ops = _operators()
    herm = [x for x in ops if x.is_hermitian()]
    assert len(herm) >= 2 * len(ops) // 3
    for x in ops:
        assert _op_bits(support_projection(x)) == _op_bits(frozen_support_projection(x))
    for x in herm:
        assert _dec_bits(spectral_decompose(x)) == _dec_bits(frozen_spectral_decompose(x))
        assert min_eigenvalue(x).hex() == frozen_min_eigenvalue(x).hex()
        root = lambda t: abs(t) ** 0.5
        assert (_op_bits(functional_calculus(x, root))
                == _op_bits(frozen_functional_calculus(x, root)))


def test_disjoint_pair_and_apply_match_frozen_bodies():
    for k, dims in enumerate(((1,), (3,), (2, 4), (5, 1, 2))):
        alg = FiniteAlgebra(tuple((d, 1.0 + j) for j, d in enumerate(dims)))
        for trial in range(6):
            x, y = disjoint_psd_pair(alg, rng_for(43, "eigenpairs-disjoint", trial))
            fx, fy = frozen_disjoint_psd_pair(alg, rng_for(43, "eigenpairs-disjoint", trial))
            assert (_op_bits(x), _op_bits(y)) == (_op_bits(fx), _op_bits(fy))
        rng = np.random.default_rng(k)
        n = alg.vector_dim
        T = LinearMap(alg, alg, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for x in (gaussian(alg, rng), alg.identity(), psd(alg, rng)):
            assert _op_bits(T.apply(x)) == _op_bits(frozen_apply(T, x))
