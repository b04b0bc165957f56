"""Operators assembled per block dimension and mu read from the stacks.

``Sampler.many`` builds the operators of many algebras, each from its own
normals, with one assembly per block dimension; every operator must equal
its ``draw`` bit for bit, and the unitaries the frozen per-block QR of
tests/oracles.py.  ``mu_many`` reads the singular values
of eight or more operators straight from their stacks into one array pass
(a list's rows padded with zeros of weight 0); every mu must equal the
frozen grouped tail of tests/oracles.py, errors included.
"""

import math

import numpy as np
import pytest

from logmaj import FiniteAlgebra, Operator
from logmaj.algebra import OperatorBatch
from logmaj.config import overridden_tolerances
from logmaj.sampling import (GAUSSIAN, HERMITIAN, INVERTIBLE_PSD, PSD, RANK_ONE_PSD, UNITARY,
                             rng_for, unitaries)
from logmaj.stepfun import _MIN_STACK_ROWS, StepFunction, mu, mu_many

from oracles import float_bits, frozen_grouped_mu_tail, frozen_unitary

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SAMPLERS = {"gaussian": GAUSSIAN, "hermitian": HERMITIAN, "psd": PSD,
            "invertible-psd": INVERTIBLE_PSD, "rank-one-psd": RANK_ONE_PSD, "unitary": UNITARY}
PROPERTY = settings(max_examples=40, deadline=None)


def _bits(x: Operator) -> tuple:
    """The algebra and each block's entries as floats and their sign bits
    (so that -0.0 != 0.0)."""
    return (x.algebra, tuple((b.view(float).tobytes(), np.signbit(b.view(float)).tobytes())
                             for b in x.blocks))


@st.composite
def algebra_lists(draw):
    """0, 1, 2, 9 or 64 algebras of 1 to 3 blocks of dimension 1 to 4,
    some of them the same object."""
    n = draw(st.sampled_from([0, 1, 2, 9, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    algs = []
    for _ in range(n):
        if algs and rng.uniform() < 0.3:
            algs.append(algs[int(rng.integers(0, len(algs)))])
            continue
        dims = rng.integers(1, 5, size=int(rng.integers(1, 4)))
        algs.append(FiniteAlgebra(tuple((int(d), float(rng.choice([0.5, 1.0, 2.5])))
                                        for d in dims)))
    return algs


@PROPERTY
@given(algebra_lists(), st.sampled_from(sorted(SAMPLERS)), st.integers(0, 2 ** 16))
def test_many_equals_one_draw_per_operator(algs, name, seed):
    sampler = SAMPLERS[name]
    new = [rng_for(seed, f"many:{name}", t) for t in range(len(algs))]
    old = [rng_for(seed, f"many:{name}", t) for t in range(len(algs))]
    xs = sampler.many(algs, [sampler.normals(alg, rng) for alg, rng in zip(algs, new)])
    assert [_bits(x) for x in xs] == [_bits(sampler.draw(alg, rng)) for alg, rng in zip(algs, old)]
    assert [rng.uniform() for rng in new] == [rng.uniform() for rng in old]
    assert all(not b.flags.writeable for x in xs for b in x.blocks)


@PROPERTY
@given(algebra_lists(), st.integers(0, 2 ** 16))
def test_unitaries_equal_the_frozen_per_block_unitary(algs, seed):
    new = [rng_for(seed, "many-unitary", t) for t in range(len(algs))]
    old = [rng_for(seed, "many-unitary", t) for t in range(len(algs))]
    us = unitaries(algs, [UNITARY.normals(alg, rng) for alg, rng in zip(algs, new)])
    assert [_bits(u) for u in us] == [_bits(frozen_unitary(alg, rng))
                                      for alg, rng in zip(algs, old)]
    assert [rng.uniform() for rng in new] == [rng.uniform() for rng in old]


# ---------------------------------------------------------------------------
# mu read from the stacks against the frozen grouped tail

def _mu_bits(row) -> tuple:
    values, widths, length = ((row.values, row.widths, row.total_length)
                              if isinstance(row, StepFunction) else row)
    return float_bits((values.tolist(), widths.tolist(), length))


def _outcome(fn, xs):
    try:
        return ("ok", [_mu_bits(row) for row in fn(xs)])
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def _assert_tail_matches_frozen(xs):
    expected = _outcome(frozen_grouped_mu_tail, xs)
    assert _outcome(mu_many, xs) == expected


KINDS = ("gaussian", "hermitian", "zero", "identity", "zeros", "ties", "rank-one", "near")


def _operator(alg: FiniteAlgebra, kind: str, rng: np.random.Generator) -> Operator:
    """An operator whose singular values are generic, all zero, all tied,
    partly exactly zero, of rank one per block, or closer than the snap."""
    blocks = []
    for d in alg.dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kind == "gaussian":
            b = g
        elif kind == "hermitian":
            b = (g + g.conj().T) / 2.0
        elif kind == "zero":
            b = np.zeros((d, d), dtype=complex)
        elif kind == "identity":
            b = np.eye(d, dtype=complex)
        elif kind == "zeros":
            b = np.diag(rng.choice([0.0, 0.0, 1.0, 2.5], size=d)).astype(complex)
        elif kind == "ties":
            b = np.diag(rng.choice([-2.0, 1.0, 2.0], size=d)).astype(complex)
        elif kind == "rank-one":
            b = np.outer(g[:, 0], g[:, 0].conj())
        else:
            b = np.diag(1.5 * (1.0 + 4e-10 * np.arange(d))).astype(complex)
        blocks.append(b)
    return Operator(alg, blocks)


@st.composite
def operator_lists(draw):
    algs = draw(algebra_lists())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=len(algs), max_size=len(algs)))
    scale = 10.0 ** draw(st.integers(-12, 12))
    return [scale * _operator(alg, kind, rng) for alg, kind in zip(algs, kinds)]


@PROPERTY
@given(operator_lists(), st.sampled_from([None, -1.0, 0.0, 10.0]))
def test_padded_rows_equal_the_frozen_grouped_tail(xs, alg_tol):
    """Mixed numbers of singular values in one pass, exact zeros, ties and
    near ties, and the rank cut and snap at -1 (no cut), 0 (exact zeros
    and exact ties only) and 10 (everything cut)."""
    if alg_tol is None:
        _assert_tail_matches_frozen(xs)
    else:
        with overridden_tolerances(alg=alg_tol):
            _assert_tail_matches_frozen(xs)


def test_a_non_finite_singular_value_raises_like_the_frozen_tail():
    rng = np.random.default_rng(5)
    bad = FiniteAlgebra(((2, 1.0), (1, 0.5))).diagonal([[math.inf, 1.0], [2.0]])
    others = [_operator(FiniteAlgebra.full(d), kind, rng) for d in (1, 2, 3, 4)
              for kind in ("gaussian", "zeros")]
    for xs in (others[:3] + [bad], others + [bad], [bad] + others, others[:4] + [bad] + others):
        new = _outcome(mu_many, xs)
        assert new[0] == "ValueError"
        assert new == _outcome(frozen_grouped_mu_tail, xs)


@pytest.mark.parametrize("n", [_MIN_STACK_ROWS - 1, _MIN_STACK_ROWS, _MIN_STACK_ROWS + 1, 40])
def test_the_batch_shortcut_equals_the_list_path(n):
    rng = np.random.default_rng(n)
    for alg in (FiniteAlgebra.full(1), FiniteAlgebra(((2, 0.5), (3, 1.5))),
                FiniteAlgebra(((4, 1.3), (4, 1.1), (3, 0.7)))):
        ops = [_operator(alg, KINDS[i % len(KINDS)], rng) for i in range(n)]
        batch = OperatorBatch.of(alg, [x.blocks for x in ops])
        expected = [_mu_bits(f) for f in mu_many(ops)]
        assert [_mu_bits(f) for f in mu_many(batch)] == expected
        assert [_mu_bits(row) for row in frozen_grouped_mu_tail(batch)] == expected
        assert [_mu_bits(mu(x)) for x in ops] == expected
