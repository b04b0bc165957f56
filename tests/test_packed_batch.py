"""The packed operator batch: every helper that takes an ``OperatorBatch``
against its list form or its frozen copy in tests/oracles.py, bit for bit,
on batches of 0, 1, 8 and 64 operators, algebras of 1 to 3 blocks of
dimension 1 to 4, and entries at scales 1e-12 to 1e12."""

import dataclasses

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LinearMap, LogF, Lorentz, Lp
from logmaj.algebra import (Operator, OperatorBatch, min_eigenvalue_many,
                            norm_inf_many, spectral_decompose_many,
                            support_projection_many)
from logmaj.errors import NotHermitian, ShapeMismatch
from logmaj.isometry import analyze, central_B_check, jordan_factor, synthesize
from logmaj.jordan import (ortho_extension_check, random_jordan, random_plan, unvectorize,
                           vectorize)
from logmaj.norms import evaluate_norms
from logmaj.sampling import (GAUSSIAN, HERMITIAN, INVERTIBLE_PSD, PSD, RANK_ONE_PSD,
                             gaussian, hermitian, psd, rank_one_psd, rng_for)
from logmaj.stepfun import StepFunction, mu_many
from logmaj.suites import _calibrated_synth_spec, _invertible_synth_spec

from oracles import (float_bits, frozen_apply, frozen_central_B_check, frozen_evaluate_norm,
                     frozen_gaussian,
                     frozen_hermitian, frozen_min_eigenvalue, frozen_mu,
                     frozen_ortho_extension_check, frozen_plan_matrix, frozen_psd,
                     frozen_rank_one_psd, frozen_spectral_decompose,
                     frozen_support_projection)

ALGEBRAS = (FiniteAlgebra.full(1), FiniteAlgebra.full(4),
            FiniteAlgebra(((2, 0.5), (3, 1.5))),
            FiniteAlgebra(((1, 0.7), (4, 1.0), (2, 2.0))),
            FiniteAlgebra(((3, 1.0), (3, 0.5), (1, 1.0))))
SIZES = (0, 1, 8, 64)
SCALES = (1e-12, 1.0, 1e12)


def _op_bits(x: Operator):
    return (x.algebra, tuple(b.tobytes() for b in x.blocks))


def _dec_bits(dec):
    return (tuple(w.tobytes() for w in dec.eigenvalues),
            tuple(v.tobytes() for v in dec.bases))


def _pack(alg, ops):
    return OperatorBatch.of(alg, [x.blocks for x in ops])


def _unpack(batch):
    return [batch[i] for i in range(len(batch))]


def _operators(alg, n, scale, seed):
    """``n`` operators: Gaussian, exactly hermitian (with ties), PSD,
    rank-one and zero, times ``scale``."""
    rng = np.random.default_rng(seed)
    kinds = (lambda: gaussian(alg, rng), lambda: hermitian(alg, rng),
             lambda: psd(alg, rng), lambda: rank_one_psd(alg, rng), alg.zero,
             lambda: alg.diagonal([rng.choice([-1.0, 0.5, 0.5, 2.0], size=d)
                                   for d in alg.dims]),
             lambda: psd(alg, rng, delta=1e-3))
    return [scale * kinds[i % len(kinds)]() for i in range(n)]


CASES = [(alg, n, scale) for alg in ALGEBRAS for n in SIZES for scale in SCALES]


@pytest.mark.parametrize("alg, n, scale", CASES)
def test_packed_helpers_match_their_list_forms(alg, n, scale):
    ops = _operators(alg, n, scale, seed=n)
    herm = [x for x in ops if x.is_hermitian()]
    batch = _pack(alg, ops)
    assert batch.rows.shape == (n, alg.vector_dim)
    assert [_op_bits(x) for x in _unpack(batch)] == [_op_bits(x) for x in ops]
    assert float_bits(norm_inf_many(batch)) == float_bits([x.norm_inf() for x in ops])
    assert (float_bits(min_eigenvalue_many(_pack(alg, herm)))
            == float_bits([frozen_min_eigenvalue(x) for x in herm]))
    assert ([_op_bits(s) for s in _unpack(support_projection_many(batch))]
            == [_op_bits(frozen_support_projection(x)) for x in ops])
    assert ([_dec_bits(d) for d in spectral_decompose_many(_pack(alg, herm))]
            == [_dec_bits(frozen_spectral_decompose(x)) for x in herm])
    assert [float_bits(f.pieces) for f in mu_many(batch)] == [
        float_bits(frozen_mu(x).pieces) for x in ops]
    assert [(f.values.tobytes(), f.widths.tobytes(), float_bits(f.total_length))
            for f in mu_many(batch)] == [
        (f.values.tobytes(), f.widths.tobytes(), float_bits(f.total_length))
        for f in mu_many(ops)]
    weight = StepFunction(((2.0, 1.0), (1.0, 40.0)))
    for spec in (Lp(0.5), Lp(2.0), LogF(), Lorentz(1.5, weight)):
        assert (float_bits(evaluate_norms(spec, batch))
                == float_bits([frozen_evaluate_norm(spec, x) for x in ops]))


@pytest.mark.parametrize("alg, n, scale", CASES)
def test_packed_arithmetic_matches_operator_arithmetic(alg, n, scale):
    """Sums, adjoints and products, ``B @ x``, ``x @ B`` and ``x @ y``:
    one stacked ``np.matmul`` per block on strided views against the 2-D
    product per matrix."""
    xs = _operators(alg, n, scale, seed=100 + n)
    ys = _operators(alg, n, 1.0 / scale, seed=200 + n)
    bx, by = _pack(alg, xs), _pack(alg, ys)
    B = scale * psd(alg, np.random.default_rng(n))
    for got, want in ((bx + by, [x + y for x, y in zip(xs, ys)]),
                      (bx - by, [x - y for x, y in zip(xs, ys)]),
                      (bx.adjoint(), [x.adjoint() for x in xs]),
                      (B @ bx, [B @ x for x in xs]),
                      (bx @ B, [x @ B for x in xs]),
                      (bx @ by, [x @ y for x, y in zip(xs, ys)]),
                      (bx.adjoint() @ bx, [x.adjoint() @ x for x in xs]),
                      (B @ bx - bx @ B, [B @ x - x @ B for x in xs])):
        assert [_op_bits(x) for x in _unpack(got)] == [_op_bits(x) for x in want]


@pytest.mark.parametrize("alg", ALGEBRAS)
@pytest.mark.parametrize("n", SIZES)
def test_apply_many_and_solve_many_on_batches(alg, n):
    rng = np.random.default_rng(n)
    m = alg.vector_dim
    T = LinearMap(alg, alg, rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                  + 3.0 * np.eye(m))
    xs = _operators(alg, n, 1.0, seed=300 + n)
    batch = _pack(alg, xs)
    assert ([_op_bits(y) for y in _unpack(T.apply_many(batch))]
            == [_op_bits(frozen_apply(T, x)) for x in xs])
    assert ([_op_bits(y) for y in _unpack(T.solve_many(batch))]
            == [_op_bits(unvectorize(alg, np.linalg.solve(T.matrix, vectorize(x))))
                for x in xs])


def _near_hermitian(alg, rng):
    """Hermitian operators at scales 1e-12 to 1e12 plus Gaussian defects of
    absolute size 1e-16 to 1e-6: each side of ``tol`` and of ``tol * ||x||``."""
    return [scale * hermitian(alg, rng) + eps * gaussian(alg, rng)
            for scale in SCALES + (1e6,) for eps in (1e-16, 4e-10, 3e-9, 1e-6)]


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_stacked_hermiticity_screen_gives_the_per_operator_verdicts(alg):
    """``spectral_decompose_many`` screens the inexactly hermitian operators
    with stacked SVDs; every verdict, decomposition and exception is that of
    ``is_hermitian`` and ``frozen_spectral_decompose`` one operator at a
    time, also with a non-hermitian operator between hermitian ones."""
    ops = _near_hermitian(alg, np.random.default_rng(alg.vector_dim))
    herm = [x for x in ops if x.is_hermitian()]
    non_herm = [x for x in ops if not x.is_hermitian()]
    assert len(herm) >= 8 and non_herm
    assert ([_dec_bits(d) for d in spectral_decompose_many(_pack(alg, herm))]
            == [_dec_bits(frozen_spectral_decompose(x)) for x in herm])
    for x in ops:
        if not x.is_hermitian():
            with pytest.raises(NotHermitian):
                spectral_decompose_many(_pack(alg, [x]))
            with pytest.raises(NotHermitian):
                spectral_decompose_many(_pack(alg, herm[:4] + [x] + herm[4:]))
        else:
            assert _dec_bits(spectral_decompose_many(_pack(alg, [x]))[0]) == _dec_bits(
                frozen_spectral_decompose(x))
    # non-finite entries: an infinite defect fails the check, a NaN one
    # makes the SVD raise, as in ``is_hermitian``
    inf_op, nan_op = (alg.diagonal([[v] + [0.0] * (d - 1) for d in alg.dims])
                      for v in (complex(0.0, np.inf), np.nan))
    with pytest.raises(NotHermitian):
        spectral_decompose_many(_pack(alg, herm + [inf_op]))
    with pytest.raises(np.linalg.LinAlgError):
        nan_op.is_hermitian()
    with pytest.raises(np.linalg.LinAlgError):
        spectral_decompose_many(_pack(alg, herm + [nan_op]))
    with pytest.raises(NotHermitian):
        spectral_decompose_many(_pack(alg, [non_herm[0], nan_op]))


def test_batch_rows_and_views():
    alg = FiniteAlgebra(((2, 1.0), (3, 0.5)))
    xs = _operators(alg, 8, 1.0, seed=1)
    batch = _pack(alg, xs)
    assert not batch.rows.flags.writeable
    assert np.array_equal(batch.rows, [vectorize(x) for x in xs])
    # a batch built from rows keeps them, and its blocks are views into them
    rows = OperatorBatch(alg, batch.rows)
    assert rows.rows is batch.rows
    for k, view in enumerate(rows.blocks):
        assert view.shape == (8, alg.dims[k], alg.dims[k])
        assert np.shares_memory(view, batch.rows)
    # a batch built from a transposed map matrix holds its columns
    T = LinearMap(alg, alg, np.arange(169).reshape(13, 13) * (1 + 1j))
    images = OperatorBatch(alg, T.matrix.T)
    assert images.rows.flags.c_contiguous
    assert np.array_equal(images.rows, T.matrix.T)
    with pytest.raises(ShapeMismatch):
        OperatorBatch(alg, np.zeros((2, 12)))
    with pytest.raises(ShapeMismatch):
        OperatorBatch.of(alg, [[np.eye(2)]])
    with pytest.raises(ShapeMismatch):
        OperatorBatch.of(alg, [[np.eye(2), np.eye(2)]])
    with pytest.raises(ShapeMismatch):
        _pack(alg, xs) @ _pack(FiniteAlgebra(((2, 1.0), (3, 1.0))), [])


def test_block_samplers_match_frozen_and_leave_the_same_stream():
    for alg in ALGEBRAS:
        for sampler, frozen in ((GAUSSIAN, frozen_gaussian),
                                (HERMITIAN, frozen_hermitian),
                                (PSD, frozen_psd),
                                (INVERTIBLE_PSD, lambda a, r: frozen_psd(a, r, delta=1e-3)),
                                (RANK_ONE_PSD, frozen_rank_one_psd)):
            new, old = rng_for(3, "samplers", alg.vector_dim), rng_for(3, "samplers", alg.vector_dim)
            batch = sampler.batch(alg, new.standard_normal((1, sampler.size(alg))))
            assert _op_bits(batch[0]) == _op_bits(frozen(alg, old))
            assert new.standard_normal() == old.standard_normal()
        for sample, frozen in ((gaussian, frozen_gaussian), (hermitian, frozen_hermitian),
                               (psd, frozen_psd), (rank_one_psd, frozen_rank_one_psd)):
            rng = rng_for(4, "samplers", alg.vector_dim)
            assert (_op_bits(sample(alg, rng))
                    == _op_bits(frozen(alg, rng_for(4, "samplers", alg.vector_dim))))


def test_plan_map_matches_the_per_unit_construction():
    for trial in range(40):
        plan = random_plan(rng_for(6, "plan-matrix", trial), fanout=bool(trial % 2))
        J = random_jordan(plan.domain, plan)
        assert J.map.matrix.flags.c_contiguous
        assert J.map.matrix.tobytes() == frozen_plan_matrix(plan.domain, plan).tobytes()


def test_ortho_extension_check_matches_frozen():
    rng = np.random.default_rng(9)
    for trial in range(8):
        plan = random_plan(rng_for(6, "ortho", trial), fanout=bool(trial % 2))
        J = random_jordan(plan.domain, plan)
        m = J.map.matrix.shape
        noisy = LinearMap(plan.domain, plan.codomain, J.map.matrix
                          + 1e-3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m)))
        for T in (J.map, noisy):
            for trials in (0, 1, 9):
                new = ortho_extension_check(T, trials=trials, seed=trial)
                old = frozen_ortho_extension_check(T, trials=trials, seed=trial)
                assert float_bits(dataclasses.astuple(new)) == float_bits(dataclasses.astuple(old))
                assert new.ortho_ok == (T is J.map or trials == 0)


def test_central_B_check_matches_frozen():
    rng = np.random.default_rng(10)
    for trial in range(12):
        spec = _invertible_synth_spec(rng_for(6, "central", trial), 2.0)
        B, J = jordan_factor(synthesize(spec))
        cod = spec.plan.codomain
        # the synthesized B, and a PSD one that does not commute
        for b in (B, psd(cod, rng, delta=0.5)):
            new, old = central_B_check(b, J, onto=True), frozen_central_B_check(b, J, onto=True)
            assert float_bits(dataclasses.astuple(new)) == float_bits(dataclasses.astuple(old))


# Operator.__init__ plus Operator._wrap calls made by the analyze call below
# before analyze packed its batches: 442 + 1089.
LIST_FORM_OPERATORS = 1531


def test_certified_analyze_builds_few_operators(monkeypatch):
    spec = _calibrated_synth_spec(rng_for(1, "op-count", 1), 2.0)
    T = synthesize(spec)
    count = [0]
    init, wrap = Operator.__init__, Operator._wrap.__func__

    def counting_init(self, *args):
        count[0] += 1
        init(self, *args)

    def counting_wrap(cls, *args):
        count[0] += 1
        return wrap(cls, *args)

    monkeypatch.setattr(Operator, "__init__", counting_init)
    monkeypatch.setattr(Operator, "_wrap", classmethod(counting_wrap))
    report = analyze(T, Lp(2.0), Lp(2.0), trials=30, seed=1)
    monkeypatch.undo()
    assert report.passed and report.positive.trials == 0
    assert spec.plan.domain.dims == (1, 2, 4)
    assert 0 < 5 * count[0] <= LIST_FORM_OPERATORS
