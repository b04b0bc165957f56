"""Differential tests: the symmetry and SLM checkers, stacked by block
dimension across trial algebras, the samplers and ``*_many`` helpers they
use, and the batched norm evaluation, against frozen per-trial copies of
the earlier code (tests/oracles.py), bit for bit."""

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LogF, Lorentz, Lp, check_slm, check_symmetric, mu
from logmaj.algebra import (Operator, OperatorBatch, min_eigenvalue, min_eigenvalue_many,
                            norm_inf_many, spectral_decompose,
                            spectral_decompose_many, support_projection,
                            support_projection_many)
from logmaj.config import overridden_tolerances
from logmaj.errors import GenerationFailure, NegativeValue, WeightTooShort
from logmaj.norms import (evaluate_norm, evaluate_norm_mu, evaluate_norms,
                          evaluate_norms_mu, norm_label)
from logmaj.sampling import (disjoint_psd_pair, disjoint_psd_pairs, gaussian,
                             hermitian, psd, random_algebra, rng_for, unitary)
from logmaj.stepfun import StepFunction, mu_many
from logmaj.suites import _norm_variants

from oracles import (dyadic_step_function, float_bits, frozen_check_slm,
                     frozen_check_symmetric, frozen_disjoint_psd_pair,
                     frozen_evaluate_norm, frozen_evaluate_norm_mu,
                     frozen_min_eigenvalue, frozen_spectral_decompose,
                     frozen_support_projection, frozen_unitary)

SEEDS = (0, 1, 7, 2024)
TRIALS = (1, 10, 20)


def _report_bits(report):
    return float_bits((report.passed, report.trials,
                       tuple((v.axiom, v.witness, v.magnitude)
                             for v in report.axiom_violations),
                       tuple(sorted(report.stats.items()))))


def _op_bits(x: Operator):
    return (x.algebra, tuple(b.tobytes() for b in x.blocks))


def _dec_bits(dec):
    return (dec.algebra, tuple(w.tobytes() for w in dec.eigenvalues),
            tuple(v.tobytes() for v in dec.bases))


@pytest.mark.parametrize("spec", _norm_variants(), ids=norm_label)
def test_check_symmetric_matches_frozen(spec):
    for seed in SEEDS:
        for trials in TRIALS:
            assert (_report_bits(check_symmetric(spec, trials, seed))
                    == _report_bits(frozen_check_symmetric(spec, trials, seed)))


@pytest.mark.parametrize("spec", _norm_variants(), ids=norm_label)
def test_check_slm_matches_frozen(spec):
    for seed in SEEDS:
        for trials in TRIALS:
            assert (_report_bits(check_slm(spec, trials, seed))
                    == _report_bits(frozen_check_slm(spec, trials, seed)))


def test_checkers_with_zero_trials():
    for spec in _norm_variants():
        assert _report_bits(check_symmetric(spec, 0, 3)) == _report_bits(
            frozen_check_symmetric(spec, 0, 3))
        assert _report_bits(check_slm(spec, 0, 3)) == _report_bits(
            frozen_check_slm(spec, 0, 3))


@pytest.mark.parametrize("spec", _norm_variants(), ids=norm_label)
def test_forced_violations_match_frozen(spec):
    with overridden_tolerances(norm=-0.5):
        for seed in (1, 5):
            sym = check_symmetric(spec, 10, seed)
            slm = check_slm(spec, 10, seed)
            assert sym.axiom_violations and slm.axiom_violations
            assert _report_bits(sym) == _report_bits(frozen_check_symmetric(spec, 10, seed))
            assert _report_bits(slm) == _report_bits(frozen_check_slm(spec, 10, seed))


def test_slm_rejections_span_several_rounds():
    # a negative majorisation slack rejects some candidates, so the
    # attempt count exceeds the trial count and later rounds are drawn;
    # the negative norm tolerance makes every accepted candidate a witness
    spec = _norm_variants()[2]
    seen_extra = False
    for maj in (-0.02, -0.1):
        with overridden_tolerances(maj=maj, norm=-0.5):
            for seed in (0, 1):
                try:
                    new = check_slm(spec, 20, seed)
                except GenerationFailure as exc:
                    with pytest.raises(GenerationFailure) as old:
                        frozen_check_slm(spec, 20, seed)
                    assert str(exc) == str(old.value)
                    continue
                assert _report_bits(new) == _report_bits(frozen_check_slm(spec, 20, seed))
                seen_extra |= new.stats["attempts"] > 20
    assert seen_extra


@pytest.mark.parametrize("spec", _norm_variants(), ids=norm_label)
def test_slm_generation_failure_matches_frozen(spec):
    with overridden_tolerances(maj=-1e9):
        for trials in (1, 4):
            with pytest.raises(GenerationFailure) as new:
                check_slm(spec, trials, 2)
            with pytest.raises(GenerationFailure) as old:
                frozen_check_slm(spec, trials, 2)
            assert str(new.value) == str(old.value)
            assert str(new.value) == (f"no valid SLM pair in {10 * trials} attempts "
                                      f"for {norm_label(spec)}")


def test_unitary_matches_frozen_and_leaves_the_same_stream():
    for trial in range(60):
        rng_new = rng_for(trial, "unitary-diff", trial)
        rng_old = rng_for(trial, "unitary-diff", trial)
        alg = random_algebra(rng_new)
        assert random_algebra(rng_old) == alg
        assert _op_bits(unitary(alg, rng_new)) == _op_bits(frozen_unitary(alg, rng_old))
        assert rng_new.standard_normal() == rng_old.standard_normal()


def test_disjoint_pairs_match_frozen():
    for dims in ((1,), (4,), (2, 2), (3, 1, 3), (4, 2, 4, 1)):
        alg = FiniteAlgebra(tuple((d, 0.5 + k) for k, d in enumerate(dims)))
        fresh = [rng_for(5, f"disjoint-diff:{dims}", i) for i in range(12)]
        frozen = [frozen_disjoint_psd_pair(alg, rng_for(5, f"disjoint-diff:{dims}", i))
                  for i in range(12)]
        xs, ys = disjoint_psd_pairs(alg, fresh)
        batched = [(xs[i], ys[i]) for i in range(len(xs))]
        single = [disjoint_psd_pair(alg, rng_for(5, f"disjoint-diff:{dims}", i))
                  for i in range(12)]
        for pairs in (batched, single):
            assert ([(_op_bits(x), _op_bits(y)) for x, y in pairs]
                    == [(_op_bits(x), _op_bits(y)) for x, y in frozen])
    assert [len(b) for b in disjoint_psd_pairs(FiniteAlgebra.full(2), [])] == [0, 0]


def _mixed_operators():
    """Operators on several algebras with repeated block dimensions:
    Gaussian, exactly hermitian, PSD, diagonal with ties and zero."""
    rng = np.random.default_rng(99)
    algebras = [FiniteAlgebra(((2, 1.0), (2, 0.5))), FiniteAlgebra(((3, 2.0), (2, 1.0))),
                FiniteAlgebra.full(1), FiniteAlgebra(((4, 0.7), (1, 1.3), (4, 0.5))),
                FiniteAlgebra(((2, 1.0), (2, 0.5)))]
    ops = []
    for _ in range(3):
        for alg in algebras:
            ops += [gaussian(alg, rng), hermitian(alg, rng), psd(alg, rng),
                    alg.diagonal([[1.0, 1.0, -0.5, 0.0][:d] for d in alg.dims]),
                    alg.zero()]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _per_algebra(fn, ops):
    """``fn`` on one batch per algebra of ``ops``, its results put back in
    the order of ``ops``."""
    out = [None] * len(ops)
    for alg in {x.algebra for x in ops}:
        idx = [i for i, x in enumerate(ops) if x.algebra == alg]
        result = fn(OperatorBatch.of(alg, [ops[i].blocks for i in idx]))
        if isinstance(result, OperatorBatch):
            result = [result[j] for j in range(len(result))]
        for i, value in zip(idx, result):
            out[i] = value
    return out


def test_many_helpers_on_mixed_algebras_match_single_calls():
    ops = _mixed_operators()
    herm = [x for x in ops if all(np.array_equal(b, b.conj().T) for b in x.blocks)]
    assert len(herm) > len(ops) // 2
    assert ([float_bits(f.pieces) for f in mu_many(ops)]
            == [float_bits(mu(x).pieces) for x in ops])
    assert ([f.total_length for f in mu_many(ops)]
            == pytest.approx([x.algebra.total_trace for x in ops], rel=1e-12))
    # the packed helpers take one algebra per batch
    assert (float_bits(_per_algebra(norm_inf_many, ops))
            == float_bits([x.norm_inf() for x in ops]))
    assert (float_bits(_per_algebra(min_eigenvalue_many, herm))
            == float_bits([frozen_min_eigenvalue(x) for x in herm])
            == float_bits([min_eigenvalue(x) for x in herm]))
    assert ([_op_bits(s) for s in _per_algebra(support_projection_many, ops)]
            == [_op_bits(frozen_support_projection(x)) for x in ops]
            == [_op_bits(support_projection(x)) for x in ops])
    assert ([_dec_bits(d) for d in _per_algebra(spectral_decompose_many, herm)]
            == [_dec_bits(frozen_spectral_decompose(x)) for x in herm]
            == [_dec_bits(spectral_decompose(x)) for x in herm])


# ---------------------------------------------------------------------------
# The batched norm evaluation against the frozen one-function-at-a-time
# ``evaluate_norm_mu``, bit for bit.

def _scaled_operators():
    rng = rng_for(8128, "norm-batch-scaled")
    alg = FiniteAlgebra(((4, 1.0), (4, 0.5), (3, 2.0)))   # 11 singular values
    g = gaussian(alg, rng)
    ops = [2.0 ** -k * g for k in range(61)]
    ops += [s * x for s in (1e-300, 1e-100, 1e-12, 1.0, 1e12, 1e100, 1e150)
            for x in (g, alg.identity(), alg.zero(), psd(alg, rng, delta=0.0))]
    return ops


@pytest.mark.parametrize("spec", _norm_variants(), ids=norm_label)
def test_batched_norms_match_frozen(spec):
    ops = _mixed_operators() + _scaled_operators()
    expected = float_bits([frozen_evaluate_norm(spec, x) for x in ops])
    assert float_bits(evaluate_norms(spec, ops)) == expected
    assert float_bits([evaluate_norm(spec, x) for x in ops]) == expected
    fs = mu_many(ops)
    assert float_bits(evaluate_norms_mu(spec, fs)) == expected
    assert float_bits([evaluate_norm_mu(spec, f) for f in fs]) == expected
    assert evaluate_norms(spec, []) == evaluate_norms_mu(spec, []) == []


@pytest.mark.parametrize("spec", _norm_variants(), ids=norm_label)
def test_batched_norms_match_frozen_on_step_functions(spec):
    # any nonnegative step function, of 1 to 16 pieces
    rng = rng_for(8128, "norm-batch-steps")
    fs = [dyadic_step_function(rng, max_pieces=16) for _ in range(300)]
    fs += [StepFunction(((2.0, 1.0), (0.0, 1.0))), StepFunction(((0.0, 3.0),)),
           StepFunction(((3.0, 2.0 ** -45), (1.0, 1.0)))]
    assert (float_bits(evaluate_norms_mu(spec, fs))
            == float_bits([frozen_evaluate_norm_mu(spec, f) for f in fs]))


def test_batched_lorentz_norms_match_frozen_against_many_weight_lengths():
    rng = rng_for(8128, "norm-batch-lorentz")
    fs = [dyadic_step_function(rng) for _ in range(120)]
    top = max(f.total_length for f in fs)
    for total in (top, top * (1.0 - 0.5e-12), 3.0 * top + 1.0):
        weight = StepFunction(((2.0, 0.25 * total), (1.0, 0.25 * total), (0.5, 0.5 * total)))
        for p in (0.5, 1.0, 2.5):
            spec = Lorentz(p, weight)
            assert (float_bits(evaluate_norms_mu(spec, fs))
                    == float_bits([frozen_evaluate_norm_mu(spec, f) for f in fs]))


def test_batched_norms_raise_where_the_first_bad_function_raises():
    spec = Lorentz(1.0, StepFunction(((2.0, 1.0), (1.0, 1.0))))
    ok = StepFunction(((1.0, 1.5),))
    long = StepFunction(((1.0, 3.0),))
    negative = StepFunction(((-1.0, 1.0),))
    long_negative = StepFunction(((-1.0, 3.0),))
    cases = [(spec, [ok, long, negative]), (spec, [ok, negative, long]),
             (spec, [long_negative, long]), (spec, [long, long_negative]),
             (Lp(2.0), [ok, long, negative]), (LogF(), [negative])]
    for norm, fs in cases:
        with pytest.raises((NegativeValue, WeightTooShort)) as new:
            evaluate_norms_mu(norm, fs)
        with pytest.raises((NegativeValue, WeightTooShort)) as old:
            [frozen_evaluate_norm_mu(norm, f) for f in fs]
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))
