"""Differential tests: the symmetry and SLM checkers, stacked by block
dimension across trial algebras, and the samplers and ``*_many`` helpers
they use, against frozen per-trial copies of the earlier code
(tests/oracles.py), bit for bit."""

import numpy as np
import pytest

from logmaj import FiniteAlgebra, check_slm, check_symmetric, mu
from logmaj.algebra import (Operator, min_eigenvalue, min_eigenvalue_many,
                            norm_inf_many, spectral_decompose,
                            spectral_decompose_many, support_projection,
                            support_projection_many)
from logmaj.config import overridden_tolerances
from logmaj.errors import GenerationFailure
from logmaj.norms import norm_label
from logmaj.sampling import (disjoint_psd_pair, disjoint_psd_pairs, gaussian,
                             hermitian, psd, random_algebra, rng_for, unitary)
from logmaj.stepfun import mu_many
from logmaj.suites import _norm_variants

from oracles import (float_bits, frozen_check_slm, frozen_check_symmetric,
                     frozen_disjoint_psd_pair, frozen_unitary)

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
        batched = disjoint_psd_pairs(alg, fresh)
        single = [disjoint_psd_pair(alg, rng_for(5, f"disjoint-diff:{dims}", i))
                  for i in range(12)]
        for pairs in (batched, single):
            assert ([(_op_bits(x), _op_bits(y)) for x, y in pairs]
                    == [(_op_bits(x), _op_bits(y)) for x, y in frozen])
    assert disjoint_psd_pairs(FiniteAlgebra.full(2), []) == []


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


def test_many_helpers_on_mixed_algebras_match_single_calls():
    ops = _mixed_operators()
    herm = [x for x in ops if all(np.array_equal(b, b.conj().T) for b in x.blocks)]
    assert len(herm) > len(ops) // 2
    assert ([float_bits(f.pieces) for f in mu_many(ops)]
            == [float_bits(mu(x).pieces) for x in ops])
    assert ([f.total_length for f in mu_many(ops)]
            == pytest.approx([x.algebra.total_trace for x in ops], rel=1e-12))
    assert float_bits(norm_inf_many(ops)) == float_bits([x.norm_inf() for x in ops])
    assert (float_bits(min_eigenvalue_many(herm))
            == float_bits([min_eigenvalue(x) for x in herm]))
    assert ([_op_bits(s) for s in support_projection_many(ops)]
            == [_op_bits(support_projection(x)) for x in ops])
    assert ([_dec_bits(d) for d in spectral_decompose_many(herm)]
            == [_dec_bits(spectral_decompose(x)) for x in herm])
