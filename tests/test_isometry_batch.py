"""Differential tests: the stacked isometry analysis and surjective
reflection check against frozen trial-by-trial copies of the earlier code
(tests/oracles.py), and every stacked helper against the frozen copy of
its earlier per-operator body, bit for bit.

Where ``analyze`` certifies the factorisation T = B . J it no longer
samples positivity, nor the isometry identity of an Lp -> Lp pair with
one exponent; those phases must then give the oracle's verdict, and every
other field the oracle's bits."""

import dataclasses
import json

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LinearMap, Lorentz, Lp, LogF, synthesize
from logmaj.algebra import (Operator, OperatorBatch, min_eigenvalue, min_eigenvalue_many,
                            norm_inf_many, spectral_decompose,
                            spectral_decompose_many, support_projection,
                            support_projection_many)
from logmaj.config import overridden_tolerances, tolerances
from logmaj.errors import NotHermitian, ShapeMismatch
from logmaj.isometry import analyze, check_surjective_reflection
from logmaj.jordan import random_jordan, unvectorize, vectorize
from logmaj.sampling import (gaussian, hermitian, psd, rank_one_psd, rng_for,
                             unitary)
from logmaj.stepfun import StepFunction
from logmaj.suites import (_calibrated_synth_spec, _invertible_synth_spec,
                           suite_surjective_reflection)

from oracles import (float_bits, frozen_analyze, frozen_apply,
                     frozen_check_surjective_reflection, frozen_min_eigenvalue,
                     frozen_spectral_decompose, frozen_suite_surjective_reflection,
                     frozen_support_projection)

POWERS = (0.5, 1.0, 2.0, 3.0)
TRIALS = (0, 1, 7, 12)


def _op_bits(x: Operator | None):
    if x is None:
        return None
    return (x.algebra, tuple(b.tobytes() for b in x.blocks))


def _analysis_bits(a) -> dict:
    """Every field of an IsometryAnalysis, floats as hex and arrays as
    bytes."""
    failure = a.jordan_failure
    fields = {
        "passed": a.passed,
        "positive": dataclasses.astuple(a.positive),
        "isometric": dataclasses.astuple(a.isometric),
        "disjointness": dataclasses.astuple(a.disjointness),
        "chain": dataclasses.astuple(a.chain),
        "B": _op_bits(a.B),
        "commutation_residual": a.commutation_residual,
        "J": None if a.J is None else (a.J.map.matrix.tobytes(),
                                       dataclasses.astuple(a.J.certificate)),
        "jordan_failure": None if failure is None else (
            failure.kind, failure.residual, _op_bits(failure.witness),
            dataclasses.astuple(failure.certificate)),
        "factorization_residual": a.factorization_residual,
        "support_identity_residual": a.support_identity_residual,
    }
    return {name: float_bits(value) for name, value in fields.items()}


def _assert_same_analysis(T, e, f, trials, seed, certified, lp_certified=None):
    """``analyze`` against the frozen sampled oracle.  ``certified`` says
    whether the factorisation is expected to be certified, and
    ``lp_certified`` (default: the same) whether the isometry identity is
    then decided on the block units."""
    lp_certified = certified if lp_certified is None else lp_certified
    new = analyze(T, e, f, trials=trials, seed=seed)
    old = frozen_analyze(T, e, f, trials=trials, seed=seed)
    new_bits, old_bits = _analysis_bits(new), _analysis_bits(old)
    assert (new.positive.trials == 0 and new.positive.note.startswith("certified")) == certified
    assert new.isometric.note.startswith("certified") == lp_certified
    for name, phase in (("positive", certified), ("isometric", lp_certified)):
        if phase:
            assert getattr(new, name).ok == getattr(old, name).ok
            del new_bits[name], old_bits[name]
    assert new_bits == old_bits
    return new


def _miscalibrated(spec):
    """The suite's ``fault="calibration"`` map: the largest B scalar is
    off by 2 %."""
    J = random_jordan(spec.plan.domain, spec.plan)
    bad = spec.b_operator()
    k = max(range(len(spec.b_blocks)), key=lambda i: spec.b_blocks[i])
    blocks = [b.copy() for b in bad.blocks]
    blocks[k] = blocks[k] * 1.02
    return J.map.left_compose(Operator(spec.plan.codomain, blocks))


def test_analyze_matches_frozen_on_synthesized_maps():
    dims_seen = set()
    fanout_seen = False
    for i in range(64):
        spec = _calibrated_synth_spec(rng_for(11, "batch-analyze", i), POWERS[i % 4])
        dims_seen.update(spec.plan.domain.dims)
        fanout_seen |= len(spec.plan.entries) > len({e.source for e in spec.plan.entries})
        report = _assert_same_analysis(synthesize(spec), spec.norm_domain,
                                       spec.norm_codomain, TRIALS[i % 4], seed=i,
                                       certified=True)
        assert report.J is not None and report.passed
        assert report.isometric.trials == spec.plan.domain.n_blocks
    assert dims_seen == {1, 2, 3, 4}
    assert fanout_seen


def test_analyze_matches_frozen_on_miscalibrated_maps():
    for i in range(12):
        spec = _calibrated_synth_spec(rng_for(12, "batch-fault", i), POWERS[i % 4])
        report = _assert_same_analysis(_miscalibrated(spec), spec.norm_domain,
                                       spec.norm_codomain, 12, seed=i, certified=True)
        assert report.positive.ok
        assert not report.isometric.ok and not report.passed
        # the failing block unit is named
        assert "; fails at 1_" in report.isometric.note


def test_analyze_matches_frozen_on_non_commuting_and_non_hermitian_B():
    fallbacks = 0
    for i in range(6):
        rng = rng_for(13, "batch-B", i)
        spec = _calibrated_synth_spec(rng, 2.0)
        J = random_jordan(spec.plan.domain, spec.plan)
        cod = spec.plan.codomain
        # a PSD B does not commute with the range; a Gaussian one is not
        # even hermitian, so no Jordan part is extracted
        for B in (psd(cod, rng, delta=0.5), gaussian(cod, rng)):
            T = J.map.left_compose(B)
            old = frozen_analyze(T, Lp(2.0), Lp(2.0), trials=7, seed=i)
            # a B that happens to commute with the range (every block the
            # range meets is 1 x 1) is a genuine, miscalibrated, factor
            commutes = old.J is not None and old.commutation_residual <= tolerances().iso
            report = _assert_same_analysis(T, Lp(2.0), Lp(2.0), 7, seed=i,
                                           certified=commutes)
            assert not report.passed
            fallbacks += not commutes
    assert fallbacks >= 10


def test_analyze_matches_frozen_when_jordan_extraction_fails():
    M2 = FiniteAlgebra.full(2)
    T = LinearMap.from_function(M2, M2, lambda x: x + x.transpose())
    for trials in TRIALS:
        report = _assert_same_analysis(T, Lp(1.0), Lp(1.0), trials, seed=3,
                                       certified=False)
        assert report.J is None and report.jordan_failure is not None


def test_analyze_matches_frozen_on_other_norm_pairs():
    weight = StepFunction(((2.0, 3.0), (1.0, 40.0)))
    for i, (e, f) in enumerate([(LogF(), LogF()), (Lorentz(2.0, weight), Lorentz(2.0, weight)),
                                (Lp(1.0), LogF())]):
        spec = _calibrated_synth_spec(rng_for(14, "batch-norms", i), 1.0)
        # positivity is certified, the isometry identity stays sampled
        _assert_same_analysis(synthesize(spec), e, f, 7, seed=i, certified=True,
                              lp_certified=False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reflection_suite_matches_the_analyze_based_copy(seed, monkeypatch):
    import logmaj.suites

    def no_analyze(*args, **kwargs):
        raise AssertionError("surjective-reflection called analyze")

    old = frozen_suite_surjective_reflection(500, seed)
    monkeypatch.setattr(logmaj.suites, "analyze", no_analyze)
    new = suite_surjective_reflection(500, seed)
    assert json.dumps(new.to_json(), sort_keys=True) == json.dumps(old.to_json(), sort_keys=True)


def _reflection_bits(r) -> tuple:
    return float_bits(dataclasses.astuple(r))


def test_reflection_matches_frozen():
    weight = StepFunction(((2.0, 3.0), (1.0, 40.0)))
    for i in range(24):
        spec = _invertible_synth_spec(rng_for(15, "batch-reflect", i), POWERS[i % 4])
        T = synthesize(spec)
        norm = (spec.norm_codomain, LogF(), Lorentz(1.5, weight))[i % 3]
        for trials in (0, 1, 7, 50):
            new = check_surjective_reflection(T, norm, trials=trials, seed=i)
            old = frozen_check_surjective_reflection(T, norm, trials=trials, seed=i)
            assert _reflection_bits(new) == _reflection_bits(old)


def test_reflection_log_monotonicity_sees_the_same_pairs(monkeypatch):
    """Every norm here is log-monotone, so the verdict cannot tell the
    pairs apart; compare the step functions the check is run on."""
    import logmaj.isometry
    import logmaj.majorization

    seen = []
    original = logmaj.majorization.log_submajorizes

    def recording(f, g):
        seen.append(float_bits((f.pieces, g.pieces)))
        return original(f, g)

    monkeypatch.setattr(logmaj.isometry, "log_submajorizes", recording)
    monkeypatch.setattr(logmaj.majorization, "log_submajorizes", recording)
    for i in range(4):
        spec = _invertible_synth_spec(rng_for(15, "batch-reflect", i), POWERS[i % 4])
        T = synthesize(spec)
        check_surjective_reflection(T, spec.norm_codomain, trials=1, seed=i)
        new, seen[:] = list(seen), []
        frozen_check_surjective_reflection(T, spec.norm_codomain, trials=1, seed=i)
        assert len(new) == 10 and new == seen
        seen.clear()


def test_reflection_matches_frozen_on_a_map_that_breaks_positivity():
    alg = FiniteAlgebra(((2, 1.0), (3, 0.5)))
    rng = np.random.default_rng(16)
    n = alg.vector_dim
    m = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    T = LinearMap(alg, alg, m)
    new = check_surjective_reflection(T, Lp(1.0), trials=9, seed=2)
    old = frozen_check_surjective_reflection(T, Lp(1.0), trials=9, seed=2)
    assert _reflection_bits(new) == _reflection_bits(old)
    assert not new.ok and new.witness_note


# ---------------------------------------------------------------- helpers

BIG = FiniteAlgebra(((4, 1.0), (4, 0.5), (4, 2.0)))   # vector_dim 48
MIXED = FiniteAlgebra(((1, 0.7), (3, 1.0), (2, 1.3), (4, 0.5), (1, 2.0)))
PAIRS = FiniteAlgebra(((4, 1.0), (2, 0.5), (4, 1.5), (2, 1.0), (2, 2.0), (2, 0.5)))  # 48


def _tied(alg: FiniteAlgebra, rng) -> list[Operator]:
    """Operators with exactly repeated eigenvalues: the zero operator, the
    identity, block identities, diagonal units, diagonal matrices with
    repeated entries and permutation-conjugated ones."""
    ops = [alg.zero(), alg.identity(), 2.5 * alg.identity()]
    ops += [alg.block_identity(k) for k in range(alg.n_blocks)]
    ops += [e for _, i, j, e in alg.matrix_units() if i == j][:6]
    for _ in range(4):
        diags = [rng.choice([-1.0, 0.0, 0.5, 0.5, 2.0], size=d) for d in alg.dims]
        x = alg.diagonal(diags)
        perms = [np.eye(d)[rng.permutation(d)] for d in alg.dims]
        ops += [x, Operator(alg, [p @ b @ p.T for p, b in zip(perms, x.blocks)])]
    return ops


def _operators(alg: FiniteAlgebra, seed: int) -> list[Operator]:
    rng = np.random.default_rng(seed)
    ops = _tied(alg, rng)
    for _ in range(6):
        ops += [gaussian(alg, rng), hermitian(alg, rng), psd(alg, rng),
                rank_one_psd(alg, rng), psd(alg, rng, delta=1e-3)]
        u = unitary(alg, rng)
        ops.append(u @ alg.diagonal([[1.0] * d for d in alg.dims]) @ u.adjoint())
    return ops


def _hermitian(ops):
    return [x for x in ops if x.is_hermitian()]


def _pack(ops, alg=None):
    return OperatorBatch.of(alg or ops[0].algebra, [x.blocks for x in ops])


def _unpack(batch):
    return [batch[i] for i in range(len(batch))]


def _dec_bits(dec):
    return (tuple(w.tobytes() for w in dec.eigenvalues),
            tuple(v.tobytes() for v in dec.bases))


@pytest.mark.parametrize("alg", [BIG, PAIRS, MIXED, FiniteAlgebra.full(1)])
def test_stacked_helpers_match_single_calls(alg):
    ops = _operators(alg, 17)
    herm = _hermitian(ops)
    assert len(herm) > len(ops) // 2

    assert (float_bits(norm_inf_many(_pack(ops)))
            == float_bits([x.norm_inf() for x in ops]))
    assert (float_bits(min_eigenvalue_many(_pack(ops)))
            == float_bits([frozen_min_eigenvalue(x) for x in ops])
            == float_bits([min_eigenvalue(x) for x in ops]))
    assert ([_op_bits(s) for s in _unpack(support_projection_many(_pack(ops)))]
            == [_op_bits(frozen_support_projection(x)) for x in ops]
            == [_op_bits(support_projection(x)) for x in ops])
    decs = spectral_decompose_many(_pack(herm))
    assert ([_dec_bits(d) for d in decs]
            == [_dec_bits(frozen_spectral_decompose(x)) for x in herm]
            == [_dec_bits(spectral_decompose(x)) for x in herm])
    # the decomposition's projections and functions are those of the
    # frozen per-operator decomposition
    for dec, x in zip(decs, herm):
        single = frozen_spectral_decompose(x)
        for lo, hi in ((0.0, np.inf), (-np.inf, 0.5), (0.4, 2.0)):
            assert _op_bits(dec.projection(lo, hi)) == _op_bits(single.projection(lo, hi))
        assert (_op_bits(dec.apply(lambda t: abs(t) ** 0.5))
                == _op_bits(single.apply(lambda t: abs(t) ** 0.5)))


def test_apply_many_and_solve_many_match_single_calls():
    rng = np.random.default_rng(18)
    for dom, cod in ((BIG, BIG), (MIXED, BIG), (BIG, MIXED), (PAIRS, BIG)):
        m = rng.standard_normal((cod.vector_dim, dom.vector_dim)) \
            + 1j * rng.standard_normal((cod.vector_dim, dom.vector_dim))
        T = LinearMap(dom, cod, m)
        xs = _operators(dom, 19)
        assert ([_op_bits(y) for y in _unpack(T.apply_many(_pack(xs)))]
                == [_op_bits(frozen_apply(T, x)) for x in xs]
                == [_op_bits(T.apply(x)) for x in xs])
    T = LinearMap(PAIRS, BIG, rng.standard_normal((48, 48)) + 1j * np.eye(48))
    ys = _operators(BIG, 20)
    assert ([_op_bits(x) for x in _unpack(T.solve_many(_pack(ys)))]
            == [_op_bits(unvectorize(PAIRS, np.linalg.solve(T.matrix, vectorize(y))))
                for y in ys])


def test_stacked_helpers_on_empty_and_mixed_inputs():
    T = LinearMap.identity(MIXED)
    empty = _pack([], MIXED)
    for fn in (norm_inf_many, min_eigenvalue_many, spectral_decompose_many):
        assert fn(empty) == []
    for fn in (support_projection_many, T.apply_many, T.solve_many):
        assert fn(empty).rows.shape == (0, MIXED.vector_dim)
    for fn in (T.apply_many, T.solve_many):
        with pytest.raises(ShapeMismatch):
            fn(_pack([BIG.identity()]))
    # a batch holds operators of one algebra; operators of several
    # algebras are packed one algebra at a time
    mixed = [BIG.identity(), MIXED.identity()]
    with pytest.raises(ShapeMismatch):
        _pack(mixed)
    assert (float_bits([norm_inf_many(_pack([x]))[0] for x in mixed])
            == float_bits([x.norm_inf() for x in mixed]))
    assert ([_dec_bits(spectral_decompose_many(_pack([x]))[0]) for x in mixed]
            == [_dec_bits(frozen_spectral_decompose(x)) for x in mixed])
    with pytest.raises(NotHermitian):
        spectral_decompose_many(_pack([MIXED.identity(),
                                       gaussian(MIXED, np.random.default_rng(1))]))


# ------------------------------------------------------------ the verdict


def test_passed_is_the_verdict_under_the_tolerances_of_the_run():
    M2 = FiniteAlgebra.full(2)
    B = M2.operator([np.array([[1.0, 1e-6], [1e-6, 1.0]])])
    T = LinearMap.identity(M2).left_compose(B)
    with overridden_tolerances(iso=1e-3):
        report = analyze(T, Lp(1.0), Lp(1.0), trials=20, seed=0)
        assert report.passed
    # B does not commute with the range at the default tolerance, but the
    # verdict was taken under the override and does not change after it
    assert report.commutation_residual > 1e-8
    assert report.passed
    assert report.to_json()["passed"] is True
    assert not analyze(T, Lp(1.0), Lp(1.0), trials=20, seed=0).passed
