import math

import numpy as np
import pytest

from logmaj import (FiniteAlgebra, JordanPlan, LinearMap, LogF, Lp, PlanEntry,
                    SynthSpec, analyze, central_B_check,
                    check_surjective_reflection, evaluate_norm, stormer_split,
                    synthesize)
from logmaj.algebra import OperatorBatch
from logmaj.errors import CalibrationError, ClassificationFailure, JMissing, Singular
from logmaj.isometry import _isometry_gaps
from logmaj.sampling import gaussian, rng_for

M2 = FiniteAlgebra.full(2)
M2_PAIR = FiniteAlgebra(((2, 1.0), (2, 1.0)))


def duplication_spec(p: float) -> SynthSpec:
    """T(x) = 2^(-1/p) x (+) 2^(-1/p) x^T into M2 (+) M2."""
    plan = JordanPlan(M2, M2_PAIR, (PlanEntry(0, 0, False, 1), PlanEntry(0, 1, True, 2)))
    beta = 0.5 ** (1.0 / p)
    return SynthSpec(plan, (beta, beta), Lp(p), Lp(p))


def plain_map(fn, dom=M2, cod=None) -> LinearMap:
    return LinearMap.from_function(dom, cod or dom, fn)


# ------------------------------------------------------------- analyze


def test_identity_analysis_passes():
    report = analyze(LinearMap.identity(M2), Lp(1.0), Lp(1.0), trials=40, seed=0)
    assert report.passed
    assert report.B.isclose(M2.identity())
    assert report.commutation_residual < 1e-12
    assert report.factorization_residual < 1e-12
    assert report.support_identity_residual < 1e-12
    assert report.J is not None


def test_duplication_roundtrip_l2():
    spec = duplication_spec(2.0)
    T = synthesize(spec)
    report = analyze(T, Lp(2.0), Lp(2.0), trials=60, seed=1)
    assert report.passed, report.to_json()
    # B = 2^(-1/2) (1 (+) 1)
    expected_b = (0.5 ** 0.5) * M2_PAIR.identity()
    assert report.B.isclose(expected_b)
    split = stormer_split(report.J)
    z = split.z
    assert np.allclose(z.blocks[0], np.eye(2))
    assert np.allclose(z.blocks[1], 0.0)


def test_symmetrization_map_is_not_an_isometry():
    T = plain_map(lambda x: x + x.transpose())
    report = analyze(T, Lp(1.0), Lp(1.0), trials=60, seed=2)
    assert not report.isometric.ok
    # direct witness: ||T(e12)||_1 = 2 != 1 = ||e12||_1
    e12 = M2.operator([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert evaluate_norm(Lp(1.0), e12) == pytest.approx(1.0)
    assert evaluate_norm(Lp(1.0), T.apply(e12)) == pytest.approx(2.0)
    assert not report.passed


def test_analysis_records_jordan_failure_for_symmetrization():
    T = plain_map(lambda x: x + x.transpose())
    report = analyze(T, Lp(1.0), Lp(1.0), trials=40, seed=3)
    # B = 2*1 is fine, but the extracted J = (x + x^T)/2 is not Jordan
    assert report.J is None
    assert report.jordan_failure is not None
    assert report.jordan_failure.kind in ("square", "polarization")


def test_positivity_breaking_map_is_flagged():
    def negate_entry(x):
        b = x.blocks[0].copy()
        b[0, 1] = -b[0, 1]
        return M2.operator([b])

    report = analyze(plain_map(negate_entry), Lp(1.0), Lp(1.0), trials=60, seed=4)
    assert not report.positive.ok


def test_factorisation_certifies_positivity_and_the_lp_identity():
    report = analyze(synthesize(duplication_spec(3.0)), Lp(3.0), Lp(3.0), trials=40, seed=6)
    assert report.passed
    assert report.positive.trials == 0 and report.positive.note.startswith("certified")
    assert report.positive.worst == 0.0
    # one witness per domain block
    assert report.isometric.trials == 1
    assert report.isometric.note == "certified on the block units 1_k"


def test_miscalibrated_factor_fails_at_a_block_unit():
    dom = FiniteAlgebra(((2, 1.0), (1, 2.0)))
    cod = FiniteAlgebra(((2, 1.0), (1, 2.0)))
    plan = JordanPlan(dom, cod, (PlanEntry(0, 0, False, 0), PlanEntry(1, 1, False, 0)))
    J = synthesize(SynthSpec(plan, (1.0, 1.0), Lp(2.0), Lp(2.0)))
    T = J.left_compose(cod.diagonal([[1.0, 1.0], [1.1]]))
    report = analyze(T, Lp(2.0), Lp(2.0), trials=40, seed=7)
    assert report.positive.ok and report.positive.trials == 0
    assert not report.isometric.ok and not report.passed
    assert report.isometric.note.endswith("fails at 1_1")
    # ||T 1_1||_2 = 1.1 ||1_1||_2: the gap relative to ||1_1||_2 is 0.1
    assert report.isometric.worst == pytest.approx(0.1)


@pytest.mark.parametrize("weight", [1e-20, 1e-10, 1.0])
def test_miscalibrated_factor_fails_at_every_block_weight(weight):
    # B is 50 % off on a block of any weight: the gap is relative to
    # ||1_1||_1 = weight, not to max(1, weight)
    alg = FiniteAlgebra(((2, 1.0), (1, weight)))
    T = LinearMap.identity(alg).left_compose(alg.diagonal([[1.0, 1.0], [1.5]]))
    report = analyze(T, Lp(1.0), Lp(1.0), trials=20, seed=3)
    assert report.positive.ok and report.positive.trials == 0
    assert not report.isometric.ok and not report.passed
    assert report.isometric.note.endswith("fails at 1_1")
    assert report.isometric.worst == pytest.approx(0.5)


def test_isometry_gaps_at_zero_norms():
    T = LinearMap.identity(M2)
    zero, tiny = M2.zero(), 1e-8 * M2.identity()    # ||tiny||_50 underflows to 0
    zero, tiny = (OperatorBatch.of(M2, [x.blocks]) for x in (zero, tiny))
    assert _isometry_gaps(T, zero, Lp(50.0), Lp(1.0)) == [0.0]
    assert _isometry_gaps(T, tiny, Lp(50.0), Lp(1.0)) == [math.inf]
    assert _isometry_gaps(T, tiny, Lp(1.0), Lp(1.0)) == [0.0]


def test_negative_factor_falls_back_to_sampling():
    T = LinearMap.identity(M2).left_compose(-1.0 * M2.identity())
    report = analyze(T, Lp(1.0), Lp(1.0), trials=20, seed=8)
    assert report.positive.trials == 20 and not report.positive.ok
    assert report.isometric.trials == 20 and report.isometric.ok
    assert not report.passed


def test_disjointness_chain_intact_on_synthesized_maps():
    for trial in range(5):
        rng = rng_for(100, "chain", trial)
        from logmaj.suites import _calibrated_synth_spec

        spec = _calibrated_synth_spec(rng, p=1.0)
        T = synthesize(spec)
        report = analyze(T, spec.norm_domain, spec.norm_codomain, trials=30, seed=trial)
        assert report.chain.intact
        assert report.chain.worst_norm_gap < 1e-10


# ------------------------------------------------------------- synthesize


def test_synthesize_identity():
    plan = JordanPlan(M2, M2, (PlanEntry(0, 0, False, 0),))
    spec = SynthSpec(plan, (1.0,), Lp(1.0), Lp(1.0))
    T = synthesize(spec)
    x = gaussian(M2, rng_for(101, "synth-id"))
    assert T.apply(x).isclose(x)


def test_synthesize_split_calibration_arithmetic():
    spec = duplication_spec(1.0)
    assert spec.b_blocks == (0.5, 0.5)
    T = synthesize(spec)
    x = gaussian(M2, rng_for(102, "synth-split"))
    assert evaluate_norm(Lp(1.0), T.apply(x)) == pytest.approx(
        evaluate_norm(Lp(1.0), x), rel=1e-12)


def test_synthesize_weighted_trace_calibration():
    # source weight 3 -> target weight 1 at p=2 requires beta = sqrt(3)
    dom = FiniteAlgebra(((2, 3.0),))
    cod = FiniteAlgebra(((2, 1.0),))
    plan = JordanPlan(dom, cod, (PlanEntry(0, 0, False, 0),))
    spec = SynthSpec(plan, (3.0 ** 0.5,), Lp(2.0), Lp(2.0))
    T = synthesize(spec)
    x = gaussian(dom, rng_for(103, "synth-weighted"))
    assert evaluate_norm(Lp(2.0), T.apply(x)) == pytest.approx(
        evaluate_norm(Lp(2.0), x), rel=1e-12)


def test_synthesize_rejects_miscalibration():
    plan = JordanPlan(M2, M2_PAIR, (PlanEntry(0, 0, False, 1), PlanEntry(0, 1, True, 2)))
    with pytest.raises(CalibrationError):
        SynthSpec(plan, (0.5, 0.7), Lp(1.0), Lp(1.0))


def test_synthesize_unmapped_source_fails_calibration():
    dom = FiniteAlgebra(((2, 1.0), (2, 1.0)))
    cod = FiniteAlgebra(((2, 1.0),))
    plan = JordanPlan(dom, cod, (PlanEntry(0, 0, False, 0),))
    with pytest.raises(CalibrationError):
        SynthSpec(plan, (1.0,), Lp(1.0), Lp(1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_synthesize_rejects_non_finite_scalars(bad):
    plan = JordanPlan(M2, M2_PAIR, (PlanEntry(0, 0, False, 1), PlanEntry(0, 1, True, 2)))
    for e in (Lp(1.0), LogF()):  # also where no calibration is enforced
        with pytest.raises(CalibrationError, match="finite"):
            SynthSpec(plan, (0.5, bad), e, e)


def test_synthesize_non_lp_pair_flagged_uncalibrated():
    plan = JordanPlan(M2, M2, (PlanEntry(0, 0, False, 0),))
    spec = SynthSpec(plan, (1.0,), LogF(), LogF())
    assert not spec.calibrated
    T = synthesize(spec)  # accepted, only analyzed
    report = analyze(T, LogF(), LogF(), trials=30, seed=5)
    assert report.isometric.ok  # identity happens to be isometric for LogF too


# ------------------------------------------------------------- reflection


def test_reflection_identity():
    report = check_surjective_reflection(LinearMap.identity(M2), Lp(1.0),
                                         trials=50, seed=6)
    assert report.ok
    assert report.f_log_monotone_ok


def test_reflection_synthesized_onto_map():
    from logmaj.suites import _invertible_synth_spec

    for trial in range(5):
        rng = rng_for(104, "reflect-onto", trial)
        spec = _invertible_synth_spec(rng, p=2.0)
        T = synthesize(spec)
        report = check_surjective_reflection(T, spec.norm_codomain, trials=40,
                                             seed=trial)
        assert report.ok


def test_reflection_negated_coefficient_counterexample():
    def negate_entry(x):
        b = x.blocks[0].copy()
        b[0, 1] = -b[0, 1]
        return M2.operator([b])

    report = check_surjective_reflection(plain_map(negate_entry), Lp(1.0),
                                         trials=50, seed=7)
    assert not report.ok
    assert report.witness_note  # a recorded witness


def test_reflection_rejects_singular_map():
    T = plain_map(lambda x: M2.operator([np.trace(x.blocks[0]) / 2.0 * np.eye(2)]))
    with pytest.raises(Singular):
        check_surjective_reflection(T, Lp(1.0), trials=10, seed=8)


# ------------------------------------------------------------- central B


def test_central_b_identity():
    report = analyze(LinearMap.identity(M2), Lp(1.0), Lp(1.0), trials=30, seed=9)
    central = central_B_check(report.B, report.J, onto=True)
    assert central.status == "factor"
    assert central.ok
    assert central.alpha == pytest.approx(1.0)


def test_central_b_scaled_onto_map():
    dom = FiniteAlgebra(((2, 2.0),))
    cod = FiniteAlgebra(((2, 1.0),))
    plan = JordanPlan(dom, cod, (PlanEntry(0, 0, True, 3),))
    alpha = 2.0 ** (1.0 / 1.5)
    spec = SynthSpec(plan, (alpha,), Lp(1.5), Lp(1.5))
    T = synthesize(spec)
    report = analyze(T, Lp(1.5), Lp(1.5), trials=30, seed=10)
    assert report.passed
    central = central_B_check(report.B, report.J, onto=True)
    assert central.status == "factor"
    assert central.ok
    assert central.alpha == pytest.approx(alpha)


def test_central_b_not_applicable_for_into_maps():
    spec = duplication_spec(1.0)  # B has two distinct-by-role blocks, J not onto
    T = synthesize(spec)
    report = analyze(T, Lp(1.0), Lp(1.0), trials=30, seed=11)
    central = central_B_check(report.B, report.J, onto=False)
    assert central.status == "not-applicable"
    assert central.ok is None


def test_central_b_requires_jordan():
    T = plain_map(lambda x: x + x.transpose())
    report = analyze(T, Lp(1.0), Lp(1.0), trials=20, seed=12)
    with pytest.raises(JMissing):
        central_B_check(report.B, report.J, onto=True)


# ------------------------------------------------------------- invariance


def test_extraction_is_basis_independent():
    # conjugating the isometry by unitaries yields a J with the same
    # singular value profile of its matrix
    from logmaj.sampling import unitary

    spec = duplication_spec(2.0)
    T = synthesize(spec)
    report = analyze(T, Lp(2.0), Lp(2.0), trials=30, seed=13)
    rng = rng_for(105, "basis-indep")
    u = unitary(M2, rng)
    w = unitary(M2_PAIR, rng)

    def conjugated(x):
        return w @ T.apply(u @ x @ u.adjoint()) @ w.adjoint()

    T2 = plain_map(conjugated, dom=M2, cod=M2_PAIR)
    report2 = analyze(T2, Lp(2.0), Lp(2.0), trials=30, seed=13)
    assert report2.passed
    s1 = np.linalg.svd(report.J.map.matrix, compute_uv=False)
    s2 = np.linalg.svd(report2.J.map.matrix, compute_uv=False)
    assert np.allclose(s1, s2, atol=1e-9)


@pytest.mark.parametrize("exponent", range(-12, 13, 2))
def test_jordan_extraction_at_every_scale(exponent):
    # B+ is cut relative to ||B||, so a calibrated map scaled by 10^exponent
    # gives the J of the unscaled map, and the support identities stay at
    # roundoff
    from logmaj.isometry import jordan_factor
    from logmaj.jordan import JordanMap
    from logmaj.suites import _calibrated_synth_spec

    for trial in range(3):
        T = synthesize(_calibrated_synth_spec(rng_for(5, "scaled-extraction", trial), 2.0))
        scaled = LinearMap(T.domain, T.codomain, 10.0 ** exponent * T.matrix)
        _, J = jordan_factor(T)
        _, J_scaled = jordan_factor(scaled)
        assert isinstance(J_scaled, JordanMap) and J_scaled.certificate.passed
        assert np.abs(J_scaled.map.matrix - J.map.matrix).max() <= 1e-12
        report = analyze(scaled, Lp(2.0), Lp(2.0), trials=20, seed=trial)
        assert report.J is not None
        assert report.support_identity_residual <= 1e-13


@pytest.mark.parametrize("entry", [1e200, -1e250, 1e300j, 1.7e308])
def test_analyze_of_a_map_with_a_huge_entry_raises_classification_failure(entry):
    """``x -> x`` on M_2 with one entry from 1e200 to 1.7e308, at four
    positions: the products of its images can overflow (``B T(e) - T(e) B``
    gave NaN, and the SVD raised numpy's LinAlgError).  Just below the
    bound of 1e150 the analysis runs and reports."""
    alg = FiniteAlgebra.full(2)
    for at in ((0, 0), (1, 2), (2, 1), (3, 3)):
        matrix = np.array(LinearMap.identity(alg).matrix)
        matrix[at] = entry
        with pytest.raises(ClassificationFailure, match="can overflow"):
            analyze(LinearMap(alg, alg, matrix), Lp(2.0), Lp(2.0), trials=2, seed=0)
        matrix[at] = 9.9e149 * (entry / abs(entry))
        report = analyze(LinearMap(alg, alg, matrix), Lp(2.0), Lp(2.0), trials=2, seed=0)
        assert report.passed is False
