import numpy as np
import pytest

from logmaj import (FiniteAlgebra, LogF, Lorentz, Lp, check_delta_axioms,
                    check_slm, check_symmetric, evaluate_norm, log_submajorizes,
                    mu)
from logmaj.errors import WeightTooShort
from logmaj import norms
from logmaj.norms import evaluate_norm_mu
from logmaj.sampling import gaussian, rng_for, unitary
from logmaj.stepfun import StepFunction

WEIGHT = StepFunction(((2.0, 8.0), (1.0, 8.0), (0.5, 24.0)))


def test_lp_norm_diagonal():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([3.0, 4.0])])
    assert evaluate_norm(Lp(2.0), x) == pytest.approx(5.0)


def test_lorentz_norm_refined_partition():
    w = StepFunction(((2.0, 1.0), (1.0, 1.0)))
    f = StepFunction(((3.0, 1.0), (2.0, 1.0)))
    assert evaluate_norm_mu(Lorentz(1.0, w), f) == pytest.approx(8.0)


def test_logf_norm_scalar():
    alg = FiniteAlgebra(((1, 1.0),))
    x = alg.operator([np.array([[np.e - 1.0]])])
    assert evaluate_norm(LogF(), x) == pytest.approx(1.0)


def test_lorentz_weight_too_short():
    alg = FiniteAlgebra.full(3)
    w = StepFunction(((1.0, 1.0),))
    with pytest.raises(WeightTooShort):
        evaluate_norm(Lorentz(1.0, w), alg.identity())


def test_lorentz_weight_validation():
    with pytest.raises(ValueError):
        Lorentz(1.0, StepFunction(((1.0, 1.0), (2.0, 1.0))))  # increasing
    with pytest.raises(ValueError):
        Lorentz(1.0, StepFunction(((1.0, 1.0), (0.0, 1.0))))  # not strictly positive
    with pytest.raises(ValueError):
        Lp(0.0)


@pytest.mark.parametrize("p", [float("inf"), float("nan"), float("-inf")])
def test_non_finite_exponents_rejected(p):
    with pytest.raises(ValueError):
        Lp(p)
    with pytest.raises(ValueError):
        Lorentz(p, WEIGHT)


def test_lorentz_reduces_to_lp_under_unit_weight():
    w = StepFunction(((1.0, 50.0),))
    for trial in range(20):
        rng = rng_for(61, "lorentz-lp", trial)
        alg = FiniteAlgebra(((3, 1.0), (2, 1.4)))
        x = gaussian(alg, rng)
        for p in (0.5, 1.0, 2.0):
            assert evaluate_norm(Lorentz(p, w), x) == pytest.approx(
                evaluate_norm(Lp(p), x), rel=1e-12)


def test_unitary_and_adjoint_invariance_all_variants():
    from logmaj import absolute_value

    rng = rng_for(62, "norm-invariance")
    alg = FiniteAlgebra(((3, 1.0), (2, 0.8)))
    x = gaussian(alg, rng)
    u, v = unitary(alg, rng), unitary(alg, rng)
    for spec in (Lp(0.5), Lp(1.0), Lp(2.0), Lorentz(1.0, WEIGHT), LogF()):
        n = evaluate_norm(spec, x)
        assert evaluate_norm(spec, x.adjoint()) == pytest.approx(n, rel=1e-9)
        assert evaluate_norm(spec, absolute_value(x)) == pytest.approx(n, rel=1e-9)
        assert evaluate_norm(spec, u @ x @ v) == pytest.approx(n, rel=1e-9)


def test_delta_axioms_lp2():
    rng = rng_for(63, "axioms-lp2")
    alg = FiniteAlgebra(((3, 1.0), (2, 1.0)))
    samples = [gaussian(alg, rng) for _ in range(200)]
    report = check_delta_axioms(Lp(2.0), samples)
    assert report.passed
    assert report.stats["quasi_triangle_worst_ratio"] <= 1.0 + 1e-9


def test_delta_axioms_logf():
    rng = rng_for(64, "axioms-logf")
    alg = FiniteAlgebra(((2, 1.0), (2, 1.5)))
    samples = [gaussian(alg, rng) for _ in range(200)]
    report = check_delta_axioms(LogF(), samples)
    assert report.passed
    assert report.stats["quasi_triangle_constant"] == 1.0


def test_delta_axioms_lorentz_reports_empirical_constant():
    rng = rng_for(65, "axioms-lorentz")
    alg = FiniteAlgebra(((2, 1.0),))
    samples = [gaussian(alg, rng) for _ in range(100)]
    report = check_delta_axioms(Lorentz(0.5, WEIGHT), samples)
    assert report.passed
    assert np.isfinite(report.stats["quasi_triangle_worst_ratio"])


def test_lp_half_sharp_quasi_constant():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([1.0, 0.0])])
    y = alg.operator([np.diag([0.0, 1.0])])
    spec = Lp(0.5)
    nx, ny = evaluate_norm(spec, x), evaluate_norm(spec, y)
    assert nx == pytest.approx(1.0)
    ratio = evaluate_norm(spec, x + y) / (nx + ny)
    assert ratio == pytest.approx(2.0 ** (1.0 / 0.5 - 1.0))
    report = check_delta_axioms(spec, [x, y])
    assert report.passed  # the sharp pair saturates but does not violate


def test_check_symmetric_all_variants():
    for spec in (Lp(0.5), Lp(1.0), Lp(2.0), Lorentz(1.0, WEIGHT), LogF()):
        report = check_symmetric(spec, trials=100, seed=71)
        assert report.passed, report.axiom_violations


def test_symmetric_halving():
    rng = rng_for(72, "halving")
    alg = FiniteAlgebra.full(3)
    x = gaussian(alg, rng)
    for spec in (Lp(1.0), LogF(), Lorentz(2.0, WEIGHT)):
        assert evaluate_norm(spec, 0.5 * x) <= evaluate_norm(spec, x)


# ------------------------------------------------------------- SLM examples

MU_Y = StepFunction(((4.0, 1.0), (1.0, 1.0)))
MU_X = StepFunction(((2.0, 2.0),))


def test_slm_pair_is_log_submajorized_not_equal():
    verdict = log_submajorizes(MU_X, MU_Y)
    assert verdict.holds
    assert abs(verdict.slack) < 1e-12  # equality at t = 2


def test_slm_example_lp1():
    assert evaluate_norm_mu(Lp(1.0), MU_X) == pytest.approx(4.0)
    assert evaluate_norm_mu(Lp(1.0), MU_Y) == pytest.approx(5.0)


def test_slm_example_logf():
    assert evaluate_norm_mu(LogF(), MU_X) == pytest.approx(2.0 * np.log(3.0))
    assert evaluate_norm_mu(LogF(), MU_Y) == pytest.approx(np.log(5.0) + np.log(2.0))
    assert evaluate_norm_mu(LogF(), MU_X) < evaluate_norm_mu(LogF(), MU_Y)


def test_slm_example_lorentz():
    w = StepFunction(((2.0, 1.0), (1.0, 1.0)))
    assert evaluate_norm_mu(Lorentz(1.0, w), MU_X) == pytest.approx(6.0)
    assert evaluate_norm_mu(Lorentz(1.0, w), MU_Y) == pytest.approx(9.0)


def test_check_slm_all_variants():
    for spec in (Lp(0.5), Lp(1.0), Lp(2.0), Lorentz(1.0, WEIGHT), LogF()):
        report = check_slm(spec, trials=100, seed=73)
        assert report.passed, report.axiom_violations


def test_lp_rigidity_under_equal_norms():
    # pairs with b <<_log a and equal Lp norm must have equal mu; unitary
    # conjugates realize the equality case exactly
    from logmaj.majorization import mu_values_equal

    for trial in range(30):
        rng = rng_for(74, "lp-rigidity", trial)
        alg = FiniteAlgebra(((3, 1.0), (2, 1.2)))
        a = gaussian(alg, rng)
        b = unitary(alg, rng) @ a @ unitary(alg, rng)
        assert log_submajorizes(mu(b), mu(a)).holds
        for p in (1.0, 2.0):
            na, nb = evaluate_norm(Lp(p), a), evaluate_norm(Lp(p), b)
            assert abs(na - nb) < 1e-10 * max(1.0, na)
            assert mu_values_equal(mu(a), mu(b), 1e-8)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_symmetry_gate_is_relative(monkeypatch, scale):
    """A norm of y 1e-6 above that of x (relative) is a violation at every
    scale; 1e-10 is within the tolerance."""
    for excess, expected in ((1e-6, ["symmetry"] * 3), (1e-10, [])):
        def planted(spec, mus):
            n = len(mus) // 2
            return [scale] * n + [scale * (1.0 + excess)] * n
        monkeypatch.setattr(norms, "evaluate_norms_mu", planted)
        report = check_symmetric(Lp(2.0), 3, 1)
        assert [v.axiom for v in report.axiom_violations] == expected


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_log_monotone_gate_is_relative(monkeypatch, scale):
    """A norm of x 1e-6 above that of y (relative) is a log-monotonicity
    violation at every scale; 1e-10 is within the tolerance."""
    for excess, expected in ((1e-6, 3), (1e-10, 0)):
        def planted(spec, fs):
            return [scale * (1.0 + excess), scale] * (len(fs) // 2)
        monkeypatch.setattr(norms, "evaluate_norms_mu", planted)
        report = check_slm(Lp(2.0), 3, 1)
        assert sum(v.axiom == "log-monotone" for v in report.axiom_violations) == expected
