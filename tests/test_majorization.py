import math

import numpy as np
import pytest

from logmaj import (FiniteAlgebra, disjointness_from_mu_equality,
                    fk_determinant, fk_log_determinant, functional_calculus,
                    log_submajorizes, mu, submajorizes)
from logmaj.errors import NotPSD
from logmaj.majorization import exp_log_determinant
from logmaj.sampling import (disjoint_psd_pair, gaussian, hermitian_contraction,
                             psd, random_algebra, rng_for)
from logmaj.stepfun import StepFunction, pointwise_product

NEG_INF = float("-inf")


def sandwich_pair(rng):
    """a >= 0 and hermitian b with -a <= b <= a."""
    alg = random_algebra(rng)
    a = psd(alg, rng, delta=1e-3 if rng.uniform() < 0.5 else 0.0)
    h = hermitian_contraction(alg, rng)
    root = functional_calculus(a, lambda t: t ** 0.5 if t > 0 else 0.0)
    return a, root @ h @ root


# ---------------------------------------------------------------- predicates


def test_submajorizes_basic_hold():
    b = StepFunction(((1.0, 2.0),))
    a = StepFunction(((2.0, 1.0), (0.0, 1.0)))
    verdict = submajorizes(b, a)
    assert verdict.holds
    assert verdict.slack >= -1e-12


def test_submajorizes_reflexive_with_zero_slack():
    a = StepFunction(((2.0, 1.0), (1.0, 2.0)))
    verdict = submajorizes(a, a)
    assert verdict.holds
    assert verdict.slack == pytest.approx(0.0, abs=1e-15)


def test_submajorizes_fails_at_early_breakpoint():
    b = StepFunction(((3.0, 1.0), (0.0, 1.0)))
    a = StepFunction(((2.0, 2.0),))
    verdict = submajorizes(b, a)
    assert not verdict.holds
    assert verdict.worst_t == pytest.approx(1.0)
    assert verdict.slack == pytest.approx(-1.0)


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12])
def test_submajorizes_verdict_is_scale_invariant(c):
    # b exceeds a by a relative 1e-6 on its first piece: a violation at
    # every common scale, not only at scales of order one
    b = StepFunction((((1.0 + 1e-6) * c, 1.0), (0.5 * c, 2.0)))
    a = StepFunction(((c, 1.0), (0.5 * c, 2.0)))
    assert not submajorizes(b, a).holds
    assert submajorizes(a, a).holds
    assert submajorizes(b, b).holds
    zero = StepFunction(((0.0, 3.0),))
    assert submajorizes(zero, zero).holds


def test_log_submajorizes_basic_hold():
    b = StepFunction(((4.0, 1.0), (0.25, 1.0)))
    a = StepFunction(((4.0, 1.0), (1.0, 1.0)))
    assert log_submajorizes(b, a).holds


def test_log_submajorizes_neg_inf_tail_on_left():
    b = StepFunction(((2.0, 1.0), (0.0, 1.0)))
    a = StepFunction(((2.0, 1.0), (1.0, 1.0)))
    assert log_submajorizes(b, a).holds


def test_log_submajorizes_finite_vs_neg_inf_fails():
    b = StepFunction(((1.0, 2.0),))
    a = StepFunction(((2.0, 1.0), (0.0, 1.0)))
    verdict = log_submajorizes(b, a)
    assert not verdict.holds
    assert verdict.slack == NEG_INF
    assert verdict.worst_t == pytest.approx(2.0)


# ---------------------------------------------------------------- determinant


def test_fk_determinant_diag():
    alg = FiniteAlgebra.full(2)
    assert fk_determinant(alg.operator([np.diag([2.0, 3.0])])) == pytest.approx(6.0)


def test_fk_determinant_weighted():
    alg = FiniteAlgebra(((1, 2.0),))
    assert fk_determinant(alg.operator([np.array([[3.0]])])) == pytest.approx(9.0)


def test_fk_determinant_singular():
    alg = FiniteAlgebra.full(2)
    assert fk_determinant(alg.operator([np.diag([2.0, 0.0])])) == 0.0


def test_fk_determinant_overflow_is_inf():
    alg = FiniteAlgebra.full(2)
    assert fk_determinant(alg.diagonal([[1e200, 1e200]])) == math.inf
    # just below the overflow threshold the value is still finite
    big = alg.diagonal([[1e154, 1e154]])
    assert fk_determinant(big) == pytest.approx(1e308, rel=1e-12)
    assert math.isfinite(fk_determinant(big))


def test_fk_log_determinant_shows_underflow_and_overflow():
    alg = FiniteAlgebra(((1, 100.0), (2, 1.0)))
    tiny = alg.diagonal([[1e-5], [2.0, 3.0]])
    assert fk_determinant(tiny) == 0.0
    assert fk_log_determinant(tiny) == pytest.approx(100.0 * math.log(1e-5) + math.log(6.0))
    huge = alg.diagonal([[1e5], [2.0, 3.0]])
    assert fk_determinant(huge) == math.inf
    assert fk_log_determinant(huge) == pytest.approx(100.0 * math.log(1e5) + math.log(6.0))
    assert fk_log_determinant(alg.diagonal([[1.0], [2.0, 0.0]])) == -math.inf
    assert fk_log_determinant(alg.identity()) == 0.0


def test_fk_determinant_is_exp_of_the_full_log_prefix_integral():
    # the values fk_determinant had before fk_log_determinant, bit for bit
    for trial in range(40):
        rng = rng_for(43, "det-log", trial)
        alg = random_algebra(rng)
        x = (10.0 ** rng.integers(-3, 4)) * gaussian(alg, rng)
        f = mu(x)
        log_det = f.log_prefix_integral(f.total_length)
        assert fk_log_determinant(x) == log_det
        assert fk_determinant(x) == math.exp(log_det)
        assert exp_log_determinant(log_det) == fk_determinant(x)
    assert exp_log_determinant(-math.inf) == 0.0
    assert exp_log_determinant(1e6) == math.inf


def test_fk_determinant_is_weighted_product_of_singular_values():
    for trial in range(20):
        rng = rng_for(41, "det-product", trial)
        alg = random_algebra(rng)
        x = gaussian(alg, rng)
        expected = 1.0
        for (_, c), b in zip(alg.blocks, x.blocks):
            for s in np.linalg.svd(b, compute_uv=False):
                expected *= float(s) ** c
        assert fk_determinant(x) == pytest.approx(expected, rel=1e-9)


# ------------------------------------------------------------ order suites


def test_sandwich_implies_log_submajorization():
    for trial in range(100):
        rng = rng_for(42, "sandwich", trial)
        a, b = sandwich_pair(rng)
        verdict = log_submajorizes(mu(b), mu(a))
        assert verdict.holds, f"trial {trial}: slack {verdict.slack}"


def test_sandwich_implies_determinant_monotone():
    for trial in range(100):
        rng = rng_for(42, "sandwich", trial)  # same pairs
        a, b = sandwich_pair(rng)
        assert fk_determinant(b) <= fk_determinant(a) * (1.0 + 1e-8)


def test_product_log_submajorization():
    for trial in range(100):
        rng = rng_for(43, "product", trial)
        alg = random_algebra(rng)
        x, y = gaussian(alg, rng), gaussian(alg, rng)
        verdict = log_submajorizes(mu(x @ y), pointwise_product(mu(x), mu(y)))
        assert verdict.holds, f"trial {trial}: slack {verdict.slack}"


def test_power_transfer():
    for trial in range(50):
        rng = rng_for(44, "power", trial)
        a, b = sandwich_pair(rng)
        fa, fb = mu(a), mu(b)
        assert log_submajorizes(fb, fa).holds
        for p in (0.5, 1.0, 2.0, 3.7):
            assert submajorizes(fb.power(p), fa.power(p)).holds, f"p={p}, trial {trial}"


def test_convex_transfer():
    phis = (lambda t: max(t, 0.0), np.exp, lambda t: t * t)
    for trial in range(50):
        rng = rng_for(45, "convex", trial)
        a, b = sandwich_pair(rng)
        f = mu(b).power(2.0)
        g = mu(a).power(2.0)
        assert submajorizes(f, g).holds
        for phi in phis:
            assert submajorizes(f.map_values(phi).rearrange(),
                                g.map_values(phi).rearrange()).holds


# ---------------------------------------------------------------- disjointness


def test_disjointness_diag_trivial_pair():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([1.0, 0.0])])
    y = alg.operator([np.diag([0.0, 1.0])])
    diag = disjointness_from_mu_equality(x, y)
    assert diag.mu_equal and diag.product_zero and not diag.violation


def test_disjointness_diag_equal_operators():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([1.0, 0.0])])
    diag = disjointness_from_mu_equality(x, x)
    assert not diag.mu_equal


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12])
def test_disjointness_verdict_is_scale_free(c):
    """Both gates are relative to the inputs' own scale, so scaling a pair
    by c leaves the diagnostic unchanged: (x, x) is neither mu-equal nor
    disjoint, (x, y) with orthogonal supports is both.  An absolute floor
    of 1 in the gates let (x, x) pass the product test below scale 1.
    Far below ``tolerances().alg`` (1e-9) mu's own rank cut still
    flattens singular values, a separate open defect, so the sweep stops
    at 1e-6."""
    alg = FiniteAlgebra.full(2)
    x = alg.operator([c * np.diag([1.0, 0.0])])
    y = alg.operator([c * np.diag([0.0, 1.0])])
    same = disjointness_from_mu_equality(x, x)
    assert (same.mu_equal, same.product_zero) == (False, False)
    apart = disjointness_from_mu_equality(x, y)
    assert (apart.mu_equal, apart.product_zero) == (True, True)


def test_disjointness_requires_psd():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([1.0, -1.0])])
    with pytest.raises(NotPSD):
        disjointness_from_mu_equality(x, x)


def test_disjointness_randomized_falsification_sweep():
    # overlapping PSD pairs must never report mu-equality
    hits = 0
    for trial in range(200):
        rng = rng_for(46, "sweep", trial)
        alg = random_algebra(rng)
        x = psd(alg, rng)
        y = psd(alg, rng)
        if (x @ y).norm_inf() <= 1e-8 * (1 + x.norm_inf() * y.norm_inf()):
            continue
        hits += 1
        diag = disjointness_from_mu_equality(x, y)
        assert not diag.mu_equal, f"trial {trial}"
        assert not diag.violation
    assert hits > 150


def test_disjoint_pairs_pass_diagnostic():
    for trial in range(100):
        rng = rng_for(47, "disjoint", trial)
        alg = random_algebra(rng)
        x, y = disjoint_psd_pair(alg, rng)
        diag = disjointness_from_mu_equality(x, y)
        assert diag.mu_equal and diag.product_zero


def test_anticommuting_psd_pairs_have_zero_product():
    for trial in range(50):
        rng = rng_for(48, "anticommute", trial)
        alg = random_algebra(rng)
        x, y = disjoint_psd_pair(alg, rng)
        scale = 1.0 + x.norm_inf() * y.norm_inf()
        assert (x @ y + y @ x).norm_inf() <= 1e-9 * scale
        assert (x @ y).norm_inf() <= 1e-8 * scale


# ---------------------------------------------------------------- rigidity


def test_mu_equality_rigidity():
    from logmaj import spectral_decompose, spectral_projection
    from logmaj.majorization import mu_values_equal

    for trial in range(50):
        rng = rng_for(49, "rigidity", trial)
        alg = random_algebra(rng)
        a = psd(alg, rng, delta=1e-3)
        dec = spectral_decompose(a)
        lam = max(float(w[0]) for w in dec.eigenvalues if w.size)
        if lam <= 1e-6:
            continue
        p = spectral_projection(a, lam - 1e-9 * max(1.0, lam), float("inf"))
        b = a - (0.5 * lam) * p
        scale = max(1.0, lam)
        assert not mu_values_equal(mu(b), mu(a), 1e-8 * scale)
        assert mu_values_equal(mu(a), mu(a), 1e-12)


def test_projection_compression_rigidity():
    from logmaj import spectral_decompose, spectral_projection, trace
    from logmaj.majorization import mu_values_equal
    from logmaj.sampling import unitary

    done = 0
    for trial in range(60):
        rng = rng_for(50, "p-rigidity", trial)
        alg = random_algebra(rng)
        z = psd(alg, rng, delta=1e-3)
        eigs = np.sort(np.concatenate(spectral_decompose(z).eigenvalues))
        top = float(eigs[-1])
        lam = 0.5 * top
        if np.min(np.abs(eigs - lam)) < 1e-6 * top:
            continue
        r = spectral_projection(z, lam, float("inf"))
        t_r = float(np.real(trace(r)))
        if t_r <= 0.0:
            continue
        done += 1
        scale = max(1.0, top)
        assert mu_values_equal(mu(z).truncate(t_r), mu(r @ z @ r).truncate(t_r),
                               1e-8 * scale)
        u = unitary(alg, rng)
        p = u @ r @ u.adjoint()
        if (p - r).norm_inf() > 1e-6:
            assert not mu_values_equal(mu(z).truncate(t_r),
                                       mu(p @ z @ p).truncate(t_r), 1e-8 * scale)
    assert done > 30
