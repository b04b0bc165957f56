import numpy as np
import pytest

from logmaj import FiniteAlgebra, distribution, mu, pointwise_product
from logmaj.errors import NegativeValue, NotHermitian, OutOfDomain
from logmaj.sampling import gaussian, hermitian, psd, rng_for, unitary
from logmaj.stepfun import StepFunction, refine, union_breakpoints

from oracles import (dyadic_step_function, log_prefix_integral_by_grid,
                     mu_by_distribution_inverse, prefix_integral_by_grid)

NEG_INF = float("-inf")


# ---------------------------------------------------------------- mu


def test_mu_diagonal():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([3.0, -1.0])])
    assert mu(x).pieces == ((3.0, 1.0), (1.0, 1.0))


def test_mu_weighted_widths():
    alg = FiniteAlgebra(((1, 2.0), (1, 1.0)))
    x = alg.operator([np.array([[5.0]]), np.array([[7.0]])])
    assert mu(x).pieces == ((7.0, 1.0), (5.0, 2.0))


def test_mu_matches_distribution_inverse_oracle():
    grid = np.linspace(0.0, 1.0, 201)
    for trial in range(30):
        rng = rng_for(21, "mu-oracle", trial)
        alg = FiniteAlgebra(((4, 1.0),)) if trial % 2 else FiniteAlgebra(((2, 0.75), (3, 1.5)))
        x = gaussian(alg, rng)
        f = mu(x)
        ts = grid * f.total_length * 0.999
        expected = mu_by_distribution_inverse(x, ts)
        got = np.array([f.value_at(float(t)) for t in ts])
        assert np.max(np.abs(got - expected)) < 1e-9


def test_mu_total_length_is_trace_of_identity():
    rng = rng_for(22, "mu-length")
    alg = FiniteAlgebra(((2, 0.6), (3, 1.7)))
    x = gaussian(alg, rng)
    f = mu(x)
    assert f.total_length == pytest.approx(alg.total_trace)
    assert f.is_decreasing and f.is_nonnegative


def test_mu_star_and_abs_invariance():
    from logmaj import absolute_value

    rng = rng_for(23, "mu-star")
    x = gaussian(FiniteAlgebra(((3, 1.0), (2, 2.0))), rng)
    fx = mu(x)
    for other in (x.adjoint(), absolute_value(x)):
        fo = mu(other)
        _, fxv, fov = refine(fx, fo)
        assert np.allclose(fxv, fov, atol=1e-9)


def test_mu_scalar_homogeneity():
    rng = rng_for(24, "mu-scalar")
    x = gaussian(FiniteAlgebra.full(3), rng)
    alpha = -2.5 + 1.3j
    fs = mu(alpha * x)
    fx = mu(x)
    _, fsv, fxv = refine(fs, fx)
    assert np.allclose(fsv, abs(alpha) * fxv, atol=1e-9)


def test_mu_unitary_invariance():
    rng = rng_for(25, "mu-unitary")
    alg = FiniteAlgebra(((3, 1.0), (2, 0.5)))
    x = gaussian(alg, rng)
    u, v = unitary(alg, rng), unitary(alg, rng)
    fx, fu = mu(x), mu(u @ x @ v)
    _, fxv, fuv = refine(fx, fu)
    assert np.allclose(fxv, fuv, atol=1e-9)


def test_mu_monotone_in_psd_order():
    for trial in range(20):
        rng = rng_for(26, "mu-order", trial)
        alg = FiniteAlgebra(((4, 1.0),))
        b = psd(alg, rng)
        a = b + psd(alg, rng)  # a >= b >= 0
        fa, fb = mu(a), mu(b)
        _, fav, fbv = refine(fa, fb)
        assert np.all(fbv <= fav + 1e-9)


def test_mu_sum_triangle_on_prefixes():
    for trial in range(20):
        rng = rng_for(27, "mu-triangle", trial)
        alg = FiniteAlgebra(((3, 1.0), (2, 1.2)))
        x, y = gaussian(alg, rng), gaussian(alg, rng)
        fs, fx, fy = mu(x + y), mu(x), mu(y)
        for t in union_breakpoints(fs, fx, fy):
            t = float(t)
            assert fs.prefix_integral(t) <= fx.prefix_integral(t) + fy.prefix_integral(t) + 1e-9


# ---------------------------------------------------------------- distribution


def test_distribution_counting():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([3.0, 1.0])])
    d = distribution(x)
    assert d.value_at(2.0) == pytest.approx(1.0)
    assert d.value_at(0.5) == pytest.approx(2.0)


def test_distribution_of_a_small_operator_keeps_its_levels():
    d = distribution(FiniteAlgebra.full(2).operator([np.diag([3e-13, 2e-13])]))
    assert [v for v, _ in d.pieces] == [2.0, 1.0]
    assert [w for _, w in d.pieces] == pytest.approx([2e-13, 1e-13], rel=1e-12)


@pytest.mark.parametrize("c", [1e-15, 1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_distribution_is_scale_covariant(c):
    """d(c x) has the levels of d(x) over widths scaled by c, with repeated
    eigenvalues merged at every scale."""
    alg = FiniteAlgebra(((2, 1.0), (3, 0.5), (1, 2.0)))
    xs = [alg.operator([np.diag([3.0, 2.0]), np.diag([2.0, 2.0, 0.5]), np.array([[3.0]])])]
    for trial in range(10):
        xs.append(psd(alg, rng_for(11, "distribution-scale", trial)))
    for x in xs:
        d, dc = distribution(x), distribution(c * x)
        assert [v for v, _ in dc.pieces] == [v for v, _ in d.pieces]
        assert [w for _, w in dc.pieces] == pytest.approx([c * w for _, w in d.pieces],
                                                          rel=1e-9)
    assert len(distribution(xs[0]).pieces) == 3


def test_distribution_zero_operator():
    d = distribution(FiniteAlgebra.full(3).zero())
    assert d.pieces == ()
    assert d.value_at(0.7) == 0.0


def test_distribution_requires_hermitian():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NotHermitian):
        distribution(x)


def test_distribution_inverse_reproduces_mu_at_breakpoints():
    for trial in range(20):
        rng = rng_for(28, "dist-cross", trial)
        alg = FiniteAlgebra(((3, 1.0), (2, 0.5))) if trial % 2 else FiniteAlgebra.full(4)
        h = hermitian(alg, rng)
        from logmaj import absolute_value

        d = distribution(absolute_value(h))
        f = mu(h)
        cells = np.concatenate([[0.0], f.ends])
        for lo, hi in zip(cells[:-1], cells[1:]):
            t = (lo + hi) / 2.0
            # inf{s: d(s) <= t} over the candidate levels of d
            levels = [0.0] + list(d.ends)
            feasible = [s for s in levels if d.value_at(s) <= t + 1e-12]
            inv = min(feasible)
            assert abs(inv - f.value_at(t)) < 1e-9


# ---------------------------------------------------------------- integrals


def test_prefix_integral_basic():
    f = StepFunction(((3.0, 1.0), (1.0, 1.0)))
    assert f.prefix_integral(1.5) == pytest.approx(3.5)
    assert f.prefix_integral(0.0) == 0.0
    assert f.prefix_integral(2.0) == pytest.approx(4.0)


def test_prefix_integral_out_of_domain():
    f = StepFunction(((1.0, 1.0),))
    with pytest.raises(OutOfDomain):
        f.prefix_integral(-0.5)
    with pytest.raises(OutOfDomain):
        f.prefix_integral(1.5)


def test_prefix_integral_matches_dense_grid_oracle():
    for trial in range(10):
        rng = rng_for(30, "grid-oracle", trial)
        f = dyadic_step_function(rng, nonnegative=False)
        t = f.total_length
        assert abs(f.prefix_integral(t) - prefix_integral_by_grid(f, t)) < 1e-9
        half = round((t / 2.0) * 2 ** 17) / 2 ** 17
        assert abs(f.prefix_integral(half) - prefix_integral_by_grid(f, half)) < 1e-9


def test_log_prefix_integral_basic():
    f = StepFunction(((np.e, 1.0), (1.0, 1.0)))
    assert f.log_prefix_integral(2.0) == pytest.approx(1.0)


def test_log_prefix_integral_zero_piece():
    f = StepFunction(((2.0, 1.0), (0.0, 1.0)))
    assert f.log_prefix_integral(2.0) == NEG_INF
    assert f.log_prefix_integral(1.0) == pytest.approx(np.log(2.0))


def test_log_prefix_integral_negative_piece_rejected():
    f = StepFunction(((-1.0, 1.0),))
    with pytest.raises(NegativeValue):
        f.log_prefix_integral(0.5)


def test_log_prefix_integral_matches_dense_grid_oracle():
    for trial in range(10):
        rng = rng_for(31, "log-grid-oracle", trial)
        f = dyadic_step_function(rng, nonnegative=True)
        t = f.total_length
        got = f.log_prefix_integral(t)
        expected = log_prefix_integral_by_grid(f, t)
        if expected == NEG_INF:
            assert got == NEG_INF
        else:
            assert abs(got - expected) < 1e-8


# ---------------------------------------------------------------- rearrange


def test_rearrange_sorts_descending():
    f = StepFunction(((1.0, 1.0), (3.0, 2.0)))
    assert f.rearrange().pieces == ((3.0, 2.0), (1.0, 1.0))


def test_rearrange_idempotent_on_decreasing():
    f = StepFunction(((3.0, 2.0), (1.0, 1.0)))
    assert f.rearrange() == f


def test_rearrange_rejects_negative():
    with pytest.raises(NegativeValue):
        StepFunction(((-1.0, 1.0),)).rearrange()


def test_rearrange_preserves_total_mass_and_distribution():
    for trial in range(20):
        rng = rng_for(32, "rearrange", trial)
        f = dyadic_step_function(rng, nonnegative=True)
        g = f.rearrange()
        assert g.is_decreasing
        assert g.prefix_integral(g.total_length) == pytest.approx(
            f.prefix_integral(f.total_length), abs=1e-12)
        # equimeasurability: same measure above every level
        for s in np.unique(f.values):
            mf = float(np.sum(f.widths[f.values > s]))
            mg = float(np.sum(g.widths[g.values > s]))
            assert mf == pytest.approx(mg, abs=1e-12)


def test_product_of_decreasing_is_fixed_by_rearrange():
    rng = rng_for(33, "product-decreasing")
    x = gaussian(FiniteAlgebra.full(4), rng)
    w = StepFunction(((2.0, 1.5), (1.0, 1.5), (0.5, 4.0)))
    prod = pointwise_product(mu(x).power(1.3), w)
    assert prod.is_decreasing
    assert prod.rearrange() == prod


# ---------------------------------------------------------------- structure


def test_canonical_merges_equal_adjacent():
    f = StepFunction(((2.0, 1.0), (2.0, 0.5), (1.0, 1.0)))
    assert f.pieces == ((2.0, 1.5), (1.0, 1.0))


def test_pad_to_appends_zero_piece():
    f = StepFunction(((1.0, 1.0),))
    g = f.pad_to(3.0)
    assert g.pieces == ((1.0, 1.0), (0.0, 2.0))
    assert f.pad_to(1.0) == f


def test_value_at_conventions():
    f = StepFunction(((3.0, 1.0), (1.0, 1.0)))
    assert f.value_at(0.0) == 3.0
    assert f.value_at(1.0) == 1.0  # right-continuous at the jump
    assert f.value_at(2.0) == 0.0  # beyond the domain
    with pytest.raises(OutOfDomain):
        f.value_at(-0.1)


def test_truncate():
    f = StepFunction(((3.0, 1.0), (1.0, 1.0)))
    assert f.truncate(1.5).pieces == ((3.0, 1.0), (1.0, 0.5))


def test_value_at_between_cumulative_end_and_total_length():
    # ten widths of 0.1: the pairwise total_length is 1.0, the cumsum
    # end 0.9999999999999999; a t between them is inside the domain
    f = StepFunction(tuple((float(10 - i), 0.1) for i in range(10)))
    assert f.total_length == 1.0
    assert float(f.ends[-1]) == 0.9999999999999999
    assert f.value_at(0.9999999999999999) == 1.0
    assert f.value_at(1.0) == 0.0
