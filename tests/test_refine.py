"""Differential tests: the common refinement kernel ``stepfun.refine`` and
its users (``pointwise_product``, ``mu_values_equal`` and the Lorentz
branch of ``evaluate_norm_mu``) against frozen copies of the per-call-site
refinements they replaced (tests/oracles.py), bit for bit."""

import numpy as np

from logmaj import FiniteAlgebra, Lorentz, mu, pointwise_product
from logmaj.majorization import mu_values_equal
from logmaj.norms import evaluate_norm_mu
from logmaj.sampling import gaussian, psd, rng_for
from logmaj.stepfun import StepFunction, refine

from oracles import (float_bits, frozen_lorentz_norm, frozen_mu_values_equal,
                     frozen_pointwise_product, frozen_refine)

SCALES = tuple(2.0 ** e for e in (-40, -23, -1, 0, 5, 24, 40))


def _bits(arrays):
    for a in arrays:
        assert a.dtype == np.float64
    return tuple(float_bits(a.tolist()) for a in arrays)


def _assert_same(f, g):
    """refine, pointwise_product and mu_values_equal agree bit for bit
    with the frozen copies on (f, g) and on (g, f)."""
    for a, b in ((f, g), (g, f)):
        assert _bits(refine(a, b)) == _bits(frozen_refine(a, b)), (a, b)
        assert (float_bits(pointwise_product(a, b).pieces)
                == float_bits(frozen_pointwise_product(a, b).pieces)), (a, b)
        top = max([1.0, *a.values.tolist(), *b.values.tolist()])
        for tol in (0.0, 1e-12 * top, 1e-8 * top, 0.5 * top, 2.0 * top):
            assert mu_values_equal(a, b, tol) is frozen_mu_values_equal(a, b, tol), (a, b, tol)


def _lorentz_specs(length, rng):
    """Lorentz norms whose weights are longer than ``length``, exactly as
    long, or shorter by less than one slop (half the shortfall that
    ``evaluate_norm_mu`` accepts)."""
    values = np.sort(rng.uniform(0.1, 3.0, size=3))[::-1]
    for total in (2.5 * length + 1.0, length, length * (1.0 - 0.5e-12)):
        widths = [0.3 * total, 0.3 * total]
        widths.append(total - sum(widths))
        weight = StepFunction(tuple(zip(values.tolist(), widths)))
        for p in (0.5, 1.0, 2.5):
            yield Lorentz(p, weight)


def _assert_lorentz_same(f, rng):
    for spec in _lorentz_specs(f.total_length, rng):
        got = evaluate_norm_mu(spec, f)
        assert float_bits(got) == float_bits(frozen_lorentz_norm(spec, f)), (f, spec)


def _algebra(rng):
    n_blocks = int(rng.integers(1, 4))
    dims = rng.integers(1, 5, size=n_blocks).tolist()
    weights = rng.choice([0.25, 0.5, 1.0, 1.5, 3.0], size=n_blocks).tolist()
    return FiniteAlgebra(tuple(zip(dims, weights)))


def test_refine_and_users_match_frozen_on_seeded_mu_pairs():
    rng = rng_for(6061, "refine-pairs")
    for trial in range(40):
        alg = _algebra(rng)
        other = alg if trial % 2 else _algebra(rng)   # equal or unequal lengths
        x = gaussian(alg, rng)
        y = psd(other, rng) if trial % 3 else gaussian(other, rng)
        rank_def = psd(alg, rng, delta=0.0)
        for s in SCALES:
            for t in (s, SCALES[trial % len(SCALES)]):
                f, g = mu(s * x), mu(t * y)
                _assert_same(f, g)
                _assert_same(f, mu(t * rank_def))
                _assert_lorentz_same(f, rng)
        _assert_same(mu(x), mu(x))
        _assert_same(mu(x), mu((1.0 + 1e-10) * x))


def test_refine_edge_cases_match_frozen():
    empty = StepFunction(())
    cases = [
        (empty, empty),
        (empty, StepFunction(((1.0, 2.0),))),
        (empty, StepFunction(((1.0, 1e-13),))),                 # shorter than one slop
        (StepFunction(((2.0, 1.0), (0.0, 1.0))),                # zero tail
         StepFunction(((1.5, 0.5), (0.5, 1.5)))),
        (StepFunction(((3.0, 1.0),)),                           # unequal lengths
         StepFunction(((2.0, 0.5), (1.0, 2.0)))),
        (StepFunction(((3.0, 2.0 ** -45), (1.0, 1.0))),         # tiny first cell
         StepFunction(((2.0, 1.0),))),
        (StepFunction(((1.0, 1.0),)),                           # lengths within one slop
         StepFunction(((2.0, 0.5), (0.5, 0.5 + 4e-13)))),
    ]
    for f, g in cases:
        _assert_same(f, g)


def test_refine_looks_up_a_breakpoint_that_lands_on_a_cell_mid_point():
    # g's breakpoints 1 and 1 + 1.5 slop bound one cell; f breaks exactly at
    # that cell's mid-point, less than one slop from 1, so the union drops
    # it.  value_at is right-continuous: the cell takes f's second value.
    slop = 2e-12                                   # the slop of length 2
    g = StepFunction(((3.0, 1.0), (2.0, 1.5 * slop), (1.0, 1.0 - 1.5 * slop)))
    g_ends = g.ends.tolist()
    mid = (g_ends[0] + g_ends[1]) / 2.0
    f = StepFunction(((5.0, mid), (4.0, 2.0 - mid)))
    assert f.ends[0] == mid and f.value_at(mid) == 4.0
    widths, fv, gv = refine(f, g)
    assert fv.tolist() == [5.0, 4.0, 4.0] and gv.tolist() == [3.0, 2.0, 1.0]
    _assert_same(f, g)


def test_lorentz_norm_matches_frozen_on_edge_functions():
    rng = rng_for(6062, "refine-lorentz")
    for f in (StepFunction(((2.0, 1.0), (0.0, 1.0))),
              StepFunction(((0.0, 3.0),)),
              StepFunction(((3.0, 2.0 ** -45), (1.0, 1.0))),
              mu(gaussian(FiniteAlgebra(((2, 0.5), (3, 1.5))), rng))):
        _assert_lorentz_same(f, rng)
