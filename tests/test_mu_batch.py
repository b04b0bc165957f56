"""Differential tests: batched mu and its array tail, single-pass
canonicalisation and the batched Delta-norm axiom check against frozen
copies of the earlier code (tests/oracles.py), bit for bit."""

import math

import numpy as np
import pytest

from logmaj import FiniteAlgebra, check_delta_axioms, fk_determinant, mu, submajorizes
from logmaj.algebra import block_singular_values, stacked_singular_values
from logmaj.config import overridden_tolerances, tolerances
from logmaj.errors import ShapeMismatch
from logmaj.norms import LogF
from logmaj.sampling import gaussian, rng_for, unitary
from logmaj.stepfun import StepFunction, _canonical, mu_many
from logmaj.suites import _norm_variants

from oracles import (float_bits, frozen_block_singular_values, frozen_canonical,
                     frozen_check_delta_axioms, frozen_from_pieces,
                     frozen_mu_of_singular_values, frozen_mu_pieces, frozen_pad_to,
                     frozen_total_length)

# The width-weighted mean of (0.1, 0.1) and (0.1, 0.1) rounds to this
# value.  An exact tie keeps its value, so a canonical pass over
# ROUNDING_CASCADE leaves ROUNDED and then 0.1, distinct and canonical.
ROUNDED = (0.1 * 0.1 + 0.1 * 0.1) / (0.1 + 0.1)
ROUNDING_CASCADE = ((ROUNDED, 0.5), (0.1, 0.1), (0.1, 0.1))

# Inputs that exercise every branch of the canonical pass: zero widths,
# adjacent equal values, cascading merges whose weighted mean lands
# exactly on the previous value (so a second pass must run), -0.0, and
# trailing zeros that pad_to merges with its zero tail.
ADVERSARIAL_PIECES = [
    ROUNDING_CASCADE,
    ROUNDING_CASCADE + ((0.0, 1.0),),
    (),
    ((1.0, 0.0),),
    ((1.0, 0.0), (2.0, 1.0), (2.0, 0.0), (0.5, 0.25)),
    ((3.0, 1.0), (3.0, 1.0), (3.0, 0.5)),
    ((0.1, 0.1), (0.1, 0.2), (0.1, 0.3), (0.2, 0.7)),
    ((1.0, 1.0), (-1.0, 1.0), (3.0, 1.0)),
    ((1.0, 1.0), (1.0 + 4e-10, 2.0), (1.0 + 8e-10, 1.0), (1.0 + 1.2e-9, 3.0), (0.5, 1.0)),
    ((2.0, 1.0), (0.0, 1.0)),
    ((2.0, 1.0), (-0.0, 1.0)),
    ((-0.0, 1.0), (0.0, 2.0)),
    ((-0.0, 1.0),),
    ((5.0, 0.5), (0.0, 0.5), (0.0, 0.0), (-0.0, 0.25)),
    ((1e300, 1e-300), (1e-300, 1e300)),
    ((0.0, 1e308), (0.0, 1e308)),        # merged width overflows to inf
    ((1.0, 1e308), (1.0, 1e308)),        # merged value is inf / inf
    ((np.float64(2.5), 1), (2.5, np.float64(0.5))),
]
SNAPS = (0.0, 1e-9, 1e-3, 1.5)


def _random_pieces(rng):
    n = int(rng.integers(1, 9))
    pool = [0.0, -0.0, 1.0, 1.0 + 1e-10, 0.5, float(rng.uniform(0.0, 3.0))]
    values = [pool[int(rng.integers(0, len(pool)))] for _ in range(n)]
    widths = [float(rng.choice([0.0, 0.25, 1.0, rng.uniform(0.0, 2.0)])) for _ in range(n)]
    return tuple(zip(values, widths))


def _outcome(fn, *args):
    try:
        return ("ok", float_bits(fn(*args)))
    except (ValueError, ShapeMismatch) as exc:
        return (type(exc).__name__, str(exc))


def _all_pieces():
    rng = np.random.default_rng(4242)
    return list(ADVERSARIAL_PIECES) + [_random_pieces(rng) for _ in range(300)]


def test_canonical_and_from_pieces_match_frozen():
    for pieces in _all_pieces():
        assert _outcome(_canonical, pieces) == _outcome(frozen_canonical, pieces), pieces
        assert (_outcome(lambda p: StepFunction(p).pieces, pieces)
                == _outcome(frozen_canonical, pieces)), pieces
        for snap in SNAPS:
            assert (_outcome(_canonical, pieces, snap)
                    == _outcome(frozen_canonical, pieces, snap)), (pieces, snap)
            assert (_outcome(lambda p: StepFunction.from_pieces(p, snap=snap).pieces, pieces)
                    == _outcome(frozen_from_pieces, pieces, snap)), (pieces, snap)


def test_cascading_merge_onto_previous_value_runs_second_pass():
    pieces = ((1.0, 1.0), (-1.0, 1.0), (3.0, 1.0))
    assert _canonical(pieces, snap=1.5) == ((1.0, 1.0), (1.0, 2.0))
    assert StepFunction.from_pieces(pieces, snap=1.5).pieces == ((1.0, 3.0),)
    assert ROUNDED != 0.1
    once = StepFunction(ROUNDING_CASCADE)
    assert once.pieces == ((ROUNDED, 0.5), (0.1, 0.2))
    assert StepFunction.from_pieces(ROUNDING_CASCADE).pieces == once.pieces
    assert len(once.pad_to(2.0).pieces) == 3


def test_exact_ties_keep_their_value():
    """Equal adjacent values merge by adding widths: the mean of a
    constant could round and leave two pieces that are not decreasing."""
    f = StepFunction(((3.0, 2.041297136889634), (3.0, 3.9639852616484355),
                      (3.0, 3.596479027245116)))
    assert f.pieces == ((3.0, (2.041297136889634 + 3.9639852616484355) + 3.596479027245116),)
    assert f.is_decreasing
    verdict = submajorizes(f, f)
    assert verdict.holds and verdict.slack == 0.0
    # a snapped merge still takes the width-weighted mean
    assert _canonical(((1.0, 1.0), (1.0 + 1e-13, 3.0)), snap=1e-12) == (
        ((1.0 * 1.0 + (1.0 + 1e-13) * 3.0) / 4.0, 4.0),)


def test_pad_to_and_arrays_match_frozen():
    for pieces in _all_pieces():
        try:
            f = StepFunction(pieces)
        except ValueError:
            continue
        base = frozen_canonical(pieces)
        length = frozen_total_length(base)
        assert f.total_length == length
        assert float_bits(f.values.tolist()) == float_bits([v for v, _ in base])
        assert float_bits(f.widths.tolist()) == float_bits([w for _, w in base])
        assert not f.values.flags.writeable and not f.widths.flags.writeable
        for target in (length, length + 1e-13, length + 0.5, length * 3.0 + 1.0, length - 1.0):
            got = _outcome(lambda t: f.pad_to(t).pieces, target)
            assert got == _outcome(frozen_pad_to, base, target), (pieces, target)
            if got[0] == "ok":
                padded = f.pad_to(target)
                assert padded.total_length == frozen_total_length(padded.pieces)


def test_pad_to_merges_trailing_zero_and_negative_zero():
    f = StepFunction(((2.0, 1.0), (-0.0, 1.0)))
    g = f.pad_to(3.0)
    assert float_bits(g.pieces) == float_bits(frozen_pad_to(f.pieces, 3.0))
    assert float_bits(g.pieces) == float_bits(((2.0, 1.0), (0.0, 2.0)))


def _operator_zoo(alg, rng, scale):
    """Gaussian, exactly hermitian, zero, rank-deficient and repeated
    singular value operators, all multiplied by ``scale``."""
    g = gaussian(alg, rng)
    herm = alg.operator([(b + b.conj().T) / 2.0 for b in gaussian(alg, rng).blocks])
    diag = alg.diagonal([rng.uniform(-2.0, 2.0, size=d).round(1) for d in alg.dims])
    rank_def = []
    repeated = []
    for d in alg.dims:
        a = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
        rank_def.append(a @ a.conj().T)
        u = unitary(FiniteAlgebra.full(d), rng).blocks[0]
        v = unitary(FiniteAlgebra.full(d), rng).blocks[0]
        repeated.append(u @ np.diag(np.full(d, 1.5).astype(complex)) @ v)
    ops = [g, herm, diag, alg.zero(), alg.identity(), alg.operator(rank_def),
           alg.operator(repeated), g @ alg.operator(rank_def)]
    return [scale * x for x in ops]


def _algebras(rng, count):
    for _ in range(count):
        n_blocks = int(rng.integers(1, 4))
        dims = rng.integers(1, 5, size=n_blocks)
        weights = rng.choice([0.25, 0.5, 1.0, 2.0, 3.0], size=n_blocks)
        yield FiniteAlgebra(tuple(zip(dims.tolist(), weights.tolist())))


def test_mu_and_mu_many_match_frozen_mu():
    rng = rng_for(31337, "mu-batch")
    for alg in _algebras(rng, 24):
        for e in (-40, -17, -1, 0, 3, 22, 40):
            xs = _operator_zoo(alg, rng, 2.0 ** e)
            expected = [float_bits(frozen_mu_pieces(x)) for x in xs]
            assert [float_bits(mu(x).pieces) for x in xs] == expected
            batched = mu_many(xs)
            assert [float_bits(f.pieces) for f in batched] == expected
            for f, x in zip(batched, xs):
                assert f == mu(x) and f.total_length == mu(x).total_length


def test_mu_many_edge_cases():
    assert mu_many([]) == []
    a, b = FiniteAlgebra.full(2), FiniteAlgebra.full(3)
    mixed = [a.identity(), b.identity(), a.zero()]
    assert ([float_bits(f.pieces) for f in mu_many(mixed)]
            == [float_bits(mu(x).pieces) for x in mixed])


def test_stacked_lapack_matches_single_calls():
    rng = np.random.default_rng(7)
    for d in range(1, 6):
        for scale in (1e-12, 2.0 ** -30, 1e-3, 1.0, 2.0 ** 7, 1e6, 1e12):
            general = scale * (rng.standard_normal((12, d, d))
                               + 1j * rng.standard_normal((12, d, d)))
            herm = (general + general.conj().swapaxes(1, 2)) / 2.0
            assert np.array_equal(herm, herm.conj().swapaxes(1, 2))
            stacked_svd = np.linalg.svd(general, compute_uv=False)
            stacked_eig = np.linalg.eigvalsh(herm)
            for i in range(12):
                assert np.array_equal(stacked_svd[i], np.linalg.svd(general[i], compute_uv=False))
                assert np.array_equal(stacked_eig[i], np.linalg.eigvalsh(herm[i]))
            mixed = np.concatenate([general[:5], herm[:5], np.zeros((1, d, d), complex)])
            mixed = mixed[rng.permutation(len(mixed))]
            rows = stacked_singular_values(mixed)
            for k in range(len(mixed)):
                assert rows[k].tobytes() == block_singular_values(mixed[k]).tobytes()


def _report_bits(report):
    return (report.passed, report.trials,
            tuple((v.axiom, v.witness, float_bits(v.magnitude)) for v in report.axiom_violations),
            tuple(sorted((k, float_bits(v)) for k, v in report.stats.items())))


def _axiom_samples(seed, alg_dims, count):
    rng = rng_for(seed, "axioms-diff")
    alg = FiniteAlgebra(tuple((d, float(rng.uniform(0.5, 2.0))) for d in alg_dims))
    samples = [gaussian(alg, rng) for _ in range(count)]
    samples[1] = 2.0 ** -60 * samples[1]          # a pair too small for the quasi-triangle test
    samples[2] = 2.0 ** -60 * samples[2]
    return samples


@pytest.mark.parametrize("spec", _norm_variants(), ids=lambda s: type(s).__name__)
def test_check_delta_axioms_matches_frozen(spec):
    for seed, dims, count in ((1, (2, 3), 12), (2, (1,), 3), (3, (4, 1, 2), 9)):
        samples = _axiom_samples(seed, dims, count)
        assert (_report_bits(check_delta_axioms(spec, samples))
                == _report_bits(frozen_check_delta_axioms(spec, samples)))


@pytest.mark.parametrize("spec", _norm_variants(), ids=lambda s: type(s).__name__)
def test_check_delta_axioms_matches_frozen_on_failures(spec):
    saved = tolerances()
    with overridden_tolerances(norm=-0.5):
        samples = _axiom_samples(4, (2, 2), 10)
        new = check_delta_axioms(spec, samples)
        old = frozen_check_delta_axioms(spec, samples)
    assert tolerances() == saved
    axioms = {v.axiom for v in new.axiom_violations}
    assert {"contractivity", "continuity-at-0"} <= axioms
    assert _report_bits(new) == _report_bits(old)


# ---------------------------------------------------------------------------
# The array tail of mu_many against the frozen per-operator
# tail (``frozen_mu_of_singular_values``): pieces, values, widths and
# total_length, bit for bit.

def _frozen_arrays(x):
    pieces = frozen_mu_of_singular_values(
        x.algebra, [frozen_block_singular_values(b) for b in x.blocks], tolerances().alg)
    return (float_bits(pieces), float_bits([v for v, _ in pieces]),
            float_bits([w for _, w in pieces]), float_bits(frozen_total_length(pieces)))


def _arrays_bits(values, widths, length):
    assert values.dtype == widths.dtype == np.float64
    assert not values.flags.writeable and not widths.flags.writeable
    return (float_bits(tuple(zip(values.tolist(), widths.tolist()))),
            float_bits(values.tolist()), float_bits(widths.tolist()), float_bits(length))


def _assert_tail_matches_frozen(xs):
    expected = [_frozen_arrays(x) for x in xs]
    fs = mu_many(xs)
    assert [_arrays_bits(f.values, f.widths, f.total_length) for f in fs] == expected
    assert [float_bits(f.pieces) for f in fs] == [e[0] for e in expected]
    # the same operators one at a time (the cascade for every row)
    assert [_arrays_bits(f.values, f.widths, f.total_length)
            for f in map(mu, xs)] == expected


# an algebra per shape of mu: scalars, a 2x2 block, several weighted
# blocks, and 11 or 12 singular values (8 or more pieces: numpy sums the
# widths pairwise, not left to right; the 11 weights of the last algebra
# add up to 11.7 pairwise but to 11.699999999999998 left to right, as a
# zero tail adds them)
TAIL_ALGEBRAS = (FiniteAlgebra.full(1), FiniteAlgebra.full(2, 0.5),
                 FiniteAlgebra(((2, 1.0), (1, 0.25), (3, 2.0))),
                 FiniteAlgebra(((4, 1.0), (4, 0.5), (3, 3.0))),
                 FiniteAlgebra(((4, 0.1), (4, 0.7), (4, 1.3))),
                 FiniteAlgebra(((4, 1.3), (4, 1.1), (3, 0.7))))


def _tail_operators(alg, rng):
    """Zero, identity, projections, rank-one, Gaussian and hermitian
    operators, and diagonals with neighbours closer than the snap."""
    tol = tolerances().alg
    g = gaussian(alg, rng)
    rank_one = []
    for d in alg.dims:
        a = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
        rank_one.append(a @ a.conj().T)
    near = []
    for d in alg.dims:
        base = rng.uniform(0.5, 2.0)
        near.append([base * (1.0 + 0.4 * tol * k) for k in range(d)])
    return [alg.zero(), alg.identity(),
            alg.diagonal([[1.0] * d if k == 0 else [0.0] * d for k, d in enumerate(alg.dims)]),
            alg.diagonal([[float(k % 2) for k in range(d)] for d in alg.dims]),
            alg.operator(rank_one), g,
            alg.operator([(b + b.conj().T) / 2.0 for b in gaussian(alg, rng).blocks]),
            alg.diagonal(near), alg.diagonal([[1.0 + 2.0 * tol] + [1.0] * (d - 1)
                                              for d in alg.dims])]


def test_mu_tail_matches_frozen_on_scaled_operators():
    rng = rng_for(2718, "mu-tail")
    for alg in TAIL_ALGEBRAS:
        ops = _tail_operators(alg, rng)
        g = ops[5]
        # 2^-k x down to k = 60, in one batch: the array pass
        _assert_tail_matches_frozen([2.0 ** -k * g for k in range(61)])
        for scale in (1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-9, 1e-3, 1.0, 3.0,
                      1e9, 1e12, 1e50, 1e100, 1e150):
            _assert_tail_matches_frozen([scale * x for x in ops])


def test_mu_tail_matches_frozen_on_one_batch_of_mixed_algebras():
    rng = rng_for(2718, "mu-tail-mixed")
    ops = [scale * x for alg in TAIL_ALGEBRAS for x in _tail_operators(alg, rng)
           for scale in (1e-120, 2.0 ** -30, 1.0, 1e40)]
    ops += [x for alg in _algebras(rng, 40) for x in _operator_zoo(alg, rng, 1.0)]
    order = rng.permutation(len(ops))
    _assert_tail_matches_frozen([ops[i] for i in order])


def test_mu_tail_small_and_large_groups():
    # groups of every size around the one where the array pass takes over
    rng = rng_for(2718, "mu-tail-groups")
    alg = TAIL_ALGEBRAS[2]
    for count in range(1, 10):
        _assert_tail_matches_frozen([gaussian(alg, rng) for _ in range(count)])
        _assert_tail_matches_frozen([alg.identity()] * count)


def test_mu_tail_on_non_finite_singular_values_raises_like_frozen():
    # an infinite hermitian block: the eigensolver returns NaN
    alg = FiniteAlgebra(((2, 1.0), (1, 0.5)))
    bad = alg.diagonal([[math.inf, 1.0], [2.0]])
    for xs in ([bad], [bad] * 9, [alg.identity()] * 8 + [bad]):
        with pytest.raises(ValueError) as new:
            mu_many(xs)
        with pytest.raises(ValueError) as old:
            [_frozen_arrays(x) for x in xs]
        assert str(new.value) == str(old.value)


def test_mu_rank_cut_and_snap_are_relative_at_every_scale():
    """mu(c x) has the pieces of mu(x) with values times c, down to c = 1e-14,
    through the cascade (one operator) and the array pass (a batch): the
    rank cut and the snap scale with the largest singular value."""
    alg = FiniteAlgebra.full(2)
    assert mu(alg.diagonal([[3e-12, 2e-12]])).pieces == ((3e-12, 1.0), (2e-12, 1.0))
    assert fk_determinant(alg.diagonal([[1e-12, 5e-13]])) == pytest.approx(5e-25, rel=1e-12)
    rng = rng_for(2718, "mu-relative")
    for alg in TAIL_ALGEBRAS:
        ops = _tail_operators(alg, rng)
        base = mu_many(ops)
        for c in (1e-14, 1e-11, 1e-6, 1e6):
            for scaled in (mu_many([c * x for x in ops]), [mu(c * x) for x in ops]):
                for f, g in zip(scaled, base):
                    assert f.widths.tolist() == pytest.approx(g.widths.tolist(), rel=1e-12)
                    assert f.values.tolist() == pytest.approx((c * g.values).tolist(),
                                                              rel=1e-12, abs=0.0)


def test_check_delta_axioms_rejects_samples_of_different_algebras():
    # same block dimensions, different weights: one packed batch cannot hold them
    x = FiniteAlgebra(((2, 1.0),)).identity()
    y = FiniteAlgebra(((2, 0.5),)).identity()
    for samples in ([x, y], [x, x, y]):
        with pytest.raises(ShapeMismatch, match="different algebras"):
            check_delta_axioms(LogF(), samples)
