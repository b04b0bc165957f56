"""The trial-stacked samplers: every ``Sampler`` batch, ``draw_batch`` and
``disjoint_psd_pairs`` against the frozen per-trial samplers of
tests/oracles.py (two ``standard_normal`` calls per block and ``Operator``
arithmetic), bit for bit and with each stream left where the per-trial
draw leaves it; and ``spectral_projection_many`` against the projection of
each decomposition."""

import functools

import numpy as np
import pytest

from logmaj import FiniteAlgebra, Lp, check_delta_axioms
from logmaj.algebra import (Operator, OperatorBatch, spectral_decompose,
                            spectral_projection_many)
from logmaj.errors import NotHermitian
from logmaj.sampling import (GAUSSIAN, HERMITIAN, INVERTIBLE_PSD, PSD, RANK_ONE_PSD, UNITARY,
                             Sampler, disjoint_psd_pairs, draw_batch, psd, rng_for, unitaries,
                             unitary)
from logmaj.suites import _norm_variants

from oracles import (float_bits, frozen_check_delta_axioms, frozen_disjoint_psd_pair,
                     frozen_gaussian, frozen_hermitian, frozen_psd, frozen_rank_one_psd,
                     frozen_unitary)

FROZEN = {GAUSSIAN: frozen_gaussian, HERMITIAN: frozen_hermitian, PSD: frozen_psd,
          INVERTIBLE_PSD: functools.partial(frozen_psd, delta=1e-3),
          RANK_ONE_PSD: frozen_rank_one_psd}
SAMPLERS = tuple(FROZEN)
# 1 to 3 blocks of dimension 1 to 4
ALGEBRAS = (FiniteAlgebra.full(1), FiniteAlgebra.full(4), FiniteAlgebra(((2, 0.5), (3, 1.5))),
            FiniteAlgebra(((1, 0.7), (4, 1.0), (2, 2.0))),
            FiniteAlgebra(((3, 1.0), (3, 0.5), (1, 1.0))))


def _bits(blocks) -> tuple:
    """Each block's entries as floats and their sign bits (so that
    -0.0 != 0.0)."""
    return tuple((b.view(float).tobytes(), np.signbit(b.view(float)).tobytes())
                 for b in blocks)


def _batch_bits(batch: OperatorBatch) -> list:
    return [_bits(batch[i].blocks) for i in range(len(batch))]


def _streams(label: str, n: int) -> list:
    return [rng_for(11, label, i) for i in range(n)]


@pytest.mark.parametrize("n", [1, 8, 64])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: str(a.dims))
def test_batch_samplers_match_the_frozen_per_trial_samplers(alg, n):
    for sampler, frozen in FROZEN.items():
        label = f"batch:{alg.dims}"
        new, old = _streams(label, n), _streams(label, n)
        batch = draw_batch(alg, new, [sampler] * n)
        assert _batch_bits(batch) == [_bits(frozen(alg, rng).blocks) for rng in old]
        assert [rng.uniform() for rng in new] == [rng.uniform() for rng in old]
        # one stream, n draws in one call: the factorisation and norm-axiom inputs
        one, ref = rng_for(12, label), rng_for(12, label)
        batch = sampler.batch(alg, one.standard_normal((n, sampler.size(alg))))
        assert _batch_bits(batch) == [_bits(frozen(alg, ref).blocks) for _ in range(n)]
        assert one.uniform() == ref.uniform()
        # the one-row case
        one, ref = rng_for(13, label), rng_for(13, label)
        assert _bits(sampler.draw(alg, one).blocks) == _bits(frozen(alg, ref).blocks)
        assert one.uniform() == ref.uniform()


@pytest.mark.parametrize("n", [0, 1, 8, 64])
def test_mixed_draw_batch_keeps_trial_order(n):
    for alg in ALGEBRAS:
        kinds = [SAMPLERS[(3 * t + 1) % len(SAMPLERS)] for t in range(n)]
        new, old = _streams(f"mixed:{alg.dims}", n), _streams(f"mixed:{alg.dims}", n)
        batch = draw_batch(alg, new, kinds)
        assert batch.rows.shape == (n, alg.vector_dim)
        assert _batch_bits(batch) == [_bits(FROZEN[k](alg, rng).blocks)
                                      for k, rng in zip(kinds, old)]
        assert [rng.uniform() for rng in new] == [rng.uniform() for rng in old]


def test_an_equal_sampler_built_twice_draws_the_same_rows():
    alg = ALGEBRAS[3]
    twin = Sampler(PSD.assemble)
    new, old = _streams("twin", 6), _streams("twin", 6)
    batch = draw_batch(alg, new, [PSD, twin] * 3)
    assert _batch_bits(batch) == [_bits(frozen_psd(alg, rng).blocks) for rng in old]


@pytest.mark.parametrize("delta", [0.0, 1e-3, 0.25])
def test_psd_with_any_delta_matches_frozen(delta):
    for alg in ALGEBRAS:
        new, old = (rng_for(14, "psd-delta", alg.vector_dim) for _ in range(2))
        assert _bits(psd(alg, new, delta).blocks) == _bits(frozen_psd(alg, old, delta).blocks)
        assert new.uniform() == old.uniform()


def test_unitary_draws_take_one_call_with_the_same_bits():
    """A unitary's normals are one call, and its blocks are the frozen
    per-block draws' (two calls per block, one QR each)."""
    for alg in ALGEBRAS:
        new, old = rng_for(15, "unitary-draws"), rng_for(15, "unitary-draws")
        normals = UNITARY.normals(alg, new)
        assert _bits(unitaries([alg], [normals])[0].blocks) == _bits(
            frozen_unitary(alg, old).blocks)
        assert new.uniform() == old.uniform()
        one, ref = rng_for(15, "unitary-draw"), rng_for(15, "unitary-draw")
        assert _bits(unitary(alg, one).blocks) == _bits(frozen_unitary(alg, ref).blocks)
        assert one.uniform() == ref.uniform()


@pytest.mark.parametrize("n", [0, 1, 8, 64])
def test_disjoint_pairs_match_frozen_and_leave_the_same_streams(n):
    for alg in ALGEBRAS:
        new, old = _streams(f"disjoint:{alg.dims}", n), _streams(f"disjoint:{alg.dims}", n)
        xs, ys = disjoint_psd_pairs(alg, new)
        want = [frozen_disjoint_psd_pair(alg, rng) for rng in old]
        assert _batch_bits(xs) == [_bits(x.blocks) for x, _ in want]
        assert _batch_bits(ys) == [_bits(y.blocks) for _, y in want]
        assert [rng.uniform() for rng in new] == [rng.uniform() for rng in old]


def test_check_delta_axioms_takes_the_batch_with_the_frozen_bits():
    for alg in ALGEBRAS:
        batch = GAUSSIAN.batch(alg, rng_for(16, "axioms").standard_normal((9, GAUSSIAN.size(alg))))
        ops = [batch[i] for i in range(len(batch))]
        for spec in _norm_variants():
            new, old = check_delta_axioms(spec, batch), frozen_check_delta_axioms(spec, ops)
            assert (float_bits([(v.axiom, v.witness, v.magnitude) for v in new.axiom_violations])
                    == float_bits([(v.axiom, v.witness, v.magnitude)
                                   for v in old.axiom_violations]))
            assert float_bits(sorted(new.stats.items())) == float_bits(sorted(old.stats.items()))
            assert (new.passed, new.trials) == (old.passed, old.trials)
    with pytest.raises(ValueError):
        check_delta_axioms(Lp(1.0), OperatorBatch(alg, batch.rows[:1]))


# ---------------------------------------------------------------------------
# spectral_projection_many against the projection of each decomposition


def _projection_bits(xs: OperatorBatch, lowers, upper=float("inf")) -> tuple[list, list]:
    new = _batch_bits(spectral_projection_many(xs, lowers, upper))
    old = [_bits(spectral_decompose(xs[i]).projection(lo, upper).blocks)
           for i, lo in enumerate(lowers)]
    return new, old


def test_spectral_projection_many_on_ties_exact_cuts_and_all_or_nothing_rows():
    alg = FiniteAlgebra(((3, 1.0), (2, 0.5), (1, 2.0)))
    rng = np.random.default_rng(17)
    ops = []
    for beta in (-1.0, 0.0, 0.5, 2.0):
        ops.append(beta * alg.identity())                      # one tied eigenvalue per block
        ops.append(alg.diagonal([[beta, beta, 1.0], [beta, -beta], [beta]]))
    ops += [HERMITIAN.draw(alg, rng_for(17, "proj", i)) for i in range(6)]
    xs = OperatorBatch.of(alg, [x.blocks for x in ops])
    spectra = [np.concatenate(spectral_decompose(x).eigenvalues).tolist() for x in ops]
    # cuts on one of the row's own eigenvalues, below every one (all kept),
    # above every one (none kept) and at random
    for lowers in ([w[i % len(w)] for i, w in enumerate(spectra)],
                   [w[-1] for w in spectra],
                   [-10.0] * len(ops), [10.0] * len(ops),
                   list(rng.uniform(-1.0, 1.0, size=len(ops)))):
        new, old = _projection_bits(xs, lowers)
        assert new == old
    # a finite upper end that lands on an eigenvalue
    new, old = _projection_bits(xs, [-0.5] * len(ops), upper=0.5)
    assert new == old
    empty = OperatorBatch(alg, np.zeros((0, alg.vector_dim)))
    assert spectral_projection_many(empty, []).rows.shape == (0, alg.vector_dim)


def test_spectral_projection_many_rejects_a_non_hermitian_row():
    alg = FiniteAlgebra.full(2)
    bad = Operator(alg, [np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
    xs = OperatorBatch.of(alg, [alg.identity().blocks, bad.blocks])
    with pytest.raises(NotHermitian):
        spectral_projection_many(xs, [0.0, 0.0])
