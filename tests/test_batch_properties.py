"""Property tests: on generated operators, ``mu_many`` and
the batched norm evaluation equal the frozen one-operator-at-a-time
copies (tests/oracles.py), bit for bit; and on generated algebras and
batch sizes, the trial-stacked samplers equal the frozen per-trial
samplers."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from logmaj import FiniteAlgebra  # noqa: E402
from logmaj.norms import evaluate_norms, evaluate_norms_mu, norm_label  # noqa: E402
from logmaj.sampling import (GAUSSIAN, HERMITIAN, INVERTIBLE_PSD, PSD,  # noqa: E402
                             RANK_ONE_PSD, disjoint_psd_pairs, draw_batch, rng_for)
from logmaj.stepfun import mu_many  # noqa: E402
from logmaj.suites import _norm_variants  # noqa: E402

from oracles import (float_bits, frozen_disjoint_psd_pair, frozen_evaluate_norm_mu,  # noqa: E402
                     frozen_gaussian, frozen_hermitian, frozen_mu, frozen_mu_pieces,
                     frozen_psd, frozen_rank_one_psd)

# exact repeats among the entries make ties and zero singular values
ENTRIES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
                    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))


@st.composite
def algebras(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    weights = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),
                            min_size=len(dims), max_size=len(dims)))
    return FiniteAlgebra(tuple(zip(dims, weights)))


@st.composite
def operators_on(draw, alg):
    kind = draw(st.sampled_from(["general", "hermitian", "diagonal"]))
    scale = draw(st.sampled_from([2.0 ** -60, 1e-300, 1e-12, 1.0, 1e12, 1e150]))
    blocks = []
    for d in alg.dims:
        if kind == "diagonal":
            blocks.append(np.diag(draw(st.lists(ENTRIES, min_size=d, max_size=d))))
            continue
        re = np.array(draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d))).reshape(d, d)
        im = np.array(draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d))).reshape(d, d)
        b = re + 1j * im
        blocks.append((b + b.conj().T) / 2.0 if kind == "hermitian" else b)
    return scale * alg.operator(blocks)


@st.composite
def batches(draw):
    """Up to 12 operators on one algebra, with copies scaled by 2^-k (so
    that a batch often has enough of them for the array pass), and a few
    on other algebras, shuffled."""
    alg = draw(algebras())
    ops = draw(st.lists(operators_on(alg), min_size=1, max_size=12))
    ops = [2.0 ** -k * x for k in range(draw(st.integers(1, 3))) for x in ops]
    for other in draw(st.lists(algebras(), max_size=3)):
        ops.append(draw(operators_on(other)))
    return draw(st.permutations(ops))


@settings(max_examples=60, deadline=None)
@given(batches())
def test_mu_many_equals_frozen_mu(xs):
    expected = [float_bits(frozen_mu_pieces(x)) for x in xs]
    assert [float_bits(f.pieces) for f in mu_many(xs)] == expected
    assert ([float_bits(tuple(zip(f.values.tolist(), f.widths.tolist()))) for f in mu_many(xs)]
            == expected)
    assert ([float_bits(f.total_length) for f in mu_many(xs)]
            == [float_bits(frozen_mu(x).total_length) for x in xs])


@settings(max_examples=40, deadline=None)
@given(batches())
def test_batched_norms_equal_frozen_norms(xs):
    mus = [frozen_mu(x) for x in xs]
    for spec in _norm_variants():
        expected = float_bits([frozen_evaluate_norm_mu(spec, f) for f in mus])
        assert float_bits(evaluate_norms(spec, xs)) == expected, norm_label(spec)
        assert float_bits(evaluate_norms_mu(spec, mu_many(xs))) == expected, norm_label(spec)


SAMPLERS = ((GAUSSIAN, frozen_gaussian), (HERMITIAN, frozen_hermitian), (PSD, frozen_psd),
            (INVERTIBLE_PSD, lambda alg, rng: frozen_psd(alg, rng, delta=1e-3)),
            (RANK_ONE_PSD, frozen_rank_one_psd))


def _rows_bits(xs) -> list:
    return [float_bits(xs[i].blocks[k].view(float).tolist())
            for i in range(len(xs)) for k in range(xs.algebra.n_blocks)]


@settings(max_examples=60, deadline=None)
@given(algebras(), st.lists(st.integers(0, len(SAMPLERS) - 1), max_size=20),
       st.integers(0, 2 ** 32 - 1))
def test_draw_batch_equals_the_frozen_per_trial_samplers(alg, kinds, seed):
    fresh = [rng_for(seed, "property-samplers", t) for t in range(len(kinds))]
    batch = draw_batch(alg, fresh, [SAMPLERS[k][0] for k in kinds])
    old = [rng_for(seed, "property-samplers", t) for t in range(len(kinds))]
    want = [SAMPLERS[k][1](alg, rng) for k, rng in zip(kinds, old)]
    assert _rows_bits(batch) == [float_bits(x.blocks[k].view(float).tolist())
                                 for x in want for k in range(alg.n_blocks)]
    assert [rng.uniform() for rng in fresh] == [rng.uniform() for rng in old]


@settings(max_examples=30, deadline=None)
@given(algebras(), st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_disjoint_psd_pairs_equal_the_frozen_pairs(alg, n, seed):
    xs, ys = disjoint_psd_pairs(alg, [rng_for(seed, "property-disjoint", t) for t in range(n)])
    want = [frozen_disjoint_psd_pair(alg, rng_for(seed, "property-disjoint", t))
            for t in range(n)]
    assert _rows_bits(xs) == [float_bits(x.blocks[k].view(float).tolist())
                              for x, _ in want for k in range(alg.n_blocks)]
    assert _rows_bits(ys) == [float_bits(y.blocks[k].view(float).tolist())
                              for _, y in want for k in range(alg.n_blocks)]
