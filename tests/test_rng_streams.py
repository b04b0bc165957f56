"""``rng_streams`` restates numpy's SeedSequence mixing in uint32 array
arithmetic.  Every stream it builds, and every ``rng_for`` stream, must
equal the frozen one-SeedSequence-per-trial derivation of tests/oracles.py
on its PCG64 state and on its next draws, for any seed, label and trial
numpy accepts (multi-word integers included) and at every trial count,
and must reject a negative one as numpy does.  A trial range is built in
one ``rng_streams`` call: during a run of every suite and one
``analyze``, ``rng_for`` serves single streams only."""

import collections
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logmaj
from logmaj import FiniteAlgebra, Lp, analyze
from logmaj.sampling import rng_for, rng_streams
from logmaj.suites import RunConfig, run_suites

from oracles import frozen_rng_for

SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 10 ** 30)
LABELS = ("", "iso-support", "é", "näïve:Σ→∞", "\U0001d49c" * 40)
TRIALS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40)


def _same_stream(rng, ref) -> bool:
    """Equal PCG64 state, then equal draws of three kinds."""
    return (rng.bit_generator.state == ref.bit_generator.state
            and rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
            and rng.integers(0, 2 ** 62, 3).tolist() == ref.integers(0, 2 ** 62, 3).tolist()
            and rng.uniform(size=2).tobytes() == ref.uniform(size=2).tobytes())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", LABELS)
def test_streams_match_frozen_on_fixed_cases(seed, label):
    streams = rng_streams(seed, label, TRIALS)
    assert len(streams) == len(TRIALS)
    for rng, trial in zip(streams, TRIALS):
        assert _same_stream(rng, frozen_rng_for(seed, label, trial)), trial
        assert _same_stream(rng_for(seed, label, trial), frozen_rng_for(seed, label, trial))


def test_trial_containers():
    cases = [(range(5), list(range(5))), (range(3, 70), list(range(3, 70))),
             (range(2 ** 32 - 2, 2 ** 32 + 2), list(range(2 ** 32 - 2, 2 ** 32 + 2))),
             ([7, 0, 7, 2 ** 40, 3], [7, 0, 7, 2 ** 40, 3]), ((4,), [4]),
             (np.arange(6), list(range(6))),
             ([np.int64(9), np.uint32(2), np.uint64(2 ** 33)], [9, 2, 2 ** 33]),
             (iter([5, 1]), [5, 1]), (range(0), [])]
    for trials, listed in cases:
        streams = rng_streams(np.int64(3), "containers", trials)
        assert len(streams) == len(listed)
        for rng, trial in zip(streams, listed):
            assert _same_stream(rng, frozen_rng_for(3, "containers", trial)), (trials, trial)
    # int() coercion, as before: a float seed or trial that is an integer
    assert _same_stream(rng_for(2.0, "coerced", 3.0), frozen_rng_for(2, "coerced", 3))


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (-(2 ** 40), 1), (5, -(2 ** 33)),
                                         (np.int64(-2), 0), (0, np.int64(-1))])
def test_negative_inputs_raise_numpy_error(seed, trial):
    for build in (frozen_rng_for, rng_for, lambda s, label, t: rng_streams(s, label, [0, t, 1])):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            build(seed, "negative", trial)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 40])
def test_every_trial_count_gives_the_streams_of_one_at_a_time(n):
    for seed, first in ((5, 0), (2 ** 64 + 3, 2 ** 32 - n // 2)):   # one and two words
        trials = range(first, first + n)
        streams = rng_streams(seed, "counts", trials)
        assert len(streams) == n
        for rng, trial in zip(streams, trials):
            assert _same_stream(rng, rng_streams(seed, "counts", [trial])[0]), (n, trial)
            assert _same_stream(rng_for(seed, "counts", trial),
                                frozen_rng_for(seed, "counts", trial)), (n, trial)


def test_streams_are_independent_objects():
    # each stream has its own state: drawing from one leaves the others
    a, b = rng_streams(8, "independent", [4, 4])
    ref = frozen_rng_for(8, "independent", 4)
    a.standard_normal(10)
    assert _same_stream(b, ref)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 130), label=st.text(max_size=12),
       trials=st.lists(st.integers(0, 2 ** 70), max_size=6))
def test_streams_match_frozen(seed, label, trials):
    streams = rng_streams(seed, label, trials)
    assert len(streams) == len(trials)
    for rng, trial in zip(streams, trials):
        assert _same_stream(rng, frozen_rng_for(seed, label, trial))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 70), label=st.text(max_size=8), trial=st.integers(0, 2 ** 70))
def test_rng_for_matches_frozen(seed, label, trial):
    assert _same_stream(rng_for(seed, label, trial), frozen_rng_for(seed, label, trial))


# rng_for's callers that build one stream, not a range: each norm
# variant's sample, the stacking probe and the factorisation test set of
# analyze
_SINGLE_STREAM_SITES = {"suite_norm_axioms", "_probe_stacking", "analyze"}


def test_rng_for_serves_single_streams_only(monkeypatch):
    singles = collections.Counter()
    ranges = set()

    def recording_rng_for(seed, label, trial=0):
        site = sys._getframe(1).f_code.co_name
        singles[site, seed, label, trial] += 1
        return rng_for(seed, label, trial)

    def recording_rng_streams(seed, label, trials):
        ranges.add(sys._getframe(1).f_code.co_name)
        return rng_streams(seed, label, trials)

    for module in vars(logmaj).values():
        if getattr(module, "__name__", "").startswith("logmaj."):
            if hasattr(module, "rng_for"):
                monkeypatch.setattr(module, "rng_for", recording_rng_for)
            if hasattr(module, "rng_streams"):
                monkeypatch.setattr(module, "rng_streams", recording_rng_streams)
    assert run_suites(RunConfig(seed=1, trials=10))["passed"]
    alg = FiniteAlgebra(((2, 1.0), (1, 0.5)))
    assert analyze(logmaj.LinearMap.identity(alg), Lp(2.0), Lp(2.0), trials=10, seed=100).passed
    assert {site for site, *_ in singles} == _SINGLE_STREAM_SITES
    # one stream per site, seed and label: no site loops over trials
    repeated = [key for key, count in singles.items() if count > 1]
    assert not repeated, repeated
    assert {"_sandwich_pairs", "suite_product", "suite_mu_rigidity", "suite_projection_rigidity",
            "_disjoint_trials", "_trial_streams", "check_symmetric_many", "check_slm_many",
            "analyze",
            "check_surjective_reflection"} <= ranges, ranges
