"""The complete Størmer classification: ``stormer_split`` checks both
multiplication laws on every pair of domain matrix units.  Its kinds and
projections must match, bit for bit, the frozen copy of the sampled
classifier it replaced (tests/oracles.py) on generated plans, and a map
that satisfies neither law must be rejected on every call."""

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LinearMap, random_jordan, random_plan, stormer_split
from logmaj.errors import ClassificationFailure
from logmaj.jordan import (JordanCertificate, JordanMap, _commutation_system,
                           _generated_algebra)
from logmaj.sampling import rng_for

from oracles import float_bits, frozen_stormer_split


def _split_bits(split):
    return (split.kinds,
            tuple(float_bits(b.real.tolist()) + float_bits(b.imag.tolist())
                  for p in split.projections for b in p.blocks))


def _plans():
    for trial in range(64):
        yield random_plan(rng_for(140, "stormer-frozen", trial), fanout=bool(trial % 2))
    # the fan-out trial of suite_stormer_roundtrip(2, 1365990320)
    yield random_plan(rng_for(1365990320, "stormer-roundtrip", 1), fanout=True)


def test_split_matches_frozen_sampled_classifier():
    kinds = set()
    for plan in _plans():
        J = random_jordan(plan.domain, plan)
        split = stormer_split(J)
        assert _split_bits(split) == _split_bits(frozen_stormer_split(J)), plan
        kinds.add(split.kinds)
    assert _commutation_system(_generated_algebra(J.map))[1].shape[0] == 3536
    assert ("hom",) in kinds and ("anti",) in kinds
    assert any(len(set(k)) == 2 for k in kinds)  # mixed hom/anti splits


def test_split_rejects_map_breaking_both_laws_on_every_call():
    # identity on M_2 with one entry off by 1e-6: neither law holds
    alg = FiniteAlgebra.full(2)
    m = np.eye(alg.vector_dim, dtype=complex)
    m[0, 0] = 1.0 + 1e-6
    J = JordanMap(LinearMap(alg, alg, m), JordanCertificate(True, True, True, 0.0))
    for _ in range(2):
        with pytest.raises(ClassificationFailure,
                           match=r"neither hom \(res 1\.00e-06\) nor "
                                 r"anti-hom \(res 1\.41e\+00\)"):
            stormer_split(J)
