"""The complete Størmer classification: ``stormer_split`` checks both
multiplication laws on every pair of domain matrix units.  Its kinds and
projections must match, bit for bit, the frozen copy of the sampled
classifier it replaced (tests/oracles.py) on generated plans, and a map
that satisfies neither law must be rejected on every call.  The
generated-algebra closure, the commutation system and the law residuals
must match their frozen copies bit for bit, and the closure must take an
SVD only for a round that grows the span."""

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LinearMap, random_jordan, random_plan, stormer_split
from logmaj import jordan
from logmaj.config import tolerances
from logmaj.errors import ClassificationFailure
from logmaj.jordan import (JordanCertificate, JordanMap, JordanPlan, PlanEntry,
                           _commutation_system, _generated_algebra, _law_defects,
                           _law_residual, _stormer_split, vectorize)
from logmaj.sampling import rng_for

from oracles import (float_bits, frozen_commutation_system, frozen_generated_algebra,
                     frozen_law_residual, frozen_stormer_split)


def _split_bits(split):
    return (split.kinds,
            tuple(float_bits(b.real.tolist()) + float_bits(b.imag.tolist())
                  for p in split.projections for b in p.blocks))


def _plans():
    for trial in range(64):
        yield random_plan(rng_for(140, "stormer-frozen", trial), fanout=bool(trial % 2))
    # the fan-out trial of suite_stormer_roundtrip(2, 1365990320)
    yield random_plan(rng_for(1365990320, "stormer-roundtrip", 1), fanout=True)


def _basis_bytes(ops) -> bytes:
    return np.array([vectorize(a) for a in ops]).tobytes()


def test_split_matches_frozen_sampled_classifier():
    tol = tolerances().jordan
    kinds = set()
    for plan in _plans():
        J = random_jordan(plan.domain, plan)
        split, defects = _stormer_split(J)
        assert _split_bits(split) == _split_bits(frozen_stormer_split(J)), plan
        kinds.add(split.kinds)
        # the closure, the commutation system and every law residual
        # against their frozen copies, bit for bit
        ops = _generated_algebra(J.map)
        assert _basis_bytes(ops) == np.array(frozen_generated_algebra(J.map)).tobytes(), plan
        span, system = _commutation_system(ops)
        assert system.tobytes() == frozen_commutation_system(span, J.codomain).tobytes()
        checks = [(law, p) for p in split.projections for law in (0, 1)]
        for law, p in checks + [(0, split.z), (1, split.unit - split.z)]:
            assert (float_bits(_law_residual(defects, law, p))
                    == float_bits(frozen_law_residual(defects, law, p))), plan
        assert split.kinds == tuple("hom" if frozen_law_residual(defects, 0, p) <= tol
                                    else "anti" for p in split.projections)
    assert system.shape[0] == 3536
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


def test_closure_takes_an_svd_only_for_a_growth_round(monkeypatch):
    calls = []
    span = jordan._orthonormal_span
    monkeypatch.setattr(jordan, "_orthonormal_span",
                        lambda vectors, tol: calls.append(len(vectors)) or span(vectors, tol))
    m2 = FiniteAlgebra.full(2)
    # a closed range (x -> u x^T u*): one SVD, of the range, and no round
    closed = JordanPlan(m2, m2, (PlanEntry(0, 0, True, 7),))
    # x -> x (+) u x^T u*: the span grows 4 -> 7 -> 8 = dim(M_2 (+) M_2) in
    # two rounds of m + m + m^2 rows each; the round that confirms 8 takes none
    fanout = JordanPlan(m2, FiniteAlgebra(((2, 1.0), (2, 0.5))),
                        (PlanEntry(0, 0, False, 3), PlanEntry(0, 1, True, 5)))
    for plan, sizes in ((closed, [4]), (fanout, [4, 4 + 4 + 16, 7 + 7 + 49])):
        J = random_jordan(plan.domain, plan)
        calls.clear()
        ops = _generated_algebra(J.map)
        assert calls == sizes
        assert len(ops) == plan.codomain.vector_dim
        assert _basis_bytes(ops) == np.array(frozen_generated_algebra(J.map)).tobytes()


def _fanout_3536():
    """trial 1 of suite_stormer_roundtrip(2, 1365990320): its commutation
    system has 3536 rows, and most blocks of each central projection are
    zero"""
    plan = random_plan(rng_for(1365990320, "stormer-roundtrip", 1), fanout=True)
    return random_jordan(plan.domain, plan)


def test_law_residual_skips_zero_blocks_with_the_frozen_bits():
    J = _fanout_3536()
    split, defects = _stormer_split(J)
    assert all(finite for *_, finite in defects)
    zero = [not b.any() for p in split.projections for b in p.blocks]
    assert len(zero) == 20 and sum(zero) == 15
    for p in split.projections + (split.z, split.unit - split.z):
        for law in (0, 1):
            assert float_bits(_law_residual(defects, law, p)) == float_bits(
                frozen_law_residual(defects, law, p))
    # a projection that is zero on every block skips every block: +0.0
    assert float_bits(_law_residual(defects, 0, J.codomain.zero())) == float_bits(0.0)


def test_non_finite_law_table_reaches_the_residual():
    """A NaN in a block's defects must reach the residual even where the
    projection is zero on that block (0 * NaN is NaN), so the split fails;
    unit images too large to rule out an overflow to inf skip no block
    either."""
    J = _fanout_3536()
    split, _ = _stormer_split(J)
    p = split.projections[0]
    k = next(k for k, b in enumerate(p.blocks) if not b.any())
    row = sum(d * d for d in J.codomain.dims[:k])  # the first entry of block k
    for poison in (np.nan, 1e200):
        matrix = np.array(J.map.matrix)
        matrix[row, 0] = poison
        with np.errstate(over="ignore", invalid="ignore"):
            defects = _law_defects(LinearMap(J.domain, J.codomain, matrix))
            assert [finite for *_, finite in defects] == [b != k for b in
                                                           range(J.codomain.n_blocks)]
            for law in (0, 1):
                assert np.isnan(_law_residual(defects, law, p))
                assert float_bits(_law_residual(defects, law, p)) == float_bits(
                    frozen_law_residual(defects, law, p))
            with pytest.raises(ClassificationFailure):
                _stormer_split(J, defects)
