"""The closed-form Størmer split: ``stormer_split`` reads each domain
block's hom and anti projections off the images of its matrix units and
checks both multiplication laws on every pair of domain matrix units.  Its
kinds, and z within 1e-14, must match the frozen copy of the classifier
that generated the *-algebra of the range and separated its centre
(tests/oracles.py), on generated plans and on hand-built maps whose
summands share a codomain block.  The law residuals must match their
frozen copies bit for bit, and a map that fails verification must be
rejected on every call."""

import numpy as np
import pytest

from logmaj import (FiniteAlgebra, LinearMap, Lp, analyze, check_injective, jordan_factor,
                    random_jordan, random_plan, stormer_split)
from logmaj.config import tolerances
from logmaj.errors import ClassificationFailure
from logmaj.jordan import (JordanCertificate, JordanMap, _law_residual, _plan_unitary,
                           verify_jordan)
from logmaj.sampling import rng_for

from oracles import float_bits, frozen_law_residual, frozen_stormer_split


def _plans():
    for trial in range(64):
        yield random_plan(rng_for(140, "stormer-frozen", trial), fanout=bool(trial % 2))
    # the fan-out trial of suite_stormer_roundtrip(2, 1365990320)
    yield random_plan(rng_for(1365990320, "stormer-roundtrip", 1), fanout=True)


def _assert_matches_oracle(J, split):
    """The kinds as the frozen classifier's (its summands come in the
    order of a generic centre element's spectrum, not by domain block)
    and z within 1e-14."""
    frozen = frozen_stormer_split(J)
    assert sorted(split.kinds) == sorted(frozen.kinds)
    assert max(np.abs(a - b).max() for a, b in zip(split.z.blocks, frozen.z.blocks)) <= 1e-14


def test_split_matches_frozen_sampled_classifier():
    tol = tolerances().jordan
    kinds = set()
    for plan in _plans():
        J = random_jordan(plan.domain, plan)
        split, defects = stormer_split(J), J.map.law_defects
        _assert_matches_oracle(J, split)
        kinds.add(split.kinds)
        # every law residual against its frozen copy, bit for bit
        checks = [(law, p) for p in split.projections for law in (0, 1)]
        for law, p in checks + [(0, split.z), (1, split.unit - split.z)]:
            assert (float_bits(_law_residual(defects, law, p))
                    == float_bits(frozen_law_residual(defects, law, p))), plan
        assert split.kinds == tuple("hom" if frozen_law_residual(defects, 0, p) <= tol
                                    else "anti" for p in split.projections)
    assert ("hom",) in kinds and ("anti",) in kinds
    assert any(len(set(k)) == 2 for k in kinds)  # mixed hom/anti splits


def _conjugated(u: np.ndarray, blocks) -> np.ndarray:
    """u (blocks placed down the diagonal) u*."""
    out = np.zeros((len(u), len(u)), dtype=complex)
    pos = 0
    for b in blocks:
        out[pos:pos + len(b), pos:pos + len(b)] = b
        pos += len(b)
    return u @ out @ u.conj().T


def _shared_target_maps():
    """Hand-built Jordan maps with several summands in one codomain block:
    (map, expected kinds by domain block, hom before anti)."""
    m2, m3, m4, m7 = (FiniteAlgebra.full(d) for d in (2, 3, 4, 7))
    u4, v4, u7 = _plan_unitary(4, 1), _plan_unitary(4, 2), _plan_unitary(7, 3)
    dom7 = FiniteAlgebra(((2, 1.0), (1, 0.5)))
    maps = [
        # u diag(x, x^T) u*: one hom and one anti summand in M_4
        (LinearMap.from_function(m2, m4, lambda x: m4.operator(
            [_conjugated(u4, [x.blocks[0], x.blocks[0].T])])), ("hom", "anti")),
        # u (x (x) 1_2) u*: one hom summand of multiplicity 2
        (LinearMap.from_function(m2, m4, lambda x: m4.operator(
            [v4 @ np.kron(x.blocks[0], np.eye(2)) @ v4.conj().T])), ("hom",)),
        # diag(x, 0): a hom summand short of the codomain unit
        (LinearMap.from_function(m2, m3, lambda x: m3.operator(
            [_conjugated(np.eye(3), [x.blocks[0], np.zeros((1, 1))])])), ("hom",)),
        # u diag(x, x, x^T, c) u*: hom x 2 + anti x 1 + a corner
        (LinearMap.from_function(dom7, m7, lambda x: m7.operator(
            [_conjugated(u7, [x.blocks[0], x.blocks[0], x.blocks[0].T, x.blocks[1]])])),
         ("hom", "anti", "hom")),
    ]
    for linear_map, kinds in maps:
        J = verify_jordan(linear_map)
        assert isinstance(J, JordanMap)
        yield J, kinds


def test_closed_form_split_matches_frozen_centre_classifier():
    for trial in range(64):
        plan = random_plan(rng_for(7, "stormer-roundtrip", trial), fanout=bool(trial % 2))
        J = random_jordan(plan.domain, plan)
        _assert_matches_oracle(J, stormer_split(J))
    for J, kinds in _shared_target_maps():
        split = stormer_split(J)
        assert split.kinds == kinds
        _assert_matches_oracle(J, split)


def _unverified(linear_map: LinearMap) -> JordanMap:
    """A JordanMap around a map that need not pass verification."""
    return JordanMap(linear_map, JordanCertificate(True, True, True, 0.0))


def test_split_rejects_maps_that_fail_verification():
    m2 = FiniteAlgebra.full(2)
    trace = LinearMap.from_function(m2, m2, lambda x: m2.operator(
        [np.trace(x.blocks[0]) / 2.0 * np.eye(2)]))
    cases = [
        # 2 id: the closed-form candidate is sum_a J(e_{a,a+1}) J(e_{a+1,a})
        # J(e_aa) = 8 * 1, which breaks both laws
        (LinearMap(m2, m2, 2.0 * np.eye(m2.vector_dim)), "1.60e+01", "3.58e+01"),
        # x -> (tr x / 2) 1: no hom candidate, and J(1) - 0 = 1 breaks both
        (trace, "7.07e-01", "7.07e-01"),
    ]
    for linear_map, hom_res, anti_res in cases:
        assert not isinstance(verify_jordan(linear_map), JordanMap)
        for _ in range(2):
            with pytest.raises(ClassificationFailure) as info:
                stormer_split(_unverified(linear_map))
            assert str(info.value) == (f"central summand is neither hom (res {hom_res}) "
                                       f"nor anti-hom (res {anti_res})")


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


def _big_fanout():
    """trial 1 of suite_stormer_roundtrip(2, 1365990320): M_2 + M_4 + M_4
    into five blocks, 68 dimensions, and most blocks of each central
    projection are zero"""
    plan = random_plan(rng_for(1365990320, "stormer-roundtrip", 1), fanout=True)
    return random_jordan(plan.domain, plan)


def test_law_residual_skips_zero_blocks_with_the_frozen_bits():
    J = _big_fanout()
    split, defects = stormer_split(J), J.map.law_defects
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
    projection is zero on that block (0 * NaN is NaN); unit images too
    large to rule out an overflow to inf skip no block either.  The public
    split of such a map is a ClassificationFailure: a non-finite unit image
    fails before any SVD, a finite one in the residual's gates."""
    J = _big_fanout()
    split = stormer_split(J)
    p = split.projections[0]
    k = next(k for k, b in enumerate(p.blocks) if not b.any())
    row = sum(d * d for d in J.codomain.dims[:k])  # the first entry of block k
    for poison in (np.nan, np.inf, 1e200):
        matrix = np.array(J.map.matrix)
        matrix[row, 0] = poison
        with np.errstate(over="ignore", invalid="ignore"):
            poisoned = LinearMap(J.domain, J.codomain, matrix)
            defects = poisoned.law_defects
            assert [finite for *_, finite in defects] == [b != k for b in
                                                           range(J.codomain.n_blocks)]
            for law in (0, 1):
                assert np.isnan(_law_residual(defects, law, p))
                assert float_bits(_law_residual(defects, law, p)) == float_bits(
                    frozen_law_residual(defects, law, p))
            with pytest.raises(ClassificationFailure):
                stormer_split(_unverified(poisoned))


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf], ids=str)
def test_a_non_finite_entry_raises_classification_failure_everywhere(poison):
    """A NaN or an infinite entry, in a zero block of a projection or not,
    raises ``ClassificationFailure`` from every entry point that reads
    the map, before an SVD or eigensolver would fail to converge."""
    J = _big_fanout()
    split = stormer_split(J)
    k = next(k for k, b in enumerate(split.projections[0].blocks) if not b.any())
    rows, cols = J.map.matrix.shape
    for at in ((0, 0), (sum(d * d for d in J.codomain.dims[:k]), 0), (rows // 2, cols // 2),
               (rows - 1, cols - 1)):
        matrix = np.array(J.map.matrix)
        matrix[at] = poison
        poisoned = LinearMap(J.domain, J.codomain, matrix)
        for call in (poisoned.rank, lambda: verify_jordan(poisoned),
                     lambda: jordan_factor(poisoned),
                     lambda: check_injective(_unverified(poisoned)),
                     lambda: stormer_split(_unverified(poisoned)),
                     lambda: analyze(poisoned, Lp(2.0), Lp(2.0), trials=2, seed=0)):
            with pytest.raises(ClassificationFailure, match="non-finite entry"):
                call()
