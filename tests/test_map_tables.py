"""The tables a linear map and an algebra build on first read: a map's
unit images and law table, an algebra's matrix units and unit positions.
Each is built once per instance, is read-only, and depends on no
tolerance, so every verdict read from it follows the tolerances in force
at the call."""

import dataclasses

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LinearMap, random_jordan, random_plan, stormer_split
from logmaj.config import overridden_tolerances
from logmaj.errors import ClassificationFailure
from logmaj.jordan import JordanCertificate, JordanMap, verify_jordan
from logmaj.sampling import rng_for


def _jordan(trial: int = 1) -> JordanMap:
    plan = random_plan(rng_for(30, "map-tables", trial), fanout=True)
    return random_jordan(plan.domain, plan)


def _arrays(linear_map: LinearMap):
    dom = linear_map.domain
    yield linear_map.unit_images.rows
    yield from linear_map.unit_images.blocks
    for hom, anti, _ in linear_map.law_defects:
        yield hom
        yield anti
    yield dom.units.rows
    yield from dom.units.blocks
    yield from dom.unit_indices


def test_tables_are_read_only_and_built_once():
    linear_map = _jordan().map
    arrays = list(_arrays(linear_map))
    assert arrays and not any(a.flags.writeable for a in arrays)
    for a in arrays[:2]:
        with pytest.raises(ValueError):
            a[0] = 1.0
    # a second read is the stored table
    assert all(a is b for a, b in zip(arrays, _arrays(linear_map)))


def test_tables_hold_the_values_they_name():
    linear_map = _jordan().map
    dom = linear_map.domain
    assert np.array_equal(linear_map.unit_images.rows, linear_map.matrix.T)
    assert np.array_equal(dom.units.rows, np.eye(dom.vector_dim))
    assert np.array_equal(np.concatenate([i.reshape(-1) for i in dom.unit_indices]),
                          np.arange(dom.vector_dim))
    units, images = dom.units, linear_map.unit_images
    for k, (hom, anti, finite) in enumerate(linear_map.law_defects):
        assert finite
        for u, v in ((0, 0), (0, 1), (1, 0), (len(units) - 1, 0)):
            juv = linear_map.apply(units[u] @ units[v]).blocks[k]
            ju, jv = images[u].blocks[k], images[v].blocks[k]
            assert np.allclose(hom[u, v], juv - ju @ jv, atol=1e-14)
            assert np.allclose(anti[u, v], juv - jv @ ju, atol=1e-14)


def test_new_maps_build_fresh_tables_and_a_new_plan_shares_them():
    J = _jordan()
    table, images = J.map.law_defects, J.map.unit_images
    b = J.codomain.identity() * 2.0
    for other in (J.map.left_compose(b),
                  dataclasses.replace(J.map),
                  dataclasses.replace(J.map, matrix=2.0 * J.map.matrix)):
        assert other.law_defects is not table and other.unit_images is not images
    scaled = J.map.left_compose(b)
    assert np.array_equal(scaled.unit_images.rows, 2.0 * images.rows)
    # the same map under another plan: its tables are the map's
    replanned = dataclasses.replace(J, plan=None)
    assert replanned.map is J.map
    assert replanned.map.law_defects is table and replanned.map.unit_images is images


def _split_bits(split):
    return (split.kinds, [p.rows.tobytes() for p in split.projections],
            split.unit.rows.tobytes())


def test_a_split_follows_the_tolerances_of_its_call():
    """No tolerance-dependent value is kept on the map: a split under an
    override after a default split on the same map (and the default split
    after it) equals the split of a fresh map under the same tolerances."""
    m2 = FiniteAlgebra.full(2)
    matrix = np.eye(m2.vector_dim, dtype=complex)
    matrix[0, 0] = 1.0 + 1e-10  # breaks the hom law by 1e-10

    def fresh(linear_map=None) -> JordanMap:
        linear_map = linear_map or LinearMap(m2, m2, matrix)
        return JordanMap(linear_map, JordanCertificate(True, True, True, 0.0))

    for J in (fresh(), _jordan(0), _jordan(1)):
        default = stormer_split(J)
        assert default.kinds
        # a unit below the tolerance: no summand
        with overridden_tolerances(jordan=2.0 * J.apply(J.domain.identity()).norm_inf()):
            loose = stormer_split(J)
            assert loose.kinds == ()
            assert _split_bits(loose) == _split_bits(stormer_split(fresh(
                LinearMap(J.domain, J.codomain, J.map.matrix))))
        assert _split_bits(stormer_split(J)) == _split_bits(default)

    J = fresh()
    assert stormer_split(J).kinds == ("hom",)
    with overridden_tolerances(jordan=1e-12):
        with pytest.raises(ClassificationFailure, match=r"neither hom \(res 1\.00e-10\)"):
            stormer_split(J)
        assert not isinstance(verify_jordan(J.map), JordanMap)
    assert stormer_split(J).kinds == ("hom",)
    assert isinstance(verify_jordan(J.map), JordanMap)


def test_rank_follows_the_tolerances_of_its_call():
    m2 = FiniteAlgebra.full(2)
    linear_map = LinearMap(m2, m2, np.diag([1.0, 1.0, 1.0, 1e-10]))
    assert linear_map.rank() == 3
    with overridden_tolerances(alg=1e-12):
        assert linear_map.rank() == 4
    assert linear_map.rank() == 3
