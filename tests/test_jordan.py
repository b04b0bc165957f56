import numpy as np
import pytest

from logmaj import (FiniteAlgebra, JordanPlan, LinearMap, LogF, PlanEntry, SynthSpec,
                    check_injective, jordan_abs_residual,
                    ortho_extension_check, random_jordan, random_plan,
                    stormer_split, synthesize, verify_jordan)
from logmaj.errors import PlanMismatch
from logmaj.jordan import (JordanCertificate, JordanFailure, JordanMap, plan_map,
                           unvectorize, vectorize)
from logmaj.sampling import gaussian, hermitian, rng_for

from oracles import frozen_generated_algebra


def trace_map(alg: FiniteAlgebra) -> LinearMap:
    """x -> (tr x / 2) * 1 on M_2: linear, *-preserving, not Jordan."""
    def act(x):
        t = np.trace(x.blocks[0]) / 2.0
        return alg.operator([t * np.eye(2, dtype=complex)])
    return LinearMap.from_function(alg, alg, act)


def duplicate_plan(transpose_second: bool = True) -> JordanPlan:
    dom = FiniteAlgebra.full(2)
    cod = FiniteAlgebra(((2, 1.0), (2, 1.0)))
    return JordanPlan(dom, cod, (
        PlanEntry(0, 0, False, 1),
        PlanEntry(0, 1, transpose_second, 2),
    ))


# ------------------------------------------------------------- vectorization


def test_vectorize_round_trip():
    rng = rng_for(80, "vec")
    alg = FiniteAlgebra(((3, 1.0), (2, 2.0)))
    x = gaussian(alg, rng)
    assert unvectorize(alg, vectorize(x)).isclose(x)


def test_linear_map_is_linear_by_construction():
    rng = rng_for(81, "linear")
    alg = FiniteAlgebra(((2, 1.0), (3, 1.0)))
    m = LinearMap.transpose_map(alg)
    x, y = gaussian(alg, rng), gaussian(alg, rng)
    lhs = m.apply(2.0 * x + 1.5j * y)
    rhs = 2.0 * m.apply(x) + 1.5j * m.apply(y)
    assert lhs.isclose(rhs)


# ------------------------------------------------------------- verification


def test_identity_is_jordan():
    alg = FiniteAlgebra.full(3)
    result = verify_jordan(LinearMap.identity(alg))
    assert isinstance(result, JordanMap)
    assert result.certificate.max_residual < 1e-12


def test_transpose_is_jordan():
    alg = FiniteAlgebra.full(3)
    result = verify_jordan(LinearMap.transpose_map(alg))
    assert isinstance(result, JordanMap)


def test_trace_map_fails_with_witness():
    alg = FiniteAlgebra.full(2)
    result = verify_jordan(trace_map(alg))
    assert isinstance(result, JordanFailure)
    assert not result.certificate.square_ok
    assert result.witness is not None
    # the diagonal unit witnesses: J(x^2) = 1/2 while J(x)^2 = 1/4
    x = alg.operator([np.diag([1.0, 0.0])])
    m = trace_map(alg)
    assert (m.apply(x @ x) - m.apply(x) @ m.apply(x)).norm_inf() == pytest.approx(0.25)


# ------------------------------------------------------------- stormer split


def test_split_identity_map():
    alg = FiniteAlgebra.full(3)
    J = verify_jordan(LinearMap.identity(alg))
    split = stormer_split(J)
    assert split.kinds == ("hom",)
    assert split.z.isclose(alg.identity())


def test_split_transpose_map():
    alg = FiniteAlgebra.full(3)
    J = verify_jordan(LinearMap.transpose_map(alg))
    split = stormer_split(J)
    assert split.kinds == ("anti",)
    assert split.z.norm_inf() < 1e-12


def test_split_unitary_conjugation():
    from logmaj.sampling import unitary

    rng = rng_for(82, "split-u")
    alg = FiniteAlgebra.full(3)
    u = unitary(alg, rng)
    J = verify_jordan(LinearMap.from_function(alg, alg, lambda x: u @ x @ u.adjoint()))
    split = stormer_split(J)
    assert split.kinds == ("hom",)
    assert split.z.isclose(alg.identity())  # support of the range


def test_split_hom_plus_anti_duplication():
    J = random_jordan(FiniteAlgebra.full(2), duplicate_plan())
    split = stormer_split(J)
    assert sorted(split.kinds) == ["anti", "hom"]
    z = split.z
    assert np.allclose(z.blocks[0], np.eye(2))
    assert np.allclose(z.blocks[1], 0.0)


def test_split_same_flag_duplication_has_joint_center():
    J = random_jordan(FiniteAlgebra.full(2), duplicate_plan(transpose_second=False))
    split = stormer_split(J)
    assert split.kinds == ("hom",)
    assert split.z.isclose(J.codomain.identity())


def test_split_abelian_blocks_classified_hom():
    dom = FiniteAlgebra(((1, 1.0), (1, 2.0)))
    cod = FiniteAlgebra(((1, 1.0), (1, 1.0)))
    plan = JordanPlan(dom, cod, (PlanEntry(0, 0, True, 3), PlanEntry(1, 1, False, 4)))
    J = random_jordan(dom, plan)
    split = stormer_split(J)
    assert all(k == "hom" for k in split.kinds)


def test_split_recovers_plan_flags_randomized():
    for trial in range(30):
        rng = rng_for(83, "split-roundtrip", trial)
        plan = random_plan(rng, fanout=bool(trial % 2))
        J = random_jordan(plan.domain, plan)
        split = stormer_split(J)
        for target, flag in plan.effective_flags().items():
            hit = None
            for p, kind in zip(split.projections, split.kinds):
                if np.linalg.norm(p.blocks[target]) > 0.5:
                    hit = kind
                    break
            assert hit == flag, f"trial {trial}, target {target}"


def test_z_is_central_for_generated_algebra():
    # z commutes with the whole *-algebra generated by the range, spanned
    # by the frozen closure loop (tests/oracles.py)
    for trial in range(10):
        rng = rng_for(84, "z-central", trial)
        plan = random_plan(rng, fanout=True)
        J = random_jordan(plan.domain, plan)
        z = stormer_split(J).z
        for row in frozen_generated_algebra(J.map):
            a = unvectorize(J.codomain, row)
            assert (z @ a - a @ z).norm_inf() < 1e-8


# ------------------------------------------------------------- abs identity


def test_abs_residual_identity_map():
    rng = rng_for(85, "abs-id")
    alg = FiniteAlgebra.full(3)
    plan = JordanPlan(alg, alg, (PlanEntry(0, 0, False, 0),))
    J = random_jordan(alg, plan)
    x = gaussian(alg, rng)
    assert jordan_abs_residual(J, x) < 1e-12 * (1.0 + x.norm_inf())


def test_abs_residual_transpose_nilpotent():
    # direct 2x2 evaluation: J = transpose, x = e12; |J(x)| = e11 and the
    # anti-side formula J(|x*|) gives e11 as well
    alg = FiniteAlgebra.full(2)
    plan = JordanPlan(alg, alg, (PlanEntry(0, 0, True, 0),))
    J = random_jordan(alg, plan)
    e12 = alg.operator([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert jordan_abs_residual(J, e12) < 1e-10

    from logmaj import absolute_value

    u = J.map.apply(alg.identity())  # fixes the conjugating unitary frame
    lhs = absolute_value(J.apply(e12))
    rhs = J.apply(absolute_value(e12.adjoint()))
    assert (lhs - rhs).norm_inf() < 1e-10
    assert u.isclose(alg.identity())


def test_abs_residual_random_mixed():
    for trial in range(30):
        rng = rng_for(86, "abs-mixed", trial)
        plan = random_plan(rng)
        J = random_jordan(plan.domain, plan)
        x = gaussian(plan.domain, rng)
        assert jordan_abs_residual(J, x) <= 1e-9 * (1.0 + x.norm_inf())


def test_abs_residual_from_split_when_plan_absent():
    rng = rng_for(87, "abs-split")
    plan = random_plan(rng)
    J = random_jordan(plan.domain, plan)
    J_anon = verify_jordan(J.map)  # no plan attached
    assert isinstance(J_anon, JordanMap)
    x = gaussian(plan.domain, rng)
    assert jordan_abs_residual(J_anon, x) <= 1e-9 * (1.0 + x.norm_inf())


def test_jordan_map_is_frozen_and_keeps_its_plan():
    import dataclasses

    J = random_jordan(FiniteAlgebra.full(2), duplicate_plan())
    plan = duplicate_plan(transpose_second=False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        J.plan = plan
    assert random_jordan(plan.domain, plan).plan is plan
    # the split is a value, not state of the map: equal on each call
    first, second = stormer_split(J), stormer_split(J)
    assert first is not second and first.kinds == second.kinds
    assert all(p.isclose(q) for p, q in zip(first.projections, second.projections))


# ------------------------------------------------------------- injectivity


def test_identity_injective():
    alg = FiniteAlgebra.full(3)
    J = verify_jordan(LinearMap.identity(alg))
    assert check_injective(J)


def test_block_dropping_map_not_injective():
    dom = FiniteAlgebra(((2, 1.0), (2, 1.0)))

    def act(x):
        return dom.operator([x.blocks[0], np.zeros((2, 2), dtype=complex)])

    J = verify_jordan(LinearMap.from_function(dom, dom, act))
    assert isinstance(J, JordanMap)
    assert not check_injective(J)
    e = dom.block_identity(1)
    assert J.apply(e).norm_inf() < 1e-12  # the witness unit


def test_random_jordan_injective_with_full_rank():
    for trial in range(10):
        rng = rng_for(88, "inj", trial)
        plan = random_plan(rng)
        J = random_jordan(plan.domain, plan)
        assert check_injective(J)
        assert J.map.rank() == plan.domain.vector_dim


@pytest.mark.parametrize("scale", [1e-12, 1e-10, 1e-7, 1e-4, 1.0, 1e4, 1e8, 1e12])
def test_rank_cut_is_relative_at_every_scale(scale):
    # c diag(1, 1e-4, 1e-4, 1) on M_2 scales the off-diagonal units by
    # 1e-4 against the diagonal ones: rank 4 whatever c is
    alg = FiniteAlgebra.full(2)
    m = LinearMap(alg, alg, scale * np.diag([1.0, 1e-4, 1e-4, 1.0]))
    assert m.rank() == 4
    assert LinearMap(alg, alg, np.zeros((4, 4))).rank() == 0


def _wrapped(matrix: np.ndarray) -> JordanMap:
    """A ``JordanMap`` on ``M_2`` around ``matrix``, not verified."""
    alg = FiniteAlgebra.full(2)
    return JordanMap(LinearMap(alg, alg, matrix), JordanCertificate(True, True, True, 0.0))


@pytest.mark.parametrize("k", range(-12, 13))
@pytest.mark.parametrize("diagonal", [[1.0, 1.0, 1.0, 1.0], [1.0, 1e-4, 1e-4, 1.0]],
                         ids=["id", "off-diagonal-1e-4"])
def test_check_injective_agrees_with_the_rank_at_every_scale(k, diagonal):
    # the unit gate is relative to the largest unit image, as the rank's
    # cut is to the largest singular value
    J = _wrapped(10.0 ** k * np.diag(diagonal))
    injective = check_injective(J)
    assert injective == (J.map.rank() == J.domain.vector_dim)
    assert injective


def test_check_injective_of_the_zero_map():
    J = _wrapped(np.zeros((4, 4)))
    with np.errstate(all="raise"):
        assert not check_injective(J)
    assert J.map.rank() == 0


# ------------------------------------------------------------- ortho checks


def test_ortho_extension_identity():
    alg = FiniteAlgebra.full(3)
    report = ortho_extension_check(LinearMap.identity(alg), trials=20, seed=0)
    assert report.ortho_ok and report.jordan_ok


def test_ortho_extension_trace_map_fails():
    alg = FiniteAlgebra.full(2)
    report = ortho_extension_check(trace_map(alg), trials=20, seed=0)
    assert not report.ortho_ok


def test_ortho_extension_random_jordan():
    rng = rng_for(89, "ortho")
    plan = random_plan(rng)
    J = random_jordan(plan.domain, plan)
    report = ortho_extension_check(J.map, trials=20, seed=1)
    assert report.ortho_ok and report.jordan_ok


# ------------------------------------------------------------- properties


def test_commuting_multiplicativity():
    from logmaj.sampling import commuting_pair

    for trial in range(30):
        rng = rng_for(90, "commuting", trial)
        plan = random_plan(rng, fanout=bool(trial % 3 == 0))
        J = random_jordan(plan.domain, plan)
        x, y = commuting_pair(plan.domain, rng)
        jx, jy = J.apply(x), J.apply(y)
        assert (J.apply(x @ y) - jx @ jy).norm_inf() < 1e-8
        assert (jx @ jy - jy @ jx).norm_inf() < 1e-8


def test_contractivity():
    for trial in range(30):
        rng = rng_for(91, "contract", trial)
        plan = random_plan(rng)
        J = random_jordan(plan.domain, plan)
        x = gaussian(plan.domain, rng)
        assert J.apply(x).norm_inf() <= x.norm_inf() + 1e-8


def test_anti_block_is_not_multiplicative():
    # classifier sanity: a transposed block of dim >= 2 must witness failure
    # of plain multiplicativity
    rng = rng_for(92, "anti-witness")
    dom = FiniteAlgebra.full(3)
    plan = JordanPlan(dom, dom, (PlanEntry(0, 0, True, 5),))
    J = random_jordan(dom, plan)
    witnessed = False
    for _ in range(10):
        x, y = hermitian(dom, rng), hermitian(dom, rng)
        if (J.apply(x @ y) - J.apply(x) @ J.apply(y)).norm_inf() > 1e-6:
            witnessed = True
            break
    assert witnessed


def test_hom_block_is_not_anti_multiplicative():
    # and the mirror: a plain block of dim >= 2 must fail the reversed law
    rng = rng_for(92, "hom-witness")
    dom = FiniteAlgebra.full(3)
    plan = JordanPlan(dom, dom, (PlanEntry(0, 0, False, 6),))
    J = random_jordan(dom, plan)
    witnessed = False
    for _ in range(10):
        x, y = hermitian(dom, rng), hermitian(dom, rng)
        if (J.apply(x @ y) - J.apply(y) @ J.apply(x)).norm_inf() > 1e-6:
            witnessed = True
            break
    assert witnessed


def test_plan_validation():
    dom = FiniteAlgebra.full(2)
    cod = FiniteAlgebra(((2, 1.0), (3, 1.0)))
    with pytest.raises(PlanMismatch):
        JordanPlan(dom, cod, (PlanEntry(0, 1, False, 0),))  # dim mismatch
    with pytest.raises(PlanMismatch):
        JordanPlan(dom, cod, (PlanEntry(0, 0, False, 0), PlanEntry(0, 0, True, 1)))
    with pytest.raises(PlanMismatch):
        JordanPlan(dom, cod, (PlanEntry(3, 0, False, 0),))


def test_random_jordan_passes_verification_repeatedly():
    worst = 0.0
    for trial in range(30):
        rng = rng_for(93, "rj-verify", trial)
        plan = random_plan(rng, fanout=bool(trial % 2))
        J = random_jordan(plan.domain, plan)
        worst = max(worst, J.certificate.max_residual)
    assert worst <= 1e-10


def _seeded_plans():
    """72 plans over random domains, every other one with fan-out."""
    return [random_plan(rng_for(31, "plan-map", trial), fanout=bool(trial % 2))
            for trial in range(72)]


def test_plan_map_certifies_on_seeded_plans():
    """The construction that ``synthesize`` runs alone passes
    ``verify_jordan`` on plans with fan-out, transposes and every block
    dimension from 1 to 4, as ``random_jordan``'s guard asserts."""
    plans = _seeded_plans()
    assert any(len(plan.entries) > plan.domain.n_blocks for plan in plans)
    assert {e.transpose for plan in plans for e in plan.entries} == {False, True}
    assert {d for plan in plans for d in plan.domain.dims} == {1, 2, 3, 4}
    for plan in plans:
        J = verify_jordan(plan_map(plan))
        assert isinstance(J, JordanMap) and J.certificate.max_residual <= 1e-10


def test_synthesize_is_the_certified_plan_map_times_b():
    """``synthesize`` skips the certificate, and no bit of T = B . J."""
    for trial, plan in enumerate(_seeded_plans()):
        betas = rng_for(31, "plan-betas", trial).uniform(0.5, 2.0, plan.codomain.n_blocks)
        spec = SynthSpec(plan, tuple(betas.tolist()), LogF(), LogF())
        expected = random_jordan(plan.domain, plan).map.left_compose(spec.b_operator())
        T = synthesize(spec)
        assert (T.domain, T.codomain) == (expected.domain, expected.codomain)
        assert T.matrix.tobytes() == expected.matrix.tobytes()


def test_unvectorize_blocks_are_read_only_and_private():
    alg = FiniteAlgebra(((3, 1.0), (2, 2.0)))
    vec = np.arange(alg.vector_dim, dtype=complex)
    x = unvectorize(alg, vec)
    vec[0] = 99.0
    assert x.blocks[0][0, 0] == 0.0
    for b in x.blocks:
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0] = 5.0
    y = LinearMap.identity(alg).apply(x)
    assert all(not b.flags.writeable for b in y.blocks)
