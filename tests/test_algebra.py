import numpy as np
import pytest

from logmaj import (FiniteAlgebra, Operator, absolute_value,
                    functional_calculus, negative_part, positive_part,
                    spectral_decompose, spectral_projection,
                    support_projection, trace)
from logmaj.errors import DomainError, NotHermitian, ShapeMismatch
from logmaj.sampling import gaussian, hermitian, psd, rng_for, unitary

from oracles import (eigenvalues_by_charpoly, frozen_fixed_phase, frozen_lex_key,
                     rank_one_support)

INF = float("inf")


def test_trace_identity_m2():
    alg = FiniteAlgebra.full(2)
    assert trace(alg.identity()) == pytest.approx(2.0)


def test_trace_weighted_blocks():
    alg = FiniteAlgebra(((1, 2.0), (1, 1.0)))
    x = alg.operator([np.array([[5.0]]), np.array([[7.0]])])
    assert trace(x) == pytest.approx(17.0)


def test_trace_unitary_invariance():
    rng = rng_for(7, "trace-unitary")
    alg = FiniteAlgebra(((3, 1.3), (2, 0.7)))
    x = gaussian(alg, rng)
    u = unitary(alg, rng)
    assert abs(trace(u @ x @ u.adjoint()) - trace(x)) < 1e-9


def test_trace_real_on_hermitian():
    rng = rng_for(8, "trace-herm")
    h = hermitian(FiniteAlgebra.full(4), rng)
    assert abs(trace(h).imag) < 1e-12


def test_spectral_decompose_diagonal():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([3.0, -1.0])])
    dec = spectral_decompose(x)
    assert np.allclose(dec.eigenvalues[0], [3.0, -1.0])


def test_spectral_decompose_zero():
    alg = FiniteAlgebra.full(3)
    dec = spectral_decompose(alg.zero())
    assert np.allclose(dec.eigenvalues[0], 0.0)
    assert np.allclose(dec.bases[0] @ dec.bases[0].conj().T, np.eye(3))


def test_spectral_decompose_matches_charpoly_roots():
    # independent oracle: Faddeev-LeVerrier coefficients + companion roots
    for trial in range(20):
        rng = rng_for(11, "charpoly", trial)
        h = hermitian(FiniteAlgebra.full(4), rng)
        dec = spectral_decompose(h)
        expected = eigenvalues_by_charpoly(h.blocks[0])
        assert np.max(np.abs(dec.eigenvalues[0] - expected)) < 1e-8


def test_spectral_decompose_reconstruction():
    for trial in range(20):
        rng = rng_for(12, "reconstruct", trial)
        alg = FiniteAlgebra(((3, 1.0), (2, 2.0)))
        h = hermitian(alg, rng)
        rec = spectral_decompose(h).reconstruct()
        assert (rec - h).norm_inf() <= 1e-9 * (1.0 + h.norm_inf())


def test_spectral_decompose_rejects_nonhermitian():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NotHermitian):
        spectral_decompose(x)


def test_spectral_projection_diagonal():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([3.0, -1.0])])
    p = spectral_projection(x, 0.0, INF)
    assert np.allclose(p.blocks[0], np.diag([1.0, 0.0]))


def test_spectral_projection_full_line_is_identity():
    rng = rng_for(3, "proj-full")
    alg = FiniteAlgebra(((2, 1.0), (3, 1.0)))
    h = hermitian(alg, rng)
    p = spectral_projection(h, -INF, INF)
    assert p.isclose(alg.identity())


def test_spectral_projection_resolution_of_identity():
    for trial in range(10):
        rng = rng_for(4, "proj-resolution", trial)
        alg = FiniteAlgebra(((4, 1.0),))
        h = hermitian(alg, rng)
        c = float(rng.uniform(-0.5, 0.5))
        below = spectral_projection(h, -INF, c)
        above = spectral_projection(h, c, INF)
        assert (below + above - alg.identity()).norm_inf() < 1e-9


def test_disjoint_spectral_projections_multiply_to_zero():
    rng = rng_for(5, "proj-disjoint")
    h = hermitian(FiniteAlgebra.full(5), rng)
    p = spectral_projection(h, -INF, 0.0)
    q = spectral_projection(h, 0.0, INF)
    assert (p @ q).norm_inf() < 1e-9


def test_support_projection_diagonal():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([2.0, 0.0])])
    s = support_projection(x)
    assert np.allclose(s.blocks[0], np.diag([1.0, 0.0]))


def test_support_projection_invertible_is_identity():
    rng = rng_for(6, "supp-inv")
    alg = FiniteAlgebra.full(3)
    x = psd(alg, rng, delta=0.5)
    assert support_projection(x).isclose(alg.identity())


def test_support_projection_rank_one_oracle():
    for trial in range(20):
        rng = rng_for(9, "supp-rank1", trial)
        alg = FiniteAlgebra.full(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = alg.operator([np.outer(v, v.conj())])
        s = support_projection(x)
        assert np.max(np.abs(s.blocks[0] - rank_one_support(v))) < 1e-8


def test_support_projection_sided_identities():
    # the support acts from the right, the adjoint's support from the left
    alg = FiniteAlgebra.full(2)
    e12 = alg.operator([np.array([[0.0, 1.0], [0.0, 0.0]])])
    s = support_projection(e12)
    s_star = support_projection(e12.adjoint())
    assert (e12 @ s - e12).norm_inf() < 1e-12
    assert (s_star @ e12 - e12).norm_inf() < 1e-12
    assert (absolute_value(e12) @ s - s @ absolute_value(e12)).norm_inf() < 1e-12


@pytest.mark.parametrize("c", [10.0 ** k for k in range(-12, 13)])
def test_support_rank_cut_is_relative_at_every_scale(c):
    # the cut is tol * sigma_max: c diag(1, 1e-3) has rank 2 whatever c is
    alg = FiniteAlgebra.full(2)
    s = support_projection(alg.operator([c * np.diag([1.0, 1e-3])]))
    assert np.allclose(s.blocks[0], np.eye(2), rtol=0.0, atol=1e-12)


def test_support_of_zero_is_zero():
    alg = FiniteAlgebra(((2, 1.0), (1, 3.0)))
    assert all(not b.any() for b in support_projection(alg.zero()).blocks)


def test_functional_calculus_square():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([3.0, -1.0])])
    y = functional_calculus(x, lambda t: t * t)
    assert np.allclose(y.blocks[0], np.diag([9.0, 1.0]))


def test_functional_calculus_abs_and_parts():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([3.0, -1.0])])
    assert np.allclose(functional_calculus(x, abs).blocks[0], np.diag([3.0, 1.0]))
    assert np.allclose(positive_part(x).blocks[0], np.diag([3.0, 0.0]))
    assert np.allclose(negative_part(x).blocks[0], np.diag([0.0, 1.0]))


def test_functional_calculus_sqrt_square_back():
    for trial in range(20):
        rng = rng_for(10, "sqrt-back", trial)
        alg = FiniteAlgebra(((3, 1.0), (2, 1.5)))
        a = psd(alg, rng)
        root = functional_calculus(a, lambda t: t ** 0.5 if t > 0 else 0.0)
        assert (root @ root - a).norm_inf() < 1e-8 * (1.0 + a.norm_inf())


def test_functional_calculus_identity_function():
    rng = rng_for(13, "fc-ident")
    h = hermitian(FiniteAlgebra.full(4), rng)
    assert functional_calculus(h, lambda t: t).isclose(h)


def test_functional_calculus_domain_error():
    alg = FiniteAlgebra.full(2)
    x = alg.operator([np.diag([1.0, 0.0])])
    with pytest.raises(DomainError):
        functional_calculus(x, lambda t: 1.0 / t)


def test_hermitian_parts_recompose():
    for trial in range(10):
        rng = rng_for(14, "parts", trial)
        h = hermitian(FiniteAlgebra(((3, 1.0), (1, 2.0))), rng)
        plus, minus = positive_part(h), negative_part(h)
        assert (plus - minus - h).norm_inf() < 1e-9
        assert (plus @ minus).norm_inf() < 1e-9
        assert (plus + minus - absolute_value(h)).norm_inf() < 1e-9


def test_norm_inf_adjoint_invariant():
    rng = rng_for(15, "norm-adj")
    x = gaussian(FiniteAlgebra(((3, 1.0), (2, 0.5))), rng)
    assert x.adjoint().norm_inf() == pytest.approx(x.norm_inf(), rel=1e-12)


def test_operator_shape_validation():
    alg = FiniteAlgebra.full(2)
    with pytest.raises(ShapeMismatch):
        alg.operator([np.eye(3)])
    with pytest.raises(ShapeMismatch):
        FiniteAlgebra(((0, 1.0),))
    with pytest.raises(ShapeMismatch):
        FiniteAlgebra(((2, -1.0),))


def test_operators_are_immutable():
    alg = FiniteAlgebra.full(2)
    x = alg.identity()
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0
    # arithmetic results too, including those wrapped without a copy
    rng = rng_for(16, "read-only")
    alg = FiniteAlgebra(((3, 1.0), (2, 0.5)))
    x, y = gaussian(alg, rng), gaussian(alg, rng)
    for result in (x + y, x - y, -x, x @ y, x.adjoint(), x.transpose()):
        for b in result.blocks:
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[0, 0] = 5.0
    # the public constructor copies: changing its input changes nothing
    arr = np.eye(2)
    x = Operator(FiniteAlgebra.full(2), [arr])
    arr[0, 0] = 5.0
    assert x.blocks[0][0, 0] == 1.0


def test_scalar_multiplication_checks_what_is_not_a_python_number():
    from fractions import Fraction
    rng = rng_for(17, "scalar")
    alg = FiniteAlgebra(((1, 1.0), (2, 0.5)))
    x = gaussian(alg, rng)
    for bad in (np.ones((2, 1, 1)), np.ones((4, 1, 1))):
        with pytest.raises(ShapeMismatch):
            x * bad
        with pytest.raises(ShapeMismatch):
            x / bad
    with pytest.raises(TypeError):
        x * "a"
    half = x * 0.5
    for y in (x * Fraction(1, 2), Fraction(1, 2) * x, x / Fraction(2), x * np.longdouble(0.5),
              x / 2, x * True * 0.5, (1 + 0j) * x / 2.0):
        for a, b in zip(y.blocks, half.blocks):
            assert a.dtype == np.complex128 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable


def _reference_decompose(b: np.ndarray):
    """The eigenvalue order of the full (-w, phase-fixed eigenvector) key."""
    w, v = np.linalg.eigh((b + b.conj().T) / 2.0)
    order = sorted(range(len(w)), key=lambda i: (-w[i], frozen_lex_key(v[:, i])))
    return w[order], np.column_stack([frozen_fixed_phase(v[:, i]) for i in order])


def test_spectral_decompose_degenerate_spectra_match_full_key_sort():
    u = unitary(FiniteAlgebra.full(3), rng_for(17, "degenerate")).blocks[0]
    block_sum = FiniteAlgebra(((3, 1.0), (2, 2.0), (1, 1.0)))
    cases = [
        FiniteAlgebra.full(3).identity(),
        FiniteAlgebra.full(3).operator([u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T]),
        block_sum.diagonal([[2.0, 2.0, -1.0], [-1.0, -1.0], [2.0]]),
        block_sum.identity() + block_sum.identity(),
    ]
    for x in cases:
        dec = spectral_decompose(x)
        again = spectral_decompose(x)
        for b, w, v, w2, v2 in zip(x.blocks, dec.eigenvalues, dec.bases,
                                   again.eigenvalues, again.bases):
            ref_w, ref_v = _reference_decompose(b)
            assert np.array_equal(w, ref_w)
            assert np.array_equal(v, ref_v)
            assert np.array_equal(w, w2) and np.array_equal(v, v2)
    # on an exact tie the eigenvector key, not the eigh order, decides
    assert np.array_equal(spectral_decompose(cases[0]).bases[0], np.eye(3)[:, ::-1])


def _reference_is_hermitian(x: Operator, tol: float) -> bool:
    scale = x.norm_inf()
    return all(float(np.linalg.norm(b - b.conj().T, 2)) <= tol * scale
               for b in x.blocks)


def test_is_hermitian_matches_relative_formula():
    tol = 1e-9
    rng = rng_for(18, "hermitian-check")
    alg = FiniteAlgebra(((3, 1.0), (2, 0.5)))
    h = hermitian(alg, rng)
    skew = gaussian(alg, rng)
    skew = skew - skew.adjoint()

    def defect(x):
        return max(np.linalg.norm(b - b.conj().T, 2) for b in x.blocks)

    unit_defect = skew * (1.0 / defect(skew))      # anti-hermitian, defect 1
    big = h * (1e6 / h.norm_inf())
    assert h.is_hermitian(tol) and _reference_is_hermitian(h, tol)
    assert alg.identity().is_hermitian(tol)
    inside = big + unit_defect * 1e-5              # tol < defect < tol * ||x||
    assert tol < defect(inside) < tol * inside.norm_inf()
    assert inside.is_hermitian(tol) and _reference_is_hermitian(inside, tol)
    outside = big + unit_defect * (1.001 * tol * 1e6)
    assert 1.0 < defect(outside) / (tol * outside.norm_inf()) < 1.01
    assert not outside.is_hermitian(tol)
    assert not _reference_is_hermitian(outside, tol)
    for t in (0.0, -1.0, 1e-3):
        for x in (h, inside, outside, alg.zero()):
            assert x.is_hermitian(t) == _reference_is_hermitian(x, t)


def test_is_hermitian_raises_on_non_finite_entries():
    alg = FiniteAlgebra(((2, 1.0), (2, 1.0)))
    x = alg.operator([np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]])])
    with pytest.raises(np.linalg.LinAlgError):
        x.is_hermitian()


SCALES = [10.0 ** k for k in range(-12, 13, 2)]


def test_hermiticity_gate_is_relative_at_every_scale():
    """``is_hermitian``, ``spectral_decompose`` (lone, listed and batched:
    the stacked screen of ``eigenpairs_many``) and ``distribution`` reject
    a defect of 1e-3 ||x|| and accept one of 1e-12 ||x||, at every scale,
    also when the defect sits in a block much smaller than ||x||."""
    from logmaj import distribution
    from logmaj.algebra import OperatorBatch, spectral_decompose_many

    m2 = FiniteAlgebra.full(2)
    mixed = FiniteAlgebra(((2, 1.0), (1, 0.5)))
    tilted = np.array([[1.0, 1e-3], [0.0, 1.0]])
    cases = [(m2.operator([tilted]), False),
             (m2.operator([np.array([[1.0, 1e-12], [0.0, 1.0]])]), True),
             (mixed.operator([tilted, np.array([[1e7]])]), True),       # 1e-3 < 1e-9 * 1e7
             (mixed.operator([1e3 * tilted, np.array([[1e3]])]), False)]
    for c in SCALES:
        for x, verdict in cases:
            x = c * x
            assert x.is_hermitian() is verdict == _reference_is_hermitian(x, 1e-9), (c, verdict)
            for decompose in (spectral_decompose, distribution,
                              lambda x: spectral_decompose_many([x] * 9),
                              lambda x: spectral_decompose_many(
                                  OperatorBatch.of(x.algebra, [x.blocks] * 9))):
                if verdict:
                    decompose(x)
                else:
                    with pytest.raises(NotHermitian):
                        decompose(x)


def test_is_psd_is_scale_covariant():
    from logmaj.algebra import is_psd

    alg = FiniteAlgebra(((2, 1.0), (3, 0.5)))
    rng = rng_for(19, "is-psd-scale")
    g = gaussian(alg, rng)
    gram = g.adjoint() @ g
    indefinite = alg.diagonal([[1.0, -0.5], [1.0, 1.0, 1.0]])
    tilted = gram + 1e-3 * gram.norm_inf() * alg.operator(
        [np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((3, 3))])
    assert is_psd(alg.zero())
    for c in SCALES:
        assert not is_psd(c * indefinite), c
        assert is_psd(c * gram), c
        # a hermitian defect of 1e-3 ||x|| fails at every scale
        assert not is_psd(c * tilted), c
