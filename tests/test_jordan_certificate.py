"""The complete Jordan certificate: ``verify_jordan`` checks
*-preservation on every domain matrix unit and the Jordan law on every
pair of units.  Its verdict and per-check flags must match the frozen
copy of the sampled verifier it replaced (tests/oracles.py) on generated
plans and on noise-perturbed maps; a map that breaks the law on one unit
must be rejected with a witness that reproduces the reported residual.

The worst witness's ``kind`` is not compared: the sampled verifier's
worst witness was whichever random input had the largest residual, on
noisy maps mostly a PSD input ("positivity") or a random pair
("polarization", a kind the complete certificate does not have)."""

import inspect

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LinearMap, random_jordan, random_plan, verify_jordan
from logmaj.jordan import JordanFailure, JordanMap
from logmaj.sampling import rng_for, unitary

from oracles import frozen_verify_jordan


def _verdict(result):
    c = result.certificate
    return isinstance(result, JordanMap), c.selfadjoint_ok, c.square_ok, c.positivity_ok


def test_certificate_takes_only_the_map_and_draws_no_random_numbers(monkeypatch):
    assert list(inspect.signature(verify_jordan).parameters) == ["linear_map"]
    plan = random_plan(rng_for(151, "certificate-seedless"), fanout=True)
    m = random_jordan(plan.domain, plan).map

    def no_rng(*args, **kwargs):
        raise AssertionError("verify_jordan drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert isinstance(verify_jordan(m), JordanMap)


def test_certificate_matches_frozen_sampled_verifier_on_plans():
    worst = 0.0
    for trial in range(64):
        plan = random_plan(rng_for(150, "certificate-frozen", trial), fanout=bool(trial % 2))
        J = random_jordan(plan.domain, plan)
        assert _verdict(J) == _verdict(frozen_verify_jordan(J.map)) == (True,) * 4, plan
        worst = max(worst, J.certificate.max_residual)
    assert worst <= 1e-10


def test_certificate_matches_frozen_sampled_verifier_on_noisy_maps():
    sizes = np.geomspace(1e-6, 5e-2, 8)
    for trial in range(64):
        rng = rng_for(152, "certificate-noise", trial)
        plan = random_plan(rng, fanout=bool(trial % 2))
        m = random_jordan(plan.domain, plan).map.matrix
        noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        noisy = LinearMap(plan.domain, plan.codomain, m + sizes[trial % 8] * noise)
        result = verify_jordan(noisy)
        assert isinstance(result, JordanFailure), trial
        assert _verdict(result) == _verdict(frozen_verify_jordan(noisy)), trial


def test_scaled_diagonal_unit_is_rejected_with_a_reproducing_witness():
    # a *-automorphism of M_2 (+) M_3 with the image of one diagonal unit
    # scaled by 1 + 1e-6: J(e) - J(e)^2 = -(1e-6 + 1e-12) J(e) != 0
    alg = FiniteAlgebra(((2, 1.0), (3, 2.0)))
    rng = rng_for(153, "certificate-control")
    u = unitary(alg, rng)
    m = LinearMap.from_function(alg, alg, lambda x: u @ x @ u.adjoint()).matrix.copy()
    unit = alg.dims[0] ** 2 + 4  # e_11 of the M_3 block
    m[:, unit] *= 1 + 1e-6
    J = LinearMap(alg, alg, m)
    failure, again = verify_jordan(J), verify_jordan(J)
    assert isinstance(failure, JordanFailure)
    assert (again.kind, again.residual, again.certificate) == (
        failure.kind, failure.residual, failure.certificate)
    assert again.witness.isclose(failure.witness)
    assert failure.kind == "square"
    c = failure.certificate
    assert (c.selfadjoint_ok, c.square_ok, c.positivity_ok) == (True, False, True)
    w = failure.witness
    jw = J.apply(w)
    assert (J.apply(w @ w) - jw @ jw).norm_inf() == failure.residual
    assert failure.residual == pytest.approx(4e-6, rel=1e-5)
