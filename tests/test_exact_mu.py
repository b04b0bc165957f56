"""mu against exact rational arithmetic on dyadic diagonal operators.

The entries of a diagonal operator are dyadic rationals of either sign,
on blocks of dyadic weight.  Its blocks are hermitian, and the symmetric
eigensolver returns their eigenvalues exactly, so mu(x) is
``oracles.exact_mu``: the moduli with their block weights sorted
descending, exactly equal values merged and a zero piece up to tau(1).
No rounding enters: ``mu_many`` must equal it piece for piece on every
route (a lone operator, the cascade of fewer than ``_MIN_STACK_ROWS``,
and the array pass of a list and of a batch), and mu(2^k x) must be 2^k
mu(x) exactly.  (The SVD that takes non-hermitian blocks is not exact
on diagonal input: it gives 3.937499999999999 and 3.625000000000001 for
diag(3.625i, -3.9375).)
"""

from fractions import Fraction

import numpy as np
import pytest

from logmaj import FiniteAlgebra, Operator
from logmaj.algebra import OperatorBatch
from logmaj.stepfun import _MIN_STACK_ROWS, mu, mu_many

from oracles import exact_mu

# moduli with exact ties; the other operators draw distinct moduli from
# k/16, 0 < k <= 64, and zero some of them
TIED = np.array([0, 1, 2, 8, 16, 24, 64]) / 16
DISTINCT = np.arange(1, 65) / 16
SIGNS = np.array([1.0, -1.0])


def _algebra(rng) -> FiniteAlgebra:
    dims = rng.integers(1, 5, size=int(rng.integers(1, 4)))
    return FiniteAlgebra(tuple((int(d), int(rng.integers(1, 17)) / 8) for d in dims))


def _diagonal(alg: FiniteAlgebra, rng, tied: bool) -> Operator:
    n = sum(alg.dims)
    if tied:
        moduli = rng.choice(TIED, size=n)
    else:
        moduli = rng.choice(DISTINCT, size=n, replace=False) * (rng.uniform(size=n) > 0.3)
    entries = iter(moduli * rng.choice(SIGNS, size=n))
    return Operator(alg, [np.diag([next(entries) for _ in range(d)]) for d in alg.dims])


def _exact(f) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(v), Fraction(w)) for v, w in f.pieces]


def _assert_exact(fs, xs) -> int:
    """Compares, and returns how many of ``fs`` came from the array pass
    (a step function that keeps its arrays has not built its pieces)."""
    from_arrays = sum("pieces" not in vars(f) for f in fs)
    assert [_exact(f) for f in fs] == [exact_mu(x) for x in xs]
    assert ([Fraction(f.total_length) for f in fs]
            == [Fraction(x.algebra.total_trace) for x in xs])
    return from_arrays


@pytest.mark.parametrize("n", [1, _MIN_STACK_ROWS - 1, _MIN_STACK_ROWS, 40])
def test_mu_many_of_a_list_equals_the_exact_mu(n):
    from_arrays = 0
    for seed in range(12):
        rng = np.random.default_rng([n, seed])
        xs = [_diagonal(_algebra(rng), rng, tied=i % 2 == 1) for i in range(n)]
        from_arrays += _assert_exact(mu_many(xs), xs)
        assert [_exact(mu(x)) for x in xs[:3]] == [exact_mu(x) for x in xs[:3]]
    # the array pass takes the rows without ties, the cascade the others
    assert (from_arrays > 0) == (n >= _MIN_STACK_ROWS)


@pytest.mark.parametrize("n", [_MIN_STACK_ROWS, 40])
def test_mu_many_of_a_batch_equals_the_exact_mu(n):
    from_arrays = 0
    for seed in range(12):
        rng = np.random.default_rng([n, seed, 1])
        alg = _algebra(rng)
        xs = [_diagonal(alg, rng, tied=i % 2 == 1) for i in range(n)]
        from_arrays += _assert_exact(mu_many(OperatorBatch.of(alg, [x.blocks for x in xs])), xs)
    assert from_arrays > 0


def test_mu_of_a_power_of_two_times_x_is_exactly_scaled():
    rng = np.random.default_rng(11)
    xs = [_diagonal(_algebra(rng), rng, tied=i % 2 == 1) for i in range(2 * _MIN_STACK_ROWS)]
    for k in range(-40, 41):
        c = Fraction(2) ** k
        scaled = [2.0 ** k * x for x in xs]
        expected = [[(c * v, w) for v, w in exact_mu(x)] for x in xs]
        assert [_exact(f) for f in mu_many(scaled)] == expected, k
        assert [_exact(mu(x)) for x in scaled[:2]] == expected[:2], k
