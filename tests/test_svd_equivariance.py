"""The LAPACK property that ``check_delta_axioms`` rests on: singular values
are equivariant under a power of two.

``check_delta_axioms`` takes the rows of ``2^-k x`` (k = 1..40) as the
samples' singular values times ``2^-k`` instead of decomposing them.  A
power of two scales every normal float exactly, and the SVD and the
hermitian eigensolver (``stacked_singular_values`` sends exactly
hermitian matrices there) are equivariant under it, away from the
thresholds at which LAPACK rescales its input (an SVD input of norm above
about 7e137).  This pins that property bit for bit, for block dimensions
1 to 4 and entries from 2^-300 to 2^300; a factor that is not a power of
two must break it.
"""

import numpy as np
import pytest

from logmaj.algebra import stacked_singular_values

HALVINGS = 2.0 ** -np.arange(1, 41)
EXPONENTS = range(-300, 301, 100)


def _stack(d: int, kind: str, e: int, rng: np.random.Generator) -> np.ndarray:
    """25 complex ``d x d`` matrices with entries of order ``2^e``, general
    or exactly hermitian."""
    a = (rng.standard_normal((25, d, d)) + 1j * rng.standard_normal((25, d, d))) * 2.0 ** e
    return a + a.conj().swapaxes(1, 2) if kind == "hermitian" else a


def _mismatches(stack: np.ndarray, factors: np.ndarray) -> int:
    """The singular values of ``c * stack`` (every factor ``c``, one stacked
    call) that differ in any bit from ``c`` times those of ``stack``."""
    scaled = (factors[:, None, None, None] * stack).reshape(-1, *stack.shape[1:])
    expected = (factors[:, None, None] * stacked_singular_values(stack)).reshape(-1, stack.shape[1])
    return int((stacked_singular_values(scaled).view(np.int64) != expected.view(np.int64)).sum())


@pytest.mark.parametrize("kind", ["general", "hermitian"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_singular_values_of_a_power_of_two_times_a_stack_are_exactly_scaled(d, kind):
    rng = np.random.default_rng(1000 * d + len(kind))
    for e in EXPONENTS:
        assert _mismatches(_stack(d, kind, e, rng), HALVINGS) == 0, e


@pytest.mark.parametrize("kind", ["general", "hermitian"])
def test_a_factor_that_is_not_a_power_of_two_breaks_the_bits(kind):
    """Negative control: with 0.3 in place of 2^-k the check sees
    mismatches, so it can fail."""
    rng = np.random.default_rng(7)
    assert sum(_mismatches(_stack(d, kind, 0, rng), np.array([0.3])) for d in (2, 3, 4)) > 0
