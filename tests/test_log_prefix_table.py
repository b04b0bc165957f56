"""The log-prefix table of a step function against numpy.

``StepFunction._logs`` holds, per prefix length ``i``, the sum of the
first ``i`` whole log pieces as ``np.add.reduce`` gives it, but built in
Python floats (``stepfun._prefix_sums``): a running sum below 8 terms,
eight running sums up to 128 and numpy's halving split beyond; a step
function's ``total_length`` is the same sum of its widths.  These tests
check both against ``np.add.reduce`` itself across all three regimes, and
``log_prefix_integral`` against its frozen numpy form (tests/oracles.py)
at every breakpoint of many mu's, bit for bit.  The lock-free first read
(``algebra.first_read``) that builds these tables is checked last.
"""

import threading

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from logmaj import FiniteAlgebra, Operator  # noqa: E402
from logmaj.algebra import first_read  # noqa: E402
from logmaj.errors import NegativeValue  # noqa: E402
from logmaj.sampling import gaussian, random_algebra, rng_for  # noqa: E402
from logmaj.stepfun import StepFunction, _prefix_sums, mu, mu_many  # noqa: E402

from oracles import float_bits, frozen_log_prefix_integral  # noqa: E402

# v = 1 gives an exact zero term; a subnormal w can round a term to -0.0
VALUES = st.one_of(st.just(1.0), st.floats(0.0, 2.0 ** 40, exclude_min=True))
WIDTHS = st.one_of(st.sampled_from([0.25, 1.0, 4.0, 5e-324]),
                   st.floats(0.0, 4.0, exclude_min=True))
# shrinking lists of up to 300 floats takes minutes; a failure is reported
# as drawn
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@st.composite
def log_terms(draw):
    """``log(v) * w`` for 0 to 300 pieces, as ``_logs`` forms them."""
    n = draw(st.integers(0, 300))
    v = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)), dtype=float)
    w = np.array(draw(st.lists(WIDTHS, min_size=n, max_size=n)), dtype=float)
    return (np.log(v) * w).tolist()


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(log_terms())
def test_prefix_sums_equal_numpy_add_reduce_on_every_prefix(terms):
    arr = np.array(terms, dtype=float)
    expected = [float(np.add.reduce(arr[:i])) for i in range(len(terms) + 1)]
    assert float_bits(_prefix_sums(terms)) == float_bits(expected)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.lists(WIDTHS, max_size=300))
def test_total_length_is_the_numpy_sum_of_the_widths(widths):
    # distinct values: no two pieces merge
    f = StepFunction(tuple((float(len(widths) - k), w) for k, w in enumerate(widths)))
    assert float_bits(f.total_length) == float_bits(float(np.array(widths).sum()))


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 127, 128, 129, 136, 257, 300, 1000])
def test_prefix_sums_at_the_block_edges(n):
    # the regimes change at 8 and 128 terms; signed zeros everywhere
    rng = np.random.default_rng(n)
    for terms in (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n),
                  np.full(n, -0.0), np.where(rng.uniform(size=n) < 0.5, -0.0, 1e-300)):
        expected = [float(np.add.reduce(terms[:i])) for i in range(n + 1)]
        assert float_bits(_prefix_sums(terms.tolist())) == float_bits(expected)


def _operators() -> list[Operator]:
    """Gaussian operators on random algebras and on algebras of 8 to 16
    singular values, some made singular, at scales 2^-30 to 2^30."""
    out = []
    for trial in range(240):
        rng = rng_for(27, "log-prefix-table", trial)
        if trial % 2:
            dims = rng.integers(2, 7, size=int(rng.integers(2, 5)))
            alg = FiniteAlgebra(tuple((int(d), float(rng.uniform(0.5, 2.0))) for d in dims))
        else:
            alg = random_algebra(rng)
        x = gaussian(alg, rng)
        if trial % 5 == 0:
            # zero the first column of every block: rank one less per block
            x = Operator(alg, [b * (np.arange(b.shape[0]) > 0) for b in x.blocks])
        out.append(x * 2.0 ** int(rng.integers(-30, 31)))
    return out


def test_log_prefix_integral_equals_the_frozen_sum_at_every_breakpoint():
    xs = _operators()
    # the array pass (a list of 8 or more) and the per-operator cascade
    fs = mu_many(xs) + [mu(x) for x in xs[:60]]
    long_heads = 0
    for f in fs:
        zero, _, sums = f._logs
        assert len(sums) == zero + 1
        long_heads += zero >= 8
        ends = f._ends
        points = [0.0, *ends, *((a + b) / 2.0 for a, b in zip([0.0, *ends], ends))]
        for t in points:
            assert (float_bits(f.log_prefix_integral(t))
                    == float_bits(frozen_log_prefix_integral(f, t))), (f, t)
    assert len(fs) >= 200
    assert long_heads >= 50


def test_first_read_builds_once_and_stores_nothing_on_a_raise():
    alg = FiniteAlgebra(((2, 0.5), (3, 2.0)))
    assert "weights" not in vars(alg)
    assert alg.weights == (0.5, 2.0) and alg.total_trace == 7.0
    assert vars(alg)["weights"] is alg.weights
    assert isinstance(FiniteAlgebra.__dict__["weights"], first_read)
    f = StepFunction(((1.0, 1.0), (-1.0, 1.0)))
    for _ in range(2):
        with pytest.raises(NegativeValue):
            f.log_prefix_integral(0.5)
    assert "_log_prefix" not in vars(f)


def test_first_reads_racing_in_threads_agree():
    # a race builds a table twice; both builds are the same pure value
    fs = [StepFunction(((3.0, 0.5), (2.0, 1.5), (0.0, 1.0))) for _ in range(200)]
    results = [[] for _ in range(4)]

    def read(out):
        out.extend(float_bits([f.log_prefix_integral(2.0) for f in fs]))

    threads = [threading.Thread(target=read, args=(out,)) for out in results]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    expected = float_bits(frozen_log_prefix_integral(fs[0], 2.0))
    assert all(out == [expected] * len(fs) for out in results)
