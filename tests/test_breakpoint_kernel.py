"""Differential tests: the breakpoint calculus on the step functions' float
tables (``value_at``, ``prefix_integral``, ``log_prefix_integral``,
``union_breakpoints``, ``refine``, the two majorisation verdicts and the
stacked Lorentz norms) against frozen copies of the numpy code they
replaced (tests/oracles.py), bit for bit, on generated decreasing step
functions."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from logmaj.errors import NegativeValue, OutOfDomain, ShapeMismatch  # noqa: E402
from logmaj.majorization import (fk_log_determinant, log_submajorizes,  # noqa: E402
                                 mu_values_equal, submajorizes)
from logmaj.norms import Lorentz, evaluate_norms_mu  # noqa: E402
from logmaj.sampling import gaussian, random_algebra, rng_for  # noqa: E402
from logmaj.stepfun import StepFunction, mu, refine, union_breakpoints  # noqa: E402

from oracles import (float_bits, frozen_log_prefix_integral,  # noqa: E402
                     frozen_log_submajorizes, frozen_lorentz_norm, frozen_mu_values_equal,
                     frozen_prefix_integral,
                     frozen_refine, frozen_submajorizes, frozen_union_breakpoints,
                     frozen_value_at)

# widths from a small set make breakpoints of two functions coincide
WIDTHS = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),
                   st.floats(1e-3, 8.0, allow_nan=False, allow_infinity=False))
VALUES = st.one_of(st.sampled_from([1.0, 0.5, 2.0, 3.0]),
                   st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def decreasing(draw, max_pieces: int = 16):
    """A decreasing nonnegative step function of 0 to 16 pieces (past the
    8-element block of numpy's pairwise sum), at value and length scales
    2^-40 to 2^40, often with a zero tail."""
    n = draw(st.integers(0, max_pieces))
    values = sorted(draw(st.lists(VALUES, min_size=n, max_size=n)), reverse=True)
    widths = draw(st.lists(WIDTHS, min_size=n, max_size=n))
    if draw(st.booleans()):
        values.append(0.0)
        widths.append(draw(WIDTHS))
    sv = 2.0 ** draw(st.integers(-40, 40))
    sw = 2.0 ** draw(st.integers(-40, 40))
    return StepFunction(tuple((v * sv, w * sw) for v, w in zip(values, widths)))


@st.composite
def pairs(draw):
    """Two functions on lengths that are equal, equal up to roundoff, or
    unequal (the shorter is padded)."""
    f = draw(decreasing())
    g = draw(decreasing())
    how = draw(st.sampled_from(["free", "same", "drift"]))
    if how != "free" and f.pieces and g.pieces:
        target = f.total_length * (1.0 + (1e-15 if how == "drift" else 0.0))
        g = StepFunction(tuple((v, w * target / g.total_length) for v, w in g.pieces))
    return f, g


def _outcome(fn, *args):
    """Bits of a call's result (every field of a verdict), or the type of
    what it raised."""
    try:
        out = fn(*args)
    except (OutOfDomain, NegativeValue, ShapeMismatch) as err:
        return type(err)
    if hasattr(out, "checked_points"):
        out = (out.holds, out.worst_t, out.slack, list(out.checked_points))
    return float_bits(out)


def _points(f):
    """Breakpoints, mid-cells, the ends of the domain, points within the
    slop beyond them and points outside it."""
    ends = frozen_union_breakpoints(f).tolist()
    cells = [0.0, *ends]
    mids = [(lo + hi) / 2.0 for lo, hi in zip(cells, cells[1:])]
    length = f.total_length
    slop = 1e-12 * max(1.0, length)
    return [0.0, -0.0, *ends, *mids, length, length + 0.5 * slop, -0.5 * slop,
            length + 4.0 * slop + 1.0, -4.0 * slop - 1.0, np.float64(length / 3.0)]


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_verdicts_match_frozen(pair):
    f, g = pair
    for b, a in ((f, g), (g, f)):
        assert _outcome(submajorizes, b, a) == _outcome(frozen_submajorizes, b, a)
        assert _outcome(log_submajorizes, b, a) == _outcome(frozen_log_submajorizes, b, a)


@settings(max_examples=300, deadline=None)
@given(decreasing())
def test_point_evaluations_match_frozen(f):
    for t in _points(f):
        assert _outcome(f.value_at, t) == _outcome(frozen_value_at, f, t), t
        assert _outcome(f.prefix_integral, t) == _outcome(frozen_prefix_integral, f, t), t
        assert (_outcome(f.log_prefix_integral, t)
                == _outcome(frozen_log_prefix_integral, f, t)), t


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_union_and_refinement_match_frozen(pair):
    f, g = pair
    got = union_breakpoints(f, g)
    assert got.dtype == np.float64
    assert float_bits(got.tolist()) == float_bits(frozen_union_breakpoints(f, g).tolist())
    assert (float_bits([a.tolist() for a in refine(f, g)])
            == float_bits([a.tolist() for a in frozen_refine(f, g)]))
    top = max([1.0, *f.values.tolist(), *g.values.tolist()])
    for tol in (0.0, 1e-12 * top, 0.5 * top):
        assert mu_values_equal(f, g, tol) is frozen_mu_values_equal(f, g, tol)


def test_log_prefix_integral_rejects_a_negative_function_as_before():
    f = StepFunction(((1.0, 1.0), (-1.0, 1.0)))
    for t in (0.0, 0.5, 2.0, 3.0):
        assert _outcome(f.log_prefix_integral, t) is NegativeValue
        assert _outcome(frozen_log_prefix_integral, f, t) is NegativeValue


def test_stacked_lorentz_norms_match_frozen_on_mixed_cell_counts():
    rng = np.random.default_rng(19)
    fs = []
    for _ in range(60):
        n = int(rng.integers(0, 17))
        values = np.sort(rng.uniform(0.01, 5.0, size=n))[::-1] * 2.0 ** int(rng.integers(-30, 30))
        widths = rng.choice([0.25, 0.5, 1.0, 1.5], size=n)
        if rng.uniform() < 0.5:
            values, widths = np.append(values, 0.0), np.append(widths, 0.5)
        fs.append(StepFunction(tuple(zip(values.tolist(), widths.tolist()))))
    weight = StepFunction(((3.0, 0.75), (2.0, 2.0), (1.5, 4.0), (1.0, 40.0)))
    for p in (0.5, 1.0, 2.0, 3.5):
        spec = Lorentz(p, weight)
        got = evaluate_norms_mu(spec, fs)
        assert len({len(refine(f, weight.truncate(f.total_length))[0]) for f in fs}) > 5
        assert float_bits(got) == float_bits([frozen_lorentz_norm(spec, f) for f in fs])


def test_array_log_equals_scalar_log():
    """``log_prefix_integral`` takes the log of a partial piece from
    ``np.log`` of the whole array and the sums from ``np.log`` of a prefix:
    both must be what ``np.log`` gives for each value alone."""
    rng = np.random.default_rng(7)
    x = rng.uniform(1.0, 10.0, size=100_000) * 10.0 ** rng.integers(-300, 301, size=100_000)
    whole = np.log(x)
    assert float_bits(whole.tolist()) == float_bits([float(np.log(v)) for v in x.tolist()])
    for n in range(1, 40):
        assert float_bits(np.log(x[:n]).tolist()) == float_bits(whole[:n].tolist())


class _Counter:
    """Counts the calls of the named numpy functions.  ``"sum"`` counts
    the reductions made through ``np.sum`` or ``np.add.reduce``; a call
    made inside a counted call (``np.sum`` reduces with ``np.add``) is not
    counted again."""

    def __init__(self, monkeypatch, names):
        self.calls = dict.fromkeys(names, 0)
        self.depth = 0
        for name in names:
            monkeypatch.setattr(np, name, self.counted(name, getattr(np, name)))
        if "sum" in names:
            monkeypatch.setattr(np, "add", _CountedAdd(np.add, self.counted("sum", np.add.reduce)))

    def counted(self, name, real):
        def call(*args, **kwargs):
            self.calls[name] += not self.depth
            self.depth += 1
            try:
                return real(*args, **kwargs)
            finally:
                self.depth -= 1
        return call


class _CountedAdd:
    """``np.add`` with a counted ``reduce``."""

    def __init__(self, add, reduce):
        self._add, self.reduce = add, reduce

    def __call__(self, *args, **kwargs):
        return self._add(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._add, name)


def _mu_pair(seed):
    rng = rng_for(seed, "kernel", 0)
    alg = random_algebra(rng)
    x = gaussian(alg, rng)
    return mu(x @ gaussian(alg, rng)), mu(x)


def test_verdicts_make_no_numpy_call_per_breakpoint(monkeypatch):
    points = 0
    for seed in range(20):
        b, a = _mu_pair(seed)
        counter = _Counter(monkeypatch, ["searchsorted", "sum", "log", "any", "cumsum"])
        verdict = submajorizes(b, a)
        assert counter.calls == dict.fromkeys(counter.calls, 0)
        log_submajorizes(b, a)
        # the log-prefix sums are a table of Python floats; np.log once per side
        assert counter.calls["sum"] == 0
        assert counter.calls["log"] <= 2
        assert counter.calls["searchsorted"] == counter.calls["any"] == 0
        calls = dict(counter.calls)
        log_submajorizes(b, a)
        assert counter.calls == calls
        points += len(verdict.checked_points)
        monkeypatch.undo()
    assert points > 60


def test_fk_log_determinant_takes_no_numpy_sum(monkeypatch):
    """The log-prefix sums are ``np.add.reduce``'s bits built in Python
    floats (``stepfun._prefix_sums``): no numpy reduction is left."""
    rng = rng_for(3, "kernel", 1)
    alg = random_algebra(rng)
    x = gaussian(alg, rng)
    expected = fk_log_determinant(x)
    counter = _Counter(monkeypatch, ["sum"])
    assert float_bits(fk_log_determinant(x)) == float_bits(expected)
    assert counter.calls["sum"] == 0
    assert math.isfinite(expected)
