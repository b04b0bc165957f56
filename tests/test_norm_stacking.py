"""Norm suites stacked across variants, and Lorentz norms read from arrays.

``norm-axioms`` and ``slm-all-variants`` evaluate the trials of all five
norm variants in the same stacks (``check_symmetric_many``,
``check_slm_many``); their reports must equal, byte for byte, a frozen
loop over the variants through the per-trial checkers of
tests/oracles.py, and their errors must be the loop's.  ``_lorentz_norms``
refines many functions against the weight in one array pass; its norms
must equal the frozen function-by-function refinement bit for bit, and an
exact rational oracle within a stated bound.
"""

import collections
import dataclasses
import json
import math

import numpy as np
import pytest

import logmaj.norms as norms
import logmaj.suites as suites
from logmaj import FiniteAlgebra, Operator
from logmaj.config import overridden_tolerances
from logmaj.errors import GenerationFailure, LogmajError, NegativeValue, WeightTooShort
from logmaj.norms import (Lorentz, Lp, check_slm, check_slm_many, check_symmetric,
                          check_symmetric_many, evaluate_norms, evaluate_norms_mu, norm_label)
from logmaj.majorization import log_submajorizes
from logmaj.sampling import gaussian, hermitian, psd, rng_streams
from logmaj.stepfun import StepFunction, _union_breakpoints, mu_many
from logmaj.suites import SUITES, _norm_variants

from oracles import (FROZEN_NORM_SUITES, exact_lorentz1_norm, exact_lp1_norm, float_bits,
                     frozen_check_slm, frozen_evaluate_norm_mu, frozen_lorentz_norm, frozen_mu,
                     frozen_truncate)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _report(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def _outcome(run):
    """A suite's report, or the type and text of the error it raised."""
    try:
        return ("ok", _report(run()))
    except (LogmajError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("name", list(FROZEN_NORM_SUITES))
def test_norm_suites_equal_the_frozen_variant_loop(name):
    suite, frozen = SUITES[name][0], FROZEN_NORM_SUITES[name]
    for seed in (0, 1, 2, 3, 4):
        for trials in (0, 1, 2, 7, 20, 200):
            assert _report(suite(trials, seed)) == _report(frozen(trials, seed)), (seed, trials)


@pytest.mark.parametrize("name", list(FROZEN_NORM_SUITES))
@pytest.mark.parametrize("overrides", [{"alg": -1.0}, {"alg": 0.0}, {"alg": 1e-300},
                                       {"alg": 1e-15}, {"alg": 10.0}, {"maj": -1.0},
                                       {"maj": 0.0}], ids=str)
def test_norm_suites_under_tolerance_overrides(name, overrides):
    suite, frozen = SUITES[name][0], FROZEN_NORM_SUITES[name]
    with overridden_tolerances(**overrides):
        for trials in (1, 7):
            new, old = _outcome(lambda: suite(trials, 3)), _outcome(lambda: frozen(trials, 3))
            assert new[0] == old[0] and (new[0] != "ok" or new == old), (trials, new, old)


def _loop_failure(specs, trials, seed) -> str:
    """The error of a variant-by-variant loop of the frozen checker."""
    with pytest.raises(GenerationFailure) as failure:
        for spec in specs:
            frozen_check_slm(spec, trials, seed)
    return str(failure.value)


# (maj, trials, seed) and the variant whose error the loop raises: with
# maj = -0.7 some candidates fail the log-submajorisation check, and one
# trial has ten attempts
FAILING = [((-1e9, 1, 2), 0), ((-1e9, 4, 2), 0),   # every variant fails
           ((-0.7, 1, 0), 0),                      # only the first one
           ((-0.7, 1, 1), 1),                      # the second and the third
           ((-0.7, 1, 9), 3),                      # the fourth and the fifth
           ((-0.7, 1, 11), 4)]                     # only the last one


@pytest.mark.parametrize("case, first", FAILING, ids=str)
def test_slm_many_raises_the_error_of_the_first_failing_variant(case, first):
    maj, trials, seed = case
    specs = _norm_variants()
    with overridden_tolerances(maj=maj):
        expected = _loop_failure(specs, trials, seed)
        assert expected.endswith(f"for {norm_label(specs[first])}")
        with pytest.raises(GenerationFailure) as new:
            check_slm_many(specs, trials, seed)
        assert str(new.value) == expected
        with pytest.raises(GenerationFailure) as suite:
            SUITES["slm-all-variants"][0](trials, seed)
        assert str(suite.value) == expected
        # the variants before the failing one still give the loop's reports
        if first:
            assert ([_report(r) for r in check_slm_many(specs[:first], trials, seed)]
                    == [_report(frozen_check_slm(s, trials, seed)) for s in specs[:first]])



def _scripted_verdicts(monkeypatch, accept):
    """Let ``check_slm_many`` accept a candidate only if the predicate
    holds and ``accept(label, n)`` does, for the label of the candidate's
    stream and ``n`` its number among that label's candidates."""
    label_of, seen = {}, collections.Counter()
    drawn = []   # the label of each stream of the round, in stream order

    def streams(seed, label, trials):
        out = rng_streams(seed, label, trials)
        drawn.extend(label for _ in out)
        return out

    def mus(xs):
        # a round's y's are the second half, one per stream, in stream order
        fs = mu_many(xs)
        assert len(fs) == 2 * len(drawn)
        label_of.update((id(fy), label) for fy, label in zip(fs[len(drawn):], drawn))
        drawn.clear()
        return fs

    def verdict(fx, fy):
        label = label_of[id(fy)]
        seen[label] += 1
        holds = log_submajorizes(fx, fy)
        return dataclasses.replace(holds, holds=holds.holds and accept(label, seen[label]))

    for name, fn in (("rng_streams", streams), ("mu_many", mus), ("log_submajorizes", verdict)):
        monkeypatch.setattr(norms, name, fn)


def test_a_variant_out_of_attempts_in_fewer_rounds_waits_for_the_earlier_ones(monkeypatch):
    """lp(0.5) accepts its first candidate only, so it runs out of its 20
    attempts in its 19th round; lorentz(1) accepts none and runs out in
    its 10th.  The error is lp(0.5)'s, as in a variant-by-variant loop."""
    specs = _norm_variants()

    def accept(label, n):
        return label not in ("slm:lp(0.5)", "slm:lorentz(1)") or (label, n) == ("slm:lp(0.5)", 1)

    _scripted_verdicts(monkeypatch, accept)
    with pytest.raises(GenerationFailure) as loop:
        for spec in specs:
            check_slm(spec, 2, 3)
    assert str(loop.value) == "no valid SLM pair in 20 attempts for lp(0.5)"
    monkeypatch.undo()
    _scripted_verdicts(monkeypatch, accept)
    with pytest.raises(GenerationFailure) as new:
        check_slm_many(specs, 2, 3)
    assert str(new.value) == str(loop.value)


def test_many_forms_equal_the_one_variant_forms():
    specs = _norm_variants() + [Lp(3.0), Lorentz(2.0, suites._LORENTZ_WEIGHT)]
    for trials, seed in ((0, 1), (1, 2), (13, 3)):
        assert ([_report(r) for r in check_symmetric_many(specs, trials, seed)]
                == [_report(check_symmetric(s, trials, seed)) for s in specs])
        assert ([_report(r) for r in check_slm_many(specs, trials, seed)]
                == [_report(check_slm(s, trials, seed)) for s in specs])
    assert check_symmetric_many([], 5, 1) == check_slm_many([], 5, 1) == []


# ---------------------------------------------------------------------------
# the stacks of the two suites do not grow with the number of variants

def _count_stacked_calls(monkeypatch) -> collections.Counter:
    """Count ``mu_many``, ``unitaries`` and SVD calls, except
    inside ``check_delta_axioms``, whose batches are one per variant's
    algebra by design; its calls are counted as ``delta``."""
    counts: collections.Counter = collections.Counter()
    paused = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if not paused:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("mu_many", "unitaries"):
        monkeypatch.setattr(norms, name, counting(name, getattr(norms, name)))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    delta = suites.check_delta_axioms

    def paused_delta(*args):
        counts["delta"] += 1
        paused.append(True)
        try:
            return delta(*args)
        finally:
            paused.pop()

    monkeypatch.setattr(suites, "check_delta_axioms", paused_delta)
    return counts


@pytest.mark.parametrize("name, trials", [("norm-axioms", 200), ("slm-all-variants", 20)])
def test_stacked_calls_do_not_grow_with_variants(monkeypatch, name, trials):
    variants = _norm_variants()
    seen = {}
    for count in (1, len(variants)):
        counts = _count_stacked_calls(monkeypatch)
        monkeypatch.setattr(suites, "_norm_variants", lambda: variants[:count])
        report = SUITES[name][0](trials, 5).to_json()
        seen[count] = dict(counts)
        monkeypatch.undo()
        if name == "slm-all-variants":   # one round each: no candidate was rejected
            assert all(s["attempts"] == trials for s in report["stats"].values())
    one, five = seen[1], seen[len(variants)]
    assert five.pop("delta", 0) == len(variants) * one.pop("delta", 0)
    assert five == one and one["svd"] >= 2 and one["unitaries"] == 1, seen


# ---------------------------------------------------------------------------
# the Lorentz array pass against the frozen refinement

def _lorentz_rows_refined_alone(monkeypatch, spec, fs) -> list[int]:
    """The rows of ``evaluate_norms_mu(spec, fs)`` that go to ``_refine``."""
    alone = []
    refine = norms._refine

    def recording(f, g, *args):
        alone.append(next(i for i, h in enumerate(fs) if h.pieces == f.pieces))
        return refine(f, g, *args)

    monkeypatch.setattr(norms, "_refine", recording)
    evaluate_norms_mu(spec, fs)
    monkeypatch.undo()
    return alone


def _weight(total: float) -> StepFunction:
    return StepFunction(((2.0, 0.25 * total), (1.0, 0.25 * total), (0.5, 0.5 * total)))


def test_array_pass_takes_the_rows_of_a_suite_batch(monkeypatch):
    rng = np.random.default_rng(4)
    alg = FiniteAlgebra(((3, 1.5), (2, 0.75)))
    fs = mu_many([gaussian(alg, rng) for _ in range(40)])
    spec = Lorentz(1.0, suites._LORENTZ_WEIGHT)
    assert _lorentz_rows_refined_alone(monkeypatch, spec, fs) == []
    few = fs[:norms._MIN_ARRAY_ROWS - 1]
    assert _lorentz_rows_refined_alone(monkeypatch, spec, few) == list(range(len(few)))


def test_a_slop_chain_is_refined_alone(monkeypatch):
    """Breakpoints 1, 1 + 1.2e-12 and 1 + 2.4e-12 under a slop of about
    2e-12: the union keeps the third, whose gap to the last point kept is
    2.4e-12, though its gap to the point before is 1.2e-12."""
    chain = StepFunction(((3.0, 1.0), (2.0, 1.2e-12), (1.0, 1.0)))
    weight = StepFunction(((5.0, 1.0 + 2.4e-12), (0.5, 100.0)))
    spec = Lorentz(1.0, weight)
    rng = np.random.default_rng(5)
    fs = [StepFunction(((2.5, 0.5), (1.5, 1.5))) for _ in range(9)]
    fs[4] = chain
    fs += [StepFunction(tuple((float(v), 0.25) for v in sorted(rng.uniform(0, 3, 8))[::-1]))
           for _ in range(3)]
    assert _lorentz_rows_refined_alone(monkeypatch, spec, fs) == [4]
    assert (float_bits(evaluate_norms_mu(spec, fs))
            == float_bits([frozen_evaluate_norm_mu(spec, f) for f in fs])
            == float_bits([frozen_lorentz_norm(spec, f) for f in fs]))
    # the rule "more than the slop above the point before" would drop it
    w = weight.truncate(chain.total_length)
    points = sorted(chain._ends + w._ends)
    slop = 1e-12 * max(chain.total_length, w.total_length)
    pairwise = [points[0]] + [t for s, t in zip(points, points[1:]) if t - s > slop]
    assert 1.0 + 2.4e-12 in _union_breakpoints(chain, w)
    assert 1.0 + 2.4e-12 not in pairwise


def test_functions_shorter_and_longer_than_the_weight():
    """Against a weight of length 3: shorter functions (the weight is
    truncated), one of its length, longer ones within the slop (no
    truncation and no padding), and a longer one beyond it, which raises."""
    rng = np.random.default_rng(6)
    spec = Lorentz(1.5, _weight(3.0))
    fs = []
    for length in (0.5, 1.0, 2.0, 2.99, 3.0, 3.0 * (1 + 0.25e-12), 3.0 * (1 + 0.5e-12),
                   3.0 + 2e-12):
        widths = rng.uniform(0.1, 1.0, size=int(rng.integers(1, 9)))
        widths *= length / widths.sum()
        values = np.sort(rng.uniform(0.0, 2.0, size=widths.size))[::-1]
        fs.append(StepFunction(tuple(zip(values.tolist(), widths.tolist()))))
    fs += fs[:4]
    assert len(fs) >= norms._MIN_ARRAY_ROWS
    assert (float_bits(evaluate_norms_mu(spec, fs))
            == float_bits([frozen_evaluate_norm_mu(spec, f) for f in fs]))
    too_long = StepFunction(((1.0, 3.0 * (1 + 3e-12)),))
    for at in (0, 5, len(fs)):
        with pytest.raises(WeightTooShort) as new:
            evaluate_norms_mu(spec, fs[:at] + [too_long] + fs[at:])
        with pytest.raises(WeightTooShort) as old:
            frozen_evaluate_norm_mu(spec, too_long)
        assert str(new.value) == str(old.value)


def test_the_first_bad_function_raises_in_a_long_batch():
    spec = Lorentz(1.0, StepFunction(((2.0, 1.0), (1.0, 1.0))))
    ok = [StepFunction(((1.0 + k / 8, 1.5),)) for k in range(10)]
    long = StepFunction(((1.0, 3.0),))
    negative = StepFunction(((1.0, 0.5), (-1.0, 1.0)))
    long_negative = StepFunction(((-1.0, 3.0),))
    for fs in (ok[:5] + [negative] + ok[5:] + [long], ok[:5] + [long] + ok[5:] + [negative],
               ok + [long_negative, long], ok + [long, long_negative], [negative] * 9):
        with pytest.raises((NegativeValue, WeightTooShort)) as new:
            evaluate_norms_mu(spec, fs)
        with pytest.raises((NegativeValue, WeightTooShort)) as old:
            [frozen_evaluate_norm_mu(spec, f) for f in fs]
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))


KINDS = ("gaussian", "hermitian", "psd", "ties")


@st.composite
def operator_lists(draw):
    """Operators on random algebras at scales 1e-12 to 1e12, and a Lorentz
    norm whose weight is as long as the longest tau(1), or longer, or
    shorter by less than the slop."""
    n = draw(st.sampled_from([1, 7, 8, 9, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for _ in range(n):
        dims = rng.integers(1, 5, size=int(rng.integers(1, 4)))
        alg = FiniteAlgebra(tuple((int(d), float(rng.uniform(0.5, 2.0))) for d in dims))
        kind = draw(st.sampled_from(KINDS))
        if kind == "ties":
            x = alg.diagonal([rng.choice([0.0, 1.0, 2.0], size=d).tolist() for d in alg.dims])
        else:
            x = {"gaussian": gaussian, "hermitian": hermitian, "psd": psd}[kind](alg, rng)
        ops.append(10.0 ** draw(st.integers(-12, 12)) * x)
    top = max(x.algebra.total_trace for x in ops)
    total = top * draw(st.sampled_from([1.0, 1.0 - 0.5e-12, 1.5, 40.0]))
    p = draw(st.sampled_from([0.5, 1.0, 2.5]))
    return ops, Lorentz(p, _weight(total))


@settings(max_examples=60, deadline=None)
@given(operator_lists())
def test_lorentz_norms_equal_the_frozen_refinement(case):
    xs, spec = case
    expected = float_bits([frozen_lorentz_norm(spec, frozen_mu(x)) for x in xs])
    assert float_bits(evaluate_norms(spec, xs)) == expected
    assert float_bits(evaluate_norms_mu(spec, mu_many(xs))) == expected


def test_truncated_weights_equal_the_canonicalising_truncate():
    """``truncate`` keeps a prefix of canonical pieces without a second
    canonical pass; its pieces equal those of the frozen truncate that
    canonicalised them, cut inside a piece, exactly on an end (a sum of
    widths that rounds) and at or past the domain's length."""
    rng = np.random.default_rng(9)
    weights = [suites._LORENTZ_WEIGHT, _weight(11.7),
               StepFunction(((3.0, 0.1), (2.0, 0.2), (1.0, 0.3), (-0.0, 0.4))),
               StepFunction(tuple((float(v), float(w)) for v, w in zip(
                   np.sort(rng.uniform(0.1, 5.0, size=12))[::-1], rng.uniform(0.1, 2.0, size=12))))]
    for weight in weights:
        ends = weight._ends
        cuts = [0.0, 1e-300, *ends, *(e * (1.0 - 1e-9) for e in ends),
                *rng.uniform(0.0, weight.total_length, size=20).tolist(),
                weight.total_length, weight.total_length * (1.0 + 1e-13)]
        for cut in cuts:
            new, old = weight.truncate(cut), frozen_truncate(weight, cut)
            assert float_bits(new.pieces) == float_bits(old.pieces), (weight, cut)
            assert (new.total_length, new.is_decreasing) == (old.total_length, old.is_decreasing)
    # 0.1 + 0.2 is not 0.3: a cut at the float sum lands on the second end
    f = StepFunction(((3.0, 0.1), (2.0, 0.2), (1.0, 0.3)))
    assert f.truncate(0.1 + 0.2).pieces == ((3.0, 0.1), (2.0, 0.2))


# ---------------------------------------------------------------------------
# an exact oracle: diagonal operators with dyadic entries and weights

def _dyadic_diagonals(rng, n):
    ops = []
    for _ in range(n):
        dims = rng.integers(1, 5, size=int(rng.integers(1, 4)))
        alg = FiniteAlgebra(tuple((int(d), int(rng.integers(1, 17)) / 8) for d in dims))
        # |entries| in {0} and [1/16, 4]; an imaginary entry makes a block
        # non-hermitian, so its singular values come from the SVD
        diags = [(rng.integers(0, 65, size=d) / 16 * rng.choice([1, -1, 1j], size=d))
                 for d in alg.dims]
        ops.append(Operator(alg, [np.diag(v.astype(complex)) for v in diags]))
    return ops


@pytest.mark.parametrize("n", [1, 3, 8, 40])
def test_norms_of_dyadic_diagonals_equal_the_exact_rationals(n):
    """Lp(1) and Lorentz(1, w) against ``fractions.Fraction`` sums.  The
    bound is one ulp of the exact norm per cell: each product and each
    addition of the pairwise sum rounds at most once, by half an ulp of a
    partial sum no larger than the norm.  On these inputs every
    operation is exact, and so is every norm seen."""
    rng = np.random.default_rng(n)
    xs = _dyadic_diagonals(rng, n)
    top = max(x.algebra.total_trace for x in xs)
    for total in (top, top + 1.5):
        weight = StepFunction(((4.0, total / 4), (1.5, total / 2), (0.25, total / 4)))
        for spec, exact in ((Lp(1.0), exact_lp1_norm),
                            (Lorentz(1.0, weight), lambda x: exact_lorentz1_norm(x, weight))):
            for x, norm in zip(xs, evaluate_norms(spec, xs)):
                want = exact(x)
                cells = 2 * sum(x.algebra.dims) + 3
                assert abs(norm - want) <= cells * math.ulp(float(want)), (spec, x)
