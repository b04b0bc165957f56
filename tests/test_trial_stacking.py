"""Trial-stacked calculus suites and the mixed-algebra stacked forms.

The nine calculus suites draw every trial first and evaluate all trials in
stacks; their reports must equal, byte for byte, the frozen trial-by-trial
copies in tests/oracles.py.  The ``*_many`` forms they use take lists of
operators on different algebras; on generated lists they must equal the
per-operator forms bit for bit, errors included.
"""

import collections
import json
import sys

import numpy as np
import pytest

import logmaj
from logmaj import FiniteAlgebra, Operator
from logmaj.algebra import (is_psd_many, min_eigenvalue, min_eigenvalue_many, norm_inf_many,
                            spectral_decompose, spectral_decompose_many, spectral_projection,
                            spectral_projection_many, support_projection,
                            support_projection_many)
from logmaj.errors import NotHermitian, NotPSD
from logmaj.majorization import (disjointness_from_mu_equality,
                                 disjointness_from_mu_equality_many, fk_log_determinant,
                                 fk_log_determinant_many)
from logmaj.sampling import (Sampler, disjoint_psd_pairs, hermitian, hermitian_contraction,
                             hermitian_contractions, random_algebra, rng_for)
from logmaj.suites import SUITES

from oracles import (FROZEN_CALCULUS_SUITES, float_bits, frozen_disjoint_psd_pair,
                     frozen_disjointness_from_mu_equality, frozen_is_psd, frozen_min_eigenvalue,
                     frozen_mu, frozen_spectral_decompose, frozen_spectral_projection,
                     frozen_support_projection)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _report(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


@pytest.mark.parametrize("name", list(FROZEN_CALCULUS_SUITES))
def test_calculus_suites_equal_the_frozen_per_trial_copies(name):
    suite, frozen = SUITES[name][0], FROZEN_CALCULUS_SUITES[name]
    for seed in (0, 1, 2, 3, 4):
        for trials in (0, 1, 2, 7, 10, 64):
            assert _report(suite(trials, seed)) == _report(frozen(trials, seed)), (seed, trials)


@pytest.mark.parametrize("name", list(FROZEN_CALCULUS_SUITES))
def test_calculus_suites_equal_the_frozen_copies_across_chunks(name):
    """Runs longer than a chunk are drawn, stacked and decided chunk by
    chunk; their reports still equal the trial-by-trial ones."""
    from logmaj.suites import _TRIAL_CHUNK

    suite, frozen = SUITES[name][0], FROZEN_CALCULUS_SUITES[name]
    for trials in (_TRIAL_CHUNK + 1, 2 * _TRIAL_CHUNK + 3):
        assert _report(suite(trials, 5)) == _report(frozen(trials, 5)), trials


def test_run_probes_stacking_before_any_stacked_suite(monkeypatch):
    import logmaj.suites
    from logmaj.errors import InternalError
    from logmaj.stepfun import StepFunction
    from logmaj.suites import RunConfig, run_suites

    probes = []
    probe = logmaj.suites._probe_stacking
    monkeypatch.setattr(logmaj.suites, "_probe_stacking", lambda seed: probes.append(seed))
    run_suites(RunConfig(seed=3, trials=0, only="jordan-roundtrip"))
    assert probes == []
    run_suites(RunConfig(seed=3, trials=0))
    assert probes == [3]
    monkeypatch.setattr(logmaj.suites, "_probe_stacking", probe)
    probe(3)
    # a lone mu that differs from its row of the stack stops the run
    monkeypatch.setattr(logmaj.suites, "mu", lambda x: StepFunction(((1.0, 1.0),)))
    with pytest.raises(InternalError):
        run_suites(RunConfig(seed=3, trials=1, only="sum-diff"))


@pytest.mark.parametrize("name", ["norm-axioms", "slm-all-variants"])
def test_a_norm_suite_run_probes_stacking(monkeypatch, name):
    """Both norm suites evaluate their trials in stacks and take mu's rows
    from them, so a run of either alone probes stacking first."""
    import logmaj.suites
    from logmaj.suites import RunConfig, run_suites

    probes = []
    monkeypatch.setattr(logmaj.suites, "_probe_stacking", lambda seed: probes.append(seed))
    run_suites(RunConfig(seed=4, trials=2, only=name))
    assert probes == [4]


def _key(x: Operator):
    return (x.algebra.blocks, tuple(b.tobytes() for b in x.blocks))


@pytest.mark.parametrize("name", [n for n in FROZEN_CALCULUS_SUITES if n != "anticommute"])
def test_calculus_suites_take_mu_of_the_frozen_operators(monkeypatch, name):
    """A report shows few values, so the operators whose mu each suite
    takes are compared too: the same multiset, bit for bit, as the frozen
    copy's (whose draws come from the frozen samplers)."""
    import logmaj.majorization
    import logmaj.suites
    import oracles

    live, frozen = [], []

    def recording_many(fn):
        def wrapper(xs):
            live.extend(_key(x) for x in xs)
            return fn(xs)
        return wrapper

    def recording_one(x):
        frozen.append(_key(x))
        return original_one(x)

    original_one = oracles.frozen_mu
    for module in (logmaj.suites, logmaj.majorization):
        monkeypatch.setattr(module, "mu_many", recording_many(module.mu_many))
    monkeypatch.setattr(oracles, "frozen_mu", recording_one)
    from logmaj.suites import _TRIAL_CHUNK

    SUITES[name][0](_TRIAL_CHUNK + 12, 6)  # a full chunk and a short one
    FROZEN_CALCULUS_SUITES[name](_TRIAL_CHUNK + 12, 6)
    assert live and sorted(live) == sorted(frozen)


@pytest.mark.parametrize("label", ["anticommute", "sum-diff"])
def test_disjoint_trials_draw_the_frozen_pairs_then_w(label):
    from logmaj.suites import _disjoint_trials
    from oracles import frozen_psd

    xs, ys, ws = _disjoint_trials(7, label, range(70, 79))  # a chunk after the first
    for trial, (x, y, w) in zip(range(70, 79), zip(xs, ys, ws)):
        rng = rng_for(7, label, trial)
        alg = random_algebra(rng)
        fx, fy = frozen_disjoint_psd_pair(alg, rng)
        assert [_key(x), _key(y), _key(w)] == [_key(fx), _key(fy), _key(frozen_psd(alg, rng))]


# ---------------------------------------------------------------------------
# the lone single-operator calls of the nine suites do not grow with trials

_LONE = {
    "logmaj.stepfun": ["mu"],
    "logmaj.algebra": ["spectral_decompose", "spectral_projection", "functional_calculus",
                       "support_projection", "min_eigenvalue", "is_psd"],
    "logmaj.majorization": ["fk_log_determinant", "fk_determinant",
                            "disjointness_from_mu_equality"],
    "logmaj.sampling": ["hermitian_contraction", "disjoint_psd_pair", "unitary", "gaussian",
                        "hermitian", "psd"],
}


def _count_lone_calls(monkeypatch) -> collections.Counter:
    """Count the calls of the single-operator routines, wherever a module
    of the package refers to them, and of ``Operator.norm_inf`` and
    ``Sampler.draw``."""
    counts: collections.Counter = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items() if n == "logmaj" or n.startswith("logmaj.")]
    for home, names in _LONE.items():
        for name in names:
            original = getattr(sys.modules[home], name)
            wrapper = counting(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(Operator, "norm_inf", counting("norm_inf", Operator.norm_inf))
    monkeypatch.setattr(Sampler, "draw", counting("Sampler.draw", Sampler.draw))
    return counts


@pytest.mark.parametrize("name", list(FROZEN_CALCULUS_SUITES))
def test_lone_calls_do_not_grow_with_trials(monkeypatch, name):
    suite = SUITES[name][0]
    seen = {}
    for trials in (10, 50):
        counts = _count_lone_calls(monkeypatch)
        suite(trials, 3)
        seen[trials] = dict(counts)
        monkeypatch.undo()
    assert seen[50] == seen[10] == {}, seen


def test_mu_rigidity_equal_pair_compares_two_computed_mus(monkeypatch):
    import logmaj.suites

    pairs = []
    original = logmaj.suites.mu_values_equal

    def recording(f, g, tol):
        pairs.append((f, g))
        return original(f, g, tol)

    monkeypatch.setattr(logmaj.suites, "mu_values_equal", recording)
    logmaj.suites.suite_mu_rigidity(12, 5)
    equal_pairs = [(f, g) for f, g in pairs if f.pieces == g.pieces]
    assert len(equal_pairs) >= 12
    assert all(f is not g for f, g in pairs)


# ---------------------------------------------------------------------------
# the mixed-algebra stacked forms against the per-operator forms

KINDS = ("exact", "inexact", "psd", "ties", "general")


def _operator(alg: FiniteAlgebra, kind: str, scale: float, rng: np.random.Generator) -> Operator:
    blocks = []
    for d in alg.dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kind == "general":
            b = g
        elif kind == "psd":
            b = g.conj().T @ g
        elif kind == "ties":
            b = np.diag(rng.choice([0.0, 1.0, -2.0], size=d)).astype(complex)
        else:
            b = (g + g.conj().T) / 2.0
            if kind == "inexact":  # hermitian up to a defect far below the check
                b = b + 1e-13 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        blocks.append(scale * b)
    return alg.operator(blocks)


@st.composite
def operator_lists(draw, kinds=KINDS):
    n = draw(st.sampled_from([0, 1, 2, 9, 64]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        dims = rng.integers(1, 5, size=draw(st.integers(1, 3)))
        alg = FiniteAlgebra(tuple((int(d), float(rng.choice([0.5, 1.0, 2.5]))) for d in dims))
        kind = draw(st.sampled_from(kinds))
        scale = 10.0 ** draw(st.integers(-12, 12))
        ops.append(_operator(alg, kind, scale, rng))
    return ops


def _op_bits(x: Operator):
    return (x.algebra, tuple(b.tobytes() for b in x.blocks))


def _dec_bits(dec):
    return (dec.algebra, tuple(w.tobytes() for w in dec.eigenvalues),
            tuple(v.tobytes() for v in dec.bases))


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (NotHermitian, NotPSD) as exc:
        return (type(exc).__name__,)


def _per_operator(fn, xs, *columns):
    """``fn`` on each operator, or the first error's type, as a many-form
    raises it."""
    out = []
    for args in zip(xs, *columns):
        result = _outcome(fn, *args)
        if result[0] != "ok":
            return result
        out.append(result[1])
    return ("ok", out)


PROPERTY = settings(max_examples=40, deadline=None)


@PROPERTY
@given(operator_lists())
def test_norms_eigenvalues_and_psd_verdicts_equal_per_operator(xs):
    assert float_bits(norm_inf_many(xs)) == float_bits([x.norm_inf() for x in xs])
    assert (float_bits(min_eigenvalue_many(xs))
            == float_bits([frozen_min_eigenvalue(x) for x in xs])
            == float_bits([min_eigenvalue(x) for x in xs]))
    assert is_psd_many(xs) == [frozen_is_psd(x) for x in xs]
    assert ([_op_bits(p) for p in support_projection_many(xs)]
            == [_op_bits(frozen_support_projection(x)) for x in xs]
            == [_op_bits(support_projection(x)) for x in xs])
    assert (float_bits(fk_log_determinant_many(xs))
            == float_bits([fk_log_determinant(x) for x in xs]))


@PROPERTY
@given(operator_lists(kinds=("exact", "inexact", "psd", "ties")),
       st.integers(0, 2 ** 32 - 1), st.one_of(st.none(), st.integers(-12, 12)))
def test_decompositions_and_projections_equal_per_operator(xs, seed, general):
    """Hermitian lists, and with ``general`` one non-hermitian operator of
    scale ``10**general`` among them: it raises ``NotHermitian`` alone
    and in the list, unless it is below the absolute floor of the check."""
    rng = np.random.default_rng(seed)
    if general is not None:
        alg = random_algebra(rng)
        xs = list(xs)
        xs.insert(int(rng.integers(0, len(xs) + 1)), _operator(alg, "general", 10.0 ** general, rng))
    lowers = rng.uniform(-1.0, 1.0, size=len(xs)).tolist()
    frozen = _per_operator(frozen_spectral_decompose, xs)
    new = _outcome(spectral_decompose_many, xs)
    assert new[0] == frozen[0] == _per_operator(spectral_decompose, xs)[0]
    if new[0] == "ok":
        assert [_dec_bits(d) for d in new[1]] == [_dec_bits(d) for d in frozen[1]]
    scaled = [lo * max(1.0, x.norm_inf()) for lo, x in zip(lowers, xs)]
    frozen = _per_operator(lambda x, lo: frozen_spectral_projection(x, lo, np.inf), xs, scaled)
    new = _outcome(spectral_projection_many, xs, scaled)
    assert new[0] == frozen[0]
    if new[0] == "ok":
        assert ([_op_bits(p) for p in new[1]] == [_op_bits(p) for p in frozen[1]]
                == [_op_bits(spectral_projection(x, lo, np.inf)) for x, lo in zip(xs, scaled)])


@PROPERTY
@given(operator_lists(kinds=("exact", "inexact", "ties")))
def test_hermitian_contractions_equal_per_operator(xs):
    assert ([_op_bits(h) for h in hermitian_contractions(xs)]
            == [_op_bits(h / (h.norm_inf() + 1e-3)) for h in xs])


def test_a_non_hermitian_operator_raises_as_alone():
    rng = np.random.default_rng(7)
    algs = [FiniteAlgebra(((2, 1.0), (3, 0.5))), FiniteAlgebra.full(3), FiniteAlgebra.full(1)]
    herm = [_operator(alg, kind, 1.0, rng) for alg in algs for kind in ("exact", "inexact")]
    bad = _operator(algs[0], "general", 1.0, rng)
    with pytest.raises(NotHermitian):
        spectral_decompose(bad)
    for xs in ([bad], herm[:3] + [bad] + herm[3:], herm + [bad]):
        with pytest.raises(NotHermitian):
            spectral_decompose_many(xs)
        with pytest.raises(NotHermitian):
            spectral_projection_many(xs, [0.0] * len(xs))
    # the hermiticity check is relative at every scale, alone and stacked
    tiny = 1e-12 * bad
    with pytest.raises(NotHermitian):
        spectral_decompose(tiny)
    with pytest.raises(NotHermitian):
        spectral_decompose_many(herm + [tiny])


@pytest.mark.parametrize("n", [0, 1, 2, 9, 64])
def test_disjoint_pairs_on_per_trial_algebras_equal_the_frozen_pairs(n):
    new = [rng_for(21, "mixed-disjoint", t) for t in range(n)]
    old = [rng_for(21, "mixed-disjoint", t) for t in range(n)]
    algs = [random_algebra(rng) for rng in new]
    assert algs == [random_algebra(rng) for rng in old]
    xs, ys = disjoint_psd_pairs(algs, new)
    want = [frozen_disjoint_psd_pair(alg, rng) for alg, rng in zip(algs, old)]
    assert [_op_bits(x) for x in xs] == [_op_bits(x) for x, _ in want]
    assert [_op_bits(y) for y in ys] == [_op_bits(y) for _, y in want]
    assert [rng.uniform() for rng in new] == [rng.uniform() for rng in old]
    diags = disjointness_from_mu_equality_many(xs, ys)
    assert diags == [frozen_disjointness_from_mu_equality(x, y) for x, y in zip(xs, ys)]
    assert diags == [disjointness_from_mu_equality(x, y) for x, y in zip(xs, ys)]


def test_disjointness_many_raises_not_psd_for_any_pair():
    rng = rng_for(22, "not-psd")
    algs = [random_algebra(rng) for _ in range(4)]
    xs, ys = disjoint_psd_pairs(algs, [rng_for(22, "pairs", t) for t in range(4)])
    ys[2] = -1.0 * ys[2]
    with pytest.raises(NotPSD):
        frozen_disjointness_from_mu_equality(xs[2], ys[2])
    with pytest.raises(NotPSD):
        disjointness_from_mu_equality_many(xs, ys)
    assert disjointness_from_mu_equality_many([], []) == []


def test_one_element_cases_keep_their_draws():
    for t in range(6):
        new, old = rng_for(23, "contraction", t), rng_for(23, "contraction", t)
        alg = random_algebra(new)
        assert alg == random_algebra(old)
        h = hermitian(alg, old)
        assert _op_bits(hermitian_contraction(alg, new)) == _op_bits(h / (h.norm_inf() + 1e-3))
        assert new.uniform() == old.uniform()
    x = _operator(FiniteAlgebra(((2, 1.0), (2, 3.0))), "psd", 1.0, np.random.default_rng(1))
    f = frozen_mu(x)
    assert float_bits(fk_log_determinant(x)) == float_bits(f.log_prefix_integral(f.total_length))
    assert logmaj.fk_log_determinant is fk_log_determinant
