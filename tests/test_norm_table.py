"""Differential tests: the norms that ``evaluate_norms`` reads off the table
of mu's array pass (for two or more operators) against those
of mu's step functions, ``evaluate_norms_mu(spec, mu_many(xs))`` and one
function at a time, bit for bit, on batches and on lists across algebras,
with cascade rows (exact and near ties, zero and rank-deficient
operators, a length outside the padding slop) and scales 2^k for k from
-40 to 40, and against one operator at a time at every count from 0 to
40.  Only a cascade row, or a Lorentz row that the refinement's array
pass leaves, is built as a ``StepFunction``, and every call of two or
more operators takes the array pass.  The table ``check_delta_axioms``
evaluates, with the rows of ``2^-k x`` scaled from the samples' singular
values, is bit for bit that of the explicit batch."""

import numpy as np
import pytest

from logmaj import FiniteAlgebra, LogF, Lorentz, Lp, norms, stepfun
from logmaj.algebra import OperatorBatch
from logmaj.config import tolerances
from logmaj.errors import WeightTooShort
from logmaj.norms import (evaluate_norm, evaluate_norm_mu, evaluate_norms, evaluate_norms_mu,
                          norm_label)
from logmaj.sampling import gaussian, rng_for, unitary
from logmaj.stepfun import StepFunction, mu, mu_many
from logmaj.suites import _LORENTZ_WEIGHT

from oracles import float_bits

SPECS = (Lp(0.5), Lp(1.0), Lp(2.0), Lp(3.0), LogF(), Lorentz(1.0, _LORENTZ_WEIGHT))
# no operator, a lone one, the fewest for the array pass, and more
COUNTS = (0, 1, 2, 7, 8, 40)

# one to twelve singular values: rows of 8 pieces or more are summed
# pairwise by numpy, and rows of every count meet in one table
ALGEBRAS = (FiniteAlgebra.full(1), FiniteAlgebra.full(2, 0.5),
            FiniteAlgebra(((2, 1.0), (1, 0.25), (3, 2.0))),
            FiniteAlgebra(((4, 1.0), (4, 0.5), (3, 3.0))),
            FiniteAlgebra(((4, 0.1), (4, 0.7), (4, 1.3))),
            FiniteAlgebra(((4, 1.3), (4, 1.1), (3, 0.7))))


def _long_algebra():
    """An algebra whose tau(1) lies 1 above the length of its
    operators' mu, outside the padding slop: mu pads a zero piece."""
    alg = FiniteAlgebra(((3, 0.75), (2, 1.5)))
    vars(alg)["total_trace"] = alg.total_trace + 1.0
    return alg


def _zoo(alg, rng):
    """Gaussian operators, and the rows that take mu's cascade or a zero
    piece: zero, identity (exact ties), near ties within the snap,
    rank-one, a projection and a Gaussian times a rank-one operator."""
    tol = tolerances().alg
    rank_one, near = [], []
    for d in alg.dims:
        a = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
        rank_one.append(a @ a.conj().T)
        u = unitary(FiniteAlgebra.full(d), rng).blocks[0]
        base = rng.uniform(0.5, 2.0)
        near.append(u @ np.diag([base * (1.0 + 0.4 * tol * k) for k in range(d)]))
    g = gaussian(alg, rng)
    return [g, alg.zero(), alg.identity(), alg.operator(rank_one), alg.operator(near),
            alg.diagonal([[float(k % 2) for k in range(d)] for d in alg.dims]),
            gaussian(alg, rng), g @ alg.operator(rank_one), gaussian(alg, rng)]


def _batch(alg, rng, m):
    """``m`` operators of ``alg``: the zoo, then Gaussian ones."""
    xs = _zoo(alg, rng)[:m]
    xs += [gaussian(alg, rng) for _ in range(m - len(xs))]
    return OperatorBatch.of(alg, [x.blocks for x in xs])


def _mixed(rng, m):
    """``m`` operators across the algebras, the zoo of each in turn."""
    pool = [x for alg in (*ALGEBRAS, _long_algebra()) for x in _zoo(alg, rng)]
    return [pool[i % len(pool)] for i in rng.permutation(max(m, len(pool)))[:m]]


def _assert_same_bits(xs):
    """The table's norms are those of mu's step functions, in one call and
    one function at a time (a row of its own count; Lorentz: ``_refine``)."""
    fs = mu_many(xs)
    for spec in SPECS:
        table = float_bits(evaluate_norms(spec, xs))
        assert table == float_bits(evaluate_norms_mu(spec, fs)), norm_label(spec)
        assert table == float_bits([evaluate_norm_mu(spec, f) for f in fs]), norm_label(spec)


@pytest.mark.parametrize("k", range(-40, 41, 5))
def test_table_norms_of_batches_and_lists_match_step_functions(k):
    rng, scale = rng_for(2026, "norm-table", k + 40), 2.0 ** k
    for alg in (*ALGEBRAS, _long_algebra()):
        for m in (8, 9, 23):
            _assert_same_bits(scale * _batch(alg, rng, m))
    for m in (8, 13, 64, 200):
        _assert_same_bits([scale * x for x in _mixed(rng, m)])


def test_table_norms_of_500_operators_match_step_functions():
    rng = rng_for(2026, "norm-table-500")
    _assert_same_bits(_batch(ALGEBRAS[4], rng, 500))
    _assert_same_bits(_mixed(rng, 500))
    for k in (-40, -1, 1, 40):
        _assert_same_bits([2.0 ** k * x for x in _mixed(rng, 500)])


def test_every_count_gives_the_bits_of_one_operator_at_a_time():
    """mu and every norm of a list and of a batch, at each count, as the
    lone route gives them operator by operator."""
    rng = rng_for(2026, "norm-table-threshold")
    for m in COUNTS:
        for xs in (_mixed(rng, m), _batch(ALGEBRAS[3], rng, m), _batch(_long_algebra(), rng, m)):
            alone = [xs[i] for i in range(m)]
            assert [f.pieces for f in mu_many(xs)] == [mu(x).pieces for x in alone], m
            _assert_same_bits(xs)
            for spec in SPECS:
                assert (float_bits(evaluate_norms(spec, xs))
                        == float_bits([evaluate_norm(spec, x) for x in alone])), (m, spec)


def test_two_or_more_operators_take_the_array_pass(monkeypatch):
    """One ``_mu_table`` per call of two or more operators, none for fewer,
    in ``mu_many`` and in ``evaluate_norms``; and one Lorentz array pass
    per call of two or more functions."""
    calls = {"table": 0, "lorentz": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    table = counting("table", stepfun._mu_table)
    for module in (stepfun, norms):
        monkeypatch.setattr(module, "_mu_table", table)
    monkeypatch.setattr(norms, "_lorentz_totals", counting("lorentz", norms._lorentz_totals))
    rng = rng_for(2026, "norm-table-routes")
    for m in COUNTS:
        for xs in (_mixed(rng, m), _batch(ALGEBRAS[2], rng, m)):
            calls["table"] = 0
            mu_many(xs)
            assert calls["table"] == (m >= 2), m
            for spec in SPECS:
                calls["table"] = calls["lorentz"] = 0
                evaluate_norms(spec, xs)
                assert calls["table"] == (m >= 2), (m, spec)
                assert calls["lorentz"] == (m >= 2 and isinstance(spec, Lorentz)), (m, spec)


def _counting(monkeypatch):
    """Count the step functions built over arrays (``_of(values=...)``,
    mu's non-cascade rows) and those built from pieces."""
    built = {"arrays": 0, "pieces": 0}
    of = StepFunction.__dict__["_of"].__func__

    def counting(cls, **tables):
        built["arrays" if "values" in tables else "pieces"] += 1
        return of(cls, **tables)

    monkeypatch.setattr(StepFunction, "_of", classmethod(counting))
    return built


def test_only_cascade_rows_build_step_functions(monkeypatch):
    rng = rng_for(2026, "norm-table-count")
    xs = _mixed(rng, 120)
    cascade = set(stepfun._mu_table(xs).cascade)
    assert 0 < len(cascade) < len(xs)
    built = _counting(monkeypatch)
    mu_many(xs)
    assert built["arrays"] == len(xs) - len(cascade)   # the counter sees mu's rows
    left = []
    lorentz_totals = norms._lorentz_totals

    def leaving(*args):
        rows = lorentz_totals(*args)
        left.extend(rows)
        return rows

    monkeypatch.setattr(norms, "_lorentz_totals", leaving)
    for spec in SPECS:
        left.clear()
        built["arrays"] = built["pieces"] = 0
        evaluate_norms(spec, xs)
        assert built["arrays"] == len(set(left) - cascade)
        assert built["pieces"] > 0
        if not isinstance(spec, Lorentz):
            assert built["arrays"] == 0


def test_table_norms_raise_as_step_function_norms():
    rng = rng_for(2026, "norm-table-errors")
    xs = _mixed(rng, 20)
    short = Lorentz(1.0, StepFunction(((1.0, 2.0),)))
    with pytest.raises(WeightTooShort) as new:
        evaluate_norms(short, xs)
    with pytest.raises(WeightTooShort) as old:
        evaluate_norms_mu(short, mu_many(xs))
    assert str(new.value) == str(old.value)
    alg = ALGEBRAS[2]
    bad = alg.diagonal([[np.inf, 1.0], [2.0], [1.0, 1.0, 1.0]])
    for spec in SPECS:
        with pytest.raises(ValueError) as new:
            evaluate_norms(spec, xs[:9] + [bad])
        with pytest.raises(ValueError) as old:
            mu_many(xs[:9] + [bad])
        assert str(new.value) == str(old.value)


# ---------------------------------------------------------------------------
# check_delta_axioms: the rows of 2^-k x scaled from the samples' singular values

def _frozen_alphas(n: int) -> np.ndarray:
    """The contraction factors as check_delta_axioms has always drawn them."""
    rng = np.random.default_rng(20570)
    return np.array([rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
                     for _ in range(n)])


@pytest.mark.parametrize("n", [2, 3, 8, 9, 40])
def test_delta_axioms_read_the_table_of_the_explicit_halvings(monkeypatch, n):
    """The mu rows that ``check_delta_axioms`` evaluates, among them those
    of ``2^-k x`` built from the samples' singular values, are bit for bit
    the table of the explicit batch (samples, zero, alpha x, 2^-k x for
    k = 1..40 on the first eight samples, sums of neighbours), on general
    and hermitian samples at scales 2^-100 to 2^100."""
    tables = []
    algebra_table = norms._algebra_table
    monkeypatch.setattr(norms, "_algebra_table",
                        lambda alg, sv: tables.append(algebra_table(alg, sv)) or tables[-1])
    rng = rng_for(n, "delta-axiom-rows")
    alg = ALGEBRAS[2]
    base = np.array([gaussian(alg, rng).rows for _ in range(n)])
    h = gaussian(alg, rng)
    base[-1] = (h + h.adjoint()).rows   # exactly hermitian: the eigensolver's rows
    halvings = 2.0 ** -np.arange(1, 41)
    for e in range(-100, 101, 25):
        samples = OperatorBatch(alg, base * 2.0 ** e)
        rows = samples.rows
        explicit = stepfun._mu_table(OperatorBatch(alg, np.concatenate([
            rows, np.zeros((1, alg.vector_dim)), _frozen_alphas(n)[:, None] * rows,
            (rows[:8, None] * halvings[:, None]).reshape(-1, alg.vector_dim),
            rows[:-1] + rows[1:]])))
        for spec in SPECS:
            norms.check_delta_axioms(spec, samples)
            table = tables.pop()
            for name in ("values", "widths", "counts", "lengths"):
                assert (float_bits(getattr(table, name).tolist())
                        == float_bits(getattr(explicit, name).tolist())), (e, name, spec)
    assert float_bits(norms._contraction_factors(n).tolist()) == float_bits(
        _frozen_alphas(n).tolist())
