"""Named randomized suites executing the library's invariants.

Every suite derives a fresh generator per (seed, suite, trial), so runs
are reproducible and a suite's report does not depend on which other
suites run with it.  Failures carry bounded witness payloads
sufficient to reproduce the trial.

The nine calculus suites (``sandwich-logmaj`` to ``sum-diff``) run their
trials in chunks of ``_TRIAL_CHUNK``, each in three steps.  They draw:
every trial's normals come from its own stream, in the order a
trial-by-trial run draws them, and the chunk's operators are assembled
once per block dimension across the trials' algebras (``Sampler.many``).
They stack: every eigendecomposition, norm, minimum eigenvalue and mu of
the chunk's trials is computed in one stacked call per block dimension
across the trials' algebras (the ``*_many`` forms), and mu's rows are
read straight from the stacks.  They decide: each trial's verdict is
taken in trial order.  A draw that depends on a computed value waits for
it, and its stream resumes where it stopped (``projection-rigidity``).
LAPACK runs the routine of a single call on every matrix of a stack, so
the reports are byte-identical to a trial-by-trial evaluation;
``run_suites`` probes this before a stacked suite runs, the two norm
suites included (``_probe_stacking``).

The two norm suites stack across their five norm variants as well: the
symmetry trials of ``norm-axioms`` and the SLM candidates of
``slm-all-variants`` are drawn from each variant's own streams and
evaluated in one set of stacks for all variants
(``norms.check_symmetric_many``, ``norms.check_slm_many``), and decided
variant by variant; each variant's Delta-axiom samples form one batch on
its own algebra.  Their reports are byte-identical to a variant-by-variant
run of the per-trial checkers.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .algebra import (Operator, norm_inf_many, spectral_decompose_many,
                      spectral_projection_many, trace)
from .config import overridden_tolerances, tolerances
from .errors import InternalError, LogmajError
from .isometry import (SynthSpec, analyze, central_B_check,
                       check_surjective_reflection, jordan_factor, synthesize)
from .jordan import (JordanMap, JordanPlan, PlanEntry, StormerSplit, jordan_abs_residual,
                     plan_map, random_jordan, random_plan, stormer_split)
from .majorization import (disjointness_from_mu_equality_many, exp_log_determinant,
                           fk_log_determinant_many, log_submajorizes, mu_values_equal,
                           submajorizes)
from .norms import (LogF, Lorentz, Lp, check_delta_axioms, check_slm_many,
                    check_symmetric_many, norm_label)
from .sampling import (GAUSSIAN, HERMITIAN, INVERTIBLE_PSD, PSD, UNITARY, commuting_pair,
                       disjoint_psd_pairs, gaussian, hermitian, hermitian_contractions,
                       random_algebra, rng_for, rng_streams, unitaries)
from .stepfun import StepFunction, mu, mu_many, pointwise_product


@dataclasses.dataclass
class SuiteResult:
    name: str
    passed: bool
    trials: int
    failures: list
    stats: dict

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "trials": self.trials,
            "failures": self.failures[:5],
            "stats": self.stats,
        }


def _fail(failures: list, trial: int, what: str, **data):
    if len(failures) < 5:
        entry = {"trial": trial, "what": what}
        entry.update(data)
        failures.append(entry)


def _sqrt_plus(t: float) -> float:
    return t ** 0.5 if t > 0.0 else 0.0


# Trials run in chunks of this many: a chunk is drawn, stacked and decided
# before the next is drawn, so a run holds one chunk's operators whatever
# its trial count, and stacks of 64 trials keep most of the gain of
# stacking every trial.
_TRIAL_CHUNK = 64


def _chunks(trials: int) -> list[range]:
    return [range(start, min(start + _TRIAL_CHUNK, trials))
            for start in range(0, trials, _TRIAL_CHUNK)]


def _trial_streams(seed: int, label: str, trials: int):
    """``(trial, rng_for(seed, label, trial))`` for ``trial < trials``, the
    streams built a chunk at a time."""
    for chunk in _chunks(trials):
        yield from zip(chunk, rng_streams(seed, label, chunk))


def _sandwich_pairs(seed: int, label: str, chunk: range) -> list[tuple[Operator, Operator]]:
    """One (a, b) per trial with a >= 0 hermitian b and -a <= b <= a,
    covering singular and well-conditioned a.

    A trial draws an algebra, a mode, ``a`` (PSD, invertible in mode 1),
    in mode 2 a hermitian ``h0`` and last the hermitian of its contraction
    ``h``.  In mode 2 ``a`` becomes ``p a p`` with ``p`` the positive
    spectral projection of ``h0`` (the rank-deficient regime); then
    ``b = a^(1/2) h a^(1/2)``.
    """
    algs, samplers, a_normals, h0_normals, h_normals = [], [], [], {}, []
    for i, rng in enumerate(rng_streams(seed, label, chunk)):
        alg = random_algebra(rng)
        mode = rng.integers(0, 3)
        algs.append(alg)
        samplers.append(INVERTIBLE_PSD if mode == 1 else PSD)
        a_normals.append(PSD.normals(alg, rng))
        if mode == 2:
            h0_normals[i] = HERMITIAN.normals(alg, rng)
        h_normals.append(HERMITIAN.normals(alg, rng))
    a_s = [None] * len(algs)
    for sampler in (PSD, INVERTIBLE_PSD):
        idx = [i for i, s in enumerate(samplers) if s is sampler]
        for i, a in zip(idx, sampler.many([algs[i] for i in idx], [a_normals[i] for i in idx])):
            a_s[i] = a
    cut = list(h0_normals)
    drawn = HERMITIAN.many([algs[i] for i in cut] + algs, [*h0_normals.values(), *h_normals])
    for i, p in zip(cut, spectral_projection_many(drawn[:len(cut)], [0.0] * len(cut))):
        a_s[i] = p @ a_s[i] @ p
    hs = hermitian_contractions(drawn[len(cut):])
    roots = [dec.apply(_sqrt_plus) for dec in spectral_decompose_many(a_s)]
    return [(a, root @ h @ root) for a, root, h in zip(a_s, roots, hs)]


def _mu_of_pairs(pairs: list[tuple[Operator, Operator]]) -> list[tuple[StepFunction, StepFunction]]:
    """(mu(a), mu(b)) of each pair, from one ``mu_many`` call."""
    fs = mu_many([a for a, _ in pairs] + [b for _, b in pairs])
    return list(zip(fs[:len(pairs)], fs[len(pairs):]))


def suite_sandwich(trials: int, seed: int) -> SuiteResult:
    failures = []
    worst = float("inf")
    for chunk in _chunks(trials):
        for trial, (fa, fb) in zip(chunk, _mu_of_pairs(
                _sandwich_pairs(seed, "sandwich-logmaj", chunk))):
            verdict = log_submajorizes(fb, fa)
            worst = min(worst, verdict.slack)
            if not verdict.holds:
                _fail(failures, trial, "log-submajorisation failed",
                      slack=verdict.slack, worst_t=verdict.worst_t)
            elif verdict.slack != float("-inf") and verdict.slack < -1e-8:
                _fail(failures, trial, "slack below tolerance",
                      slack=verdict.slack, worst_t=verdict.worst_t)
    return SuiteResult("sandwich-logmaj", not failures, trials, failures,
                       {"min_slack": worst})


def suite_det_monotone(trials: int, seed: int) -> SuiteResult:
    failures = []
    for chunk in _chunks(trials):
        # the same pairs as the sandwich suite
        pairs = _sandwich_pairs(seed, "sandwich-logmaj", chunk)
        dets = [exp_log_determinant(v) for v in fk_log_determinant_many(
            [a for a, _ in pairs] + [b for _, b in pairs])]
        for trial, da, db in zip(chunk, dets, dets[len(pairs):]):
            if db > da * (1.0 + 1e-8):
                _fail(failures, trial, "determinant monotonicity failed", det_a=da, det_b=db)
    return SuiteResult("det-monotone", not failures, trials, failures, {})


def suite_product(trials: int, seed: int) -> SuiteResult:
    failures = []
    for chunk in _chunks(trials):
        algs, normals = [], []
        for rng in rng_streams(seed, "product-logmaj", chunk):
            alg = random_algebra(rng)
            algs.append(alg)
            normals += [GAUSSIAN.normals(alg, rng), GAUSSIAN.normals(alg, rng)]
        drawn = GAUSSIAN.many([alg for alg in algs for _ in range(2)], normals)
        xs, ys = drawn[::2], drawn[1::2]
        n = len(xs)
        fs = mu_many([x @ y for x, y in zip(xs, ys)] + xs + ys)
        for i, trial in enumerate(chunk):
            verdict = log_submajorizes(fs[i], pointwise_product(fs[n + i], fs[2 * n + i]))
            if not verdict.holds:
                _fail(failures, trial, "product inequality failed",
                      slack=verdict.slack, worst_t=verdict.worst_t)
    return SuiteResult("product-logmaj", not failures, trials, failures, {})


_POWERS = (0.5, 1.0, 2.0, 3.7)


def suite_power_transfer(trials: int, seed: int) -> SuiteResult:
    failures = []
    for chunk in _chunks(trials):
        for trial, (fa, fb) in zip(chunk, _mu_of_pairs(
                _sandwich_pairs(seed, "power-transfer", chunk))):
            if not log_submajorizes(fb, fa).holds:
                continue
            for p in _POWERS:
                verdict = submajorizes(fb.power(p), fa.power(p))
                if not verdict.holds:
                    _fail(failures, trial, f"power transfer failed at p={p}",
                          slack=verdict.slack, worst_t=verdict.worst_t)
    return SuiteResult("power-transfer", not failures, trials, failures, {})


_CONVEX = (("relu", lambda t: max(t, 0.0)), ("exp", np.exp), ("square", lambda t: t * t))


def suite_convex_transfer(trials: int, seed: int) -> SuiteResult:
    # The transfer is exercised in its increasing-convex form on
    # nonnegative decreasing inputs (powers of mu), which is the form the
    # downstream results consume.
    failures = []
    for chunk in _chunks(trials):
        for trial, (fa, fb) in zip(chunk, _mu_of_pairs(
                _sandwich_pairs(seed, "convex-transfer", chunk))):
            f = fb.power(2.0)
            g = fa.power(2.0)
            if not submajorizes(f, g).holds:
                continue
            for name, phi in _CONVEX:
                verdict = submajorizes(f.map_values(phi).rearrange(),
                                       g.map_values(phi).rearrange())
                if not verdict.holds:
                    _fail(failures, trial, f"convex transfer failed for {name}",
                          slack=verdict.slack)
    return SuiteResult("convex-transfer", not failures, trials, failures, {})


def _invertible_psds(rngs) -> list[Operator]:
    """Per stream an algebra and then an invertible PSD operator on it."""
    algs, normals = [], []
    for rng in rngs:
        alg = random_algebra(rng)
        algs.append(alg)
        normals.append(INVERTIBLE_PSD.normals(alg, rng))
    return INVERTIBLE_PSD.many(algs, normals)


def suite_mu_rigidity(trials: int, seed: int) -> SuiteResult:
    tol = tolerances()
    failures = []
    for chunk in _chunks(trials):
        a_s = _invertible_psds(rng_streams(seed, "mu-rigidity", chunk))
        n = len(a_s)
        # equal pair: two separately computed mu of each a (two rows of the stack)
        fs = mu_many(a_s + a_s)
        # perturbed pair 0 <= b <= a must change mu detectably
        perturbed = {}
        for i, (a, dec) in enumerate(zip(a_s, spectral_decompose_many(a_s))):
            top = max(float(w[0]) for w in dec.eigenvalues if w.size)
            if top <= 1e-6:
                continue
            k = max(range(a.algebra.n_blocks), key=lambda j: dec.eigenvalues[j][0])
            lam_k = float(dec.eigenvalues[k][0])
            eps = 0.5 * lam_k
            p = dec.projection(lam_k - 1e-9 * max(1.0, lam_k), float("inf"))
            perturbed[i] = (eps, a - eps * p)
        checks = dict(zip(perturbed, zip(
            mu_many([b for _, b in perturbed.values()]),
            norm_inf_many([a_s[i] - b for i, (_, b) in perturbed.items()]))))
        for i, trial in enumerate(chunk):
            fa = fs[i]
            scale = max(1.0, float(fa.values.max()))
            if not mu_values_equal(fa, fs[n + i], tol.maj * scale):
                _fail(failures, trial, "mu of equal operators differs")
            if i not in perturbed:
                continue
            f_b, gap = checks[i]
            if mu_values_equal(f_b, fa, 10 * tol.alg * scale):
                _fail(failures, trial, "perturbation left mu unchanged", eps=perturbed[i][0])
            if gap <= 10 * tol.alg:
                _fail(failures, trial, "perturbation too small to be a control")
    return SuiteResult("mu-rigidity", not failures, trials, failures, {})


def suite_projection_rigidity(trials: int, seed: int) -> SuiteResult:
    """In three phases, each stream resuming where the last stopped: the
    algebra and ``z`` are drawn, then the cut ``lam`` once the eigenvalues
    of every ``z`` are known, then the unitary once ``tau(r) > 0`` is."""
    tol = tolerances()
    failures = []
    for chunk in _chunks(trials):
        rngs = rng_streams(seed, "projection-rigidity", chunk)
        zs = _invertible_psds(rngs)
        cuts = {}  # chunk index -> (top, r, tau(r))
        for i, (rng, dec) in enumerate(zip(rngs, spectral_decompose_many(zs))):
            eigs = np.sort(np.concatenate([w for w in dec.eigenvalues]))
            top = float(eigs[-1])
            lam = None
            for _ in range(16):
                cand = float(rng.uniform(0.2, 0.8)) * top
                if np.all(np.abs(eigs - cand) > 1e-6 * max(1.0, top)):
                    lam = cand
                    break
            if lam is None:
                continue
            r = dec.projection(lam, float("inf"))
            t_r = float(np.real(trace(r)))
            if t_r > 0.0:
                cuts[i] = (top, r, t_r)
        kept = list(cuts)
        algs = [zs[i].algebra for i in kept]
        us = unitaries(algs, [UNITARY.normals(alg, rngs[i]) for alg, i in zip(algs, kept)])
        rotated = {i: u @ cuts[i][1] @ u.adjoint() for i, u in zip(kept, us)}
        moved = [i for i, gap in zip(kept, norm_inf_many([rotated[i] - cuts[i][1] for i in kept]))
                 if gap > 1e-6]
        fs = mu_many([zs[i] for i in kept] + [cuts[i][1] @ zs[i] @ cuts[i][1] for i in kept]
                     + [rotated[i] @ zs[i] @ rotated[i] for i in moved])
        f_pzp = dict(zip(moved, fs[2 * len(kept):]))
        for j, i in enumerate(kept):
            trial = chunk[i]
            top, _, t_r = cuts[i]
            scale = max(1.0, top)
            fz = fs[j].truncate(t_r)
            frzr = fs[len(kept) + j].truncate(t_r)
            if not mu_values_equal(fz, frzr, tol.maj * scale):
                _fail(failures, trial, "mu(rzr) != mu(z) on (0, tau(r))")
            # a rotated projection of equal trace must break the equality
            if i in f_pzp:
                if mu_values_equal(fz, f_pzp[i].truncate(t_r), tol.maj * scale):
                    _fail(failures, trial, "rotated projection preserved mu")
    return SuiteResult("projection-rigidity", not failures, trials, failures, {})


def _disjoint_trials(seed: int, label: str, chunk: range):
    """Per trial an algebra, its disjoint PSD pair (x, y) and then a PSD w,
    drawn from the trial's stream in that order; the pairs are built in
    stacks (``disjoint_psd_pairs``) before the w are drawn."""
    rngs = rng_streams(seed, label, chunk)
    algs = [random_algebra(rng) for rng in rngs]
    xs, ys = disjoint_psd_pairs(algs, rngs)
    return xs, ys, PSD.many(algs, [PSD.normals(alg, rng) for alg, rng in zip(algs, rngs)])


def suite_anticommute(trials: int, seed: int) -> SuiteResult:
    tol = tolerances()
    failures = []
    checked = 0
    for chunk in _chunks(trials):
        ops = []
        for x, y, w in zip(*_disjoint_trials(seed, "anticommute", chunk)):
            x2, y2 = x + w, y + w
            ops += [x @ y + y @ x, x, y, x @ y, x2 @ y2 + y2 @ x2, w]
        norms = norm_inf_many(ops)
        for i, trial in enumerate(chunk):
            anti, nx, ny, product, overlap, nw = norms[6 * i:6 * i + 6]
            scale = 1.0 + nx * ny
            if anti <= tol.alg * scale:
                checked += 1
                if product > 10 * tol.alg * scale:
                    _fail(failures, trial, "anticommuting PSD pair with nonzero product",
                          product=product)
            # control: overlapping pair must not satisfy the hypothesis
            if overlap <= tol.alg * scale and nw > 1e-3:
                _fail(failures, trial, "overlapping pair passed the anticommutator cut")
    return SuiteResult("anticommute", not failures, trials, failures,
                       {"hypothesis_hits": checked})


def suite_sum_diff(trials: int, seed: int) -> SuiteResult:
    failures = []
    for chunk in _chunks(trials):
        xs, ys, ws = _disjoint_trials(seed, "sum-diff", chunk)
        # overlapping pair: make a shared support component and expect
        # mu-inequality
        x2s = [x + w for x, w in zip(xs, ws)]
        y2s = [y + w for y, w in zip(ys, ws)]
        overlaps = [i for i, n in enumerate(norm_inf_many([x2 @ y2 for x2, y2 in zip(x2s, y2s)]))
                    if n > 1e-6]
        diags = disjointness_from_mu_equality_many(
            [*xs, *(x2s[i] for i in overlaps)], [*ys, *(y2s[i] for i in overlaps)])
        diag2s = dict(zip(overlaps, diags[len(chunk):]))
        for i, (trial, diag) in enumerate(zip(chunk, diags)):
            if not (diag.mu_equal and diag.product_zero):
                _fail(failures, trial, "disjoint pair misclassified",
                      mu_equal=diag.mu_equal, product_zero=diag.product_zero)
            diag2 = diag2s.get(i)
            if diag2 is not None:
                if diag2.mu_equal:
                    _fail(failures, trial, "overlapping pair reported mu-equal")
                if diag2.violation:
                    _fail(failures, trial, "mu-equality/disjointness rigidity violated",
                          trial_kind="overlap")
            if diag.violation:
                _fail(failures, trial, "mu-equality/disjointness rigidity violated",
                      trial_kind="disjoint")
    return SuiteResult("sum-diff", not failures, trials, failures, {})


_LORENTZ_WEIGHT = StepFunction(((2.0, 8.0), (1.0, 8.0), (0.5, 24.0)))


def _norm_variants() -> list:
    return [Lp(0.5), Lp(1.0), Lp(2.0), Lorentz(1.0, _LORENTZ_WEIGHT), LogF()]


def suite_norm_axioms(trials: int, seed: int) -> SuiteResult:
    failures = []
    stats = {}
    specs = _norm_variants()
    per_variant = max(2, trials // 5)
    symmetric = check_symmetric_many(specs, max(10, trials // 10), seed)
    for spec, sym in zip(specs, symmetric):
        rng = rng_for(seed, f"norm-axioms:{norm_label(spec)}")
        alg = random_algebra(rng)
        samples = GAUSSIAN.batch(alg, rng.standard_normal((per_variant, GAUSSIAN.size(alg))))
        report = check_delta_axioms(spec, samples)
        stats[norm_label(spec)] = report.stats
        if not report.passed:
            for v in report.axiom_violations[:2]:
                _fail(failures, 0, f"{norm_label(spec)}: {v.axiom}",
                      witness=v.witness, magnitude=v.magnitude)
        if not sym.passed:
            _fail(failures, 0, f"{norm_label(spec)}: symmetry violations",
                  count=len(sym.axiom_violations))
    return SuiteResult("norm-axioms", not failures, trials, failures, stats)


def suite_slm(trials: int, seed: int) -> SuiteResult:
    failures = []
    stats = {}
    specs = _norm_variants()
    for spec, report in zip(specs, check_slm_many(specs, trials, seed)):
        stats[norm_label(spec)] = report.stats
        if not report.passed:
            for v in report.axiom_violations[:2]:
                _fail(failures, 0, f"{norm_label(spec)}: {v.axiom}",
                      witness=v.witness, magnitude=v.magnitude)
    return SuiteResult("slm-all-variants", not failures, trials, failures, stats)


def suite_jordan_roundtrip(trials: int, seed: int) -> SuiteResult:
    tol = tolerances()
    failures = []
    worst_cert = 0.0
    worst_abs = 0.0
    worst_comm = 0.0
    for trial, rng in _trial_streams(seed, "jordan-roundtrip", trials):
        plan = random_plan(rng)
        J = random_jordan(plan.domain, plan)
        worst_cert = max(worst_cert, J.certificate.max_residual)
        if J.certificate.max_residual > 1e-10:
            _fail(failures, trial, "verification residual too large",
                  residual=J.certificate.max_residual)
        x = gaussian(plan.domain, rng)
        res = jordan_abs_residual(J, x)
        worst_abs = max(worst_abs, res)
        if res > 1e-9 * (1.0 + x.norm_inf()):
            _fail(failures, trial, "abs identity residual too large", residual=res)
        cx, cy = commuting_pair(plan.domain, rng)
        comm_res = (J.apply(cx @ cy) - J.apply(cx) @ J.apply(cy)).norm_inf()
        worst_comm = max(worst_comm, comm_res)
        if comm_res > tol.jordan:
            _fail(failures, trial, "commuting multiplicativity failed", residual=comm_res)
        h = hermitian(plan.domain, rng)
        if J.apply(h).norm_inf() > h.norm_inf() + tol.jordan:
            _fail(failures, trial, "contractivity failed")
    return SuiteResult("jordan-roundtrip", not failures, trials, failures,
                       {"worst_certificate_residual": worst_cert,
                        "worst_abs_residual": worst_abs,
                        "worst_commuting_residual": worst_comm})


def _split_matches_plan(split: StormerSplit, plan: JordanPlan) -> tuple[bool, str]:
    for target, flag in plan.effective_flags().items():
        hit = None
        for p, kind in zip(split.projections, split.kinds):
            if np.linalg.norm(p.blocks[target]) > 0.5:
                hit = kind
                break
        if hit is None:
            return False, f"target {target} not covered by any central summand"
        if hit != flag:
            return False, f"target {target}: classified {hit}, plan says {flag}"
    return True, ""


def suite_stormer_roundtrip(trials: int, seed: int) -> SuiteResult:
    failures = []
    for trial, rng in _trial_streams(seed, "stormer-roundtrip", trials):
        plan = random_plan(rng, fanout=bool(trial % 2))
        # the map's one law table verifies it, classifies its split and
        # serves the anti control
        J = random_jordan(plan.domain, plan)
        split = None
        try:
            split = stormer_split(J)
            ok, why = _split_matches_plan(split, plan)
        except LogmajError as exc:
            ok, why = False, str(exc)
        if not ok:
            _fail(failures, trial, f"split mismatch: {why}")
        # the classifier must not be vacuous: a transposed block of dim >= 2
        # must fail plain multiplicativity on some pair of domain matrix
        # units, which span every product
        anti_targets = [t for t, f in plan.effective_flags().items() if f == "anti"]
        if anti_targets:
            hom_defects = J.map.law_defects[anti_targets[0]][0]
            if not np.any(np.linalg.norm(hom_defects, axis=(2, 3)) > 1e-6):
                _fail(failures, trial, "anti block behaved multiplicatively")
        if split is None:
            continue  # the failed split is recorded above
        z = split.z
        images = J.map.apply_many(plan.domain.units)
        comm = max([0.0, *norm_inf_many(z @ images - images @ z)])
        if comm > tolerances().jordan:
            _fail(failures, trial, "z fails to be central", residual=comm)
    return SuiteResult("stormer-roundtrip", not failures, trials, failures, {})


def _calibrated_synth_spec(rng: np.random.Generator, p: float) -> SynthSpec:
    plan = random_plan(rng, fanout=bool(rng.uniform() < 0.5))
    dom, cod = plan.domain, plan.codomain
    betas = [0.0] * cod.n_blocks
    by_source: dict[int, list[PlanEntry]] = {}
    for e in plan.entries:
        by_source.setdefault(e.source, []).append(e)
    for s, (dim, c_s) in enumerate(dom.blocks):
        entries = by_source.get(s, [])
        shares = rng.uniform(0.5, 1.5, size=len(entries))
        shares = shares / shares.sum()
        for e, share in zip(entries, shares):
            c_t = cod.weights[e.target]
            betas[e.target] = float((c_s * share / c_t) ** (1.0 / p))
    return SynthSpec(plan, tuple(betas), Lp(p), Lp(p))


_SYNTH_POWERS = (0.5, 1.0, 2.0, 3.0)


def suite_isometry_roundtrip(trials: int, seed: int, fault: str | None = None) -> SuiteResult:
    failures = []
    worst_fact = 0.0
    worst_supp = 0.0
    for trial, rng in _trial_streams(seed, "isometry-roundtrip", trials):
        p = _SYNTH_POWERS[trial % len(_SYNTH_POWERS)]
        spec = _calibrated_synth_spec(rng, p)
        T = synthesize(spec)
        if fault == "calibration":
            # rebuild T with one miscalibrated scalar, bypassing validation
            bad = spec.b_operator()
            k = max(range(len(spec.b_blocks)), key=lambda i: spec.b_blocks[i])
            blocks = [b.copy() for b in bad.blocks]
            blocks[k] = blocks[k] * 1.02
            T = plan_map(spec.plan).left_compose(Operator(spec.plan.codomain, blocks))
        report = analyze(T, spec.norm_domain, spec.norm_codomain,
                         trials=30, seed=seed + trial)
        worst_fact = max(worst_fact, report.factorization_residual)
        worst_supp = max(worst_supp, report.support_identity_residual)
        if not report.passed:
            _fail(failures, trial, "analysis failed",
                  positive=report.positive.ok, isometric=report.isometric.ok,
                  disjoint=report.disjointness.ok,
                  fact=report.factorization_residual,
                  supp=report.support_identity_residual,
                  chain=report.chain.first_broken)
            continue
        if report.factorization_residual > 1e-8:
            _fail(failures, trial, "factorization residual too large",
                  residual=report.factorization_residual)
        if report.support_identity_residual > 1e-8:
            _fail(failures, trial, "support identity residual too large",
                  residual=report.support_identity_residual)
        if not report.chain.intact:
            _fail(failures, trial, "proof chain broken", link=report.chain.first_broken)
        if report.J is not None:
            ok, why = _split_matches_plan(stormer_split(report.J), spec.plan)
            if not ok:
                _fail(failures, trial, f"extracted split mismatch: {why}")
    return SuiteResult("isometry-roundtrip", not failures, trials, failures,
                       {"worst_factorization_residual": worst_fact,
                        "worst_support_residual": worst_supp})


def _invertible_synth_spec(rng: np.random.Generator, p: float) -> SynthSpec:
    plan = random_plan(rng, fanout=False)
    dom, cod = plan.domain, plan.codomain
    betas = [0.0] * cod.n_blocks
    for e in plan.entries:
        c_s = dom.weights[e.source]
        c_t = cod.weights[e.target]
        betas[e.target] = float((c_s / c_t) ** (1.0 / p))
    return SynthSpec(plan, tuple(betas), Lp(p), Lp(p))


def suite_surjective_reflection(trials: int, seed: int) -> SuiteResult:
    failures = []
    n_maps = max(1, trials // 50)
    per_map = max(1, trials // n_maps)
    done = 0
    for m, rng in _trial_streams(seed, "surjective-reflection", n_maps):
        p = _SYNTH_POWERS[m % len(_SYNTH_POWERS)]
        spec = _invertible_synth_spec(rng, p)
        T = synthesize(spec)
        report = check_surjective_reflection(T, spec.norm_codomain,
                                             trials=per_map, seed=seed + m)
        done += per_map
        if not report.ok:
            _fail(failures, m, "reflection failed", worst=report.worst,
                  note=report.witness_note)
        B, J = jordan_factor(T)
        if isinstance(J, JordanMap):
            central = central_B_check(B, J, onto=True)
            if central.ok is False:
                _fail(failures, m, "B not central for an onto map",
                      residual=central.residual)
    return SuiteResult("surjective-reflection", not failures, done, failures, {})


SUITES: dict[str, tuple[Callable, int]] = {
    "sandwich-logmaj": (suite_sandwich, 1000),
    "det-monotone": (suite_det_monotone, 1000),
    "product-logmaj": (suite_product, 1000),
    "power-transfer": (suite_power_transfer, 500),
    "convex-transfer": (suite_convex_transfer, 500),
    "mu-rigidity": (suite_mu_rigidity, 500),
    "projection-rigidity": (suite_projection_rigidity, 100),
    "anticommute": (suite_anticommute, 500),
    "sum-diff": (suite_sum_diff, 500),
    "norm-axioms": (suite_norm_axioms, 200),
    "slm-all-variants": (suite_slm, 500),
    "jordan-roundtrip": (suite_jordan_roundtrip, 100),
    "stormer-roundtrip": (suite_stormer_roundtrip, 100),
    "isometry-roundtrip": (suite_isometry_roundtrip, 100),
    "surjective-reflection": (suite_surjective_reflection, 500),
}


# the suites that evaluate their trials in stacks (the nine calculus suites
# and the two norm suites)
_STACKED = ("sandwich-logmaj", "det-monotone", "product-logmaj", "power-transfer",
            "convex-transfer", "mu-rigidity", "projection-rigidity", "anticommute", "sum-diff",
            "norm-axioms", "slm-all-variants")


def _probe_stacking(seed: int) -> None:
    """Raise ``InternalError`` unless mu of operators taken in one
    stack equals mu of each taken alone.

    The stacked suites' reports equal a trial-by-trial evaluation only
    because LAPACK runs the routine of a single call on every matrix of a
    stack; a LAPACK build that does not would make a report depend on the
    trial count.  The probe draws two operators on one algebra, so each
    stack holds two matrices and mu reads them off the table of the array
    pass that the stacked suites read too.
    """
    rng = rng_for(seed, "stacking-probe")
    alg = random_algebra(rng)
    xs = [gaussian(alg, rng), gaussian(alg, rng)]
    if mu_many(xs) != [mu(x) for x in xs]:
        raise InternalError("mu taken in a stack differs from mu taken alone")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Configuration of a suite run; identical configs and inputs yield
    byte-identical reports."""

    seed: int = 0
    trials: int | None = None  # None: per-suite default counts
    only: str | None = None
    tolerance_overrides: dict | None = None

    def suite_names(self) -> list[str]:
        if self.only is None:
            return list(SUITES)
        if self.only not in SUITES:
            raise LogmajError(f"unknown suite {self.only!r}; "
                              f"known: {', '.join(SUITES)}")
        return [self.only]


def run_suites(config: RunConfig, progress=None) -> dict:
    """Execute the selected suites and return the report document."""
    from . import __version__

    names = config.suite_names()
    results = []
    with overridden_tolerances(**(config.tolerance_overrides or {})):
        if any(name in _STACKED for name in names):
            _probe_stacking(config.seed)
        for name in names:
            func, default_trials = SUITES[name]
            trials = config.trials if config.trials is not None else default_trials
            result = func(trials, config.seed)
            if progress is not None:
                progress(result)
            results.append(result)

    report = {
        "version": __version__,
        "config": {
            "seed": config.seed,
            "trials": config.trials,
            "only": config.only,
            "tolerance_overrides": config.tolerance_overrides or {},
        },
        "suites": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }
    return report
