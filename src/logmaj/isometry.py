"""Analysis and synthesis of order-preserving isometries T = B . J.

``analyze`` runs five phases on a candidate linear map between normed
finite algebras: positivity, the isometry identity, disjointness
preservation (with a diagnostic that traces the proof chain
norm-equality -> mu-equality -> product-zero on every witness), the
commuting factor B = T(1), and extraction of the Jordan part
J(x) = B^+ T(x) (``jordan_factor``) with its support identities.
``synthesize`` goes the other way, building calibrated maps from a plan
for round-trip testing.

When the factorisation T = B . J is certified (J Jordan, B >= 0
commuting with the range, T = B . J on every matrix unit), positivity is
certified and the Lp -> Lp isometry identity is decided on the block
units; otherwise both are sampled, and positivity is then a falsifier
only: rank-one PSD inputs falsify positivity of a linear map in practice,
but no certificate is computed, and the report says so.

The sampled phases, here and in ``check_surjective_reflection``, draw
their inputs trial by trial into stacked arrays (``sampling.Sampler``) and
evaluate each batch in stacked calls, one per block; the reports are bit
for bit those of a trial-by-trial evaluation.  An ``Operator`` is built
only for ``B``, a witness or a failure entry.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .algebra import (Operator, OperatorBatch, functional_calculus,
                      min_eigenvalue, min_eigenvalue_many, norm_inf_many,
                      singular_values, spectral_decompose_many,
                      spectral_projection_many, support_projection_many, trace)
from .config import tolerances
from .errors import CalibrationError, JMissing, Singular
from .jordan import JordanFailure, JordanMap, JordanPlan, LinearMap, plan_map, verify_jordan
from .majorization import log_submajorizes, mu_values_equal
from .norms import Lp, NormSpec, evaluate_norms, evaluate_norms_mu
from .sampling import (GAUSSIAN, HERMITIAN, INVERTIBLE_PSD, PSD, RANK_ONE_PSD,
                       disjoint_psd_pairs, draw_batch, rng_for, rng_streams)
from .stepfun import mu_many


@dataclasses.dataclass(frozen=True)
class CheckStats:
    ok: bool
    trials: int
    worst: float
    note: str = ""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ChainReport:
    """Proof-chain diagnostic over all disjointness witnesses: how often
    each link held and the first broken link, if any."""

    norm_equality_ok: bool
    mu_equality_ok: bool
    product_zero_ok: bool
    first_broken: str | None
    worst_norm_gap: float

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def intact(self) -> bool:
        return self.first_broken is None


@dataclasses.dataclass(frozen=True)
class IsometryAnalysis:
    """The outcome of :func:`analyze`.  ``passed`` is the verdict under
    the tolerances in force when the analysis ran."""

    positive: CheckStats
    isometric: CheckStats
    disjointness: CheckStats
    chain: ChainReport
    B: Operator
    commutation_residual: float
    J: JordanMap | None
    jordan_failure: JordanFailure | None
    factorization_residual: float
    support_identity_residual: float
    passed: bool

    def to_json(self) -> dict:
        from .serialize import encode_operator

        return {
            "positive": self.positive.to_json(),
            "isometric": self.isometric.to_json(),
            "disjointness": self.disjointness.to_json(),
            "chain": self.chain.to_json(),
            "B": encode_operator(self.B),
            "commutation_residual": self.commutation_residual,
            "jordan_extracted": self.J is not None,
            "jordan_failure": None if self.jordan_failure is None else {
                "kind": self.jordan_failure.kind,
                "residual": self.jordan_failure.residual,
            },
            "factorization_residual": self.factorization_residual,
            "support_identity_residual": self.support_identity_residual,
            "passed": self.passed,
        }


# the sampled isometry identity draws trial t's input by _ISOMETRY_INPUTS[t % 6]
_ISOMETRY_INPUTS = (RANK_ONE_PSD, INVERTIBLE_PSD, GAUSSIAN, RANK_ONE_PSD, PSD, GAUSSIAN)


def _positivity_defects(xs: OperatorBatch, tol: float) -> list[float]:
    """Per operator, its hermitian defect relative to ``max(1, ||x||)``
    when that exceeds ``tol``, else the relative depth of its negative
    spectrum."""
    out = []
    for defect, norm, low in zip(norm_inf_many(xs - xs.adjoint()),
                                 norm_inf_many(xs), min_eigenvalue_many(xs)):
        scale = max(1.0, norm)
        out.append(defect / scale if defect > tol * scale else max(0.0, -low) / scale)
    return out


def _same_lp(norm_domain: NormSpec, norm_codomain: NormSpec) -> bool:
    """Whether the pair is Lp -> Lp with one exponent: the pair for which
    an isometry T = B . J is a per-block calibration of B."""
    return (isinstance(norm_domain, Lp) and isinstance(norm_codomain, Lp)
            and norm_domain.p == norm_codomain.p)


def _isometry_gaps(T: LinearMap, xs: OperatorBatch, norm_domain: NormSpec,
                   norm_codomain: NormSpec) -> list[float]:
    """Per input x, the gap | ||T x|| - ||x|| | relative to ``||x||``: 0
    when both norms are 0, inf when only ``||x||`` is."""
    gaps = []
    for ne, nf in zip(evaluate_norms(norm_domain, xs),
                      evaluate_norms(norm_codomain, T.apply_many(xs))):
        if ne > 0.0:
            gaps.append(abs(nf - ne) / ne)
        else:
            gaps.append(0.0 if nf == 0.0 else math.inf)
    return gaps


def jordan_factor(T: LinearMap) -> tuple[Operator, JordanMap | JordanFailure | None]:
    """``B = T(1)`` and the Jordan extraction ``J = B^+ T``.

    ``B^+`` inverts ``B`` on its spectrum above ``tolerances().alg *
    ||B||``, a cut relative to ``B`` that scales with the map; the
    extraction is ``verify_jordan``'s verdict on ``B^+ T``, or ``None``
    when ``B`` is not hermitian up to ``tolerances().iso``.
    """
    B = T.apply(T.domain.identity())
    if not B.is_hermitian(tolerances().iso):
        return B, None
    smax = max((float(s[0]) if s.size else 0.0) for s in singular_values(B))
    cut = tolerances().alg * smax
    b_pinv = functional_calculus(B, lambda t: 1.0 / t if t > cut else 0.0)
    return B, verify_jordan(T.left_compose(b_pinv))


def analyze(T: LinearMap, norm_domain: NormSpec, norm_codomain: NormSpec,
            trials: int = 200, seed: int = 0) -> IsometryAnalysis:
    """Run the five-phase order-isometry analysis; failures are recorded
    in the report, never raised.

    The factorisation ``T = B . J`` is certified when ``J = B^+ T``
    verifies as Jordan, ``B`` commutes with the image of every matrix
    unit, ``T(e) = B J(e)`` on every matrix unit and ``B >= 0`` relative to
    ``||B||``.  Then ``T(x) = B^{1/2} J(x) B^{1/2}`` is positive for every
    ``x >= 0``, so ``positive`` is certified (``trials`` 0, ``worst`` the
    relative negative part of ``B``'s spectrum), and for an Lp -> Lp pair
    with one exponent ``||T x||_p^p = sum_k c_k tau(|x_k|^p)`` with
    ``c_k = ||T 1_k||_p^p / ||1_k||_p^p``, so ``isometric`` is decided on
    the block units ``1_k`` (Yeadon, Math. Proc. Camb. Phil. Soc. 90,
    1981).  Otherwise, and for the isometry identity of any other norm
    pair, the phase is sampled.  Isometry gaps are relative to ``||x||``,
    so the gate does not depend on the scale of the domain weights.

    Each sampled phase draws all its inputs first, trial by trial from its
    ``rng_streams`` stream, into batches (see the module docstring; the matrix
    units and their images are the tables ``dom.units`` and
    ``T.unit_images``), evaluates them in stacked calls, one matrix-vector
    product, array operation or LAPACK call per block, and then takes its
    decisions trial by trial, with the bits of a trial-by-trial evaluation.
    """
    tol = tolerances().iso
    dom, cod = T.domain, T.codomain

    # B = T(1), its commutation with the range, and J = B^+ T
    B, extracted = jordan_factor(T)
    images = T.unit_images
    comm = max([0.0, *norm_inf_many(B @ images - images @ B)])
    J = extracted if isinstance(extracted, JordanMap) else None
    jordan_failure = extracted if isinstance(extracted, JordanFailure) else None
    certified = False
    fact_res = float("inf")
    supp_res = float("inf")
    if J is not None:
        rng = rng_for(seed, "iso-factorization")
        gaussians = GAUSSIAN.batch(dom, rng.standard_normal((50, GAUSSIAN.size(dom))))
        test_set = OperatorBatch(dom, np.concatenate([dom.units.rows, gaussians.rows]))
        residuals = norm_inf_many(T.apply_many(test_set) - B @ J.map.apply_many(test_set))
        fact_res = max([0.0, *residuals])
        # the unit residuals decide T = B . J, which is linear in x
        b_norm = B.norm_inf()
        b_neg = max(0.0, -min_eigenvalue(B))
        certified = (comm <= tol and max([0.0, *residuals[:dom.vector_dim]]) <= tol
                     and b_neg <= tol * b_norm)
        # support identities s(T(e)) = J(e) on projections e and
        # s(T(x)) = J(s(x)) on PSD x
        hs, xs = np.empty((2, 50, PSD.size(dom)))
        cuts = []
        for rng, h, x in zip(rng_streams(seed, "iso-support", range(50)), hs, xs):
            rng.standard_normal(out=h)
            cuts.append(float(rng.uniform(-0.3, 0.3)))
            rng.standard_normal(out=x)
        es = spectral_projection_many(HERMITIAN.batch(dom, hs), cuts)
        xs = PSD.batch(dom, xs)
        supp_res = max([
            0.0,
            *norm_inf_many(J.map.apply_many(es) - support_projection_many(T.apply_many(es))),
            *norm_inf_many(support_projection_many(T.apply_many(xs))
                           - J.map.apply_many(support_projection_many(xs)))])

    # positivity
    if certified:
        positive = CheckStats(True, 0, b_neg / b_norm if b_norm > 0.0 else 0.0,
                              "certified: T(x) = B^1/2 J(x) B^1/2 with B >= 0 "
                              "commuting with the range of J")
    else:
        xs = draw_batch(dom, rng_streams(seed, "iso-positive", range(trials)),
                        [PSD if trial % 2 else RANK_ONE_PSD for trial in range(trials)])
        # max([0.0, *values]) is the left fold max(max(0.0, v1), v2)... of a
        # trial loop, ties and NaN included
        worst_pos = max([0.0, *_positivity_defects(T.apply_many(xs), tol)])
        positive = CheckStats(worst_pos <= tol, trials, worst_pos,
                              "sampled on rank-one and mixed PSD inputs; no certificate")

    # isometry
    if certified and _same_lp(norm_domain, norm_codomain):
        block_units = OperatorBatch.of(dom, [dom.block_identity(k).blocks
                                             for k in range(dom.n_blocks)])
        gaps = _isometry_gaps(T, block_units, norm_domain, norm_codomain)
        worst_iso = max([0.0, *gaps])
        note = "certified on the block units 1_k"
        if worst_iso > tol:
            note += f"; fails at 1_{gaps.index(worst_iso)}"
        isometric = CheckStats(worst_iso <= tol, len(gaps), worst_iso, note)
    else:
        xs = draw_batch(dom, rng_streams(seed, "iso-isometry", range(trials)),
                        [_ISOMETRY_INPUTS[trial % 6] for trial in range(trials)])
        worst_iso = max([0.0, *_isometry_gaps(T, xs, norm_domain, norm_codomain)])
        isometric = CheckStats(worst_iso <= tol, trials, worst_iso)

    # disjointness with proof-chain diagnostic
    n_dis = max(1, trials // 2)
    xs, ys = disjoint_psd_pairs(dom, rng_streams(seed, "iso-disjoint", range(n_dis)))
    txs, tys = T.apply_many(xs), T.apply_many(ys)
    prod_norms = norm_inf_many(txs @ tys)
    tx_norms, ty_norms = norm_inf_many(txs), norm_inf_many(tys)
    norms_dom = evaluate_norms(norm_domain, OperatorBatch(
        dom, np.concatenate([xs.rows + ys.rows, xs.rows - ys.rows])))
    mus_cod = mu_many(OperatorBatch(cod, np.concatenate([txs.rows - tys.rows,
                                                         txs.rows + tys.rows])))
    worst_dis = 0.0
    worst_norm_gap = 0.0
    link_norm = link_mu = link_prod = True
    first_broken: str | None = None
    for trial in range(n_dis):
        prod = prod_norms[trial] / (1.0 + tx_norms[trial] * ty_norms[trial])
        worst_dis = max(worst_dis, prod)

        norm_sum = norms_dom[trial]
        gap = abs(norms_dom[n_dis + trial] - norm_sum)
        worst_norm_gap = max(worst_norm_gap, gap)
        ok_norm = gap <= 1e-10 * max(1.0, norm_sum)
        f_diff, f_sum = mus_cod[trial], mus_cod[n_dis + trial]
        scale = max(1.0, f_sum.values.max() if f_sum.pieces else 0.0)
        ok_mu = mu_values_equal(f_diff, f_sum, tol * scale)
        ok_prod = prod <= tol
        link_norm &= ok_norm
        link_mu &= ok_mu
        link_prod &= ok_prod
        if first_broken is None:
            for name, ok in (("norm-equality", ok_norm), ("mu-equality", ok_mu),
                             ("product-zero", ok_prod)):
                if not ok:
                    first_broken = name
                    break
    disjointness = CheckStats(worst_dis <= tol, n_dis, worst_dis)
    chain = ChainReport(link_norm, link_mu, link_prod, first_broken, worst_norm_gap)

    passed = (positive.ok and isometric.ok and disjointness.ok and chain.intact
              and J is not None and comm <= tol and fact_res <= tol and supp_res <= tol)
    return IsometryAnalysis(positive, isometric, disjointness, chain, B, comm,
                            J, jordan_failure, fact_res, supp_res, passed)


@dataclasses.dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthesized map T = B . J.

    ``b_blocks`` holds one nonnegative scalar per codomain block (zero on
    blocks no source feeds).  For an Lp -> Lp pair with equal exponent the
    calibration sum_t c'_t beta_t^p = c_s is enforced per source block at
    construction; other norm pairs are accepted but flagged uncalibrated
    and only analyzed, never asserted isometric.
    """

    plan: JordanPlan
    b_blocks: tuple[float, ...]
    norm_domain: NormSpec
    norm_codomain: NormSpec

    def __post_init__(self):
        if len(self.b_blocks) != self.plan.codomain.n_blocks:
            raise CalibrationError("need one scalar per codomain block")
        if not all(math.isfinite(b) for b in self.b_blocks):
            raise CalibrationError("B scalars must be finite")
        if any(b < 0.0 for b in self.b_blocks):
            raise CalibrationError("B scalars must be nonnegative")
        if self.calibrated:
            p = self.norm_domain.p
            for s, (dim, c_s) in enumerate(self.plan.domain.blocks):
                lhs = 0.0
                for e in self.plan.entries:
                    if e.source == s:
                        c_t = self.plan.codomain.weights[e.target]
                        lhs += c_t * self.b_blocks[e.target] ** p
                if abs(lhs - c_s) > 1e-9 * max(1.0, c_s):
                    raise CalibrationError(
                        f"source block {s}: sum c'_t beta_t^{p:g} = {lhs:.12g} "
                        f"!= {c_s:.12g}")

    @property
    def calibrated(self) -> bool:
        return _same_lp(self.norm_domain, self.norm_codomain)

    def b_operator(self) -> Operator:
        cod = self.plan.codomain
        blocks = [beta * np.eye(d, dtype=complex)
                  for d, beta in zip(cod.dims, self.b_blocks)]
        return Operator(cod, blocks)


def synthesize(spec: SynthSpec) -> LinearMap:
    """Build T = B . J from a synthesis recipe, J the plan's map
    (``jordan.plan_map``).  Nothing is certified here: ``analyze``
    certifies the J it extracts from T."""
    return plan_map(spec.plan).left_compose(spec.b_operator())


@dataclasses.dataclass(frozen=True)
class ReflectionReport:
    ok: bool
    trials: int
    worst: float
    f_log_monotone_ok: bool
    witness_note: str = ""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def check_surjective_reflection(T: LinearMap, norm_codomain: NormSpec,
                                trials: int = 200, seed: int = 0) -> ReflectionReport:
    """For invertible T: solve T(x) = y for random PSD y and check x >= 0.

    Also samples the precondition the statement needs, log-monotonicity of
    the codomain norm.  T is ``Singular`` when its smallest singular value
    is at most 1e-12 times its largest, a cut that scales with T.
    """
    if T.matrix.shape[0] != T.matrix.shape[1]:
        raise Singular("map is not square, cannot be surjective")
    s = np.linalg.svd(T.matrix, compute_uv=False)
    if s.size == 0 or s[-1] <= 1e-12 * float(s[0]):
        raise Singular("map matrix is numerically singular")
    tol = tolerances().iso
    cod = T.codomain
    ys = draw_batch(cod, rng_streams(seed, "reflect", range(trials)),
                    [INVERTIBLE_PSD if trial % 2 else PSD for trial in range(trials)])
    worst = 0.0
    note = ""
    for trial, bad in enumerate(_positivity_defects(T.solve_many(ys), tol)):
        if bad > worst:
            worst = bad
            if bad > tol:
                note = f"trial {trial}: preimage of a PSD operator fails positivity"

    # each trial's PSD a and hermitian h: 2 * size consecutive normals
    normals = np.empty((10, 2, PSD.size(cod)))
    for rng, row in zip(rng_streams(seed, "reflect-mono", range(10)), normals):
        rng.standard_normal(out=row)
    a_s, hs = INVERTIBLE_PSD.batch(cod, normals[:, 0]), HERMITIAN.batch(cod, normals[:, 1])
    hs = OperatorBatch(cod, hs.rows / (np.array(norm_inf_many(hs)) + 1e-3)[:, None])
    roots = OperatorBatch.of(cod, [dec.apply_blocks(lambda t: t ** 0.5 if t > 0 else 0.0)
                                   for dec in spectral_decompose_many(a_s)])
    mus = mu_many(OperatorBatch(cod, np.concatenate([(roots @ hs @ roots).rows, a_s.rows])))
    dominated = [f for mu_b, mu_a in zip(mus[:len(a_s)], mus[len(a_s):])
                 if log_submajorizes(mu_b, mu_a).holds for f in (mu_b, mu_a)]
    norms = evaluate_norms_mu(norm_codomain, dominated)
    mono_ok = not any(nb > na * (1 + 1e-9) + 1e-12 for nb, na in zip(norms[::2], norms[1::2]))
    return ReflectionReport(worst <= tol and mono_ok, trials, worst, mono_ok, note)


@dataclasses.dataclass(frozen=True)
class CentralBReport:
    status: str  # "central" | "factor" | "not-applicable" | "failed"
    ok: bool | None
    alpha: float | None
    residual: float

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def central_B_check(B: Operator, J: JordanMap | None, onto: bool) -> CentralBReport:
    """For a surjective factorisation T = B . J (see :func:`jordan_factor`),
    verify B commutes with the codomain; on a single-block codomain
    (factor) verify B = alpha 1."""
    if J is None:
        raise JMissing("no Jordan map to check B against")
    cod = J.codomain
    if not (onto and J.map.rank() == cod.vector_dim):
        return CentralBReport("not-applicable", None, None, 0.0)
    tol = tolerances().iso
    units = cod.units
    worst = max([0.0, *norm_inf_many(B @ units - units @ B)])
    if cod.n_blocks == 1:
        alpha = float(np.real(trace(B))) / cod.total_trace
        dev = (B - alpha * cod.identity()).norm_inf()
        worst = max(worst, dev)
        return CentralBReport("factor", worst <= tol, alpha, worst)
    return CentralBReport("central", worst <= tol, None, worst)
