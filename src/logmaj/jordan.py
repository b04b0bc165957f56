"""Jordan *-homomorphisms: representation, verification, decomposition.

Linear maps between finite algebras are stored as dense matrices acting
on the canonical vectorization (blockwise row-major matrix units).  A map
builds its unit images and its law table J(uv) - J(u)J(v) over every pair
of domain matrix units once, on first read; neither depends on a
tolerance.  A map J is certified Jordan by checking *-preservation on
every domain matrix unit and the Jordan law J(u∘v) = J(u)∘J(v) on every
pair of units, read off that table.  The hom/anti-hom split is read in
closed form off the unit images: per domain block k, z_k = sum_a
J(e_{a,a+1}) J(e_{a+1,a}) J(e_aa) is the hom projection and J(1_k) - z_k
the anti one.  Each projection is classified by which multiplication law
it supports on every pair of domain matrix units, from the same table.
Both checks are complete and draw no random inputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .algebra import (FiniteAlgebra, Operator, OperatorBatch, _from_rows, absolute_value,
                      first_read, frobenius_norm, norm_inf_many, spectral_projection_many)
from .config import tolerances
from .errors import (ClassificationFailure, InternalError, PlanMismatch,
                     ShapeMismatch)
from .sampling import HERMITIAN, _phase_fixed_qr, rng_streams


def vectorize(x: Operator) -> np.ndarray:
    """Coordinates of x in the canonical matrix-unit basis (read-only)."""
    return x.rows


def unvectorize(algebra: FiniteAlgebra, vec: np.ndarray) -> Operator:
    """The operator with coordinates ``vec``; its blocks are views into one
    private copy of the vector."""
    vec = np.array(vec, dtype=complex)
    if vec.shape != (algebra.vector_dim,):
        raise ShapeMismatch(f"vector shape {vec.shape} != ({algebra.vector_dim},)")
    return _from_rows(algebra, vec)


def left_multiplication_matrix(b: Operator) -> np.ndarray:
    """Matrix of x -> b @ x on the canonical vectorization."""
    blocks = [np.kron(bk, np.eye(d, dtype=complex))
              for d, bk in zip(b.algebra.dims, b.blocks)]
    n = b.algebra.vector_dim
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for blk in blocks:
        m = blk.shape[0]
        out[pos:pos + m, pos:pos + m] = blk
        pos += m
    return out


@dataclasses.dataclass(frozen=True)
class LinearMap:
    """Complex-linear map given by its read-only matrix on vectorized
    operators, with the tables that are pure functions of it."""

    domain: FiniteAlgebra
    codomain: FiniteAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        expected = (self.codomain.vector_dim, self.domain.vector_dim)
        if m.shape != expected:
            raise ShapeMismatch(f"map matrix shape {m.shape} != {expected}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, x: Operator | OperatorBatch) -> Operator | OperatorBatch:
        """The image of an operator, or of each operator of a batch, bit
        for bit ``M @ vectorize(x)``.

        One stacked matrix-vector product, ``matmul(M, X[..., None])``: it
        runs the single product's gemv on every vector.  The matrix-matrix
        product ``M @ X.T`` is not used: gemm rounds differently from gemv.
        """
        if x.algebra != self.domain:
            raise ShapeMismatch("operator not in the map's domain")
        return _from_rows(self.codomain, np.matmul(self.matrix, x.rows[..., None])[..., 0])

    apply_many = apply

    @first_read
    def unit_images(self) -> OperatorBatch:
        """The images of the domain's matrix units: the rows of ``matrix.T``."""
        return OperatorBatch(self.codomain, self.matrix.T)

    @first_read
    def law_defects(self) -> tuple[tuple[np.ndarray, np.ndarray, bool], ...]:
        """Per codomain block, the read-only stacks J(uv) - J(u)J(v) and
        J(uv) - J(v)J(u), shape (n, n, d, d), over all ordered pairs of
        domain matrix units, and whether both are surely finite: they are
        when the block's unit images are finite and below 1e150 in modulus,
        since each entry is then below 1e150 + d * 1e300."""
        n = self.domain.vector_dim
        table = np.full((n, n), n)  # e_ab e_ce = [b = c] e_ae; row n is zero
        for idx in self.domain.unit_indices:
            table[idx[:, :, None], idx[None]] = idx[:, None]
        images = np.vstack([self.unit_images.rows, np.zeros(self.codomain.vector_dim)])
        out = []
        for ju, juv in zip(self.unit_images.blocks,
                           OperatorBatch(self.codomain, images[table.reshape(-1)]).blocks):
            prod = np.einsum("uij,vjk->uvik", ju, ju)
            juv = juv.reshape(prod.shape)
            finite = bool(np.isfinite(ju).all() and np.abs(ju).max(initial=0.0) < 1e150)
            hom, anti = juv - prod, juv - prod.swapaxes(0, 1)
            for stack in (hom, anti):
                stack.setflags(write=False)
            out.append((hom, anti, finite))
        return tuple(out)

    def solve_many(self, ys: OperatorBatch) -> OperatorBatch:
        """The preimages ``x`` with ``self(x) = y`` under a square map, each
        bit for bit ``unvectorize(domain, np.linalg.solve(M, vectorize(y)))``:
        one stacked solve, which factors ``M`` anew for every right-hand
        side exactly as the single call does."""
        if ys.algebra != self.codomain:
            raise ShapeMismatch("operator not in the map's codomain")
        return OperatorBatch(self.domain,
                             np.linalg.solve(self.matrix, ys.rows[:, :, None])[:, :, 0])

    def rank(self) -> int:
        tol = tolerances().alg
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if s.size == 0:
            return 0
        return int(np.count_nonzero(s > tol * float(s[0])))

    @staticmethod
    def identity(algebra: FiniteAlgebra) -> "LinearMap":
        n = algebra.vector_dim
        return LinearMap(algebra, algebra, np.eye(n, dtype=complex))

    @staticmethod
    def transpose_map(algebra: FiniteAlgebra) -> "LinearMap":
        return LinearMap.from_function(algebra, algebra, lambda x: x.transpose())

    @staticmethod
    def from_function(domain: FiniteAlgebra, codomain: FiniteAlgebra, fn) -> "LinearMap":
        cols = []
        for _, _, _, e in domain.matrix_units():
            cols.append(vectorize(fn(e)))
        return LinearMap(domain, codomain, np.column_stack(cols))

    def left_compose(self, b: Operator) -> "LinearMap":
        """The map x -> b @ self(x)."""
        if b.algebra != self.codomain:
            raise ShapeMismatch("left factor not in the codomain")
        return LinearMap(self.domain, self.codomain,
                         left_multiplication_matrix(b) @ self.matrix)


@dataclasses.dataclass(frozen=True)
class JordanCertificate:
    selfadjoint_ok: bool
    square_ok: bool
    positivity_ok: bool
    max_residual: float

    @property
    def passed(self) -> bool:
        return self.selfadjoint_ok and self.square_ok and self.positivity_ok

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class JordanFailure:
    """Verification failure with the worst witness; never raised."""

    kind: str
    residual: float
    witness: Operator | None
    certificate: JordanCertificate


@dataclasses.dataclass(frozen=True)
class PlanEntry:
    source: int
    target: int
    transpose: bool
    unitary_seed: int


@dataclasses.dataclass(frozen=True)
class JordanPlan:
    """Ground-truth construction plan: each entry carries one source block
    into one target block, optionally transposed, conjugated by a seeded
    unitary.  Targets must be distinct; a source may fan out to several
    targets (the hom (+) anti duplication), and sources may be unused."""

    domain: FiniteAlgebra
    codomain: FiniteAlgebra
    entries: tuple[PlanEntry, ...]

    def __post_init__(self):
        seen_targets = set()
        for e in self.entries:
            if not (0 <= e.source < self.domain.n_blocks):
                raise PlanMismatch(f"source index {e.source} out of range")
            if not (0 <= e.target < self.codomain.n_blocks):
                raise PlanMismatch(f"target index {e.target} out of range")
            if e.target in seen_targets:
                raise PlanMismatch(f"target block {e.target} used twice")
            seen_targets.add(e.target)
            if self.domain.dims[e.source] != self.codomain.dims[e.target]:
                raise PlanMismatch(
                    f"dimension mismatch: source {e.source} is "
                    f"{self.domain.dims[e.source]}, target {e.target} is "
                    f"{self.codomain.dims[e.target]}")

    def effective_flags(self) -> dict[int, str]:
        """Expected classification per target ('hom'/'anti'); dimension-1
        targets are hom by the tie-break."""
        flags = {}
        for e in self.entries:
            if self.codomain.dims[e.target] == 1 or not e.transpose:
                flags[e.target] = "hom"
            else:
                flags[e.target] = "anti"
        return flags

    def hom_source_projection(self) -> Operator:
        """The preimage central projection p: sum of source identities all
        of whose entries act multiplicatively."""
        flags = self.effective_flags()
        anti = {e.source for e in self.entries if flags[e.target] == "anti"}
        p = self.domain.zero()
        for s in dict.fromkeys(e.source for e in self.entries):
            if s not in anti:
                p = p + self.domain.block_identity(s)
        return p


@dataclasses.dataclass(frozen=True)
class StormerSplit:
    """Minimal central projections of the algebra generated by the range,
    listed by domain block, hom before anti, each classified as
    multiplicative or anti-multiplicative."""

    unit: Operator
    projections: tuple[Operator, ...]
    kinds: tuple[str, ...]

    @property
    def z(self) -> Operator:
        """Sum of the hom-classified central projections."""
        total = self.unit.algebra.zero()
        for p, kind in zip(self.projections, self.kinds):
            if kind == "hom":
                total = total + p
        return total


@dataclasses.dataclass(frozen=True)
class JordanMap:
    """A verified Jordan *-homomorphism with its certificate.

    ``plan`` is present for generated maps and records the ground truth.
    The unit images and law table live on ``map``, shared by every
    ``JordanMap`` around it; nothing that depends on a tolerance (a rank,
    a cut, a split) is cached, so :func:`stormer_split` computes anew.
    """

    map: LinearMap
    certificate: JordanCertificate
    plan: JordanPlan | None = None

    @property
    def domain(self) -> FiniteAlgebra:
        return self.map.domain

    @property
    def codomain(self) -> FiniteAlgebra:
        return self.map.codomain

    def apply(self, x: Operator) -> Operator:
        return self.map.apply(x)


def verify_jordan(linear_map: LinearMap):
    """Certify a linear map as a Jordan *-homomorphism, or report failure.

    Complete and deterministic: x -> J(x*) - J(x)* is antilinear and
    (x, y) -> J(x∘y) - J(x)∘J(y), with x∘y = (xy + yx)/2, is bilinear, so
    both vanish everywhere if and only if they vanish on every domain
    matrix unit and on every pair of units.  Positivity follows
    (J(a) = J(a^{1/2})^2) and is checked on the diagonal units.
    Mathematical failure is returned, never raised.

    Residuals are screened through the Frobenius norm against
    ``tolerances().jordan`` (it dominates the operator norm, so every
    acceptance stays sound).  The worst witness is e_ab for
    *-preservation, the larger-defect one of u + v and u - v for the law
    on the unit pair (u, v), or a diagonal unit for positivity;
    ``max_residual`` is the operator norm of its residual J(w*) - J(w)*
    or J(w^2) - J(w)^2, or the depth of its negative eigenvalue.
    """
    tol = tolerances().jordan
    units = linear_map.domain.units
    idx = linear_map.domain.unit_indices
    adj = np.concatenate([i.T.reshape(-1) for i in idx])  # e_ab -> e_ba
    diag = np.concatenate([i.diagonal() for i in idx])
    images = linear_map.unit_images.blocks
    # Frobenius norms of J(e_ba) - J(e_ab)* per unit e_ab, and of
    # J(u∘v) - J(u)∘J(v) = (D[u, v] + D[v, u])/2 per unit pair, where
    # D[u, v] = J(uv) - J(u)J(v)
    star_f = np.sqrt(sum(np.sum(np.abs(ju[adj] - ju.conj().transpose(0, 2, 1)) ** 2,
                                axis=(1, 2)) for ju in images))
    law_f = np.sqrt(sum(np.sum(np.abs(hom + hom.swapaxes(0, 1)) ** 2, axis=(2, 3))
                        for hom, *_ in linear_map.law_defects)) / 2
    herm = star_f[diag] <= tol
    neg = np.where(herm, np.maximum(0.0, -np.min(
        [np.linalg.eigvalsh(ju[diag])[:, 0] for ju in images], axis=0)), 0.0)

    def square(w: Operator) -> tuple:
        jw = linear_map.apply(w)
        r = linear_map.apply(w @ w) - jw @ jw
        return "square", frobenius_norm(r), r, w

    s = int(np.argmax(star_f))
    a, b = np.unravel_index(np.argmax(law_f), law_f.shape)
    k = int(np.argmax(neg))
    # the first of equally bad witnesses wins
    kind, _, residual, witness = max(
        [("selfadjoint", star_f[s],
          linear_map.apply(units[s].adjoint()) - linear_map.apply(units[s]).adjoint(), units[s]),
         square(units[a] + units[b]), square(units[a] - units[b]),
         ("positivity", neg[k], None, units[diag[k]])],
        key=lambda c: c[1])
    cert = JordanCertificate(bool(star_f.max() <= tol), bool(law_f.max() <= tol),
                             bool(herm.all() and neg.max() <= tol),
                             residual.norm_inf() if residual is not None else float(neg[k]))
    if cert.passed:
        return JordanMap(linear_map, cert)
    return JordanFailure(kind, cert.max_residual, witness, cert)


def _law_residual(defects: tuple, law: int, p: Operator) -> float:
    """Worst Frobenius norm of (law defect) @ p over all unit pairs (law 0
    hom, 1 anti): per block, one gemm rounding as its n*n products do.  A
    block where ``p`` is zero would add +0.0 to every sum of squares, so it
    is skipped, unless its defects are not finite (0 * inf is NaN)."""
    sq = sum(np.sum(np.abs((pair[law].reshape(-1, len(pk)) @ pk).reshape(pair[law].shape)) ** 2,
                    axis=(2, 3)) for pair, pk in zip(defects, p.blocks) if pk.any() or not pair[2])
    return float(np.sqrt(np.max(sq)))


def _block_projections(J: LinearMap) -> OperatorBatch:
    """Rows 2k and 2k + 1: the hom projection z_k of domain block k and its
    anti projection J(1_k) - z_k, read off the unit images.

    On a block M_d with d >= 2, a Jordan J is pi + rho, a *-homomorphism
    and a *-anti-homomorphism on orthogonal central supports.  For a != b,
    J(e_ab) J(e_ba) J(e_aa) = pi(e_aa), since rho(e_bb) rho(e_aa) = 0; so
    z_k = sum_a J(e_{a,a+1}) J(e_{a+1,a}) J(e_aa) (indices mod d) is
    pi(1_k).  A block of dimension 1 is hom by the tie-break: z_k = J(1_k).
    A codomain block where z_k is within ``tolerances().jordan`` of 0 or of
    J(1_k), relative to J(1_k) there in Frobenius norm, takes that value
    exactly, so a projection is exactly zero off its own blocks, as
    ``_law_residual``'s skip of zero blocks needs.
    """
    tol = tolerances().jordan
    blocks = []  # per domain block, the positions of e_aa, e_{a,a+1}, e_{a+1,a}
    for idx in J.domain.unit_indices:
        a = np.arange(len(idx))
        b = np.roll(a, -1)
        blocks.append((idx[a, a], idx[a, b], idx[b, a]))
    stacks = []
    for img in J.unit_images.blocks:
        units = np.array([img[diag].sum(axis=0) for diag, _, _ in blocks])
        zs = np.array([(img[up] @ img[down] @ img[diag]).sum(axis=0) if len(diag) > 1
                       else units[k] for k, (diag, up, down) in enumerate(blocks)])
        cut = tol * np.linalg.norm(units, axis=(1, 2))
        zs[np.linalg.norm(zs, axis=(1, 2)) <= cut] = 0.0
        whole = np.linalg.norm(units - zs, axis=(1, 2)) <= cut
        zs[whole] = units[whole]
        stacks.append(np.stack([zs, units - zs], axis=1).reshape(-1, *units.shape[1:]))
    return OperatorBatch.from_stacks(J.codomain, stacks)


def stormer_split(J: JordanMap) -> StormerSplit:
    """Split a verified Jordan map into hom and anti-hom central parts.

    Per domain block k, the hom projection z_k and the anti projection
    J(1_k) - z_k are read off the images of its matrix units in closed
    form (``_block_projections``; Jacobson & Rickart 1950, Størmer 1965).
    Each one with norm above ``tolerances().jordan`` is a summand; the
    summands are listed by domain block, hom before anti.  Dimension-one
    (abelian) blocks satisfy both laws and are classified hom by the
    tie-break.  Each summand is then classified by whether compression
    onto it makes the map multiplicative or anti-multiplicative, and the
    hom part z and the anti part ``unit - z`` are re-verified.  Both laws
    are bilinear, so the classification and its re-verification check
    every pair of domain matrix units: complete, with no random inputs,
    each in one gemm per codomain block, from ``J.map.law_defects``.
    Nothing is stored on ``J``.
    """
    return _stormer_split(J, _summands(J))


def _summands(J: JordanMap) -> tuple[Operator, OperatorBatch, list[float]]:
    """``J(1)``, the ``_block_projections`` of ``J.map`` and their norms;
    a non-finite unit image fails here, before the norms' SVDs."""
    if not np.isfinite(J.map.unit_images.rows).all():
        raise ClassificationFailure("a unit image has a non-finite entry")
    pieces = _block_projections(J.map)
    return J.apply(J.domain.identity()), pieces, norm_inf_many(pieces)


def _stormer_split(J: JordanMap, summands: tuple) -> StormerSplit:
    """``stormer_split(J)`` from the ``_summands(J)`` its caller reads too.
    A zero map reads no law table."""
    tol = tolerances().jordan
    unit, pieces, sizes = summands
    if unit.norm_inf() <= tol:
        return StormerSplit(unit, (), ())
    projections = [pieces[i] for i, size in enumerate(sizes) if size > tol]

    defects = J.map.law_defects
    kinds = []
    for p in projections:
        hom_res, anti_res = _law_residual(defects, 0, p), _law_residual(defects, 1, p)
        if not (hom_res <= tol or anti_res <= tol):
            raise ClassificationFailure(
                f"central summand is neither hom (res {hom_res:.2e}) nor "
                f"anti-hom (res {anti_res:.2e})")
        kinds.append("hom" if hom_res <= tol else "anti")

    split = StormerSplit(unit, tuple(projections), tuple(kinds))
    if _law_residual(defects, 0, split.z) > tol:
        raise ClassificationFailure("global hom verification failed")
    if _law_residual(defects, 1, unit - split.z) > tol:
        raise ClassificationFailure("global anti-hom verification failed")
    return split


def _derived_hom_projection(J: JordanMap) -> Operator:
    """p = sum of the domain block identities 1_k with no anti part,
    ``||J(1_k) - z_k|| <= tol``."""
    if J.plan is not None:
        return J.plan.hom_source_projection()
    summands = _summands(J)
    _stormer_split(J, summands)  # its gates reject a map that breaks both laws
    tol = tolerances().jordan
    p = J.domain.zero()
    for k, size in enumerate(summands[2][1::2]):  # the anti projections' norms
        if size <= tol:
            p = p + J.domain.block_identity(k)
    return p


def jordan_abs_residual(J: JordanMap, x: Operator) -> float:
    """Residual of |J(x)| = J(p|x| + (1-p)|x*|) in operator norm.

    The preimage projection p comes from the generator plan when present,
    otherwise from ``stormer_split(J)``, computed here.  The identity holds
    whenever every central summand of the domain maps purely
    multiplicatively or purely anti-multiplicatively; mixed fan-outs
    report an honest residual.
    """
    p = _derived_hom_projection(J)
    one = J.domain.identity()
    lhs = absolute_value(J.apply(x))
    rhs = J.apply(p @ absolute_value(x) + (one - p) @ absolute_value(x.adjoint()))
    return (lhs - rhs).norm_inf()


def check_injective(J: JordanMap) -> bool:
    """J(p) != 0 for every minimal diagonal matrix unit, cross-checked
    against the rank of the map matrix.  ``J(p)`` counts as zero at
    ``tolerances().jordan`` times the largest such image, so the verdict
    does not change with the scale of the map, as the relative rank's
    does not."""
    tol = tolerances().jordan
    norms = [J.apply(e).norm_inf() for _, i, j, e in J.domain.matrix_units() if i == j]
    cut = tol * max(norms)
    units_ok = all(not norm <= cut for norm in norms)
    rank_ok = J.map.rank() == J.domain.vector_dim
    if units_ok != rank_ok:
        raise InternalError("injectivity witnesses disagree with the matrix rank")
    return units_ok


@dataclasses.dataclass(frozen=True)
class OrthoReport:
    ortho_ok: bool
    jordan_ok: bool
    trials: int
    worst: float
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def ortho_extension_check(linear_map: LinearMap, trials: int = 50, seed: int = 0) -> OrthoReport:
    """Consistency check of the ortho-homomorphism extension statement.

    Samples orthogonal projection pairs, verifies their images are
    orthogonal projections summing correctly, then reports whether the
    Jordan verification also passes.
    """
    tol = tolerances().jordan
    dom = linear_map.domain
    hs = np.empty((trials, HERMITIAN.size(dom)))
    cuts = []
    for rng, h in zip(rng_streams(seed, "ortho-check", range(trials)), hs):
        rng.standard_normal(out=h)
        cuts.append(float(rng.uniform(-0.5, 0.5)))
    ps = spectral_projection_many(HERMITIAN.batch(dom, hs), cuts)
    qs = dom.identity() - ps
    jp, jq, jpq = (linear_map.apply_many(xs) for xs in (ps, qs, ps + qs))
    # per image, the larger of its idempotence and hermiticity defects
    defects = [[max(sq, sa) for sq, sa in zip(norm_inf_many(img @ img - img),
                                              norm_inf_many(img - img.adjoint()))]
               for img in (jp, jq)]
    worst = 0.0
    failures: list[str] = []
    for trial, (dp, dq, cross, join) in enumerate(zip(
            *defects, norm_inf_many(jp @ jq), norm_inf_many(jpq - jp - jq))):
        for name, res in (("p", dp), ("q", dq)):
            worst = max(worst, res)
            if res > tol:
                failures.append(f"trial {trial}: image of {name} is not a projection")
        worst = max(worst, cross, join)
        if cross > tol:
            failures.append(f"trial {trial}: images not orthogonal")
        if join > tol:
            failures.append(f"trial {trial}: join not additive")
    ortho_ok = not failures
    jordan_ok = isinstance(verify_jordan(linear_map), JordanMap)
    return OrthoReport(ortho_ok, jordan_ok, trials, worst, tuple(failures[:5]))


def _plan_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded conjugating unitary; seed 0 is reserved for the identity."""
    if seed == 0:
        return np.eye(dim, dtype=complex)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return _phase_fixed_qr(g[None])[0]


def random_jordan(domain: FiniteAlgebra, plan: JordanPlan) -> JordanMap:
    """The map of a plan (``plan_map``), certified by ``verify_jordan``,
    which it always passes (a sum of block *-isomorphisms and
    *-anti-isomorphisms by construction); the plan is kept on it as ground
    truth for split recovery tests."""
    if plan.domain != domain:
        raise PlanMismatch("plan domain differs from the given algebra")
    verified = verify_jordan(plan_map(plan))
    if not isinstance(verified, JordanMap):
        raise InternalError("constructed plan map failed Jordan verification")
    return dataclasses.replace(verified, plan=plan)


def plan_map(plan: JordanPlan) -> LinearMap:
    """Build J(x)_target = u (x_source or x_source^T) u* from a plan, with
    no certificate: ``random_jordan`` certifies it."""
    domain, cod = plan.domain, plan.codomain
    # the images of all domain matrix units, one stacked product per entry
    images = [np.zeros((domain.vector_dim, d, d), dtype=complex) for d in cod.dims]
    for e in plan.entries:
        src = domain.units.blocks[e.source]
        u = _plan_unitary(cod.dims[e.target], e.unitary_seed)
        images[e.target] = np.matmul(np.matmul(u, src.swapaxes(1, 2) if e.transpose else src),
                                     u.conj().T)
    return LinearMap(domain, cod, np.ascontiguousarray(
        OperatorBatch.from_stacks(cod, images).rows.T))


def random_plan(rng: np.random.Generator, domain: FiniteAlgebra | None = None,
                fanout: bool = False) -> JordanPlan:
    """Random plan (and codomain) over a random or given domain.

    Without fan-out each source feeds exactly one fresh target block; with
    fan-out a source may be duplicated into two targets with independent
    transpose flags, exercising the mixed hom/anti case.
    """
    from .sampling import random_algebra

    if domain is None:
        domain = random_algebra(rng)
    entries = []
    target_blocks: list[tuple[int, float]] = []
    for s, (d, _) in enumerate(domain.blocks):
        copies = 2 if (fanout and rng.uniform() < 0.5) else 1
        for _ in range(copies):
            target_blocks.append((d, float(rng.uniform(0.5, 2.0))))
            entries.append(PlanEntry(
                source=s,
                target=len(target_blocks) - 1,
                transpose=bool(rng.uniform() < 0.5),
                unitary_seed=int(rng.integers(1, 2 ** 31)),
            ))
    order = rng.permutation(len(target_blocks))
    remap = {int(old): new for new, old in enumerate(order)}
    codomain = FiniteAlgebra(tuple(target_blocks[int(old)] for old in order))
    entries = [dataclasses.replace(e, target=remap[e.target]) for e in entries]
    return JordanPlan(domain, codomain, tuple(entries))
