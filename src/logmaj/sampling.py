"""Seeded random generators for operators, algebras and test fixtures.

Every randomized checker and suite derives its generator through
``rng_for(seed, label, trial)``, which hashes the triple into a
SeedSequence.  Trials are therefore independent of execution order.

A ``Sampler`` draws an operator's normals in one ``standard_normal`` call
(per block, the real and then the imaginary parts of ``d x d`` entries, or
of ``d`` for a rank-one operator), into a row of a float array for a batch,
and assembles normals of any leading shape by elementwise operations and
stacked ``np.matmul``: a batch is bit for bit its operators drawn alone.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Callable, Sequence

import numpy as np

from .algebra import (BlockStacks, FiniteAlgebra, Operator, OperatorBatch, eigenpairs_many,
                      norm_inf_many)


@functools.lru_cache(maxsize=1024)
def _label_entropy(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def rng_for(seed: int, label: str, trial: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, label, trial)."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(_label_entropy(label), int(trial))))


def random_algebra(rng: np.random.Generator) -> FiniteAlgebra:
    """Up to 3 blocks, each of dimension up to 4."""
    n = int(rng.integers(1, 4))
    blocks = []
    for _ in range(n):
        dim = int(rng.integers(1, 5))
        weight = float(rng.uniform(0.5, 2.0))
        blocks.append((dim, weight))
    return FiniteAlgebra(tuple(blocks))


def _parts(algebra: FiniteAlgebra, normals: np.ndarray, vectors: bool = False):
    """Per block: ``d`` and views of the real and the imaginary normals,
    ``(..., d, d)`` (``(..., d)`` with ``vectors``)."""
    end = 0
    for d in algebra.dims:
        m, shape = (d, (d,)) if vectors else (d * d, (d, d))
        re, im = normals[..., end:end + m], normals[..., end + m:end + 2 * m]
        yield d, re.reshape(re.shape[:-1] + shape), im.reshape(im.shape[:-1] + shape)
        end += 2 * m


def _gaussian_blocks(algebra: FiniteAlgebra, normals: np.ndarray, vectors: bool = False):
    return [(re + 1j * im) / np.sqrt(2.0 * d) for d, re, im in _parts(algebra, normals, vectors)]


def _hermitian_blocks(algebra: FiniteAlgebra, normals: np.ndarray):
    return [(g + g.conj().swapaxes(-1, -2)) * 0.5 for g in _gaussian_blocks(algebra, normals)]


def _psd_blocks(algebra: FiniteAlgebra, normals: np.ndarray, delta: float = 0.0):
    blocks = [np.matmul(g.conj().swapaxes(-1, -2), g) for g in _gaussian_blocks(algebra, normals)]
    return [a + delta * np.eye(a.shape[-1], dtype=complex) for a in blocks] if delta else blocks


def _rank_one_psd_blocks(algebra: FiniteAlgebra, normals: np.ndarray):
    return [v[..., :, None] * v.conj()[..., None, :]
            for v in _gaussian_blocks(algebra, normals, vectors=True)]


@dataclasses.dataclass(frozen=True)
class Sampler:
    """A distribution of operators: ``assemble`` maps normals of any
    leading shape to block stacks of that shape; with ``vectors`` a block
    takes ``2 d`` normals, not ``2 d^2``."""

    assemble: Callable[[FiniteAlgebra, np.ndarray], list[np.ndarray]]
    vectors: bool = False

    def size(self, algebra: FiniteAlgebra) -> int:
        return 2 * (sum(algebra.dims) if self.vectors else algebra.vector_dim)

    def draw(self, algebra: FiniteAlgebra, rng: np.random.Generator) -> Operator:
        normals = rng.standard_normal(self.size(algebra))
        return Operator._wrap(algebra, self.assemble(algebra, normals))

    def batch(self, algebra: FiniteAlgebra, normals: np.ndarray) -> OperatorBatch:
        """The operators of the rows of a ``(n, size)`` array of normals."""
        return OperatorBatch.from_stacks(algebra, self.assemble(algebra, normals))


GAUSSIAN = Sampler(_gaussian_blocks)  # g, entries ~ N(0, 1/d) per block
HERMITIAN = Sampler(_hermitian_blocks)  # (g + g*) / 2
PSD = Sampler(_psd_blocks)  # g* g
INVERTIBLE_PSD = Sampler(functools.partial(_psd_blocks, delta=1e-3))  # g* g + 1e-3 1
RANK_ONE_PSD = Sampler(_rank_one_psd_blocks, vectors=True)  # vv*, v spread over all blocks


def draw_batch(algebra: FiniteAlgebra, rngs: Sequence[np.random.Generator],
               samplers: Sequence[Sampler]) -> OperatorBatch:
    """Row ``i`` is ``samplers[i].draw(algebra, rngs[i])``, bit for bit:
    one array of normals and one assembly per sampler."""
    rows = np.empty((len(rngs), algebra.vector_dim), dtype=complex)
    for sampler in set(samplers):
        idx = [i for i, s in enumerate(samplers) if s == sampler]
        normals = np.empty((len(idx), sampler.size(algebra)))
        for i, row in zip(idx, normals):
            rngs[i].standard_normal(out=row)
        rows[idx] = sampler.batch(algebra, normals).rows
    return OperatorBatch(algebra, rows)


# one operator each, the one-row case of the samplers
gaussian, hermitian, rank_one_psd = GAUSSIAN.draw, HERMITIAN.draw, RANK_ONE_PSD.draw


def hermitian_contraction(algebra: FiniteAlgebra, rng: np.random.Generator) -> Operator:
    """Hermitian h with ||h|| <= 1 (strictly below 1 generically)."""
    return hermitian_contractions([hermitian(algebra, rng)])[0]


def hermitian_contractions(hs: Sequence[Operator]) -> list[Operator]:
    """``h / (||h|| + 1e-3)`` for each drawn hermitian ``h``, which may live
    on different algebras: the norms take one stacked SVD per block
    dimension (``norm_inf_many``)."""
    return [h / (norm + 1e-3) for h, norm in zip(hs, norm_inf_many(hs))]


def psd(algebra: FiniteAlgebra, rng: np.random.Generator, delta: float = 0.0) -> Operator:
    """a = g* g + delta * 1; delta in {0, 1e-3} covers singular and
    well-conditioned regimes."""
    normals = rng.standard_normal(PSD.size(algebra))
    return Operator._wrap(algebra, _psd_blocks(algebra, normals, delta))


def unitary_draws(algebra: FiniteAlgebra, rng: np.random.Generator) -> list[np.ndarray]:
    """The complex Gaussian block per block of ``algebra`` that ``unitary``
    turns into a unitary; all of ``unitary``'s draws."""
    normals = rng.standard_normal(GAUSSIAN.size(algebra))
    return [re + 1j * im for _, re, im in _parts(algebra, normals)]


def _phase_fixed_qr(stack: np.ndarray) -> np.ndarray:
    """The Q factors of a ``(n, d, d)`` stack, one stacked QR call, with
    each column rotated so that ``R``'s diagonal is real positive.  Row
    ``i`` is bit for bit the result for ``stack[i]`` alone."""
    q, r = np.linalg.qr(stack)
    phases = np.diagonal(r, axis1=1, axis2=2).copy()
    phases[phases == 0] = 1.0
    return q * (phases / np.abs(phases))[:, None, :]


def unitaries(draws: Sequence[tuple[FiniteAlgebra, list[np.ndarray]]]) -> list[Operator]:
    """The unitaries of many ``(algebra, unitary_draws(algebra, rng))``
    pairs, which may be on different algebras: one stacked QR per block
    dimension, the same bits as one ``unitary`` call per pair."""
    stacks = BlockStacks.of([Operator(alg, blocks) for alg, blocks in draws])
    return stacks.operators([_phase_fixed_qr(s) for s in stacks.stacks])


def unitary(algebra: FiniteAlgebra, rng: np.random.Generator) -> Operator:
    """Haar-ish unitary per block via phase-fixed QR: every block's
    Gaussian is drawn first, then the blocks of each dimension share one
    stacked QR."""
    return unitaries([(algebra, unitary_draws(algebra, rng))])[0]


def disjoint_psd_pair(algebra: FiniteAlgebra, rng: np.random.Generator) -> tuple[Operator, Operator]:
    """PSD pair (x, y) with xy = 0, built from complementary spectral bands
    of one random hermitian operator."""
    (x,), (y,) = disjoint_psd_pairs([algebra], [rng])
    return x, y


def disjoint_psd_pairs(algebras: FiniteAlgebra | Sequence[FiniteAlgebra],
                       rngs: Sequence[np.random.Generator]
                       ) -> tuple[OperatorBatch, OperatorBatch] | tuple[list, list]:
    """The ``x`` and the ``y`` of one ``disjoint_psd_pair`` per generator,
    on one algebra (two batches) or on one algebra per generator (two
    lists).  Each pair's hermitian ``h`` and, per block, the diagonals of
    two complementary bands are drawn first; then every ``h`` is
    diagonalised in stacks (``eigenpairs_many``) and each band is placed in
    the eigenbasis ``u`` of its ``h``, ``u @ diag @ u*``, one stacked
    product per stack."""
    one = isinstance(algebras, FiniteAlgebra)
    per_pair = [algebras] * len(rngs) if one else algebras
    normals, bands = [], []
    for alg, rng in zip(per_pair, rngs):
        normals.append(rng.standard_normal(HERMITIAN.size(alg)))
        pair = []
        for d in alg.dims:
            split = int(rng.integers(0, d + 1))
            pair.append((split, rng.uniform(0.2, 1.5, size=split),
                         rng.uniform(0.2, 1.5, size=d - split)))
        bands.append(pair)
    stacks = BlockStacks.of(
        HERMITIAN.batch(algebras, np.reshape(normals, (-1, HERMITIAN.size(algebras)))) if one
        else [Operator._wrap(alg, HERMITIAN.assemble(alg, row)) for alg, row in zip(per_pair, normals)])
    xs, ys = [], []
    for where, (_, u) in zip(stacks.where, eigenpairs_many(stacks)):
        m, d = u.shape[:2]
        band = np.zeros((2, m, d), dtype=complex)
        for r, (i, k) in enumerate(where):
            split, dx, dy = bands[i][k]
            band[0, r, :split] = dx
            band[1, r, split:] = dy
        diag = np.zeros((2, m, d, d), dtype=complex)
        diag[:, :, range(d), range(d)] = band
        uh = u.conj().swapaxes(1, 2)
        for out, diagonals in zip((xs, ys), diag):
            out.append(np.matmul(np.matmul(u, diagonals), uh))
    return stacks.operators(xs), stacks.operators(ys)


def commuting_pair(algebra: FiniteAlgebra, rng: np.random.Generator) -> tuple[Operator, Operator]:
    """Two random polynomials of one hermitian operator."""
    h = hermitian(algebra, rng)
    ident = algebra.identity()
    c = rng.standard_normal(6)
    h2 = h @ h
    x = c[0] * ident + c[1] * h + c[2] * h2
    y = c[3] * ident + c[4] * h + c[5] * h2
    return x, y
