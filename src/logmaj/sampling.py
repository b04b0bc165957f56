"""Seeded random generators for operators, algebras and test fixtures.

Every randomized checker and suite derives its generator through
``rng_for(seed, label, trial)``, which hashes the triple into a
SeedSequence.  Trials are therefore independent of execution order.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .algebra import (FiniteAlgebra, Operator, OperatorBatch,
                      spectral_decompose_many, stacked_by_dimension)

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


def gaussian(algebra: FiniteAlgebra, rng: np.random.Generator) -> Operator:
    """Complex Gaussian operator, entries ~ N(0, 1/d) per block."""
    return Operator._wrap(algebra, gaussian_blocks(algebra, rng))


def gaussian_blocks(algebra: FiniteAlgebra, rng: np.random.Generator) -> list[np.ndarray]:
    """The blocks of ``gaussian(algebra, rng)``; each ``*_blocks`` sampler
    makes its operator's draws in the same order, for packing into an
    ``OperatorBatch``."""
    return [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0 * d)
            for d in algebra.dims]


def hermitian(algebra: FiniteAlgebra, rng: np.random.Generator) -> Operator:
    return Operator._wrap(algebra, hermitian_blocks(algebra, rng))


def hermitian_blocks(algebra: FiniteAlgebra, rng: np.random.Generator) -> list[np.ndarray]:
    return [(g + g.conj().T) * 0.5 for g in gaussian_blocks(algebra, rng)]


def hermitian_contraction(algebra: FiniteAlgebra, rng: np.random.Generator) -> Operator:
    """Hermitian h with ||h|| <= 1 (strictly below 1 generically)."""
    h = hermitian(algebra, rng)
    return h / (h.norm_inf() + 1e-3)


def psd(algebra: FiniteAlgebra, rng: np.random.Generator, delta: float = 0.0) -> Operator:
    """a = g* g + delta * 1; delta in {0, 1e-3} covers singular and
    well-conditioned regimes."""
    return Operator._wrap(algebra, psd_blocks(algebra, rng, delta))


def psd_blocks(algebra: FiniteAlgebra, rng: np.random.Generator,
               delta: float = 0.0) -> list[np.ndarray]:
    blocks = [g.conj().T @ g for g in gaussian_blocks(algebra, rng)]
    if delta:
        blocks = [a + delta * np.eye(len(a), dtype=complex) for a in blocks]
    return blocks


def unitary_draws(algebra: FiniteAlgebra, rng: np.random.Generator) -> list[np.ndarray]:
    """The complex Gaussian block per block of ``algebra`` that ``unitary``
    turns into a unitary; all of ``unitary``'s draws."""
    return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in algebra.dims]


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
    qs = stacked_by_dimension([blocks for _, blocks in draws], _phase_fixed_qr)
    return [Operator(alg, blocks) for (alg, _), blocks in zip(draws, qs)]


def unitary(algebra: FiniteAlgebra, rng: np.random.Generator) -> Operator:
    """Haar-ish unitary per block via phase-fixed QR: every block's
    Gaussian is drawn first, then the blocks of each dimension share one
    stacked QR."""
    return unitaries([(algebra, unitary_draws(algebra, rng))])[0]


def rank_one_psd(algebra: FiniteAlgebra, rng: np.random.Generator) -> Operator:
    """vv* for a random vector v spread over all blocks."""
    return Operator._wrap(algebra, rank_one_psd_blocks(algebra, rng))


def rank_one_psd_blocks(algebra: FiniteAlgebra, rng: np.random.Generator) -> list[np.ndarray]:
    blocks = []
    for d in algebra.dims:
        v = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2.0 * d)
        blocks.append(np.outer(v, v.conj()))
    return blocks


def _disjoint_draws(algebra: FiniteAlgebra, rng: np.random.Generator):
    """All draws of one disjoint pair: the blocks of the hermitian ``h``
    and, per block, the diagonals of the two complementary bands (they
    depend on the block dimension only, not on ``h``'s spectrum)."""
    h = hermitian_blocks(algebra, rng)
    bands = []
    for d in algebra.dims:
        split = int(rng.integers(0, d + 1))
        dx = np.zeros(d, dtype=complex)
        dy = np.zeros(d, dtype=complex)
        dx[:split] = rng.uniform(0.2, 1.5, size=split)
        dy[split:] = rng.uniform(0.2, 1.5, size=d - split)
        bands.append((np.diag(dx), np.diag(dy)))
    return h, bands


def disjoint_psd_pair(algebra: FiniteAlgebra, rng: np.random.Generator) -> tuple[Operator, Operator]:
    """PSD pair (x, y) with xy = 0, built from complementary spectral bands
    of one random hermitian operator."""
    xs, ys = disjoint_psd_pairs(algebra, [rng])
    return xs.operator(0), ys.operator(0)


def disjoint_psd_pairs(algebra: FiniteAlgebra, rngs: Sequence[np.random.Generator]
                       ) -> tuple[OperatorBatch, OperatorBatch]:
    """The ``x`` and the ``y`` of one ``disjoint_psd_pair`` per generator:
    every pair's draws first, then one ``spectral_decompose_many``, and
    each band placed in its eigenbasis, ``u @ diag @ u*``, by one stacked
    product per block."""
    draws = [_disjoint_draws(algebra, rng) for rng in rngs]
    decs = spectral_decompose_many(OperatorBatch.of(algebra, [h for h, _ in draws]))
    n = len(draws)
    xs, ys = [], []
    for k, d in enumerate(algebra.dims):
        u = np.array([dec.bases[k] for dec in decs], dtype=complex).reshape(n, d, d)
        uh = u.conj().swapaxes(1, 2)
        for out, band in ((xs, 0), (ys, 1)):
            diag = np.array([bands[k][band] for _, bands in draws], dtype=complex)
            out.append(np.matmul(np.matmul(u, diag.reshape(n, d, d)), uh))
    return OperatorBatch.from_stacks(algebra, xs), OperatorBatch.from_stacks(algebra, ys)


def commuting_pair(algebra: FiniteAlgebra, rng: np.random.Generator) -> tuple[Operator, Operator]:
    """Two random polynomials of one hermitian operator."""
    h = hermitian(algebra, rng)
    ident = algebra.identity()
    c = rng.standard_normal(6)
    h2 = h @ h
    x = c[0] * ident + c[1] * h + c[2] * h2
    y = c[3] * ident + c[4] * h + c[5] * h2
    return x, y
