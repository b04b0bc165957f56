"""Seeded random generators for operators, algebras and test fixtures.

Every randomized checker and suite derives the generators of its trials
through ``rng_streams(seed, label, trials)``: trial ``t`` gets numpy's
PCG64 seeded by ``SeedSequence(seed, spawn_key=(h(label), t))``, ``h`` the
first 8 bytes of the label's SHA-256, so trials are independent of
execution order.  ``rng_streams`` runs numpy's seed-sequence mixing of
the seed and the label once per pair (cached), mixes the words of all the
trials of a range in one uint32 array pass, and hands each PCG64 its state
through the ``ISeedSequence`` interface: bit for bit the streams of one
``SeedSequence`` per trial, at a fraction of the cost.
``rng_for(seed, label, trial)`` is its one-element case.

A ``Sampler`` draws an operator's normals in one ``standard_normal`` call
(per block, the real and then the imaginary parts of ``d x d`` entries, or
of ``d`` for a rank-one operator), and assembles normals of any leading
shape by elementwise operations and stacked ``np.matmul`` (the unitaries'
by one stacked QR).  One ``assemble`` body serves three layouts: one
operator (``draw``), the rows of a float array on one algebra (``batch``)
and operators on any algebras, each from its own normals (``many``: the
blocks of every operator in one call per block dimension).  Each is bit
for bit its operators drawn alone.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import (BlockStacks, FiniteAlgebra, Operator, OperatorBatch, eigenpairs_many,
                      norm_inf_many)
from .errors import InternalError


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, the hash constants of its entropy mixing (A) and of its
# state generation (B), and the multipliers of ``mix``
_MASK32 = 0xFFFF_FFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n) -> list[int]:
    """The uint32 words numpy makes of a non-negative integer, low first."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value: int, h: int, mult: int = _MULT_A) -> tuple[int, int]:
    """numpy's ``hashmix``: ``value`` mixed with hash constant ``h``, and
    the next constant (``generate_state`` hashes so too, by ``_MULT_B``)."""
    value ^= h
    h = h * mult & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    """numpy's ``mix`` of pool word ``x`` with hashed word ``y``."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _constants(h: int, mult: int, n: int) -> np.ndarray:
    """``h, h * mult, ..., h * mult^n`` (mod 2^32), a uint32 column."""
    out = [h]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# generate_state(4, np.uint64) hashes eight words, cycling through the pool
_STATE_CONSTANTS = _constants(_INIT_B, _MULT_B, 2 * _POOL)
_STATE_HASHES = [int(c) for c in _STATE_CONSTANTS[:-1, 0]]
_STATE_CYCLE = np.arange(2 * _POOL) % _POOL
_MIX_L32, _MIX_R32, _SHIFT = np.uint32(_MIX_L), np.uint32(_MIX_R), np.uint32(16)
# the array pass costs about two trials in Python ints to start, then a
# quarter of one per trial: it is the cheaper from 3 trials on
_MIN_ARRAY_TRIALS = 3


@functools.lru_cache(maxsize=256)
def _run_pool(seed: int, label: str) -> tuple[tuple[int, ...], int]:
    """The pool and the hash constant after numpy mixes the entropy
    ``seed`` and the first spawn-key word ``label`` in: the part of every
    trial's SeedSequence that the trial does not change."""
    run = _words(seed)
    run += [0] * (_POOL - len(run))  # numpy pads a spawned run entropy
    h = _INIT_A
    pool = []
    for word in run[:_POOL]:
        hashed, h = _hashmix(word, h)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], hashed)
    label_entropy = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    h = _absorb(pool, h, run[_POOL:] + _words(label_entropy))
    return tuple(pool), h


def _absorb(pool: list[int], h: int, words: list[int]) -> int:
    """Mix entropy words past the first four into ``pool``, as numpy does:
    each word is hashed once per pool word and mixed into it.  Returns the
    next hash constant."""
    for word in words:
        for dst in range(_POOL):
            hashed, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], hashed)
    return h


def _state(pool0: tuple[int, ...], h: int, words: list[int]) -> np.ndarray:
    """One trial's PCG64 state, in Python ints: ``words`` finish the pool,
    and numpy's ``generate_state(4, np.uint64)`` hashes eight words cycling
    through it, read as four little-endian uint64."""
    pool = list(pool0)
    _absorb(pool, h, words)
    halves = [_hashmix(pool[i % _POOL], c, _MULT_B)[0] for i, c in enumerate(_STATE_HASHES)]
    return np.array([lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])], dtype=np.uint64)


@functools.cache
def _pcg64_seed() -> type:
    """The seed sequence that hands ``PCG64`` a precomputed
    ``generate_state(4, np.uint64)``; any other request raises, so a numpy
    that seeds differently fails loudly.  Defined on first use: importing
    ``numpy.random`` would make importing the library some 7 ms slower."""
    from numpy.random.bit_generator import ISeedSequence

    class PCG64Seed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise InternalError(f"PCG64 asked for {n_words} words of {np.dtype(dtype)}")
            return self.state

    return PCG64Seed


def rng_streams(seed: int, label: str, trials: Iterable[int]) -> list[np.random.Generator]:
    """``[rng_for(seed, label, t) for t in trials]``, bit for bit.

    Each trial's words finish the cached pool of ``(seed, label)`` (numpy's
    ``mix_entropy``), which then yields the trial's PCG64 state (numpy's
    ``generate_state``).  A few trials take that in Python ints (``_state``),
    more in one uint32 array pass (uint32 wraps as the C code does) over all
    trials of one word count."""
    pool0, h = _run_pool(int(seed), label)
    words = [_words(t) for t in trials]
    if len(words) < _MIN_ARRAY_TRIALS:
        return [_generator(_state(pool0, h, w)) for w in words]
    streams: list = [None] * len(words)
    for n_words in set(map(len, words)):
        rows = [i for i, w in enumerate(words) if len(w) == n_words]
        columns = np.array([words[i] for i in rows], dtype=np.uint32).T
        # each word is hashed once per pool word, each time with the next
        # constant h (xor) and the one after it (multiplier)
        consts = _constants(h, _MULT_A, _POOL * n_words)
        xors, mults = (c.reshape(n_words, _POOL, 1) for c in (consts[:-1], consts[1:]))
        pool = np.array(pool0, dtype=np.uint32)[:, None]
        for word, xor, mult in zip(columns, xors, mults):
            hashed = (word ^ xor) * mult
            hashed ^= hashed >> _SHIFT
            pool = _MIX_L32 * pool - _MIX_R32 * hashed
            pool ^= pool >> _SHIFT
        state = pool[_STATE_CYCLE] ^ _STATE_CONSTANTS[:-1]
        state *= _STATE_CONSTANTS[1:]
        state ^= state >> _SHIFT
        # the eight words of a trial, read as four little-endian uint64
        state = np.ascontiguousarray(state.T, dtype="<u4").view("<u8")
        for i, row in zip(rows, state):
            streams[i] = _generator(row)
    return streams


def _generator(state: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_pcg64_seed()(state)))


def rng_for(seed: int, label: str, trial: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, label, trial): the one-element
    ``rng_streams``."""
    return rng_streams(seed, label, (trial,))[0]


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


def _phase_fixed_qr(stack: np.ndarray) -> np.ndarray:
    """The Q factors of a ``(..., d, d)`` stack, one QR call, with each
    column rotated so that ``R``'s diagonal is real positive.  Each matrix
    is bit for bit the result for it alone."""
    q, r = np.linalg.qr(stack)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases[phases == 0] = 1.0
    return q * (phases / np.abs(phases))[..., None, :]


def _unitary_blocks(algebra: FiniteAlgebra, normals: np.ndarray):
    return [_phase_fixed_qr(re + 1j * im) for _, re, im in _parts(algebra, normals)]


@functools.cache
def _block_algebra(d: int) -> FiniteAlgebra:
    """The one-block algebra on which ``Sampler.many`` assembles the blocks
    of dimension ``d``: an assembly reads the dimensions only."""
    return FiniteAlgebra.full(d)


@dataclasses.dataclass(frozen=True)
class Sampler:
    """A distribution of operators: ``assemble`` maps normals of any
    leading shape to block stacks of that shape; with ``vectors`` a block
    takes ``2 d`` normals, not ``2 d^2``."""

    assemble: Callable[[FiniteAlgebra, np.ndarray], list[np.ndarray]]
    vectors: bool = False

    def size(self, algebra: FiniteAlgebra) -> int:
        return 2 * (sum(algebra.dims) if self.vectors else algebra.vector_dim)

    def normals(self, algebra: FiniteAlgebra, rng: np.random.Generator) -> np.ndarray:
        """The normals of one operator, drawn in one call."""
        return rng.standard_normal(self.size(algebra))

    def draw(self, algebra: FiniteAlgebra, rng: np.random.Generator) -> Operator:
        return Operator._wrap(algebra, self.assemble(algebra, self.normals(algebra, rng)))

    def batch(self, algebra: FiniteAlgebra, normals: np.ndarray) -> OperatorBatch:
        """The operators of the rows of a ``(n, size)`` array of normals."""
        return OperatorBatch.from_stacks(algebra, self.assemble(algebra, normals))

    def many(self, algebras: Sequence[FiniteAlgebra],
             normals: Sequence[np.ndarray]) -> list[Operator]:
        """Operator ``i`` built from ``normals[i]`` (its ``normals``) on
        ``algebras[i]``: the blocks of every operator are gathered by
        dimension, in list order, and assembled in one call per dimension.
        The blocks are rows of those stacks."""
        parts: dict[int, list[np.ndarray]] = {}
        for alg, row in zip(algebras, normals):
            end = 0
            for d in alg.dims:
                m = 2 * d if self.vectors else 2 * d * d
                parts.setdefault(d, []).append(row[end:end + m])
                end += m
        rows = {d: iter(self.assemble(_block_algebra(d), np.array(group))[0])
                for d, group in parts.items()}
        return [Operator._wrap(alg, [next(rows[d]) for d in alg.dims]) for alg in algebras]


GAUSSIAN = Sampler(_gaussian_blocks)  # g, entries ~ N(0, 1/d) per block
HERMITIAN = Sampler(_hermitian_blocks)  # (g + g*) / 2
PSD = Sampler(_psd_blocks)  # g* g
INVERTIBLE_PSD = Sampler(functools.partial(_psd_blocks, delta=1e-3))  # g* g + 1e-3 1
RANK_ONE_PSD = Sampler(_rank_one_psd_blocks, vectors=True)  # vv*, v spread over all blocks
UNITARY = Sampler(_unitary_blocks)  # Haar-ish: phase-fixed QR of (re + i im) per block


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
# unitary(algebra, rng); unitaries(algebras, normals) of many unitaries,
# which may be on different algebras: one stacked QR per block dimension
unitary, unitaries = UNITARY.draw, UNITARY.many


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
    return Operator._wrap(algebra, _psd_blocks(algebra, PSD.normals(algebra, rng), delta))


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
        normals.append(HERMITIAN.normals(alg, rng))
        pair = []
        for d in alg.dims:
            split = int(rng.integers(0, d + 1))
            # the two bands' consecutive doubles
            pair.append((split, rng.uniform(0.2, 1.5, size=d)))
        bands.append(pair)
    stacks = BlockStacks.of(
        HERMITIAN.batch(algebras, np.reshape(normals, (-1, HERMITIAN.size(algebras)))) if one
        else HERMITIAN.many(per_pair, normals))
    xs, ys = [], []
    for where, (_, u) in zip(stacks.where, eigenpairs_many(stacks)):
        m, d = u.shape[:2]
        band = np.zeros((2, m, d), dtype=complex)
        for r, (i, k) in enumerate(where):
            split, both = bands[i][k]
            band[0, r, :split] = both[:split]
            band[1, r, split:] = both[split:]
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
