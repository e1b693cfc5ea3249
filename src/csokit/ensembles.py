"""Seeded random ensembles used by the property suites.

All randomness flows from one 64-bit seed through SeedSequence spawn keys, so
suites can draw independent streams without coordinating, and the same seed
always reproduces the same matrices.  The Haar-rotated families split into a
draw, which takes every random number, and a build, which takes none: a
suite draws all its cases first, in the order the one-case generators would,
and builds them per dimension with one stacked QR.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .linalg import Conjugation
from .modelspace import BlaschkeProduct, Symbol


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (seed, path) address."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_unitaries(Z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (k, n, n) stack of Gaussian draws, by one stacked QR.

    Each Q is fixed by making R's diagonal positive.  The stacked QR runs the
    same LAPACK routines on each matrix, so each unitary equals the one its
    own draw gives alone bit for bit.
    """
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary via QR with the diagonal phase fixed.  The k = 1 call of ``_haar_unitaries``."""
    return _haar_unitaries(random_complex(rng, n, n)[None])[0]


def _rotated(draws) -> list[tuple[np.ndarray, np.ndarray]]:
    """(Q M Q*, Q) for each draw (M, Z) in order, Q the Haar unitary of the Gaussian Z.

    The draws are built per dimension, each dimension by one stacked QR and
    one stacked pair of products, so each pair equals its own k = 1 build
    bit for bit.
    """
    out: list = [None] * len(draws)
    groups: dict[int, list[int]] = {}
    for j, (M, _) in enumerate(draws):
        groups.setdefault(len(M), []).append(j)
    for members in groups.values():
        M = np.array([draws[j][0] for j in members])
        Q = _haar_unitaries(np.array([draws[j][1] for j in members]))
        for j, T, U in zip(members, Q @ M @ Q.conj().swapaxes(-1, -2), Q):
            out[j] = (T, U)
    return out


def _nilpotent2_draw(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``random_nilpotent2`` in its order: (hidden [[0,0],[R,0]] (+) 0, Gaussian Z)."""
    if rank is None:
        rank = int(rng.integers(1, dim // 2 + 1)) if dim >= 2 else 0
    if 2 * rank > dim:
        raise InputError(f"rank {rank} too large for dimension {dim}")
    T = np.zeros((dim, dim), dtype=complex)
    T[rank : 2 * rank, :rank] = random_complex(rng, rank, rank)
    return T, random_complex(rng, dim, dim)


def random_nilpotent2(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random T with T^2 = 0: a hidden [[0,0],[R,0]] (+) 0 under a Haar basis.

    The k = 1 build of ``_nilpotent2_draw``; ``_rotated`` builds many.
    """
    return _rotated([_nilpotent2_draw(rng, dim, rank)])[0][0]


def _cso_draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``random_cso``, in its order: (symmetric S, Gaussian Z)."""
    Z = random_complex(rng, n, n)
    return 0.5 * (Z + Z.T), random_complex(rng, n, n)


def random_cso(rng: np.random.Generator, n: int) -> tuple[np.ndarray, Conjugation]:
    """(T, C) with T = C T* C by construction: T = Q S Q*, S symmetric, G = Q Q^t.

    The k = 1 build of ``_cso_draw``; ``_rotated`` builds many.
    """
    T, Q = _rotated([_cso_draw(rng, n)])[0]
    return T, Conjugation(Q @ Q.T)


def random_blaschke(
    rng: np.random.Generator, degree: int, max_modulus: float = 0.8
) -> BlaschkeProduct:
    radii = max_modulus * np.sqrt(rng.random(degree))
    angles = 2 * np.pi * rng.random(degree)
    return BlaschkeProduct(radii * np.exp(1j * angles))


def random_poly_symbol(rng: np.random.Generator, degree: int) -> Symbol:
    coeffs = random_complex(rng, degree + 1)
    return Symbol(poly=coeffs)
