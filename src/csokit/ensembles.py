"""Seeded random ensembles used by the property suites.

All randomness flows from one 64-bit seed through SeedSequence spawn keys, so
suites can draw independent streams without coordinating, and the same seed
always reproduces the same matrices.
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


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary via QR with the diagonal phase fixed."""
    Q, R = np.linalg.qr(random_complex(rng, n, n))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_nilpotent2(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random T with T^2 = 0: a hidden [[0,0],[R,0]] (+) 0 under a Haar basis."""
    if rank is None:
        rank = int(rng.integers(1, dim // 2 + 1)) if dim >= 2 else 0
    if 2 * rank > dim:
        raise InputError(f"rank {rank} too large for dimension {dim}")
    T = np.zeros((dim, dim), dtype=complex)
    T[rank : 2 * rank, :rank] = random_complex(rng, rank, rank)
    U = random_unitary(rng, dim)
    return U @ T @ U.conj().T


def random_cso(rng: np.random.Generator, n: int) -> tuple[np.ndarray, Conjugation]:
    """(T, C) with T = C T* C by construction: T = Q S Q*, S symmetric, G = Q Q^t."""
    Z = random_complex(rng, n, n)
    S = 0.5 * (Z + Z.T)
    Q = random_unitary(rng, n)
    return Q @ S @ Q.conj().T, Conjugation(Q @ Q.T)


def random_blaschke(
    rng: np.random.Generator, degree: int, max_modulus: float = 0.8
) -> BlaschkeProduct:
    radii = max_modulus * np.sqrt(rng.random(degree))
    angles = 2 * np.pi * rng.random(degree)
    return BlaschkeProduct(radii * np.exp(1j * angles))


def random_poly_symbol(rng: np.random.Generator, degree: int) -> Symbol:
    coeffs = random_complex(rng, degree + 1)
    return Symbol(poly=coeffs)
