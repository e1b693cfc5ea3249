"""Dense complex linear algebra substrate.

Matrices are plain ``numpy`` arrays of ``complex128``; every public helper
validates shape and finiteness on entry.  Conjugations (conjugate-linear
isometric involutions) are stored through their symmetric unitary matrix G,
acting as ``x -> G @ conj(x)``.

Tolerances are relative to the norm of the input with default factor 1e-9;
all operations accept an explicit override.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError

DEFAULT_TOL = 1e-9

#: Hard cap on any dimension produced by :func:`tensor`.
TENSOR_DIM_CAP = 4096

#: unitary_in_subspace: seeded random starts after the initial ones, and the
#: step below which a start counts as converged.
SUBSPACE_STARTS = 64
SUBSPACE_XTOL = 1e-12


def as_matrix(M, square: bool = False) -> np.ndarray:
    """Validate and convert to a 2-d complex128 array."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise InputError(f"expected a matrix, got array of ndim {A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise InputError("matrix has non-finite entries")
    if square and A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    return A


def check_tol(tol) -> float:
    """The tolerance as a float; a non-positive or non-finite one is an InputError.

    A tolerance of zero or below turns every exact identity into a violation
    and a NaN one accepts nothing, so neither can give a meaningful verdict.
    """
    tol = float(tol)
    if not (np.isfinite(tol) and tol > 0):
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    return tol


def check_seed(seed) -> int:
    """The seed as an int; a negative or non-integer one is an InputError.

    numpy's SeedSequence takes only non-negative integers, and would raise a
    bare ValueError or TypeError deep inside a search instead.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InputError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return seed


def check_count(value, name: str) -> int:
    """A budget, length or sample count as an int; one below 1 is an InputError."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise InputError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def operator_norm(M) -> float:
    """Largest singular value (computed by full SVD; sizes here are small)."""
    A = as_matrix(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def operator_norms(Ms) -> np.ndarray:
    """operator_norm of each matrix in a (k, m, n) stack, from one batched SVD.

    The batched SVD runs the same LAPACK routine on each matrix, so every
    value equals operator_norm of that matrix bit for bit.
    """
    A = np.asarray(Ms, dtype=complex)
    if A.ndim != 3:
        raise InputError(f"expected a stack of matrices, got array of ndim {A.ndim}")
    if not np.all(np.isfinite(A)):
        raise InputError("matrix has non-finite entries")
    if A.size == 0:
        return np.zeros(A.shape[0])
    return np.linalg.svd(A, compute_uv=False)[:, 0]


def power_of_two_scaled(M) -> tuple[np.ndarray, int]:
    """(2^-e M, e) with 2^(e-1) <= ||M|| < 2^e, and e = 0 for M = 0.

    Scaling by a power of two is exact (barring subnormal entries), so a
    product of k factors of 2^-e M, and its norm, are 2^(-k e) times those
    of M bit for bit, yet neither overflows nor underflows however large or
    small M is.  ``times_power_of_two`` takes such a norm back to M's units.
    """
    A = as_matrix(M)
    e = math.frexp(operator_norm(A))[1]
    return np.ldexp(A.real, -e) + 1j * np.ldexp(A.imag, -e), e


def times_power_of_two(x: float, e: int) -> float:
    """x 2^e as a float: inf where that overflows, 0 where it underflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def singular_values(M) -> np.ndarray:
    """Singular values in descending order; empty for empty matrices."""
    A = as_matrix(M)
    if A.size == 0:
        return np.zeros(0)
    return np.linalg.svd(A, compute_uv=False)


def tensor(A, B, dim_cap: int = TENSOR_DIM_CAP) -> np.ndarray:
    """Kronecker product, capped so row and column counts stay <= dim_cap."""
    A = as_matrix(A)
    B = as_matrix(B)
    rows = A.shape[0] * B.shape[0]
    cols = A.shape[1] * B.shape[1]
    if max(rows, cols) > dim_cap:
        raise CapacityError(
            f"tensor product of shapes {A.shape} x {B.shape} exceeds the "
            f"dimension cap {dim_cap}"
        )
    return np.kron(A, B)


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal direct sum; accepts 1x1 blocks as scalars."""
    mats = [as_matrix(np.atleast_2d(b)) for b in blocks]
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)), dtype=complex)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def null_space(A) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of the m x n matrix A.

    From the full SVD of A: the rows of V* past the numerical rank r, where r
    counts the singular values above eps max(m, n) s_0, the same cut as
    ``scipy.linalg.null_space``.
    """
    A = as_matrix(A)
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > np.finfo(float).eps * max(A.shape) * s.max(initial=0.0)))
    return vh[rank:].conj().T


def column_phases(cols: np.ndarray) -> np.ndarray:
    """Unit factors that make each column's largest-magnitude entry real positive.

    ``cols * column_phases(cols)`` is the canonical phase choice used wherever
    a basis or frame must be deterministic; a zero column gets factor 1.
    """
    phases = np.ones(cols.shape[1], dtype=complex)
    for i in range(cols.shape[1]):
        pivot = cols[int(np.argmax(np.abs(cols[:, i]))), i]
        if abs(pivot) > 0:
            phases[i] = np.conj(pivot) / abs(pivot)
    return phases


def polar_decompose(M) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition M = V @ P with V unitary and P = |M| psd.

    The unitary factor is completed deterministically on ker|M| by pairing
    left and right singular vectors in SVD index order.
    """
    A = as_matrix(M, square=True)
    if A.size == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=complex)
    U, s, Vh = np.linalg.svd(A)
    V = U @ Vh
    P = Vh.conj().T @ (s[:, None] * Vh)
    P = 0.5 * (P + P.conj().T)
    return V, P


@dataclass(frozen=True)
class Conjugation:
    """Antiunitary involution ``x -> G @ conj(x)`` with G symmetric unitary."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, square=True))

    @classmethod
    def identity(cls, n: int) -> "Conjugation":
        return cls(np.eye(n, dtype=complex))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.conj(np.asarray(x, dtype=complex))

    def unitarity_residual(self) -> float:
        G = self.matrix
        return operator_norm(G @ G.conj().T - np.eye(self.dim))

    def symmetry_residual(self) -> float:
        G = self.matrix
        return operator_norm(G - G.T)

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        ru = self.unitarity_residual()
        rs = self.symmetry_residual()
        if ru > tol or rs > tol:
            raise InputError(
                f"matrix is not a valid conjugation: unitarity residual {ru:.3e}, "
                f"symmetry residual {rs:.3e} (tol {tol:.1e})"
            )


def conjugate_by(C: Conjugation, M) -> np.ndarray:
    """The linear map C o M o C, i.e. ``G @ conj(M) @ conj(G)``."""
    A = as_matrix(M, square=True)
    G = C.matrix
    if A.shape[0] != G.shape[0]:
        raise InputError(f"size mismatch: conjugation dim {G.shape[0]}, matrix dim {A.shape[0]}")
    return G @ A.conj() @ G.conj()


def unitary_in_subspace(
    basis: np.ndarray,
    n: int,
    *,
    initial: tuple[np.ndarray, ...] = (),
    iters: int = 500,
    rng: np.random.Generator,
):
    """Search a linear matrix subspace for a symmetric unitary element.

    ``basis`` holds an orthonormal column basis of the subspace in
    column-major vectorization.  Alternates symmetrization, projection onto
    the unitary group (polar factor) and projection onto the subspace, until
    a round moves the iterate by less than SUBSPACE_XTOL.  Yields candidates
    in deterministic order: the supplied initial matrices first, then
    SUBSPACE_STARTS seeded random starts, each drawn from ``rng`` only when
    the search reaches it (a caller that stops at an initial candidate
    draws nothing).

    This is a heuristic; callers must verify every candidate independently.
    """
    if basis.size == 0:
        return

    def project(X):
        v = X.reshape(-1, order="F")
        return (basis @ (basis.conj().T @ v)).reshape((n, n), order="F")

    def polar_unitary(X):
        U, _, Vh = np.linalg.svd(X)
        return U @ Vh

    k = basis.shape[1]

    def starts():
        yield from map(project, initial)
        for _ in range(SUBSPACE_STARTS):
            coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            yield (basis @ coeff).reshape((n, n), order="F")

    for X in starts():
        prev = None
        for _ in range(iters):
            X = 0.5 * (X + X.T)
            nrm = np.linalg.norm(X)
            if nrm < 1e-14:
                break
            X = polar_unitary(X)
            X = project(X)
            if prev is not None and np.linalg.norm(X - prev) < SUBSPACE_XTOL:
                break
            prev = X
        X = 0.5 * (X + X.T)
        nrm = np.linalg.norm(X)
        if nrm < 1e-14:
            continue
        W = polar_unitary(X)
        yield 0.5 * (W + W.T)
