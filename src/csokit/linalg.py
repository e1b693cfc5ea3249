"""Dense complex linear algebra substrate.

Matrices are plain ``numpy`` arrays of ``complex128``; every public helper
validates shape and finiteness on entry.  Conjugations (conjugate-linear
isometric involutions) are stored through their symmetric unitary matrix G,
acting as ``x -> G @ conj(x)``.

Tolerances are relative to the norm of the input with default factor 1e-9;
all operations accept an explicit override.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError, InputError

DEFAULT_TOL = 1e-9

#: Hard cap on any dimension produced by :func:`tensor`.
TENSOR_DIM_CAP = 4096


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


def operator_norm(M) -> float:
    """Largest singular value (computed by full SVD; sizes here are small)."""
    A = as_matrix(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


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
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    return scipy.linalg.block_diag(*mats).astype(complex)


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
    symmetric: bool = False,
    initial: tuple[np.ndarray, ...] = (),
    starts: int = 32,
    iters: int = 500,
    rng: np.random.Generator | None = None,
    xtol: float = 1e-12,
):
    """Search a linear matrix subspace for a (symmetric) unitary element.

    ``basis`` holds an orthonormal column basis of the subspace in
    column-major vectorization.  Alternates projection onto the subspace
    with projection onto the unitary group (polar factor), optionally
    symmetrizing each round.  Yields converged candidates in deterministic
    order: the supplied initial matrices first, then seeded random starts.

    This is a heuristic; callers must verify every candidate independently.
    """
    if basis.size == 0:
        return
    if rng is None:
        rng = np.random.default_rng(0)

    def project(X):
        v = X.reshape(-1, order="F")
        return (basis @ (basis.conj().T @ v)).reshape((n, n), order="F")

    def polar_unitary(X):
        U, _, Vh = np.linalg.svd(X)
        return U @ Vh

    k = basis.shape[1]
    start_mats = [project(X0) for X0 in initial]
    while len(start_mats) < starts + len(initial):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        start_mats.append((basis @ coeff).reshape((n, n), order="F"))

    for X in start_mats:
        prev = None
        for _ in range(iters):
            if symmetric:
                X = 0.5 * (X + X.T)
            nrm = np.linalg.norm(X)
            if nrm < 1e-14:
                break
            X = polar_unitary(X)
            X = project(X)
            if prev is not None and np.linalg.norm(X - prev) < xtol:
                break
            prev = X
        if symmetric:
            X = 0.5 * (X + X.T)
        nrm = np.linalg.norm(X)
        if nrm < 1e-14:
            continue
        W = polar_unitary(X)
        if symmetric:
            W = 0.5 * (W + W.T)
        yield W
