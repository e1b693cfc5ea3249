"""Tensor products and the destructibility of complex symmetry.

A is indestructible (A (x) B stays complex symmetric for every B) exactly when
A^2 = 0.  The forward direction is constructive: A (x) B is then itself
nilpotent of order two and gets an explicit conjugation.  The reverse
direction is certified by a fixed 3x3 witness B(alpha, beta) and the word
w = y x^2, whose evaluations at (B, B*) and (B*, B) have different norms,
provided beta / alpha avoids the one ratio at which the norms on A (x) B
cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, InputError, PreconditionError
from .certify import (
    _verified_residual,
    conjugation_for_nilpotent2,
    is_c_symmetric,
    nilpotent2_splitting,
)
from .linalg import (
    DEFAULT_TOL,
    Conjugation,
    as_matrix,
    conjugate_by,
    operator_norm,
    power_of_two_scaled,
    tensor,
    times_power_of_two,
)
from .words import eval_word

DESTRUCTOR_WORD = "yxx"


@dataclass
class DestructorCertificate:
    """Outcome of pairing A against the witness B(alpha, beta) with w = yx^2."""

    witness_B: np.ndarray
    alpha: float
    beta: float
    word: str
    norm_wA: float
    norm_wA_rev: float
    norm_wB: float
    norm_wB_rev: float
    conclusion: str  # "destroyed" | "indestructible_sampled"


def witness_matrix(alpha: float, beta: float) -> np.ndarray:
    """The 3x3 destructor B with superdiagonal (alpha, beta)."""
    if alpha <= 0 or beta <= 0:
        raise InputError("witness parameters must be positive")
    if alpha == beta:
        raise InputError("witness degenerates when alpha = beta")
    B = np.zeros((3, 3), dtype=complex)
    B[0, 1] = alpha
    B[1, 2] = beta
    return B


def destructor_witness(
    A, alpha: float = 1.0, beta: float = 2.0, tol: float = DEFAULT_TOL
) -> DestructorCertificate:
    """Norm-identity violation certificate for A (x) B(alpha, beta).

    With w = yx^2: ||w(B,B*)|| = alpha^2 beta and ||w(B*,B)|| = alpha beta^2,
    and word norms factor over tensor products, so the gap of A (x) B is
    alpha beta |alpha ||A*A^2|| - beta ||A^2 A*|||.  A of order two
    (``nilpotent2_splitting``) gives indestructible_sampled, since the
    constructive route applies.  Otherwise the conclusion is destroyed when
    the gap exceeds tol * ||A (x) B||^3, the threshold of
    ``word_obstruction_search``.  The norms of A are taken on A scaled by a
    power of two to norm about 1, which is exact, and the gap is decided in
    those units.  A word norm of A that overflows in A's units raises
    PreconditionError (||A|| above about 5e102), and so does a gap too small
    to decide, naming the cause: word norms of A that underflow (||A|| below
    about 1e-108), both yxx norms of A (x) B at or below the threshold (so
    when A failed on its rank alone, as ||A^2|| <= tol ||A||^2 bounds them),
    or a ratio beta / alpha = ||A*A^2|| / ||A^2 A*|| at which they cancel.
    """
    M = as_matrix(A, square=True)
    U, e = power_of_two_scaled(M)
    unit_nrm = operator_norm(U)
    B = witness_matrix(alpha, beta)
    unit_norms = (
        operator_norm(eval_word(DESTRUCTOR_WORD, U, U.conj().T)),
        operator_norm(eval_word(DESTRUCTOR_WORD, U.conj().T, U)),
    )
    cert = DestructorCertificate(
        witness_B=B,
        alpha=float(alpha),
        beta=float(beta),
        word=DESTRUCTOR_WORD,
        norm_wA=times_power_of_two(unit_norms[0], 3 * e),
        norm_wA_rev=times_power_of_two(unit_norms[1], 3 * e),
        norm_wB=operator_norm(eval_word(DESTRUCTOR_WORD, B, B.conj().T)),
        norm_wB_rev=operator_norm(eval_word(DESTRUCTOR_WORD, B.conj().T, B)),
        conclusion="indestructible_sampled",
    )
    scale = f"||A|| = {times_power_of_two(unit_nrm, e):.3e}"
    if max(cert.norm_wA, cert.norm_wA_rev) == np.inf:
        raise PreconditionError(
            f"{scale} is too large for the {DESTRUCTOR_WORD} word norms of A: "
            f"||A*A^2|| and ||A^2 A*|| overflow; rescale A"
        )
    try:
        nilpotent2_splitting(M, tol)
    except PreconditionError as exc:
        not_order_two = exc
    else:
        return cert
    # A^2 != 0 makes both norms positive, so a zero is an underflow
    if min(cert.norm_wA, cert.norm_wA_rev) == 0:
        raise PreconditionError(
            f"{scale} is too small for the {DESTRUCTOR_WORD} word "
            f"norms of A: ||A*A^2|| = {cert.norm_wA:.3g} and ||A^2 A*|| = "
            f"{cert.norm_wA_rev:.3g} underflow; rescale A"
        )
    # decided in units of 2^(3e), where nothing over- or underflows
    norms = (unit_norms[0] * cert.norm_wB, unit_norms[1] * cert.norm_wB_rev)
    gap = abs(norms[0] - norms[1])
    threshold = tol * (unit_nrm * max(alpha, beta)) ** 3
    shown = [times_power_of_two(x, 3 * e) for x in (*norms, gap, threshold)]
    if max(norms) <= threshold:
        raise PreconditionError(
            f"A is {not_order_two}, but the {DESTRUCTOR_WORD} norms of A (x) B, "
            f"{shown[0]:.3e} and {shown[1]:.3e}, are not above {shown[3]:.3e}, so no "
            f"ratio beta/alpha gives a gap"
        )
    if gap <= threshold:
        raise PreconditionError(
            f"beta/alpha = {beta / alpha:.6g} cancels ||A*A^2|| / ||A^2 A*|| = "
            f"{cert.norm_wA:.6g} / {cert.norm_wA_rev:.6g}: the {DESTRUCTOR_WORD} gap of "
            f"A (x) B is {shown[2]:.3e}, not above {shown[3]:.3e}; choose another ratio"
        )
    cert.conclusion = "destroyed"
    return cert


def nilpotent2_tensor_conjugation(A, B, tol: float = DEFAULT_TOL) -> Conjugation:
    """Verified conjugation for A (x) B when A^2 = 0.

    (A (x) B)^2 = A^2 (x) B^2 = 0, so the order-two construction applies to
    the product directly.  A G that misses tol (A nilpotent only at tol)
    raises AccuracyError.
    """
    nilpotent2_splitting(A, tol)
    T = tensor(A, B)
    C = conjugation_for_nilpotent2(nilpotent2_splitting(T, tol))
    if _verified_residual(T, C, tol) is None:
        raise AccuracyError(
            f"the conjugation of A (x) B misses tol {tol:.1e}: c-symmetry residual "
            f"{is_c_symmetric(T, C)[1]:.3e}"
        )
    return C


def factor_swap(n: int) -> np.ndarray:
    """Permutation on C^n (x) C^n exchanging the tensor factors."""
    S = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            S[j * n + i, i * n + j] = 1.0
    return S


def swap_conjugation(J: Conjugation, n: int) -> Conjugation:
    """Conjugation x (x) y -> J y (x) J x on C^n (x) C^n.

    G = Swap (G_J (x) G_J); symmetric because the swap commutes with
    G (x) G.  For any A the operator A (x) (J A* J) is symmetric under it.
    """
    if J.dim != n:
        raise InputError(f"conjugation acts on dimension {J.dim}, expected {n}")
    G = factor_swap(n) @ tensor(J.matrix, J.matrix)
    return Conjugation(0.5 * (G + G.T))


def shift_coshift_product(J: Conjugation, A) -> np.ndarray:
    """The matrix A (x) (J A* J)."""
    M = as_matrix(A, square=True)
    return tensor(M, conjugate_by(J, M.conj().T))


def _bidegree_monomials(N: int) -> list[tuple[int, int]]:
    return [(k, d - k) for d in range(N) for k in range(d + 1)]


def shift_coshift_truncation(N: int) -> np.ndarray:
    """Matrix of T(z^k w^m) = z^{k+1} w^{m-1} (0 when m = 0) on total degree < N."""
    if N < 1:
        raise InputError("degree cutoff must be >= 1")
    monomials = _bidegree_monomials(N)
    index = {km: i for i, km in enumerate(monomials)}
    T = np.zeros((len(monomials), len(monomials)), dtype=complex)
    for (k, m), i in index.items():
        if m >= 1:
            T[index[(k + 1, m - 1)], i] = 1.0
    return T


def shift_tensor_coshift_blocks(N: int) -> list[tuple[int, np.ndarray]]:
    """Homogeneous blocks of the truncated shift-times-coshift operator.

    Each homogeneous degree-d slice (dimension d+1) is invariant under T and
    T*, and the restriction is a single nilpotent Jordan chain of full
    length.  Returns [(d+1, restriction)] for d = 0..N-1, verifying
    invariance on the way.
    """
    T = shift_coshift_truncation(N)
    monomials = _bidegree_monomials(N)
    index = {km: i for i, km in enumerate(monomials)}
    dim = len(monomials)

    blocks: list[tuple[int, np.ndarray]] = []
    for d in range(N):
        idx = [index[(k, d - k)] for k in range(d + 1)]
        comp = [i for i in range(dim) if i not in idx]
        for op in (T, T.conj().T):
            if comp and operator_norm(op[np.ix_(comp, idx)]) > 1e-12:
                raise AssertionError("homogeneous slice not invariant")
        blocks.append((d + 1, T[np.ix_(idx, idx)]))
    return blocks
