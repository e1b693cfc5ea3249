"""Tensor products and the destructibility of complex symmetry.

A is indestructible (A (x) B stays complex symmetric for every B) exactly when
A^2 = 0.  The forward direction is constructive: A (x) B is then itself
nilpotent of order two and gets an explicit conjugation.  The reverse
direction is certified by a fixed 3x3 witness B(alpha, beta) and the word
w = y x^2, whose evaluations at (B, B*) and (B*, B) have different norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError
from .certify import conjugation_for_nilpotent2
from .linalg import Conjugation, as_matrix, conjugate_by, operator_norm, tensor
from .words import eval_word

DESTRUCTOR_WORD = "yxx"
NILPOTENT2_CUT = 1e-10


@dataclass
class DestructorCertificate:
    """Outcome of pairing A against the witness B(alpha, beta) with w = yx^2."""

    witness_B: np.ndarray
    alpha: float
    beta: float
    word: str
    norm_wA: float
    norm_wB: float
    norm_wB_rev: float
    conclusion: str  # "destroyed" | "indestructible_sampled"


def is_nilpotent2(A, tol: float = NILPOTENT2_CUT) -> bool:
    """Scale-invariant test ||A^2|| <= tol * ||A||^2 (zero matrix passes)."""
    M = as_matrix(A, square=True)
    nrm = operator_norm(M)
    if nrm == 0.0:
        return True
    return operator_norm(M @ M) <= tol * nrm**2


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
    A, alpha: float = 1.0, beta: float = 2.0, tol: float = NILPOTENT2_CUT
) -> DestructorCertificate:
    """Norm-identity violation certificate for A (x) B(alpha, beta).

    With w = yx^2: ||w(B,B*)|| = alpha^2 beta and ||w(B*,B)|| = alpha beta^2
    differ, while word norms factor over tensor products, so whenever
    ||w(A,A*)|| > 0 (which holds iff A^2 != 0) the product A (x) B violates
    the norm identity every complex symmetric operator satisfies.  When
    A^2 = 0 the conclusion is indestructible_sampled: the pairing is harmless
    and the constructive route applies instead.
    """
    M = as_matrix(A, square=True)
    B = witness_matrix(alpha, beta)
    norm_wA = operator_norm(eval_word(DESTRUCTOR_WORD, M, M.conj().T))
    norm_wB = operator_norm(eval_word(DESTRUCTOR_WORD, B, B.conj().T))
    norm_wB_rev = operator_norm(eval_word(DESTRUCTOR_WORD, B.conj().T, B))
    conclusion = "indestructible_sampled" if is_nilpotent2(M, tol) else "destroyed"
    return DestructorCertificate(
        witness_B=B,
        alpha=float(alpha),
        beta=float(beta),
        word=DESTRUCTOR_WORD,
        norm_wA=norm_wA,
        norm_wB=norm_wB,
        norm_wB_rev=norm_wB_rev,
        conclusion=conclusion,
    )


def nilpotent2_tensor_conjugation(A, B, tol: float = 1e-9) -> Conjugation:
    """Explicit conjugation for A (x) B when A^2 = 0.

    (A (x) B)^2 = A^2 (x) B^2 = 0, so the order-two construction applies to
    the product directly.
    """
    M = as_matrix(A, square=True)
    if not is_nilpotent2(M):
        raise PreconditionError("A^2 != 0: tensor product need not be complex symmetric")
    T = tensor(M, as_matrix(B, square=True))
    C, _, _ = conjugation_for_nilpotent2(T, tol)
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
