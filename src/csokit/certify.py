"""Complex-symmetry certification.

An operator T is complex symmetric when T = C T* C for some conjugation C;
equivalently T G = G T^t for a symmetric unitary G.  For nilpotents of order
two an explicit G is constructed from the singular value decomposition; for
general matrices a best-effort search runs over the intertwiner space
{X : T X = X T^t}, falling back to a word-norm obstruction search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PreconditionError
from .linalg import (
    DEFAULT_TOL,
    Conjugation,
    as_matrix,
    column_phases,
    conjugate_by,
    operator_norm,
    unitary_in_subspace,
)
from .words import eval_poly, eval_word, conjugate_coefficients, iter_words, random_word

RANK_CUT = 1e-10


@dataclass
class Nilpotent2Form:
    """Canonical data for T with T^2 = 0: W T W* = [[0,0],[A,0]] (+) 0.

    ``W`` maps original coordinates to the canonical ones, ``singular_values``
    are the diagonal of the positive block A in descending order, and
    ``extra_kernel_dim`` counts the trailing zero summand.
    """

    W: np.ndarray
    singular_values: np.ndarray
    extra_kernel_dim: int

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    def canonical_matrix(self) -> np.ndarray:
        r, e = self.rank, self.extra_kernel_dim
        n = 2 * r + e
        T = np.zeros((n, n), dtype=complex)
        T[r : 2 * r, :r] = np.diag(self.singular_values)
        return T


@dataclass
class CsoCertificate:
    """Verdict of a complex-symmetry decision, with reproduction data."""

    verdict: str  # "c_symmetric" | "obstructed" | "inconclusive"
    residual: float
    conjugation: Conjugation | None = None
    obstruction_word: str | None = None
    obstruction_gap: float | None = None
    seed: int | None = None


def nilpotency_order(T, tol: float = DEFAULT_TOL) -> int | None:
    """Smallest n with ||T^n|| <= tol * ||T||^n, or None (zero matrix gives 1)."""
    A = as_matrix(T, square=True)
    n = A.shape[0]
    if n == 0:
        return 1
    nrm = operator_norm(A)
    P = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        P = P @ A
        if operator_norm(P) <= tol * nrm**k:
            return k
    return None


def is_c_symmetric(T, C: Conjugation, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Relative residual ||T - C T* C|| / max(||T||, eps) and its tol verdict."""
    A = as_matrix(T, square=True)
    reflected = conjugate_by(C, A.conj().T)
    residual = operator_norm(A - reflected) / max(operator_norm(A), np.finfo(float).eps)
    return residual <= tol, residual


def nilpotent2_splitting(T, tol: float = DEFAULT_TOL):
    """Range/kernel splitting of T with T^2 = 0 (shared by the synthesis path).

    Returns (right, left, rest, s): orthonormal bases of (ker T)-perp, ran T,
    and the leftover kernel, plus the positive singular values; T right_i =
    s_i left_i holds by construction.  Phases are canonicalized (largest entry
    of each right vector made real positive) for determinism.
    """
    A = as_matrix(T, square=True)
    n = A.shape[0]
    order = nilpotency_order(A, tol)
    if order is None or order > 2:
        raise PreconditionError(f"matrix is not nilpotent of order <= 2 (order: {order})")

    U, s, Vh = np.linalg.svd(A) if n else (np.eye(0), np.zeros(0), np.eye(0))
    r = int(np.sum(s > RANK_CUT * s[0])) if n and s[0] > 0 else 0

    V = Vh.conj().T
    # Orthonormal bases of (ker T)-perp and ran T; the phase of each right
    # vector is applied to its left partner so T right_i = s_i left_i holds.
    phases = column_phases(V[:, :r])
    right = V[:, :r] * phases
    left = U[:, :r] * phases

    # Orthonormal basis of ker T minus ran T (ran T sits inside ker T).
    kernel = V[:, r:]
    residual_kernel = kernel - left @ (left.conj().T @ kernel)
    extra = n - 2 * r
    if extra > 0:
        Ue, _, _ = np.linalg.svd(residual_kernel)
        rest = Ue[:, :extra] * column_phases(Ue[:, :extra])
    else:
        rest = np.zeros((n, 0), dtype=complex)
    return right, left, rest, s[:r].copy()


def conjugation_for_nilpotent2(
    T, tol: float = DEFAULT_TOL
) -> tuple[Conjugation, Nilpotent2Form, float]:
    """Explicit conjugation for T with T^2 = 0.

    Splits the space into (ker T)-perp, ran T, and the leftover kernel via the
    SVD, where T becomes [[0,0],[D,0]] (+) 0 with D positive diagonal.  In that
    basis entrywise conjugation commutes with D, so the block swap
    [[0,I],[I,0]] (+) I is a valid G; it is pulled back to the original
    coordinates.
    """
    A = as_matrix(T, square=True)
    n = A.shape[0]
    right, left, rest, s = nilpotent2_splitting(A, tol)
    r = len(s)
    extra = n - 2 * r

    cols = np.hstack([right, left, rest])
    swap = np.zeros((n, n), dtype=complex)
    swap[:r, r : 2 * r] = np.eye(r)
    swap[r : 2 * r, :r] = np.eye(r)
    swap[2 * r :, 2 * r :] = np.eye(extra)

    G = cols @ swap @ cols.T
    G = 0.5 * (G + G.T)
    C = Conjugation(G)
    _, residual = is_c_symmetric(A, C, tol)
    form = Nilpotent2Form(W=cols.conj().T, singular_values=s, extra_kernel_dim=extra)
    return C, form, residual


def canonical_block_decomposition(T, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """2x2 self-transpose blocks (s/2) [[1,i],[i,-1]] per singular value s of the
    positive part, plus one 1x1 zero block per leftover kernel dimension."""
    _, form, _ = conjugation_for_nilpotent2(T, tol)
    cell = np.array([[1.0, 1.0j], [1.0j, -1.0]], dtype=complex)
    blocks = [0.5 * s * cell for s in form.singular_values]
    blocks.extend(np.zeros((1, 1), dtype=complex) for _ in range(form.extra_kernel_dim))
    return blocks


def intertwiner_basis(T) -> np.ndarray:
    """Orthonormal basis (column-major vec) of {X : T X = X T^t}."""
    A = as_matrix(T, square=True)
    n = A.shape[0]
    L = np.kron(np.eye(n), A) - np.kron(A, np.eye(n))
    return scipy.linalg.null_space(L)


def find_conjugation(
    T,
    budget: int = 500,
    starts: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    word_max_len: int = 5,
) -> CsoCertificate:
    """Best-effort complex-symmetry decision.

    Order-two nilpotents take the constructive route.  Otherwise a symmetric
    unitary is sought in the intertwiner space by alternating projection with
    multiple deterministic-then-seeded starts; every candidate is re-verified
    before being reported.  If no conjugation is found, a word-norm
    obstruction search runs; "inconclusive" is a valid outcome.
    """
    A = as_matrix(T, square=True)
    n = A.shape[0]
    nrm = operator_norm(A)

    order = nilpotency_order(A, tol)
    if order is not None and order <= 2:
        C, _, residual = conjugation_for_nilpotent2(A, tol)
        return CsoCertificate("c_symmetric", residual, conjugation=C, seed=seed)

    if nrm > 0 and operator_norm(A - A.T) <= tol * nrm:
        C = Conjugation.identity(n)
        _, residual = is_c_symmetric(A, C, tol)
        return CsoCertificate("c_symmetric", residual, conjugation=C, seed=seed)

    basis = intertwiner_basis(A)
    if basis.size:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        flip = np.eye(n, dtype=complex)[::-1]
        candidates = unitary_in_subspace(
            basis,
            n,
            symmetric=True,
            initial=(np.eye(n, dtype=complex), flip),
            starts=starts,
            iters=budget,
            rng=rng,
        )
        for W in candidates:
            C = Conjugation(W)
            if C.unitarity_residual() > tol or C.symmetry_residual() > tol:
                continue
            ok, residual = is_c_symmetric(A, C, tol)
            if ok:
                return CsoCertificate("c_symmetric", residual, conjugation=C, seed=seed)

    found = word_obstruction_search(A, max_len=word_max_len, tol=tol)
    if found is not None:
        word, gap = found
        return CsoCertificate(
            "obstructed", residual=gap, obstruction_word=word, obstruction_gap=gap, seed=seed
        )
    return CsoCertificate("inconclusive", residual=float("nan"), seed=seed)


def word_norm_gap(T, word: str) -> float:
    """| ||w(T,T*)|| - ||w(T*,T)|| | for a single word."""
    A = as_matrix(T, square=True)
    return abs(
        operator_norm(eval_word(word, A, A.conj().T))
        - operator_norm(eval_word(word, A.conj().T, A))
    )


def polynomial_norm_gap(p: dict[str, complex], T) -> float:
    """| ||p(T,T*)|| - ||ptilde(T*,T)|| | with ptilde the coefficientwise conjugate."""
    A = as_matrix(T, square=True)
    a = operator_norm(eval_poly(p, A, A.conj().T))
    b = operator_norm(eval_poly(conjugate_coefficients(p), A.conj().T, A))
    return abs(a - b)


def word_obstruction_search(
    T,
    max_len: int = 5,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 256,
    tol: float = DEFAULT_TOL,
) -> tuple[str, float] | None:
    """First word w with | ||w(T,T*)|| - ||w(T*,T)|| | > tol * ||T||^len.

    Exhaustive mode enumerates words length-lexicographically with x < y;
    sampled mode draws random words from the seed.  Such a word certifies
    that T admits no conjugation; absence of one proves nothing.
    """
    A = as_matrix(T, square=True)
    nrm = operator_norm(A)
    if mode == "exhaustive":
        wordstream = iter_words(max_len)
    elif mode == "sampled":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        wordstream = (random_word(rng, max_len) for _ in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for word in wordstream:
        gap = word_norm_gap(A, word)
        if gap > tol * nrm ** len(word):
            return word, gap
    return None


def polynomial_obstruction_search(
    T,
    samples: int = 256,
    max_len: int = 5,
    max_terms: int = 4,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Sampled search for a polynomial norm-identity violation on T.

    Returns search statistics and the best candidate found.  A gap above
    threshold certifies that T is not complex symmetric; finding none says
    nothing either way, and the result never claims more.
    """
    from .words import random_polynomial

    A = as_matrix(T, square=True)
    nrm = max(operator_norm(A), np.finfo(float).eps)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    best_gap = 0.0
    best_poly: dict[str, complex] | None = None
    hits = 0
    for _ in range(samples):
        p = random_polynomial(rng, max_len, max_terms=max_terms)
        scale = sum(abs(c) * nrm ** len(w) for w, c in p.items())
        gap = polynomial_norm_gap(p, A)
        if gap > tol * scale:
            hits += 1
        if gap > best_gap:
            best_gap, best_poly = gap, p
    return {
        "samples": samples,
        "violations": hits,
        "best_gap": best_gap,
        "best_polynomial": best_poly,
        "conclusion": "norm_identity_violated" if hits else "no_violation_found_within_budget",
    }
