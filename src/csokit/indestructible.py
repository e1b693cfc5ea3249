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

from .errors import AccuracyError, CapacityError, InputError, PreconditionError
from .certify import (
    _gap_cut,
    _nilpotent2_conjugations,
    _nilpotent2_forms,
    _order_two_decisions,
    _order_two_ruled_out,
    _verified_residuals,
)
from .linalg import (
    DEFAULT_TOL,
    TENSOR_DIM_CAP,
    Conjugation,
    _check_instance,
    _tensors,
    as_matrix,
    check_count,
    check_positive,
    conjugate_by,
    operator_norms,
    power_of_two_scaled,
    tensor,
    times_power_of_two,
)
from .words import swap_letters, word_products

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
    """The 3x3 destructor B with superdiagonal (alpha, beta).

    alpha and beta must be finite and positive, and the yx^2 norms of B,
    alpha^2 beta and alpha beta^2, finite.
    """
    alpha = check_positive(alpha, "witness parameter alpha")
    beta = check_positive(beta, "witness parameter beta")
    for name, value in (("alpha^2 beta", alpha * alpha * beta), ("alpha beta^2", alpha * beta * beta)):
        if value == np.inf:
            raise InputError(
                f"witness parameter {name} = {value!r} overflows (alpha = {alpha!r}, beta = {beta!r})"
            )
    if alpha == beta:
        raise InputError("witness degenerates when alpha = beta")
    B = np.zeros((3, 3), dtype=complex)
    B[0, 1] = alpha
    B[1, 2] = beta
    return B


def _order_two_refusal(M: np.ndarray) -> PreconditionError | None:
    """The error with which ``nilpotent2_splitting`` refuses M, or None: its decision, no frame."""
    try:
        _order_two_decisions(M[None], DEFAULT_TOL)
    except PreconditionError as exc:
        return exc
    return None


def _destructor_witnesses(As, alpha: float, beta: float) -> list[DestructorCertificate]:
    """``destructor_witness`` of each matrix A_j of a stack, against one witness B(alpha, beta).

    The A_j are square matrices of one size.  Each is scaled by its own power
    of two; the yxx and swapped words of the whole scaled stack come from one
    ``word_products`` pass (each product equals ``eval_word``'s bit for bit)
    and are normed with the scaled A_j in one batch; B's two norms are the
    products alpha alpha beta and alpha beta beta.  Then each A_j is decided
    in turn, as its own k = 1 call decides it, so each certificate equals
    that call's and a stack raises the error of its first refused matrix.
    """
    B = witness_matrix(alpha, beta)
    alpha, beta = float(alpha), float(beta)
    norm_wB, norm_wB_rev = alpha * alpha * beta, alpha * beta * beta  # B's, checked finite there
    Ms = [as_matrix(A, square=True) for A in As]
    U, E = power_of_two_scaled(np.array(Ms))
    words = [DESTRUCTOR_WORD, swap_letters(DESTRUCTOR_WORD)]  # w(X*, X) is swap(w)(X, X*)
    products = word_products(words, U, U.conj().swapaxes(-1, -2))
    unit = operator_norms(np.concatenate([U[None], products]))
    certs = []
    for M, u, e, (unit_nrm, *unit_norms) in zip(Ms, U, E.tolist(), unit.T.tolist()):
        cert = DestructorCertificate(
            witness_B=B,
            alpha=alpha,
            beta=beta,
            word=DESTRUCTOR_WORD,
            norm_wA=times_power_of_two(unit_norms[0], 3 * e),
            norm_wA_rev=times_power_of_two(unit_norms[1], 3 * e),
            norm_wB=norm_wB,
            norm_wB_rev=norm_wB_rev,
            conclusion="indestructible_sampled",
        )
        certs.append(cert)
        scale = f"||A|| = {times_power_of_two(unit_nrm, e):.3e}"
        if max(cert.norm_wA, cert.norm_wA_rev) == np.inf:
            raise PreconditionError(
                f"{scale} is too large for the {DESTRUCTOR_WORD} word norms of A: "
                f"||A*A^2|| and ||A^2 A*|| overflow; rescale A"
            )
        # as in find_conjugation, a Frobenius bound that rules order two out
        # spares the SVD, until a message names the refusal
        ruled_out = _order_two_ruled_out(u, DEFAULT_TOL)
        refusal = None if ruled_out else _order_two_refusal(M)
        if not ruled_out and refusal is None:
            continue
        # A^2 != 0 makes both norms positive, so a zero is an underflow
        if min(cert.norm_wA, cert.norm_wA_rev) == 0:
            raise PreconditionError(
                f"{scale} is too small for the {DESTRUCTOR_WORD} word "
                f"norms of A: ||A*A^2|| = {cert.norm_wA:.3g} and ||A^2 A*|| = "
                f"{cert.norm_wA_rev:.3g} underflow; rescale A"
            )
        # decided in units of 2^(3e), where nothing over- or underflows
        norms = (unit_norms[0] * norm_wB, unit_norms[1] * norm_wB_rev)
        gap = abs(norms[0] - norms[1])
        cut = _gap_cut(DEFAULT_TOL, 3, 3 * len(M))  # the word search's, for A (x) B of size 3n
        try:  # ||A (x) B|| = ||A|| max(alpha, beta)
            threshold = cut * float(unit_nrm * max(alpha, beta)) ** 3
        except OverflowError:
            raise InputError(
                f"witness parameter max(alpha, beta) = {max(alpha, beta)!r} is too large: the "
                f"threshold ||A (x) B||^3 overflows for A not of order two"
            ) from None
        shown = [times_power_of_two(x, 3 * e) for x in (*norms, gap, threshold)]
        if max(norms) <= threshold:
            raise PreconditionError(
                f"A is {refusal or _order_two_refusal(M)}, but the {DESTRUCTOR_WORD} norms of "
                f"A (x) B, {shown[0]:.3e} and {shown[1]:.3e}, are not above {shown[3]:.3e}, so "
                f"no ratio beta/alpha gives a gap"
            )
        if gap <= threshold:
            raise PreconditionError(
                f"beta/alpha = {beta / alpha:.6g} cancels ||A*A^2|| / ||A^2 A*|| = "
                f"{cert.norm_wA:.6g} / {cert.norm_wA_rev:.6g}: the {DESTRUCTOR_WORD} gap of "
                f"A (x) B is {shown[2]:.3e}, not above {shown[3]:.3e}; choose another ratio"
            )
        cert.conclusion = "destroyed"
    return certs


def destructor_witness(A, alpha: float = 1.0, beta: float = 2.0) -> DestructorCertificate:
    """Norm-identity violation certificate for A (x) B(alpha, beta).

    With w = yx^2: ||w(B,B*)|| = alpha^2 beta and ||w(B*,B)|| = alpha beta^2,
    taken as those products with no SVD, and word norms factor over tensor
    products, so the gap of A (x) B is alpha beta |alpha ||A*A^2|| - beta
    ||A^2 A*|||.  A of order two (the decision of ``nilpotent2_splitting``,
    taken without its frame, once per A) gives indestructible_sampled,
    since the constructive route applies; an A whose Frobenius bound rules
    order two out (``_order_two_ruled_out``) skips the decision's SVD, as in
    ``find_conjugation``, unless a message quotes its refusal.  Otherwise
    the conclusion is destroyed when the gap exceeds
    ``_gap_cut(DEFAULT_TOL, 3, 3n)`` ||A (x) B||^3, the cut of
    ``word_obstruction_search`` for a word of length 3 on A (x) B, which is
    DEFAULT_TOL ||A (x) B||^3 for n below about 31000.  The norms of A are
    taken on A scaled by a power of two to norm in [1/2, sqrt(2) n), which
    is exact, and the gap is decided in those units.  A word norm of A that overflows in A's units
    raises PreconditionError (||A|| above about 5e102), and so does a gap too
    small to decide, naming the cause: word norms of A that underflow
    (||A|| below about 1e-108), both yxx norms of A (x) B at or below the
    threshold (so when A failed on its rank alone, as
    ||A^2|| <= DEFAULT_TOL ||A||^2 bounds them), or a ratio
    beta / alpha = ||A*A^2|| / ||A^2 A*|| at which they cancel.  alpha and
    beta are checked by ``witness_matrix``; a threshold that overflows
    (max(alpha, beta) above about 1e103, A not of order two) is an
    InputError.  The k = 1 call of ``_destructor_witnesses``.
    """
    return _destructor_witnesses([A], alpha, beta)[0]


def _nilpotent2_tensor_conjugations(As, Bs) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """(T, G, c_norms): the stack of T_j = A_j (x) B_j of factors scaled by powers of two,
    the G_j of their verified conjugations, and the ||T_j - C_j T_j* C_j|| that verified them.

    ``nilpotent2_tensor_conjugation`` of each pair, whose products must share
    one size: one order-two decision per dimension of the A_j, then one
    splitting, one set of polar factors and one verification of the whole
    stack, so each G_j equals its own call's bit for bit.  The scaling
    leaves G as it is, and no finite pair overflows.
    """
    Bs = [power_of_two_scaled(as_matrix(B, square=True))[0] for B in Bs]
    As = [as_matrix(A, square=True) for A in As]
    for n in dict.fromkeys(len(A) for A in As):
        _order_two_decisions(np.array([A for A in As if len(A) == n]), DEFAULT_TOL)
    T = np.array([tensor(power_of_two_scaled(A)[0], B) for A, B in zip(As, Bs)])
    forms = _nilpotent2_forms(T, DEFAULT_TOL)
    W = np.array([form.W for form in forms])
    G = _nilpotent2_conjugations(W, [form.rank for form in forms])
    checks, c_norms = _verified_residuals(T, G, DEFAULT_TOL, [form.norm for form in forms])
    for ok, residual in checks:
        if not ok:
            raise AccuracyError(
                f"the conjugation of A (x) B misses tol {DEFAULT_TOL:.1e}: c-symmetry residual "
                f"{residual:.3e}"
            )
    return T, G, c_norms


def nilpotent2_tensor_conjugation(A, B) -> Conjugation:
    """Verified conjugation for A (x) B when A^2 = 0 at DEFAULT_TOL.

    (A (x) B)^2 = A^2 (x) B^2 = 0, so the order-two construction applies to
    the product of A and B, each scaled by a power of two.  B must be
    square.  A G that misses the tol (A nilpotent only at tol) raises
    AccuracyError.  The k = 1 call of ``_nilpotent2_tensor_conjugations``.
    """
    return Conjugation(_nilpotent2_tensor_conjugations([A], [B])[1][0])


def _swap_order(n: int) -> np.ndarray:
    """Row order exchanging the factors of C^n (x) C^n: row j n + i takes row i n + j."""
    return np.arange(n * n).reshape(n, n).T.ravel()


def factor_swap(n: int) -> np.ndarray:
    """Permutation on C^n (x) C^n exchanging the tensor factors; n^2 is capped as in ``tensor``."""
    n = check_count(n, "dimension n", least=0)
    if n * n > TENSOR_DIM_CAP:
        raise CapacityError(f"C^{n} (x) C^{n} exceeds the dimension cap {TENSOR_DIM_CAP}")
    return np.eye(n * n)[_swap_order(n)]


def swap_conjugation(J: Conjugation) -> Conjugation:
    """Conjugation x (x) y -> J y (x) J x on C^n (x) C^n, n = J.dim.

    G = Swap (G_J (x) G_J), the rows of ``tensor(G_J, G_J)`` permuted, so the
    cap refuses n >= 65 before any n^4 array exists; symmetric because the
    swap commutes with G_J (x) G_J.  For any A the operator A (x) (J A* J) is
    symmetric under it.  A J that is not a Conjugation is an InputError.
    """
    _check_instance(J, Conjugation, "J")
    G = tensor(J.matrix, J.matrix)[_swap_order(J.dim)]
    return Conjugation(0.5 * (G + G.T))


def _shift_coshift_products(J: Conjugation, A: np.ndarray) -> np.ndarray:
    """``shift_coshift_product`` of each matrix of a (k, n, n) stack, in one stacked pass.

    Each product equals its own k = 1 call bit for bit.
    """
    return _tensors(A, conjugate_by(J, A.conj().swapaxes(-1, -2)))


def shift_coshift_product(J: Conjugation, A) -> np.ndarray:
    """The matrix A (x) (J A* J).  The k = 1 call of ``_shift_coshift_products``."""
    return _shift_coshift_products(J, as_matrix(A, square=True)[None])[0]


def shift_coshift_truncation(N: int) -> np.ndarray:
    """Matrix of T(z^k w^m) = z^{k+1} w^{m-1} (0 when m = 0) on total degree < N.

    z^k w^(d-k) sits at d(d+1)/2 + k, so T shifts each index to the next one
    within its degree.  More than TENSOR_DIM_CAP monomials are refused.
    """
    N = check_count(N, "degree cutoff N")
    dim = N * (N + 1) // 2
    if dim > TENSOR_DIM_CAP:
        raise CapacityError(f"{dim} monomials of degree < {N} exceed the dimension cap {TENSOR_DIM_CAP}")
    T = np.eye(dim, k=-1, dtype=complex)
    firsts = np.cumsum(np.arange(1, N))  # d(d+1)/2, where degree d >= 1 starts
    T[firsts, firsts - 1] = 0.0
    return T


def shift_tensor_coshift_blocks(N: int) -> list[tuple[int, np.ndarray]]:
    """Homogeneous blocks of the truncated shift-times-coshift operator.

    Each homogeneous degree-d slice (dimension d+1) is invariant under T and
    T*, and the restriction is a single nilpotent Jordan chain of full
    length.  Returns [(d+1, restriction)] for d = 0..N-1, verifying
    invariance on the way: the Frobenius norm of T minus the direct sum of
    its slices, which bounds each slice's leak under T and T*, above 1e-12
    is an AccuracyError naming the first degree that leaks.
    """
    T = shift_coshift_truncation(N)
    degree = np.repeat(np.arange(N), np.arange(1, N + 1))
    leak = np.where(degree[:, None] == degree, 0.0, T)
    if np.linalg.norm(leak) > 1e-12:
        d = degree[np.concatenate(np.nonzero(leak))].min()
        raise AccuracyError(f"homogeneous slice of degree {d} is not invariant")
    return [(d + 1, T[s : s + d + 1, s : s + d + 1]) for d, s in enumerate(np.cumsum(np.arange(N)))]
