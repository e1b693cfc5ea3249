"""Complex-symmetry certification.

An operator T is complex symmetric when T = C T* C for some conjugation C;
equivalently T G = G T^t for a symmetric unitary G.  ``find_conjugation``
decides it in this order, and every verdict it returns rests on a check
anyone can repeat: a verified G, or a word whose norm gap exceeds tol.

1. Nilpotents of order two, as ``nilpotent2_splitting`` decides from one
   SVD (||T^2|| <= tol ||T||^2 and a rank r with 2r <= n at the same tol):
   an explicit G from that SVD.  A T that fails either margin goes on to
   the routes below.  A T whose Frobenius bound on ||T^2|| / ||T||^2
   already exceeds twice tol (and the rounding floor) skips that SVD,
   which could only refuse it.
2. Transpose-symmetric matrices: G = I.  ||B - B^t|| and the two norms of
   the xxy screen (3), all at B = T / 2^e, share one batched SVD.
3. The xxy screen: a word gap | ||T T T*|| - ||T* T* T|| | above 16 tol
   ||T||^3 rules out every G that could verify at tol, so the certificate
   the word search (5) would return is returned before J(T) is built.
   This decides a generic matrix at O(n^3).  Its two words are multiplied
   out as the word search multiplies them, so the gap is the search's bit
   for bit.
4. The polar factor of a symmetric intertwiner.  The joint intertwiner
   space J(T) = {X : T X = X T^t, T* X = X conj(T)} holds every symmetric
   unitary G with T G = G T^t.  For X in J(T), X* X commutes with T^t and
   conj(T), so an invertible X has its polar factor in J(T), and a
   symmetric one a symmetric factor: T is complex symmetric exactly when
   the symmetric half S(T) of J(T) holds an invertible element, and then a
   generic element of S(T) is (Garcia-Putinar 2006, Garcia-Tener 2012).
   ``unitary_in_subspace`` yields the polar factor of a fixed combination
   of an orthonormal basis of S(T), then of a second one.
   ``intertwiner_basis`` spans J(T) by one reduced solve over the
   eigenvalue clusters of a Hermitian part of T, a 2 n^2 x sum m_i^2
   system for clusters of sizes m_i: O(n^4) time and 2 n^3 entries on a
   simple spectrum.  Re T alone is formed unless its spectrum has a
   cluster; only then are the parts at eight angles built.  A system past
   the tensor cap is a CapacityError, held until the fallback below has
   been tried.
5. If no candidate is verified, the word-norm obstruction search over all
   62 words of length at most 5.  A gap counts only above
   max(tol, GAP_FLOOR L n) ||T||^L, so rounding is never an obstruction.
6. The fallback, the Hermitian-part phase test
   (``hermitian_phase_conjugation``): an O(n^3) candidate G, built from the
   eigenvectors of Re(e^{i theta} T), for a T complex symmetric only at a
   tol looser than the cut of J(T), or of order two with a G (1) that misses
   tol.  Unverified, it leaves a held CapacityError or "inconclusive".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import CapacityError, InputError, PreconditionError
from .linalg import (
    DEFAULT_TOL,
    SEARCH_SAMPLES_CAP,
    TENSOR_DIM_CAP,
    WORD_LEN_CAP,
    Conjugation,
    _as_square_matrices,
    _conjugation_matrix,
    _screened_norms,
    as_matrix,
    check_count,
    check_positive,
    column_phases,
    direct_sum,
    operator_norm,
    operator_norms,
    power_of_two_scaled,
    times_power_of_two,
    unitary_in_subspace,
)
from .words import (
    _validated_words,
    normalize_poly,
    random_polynomial,
    swap_letters,
    validate_word,
    word_products,
    words_of_length,
)

#: Rounding floor of a word-norm gap, per letter and per dimension.  A word of
#: length L multiplied out at n x n and normed by an SVD errs by well under
#: L n eps ||T||^L: over 600 rotated CSO matrices of n = 2-32, half with
#: singular values spread to 1e6, the largest gap of the 62 words of length
#: at most 5 was 6.3 eps ||T||^L, and 0.67 L n eps ||T||^L.  So a gap counts
#: only above max(tol, GAP_FLOOR L n) ||T||^L.  At the default tol the floor
#: stays below tol up to n = 4096.
GAP_FLOOR = 16 * np.finfo(float).eps

_NORM_OVERFLOWS = "||T|| overflows: it is past the largest double; rescale T"
_LEAST_DOUBLE = np.nextafter(0.0, 1.0)


def _gap_cut(tol: float, length: int, n: int) -> float:
    """The relative cut a gap of a length-L word must pass: max(tol, GAP_FLOOR L n)."""
    return max(tol, GAP_FLOOR * length * max(n, 1))


@dataclass
class Nilpotent2Form:
    """T with T^2 = 0 at tol in canonical coordinates: W T W* = [[0,0],[A,0]] (+) 0.

    ``W`` maps original coordinates to the canonical ones, ``singular_values``
    are the diagonal of A in descending order, ``extra_kernel_dim`` counts the
    trailing zero summand, and ``norm`` is ||T||.
    """

    W: np.ndarray
    singular_values: np.ndarray
    extra_kernel_dim: int
    norm: float

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    def canonical_matrix(self) -> np.ndarray:
        r = self.rank
        T = np.zeros_like(self.W)
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


def is_c_symmetric(T, C: Conjugation, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Relative residual ||T - C T* C|| / ||T|| (0 for T = 0) and the certificate's verdict.

    The certificate's check ``_verified_residual`` on B = T / 2^e and ||B||:
    it also asks C to be symmetric and unitary at tol, nothing overflows, and
    the residual is the one ``find_conjugation`` reports on its general
    routes, bit for bit.  tol is checked by ``check_positive``, and C here.
    """
    tol = check_positive(tol, "tol")
    B, _ = power_of_two_scaled(as_matrix(T, square=True))
    _conjugation_matrix(C, len(B))
    return _verified_residual(B, C, tol, operator_norm(B))


def _c_differences(A: np.ndarray, G: np.ndarray) -> np.ndarray:
    """A - C A* C for each matrix of a (k, n, n) stack A and G of the conjugations' matrices.

    C A* C = G conj(A*) conj(G), multiplied out as ``conjugate_by`` does,
    so each difference equals ``A - conjugate_by(C, A.conj().T)`` bit for bit.
    """
    return A - G @ A.conj().swapaxes(-1, -2).conj() @ G.conj()


def _verified_residuals(A: np.ndarray, G: np.ndarray, tol: float, nrms):
    """(checks, c_norms): ``_verified_residual`` of each matrix of a (k, n, n) stack A, for G
    and ||A|| the same way, and the norms ||A_j - C_j A_j* C_j|| that the residuals divide.

    One batched SVD norms the differences, and ``_screened_norms`` GG* - I
    and G - G^t.  Callers pass A scaled by a power of two, so that no
    difference overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        unitarity = G @ G.conj().swapaxes(-1, -2) - np.eye(A.shape[-1])
        defects = np.concatenate([unitarity, G - G.swapaxes(-1, -2)])
        differences = _c_differences(A, G)
    c_norms = operator_norms(differences).tolist()
    defect = _screened_norms(defects, tol).reshape(2, len(A)).max(axis=0).tolist()
    residuals = [c_norm / nrm if nrm > 0 else 0.0 for c_norm, nrm in zip(c_norms, nrms)]
    return [(max(r, d) <= tol, r) for r, d in zip(residuals, defect)], c_norms


def _verified_residual(A: np.ndarray, C: Conjugation, tol: float, nrm: float) -> tuple[bool, float]:
    """Whether C is a symmetric unitary with A = C A* C at tol, and that residual.

    A - C A* C is normed by SVD, with the bits of ``operator_norm``, and
    GG* - I and G - G^t by ``_screened_norms``, so a defect above tol has
    the bits of ``Conjugation.unitarity_residual`` or ``symmetry_residual``.
    The residual is ||A - C A* C|| / nrm for nrm = ||A||, and 0 for
    nrm = 0.  The k = 1 call of ``_verified_residuals``.
    """
    return _verified_residuals(A[None], C.matrix[None], tol, [nrm])[0][0]


def _order_two_decisions(A: np.ndarray, tol: float):
    """The order-two decision for each matrix of a (k, n, n) stack: (U, s, Vh, norms, ranks).

    ``nilpotent2_splitting`` states the decision.  U, s and Vh are the
    stack's one batched SVD, and the squares T^2 / s_0^2 are formed and
    screened for the whole stack; then each matrix is decided in turn, as its
    own k = 1 call decides it, so a stack raises its first refused matrix's error.
    """
    k, n, _ = A.shape
    U, s, Vh = np.linalg.svd(A)
    norms = s[:, 0].tolist() if n else [0.0] * k
    # T / ||T|| by parts; T = 0 is divided by the least subnormal instead, which leaves it 0
    scale = s[:, :1, None] if all(norms) else np.maximum(s[:, :1, None], _LEAST_DOUBLE)
    unit = A.real / scale + 1j * (A.imag / scale)
    squares = unit @ unit
    ranks = []
    for square_norm, row, nrm in zip(_screened_norms(squares, tol).tolist(), s, norms):
        if nrm == np.inf:
            raise InputError(_NORM_OVERFLOWS)
        if square_norm > tol:
            raise PreconditionError(
                f"not nilpotent of order two at tol {tol:.1e}: "
                f"||T^2|| / ||T||^2 = {square_norm:.3e}"
            )
        r = int(np.count_nonzero(row > tol * nrm))
        if 2 * r > n:
            raise PreconditionError(
                f"not nilpotent of order two at tol {tol:.1e}: numerical rank {r} exceeds half "
                f"the dimension {n} (s_{r - 1} / s_0 = {row[r - 1] / nrm:.3e})"
            )
        ranks.append(r)
    return U, s, Vh, norms, ranks


def _per_rank(ranks: list[int], part) -> np.ndarray:
    """The stack whose matrices of rank r are ``part(r, members)``, one call per rank r.

    ``members`` indexes the matrices of rank r in the stack (all of them,
    as a slice, when the stack has one rank).
    """
    if len(set(ranks)) == 1:
        return part(ranks[0], slice(None))
    groups: dict[int, list[int]] = {}
    for j, r in enumerate(ranks):
        groups.setdefault(r, []).append(j)
    parts = {r: part(r, members) for r, members in groups.items()}
    out = np.empty((len(ranks), *parts[ranks[0]].shape[1:]), dtype=complex)
    for r, members in groups.items():
        out[members] = parts[r]
    return out


def _nilpotent2_forms(A: np.ndarray, tol: float) -> list[Nilpotent2Form]:
    """``nilpotent2_splitting`` of each matrix of a (k, n, n) stack.

    Each form equals the one of its own k = 1 call bit for bit.  The
    matrices of one rank r share the stacked products, and one batched SVD
    for their leftover kernels when n > 2r.
    """
    U, s, Vh, norms, ranks = _order_two_decisions(A, tol)
    n = A.shape[-1]

    def frame(r, members):  # the columns [right, left, rest] of W*
        V = Vh[members].conj().swapaxes(-1, -2)
        phases = column_phases(V[..., :r])[..., None, :]
        right = V[..., :r] * phases
        left = U[members, :, :r] * phases
        if n == 2 * r:
            return np.concatenate([right, left], axis=-1)
        # Orthonormal basis of ker T minus ran T (ran T sits inside ker T).
        kernel = V[..., r:]
        rest = np.linalg.svd(kernel - left @ (left.conj().swapaxes(-1, -2) @ kernel))[0]
        rest = rest[..., : n - 2 * r]
        return np.concatenate([right, left, rest * column_phases(rest)[..., None, :]], axis=-1)

    W = _per_rank(ranks, frame).conj().swapaxes(-1, -2)
    return [
        Nilpotent2Form(w, row[:r].copy(), n - 2 * r, nrm)
        for w, row, r, nrm in zip(W, s, ranks, norms)
    ]


def nilpotent2_splitting(T, tol: float = DEFAULT_TOL) -> Nilpotent2Form:
    """The order-two decision: the canonical form of T if T^2 = 0 at tol.

    From one full SVD T = U diag(s) V*, with ||T|| = s_0, T has order at
    most two when ||(T / s_0)^2|| <= tol (T / s_0 formed by parts: complex
    division by a subnormal norm overflows; that norm is taken by
    ``_screened_norms`` at tol) and its rank r = #{s_i > tol s_0} has
    2r <= n.  A T that fails either margin raises one PreconditionError
    naming it; certify, the destructor and synthesis decide "order two"
    here and nowhere else (certify skips the call only for a T that
    ``_order_two_ruled_out`` shows it would refuse).  A T whose norm
    overflows is an InputError.  W* has the columns right (V's first r
    columns, each with its largest entry made real positive), left (U's,
    with the same phases, so T right_i = s_i left_i) and rest (ker T
    outside ran T, from one more SVD when n > 2r).
    The k = 1 call of ``_nilpotent2_forms``.
    """
    tol = check_positive(tol, "tol")
    return _nilpotent2_forms(as_matrix(T, square=True)[None], tol)[0]


def _nilpotent2_conjugations(W: np.ndarray, ranks: list[int]) -> np.ndarray:
    """The G of ``conjugation_for_nilpotent2`` for forms of one dimension, as a (k, n, n) stack.

    W stacks the forms' W and ``ranks`` holds their ranks.  One batched SVD
    gives every polar factor; each G equals its own bit for bit.
    """
    U, _, Vh = np.linalg.svd(W.conj().swapaxes(-1, -2))
    P = U @ Vh

    def swapped(r, members):  # the basis with right and left exchanged
        M = P[members]
        return np.concatenate([M[..., r : 2 * r], M[..., :r], M[..., 2 * r :]], axis=-1)

    G = _per_rank(ranks, swapped) @ P.swapaxes(-1, -2)
    return 0.5 * (G + G.swapaxes(-1, -2))


def conjugation_for_nilpotent2(form: Nilpotent2Form) -> Conjugation:
    """Explicit conjugation for T with T^2 = 0, built from its order-two form.

    In the basis [right, left, rest] of ``form`` T is [[0,0],[D,0]] (+) 0
    with D positive diagonal, so entrywise conjugation commutes with D and
    the block swap [[0,I],[I,0]] (+) I is a valid G.  It is pulled back
    through the polar factor of that basis, the nearest unitary to a basis
    that is orthonormal only to rounding (or to tol, for T nilpotent only at
    tol), so G is unitary to working precision.  The caller checks G on T.
    The k = 1 call of ``_nilpotent2_conjugations``.
    """
    return Conjugation(_nilpotent2_conjugations(form.W[None], [form.rank])[0])


def canonical_block_decomposition(T) -> tuple[list[np.ndarray], np.ndarray]:
    """(blocks, W) with W unitary and W T W* = direct_sum(*blocks), for T^2 = 0.

    The blocks are one self-transpose (s/2) [[1,i],[i,-1]] per singular value
    s of T, then one 1x1 zero per leftover kernel dimension.  In the columns
    (right_1, left_1, right_2, left_2, ..., rest) of ``nilpotent2_splitting``
    each pair carries s e_2 e_1*, and Q = [[1,1],[-i,i]] / sqrt(2) takes
    that to Q (s e_2 e_1*) Q* = (s/2) [[1,i],[i,-1]]; W is that basis change
    followed by Q on every pair.  It is unitary to rounding, except that on a
    T nilpotent only at DEFAULT_TOL, ran T lies in ker T only up to that tol.
    """
    return _block_decomposition(nilpotent2_splitting(T))


def _block_decomposition(form: Nilpotent2Form) -> tuple[list[np.ndarray], np.ndarray]:
    """``canonical_block_decomposition`` of the matrix whose order-two form is ``form``."""
    r, extra = form.rank, form.extra_kernel_dim
    rows = np.r_[np.arange(2 * r).reshape(2, r).T.ravel(), 2 * r : 2 * r + extra]
    Q = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
    W = direct_sum(np.kron(np.eye(r), Q), np.eye(extra)) @ form.W[rows]
    cell = np.array([[1.0, 1.0j], [1.0j, -1.0]], dtype=complex)
    blocks = [0.5 * sv * cell for sv in form.singular_values]
    blocks.extend(np.zeros((1, 1), dtype=complex) for _ in range(extra))
    return blocks, W


#: e^{i theta} for the eight angles theta = k pi / 8 of the Hermitian parts.
_PHASES = np.array([np.exp(1j * np.pi * k / 8) for k in range(8)])


def _hermitian_parts(A: np.ndarray, phases: np.ndarray = _PHASES):
    """(Zs, Hs): Z = e^{i theta} A and its Hermitian part H = (Z + Z*) / 2 for each phase.

    Both are (len(phases), n, n) stacks, formed elementwise, so the part at
    one phase has the same bits whichever phases are stacked with it.
    """
    Zs = phases[:, None, None] * A
    return Zs, 0.5 * (Zs + Zs.conj().transpose(0, 2, 1))


def intertwiner_basis(T) -> np.ndarray:
    """Orthonormal basis of J(T) = {X : T X = X T^t, T* X = X conj(T)}, a (k, n, n) stack.

    J(T) holds every symmetric unitary G with T G = G T^t (for a unitary G
    that gives T* G = G conj(T)), and is 1-dimensional for an irreducible
    complex symmetric T.  One reduced solve, on T scaled by a power of two
    and shifted by (tr T / n) I (neither changes J(T)): each X in J(T) has
    H X = X conj(H) for H = Re(e^{i theta} T) = U diag(w) U*, so
    Y = U* X conj(U) is block diagonal over the clusters of w, and solves
    T'Y = Y T'^t, T'* Y = Y conj(T') with T' = U* T U: a 2 n^2 x sum m_i^2
    system (m_i the cluster sizes), whose null space comes from one QR and
    one SVD of its R factor; X = U Y U^t.  theta = 0 unless its w has a
    cluster, else the first of theta = k pi / 8 with the fewest unknowns.
    Only H at theta = 0 and its ``eigh`` are formed first: the eight parts
    and their stacked ``eigvalsh`` are built only for a w with a cluster,
    and on a simple spectrum the unknowns are the diagonal of Y.

    The null cut is DEFAULT_TOL ||T||_F, relative to T (unshifted), where
    the rounding lives, not to the system's largest singular value.
    Clusters split only at gaps above 1e-6 ||T'||_F (T' shifted): a gap in
    doubt merges, which only adds unknowns.  Across a gap d an X of J(T) has
    entries of about eps ||T|| / d (the rounding of U), so dropping them
    moves its residual by under 3e-10 ||T||, below the null cut.  A system
    of more entries than the largest Kronecker matrix ``linalg.tensor``
    builds, TENSOR_DIM_CAP^2, is a CapacityError raised before allocation.
    """
    A, _ = power_of_two_scaled(as_matrix(T, square=True))
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0, 0), dtype=complex)
    null_cut = DEFAULT_TOL * np.linalg.norm(A)
    A = A - np.trace(A) / n * np.eye(n)
    gap_cut = 1e-6 * np.linalg.norm(A)

    def same_cluster(w):  # which pairs of the ascending eigenvalues w share a cluster
        labels = np.cumsum(np.diff(w, axis=-1, prepend=w[..., :1]) > gap_cut, axis=-1)
        return labels[..., :, None] == labels[..., None, :]

    w, U = np.linalg.eigh(_hermitian_parts(A, _PHASES[:1])[1][0])
    if np.any(np.diff(w) <= gap_cut):
        Hs = _hermitian_parts(A)[1]
        k = int(np.argmin(same_cluster(np.linalg.eigvalsh(Hs)).sum(axis=(1, 2))))
        w, U = np.linalg.eigh(Hs[k])
        rows, cols = np.nonzero(same_cluster(w))
    else:  # a simple spectrum: every cluster is one eigenvalue, and Y is diagonal
        rows = cols = np.arange(n)
    m = len(rows)
    if 2 * n * n * m > TENSOR_DIM_CAP**2:
        raise CapacityError(
            f"the {2 * n * n} x {m} system for the intertwiner space exceeds the dimension "
            f"cap: more than {TENSOR_DIM_CAP}^2 entries"
        )
    Tp = U.conj().T @ A @ U
    # column j is P E_j - E_j P^t for the unit E_j at (rows[j], cols[j]), P = T' and T'*
    system = np.zeros((m, 2, n, n), dtype=complex)
    j = np.arange(m)
    for p, P in enumerate((Tp, Tp.conj().T)):
        system[j, p, :, cols] += P[:, rows].T
        system[j, p, rows, :] -= P[:, cols].T
    _, s, vh = np.linalg.svd(np.linalg.qr(system.reshape(m, -1).T, mode="r"))
    null = vh[s <= null_cut].conj()
    Y = np.zeros((len(null), n, n), dtype=complex)
    Y[:, rows, cols] = null
    return U @ Y @ U.T


def hermitian_phase_conjugation(T) -> Conjugation:
    """Candidate conjugation from the eigenvectors of a Hermitian part of T.

    If T = C T* C, then C commutes with H = Re(e^{i theta} T) and with
    K = Im(e^{i theta} T) for every theta.  Of theta = k pi / 8 (k = 0..7)
    the one whose H has the largest minimum eigengap is used, the first of
    equal gaps.  One batched ``eigh`` gives the spectra and eigenvectors of
    all eight H, each as ``eigh`` of that H alone gives them: for a real T,
    H_{8-k} = -conj(H_k) has the gaps of H_k in exact arithmetic, so the
    last bits of the eigenvalues pick k.  On a simple spectrum
    C u_k = alpha_k u_k for the eigenvectors u_k of H, so
    G = U diag(alpha) U^t, and C K C = K asks alpha_k conj(K'_kj) =
    K'_kj alpha_j with K' = U* K U, i.e. arg K'_kj = beta_k - beta_j
    (mod pi) for alpha = e^{2 i beta}.  The phases are carried along a maximum-|K'|
    spanning forest, alpha = 1 at the root of each component.

    The parts are taken of T scaled by a power of two, which is exact and
    leaves G as it is, so that Z + Z* and Z - Z* cannot overflow.

    The result is a candidate only: a degenerate spectrum, or a T with no
    conjugation, gives a G that ``is_c_symmetric`` rejects.
    """
    A, _ = power_of_two_scaled(as_matrix(T, square=True))
    n = A.shape[0]
    Zs, Hs = _hermitian_parts(A)
    w, Us = np.linalg.eigh(Hs)
    k = int(np.argmax(np.diff(w, axis=1).min(axis=1, initial=np.inf)))
    Z, U = Zs[k], Us[k]
    U = U * column_phases(U)
    K = U.conj().T @ ((Z - Z.conj().T) / 2j) @ U
    weight = np.abs(K)

    # Prim's algorithm on weight; a vertex reached only by weight 0 is a new root.
    alpha = np.ones(n, dtype=complex)
    done = np.zeros(n, dtype=bool)
    link = np.zeros(n)
    parent = np.zeros(n, dtype=int)
    for _ in range(n):
        k = int(np.argmax(np.where(done, -1.0, link)))
        if link[k] > 0:
            j = parent[k]
            alpha[k] = alpha[j] * (K[k, j] / weight[k, j]) ** 2
        done[k] = True
        closer = ~done & (weight[:, k] > link)
        link[closer] = weight[closer, k]
        parent[closer] = k
    G = (U * alpha) @ U.T
    return Conjugation(0.5 * (G + G.T))


def _order_two_ruled_out(B: np.ndarray, tol: float) -> bool:
    """Whether ``nilpotent2_splitting`` at tol must refuse B, decided with no SVD.

    ||B^2|| >= ||B^2||_F / sqrt(n) and ||B|| <= ||B||_F, so
    ||B^2|| / ||B||^2 >= ||B^2||_F / (sqrt(n) ||B||_F^2).  The rounding of
    that bound, and of the ratio the splitting computes, is at most about
    n^2 eps (a product of two n x n matrices errs by n eps |B| |B|, and
    || |B| |B| || <= n ||B||^2), so a bound above 2 max(tol, GAP_FLOOR n^2),
    which is at least tol + GAP_FLOOR n^2, puts the splitting's ratio
    above tol.  B = 0 is not ruled out.
    """
    n = B.shape[0]
    frob = float(np.linalg.norm(B))
    if frob == 0:
        return False
    bound = np.linalg.norm(B @ B) / (math.sqrt(n) * frob * frob)
    return bound > 2 * max(tol, GAP_FLOOR * n * n)


def _screen_norms(B: np.ndarray) -> tuple[float, float]:
    """(||B - B^t||, the xxy gap of B) for B = T / 2^e, from one batched SVD.

    The gap is | ||xxy|| - ||yxx|| | at (B, B*), the canonical members of
    the two adjoint classes that ``word_norm_gaps`` norms for xxy, each
    multiplied out from the identity letter by letter as ``word_products``
    multiplies it.  The batched SVD takes each matrix as its own SVD takes
    it, so the first value equals that of ``operator_norm`` and the gap
    equals ``word_norm_gaps(B, ["xxy"])[0]`` bit for bit.
    """
    X, Y = B, B.conj().T
    I = np.eye(len(B), dtype=complex)
    skew, xxy, yxx = operator_norms([B - B.T, I @ X @ X @ Y, I @ Y @ X @ X]).tolist()
    return skew, abs(xxy - yxx)


def _xxy_obstruction(
    gap: float, e: int, unit_nrm: float, tol: float, n: int
) -> tuple[str, float] | None:
    """The word search's certificate ("xxy", gap), if the xxy gap alone rules out every G.

    ``gap`` is the xxy gap of the n x n matrix B = T / 2^e, and ``unit_nrm``
    = ||B||, as ``word_obstruction_search`` takes them: ``_screen_norms``
    takes the gap | ||xxy|| - ||yxx|| | from the canonical members of the
    two adjoint classes (see ``word_norm_gaps``), in the batch of
    ||B - B^t||, so a hit here is its certificate bit for bit: no
    word of length 1 or 2 has a gap beyond rounding (x, y, xx and yy are
    palindromes, whose gaps are exactly 0, and ||T T*|| = ||T* T||), and
    xxy comes first of length 3.  The hit needs a gap above
    16 max(tol, GAP_FLOOR 3 n) ||B||^3, and no G that ``_verified_residual``
    accepts at tol <= 1/32 leaves one: its polar factor U is within about
    tol of G, so ||T - S|| <= d = (4 tol + tol^2) ||T|| for S = U T^t U*,
    and ||xxy(S)|| = ||T* T T|| = ||yyx(T)||, so the gap is at most
    ((1 + d / ||T||)^3 - 1) ||T||^3 <= 13.7 tol ||T||^3, plus rounding
    below the floor.  So where this returns a word, the polar factors of
    J(T) could not have verified.  A larger tol is never screened.
    """
    if tol > 1 / 32:
        return None
    if gap > 16 * _gap_cut(tol, 3, n) * unit_nrm**3:
        return "xxy", _gap_in_units("xxy", gap, unit_nrm, e)
    return None


def find_conjugation(T, tol: float = DEFAULT_TOL) -> CsoCertificate:
    """Complex-symmetry decision: a verified conjugation, a word, or neither.

    A T of order two (``nilpotent2_splitting``) takes the constructive
    route, whose conjugation is reported only when it is verified at tol;
    otherwise it goes straight to the last step.  Such a T never reaches
    the word search, so it is never "obstructed" (the destructor calls it
    indestructible).  A T whose Frobenius bound rules order two out
    (``_order_two_ruled_out``) skips the splitting's SVD.  Any other T
    takes the general routes: G = I if T is transpose-symmetric; else
    "obstructed" by xxy if its gap rules out every G at tol
    (``_xxy_obstruction``, the word search's own certificate, taken before
    J(T) is built); else the polar factors that ``unitary_in_subspace``
    takes of the symmetric half of the joint intertwiner space J(T)
    (``intertwiner_basis``), each re-verified before it is reported.  If
    none verifies, the word-norm obstruction search runs over every word
    of length at most 5 and a violating word gives "obstructed".  Last, on
    either route, the Hermitian-part phase conjugation is reported if it
    is verified at tol.  Without it, a system for J(T) past the tensor cap
    is a CapacityError, and otherwise the result is "inconclusive", a
    valid outcome, with the constructive residual on the order-two route
    and NaN on the general ones.  Every step but the word search, which
    scales T itself and reports its gap in T's units, takes B = T / 2^e
    and ||B|| (the splitting's, else one SVD): the splitting, the screens
    (``_screen_norms``), J(B) = J(T), the phase candidate and every
    residual, a ratio of norms of B.  So nothing overflows for a finite T,
    and 2^k T gets T's verdict, residual and G while no entry turns
    subnormal.  A T whose norm overflows is an InputError.
    """
    tol = check_positive(tol, "tol")
    A = as_matrix(T, square=True)
    B, e = power_of_two_scaled(A)

    try:
        form = None if _order_two_ruled_out(B, tol) else nilpotent2_splitting(B, tol)
    except PreconditionError:
        form = None  # not of order two: the general routes below decide
    nrm = operator_norm(B) if form is None else form.norm
    if times_power_of_two(nrm, e) == np.inf:
        raise InputError(_NORM_OVERFLOWS)
    held, residual = None, float("nan")
    if form is not None:
        C = conjugation_for_nilpotent2(form)
        ok, residual = _verified_residual(B, C, tol, nrm)
        if ok:
            return CsoCertificate("c_symmetric", residual, conjugation=C)
        # the norm without singular vectors, as on the general routes: the SVD
        # with them can differ from it in the last bit
        nrm = operator_norm(B)
    else:
        # ||B - I B* I|| = ||B - B^t||: the transpose test gives G = I's residual
        skew, gap = _screen_norms(B)
        if nrm > 0 and skew <= tol * nrm:
            C = Conjugation.identity(len(B))
            return CsoCertificate("c_symmetric", skew / nrm, conjugation=C)

        found = _xxy_obstruction(gap, e, nrm, tol, len(B))
        if found is None:
            try:
                candidates = unitary_in_subspace(intertwiner_basis(B))
            except CapacityError as exc:
                held, candidates = exc, ()
            for W in candidates:
                C = Conjugation(W)
                ok, polar_residual = _verified_residual(B, C, tol, nrm)
                if ok:
                    return CsoCertificate("c_symmetric", polar_residual, conjugation=C)
            found = word_obstruction_search(A, tol=tol)
        if found is not None:
            word, gap = found
            return CsoCertificate(
                "obstructed", residual=gap, obstruction_word=word, obstruction_gap=gap
            )

    # J(T) is cut at DEFAULT_TOL ||T||_F: a T symmetric only to a looser tol can leave it empty
    phase = hermitian_phase_conjugation(B)
    phase_ok, phase_residual = _verified_residual(B, phase, tol, nrm)
    if phase_ok:
        return CsoCertificate("c_symmetric", phase_residual, conjugation=phase)
    if held is not None:
        raise held
    return CsoCertificate("inconclusive", residual=residual)


#: Matrix entries per batch (4 MB of complex128): the searches take words
#: and polynomials in batches whose n x n products hold at most this many
#: entries, so a long max_len or many samples cost time, not memory.
BATCH_ENTRIES = 1 << 18


def _batches(items, n: int):
    """Consecutive lists of items, each with at most BATCH_ENTRIES entries of n x n products."""
    size = max(1, BATCH_ENTRIES // max(n * n, 1))
    it = iter(items)
    while batch := list(islice(it, size)):
        yield batch


def word_norm_gaps(T, words) -> np.ndarray:
    """| ||w(T,T*)|| - ||w(T*,T)|| | for each word, at T or at each T of a (k, n, n) stack.

    w(T*,T) is swap(w)(T, T*), whose adjoint is rev(w)(T, T*), so the gap is
    | ||w|| - ||rev w|| | at (T, T*).  v(T, T*)* is swap(rev v)(T, T*), so
    ||v|| = ||swap(rev v)|| for every T: each norm is taken once per adjoint
    class {v, swap(rev v)}, at its canonical member min(v, swap(rev v)),
    and a palindrome's gap is exactly 0 and takes no norm.  The members are
    multiplied out by ``word_products`` and normed by one batched SVD: the
    62 words of length at most 5 take 24 norms.  As the member is
    canonical, a word's gap has the same bits in every call, and a stack
    gives a (len(words), k) array whose column j equals the gaps of T_j bit
    for bit.  A bare string or a non-iterable ``words`` is an InputError.

    As in the word search, the gaps are taken at B = T / 2^e, each matrix
    of a stack scaled by its own power of two (``power_of_two_scaled``), so
    no product overflows, and are taken back to T's units exactly.  A gap
    that overflows there raises PreconditionError naming ||T||.
    """
    return _gaps_in_units(_as_square_matrices(T), _validated_words(words))


def word_norm_gap(T, word: str) -> float:
    """| ||w(T,T*)|| - ||w(T*,T)|| | for a single word, as ``word_norm_gaps`` takes it."""
    return float(_gaps_in_units(as_matrix(T, square=True), [validate_word(word)])[0])


def _gaps_in_units(A: np.ndarray, words: list[str]) -> np.ndarray:
    """``word_norm_gaps`` of a validated matrix or stack A and validated words."""
    B, e = power_of_two_scaled(A if A.ndim == 3 else A[None])
    unit_gaps = _word_norm_gaps(B if A.ndim == 3 else B[0], words).reshape(len(words), len(B))
    with np.errstate(over="ignore"):
        gaps = np.ldexp(unit_gaps, np.array([len(w) for w in words], dtype=int)[:, None] * e)
    for i, j in zip(*np.nonzero(gaps == np.inf)):  # raises at the first
        _gap_in_units(words[i], unit_gaps[i, j], operator_norm(B[j]), int(e[j]))
    return gaps if A.ndim == 3 else gaps[:, 0]


def _word_norm_gaps(A: np.ndarray, words: list[str]) -> np.ndarray:
    """The gaps of ``word_norm_gaps`` of a matrix or stack A, as they are: A is not scaled."""
    pairs = []  # the canonical members of the classes of w and rev w, or None for a palindrome
    for w in words:
        r, s = w[::-1], swap_letters(w)
        pairs.append(None if r == w else (min(w, s[::-1]), min(r, s)))
    table = list(dict.fromkeys([v for pair in pairs if pair for v in pair]))
    norms = dict(zip(table, operator_norms(word_products(table, A, A.conj().swapaxes(-1, -2)))))
    zero = np.zeros(len(A)) if A.ndim == 3 else 0.0
    return np.array([abs(norms[pair[0]] - norms[pair[1]]) if pair else zero for pair in pairs])


def _polynomial_norm_gaps(A: np.ndarray, polys) -> np.ndarray:
    """polynomial_norm_gap of each polynomial, from one word table and one batched SVD.

    The sums run term by term in eval_poly's order, so each gap equals the
    one from eval_poly and operator_norm bit for bit.
    """
    polys = [normalize_poly(p) for p in polys]
    words = [w for p in polys for w in p]
    table = list(dict.fromkeys([*words, *map(swap_letters, words)]))
    products = dict(zip(table, word_products(table, A, A.conj().T)))
    sums = np.zeros((len(polys), 2, *A.shape), dtype=complex)
    for pair, p in zip(sums, polys):
        for word, coeff in p.items():
            pair[0] = pair[0] + coeff * products[word]
            pair[1] = pair[1] + coeff.conjugate() * products[swap_letters(word)]
    norms = operator_norms(sums.reshape(2 * len(polys), *A.shape)).reshape(-1, 2)
    return np.abs(norms[:, 0] - norms[:, 1])


def polynomial_norm_gap(p: dict[str, complex], T) -> float:
    """| ||p(T,T*)|| - ||ptilde(T*,T)|| | with ptilde the coefficientwise conjugate."""
    return float(_polynomial_norm_gaps(as_matrix(T, square=True), [p])[0])


def word_obstruction_search(
    T, max_len: int = 5, tol: float = DEFAULT_TOL
) -> tuple[str, float] | None:
    """First word w with | ||w(T,T*)|| - ||w(T*,T)|| | > max(tol, GAP_FLOOR L n) ||T||^L.

    Words are enumerated length-lexicographically with x < y, L = len(w).
    Such a word certifies that T admits no conjugation; absence of one
    proves nothing.  The floor keeps a rounding gap from counting at a tol
    below it.  The gaps come from ``word_norm_gaps`` one length at a time,
    so an early hit such as xxy costs only the words up to its length.
    w(T*,T) is adjoint to rev(w)(T,T*), so each gap is | ||w|| - ||rev w|| |,
    both norms taken at the canonical member of the word's adjoint class
    {v, swap(rev v)}: a palindrome never hits, and a gap does not depend on
    the batch that holds its word.

    The search runs on T scaled by a power of two to norm in
    [1/2, sqrt(2) n), so its word products neither overflow nor underflow,
    and the gap it returns is taken back to T's units exactly.  A gap that overflows or underflows
    there raises PreconditionError naming ||T||.  A max_len above
    WORD_LEN_CAP is a CapacityError, raised before any word is multiplied out.
    """
    tol = check_positive(tol, "tol")
    max_len = check_count(max_len, "max_len", most=WORD_LEN_CAP)
    A, e = power_of_two_scaled(as_matrix(T, square=True))
    nrm = operator_norm(A)
    n = A.shape[0]
    for length in range(1, max_len + 1):
        for batch in _batches(words_of_length(length), n):
            gaps = _word_norm_gaps(A, batch)
            hits = np.flatnonzero(gaps > _gap_cut(tol, length, n) * nrm**length)
            if hits.size:
                word = batch[hits[0]]
                return word, _gap_in_units(word, float(gaps[hits[0]]), nrm, e)
    return None


def _gap_in_units(word: str, unit_gap: float, unit_nrm: float, e: int) -> float:
    """A gap of ``word`` at T / 2^e taken back to T's units; out of range is a PreconditionError."""
    gap = times_power_of_two(unit_gap, e * len(word))
    if not 0 < gap < np.inf:
        raise PreconditionError(
            f"||T|| = {times_power_of_two(unit_nrm, e):.3e} is out of range for the "
            f"word norms: {word} separates T / 2^{e} by {unit_gap:.3e}, which is "
            f"{gap:g} in T's units; rescale T"
        )
    return gap


def polynomial_obstruction_search(
    T, samples: int = 256, max_len: int = 5, seed: int = 0, tol: float = DEFAULT_TOL
) -> dict:
    """Sampled search for a polynomial norm-identity violation on T.

    Returns search statistics and the best candidate found.  A gap above
    max(tol, GAP_FLOOR L n) sum |c_w| ||T||^len(w), L the longest word of the
    polynomial, certifies that T is not complex symmetric; finding none says
    nothing either way, and the result never claims more.  The samples'
    gaps are computed a batch at a time from one word table per batch.

    A polynomial mixes word lengths, so T cannot be rescaled as in the word
    search.  A T with ||T||^max_len outside the normal doubles, whose word
    products would overflow or lose their digits, raises PreconditionError
    naming ||T||.  More than SEARCH_SAMPLES_CAP samples, or a max_len above
    WORD_LEN_CAP, is a CapacityError, raised before any draw.
    """
    seed = check_count(seed, "seed", least=0)
    tol = check_positive(tol, "tol")
    samples = check_count(samples, "samples", most=SEARCH_SAMPLES_CAP)
    max_len = check_count(max_len, "max_len", most=WORD_LEN_CAP)
    A = as_matrix(T, square=True)
    nrm = operator_norm(A)
    limits = np.finfo(float)
    if nrm > 0 and not limits.minexp <= max_len * math.log2(nrm) < limits.maxexp:
        raise PreconditionError(
            f"||T|| = {nrm:.3e} is out of range for the polynomial search: "
            f"||T||^{max_len} is not a normal double; rescale T"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    draws = (random_polynomial(rng, max_len) for _ in range(samples))
    best_gap = 0.0
    best_poly: dict[str, complex] | None = None
    hits = 0
    n = A.shape[0]
    for batch in _batches(draws, n):
        for p, gap in zip(batch, _polynomial_norm_gaps(A, batch).tolist()):
            scale = sum(abs(c) * nrm ** len(w) for w, c in p.items())
            if gap > _gap_cut(tol, max(map(len, p)), n) * scale:
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
