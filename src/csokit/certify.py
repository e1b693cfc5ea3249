"""Complex-symmetry certification.

An operator T is complex symmetric when T = C T* C for some conjugation C;
equivalently T G = G T^t for a symmetric unitary G.  ``find_conjugation``
decides it in this order, and every verdict it returns rests on a check
anyone can repeat: a verified G, or a word whose norm gap exceeds tol.

1. Nilpotents of order two, as ``nilpotent2_splitting`` decides from one
   SVD (||T^2|| <= tol ||T||^2 and a rank r with 2r <= n at the same tol):
   an explicit G from that SVD.  A T that fails either margin goes on to
   the routes below.
2. Transpose-symmetric matrices: G = I.
3. The Hermitian-part phase test (``hermitian_phase_conjugation``): an exact
   O(n^3) candidate G, built from the eigenvectors of Re(e^{i theta} T).
4. If that G is not verified, the word-norm obstruction search.
5. The alternating-projection search over the intertwiner space
   {X : T X = X T^t}, started from the verified phase G when there is one.
   Otherwise the answer is "inconclusive".  ``intertwiner_basis`` spans
   that space by the v_k v_k^t of T's eigenvectors, in O(n^4), when T has a
   simple spectrum whose eigenvalue gaps clear the rank cut of
   ``linalg.null_space``, and by the null space of the n^2 x n^2 Kronecker
   matrix, in O(n^6), otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InputError, PreconditionError
from .linalg import (
    DEFAULT_TOL,
    Conjugation,
    as_matrix,
    check_count,
    check_seed,
    check_tol,
    column_phases,
    conjugate_by,
    direct_sum,
    null_space,
    operator_norm,
    operator_norms,
    polar_decompose,
    power_of_two_scaled,
    times_power_of_two,
    unitary_in_subspace,
)
from .words import (
    normalize_poly,
    random_polynomial,
    random_word,
    swap_letters,
    word_products,
    words_of_length,
)


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
    seed: int | None = None


def is_c_symmetric(T, C: Conjugation, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Relative residual ||T - C T* C|| / ||T|| (0 for T = 0) and its tol verdict."""
    A = as_matrix(T, square=True)
    residual = _c_residual(A, C, operator_norm(A))
    return residual <= tol, residual


def _c_residual(A: np.ndarray, C: Conjugation, nrm: float) -> float:
    """||A - C A* C|| / nrm for nrm = ||A||, and 0 for A = 0."""
    return operator_norm(A - conjugate_by(C, A.conj().T)) / nrm if nrm > 0 else 0.0


def nilpotent2_splitting(T, tol: float = DEFAULT_TOL) -> Nilpotent2Form:
    """The order-two decision: the canonical form of T if T^2 = 0 at tol.

    From one full SVD T = U diag(s) V*, with ||T|| = s_0, T has order at
    most two when ||(T / s_0)^2|| <= tol (T / s_0 formed by parts: complex
    division by a subnormal norm overflows) and its rank r = #{s_i > tol s_0}
    has 2r <= n.  A T that fails either margin raises one PreconditionError
    naming it; certify, the destructor and synthesis decide "order two" here
    and nowhere else.  W* has the columns right (V's first r columns, each
    with its largest entry made real positive), left (U's, with the same
    phases, so T right_i = s_i left_i) and rest (ker T outside ran T).
    """
    tol = check_tol(tol)
    A = as_matrix(T, square=True)
    n = A.shape[0]
    U, s, Vh = np.linalg.svd(A)
    nrm = float(s[0]) if n else 0.0
    if nrm > 0:
        unit = A.real / nrm + 1j * (A.imag / nrm)
        square = operator_norm(unit @ unit)
        if square > tol:
            raise PreconditionError(
                f"not nilpotent of order two at tol {tol:.1e}: ||T^2|| / ||T||^2 = {square:.3e}"
            )
    r = int(np.count_nonzero(s > tol * nrm))
    if 2 * r > n:
        raise PreconditionError(
            f"not nilpotent of order two at tol {tol:.1e}: numerical rank {r} exceeds half "
            f"the dimension {n} (s_{r - 1} / s_0 = {s[r - 1] / nrm:.3e})"
        )

    V = Vh.conj().T
    phases = column_phases(V[:, :r])
    right = V[:, :r] * phases
    left = U[:, :r] * phases

    # Orthonormal basis of ker T minus ran T (ran T sits inside ker T).
    kernel = V[:, r:]
    rest = np.linalg.svd(kernel - left @ (left.conj().T @ kernel))[0][:, : n - 2 * r]
    rest = rest * column_phases(rest)
    return Nilpotent2Form(np.hstack([right, left, rest]).conj().T, s[:r].copy(), n - 2 * r, nrm)


def conjugation_for_nilpotent2(form: Nilpotent2Form) -> Conjugation:
    """Explicit conjugation for T with T^2 = 0, built from its order-two form.

    In the basis [right, left, rest] of ``form`` T is [[0,0],[D,0]] (+) 0
    with D positive diagonal, so entrywise conjugation commutes with D and
    the block swap [[0,I],[I,0]] (+) I is a valid G.  It is pulled back
    through the polar factor of that basis, the nearest unitary to a basis
    that is orthonormal only to rounding (or to tol, for T nilpotent only at
    tol), so G is unitary to working precision.  The caller checks G on T.
    """
    r = form.rank
    W, _ = polar_decompose(form.W.conj().T)
    G = np.hstack([W[:, r : 2 * r], W[:, :r], W[:, 2 * r :]]) @ W.T
    return Conjugation(0.5 * (G + G.T))


def canonical_block_decomposition(
    T, tol: float = DEFAULT_TOL
) -> tuple[list[np.ndarray], np.ndarray]:
    """(blocks, W) with W unitary and W T W* = direct_sum(*blocks), for T^2 = 0.

    The blocks are one self-transpose (s/2) [[1,i],[i,-1]] per singular value
    s of T, then one 1x1 zero per leftover kernel dimension.  In the columns
    (right_1, left_1, right_2, left_2, ..., rest) of ``nilpotent2_splitting``
    each pair carries s e_2 e_1*, and Q = [[1,1],[-i,i]] / sqrt(2) takes
    that to Q (s e_2 e_1*) Q* = (s/2) [[1,i],[i,-1]]; W is that basis change
    followed by Q on every pair.  It is unitary to rounding, except that on a
    T nilpotent only at tol, ran T lies in ker T only up to that tol.
    """
    form = nilpotent2_splitting(T, tol)
    r, extra = form.rank, form.extra_kernel_dim
    rows = np.r_[np.arange(2 * r).reshape(2, r).T.ravel(), 2 * r : 2 * r + extra]
    Q = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
    W = direct_sum(np.kron(np.eye(r), Q), np.eye(extra)) @ form.W[rows]
    cell = np.array([[1.0, 1.0j], [1.0j, -1.0]], dtype=complex)
    blocks = [0.5 * sv * cell for sv in form.singular_values]
    blocks.extend(np.zeros((1, 1), dtype=complex) for _ in range(extra))
    return blocks, W


def intertwiner_basis(T) -> np.ndarray:
    """Orthonormal basis (column-major vec) of {X : T X = X T^t}.

    The space is the null space of L = I (x) T - T (x) I.  On a simple
    spectrum T = V diag(lambda) V^-1 it is span{v_k v_k^t}, as
    T v v^t = lambda v v^t = v v^t T^t, and the basis is the QR factor of
    those n vectors: one ``eig``, O(n^4) time and O(n^3) memory.  Any other
    T (0x0, repeated or clustered eigenvalues, Jordan blocks) takes
    ``linalg.null_space`` of the n^2 x n^2 matrix L, O(n^6).

    The input picks the path.  L = (V (x) V) diag(lambda_i - lambda_j)
    (V (x) V)^-1, so its n^2 - n nonzero singular values are at least
    delta (s_min(V) / s_max(V))^2, delta the least eigenvalue gap.  The
    eigenvector path runs only when that bound exceeds eps n^2 2 ||T||,
    which is at least the cut that ``null_space`` applies, eps max(rows,
    cols) s_0 = eps n^2 ||L||, so both paths return a space of the same
    dimension n.
    """
    A = as_matrix(T, square=True)
    n = A.shape[0]
    if n:
        lam, V = np.linalg.eig(A)
        gaps = np.abs(lam[:, None] - lam)
        gaps[np.diag_indices(n)] = np.inf
        s = np.linalg.svd(V, compute_uv=False)
        if gaps.min() * (s[-1] / s[0]) ** 2 > np.finfo(float).eps * n**2 * 2 * operator_norm(A):
            # column k is vec(v_k v_k^t) (symmetric, so either vec order)
            return np.linalg.qr((V[:, None, :] * V).reshape(n * n, n))[0]
    L = np.kron(np.eye(n), A) - np.kron(A, np.eye(n))
    return null_space(L)


def hermitian_phase_conjugation(T) -> Conjugation:
    """Candidate conjugation from the eigenvectors of a Hermitian part of T.

    If T = C T* C, then C commutes with H = Re(e^{i theta} T) and with
    K = Im(e^{i theta} T) for every theta.  Of theta = k pi / 8 (k = 0..7)
    the one whose H has the largest minimum eigengap is used.  On a simple
    spectrum C u_k = alpha_k u_k for the eigenvectors u_k of H, so
    G = U diag(alpha) U^t, and C K C = K asks alpha_k conj(K'_kj) =
    K'_kj alpha_j with K' = U* K U, i.e. arg K'_kj = beta_k - beta_j (mod pi)
    for alpha = e^{2 i beta}.  The phases are carried along a maximum-|K'|
    spanning forest, alpha = 1 at the root of each component.

    The result is a candidate only: a degenerate spectrum, or a T with no
    conjugation, gives a G that ``is_c_symmetric`` rejects.
    """
    A = as_matrix(T, square=True)
    n = A.shape[0]
    best_gap = -np.inf
    for k in range(8):
        Zk = np.exp(1j * np.pi * k / 8) * A
        w, Uk = np.linalg.eigh(0.5 * (Zk + Zk.conj().T))
        gap = np.min(np.diff(w), initial=np.inf)
        if gap > best_gap:
            best_gap, Z, U = gap, Zk, Uk
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


def _verified_residual(A: np.ndarray, C: Conjugation, tol: float) -> float | None:
    """The residual of C on A if C is a symmetric unitary with A = C A* C at tol."""
    if not _is_symmetric_unitary(C, tol):
        return None
    ok, residual = is_c_symmetric(A, C, tol)
    return residual if ok else None


def _is_symmetric_unitary(C: Conjugation, tol: float) -> bool:
    return C.unitarity_residual() <= tol and C.symmetry_residual() <= tol


def find_conjugation(
    T,
    budget: int = 500,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    word_max_len: int = 5,
) -> CsoCertificate:
    """Complex-symmetry decision: a verified conjugation, a word, or neither.

    A T of order two (``nilpotent2_splitting``) takes the constructive
    route, whose conjugation is reported only when it is verified at tol;
    otherwise the result is "inconclusive" with its residual.  Any other T
    takes the general routes: G = I if T is transpose-symmetric, else the
    Hermitian-part phase conjugation.  If that is not verified at tol, the
    word-norm obstruction search runs first and a violating word gives
    "obstructed".  Then a symmetric unitary is sought in the intertwiner
    space by alternating projection, started from the verified phase G (if
    any), the identity and the flip, then from seeded random starts; every
    candidate is re-verified before being reported.  "inconclusive" is a
    valid outcome.
    """
    seed = check_seed(seed)
    tol = check_tol(tol)
    budget = check_count(budget, "budget")
    A = as_matrix(T, square=True)
    n = A.shape[0]

    try:
        form = nilpotent2_splitting(A, tol)
    except PreconditionError:
        pass  # not of order two: the general routes below decide
    else:
        C = conjugation_for_nilpotent2(form)
        residual = _c_residual(A, C, form.norm)
        if not (residual <= tol and _is_symmetric_unitary(C, tol)):
            return CsoCertificate("inconclusive", residual=residual, seed=seed)
        return CsoCertificate("c_symmetric", residual, conjugation=C, seed=seed)

    nrm = operator_norm(A)
    if nrm > 0 and operator_norm(A - A.T) <= tol * nrm:
        C = Conjugation.identity(n)
        return CsoCertificate("c_symmetric", _c_residual(A, C, nrm), conjugation=C, seed=seed)

    phase = hermitian_phase_conjugation(A)
    initial = (np.eye(n, dtype=complex), np.eye(n, dtype=complex)[::-1])
    if _verified_residual(A, phase, tol) is not None:
        initial = (phase.matrix, *initial)
    else:
        found = word_obstruction_search(A, max_len=word_max_len, tol=tol)
        if found is not None:
            word, gap = found
            return CsoCertificate(
                "obstructed", residual=gap, obstruction_word=word, obstruction_gap=gap, seed=seed
            )

    basis = intertwiner_basis(A)
    if basis.size:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        for W in unitary_in_subspace(basis, n, initial=initial, iters=budget, rng=rng):
            C = Conjugation(W)
            residual = _verified_residual(A, C, tol)
            if residual is not None:
                return CsoCertificate("c_symmetric", residual, conjugation=C, seed=seed)

    return CsoCertificate("inconclusive", residual=float("nan"), seed=seed)


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
    """| ||w(T,T*)|| - ||w(T*,T)|| | for each word.

    w(T*,T) is the letter-swapped word at (T, T*), so both norms come from
    one table of the words and their swaps, each multiplied out once by
    ``word_products`` and normed once by one batched SVD.
    """
    A = as_matrix(T, square=True)
    swapped = [swap_letters(w) for w in words]
    table = list(dict.fromkeys([*words, *swapped]))
    norms = dict(zip(table, operator_norms(word_products(table, A, A.conj().T))))
    return np.array([abs(norms[w] - norms[s]) for w, s in zip(words, swapped)])


def word_norm_gap(T, word: str) -> float:
    """| ||w(T,T*)|| - ||w(T*,T)|| | for a single word."""
    return float(word_norm_gaps(T, [word])[0])


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
    that T admits no conjugation; absence of one proves nothing.  The gaps
    come from ``word_norm_gaps`` one length at a time in exhaustive mode (so
    an early hit such as xxy costs only the words up to its length) and in
    batches of samples in sampled mode.

    The search runs on T scaled by a power of two to norm about 1, so its
    word products neither overflow nor underflow, and the gap it returns is
    taken back to T's units exactly.  A gap that overflows or underflows
    there raises PreconditionError naming ||T||.
    """
    seed = check_seed(seed)
    tol = check_tol(tol)
    max_len = check_count(max_len, "max_len")
    samples = check_count(samples, "samples")
    A, e = power_of_two_scaled(as_matrix(T, square=True))
    nrm = operator_norm(A)
    n = A.shape[0]
    if mode == "exhaustive":
        lengths = range(1, max_len + 1)
        batches = (b for length in lengths for b in _batches(words_of_length(length), n))
    elif mode == "sampled":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        batches = _batches((random_word(rng, max_len) for _ in range(samples)), n)
    else:
        raise InputError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    for batch in batches:
        gaps = word_norm_gaps(A, batch)
        hits = np.flatnonzero(gaps > np.array([tol * nrm ** len(w) for w in batch]))
        if hits.size:
            word, unit_gap = batch[hits[0]], float(gaps[hits[0]])
            gap = times_power_of_two(unit_gap, e * len(word))
            if not 0 < gap < np.inf:
                raise PreconditionError(
                    f"||T|| = {times_power_of_two(nrm, e):.3e} is out of range for the word "
                    f"norms: {word} separates T / 2^{e} by {unit_gap:.3e}, which is {gap:g} "
                    f"in T's units; rescale T"
                )
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
    nothing either way, and the result never claims more.  The samples'
    gaps are computed a batch at a time from one word table per batch.
    """
    seed = check_seed(seed)
    tol = check_tol(tol)
    samples = check_count(samples, "samples")
    max_len = check_count(max_len, "max_len")
    A = as_matrix(T, square=True)
    nrm = operator_norm(A)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    draws = (random_polynomial(rng, max_len, max_terms=max_terms) for _ in range(samples))
    best_gap = 0.0
    best_poly: dict[str, complex] | None = None
    hits = 0
    for batch in _batches(draws, A.shape[0]):
        for p, gap in zip(batch, _polynomial_norm_gaps(A, batch).tolist()):
            scale = sum(abs(c) * nrm ** len(w) for w, c in p.items())
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
