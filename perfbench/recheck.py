"""Independent checks of csokit's outputs, in plain numpy.

Each check returns None when the output holds up, or a short reason when it
does not.  None of them calls csokit: matrices, words and model-space bases
are recomputed here from the request's own inputs.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9  # csokit's default relative tolerance for certificates
UNITARY_TOL = 1e-8
SYNTHESIS_TOL = 1e-6
TTO_TOL = 1e-7
REFERENCE_QUAD = 4096


def norm2(M) -> float:
    M = np.asarray(M)
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def unitary_problem(G, symmetric: bool = False) -> str | None:
    G = np.asarray(G, dtype=complex)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        return f"not a square matrix: shape {G.shape}"
    if not np.all(np.isfinite(G)):
        return "non-finite entries"
    ru = norm2(G @ G.conj().T - np.eye(G.shape[0]))
    if ru > UNITARY_TOL:
        return f"not unitary: {ru:.2e}"
    if symmetric and norm2(G - G.T) > UNITARY_TOL:
        return f"not symmetric: {norm2(G - G.T):.2e}"
    return None


def conjugation_problem(T, G, tol: float = TOL) -> str | None:
    """G must be symmetric unitary with T G = G T^t (T = C T* C for C = G conj)."""
    bad = unitary_problem(G, symmetric=True)
    if bad:
        return bad
    T = np.asarray(T, dtype=complex)
    if G.shape != T.shape:
        return f"shape {G.shape} does not match {T.shape}"
    res = norm2(T @ G - G @ T.T) / max(norm2(T), np.finfo(float).eps)
    return f"T G != G T^t: relative residual {res:.2e}" if res > tol else None


def eval_word(word: str, X, Y) -> np.ndarray:
    M = np.eye(X.shape[0], dtype=complex)
    for letter in word:
        M = M @ (X if letter == "x" else Y)
    return M


def word_gap(T, word: str) -> float:
    """| ||w(T, T*)|| - ||w(T*, T)|| |."""
    T = np.asarray(T, dtype=complex)
    H = T.conj().T
    return abs(norm2(eval_word(word, T, H)) - norm2(eval_word(word, H, T)))


def obstruction_problem(T, word, gap) -> str | None:
    """The word's norm gap must reproduce and exceed TOL * ||T||^len(word)."""
    if not isinstance(word, str) or not word or set(word) - set("xy"):
        return f"not a word in x, y: {word!r}"
    mine = word_gap(T, word)
    if mine <= TOL * norm2(T) ** len(word):
        return f"word {word} has gap {mine:.2e}, below threshold"
    if gap is None or abs(mine - gap) > 1e-6 * mine:
        return f"reported gap {gap} does not reproduce ({mine:.6e})"
    return None


def basis_samples(zeros, nodes: np.ndarray) -> np.ndarray:
    """Orthonormal Takenaka-Malmquist basis of the model space, on the nodes.

    e_k = sqrt(1-|a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} b_j with
    b_a = (a - z) / (1 - conj(a) z), and b_0 = z (csokit's convention).
    """
    E = np.empty((len(zeros), nodes.size), dtype=complex)
    prefix = np.ones_like(nodes)
    for k, a in enumerate(zeros):
        if a == 0:
            E[k] = prefix
            prefix = prefix * nodes
        else:
            den = 1.0 - np.conj(a) * nodes
            E[k] = np.sqrt(1.0 - abs(a) ** 2) / den * prefix
            prefix = prefix * (a - nodes) / den
    return E


def tto_reference(zeros, num, den) -> np.ndarray:
    """Matrix of f -> P(phi f), phi = num/den (ascending coefficients)."""
    nodes = np.exp(2j * np.pi * np.arange(REFERENCE_QUAD) / REFERENCE_QUAD)
    E = basis_samples(zeros, nodes)
    phi = np.polynomial.polynomial.polyval(nodes, num) / np.polynomial.polynomial.polyval(nodes, den)
    return (E.conj() * phi) @ E.T / REFERENCE_QUAD


def tto_problem(A, zeros, num, den) -> str | None:
    ref = tto_reference(zeros, num, den)
    A = np.asarray(A, dtype=complex)
    if A.shape != ref.shape:
        return f"TTO shape {A.shape}, expected {ref.shape}"
    err = norm2(A - ref)
    return f"TTO differs from reference by {err:.2e}" if err > TTO_TOL * max(1.0, norm2(ref)) else None


def toeplitz_oracle(coeffs, n: int) -> np.ndarray:
    """Exact TTO of a polynomial symbol on the model space of z^n."""
    c = np.zeros(n, dtype=complex)
    m = min(n, len(coeffs))
    c[:m] = coeffs[:m]
    L = np.zeros((n, n), dtype=complex)
    for k in range(n):
        L[k:, k] = c[: n - k]
    return L


def synthesis_problem(N, W, T, zeros, num, den) -> str | None:
    """W unitary with ||W T W* - N|| <= 1e-6 ||N||, and T the TTO it names."""
    bad = unitary_problem(W)
    if bad:
        return "W " + bad
    N = np.asarray(N, dtype=complex)
    res = norm2(W @ T @ W.conj().T - N) / max(norm2(N), np.finfo(float).eps)
    if res > SYNTHESIS_TOL:
        return f"||W T W* - N|| / ||N|| = {res:.2e}"
    return tto_problem(T, zeros, num, den)


def destructor_problem(A, alpha, beta, cert, G) -> str | None:
    """Witness norms must reproduce; the verdict must be certified on A (x) B."""
    A = np.asarray(A, dtype=complex)
    B = np.zeros((3, 3), dtype=complex)
    B[0, 1], B[1, 2] = alpha, beta
    if abs(cert.norm_wB - alpha**2 * beta) > 1e-10 * alpha**2 * beta:
        return "norm of w(B, B*) does not reproduce"
    if abs(cert.norm_wB_rev - alpha * beta**2) > 1e-10 * alpha * beta**2:
        return "norm of w(B*, B) does not reproduce"
    wA = norm2(eval_word("yxx", A, A.conj().T))
    if abs(cert.norm_wA - wA) > 1e-8 * max(wA, norm2(A) ** 3):
        return "norm of w(A, A*) does not reproduce"
    T = np.kron(A, B)
    if cert.conclusion == "destroyed":
        return obstruction_problem(T, "yxx", word_gap(T, "yxx"))
    return conjugation_problem(T, G)


def model_symmetry_problem(A, G) -> str | None:
    """The model conjugation G must make the TTO A symmetric: A G = G A^t."""
    return conjugation_problem(A, G, tol=1e-8)
