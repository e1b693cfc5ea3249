"""Dense complex linear algebra substrate.

Matrices are plain ``numpy`` arrays of ``complex128``.  Every argument is
checked by one of four rules, each refusal a ToolkitError and never a raw
numpy exception: a matrix by ``as_matrix`` or its stack form, which share
one converter of its type, dimension and finiteness; a count by
``check_count``, a CapacityError above its cap; a tolerance or another
positive real by ``check_positive``; an argument of a given type (a
Conjugation, a Blaschke product, a symbol, a polynomial's dict) by
``_check_instance``.  A norm that only decides ||M|| <= cut is taken by
``_screened_norms``: the Frobenius norm, floored where its sum of squares
could underflow, and an SVD only where that cannot decide.  Conjugations
(conjugate-linear isometric involutions) are stored through their
symmetric unitary matrix G, acting as ``x -> G @ conj(x)``.

Tolerances are relative to the norm of the input with factor DEFAULT_TOL =
1e-9.  The decisions that the CLI's --tol reaches (``find_conjugation``, the
obstruction searches, ``nilpotent2_splitting``, ``is_c_symmetric``) accept
an explicit override; everything else uses DEFAULT_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError

DEFAULT_TOL = 1e-9

#: Hard cap on any dimension produced by :func:`tensor`; ``intertwiner_basis``
#: holds its system to the entries of the largest such product.
TENSOR_DIM_CAP = 4096

#: Caps on the obstruction searches' counts, checked before either search
#: loops.  The word search multiplies out all 2^(L+1) - 2 words of length at
#: most L = max_len, so its time doubles with each letter (131070 words at
#: the cap); the polynomial search draws ``samples`` polynomials of words of
#: length at most max_len.
WORD_LEN_CAP = 16
SEARCH_SAMPLES_CAP = 1 << 16

#: The golden-ratio conjugate, whose multiples mod 1 never repeat: the phases
#: of ``unitary_in_subspace``'s fixed combinations.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _as_array(M, what: str, least: int, most: float = math.inf) -> np.ndarray:
    """M as a complex128 array of least to most dimensions with finite entries.

    The one conversion of a caller's matrix.  Whatever numpy cannot read as
    an array of numbers (a string, a ragged list, a dict), an array of the
    wrong dimension and a non-finite entry are each an InputError.
    """
    try:
        A = np.asarray(M, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = type(M).__name__
        raise InputError(f"expected {what}; the {kind} given is not an array of numbers: {exc}") from None
    if not least <= A.ndim <= most:
        raise InputError(f"expected {what}, got array of ndim {A.ndim}")
    if not np.isfinite(A).all():
        raise InputError("matrix has non-finite entries")
    return A


def as_matrix(M, square: bool = False) -> np.ndarray:
    """Validate and convert to a 2-d complex128 array."""
    A = _as_array(M, "a matrix", 2, 2)
    if square and A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    return A


def _as_square_matrices(M) -> np.ndarray:
    """A square matrix, or a (k, n, n) stack of them, validated as complex128.

    A stack keeps its memory layout, so a transposed view multiplies as the
    same view of one matrix does.
    """
    A = _as_array(M, "a matrix or a stack of matrices", 2, 3)
    if A.shape[-1] != A.shape[-2]:
        raise InputError(f"expected square matrices, got shape {A.shape}")
    return A


def check_count(value, name: str, least: int = 1, most: float = math.inf) -> int:
    """A length, sample count, seed or dimension as an int.

    A non-integer or one below ``least`` is an InputError, and one above
    ``most`` a CapacityError.
    """
    if not isinstance(value, (int, np.integer)) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    if value > most:
        raise CapacityError(f"{name} = {value} would exceed the cap {most}")
    return int(value)


def check_positive(value, name: str) -> float:
    """A tolerance or parameter as a float; one that is not finite and positive is an InputError.

    A tolerance of zero or below turns every exact identity into a violation
    and a NaN one accepts nothing, so neither can give a meaningful verdict.
    """
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} = {value!r} is not a real number") from None
    if not 0 < value < math.inf:
        raise InputError(f"{name} = {value!r} is not finite and positive")
    return value


def _check_instance(value, kind: type, name: str):
    """value, if it is an instance of kind; otherwise an InputError naming both types."""
    if not isinstance(value, kind):
        raise InputError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def operator_norm(M) -> float:
    """Largest singular value (computed by full SVD; sizes here are small)."""
    A = as_matrix(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def operator_norms(Ms) -> np.ndarray:
    """operator_norm of each matrix in a (..., m, n) stack, from one batched SVD.

    The batched SVD runs the same LAPACK routine on each matrix, so every
    value equals operator_norm of that matrix bit for bit.  The result has
    the stack's leading shape, such as (k,) for a (k, m, n) stack.
    """
    A = _as_array(Ms, "a stack of matrices", 3)
    if A.size == 0:
        return np.zeros(A.shape[:-2])
    return np.linalg.svd(A, compute_uv=False)[..., 0]


#: A Frobenius norm at least this large has lost nothing to underflow: its
#: sum of squares is a normal double with digits to spare.
FROBENIUS_FLOOR = 2.0**-480


def _screened_norms(Ms: np.ndarray, cut: float) -> np.ndarray:
    """For each M of a (k, m, n) stack, a value that decides ||M|| <= cut.

    ||M|| <= ||M||_F, so where max(||M||_F, FROBENIUS_FLOOR) is at most cut
    it is the value and M takes no SVD; the floor covers a sum of squares
    that underflowed.  Every other M gets ||M|| from one batched SVD, with
    the bits of ``operator_norms``, and a non-finite one its InputError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is inf: normed below
        values = np.maximum(np.linalg.norm(Ms, axis=(-2, -1)), FROBENIUS_FLOOR)
    over = ~(values <= cut)
    if over.any():
        values[over] = operator_norms(Ms[over])
    return values


def power_of_two_scaled(M) -> tuple[np.ndarray, int | np.ndarray]:
    """(2^-e M, e) with 2^(e-1) <= max |Re M_ij|, |Im M_ij| < 2^e, and e = 0
    for M = 0 or empty; for a (k, m, n) stack, each matrix by its own e.

    The exponent comes from the largest part of an entry, with no SVD.  The
    scaled m x n matrix has every part in (-1, 1) and one of magnitude at
    least 1/2, so its norm lies in [1/2, sqrt(2) max(m, n)).  Scaling by a
    power of two is exact (barring subnormal entries), so a product of k
    factors of 2^-e M, and its norm, are 2^(-k e) times those of M bit for
    bit, yet neither overflows nor underflows however large or small M is.
    ``times_power_of_two`` takes such a norm back to M's units.  A stack
    gives the (k,) array of exponents, and each scaled matrix and exponent
    equal its own call's bit for bit.
    """
    A = _as_array(M, "a matrix or a stack of matrices", 2, 3)
    stack = A if A.ndim == 3 else A[None]
    k, m, n = stack.shape
    parts = np.ascontiguousarray(stack).reshape(k, m * n).view(float)  # Re and Im of each entry
    e = np.frexp(np.abs(parts).max(axis=1, initial=0.0))[1]
    down = -e[:, None, None]
    B = np.ldexp(stack.real, down) + 1j * np.ldexp(stack.imag, down)
    return (B, e) if A.ndim == 3 else (B[0], int(e[0]))


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


def _tensors(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``tensor`` of each pair of two (k, ., .) stacks, capped the same way.

    Each entry is the one product of an entry of A and an entry of B that
    np.kron forms, so each matrix equals its own pair's ``tensor`` bit for
    bit.  A product with an entry past the largest double is an InputError.
    """
    (k, m, n), (_, p, q) = A.shape, B.shape
    if max(m * p, n * q) > TENSOR_DIM_CAP:
        raise CapacityError(
            f"tensor product of shapes {A.shape[1:]} x {B.shape[1:]} exceeds the "
            f"dimension cap {TENSOR_DIM_CAP}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        products = (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(k, m * p, n * q)
    if not np.isfinite(products).all():
        raise InputError("tensor product overflows: an entry is past the largest double")
    return products


def tensor(A, B) -> np.ndarray:
    """Kronecker product, capped so row and column counts stay <= TENSOR_DIM_CAP.

    The k = 1 call of ``_tensors``.
    """
    return _tensors(as_matrix(A)[None], as_matrix(B)[None])[0]


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal direct sum; accepts 1x1 blocks as scalars."""
    mats = [as_matrix(np.atleast_2d(b)) for b in blocks]
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)), dtype=complex)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def column_phases(cols: np.ndarray) -> np.ndarray:
    """Unit factors that make each column's largest-magnitude entry real positive.

    ``cols * column_phases(cols)`` is the canonical phase choice used wherever
    a basis or frame must be deterministic; a zero column gets factor 1, and
    of tied magnitudes the first entry is the pivot.  The pivot's magnitude is
    taken by ``np.hypot`` of its parts, which equals scalar ``abs`` bit for
    bit, whereas ``np.abs`` of an array may differ from it in the last bit.
    A (k, n, c) stack gives a (k, c) array, row j that of matrix j.
    """
    phases = np.ones(cols.shape[:-2] + cols.shape[-1:], dtype=complex)
    if cols.size == 0:
        return phases
    rows = np.abs(cols).argmax(axis=-2)
    columns = np.arange(cols.shape[-1])
    if cols.ndim == 2:
        pivots = cols[rows, columns]
    else:
        pivots = cols[np.arange(len(cols))[:, None], rows, columns]
    size = np.hypot(pivots.real, pivots.imag)
    return np.divide(pivots.conj(), size, out=phases, where=size > 0)


@dataclass(frozen=True)
class Conjugation:
    """Antiunitary involution ``x -> G @ conj(x)`` with G symmetric unitary."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, square=True))

    @classmethod
    def identity(cls, n: int) -> "Conjugation":
        return cls(np.eye(check_count(n, "dimension n", least=0), dtype=complex))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.conj(_as_array(x, "a vector or a matrix", 1, 2))

    def unitarity_residual(self) -> float:
        G = self.matrix
        return operator_norm(G @ G.conj().T - np.eye(self.dim))

    def symmetry_residual(self) -> float:
        G = self.matrix
        return operator_norm(G - G.T)

    def validate(self) -> None:
        ru = self.unitarity_residual()
        rs = self.symmetry_residual()
        if ru > DEFAULT_TOL or rs > DEFAULT_TOL:
            raise InputError(
                f"matrix is not a valid conjugation: unitarity residual {ru:.3e}, "
                f"symmetry residual {rs:.3e} (tol {DEFAULT_TOL:.1e})"
            )


def _conjugation_matrix(C: Conjugation, n: int) -> np.ndarray:
    """The matrix G of C, a Conjugation on C^n; else an InputError."""
    G = _check_instance(C, Conjugation, "C").matrix
    if len(G) != n:
        raise InputError(f"size mismatch: conjugation dim {len(G)}, matrix dim {n}")
    return G


def conjugate_by(C: Conjugation, M) -> np.ndarray:
    """The linear map C o M o C, i.e. ``G @ conj(M) @ conj(G)``, of M or each M of a stack."""
    A = _as_square_matrices(M)
    G = _conjugation_matrix(C, A.shape[-1])
    return G @ A.conj() @ G.conj()


def unitary_in_subspace(members: np.ndarray):
    """Symmetric unitaries from the symmetric half of a linear matrix subspace.

    ``members`` is a (k, n, n) stack of an orthonormal basis of the
    subspace.  One SVD of their symmetric halves gives an orthonormal basis
    S_1, ..., S_m of the halves' span, cut at singular value 1e-8 (each half
    has norm at most 1); for a subspace closed under transpose, such as
    J(T), that span is its symmetric part.  If it holds an invertible
    element, a generic element is invertible, so the polar factor of the
    fixed combination sum_j e^{2 pi i j phi} / j S_j (phi the golden-ratio
    conjugate) is yielded, symmetrized, from one more SVD.  For m >= 2 a
    caller that asks for another gets that of sum_j e^{4 pi i j phi} / j S_j;
    for m = 0 nothing is yielded.  On a T just past order two at tol the
    first can miss tol where the second verifies.

    A candidate need not lie in the subspace; callers must verify each one.
    """
    k, n, _ = members.shape
    halves = 0.5 * (members + members.transpose(0, 2, 1))
    _, s, vh = np.linalg.svd(halves.reshape(k, n * n), full_matrices=False)
    S = vh[s > 1e-8]
    j = np.arange(1, len(S) + 1)
    for turn in range(1, min(len(S), 2) + 1):
        X = (np.exp(2j * np.pi * turn * _GOLDEN * j) / j) @ S
        U, _, Vh = np.linalg.svd(X.reshape(n, n))
        W = U @ Vh
        yield 0.5 * (W + W.T)
