"""Finite Blaschke products, model spaces, and truncated Toeplitz operators.

The model space of a degree-n Blaschke product u carries the orthonormal
rational basis

    e_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} b_{a_j}(z)

which reduces to the monomials when every zero is 0.  In this basis the
compression A_u of multiplication by z has a closed form, and every analytic
truncated Toeplitz operator (the compression f -> P(phi f)) is phi(A_u), so
tto_matrix involves no quadrature.  Each BlaschkeProduct builds its A_u once,
read-only, so tto_matrix, the model conjugation and the cross-checks of one
u share it.

The basis of a product uv is the frame K_u + u K_v itself: element
deg(u) + k of uv's basis is u times element k of v's, identically, so
modelspace_decompose is the identity with its block labels.

Quadrature is left to the two independent cross-checks (functional
calculus and Hankel factorization).  They use uniform trapezoid sums over
the unit circle; that rule is exact for trigonometric polynomials below the
node count and spectrally accurate for the rational integrands appearing
here, and they monitor the basis Gram residual so underresolution surfaces
as an error instead of wrong numbers.  One pass of the basis recursion over
the nodes samples both the basis and u: its final prefix, prod_j b_{a_j},
is u itself.  The reciprocals and factors of all zeros come from one
broadcast each, so only the running prefix loops over the zeros.

The model conjugation samples nothing.  Its matrix solves a Stein equation
in A_u whose right-hand side is the closed-form rank-one term w d^T, and a
doubling sum over the squaring chain of A_u gives it exactly (see
model_conjugation).  The partial sum is kept as X Y^T, with Krylov blocks
X of w and Y of d that each power extends by two n x k products, until
they have n columns; and the chain stops once the tail it leaves, at most
||A_u^K||^4, is below rounding.
It still replies with the Q-node trapezoid matrix and refuses an
unresolved space, through the aliasing identity: the Q-node rule adds to
each integral the integrand's Fourier modes at the nonzero multiples of
Q, and on the model space those modes are entries of A_u^{mQ} and their
adjoints, so the Q-node Gram matrix and conjugation sums follow in closed
form from A_u^Q.  The cross-checks still sample on their own grids and
check their sampled Gram matrix, so they stay independent of A_u.

Sizes are capped before anything is allocated: a degree above
TENSOR_DIM_CAP (the n x n shift) and a space of more than SAMPLE_CAP basis
samples (degree times nodes) are CapacityErrors.  Each space is sampled
once, on first use, and serves its Gram check and every cross-check on
its grid.  A space keeps the space of each other grid that on_grid gives
it, and a space on twice the nodes of a sampled one samples only the odd
nodes: the even ones are the coarser grid's, bit for bit.

With the conjugation (C f)(z) = u(z) conj(z f(z)) every analytic truncated
Toeplitz operator is complex symmetric, and the Hankel identity (compress
phi f through the negative Fourier modes of conj(u) phi f, then multiply back
by u) gives an independent route to the same matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import AccuracyError, CapacityError, EvaluationError, InputError
from .linalg import (
    TENSOR_DIM_CAP,
    Conjugation,
    _check_instance,
    _screened_norms,
    check_count,
    operator_norm,
)

DEFAULT_QUAD = 1024
QUAD_FLOOR = 64  # quadrature nodes: at least this many,
QUAD_CAP = 1 << 20  # and at most this (16 MB per sampled row)
SAMPLE_CAP = 1 << 24  # degree x nodes of one space's samples (256 MB per n x Q array)
ZERO_MARGIN = 1e-8  # Blaschke zeros stay this far inside the disk
POLE_MARGIN = 1e-6  # rational symbol poles stay this far outside
GRAM_TOL = 1e-8
HANKEL_RESIDUAL_CAP = 1e-6  # a Hankel residual above this must fall when M doubles
STEIN_TAIL = 1e-8  # the model conjugation's chain stops at ||A^K||_F or its square this small


def _trim(coeffs) -> np.ndarray:
    try:
        c = np.asarray(coeffs, dtype=complex).ravel()
    except (TypeError, ValueError) as exc:
        raise InputError(f"symbol coefficients must be complex numbers: {exc}") from None
    if not np.isfinite(c).all():  # before trimming, which would drop a trailing NaN
        raise InputError("symbol coefficients must be finite")
    nz = c.nonzero()[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)


def _pole_moduli(d: np.ndarray):
    """The moduli of the zeros of the denominator sum_k d[k] z^k, degree >= 1.

    A linear d0 + d1 z has the one pole -d0/d1, and a quadratic the two roots
    q and c/q of its monic form z^2 + b z + c, with q = -(b +- sqrt(b^2 - 4c))/2
    signed so that the sum does not cancel; either is taken in closed form
    when every value is finite: Python's complex arithmetic and math.hypot
    overflow to inf without a warning.  Otherwise np.roots finds them; a
    companion matrix that overflows to inf or NaN is an InputError.
    """
    if d.size == 2:
        pole = complex(d[0]) / complex(d[1])
        if cmath.isfinite(pole):
            return [math.hypot(pole.real, pole.imag)]
    elif d.size == 3:
        c, b, lead = d.tolist()
        b, c = b / lead, c / lead
        root = cmath.sqrt(b * b - 4.0 * c)
        q = -0.5 * (b + root if (b.conjugate() * root).real >= 0.0 else b - root)
        poles = (q, c / q) if q else (0j, 0j)  # q = 0 only for z^2
        if all(map(cmath.isfinite, poles)):
            return [math.hypot(p.real, p.imag) for p in poles]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            poles = np.roots(d[::-1])
    except np.linalg.LinAlgError:
        raise InputError("symbol denominator too badly scaled to locate its poles") from None
    return np.abs(poles)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product, stored as its zero multiset in the open disk.

    Factor convention: b_a(z) = (a - z) / (1 - conj(a) z), except that the
    factor for a = 0 is taken as plain z, so all-zero products are exactly
    z^n.  The product is therefore fixed only up to a unimodular constant.
    """

    zeros: tuple

    def __init__(self, zeros=()):
        try:
            if isinstance(zeros, np.ndarray) and zeros.ndim == 1:
                zeros = zeros.tolist()  # Python numbers convert faster than numpy scalars
            zs = tuple(map(complex, zeros))
        except (TypeError, ValueError) as exc:
            raise InputError(f"Blaschke zeros must be complex numbers: {exc}") from None
        bad = [a for a in zs if not abs(a) <= 1.0 - ZERO_MARGIN]  # NaN and inf fail too
        if bad:
            a = bad[0]
            if not np.isfinite(a):
                raise InputError("Blaschke zero must be finite")
            raise InputError(f"Blaschke zero {a} too close to the unit circle")
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __mul__(self, other: "BlaschkeProduct") -> "BlaschkeProduct":
        return BlaschkeProduct(self.zeros + other.zeros)

    @cached_property
    def _zero_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, c, eps): the zeros, c = sqrt(1 - |a|^2) and eps = +1 at a zero
        at 0 (factor z), else -1; read once per product, read-only."""
        a = np.asarray(self.zeros, dtype=complex)
        arrays = (a, np.sqrt(1.0 - np.abs(a) ** 2), np.where(a == 0, 1.0, -1.0))
        for x in arrays:
            x.flags.writeable = False
        return arrays

    @cached_property
    def _compressed_shift(self) -> np.ndarray:
        """A_u, built once per product and read-only (see compressed_shift)."""
        A = _shift_matrix(*self._zero_arrays)
        A.flags.writeable = False
        return A

    def eval(self, z):
        pts = np.asarray(z, dtype=complex)
        out = np.ones_like(pts)
        for a in self.zeros:
            if a == 0:
                out = out * pts
                continue
            den = 1.0 - np.conj(a) * pts
            if np.any(np.abs(den) < 1e-13):
                raise EvaluationError(f"evaluation at a pole of the factor with zero {a}")
            out = out * (a - pts) / den
        return out if pts.shape else complex(out)


@dataclass(frozen=True, eq=False)
class Symbol:
    """Analytic symbol: polynomial in z, or rational with poles off the
    closed disk (modulus > 1 + 1e-6)."""

    num: np.ndarray
    den: np.ndarray

    def __init__(self, poly=None, *, num=None, den=None):
        if poly is not None:
            num, den = poly, None
        n = _trim(num)
        d = np.ones(1, dtype=complex) if den is None else _trim(den)
        if not d.any():
            raise InputError("symbol denominator is identically zero")
        # a NaN modulus fails the test too
        if d.size > 1 and not all(m >= 1.0 + POLE_MARGIN for m in _pole_moduli(d)):
            raise InputError("symbol has a pole on or too close to the closed unit disk")
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    @classmethod
    def zero(cls) -> "Symbol":
        return cls(poly=(0.0,))

    @classmethod
    def constant(cls, c) -> "Symbol":
        return cls(poly=(c,))

    @classmethod
    def shift(cls) -> "Symbol":
        return cls(poly=(0.0, 1.0))

    @property
    def is_polynomial(self) -> bool:
        return self.den.size == 1

    @property
    def poly(self) -> np.ndarray:
        if not self.is_polynomial:
            raise InputError("symbol is rational, not polynomial")
        return self.num / self.den[0]

    @property
    def degree(self) -> int:
        return max(self.num.size, self.den.size) - 1

    def eval(self, z):
        pts = np.asarray(z, dtype=complex)
        vals = npoly.polyval(pts, self.num) / npoly.polyval(pts, self.den)
        return vals if pts.shape else complex(vals)

    def __mul__(self, other: "Symbol") -> "Symbol":
        return Symbol(num=npoly.polymul(self.num, other.num), den=npoly.polymul(self.den, other.den))


def _check_quad_points(quad_points) -> int:
    """The node count as an int: below QUAD_FLOOR an InputError, above QUAD_CAP a CapacityError."""
    return check_count(quad_points, "quad_points", least=QUAD_FLOOR, most=QUAD_CAP)


@lru_cache(maxsize=4)
def _roots_of_unity(Q: int) -> np.ndarray:
    """The Q-th roots of unity, read-only: every space on Q nodes shares them."""
    nodes = np.exp(2j * np.pi * np.arange(Q) / Q)
    nodes.flags.writeable = False
    return nodes


class ModelSpace:
    """Orthonormal rational basis of H^2 minus u H^2.

    Exact operators come from the compressed shift.  The boundary samples
    of the basis and of u, used only by the quadrature routes, come from one
    pass on first use, on circle nodes shared by every space of that size:
    the basis as an (n, Q) array, one row per basis function.  A u that is
    not a BlaschkeProduct is an InputError.
    """

    def __init__(self, u: BlaschkeProduct, quad_points: int = DEFAULT_QUAD):
        self.u = _check_instance(u, BlaschkeProduct, "u")
        self.quad_points = _check_quad_points(quad_points)
        self._grids: dict[int, ModelSpace] = {}  # on_grid's spaces, by node count
        self._even = None  # the samples on every other node, from the space on half the nodes

    @property
    def dim(self) -> int:
        return self.u.degree

    @property
    def nodes(self) -> np.ndarray:
        return _roots_of_unity(self.quad_points)

    def on_grid(self, quad_points: int) -> "ModelSpace":
        """The space of u on quad_points nodes: self when its grid has them.

        Any other grid's space is built on the first call and kept here, so
        a later call for that grid (a Hankel retry at doubled truncation)
        returns it with its samples.  A space on 2P nodes, built when self
        or a kept space on P nodes has sampled, samples only its P odd
        nodes: its even nodes are the P nodes bit for bit, and so are its
        samples there (see _boundary_samples).
        """
        if quad_points == self.quad_points:
            return self
        fine = self._grids.get(quad_points)
        if fine is None:
            fine = self._grids[quad_points] = ModelSpace(self.u, quad_points)
            spaces = {self.quad_points: self, **self._grids}
            half = spaces.get(quad_points // 2) if quad_points % 2 == 0 else None
            if half is not None and "_samples" in vars(half):
                fine._even = half._samples
        return fine

    def tto(self, phi: Symbol) -> np.ndarray:
        """phi(A_u) = num(A_u) den(A_u)^{-1}, exactly.

        den(A_u) is invertible: its eigenvalues are den at the zeros of u,
        and the poles of phi lie outside the closed disk.  A polynomial
        symbol needs no solve: phi(A_u) is Horner's rule on num / den[0].
        A phi that is not a Symbol is an InputError.
        """
        _check_instance(phi, Symbol, "phi")
        A = compressed_shift(self.u)
        with np.errstate(over="ignore", invalid="ignore"):
            # num / 1 would move only the signs of zeros, which _horner clears
            if phi.is_polynomial:
                T = _horner(phi.num if phi.den[0] == 1 else phi.poly, A)
            else:
                T = np.linalg.solve(_horner(phi.den, A), _horner(phi.num, A))
        if not np.all(np.isfinite(T)):
            raise InputError("symbol too badly scaled: its truncated Toeplitz matrix overflows")
        return T

    @cached_property
    def _samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(basis, u) on the nodes, from one pass of _boundary_samples.

        A space that on_grid gave the samples on its even nodes takes only
        its odd nodes.  More than SAMPLE_CAP basis samples (degree times
        nodes) are a CapacityError, raised before any is taken.
        """
        n, Q = self.dim, self.quad_points
        if n * Q > SAMPLE_CAP:
            raise CapacityError(
                f"{n} basis functions on {Q} nodes exceed the sampling cap of {SAMPLE_CAP} basis samples"
            )
        if self._even is None:
            return _boundary_samples(self.u, self.nodes)
        even, self._even = self._even, None
        basis, u = np.empty((n, Q), dtype=complex), np.empty(Q, dtype=complex)
        basis[:, ::2], u[::2] = even
        basis[:, 1::2], u[1::2] = _boundary_samples(self.u, self.nodes[1::2])
        return basis, u

    @property
    def basis_samples(self) -> np.ndarray:
        return self._samples[0]

    @property
    def u_samples(self) -> np.ndarray:
        return self._samples[1]

    @cached_property
    def _conj_basis(self) -> np.ndarray:
        """conj(basis_samples), shared by the Gram check, projections and compressions."""
        return self.basis_samples.conj()

    @cached_property
    def _gram_defect(self) -> np.ndarray:
        """The sampled Gram matrix minus I."""
        G = self.basis_samples @ self._conj_basis.T / self.quad_points
        return G - np.eye(self.dim)

    @cached_property
    def gram_residual(self) -> float:
        return operator_norm(self._gram_defect)

    def require_resolved(self) -> "ModelSpace":
        """self, or an AccuracyError when gram_residual exceeds GRAM_TOL,
        screened by ``_screened_norms``: an SVD only where the Frobenius norm cannot decide."""
        _require_gram_residual(_screened_norms(self._gram_defect[None], GRAM_TOL)[0])
        return self

    def _on_nodes(self, samples, ndims: tuple) -> np.ndarray:
        """samples as an array of ndim in ndims whose last axis has quad_points
        entries; any other shape is an InputError."""
        s = np.asarray(samples)
        if s.ndim not in ndims or s.shape[-1] != self.quad_points:
            raise InputError(f"expected samples on the {self.quad_points} nodes, got shape {s.shape}")
        return s

    def project(self, samples) -> np.ndarray:
        """Coefficients of the projection of boundary samples onto the basis:
        (n,) for one row of Q samples, (n, m) for (m, Q) rows."""
        rows = self._on_nodes(samples, (1, 2)).astype(complex, copy=False)
        return self._conj_basis @ rows.T / self.quad_points

    def compress(self, multiplier_samples) -> np.ndarray:
        """Matrix of f -> P(m f) on the basis, for the Q boundary samples of m."""
        m = self._on_nodes(multiplier_samples, (1,))
        return (self._conj_basis * m) @ self.basis_samples.T / self.quad_points


def _boundary_samples(u: BlaschkeProduct, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(basis, u) at the nodes z, from one pass of the basis recursion.

    The reciprocals 1 / (1 - conj(a) z) and the factors b_a(z) of all zeros
    come from one broadcast each (a zero at 0 has reciprocal 1 and factor
    z).  Only the running prefix prod_{j<k} b_{a_j} loops, one product per
    zero, in the factors' rows; the basis is prefix times reciprocal times
    sqrt(1 - |a|^2), in place, and the last prefix is u.  Every sample
    depends on its own node alone, so a node's samples have the same bits
    whatever nodes are sampled with it.
    """
    a, c, eps = u._zero_arrays
    n = len(a)
    a = a[:, None]
    E = np.multiply(a.conj(), z)
    np.subtract(1.0, E, out=E)
    np.reciprocal(E, out=E)
    F = np.subtract(a, z)
    F *= E
    F[eps > 0] = z
    for j in range(1, n):
        np.multiply(F[j - 1], F[j], out=F[j])
    E *= c[:, None]
    E[1:] *= F[:-1]
    return E, F[-1].copy() if n else np.ones(len(z), dtype=complex)


def _require_gram_residual(residual: float) -> None:
    if residual > GRAM_TOL:
        raise AccuracyError(
            f"basis Gram residual {residual:.3e} above {GRAM_TOL:.1e}; raise quad_points"
        )


def _horner(coeffs: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] A^k: the leading coefficient times I, then P @ A plus
    each lower coefficient on the diagonal, in place.

    The final + 0.0 turns the negative zeros that P @ A leaves off the
    diagonal into +0, so an entry that is exactly zero prints as 0.0.  Only
    the signs of such zeros depend on where the chain starts (a signed zero
    changes no nonzero sum or product), so starting from 0 @ A would give
    the same bytes.
    """
    n = A.shape[0]
    P = np.zeros((n, n), dtype=complex)
    P.reshape(-1)[:: n + 1] = coeffs[-1]
    for c in coeffs[-2::-1]:
        P = P @ A
        P.reshape(-1)[:: n + 1] += c
    P += 0.0
    return P


def compressed_shift(u: BlaschkeProduct) -> np.ndarray:
    """The compression A_u of multiplication by z, in closed form.

    A_u is a contraction generating all analytic truncated Toeplitz operators
    on the space.  In the basis above it is lower triangular with diagonal
    a_i and, for i > j,

        A_ij = c_i c_j eps_j prod_{j<k<i} (-conj(a_k) eps_k),

    where c = sqrt(1 - |a|^2) and eps_k = +1 when a_k = 0 (factor z), else -1
    (factor (a - z) / (1 - conj(a) z)).  The product builds it once, so
    every route on one u shares the same read-only array.  A degree above
    TENSOR_DIM_CAP is a CapacityError, raised before any allocation, and a
    u that is not a BlaschkeProduct an InputError.
    """
    return _check_instance(u, BlaschkeProduct, "u")._compressed_shift


def _shift_matrix(a: np.ndarray, c: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """A_u for the zero arrays of BlaschkeProduct._zero_arrays, from one
    cumprod down the columns of an array of steps."""
    n = a.size
    if n > TENSOR_DIM_CAP:
        raise CapacityError(f"Blaschke degree {n} exceeds the dimension cap {TENSOR_DIM_CAP}")
    # column j of S is 1 above row j, c_j eps_j at row j and step_i at each
    # row i > j, so the cumprod R has R[i-1, j] = A_ij / c_i for i > j,
    # multiplied in the closed form's order
    i = np.arange(n)
    lower = i[:, None] > i
    S = np.where(lower, (-np.conj(a) * eps)[:, None], 1.0 + 0j)
    S.reshape(-1)[:: n + 1] = c * eps
    R = S.cumprod(axis=0)
    A = np.zeros((n, n), dtype=complex)
    np.multiply(R[:-1], c[1:, None], out=A[1:], where=lower[1:])
    A.reshape(-1)[:: n + 1] = a
    return A


def tto_matrix(u: BlaschkeProduct, phi: Symbol, quad_points: int = DEFAULT_QUAD) -> np.ndarray:
    """Matrix of f -> P(phi f) on the orthonormal basis of the model space.

    Computed exactly as phi(A_u) (see ModelSpace.tto); the result does not
    depend on quad_points, which sizes only the space's quadrature grid.
    """
    return ModelSpace(u, quad_points).tto(phi)


def fn_calculus_check(u: BlaschkeProduct, phi: Symbol, quad_points: int = DEFAULT_QUAD) -> float:
    """|| phi(A_u) - quadrature compression of phi || for polynomial phi.

    Compares the exact functional calculus of tto_matrix against the
    independent circle-quadrature route at quad_points nodes.
    """
    if not _check_instance(phi, Symbol, "phi").is_polynomial:
        raise InputError("functional calculus check requires a polynomial symbol")
    ms = ModelSpace(u, quad_points).require_resolved()
    return _fn_calculus_residual(ms, phi.eval(ms.nodes), ms.tto(phi))


def _fn_calculus_residual(ms: ModelSpace, on_nodes: np.ndarray, direct: np.ndarray) -> float:
    """fn_calculus_check's residual for a polynomial symbol phi, whose samples
    on ms's nodes are on_nodes and whose matrix phi(A_u) is direct, on the
    resolved space ms."""
    return operator_norm(direct - ms.compress(on_nodes))


def _aliasing(power: np.ndarray) -> np.ndarray:
    """D = P + P^H with P = A^k (I - A^k)^{-1}, for A^k = A_u^k.

    The k-node trapezoid rule adds to each integral over the circle the
    integrand's Fourier modes at the nonzero multiples of k.  On K_u those
    modes are the entries of A_u^{mk} (m > 0) and of their adjoints (m < 0),
    and the two geometric series sum to P and P^H.  So the k-node Gram
    matrix is I + D^T, and the k-node conjugation matrix is (I + D) G with G
    the exact one.  I - A^k is invertible: A_u's eigenvalues are the zeros.
    """
    P = np.linalg.solve(np.eye(power.shape[0]) - power, power)
    return P + P.conj().T


def model_conjugation(u: BlaschkeProduct, quad_points: int = DEFAULT_QUAD) -> Conjugation:
    """The conjugation (C f)(z) = u(z) conj(z f(z)) of the model space.

    Every truncated Toeplitz operator on the space, analytic or not, is
    symmetric under it.  For u = z^n it is the basis flip z^k -> z^{n-1-k}.

    Its matrix G_jk = <C e_k, e_j> solves a Stein equation in closed form.
    The kernel at 0 is k_0 = P_u 1, with coordinates d_j = conj(e_j(0)) =
    c_j prod_{i<j} conj(a_i), and I - A A^H = d d^H.  Its image C k_0 = S^* u
    has coordinates w_j = eps_j c_j prod_{i>j} a_i (c and eps as in
    compressed_shift).  C A C = A^H gives G conj(A) = A^H G, hence

        G - A^H G A^T = w d^T,   G = sum_{m>=0} (A^H)^m w d^T (A^T)^m,

    a convergent sum since A's eigenvalues are the zeros.  Its corner is
    G_{n-1,0} = eps_{n-1} c_0 c_{n-1} / (1 - a_0 conj(a_{n-1})).  Nothing is
    sampled.  The sum runs over the squaring chain P = A, A^2, A^4, ..., A^K.
    After it, the partial sum holds the terms m < 2K, and the terms left are
    exactly (A^H)^{2K} G (A^T)^{2K}, of norm at most ||A^{2K}||^2 <=
    ||A^K||^4 since ||G|| = 1.

    The right-hand side has rank one, so the partial sum over m < k is
    exactly X Y^T with X = [w, A^H w, ..., (A^H)^{k-1} w] and
    Y = [d, A d, ..., A^{k-1} d], and the power P = A^k doubles k: X gains
    the columns P^H X and Y gains P Y, two n x k products.  While X has
    fewer than n columns the chain's powers extend X and Y; then G = X Y^T
    is formed once, and each remaining power takes G += P^H G P^T.

    The matrix returned is the Q = quad_points node trapezoid rule's,
    (I + D_Q) G with D_Q from _aliasing.  The chain stops at the first K
    with ||A^K||_F^2 <= STEIN_TAIL = 1e-8 when 4K <= Q: the tail is then at
    most 1e-16, and as A is a contraction ||A^Q|| <= ||A^K||^4 <= 1e-16, so
    D_Q is below rounding and is not formed.  Otherwise it stops at the
    first K with ||A^K||_F <= STEIN_TAIL, and D_Q is formed once the chain
    reaches Q/2 < K <= Q; the space is refused as unresolved when ||D_Q||,
    the Q-node Gram residual, exceeds GRAM_TOL.  The sum is taken only
    after the chain, so a refused space spends nothing on it.  Each residual
    is screened at GRAM_TOL (``_screened_norms``).  A level whose norm
    cannot stop the chain takes none: A's eigenvalues are the zeros, so ||A^K||_F^2 >=
    rho^{2K} with rho = max |a_j|, and while rho^{2K} > 2 STEIN_TAIL both
    tests fail (the factor 2 absorbs the rounding of the power and of
    rho^{2K}), so the chain stops where the norm of every level would stop
    it.  w and d come from one cumprod, and the unitarity defect is
    G G^H with 1 taken off its diagonal in place.
    """
    Q = _check_quad_points(quad_points)
    A = compressed_shift(u)
    floor = max(map(abs, u.zeros), default=0.0) ** 2  # rho^{2K} <= ||A^K||_F^2, here at K = 1
    powers, DQ = [A], None  # powers[i] = A^K with K = 2^i
    while True:
        P, K = powers[-1], 1 << (len(powers) - 1)
        if DQ is None and 2 * K > Q:  # A^Q from the chain, as matrix_power(A, Q) multiplies it
            DQ = _aliasing(reduce(np.matmul, [X for i, X in enumerate(powers) if Q >> i & 1]))
            _require_gram_residual(_screened_norms(DQ[None], GRAM_TOL)[0])
        if floor <= 2 * STEIN_TAIL:  # above it, ||P||_F^2 > STEIN_TAIL and neither test passes
            tail = np.vdot(P, P).real  # ||P||_F^2
            if tail <= STEIN_TAIL**2 or (tail <= STEIN_TAIL and 4 * K <= Q):
                break
        powers.append(P @ P)
        floor *= floor
    a, c, eps = u._zero_arrays
    n = u.degree
    X = np.empty((n, max(2 * n, 1)), dtype=complex)
    Y = np.empty_like(X)
    # row 0: 1, a_{n-1}, ..., a_0 and row 1: 1, conj(a_0), ..., conj(a_{n-1}),
    # whose running products give w (reversed) and d
    prods = np.ones((2, n + 1), dtype=complex)
    prods[0, 1:] = a[::-1]
    np.conj(a, out=prods[1, 1:])
    prods.cumprod(axis=1, out=prods)
    X[:, 0] = eps * c * prods[0, -2::-1]  # w
    Y[:, 0] = c * prods[1, :-1]  # d
    k = 1
    for P in powers:
        if k >= n:
            break
        np.matmul(P.conj().T, X[:, :k], out=X[:, k : 2 * k])
        np.matmul(P, Y[:, :k], out=Y[:, k : 2 * k])
        k *= 2
    G = X[:, :k] @ Y[:, :k].T
    for P in powers[k.bit_length() - 1 :]:  # the powers past A^{k/2}
        G += P.conj().T @ G @ P.T
    if DQ is not None:
        G = (np.eye(n) + DQ) @ G
    G = 0.5 * (G + G.T)  # G is symmetric; this makes it so bit for bit
    C = Conjugation(G)
    defect = G @ G.conj().T
    defect.reshape(-1)[:: n + 1] -= 1.0
    if _screened_norms(defect[None], GRAM_TOL)[0] > GRAM_TOL:
        raise AccuracyError("conjugation matrix failed its unitarity check; raise quad_points")
    return C


def _fine_grid(quad_points: int, M: int) -> int:
    """The node count of the Hankel route at truncation M on a quad_points grid:
    fine enough for M Fourier modes, and never coarser than the grid itself."""
    return max(4 * M, quad_points, DEFAULT_QUAD)


def verify_hankel_factorization(
    u: BlaschkeProduct, phi: Symbol, M: int, quad_points: int = DEFAULT_QUAD
) -> float:
    """Residual of the factorization (TTO) = (multiply by u) o (Hankel section).

    Each basis function is expanded in its first M Taylor coefficients (one
    FFT of its samples on the fine grid), pushed through the finite Hankel
    section of conj(u) phi into negative modes, evaluated on the
    quad_points nodes by one FFT (see _hankel_route_residual), multiplied
    back by u, and compressed to the model space by the trapezoid rule; the
    result is compared against tto_matrix.  M is an integer >= 64.  If the
    residual exceeds HANKEL_RESIDUAL_CAP and does not decrease when M
    doubles, the truncation is not converging and an accuracy error is raised.
    """
    M = check_count(M, "Hankel truncation M", least=64)
    ms = ModelSpace(u, quad_points).require_resolved()
    return _hankel_check(ms, phi, M, ms.tto(phi))


def _hankel_check(
    ms: ModelSpace, phi: Symbol, M: int, direct: np.ndarray, on_nodes: np.ndarray | None = None
) -> float:
    """verify_hankel_factorization's residual for phi, whose matrix is direct,
    on the resolved space ms; the doubled truncation runs only when the
    residual exceeds the cap, and an AccuracyError when it does not fall.
    on_nodes, if given, is phi on ms's nodes (see _hankel_route_residual)."""
    residual = _hankel_route_residual(ms, phi, M, direct, on_nodes)
    if (
        residual > HANKEL_RESIDUAL_CAP
        and _hankel_route_residual(ms, phi, 2 * M, direct, on_nodes) >= residual
    ):
        raise AccuracyError(f"Hankel residual {residual:.3e} did not decrease at doubled truncation")
    return residual


def _hankel_route_residual(
    ms: ModelSpace, phi: Symbol, M: int, direct: np.ndarray, on_nodes: np.ndarray | None = None
) -> float:
    """Residual of the Hankel route on the space ms against direct, at truncation M.

    The M x M section of the Hankel operator with symbol psi = conj(u) phi
    takes the Taylor coefficients t_c, c = 0..M-1, of e_j to its modes
    -(r+1), r = 0..M-1:

        negative[j, r] = sum_c t_c psi_hat(-(r+c+1)) = sum_c t_c v[r+c],

    where t and the coefficients v[k] = psi_hat(-(k+1)), k = 0..2M-2, come
    from FFTs on the _fine_grid nodes, fine enough that aliasing sits far
    below the truncation error; that grid is ms's own when ms has enough
    nodes, and phi is then sampled there only if on_nodes, phi on ms's
    nodes, is not given.  That is a correlation, taken by one FFT of
    length 2M of v and of the reversed Taylor rows: entry M-1+r of their
    circular convolution is negative[j, r], and no wrap-around reaches it.
    On the Q = ms.quad_points nodes z_q the image is then
    u(z_q) conj(z_q) sum_r negative[j, r] conj(z_q)^r.  That sum is a DFT:
    conj(z_q)^r depends only on r mod Q, so the modes are folded modulo Q and
    evaluated by one FFT of length Q, which zero-pads M <= Q modes itself.
    A degree-0 space has no basis, and its residual is 0.
    """
    Q = ms.quad_points
    fine = ms.on_grid(_fine_grid(Q, M))
    # f_hat(k) = fft(f)[k] / Qf, the negative modes aliased to Qf + k; only
    # the coefficients read are divided
    Qf = fine.quad_points
    reversed_taylor = np.fft.fft(fine.basis_samples)[:, M - 1 :: -1] / Qf
    psi = on_nodes if fine is ms and on_nodes is not None else phi.eval(fine.nodes)
    v = np.fft.fft(np.conj(fine.u_samples) * psi)[-1 : -2 * M : -1] / Qf
    spectrum = np.fft.fft(reversed_taylor, 2 * M) * np.fft.fft(v, 2 * M)
    negative = np.fft.ifft(spectrum)[:, M - 1 : 2 * M - 1]
    n, folds = len(negative), -(-M // Q)
    if folds > 1:
        padded = np.zeros((n, folds * Q), dtype=complex)
        padded[:, :M] = negative
        negative = padded.reshape(n, folds, Q).sum(axis=1)
    images = ms.u_samples * np.conj(ms.nodes) * np.fft.fft(negative, Q)
    return operator_norm(ms.project(images) - direct)


def modelspace_decompose(
    u: BlaschkeProduct,
    v: BlaschkeProduct,
    w: BlaschkeProduct | None = None,
    quad_points: int = DEFAULT_QUAD,
):
    """Unitary identification of the model space of uv (or uvw) with the
    orthogonal frame K_u, u K_v (and u v K_w).

    Returns (Q, blocks): Q's columns are the frame functions in the
    coordinates of the big space's own basis, so Q maps frame coordinates to
    basis coordinates; blocks lists (label, dimension) in frame order.  The
    basis of a product is that frame in that order (element deg(u) + k of
    uv's basis is u times element k of v's), so Q is exactly the identity.
    quad_points is range-checked as by the quadrature routes and not used;
    a u, v or w that is not a BlaschkeProduct is an InputError.
    """
    _check_quad_points(quad_points)
    for name, b in (("u", u), ("v", v), ("w", w)):
        if not (name == "w" and b is None):
            _check_instance(b, BlaschkeProduct, name)
    blocks = [("K_u", u.degree), ("u*K_v", v.degree)]
    if w is not None:
        blocks.append(("u*v*K_w", w.degree))
    return np.eye(sum(dim for _, dim in blocks), dtype=complex), blocks
