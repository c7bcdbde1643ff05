"""Orthonormal frames and the numerical linear algebra kernel.

Subspaces of C^N are represented by frames: matrices with orthonormal
columns spanning the subspace. All higher layers (symplectic forms,
reductions, index computations) are built on the operations here:
orthonormalization, intersections, sums, complements, gap distances,
relative indices of projections, and inertia counts of Hermitian
matrices.

Conventions
-----------
The inner product is <x, y> = sum_j x_j * conj(y_j), i.e. ``y^H x`` for
column vectors. A sesquilinear form phi (linear in the first argument,
conjugate linear in the second) is stored in a basis {e_i} as the matrix
Phi[i, j] = phi(e_j, e_i), so that phi(x, y) = y^H Phi x in coordinates.
With this convention a form is Hermitian exactly when its matrix is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.linalg

__all__ = [
    "RANK_TOL",
    "Frame",
    "Projection",
    "HermitianMatrix",
    "default_zero_tol",
    "orthonormalize",
    "intersect",
    "subspace_sum",
    "orth_complement",
    "gap_delta",
    "gap_hat",
    "minimum_gap",
    "relative_index",
    "fredholm_pair_index",
    "hermitian_eig",
    "morse_counts",
]

# Relative rank cutoff: singular values below RANK_TOL * sigma_max are
# treated as zero throughout the package.
RANK_TOL = 1e-8

_ORTHO_TOL = 1e-12


def default_zero_tol(a) -> float:
    """Zero threshold for eigenvalues of the matrix ``a``.

    Scales with the matrix norm but never shrinks below the absolute
    floor 1e-9, so that near-zero spectra of small matrices are still
    classified sensibly.
    """
    a = np.asarray(a)
    scale = np.linalg.norm(a, 2) if a.size else 0.0
    return 1e-9 * max(1.0, scale)


@dataclass(frozen=True)
class Frame:
    """Orthonormal basis of a subspace of C^N, stored as N x k columns.

    Parameters
    ----------
    matrix : ndarray
        Complex N x k matrix whose columns are orthonormal to 1e-12.
        k = 0 encodes the zero subspace.

    Notes
    -----
    Frames are value objects; operations return new frames. Use
    :func:`orthonormalize` to build a frame from a general spanning set.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError("frame matrix must be 2-dimensional")
        n, k = m.shape
        if k > n:
            raise ValueError(f"frame has {k} columns in ambient dimension {n}")
        if k > 0:
            res = m.conj().T @ m - np.eye(k)
            if np.max(np.abs(res)) > _ORTHO_TOL:
                raise ValueError(
                    "frame columns are not orthonormal "
                    f"(residual {np.max(np.abs(res)):.3e})"
                )
        object.__setattr__(self, "matrix", m)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def _of_orthonormal(cls, m: np.ndarray) -> "Frame":
        """Frame of a complex 2-D array whose columns come out of an SVD.

        LAPACK already returns those columns orthonormal to roundoff, so
        the construction check is skipped.
        """
        frame = object.__new__(cls)
        object.__setattr__(frame, "matrix", m)
        return frame

    @staticmethod
    def empty(ambient_dim: int) -> "Frame":
        return Frame(np.zeros((ambient_dim, 0), dtype=complex))

    @staticmethod
    def full(ambient_dim: int) -> "Frame":
        return Frame(np.eye(ambient_dim, dtype=complex))

    @staticmethod
    def span(*vectors) -> "Frame":
        """Frame spanned by the given vectors (orthonormalized)."""
        cols = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
        return orthonormalize(cols)

    def projector(self) -> np.ndarray:
        """Orthogonal projection matrix onto the subspace."""
        return self.matrix @ self.matrix.conj().T


@dataclass(frozen=True)
class Projection:
    """Idempotent matrix P (not necessarily orthogonal), P^2 = P to 1e-10."""

    matrix: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=complex)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("projection must be a square matrix")
        scale = max(1.0, np.linalg.norm(p, 2))
        res = np.max(np.abs(p @ p - p))
        if res > 1e-10 * scale:
            raise ValueError(f"matrix is not idempotent (residual {res:.3e})")
        object.__setattr__(self, "matrix", p)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    def range(self, rank_tol: float = RANK_TOL) -> Frame:
        return orthonormalize(self.matrix, rank_tol)

    def kernel(self, rank_tol: float = RANK_TOL) -> Frame:
        n = self.ambient_dim
        return orthonormalize(np.eye(n) - self.matrix, rank_tol)


@dataclass(frozen=True)
class HermitianMatrix:
    """Hermitian matrix wrapper; symmetrizes (A + A^H)/2 at construction.

    Construction fails if the anti-Hermitian part exceeds 1e-12 relative
    to the norm; use :meth:`from_symmetrized` for matrices obtained from
    finite differences, where larger symmetrization is expected and
    harmless.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("Hermitian matrix must be square")
        sym = (a + a.conj().T) / 2.0
        defect = np.max(np.abs(a - sym)) if a.size else 0.0
        if exceeds_scaled_tol(defect, a, 1e-12):
            raise ValueError(
                "matrix is not Hermitian to working precision "
                f"(residual {defect:.3e})"
            )
        object.__setattr__(self, "matrix", sym)

    @staticmethod
    def from_symmetrized(a) -> "HermitianMatrix":
        a = np.asarray(a, dtype=complex)
        return HermitianMatrix((a + a.conj().T) / 2.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return hermitian_eig(self.matrix)[0]


def exceeds_scaled_tol(defect, a: np.ndarray, tol: float) -> bool:
    """Whether ``defect > tol * max(1, ||a||_2)``: the relative Hermiticity gate.

    The 2-norm costs an SVD, so it is taken only when the defect is not
    within ``tol``; a defect within ``tol`` passes whatever the norm is.
    A non-finite defect still reaches the norm, which raises on
    non-finite input.
    """
    return not defect <= tol and defect > tol * max(1.0, np.linalg.norm(a, 2))


def orthonormalize(matrix, rank_tol: float = RANK_TOL, scale_floor: float | None = None) -> Frame:
    """Orthonormal frame for the column span of ``matrix``.

    Singular values below ``rank_tol`` times the largest singular value
    are discarded. A zero or empty matrix yields the empty frame.

    Parameters
    ----------
    matrix : ndarray
        N x m complex matrix (m may be 0).
    rank_tol : float
        Relative rank cutoff.
    scale_floor : float, optional
        Lower bound on the reference scale for the cutoff. Pass 1.0 when
        the columns are coordinates of unit vectors and the whole matrix
        may legitimately be zero; a purely relative cutoff would then
        normalize roundoff noise into spurious directions.

    Returns
    -------
    Frame
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim == 1:
        m = m[:, None]
    n = m.shape[0]
    if m.shape[1] == 0:
        return Frame.empty(n)
    u, s = _gesvd(m)
    if s.size == 0 or s[0] == 0.0:
        return Frame.empty(n)
    reference = s[0] if scale_floor is None else max(s[0], scale_floor)
    keep = s > rank_tol * reference
    return Frame._of_orthonormal(u[:, keep])


_GESVD, _GESVD_LWORK = scipy.linalg.get_lapack_funcs(
    ("gesvd", "gesvd_lwork"), (np.zeros(1, dtype=complex),), ilp64="preferred"
)


@cache
def _gesvd_lwork(rows: int, cols: int) -> int:
    work, _ = _GESVD_LWORK(rows, cols, compute_uv=1, full_matrices=0)
    return int(work.real)


def _gesvd(m: np.ndarray):
    """U and singular values of a complex matrix by LAPACK gesvd.

    The same routine and optimal workspace that
    ``scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")``
    uses, so the same bits, with the workspace query done once per
    shape. Empty or non-finite input, or a failed decomposition, goes
    through scipy for its checks and errors.
    """
    if m.size and np.isfinite(m).all():
        u, s, _, info = _GESVD(m, compute_uv=1, full_matrices=0, lwork=_gesvd_lwork(*m.shape))
        if info == 0:
            return u, s
    u, s, _ = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    return u, s


def intersect(a: Frame, b: Frame, rank_tol: float = RANK_TOL) -> Frame:
    """Intersection of two subspaces via principal vectors.

    Principal directions whose cosine exceeds 1 - rank_tol are taken to
    lie in the intersection; the strict inequality resolves ties toward
    the smaller intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Frame.empty(a.ambient_dim)
    m = a.matrix.conj().T @ b.matrix
    u, s, _ = scipy.linalg.svd(m, full_matrices=False)
    s = np.clip(s, 0.0, 1.0)
    keep = s > 1.0 - rank_tol
    if not np.any(keep):
        return Frame.empty(a.ambient_dim)
    return orthonormalize(a.matrix @ u[:, keep], rank_tol)


def subspace_sum(a: Frame, b: Frame, rank_tol: float = RANK_TOL) -> Frame:
    """Frame for the sum a + b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return orthonormalize(np.hstack([a.matrix, b.matrix]), rank_tol)


def orth_complement(a: Frame) -> Frame:
    """Orthogonal complement of the subspace."""
    n = a.ambient_dim
    if a.dim == 0:
        return Frame.full(n)
    if a.dim == n:
        return Frame.empty(n)
    # Columns of the full SVD beyond the rank span the complement.
    u, _, _ = scipy.linalg.svd(a.matrix, full_matrices=True)
    return Frame(u[:, a.dim:])


def gap_delta(m: Frame, n: Frame) -> float:
    """One-sided gap delta(m, n) = sup_{u in S_m} dist(u, n).

    Equals the largest singular value of (I - P_n) restricted to m.
    By convention delta({0}, anything) = 0.
    """
    if m.ambient_dim != n.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if m.dim == 0:
        return 0.0
    r = m.matrix - n.matrix @ (n.matrix.conj().T @ m.matrix)
    s = scipy.linalg.svd(r, compute_uv=False)
    return float(np.clip(s[0] if s.size else 0.0, 0.0, 1.0))


def gap_hat(m: Frame, n: Frame) -> float:
    """Symmetric gap: max of the two one-sided gaps.

    Between subspaces of equal dimension the two one-sided gaps are
    equal, so only one is computed.
    """
    if m.dim == n.dim:
        return gap_delta(m, n)
    return max(gap_delta(m, n), gap_delta(n, m))


def minimum_gap(m: Frame, n: Frame, rank_tol: float = RANK_TOL) -> float:
    """Minimum gap gamma(m, n) = inf_{u in m, u not in n} dist(u, n) / dist(u, m cap n).

    Returns 1.0 when m is contained in n (including m = {0}). Positive
    whenever m + n is closed, which in finite dimensions is always.
    """
    cap = intersect(m, n, rank_tol)
    if cap.dim == m.dim:
        return 1.0
    # Part of m orthogonal to the intersection; for u = u0 + u1 with
    # u0 in m cap n and u1 in this part, dist(u, n) depends only on u1
    # and dist(u, m cap n) = |u1|.
    rest = intersect(m, orth_complement(cap), rank_tol)
    r = rest.matrix - n.matrix @ (n.matrix.conj().T @ rest.matrix)
    s = scipy.linalg.svd(r, compute_uv=False)
    val = float(s[-1]) if s.size else 1.0
    return float(np.clip(val, 0.0, 1.0))


def minimum_gap_hat(m: Frame, n: Frame, rank_tol: float = RANK_TOL) -> float:
    """Symmetrized minimum gap: min of the two one-sided values."""
    return min(minimum_gap(m, n, rank_tol), minimum_gap(n, m, rank_tol))


def relative_index(p: Projection, q: Projection, rank_tol: float = RANK_TOL) -> int:
    """Relative index [P - Q] = Index(Q P : ran P -> ran Q).

    Computed as dim ker(QP restricted to ran P) minus the codimension of
    its range in ran Q, with all ranks decided at ``rank_tol``.
    """
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    fp = p.range(rank_tol)
    fq = q.range(rank_tol)
    if fp.dim == 0:
        return -fq.dim
    if fq.dim == 0:
        return fp.dim
    t = fq.matrix.conj().T @ (q.matrix @ fp.matrix)
    s = scipy.linalg.svd(t, compute_uv=False)
    rank = int(np.sum(s > rank_tol * max(s[0], 1.0))) if s.size else 0
    ker = fp.dim - rank
    coker = fq.dim - rank
    return ker - coker


def fredholm_pair_index(m: Frame, n: Frame, rank_tol: float = RANK_TOL):
    """Intersection dimension, codimension of the sum, and their difference.

    Returns
    -------
    (int, int, int)
        (dim(m cap n), dim X / (m + n), index).
    """
    cap = intersect(m, n, rank_tol)
    total = subspace_sum(m, n, rank_tol)
    codim = m.ambient_dim - total.dim
    return cap.dim, codim, cap.dim - codim


def hermitian_eig(a):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Wraps scipy's ``eigh`` and verifies the residual ||A V - V diag|| is
    below 1e-10 times ||A||.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    vals, vecs = scipy.linalg.eigh(a)
    scale = max(np.abs(vals).max(), 1.0)
    res = np.max(np.abs(a @ vecs - vecs * vals))
    if res > 1e-10 * scale:
        raise ArithmeticError(f"eigendecomposition residual too large: {res:.3e}")
    return vals, vecs


def morse_counts(q, zero_tol: float | None = None):
    """Inertia (m_plus, m_minus, m_zero) of a Hermitian matrix.

    Eigenvalues within ``zero_tol`` of zero count as zero. The default
    tolerance scales with the matrix norm, see :func:`default_zero_tol`.
    """
    if isinstance(q, HermitianMatrix):
        q = q.matrix
    q = np.asarray(q, dtype=complex)
    if zero_tol is None:
        zero_tol = default_zero_tol(q)
    vals, _ = hermitian_eig(q)
    plus = int(np.sum(vals > zero_tol))
    minus = int(np.sum(vals < -zero_tol))
    zero = len(vals) - plus - minus
    return plus, minus, zero
