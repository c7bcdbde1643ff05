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
from functools import cache, cached_property

import numpy as np
import scipy.linalg

__all__ = [
    "RANK_TOL",
    "Frame",
    "Projection",
    "HermitianMatrix",
    "orthonormalize",
    "intersect",
    "subspace_sum",
    "orth_complement",
    "gap_delta",
    "gap_hat",
    "minimum_gap",
    "relative_index",
    "fredholm_pair_index",
    "well_conditioned",
    "hermitian_eig",
    "morse_counts",
]

# Relative rank cutoff: singular values below RANK_TOL * sigma_max are
# treated as zero throughout the package.
RANK_TOL = 1e-8

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class Frame:
    """Orthonormal basis of a subspace of C^N, stored as N x k columns.

    Parameters
    ----------
    matrix : ndarray
        Complex N x k matrix of finite entries whose columns are
        orthonormal to 1e-12. k = 0 encodes the zero subspace.

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
            # A non-finite entry makes the residual non-finite, so only a
            # frame that fails the test is scanned for one.
            res = np.max(np.abs(m.conj().T @ m - np.eye(k)))
            if not res <= _ORTHO_TOL:
                if not np.isfinite(m).all():
                    raise ValueError("frame matrix has non-finite entries")
                raise ValueError(f"frame columns are not orthonormal (residual {res:.3e})")
        object.__setattr__(self, "matrix", m)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def _of_orthonormal(cls, m: np.ndarray) -> "Frame":
        """Frame of a complex 2-D array whose columns are orthonormal by construction.

        Columns that come out of an SVD are orthonormal to roundoff, and
        so are the columns of a block-diagonal array of frames, so the
        construction checks are skipped.
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
        res = np.max(np.abs(p @ p - p))
        if exceeds_scaled_tol(res, p, 1e-10):
            raise ValueError(f"matrix is not idempotent (residual {res:.3e})")
        object.__setattr__(self, "matrix", p)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    def range(self) -> Frame:
        return orthonormalize(self.matrix)

    def kernel(self) -> Frame:
        n = self.ambient_dim
        return orthonormalize(np.eye(n) - self.matrix)


@dataclass(frozen=True)
class HermitianMatrix:
    """Hermitian matrix wrapper; symmetrizes (A + A^H)/2 at construction.

    Construction fails on non-finite entries, and if the anti-Hermitian
    part exceeds 1e-12 relative to the norm; use :meth:`from_symmetrized`
    for matrices obtained from finite differences, where larger
    symmetrization is expected and harmless.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("Hermitian matrix must be square")
        if not np.isfinite(a).all():
            raise ValueError("Hermitian matrix has non-finite entries")
        sym = (a + a.conj().T) / 2.0
        defect = np.max(np.abs(a - sym)) if a.size else 0.0
        if exceeds_scaled_tol(defect, a, 1e-12):
            raise ValueError(
                "matrix is not Hermitian to working precision "
                f"(residual {defect:.3e})"
            )
        object.__setattr__(self, "matrix", sym)

    @classmethod
    def from_symmetrized(cls, a) -> "HermitianMatrix":
        """(a + a^H) / 2 of a square matrix, with no Hermitian-defect check.

        For matrices whose anti-Hermitian part is expected (finite
        differences) or gated by the caller. (a + a^H) / 2 is Hermitian
        up to the sign of zero entries, so it is stored as it is; only a
        non-square shape or non-finite entries raise.
        """
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("Hermitian matrix must be square")
        sym = (a + a.conj().T) / 2.0
        if not np.isfinite(sym).all():
            raise ValueError("Hermitian matrix has non-finite entries")
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", sym)
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues (ascending) of the checked :func:`hermitian_eig`, read-only.

        The matrix is decomposed on the first call and the values are
        kept on the object, so each matrix object is solved once.
        """
        return self._eigenvalues

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        vals = hermitian_eig(self.matrix)[0]
        vals.flags.writeable = False
        return vals


def exceeds_scaled_tol(defect, a: np.ndarray, tol: float) -> bool:
    """Whether ``defect > tol * max(1, ||a||_2)``: the relative gate of the identity checks.

    The 2-norm costs an SVD, so it is taken only when the defect is not
    within ``tol``; a defect within ``tol`` passes whatever the norm is.
    A non-finite defect still reaches the norm, which raises on
    non-finite input.
    """
    return not defect <= tol and defect > tol * max(1.0, _norm2(a))


def _norm2(a: np.ndarray):
    """||a||_2, 0 for an empty matrix; one per matrix of a stack.

    The same LAPACK call and reduction as ``np.linalg.norm(a, 2)``, so
    the same bits, without its axis handling.
    """
    return np.linalg.svd(a, compute_uv=False).max(axis=-1, initial=0.0)


def well_conditioned(m: np.ndarray) -> bool:
    """Whether ``sigma_min(m) > RANK_TOL * max(1, sigma_max(m))``: the invertibility gate.

    For a non-square matrix this asks for full rank. An empty matrix is
    not well conditioned.
    """
    return bool(_conditioned(np.linalg.svd(m, compute_uv=False)))


def _conditioned(s: np.ndarray):
    """The rule of :func:`well_conditioned` on singular values already at hand.

    On a stack of singular values, one answer per matrix along the last
    axis.
    """
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=bool)
    return s[..., -1] > RANK_TOL * np.maximum(1.0, s[..., 0])


def _block_diag(blocks) -> np.ndarray:
    """Complex block-diagonal matrix of 2-D blocks.

    The values of ``scipy.linalg.block_diag``, without its per-call
    overhead, which is most of its cost on the small blocks used here.
    """
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    row = col = 0
    for b in blocks:
        out[row : row + b.shape[0], col : col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return out


def orthonormalize(matrix, scale_floor: float | None = None) -> Frame:
    """Orthonormal frame for the column span of ``matrix``.

    Singular values below ``RANK_TOL`` times the largest singular value
    are discarded. A zero or empty matrix yields the empty frame.

    Parameters
    ----------
    matrix : ndarray
        N x m complex matrix (m may be 0).
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
    u, s, _ = _gesvd(m)
    if s.size == 0 or s[0] == 0.0:
        return Frame.empty(n)
    reference = s[0] if scale_floor is None else max(s[0], scale_floor)
    keep = s > RANK_TOL * reference
    return Frame._of_orthonormal(u[:, keep])


_GESVD, _GESVD_LWORK = scipy.linalg.get_lapack_funcs(
    ("gesvd", "gesvd_lwork"), (np.zeros(1, dtype=complex),), ilp64="preferred"
)


@cache
def _gesvd_lwork(rows: int, cols: int) -> int:
    work, _ = _GESVD_LWORK(rows, cols, compute_uv=1, full_matrices=0)
    return int(work.real)


def _gesvd(m: np.ndarray):
    """Thin SVD (U, singular values, V^H) of a complex matrix by LAPACK gesvd.

    The same routine and optimal workspace that
    ``scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")``
    uses, so the same bits, with the workspace query done once per
    shape. Empty or non-finite input, or a failed decomposition, goes
    through scipy for its checks and errors.
    """
    if m.size and np.isfinite(m).all():
        u, s, vh, info = _GESVD(m, compute_uv=1, full_matrices=0, lwork=_gesvd_lwork(*m.shape))
        if info == 0:
            return u, s, vh
    return scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")


_GEQRF, _UNGQR = scipy.linalg.get_lapack_funcs(("geqrf", "ungqr"), (np.zeros(1, dtype=complex),))


def _full_rank_frame(m: np.ndarray) -> Frame:
    """Frame of the columns of a complex N x k matrix known to have full column rank.

    The Q factor of a Householder QR factorization by LAPACK geqrf and
    ungqr, the routines ``numpy.linalg.qr`` calls, without its per-call
    overhead. It makes no rank decision, so it suits a matrix whose rank
    is known however badly conditioned it is, and its columns are
    orthonormal to roundoff, as SVD columns are. Non-finite entries
    raise ValueError.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if m.shape[1] == 0:
        return Frame.empty(m.shape[0])
    qr, tau, _, info = _GEQRF(m)
    if info == 0:
        q, _, info = _UNGQR(qr, tau)
    if info != 0:
        raise ArithmeticError(f"Householder QR failed (LAPACK info {info})")
    return Frame._of_orthonormal(q)


def _residual_svd(a: Frame, b: Frame):
    """SVD (U, sines, V^H) of a - P_b a, the part of a off b.

    Its dim a singular values are the sines of the principal angles of
    a against b, with a sine of 1 for each direction of a beyond dim b.
    Sines resolve the small angles whose cosines round to 1 (Bjorck and
    Golub, Math. Comp. 27, 1973), so every decision whether two
    subspaces share a direction reads them, against ``RANK_TOL``.
    """
    return _gesvd(a.matrix - b.matrix @ (b.matrix.conj().T @ a.matrix))


def intersect(a: Frame, b: Frame) -> Frame:
    """Intersection of two subspaces: a V for the right singular vectors V
    of a - P_b a whose sine is at most ``RANK_TOL``.

    The frame lies in a and is orthonormal by construction.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Frame.empty(a.ambient_dim)
    _, sines, vh = _residual_svd(a, b)
    return Frame._of_orthonormal(a.matrix @ vh[sines <= RANK_TOL].conj().T)


def subspace_sum(a: Frame, b: Frame) -> Frame:
    """Sum a + b: a, then the left singular vectors of b - P_a b whose
    sine exceeds ``RANK_TOL``, so dim (a + b) = dim a + dim b - dim (a cap b).

    Those columns are projected off a once more: a singular vector of
    sine s carries roundoff of order eps / s along a.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if b.dim == 0:
        return a
    u, sines, _ = _residual_svd(b, a)
    extra = u[:, sines > RANK_TOL]
    extra = extra - a.matrix @ (a.matrix.conj().T @ extra)
    return Frame._of_orthonormal(np.hstack([a.matrix, extra]))


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
    s = np.linalg.svd(r, compute_uv=False)
    return float(np.clip(s[0] if s.size else 0.0, 0.0, 1.0))


def gap_hat(m: Frame, n: Frame) -> float:
    """Symmetric gap: max of the two one-sided gaps.

    Between subspaces of equal dimension the two one-sided gaps are
    equal, so only one is computed.
    """
    if m.dim == n.dim:
        return gap_delta(m, n)
    return max(gap_delta(m, n), gap_delta(n, m))


def minimum_gap(m: Frame, n: Frame) -> float:
    """Minimum gap gamma(m, n) = inf_{u in m, u not in n} dist(u, n) / dist(u, m cap n).

    Returns 1.0 when m is contained in n (including m = {0}). Positive
    whenever m + n is closed, which in finite dimensions is always.
    """
    cap = intersect(m, n)
    if cap.dim == m.dim:
        return 1.0
    # Part of m orthogonal to the intersection; for u = u0 + u1 with
    # u0 in m cap n and u1 in this part, dist(u, n) depends only on u1
    # and dist(u, m cap n) = |u1|.
    rest = intersect(m, orth_complement(cap))
    r = rest.matrix - n.matrix @ (n.matrix.conj().T @ rest.matrix)
    s = np.linalg.svd(r, compute_uv=False)
    val = float(s[-1]) if s.size else 1.0
    return float(np.clip(val, 0.0, 1.0))


def minimum_gap_hat(m: Frame, n: Frame) -> float:
    """Symmetrized minimum gap: min of the two one-sided values."""
    return min(minimum_gap(m, n), minimum_gap(n, m))


def relative_index(p: Projection, q: Projection) -> int:
    """Relative index [P - Q] = Index(Q P : ran P -> ran Q).

    Computed as dim ker(QP restricted to ran P) minus the codimension of
    its range in ran Q, with all ranks decided at ``RANK_TOL``.
    """
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    fp = p.range()
    fq = q.range()
    if fp.dim == 0:
        return -fq.dim
    if fq.dim == 0:
        return fp.dim
    t = fq.matrix.conj().T @ (q.matrix @ fp.matrix)
    s = np.linalg.svd(t, compute_uv=False)
    rank = int(np.sum(s > RANK_TOL * max(s[0], 1.0))) if s.size else 0
    ker = fp.dim - rank
    coker = fq.dim - rank
    return ker - coker


def fredholm_pair_index(m: Frame, n: Frame):
    """Intersection dimension, codimension of the sum, and their difference.

    The one rank decision is :func:`intersect`; the codimension of the
    sum is N - dim m - dim n + dim (m cap n), so the index is
    dim m + dim n - N, as it is for every pair in finite dimension.

    Returns
    -------
    (int, int, int)
        (dim(m cap n), dim X / (m + n), index).
    """
    cap = intersect(m, n).dim
    codim = m.ambient_dim - m.dim - n.dim + cap
    return cap, codim, cap - codim


_HEEVR, _HEEVR_LWORK = scipy.linalg.get_lapack_funcs(
    ("heevr", "heevr_lwork"), (np.zeros(1, dtype=complex),)
)


@cache
def _heevr_lwork(n: int) -> dict:
    lwork, lrwork, liwork, info = _HEEVR_LWORK(n, lower=1)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    return {"lwork": int(lwork.real), "lrwork": int(lrwork), "liwork": int(liwork)}


def _heevr(a: np.ndarray, vectors: bool = True):
    """Eigenvalues and eigenvectors of a complex Hermitian matrix by LAPACK heevr.

    The same routine, lower triangle and workspace that
    ``scipy.linalg.eigh(a)`` uses, so the same bits, with the workspace
    query done once per size; with ``vectors=False``, the eigenvalues
    alone, as ``scipy.linalg.eigvalsh(a)`` gives them. Empty, non-square
    or non-finite input, or a failed decomposition, goes through scipy
    for its checks and errors.
    """
    if a.ndim == 2 and a.shape[0] == a.shape[1] and a.size and np.isfinite(a).all():
        vals, vecs, _, _, info = _HEEVR(
            a, compute_v=int(vectors), lower=1, **_heevr_lwork(a.shape[0])
        )
        if info == 0:
            return (vals, vecs) if vectors else vals
    return scipy.linalg.eigh(a, eigvals_only=not vectors)


_HETRF, _HETRF_LWORK = scipy.linalg.get_lapack_funcs(
    ("hetrf", "hetrf_lwork"), (np.zeros(1, dtype=complex),)
)


@cache
def _hetrf_lwork(n: int) -> int:
    lwork, info = _HETRF_LWORK(n, lower=1)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    return int(lwork.real)


def _ldl_negatives(a: np.ndarray, shift: float) -> int:
    """n_-(a + shift I) of a complex Hermitian matrix by Sylvester's law of inertia.

    One Bunch-Kaufman factorization P (a + shift I) P^T = L D L^H
    (LAPACK hetrf; Bunch and Kaufman, Math. Comp. 31, 1977) gives a
    block-diagonal D congruent to a + shift I, so with its inertia. A
    1 x 1 pivot is real and counts when it is negative. A 2 x 2 pivot is
    taken only where its off-diagonal entry dominates both diagonal
    ones, |d11 d22| < 0.41 |d21|^2, so it is indefinite and holds
    exactly one negative eigenvalue; hetrf marks both of its rows with a
    negative pivot index. No eigenvalue is computed.
    """
    n = a.shape[0]
    shifted = a.copy()
    shifted[np.diag_indices(n)] += shift
    ldu, ipiv, info = _HETRF(shifted, lower=1, lwork=_hetrf_lwork(n), overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of hetrf")
    paired = ipiv < 0
    return int(np.count_nonzero(paired)) // 2 + int(
        np.count_nonzero(ldu.diagonal().real[~paired] < 0.0)
    )


def hermitian_eig(a):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Decomposes as scipy's ``eigh`` does and verifies the residual
    ||A V - V diag|| is below 1e-10 times ||A||.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    vals, vecs = _heevr(a)
    scale = max(np.abs(vals).max(), 1.0)
    res = np.max(np.abs(a @ vecs - vecs * vals))
    if res > 1e-10 * scale:
        raise ArithmeticError(f"eigendecomposition residual too large: {res:.3e}")
    return vals, vecs


def morse_counts(q, zero_tol: float | None = None):
    """Inertia (m_plus, m_minus, m_zero) of a Hermitian matrix.

    Eigenvalues within ``zero_tol`` of zero count as zero. The default
    1e-9 max(1, ||q||_2) scales with the matrix norm but never shrinks
    below 1e-9, so near-zero spectra of small matrices still classify.
    """
    if isinstance(q, HermitianMatrix):
        q = q.matrix
    q = np.asarray(q, dtype=complex)
    if zero_tol is None:
        zero_tol = 1e-9 * max(1.0, np.linalg.norm(q, 2) if q.size else 0.0)
    return _inertia(hermitian_eig(q)[0], zero_tol)


def _inertia(vals: np.ndarray, zero_tol: float) -> tuple[int, int, int]:
    """(m_plus, m_minus, m_zero) of real eigenvalues, those within ``zero_tol`` of zero counting as zero."""
    plus = int(np.sum(vals > zero_tol))
    minus = int(np.sum(vals < -zero_tol))
    return plus, minus, len(vals) - plus - minus
