"""Spectral flow of Hermitian families and linear-relation paths.

A linear relation between X and Y is a subspace of the product X x Y;
operator graphs, their inverses, sums, compositions and adjoints all
become frame algebra in the product space. A nondegenerate pairing
between X and Y induces a symplectic form on the product under which
self-adjoint relations are exactly the Lagrangian subspaces and X x {0}
is a distinguished Lagrangian. The spectral flow of a path of
self-adjoint relations is defined as the lower Maslov count of the pair
path (A(s), X x {0}). For paths of honest Hermitian matrices the same
number is the difference n_-(A(0)) - n_-(A(1)) of the end Morse indices
(Phillips, Canad. Math. Bull. 39, 1996); the eigenvalue curves are the
sorted spectra at the samples, and the two routes share the endpoint
zero rule.

Every spectrum of a Hermitian path comes from one values-only solver
(LAPACK heevr without eigenvectors). Each end Morse index is counted
twice, from that spectrum and by Sylvester's law of inertia from one
LDL^H factorization (LAPACK hetrf) of A + _MORSE_ZERO I; an end where
the two counts differ raises ArithmeticError. Both are kept on the
path, so each end is eigen-solved and factored once however often the
flow and the curves are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.optimize

from .frames import (
    RANK_TOL,
    Frame,
    HermitianMatrix,
    _full_rank_frame,
    _heevr,
    _inertia,
    _ldl_negatives,
    _residual_svd,
    hermitian_eig,
    orthonormalize,
)
from .maslov import _ANGLE_SNAP, LagrangianPairPath, PathSample, _refined_path, maslov_winding
from .refinement import check_sample_times
from .symplectic import SymplecticForm, annihilator

__all__ = [
    "LinearRelation",
    "HermitianPath",
    "product_form",
    "canonical_product_form",
    "graph_relation",
    "horizontal_relation",
    "vertical_relation",
    "relation_parts",
    "relation_inverse",
    "relation_sum",
    "relation_compose",
    "relation_index",
    "relation_adjoint",
    "cayley",
    "eigenvalue_curves",
    "kernel_dim",
    "sf_eigen",
    "sf_relation",
]

_UNITARY_TOL = 1e-10
_SPECTRAL_MAP_TOL = 1e-9
# Winding's endpoint snap on the graph angle 2 arctan(lam), read as an
# eigenvalue threshold. It is absolute, not relative to the matrix
# scale, and sf_relation applies the same snap.
_MORSE_ZERO = math.tan(0.5 * _ANGLE_SNAP)


def product_form(tau: np.ndarray) -> SymplecticForm:
    """Symplectic form on X x Y induced by an invertible pairing matrix.

    The pairing Omega(x, y) = (tau y)^H x between X and Y induces
    omega((x1, y1), (x2, y2)) = Omega(x1, y2) - conj(Omega(x2, y1)) on
    the product, whose matrix is [[0, -tau], [tau^H, 0]].
    """
    tau = np.asarray(tau, dtype=complex)
    if tau.ndim != 2:
        raise ValueError("pairing matrix must be two-dimensional")
    p, q = tau.shape
    j = np.zeros((p + q, p + q), dtype=complex)
    j[:p, p:] = -tau
    j[p:, :p] = tau.conj().T
    return SymplecticForm(j)


def canonical_product_form(dim: int) -> SymplecticForm:
    """Product form for the standard inner-product pairing on C^dim."""
    return product_form(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class LinearRelation:
    """Subspace of X x Y regarded as a multivalued operator.

    ``subspace`` lives in C^(dim_x + dim_y) with the X coordinates
    first. The relation is the graph of an operator exactly when its
    indeterminate part {y : (0, y) in A} is trivial.
    """

    dim_x: int
    dim_y: int
    subspace: Frame

    def __post_init__(self):
        if self.dim_x < 0 or self.dim_y < 0:
            raise ValueError("ambient dimensions must be nonnegative")
        if self.subspace.ambient_dim != self.dim_x + self.dim_y:
            raise ValueError(
                f"relation frame lives in dimension {self.subspace.ambient_dim}, "
                f"expected {self.dim_x + self.dim_y}"
            )

    @property
    def dim(self) -> int:
        return self.subspace.dim


def graph_relation(m: np.ndarray) -> LinearRelation:
    """Relation {(x, Mx)} for a p x q matrix M mapping C^q to C^p.

    [I; M] has full column rank q whatever M is, so its frame comes from
    a Householder QR factorization with no rank decision
    (:func:`frames._full_rank_frame`): a cut relative to the largest
    singular value would drop directions once sigma_max(M) passes about
    1e8.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    p, q = m.shape
    stacked = np.vstack([np.eye(q, dtype=complex), m])
    return LinearRelation(q, p, _full_rank_frame(stacked))


def horizontal_relation(dim_x: int, dim_y: int) -> LinearRelation:
    """The relation X x {0}."""
    stacked = np.vstack(
        [np.eye(dim_x, dtype=complex), np.zeros((dim_y, dim_x), dtype=complex)]
    )
    return LinearRelation(dim_x, dim_y, orthonormalize(stacked))


def vertical_relation(dim_x: int, dim_y: int) -> LinearRelation:
    """The purely multivalued relation {0} x Y."""
    stacked = np.vstack(
        [np.zeros((dim_x, dim_y), dtype=complex), np.eye(dim_y, dtype=complex)]
    )
    return LinearRelation(dim_x, dim_y, orthonormalize(stacked))


def _projection_parts(a: Frame, fibre: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Image of a under the coordinate projection with kernel ``fibre``,
    and a cap fibre, from the one SVD of a - P_fibre a that
    :func:`intersect` reads.

    Directions whose sine is at most ``RANK_TOL`` span a cap fibre; the
    other left singular vectors span the image, so the two dimensions
    add up to dim a.
    """
    if a.dim == 0:
        return a.matrix, a.matrix
    u, sines, vh = _residual_svd(a, fibre)
    meets = sines <= RANK_TOL
    return u[:, ~meets], a.matrix @ vh[meets].conj().T


def relation_parts(r: LinearRelation) -> tuple[Frame, Frame, Frame, Frame]:
    """Domain, range, kernel and indeterminate part of a relation.

    The domain and range are the coordinate projections of the
    subspace; the kernel collects x with (x, 0) in the relation and the
    indeterminate part collects y with (0, y) in it. Domain and kernel
    are frames in X, range and indeterminate part are frames in Y.

    Each projection decides its image and its kernel pairs by one rank
    decision, the principal-angle sines of the relation against the
    projection's fibre, so dim domain + dim indeterminate and
    dim range + dim kernel both equal dim A.
    """
    eye = np.eye(r.dim_x + r.dim_y, dtype=complex)
    dom, indet_pairs = _projection_parts(r.subspace, Frame(eye[:, r.dim_x :]))
    rng, ker_pairs = _projection_parts(r.subspace, Frame(eye[:, : r.dim_x]))
    return (
        Frame._of_orthonormal(dom[: r.dim_x]),
        Frame._of_orthonormal(rng[r.dim_x :]),
        orthonormalize(ker_pairs[: r.dim_x]),
        orthonormalize(indet_pairs[r.dim_x :]),
    )


def relation_inverse(r: LinearRelation) -> LinearRelation:
    """The relation {(y, x) : (x, y) in A} between Y and X."""
    mat = r.subspace.matrix
    swapped = np.vstack([mat[r.dim_x :, :], mat[: r.dim_x, :]])
    return LinearRelation(r.dim_y, r.dim_x, Frame(swapped))


def _fiber_nullspace(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {(u, v) : a u = b v} as stacked coefficients."""
    if a.shape[1] + b.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    return scipy.linalg.null_space(np.hstack([a, -b]), rcond=RANK_TOL)


def relation_sum(a: LinearRelation, b: LinearRelation) -> LinearRelation:
    """Pointwise sum {(x, y + z) : (x, y) in A, (x, z) in B}."""
    if (a.dim_x, a.dim_y) != (b.dim_x, b.dim_y):
        raise ValueError("relation ambients differ")
    mat_a, mat_b = a.subspace.matrix, b.subspace.matrix
    coeffs = _fiber_nullspace(mat_a[: a.dim_x, :], mat_b[: b.dim_x, :])
    n_a = coeffs[: mat_a.shape[1], :]
    n_b = coeffs[mat_a.shape[1] :, :]
    stacked = np.vstack(
        [
            mat_a[: a.dim_x, :] @ n_a,
            mat_a[a.dim_x :, :] @ n_a + mat_b[b.dim_x :, :] @ n_b,
        ]
    )
    if stacked.size == 0:
        stacked = np.zeros((a.dim_x + a.dim_y, 0), dtype=complex)
    return LinearRelation(a.dim_x, a.dim_y, orthonormalize(stacked))


def relation_compose(outer: LinearRelation, inner: LinearRelation) -> LinearRelation:
    """Composite {(x, z) : (x, y) in inner, (y, z) in outer for some y}."""
    if inner.dim_y != outer.dim_x:
        raise ValueError("inner range space and outer domain space differ")
    mat_i, mat_o = inner.subspace.matrix, outer.subspace.matrix
    coeffs = _fiber_nullspace(mat_i[inner.dim_x :, :], mat_o[: outer.dim_x, :])
    n_i = coeffs[: mat_i.shape[1], :]
    n_o = coeffs[mat_i.shape[1] :, :]
    stacked = np.vstack(
        [mat_i[: inner.dim_x, :] @ n_i, mat_o[outer.dim_x :, :] @ n_o]
    )
    if stacked.size == 0:
        stacked = np.zeros((inner.dim_x + outer.dim_y, 0), dtype=complex)
    return LinearRelation(inner.dim_x, outer.dim_y, orthonormalize(stacked))


def relation_index(r: LinearRelation) -> int:
    """Fredholm index dim ker - dim coker.

    The count uses the kernel and range of :func:`relation_parts`. The
    projection (x, y) -> y maps A onto its range with the kernel pairs
    as its kernel, and one rank decision gives both, so the index is
    dim A - dim Y by rank-nullity, for every relation.
    """
    _, rng, kernel, _ = relation_parts(r)
    return kernel.dim - (r.dim_y - rng.dim)


def relation_adjoint(form: SymplecticForm, r: LinearRelation) -> LinearRelation:
    """Adjoint relation: the annihilator of the subspace in the product form.

    For the canonical product form the adjoint of an operator graph is
    the graph of the conjugate transpose; a relation equal to its
    adjoint is precisely a Lagrangian subspace of the product.
    """
    if form.dim != r.dim_x + r.dim_y:
        raise ValueError("product form dimension does not match the relation")
    return LinearRelation(r.dim_x, r.dim_y, annihilator(form, r.subspace))


def cayley(a) -> np.ndarray:
    """Cayley transform (A - i)(A + i)^{-1} of a Hermitian matrix.

    The result is unitary and never has eigenvalue 1; its spectrum is
    the image of the spectrum of A under z -> (z - i)/(z + i). Both
    facts are verified numerically and violations raise.
    """
    mat = a.matrix if isinstance(a, HermitianMatrix) else HermitianMatrix(
        np.asarray(a, dtype=complex)
    ).matrix
    eye = np.eye(mat.shape[0], dtype=complex)
    transform = scipy.linalg.solve((mat + 1j * eye).T, (mat - 1j * eye).T).T
    defect = np.linalg.norm(transform.conj().T @ transform - eye, 2)
    if defect > _UNITARY_TOL:
        raise ArithmeticError(f"Cayley transform unitarity defect {defect:.3e}")
    vals = hermitian_eig(mat)[0]
    mapped = np.sort_complex((vals - 1j) / (vals + 1j))
    actual = np.linalg.eigvals(transform)
    cost = np.abs(mapped[:, None] - actual[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    worst = float(np.max(cost[rows, cols], initial=0.0))
    if worst > _SPECTRAL_MAP_TOL:
        raise ArithmeticError(
            f"Cayley spectral mapping mismatch {worst:.3e} exceeds {_SPECTRAL_MAP_TOL}"
        )
    return transform


def _as_hermitian(value) -> HermitianMatrix:
    if isinstance(value, HermitianMatrix):
        return value
    return HermitianMatrix(np.asarray(value, dtype=complex))


@dataclass(frozen=True)
class HermitianPath:
    """Sampled path of Hermitian matrices on [0, 1].

    ``samples`` is an ordered tuple of (s, HermitianMatrix) pairs with
    s strictly increasing from 0 to 1 and a fixed matrix dimension. An
    optional ``callback`` assembles the matrix at any s; the spectral
    flow and the eigenvalue curves read the samples only and never call
    it.
    """

    samples: tuple
    callback: Callable[[float], HermitianMatrix] | None = None

    def __post_init__(self):
        check_sample_times(s for s, _ in self.samples)
        if len({mat.dim for _, mat in self.samples}) != 1:
            raise ValueError("all samples must share one matrix dimension")

    @staticmethod
    def from_callable(fn, num_samples: int = 33) -> "HermitianPath":
        wrapped = lambda s: _as_hermitian(fn(s))
        grid = np.linspace(0.0, 1.0, num_samples)
        samples = tuple((float(s), wrapped(float(s))) for s in grid)
        return HermitianPath(samples, wrapped)

    @property
    def dim(self) -> int:
        return self.samples[0][1].dim

    @cached_property
    def _ends(self) -> tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]:
        """(spectrum, Morse index) of the first and the last sample, by :func:`_checked_end`.

        Computed on first use and kept, so each end is eigen-solved and
        factored once per path.
        """
        (_, first), (_, last) = self.samples[0], self.samples[-1]
        return _checked_end(first, "first"), _checked_end(last, "last")


def _checked_end(mat: HermitianMatrix, end: str) -> tuple[np.ndarray, int]:
    """Values-only spectrum of an end matrix A and its Morse index, counted twice.

    The Morse index is n_-(A + tau I), tau = ``_MORSE_ZERO``: the
    eigenvalues below -tau. One count reads the ascending spectrum from
    LAPACK heevr without eigenvectors; the other reads the pivots of one
    LDL^H factorization of A + tau I by Sylvester's law of inertia
    (:func:`frames._ldl_negatives`). The two algorithms share only the
    matrix, so they disagree only when an eigenvalue lies within
    roundoff of -tau, where neither count is trustworthy; that raises
    ArithmeticError naming the end and both counts. The spectrum is
    returned read-only.
    """
    vals = _heevr(mat.matrix, vectors=False)
    by_values = _inertia(vals, _MORSE_ZERO)[1]
    by_pivots = _ldl_negatives(mat.matrix, _MORSE_ZERO)
    if by_values != by_pivots:
        raise ArithmeticError(
            f"Morse index of the {end} sample is undecided: {by_values} eigenvalues "
            f"below -{_MORSE_ZERO:.3g} against {by_pivots} negative pivots of "
            f"A + {_MORSE_ZERO:.3g} I"
        )
    vals.flags.writeable = False
    return vals, by_values


def eigenvalue_curves(path: HermitianPath) -> np.ndarray:
    """Sorted spectra at the path's samples, as rows [s, lam_1 .. lam_n].

    Every row comes from one values-only solver, LAPACK heevr without
    eigenvectors (``frames._heevr(a, vectors=False)``, the values of
    ``scipy.linalg.eigvalsh``). The first and
    last rows are the end spectra that :func:`sf_eigen` checked its
    Morse indices against, kept on the path, so reading the curves after
    the flow solves no end again; they raise as :func:`sf_eigen` does.
    """
    (first, _), (last, _) = path._ends
    end = len(path.samples) - 1
    rows = []
    for i, (s, mat) in enumerate(path.samples):
        lams = first if i == 0 else last if i == end else _heevr(mat.matrix, vectors=False)
        rows.append([s, *np.sort(lams)])
    return np.array(rows)


def kernel_dim(lams: np.ndarray) -> int:
    """Number of eigenvalues within _MORSE_ZERO of zero: the kernel at an endpoint.

    The eigenvalues :func:`sf_eigen` counts neither as negative nor as
    positive, by the same rule |lam| <= ``_MORSE_ZERO`` on a given
    spectrum. :func:`sf_eigen` decides only the negative count, and
    checks it against an LDL^H factorization; the kernel count reads the
    spectrum alone.
    """
    return _inertia(lams, _MORSE_ZERO)[2]


def sf_eigen(path: HermitianPath) -> int:
    """Spectral flow of a Hermitian path: n_-(A(0)) - n_-(A(1)).

    In finite dimensions the spectral flow is the difference of the end
    Morse indices, so only the first and last samples matter. An end
    eigenvalue within the endpoint snap of zero counts as zero, as the
    lower Maslov count of the graph path against X x {0} counts it;
    :func:`sf_relation` follows the path and gives the same number.

    Each end's Morse index n_-(A + tau I), tau = ``_MORSE_ZERO``, is
    counted twice: from a values-only spectrum, and by Sylvester's law
    from the pivots of one Bunch-Kaufman LDL^H factorization of
    A + tau I. An end where the two counts differ, which takes an
    eigenvalue within roundoff of -tau, raises ArithmeticError naming
    the end and both counts. The end spectra are the end rows of
    :func:`eigenvalue_curves`; both are kept on the path, and the
    interior samples are never eigen-solved.
    """
    (_, n_first), (_, n_last) = path._ends
    return n_first - n_last


def sf_relation(entries, callback=None) -> int:
    """Spectral flow of a path of self-adjoint linear relations.

    ``entries`` is an ordered list of (s, SymplecticForm, LinearRelation)
    with each form living on the product space and each relation
    Lagrangian for its form; ``callback`` optionally evaluates
    (form, relation) off-grid. With a callback, entries too far apart
    for the sampling-adequacy gate get callback values inserted between
    them, as in :meth:`LagrangianPairPath.from_callable`; without one,
    such entries raise. The value is the lower Maslov count of the pair
    path (A(s), X x {0}), which needs no operator conversion and accepts
    purely multivalued samples.
    """
    if len(entries) < 2:
        raise ValueError("a relation path needs at least two entries")
    dims = {(rel.dim_x, rel.dim_y) for _, _, rel in entries}
    if len(dims) != 1:
        raise ValueError("all relations must share one ambient pair")
    dim_x, dim_y = dims.pop()
    if dim_x != dim_y:
        raise ValueError(
            "spectral flow needs dim X = dim Y so that X x {0} is Lagrangian"
        )
    horizontal = horizontal_relation(dim_x, dim_y).subspace
    samples = tuple(
        PathSample(float(s), form, rel.subspace, horizontal)
        for s, form, rel in entries
    )
    if callback is None:
        path = LagrangianPairPath(samples)
    else:
        def pair_callback(s: float):
            form, rel = callback(s)
            return form, rel.subspace, horizontal

        path = _refined_path(samples, pair_callback)
    return maslov_winding(path).mas_minus
