"""Spectral flow of Hermitian families and linear-relation paths.

A linear relation between X and Y is a subspace of the product X x Y;
operator graphs, their inverses, sums, compositions and adjoints all
become frame algebra in the product space. A nondegenerate pairing
between X and Y induces a symplectic form on the product under which
self-adjoint relations are exactly the Lagrangian subspaces and X x {0}
is a distinguished Lagrangian. The spectral flow of a path of
self-adjoint relations is defined as the lower Maslov count of the pair
path (A(s), X x {0}); for paths of honest Hermitian matrices the same
number is recovered directly from the eigenvalue curves, and the two
routes are kept comparable down to the endpoint snapping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.optimize

from .frames import (
    RANK_TOL,
    Frame,
    HermitianMatrix,
    fredholm_pair_index,
    hermitian_eig,
    intersect,
    orthonormalize,
)
from .maslov import LagrangianPairPath, PathSample, maslov_winding
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
    "sf_eigen",
    "sf_relation",
]

_UNITARY_TOL = 1e-10
_SPECTRAL_MAP_TOL = 1e-9
_TURN_SNAP = 1e-8 / (2.0 * math.pi)
_MOVEMENT_GATE = math.pi / 2.0
_MAX_REFINE_DEPTH = 40


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
    """Relation {(x, Mx)} for a p x q matrix M mapping C^q to C^p."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    p, q = m.shape
    stacked = np.vstack([np.eye(q, dtype=complex), m])
    return LinearRelation(q, p, orthonormalize(stacked))


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


def relation_parts(
    r: LinearRelation, rank_tol: float = RANK_TOL
) -> tuple[Frame, Frame, Frame, Frame]:
    """Domain, range, kernel and indeterminate part of a relation.

    The domain and range are the coordinate projections of the
    subspace; the kernel collects x with (x, 0) in the relation and the
    indeterminate part collects y with (0, y) in it. Domain and kernel
    are frames in X, range and indeterminate part are frames in Y.
    """
    mat = r.subspace.matrix
    domain = orthonormalize(mat[: r.dim_x, :], rank_tol)
    rng = orthonormalize(mat[r.dim_x :, :], rank_tol)
    horizontal = horizontal_relation(r.dim_x, r.dim_y).subspace
    vertical = vertical_relation(r.dim_x, r.dim_y).subspace
    ker_pairs = intersect(r.subspace, horizontal, rank_tol)
    indet_pairs = intersect(r.subspace, vertical, rank_tol)
    kernel = orthonormalize(ker_pairs.matrix[: r.dim_x, :], rank_tol)
    indeterminate = orthonormalize(indet_pairs.matrix[r.dim_x :, :], rank_tol)
    return domain, rng, kernel, indeterminate


def relation_inverse(r: LinearRelation) -> LinearRelation:
    """The relation {(y, x) : (x, y) in A} between Y and X."""
    mat = r.subspace.matrix
    swapped = np.vstack([mat[r.dim_x :, :], mat[: r.dim_x, :]])
    return LinearRelation(r.dim_y, r.dim_x, Frame(swapped))


def _fiber_nullspace(a: np.ndarray, b: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of {(u, v) : a u = b v} as stacked coefficients."""
    if a.shape[1] + b.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    return scipy.linalg.null_space(np.hstack([a, -b]), rcond=rank_tol)


def relation_sum(
    a: LinearRelation, b: LinearRelation, rank_tol: float = RANK_TOL
) -> LinearRelation:
    """Pointwise sum {(x, y + z) : (x, y) in A, (x, z) in B}."""
    if (a.dim_x, a.dim_y) != (b.dim_x, b.dim_y):
        raise ValueError("relation ambients differ")
    mat_a, mat_b = a.subspace.matrix, b.subspace.matrix
    coeffs = _fiber_nullspace(mat_a[: a.dim_x, :], mat_b[: b.dim_x, :], rank_tol)
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
    return LinearRelation(a.dim_x, a.dim_y, orthonormalize(stacked, rank_tol))


def relation_compose(
    outer: LinearRelation, inner: LinearRelation, rank_tol: float = RANK_TOL
) -> LinearRelation:
    """Composite {(x, z) : (x, y) in inner, (y, z) in outer for some y}."""
    if inner.dim_y != outer.dim_x:
        raise ValueError("inner range space and outer domain space differ")
    mat_i, mat_o = inner.subspace.matrix, outer.subspace.matrix
    coeffs = _fiber_nullspace(mat_i[inner.dim_x :, :], mat_o[: outer.dim_x, :], rank_tol)
    n_i = coeffs[: mat_i.shape[1], :]
    n_o = coeffs[mat_i.shape[1] :, :]
    stacked = np.vstack(
        [mat_i[: inner.dim_x, :] @ n_i, mat_o[outer.dim_x :, :] @ n_o]
    )
    if stacked.size == 0:
        stacked = np.zeros((inner.dim_x + outer.dim_y, 0), dtype=complex)
    return LinearRelation(inner.dim_x, outer.dim_y, orthonormalize(stacked, rank_tol))


def relation_index(r: LinearRelation, rank_tol: float = RANK_TOL) -> int:
    """Fredholm index dim ker - dim coker, checked by a second route.

    The direct count uses the kernel and range; independently the index
    of the subspace pair (A, X x {0}) in the product must give the same
    number, and a disagreement raises.
    """
    _, rng, kernel, _ = relation_parts(r, rank_tol)
    direct = kernel.dim - (r.dim_y - rng.dim)
    horizontal = horizontal_relation(r.dim_x, r.dim_y).subspace
    _, _, paired = fredholm_pair_index(r.subspace, horizontal, rank_tol)
    if direct != paired:
        raise ArithmeticError(
            f"relation index routes disagree: kernel/cokernel count {direct}, "
            f"pair index {paired}"
        )
    return direct


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
    mapped = np.sort_complex((hermitian_eig(mat)[0] - 1j) / (hermitian_eig(mat)[0] + 1j))
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
    optional ``callback`` evaluates the path off-grid so eigenvalue
    tracking can refine itself where the spectrum moves quickly.
    """

    samples: tuple
    callback: Callable[[float], HermitianMatrix] | None = None

    def __post_init__(self):
        if len(self.samples) < 2:
            raise ValueError("a path needs at least two samples")
        s_vals = [s for s, _ in self.samples]
        if abs(s_vals[0]) > 1e-12 or abs(s_vals[-1] - 1.0) > 1e-12:
            raise ValueError("path parameter must run from 0 to 1")
        if any(b - a <= 0 for a, b in zip(s_vals, s_vals[1:])):
            raise ValueError("sample parameters must increase strictly")
        dims = {mat.dim for _, mat in self.samples}
        if len(dims) != 1:
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


def _eval_hermitian(path: HermitianPath, s: float) -> HermitianMatrix:
    for s_i, mat in path.samples:
        if abs(s_i - s) <= 1e-13:
            return mat
    if path.callback is None:
        raise ValueError(f"no sample at s={s} and the path has no callback")
    return _as_hermitian(path.callback(s))


def _eigen_rows(path: HermitianPath, s_a, lam_a, s_b, lam_b, depth):
    """Rows (s, sorted eigenvalues) between two samples, refined as needed.

    Movement is measured on the compactified scale theta = 2 arctan
    (the eigenvalue angle of the corresponding graph Lagrangian), so a
    spectral step is acceptable exactly when the matching Maslov
    winding step would be.
    """
    theta_step = np.max(np.abs(2.0 * np.arctan(lam_b) - 2.0 * np.arctan(lam_a)))
    if theta_step < _MOVEMENT_GATE:
        return [(s_b, lam_b)]
    if path.callback is None:
        raise ValueError(
            f"insufficient sampling resolution: spectral movement {theta_step:.3f} "
            f"rad in {s_a:.6f}..{s_b:.6f} exceeds pi/2 and the path has no "
            "refinement callback"
        )
    if depth >= _MAX_REFINE_DEPTH:
        raise ValueError(
            f"insufficient sampling resolution near s={s_a:.9f}: refinement "
            "depth exhausted"
        )
    s_mid = 0.5 * (s_a + s_b)
    lam_mid = _interior_eigenvalues(_eval_hermitian(path, s_mid))
    left = _eigen_rows(path, s_a, lam_a, s_mid, lam_mid, depth + 1)
    right = _eigen_rows(path, s_mid, lam_mid, s_b, lam_b, depth + 1)
    return left + right


def _interior_eigenvalues(mat: HermitianMatrix) -> np.ndarray:
    """Sorted eigenvalues of a matrix that only feeds the movement gate."""
    return np.sort(scipy.linalg.eigvalsh(mat.matrix))


def eigenvalue_curves(path: HermitianPath) -> np.ndarray:
    """Sorted eigenvalue curves as rows [s, lam_1 .. lam_n].

    Sorted rows are the canonical continuous branch choice for
    Hermitian families; adaptive midpoint refinement keeps consecutive
    rows within the same movement gate used for Maslov winding.

    The first and last rows, which decide the spectral flow, come from
    :func:`hermitian_eig` with its residual check. Interior rows only
    feed the movement gate and come from eigenvalues alone.
    """
    first_s, first_mat = path.samples[0]
    rows = [(first_s, np.sort(first_mat.eigenvalues()))]
    last = len(path.samples) - 1
    for i, ((s_a, _), (s_b, mat_b)) in enumerate(zip(path.samples, path.samples[1:]), 1):
        lam_b = np.sort(mat_b.eigenvalues()) if i == last else _interior_eigenvalues(mat_b)
        rows.extend(_eigen_rows(path, s_a, rows[-1][1], s_b, lam_b, 0))
    return np.array([[s, *lams] for s, lams in rows])


def _floor_turns(lams: np.ndarray) -> int:
    """Sum of floor(arctan(lam)/pi) with the endpoint snapping rule."""
    turns = np.arctan(lams) / math.pi
    snapped = np.where(np.abs(turns - np.round(turns)) <= _TURN_SNAP,
                       np.round(turns), turns)
    return int(sum(math.floor(u) for u in snapped))


def sf_eigen(path: HermitianPath) -> int:
    """Spectral flow of a Hermitian path from its eigenvalue curves.

    Counts the net number of eigenvalues moving from negative to
    nonnegative, with the same floor-of-turns bookkeeping that the
    lower Maslov count applies to the graph path against X x {0}; the
    two are the same number by construction and the relation route can
    be used as an independent check.
    """
    return flow_of_curves(eigenvalue_curves(path))


def flow_of_curves(curves: np.ndarray) -> int:
    """Spectral flow read off the end rows of :func:`eigenvalue_curves`."""
    return _floor_turns(curves[-1, 1:]) - _floor_turns(curves[0, 1:])


def sf_relation(entries, callback=None, rank_tol: float = RANK_TOL) -> int:
    """Spectral flow of a path of self-adjoint linear relations.

    ``entries`` is an ordered list of (s, SymplecticForm, LinearRelation)
    with each form living on the product space and each relation
    Lagrangian for its form; ``callback`` optionally evaluates
    (form, relation) off-grid. The value is the lower Maslov count of
    the pair path (A(s), X x {0}), which needs no operator conversion
    and accepts purely multivalued samples.
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
    pair_callback = None
    if callback is not None:
        def pair_callback(s: float):
            form, rel = callback(s)
            return form, rel.subspace, horizontal
    pair_path = LagrangianPairPath(samples, pair_callback)
    return maslov_winding(pair_path, rank_tol).mas_minus
