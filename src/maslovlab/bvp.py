"""Discretized first-order Hamiltonian boundary value problems.

This module instantiates the spectral-flow identities on operators

    A(s) u = J0 u' + C(s, t) u         on the interval [0, T],

with J0 a constant invertible skew-Hermitian matrix and C(s, t) Hermitian,
closed by a Lagrangian boundary condition in the trace space of values
(u(0), u(T)). It provides

* the Green form on the trace space, obtained by integration by parts,
* Cauchy data spaces as graphs of the monodromy (adaptive RK integration),
* Hermitian finite-difference discretizations of the closed operator,
* :func:`desuspension_check`, comparing the spectral flow of the
  discretized family against minus the Maslov index of the pair
  (boundary condition, Cauchy data) in the trace space, and
* :func:`splitting_check`, comparing the spectral flow of the periodic
  problem against minus the Maslov index of the two half-interval Cauchy
  data spaces paired at an interior cut.

Both checks return the two integers side by side together with an
agreement flag; they are computed by independent routes and their
equality is the point of the exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from .frames import Frame, HermitianMatrix, exceeds_scaled_tol, orthonormalize
from .maslov import LagrangianPairPath, PathSample, maslov_winding
from .spectral import HermitianPath, eigenvalue_curves, flow_of_curves
from .symplectic import SymplecticForm, classify

__all__ = [
    "HamiltonianFamily",
    "BoundaryCondition",
    "periodic_condition",
    "graph_condition",
    "separated_condition",
    "green_form",
    "propagator",
    "cauchy_data",
    "discretize",
    "desuspension_check",
    "splitting_check",
]

_SKEW_TOL = 1e-12
_HERMITICITY_TOL = 1e-10
_GRAPH_TOL = 1e-10
_PAIRING_DRIFT_TOL = 1e-7
_DEFAULT_ODE_TOL = 1e-10

# Central difference weights for u'(t): one-sided radius r uses the
# classical antisymmetric stencil of order 2r. The interior of the
# twisted-circulant realization runs at order six so that the periodic
# eigenvalue gates hold on moderate grids.
_STENCIL6 = ((1, 3.0 / 4.0), (2, -3.0 / 20.0), (3, 1.0 / 60.0))


@dataclass(frozen=True)
class HamiltonianFamily:
    """Family A(s) u = J0 u' + C(s, t) u on [0, t_end].

    Parameters
    ----------
    dim : int
        Fiber dimension k; states are curves in C^k.
    j0 : ndarray
        Constant invertible skew-Hermitian k x k matrix.
    c : callable
        ``c(s, t)`` returning a Hermitian k x k matrix; s is the family
        parameter in [0, 1], t the interval variable in [0, t_end].
    t_end : float
        Right endpoint T of the interval.
    """

    dim: int
    j0: np.ndarray
    c: Callable[[float, float], np.ndarray]
    t_end: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("fiber dimension must be at least 1")
        j0 = np.asarray(self.j0, dtype=complex)
        if j0.shape != (self.dim, self.dim):
            raise ValueError(
                f"j0 has shape {j0.shape}, expected ({self.dim}, {self.dim})"
            )
        scale = max(1.0, np.linalg.norm(j0, 2))
        if np.max(np.abs(j0 + j0.conj().T)) > _SKEW_TOL * scale:
            raise ValueError("j0 must be skew-Hermitian")
        sv = np.linalg.svd(j0, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise ValueError("j0 must be invertible")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        object.__setattr__(self, "j0", j0)


@dataclass(frozen=True)
class BoundaryCondition:
    """Lagrangian subspace of the trace space C^k + C^k of (u(0), u(T)).

    The frame must span a half-dimensional subspace; the Lagrangian
    property depends on J0 and is checked against the Green form of a
    concrete family when the condition is used.
    """

    lagrangian: Frame

    def __post_init__(self):
        amb = self.lagrangian.ambient_dim
        if amb % 2 != 0:
            raise ValueError("trace space dimension must be even")
        if self.lagrangian.dim != amb // 2:
            raise ValueError(
                "boundary condition must be half-dimensional "
                f"(got {self.lagrangian.dim} in ambient {amb})"
            )


def periodic_condition(fam: HamiltonianFamily) -> BoundaryCondition:
    """Diagonal condition u(T) = u(0)."""
    return graph_condition(fam, np.eye(fam.dim))


def graph_condition(fam: HamiltonianFamily, g) -> BoundaryCondition:
    """Condition u(T) = G u(0) for an invertible matrix G.

    The graph is Lagrangian exactly when G preserves the J0 pairing,
    G^H J0 G = J0; that is verified against the Green form on use, not
    here.
    """
    g = np.asarray(g, dtype=complex)
    k = fam.dim
    if g.shape != (k, k):
        raise ValueError(f"graph matrix has shape {g.shape}, expected ({k}, {k})")
    return BoundaryCondition(orthonormalize(np.vstack([np.eye(k), g])))


def separated_condition(fam: HamiltonianFamily, start: Frame, end: Frame) -> BoundaryCondition:
    """Condition u(0) in ``start``, u(T) in ``end``.

    The two subspaces must have complementary dimensions; the product is
    Lagrangian when both factors are J0-isotropic of matching size.
    """
    k = fam.dim
    if start.ambient_dim != k or end.ambient_dim != k:
        raise ValueError("endpoint subspaces must live in the fiber C^k")
    if start.dim + end.dim != k:
        raise ValueError(
            "endpoint dimensions must sum to the fiber dimension "
            f"(got {start.dim} + {end.dim} != {k})"
        )
    block = np.zeros((2 * k, k), dtype=complex)
    block[:k, : start.dim] = start.matrix
    block[k:, start.dim :] = end.matrix
    return BoundaryCondition(Frame(block))


def green_form(fam: HamiltonianFamily) -> SymplecticForm:
    """Green form of the family on the trace space C^k + C^k.

    Integration by parts for J0 d/dt gives

        omega((x0, x1), (y0, y1)) = <J0 x1, y1> - <J0 x0, y0>,

    whose matrix is blockdiag(-J0, +J0) in the convention
    omega(x, y) = y^H J x used throughout.
    """
    return SymplecticForm(scipy.linalg.block_diag(-fam.j0, fam.j0))


def _c_matrix(fam: HamiltonianFamily, s: float, t: float) -> np.ndarray:
    c = np.asarray(fam.c(s, t), dtype=complex)
    if c.shape != (fam.dim, fam.dim):
        raise ValueError(
            f"coefficient C({s}, {t}) has shape {c.shape}, "
            f"expected ({fam.dim}, {fam.dim})"
        )
    if exceeds_scaled_tol(np.max(np.abs(c - c.conj().T)), c, _HERMITICITY_TOL):
        raise ValueError(f"coefficient C({s}, {t}) is not Hermitian")
    return (c + c.conj().T) / 2.0


def _check_boundary(fam: HamiltonianFamily, bc: BoundaryCondition) -> None:
    if bc.lagrangian.ambient_dim != 2 * fam.dim:
        raise ValueError(
            f"boundary condition lives in C^{bc.lagrangian.ambient_dim}, "
            f"the family's trace space is C^{2 * fam.dim}"
        )
    kind = classify(green_form(fam), bc.lagrangian)
    if kind != "lagrangian":
        raise ValueError(
            f"boundary condition must be Lagrangian for the Green form (got '{kind}')"
        )


def propagator(
    fam: HamiltonianFamily,
    s: float,
    t_from: float,
    t_to: float,
    ode_tol: float = _DEFAULT_ODE_TOL,
) -> np.ndarray:
    """Propagator Phi(t_to <- t_from) of J0 u' + C(s, t) u = 0.

    Integrates the matrix equation Phi' = -J0^{-1} C(s, t) Phi with an
    adaptive Runge-Kutta method at local tolerance ``ode_tol``; backward
    propagation (t_to < t_from) is allowed. The result preserves the J0
    pairing, Phi^H J0 Phi = J0; drift beyond 1e-7 (relative), or a loss
    of invertibility, is reported as an integration failure.
    """
    k = fam.dim
    if t_to == t_from:
        return np.eye(k, dtype=complex)
    lu = scipy.linalg.lu_factor(fam.j0)

    def rhs(t, y):
        m = y.reshape(k, k)
        return -scipy.linalg.lu_solve(lu, _c_matrix(fam, s, t) @ m).ravel()

    sol = solve_ivp(
        rhs,
        (t_from, t_to),
        np.eye(k, dtype=complex).ravel(),
        method="DOP853",
        rtol=ode_tol,
        atol=ode_tol,
    )
    if not sol.success:
        raise ArithmeticError(f"propagator integration failed: {sol.message}")
    phi = sol.y[:, -1].reshape(k, k)
    scale = np.linalg.norm(fam.j0, 2)
    drift = np.linalg.norm(phi.conj().T @ fam.j0 @ phi - fam.j0, 2)
    if drift > _PAIRING_DRIFT_TOL * scale:
        raise ArithmeticError(
            f"propagator lost the J0 pairing (drift {drift:.3e}); "
            "tighten ode_tol"
        )
    sv = np.linalg.svd(phi, compute_uv=False)
    if sv[-1] <= 1e-8 * sv[0]:
        raise ArithmeticError("propagator is numerically singular")
    return phi


def cauchy_data(
    fam: HamiltonianFamily, s: float, ode_tol: float = _DEFAULT_ODE_TOL
) -> Frame:
    """Cauchy data space {(v, Phi_s(T) v)} as a frame in C^{2k}.

    The space collects the boundary traces of all solutions of
    J0 u' + C(s, t) u = 0; it is the graph of the monodromy and is
    Lagrangian for the Green form, which is asserted.
    """
    phi = propagator(fam, s, 0.0, fam.t_end, ode_tol)
    frame = orthonormalize(np.vstack([np.eye(fam.dim, dtype=complex), phi]))
    kind = classify(green_form(fam), frame)
    if kind != "lagrangian":
        raise ArithmeticError(
            f"cauchy data failed the Lagrangian check (classified '{kind}')"
        )
    return frame


def _unitary_graph(
    bc: BoundaryCondition, fam: HamiltonianFamily
) -> np.ndarray | None:
    """Unitary G with bc = graph(G) and [G, J0] = 0, or None.

    Conditions of this shape (the periodic condition in particular)
    admit an exact twisted-circulant discretization; the returned matrix
    is polar-projected so later assembly is Hermitian to roundoff.
    """
    k = fam.dim
    m = bc.lagrangian.matrix
    x0, x1 = m[:k], m[k:]
    sv = np.linalg.svd(x0, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-8 * max(sv[0], 1.0):
        return None
    g = np.linalg.solve(x0.conj().T, x1.conj().T).conj().T
    if np.linalg.norm(g.conj().T @ g - np.eye(k), 2) > _GRAPH_TOL:
        return None
    if np.linalg.norm(g @ fam.j0 - fam.j0 @ g, 2) > _GRAPH_TOL * np.linalg.norm(
        fam.j0, 2
    ):
        return None
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def _fold_matrix(
    fam: HamiltonianFamily, g: np.ndarray, grid: int, s: float
) -> HermitianMatrix:
    """Sixth-order stencil on M nodes with ghost closure u_{M+j} = G u_j.

    Hermitian because the stencil is antisymmetric, J0 is skew, and G is
    unitary and commutes with J0. The closure carries full interior
    accuracy when the coefficient matches the twist at the seam,
    C(s, T) G = G C(s, 0); otherwise it loses local order there but
    remains Hermitian, which is all the integer outputs need.

    The node count must be odd. On an even circulant the alternating
    grid vector is a null mode of every centered difference, so it would
    ride the coefficient exactly like the constant mode and duplicate
    every zero crossing of the spectrum; odd counts keep the difference
    symbol bounded away from zero on all nonconstant modes.
    """
    k = fam.dim
    grid = grid if grid % 2 == 1 else grid + 1
    h = fam.t_end / grid
    # blocks[j, i] is the k x k block coupling node j to node i. With
    # grid >= 7 the offsets +-1, +-2, +-3 are distinct mod grid, so each
    # block receives one term and the sum matches any assembly order.
    blocks = np.zeros((grid, grid, k, k), dtype=complex)
    nodes = np.arange(grid)
    blocks[nodes, nodes] += [_c_matrix(fam, s, j * h) for j in range(grid)]
    gh = g.conj().T
    for r, w in _STENCIL6:
        for sign in (1, -1):
            block = (sign * w / h) * fam.j0
            target = nodes + sign * r
            inside = (target >= 0) & (target < grid)
            wrapped = block @ g if sign > 0 else block @ gh
            blocks[nodes[inside], target[inside]] += block
            blocks[nodes[~inside], target[~inside] % grid] += wrapped
    a = blocks.transpose(0, 2, 1, 3).reshape(grid * k, grid * k)
    return _gated_hermitian(a)


def _sbp_matrix_core(grid: int) -> np.ndarray:
    """Summation-by-parts difference matrix Q on grid+1 nodes.

    Q is the dimensionless antisymmetric-plus-corner matrix with
    Q + Q^T = diag(-1, 0, ..., 0, 1); against the quadrature weights
    (h/2 at the ends, h inside), D = diag(w)^{-1} Q is the classical
    second-order differentiation matrix with one-sided ends.
    """
    n = grid + 1
    q = np.zeros((n, n))
    for j in range(grid):
        q[j, j + 1] = 0.5
        q[j + 1, j] = -0.5
    q[0, 0] = -0.5
    q[n - 1, n - 1] = 0.5
    return q


def _trace_basis(bc: BoundaryCondition, k: int, nodes: int) -> np.ndarray:
    """Orthonormal basis of grid functions whose trace lies in bc.

    Columns: the interior coordinate vectors, then the bc frame placed
    on the two end nodes. The groups have disjoint support, so the
    result is orthonormal.
    """
    interior = (nodes - 2) * k
    m = bc.lagrangian.matrix
    p = np.zeros((nodes * k, interior + bc.lagrangian.dim), dtype=complex)
    p[k : (nodes - 1) * k, :interior] = np.eye(interior)
    p[:k, interior:] = m[:k]
    p[(nodes - 1) * k :, interior:] = m[k:]
    return p


def _sbp_matrix(
    fam: HamiltonianFamily, bc: BoundaryCondition, grid: int, s: float
) -> HermitianMatrix:
    """Compressed summation-by-parts realization on grid+1 nodes.

    Assembles kron(Q, J0) plus the weighted coefficient blocks,
    compresses onto the bc-compatible trace subspace, and whitens by the
    diagonal quadrature metric. The corner contribution of Q pairs the
    traces by the Green form, which vanishes on the Lagrangian bc; the
    compressed matrix is therefore Hermitian to roundoff.
    """
    k = fam.dim
    nodes = grid + 1
    h = fam.t_end / grid
    a = np.kron(_sbp_matrix_core(grid), fam.j0)
    weights = np.full(nodes, h)
    weights[0] = weights[-1] = h / 2.0
    for j in range(nodes):
        rows = slice(j * k, (j + 1) * k)
        a[rows, rows] += weights[j] * _c_matrix(fam, s, j * h)
    p = _trace_basis(bc, k, nodes)
    a_c = p.conj().T @ a @ p
    metric = np.concatenate(
        [np.repeat(weights[1:-1], k), np.full(bc.lagrangian.dim, h / 2.0)]
    )
    d = 1.0 / np.sqrt(metric)
    return _gated_hermitian(d[:, None] * a_c * d[None, :])


def _gated_hermitian(a: np.ndarray) -> HermitianMatrix:
    defect = np.max(np.abs(a - a.conj().T))
    if exceeds_scaled_tol(defect, a, _HERMITICITY_TOL):
        raise ArithmeticError(
            f"discretized operator is not Hermitian (residual {defect:.3e})"
        )
    return HermitianMatrix.from_symmetrized(a)


BoundaryPath = Union[BoundaryCondition, Callable[[float], BoundaryCondition]]


def _boundary_callable(bc: BoundaryPath) -> Callable[[float], BoundaryCondition]:
    if isinstance(bc, BoundaryCondition):
        return lambda s: bc
    return bc


def _assembler(
    fam: HamiltonianFamily,
    bc_path: Callable[[float], BoundaryCondition],
    grid: int,
    probe: tuple[BoundaryCondition, ...],
) -> Callable[[float], HermitianMatrix]:
    """Pick one realization for the whole path and return its builder."""
    if grid < 7:
        raise ValueError("grid must be at least 7 for the difference stencils")
    if all(_unitary_graph(c, fam) is not None for c in probe):

        def build(s: float) -> HermitianMatrix:
            g = _unitary_graph(bc_path(s), fam)
            if g is None:
                raise ValueError(
                    "boundary path left the unitary-graph class between samples"
                )
            return _fold_matrix(fam, g, grid, s)

        return build
    return lambda s: _sbp_matrix(fam, bc_path(s), grid, s)


def discretize(
    fam: HamiltonianFamily,
    bc: BoundaryCondition,
    grid: int = 64,
    num_samples: int = 33,
) -> HermitianPath:
    """Hermitian matrix path s -> discretization of A(s) under bc.

    Uses the sixth-order twisted circulant when bc is the graph of a
    unitary commuting with J0 (on ``grid`` nodes, bumped to ``grid + 1``
    for even counts to keep the difference symbol injective), and the
    compressed summation-by-parts realization on ``grid + 1`` nodes
    otherwise. The path carries a refinement callback, so downstream
    eigenvalue bookkeeping can subdivide.
    """
    _check_boundary(fam, bc)
    build = _assembler(fam, _boundary_callable(bc), grid, (bc,))
    return HermitianPath.from_callable(build, num_samples)


def desuspension_check(
    fam: HamiltonianFamily,
    bc: BoundaryPath,
    grid: int = 64,
    num_samples: int = 33,
    ode_tol: float = _DEFAULT_ODE_TOL,
) -> tuple[int, int, bool]:
    """Spectral flow against minus the boundary Maslov index.

    Computes, by independent routes,

    * sf: the spectral flow of the discretized family under bc(s), and
    * neg_mas: minus the Maslov index of the Lagrangian pair path
      (bc(s), cauchy_data(s)) under the Green form,

    and returns (sf, neg_mas, sf == neg_mas). The two integers agree for
    families satisfying the stated invariants; the flag reports it.

    Notes
    -----
    The Hermitian central-difference realizations carry a
    reversed-orientation parasite branch on bounded grids (the spectrum
    reflected through the boundary data). Coefficient-driven families
    move the true and parasite branches in parallel, keeping the
    near-zero window clean; spectral flow driven purely by a rotating
    boundary condition can be cancelled by a parasite crossing, in which
    case the flag reports the mismatch rather than hiding it. For the
    same reason keep coefficient norms below about 2.2 pi / T: past that
    the parasite branch crosses zero, on grids of 33, 64 and 129 nodes
    alike, so refining the grid does not move the threshold.
    """
    return _desuspension(fam, bc, grid, num_samples, ode_tol)[0]


def _desuspension(
    fam: HamiltonianFamily,
    bc: BoundaryPath,
    grid: int = 64,
    num_samples: int = 33,
    ode_tol: float = _DEFAULT_ODE_TOL,
) -> tuple[tuple[int, int, bool], np.ndarray]:
    """:func:`desuspension_check` and the eigenvalue curves its flow came from."""
    bc_path = _boundary_callable(bc)
    grid_s = np.linspace(0.0, 1.0, num_samples)
    probe = tuple(bc_path(float(t)) for t in grid_s)
    for cond in probe:
        _check_boundary(fam, cond)
    build = _assembler(fam, bc_path, grid, probe)
    curves = eigenvalue_curves(HermitianPath.from_callable(build, num_samples))
    sf = flow_of_curves(curves)

    form = green_form(fam)

    def pair(t: float):
        return form, bc_path(t).lagrangian, cauchy_data(fam, t, ode_tol)

    samples = tuple(PathSample(float(t), *pair(float(t))) for t in grid_s)
    result = maslov_winding(LagrangianPairPath(samples, pair))
    neg_mas = -result.mas_plus
    return (sf, neg_mas, sf == neg_mas), curves


def splitting_check(
    fam: HamiltonianFamily,
    cut: float,
    grid: int = 64,
    num_samples: int = 33,
    ode_tol: float = _DEFAULT_ODE_TOL,
) -> tuple[int, int, bool]:
    """Whole-interval spectral flow against the cut Maslov index.

    The whole problem is the periodic one, u(T) = u(0). Cutting at an
    interior point doubles the fiber there: the cut trace space is
    C^k + C^k with coordinates (value at the cut, value at the base
    point) and form blockdiag(-J0, +J0). The two Cauchy data spaces

        CD_minus(s) = {(Phi_s(cut <- 0) w, w)},
        CD_plus(s)  = {(Phi_s(cut <- T) z, z)}

    intersect exactly on the periodic kernel, and the spectral flow of
    the periodic family equals minus their Maslov index. Returns
    (sf_whole, neg_mas_cut, agree).
    """
    return _splitting(fam, cut, grid, num_samples, ode_tol)[0]


def _splitting(
    fam: HamiltonianFamily,
    cut: float,
    grid: int = 64,
    num_samples: int = 33,
    ode_tol: float = _DEFAULT_ODE_TOL,
) -> tuple[tuple[int, int, bool], np.ndarray]:
    """:func:`splitting_check` and the eigenvalue curves of the periodic problem."""
    if not 0.0 < cut < fam.t_end:
        raise ValueError(f"cut must lie inside (0, {fam.t_end})")
    curves = eigenvalue_curves(
        discretize(fam, periodic_condition(fam), grid, num_samples)
    )
    sf_whole = flow_of_curves(curves)

    k = fam.dim
    eye = np.eye(k, dtype=complex)
    form = SymplecticForm(scipy.linalg.block_diag(-fam.j0, fam.j0))

    def pair(t: float):
        minus = propagator(fam, t, 0.0, cut, ode_tol)
        plus = propagator(fam, t, fam.t_end, cut, ode_tol)
        lam = orthonormalize(np.vstack([minus, eye]))
        mu = orthonormalize(np.vstack([plus, eye]))
        return form, lam, mu

    grid_s = np.linspace(0.0, 1.0, num_samples)
    samples = tuple(PathSample(float(t), *pair(float(t))) for t in grid_s)
    result = maslov_winding(LagrangianPairPath(samples, pair))
    neg_mas_cut = -result.mas_plus
    return (sf_whole, neg_mas_cut, sf_whole == neg_mas_cut), curves
