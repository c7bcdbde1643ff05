"""Discretized first-order Hamiltonian boundary value problems.

This module instantiates the spectral-flow identities on operators

    A(s) u = J0 u' + C(s, t) u         on the interval [0, T],

with J0 a constant invertible skew-Hermitian matrix and C(s, t) Hermitian,
closed by a Lagrangian boundary condition in the trace space of values
(u(0), u(T)). It provides

* the Green form on the trace space, obtained by integration by parts,
* Cauchy data spaces as graphs of the monodromy, propagated by adaptive
  Gauss-Legendre collocation, which keeps the J0 pairing to roundoff;
  a sequence of parameters is propagated in lockstep,
* Hermitian finite-difference discretizations of the closed operator,
* :func:`desuspension_check`, comparing the spectral flow of the
  discretized family against minus the Maslov index of the pair
  (boundary condition, Cauchy data) in the trace space, and
* :func:`splitting_check`, comparing the spectral flow of the periodic
  problem against minus the Maslov index of the two half-interval Cauchy
  data spaces paired at an interior cut.

Both checks return the two integers side by side together with an
agreement flag; they are computed by independent routes and their
equality is the point of the exercise. Their spectral flow is
``sf_eigen`` of the two end operators. A family keeps its Green form and
||J0||_2, and a constant boundary condition is checked and classified
once per call.

An operator path builds what s does not move once: the twisted stencil
of a constant unitary graph, or kron(Q, J0), the quadrature weights, the
whitening metric and (for a constant condition) the trace basis of the
summation-by-parts realization. Each sample then adds the coefficient
blocks C(s, t_j) in node order and passes one Hermitian gate. Each end
operator is eigen-solved once, values only, and factored once by
LDL^H; the two Morse counts must agree, or ``sf_eigen`` raises
ArithmeticError.

The Maslov route of a check propagates its whole sample grid at once:
:func:`propagator` and :func:`cauchy_data` take a sequence of
parameters, each of which keeps its own adaptive step control, so every
Phi(s) has the bits of s propagated alone, while the stage coefficients
of all parameters pass one Hermitian check and all stage systems go
through one solve at each level of steps. The desuspension check makes
one such pass over the grid and the splitting check one per leg,
0 -> cut and T -> cut; a refinement point is a stack of one. A failure
of one parameter (a coefficient of the wrong shape or not Hermitian, a
step underflow, pairing drift, a singular monodromy, Cauchy data that
fail the Lagrangian check) is kept and raised when the path reaches
that parameter, so the earliest failing sample still decides the
error, with the message it raises alone. An exception that the
coefficient callback raises itself propagates at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
from numpy.polynomial import legendre

from .frames import (
    Frame,
    HermitianMatrix,
    _conditioned,
    exceeds_scaled_tol,
    orthonormalize,
    well_conditioned,
)
from .maslov import LagrangianPairPath, maslov_winding
from .spectral import HermitianPath, sf_eigen
from .symplectic import SymplecticForm, classify, direct_sum

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

_HERMITICITY_TOL = 1e-10
_GRAPH_TOL = 1e-10
_PAIRING_DRIFT_TOL = 1e-7
_ODE_TOL = 1e-10
# Propagator. Of 4 to 12 Gauss-Legendre stages, 8 (order 16) took the
# fewest coefficient evaluations on constant coefficients up to |C| = 6
# and on a t-periodic planar family. A step shorter than _MIN_STEP of the
# interval gives up; after an accepted step the next may grow by the
# classical factor 0.9 (tol / err)^(1 / (order + 1)), at most 4-fold.
_GAUSS_STAGES = 8
_MIN_STEP = 1e-10
_STEP_SAFETY = 0.9
_STEP_GROWTH = 4.0
_STEP_EXPONENT = 1.0 / (2 * _GAUSS_STAGES + 1)

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
        Constant invertible skew-Hermitian k x k matrix. It is checked
        by building ``SymplecticForm(j0)``, with that form's gates and
        messages; the form is kept, and :func:`green_form` is built
        from it.
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
        form = SymplecticForm(j0)
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        object.__setattr__(self, "j0", j0)
        object.__setattr__(self, "_j0_form", form)

    @cached_property
    def _green_form(self) -> SymplecticForm:
        """:func:`green_form`, built on first use and kept."""
        return direct_sum(self._j0_form, self._j0_form, signs=(-1, 1))

    @cached_property
    def _j0_norm(self) -> float:
        """||J0||_2, the largest modulus of the eigenvalues of -i J0 that the form's check keeps.

        Only gate thresholds read it: the pairing-drift gate of
        :func:`propagator` and the commutation gate of the unitary-graph
        test. No propagated or assembled bit depends on it.
        """
        return float(np.abs(self._j0_form.eig[0]).max())


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


BoundaryPath = Union[BoundaryCondition, Callable[[float], BoundaryCondition]]


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
    omega(x, y) = y^H J x used throughout. It is built once per family.
    """
    return fam._green_form


def _coefficient_rows(fam: HamiltonianFamily, params, times) -> tuple[np.ndarray, list]:
    """C(s, t) for rows of nodes, checked and symmetrized as one stack.

    Row i holds C(params[i], t) at each t of ``times[i]``. Every matrix
    must have shape (k, k) and be Hermitian to 1e-10 relative to
    max(1, ||C||_2). Returns the symmetrized stack and, for each row,
    None or the message of its failure: the first matrix of the wrong
    shape (the row's later nodes are then not evaluated), else the first
    t that is not Hermitian, in the order given. An exception raised by
    ``fam.c`` itself propagates at once.
    """
    k = fam.dim
    times = np.asarray(times, dtype=float)
    cs = np.zeros(times.shape + (k, k), dtype=complex)
    failures = [None] * len(params)
    for i, (s, row) in enumerate(zip(params, times.tolist())):
        for j, t in enumerate(row):
            c = np.asarray(fam.c(s, t), dtype=complex)
            if c.shape != (k, k):
                failures[i] = f"coefficient C({s}, {t}) has shape {c.shape}, expected ({k}, {k})"
                break
            cs[i, j] = c
    adjoints = cs.conj().swapaxes(-1, -2)
    defects = np.max(np.abs(cs - adjoints), axis=(-2, -1))
    for i, j in zip(*np.nonzero(~(defects <= _HERMITICITY_TOL))):
        if failures[i] is None and exceeds_scaled_tol(defects[i, j], cs[i, j], _HERMITICITY_TOL):
            failures[i] = f"coefficient C({params[i]}, {float(times[i, j])}) is not Hermitian"
    return (cs + adjoints) / 2.0, failures


def _coefficients(fam: HamiltonianFamily, s: float, times) -> np.ndarray:
    """C(s, t) at each t of ``times``, checked and symmetrized as one stack.

    One row of :func:`_coefficient_rows`; its failure raises ValueError.
    """
    cs, (failure,) = _coefficient_rows(fam, [s], [times])
    if failure is not None:
        raise ValueError(failure)
    return cs[0]


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


def _gauss_tableau(stages: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes c, coefficients a and weights b of the Gauss-Legendre method.

    The collocation coefficients a_ij = int_0^{c_i} l_j are built from
    the shifted Legendre expansion of the Lagrange basis l_j, which the
    Gauss rule integrates exactly. The symplecticity condition
    b_i a_ij + b_j a_ji = b_i b_j, on which the preserved pairing rests,
    then holds to roundoff.
    """
    x, w = legendre.leggauss(stages)
    p = legendre.legvander(x, stages)
    deg = np.arange(stages)
    # int_0^c P_k(2 tau - 1) d tau, from (P_{k+1} - P_{k-1}) / (2k + 1).
    integrals = np.empty((stages, stages))
    integrals[:, 0] = (x + 1.0) / 2.0
    integrals[:, 1:] = (p[:, 2:] - p[:, : stages - 1]) / (2.0 * (2 * deg[1:] + 1))
    b = w / 2.0
    a = integrals @ ((2 * deg + 1) * p[:, :stages]).T * b
    return (x + 1.0) / 2.0, a, b


_GAUSS_NODES, _GAUSS_A, _GAUSS_B = _gauss_tableau(_GAUSS_STAGES)


def _gauss_steps(
    fam: HamiltonianFamily, params, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, list]:
    """Transfer matrices R of one Gauss-Legendre step per row, and why each row fails.

    Row i steps from starts[i] to ends[i] at parameter params[i]. With
    h = end - start, the stage slopes K_i of Phi' = -J0^{-1} C Phi,
    applied to the identity, solve J0 K_i + h sum_j a_ij C_i K_j = -C_i,
    one (stages k) x (stages k) linear system per row. The coefficients
    of all rows pass one check (:func:`_coefficient_rows`), all systems
    go through one solve, and R = I + h sum_i b_i K_i. A row whose
    coefficients fail solves J0 K_i = 0 instead, and its R is not to be
    read. Each R has the bits of the same step taken alone.
    """
    k = fam.dim
    h = ends - starts
    cs, failures = _coefficient_rows(fam, params, starts[:, None] + h[:, None] * _GAUSS_NODES)
    cs[[f is not None for f in failures]] = 0.0
    blocks = h[:, None, None, None, None] * _GAUSS_A[:, :, None, None] * cs[:, :, None]
    stages = np.arange(_GAUSS_STAGES)
    blocks[:, stages, stages] += fam.j0
    size = _GAUSS_STAGES * k
    slopes = np.linalg.solve(
        blocks.transpose(0, 1, 3, 2, 4).reshape(-1, size, size), -cs.reshape(-1, size, k)
    ).reshape(-1, _GAUSS_STAGES, k * k)
    return np.eye(k) + h[:, None, None] * (_GAUSS_B @ slopes).reshape(-1, k, k), failures


def _propagate(fam: HamiltonianFamily, params: list, t_from: float, t_to: float) -> list:
    """Phi_s(t_to <- t_from) for each s of ``params``, all in lockstep; see :func:`propagator`.

    Each element keeps its own step state: the next step h, the time t
    it has reached, its pending halves and its accepted product. At each
    level every element still stepping adds its attempt, the whole step
    and both halves for a new step or the two halves of a pending one,
    and all attempts go through one :func:`_gauss_steps`. Returns one
    entry per parameter: Phi, or the exception that ends that element.
    """
    k = fam.dim
    n = len(params)
    phis = np.empty((n, k, k), dtype=complex)
    phis[:] = np.eye(k)
    steps = [t_to - t_from] * n
    times = [t_from] * n
    # Steps still to take, the next one last, as (start, end, transfer of
    # one Gauss step over it); a rejected step leaves its two halves here.
    pending: list[list] = [[] for _ in range(n)]
    outcomes: list = [None] * n
    active = list(range(n)) if t_from != t_to else []
    while active:
        attempts, rows = [], []
        for e in active:
            if pending[e]:
                start, end, whole = pending[e].pop()
            else:
                start, whole = times[e], None
                end = t_to if abs(steps[e]) >= abs(t_to - start) else start + steps[e]
                rows.append((e, start, end))
            mid = start + (end - start) / 2.0
            rows += [(e, start, mid), (e, mid, end)]
            attempts.append((e, start, mid, end, whole))
        rs, failures = _gauss_steps(
            fam,
            [params[e] for e, _, _ in rows],
            np.array([start for _, start, _ in rows]),
            np.array([end for _, _, end in rows]),
        )
        # The attempts all of whose coefficients passed, as (element,
        # start, mid, end), their whole steps and the rows of their halves.
        kept, wholes, firsts = [], [], []
        row = 0
        for e, start, mid, end, whole in attempts:
            count = 2 if whole is not None else 3
            failure = next((f for f in failures[row : row + count] if f is not None), None)
            if whole is None:
                whole = rs[row]
            row += count
            if failure is not None:
                outcomes[e] = ValueError(failure)
                continue
            kept.append((e, start, mid, end))
            wholes.append(whole)
            firsts.append(row - 2)
        active = []
        if not kept:
            continue
        firsts = np.array(firsts)
        first, second = rs[firsts], rs[firsts + 1]
        halves = second @ first
        errs = np.max(np.abs(np.stack(wholes) - halves), axis=(1, 2)) / np.maximum(
            1.0, np.max(np.abs(halves), axis=(1, 2))
        )
        accepted = []
        for i, (e, start, mid, end) in enumerate(kept):
            err = errs[i]
            if err <= _ODE_TOL:
                accepted.append(i)
                times[e] = end
                # A scalar power per element: a vectorized one may round differently.
                factor = _STEP_SAFETY * (_ODE_TOL / err) ** _STEP_EXPONENT if err > 0.0 else np.inf
                steps[e] = (end - start) * min(_STEP_GROWTH, factor)
            elif abs(end - start) <= _MIN_STEP * abs(t_to - t_from):
                outcomes[e] = ArithmeticError(
                    f"propagator step size underflow at t={start:.6g} (error {err:.3e})"
                )
                continue
            else:
                pending[e] += [(mid, end, second[i]), (start, mid, first[i])]
            if pending[e] or times[e] != t_to:
                active.append(e)
        if accepted:
            done = [kept[i][0] for i in accepted]
            phis[done] = halves[accepted] @ phis[done]
    finished = [e for e in range(n) if outcomes[e] is None]
    if finished:
        phi = phis[finished]
        pairing = phi.conj().swapaxes(1, 2) @ fam.j0 @ phi - fam.j0
        drifts = np.linalg.norm(pairing, 2, axis=(1, 2))
        conditioned = _conditioned(np.linalg.svd(phi, compute_uv=False))
        for e, drift, invertible in zip(finished, drifts, conditioned):
            if drift > _PAIRING_DRIFT_TOL * fam._j0_norm:
                outcomes[e] = ArithmeticError(
                    f"propagator lost the J0 pairing (drift {drift:.3e}); "
                    "the monodromy is too ill-conditioned for double precision"
                )
            elif not invertible:
                outcomes[e] = ArithmeticError("propagator is numerically singular")
            else:
                outcomes[e] = phis[e]
    return outcomes


def _one_or_each(values_at: Callable[[list], list], s):
    """``values_at(list(s))`` for a sequence s; for one parameter s its value, raised if it failed."""
    if np.ndim(s) > 0:
        return values_at(list(s))
    (value,) = values_at([s])
    if isinstance(value, Exception):
        raise value
    return value


def propagator(fam: HamiltonianFamily, s, t_from: float, t_to: float):
    """Propagator Phi(t_to <- t_from) of J0 u' + C(s, t) u = 0.

    Integrates Phi' = -J0^{-1} C(s, t) Phi by 8-stage Gauss-Legendre
    collocation, a method of order 16, and allows backward propagation
    (t_to < t_from). Each step over [a, b] is checked against the two
    steps over its halves, whose product is kept: ``_ODE_TOL`` = 1e-10 is
    the local tolerance on the difference of the two transfers R,
    relative to max(1, max|R|). A step that misses it is halved; after
    one that meets it, the next step grows with the margin.

    A Gauss method preserves quadratic invariants, so Phi^H J0 Phi = J0
    holds to roundoff, about eps ||J0|| ||Phi||^2, whatever the step
    tolerance. Drift beyond 1e-7 ||J0||, which only a very
    ill-conditioned monodromy reaches, a loss of invertibility, or a step shorter than
    1e-10 of the interval raises ArithmeticError; a coefficient of the
    wrong shape or not Hermitian raises ValueError naming its (s, t).

    ``s`` is one parameter or a sequence of them. A sequence is
    propagated in lockstep: each s keeps its own step control, so it
    takes the steps it takes alone and its Phi has the same bits, but
    at each level the stage coefficients of every s pass one Hermitian
    check and all stage systems go through one solve. For a sequence
    the result is a list with one entry per s: Phi, or the exception
    that s fails with, returned rather than raised, so that a caller
    walking the parameters raises it when it reaches that s. One float
    s is a stack of one, whose failure is raised. An exception that
    ``fam.c`` raises itself propagates at once.
    """
    return _one_or_each(lambda params: _propagate(fam, params, t_from, t_to), s)


def cauchy_data(fam: HamiltonianFamily, s):
    """Cauchy data space {(v, Phi_s(T) v)} as a frame in C^{2k}.

    The space collects the boundary traces of all solutions of
    J0 u' + C(s, t) u = 0; it is the graph of the monodromy and is
    Lagrangian for the Green form, which is asserted (ArithmeticError).

    ``s`` is one parameter or a sequence of them, as in
    :func:`propagator`, whose one lockstep pass gives the monodromies:
    for a sequence, one entry per s, the frame or the exception that s
    fails with.
    """
    eye = np.eye(fam.dim, dtype=complex)
    form = green_form(fam)

    def frames(params: list) -> list:
        out = []
        for phi in propagator(fam, params, 0.0, fam.t_end):
            if isinstance(phi, np.ndarray):
                phi = orthonormalize(np.vstack([eye, phi]))
                kind = classify(form, phi)
                if kind != "lagrangian":
                    phi = ArithmeticError(
                        f"cauchy data failed the Lagrangian check (classified '{kind}')"
                    )
            out.append(phi)
        return out

    return _one_or_each(frames, s)


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
    if not well_conditioned(x0):
        return None
    g = np.linalg.solve(x0.conj().T, x1.conj().T).conj().T
    if np.linalg.norm(g.conj().T @ g - np.eye(k), 2) > _GRAPH_TOL:
        return None
    if np.linalg.norm(g @ fam.j0 - fam.j0 @ g, 2) > _GRAPH_TOL * fam._j0_norm:
        return None
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def _fold_stencil(fam: HamiltonianFamily, g: np.ndarray, grid: int) -> np.ndarray:
    """J0 d/dt on the twisted circulant: the part of :func:`_fold_matrix` that s does not move.

    Sixth-order central weights on M nodes, M being ``grid`` bumped to
    odd, with the ghost closure u_{M+j} = G u_j. Block (j, j +- r) is
    +-(w_r / h) J0 where j +- r lies on the grid, and that block times G
    (forward) or G^H (backward) where the offset wraps; the diagonal
    blocks are zero. Returned as the (M k) x (M k) matrix.
    """
    k = fam.dim
    grid = grid if grid % 2 == 1 else grid + 1
    h = fam.t_end / grid
    # blocks[j, i] is the k x k block coupling node j to node i. With
    # grid >= 7 the offsets +-1, +-2, +-3 are distinct mod grid, so each
    # block receives one term and the sum matches any assembly order.
    blocks = np.zeros((grid, grid, k, k), dtype=complex)
    nodes = np.arange(grid)
    gh = g.conj().T
    for r, w in _STENCIL6:
        for sign in (1, -1):
            block = (sign * w / h) * fam.j0
            target = nodes + sign * r
            inside = (target >= 0) & (target < grid)
            wrapped = block @ g if sign > 0 else block @ gh
            blocks[nodes[inside], target[inside]] += block
            blocks[nodes[~inside], target[~inside] % grid] += wrapped
    return blocks.transpose(0, 2, 1, 3).reshape(grid * k, grid * k)


def _fold_operator(fam: HamiltonianFamily, stencil: np.ndarray, s: float) -> HermitianMatrix:
    """The twisted circulant at s: ``stencil`` plus C(s, t_j) on its j-th diagonal block.

    ``stencil`` is the output of :func:`_fold_stencil` and is not
    written to. The coefficients are read at t_j = j T / M in node
    order, and the sum passes one Hermitian gate.
    """
    k = fam.dim
    grid = stencil.shape[0] // k
    nodes = np.arange(grid)
    a = stencil.copy()
    a.reshape(grid, k, grid, k)[nodes, :, nodes, :] += _coefficients(
        fam, s, nodes * (fam.t_end / grid)
    )
    return _gated_hermitian(a)


def _fold_matrix(
    fam: HamiltonianFamily, g: np.ndarray, grid: int, s: float
) -> HermitianMatrix:
    """Sixth-order stencil on M nodes with ghost closure u_{M+j} = G u_j, at s.

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

    This builds the stencil of G and adds the coefficients at s. A
    constant boundary condition builds its stencil once per path
    instead (see :func:`_assembler`); a boundary path whose G moves with
    s comes here at every s.
    """
    return _fold_operator(fam, _fold_stencil(fam, g, grid), s)


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


def _sbp_builder(
    fam: HamiltonianFamily, bc: BoundaryPath, grid: int
) -> Callable[[float], HermitianMatrix]:
    """Builder of the compressed summation-by-parts realization on grid+1 nodes.

    At s the builder assembles kron(Q, J0) plus the weighted coefficient
    blocks w_j C(s, t_j), in node order, compresses onto the
    bc-compatible trace subspace, and whitens by the diagonal quadrature
    metric. The corner contribution of Q pairs the traces by the Green
    form, which vanishes on the Lagrangian bc; the compressed matrix is
    therefore Hermitian to roundoff, and it passes one Hermitian gate.

    kron(Q, J0), the weights w and the metric are built here, once per
    path, and so is the trace basis of a constant bc; a callable bc(s)
    gives a new trace basis at each s.
    """
    k = fam.dim
    nodes = grid + 1
    h = fam.t_end / grid
    stencil = np.kron(_sbp_matrix_core(grid), fam.j0)
    weights = np.full(nodes, h)
    weights[0] = weights[-1] = h / 2.0
    index = np.arange(nodes)
    times = index * h
    # The trace basis has k columns at the ends: bc is half-dimensional
    # in C^{2k}.
    d = 1.0 / np.sqrt(np.concatenate([np.repeat(weights[1:-1], k), np.full(k, h / 2.0)]))

    def compression(cond: BoundaryCondition) -> tuple[np.ndarray, np.ndarray]:
        p = _trace_basis(cond, k, nodes)
        return p.conj().T, p

    fixed = compression(bc) if isinstance(bc, BoundaryCondition) else None

    def build(s: float) -> HermitianMatrix:
        ph, p = fixed if fixed is not None else compression(bc(s))
        a = stencil.copy()
        a.reshape(nodes, k, nodes, k)[index, :, index, :] += (
            weights[:, None, None] * _coefficients(fam, s, times)
        )
        return _gated_hermitian(d[:, None] * (ph @ a @ p) * d[None, :])

    return build


def _gated_hermitian(a: np.ndarray) -> HermitianMatrix:
    """``a`` symmetrized, once its anti-Hermitian part passes the relative 1e-10 gate."""
    defect = np.max(np.abs(a - a.conj().T))
    if exceeds_scaled_tol(defect, a, _HERMITICITY_TOL):
        raise ArithmeticError(
            f"discretized operator is not Hermitian (residual {defect:.3e})"
        )
    return HermitianMatrix.from_symmetrized(a)


def _assembler(
    fam: HamiltonianFamily, bc: BoundaryPath, grid: int, num_samples: int
) -> Callable[[float], HermitianMatrix]:
    """Check bc, pick one realization for the whole path, and return its builder.

    A constant bc is checked and classified once; a callable one at
    ``num_samples`` evenly spaced parameters, and again at each assembly.
    What s does not move is built here, once per path: the twisted
    stencil of a constant unitary graph, and kron(Q, J0), the weights,
    the metric and (for a constant bc) the trace basis of the
    summation-by-parts realization. The builder adds the coefficients at
    s. A boundary path in the unitary-graph class moves G, so its
    builder makes the whole twisted circulant at each s.
    """
    if grid < 7:
        raise ValueError("grid must be at least 7 for the difference stencils")
    if isinstance(bc, BoundaryCondition):
        _check_boundary(fam, bc)
        g = _unitary_graph(bc, fam)
        if g is None:
            return _sbp_builder(fam, bc, grid)
        stencil = _fold_stencil(fam, g, grid)
        return lambda s: _fold_operator(fam, stencil, s)
    probe = [bc(float(s)) for s in np.linspace(0.0, 1.0, num_samples)]
    for cond in probe:
        _check_boundary(fam, cond)
    if any(_unitary_graph(cond, fam) is None for cond in probe):
        return _sbp_builder(fam, bc, grid)

    def build(s: float) -> HermitianMatrix:
        g = _unitary_graph(bc(s), fam)
        if g is None:
            raise ValueError(
                "boundary path left the unitary-graph class between samples"
            )
        return _fold_matrix(fam, g, grid, s)

    return build


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
    otherwise. The part of the operator that s does not move is built
    once for the path (see :func:`_assembler`); each sample adds the
    coefficients C(s, t_j). The path also carries the assembler as its
    callback, so the operator can be built at any s. The eigenvalue
    curves are the values-only spectra at the samples, and the spectral
    flow reads the end samples only, each eigen-solved once and factored
    once.
    """
    return HermitianPath.from_callable(_assembler(fam, bc, grid, num_samples), num_samples)


def _grid_reader(values_at: Callable[[list], list], num_samples: int) -> Callable[[float], object]:
    """Path callback whose values on the sample grid come from one stacked call.

    ``values_at(params)`` returns one entry per parameter, its value or
    the exception it fails with, as :func:`propagator` and
    :func:`cauchy_data` do for a sequence. The first call evaluates the
    whole grid of ``LagrangianPairPath.from_callable(fn, num_samples)``
    at once; the callback then returns each grid value, and raises a
    grid failure only when it is called at that parameter, so the path
    meets failures in grid order. Any other parameter (a refinement
    point) is a stack of one.
    """
    grid: dict = {}

    def value(s: float):
        if not grid:
            params = [float(t) for t in np.linspace(0.0, 1.0, num_samples)]
            grid.update(zip(params, values_at(params)))
        out = grid[s] if s in grid else values_at([s])[0]
        if isinstance(out, Exception):
            raise out
        return out

    return value


def desuspension_check(
    fam: HamiltonianFamily,
    bc: BoundaryPath,
    grid: int = 64,
    num_samples: int = 33,
) -> tuple[int, int, bool]:
    """Spectral flow against minus the boundary Maslov index.

    Computes, by independent routes,

    * sf: the spectral flow of the discretized family under bc(s), and
    * neg_mas: minus the Maslov index of the Lagrangian pair path
      (bc(s), cauchy_data(s)) under the Green form,

    and returns (sf, neg_mas, sf == neg_mas). The two integers agree for
    families satisfying the stated invariants; the flag reports it.

    The spectral flow is :func:`~maslovlab.spectral.sf_eigen`,
    n_-(A(0)) - n_-(A(1)), so only the two end operators are assembled,
    each eigen-solved once (values only) and factored once by LDL^H.
    Its Morse counts by the two must agree; an end eigenvalue within
    roundoff of -``_MORSE_ZERO`` makes them differ and raises
    ArithmeticError. ``num_samples`` is the sample grid of the Maslov
    route, whose Cauchy data come from one lockstep
    :func:`cauchy_data` call over the grid. A constant bc is checked
    once; a callable bc(s) is checked at every sample of that grid. The spectra at ``num_samples`` parameters,
    as the CLI exports them, are
    ``eigenvalue_curves(discretize(fam, bc, grid, num_samples))``.

    Notes
    -----
    Both realizations are local, Hermitian and centred, so they carry
    doublers (fermion doubling; Nielsen and Ninomiya, Nucl. Phys. B 185,
    1981): the modes next to the highest grid frequency form a
    reversed-orientation parasite branch, which refining the grid does
    not remove. Coefficient-driven families move the true and parasite
    branches in parallel, keeping the near-zero window clean; spectral
    flow driven purely by a rotating boundary condition can be cancelled
    by a parasite crossing, in which case the flag reports the mismatch
    rather than hiding it. How large the coefficient may be depends on
    the realization:

    * unitary-graph conditions (periodic among them) use the twisted
      circulant of the sixth-order central stencil, whose symbol
      (2/h) sum_r w_r sin(r theta) puts the doublers at +-2.2 pi / T.
      Keep |C| below about 2.2 pi / T; past that the parasite branch
      crosses zero, on grids of 33, 64 and 129 nodes alike.
    * every other condition uses the summation-by-parts operator, which
      fails earlier: on planar lines at angles 0 and 0.5 with C = s c I,
      sf is first wrong at c = 2.75 for T = 1 and at c = 1.5 for T = 2,
      on grids of 33 and 129 nodes alike. Keep |C| T below about 2.7.
    """
    operators = HermitianPath.from_callable(_assembler(fam, bc, grid, num_samples), 2)
    return _desuspension_counts(fam, bc, operators, num_samples)


def _desuspension_counts(
    fam: HamiltonianFamily, bc: BoundaryPath, operators: HermitianPath, num_samples: int
) -> tuple[int, int, bool]:
    """:func:`desuspension_check` on the operator path ``operators`` of (fam, bc).

    The spectral flow reads the end samples of ``operators`` only: the
    check passes its two-sample path, and the CLI the ``discretize``
    path whose spectra it exports, so the end operators of a CLI run are
    assembled once, eigen-solved once and factored once. At each
    parameter the path reads bc(s) before the Cauchy data, so a bc
    failure at s comes before a propagation failure at s.
    """
    sf = sf_eigen(operators)
    bc_path = (lambda s: bc) if isinstance(bc, BoundaryCondition) else bc
    form = green_form(fam)
    cauchy = _grid_reader(lambda params: cauchy_data(fam, params), num_samples)

    def pair(t: float):
        lam = bc_path(t).lagrangian
        return form, lam, cauchy(t)

    neg_mas = -maslov_winding(LagrangianPairPath.from_callable(pair, num_samples)).mas_plus
    return sf, neg_mas, sf == neg_mas


def splitting_check(
    fam: HamiltonianFamily,
    cut: float,
    grid: int = 64,
    num_samples: int = 33,
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

    As in :func:`desuspension_check`, the spectral flow is
    :func:`~maslovlab.spectral.sf_eigen` of the two end operators of
    ``discretize(fam, periodic_condition(fam), grid)``, whose stencil is
    built once; its two Morse counts per end must agree or it raises
    ArithmeticError. ``num_samples`` is the sample grid of the Maslov
    route, whose propagators come from one lockstep :func:`propagator`
    call per leg.
    """
    if not 0.0 < cut < fam.t_end:
        raise ValueError(f"cut must lie inside (0, {fam.t_end})")
    operators = discretize(fam, periodic_condition(fam), grid, 2)
    return _splitting_counts(fam, cut, operators, num_samples)


def _splitting_counts(
    fam: HamiltonianFamily, cut: float, operators: HermitianPath, num_samples: int = 33
) -> tuple[int, int, bool]:
    """:func:`splitting_check` on ``operators``, a path of the periodic problem's operators.

    As in :func:`_desuspension_counts`, only the end samples of
    ``operators`` are read; ``cut`` has been checked by the caller, and
    ``num_samples`` defaults to that of :func:`splitting_check`. At each
    parameter the 0 -> cut leg is read, and raises, before the T -> cut
    leg.
    """
    sf_whole = sf_eigen(operators)

    k = fam.dim
    eye = np.eye(k, dtype=complex)
    form = green_form(fam)

    minus_at = _grid_reader(lambda params: propagator(fam, params, 0.0, cut), num_samples)
    plus_at = _grid_reader(lambda params: propagator(fam, params, fam.t_end, cut), num_samples)

    def pair(t: float):
        minus, plus = minus_at(t), plus_at(t)
        lam = orthonormalize(np.vstack([minus, eye]))
        mu = orthonormalize(np.vstack([plus, eye]))
        return form, lam, mu

    neg_mas_cut = -maslov_winding(LagrangianPairPath.from_callable(pair, num_samples)).mas_plus
    return sf_whole, neg_mas_cut, sf_whole == neg_mas_cut
