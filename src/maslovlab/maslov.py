"""Maslov index of sampled paths of Lagrangian pairs.

The main quantity is a pair of integers (Mas_+, Mas_-) attached to a
path {(lam(s), mu(s))} of Lagrangian pairs under a possibly varying
symplectic form. Three routes compute it:

* ``maslov_winding`` tracks the eigenvalue angles of the relative
  unitary U_lam(s) U_mu(s)^{-1} on the positive splitting half and
  counts integer multiples of 2*pi passed by the continuous branches.
* ``maslov_crossings`` finds the isolated times where the pair
  intersects, differentiates a crossing form there, and adds up
  signatures with an asymmetric endpoint convention.
* ``maslov_reduced`` reduces the path, near each intersection that
  ``maslov_crossings`` locates, onto the small symplectic subspace
  X0 = (lam inter mu) + V anchored there, and sums the windings of the
  reduced segments.

All three agree on their common domain, which the test suite checks.
The winding route is the most robust (it needs no regularity at the
crossings) and serves as the reference implementation.

One scan, :func:`_crossing_events`, finds where the pair intersects
between samples: its piece scan, :func:`_scan_pieces`, halves all
sample gaps together, one level at a time, where the distance of the
relative unitary's spectrum to 1 can reach 0. Each level's new
parameters are evaluated, then checked as Lagrangian in one stack by
:func:`_check_pairs`. Counts of the eigenvalues near 1 cut the path
into levels of constant intersection dimension, so no winding branch
is shared.
``maslov_crossings`` takes crossing forms in the spans where the pair
intersects, ``maslov_semipositive`` adds up the rises between levels,
and ``maslov_reduced`` anchors one reduced segment at each peak level.
Winding is independent of the scan, and every consumer of the reduced
route checks it against winding.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import scipy.optimize

from .frames import (
    RANK_TOL,
    Frame,
    HermitianMatrix,
    _inertia,
    exceeds_scaled_tol,
    gap_hat,
    intersect,
    orthonormalize,
)
from .refinement import MOVEMENT_GATE, Memo, refine
from .reduction import (
    IntrinsicDecomposition,
    _anchor_spaces,
    _decompose,
    _graph_coefficient_stack,
    graph_coefficients,
    graph_coefficients_in_bases,
    reduced_pair,
)
from .symplectic import (
    SymplecticForm,
    _doubled_forms,
    _generators,
    _NotLagrangian,
    annihilator,
    classify,
    lagrangian_generators,
)

__all__ = [
    "PathSample",
    "LagrangianPairPath",
    "CrossingRecord",
    "MaslovResult",
    "counting_function_E",
    "maslov_winding",
    "crossing_form",
    "one_sided_form",
    "maslov_crossings",
    "maslov_semipositive",
    "maslov_reduced",
    "hormander",
    "diagonal_lift",
    "benchmark_pair_path",
]

_TWO_PI = 2.0 * np.pi
_ANGLE_SNAP = 1e-8
_UNIT_CIRCLE_TOL = 1e-9
_BISECT_TOL = 1e-10
_GATE_DELTA = 0.5
# Piece scan constants, see _scan_pieces and _crossing_events.
_SCAN_ZERO = 1e-6
_MOTION_FACTOR = 2.0
_PIECE_DEPTH = 6
# Finite-difference step of the crossing and one-sided forms; each is
# also taken at half this step, and the two signatures must agree.
_FD_STEP = 1e-5
# Relative zero test of the eigenvalues of a crossing or one-sided form.
_FORM_ZERO = 1e-7
# Failed reduced-segment counts allowed before maslov_reduced gives up;
# each failure moves the segment ends halfway toward its span.
_MAX_DEPTH = 10
# Sample grid of each connecting path of hormander.
_HORMANDER_SAMPLES = 25


def counting_function_E(a: float) -> int:
    """Smallest integer not below ``a``: equals a on integers, floor(a)+1 otherwise."""
    return math.ceil(a)


@dataclass(frozen=True)
class PathSample:
    """One sampled position of a Lagrangian pair path."""

    s: float
    form: SymplecticForm
    lam: Frame
    mu: Frame


PathCallback = Callable[[float], tuple[SymplecticForm, Frame, Frame]]


def _consecutive_gaps(frames: list[Frame]) -> np.ndarray:
    """gap_hat between consecutive frames of one dimension, in one batch.

    For subspaces of equal dimension both one-sided gaps equal the sine
    of the largest principal angle, sqrt(1 - sigma_min(A^H B)^2). One
    frame object repeated, such as a constant mu, has no gaps.
    """
    if all(f is frames[0] for f in frames):
        return np.zeros(len(frames) - 1)
    if len({f.matrix.shape for f in frames}) != 1:
        return np.array([gap_hat(a, b) for a, b in zip(frames, frames[1:])])
    stack = np.stack([f.matrix for f in frames])
    if stack.shape[2] == 0:
        return np.zeros(len(frames) - 1)
    cosines = np.linalg.svd(
        stack[:-1].conj().transpose(0, 2, 1) @ stack[1:], compute_uv=False
    )[:, -1]
    return np.sqrt(np.clip(1.0 - cosines**2, 0.0, 1.0))


def _form_distances(samples) -> list[float | None]:
    """||J_b - J_a||_2 for each step, None where both samples carry one form object.

    The largest singular values of all the differences come from one
    stacked SVD, the same LAPACK call per matrix as ``np.linalg.norm``.
    """
    steps = [(a.form, b.form) for a, b in zip(samples, samples[1:])]
    moved = [i for i, (fa, fb) in enumerate(steps) if fb is not fa]
    out: list[float | None] = [None] * len(steps)
    if moved:
        diffs = np.stack([steps[i][1].j - steps[i][0].j for i in moved])
        for i, norm in zip(moved, np.linalg.svd(diffs, compute_uv=False)[:, 0]):
            out[i] = norm
    return out


def _sampling_failures(samples) -> Iterator[str | None]:
    """Why each step between consecutive samples fails the sampling-adequacy gate.

    Yields None for a step that passes: both subspaces move by gap below
    0.5 and the form matrix by less than half its smallest singular value.
    """
    steps = np.maximum(
        _consecutive_gaps([smp.lam for smp in samples]),
        _consecutive_gaps([smp.mu for smp in samples]),
    )
    for a, b, step, dj in zip(samples, samples[1:], steps, _form_distances(samples)):
        if step >= _GATE_DELTA:
            yield (
                f"sampling-adequacy gate: consecutive subspace gap {step:.3f} "
                f"at s={a.s:.6f}..{b.s:.6f} is not below 0.5"
            )
        elif dj is not None and dj >= _GATE_DELTA * a.form.sigma_min:
            yield (
                f"sampling-adequacy gate: consecutive form distance {dj:.3e} "
                f"at s={a.s:.6f}..{b.s:.6f} exceeds half the smallest singular value"
            )
        else:
            yield None


def _raise_first_failure(samples) -> None:
    """Raise ValueError naming the first step of ``samples`` that fails the sampling gate."""
    failure = next((f for f in _sampling_failures(samples) if f is not None), None)
    if failure is not None:
        raise ValueError(failure)


class _GatedSamples(tuple):
    """Path samples each of whose steps has already passed the sampling gate.

    :func:`_refined_path` builds them, and so does :func:`diagonal_lift`
    for the lifts of a path, whose gate inputs a lift keeps.
    :class:`LagrangianPairPath` then runs every construction check but
    that gate. ``angles``, when given, is how the path gets the
    relative angles of a list of parameters, in place of its own
    Lagrangian check (see :func:`_check_pairs`): a lift inherits the
    decision of the path it lifts.
    """

    def __new__(cls, samples, angles: Callable[[list[float], str], np.ndarray] | None = None):
        out = super().__new__(cls, samples)
        out.angles = angles
        return out


def _refined_path(samples, callback: PathCallback) -> "LagrangianPairPath":
    """The path through the samples, with callback values inserted until every step passes the gate.

    Each step is gated once, here; the constructor does not gate the
    refined samples again, but still checks them as Lagrangian. A step
    whose form, lam or mu changes dimension is given up at once: no
    split of it can pass. When refinement fails, the given samples are
    checked first, so a sample that is not Lagrangian is named rather
    than the refinement.
    """

    def step(s_a, a: PathSample, s_b, b: PathSample) -> PathSample | str:
        dims_a, dims_b = ((smp.form.dim, smp.lam.dim, smp.mu.dim) for smp in (a, b))
        if dims_a != dims_b:
            raise ValueError(
                f"dimensions (form, lam, mu) change from {dims_a} to {dims_b} "
                f"in s={a.s:.6f}..{b.s:.6f}; no refinement passes that step"
            )
        return next(_sampling_failures((a, b))) or b

    def value_at(s: float) -> PathSample:
        return PathSample(s, *callback(s))

    out = [samples[0]]
    try:
        for a, b, failure in zip(samples, samples[1:], _sampling_failures(samples)):
            rows = [(b.s, b)] if failure is None else refine(a.s, a, b.s, b, step, value_at)
            out.extend(smp for _, smp in rows)
    except ValueError:
        # Only the Lagrangian check: the given samples have not passed the gate.
        LagrangianPairPath(_GatedSamples(samples))
        raise
    return LagrangianPairPath(_GatedSamples(out), callback)


@dataclass(frozen=True)
class LagrangianPairPath:
    """Sampled path of Lagrangian pairs, optionally with an analytic callback.

    The samples must start at s=0, end at s=1, and be fine enough that
    consecutive subspaces stay within gap 0.5 and consecutive form
    matrices within half the smallest singular value; silent
    under-resolution would corrupt an integer invariant, so violations
    raise instead of warning. This constructor only validates: it never
    refines, even when a callback is given, so a path that fails the
    gate raises at once. :meth:`from_callable` refines while it builds.

    Every sample's lam and mu are checked as Lagrangian at ``RANK_TOL``
    in one call of :func:`symplectic.lagrangian_generators`, lam and mu
    of each sample in turn, so the error names the first failing sample
    along the path and its member. That is :func:`_check_pairs`, the
    one stacked check, which the crossing scan also runs once per level
    and :func:`_path_angles` once per new parameter. The relative
    angles of every checked s are kept on the path, so no route checks
    a parameter twice.

    The callback, when given, must evaluate the same path at arbitrary
    s; the counting routes use it to refine between samples. Being a
    function of s, it is called at most once per parameter value:
    :meth:`evaluate` keeps every evaluation, starting from the samples.
    The path also keeps its :func:`maslov_winding` result once wound.
    """

    samples: tuple[PathSample, ...]
    callback: PathCallback | None = None
    # Every evaluated (form, lam, mu) by parameter, the relative angles
    # of every s whose lam and mu passed the check, how a lift gets
    # them (see _GatedSamples), and the winding.
    _memo: Memo = field(init=False, repr=False, compare=False)
    _angles: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _angles_of: Callable | None = field(default=None, init=False, repr=False, compare=False)
    _winding: MaslovResult | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        gated = isinstance(self.samples, _GatedSamples)
        if gated:
            object.__setattr__(self, "_angles_of", self.samples.angles)
        samples = tuple(self.samples)
        object.__setattr__(self, "samples", samples)
        memo = Memo([smp.s for smp in samples], [(smp.form, smp.lam, smp.mu) for smp in samples])
        object.__setattr__(self, "_memo", memo)
        if any(smp.form.dim != samples[0].form.dim for smp in samples):
            raise ValueError("all samples must share one ambient dimension")
        _check_pairs(self, memo.times, _SAMPLE_FAILURE)
        if not gated:
            _raise_first_failure(samples)

    @classmethod
    def from_callable(cls, fn: PathCallback, num_samples: int = 33) -> "LagrangianPairPath":
        """Sample a callback s -> (form, lam, mu), refining where the grid is too coarse.

        The uniform grid of ``num_samples`` points gets callback midpoints
        inserted, by :func:`refinement.refine`, in every step that fails
        the sampling-adequacy gate, so a path that turns quickly between
        grid points still builds.
        """
        if num_samples < 2:
            raise ValueError("need at least two samples")
        grid = np.linspace(0.0, 1.0, num_samples)
        samples = tuple(PathSample(float(s), *fn(float(s))) for s in grid)
        return _refined_path(samples, fn)

    @property
    def dim(self) -> int:
        return self.samples[0].form.dim

    def evaluate(self, s: float) -> tuple[SymplecticForm, Frame, Frame]:
        """(form, lam, mu) at s: a sample within 1e-13, else the callback, memoized."""
        return self._memo.evaluate(s, self.callback)


@dataclass(frozen=True)
class CrossingRecord:
    """A time where the pair intersects, with the crossing form there.

    ``gamma`` is expressed in the coordinates of the ``intersection``
    frame and ``signature`` is its inertia (m+, m-, m0); the crossing
    is regular exactly when m0 = 0.
    """

    t: float
    intersection: Frame
    gamma: HermitianMatrix
    signature: tuple[int, int, int]

    def __post_init__(self):
        if self.gamma.dim != self.intersection.dim:
            raise ValueError(
                f"crossing form has dimension {self.gamma.dim}, "
                f"intersection has {self.intersection.dim}"
            )
        if sum(self.signature) != self.gamma.dim:
            raise ValueError("signature counts do not add up to the form dimension")


@dataclass(frozen=True)
class MaslovResult:
    """Pair of Maslov counts with the data the computing method produced.

    ``theta_curves`` (winding method) holds one row per evaluated
    parameter value: column 0 is s, the remaining columns are the
    continuous eigenvalue-angle branches in radians. ``crossings``
    (crossing method) lists the located crossings in time order.
    The two counts satisfy mas_plus - mas_minus =
    dim(lam(0) inter mu(0)) - dim(lam(1) inter mu(1)).
    """

    mas_plus: int
    mas_minus: int
    method: str
    theta_curves: np.ndarray | None = None
    crossings: tuple[CrossingRecord, ...] | None = None

    def __post_init__(self):
        if self.method not in ("winding", "crossing", "reduced"):
            raise ValueError(f"unknown method {self.method!r}")


def _checked_result(
    mas_plus: int,
    mas_minus: int,
    dim0: int,
    dim1: int,
    method: str,
    theta_curves: np.ndarray | None = None,
    crossings: tuple[CrossingRecord, ...] | None = None,
) -> MaslovResult:
    if mas_plus - mas_minus != dim0 - dim1:
        raise ArithmeticError(
            f"flipping identity violated: Mas+ - Mas- = {mas_plus - mas_minus} "
            f"but the intersection dimensions jump by {dim0 - dim1}"
        )
    return MaslovResult(int(mas_plus), int(mas_minus), method, theta_curves, crossings)


def _generator_angles(u_lam: np.ndarray, u_mu: np.ndarray) -> np.ndarray:
    """Angles of W = U_lam U_mu^{-1} for stacks of generators, see _path_angles."""
    vals = np.linalg.eigvals(u_lam @ np.linalg.inv(u_mu))
    drift = np.max(np.abs(np.abs(vals) - 1.0), axis=-1)
    bad = np.flatnonzero(drift > _UNIT_CIRCLE_TOL)
    if bad.size:
        raise ArithmeticError(
            f"relative unitary spectrum left the unit circle by {drift[bad[0]]:.3e}"
        )
    return np.angle(vals / np.abs(vals))


# How the Lagrangian check names a failing pair: a sample of the path,
# or a parameter that refinement or a scan reached.
_SAMPLE_FAILURE = "sample at s={s:.6f}: {member} is {kind}, not lagrangian"
_VALUE_FAILURE = "s={s:.6f}: {member} subspace is {kind}, not lagrangian"


def _check_pairs(path: LagrangianPairPath, params, failure: str = _VALUE_FAILURE) -> None:
    """Check the pairs at ``params`` as Lagrangian in one stack and keep their angles.

    Parameters whose angles the path already keeps are skipped. The
    others are evaluated, their lam and mu, each parameter in increasing
    order, go through one call of :func:`symplectic.lagrangian_generators`,
    and their angles (see :func:`_path_angles`) through one
    :func:`_generator_angles`. A pair that is not Lagrangian raises
    ValueError, worded by ``failure``, with the smallest such parameter
    and its member. A lift of :func:`diagonal_lift` gets its angles
    from the path it lifts instead (``path._angles_of``).
    """
    params = sorted({float(s) for s in params} - path._angles.keys())
    if not params:
        return
    if path._angles_of is not None:
        path._angles.update(zip(params, path._angles_of(params, failure)))
        return
    values = [path.evaluate(s) for s in params]
    try:
        u = lagrangian_generators(
            [form for form, _, _ in values for _ in range(2)],
            [sub for _, lam, mu in values for sub in (lam, mu)],
        )
    except _NotLagrangian as err:
        s, member = params[err.index // 2], ("lam", "mu")[err.index % 2]
        raise ValueError(failure.format(s=s, member=member, kind=err.kind)) from None
    path._angles.update(zip(params, _generator_angles(u[0::2], u[1::2])))


def _path_angles(path: LagrangianPairPath, s: float) -> np.ndarray:
    """Eigenvalue angles of the relative unitary of the pair on X^+ at s.

    Both Lagrangians are written as graphs of metric unitaries
    U: X^- -> X^+; the quotient W = U_lam U_mu^{-1} is an endomorphism
    of X^+ whose spectrum does not depend on the frames chosen for the
    splitting halves, so per-sample splittings are consistent along a
    path. The generators are taken in the metric-orthonormal bases of
    the splitting, so W is an ordinary unitary matrix, which keeps the
    eigenvalue computation stable.

    The angles of each s are computed once and kept on the path. A pair
    not seen before is checked as Lagrangian by :func:`_check_pairs`.
    """
    key = float(s)
    if key not in path._angles:
        _check_pairs(path, [key])
    return path._angles[key]


def _circular_delta(from_angle, to_angle):
    """Signed smallest rotation taking from_angle to to_angle, in (-pi, pi]."""
    return -((from_angle - to_angle + np.pi) % _TWO_PI - np.pi)


def _branch_step(s_a, theta_a: np.ndarray, s_b, raw_b: np.ndarray) -> np.ndarray | str:
    """Continue the branches theta_a onto the angles raw_b, if no branch moves past pi/2.

    The branches are matched to the angles by minimal-total-displacement
    assignment on the circle. The cost is square, so the assignment's
    rows are every branch in order, and each branch's step is read off
    the one delta matrix the assignment was costed on.
    """
    delta = _circular_delta(theta_a[:, None], raw_b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(delta))
    deltas = delta[rows, cols]
    movement = np.max(np.abs(deltas))
    if movement <= MOVEMENT_GATE:
        return theta_a + deltas
    return f"spectral movement {movement:.3f} rad in {s_a:.6f}..{s_b:.6f} exceeds pi/2"


def _winding_rows(path: LagrangianPairPath) -> list[tuple[float, np.ndarray]]:
    """Continuous angle branches along the path, one row per parameter value."""
    angles = (_path_angles(path, smp.s) for smp in path.samples)
    rows = [(path.samples[0].s, np.sort(next(angles)))]
    angles_at = None if path.callback is None else (lambda s: _path_angles(path, s))
    for smp, raw in zip(path.samples[1:], angles):
        s_prev, theta_prev = rows[-1]
        rows.extend(refine(s_prev, theta_prev, smp.s, raw, _branch_step, angles_at))
    return rows


def _snap_turns(u: np.ndarray) -> np.ndarray:
    """Snap angle values (in turns) onto nearby integers."""
    u = np.array(u, dtype=float)
    r = np.round(u)
    near = np.abs(u - r) <= _ANGLE_SNAP / _TWO_PI
    u[near] = r[near]
    return u


def maslov_winding(path: LagrangianPairPath) -> MaslovResult:
    """Maslov counts of a path by eigenvalue winding.

    Continuous eigenvalue-angle branches theta_j(s) of the relative
    unitary are selected across samples by minimal-total-displacement
    assignment on the circle. A step in which the spectrum moves more
    than pi/2 is halved by :func:`refinement.refine` through the path's
    callback; without a callback it raises. Then

        Mas_+ = sum_j E(theta_j(1)/2pi) - E(theta_j(0)/2pi),
        Mas_- = sum_j floor(theta_j(1)/2pi) - floor(theta_j(0)/2pi),

    with E the upper counting function. Endpoint angles within 1e-8 rad
    of a multiple of 2pi are snapped onto it before counting.

    The result is kept on the path, so winding a path again continues
    no branch; its ``theta_curves`` are read-only for that reason.
    """
    if path._winding is not None:
        return path._winding
    rows = _winding_rows(path)
    u_start = _snap_turns(rows[0][1] / _TWO_PI)
    u_end = _snap_turns(rows[-1][1] / _TWO_PI)
    mas_plus = sum(counting_function_E(b) - counting_function_E(a) for a, b in zip(u_start, u_end))
    mas_minus = sum(math.floor(b) - math.floor(a) for a, b in zip(u_start, u_end))
    dim0 = int(np.sum(u_start == np.round(u_start)))
    dim1 = int(np.sum(u_end == np.round(u_end)))
    theta = np.array([[s, *th] for s, th in rows])
    theta.flags.writeable = False
    result = _checked_result(mas_plus, mas_minus, dim0, dim1, "winding", theta_curves=theta)
    object.__setattr__(path, "_winding", result)
    return result


def _anchored_sample(
    evaluate: PathCallback,
    params: list[float],
    form_t: SymplecticForm,
    anchor: IntrinsicDecomposition,
    v_ann_t: Frame,
) -> list[tuple[SymplecticForm, Frame, Frame, IntrinsicDecomposition]]:
    """evaluate(s) = (form, lam, mu) at each s of ``params``, decomposed on the anchor's lam0 and V.

    ``anchor`` is the intrinsic decomposition at a t whose form is
    ``form_t``, with ``v_ann_t`` = V^omega under that form, reused while
    the form at s is the same object; a moving form gets its own at each
    point. The pair blocks are V^omega inter lam(s) and V^omega inter
    mu(s), one :func:`intersect` per distinct pair of frame objects in
    the call: a constant mu, or a member that comes back as one object
    under a form that does not move, is cut once, not at every point.
    :func:`intersect` is deterministic, so a reused block has the bits
    of a new one. Where lam0 + V is all of X,
    ``v_ann_t`` is the zero subspace and no pair block is cut out. Their
    direct sum with lam0 and V is gated where the graph coefficients are
    solved for, over all the points at once (:func:`_pairings`). Every
    local form starts here: the stencil points of :func:`crossing_form`,
    with the path's ``evaluate``, and of :func:`one_sided_form`, one
    member against its own position at t, and the reduced samples of
    :func:`_segment_counts`.
    """
    # Keyed by the ids of the two frames, which each entry keeps alive.
    blocks: dict[tuple[int, int], tuple[Frame, Frame, Frame]] = {}

    def block(v_ann: Frame, member: Frame) -> Frame:
        key = id(v_ann), id(member)
        if key not in blocks:
            blocks[key] = v_ann, member, intersect(v_ann, member)
        return blocks[key][2]

    out = []
    for s in params:
        form, lam, mu = evaluate(s)
        v_ann = v_ann_t if form is form_t else annihilator(form, anchor.v)
        local = IntrinsicDecomposition(anchor.lam0, anchor.v, block(v_ann, lam), block(v_ann, mu))
        out.append((form, lam, mu, local))
    return out


def _pairings(samples) -> np.ndarray:
    """The pairing omega(s)(x, (A1(s) - B1(s)) y) on lam0 coordinates at anchored samples.

    ``samples`` are outputs of :func:`_anchored_sample` that share lam0.
    A sample whose pair blocks are not both of dimension n - r, in
    C^2n with r = dim lam0, raises first, with the error its own
    :func:`reduction.graph_coefficients` call raises; the earliest such
    sample decides. All samples then share one stacked solve,
    :func:`reduction._graph_coefficient_stack`, whose gates raise at
    the first that any sample fails. Returns the stacked pairings. The
    pairing itself is not gated as Hermitian: off the crossing it need
    not be, only its derivative is.
    """
    r = samples[0][3].lam0.dim
    for form, lam, mu, local in samples:
        if local.lam1.dim != form.dim // 2 - r or local.mu1.dim != form.dim // 2 - r:
            graph_coefficients(form, local, lam, mu)
    lam0, v, lam1, mu1 = (
        np.stack([getattr(local, name).matrix for *_, local in samples])
        for name in ("lam0", "v", "lam1", "mu1")
    )
    lam, mu = (np.stack([sample[k].matrix for sample in samples]) for k in (1, 2))
    a1, _, b1, _ = _graph_coefficient_stack(lam.shape[1], lam0, v, lam1, mu1, lam, mu)
    j = np.stack([form.j for form, *_ in samples])
    return (v @ (a1 - b1)).conj().swapaxes(-1, -2) @ j @ lam0


def _hermitize_derivative(d: np.ndarray, label: str) -> HermitianMatrix:
    residual = np.max(np.abs(d - d.conj().T), initial=0.0)
    if exceeds_scaled_tol(residual, d, 1e-5):
        raise ArithmeticError(
            f"{label} came out non-Hermitian (residual {residual:.3e}); "
            "the parameter is probably not a crossing"
        )
    return HermitianMatrix.from_symmetrized(d)


def _stencils(t: float) -> tuple[list[float], list[list[float]], tuple[int, ...]]:
    """The coarse and fine finite-difference stencils at t: their distinct
    parameters, the stencils and their weights.

    Second-order central differences with step ``_FD_STEP`` in the
    interior, one-sided stencils at 0 and 1; the fine stencil takes half
    the step. The distinct parameters come in the order the coarse and
    then the fine stencil first use them: four in the interior
    (t +- h, t +- h/2) and four at an endpoint (t, t + h, t + 2h,
    t + h/2 at 0).
    """
    h = _FD_STEP
    if t - 2 * h >= 0.0 and t + 2 * h <= 1.0:
        offsets, weights = (1, -1), (1, -1)
    elif t + 2 * h <= 1.0:
        offsets, weights = (0, 1, 2), (-3, 4, -1)
    elif t - 2 * h >= 0.0:
        offsets, weights = (0, -1, -2), (3, -4, 1)
    else:
        raise ValueError(f"finite-difference step {h} is too large for t={t}")
    stencils = [[t + k * step for k in offsets] for step in (h, h / 2)]
    return list(dict.fromkeys(s for stencil in stencils for s in stencil)), stencils, weights


def _derivative_form(values: np.ndarray, t: float, form: SymplecticForm, label: str) -> HermitianMatrix:
    """Hermitian derivative at t of a matrix function, named ``label`` in errors.

    ``values`` is the stack of the function's values at the distinct
    parameters of :func:`_stencils` at t, in their order. The derivative
    is taken on the coarse and the fine stencil; both must pass the
    Hermitian gate and have one signature, and the Richardson
    combination of the two is returned.
    """
    params, stencils, weights = _stencils(t)
    where = {s: i for i, s in enumerate(params)}
    coarse, fine = (
        sum(w * values[where[s]] for s, w in zip(stencil, weights)) / (2 * step)
        for stencil, step in zip(stencils, (_FD_STEP, _FD_STEP / 2))
    )
    g_coarse, g_fine = (_hermitize_derivative(d, label) for d in (coarse, fine))
    if _signature(g_coarse, form) != _signature(g_fine, form):
        raise ArithmeticError(
            f"{label} signature at t={t} changed under finite-difference step halving"
        )
    return _hermitize_derivative((4 * fine - coarse) / 3, label)


def _form_scale(q: HermitianMatrix, form: SymplecticForm) -> tuple[np.ndarray, float]:
    """Eigenvalues of q and max(||J||_2, ||q||_2), the scale of the crossing-form tolerances.

    q is Hermitian, so ||q||_2 is its largest |eigenvalue| and one
    eigensolve gives both. ||J||_2 is the largest |eigenvalue| of -iJ,
    which the form keeps, so tolerances relative to it follow the data
    under J -> cJ.
    """
    vals = q.eigenvalues()
    return vals, max(np.abs(form.eig[0]).max(), np.abs(vals).max(initial=0.0))


def _signature(q: HermitianMatrix, form: SymplecticForm) -> tuple[int, int, int]:
    """Inertia of q, counting eigenvalues below _FORM_ZERO max(||J||_2, ||q||_2) as zero."""
    vals, scale = _form_scale(q, form)
    return _inertia(vals, _FORM_ZERO * scale)


def crossing_form(path: LagrangianPairPath, t: float, seed: int = 0) -> CrossingRecord:
    """Crossing form of the path at a time where the pair intersects.

    The form lives on lam(t) inter mu(t) and is the derivative

        Gamma(x, y) = d/ds omega(s)(x, (A1(s) - B1(s)) y)

    of the graph-coefficient pairing taken over the intrinsic
    decomposition anchored at t, by :func:`_derivative_form`: central
    finite differences with step ``_FD_STEP`` in the interior,
    second-order one-sided stencils at the endpoints, the step and
    half-step results agreeing in signature, and their Richardson
    combination returned. The whole computation is repeated with a
    second complement V and both the matrix, to within
    1e-5 max(||J(t)||_2, ||Gamma||_2), and the signature must agree,
    which exercises the independence of the form from that choice. Both
    complements anchor on the one frame lam0 = intersect(lam(t), mu(t)),
    so the two matrices are in the same coordinates; the checks of lam(t)
    and mu(t) and the spaces lam0, lam + mu and its orthogonal
    complement are shared by the two (:func:`reduction._anchor_spaces`).

    The graph calculus runs once, over a stack indexed by complement and
    distinct stencil parameter: the pair blocks of each complement come
    from one :func:`_anchored_sample` over the four parameters, and the
    graph coefficients of all eight elements from one stacked solve
    (:func:`_pairings`). The errors follow one rule, the order of the
    stages of that computation:

    1. the decompositions of both complements;
    2. the evaluation of every distinct stencil parameter, in order;
    3. the gates of the stacked solve in their fixed order, each naming
       the earliest failing element (:func:`_pairings`);
    4. each complement's derivative gates (:func:`_derivative_form`),
       the first complement's first;
    5. the agreement of the two complements.

    Raises
    ------
    ValueError
        If the pair is transversal at t (no crossing) or the path
        cannot be evaluated off its sample grid.
    ArithmeticError
        If the derivative is unstable under step halving or depends on
        the choice of complement.
    """
    form_t, lam_t, mu_t = path.evaluate(t)
    spaces = _anchor_spaces(form_t, lam_t, mu_t)
    frame = spaces[0]
    if frame.dim == 0:
        raise ValueError(f"no crossing at t={t}: the pair is transversal there")
    anchors = [_decompose(form_t, lam_t, mu_t, spaces, None, seed + k) for k in (0, 101)]
    params = _stencils(t)[0]
    samples = [
        smp for anchor in anchors for smp in _anchored_sample(path.evaluate, params, form_t, *anchor)
    ]
    gamma, gamma_alt = (
        _derivative_form(values, t, form_t, "crossing form") for values in np.split(_pairings(samples), 2)
    )
    vals, scale = _form_scale(gamma, form_t)
    signature = _inertia(vals, _FORM_ZERO * scale)
    if _signature(gamma_alt, form_t) != signature or (
        np.max(np.abs(gamma.matrix - gamma_alt.matrix), initial=0.0) > 1e-5 * scale
    ):
        raise ArithmeticError(
            f"crossing form at t={t} depends on the choice of complement"
        )
    return CrossingRecord(float(t), frame, gamma, signature)


def _form_moved(form: SymplecticForm, ref: SymplecticForm) -> bool:
    """Whether ``form`` is another object than ``ref`` with ||J - J_ref||_2 > 1e-10 ||J_ref||_2.

    The one rule by which a form counts as fixed, for the one-sided
    forms and for :func:`maslov_semipositive`.
    """
    return form is not ref and np.linalg.norm(form.j - ref.j, 2) > 1e-10 * np.linalg.norm(ref.j, 2)


def one_sided_form(
    path: LagrangianPairPath,
    t: float,
    member: str = "lam",
    seed: int = 0,
) -> tuple[HermitianMatrix, Frame]:
    """Derivative form Q of one member of the pair against a fixed complement.

    The member at t is paired with itself and anchored like a crossing
    (:func:`reduction._decompose`): lam0 spans the member at t, and the
    anchor's V, a seeded isotropic complement, is the fixed Lagrangian
    complement W. Near t the member is the graph of A(s) from lam0 into
    V, and Q is the derivative at t of q(s)(x, y) = omega(x, A(s) y),
    written in the anchor's lam0 frame, which is returned with it. The
    stencil values (form(t), member(s), member(t)) go through the
    calculus of the crossing forms: :func:`_anchored_sample`, the
    stacked solve of :func:`_pairings` and :func:`_derivative_form`.
    A member that is no graph over lam0 at a stencil point fails the
    stacked solve's graph gate, which names it ``lam``, its place in the
    anchored pair. Each stencil pairing must be Hermitian to
    ``RANK_TOL`` relative to its norm. Requires the symplectic form to
    be constant near t (:func:`_form_moved`). A path whose Q is positive
    semi-definite for every t is semi-positive; for a fixed form the
    crossing form is the difference of the two one-sided forms
    restricted to the intersection.
    """
    if member not in ("lam", "mu"):
        raise ValueError("member must be 'lam' or 'mu'")
    form_t, lam_t, mu_t = path.evaluate(t)
    base = lam_t if member == "lam" else mu_t
    anchor, _ = _decompose(form_t, base, base, _anchor_spaces(form_t, base, base), None, seed)

    def value(s: float) -> tuple[SymplecticForm, Frame, Frame]:
        form_s, lam_s, mu_s = path.evaluate(s)
        if _form_moved(form_s, form_t):
            raise ValueError("one-sided form needs a locally constant symplectic form")
        return form_t, (lam_s if member == "lam" else mu_s), base

    # lam0 + V is all of X, so the pair blocks are empty at every s and
    # none is cut out: a member that meets V fails the graph gate.
    empty = Frame.empty(form_t.dim)
    pairings = _pairings(_anchored_sample(value, _stencils(t)[0], form_t, anchor, empty))
    for q in pairings:
        residual = np.max(np.abs(q - q.conj().T), initial=0.0)
        if exceeds_scaled_tol(residual, q, RANK_TOL):
            raise ArithmeticError(f"graph pairing is not Hermitian (residual {residual:.3e})")
    hermitian = (pairings + pairings.conj().swapaxes(-1, -2)) / 2.0
    return _derivative_form(hermitian, t, form_t, "one-sided form"), anchor.lam0


def _scan_pieces(grid, values, motions) -> list[tuple[float, float]]:
    """The pieces of the gaps of ``grid`` where a nonnegative value may reach 0, in order.

    A piece [c, d] is cleared when value(c) + value(d) exceeds
    ``_MOTION_FACTOR`` times its motion, a bound on how far value moves
    between c and d. A cleared piece stays above 0 as long as the motion
    inside it stays within that factor of the motion between its ends.
    That is a measured heuristic: a value that dips and comes back
    inside one piece is not seen. A piece that is not cleared is halved
    ``_PIECE_DEPTH`` times, to 1/64 of its gap; a piece at that depth,
    or one with value 0 at both ends, is kept.

    All gaps are scanned together, one depth at a time, so there are at
    most ``_PIECE_DEPTH + 1`` levels, and each level makes one call of
    each function. ``values`` takes the new points of the level, in
    increasing order, and returns their values; each point is valued
    once. ``motions`` takes the level's pieces, in order, and returns
    their motions. A piece's fate depends only on the values at its
    ends and the motion between them, so the pieces are those of a
    scan of one gap at a time.
    """
    known: dict[float, float] = {}
    pieces = list(zip(grid, grid[1:]))
    kept = []
    for depth in range(_PIECE_DEPTH + 1):
        if not pieces:
            break
        new = sorted({s for piece in pieces for s in piece} - known.keys())
        known.update(zip(new, values(new)))
        level, pieces = pieces, []
        for (c, d), motion in zip(level, motions(level)):
            excess = known[c] + known[d]
            if excess > _MOTION_FACTOR * motion:
                continue
            if excess <= 0.0 or depth == _PIECE_DEPTH:
                kept.append((c, d))
            else:
                mid = 0.5 * (c + d)
                pieces += [(c, mid), (mid, d)]
    return sorted(kept)


def _ordered_angle(s: float, path: LagrangianPairPath, j: int) -> float:
    """The j-th smallest angle of W(s) (see :func:`_path_angles`).

    A module function, not a closure over the path: ``scipy.optimize.brentq``
    wraps the function it is given in a closure that refers to itself,
    and through a closure over the path that cycle would keep the path
    alive until the cyclic collector runs.
    """
    return float(np.sort(_path_angles(path, s))[j])


def _crossing_events(path: LagrangianPairPath) -> list[tuple[float, float, int]]:
    """The levels (lo, hi, z) of the number z of eigenvalues of W(s) at 1.

    Angles of the relative unitary W(s) (see :func:`_path_angles`)
    within 1e-8 of 0 count as 0, the snap winding applies to its end
    angles. The state at s is (z, p), the numbers of angles at 0 and
    above it: a crossing changes p by one, whatever the other angles do.
    No angle is followed from one parameter to the next.

    All sample gaps are scanned together by :func:`_scan_pieces`, one
    level of halving at a time, on f(s) = min |angle|, with the
    Hausdorff distance between the end spectra on the circle as the
    motion; each level's new parameters are evaluated, then checked as
    Lagrangian in one stack by :func:`_check_pairs`. The values of a
    level's new points come from one stacked array of the angles the
    path keeps, and the motions of all its pieces from one stacked
    (pieces, n, n) array of circular distances and its row and column
    minima and maxima, which are exact, so each piece's fate is that of
    a piece taken alone. The bracket search below calls the same two
    functions on the two ends of one bracket. Pieces that will
    not clear are split down to the floor depth, never located early.
    The floor pieces are then searched one at a time. A floor piece
    whose end states differ is bisected where they differ, to brackets
    of 1e-10, dropping brackets that clear against 1e-8 (an angle
    passing pi changes p too). Where z = 0 at both ends and p differs
    by one, the crossing angle is the j-th smallest, j the number below
    0, and a root search on it gives the crossing to 1e-10. A root
    farther than 1e-6 from 0 is a jump of that order statistic (an
    angle passing pi), and bisection goes on.

    The levels partition the path, in order, into stretches of constant
    z = dim(lam(s) inter mu(s)): a transversal crossing is a level of
    width at most 1e-10 between two levels of z = 0, a plateau a wide
    one. The first and last levels hold z at the path ends, the
    snapped count winding uses there. Two crossings in one floor piece
    that leave its end states equal (opposite crossings of two angles,
    or an angle that comes back) are not seen, and add 0 to both counts.
    """

    def angles(params) -> np.ndarray:
        _check_pairs(path, params)
        return np.stack([path._angles[float(s)] for s in params])

    def distances(params: list[float]) -> np.ndarray:
        return np.min(np.abs(angles(params)), axis=1)

    def motions(pieces: list[tuple[float, float]]) -> np.ndarray:
        ends = angles([s for piece in pieces for s in piece])
        delta = np.abs(_circular_delta(ends[0::2, :, None], ends[1::2, None, :]))
        return np.maximum(delta.min(axis=2).max(axis=1), delta.min(axis=1).max(axis=1))

    def state(s: float) -> tuple[int, int]:
        theta = _path_angles(path, s)
        return int(np.sum(np.abs(theta) <= _ANGLE_SNAP)), int(np.sum(theta > _ANGLE_SNAP))

    changes = []  # (time, z before, z after)
    for piece in _scan_pieces([smp.s for smp in path.samples], distances, motions):
        brackets = [piece]
        while brackets:
            u, v = brackets.pop()
            (z_u, p_u), (z_v, p_v) = state(u), state(v)
            if (z_u, p_u) == (z_v, p_v):
                continue
            d_u, d_v = distances([u, v])
            if d_u + d_v - 2.0 * _ANGLE_SNAP > _MOTION_FACTOR * motions([(u, v)])[0]:
                continue
            if v - u <= _BISECT_TOL:
                if z_u != z_v:
                    changes.append((0.5 * (u + v), z_u, z_v))
                continue
            if z_u == z_v == 0 and abs(p_u - p_v) == 1:
                j = len(_path_angles(path, u)) - max(p_u, p_v)
                t = scipy.optimize.brentq(
                    _ordered_angle, u, v, args=(path, j), xtol=_BISECT_TOL
                )
                if abs(_ordered_angle(t, path, j)) <= _SCAN_ZERO:
                    changes.extend(((t, 0, 1), (t, 1, 0)))
                    continue
            mid = 0.5 * (u + v)
            brackets.extend(((mid, v), (u, mid)))

    s_start, s_end = path.samples[0].s, path.samples[-1].s
    starts = [(s_start, state(s_start)[0])]
    for t, _, z in sorted(changes) + [(s_end, 0, state(s_end)[0])]:
        if z != starts[-1][1]:
            starts.append((t, z))
    return [(t, u, z) for (t, z), (u, _) in zip(starts, starts[1:] + [(s_end, 0)])]


def maslov_crossings(path: LagrangianPairPath, seed: int = 0) -> MaslovResult:
    """Maslov counts by locating crossings and adding their signatures.

    Crossing times come from :func:`_crossing_events`, which reads
    counts of the relative unitary's eigenvalues near 1, so no
    eigenvalue branch of the winding route is used; ``maslov_reduced``
    partitions the path at the same levels. Each span, a run of levels
    where the pair intersects, gives one time at each path end it
    holds, or else one at its midpoint. Crossings are located to 1e-10
    in s.
    Every crossing must be regular. The counts follow the
    asymmetric endpoint convention

        Mas_+ = m+(Gamma(0)) + sum_{0<t<1} sign Gamma(t) - m-(Gamma(1)),

    with only the endpoint terms present when the pair actually
    intersects there, and Mas_- derived through the flipping identity.
    """
    if path.callback is None:
        raise ValueError(
            "the crossing method needs a refinement callback to locate "
            "crossings between samples"
        )
    levels = _crossing_events(path)
    s_start, s_end = levels[0][0], levels[-1][1]
    times = []
    for intersected, run in itertools.groupby(levels, key=lambda level: level[2] > 0):
        if intersected:
            run = list(run)
            span = (run[0][0], run[-1][1])
            times += [s for s in span if s in (s_start, s_end)] or [0.5 * sum(span)]
    records = []
    for t in times:
        rec = crossing_form(path, t, seed)
        if rec.signature[2] != 0:
            raise ValueError(
                f"degenerate crossing at t={t:.12f} (kernel dimension "
                f"{rec.signature[2]}); the winding method handles irregular crossings"
            )
        records.append(rec)
    mas_plus = 0
    dim0 = dim1 = 0
    for rec in records:
        pos, neg, _ = rec.signature
        if rec.t == 0.0:
            mas_plus += pos
            dim0 = rec.gamma.dim
        elif rec.t == 1.0:
            mas_plus -= neg
            dim1 = rec.gamma.dim
        else:
            mas_plus += pos - neg
    mas_minus = mas_plus - dim0 + dim1
    return _checked_result(
        mas_plus, mas_minus, dim0, dim1, "crossing", crossings=tuple(records)
    )


def maslov_semipositive(path: LagrangianPairPath, seed: int = 0) -> int:
    """Maslov index of a semi-positive path by counting intersection jumps.

    For a path with fixed form and constant mu whose one-sided form
    Q(lam, t) is positive semi-definite at every t, the Maslov index is

        sum over 0 < t <= 1 of (dim(lam(t) inter mu) - left limit),

    the total upward jump of the intersection dimension, counted at the
    jump time. Semi-positivity is verified at every grid point by the
    zero rule of the crossing-form signatures: an eigenvalue of Q(lam, t)
    below -_FORM_ZERO max(||J||_2, ||Q||_2) raises with the offending t.
    The rule scales with the data, so it holds under J -> cJ. The jumps
    are the rises, over 0 < t <= 1, of the number of eigenvalues of the
    relative unitary within 1e-8 of 1, read off
    :func:`_crossing_events`, the scan ``maslov_crossings`` uses. A
    plateau where the pair stays intersected counts once, at its start.
    The result agrees with the lower winding count, and with the upper
    one when the endpoints are transversal.
    """
    if path.callback is None:
        raise ValueError(
            "the jump-count method needs a refinement callback for "
            "finite differencing and crossing location"
        )
    base = path.samples[0]
    for smp in path.samples[1:]:
        if _form_moved(smp.form, base.form):
            raise ValueError("the jump-count method requires a fixed symplectic form")
        if gap_hat(smp.mu, base.mu) > 1e-9:
            raise ValueError("the jump-count method requires a constant mu")
    for smp in path.samples:
        q, _ = one_sided_form(path, smp.s, "lam", seed)
        if _signature(q, smp.form)[1]:
            raise ValueError(
                f"path is not semi-positive at t={smp.s:.6f}: "
                f"Q(lam, t) has eigenvalue {q.eigenvalues()[0]:.3e}"
            )
    levels = _crossing_events(path)
    return sum(max(0, z - z_prev) for (*_, z_prev), (*_, z) in zip(levels, levels[1:]))


def _segment_counts(
    path: LagrangianPairPath,
    t: float,
    span: tuple[float, float],
    lo: float,
    hi: float,
    seed: int,
) -> tuple[int, int]:
    """Reduced winding counts of the segment [lo, hi] around one span.

    The anchor is the intrinsic decomposition at t: each parameter is
    reduced onto X0 = lam0 + V once, by :func:`_anchored_sample` and
    :func:`reduction.reduced_pair`, and the reduced path through lo, t
    and hi, refined through the reduced callback, is counted by
    :func:`maslov_winding`. A gate that fails moves both ends halfway
    toward the span, and the ``_MAX_DEPTH + 1``-th failure raises. The
    counts are taken once more with both ends halfway toward the span,
    and must not change. A failing anchor raises as it is.
    """
    form, lam, mu = path.evaluate(t)
    dec, v_ann = _decompose(form, lam, mu, _anchor_spaces(form, lam, mu), None, seed)
    reduced: dict[float, tuple[SymplecticForm, Frame, Frame]] = {}

    def reduce(s: float) -> tuple[SymplecticForm, Frame, Frame]:
        if s not in reduced:
            ((form_s, lam_s, mu_s, local),) = _anchored_sample(path.evaluate, [s], form, dec, v_ann)
            reduced[s] = reduced_pair(form_s, local, lam_s, mu_s)
        return reduced[s]

    def counts(lo: float, hi: float) -> tuple[int, int]:
        width = hi - lo
        samples = [PathSample((s - lo) / width, *reduce(s)) for s in sorted({lo, t, hi})]
        result = maslov_winding(_refined_path(samples, lambda u: reduce(lo + u * width)))
        return result.mas_plus, result.mas_minus

    a, b = span
    found: list[tuple[int, int]] = []
    failures = 0
    while len(found) < 2:
        try:
            found.append(counts(lo, hi))
        except (ValueError, ArithmeticError) as exc:
            failures += 1
            if failures > _MAX_DEPTH:
                raise ValueError(
                    "no admissible reduction partition at the requested resolution "
                    f"(segment s={lo:.6f}..{hi:.6f}: {exc})"
                ) from exc
        lo, hi = 0.5 * (lo + a), 0.5 * (hi + b)
    if found[0] != found[1]:
        raise ArithmeticError(
            f"reduced Maslov counts changed under partition refinement: "
            f"{found[0]} vs {found[1]}"
        )
    return found[0]


def maslov_reduced(path: LagrangianPairPath, seed: int = 0) -> MaslovResult:
    """Maslov counts through segmental symplectic reduction at the crossings.

    The levels of :func:`_crossing_events`, the scan ``maslov_crossings``
    uses, partition the interval. Each peak, a level where z =
    dim(lam inter mu) is higher than on both neighbours, gets one
    segment, anchored at the peak's midpoint by :func:`_segment_counts`,
    so its lam0 holds every direction that meets between the valleys,
    the lowest levels, on either side. The segment's span runs from the
    valley before it to the valley after it. The segment runs from the
    last sample before its span to the first sample after it, clipped
    to the midpoints of those valleys, or to the path ends; the
    stretches between segments lie inside one valley each and count 0.
    A crossing, a plateau, or an intersection at a path end is one
    peak; a crossing on top of a plateau is a peak of its own.
    Catenation makes the counts independent of the partition; each
    segment is counted again with both ends halfway toward its span,
    and a disagreement raises.

    The direct sum lam0 + V + lam1(s) + mu1(s) = X is checked only at
    the reduced samples and at the points where the reduced winding
    refines, a heuristic: a segment reaches at most one sample gap past
    its span. This route shares event detection with
    ``maslov_crossings``; the winding route shares neither, and every
    consumer checks this route against it. The intersection dimensions
    at the ends are z there, the numbers of angles winding snaps to 0.
    """
    if path.callback is None:
        raise ValueError(
            "the reduction method needs a refinement callback to locate "
            "crossings between samples"
        )
    times = [smp.s for smp in path.samples]
    levels = _crossing_events(path)
    zs = [0] + [z for *_, z in levels] + [0]
    peaks = [k for k in range(len(levels)) if zs[k + 1] > max(zs[k], zs[k + 2])]
    bounds = [-1] + peaks + [len(levels)]
    valleys = [
        min(range(p + 1, q), key=lambda j: levels[j][2], default=None)
        for p, q in zip(bounds, bounds[1:])
    ]
    cuts = [times[0]] + [0.5 * sum(levels[v][:2]) for v in valleys[1:-1]] + [times[-1]]
    mas_plus = mas_minus = 0
    for k, p in enumerate(peaks):
        left, right = valleys[k], valleys[k + 1]
        a = times[0] if left is None else levels[left][1]
        b = times[-1] if right is None else levels[right][0]
        lo = max(times[max(bisect.bisect_left(times, a) - 1, 0)], cuts[k])
        hi = min(times[min(bisect.bisect_right(times, b), len(times) - 1)], cuts[k + 1])
        plus, minus = _segment_counts(path, 0.5 * sum(levels[p][:2]), (a, b), lo, hi, seed)
        mas_plus += plus
        mas_minus += minus
    return _checked_result(mas_plus, mas_minus, levels[0][2], levels[-1][2], "reduced")


def _connecting_path(
    form: SymplecticForm,
    start: Frame,
    end: Frame,
    mu: Frame,
    seed: int,
    num_samples: int,
) -> LagrangianPairPath:
    """Path of Lagrangians from start to end, paired with a fixed mu.

    Both endpoints are written as graphs over start along a common
    Lagrangian complement W; scaling the endpoint's graph coefficient
    linearly stays Lagrangian because the pairing it induces is
    Hermitian. W is drawn from seeded random Lagrangians until it is
    transversal to both endpoints. The coefficient is the A1 of the pair
    (end, start) over the blocks start (+) W with no pair blocks, from
    :func:`reduction.graph_coefficients_in_bases`, with the gates of
    every graph coefficient. When the endpoint's graph coefficient is
    large the graph sweeps most of a principal angle within a short
    parameter window; :meth:`LagrangianPairPath.from_callable` refines
    the grid there.
    """
    from .sampling import random_lagrangian, rng_from_seed

    rng = rng_from_seed((0x4C61, seed))
    w = None
    for _ in range(50):
        candidate = random_lagrangian(rng, form)
        if intersect(candidate, start).dim == 0 and intersect(candidate, end).dim == 0:
            w = candidate
            break
    if w is None:
        raise ArithmeticError("could not draw a complement transversal to both ends")
    empty = np.zeros((form.dim, 0), dtype=complex)
    t2 = graph_coefficients_in_bases(form, start.matrix, w.matrix, empty, empty, end, start)[0]

    def fn(s: float):
        lam_s = orthonormalize(start.matrix + w.matrix @ (s * t2))
        return form, lam_s, mu

    return LagrangianPairPath.from_callable(fn, num_samples)


def hormander(
    form: SymplecticForm,
    lam1: Frame,
    lam2: Frame,
    mu1: Frame,
    mu2: Frame,
    seed: int = 0,
) -> int:
    """Hormander index of two Lagrangian pairs.

    Connects lam1 to lam2 by a graph-interpolation path lam(s) and
    returns Mas_+{lam(s), mu2} - Mas_+{lam(s), mu1}, each path on
    ``_HORMANDER_SAMPLES`` samples. The value does not depend on the
    connecting path; the computation is repeated with a second seeded
    path and both runs must agree.
    """
    for name, sub in (("lam1", lam1), ("lam2", lam2), ("mu1", mu1), ("mu2", mu2)):
        kind = classify(form, sub)
        if kind != "lagrangian":
            raise ValueError(f"{name} is {kind}, not lagrangian")

    def one_run(path_seed: int) -> int:
        with_mu2 = _connecting_path(form, lam1, lam2, mu2, path_seed, _HORMANDER_SAMPLES)
        with_mu1 = _connecting_path(form, lam1, lam2, mu1, path_seed, _HORMANDER_SAMPLES)
        return maslov_winding(with_mu2).mas_plus - maslov_winding(with_mu1).mas_plus

    value = one_run(seed)
    check = one_run(seed + 37)
    if value != check:
        raise ArithmeticError(
            f"Hormander index differs between connecting paths ({value} vs {check})"
        )
    return value


def diagonal_lift(path: LagrangianPairPath) -> MaslovResult:
    """Maslov counts of the pair path moved against the diagonal.

    The pair (lam, mu) in (X, omega) is lifted to the single Lagrangian
    lam (+) mu of the doubled space with form omega (+) (-omega), paired
    with the constant diagonal. Three evaluations must agree: the lift
    against the diagonal, the original path, and the diagonal against
    the lift in the oppositely doubled form. The lifted evaluation is
    returned. The original path's winding is the one :func:`maslov_winding`
    keeps on it, so a path the caller has wound is not wound again.

    The doubled forms J (+) -J and -J (+) J come from one stacked pass
    over the eigendata of the path's distinct forms
    (:func:`symplectic._doubled_forms`), once per form object, so
    nothing here decomposes a 2N x 2N matrix. Both lifts share one pair
    frame lam (+) mu per parameter, and a path with one form object
    lifts to paths with one form object each.

    Both lifts are sampled at the rows of the path's winding: its
    samples and every parameter the winding refined to. The lifted
    relative unitary's eigenvalues are +- the square roots of the
    path's, so a lifted branch moves by half as much as the path's, at
    most pi/4 from row to row. A lift's movement gate could not see a
    lifted step past pi/2, so sampled at the samples alone the lifts
    would alias where the path turns by more than pi between two of
    them.

    The lifts inherit the path's sampling gate and its Lagrangian
    decision at the rows, because their inputs are the same by block
    structure. The path has passed the gate on the steps between its
    samples; the steps the winding inserted go through one
    :func:`_sampling_failures` call on the path's values at the rows,
    whose failure raises ValueError as the constructor's does. The
    inputs:

    * the principal angles of lam_a (+) mu_a and lam_b (+) mu_b are those
      of lam and of mu together, so the lifted gap is
      max(gap lam, gap mu), and the diagonal is constant;
    * ||(J_b (+) -J_b) - (J_a (+) -J_a)||_2 = ||J_b - J_a||_2, and
      sigma_min(J (+) -J) = sigma_min(J);
    * (J (+) -J)(lam (+) mu) = J lam (+) (-J mu), so the isotropy
      residual of lam (+) mu is max(residual lam, residual mu) and the
      ranks add: lam (+) mu is Lagrangian exactly when lam and mu are.
      The diagonal {(x, x)} is isotropic, exactly, and of dimension N.

    So no lifted frame goes through :func:`symplectic.lagrangian_mask`
    or :func:`symplectic.classify`. A parameter that a lift's winding
    refines to is decided on the path (:func:`_check_pairs`). Each lift
    then solves its generators, the pair frames' and the diagonal's, in
    one call of :func:`symplectic._generators`, the solve and unitarity
    gate of the Lagrangian check, and has its own relative angles and
    branch continuation, so each lift is still a check.
    """
    eye = np.eye(path.dim)
    diagonal = Frame(np.vstack([eye, eye]) / np.sqrt(2.0))
    pairs: dict[float, Frame] = {}
    # Keyed by the id of a form the entry keeps alive.
    doubled: dict[int, tuple[SymplecticForm, tuple[SymplecticForm, SymplecticForm]]] = {}

    def add(params) -> None:
        # The doubled forms of the new form objects in one stacked pass,
        # the new pair frames as views of one stack.
        values = {s: path.evaluate(s) for s in params if s not in pairs}
        if not values:
            return
        forms = {id(form): form for form, _, _ in values.values() if id(form) not in doubled}
        if forms:
            for form, both in zip(forms.values(), _doubled_forms(list(forms.values()))):
                doubled[id(form)] = form, both
        lam, mu = (np.stack([value[k].matrix for value in values.values()]) for k in (1, 2))
        m, n, k = lam.shape
        stacked = np.zeros((m, 2 * n, 2 * k), dtype=complex)
        stacked[:, :n, :k], stacked[:, n:, k:] = lam, mu
        pairs.update(zip(values, map(Frame._of_orthonormal, stacked)))

    def lifted(flip_first: bool, swap: bool) -> LagrangianPairPath:
        def at(s: float) -> tuple[SymplecticForm, Frame]:
            if s not in pairs:
                add([s])
            return doubled[id(path.evaluate(s)[0])][1][flip_first], pairs[s]

        def fn(s: float):
            form2, pair = at(s)
            return (form2, diagonal, pair) if swap else (form2, pair, diagonal)

        def angles(params: list[float], failure: str) -> np.ndarray:
            # The path decides, in one stack, every parameter it has not.
            _check_pairs(path, params, failure)
            add(params)
            forms, frames = zip(*(at(s) for s in params))
            frames = np.stack([f.matrix for f in frames])
            u = _generators(
                np.stack([form.eig[0] for form in forms * 2]),
                np.stack([form.eig[1] for form in forms * 2]),
                np.concatenate([frames, np.broadcast_to(diagonal.matrix, frames.shape)]),
            )
            u_pair, u_diagonal = np.split(u, 2)
            return _generator_angles(*((u_diagonal, u_pair) if swap else (u_pair, u_diagonal)))

        samples = _GatedSamples((PathSample(s, *fn(s)) for s in rows), angles)
        return LagrangianPairPath(samples, fn if path.callback is not None else None)

    direct = maslov_winding(path)
    rows = [float(s) for s in direct.theta_curves[:, 0]]
    if len(rows) > len(path.samples):
        # The steps the winding inserted have not passed the gate yet.
        _raise_first_failure([PathSample(s, *path.evaluate(s)) for s in rows])
    add(rows)
    lift = maslov_winding(lifted(flip_first=False, swap=False))
    lift_swapped = maslov_winding(lifted(flip_first=True, swap=True))
    values = {
        (res.mas_plus, res.mas_minus) for res in (direct, lift, lift_swapped)
    }
    if len(values) != 1:
        raise ArithmeticError(
            "diagonal lift expressions disagree: direct "
            f"{(direct.mas_plus, direct.mas_minus)}, lift "
            f"{(lift.mas_plus, lift.mas_minus)}, swapped "
            f"{(lift_swapped.mas_plus, lift_swapped.mas_minus)}"
        )
    return lift


def benchmark_pair_path(num_samples: int = 21) -> LagrangianPairPath:
    """Canonical C^2 path: lam(s) = span{(1, s - 1/2)} against mu = span{e1}.

    The single eigenvalue angle is theta(s) = 2 arctan(s - 1/2), so the
    path has one positive regular crossing at s = 1/2 and
    Mas_+ = Mas_- = 1. It pins the orientation convention of every
    method and serves as the smallest nontrivial regression case.
    """
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    form = SymplecticForm(j)
    mu = Frame.span([1.0, 0.0])

    def fn(s: float):
        return form, orthonormalize(np.array([[1.0], [s - 0.5]])), mu

    return LagrangianPairPath.from_callable(fn, num_samples)
