"""Tests for discretized Hamiltonian boundary value problems."""

import csv
import functools
import json
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from maslovlab import bvp, cli
from maslovlab.bvp import (
    BoundaryCondition,
    HamiltonianFamily,
    cauchy_data,
    desuspension_check,
    discretize,
    graph_condition,
    green_form,
    periodic_condition,
    propagator,
    separated_condition,
    splitting_check,
)
from maslovlab.frames import (
    Frame,
    HermitianMatrix,
    fredholm_pair_index,
    gap_hat,
    intersect,
    orthonormalize,
)
from maslovlab.maslov import LagrangianPairPath, maslov_winding
from maslovlab.sampling import random_unitary, rng_from_seed
from maslovlab.symplectic import classify

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def scalar_family():
    """-i d/dt + sigma(s) on [0, 1] with sigma running from -1 to 1."""
    return HamiltonianFamily(
        1, np.array([[-1j]]), lambda s, t: np.array([[2.0 * s - 1.0]])
    )


def planar_family(c_fn):
    return HamiltonianFamily(2, J2, c_fn)


def rotation(angle):
    return np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )


def line(angle):
    return Frame.span([np.cos(angle), np.sin(angle)])


def separated_lines_family():
    """C(s, t) = s*I with u(0), u(1) pinned to lines half a radian apart.

    Solutions rotate by the angle s, so the kernel appears exactly at
    s = 1/2 and the eigenvalue branches are s - 1/2 + m*pi.
    """
    fam = planar_family(lambda s, t: s * np.eye(2))
    bc = separated_condition(fam, line(0.0), line(0.5))
    return fam, bc


def seeded_time_dependent(seed):
    rng = rng_from_seed((0x6B7650, seed))
    amp = rng.uniform(0.2, 0.5, size=3)

    def c(s, t):
        base = np.array(
            [
                [amp[0] * np.cos(2 * np.pi * t), amp[2] * np.sin(2 * np.pi * t)],
                [amp[2] * np.sin(2 * np.pi * t), -amp[1] * np.cos(2 * np.pi * t)],
            ]
        )
        return base + (2.0 * s - 1.0) * np.eye(2)

    return planar_family(c)


def test_family_rejects_bad_data():
    with pytest.raises(ValueError, match="skew-Hermitian"):
        HamiltonianFamily(1, np.array([[1.0]]), lambda s, t: np.zeros((1, 1)))
    with pytest.raises(ValueError, match="invertible"):
        HamiltonianFamily(2, np.zeros((2, 2)), lambda s, t: np.zeros((2, 2)))
    with pytest.raises(ValueError, match="positive"):
        HamiltonianFamily(
            1, np.array([[-1j]]), lambda s, t: np.zeros((1, 1)), t_end=0.0
        )


def test_non_hermitian_coefficient_is_rejected():
    fam = planar_family(lambda s, t: np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        cauchy_data(fam, 0.5)


def skewed(defect):
    """A with ||A||_2 = 1e6 (to rounding) and max|A - A^H| = defect."""
    return np.array([[1e6, defect], [0.0, 0.0]], dtype=complex)


def test_coefficient_hermiticity_gate_is_relative():
    # Gate: max|C - C^H| > 1e-10 * max(1, ||C||_2), i.e. 1e-4 here.
    bvp._coefficients(planar_family(lambda s, t: skewed(0.9e-4)), 0.0, [0.0, 0.5])
    with pytest.raises(ValueError, match=r"coefficient C\(0.0, 0.5\) is not Hermitian"):
        bvp._coefficients(
            planar_family(lambda s, t: skewed(1.1e-4 if t > 0.0 else 0.9e-4)),
            0.0,
            [0.0, 0.5],
        )


def test_propagator_names_the_one_non_hermitian_gauss_stage():
    """C is Hermitian except at the fourth stage of the first step over [0, 1]."""
    stage = float(0.0 + 1.0 * bvp._GAUSS_NODES[3])

    def coeff(s, t):
        return skewed(1.0) if t == stage else np.zeros((2, 2))

    with pytest.raises(
        ValueError, match=re.escape(f"coefficient C(0.4, {stage}) is not Hermitian")
    ):
        propagator(planar_family(coeff), 0.4, 0.0, 1.0)


def test_operator_hermiticity_gate_is_relative():
    bvp._gated_hermitian(skewed(0.9e-4))
    with pytest.raises(ArithmeticError, match="discretized operator is not Hermitian"):
        bvp._gated_hermitian(skewed(1.1e-4))


def blockwise_fold_matrix(fam, g, grid, s):
    """Block-by-block assembly of the twisted circulant, the reference."""
    k = fam.dim
    grid = grid if grid % 2 == 1 else grid + 1
    h = fam.t_end / grid
    a = np.zeros((grid * k, grid * k), dtype=complex)
    gh = g.conj().T
    for j in range(grid):
        rows = slice(j * k, (j + 1) * k)
        a[rows, rows] += bvp._coefficients(fam, s, [j * h])[0]
        for r, w in bvp._STENCIL6:
            for sign in (1, -1):
                target = j + sign * r
                block = (sign * w / h) * fam.j0
                if target >= grid:
                    block = block @ g
                    target -= grid
                elif target < 0:
                    block = block @ gh
                    target += grid
                a[rows, target * k : (target + 1) * k] += block
    return a


FOLD_CASES = {
    "scalar_identity": (np.array([[-1j]]), np.eye(1)),
    "scalar_phase": (np.array([[-1j]]), np.array([[np.exp(0.4j)]])),
    "planar_identity": (J2, np.eye(2)),
    "planar_rotation": (J2, np.exp(0.3j) * rotation(0.7)),
}


@pytest.mark.parametrize("grid", [12, 13])
@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_fold_matrix_matches_blockwise_assembly(monkeypatch, case, grid):
    j0, g = FOLD_CASES[case]
    k = j0.shape[0]
    pauli = np.array([[0.0, -1j], [1j, 0.0]]) if k == 2 else np.zeros((1, 1))
    calls = []

    def coeff(s, t):
        calls.append((s, t))
        return (s + np.cos(2.0 * t)) * np.eye(k) + 0.3 * np.sin(t) * pauli

    fam = HamiltonianFamily(k, j0, coeff, t_end=1.3)
    reference = blockwise_fold_matrix(fam, g, grid, 0.37)
    reference_calls = list(calls)
    calls.clear()
    gated = bvp._fold_matrix(fam, g, grid, 0.37)
    assert calls == reference_calls
    expected = HermitianMatrix.from_symmetrized(reference).matrix
    assert gated.matrix.tobytes() == expected.tobytes()
    monkeypatch.setattr(bvp, "_gated_hermitian", lambda a: a)
    assert bvp._fold_matrix(fam, g, grid, 0.37).tobytes() == reference.tobytes()


def blockwise_sbp_matrix(fam, bc, grid, s):
    """Node-by-node assembly of the compressed summation-by-parts operator, the reference."""
    k = fam.dim
    nodes = grid + 1
    h = fam.t_end / grid
    a = np.kron(bvp._sbp_matrix_core(grid), fam.j0)
    weights = np.full(nodes, h)
    weights[0] = weights[-1] = h / 2.0
    for j in range(nodes):
        rows = slice(j * k, (j + 1) * k)
        a[rows, rows] += weights[j] * bvp._coefficients(fam, s, [j * h])[0]
    p = bvp._trace_basis(bc, k, nodes)
    metric = np.concatenate([np.repeat(weights[1:-1], k), np.full(bc.lagrangian.dim, h / 2.0)])
    d = 1.0 / np.sqrt(metric)
    return HermitianMatrix.from_symmetrized(d[:, None] * (p.conj().T @ a @ p) * d[None, :]).matrix


PATH_CASES = {
    "sbp_constant": lambda fam: separated_condition(fam, line(0.0), line(0.5)),
    "sbp_callable": lambda fam: lambda s: separated_condition(fam, line(0.3 * s), line(0.5 + 0.2 * s)),
    "fold_constant": lambda fam: graph_condition(fam, np.exp(0.3j) * rotation(0.7)),
    "fold_callable": lambda fam: lambda s: graph_condition(fam, np.exp(0.4j * s) * rotation(0.7 * s)),
}


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_discretize_path_matches_blockwise_assembly(case):
    """Every operator of a 9-sample path has the bytes of a from-scratch assembly at its s,
    and C(s, t) is called at the same points in the same order."""
    pauli = np.array([[0.0, -1j], [1j, 0.0]])
    calls = []

    def coeff(s, t):
        calls.append((s, t))
        return (s + np.cos(2.0 * t)) * np.eye(2) + 0.3 * np.sin(t) * pauli

    fam = HamiltonianFamily(2, J2, coeff, t_end=1.3)
    bc = PATH_CASES[case](fam)
    path = discretize(fam, bc, 12, 9)
    path_calls = list(calls)
    calls.clear()
    for s, mat in path.samples:
        cond = bc if isinstance(bc, BoundaryCondition) else bc(s)
        g = bvp._unitary_graph(cond, fam)
        assert (g is None) == case.startswith("sbp")
        if g is None:
            reference = blockwise_sbp_matrix(fam, cond, 12, s)
        else:
            reference = HermitianMatrix.from_symmetrized(blockwise_fold_matrix(fam, g, 12, s)).matrix
        assert mat.matrix.tobytes() == reference.tobytes()
    assert calls == path_calls


def test_assembler_builds_the_s_independent_part_once_per_path(monkeypatch):
    """The stencil of a constant bc is built once per path; a moving G or trace basis at each s."""
    built = []

    def counted(name, fn):
        def wrapper(*args):
            built.append(name)
            return fn(*args)
        return wrapper

    for name in ("_fold_stencil", "_sbp_matrix_core", "_trace_basis"):
        monkeypatch.setattr(bvp, name, counted(name, getattr(bvp, name)))
    fam = planar_family(lambda s, t: (2.0 * s - 1.0) * np.eye(2))
    expected = {
        "fold_constant": ["_fold_stencil"],
        "fold_callable": ["_fold_stencil"] * 9,
        "sbp_constant": ["_sbp_matrix_core", "_trace_basis"],
        "sbp_callable": ["_sbp_matrix_core"] + ["_trace_basis"] * 9,
    }
    for case, names in expected.items():
        built.clear()
        discretize(fam, PATH_CASES[case](fam), 64, 9)
        assert built == names, case


def test_boundary_condition_must_be_half_dimensional():
    with pytest.raises(ValueError, match="half-dimensional"):
        BoundaryCondition(Frame.span([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]))


def test_condition_helpers_validate_shapes():
    fam = scalar_family()
    with pytest.raises(ValueError, match="shape"):
        graph_condition(fam, np.eye(2))
    fam2 = planar_family(lambda s, t: np.zeros((2, 2)))
    with pytest.raises(ValueError, match="sum to the fiber dimension"):
        separated_condition(fam2, line(0.0), Frame.empty(2))


def test_green_form_scalar_pattern():
    gf = green_form(scalar_family())
    assert np.allclose(gf.j, np.diag([1j, -1j]))
    assert np.allclose(np.abs(np.diag(gf.j)), 1.0)


def test_green_form_diagonal_is_lagrangian():
    for fam in (scalar_family(), planar_family(lambda s, t: np.zeros((2, 2)))):
        bc = periodic_condition(fam)
        assert classify(green_form(fam), bc.lagrangian) == "lagrangian"


def test_cauchy_data_trivial_coefficient_is_diagonal():
    fam = planar_family(lambda s, t: np.zeros((2, 2)))
    cd = cauchy_data(fam, 0.3)
    assert gap_hat(cd, periodic_condition(fam).lagrangian) < 1e-9


def test_cauchy_data_scalar_closed_form():
    fam = scalar_family()
    for s in (0.0, 0.3, 0.9):
        sigma = 2.0 * s - 1.0
        ref = Frame.span([1.0, np.exp(-1j * sigma)])
        assert gap_hat(cauchy_data(fam, s), ref) < 1e-8


def test_cauchy_data_lagrangian_for_random_family():
    rng = rng_from_seed((0x6B7650, 7))
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    j0 = (m - m.conj().T) / 2.0
    j0 += 1j * np.eye(3) * 0.5
    h0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h0 = (h0 + h0.conj().T) / 2.0
    h1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h1 = (h1 + h1.conj().T) / 2.0
    fam = HamiltonianFamily(
        3, j0, lambda s, t: h0 + s * np.cos(np.pi * t) * h1
    )
    cd = cauchy_data(fam, 0.6)
    assert classify(green_form(fam), cd) == "lagrangian"


def test_cauchy_data_continuity_under_refinement():
    fam = seeded_time_dependent(3)
    base = cauchy_data(fam, 0.4)
    gaps = [gap_hat(base, cauchy_data(fam, 0.4 + step)) for step in (0.2, 0.1, 0.05)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.2


def test_propagator_backward_inverts_forward():
    fam = seeded_time_dependent(4)
    fwd = propagator(fam, 0.3, 0.0, 0.6)
    bwd = propagator(fam, 0.3, 0.6, 0.0)
    assert np.linalg.norm(fwd @ bwd - np.eye(2), 2) < 1e-8


def test_propagator_reports_pairing_drift():
    # u' = -i 60 cos(60 t) u, so Phi(1 <- 0) = exp(-i sin 60). Gauss
    # collocation keeps the pairing to roundoff; only a monodromy
    # too large for double precision (here ||Phi|| = 4.9e6, where even
    # the rounded expm drifts by 1e-3) trips the gate.
    osc = HamiltonianFamily(
        1, np.array([[-1j]]), lambda s, t: np.array([[60.0 * np.cos(60.0 * t)]])
    )
    exact = np.exp(-1j * np.sin(60.0))
    assert abs(propagator(osc, 0.5, 0.0, 1.0)[0, 0] - exact) <= bvp._ODE_TOL
    stretch = planar_family(lambda s, t: 20.0 * np.array([[1.0, 0.3], [0.3, -0.5]]))
    with pytest.raises(ArithmeticError, match="pairing"):
        propagator(stretch, 0.5, 0.0, 1.0)


def test_propagator_reports_a_singular_monodromy():
    # Phi(t) = diag(exp(-10 t), exp(10 t)): singular values e^10, e^-10.
    fam = planar_family(lambda s, t: np.array([[0.0, 10.0], [10.0, 0.0]]))
    with pytest.raises(ArithmeticError, match="numerically singular"):
        propagator(fam, 0.5, 0.0, 1.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    size=st.floats(0.0, 6.0),
)
def test_propagator_is_the_exponential_and_keeps_the_pairing(seed, k, size):
    """Constant C: Phi = expm(-J0^{-1} C) with ||J0^{-1} C|| = size.

    The pairing bound carries ||Phi||^2: rounding the entries of a
    J0-unitary Phi alone moves Phi^H J0 Phi by eps ||J0|| ||Phi||^2,
    and ||Phi|| reaches e^6 here.
    """
    rng = rng_from_seed((0x6B7650, seed))
    u = random_unitary(rng, k)
    spectrum = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k)
    j0 = 1j * (u * spectrum) @ u.conj().T
    c = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    c = (c + c.conj().T) / 2.0
    c *= size / np.linalg.norm(np.linalg.solve(j0, c), 2)
    eye = np.eye(k)
    constant = HamiltonianFamily(k, j0, lambda s, t: c)
    oscillating = HamiltonianFamily(k, j0, lambda s, t: np.cos(3.0 * t) * c)
    exact = scipy.linalg.expm(-np.linalg.solve(j0, c))
    for fam in (constant, oscillating):
        phi = propagator(fam, 0.0, 0.0, 1.0)
        drift = np.linalg.norm(phi.conj().T @ j0 @ phi - j0, 2)
        assert drift <= 1e-12 * np.linalg.norm(j0, 2) * max(1.0, np.linalg.norm(phi, 2)) ** 2
        back = propagator(fam, 0.0, 1.0, 0.0)
        assert np.linalg.norm(back @ phi - eye, 2) <= 1e-10
        if fam is constant:
            assert np.linalg.norm(phi - exact, 2) <= 1e-8 * np.linalg.norm(exact, 2)


def reference_propagator(fam, s, t_from, t_to):
    """Phi_s(t_to <- t_from) one parameter at a time, one solve per Gauss step.

    The step control of :func:`bvp.propagator` as a plain loop, without
    its final gates: the reference the lockstep engine must match bit
    for bit.
    """
    k = fam.dim
    stages = np.arange(bvp._GAUSS_STAGES)
    size = bvp._GAUSS_STAGES * k

    def gauss_step(start, end):
        h = end - start
        cs = bvp._coefficients(fam, s, start + h * bvp._GAUSS_NODES)
        blocks = h * bvp._GAUSS_A[:, :, None, None] * cs[:, None]
        blocks[stages, stages] += fam.j0
        slopes = np.linalg.solve(
            blocks.transpose(0, 2, 1, 3).reshape(size, size), -cs.reshape(size, k)
        ).reshape(bvp._GAUSS_STAGES, k, k)
        return np.eye(k) + h * np.tensordot(bvp._GAUSS_B, slopes, axes=1)

    phi = np.eye(k, dtype=complex)
    h = t_to - t_from
    pending = []
    t = t_from
    while pending or t != t_to:
        if pending:
            start, end, whole = pending.pop()
        else:
            start, end = t, (t_to if abs(h) >= abs(t_to - t) else t + h)
            whole = gauss_step(start, end)
        mid = start + (end - start) / 2.0
        first, second = gauss_step(start, mid), gauss_step(mid, end)
        halves = second @ first
        err = np.max(np.abs(whole - halves)) / max(1.0, np.max(np.abs(halves)))
        if err <= bvp._ODE_TOL:
            phi = halves @ phi
            t = end
            factor = bvp._STEP_SAFETY * (bvp._ODE_TOL / err) ** bvp._STEP_EXPONENT if err > 0.0 else np.inf
            h = (end - start) * min(bvp._STEP_GROWTH, factor)
        else:
            assert abs(end - start) > bvp._MIN_STEP * abs(t_to - t_from)
            pending += [(mid, end, second), (start, mid, first)]
    return phi


def reference_cauchy_frame(fam, s):
    eye = np.eye(fam.dim, dtype=complex)
    return orthonormalize(np.vstack([eye, reference_propagator(fam, s, 0.0, fam.t_end)]))


# Families of the lockstep tests: scalar, planar with a coefficient that
# does not commute with J0, t-periodic, and the seeded CLI families.
STACK_FAMILIES = {
    "scalar": scalar_family,
    "planar": lambda: planar_family(
        lambda s, t: (3.0 * s - 1.0) * np.array([[1.0, 0.3], [0.3, -0.5]])
    ),
    "t-periodic": lambda: seeded_time_dependent(2),
    "cli-seeded-0": lambda: cli._bvp_ingredients("seeded", 0)[0],
    "cli-seeded-1": lambda: cli._bvp_ingredients("seeded", 1)[0],
    "cli-separated": lambda: cli._bvp_ingredients("separated_lines", 0)[0],
}


@pytest.mark.parametrize("ends", ["forward", "backward", "to-cut", "back-to-cut"])
@pytest.mark.parametrize("name", list(STACK_FAMILIES))
def test_stacked_propagation_has_the_bits_of_each_parameter_alone(name, ends):
    """Each Phi(s) of a stack has the bytes of s propagated alone and of
    the one-step-per-solve reference, from the same multiset of C(s, t)
    calls."""
    fam, calls = counted(STACK_FAMILIES[name]())
    t_from, t_to = {
        "forward": (0.0, 1.0),
        "backward": (1.0, 0.0),
        "to-cut": (0.0, 0.37),
        "back-to-cut": (1.0, 0.37),
    }[ends]
    params = [float(s) for s in np.linspace(0.0, 1.0, 9)] + [0.123]
    stack = propagator(fam, params, t_from, t_to)
    stacked_calls = sorted(calls)
    calls.clear()
    alone = [propagator(fam, s, t_from, t_to) for s in params]
    assert sorted(calls) == stacked_calls
    for s, phi, single in zip(params, stack, alone):
        assert phi.tobytes() == single.tobytes()
        assert phi.tobytes() == reference_propagator(fam, s, t_from, t_to).tobytes()


def test_stacked_cauchy_data_are_the_frames_of_each_parameter_alone():
    fam = seeded_time_dependent(3)
    params = [0.0, 0.25, 0.4, 1.0]
    for s, frame in zip(params, cauchy_data(fam, params)):
        assert frame.matrix.tobytes() == cauchy_data(fam, s).matrix.tobytes()
        assert frame.matrix.tobytes() == reference_cauchy_frame(fam, s).matrix.tobytes()


@pytest.mark.parametrize("name", ["scalar", "t-periodic", "cli-seeded-1"])
def test_check_theta_curves_are_those_of_one_sample_at_a_time(monkeypatch, name):
    """The theta-curves of both checks have the bytes of a path whose
    propagators come from the reference, one sample at a time."""
    fam = STACK_FAMILIES[name]()
    bc, form, cut = periodic_condition(fam), green_form(fam), 0.37
    eye = np.eye(fam.dim, dtype=complex)

    def legs(s):
        minus = reference_propagator(fam, s, 0.0, cut)
        plus = reference_propagator(fam, s, fam.t_end, cut)
        return form, orthonormalize(np.vstack([minus, eye])), orthonormalize(np.vstack([plus, eye]))

    references = [
        maslov_winding(LagrangianPairPath.from_callable(
            lambda s: (form, bc.lagrangian, reference_cauchy_frame(fam, s)), 17
        )).theta_curves,
        maslov_winding(LagrangianPairPath.from_callable(legs, 17)).theta_curves,
    ]
    curves = []
    winding = bvp.maslov_winding

    def recorded(path):
        result = winding(path)
        curves.append(result.theta_curves)
        return result

    monkeypatch.setattr(bvp, "maslov_winding", recorded)
    desuspension_check(fam, bc, 64, 17)
    splitting_check(fam, cut, 64, 17)
    assert [c.tobytes() for c in curves] == [c.tobytes() for c in references]


def test_desuspension_names_the_non_hermitian_stage_of_an_interior_sample():
    """Only the fourth stage of the first step at the grid sample s = 0.375 is not Hermitian."""
    stage = float(0.0 + 1.0 * bvp._GAUSS_NODES[3])

    def coeff(s, t):
        return skewed(1.0) if (s, t) == (0.375, stage) else (2.0 * s - 1.0) * np.eye(2)

    fam = planar_family(coeff)
    with pytest.raises(ValueError, match=re.escape(f"coefficient C(0.375, {stage}) is not Hermitian")):
        desuspension_check(fam, periodic_condition(fam), 64, 9)


class CoefficientFault(Exception):
    pass


@pytest.mark.parametrize(
    "singular_at, other_at, other, error",
    [
        (0.5, 0.75, "non-hermitian", "numerically singular"),
        (0.75, 0.5, "non-hermitian", r"coefficient C\(0.5, .*\) is not Hermitian"),
        (0.5, 0.75, "raises", "the callback's own"),
    ],
)
def test_the_earliest_failing_grid_sample_decides_the_error(singular_at, other_at, other, error):
    """A gate failure of one sample of a stacked pass is raised when the
    path reaches that sample, so the earliest failing sample names the
    error; an exception of the coefficient callback itself propagates at
    once."""

    def coeff(s, t):
        if s == singular_at:
            return np.array([[0.0, 10.0], [10.0, 0.0]])
        if s == other_at:
            if other == "raises":
                raise CoefficientFault("the callback's own")
            return skewed(1.0)
        return np.zeros((2, 2))

    # The monodromy over a unit interval has singular values e^(+-10).
    fam = planar_family(coeff)
    with pytest.raises((ArithmeticError, ValueError, CoefficientFault), match=error):
        desuspension_check(fam, periodic_condition(fam), 64, 9)
    long = HamiltonianFamily(2, J2, coeff, t_end=2.0)
    with pytest.raises((ArithmeticError, ValueError, CoefficientFault), match=error):
        splitting_check(long, 1.0, 64, 9)


def test_discretize_periodic_spectrum_accuracy():
    fam = scalar_family()
    herm = discretize(fam, periodic_condition(fam), 64, num_samples=3).callback(0.75)
    eigs = herm.eigenvalues()
    sigma = 0.5
    for m in range(-3, 4):
        assert np.min(np.abs(eigs - (2.0 * np.pi * m + sigma))) < 1e-3


def test_discretize_near_zero_grid_stability():
    fam = scalar_family()
    smallest = []
    for grid in (64, 128):
        path = discretize(fam, periodic_condition(fam), grid, num_samples=3)
        eigs = np.abs(path.callback(0.5).eigenvalues())
        smallest.append(np.min(eigs))
    assert abs(smallest[0] - smallest[1]) < 1e-3
    assert max(smallest) < 1e-6


def test_discretize_rejects_incompatible_conditions():
    fam = scalar_family()
    fam2 = planar_family(lambda s, t: np.zeros((2, 2)))
    with pytest.raises(ValueError, match="trace space"):
        discretize(fam, periodic_condition(fam2), 64)
    not_lagrangian = BoundaryCondition(Frame.span([1.0, 0.0]))
    with pytest.raises(ValueError, match="must be Lagrangian"):
        discretize(fam, not_lagrangian, 64)
    with pytest.raises(ValueError, match="at least 7"):
        discretize(fam, periodic_condition(fam), 5)


def test_desuspension_scalar_periodic():
    fam = scalar_family()
    assert desuspension_check(fam, periodic_condition(fam), 64) == (1, 1, True)


def test_desuspension_constant_family():
    fam = HamiltonianFamily(
        1, np.array([[-1j]]), lambda s, t: np.array([[0.7]])
    )
    assert desuspension_check(fam, periodic_condition(fam), 64) == (0, 0, True)


def test_desuspension_separated_lines():
    fam, bc = separated_lines_family()
    assert desuspension_check(fam, bc, 64) == (1, 1, True)


def test_desuspension_periodic_double_crossing():
    fam = planar_family(lambda s, t: (2.0 * s - 1.0) * np.eye(2))
    assert desuspension_check(fam, periodic_condition(fam), 64) == (2, 2, True)


def test_desuspension_rotation_graph_condition():
    fam = planar_family(lambda s, t: (2.0 * s - 1.0) * np.eye(2))
    bc = graph_condition(fam, rotation(0.7))
    assert desuspension_check(fam, bc, 64) == (2, 2, True)


@pytest.mark.parametrize("seed", [1, 2])
def test_desuspension_seeded_time_dependent(seed):
    fam = seeded_time_dependent(seed)
    sf, neg_mas, agree = desuspension_check(fam, periodic_condition(fam), 64)
    assert agree
    assert sf == 2


# Boundary conditions that move with s, with closed-form spectra:
# - scalar twist, J0 = -i, C = -1, u(1) = exp(i delta s) u(0), a unitary
#   graph (fold realization): lambda_k(s) = delta s + 2 pi k - 1;
# - planar separated, J0 = J2, C = c I, u(0) in line(0) and u(1) in
#   line(0.3 + r s) (summation-by-parts realization):
#   lambda_k(s) = k pi - 0.3 - r s + c.
# No eigenvalue is 0 at s = 0 or 1, so the spectral flow counts the
# eigenvalues that change sign.
VARYING_BC_CASES = [("twist", delta, None) for delta in (0.5, 1.0, 1.5)] + [
    ("separated", c, r) for c in (0.0, 1.0, -1.0) for r in (1.0, 2.0, -2.0)
]
# The discretized sf is right on these; on the others a boundary-driven
# crossing is lost or doubled, and desuspension_check returns agree=False.
VARYING_BC_SF_RIGHT = {
    ("twist", 0.5, None),
    ("separated", 0.0, 1.0),
    ("separated", 0.0, 2.0),
    ("separated", 1.0, 1.0),
    ("separated", -1.0, -2.0),
}


def varying_bc_problem(kind, a, b):
    """(family, boundary path, eigenvalue(k, s)) of one varying-condition case."""
    if kind == "twist":
        delta = a * np.pi
        fam = HamiltonianFamily(1, np.array([[-1j]]), lambda s, t: np.array([[-1.0]]))
        return (
            fam,
            lambda s: graph_condition(fam, [[np.exp(1j * delta * s)]]),
            lambda k, s: delta * s + 2.0 * np.pi * k - 1.0,
        )
    fam = planar_family(lambda s, t: a * np.eye(2))
    return (
        fam,
        lambda s: separated_condition(fam, line(0.0), line(0.3 + b * s)),
        lambda k, s: k * np.pi - 0.3 - b * s + a,
    )


@functools.cache
def varying_bc_check(case):
    fam, bc_path, eigenvalue = varying_bc_problem(*case)
    flow = sum(
        int(eigenvalue(k, 0.0) < 0.0) - int(eigenvalue(k, 1.0) < 0.0)
        for k in range(-8, 9)
    )
    return desuspension_check(fam, bc_path, 64, 33), flow


def varying_bc_id(case):
    kind, a, b = case
    return f"twist-{a}pi" if kind == "twist" else f"separated-c{a:g}-r{b:g}"


@pytest.mark.parametrize("case", VARYING_BC_CASES, ids=varying_bc_id)
def test_desuspension_varying_condition_maslov_route_is_the_closed_form(case):
    (_, neg_mas, _), flow = varying_bc_check(case)
    assert neg_mas == flow


@pytest.mark.parametrize(
    "case",
    [
        case if case in VARYING_BC_SF_RIGHT else pytest.param(
            case,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the discretized sf misses a boundary-driven crossing "
                "(ROADMAP direction 5)",
            ),
        )
        for case in VARYING_BC_CASES
    ],
    ids=varying_bc_id,
)
def test_desuspension_varying_condition_sf_is_the_closed_form(case):
    (sf, neg_mas, agree), flow = varying_bc_check(case)
    assert sf == flow
    assert agree and neg_mas == flow


def test_splitting_scalar_cuts():
    fam = scalar_family()
    assert splitting_check(fam, 0.5, 64) == (1, 1, True)
    assert splitting_check(fam, 0.3, 64) == (1, 1, True)


def test_splitting_constant_family():
    fam = HamiltonianFamily(
        1, np.array([[-1j]]), lambda s, t: np.array([[0.7]])
    )
    assert splitting_check(fam, 0.5, 64) == (0, 0, True)


def test_splitting_two_dim_double_crossing():
    fam = planar_family(lambda s, t: (2.0 * s - 1.0) * np.eye(2))
    assert splitting_check(fam, 0.5, 64) == (2, 2, True)


def test_splitting_rejects_exterior_cut():
    fam = scalar_family()
    with pytest.raises(ValueError, match="cut"):
        splitting_check(fam, 1.0, 64)


def test_kernel_dimension_matches_near_zero_count():
    cases = [
        (scalar_family(), periodic_condition(scalar_family()), 0.5, 1),
        (scalar_family(), periodic_condition(scalar_family()), 0.75, 0),
        separated_lines_family() + (0.5, 1),
    ]
    for fam, bc, s, expected in cases:
        cap = intersect(bc.lagrangian, cauchy_data(fam, s))
        assert cap.dim == expected
        eigs = np.sort(np.abs(
            discretize(fam, bc, 64, num_samples=3).callback(s).eigenvalues()
        ))
        guard = eigs[cap.dim] / 10.0
        assert int(np.sum(eigs < guard)) == expected


def test_boundary_cauchy_pair_has_index_zero():
    fam, bc = separated_lines_family()
    for s in (0.0, 0.5, 1.0):
        cap, codim, index = fredholm_pair_index(
            bc.lagrangian, cauchy_data(fam, s)
        )
        assert index == 0
        assert cap == codim


def counted(fam):
    """The family with a coefficient that logs each (s, t) it is called at."""
    calls = []

    def coeff(s, t):
        calls.append((s, t))
        return fam.c(s, t)

    return HamiltonianFamily(fam.dim, fam.j0, coeff, fam.t_end), calls


def assembled_samples(calls):
    # Both realizations put a node at t = 0; the Gauss stages of the
    # propagator lie strictly inside each step and never reach it.
    return sorted({s for s, t in calls if t == 0.0})


def cli_run(tmp_path, kind, seed, parameters):
    """Results and eigenvalue-curve s values of one ``maslovlab run`` scenario."""
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps({"schema": 1, "kind": kind, "seed": seed, "parameters": parameters})
    )
    payload, _ = cli.run_config(str(config), out_dir=str(tmp_path / "out"))
    with open(tmp_path / "out" / "eigenvalue_curves.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return payload["results"], sorted({float(row[0]) for row in rows})


@pytest.mark.parametrize(
    "family, seed", [("scalar_periodic", 0), ("planar_periodic", 0), ("seeded", 1)]
)
def test_desuspension_check_is_the_cli_route_on_two_samples(tmp_path, family, seed):
    fam, calls = counted(cli._bvp_ingredients(family, seed)[0])
    triple = desuspension_check(fam, periodic_condition(fam))
    assert assembled_samples(calls) == [0.0, 1.0]
    results, samples = cli_run(tmp_path, "bvp_desuspension", seed, {"family": family})
    assert (results["sf"], results["neg_mas"], results["agree"]) == triple
    assert samples == np.linspace(0.0, 1.0, 33).tolist()


@pytest.mark.parametrize("cut", [0.5, 0.3])
@pytest.mark.parametrize("dim", [1, 2])
def test_splitting_check_is_the_cli_route_on_two_samples(tmp_path, dim, cut):
    family = "scalar_periodic" if dim == 1 else "planar_double"
    fam, calls = counted(cli._bvp_ingredients(family, 0)[0])
    triple = splitting_check(fam, cut)
    assert triple == (dim, dim, True)
    assert assembled_samples(calls) == [0.0, 1.0]
    results, samples = cli_run(
        tmp_path, "bvp_splitting", 0, {"family": family, "cut": cut}
    )
    assert (results["sf"], results["neg_mas_cut"], results["agree"]) == triple
    assert samples == np.linspace(0.0, 1.0, 33).tolist()


@pytest.mark.parametrize(
    "kind, parameters, operators",
    [
        ("bvp_desuspension", {"family": "scalar_periodic", "num_samples": 9}, 9),
        ("bvp_desuspension", {"family": "separated_lines", "num_samples": 9}, 9),
        ("bvp_splitting", {"family": "planar_double"}, 33),
    ],
)
def test_cli_bvp_run_assembles_each_operator_once(tmp_path, monkeypatch, kind, parameters, operators):
    """The CLI hands the check the path whose spectra it exports, so the
    two end operators are not assembled and eigen-solved a second time."""
    assembled, gated = [], []
    assembler, gate = bvp._assembler, bvp._gated_hermitian

    def counted_assembler(*args):
        build = assembler(*args)

        def wrapper(s):
            assembled.append(s)
            return build(s)
        return wrapper

    def counted_gate(a):
        gated.append(a.shape)
        return gate(a)

    monkeypatch.setattr(bvp, "_assembler", counted_assembler)
    monkeypatch.setattr(bvp, "_gated_hermitian", counted_gate)
    results, samples = cli_run(tmp_path, kind, 0, parameters)
    assert results["agree"] is True
    assert sorted(assembled) == samples == np.linspace(0.0, 1.0, operators).tolist()
    assert len(gated) == operators


def test_desuspension_check_builds_one_green_form_per_family(monkeypatch):
    built = []
    direct_sum = bvp.direct_sum

    def counting_direct_sum(*forms, **kwargs):
        built.append(forms)
        return direct_sum(*forms, **kwargs)

    monkeypatch.setattr(bvp, "direct_sum", counting_direct_sum)
    scalar = scalar_family()
    for fam, bc in (separated_lines_family(), (scalar, periodic_condition(scalar))):
        built.clear()
        first = desuspension_check(fam, bc, num_samples=9)
        assert desuspension_check(fam, bc, num_samples=9) == first
        assert len(built) == 1
        assert green_form(fam) is green_form(fam)
