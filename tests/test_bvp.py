"""Tests for discretized Hamiltonian boundary value problems."""

import numpy as np
import pytest

from maslovlab import bvp
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
)
from maslovlab.sampling import rng_from_seed
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
    bvp._c_matrix(planar_family(lambda s, t: skewed(0.9e-4)), 0.0, 0.0)
    with pytest.raises(ValueError, match=r"coefficient C\(0.0, 0.0\) is not Hermitian"):
        bvp._c_matrix(planar_family(lambda s, t: skewed(1.1e-4)), 0.0, 0.0)


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
        a[rows, rows] += bvp._c_matrix(fam, s, j * h)
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
    osc = HamiltonianFamily(
        1, np.array([[-1j]]), lambda s, t: np.array([[60.0 * np.cos(60.0 * t)]])
    )
    assert np.allclose(
        np.abs(propagator(osc, 0.5, 0.0, 1.0)[0, 0]), 1.0, atol=1e-8
    )
    with pytest.raises(ArithmeticError, match="pairing"):
        propagator(osc, 0.5, 0.0, 1.0, ode_tol=1e-3)


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
