"""Acceptance suite: eleven end-to-end checks, one test per criterion.

Each test states its scope in the name so `pytest -v` prints one
pass/fail line per criterion. All index outputs are exact integers;
wall-clock budgets are asserted where stated.
"""

import time

import numpy as np
import scipy.optimize
import pytest

from maslovlab.bvp import (
    HamiltonianFamily,
    desuspension_check,
    discretize,
    periodic_condition,
    splitting_check,
)
from maslovlab.cli import run_suite
from maslovlab.frames import gap_delta, orthonormalize
from maslovlab.maslov import (
    benchmark_pair_path,
    diagonal_lift,
    hormander,
    maslov_crossings,
    maslov_reduced,
    maslov_winding,
)
from maslovlab.sampling import (
    random_hermitian,
    random_lagrangian,
    random_subspace,
    random_symplectic_form,
    rng_from_seed,
    rotating_pair_path,
)
from maslovlab.spectral import (
    HermitianPath,
    canonical_product_form,
    cayley,
    graph_relation,
    sf_eigen,
    sf_relation,
)
from maslovlab.symplectic import SymplecticForm


def line(angle):
    return orthonormalize(
        np.array([[np.cos(angle)], [np.sin(angle)]], dtype=complex)
    )


def test_criterion_01_benchmark_value_by_both_methods():
    start = time.perf_counter()
    path = benchmark_pair_path(21)
    winding = maslov_winding(path)
    crossing = maslov_crossings(path)
    assert (winding.mas_plus, winding.mas_minus) == (1, 1)
    assert (crossing.mas_plus, crossing.mas_minus) == (1, 1)
    assert len(crossing.crossings) == 1
    record = crossing.crossings[0]
    assert record.t == pytest.approx(0.5, abs=1e-8)
    assert record.signature == (1, 0, 0)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_winding_crossing_agreement_on_50_seeded_paths():
    start = time.perf_counter()
    collected = candidate = 0
    while collected < 50:
        assert candidate < 80, "too many degenerate draws"
        dim = (2, 4, 6, 8)[candidate % 4]
        path = rotating_pair_path(rng_from_seed((0xAC02, 0, candidate)), dim=dim)
        candidate += 1
        winding = maslov_winding(path)
        try:
            crossing = maslov_crossings(path, seed=candidate)
        except ArithmeticError:
            continue
        assert (winding.mas_plus, winding.mas_minus) == (
            crossing.mas_plus,
            crossing.mas_minus,
        ), f"methods disagree on path {candidate - 1} (dim {dim})"
        collected += 1
    assert time.perf_counter() - start < 30.0


def test_criterion_03_properties_battery_100_trials_each():
    start = time.perf_counter()
    for suite in ("flipping", "catenation", "direct_sum", "naturality",
                  "constancy"):
        assert run_suite(suite, 100, 0) == 0, f"suite {suite} had failures"
    assert time.perf_counter() - start < 60.0


def test_criterion_04_reduction_invariance_on_c16_paths():
    start = time.perf_counter()
    for trial in range(20):
        path = rotating_pair_path(rng_from_seed((0xAC04, 0, trial)), dim=16,
                                  num_samples=25, scale_lam=3.0, scale_mu=0.8)
        direct = maslov_winding(path)
        # maslov_reduced recomputes on a refined partition internally
        # and raises if the summed counts change.
        reduced = maslov_reduced(path, seed=trial)
        assert (direct.mas_plus, direct.mas_minus) == (
            reduced.mas_plus,
            reduced.mas_minus,
        ), f"trial {trial}"
    assert time.perf_counter() - start < 60.0


def test_criterion_05_diagonal_identities_on_50_paths():
    start = time.perf_counter()
    for trial in range(50):
        path = rotating_pair_path(rng_from_seed((0xAC05, 0, trial)), dim=(2, 4)[trial % 2])
        direct = maslov_winding(path)
        # diagonal_lift evaluates the doubled-space expressions in both
        # arrangements and raises unless all three agree.
        lifted = diagonal_lift(path)
        assert (direct.mas_plus, direct.mas_minus) == (
            lifted.mas_plus,
            lifted.mas_minus,
        ), f"trial {trial}"
    assert time.perf_counter() - start < 30.0


def test_criterion_06_spectral_flow_equals_graph_maslov_on_100_paths():
    start = time.perf_counter()
    for trial in range(100):
        rng = rng_from_seed((0xAC06, trial))
        dim = 2 + trial % 7
        a_start = random_hermitian(rng, dim)
        a_end = random_hermitian(rng, dim)

        def matrix(s):
            return (1.0 - s) * a_start + s * a_end

        path = HermitianPath.from_callable(matrix, num_samples=33)
        form = canonical_product_form(dim)
        entries = [
            (float(s), form, graph_relation(matrix(float(s))))
            for s in np.linspace(0.0, 1.0, 33)
        ]
        mas_route = sf_relation(
            entries, lambda s: (form, graph_relation(matrix(s)))
        )
        assert sf_eigen(path) == mas_route, f"trial {trial} (dim {dim})"
    assert time.perf_counter() - start < 60.0


def test_criterion_07_desuspension_scalar_and_planar_families():
    start = time.perf_counter()
    scalar = HamiltonianFamily(
        1, np.array([[-1j]]), lambda s, t: np.array([[2.0 * s - 1.0]])
    )
    bc = periodic_condition(scalar)
    assert desuspension_check(scalar, bc, grid=64) == (1, 1, True)
    # Analytic oracle: the continuum spectrum at family parameter s is
    # {2 pi k + (2s - 1)}; each branch with |k| <= 3 must appear in the
    # discretized spectrum to 1e-3.
    path = discretize(scalar, bc, grid=64)
    eigs = np.linalg.eigvalsh(path.callback(0.75).matrix)
    for k in range(-3, 4):
        exact = 2.0 * np.pi * k + 0.5
        assert np.min(np.abs(eigs - exact)) < 1e-3, f"mode {k}"
    assert time.perf_counter() - start < 10.0

    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    planar = HamiltonianFamily(2, j2, lambda s, t: (2.0 * s - 1.0) * np.eye(2))
    sf, neg_mas, agree = desuspension_check(planar, periodic_condition(planar))
    assert (sf, neg_mas, agree) == (2, 2, True)

    rng = rng_from_seed((0xB4B0, 1))
    amp = rng.uniform(0.2, 0.5, size=3)

    def coeff(s, t):
        oscillation = np.array(
            [
                [amp[0] * np.cos(2.0 * np.pi * t), amp[2] * np.sin(2.0 * np.pi * t)],
                [amp[2] * np.sin(2.0 * np.pi * t), -amp[1] * np.cos(2.0 * np.pi * t)],
            ]
        )
        return oscillation + (2.0 * s - 1.0) * np.eye(2)

    seeded = HamiltonianFamily(2, j2, coeff)
    bc_seeded = periodic_condition(seeded)
    sf, neg_mas, agree = desuspension_check(seeded, bc_seeded)
    assert agree and sf == neg_mas
    assert sf == sf_eigen(discretize(seeded, bc_seeded))


def test_criterion_08_splitting_formula_on_regression_families():
    start = time.perf_counter()
    scalar = HamiltonianFamily(
        1, np.array([[-1j]]), lambda s, t: np.array([[2.0 * s - 1.0]])
    )
    assert splitting_check(scalar, 0.5) == (1, 1, True)
    assert splitting_check(scalar, 0.3) == (1, 1, True)
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    planar = HamiltonianFamily(2, j2, lambda s, t: (2.0 * s - 1.0) * np.eye(2))
    assert splitting_check(planar, 0.5) == (2, 2, True)
    assert time.perf_counter() - start < 30.0


def test_criterion_09_hormander_path_independence_on_20_quadruples():
    start = time.perf_counter()
    for trial in range(20):
        rng = rng_from_seed((0xAC09, trial))
        form = random_symplectic_form(rng, 4)
        quadruple = [random_lagrangian(rng, form) for _ in range(4)]
        first = hormander(form, *quadruple, seed=trial)
        second = hormander(form, *quadruple, seed=trial + 101)
        assert first == second, f"trial {trial}: {first} vs {second}"
    assert time.perf_counter() - start < 30.0


def test_criterion_10_gap_estimate_on_200_same_dimension_pairs():
    start = time.perf_counter()
    checked = 0
    for trial in range(200):
        rng = rng_from_seed((0xAC0A, trial))
        ambient = int(rng.integers(2, 9))
        dim = int(rng.integers(1, min(4, ambient) + 1))
        first = random_subspace(rng, ambient, dim)
        second = random_subspace(rng, ambient, dim)
        reverse = gap_delta(second, first)
        if reverse >= 1.0:
            continue
        bound = 2.0 ** (dim - 1) * dim * reverse / (1.0 - reverse) ** dim
        assert gap_delta(first, second) <= bound + 1e-12, f"trial {trial}"
        checked += 1
    assert checked == 200
    assert time.perf_counter() - start < 10.0


def test_criterion_11_cayley_spectral_mapping_on_100_matrices():
    start = time.perf_counter()
    for trial in range(100):
        rng = rng_from_seed((0xAC0B, trial))
        dim = 2 + trial % 15
        matrix = random_hermitian(rng, dim)
        transform = cayley(matrix)
        real_eigs = np.linalg.eigvalsh(matrix)
        mapped = (real_eigs - 1j) / (real_eigs + 1j)
        actual = np.linalg.eigvals(transform)
        cost = np.abs(mapped[:, None] - actual[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        assert float(np.max(cost[rows, cols])) < 1e-9, f"trial {trial}"
    assert time.perf_counter() - start < 10.0
