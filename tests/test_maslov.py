"""Tests for the Maslov index engines and their cross-checks."""

import dataclasses
import gc
import itertools
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovlab.frames import (
    Frame,
    Projection,
    fredholm_pair_index,
    gap_hat,
    intersect,
    morse_counts,
    orthonormalize,
)
from maslovlab import maslov
from maslovlab.maslov import (
    LagrangianPairPath,
    PathSample,
    _crossing_events,
    _hermitize_derivative,
    _scan_pieces,
    benchmark_pair_path,
    counting_function_E,
    crossing_form,
    diagonal_lift,
    hormander,
    maslov_crossings,
    maslov_reduced,
    maslov_semipositive,
    maslov_winding,
    one_sided_form,
)
from maslovlab.reduction import (
    IntrinsicDecomposition,
    graph_coefficients,
    intrinsic_decomposition,
    reduced_pair,
)
from maslovlab.sampling import (
    form_deformation,
    lagrangian_rotation,
    random_lagrangian,
    random_lagrangian_pair,
    random_symplectic_form,
    random_unitary,
    rng_from_seed,
    rotating_pair_path,
)
from maslovlab.symplectic import SymplecticForm, annihilator, direct_sum, standard_form

FORM2 = standard_form(1)
MU_HORIZONTAL = Frame.span(np.array([1.0, 0.0], dtype=complex))


def line(angle: float) -> Frame:
    """Lagrangian line in C^2 spanned by (cos a, sin a)."""
    return orthonormalize(np.array([[np.cos(angle)], [np.sin(angle)]], dtype=complex))


def line_path(angle_fn, num_samples: int = 21,
              form: SymplecticForm = FORM2) -> LagrangianPairPath:
    """Pair path of a rotating line against the fixed horizontal line under ``form``."""
    return LagrangianPairPath.from_callable(
        lambda s: (form, line(angle_fn(s)), MU_HORIZONTAL), num_samples=num_samples
    )


def rotation_pair_path(seed: int, dim: int = 4, num_samples: int = 33,
                       scale_lam: float = 2.5, scale_mu: float = 0.7):
    """Seeded pair path with both legs rotating under a random fixed form."""
    return rotating_pair_path(rng_from_seed(seed), dim, num_samples, scale_lam, scale_mu)


def direct_sum_path(path_a: LagrangianPairPath, path_b: LagrangianPairPath,
                    num_samples: int = 33) -> LagrangianPairPath:
    """Block direct sum of two pair paths on the product space."""

    def fn(s: float):
        form_a, lam_a, mu_a = path_a.callback(s)
        form_b, lam_b, mu_b = path_b.callback(s)
        form = SymplecticForm(scipy.linalg.block_diag(form_a.j, form_b.j))
        lam = orthonormalize(scipy.linalg.block_diag(lam_a.matrix, lam_b.matrix))
        mu = orthonormalize(scipy.linalg.block_diag(mu_a.matrix, mu_b.matrix))
        return form, lam, mu

    return LagrangianPairPath.from_callable(fn, num_samples=num_samples)


def constant_transversal_path(num_samples: int = 5) -> LagrangianPairPath:
    lam = line(0.3)
    return LagrangianPairPath.from_callable(
        lambda s: (FORM2, lam, MU_HORIZONTAL), num_samples=num_samples
    )


def test_counting_function_values():
    assert counting_function_E(0.0) == 0
    assert counting_function_E(0.3) == 1
    assert counting_function_E(-0.3) == 0
    assert counting_function_E(2.0) == 2


def test_benchmark_winding_counts_and_angles():
    path = benchmark_pair_path()
    result = maslov_winding(path)
    assert (result.mas_plus, result.mas_minus) == (1, 1)
    assert result.method == "winding"
    curves = result.theta_curves
    assert curves.shape[1] == 2
    for s_val, theta in curves:
        expected = 2.0 * np.arctan(s_val - 0.5)
        assert abs(theta - expected) < 1e-9


def test_benchmark_morse_count_oracle():
    # the graph coefficient of the benchmark is A(s) = s - 1/2, so the
    # graph form Q(s) = (s - 1/2) |x|^2 gives a second, closed-form route:
    # Mas_+ = m+(Q(1)) - m+(Q(0)) and Mas_- = m-(Q(0)) - m-(Q(1)).
    q0 = np.array([[-0.5]], dtype=complex)
    q1 = np.array([[0.5]], dtype=complex)
    pos1, _, _ = morse_counts(q1)
    pos0, _, _ = morse_counts(q0)
    _, neg0, _ = morse_counts(q0)
    _, neg1, _ = morse_counts(q1)
    result = maslov_winding(benchmark_pair_path())
    assert result.mas_plus == pos1 - pos0 == 1
    assert result.mas_minus == neg0 - neg1 == 1


def test_constant_transversal_path_is_zero():
    path = constant_transversal_path()
    assert maslov_winding(path).mas_plus == 0
    assert maslov_winding(path).mas_minus == 0
    assert maslov_crossings(path).mas_plus == 0
    assert maslov_semipositive(path) == 0
    assert maslov_reduced(path).mas_plus == 0


def test_direct_sum_doubles_the_benchmark():
    doubled = direct_sum_path(benchmark_pair_path(), benchmark_pair_path())
    result = maslov_winding(doubled)
    assert (result.mas_plus, result.mas_minus) == (2, 2)


def test_direct_sum_additivity_on_seeded_paths():
    path_a = rotation_pair_path(910)
    path_b = rotation_pair_path(911)
    sum_path = direct_sum_path(path_a, path_b, num_samples=41)
    res_a = maslov_winding(path_a)
    res_b = maslov_winding(path_b)
    res = maslov_winding(sum_path)
    assert res.mas_plus == res_a.mas_plus + res_b.mas_plus
    assert res.mas_minus == res_a.mas_minus + res_b.mas_minus


def test_benchmark_crossing_record():
    path = benchmark_pair_path()
    record = crossing_form(path, 0.5)
    assert record.intersection.dim == 1
    assert record.signature == (1, 0, 0)
    assert np.allclose(record.gamma.matrix, [[1.0]], atol=1e-6)


def test_time_reversed_benchmark_crossing_is_negative():
    def fn(s: float):
        lam = orthonormalize(np.array([[1.0], [(1.0 - s) - 0.5]], dtype=complex))
        return FORM2, lam, MU_HORIZONTAL

    path = LagrangianPairPath.from_callable(fn, num_samples=21)
    record = crossing_form(path, 0.5)
    assert record.signature == (0, 1, 0)
    result = maslov_winding(path)
    assert (result.mas_plus, result.mas_minus) == (-1, -1)


def test_crossing_form_requires_a_crossing():
    path = benchmark_pair_path()
    with pytest.raises(ValueError, match="no crossing"):
        crossing_form(path, 0.1)


@pytest.mark.parametrize(
    "label, route",
    [
        ("crossing form", lambda path: crossing_form(path, 0.5)),
        ("one-sided form", lambda path: one_sided_form(path, 0.5, "lam")),
    ],
    ids=["crossing_form", "one_sided_form"],
)
def test_signature_change_under_step_halving_is_named(label, route, monkeypatch):
    """A signature that differs between the step and the half step raises, naming both."""
    calls = itertools.count()
    monkeypatch.setattr(maslov, "_signature", lambda q, form: (next(calls), 0, 0))
    with pytest.raises(
        ArithmeticError,
        match=f"^{label} signature at t=0.5 changed under finite-difference step halving$",
    ):
        route(benchmark_pair_path())


def test_fixed_form_crossing_equals_one_sided_difference():
    path = rotation_pair_path(902)
    result = maslov_crossings(path)
    interior = [r for r in result.crossings if 0.0 < r.t < 1.0]
    assert interior
    for record in interior:
        q_lam, base_lam = one_sided_form(path, record.t, "lam")
        q_mu, base_mu = one_sided_form(path, record.t, "mu")
        k = record.intersection.matrix
        c_lam = base_lam.matrix.conj().T @ k
        c_mu = base_mu.matrix.conj().T @ k
        restricted = (
            c_lam.conj().T @ q_lam.matrix @ c_lam
            - c_mu.conj().T @ q_mu.matrix @ c_mu
        )
        assert np.allclose(restricted, record.gamma.matrix, atol=1e-6)


@pytest.mark.parametrize("member", ["lam", "mu"])
def test_one_sided_form_of_a_member_that_meets_its_complement_is_no_graph(member):
    """At the stencil point t + h the member is the anchor's complement V
    itself, so it is no graph over its position at t: the stacked solve's
    graph gate raises, an ArithmeticError like every failed graph."""
    base = line(0.25)
    v = intrinsic_decomposition(FORM2, base, base).v

    def fn(s: float):
        moved = v if s == 0.5 + maslov._FD_STEP else line(0.5 * s)
        return (FORM2, moved, MU_HORIZONTAL) if member == "lam" else (FORM2, MU_HORIZONTAL, moved)

    path = LagrangianPairPath.from_callable(fn, 5)
    with pytest.raises(ArithmeticError, match="^lam is not a graph over the anchor block"):
        one_sided_form(path, 0.5, member)


def test_crossing_method_agrees_with_winding_on_seeded_paths():
    for seed in range(900, 906):
        path = rotation_pair_path(seed)
        wind = maslov_winding(path)
        cross = maslov_crossings(path)
        assert (wind.mas_plus, wind.mas_minus) == (cross.mas_plus, cross.mas_minus)


def test_endpoint_crossing_at_start_counts_positive_part():
    def fn(s: float):
        return FORM2, orthonormalize(np.array([[1.0], [s]], dtype=complex)), MU_HORIZONTAL

    path = LagrangianPairPath.from_callable(fn, num_samples=21)
    wind = maslov_winding(path)
    cross = maslov_crossings(path)
    assert (wind.mas_plus, wind.mas_minus) == (1, 0)
    assert (cross.mas_plus, cross.mas_minus) == (1, 0)
    assert cross.crossings[0].t == 0.0
    assert cross.crossings[0].signature == (1, 0, 0)


def test_start_angle_within_the_snap_counts_as_an_endpoint_crossing():
    """The start angle is 4e-9, not 0, and no sign change follows.

    Winding snaps end angles within 1e-8 onto 0, so the crossing route
    must record the start as an endpoint crossing too.
    """
    path = line_path(lambda s: np.arctan(s + 2e-9))
    wind = maslov_winding(path)
    cross = maslov_crossings(path)
    assert (wind.mas_plus, wind.mas_minus) == (cross.mas_plus, cross.mas_minus) == (1, 0)
    assert cross.crossings[0].t == 0.0


def test_endpoint_crossing_at_end_counts_lower_index():
    path = line_path(lambda s: -np.pi / 2 * (1.0 - s))
    wind = maslov_winding(path)
    cross = maslov_crossings(path)
    assert (wind.mas_plus, wind.mas_minus) == (0, 1)
    assert (cross.mas_plus, cross.mas_minus) == (0, 1)
    assert cross.crossings[-1].t == 1.0


def test_degenerate_crossing_raises_and_winding_handles_it():
    path = line_path(lambda s: 0.2 * (s - 0.5) ** 2)
    result = maslov_winding(path)
    assert (result.mas_plus, result.mas_minus) == (0, 0)
    with pytest.raises(ValueError, match="degenerate crossing at t=0.5"):
        maslov_crossings(path)


def test_flipping_identity_on_seeded_paths():
    for seed in (900, 903, 905):
        path = rotation_pair_path(seed)
        result = maslov_winding(path)
        first, last = path.samples[0], path.samples[-1]
        dim0 = intersect(first.lam, first.mu).dim
        dim1 = intersect(last.lam, last.mu).dim
        assert result.mas_plus - result.mas_minus == dim0 - dim1


def test_pair_swap_identity():
    for seed in (900, 904):
        path = rotation_pair_path(seed)
        swapped = LagrangianPairPath.from_callable(
            lambda s: (
                path.callback(s)[0],
                path.callback(s)[2],
                path.callback(s)[1],
            ),
            num_samples=33,
        )
        res = maslov_winding(path)
        res_swapped = maslov_winding(swapped)
        first, last = path.samples[0], path.samples[-1]
        dim0 = intersect(first.lam, first.mu).dim
        dim1 = intersect(last.lam, last.mu).dim
        assert res.mas_plus + res_swapped.mas_plus == dim0 - dim1


def test_catenation_splits_the_benchmark():
    whole = benchmark_pair_path()
    first = LagrangianPairPath.from_callable(
        lambda s: whole.callback(0.5 * s), num_samples=21
    )
    second = LagrangianPairPath.from_callable(
        lambda s: whole.callback(0.5 + 0.5 * s), num_samples=21
    )
    res = maslov_winding(whole)
    res_first = maslov_winding(first)
    res_second = maslov_winding(second)
    assert res.mas_plus == res_first.mas_plus + res_second.mas_plus
    assert res.mas_minus == res_first.mas_minus + res_second.mas_minus


def test_homotopy_invariance_with_fixed_endpoints():
    base = line_path(lambda s: -0.7 + 2.0 * s, num_samples=33)
    wiggled = line_path(
        lambda s: -0.7 + 2.0 * s + 0.4 * np.sin(np.pi * s), num_samples=33
    )
    res_base = maslov_winding(base)
    res_wiggled = maslov_winding(wiggled)
    assert (res_base.mas_plus, res_base.mas_minus) == (
        res_wiggled.mas_plus,
        res_wiggled.mas_minus,
    )


def test_naturality_under_form_deformation():
    rng = rng_from_seed(1701)
    form = random_symplectic_form(rng, 4)
    lam = random_lagrangian(rng, form)
    mu = random_lagrangian(rng, form)
    rot = lagrangian_rotation(rng, form, lam, scale=2.0)
    form_at, push_at = form_deformation(rng, form, scale=0.25)
    fixed = LagrangianPairPath.from_callable(
        lambda s: (form, rot(s), mu), num_samples=65
    )

    def pushed_fn(s: float):
        push = push_at(s)
        return (
            form_at(s),
            orthonormalize(push @ rot(s).matrix),
            orthonormalize(push @ mu.matrix),
        )

    pushed = LagrangianPairPath.from_callable(pushed_fn, num_samples=65)
    res_fixed = maslov_winding(fixed)
    res_pushed = maslov_winding(pushed)
    assert (res_fixed.mas_plus, res_fixed.mas_minus) == (
        res_pushed.mas_plus,
        res_pushed.mas_minus,
    )


def test_winding_without_callback_needs_resolution():
    def fn(s: float):
        return FORM2, line(1.0 * s), line(-1.0 * s)

    grid = np.linspace(0.0, 1.0, 3)
    samples = tuple(PathSample(float(s), *fn(float(s))) for s in grid)
    sampled_only = LagrangianPairPath(samples, None)
    with pytest.raises(ValueError, match="refinement callback"):
        maslov_winding(sampled_only)
    with_callback = LagrangianPairPath(samples, fn)
    result = maslov_winding(with_callback)
    assert (result.mas_plus, result.mas_minus) == (1, 0)


def steep_graph(s: float):
    """lam(s) = span{(1, 1000 (s - 1/2))} against e1: one positive crossing at s = 1/2.

    The line turns through almost pi within |s - 1/2| < 0.01, so on a
    uniform grid of 21 points the steps next to s = 1/2 have gap near 1.
    """
    return FORM2, orthonormalize(np.array([[1.0], [1000.0 * (s - 0.5)]])), MU_HORIZONTAL


def test_from_callable_refines_a_grid_that_fails_the_gap_gate():
    grid = np.linspace(0.0, 1.0, 21)
    gaps = [gap_hat(steep_graph(a)[1], steep_graph(b)[1]) for a, b in zip(grid, grid[1:])]
    assert max(gaps) >= 0.5
    path = LagrangianPairPath.from_callable(steep_graph, num_samples=21)
    times = [smp.s for smp in path.samples]
    assert set(grid.tolist()) <= set(times) and len(times) > 21
    result = maslov_winding(path)
    assert (result.mas_plus, result.mas_minus) == (1, 1)


def test_direct_constructor_validates_without_refining():
    grid = np.linspace(0.0, 1.0, 21)
    samples = tuple(PathSample(float(s), *steep_graph(float(s))) for s in grid)
    with pytest.raises(ValueError, match="sampling-adequacy gate"):
        LagrangianPairPath(samples, steep_graph)


@pytest.mark.parametrize(
    "stretch, bad_mu, kind",
    [
        (0.0, Frame.span(np.array([1.0, 1j])), "symplectic"),
        (1.0, Frame.span(np.array([1.0, 1j])), "symplectic"),
        (0.0, Frame.full(2), "coisotropic"),
    ],
)
def test_constructor_names_the_first_non_lagrangian_sample(stretch, bad_mu, kind):
    """mu fails at s=0.25 and lam at s=0.75; the error names the first along the path.

    The form is one object (stretch 0) or one per sample; a frame of
    another shape cannot go through the stacked test.
    """

    def fn(s: float):
        form = FORM2 if stretch == 0.0 else SymplecticForm((1.0 + stretch * s) * FORM2.j)
        lam = Frame.span(np.array([1.0, 1j])) if s == 0.75 else line(0.3)
        return form, lam, bad_mu if s == 0.25 else MU_HORIZONTAL

    samples = tuple(PathSample(float(s), *fn(float(s))) for s in np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match=f"^sample at s=0.250000: mu is {kind}, not lagrangian$"):
        LagrangianPairPath(samples)


@pytest.mark.parametrize(
    "bad, kind, num_calls",
    [(Frame.full(2), "coisotropic", 5), (Frame.span(np.array([1.0, 1j])), "symplectic", 45)],
    ids=["coisotropic", "symplectic"],
)
def test_from_callable_names_a_non_lagrangian_sample_it_cannot_refine_past(bad, kind, num_calls):
    """lam jumps from line(0.3) to a frame that is not Lagrangian at the
    grid point s = 0.5; the error names the sample, not the refinement.

    The coisotropic plane has another dimension than the line, so the
    step into it is given up at once and only the 5 grid points are
    evaluated. The symplectic line has the line's dimension: the step
    fails the gate at every depth, and refinement is exhausted first.
    """
    calls = []

    def fn(s: float):
        calls.append(s)
        return FORM2, line(0.3) if s < 0.5 else bad, line(0.0)

    with pytest.raises(ValueError, match=f"^sample at s=0.500000: lam is {kind}, not lagrangian$"):
        LagrangianPairPath.from_callable(fn, 5)
    assert len(calls) == num_calls


def test_from_callable_keeps_the_refinement_error_when_its_samples_are_lagrangian():
    def fn(s: float):
        return FORM2, line(0.3) if s < 0.5 else line(1.8), MU_HORIZONTAL

    with pytest.raises(ValueError, match="^insufficient sampling resolution: refinement depth exhausted"):
        LagrangianPairPath.from_callable(fn, 5)


def varying_form_line_path(num_samples: int = 9, stretch: float = 1.0):
    """A fixed line against the horizontal under J(s) = (1 + stretch s) J2."""
    lam = line(0.7)

    def fn(s: float):
        return SymplecticForm((1.0 + stretch * s) * FORM2.j), lam, MU_HORIZONTAL

    return fn, tuple(PathSample(float(s), *fn(float(s))) for s in np.linspace(0.0, 1.0, num_samples))


def test_form_distances_match_one_norm_per_step():
    rng = rng_from_seed(42)
    forms = [random_symplectic_form(rng, 4) for _ in range(5)]
    forms[3] = forms[2]
    lam = Frame.empty(4)
    samples = [PathSample(s, form, lam, lam) for s, form in zip(np.linspace(0.0, 1.0, 5), forms)]
    got = maslov._form_distances(samples)
    assert got[2] is None
    for a, b, dj in zip(samples, samples[1:], got):
        if dj is not None:
            assert dj == np.linalg.norm(b.form.j - a.form.j, 2)


def test_form_distance_gate_fires_and_refines():
    fn, samples = varying_form_line_path(num_samples=2, stretch=3.0)
    with pytest.raises(ValueError, match="consecutive form distance"):
        LagrangianPairPath(samples, fn)
    path = LagrangianPairPath.from_callable(fn, num_samples=2)
    assert len(path.samples) > 2


def test_from_callable_gates_each_step_once(monkeypatch):
    calls = []
    failures = maslov._sampling_failures

    def counted(samples):
        calls.append(len(samples))
        return failures(samples)

    monkeypatch.setattr(maslov, "_sampling_failures", counted)
    LagrangianPairPath.from_callable(varying_form_line_path()[0], num_samples=9)
    assert calls == [9]
    calls.clear()
    LagrangianPairPath.from_callable(steep_graph, num_samples=21)
    # One pass over the grid, then one call per step that refinement tries.
    assert calls[0] == 21 and all(n == 2 for n in calls[1:]) and len(calls) > 1


def test_diagonal_lift_decomposes_no_doubled_matrix(monkeypatch):
    from maslovlab import frames, symplectic

    path = rotation_pair_path(41, dim=4, num_samples=17)
    shapes = []

    def counted(fn):
        def wrapper(a):
            shapes.append(np.shape(a))
            return fn(a)
        return wrapper

    monkeypatch.setattr(symplectic, "hermitian_eig", counted(symplectic.hermitian_eig))
    monkeypatch.setattr(frames, "hermitian_eig", counted(frames.hermitian_eig))
    result = diagonal_lift(path)
    direct = maslov_winding(path)
    assert (result.mas_plus, result.mas_minus) == (direct.mas_plus, direct.mas_minus)
    assert shapes == []


@pytest.mark.parametrize("constant", [True, False])
def test_diagonal_lifts_share_pair_frames_and_doubled_forms(monkeypatch, constant):
    """Both lifts carry one pair frame object per parameter, and one doubled
    form per form object of the path: a constant-form path lifts to paths
    with one form each."""
    if constant:
        path = rotation_pair_path(41, dim=4, num_samples=17)
    else:
        rng = rng_from_seed(44)
        form_at, push_at = form_deformation(rng, random_symplectic_form(rng, 4), scale=0.3)
        lam, mu = random_lagrangian_pair(rng, form_at(0.0))
        path = LagrangianPairPath.from_callable(
            lambda s: (form_at(s), orthonormalize(push_at(s) @ lam.matrix),
                       orthonormalize(push_at(s) @ mu.matrix)),
            num_samples=9,
        )
    lifts = []
    winding = maslov.maslov_winding

    def recorded(p):
        lifts.append(p)
        return winding(p)

    monkeypatch.setattr(maslov, "maslov_winding", recorded)
    diagonal_lift(path)
    original, lift, swapped = lifts
    assert len({id(smp.form) for smp in lift.samples}) == len(
        {id(smp.form) for smp in original.samples}
    )
    assert len({id(smp.form) for smp in swapped.samples}) == len(
        {id(smp.form) for smp in original.samples}
    )
    assert len({id(smp.form) for smp in original.samples}) == (1 if constant else len(path.samples))
    for a, b in zip(lift.samples, swapped.samples):
        assert a.lam is b.mu
    assert np.array_equal(lift.samples[0].form.j, -swapped.samples[0].form.j)


def _lifted_paths(monkeypatch, path: LagrangianPairPath) -> list[LagrangianPairPath]:
    """The original path and the two lifts that diagonal_lift winds, in that order."""
    lifts = []
    winding = maslov.maslov_winding

    def recorded(p):
        lifts.append(p)
        return winding(p)

    monkeypatch.setattr(maslov, "maslov_winding", recorded)
    diagonal_lift(path)
    monkeypatch.setattr(maslov, "maslov_winding", winding)
    return lifts


def test_diagonal_lift_inherits_the_sampling_gate(monkeypatch):
    path = moving_form_lines_path(2)
    calls = []

    def refused(name):
        def wrapper(*args):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return wrapper

    monkeypatch.setattr(maslov, "_consecutive_gaps", refused("_consecutive_gaps"))
    monkeypatch.setattr(maslov, "_form_distances", refused("_form_distances"))
    result = diagonal_lift(path)
    assert calls == []
    assert (result.mas_plus, result.mas_minus) == _counts(maslov_winding(path))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lifted_gate_inputs_equal_the_base_ones(monkeypatch, k):
    """gap(lam (+) mu) = max(gap lam, gap mu), the diagonal stays, and the
    doubled forms move by ||J_b - J_a||_2 with sigma_min(J)."""
    path = moving_form_lines_path(k)
    original, lift, swapped = _lifted_paths(monkeypatch, path)
    base = np.maximum(
        maslov._consecutive_gaps([smp.lam for smp in original.samples]),
        maslov._consecutive_gaps([smp.mu for smp in original.samples]),
    )
    base_dj = np.array(maslov._form_distances(original.samples), dtype=float)
    for lifted, pair, fixed in ((lift, "lam", "mu"), (swapped, "mu", "lam")):
        gaps = maslov._consecutive_gaps([getattr(smp, pair) for smp in lifted.samples])
        assert np.max(np.abs(gaps - base)) <= 1e-13
        assert not maslov._consecutive_gaps([getattr(smp, fixed) for smp in lifted.samples]).any()
        dj = np.array(maslov._form_distances(lifted.samples), dtype=float)
        assert np.max(np.abs(dj - base_dj)) <= 1e-13 * np.max(base_dj)
        for a, b in zip(lifted.samples, original.samples):
            assert a.form.sigma_min == b.form.sigma_min


def fast_generator_path(num_samples: int = 9) -> LagrangianPairPath:
    """lam turns its generator through 14 rad against a fixed mu under J = diag(100i, -i).

    The Lagrangian lines stay within 0.1 rad of e2, so the samples pass
    the gap gate while the relative angle moves 1.75 rad per step of 9
    samples, and the winding refines between them.
    """
    form = SymplecticForm(np.diag([100j, -1j]))
    mu = orthonormalize(np.array([[0.1], [np.exp(0.5j)]]))

    def fn(s: float):
        return form, orthonormalize(np.array([[0.1 * np.exp(14j * s)], [1.0]])), mu

    grid = np.linspace(0.0, 1.0, num_samples)
    return LagrangianPairPath(tuple(PathSample(float(s), *fn(float(s))) for s in grid), fn)


def _moving_form_pair_path() -> LagrangianPairPath:
    rng = rng_from_seed(44)
    form_at, push_at = form_deformation(rng, random_symplectic_form(rng, 4), scale=0.3)
    lam, mu = random_lagrangian_pair(rng, form_at(0.0))
    return LagrangianPairPath.from_callable(
        lambda s: (form_at(s), orthonormalize(push_at(s) @ lam.matrix),
                   orthonormalize(push_at(s) @ mu.matrix)),
        num_samples=9,
    )


def _explicit_lift(path: LagrangianPairPath, signs: tuple[int, int], swap: bool) -> LagrangianPairPath:
    """A lift of ``path`` through the public constructor: one ``direct_sum``
    form per form object, a block-diagonal pair frame per parameter, and
    the full sampling gate and Lagrangian check, sampled at the rows of
    the path's winding."""
    eye = np.eye(path.dim)
    diagonal = Frame(np.vstack([eye, eye]) / np.sqrt(2.0))
    doubled = {}

    def fn(s: float):
        form, lam, mu = path.evaluate(s)
        if id(form) not in doubled:
            doubled[id(form)] = form, direct_sum(form, form, signs=signs)
        pair = Frame(scipy.linalg.block_diag(lam.matrix, mu.matrix))
        form2 = doubled[id(form)][1]
        return (form2, diagonal, pair) if swap else (form2, pair, diagonal)

    rows = [float(s) for s in maslov_winding(path).theta_curves[:, 0]]
    return LagrangianPairPath(tuple(PathSample(s, *fn(s)) for s in rows), fn)


@pytest.mark.parametrize(
    "make",
    [
        lambda: rotation_pair_path(41, dim=4, num_samples=17),
        _moving_form_pair_path,
        fast_generator_path,
    ],
    ids=["constant form", "moving form", "winding refines"],
)
def test_stacked_lifts_equal_the_explicit_lifts_bit_for_bit(monkeypatch, make):
    """Both lifts that diagonal_lift winds give the theta-curve bytes of
    the lifts built and checked through the public constructor."""
    path = make()
    _, lift, swapped = _lifted_paths(monkeypatch, path)
    for got, signs, swap in ((lift, (1, -1), False), (swapped, (-1, 1), True)):
        want = maslov_winding(_explicit_lift(path, signs, swap)).theta_curves
        assert maslov_winding(got).theta_curves.tobytes() == want.tobytes()
    if make is fast_generator_path:
        assert len(maslov_winding(path).theta_curves) > len(path.samples)


def test_lifts_of_a_path_that_turns_past_pi_between_samples_do_not_alias(monkeypatch):
    """At 5 samples the relative angle of fast_generator_path turns by
    3.5 rad per step, past pi, while every gap stays below 0.2. The
    lifts are sampled at the rows of the base winding, so they give its
    (2, 2); the steps the winding inserted are gated in one call."""
    path = fast_generator_path(5)
    wind = maslov_winding(path)
    assert len(wind.theta_curves) > len(path.samples)
    gated = []
    failures = maslov._sampling_failures

    def counted(samples):
        gated.append([smp.s for smp in samples])
        return failures(samples)

    monkeypatch.setattr(maslov, "_sampling_failures", counted)
    result = diagonal_lift(path)
    assert _counts(result) == _counts(wind) == (2, 2)
    assert gated == [wind.theta_curves[:, 0].tolist()]
    assert np.array_equal(result.theta_curves[:, 0], wind.theta_curves[:, 0])


@pytest.mark.parametrize("make", [_moving_form_pair_path, fast_generator_path])
def test_lifting_a_wound_path_checks_no_doubled_frame(monkeypatch, make):
    """The lifts inherit the path's Lagrangian decision: neither the
    stacked isotropy test nor classify sees a 2N-dimensional frame."""
    from maslovlab import symplectic

    path = make()
    ambient = []

    def recorded(fn, ambient_dim):
        def wrapper(*args):
            ambient.append(ambient_dim(*args))
            return fn(*args)
        return wrapper

    mask = recorded(symplectic.lagrangian_mask, lambda forms, frames: frames.shape[-2])
    classify = recorded(symplectic.classify, lambda form, lam: lam.ambient_dim)
    monkeypatch.setattr(symplectic, "lagrangian_mask", mask)
    monkeypatch.setattr(symplectic, "classify", classify)
    monkeypatch.setattr(maslov, "classify", classify)
    maslov_winding(path)
    if make is fast_generator_path:
        # The winding's refined parameters are checked as they come.
        assert set(ambient) == {path.dim}
    ambient.clear()
    result = diagonal_lift(path)
    assert 2 * path.dim not in ambient
    assert _counts(result) == _counts(maslov_winding(path))


def test_winding_is_kept_on_the_path(monkeypatch):
    path = moving_form_lines_path(2)
    first = maslov_winding(path)
    steps = []
    branch_step = maslov._branch_step

    def counted(*args):
        steps.append(args[0])
        return branch_step(*args)

    monkeypatch.setattr(maslov, "_branch_step", counted)
    second = maslov_winding(path)
    assert steps == []
    assert _counts(second) == _counts(first)
    assert np.array_equal(second.theta_curves, first.theta_curves)
    with pytest.raises(ValueError, match="read-only"):
        second.theta_curves[0, 1] = 0.0


def _counts(result) -> tuple[int, int]:
    return result.mas_plus, result.mas_minus


def _rescaled(path: LagrangianPairPath, c: float) -> LagrangianPairPath:
    """The same Lagrangian legs under the constant form c J."""
    form = SymplecticForm(c * path.samples[0].form.j)
    return LagrangianPairPath.from_callable(
        lambda s: (form, *path.evaluate(s)[1:]), num_samples=len(path.samples)
    )


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12])
def test_counts_are_invariant_under_rescaling_the_form(c):
    for path in (benchmark_pair_path(), rotation_pair_path(43, dim=6, num_samples=33)):
        want = maslov_winding(path)
        want = (want.mas_plus, want.mas_minus)
        scaled = _rescaled(path, c)
        for route in (maslov_winding, maslov_crossings, diagonal_lift, maslov_reduced):
            got = route(scaled)
            assert (got.mas_plus, got.mas_minus) == want, route.__name__


def test_complement_dependence_is_caught_at_small_form_scale(monkeypatch):
    """Under 1e-9 J, a crossing form that moves by 1e-3 ||Gamma|| with the
    choice of complement must raise: the check is relative to
    max(||J||_2, ||Gamma||_2), not to max(1, ||Gamma||_2)."""
    path = _rescaled(benchmark_pair_path(), 1e-9)
    assert crossing_form(path, 0.5).signature == (1, 0, 0)
    anchored_sample = maslov._anchored_sample
    complements = {}

    def complement_dependent(path, params, form_t, anchor, v_ann_t):
        index = complements.setdefault(anchor.v.matrix.tobytes(), len(complements))
        out = []
        for form, lam, mu, local in anchored_sample(path, params, form_t, anchor, v_ann_t):
            # The pairing omega(x, (A1 - B1) y) on lam0 coordinates is
            # quadratic in the scale of the lam0 basis.
            lam0 = Frame._of_orthonormal(np.sqrt(1.0 + 1e-3 * index) * local.lam0.matrix)
            out.append((form, lam, mu, dataclasses.replace(local, lam0=lam0)))
        return out

    monkeypatch.setattr(maslov, "_anchored_sample", complement_dependent)
    with pytest.raises(ArithmeticError, match="depends on the choice of complement"):
        crossing_form(path, 0.5)
    assert len(complements) == 2


def test_off_grid_non_lagrangian_value_is_rejected():
    """A callback value reached only by refinement is still checked.

    The three samples are Lagrangian, but the branches move 2 rad per
    step, so the winding refines at s=0.25, where the callback hands
    back a symplectic line.
    """

    def fn(s: float):
        lam = Frame.span(np.array([1.0, 1j])) if s == 0.25 else line(1.0 * s)
        return FORM2, lam, line(-1.0 * s)

    grid = np.linspace(0.0, 1.0, 3)
    samples = tuple(PathSample(float(s), *fn(float(s))) for s in grid)
    path = LagrangianPairPath(samples, fn)
    with pytest.raises(ValueError, match="subspace is symplectic, not lagrangian"):
        maslov_winding(path)


def test_off_grid_failure_of_the_crossing_scan_names_the_smallest_parameter():
    """The line crosses at s=0.3 and 0.7, inside the sample gaps
    [0.2, 0.4] and [0.6, 0.8], so one level of the scan reaches both
    midpoints. There the callback hands back a symplectic lam and a
    symplectic mu; the stacked check of that level names the smaller s.
    """
    symplectic_line = Frame.span(np.array([1.0, 1j]))

    def fn(s: float):
        lam = symplectic_line if abs(s - 0.3) < 1e-12 else line(3.0 * (s - 0.3) * (s - 0.7))
        return FORM2, lam, symplectic_line if abs(s - 0.7) < 1e-12 else MU_HORIZONTAL

    path = LagrangianPairPath.from_callable(fn, num_samples=6)
    with pytest.raises(ValueError, match="^s=0.300000: lam subspace is symplectic, not lagrangian$"):
        maslov_crossings(path)


def test_each_parameter_is_checked_as_lagrangian_once(monkeypatch):
    """Winding then crossings check each path parameter's lam and mu once.

    The constructor checks the samples; the crossings route reads the
    angles the winding kept, and crossing forms need no generators.
    """
    from maslovlab import symplectic

    checked = []
    original = symplectic.lagrangian_generators

    def counted(forms, frames, *args, **kwargs):
        frames = list(frames)
        checked.append(len(frames))
        return original(forms, frames, *args, **kwargs)

    monkeypatch.setattr(symplectic, "lagrangian_generators", counted)
    monkeypatch.setattr(maslov, "lagrangian_generators", counted)
    path = benchmark_pair_path()
    maslov_winding(path)
    maslov_crossings(path)
    assert 0 < sum(checked) <= 2 * len(path._memo.values)


def test_adequacy_scan_finds_failure_strictly_between_nodes():
    """The pair crosses at s=0.7, between the nodes 0.6 and 0.8.

    Every node is transversal, so only the crossing scan, which also
    decides where a reduction is needed, sees the crossing inside the
    gap; the reduced segment is anchored there. Without it the reduced
    count would be (0, 0). The name is older than the crossing scan; it
    is kept so that the test keeps its id.
    """
    path = line_path(lambda s: 2.0 * (s - 0.7), num_samples=6)
    levels = _crossing_events(path)
    assert [z for *_, z in levels] == [0, 1, 0]
    assert levels[1][:2] == pytest.approx((0.7, 0.7), abs=1e-8)
    assert all(abs(smp.s - 0.7) > 0.05 for smp in path.samples)
    wind = maslov_winding(path)
    red = maslov_reduced(path)
    assert (wind.mas_plus, wind.mas_minus) == (red.mas_plus, red.mas_minus) == (1, 1)


def test_reduced_counts_two_opposite_crossings_in_one_gap():
    """The line rises through the horizontal at s=0.44 and falls back at
    s=0.51, both inside the gap [0.4, 0.6] between transversal nodes.

    The two crossings cancel, so a route that saw neither would still
    give the right total; the scan must locate both all the same, and
    the two reduced segments must match the winding.
    """
    path = line_path(lambda s: 0.01225 - 10.0 * (s - 0.475) ** 2, num_samples=6)
    levels = _crossing_events(path)
    assert [z for *_, z in levels] == [0, 1, 0, 1, 0]
    assert [lo for lo, _, z in levels if z] == [
        pytest.approx(0.44, abs=1e-8), pytest.approx(0.51, abs=1e-8)
    ]
    wind = maslov_winding(path)
    red = maslov_reduced(path)
    assert (red.mas_plus, red.mas_minus) == (wind.mas_plus, wind.mas_minus) == (0, 0)


def test_reduced_needs_a_callback():
    """Without a callback nothing between samples can be scanned or reduced.

    The crossing at s=0.7 lies strictly between the samples; reduced
    raises where it used to return (0, 0), and winding still counts it.
    """
    path = LagrangianPairPath(line_path(lambda s: 2.0 * (s - 0.7), num_samples=6).samples)
    with pytest.raises(ValueError, match="needs a refinement callback"):
        maslov_reduced(path)
    wind = maslov_winding(path)
    assert (wind.mas_plus, wind.mas_minus) == (1, 1)


@pytest.mark.parametrize(
    "angle_fn, num_samples, expected",
    [
        (lambda s: min(0.0, s - 0.3) + max(0.0, s - 0.6), 21, (1, 1)),
        (lambda s: min(0.0, s - 0.5), 21, (0, 1)),
        (lambda s: 9.5 * np.pi * s - 0.3, 9, (10, 10)),
    ],
    ids=["plateau in the middle", "plateau to the end", "fast line"],
)
def test_reduced_matches_winding_on_plateaus_and_a_fast_line(angle_fn, num_samples, expected):
    """A plateau is one span, anchored inside it; a line turning 9.5 pi
    over 9 samples crosses ten times, once in most sample gaps."""
    path = line_path(angle_fn, num_samples=num_samples)
    wind = maslov_winding(path)
    red = maslov_reduced(path)
    assert (red.mas_plus, red.mas_minus) == (wind.mas_plus, wind.mas_minus) == expected


@pytest.mark.parametrize("failing", [1, maslov._MAX_DEPTH], ids=["once", "max-depth"])
def test_reduced_segment_retries_after_failed_reductions(monkeypatch, failing):
    """The first ``failing`` reductions raise; each moves the segment ends
    halfway toward the span, and the counts are still winding's."""
    calls = itertools.count()
    reduced_pair = maslov.reduced_pair

    def flaky(*args):
        if next(calls) < failing:
            raise ArithmeticError("reduction refused")
        return reduced_pair(*args)

    path = benchmark_pair_path()
    monkeypatch.setattr(maslov, "reduced_pair", flaky)
    red = maslov_reduced(path)
    assert next(calls) > failing
    assert (red.mas_plus, red.mas_minus) == _counts(maslov_winding(path)) == (1, 1)


def test_reduced_segment_gives_up_after_max_depth_failures(monkeypatch):
    def refused(*args):
        raise ArithmeticError("reduction refused")

    monkeypatch.setattr(maslov, "reduced_pair", refused)
    with pytest.raises(ValueError, match="^no admissible reduction partition .*reduction refused"):
        maslov_reduced(benchmark_pair_path())


def test_reduced_counts_that_change_with_the_partition_raise(monkeypatch):
    """The second count of a segment, with its ends halfway toward its
    span, must equal the first."""
    calls = itertools.count()
    winding = maslov.maslov_winding

    def shifted(path):
        result = winding(path)
        if next(calls) == 1:
            return dataclasses.replace(result, mas_plus=result.mas_plus + 1, mas_minus=result.mas_minus + 1)
        return result

    monkeypatch.setattr(maslov, "maslov_winding", shifted)
    with pytest.raises(
        ArithmeticError, match=r"^reduced Maslov counts changed under partition refinement: \(1, 1\) vs \(2, 2\)$"
    ):
        maslov_reduced(benchmark_pair_path())


@pytest.mark.parametrize(
    "trial, expected", [((116, 6), (0, 0)), ((22, 2), (-1, -1))], ids=["116-6", "22-2"]
)
def test_reduced_on_criterion_04_family_draws(trial, expected):
    """Criterion 04's family at (0xAC04, i, j) with seed=j.

    (116, 6) crosses at s = 0.670 (signature -1) and 0.887 (+1); an
    anchor search over the nodes gave (-1, -1) there.
    """
    i, j = trial
    path = rotating_pair_path(rng_from_seed((0xAC04, i, j)), dim=16, num_samples=25,
                              scale_lam=3.0, scale_mu=0.8)
    wind = maslov_winding(path)
    red = maslov_reduced(path, seed=j)
    assert (red.mas_plus, red.mas_minus) == (wind.mas_plus, wind.mas_minus) == expected


def test_reduced_on_c16_path_whose_crossing_sits_near_a_bisection_point():
    """Criterion 04's family at (0xAC04, 109, 0): its crossing sits near
    a point where a bisection of its sample gap lands."""
    path = rotating_pair_path(rng_from_seed((0xAC04, 109, 0)), dim=16, num_samples=25,
                              scale_lam=3.0, scale_mu=0.8)
    wind = maslov_winding(path)
    red = maslov_reduced(path, seed=0)
    assert (red.mas_plus, red.mas_minus) == (wind.mas_plus, wind.mas_minus) == (0, 0)


def test_winding_and_reduction_of_a_transversal_c16_path_stay_cheap():
    """Criterion 04 trial 0 has no crossing; counted through the
    callback, building the path, its winding and its reduction take at
    most 200 evaluations."""
    base = rotating_pair_path(rng_from_seed((0xAC04, 0, 0)), dim=16, num_samples=25,
                              scale_lam=3.0, scale_mu=0.8)
    calls = []

    def counted(s):
        calls.append(s)
        return base.callback(s)

    path = LagrangianPairPath.from_callable(counted, num_samples=25)
    wind = maslov_winding(path)
    red = maslov_reduced(path, seed=0)
    assert (red.mas_plus, red.mas_minus) == (wind.mas_plus, wind.mas_minus) == (0, 0)
    assert len(calls) <= 200


def test_reduction_of_a_transversal_c16_path_makes_no_callback_call():
    """Criterion 04 trial 0 has no crossing: the crossing scan clears
    every gap from its sample values, and no segment is reduced, so
    maslov_reduced evaluates the path nowhere between samples."""
    base = rotating_pair_path(rng_from_seed((0xAC04, 0, 0)), dim=16, num_samples=25,
                              scale_lam=3.0, scale_mu=0.8)
    calls = []

    def counted(s):
        calls.append(s)
        return base.callback(s)

    path = LagrangianPairPath(base.samples, counted)
    red = maslov_reduced(path, seed=0)
    assert (red.mas_plus, red.mas_minus) == (0, 0)
    assert calls == []


REDUCTION_CASES = ["crossing between nodes", "criterion 04 trial 1"]


def reduction_case(case: str) -> tuple[LagrangianPairPath, int]:
    """(path, seed) for maslov_reduced: the crossing strictly between
    nodes of the scan test, or trial 1 of acceptance criterion 04, a
    rotating pair in C^16."""
    if case == "crossing between nodes":
        return line_path(lambda s: 2.0 * (s - 0.7), num_samples=6), 0
    path = rotation_pair_path((0xAC04, 0, 1), dim=16, num_samples=25,
                              scale_lam=3.0, scale_mu=0.8)
    return path, 1


@pytest.mark.parametrize("case", REDUCTION_CASES)
def test_transversal_anchors_reduce_each_parameter_and_scan_each_gap_once(monkeypatch, case):
    """Anchors sit only at crossing events, so none is transversal; each
    anchor reduces each parameter once, and the crossing scan that
    places the segments scans each sample gap once."""
    path, seed = reduction_case(case)
    reductions, scans = Counter(), Counter()
    built = {"transversal anchors": 0, "anchors": 0}

    def counted_reduction(form, dec, lam, mu):
        key = (dec.lam0.matrix.tobytes(), dec.v.matrix.tobytes(), lam.matrix.tobytes(), mu.matrix.tobytes())
        reductions[key] += 1
        return reduced_pair(form, dec, lam, mu)

    def counted_scan(grid, values, motion):
        scans.update(zip(grid, grid[1:]))
        return scan_pieces(grid, values, motion)

    def counted_anchor(*args):
        dec, v_ann = decompose(*args)
        built["transversal anchors"] += dec.lam0.dim == 0
        built["anchors"] += 1
        return dec, v_ann

    scan_pieces, decompose = maslov._scan_pieces, maslov._decompose
    monkeypatch.setattr(maslov, "reduced_pair", counted_reduction)
    monkeypatch.setattr(maslov, "_scan_pieces", counted_scan)
    monkeypatch.setattr(maslov, "_decompose", counted_anchor)
    red = maslov_reduced(path, seed=seed)
    wind = maslov_winding(path)
    times = [smp.s for smp in path.samples]
    assert reductions and max(reductions.values()) == 1
    assert sorted(scans) == list(zip(times, times[1:]))
    assert max(scans.values()) == 1
    assert built["anchors"] > 0 and built["transversal anchors"] == 0
    assert (red.mas_plus, red.mas_minus) == (wind.mas_plus, wind.mas_minus)


def test_maslov_routes_build_no_projection(monkeypatch):
    """Crossing forms and reduced samples take P0 from the graph
    coefficients, so neither route constructs a Projection."""
    built = []
    init = Projection.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Projection, "__init__", counted)
    maslov_crossings(benchmark_pair_path())
    maslov_reduced(*reduction_case("criterion 04 trial 1"))
    assert built == []
    rng = rng_from_seed(0x90)
    form = random_symplectic_form(rng, 4)
    intrinsic_decomposition(form, *random_lagrangian_pair(rng, form, intersection_dim=1)).p0
    assert built == [1]


@pytest.mark.parametrize("case", REDUCTION_CASES)
def test_reduced_leaves_no_cyclic_garbage(monkeypatch, case):
    """With the cyclic collector paused, the reduction state is freed on return.

    Every anchor decomposition and every reduced path, with the reduced
    pairs its callback keeps, must be gone once maslov_reduced returns.
    """
    path, seed = reduction_case(case)
    refs = []
    decompose = maslov._decompose

    def tracked_decomposition(*args):
        dec, v_ann = decompose(*args)
        refs.append(weakref.ref(dec))
        return dec, v_ann

    def tracked_winding(reduced_path, *args, **kwargs):
        refs.append(weakref.ref(reduced_path))
        return maslov_winding(reduced_path, *args, **kwargs)

    monkeypatch.setattr(maslov, "_decompose", tracked_decomposition)
    monkeypatch.setattr(maslov, "maslov_winding", tracked_winding)
    gc.disable()
    try:
        result = maslov_reduced(path, seed=seed)
        alive = [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    wind = maslov_winding(path)
    assert (result.mas_plus, result.mas_minus) == (wind.mas_plus, wind.mas_minus)
    assert len(refs) >= 3
    assert not alive


@pytest.mark.parametrize("defect, passes", [(9.9, True), (10.1, False)])
def test_hermitize_derivative_gate_scales_with_the_norm(defect, passes):
    """At ||d|| = 1e6 the relative gate 1e-5 * ||d|| sits at 10."""
    d = np.array([[1e6, defect], [0.0, 0.0]], dtype=complex)
    if passes:
        q = _hermitize_derivative(d, "crossing form")
        assert np.allclose(q.matrix, [[1e6, defect / 2], [defect / 2, 0.0]])
    else:
        with pytest.raises(ArithmeticError, match="crossing form came out non-Hermitian"):
            _hermitize_derivative(d, "crossing form")


@pytest.mark.parametrize("num_samples", [6, 8])
def test_reduced_counts_when_the_left_half_gains_a_node(num_samples):
    """A crossing at s=0.5, between samples, is counted once.

    The name is older than the crossing scan; it is kept so that the
    test keeps its id.
    """
    path = line_path(lambda s: -np.pi / 4 + np.pi / 2 * s, num_samples=num_samples)
    wind = maslov_winding(path)
    red = maslov_reduced(path)
    assert (wind.mas_plus, wind.mas_minus) == (red.mas_plus, red.mas_minus) == (1, 1)


def test_semipositive_benchmark_counts_one():
    assert maslov_semipositive(benchmark_pair_path()) == 1


# J -> cJ is a symplectic isomorphism, so semi-positivity and the count
# must not depend on c; the zero test scales with ||J||_2.
FORM_SCALES = pytest.mark.parametrize(
    "c", [1e-12, 1e-8, 1.0, 1e12], ids=["1e-12", "1e-8", "1", "1e12"]
)


@FORM_SCALES
def test_semipositive_two_rotations_count_two(c):
    path = line_path(lambda s: -np.pi / 4 + 1.5 * np.pi * s, num_samples=41,
                     form=SymplecticForm(c * FORM2.j))
    assert maslov_semipositive(path) == 2
    result = maslov_winding(path)
    assert (result.mas_plus, result.mas_minus) == (2, 2)


def test_semipositive_matches_lower_index_at_endpoint_crossing():
    path = line_path(lambda s: -np.pi / 2 * (1.0 - s))
    assert maslov_semipositive(path) == maslov_winding(path).mas_minus == 1


@FORM_SCALES
def test_semipositive_rejects_negative_motion(c):
    path = line_path(lambda s: 0.3 - 0.9 * s, form=SymplecticForm(c * FORM2.j))
    with pytest.raises(ValueError, match="not semi-positive at t="):
        maslov_semipositive(path)


def test_semipositive_requires_constant_mu():
    path = rotation_pair_path(900)
    with pytest.raises(ValueError, match="constant mu"):
        maslov_semipositive(path)


J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
OPPOSITE_CROSSINGS_C4 = "C^4, two lines cross both ways in one sample gap"


def lines_frame(angles) -> np.ndarray:
    """Columns (cos t_i, sin t_i) placed in coordinates 2i, 2i+1 of C^2k."""
    k = len(angles)
    m = np.zeros((2 * k, k), dtype=complex)
    m[2 * np.arange(k), np.arange(k)] = np.cos(angles)
    m[2 * np.arange(k) + 1, np.arange(k)] = np.sin(angles)
    return m


def line_sum_path(angles_fn, mu_angles, p, num_samples) -> LagrangianPairPath:
    """P (+)_i line(angles_fn(s)_i) against the fixed P (+)_i line(mu_angles_i).

    The form is J = P^-H (J2 (+) ... (+) J2) P^-1, so P carries the sum
    of planar line pairs to this path, and its counts are the sums of
    the lines' counts: a line rising through its partner adds (1, 1),
    one falling through it (-1, -1).
    """
    pinv = np.linalg.inv(p)
    form = SymplecticForm(pinv.conj().T @ scipy.linalg.block_diag(*[J2] * (len(p) // 2)) @ pinv)
    mu = orthonormalize(p @ lines_frame(mu_angles))
    return LagrangianPairPath.from_callable(
        lambda s: (form, orthonormalize(p @ lines_frame(angles_fn(s))), mu), num_samples
    )


def close_crossings_path(case) -> LagrangianPairPath:
    """A path whose crossings of different lines lie close together.

    An integer case is draw ``case`` of a seeded family: k = 1 + case % 4
    lines, line i turning from angle a_i at rate b_i against a line at
    c_i, under a general change of coordinates P = U diag(d) V with d in
    [0.5, 2], at 65 samples. The C^4 case has one line rising through
    its partner at s = 0.52 and one falling through it at s = 0.56, both
    inside the sample gap [0.5, 0.625].
    """
    if case == OPPOSITE_CROSSINGS_C4:
        return line_sum_path(lambda s: [s - 0.52, -1.5 * (s - 0.56)], [0.0, 0.0], np.eye(4), 9)
    return drawn_lines_path((0x5041, case), 1 + case % 4, 65)


def draw_lines(rng, k):
    """Start angles a, rates b and partner angles c of k lines, and a
    change of coordinates P = U diag(d) V with d in [0.5, 2]."""
    a = rng.uniform(0.0, np.pi, k)
    b = rng.uniform(-1.5 * np.pi, 1.5 * np.pi, k)
    c = rng.uniform(0.0, np.pi, k)
    p = (random_unitary(rng, 2 * k) * rng.uniform(0.5, 2.0, 2 * k)) @ random_unitary(rng, 2 * k)
    return a, b, c, p


def drawn_lines_path(key, k, num_samples) -> LagrangianPairPath:
    """k lines drawn from ``numpy.random.default_rng(key)``, see close_crossings_path."""
    a, b, c, p = draw_lines(np.random.default_rng(key), k)
    return line_sum_path(lambda s: a + b * s, c, p, num_samples)


def moving_form_lines_path(k: int) -> LagrangianPairPath:
    """k drawn lines moved by P(s) = expm(sK) P, so the form J(s) changes with s.

    Line i turns from angle a_i at rate b_i against a line at c_i, as in
    drawn_lines_path. K is mostly a rotation, with a little stretch.
    """
    rng = np.random.default_rng((0x7A14, k))
    a, b, c, p = draw_lines(rng, k)
    g = rng.standard_normal((2, 2 * k, 2 * k)) + 1j * rng.standard_normal((2, 2 * k, 2 * k))
    h_rot, h_stretch = (h + h.conj().T for h in g)
    generator = 1j * h_rot / np.linalg.norm(h_rot, 2) + 0.3 * h_stretch / np.linalg.norm(h_stretch, 2)
    j0 = scipy.linalg.block_diag(*[J2] * k)

    def fn(s: float):
        ps = scipy.linalg.expm(s * generator) @ p
        pinv = np.linalg.inv(ps)
        return (
            SymplecticForm(pinv.conj().T @ j0 @ pinv),
            orthonormalize(ps @ lines_frame(a + b * s)),
            orthonormalize(ps @ lines_frame(c)),
        )

    return LagrangianPairPath.from_callable(fn, 33)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_crossings_match_winding_when_the_form_moves(monkeypatch, k):
    """Under a moving form every stencil point of a crossing form takes
    the annihilator of V under its own form: the four interior points of
    each of the two complements. At the crossing itself each complement
    reuses the V^omega its decomposition built, so none is taken there."""
    path = moving_form_lines_path(k)
    forms = []
    annihilator = maslov.annihilator

    def recorded(form, v):
        forms.append(form)
        return annihilator(form, v)

    monkeypatch.setattr(maslov, "annihilator", recorded)
    got = maslov_crossings(path)
    want = maslov_winding(path)
    assert (got.mas_plus, got.mas_minus) == (want.mas_plus, want.mas_minus)
    at_crossings = [path.evaluate(rec.t)[0] for rec in got.crossings]
    moved = [f for f in forms if all(f is not form_t for form_t in at_crossings)]
    assert got.crossings and len(moved) == 8 * len(got.crossings)
    assert len(forms) == len(moved)


def reference_crossing_form(path: LagrangianPairPath, t: float, seed: int = 0):
    """The crossing form one complement and one stencil point at a time.

    Each complement is its own intrinsic decomposition; each point of
    the coarse stencil and then of the fine one is evaluated, anchored
    and solved for its graph coefficients on its own, and a repeated
    point is solved again. Returns the intersection frame, Gamma, its
    signature and the scale max(||J||_2, ||Gamma||_2).
    """
    form_t, lam_t, mu_t = path.evaluate(t)
    frame = intersect(lam_t, mu_t)
    h = maslov._FD_STEP
    if t - 2 * h >= 0.0 and t + 2 * h <= 1.0:
        offsets, weights = (1, -1), (1, -1)
    elif t + 2 * h <= 1.0:
        offsets, weights = (0, 1, 2), (-3, 4, -1)
    else:
        offsets, weights = (0, -1, -2), (3, -4, 1)

    def scale(q):
        return max(np.abs(form_t.eig[0]).max(), np.linalg.norm(q.matrix, 2))

    def signature(q):
        return morse_counts(q.matrix, zero_tol=maslov._FORM_ZERO * scale(q))

    def gamma_with_seed(v_seed):
        dec = intrinsic_decomposition(form_t, lam_t, mu_t, seed=v_seed)
        v_ann_t = annihilator(form_t, dec.v)

        def qfun(s):
            form_s, lam_s, mu_s = path.evaluate(s)
            v_ann = v_ann_t if form_s is form_t else annihilator(form_s, dec.v)
            local = IntrinsicDecomposition(dec.lam0, dec.v, intersect(v_ann, lam_s), intersect(v_ann, mu_s))
            a1, _, b1, _ = graph_coefficients(form_s, local, lam_s, mu_s)
            diff = local.v.matrix @ (a1 - b1)
            return diff.conj().T @ form_s.j @ local.lam0.matrix

        def stencil(step):
            return sum(w * qfun(t + k * step) for k, w in zip(offsets, weights)) / (2 * step)

        coarse, fine = stencil(h), stencil(h / 2)
        g_coarse, g_fine = (_hermitize_derivative(d, "crossing form") for d in (coarse, fine))
        assert signature(g_coarse) == signature(g_fine)
        return _hermitize_derivative((4 * fine - coarse) / 3, "crossing form")

    gamma, gamma_alt = gamma_with_seed(seed), gamma_with_seed(seed + 101)
    assert signature(gamma) == signature(gamma_alt)
    assert np.max(np.abs(gamma.matrix - gamma_alt.matrix)) <= 1e-5 * scale(gamma)
    return frame, gamma, signature(gamma), scale(gamma)


REFERENCE_PATHS = {
    "benchmark": benchmark_pair_path,
    "crossings at both ends": lambda: line_path(lambda s: np.pi * s),
    "falling through both ends": lambda: line_path(lambda s: -2.0 * np.pi * s, num_samples=33),
    **{f"moving form, {k} lines": (lambda k=k: moving_form_lines_path(k)) for k in (1, 2, 3, 4)},
    **{f"drawn lines {i}": (lambda i=i: drawn_lines_path((0x5041, i), 1 + i % 4, 65)) for i in (1, 2, 3, 7)},
}


@pytest.mark.parametrize("case", REFERENCE_PATHS)
def test_stacked_crossing_forms_match_the_point_by_point_reference(case):
    """One stacked pass per crossing gives what the point-by-point
    computation gives: the same intersection frame and signature, and
    Gamma within 1e-9 of the data's scale, at interior crossings, at
    crossings on both path ends and under a moving form."""
    path = REFERENCE_PATHS[case]()
    result = maslov_crossings(path)
    assert result.crossings
    if case.startswith(("crossings at", "falling")):
        assert {0.0, 1.0} <= {rec.t for rec in result.crossings}
    for rec in result.crossings:
        frame, gamma, signature, scale = reference_crossing_form(path, rec.t)
        assert rec.intersection.matrix.tobytes() == frame.matrix.tobytes()
        assert rec.signature == signature
        assert np.max(np.abs(rec.gamma.matrix - gamma.matrix)) <= 1e-9 * scale


INTERIOR_POINTS = [0.5 + 1e-5, 0.5 - 1e-5, 0.5 + 5e-6, 0.5 - 5e-6]


def _failing_points(monkeypatch, failures) -> LagrangianPairPath:
    """The benchmark path, with chosen stencil points of chosen complements failing.

    ``failures`` maps (complement, point) to "evaluate", a callback that
    raises at the point (for both complements), "blocks", lam1 replaced
    by lam, one block too many, or "graph", lam replaced by V, which is
    no graph over the anchor block. Complements count in the order they
    are anchored, points in the order the coarse and then the fine
    stencil of t = 0.5 first use them.
    """
    anchored_sample = maslov._anchored_sample
    complements = {}
    missing = [INTERIOR_POINTS[point] for (_, point), kind in failures.items() if kind == "evaluate"]
    benchmark = benchmark_pair_path()

    def fn(s):
        if s in missing:
            raise ValueError(f"no value at stencil point {INTERIOR_POINTS.index(s)}")
        return benchmark.callback(s)

    def failing(path, params, form_t, anchor, v_ann_t):
        index = complements.setdefault(anchor.v.matrix.tobytes(), len(complements))
        out = anchored_sample(path, params, form_t, anchor, v_ann_t)
        for (complement, point), kind in failures.items():
            if complement == index and kind != "evaluate" and point < len(out):
                form, lam, mu, local = out[point]
                if kind == "blocks":
                    local = dataclasses.replace(local, lam1=lam)
                else:
                    lam = local.v
                out[point] = (form, lam, mu, local)
        return out

    monkeypatch.setattr(maslov, "_anchored_sample", failing)
    return LagrangianPairPath.from_callable(fn, 21)


BLOCKS = (ValueError, "block bases do not fill the ambient space")
GRAPH = (
    ArithmeticError,
    "lam is not a graph over the anchor block (transversality to the complementary blocks fails)",
)
HALVING = (ArithmeticError, "crossing form signature at t=0.5 changed under finite-difference step halving")


@pytest.mark.parametrize(
    "failures, halving, expected",
    [
        ({(0, 2): "blocks", (0, 1): "graph"}, False, BLOCKS),
        ({(0, 1): "blocks", (0, 2): "graph"}, False, BLOCKS),
        ({(0, 3): "graph", (0, 0): "blocks"}, False, BLOCKS),
        ({(1, 0): "blocks", (0, 3): "graph"}, False, BLOCKS),
        ({(1, 0): "graph", (1, 2): "blocks"}, False, BLOCKS),
        ({(1, 0): "blocks"}, True, BLOCKS),
        ({(0, 2): "evaluate", (0, 1): "graph"}, False, (ValueError, "no value at stencil point 2")),
        ({(0, 1): "evaluate", (0, 2): "graph"}, False, (ValueError, "no value at stencil point 1")),
        ({(0, 0): "evaluate"}, False, (ValueError, "no value at stencil point 0")),
        ({(1, 3): "graph"}, True, GRAPH),
        ({(1, 3): "graph"}, False, GRAPH),
    ],
    ids=["coarse before fine", "coarse before fine 2", "first point", "first complement",
         "second complement", "first complement's gates", "graph before callback",
         "callback before graph", "first callback", "stacked gates before derivative gates",
         "last element"],
)
def test_failing_stencil_points_raise_in_point_by_point_order(monkeypatch, failures, halving, expected):
    """With several stencil points failing, the stacked pass raises by the
    order of its stages: every distinct stencil parameter is evaluated
    first, then a sample whose pair blocks have the wrong dimension
    raises, then the gates of the one stacked solve, and only then the
    derivative gates of each complement. A single failure raises what it
    raised point by point."""
    path = _failing_points(monkeypatch, failures)
    if halving:
        calls = itertools.count()
        monkeypatch.setattr(maslov, "_signature", lambda q, form: (next(calls), 0, 0))
    error, message = expected
    with pytest.raises(error) as raised:
        crossing_form(path, 0.5)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "t, points",
    [(0.5, INTERIOR_POINTS), (0.0, [0.0, 1e-5, 2e-5, 5e-6]),
     (1.0, [1.0, 1.0 - 1e-5, 1.0 - 2e-5, 1.0 - 5e-6])],
    ids=["interior", "start", "end"],
)
def test_one_stacked_solve_per_crossing(monkeypatch, t, points):
    """Each crossing form solves its graph coefficients once, over both
    complements and the four distinct stencil parameters, and takes one
    eigensolve per signature: the step and half step of each complement,
    then Gamma and its second-complement twin."""
    from maslovlab import frames

    path = line_path(lambda s: np.pi * (s - 0.5) if t == 0.5 else np.pi * s)
    stacks, anchored, eigs = [], [], []
    solve, anchored_sample, eig = maslov._graph_coefficient_stack, maslov._anchored_sample, frames.hermitian_eig

    def counted_solve(dim, lam0, *args):
        stacks.append(len(lam0))
        return solve(dim, lam0, *args)

    def counted_sample(path, params, *args):
        anchored.append(list(params))
        return anchored_sample(path, params, *args)

    def counted_eig(a):
        eigs.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(maslov, "_graph_coefficient_stack", counted_solve)
    monkeypatch.setattr(maslov, "_anchored_sample", counted_sample)
    monkeypatch.setattr(frames, "hermitian_eig", counted_eig)
    rec = crossing_form(path, t)
    assert rec.signature in ((1, 0, 0), (0, 1, 0))
    assert stacks == [8]
    assert len(anchored) == 2 and all(np.allclose(params, points, rtol=0, atol=1e-15) for params in anchored)
    assert len(eigs) == 6


@pytest.mark.parametrize(
    "case, expected",
    [
        (31, (3, 3)),
        (91, (0, 0)),
        (209, (1, 1)),
        (214, (0, 0)),
        (219, (2, 2)),
        (379, (3, 3)),
        (OPPOSITE_CROSSINGS_C4, (0, 0)),
    ],
)
def test_crossings_count_close_crossings_of_different_lines(case, expected):
    """Each crossing is found once, however close a crossing of another line lies.

    The expected counts are the closed-form sums over the lines. Angle
    branches continued by minimal displacement swap labels where two
    eigenvalues pass each other near angle 0, so an event finder that
    follows them drops crossings, or finds one of two that cancel.
    """
    result = maslov_crossings(close_crossings_path(case))
    assert (result.mas_plus, result.mas_minus) == expected


@pytest.mark.parametrize("draw, expected", [(1, (1, 1)), (32, (0, 0))])
def test_reduced_under_a_general_change_of_coordinates(draw, expected):
    """Four lines in C^8 under P = U diag(d) V, drawn from (0x4ED1, draw), 49 samples.

    An anchor search over the nodes gave (0, 0) and (2, 2) here: draw
    32's segment anchored at one crossing held crossings of other lines.
    """
    path = drawn_lines_path((0x4ED1, draw), 4, 49)
    wind = maslov_winding(path)
    red = maslov_reduced(path, seed=draw)
    assert (red.mas_plus, red.mas_minus) == (wind.mas_plus, wind.mas_minus) == expected


@pytest.mark.parametrize(
    "angles_fn, expected",
    [
        (lambda s: [0.0 * s, s - 0.5], (1, 1)),
        (lambda s: [0.0 * s, 2.2 * np.pi * s - 0.3], (3, 3)),
        (lambda s: [max(0.0, s - 0.6), s - 0.3], (2, 1)),
        (lambda s: [min(0.0, s - 0.2) + max(0.0, s - 0.8), 2.2 * np.pi * s - 0.3], (4, 4)),
    ],
    ids=["one on a plateau", "three on a plateau", "one as a plateau ends", "three across a plateau"],
)
def test_reduced_anchors_crossings_on_top_of_a_plateau(angles_fn, expected):
    """Line 1 stays on its partner over a plateau while line 2 rises
    through its partner, in C^4 at 9 samples.

    The pair stays intersected across line 2's crossings, so an anchor
    placed anywhere on the plateau misses line 2's direction there; the
    reduced pair then stays constant and counts nothing. Each crossing
    is a level of higher z and must anchor a segment of its own.
    """
    path = line_sum_path(angles_fn, [0.0, 0.0], np.eye(4), 9)
    wind = maslov_winding(path)
    red = maslov_reduced(path)
    assert (red.mas_plus, red.mas_minus) == (wind.mas_plus, wind.mas_minus) == expected


def test_reduced_takes_end_dimensions_from_the_angle_snap():
    """Draw (0x5041, 90) ends with an angle of about -1.3e-5.

    Neither the 1e-8 snap of winding nor intersect, whose sine test
    resolves that angle, counts the direction as shared, so the end
    dimensions of the flipping identity are the same whichever it
    reads, and the counts are (2, 2).
    """
    path = close_crossings_path(90)
    end = path.samples[-1]
    angles = maslov._path_angles(path, end.s)
    assert 1e-8 < np.min(np.abs(angles)) < 1e-4
    snapped = int(np.sum(np.abs(angles) <= maslov._ANGLE_SNAP))
    assert intersect(end.lam, end.mu).dim == snapped == 0
    red = maslov_reduced(path, seed=90)
    wind = maslov_winding(path)
    assert (red.mas_plus, red.mas_minus) == (wind.mas_plus, wind.mas_minus) == (2, 2)


def test_crossings_a_ten_thousandth_apart_count_by_every_route():
    """Two lines rise through their partners at s = 0.53005 and 0.53015.

    At the first crossing the other line is 1e-4 from its partner: a
    cosine test counted that direction as shared while the sum kept it,
    and the decomposition raised. With one sine test for both, all
    three routes count (2, 2).
    """
    path = line_sum_path(lambda s: [s - 0.53005, s - 0.53015], [0.0, 0.0], np.eye(4), 21)
    for route in (maslov_winding, maslov_crossings, maslov_reduced):
        result = route(path)
        assert (result.mas_plus, result.mas_minus) == (2, 2), route.__name__


@pytest.mark.parametrize("num_samples", [21, 25])
def test_scan_pieces_halve_every_gap_six_times(num_samples):
    """A piece that never clears is halved six times, to 1/64 of its gap,
    whether or not the gap is a dyadic fraction."""
    grid = list(np.linspace(0.0, 1.0, num_samples))
    pieces = _scan_pieces(grid, lambda points: [1.0] * len(points), lambda level: [1.0] * len(level))
    assert len(pieces) == 64 * (num_samples - 1)
    for k, (a, b) in enumerate(zip(grid, grid[1:])):
        gap = pieces[64 * k : 64 * (k + 1)]
        assert gap[0][0] == a and gap[-1][1] == b
        assert all(d - c == pytest.approx((b - a) / 64, rel=1e-9) for c, d in gap)


def depth_first_scan_pieces(a, b, value, motion):
    """The pieces of one sample gap [a, b], scanned depth first.

    The reference for the level scan of :func:`maslov._scan_pieces`:
    one gap at a time, one point at a time, by the same rule.
    """
    values = {}
    pieces = [(a, b, 0)]
    while pieces:
        c, d, depth = pieces.pop()
        for s in (c, d):
            if s not in values:
                values[s] = value(s)
        excess = values[c] + values[d]
        if excess > maslov._MOTION_FACTOR * motion(c, d):
            continue
        if excess <= 0.0 or depth == maslov._PIECE_DEPTH:
            yield c, d
            continue
        mid = 0.5 * (c + d)
        pieces.extend(((mid, d, depth + 1), (c, mid, depth + 1)))


def per_gap_scan(grid, values, motions):
    """Every gap of the grid through :func:`depth_first_scan_pieces`, in order."""
    return [
        piece
        for a, b in zip(grid, grid[1:])
        for piece in depth_first_scan_pieces(
            a, b, lambda s: values([s])[0], lambda c, d: motions([(c, d)])[0]
        )
    ]


def scan_record(base: LagrangianPairPath, scan):
    """Pieces, callback parameters and levels of the crossing scan of
    base's samples and callback, with ``scan`` as its piece scan."""
    calls = []

    def counted(s):
        calls.append(s)
        return base.callback(s)

    pieces = []

    def recorded(grid, values, motion):
        pieces.extend(scan(grid, values, motion))
        return list(pieces)

    with mock.patch.object(maslov, "_scan_pieces", recorded):
        levels = _crossing_events(LagrangianPairPath(base.samples, counted))
    return pieces, sorted(calls), levels


def assert_level_scan_matches_depth_first(base: LagrangianPairPath):
    pieces, calls, levels = scan_record(base, _scan_pieces)
    want_pieces, want_calls, want_levels = scan_record(base, per_gap_scan)
    assert pieces == want_pieces
    assert calls == want_calls and len(set(calls)) == len(calls)
    assert levels == want_levels


TOUCH_LINES = {
    "touch": lambda s: 0.2 * (s - 0.53) ** 2,
    "touch mid-piece": lambda s: 0.2 * (s - 0.5302) ** 2,
    "near miss": lambda s: 2e-9 + 0.2 * (s - 0.5302) ** 2,
}


def touch_path(case: str) -> LagrangianPairPath:
    """Line 1 comes back from its partner between samples while line 2
    turns fast, far from its partner, in C^4 at 21 samples."""
    first_line = TOUCH_LINES[case]
    return line_sum_path(lambda s: [first_line(s), 1.0 + 1.5 * s], [0.0, 0.0], np.eye(4), 21)


@pytest.mark.parametrize("case", list(TOUCH_LINES))
def test_level_scan_matches_the_depth_first_scan_near_a_touch(case):
    """The level scan keeps the pieces, the callback parameters and the
    levels of a depth-first scan of one gap at a time."""
    assert_level_scan_matches_depth_first(touch_path(case))


@settings(max_examples=20)
@given(key=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_level_scan_matches_the_depth_first_scan_on_drawn_lines(key, k):
    """Drawn lines in C^2 to C^8, as in close_crossings_path, at 33 samples."""
    assert_level_scan_matches_depth_first(drawn_lines_path((0x5CA4, key), k, 33))


@pytest.mark.parametrize("case", list(TOUCH_LINES))
def test_piece_scan_checks_one_stack_per_level(case):
    """Near a touch the pieces are split down to the floor depth; the
    scan checks each level's new pairs in one call, at most
    ``_PIECE_DEPTH + 1`` calls for all its pieces."""
    path = touch_path(case)
    stacks, pieces = [], []
    checked = maslov.lagrangian_generators
    scan = maslov._scan_pieces

    def counted(forms, frames):
        if not pieces:  # the scan has not returned yet
            stacks.append(len(frames))
        return checked(forms, frames)

    def recorded(grid, values, motion):
        pieces.extend(scan(grid, values, motion))
        return list(pieces)

    with mock.patch.object(maslov, "lagrangian_generators", counted), \
            mock.patch.object(maslov, "_scan_pieces", recorded):
        _crossing_events(path)
    assert min(d - c for c, d in pieces) == pytest.approx(1.0 / (20 * 64))
    assert 0 < len(stacks) <= maslov._PIECE_DEPTH + 1
    assert all(n > 2 for n in stacks)


def one_crossing_path() -> LagrangianPairPath:
    """Line 1 rises through its partner at s = 0.53, between samples, and
    line 2 turns far from its partner, in C^4 at 21 samples."""
    return line_sum_path(lambda s: [s - 0.53, 1.0 + 0.5 * s], [0.0, 0.0], np.eye(4), 21)


@pytest.mark.parametrize("case", ["touch", "crossing"])
def test_crossing_events_take_one_motion_pass_per_level_and_per_bracket(case):
    """The motions of all pieces of a scan level come from one stacked
    delta array, and each bracket of the event search whose end states
    differ takes one stack of its own."""
    path = touch_path(case) if case == "touch" else one_crossing_path()
    in_scan, after_scan, level_sizes, done = [], [], [], []
    circular_delta, scan = maslov._circular_delta, maslov._scan_pieces

    def counted_delta(a, b):
        (after_scan if done else in_scan).append(np.broadcast_shapes(np.shape(a), np.shape(b))[0])
        return circular_delta(a, b)

    def recorded(grid, values, motions):
        def level_motions(pieces):
            level_sizes.append(len(pieces))
            return motions(pieces)

        pieces = scan(grid, values, level_motions)
        done.append(True)
        return pieces

    with mock.patch.object(maslov, "_circular_delta", counted_delta), \
            mock.patch.object(maslov, "_scan_pieces", recorded):
        levels = _crossing_events(path)
    assert in_scan == level_sizes
    assert 0 < len(level_sizes) <= maslov._PIECE_DEPTH + 1
    assert sum(level_sizes) > 4 * len(level_sizes)
    assert after_scan == [1] * len(after_scan)
    if case == "crossing":
        assert after_scan
        assert [z for *_, z in levels] == [0, 1, 0]
        assert levels[1][0] == pytest.approx(0.53, abs=1e-9)


def per_point_anchored_sample(evaluate, params, form_t, anchor, v_ann_t):
    """The anchored samples of :func:`maslov._anchored_sample`, with both
    pair blocks cut anew at every point."""
    out = []
    for s in params:
        form, lam, mu = evaluate(s)
        v_ann = v_ann_t if form is form_t else annihilator(form, anchor.v)
        local = IntrinsicDecomposition(anchor.lam0, anchor.v, intersect(v_ann, lam), intersect(v_ann, mu))
        out.append((form, lam, mu, local))
    return out


def record_bytes(rec) -> tuple:
    return rec.t, rec.intersection.matrix.tobytes(), rec.gamma.matrix.tobytes(), rec.signature


def test_crossing_form_cuts_a_constant_mu_once_per_complement(monkeypatch):
    """mu is one frame object along the path and the form does not move,
    so V^omega inter mu is cut once for each of the two complements, not
    at each of the four stencil points; the record keeps the bytes of
    blocks cut at every point."""
    path = one_crossing_path()
    _, _, mu = path.evaluate(0.53)
    cuts = []

    def counted(v_ann, member):
        cuts.append(member is mu)
        return intersect(v_ann, member)

    monkeypatch.setattr(maslov, "intersect", counted)
    got = crossing_form(path, 0.53)
    assert cuts.count(True) == 2 and cuts.count(False) == 8
    assert got.signature == (1, 0, 0)
    monkeypatch.setattr(maslov, "_anchored_sample", per_point_anchored_sample)
    assert record_bytes(got) == record_bytes(crossing_form(path, 0.53))


@pytest.mark.parametrize("case", list(TOUCH_LINES))
def test_touch_beside_a_fast_line_counts_nothing_or_raises(case):
    """A touch contributes 0 to both counts; the crossing route gives (0, 0) or refuses it.

    Line 1 comes back from its partner between samples. Line 2 turns
    fast, far from its partner, so the scan splits the pieces around
    the touch down to the floor width. A time taken where the angle is
    merely small, such as a piece end within 1e-8 of angle 0 near the
    touch, is not a crossing: its crossing form has the sign of the
    offset and would count +-1.
    """
    path = touch_path(case)
    wind = maslov_winding(path)
    assert (wind.mas_plus, wind.mas_minus) == (0, 0)
    try:
        cross = maslov_crossings(path)
    except ValueError as exc:
        assert "degenerate crossing" in str(exc)
    else:
        assert (cross.mas_plus, cross.mas_minus) == (0, 0)


@pytest.mark.parametrize(
    "angles, num_samples, expected",
    [
        (lambda s: [4 * (s - 0.5213), 5 * (s - 0.5214)], 9, (2, 2)),
        (lambda s: [4 * (s - 0.5213), 3e-4], 9, (1, 1)),
        (lambda s: [3 * s, 4 * (s - 2e-4)], 9, (3, 2)),
        (lambda s: [-3 * (1 - s), -4 * (s - 1 + 2e-4)], 9, (-2, -1)),
        (lambda s: [5e-5, np.pi / 2 + 1.5 * (s - 0.5213)], 21, (0, 0)),
        (lambda s: [1.5e-4, -5e-5 - (s - 0.5) ** 2], 21, (0, 0)),
    ],
    ids=[
        "two rising 1e-4 apart",
        "rising beside a line held near its partner",
        "start crossing, then one in the first piece",
        "one in the last piece, then an end crossing",
        "a line passes pi beside one held near its partner",
        "the eigenvalue nearest 1 changes side",
    ],
)
def test_crossings_find_each_crossing_in_a_floor_piece(angles, num_samples, expected):
    """Crossings a few 1e-4 apart, or beside an eigenvalue nearer to 1, are each found.

    The signed angle nearest 0 does not change sign across the second
    and third crossings of the first four cases, so a scan that reads
    it misses them. In the last two no angle reaches 0, though the
    nearest angle jumps from one side of 0 to the other or the order
    of the angles changes where a line passes pi.
    """
    path = line_sum_path(angles, [0.0, 0.0], np.eye(4), num_samples)
    wind = maslov_winding(path)
    cross = maslov_crossings(path)
    assert (wind.mas_plus, wind.mas_minus) == (cross.mas_plus, cross.mas_minus) == expected
    if expected == (0, 0):
        assert cross.crossings == ()


@pytest.mark.parametrize(
    "angle_fn",
    [
        lambda s: min(0.0, s - 0.5),
        lambda s: min(0.0, s - 0.5) + (1e-16 * np.sin(1e3 * s) if s > 0.5 else 0.0),
        lambda s: min(0.0, s - 0.3) + max(0.0, s - 0.6),
    ],
    ids=["to the end", "to the end, with noise", "then leaves"],
)
def test_semipositive_counts_a_plateau_once(angle_fn):
    """A line that reaches mu and stays there counts once, at its arrival."""
    path = line_path(angle_fn)
    assert maslov_semipositive(path) == maslov_winding(path).mas_minus == 1


def test_crossing_routes_follow_no_angle_branch(monkeypatch):
    """maslov_crossings and maslov_semipositive read each spectrum as a set.

    With the winding route's branch continuation patched to raise, both
    still give the winding counts, computed before the patch.
    """
    paths = {
        "seeded": lambda: rotation_pair_path(902),
        "benchmark": benchmark_pair_path,
        "two rotations": lambda: line_path(lambda s: -np.pi / 4 + 1.5 * np.pi * s, num_samples=41),
    }
    winding = {name: maslov_winding(build()) for name, build in paths.items()}

    def no_branches(*args, **kwargs):
        raise AssertionError("branch continuation was called")

    monkeypatch.setattr(maslov, "_winding_rows", no_branches)
    monkeypatch.setattr(maslov, "_branch_step", no_branches)
    for name in ("seeded", "benchmark"):
        cross = maslov_crossings(paths[name]())
        wind = winding[name]
        assert (cross.mas_plus, cross.mas_minus) == (wind.mas_plus, wind.mas_minus)
    assert maslov_semipositive(paths["two rotations"]()) == winding["two rotations"].mas_minus == 2


def test_reduced_agrees_with_winding_on_seeded_paths():
    for seed in range(900, 906):
        path = rotation_pair_path(seed)
        wind = maslov_winding(path)
        red = maslov_reduced(path)
        assert (wind.mas_plus, wind.mas_minus) == (red.mas_plus, red.mas_minus)
        assert red.method == "reduced"


def test_reduced_benchmark_embedded_in_large_ambient_space():
    big = standard_form(9)
    horizontal = orthonormalize(np.eye(18, dtype=complex)[:, :9])
    vertical = orthonormalize(np.eye(18, dtype=complex)[:, 9:])
    bench = benchmark_pair_path()

    def fn(s: float):
        form_b, lam_b, mu_b = bench.callback(s)
        form = SymplecticForm(scipy.linalg.block_diag(form_b.j, big.j))
        lam = orthonormalize(scipy.linalg.block_diag(lam_b.matrix, horizontal.matrix))
        mu = orthonormalize(scipy.linalg.block_diag(mu_b.matrix, vertical.matrix))
        return form, lam, mu

    path = LagrangianPairPath.from_callable(fn, num_samples=21)
    result = maslov_reduced(path)
    assert (result.mas_plus, result.mas_minus) == (1, 1)


def test_reduction_invariance_under_coisotropic_direct_sum():
    # lam(s) = lam4(s) (+) N and mu(s) = mu4(s) (+) nu with N, nu
    # Lagrangian lines of the C^2 factor: reducing by W = C^4 (+) N
    # leaves (lam4, mu4), so the pair indices must coincide.
    rng = rng_from_seed(1800)
    form4 = random_symplectic_form(rng, 4)
    lam4 = random_lagrangian(rng, form4)
    mu4 = random_lagrangian(rng, form4)
    rot = lagrangian_rotation(rng, form4, lam4, scale=2.5)
    small = LagrangianPairPath.from_callable(
        lambda s: (form4, rot(s), mu4), num_samples=33
    )
    n_line = line(0.4)
    nu_line = line(1.1)

    def fn(s: float):
        form = SymplecticForm(scipy.linalg.block_diag(form4.j, FORM2.j))
        lam = orthonormalize(scipy.linalg.block_diag(rot(s).matrix, n_line.matrix))
        mu = orthonormalize(scipy.linalg.block_diag(mu4.matrix, nu_line.matrix))
        return form, lam, mu

    ambient = LagrangianPairPath.from_callable(fn, num_samples=33)
    res_small = maslov_winding(small)
    res_ambient = maslov_winding(ambient)
    assert (res_small.mas_plus, res_small.mas_minus) == (
        res_ambient.mas_plus,
        res_ambient.mas_minus,
    )


def test_reduced_partition_invariance_is_checked_internally():
    path = rotation_pair_path(920, dim=8, num_samples=33, scale_lam=2.0)
    wind = maslov_winding(path)
    red = maslov_reduced(path)
    assert (wind.mas_plus, wind.mas_minus) == (red.mas_plus, red.mas_minus)


def test_hormander_trivial_cases_vanish():
    rng = rng_from_seed(930)
    form = random_symplectic_form(rng, 4)
    lam1 = random_lagrangian(rng, form)
    lam2 = random_lagrangian(rng, form)
    mu1 = random_lagrangian(rng, form)
    mu2 = random_lagrangian(rng, form)
    assert hormander(form, lam1, lam2, mu1, mu1) == 0
    assert hormander(form, lam1, lam1, mu1, mu2) == 0


def test_hormander_plane_quadruple_value():
    # rotating from angle -pi/4 to pi/4 meets the horizontal line once
    # with positive sign and never meets the vertical line, so the
    # difference of the two indices is -1.
    lam1 = line(-np.pi / 4)
    lam2 = line(np.pi / 4)
    mu1 = line(0.0)
    mu2 = line(np.pi / 2)
    assert hormander(FORM2, lam1, lam2, mu1, mu2) == -1


def test_hormander_steep_connecting_endpoints():
    """Nearly orthogonal endpoints force a steep graph coefficient; the
    connecting path must densify its samples instead of tripping the
    sampling gate. The line sweeps angles 0 to 1.55, crossing mu1 at
    0.7 once and never reaching mu2 at 2.2, so the index is 0 - 1."""
    value = hormander(FORM2, line(0.0), line(1.55), line(0.7), line(2.2), seed=0)
    assert value == -1
    assert hormander(FORM2, line(0.0), line(1.55), line(0.7), line(2.2), seed=5) == -1


def test_hormander_antisymmetry_and_cocycle():
    rng = rng_from_seed(931)
    form = random_symplectic_form(rng, 4)
    lam1 = random_lagrangian(rng, form)
    lam2 = random_lagrangian(rng, form)
    lam3 = random_lagrangian(rng, form)
    mu1 = random_lagrangian(rng, form)
    mu2 = random_lagrangian(rng, form)
    value = hormander(form, lam1, lam2, mu1, mu2)
    assert hormander(form, lam1, lam2, mu2, mu1) == -value
    assert hormander(form, lam2, lam1, mu1, mu2) == -value
    split = hormander(form, lam1, lam3, mu1, mu2) + hormander(
        form, lam3, lam2, mu1, mu2
    )
    assert split == value


def test_diagonal_lift_on_benchmark_and_constant():
    result = diagonal_lift(benchmark_pair_path())
    assert (result.mas_plus, result.mas_minus) == (1, 1)
    constant = constant_transversal_path()
    res_const = diagonal_lift(constant)
    assert (res_const.mas_plus, res_const.mas_minus) == (0, 0)


def test_diagonal_lift_on_seeded_path():
    path = rotation_pair_path(905)
    direct = maslov_winding(path)
    lifted = diagonal_lift(path)
    assert (direct.mas_plus, direct.mas_minus) == (lifted.mas_plus, lifted.mas_minus)


def test_fredholm_index_matches_diagonal_pair():
    rng = rng_from_seed(940)
    form = random_symplectic_form(rng, 4)
    lam = random_lagrangian(rng, form)
    mu = random_lagrangian(rng, form)
    dim = form.dim
    cap, codim, index = fredholm_pair_index(lam, mu)
    product = orthonormalize(scipy.linalg.block_diag(lam.matrix, mu.matrix))
    diagonal = orthonormalize(np.vstack([np.eye(dim), np.eye(dim)]) / np.sqrt(2.0))
    cap_lift, codim_lift, index_lift = fredholm_pair_index(product, diagonal)
    assert index == index_lift == 0
    assert cap == cap_lift
    assert codim == codim_lift
