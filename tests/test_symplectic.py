"""Tests for symplectic forms, splittings, and unitary generators."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from maslovlab import frames, symplectic
from maslovlab.frames import Frame, fredholm_pair_index, gap_delta, gap_hat
from maslovlab.sampling import (
    lagrangian_rotation,
    perturb_lagrangian,
    random_lagrangian,
    random_lagrangian_pair,
    random_symplectic_form,
    rng_from_seed,
)
from maslovlab.symplectic import (
    SymplecticForm,
    annihilator,
    classify,
    direct_sum,
    generator_to_frame,
    normalize_strong,
    omega_eval,
    omega_matrix,
    splitting,
    standard_form,
    transform_form,
    unitary_generator,
)


def test_standard_form_values():
    f = standard_form(1)
    assert np.allclose(f.j, [[0, -1], [1, 0]])
    # omega(e1, e2) = 1 for n = 1.
    assert omega_eval(f, [1, 0], [0, 1]) == pytest.approx(1.0)
    assert omega_eval(f, [0, 1], [1, 0]) == pytest.approx(-1.0)


def test_omega_sesquilinearity_and_skewness():
    rng = rng_from_seed(10)
    f = random_symplectic_form(rng, 4)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = 0.7 - 0.2j
    assert omega_eval(f, a * x, y) == pytest.approx(a * omega_eval(f, x, y))
    assert omega_eval(f, x, a * y) == pytest.approx(np.conj(a) * omega_eval(f, x, y))
    assert omega_eval(f, y, x) == pytest.approx(-np.conj(omega_eval(f, x, y)))


def test_form_constructor_gates():
    with pytest.raises(ValueError):
        SymplecticForm(np.array([[0.0, 1.0], [1.0, 0.0]]))  # not skew
    with pytest.raises(ValueError):
        SymplecticForm(np.zeros((2, 2)))  # singular


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_form_constructor_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        SymplecticForm(np.array([[0.0, -bad], [bad, 0.0]]))


def test_form_keeps_one_checked_eigendecomposition_of_minus_i_j():
    f = random_symplectic_form(rng_from_seed(13), 6)
    vals, vecs = f.eig
    h = -1j * f.j
    assert np.all(np.diff(vals) >= 0)
    assert np.allclose(h @ vecs, vecs * vals, atol=1e-12)
    singular = np.linalg.svd(f.j, compute_uv=False)
    assert f.sigma_min == pytest.approx(singular[-1], rel=1e-12)
    assert np.abs(vals).max() == pytest.approx(singular[0], rel=1e-12)


def test_form_and_splitting_decompose_minus_i_j_once(monkeypatch):
    j = random_symplectic_form(rng_from_seed(14), 6).j
    eig_shapes = []
    norms = []

    def counted_eig(a):
        eig_shapes.append(np.shape(a))
        return hermitian_eig(a)

    def counted(fn):
        def wrapper(*args, **kwargs):
            norms.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    hermitian_eig = symplectic.hermitian_eig
    monkeypatch.setattr(symplectic, "hermitian_eig", counted_eig)
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "norm", counted(np.linalg.norm))
    monkeypatch.setattr(scipy.linalg, "svd", counted(scipy.linalg.svd))
    split = splitting(SymplecticForm(j))
    assert eig_shapes == [(6, 6)]
    assert norms == []
    assert split.x_plus.dim == split.x_minus.dim == 3


@pytest.mark.parametrize("signs", [None, (1, -1), (-1, 1), (-1, -1)])
def test_direct_sum_matches_a_fresh_block_diagonal_form(signs):
    rng = rng_from_seed(15)
    a = random_symplectic_form(rng, 4)
    b = SymplecticForm(3.0 * random_symplectic_form(rng, 2).j)
    summed = direct_sum(a, b, signs=signs)
    sa, sb = (1, 1) if signs is None else signs
    fresh = SymplecticForm(scipy.linalg.block_diag(sa * a.j, sb * b.j))
    assert np.array_equal(summed.j, fresh.j)
    assert summed.sigma_min == pytest.approx(fresh.sigma_min, rel=1e-12, abs=1e-12)
    got, want = splitting(summed), splitting(fresh)
    assert gap_hat(got.x_plus, want.x_plus) < 1e-12
    assert gap_hat(got.x_minus, want.x_minus) < 1e-12
    assert np.all(np.diff(summed.eig[0]) >= 0)


def test_direct_sum_keeps_the_singular_gate():
    unit = standard_form(1)
    tiny = SymplecticForm(1e-11 * unit.j)
    with pytest.raises(ValueError, match="numerically singular"):
        direct_sum(unit, tiny)
    with pytest.raises(ValueError, match="numerically singular"):
        SymplecticForm(scipy.linalg.block_diag(unit.j, tiny.j))


def test_annihilator_involution_and_dimension():
    rng = rng_from_seed(11)
    f = random_symplectic_form(rng, 6)
    for k in range(0, 7):
        from maslovlab.sampling import random_subspace

        v = random_subspace(rng, 6, k)
        ann = annihilator(f, v)
        assert v.dim + ann.dim == 6
        assert gap_hat(annihilator(f, ann), v) < 1e-9


def test_classification_examples():
    f = standard_form(1)
    assert classify(f, Frame.span([1, 1])) == "lagrangian"
    assert classify(f, Frame.span([1, 1j])) == "symplectic"
    assert classify(f, Frame.empty(2)) == "isotropic"
    assert omega_eval(f, [1, 1j], [1, 1j]) == pytest.approx(-2j)
    f2 = standard_form(2)
    # A plane spanned by one isotropic and one symplectic direction is generic.
    gen = Frame.span([1, 0, 0, 0], [0, 1j, 0, 1])
    assert classify(f2, gen) == "generic"


def test_splitting_standard_n1():
    f = standard_form(1)
    s = splitting(f)
    target_plus = Frame.span([1, -1j])
    target_minus = Frame.span([1, 1j])
    assert gap_hat(s.x_plus, target_plus) < 1e-12
    assert gap_hat(s.x_minus, target_minus) < 1e-12
    # -i omega is positive on X^+ and negative on X^-.
    vp = s.x_plus.matrix[:, 0]
    vm = s.x_minus.matrix[:, 0]
    assert (-1j * omega_eval(f, vp, vp)).real > 0
    assert (-1j * omega_eval(f, vm, vm)).real < 0
    # The two halves are omega-orthogonal.
    block = omega_matrix(f, s.x_plus, s.x_minus)
    assert np.max(np.abs(block)) < 1e-10


def test_splitting_scale_invariance():
    f = standard_form(2)
    s1 = splitting(f)
    s2 = splitting(SymplecticForm(2.0 * f.j))
    assert gap_hat(s1.x_plus, s2.x_plus) < 1e-12
    assert gap_hat(s1.x_minus, s2.x_minus) < 1e-12
    assert np.allclose(s2.root_plus, np.sqrt(2.0) * s1.root_plus)
    assert np.allclose(s2.root_minus, np.sqrt(2.0) * s1.root_minus)


def test_normalize_strong_properties():
    rng = rng_from_seed(12)
    f = random_symplectic_form(rng, 6)
    fn, t = normalize_strong(f)
    assert np.allclose(fn.j @ fn.j, -np.eye(6), atol=1e-12)
    assert np.allclose(t.conj().T @ fn.j @ t, f.j, atol=1e-10)
    assert gap_hat(splitting(f).x_plus, splitting(fn).x_plus) < 1e-9
    # Doubling the standard form normalizes back to the standard form.
    f2 = SymplecticForm(2.0 * standard_form(1).j)
    fn2, t2 = normalize_strong(f2)
    assert np.allclose(fn2.j, standard_form(1).j, atol=1e-12)
    assert np.allclose(t2, np.sqrt(2.0) * np.eye(2), atol=1e-12)


def test_unitary_generator_round_trip():
    rng = rng_from_seed(13)
    for dim in (2, 4, 8):
        f = random_symplectic_form(rng, dim)
        s = splitting(f)
        lam = random_lagrangian(rng, f)
        u = unitary_generator(f, lam)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim // 2))) < 1e-10
        rebuilt = generator_to_frame(s, u)
        assert gap_hat(rebuilt, lam) < 1e-9


def test_generator_gate_rejects_a_non_lagrangian_frame():
    # span{(1, 1e-9 i)} passes the isotropy test (residual 2e-9), but its
    # generator is (1 - 1e-9) / (1 + 1e-9), off the unit circle by 2e-9.
    f = standard_form(1)
    lam = Frame.span([1.0, 1e-9j])
    assert classify(f, lam) == "lagrangian"
    with pytest.raises(ArithmeticError, match="fails unitarity"):
        unitary_generator(f, lam)


def test_splitting_and_generators_decompose_nothing(monkeypatch):
    rng = rng_from_seed(16)
    form = random_symplectic_form(rng, 6)
    calls = []

    def counted(fn):
        def wrapper(a):
            calls.append(np.shape(a))
            return fn(a)
        return wrapper

    monkeypatch.setattr(symplectic, "hermitian_eig", counted(symplectic.hermitian_eig))
    monkeypatch.setattr(frames, "hermitian_eig", counted(frames.hermitian_eig))
    split = splitting(form)
    lam = random_lagrangian(rng, form)
    u = unitary_generator(form, lam)
    assert gap_hat(generator_to_frame(split, u), lam) < 1e-9
    random_lagrangian_pair(rng, form, 1)
    perturb_lagrangian(rng, form, lam, 0.1)
    lagrangian_rotation(rng, form, lam)(0.5)
    assert calls == []


def test_unitary_generator_rejects_non_lagrangian():
    f = standard_form(1)
    with pytest.raises(ValueError, match="symplectic"):
        unitary_generator(f, Frame.span([1, 1j]))


def test_unitary_generator_rejects_unbalanced_splitting():
    # J = i I has X^+ = C^2 and X^- = {0}: no Lagrangians.
    f = SymplecticForm(1j * np.eye(2))
    with pytest.raises(ValueError, match="no Lagrangians"):
        unitary_generator(f, Frame.span([1, 0]))


def test_lagrangian_dimension_and_pair_index():
    rng = rng_from_seed(14)
    for dim in (2, 4, 8):
        f = random_symplectic_form(rng, dim)
        for _ in range(100):
            lam, mu = random_lagrangian_pair(rng, f)
            assert lam.dim == dim // 2
            cap, codim, index = fredholm_pair_index(lam, mu)
            assert index == 0
        # Prescribed intersection dimensions are hit exactly.
        k = dim // 2 - 1
        lam, mu = random_lagrangian_pair(rng, f, intersection_dim=k)
        assert fredholm_pair_index(lam, mu)[0] == k


def test_naturality_transform():
    rng = rng_from_seed(15)
    from maslovlab.sampling import random_invertible

    f = random_symplectic_form(rng, 4)
    l = random_invertible(rng, 4)
    fp = transform_form(f, l)
    # Pullback identity L^H J' L = J.
    assert np.allclose(l.conj().T @ fp.j @ l, f.j, atol=1e-9)
    lam = random_lagrangian(rng, f)
    moved = Frame(np.linalg.qr(l @ lam.matrix)[0])
    assert classify(fp, moved) == "lagrangian"
