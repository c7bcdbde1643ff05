"""Tests for the linear-relation calculus and spectral flow."""

import numpy as np
import pytest
import scipy.linalg

from maslovlab.frames import HermitianMatrix, gap_hat, hermitian_eig
from maslovlab.sampling import rng_from_seed
from maslovlab.spectral import (
    HermitianPath,
    LinearRelation,
    canonical_product_form,
    cayley,
    eigenvalue_curves,
    graph_relation,
    horizontal_relation,
    product_form,
    relation_adjoint,
    relation_compose,
    relation_index,
    relation_inverse,
    relation_parts,
    relation_sum,
    sf_eigen,
    sf_relation,
    vertical_relation,
)
from maslovlab.symplectic import classify


def random_matrix(rng, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_hermitian(rng, n: int) -> np.ndarray:
    m = random_matrix(rng, n)
    return (m + m.conj().T) / 2.0


def linear_hermitian_path(seed: int, n: int, num_samples: int = 21) -> HermitianPath:
    rng = rng_from_seed(seed)
    a0 = random_hermitian(rng, n)
    a1 = random_hermitian(rng, n)
    return HermitianPath.from_callable(
        lambda s: (1.0 - s) * a0 + s * a1, num_samples=num_samples
    )


def graph_entries(path: HermitianPath, num_samples: int = 21):
    form = canonical_product_form(path.dim)
    fn = path.callback
    grid = np.linspace(0.0, 1.0, num_samples)
    entries = [(float(s), form, graph_relation(fn(float(s)).matrix)) for s in grid]
    callback = lambda s: (form, graph_relation(fn(s).matrix))
    return entries, callback


def test_relation_parts_of_trivial_relations():
    dom, ran, ker, ind = relation_parts(graph_relation(np.zeros((2, 2))))
    assert (dom.dim, ran.dim, ker.dim, ind.dim) == (2, 0, 2, 0)
    dom, ran, ker, ind = relation_parts(horizontal_relation(3, 2))
    assert (dom.dim, ran.dim, ker.dim, ind.dim) == (3, 0, 3, 0)
    dom, ran, ker, ind = relation_parts(vertical_relation(3, 2))
    assert (dom.dim, ran.dim, ker.dim, ind.dim) == (0, 2, 0, 2)


def test_relation_inverse_of_invertible_graph():
    rng = rng_from_seed(100)
    m = random_matrix(rng, 3)
    inverse = relation_inverse(graph_relation(m))
    expected = graph_relation(np.linalg.inv(m))
    assert gap_hat(inverse.subspace, expected.subspace) < 1e-10


def test_relation_sum_of_graphs():
    rng = rng_from_seed(101)
    m1 = random_matrix(rng, 3)
    m2 = random_matrix(rng, 3)
    total = relation_sum(graph_relation(m1), graph_relation(m2))
    assert gap_hat(total.subspace, graph_relation(m1 + m2).subspace) < 1e-10


def test_relation_compose_matches_matrix_product():
    rng = rng_from_seed(102)
    m1 = random_matrix(rng, 3)
    m2 = random_matrix(rng, 3)
    composed = relation_compose(graph_relation(m2), graph_relation(m1))
    assert gap_hat(composed.subspace, graph_relation(m2 @ m1).subspace) < 1e-10


def test_relation_index_cases():
    rng = rng_from_seed(103)
    m = random_matrix(rng, 4)
    assert relation_index(graph_relation(m)) == 0
    deficient = m.copy()
    deficient[:, 0] = deficient[:, 1]
    assert relation_index(graph_relation(deficient)) == 0
    assert relation_index(horizontal_relation(3, 2)) == 3 - 2
    assert relation_index(vertical_relation(3, 2)) == 0


def test_relation_adjoint_is_conjugate_transpose():
    rng = rng_from_seed(104)
    m = random_matrix(rng, 3)
    form = canonical_product_form(3)
    adjoint = relation_adjoint(form, graph_relation(m))
    assert gap_hat(adjoint.subspace, graph_relation(m.conj().T).subspace) < 1e-10
    herm = graph_relation(random_hermitian(rng, 3))
    assert gap_hat(relation_adjoint(form, herm).subspace, herm.subspace) < 1e-10


def test_horizontal_relation_is_lagrangian():
    form = canonical_product_form(3)
    assert classify(form, horizontal_relation(3, 3).subspace) == "lagrangian"


def test_product_form_pairs_the_blocks():
    rng = rng_from_seed(105)
    tau = random_matrix(rng, 2)
    form = product_form(tau)
    x = np.concatenate([rng.normal(size=2), np.zeros(2)])
    y = np.concatenate([np.zeros(2), rng.normal(size=2)])
    # omega((x, 0), (0, y)) = Omega(x, y) = (tau y)^H x
    value = y.conj() @ form.j @ x
    expected = (tau @ y[2:]).conj() @ x[:2]
    assert abs(value - expected) < 1e-12


def test_cayley_special_values():
    assert np.allclose(cayley(np.zeros((2, 2))), -np.eye(2))
    assert np.allclose(cayley(np.eye(2)), -1j * np.eye(2))


def test_cayley_spectral_mapping_and_margin():
    rng = rng_from_seed(106)
    for n in (2, 5, 8):
        a = random_hermitian(rng, n)
        transform = cayley(a)
        eigs_a = np.linalg.eigvalsh(a)
        eigs_k = np.linalg.eigvals(transform)
        mapped = np.sort_complex((eigs_a - 1j) / (eigs_a + 1j))
        assert np.allclose(np.sort_complex(eigs_k), mapped, atol=1e-9)
        margin = 1.0 / (1.0 + np.linalg.norm(a, 2) ** 2)
        assert np.min(np.abs(eigs_k - 1.0)) > margin


def test_sf_eigen_scalar_paths():
    up = HermitianPath.from_callable(lambda s: np.array([[s - 0.5]]), num_samples=11)
    down = HermitianPath.from_callable(lambda s: np.array([[0.5 - s]]), num_samples=11)
    const = HermitianPath.from_callable(lambda s: np.array([[0.7]]), num_samples=5)
    assert sf_eigen(up) == 1
    assert sf_eigen(down) == -1
    assert sf_eigen(const) == 0


def test_sf_eigen_matches_endpoint_negative_counts():
    for seed in range(800, 806):
        path = linear_hermitian_path(seed, 3)
        neg0 = int(np.sum(path.samples[0][1].eigenvalues() < 0))
        neg1 = int(np.sum(path.samples[-1][1].eigenvalues() < 0))
        assert sf_eigen(path) == neg0 - neg1


def test_sf_relation_agrees_with_sf_eigen_on_graphs():
    for seed in range(810, 818):
        path = linear_hermitian_path(seed, 3)
        entries, callback = graph_entries(path)
        assert sf_relation(entries, callback) == sf_eigen(path)


def test_sf_eigen_catenation_additivity():
    path = linear_hermitian_path(820, 4)
    fn = path.callback
    first = HermitianPath.from_callable(lambda s: fn(0.5 * s), num_samples=21)
    second = HermitianPath.from_callable(lambda s: fn(0.5 + 0.5 * s), num_samples=21)
    assert sf_eigen(path) == sf_eigen(first) + sf_eigen(second)


def test_sf_eigen_direct_sum_additivity():
    path_a = linear_hermitian_path(821, 3)
    path_b = linear_hermitian_path(822, 2)
    fn_a, fn_b = path_a.callback, path_b.callback
    summed = HermitianPath.from_callable(
        lambda s: scipy.linalg.block_diag(fn_a(s).matrix, fn_b(s).matrix),
        num_samples=21,
    )
    assert sf_eigen(summed) == sf_eigen(path_a) + sf_eigen(path_b)


def test_sf_eigen_unitary_conjugation_invariance():
    path = linear_hermitian_path(823, 3)
    fn = path.callback
    rng = rng_from_seed(824)
    generator = random_hermitian(rng, 3)

    def conjugated(s: float):
        u = scipy.linalg.expm(1j * s * generator)
        return u.conj().T @ fn(s).matrix @ u

    assert sf_eigen(HermitianPath.from_callable(conjugated, num_samples=21)) == sf_eigen(path)


def test_sf_resolution_error_without_callback():
    def fn(s: float) -> HermitianMatrix:
        return HermitianMatrix(np.array([[20.0 * (s - 0.5)]], dtype=complex))

    grid = np.linspace(0.0, 1.0, 3)
    samples = tuple((float(s), fn(float(s))) for s in grid)
    sampled_only = HermitianPath(samples, None)
    with pytest.raises(ValueError, match="refinement callback"):
        sf_eigen(sampled_only)
    with_callback = HermitianPath(samples, fn)
    assert sf_eigen(with_callback) == 1


def test_eigenvalue_curves_are_refined_and_ordered():
    path = HermitianPath.from_callable(
        lambda s: np.diag([10.0 * (s - 0.3), 0.5]), num_samples=5
    )
    curves = eigenvalue_curves(path)
    assert curves.shape[1] == 3
    assert np.all(np.diff(curves[:, 0]) > 0)
    assert len(curves) > 5


def test_eigenvalue_curves_end_rows_are_the_checked_spectra():
    rng = rng_from_seed(41)
    a0 = 6.0 * random_hermitian(rng, 5)
    a1 = 6.0 * random_hermitian(rng, 5)
    path = HermitianPath.from_callable(lambda s: (1.0 - s) * a0 + s * a1, num_samples=5)
    curves = eigenvalue_curves(path)
    assert len(curves) > 5
    for row, (_, mat) in ((curves[0], path.samples[0]), (curves[-1], path.samples[-1])):
        assert row[1:].tobytes() == np.sort(hermitian_eig(mat.matrix)[0]).tobytes()


def test_multivalued_relation_path():
    form = canonical_product_form(1)

    def inverse_relation(s: float) -> LinearRelation:
        return relation_inverse(graph_relation(np.array([[s - 0.5]])))

    grid = np.linspace(0.0, 1.0, 21)
    entries = [(float(s), form, inverse_relation(float(s))) for s in grid]
    value = sf_relation(entries, lambda s: (form, inverse_relation(s)))
    assert value == 0
    _, _, _, indeterminate = relation_parts(inverse_relation(0.5))
    assert indeterminate.dim == 1

    direct = [
        (float(s), form, graph_relation(np.array([[s - 0.5]]))) for s in grid
    ]
    assert sf_relation(direct, lambda s: (form, graph_relation(np.array([[s - 0.5]])))) == 1
