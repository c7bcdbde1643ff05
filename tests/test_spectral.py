"""Tests for the linear-relation calculus and spectral flow."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from maslovlab import frames, spectral
from maslovlab.cli import main
from maslovlab.frames import Frame, HermitianMatrix, _ldl_negatives, gap_hat, hermitian_eig
from maslovlab.sampling import random_unitary, rng_from_seed
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


def test_sf_eigen_counts_a_coarse_path_without_callback():
    """20(s - 1/2) on 3 samples: the spectral flow needs only the ends."""
    def fn(s: float) -> HermitianMatrix:
        return HermitianMatrix(np.array([[20.0 * (s - 0.5)]], dtype=complex))

    grid = np.linspace(0.0, 1.0, 3)
    samples = tuple((float(s), fn(float(s))) for s in grid)
    assert sf_eigen(HermitianPath(samples, None)) == 1
    assert sf_eigen(HermitianPath(samples, fn)) == 1


@pytest.mark.parametrize(
    "times, message",
    [
        ((0.0,), "at least two samples"),
        ((0.1, 1.0), "start at s=0 and end at s=1"),
        ((0.0, 0.9), "start at s=0 and end at s=1"),
        ((0.0, 0.5, 0.5, 1.0), "strictly increasing"),
        ((0.0, 0.6, 0.4, 1.0), "strictly increasing"),
    ],
)
def test_hermitian_path_checks_its_sample_times(times, message):
    mat = HermitianMatrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match=message):
        HermitianPath(tuple((s, mat) for s in times))


def test_sf_relation_refines_a_steep_graph_path_it_has_a_callback_for():
    """A(s) = c((1 - s) diag(-1, 2) + s diag(3, 2)) at c = 1e6 on 21 samples.

    The graph of A turns through X x {0} within |s - 1/4| of order 1e-6,
    so consecutive entries around s = 1/4 are at gap 1; the callback
    lets sf_relation refine there, and both routes give 1.
    """
    c = 1e6

    def matrix(s: float) -> np.ndarray:
        return c * ((1.0 - s) * np.diag([-1.0, 2.0]) + s * np.diag([3.0, 2.0]))

    form = canonical_product_form(2)
    entries = [(float(s), form, graph_relation(matrix(float(s)))) for s in np.linspace(0, 1, 21)]
    relation = sf_relation(entries, lambda s: (form, graph_relation(matrix(s))))
    assert relation == sf_eigen(HermitianPath.from_callable(matrix, num_samples=21)) == 1
    with pytest.raises(ValueError, match="sampling-adequacy gate"):
        sf_relation(entries)


def test_sf_relation_names_a_non_lagrangian_entry_it_cannot_refine_past():
    """The relation jumps from the graph of 1 to all of X x Y at s = 0.5;
    with a callback, refinement cannot pass the jump, and the error
    names the entry that is not Lagrangian."""
    form = canonical_product_form(1)

    def relation(s: float) -> LinearRelation:
        return graph_relation(np.eye(1)) if s < 0.5 else LinearRelation(1, 1, Frame.full(2))

    entries = [(float(s), form, relation(float(s))) for s in np.linspace(0.0, 1.0, 5)]
    with pytest.raises(ValueError, match="^sample at s=0.500000: lam is coisotropic, not lagrangian$"):
        sf_relation(entries, lambda s: (form, relation(s)))


def test_hermitian_path_calls_its_callback_only_for_its_samples():
    calls = []

    def fn(s: float) -> np.ndarray:
        calls.append(s)
        return np.diag([10.0 * (s - 0.3), 0.5]).astype(complex)

    path = HermitianPath.from_callable(fn, num_samples=5)
    assert calls == np.linspace(0.0, 1.0, 5).tolist()
    first = eigenvalue_curves(path)
    assert eigenvalue_curves(path).tobytes() == first.tobytes()
    assert sf_eigen(path) == 1
    assert len(calls) == 5


def test_eigenvalue_curves_have_one_row_per_sample():
    path = HermitianPath.from_callable(
        lambda s: np.diag([10.0 * (s - 0.3), 0.5]), num_samples=5
    )
    curves = eigenvalue_curves(path)
    assert curves.shape == (5, 3)
    assert curves[:, 0].tolist() == [s for s, _ in path.samples]
    assert np.all(np.diff(curves[:, 0]) > 0)
    assert np.all(np.diff(curves[:, 1:], axis=1) >= 0)


def test_eigenvalue_curves_end_rows_are_the_checked_spectra():
    """The end rows are the values-only spectra whose Morse counts the LDL^H count confirmed."""
    rng = rng_from_seed(41)
    a0 = 6.0 * random_hermitian(rng, 5)
    a1 = 6.0 * random_hermitian(rng, 5)
    path = HermitianPath.from_callable(lambda s: (1.0 - s) * a0 + s * a1, num_samples=5)
    curves = eigenvalue_curves(path)
    ends = (path.samples[0][1], path.samples[-1][1])
    for row, mat, (vals, morse) in zip(curves[[0, -1]], ends, path._ends):
        assert row[1:].tobytes() == vals.tobytes()
        assert vals.tobytes() == scipy.linalg.eigvalsh(mat.matrix).tobytes()
        assert morse == np.count_nonzero(vals < -spectral._MORSE_ZERO)
        assert morse == _ldl_negatives(mat.matrix, spectral._MORSE_ZERO)
    assert sf_eigen(path) == path._ends[0][1] - path._ends[1][1]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_sf_eigen_of_a_linear_path_is_the_end_morse_index_difference(seed, n):
    """Any sample count, conjugation by a unitary path and s -> s^2 keep the count."""
    rng = rng_from_seed(seed)
    a0 = 3.0 * random_hermitian(rng, n)
    a1 = 3.0 * random_hermitian(rng, n)
    lam0, lam1 = np.linalg.eigvalsh(a0), np.linalg.eigvalsh(a1)
    assume(np.min(np.abs(np.concatenate([lam0, lam1]))) > 1e-6)
    expected = int(np.sum(lam0 < 0) - np.sum(lam1 < 0))
    line = lambda s: (1.0 - s) * a0 + s * a1
    for num_samples in (2, 3, 5, 33):
        assert sf_eigen(HermitianPath.from_callable(line, num_samples)) == expected
    u0, generator = random_unitary(rng, n), random_hermitian(rng, n)

    def conjugated(s: float) -> np.ndarray:
        u = u0 @ scipy.linalg.expm(1j * s * generator)
        return u.conj().T @ line(s) @ u

    assert sf_eigen(HermitianPath.from_callable(conjugated, 5)) == expected
    assert sf_eigen(HermitianPath.from_callable(lambda s: line(s * s), 5)) == expected


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


def test_each_end_matrix_is_solved_once(monkeypatch):
    """sf_eigen then eigenvalue_curves: each end is eigen-solved once, values only, and factored once."""
    rng = rng_from_seed(43)
    a0, a1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    path = HermitianPath.from_callable(lambda s: (1.0 - s) * a0 + s * a1, num_samples=5)
    solved, factored, vector_solves = [], [], []
    values, pivots, checked = spectral._heevr, spectral._ldl_negatives, frames.hermitian_eig

    def counted_values(a, vectors):
        assert not vectors
        solved.append(id(a))
        return values(a, vectors)

    def counted_pivots(a, shift):
        factored.append(id(a))
        return pivots(a, shift)

    def counted_vectors(a):
        vector_solves.append(id(a))
        return checked(a)

    monkeypatch.setattr(spectral, "_heevr", counted_values)
    monkeypatch.setattr(spectral, "_ldl_negatives", counted_pivots)
    monkeypatch.setattr(frames, "hermitian_eig", counted_vectors)
    monkeypatch.setattr(spectral, "hermitian_eig", counted_vectors)
    sf_eigen(path)
    curves = eigenvalue_curves(path)
    sf_eigen(path)
    mats = [mat.matrix for _, mat in path.samples]
    ends = [id(mats[0]), id(mats[-1])]
    assert factored == ends
    assert solved == ends + [id(m) for m in mats[1:-1]]
    assert vector_solves == []
    for row, mat, (vals, _) in zip(curves[[0, -1]], (mats[0], mats[-1]), path._ends):
        assert row[1:].tobytes() == scipy.linalg.eigvalsh(mat).tobytes()
        assert not vals.flags.writeable


_TAU = spectral._MORSE_ZERO


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    exponent=st.floats(-3.0, 3.0),
    planted=st.lists(st.sampled_from([0.0, _TAU / 2, -_TAU / 2, 2 * _TAU, -2 * _TAU]), max_size=5),
)
def test_sylvester_count_is_the_eigenvalue_count(seed, n, exponent, planted):
    """n_-(A + tau I) by LDL^H pivots equals the count of eigenvalues below -tau, and the truth.

    A = U diag(lam) U^H with U unitary. The planted eigenvalues sit at
    0, +-tau/2 and +-2 tau, next to the threshold, whatever the scale;
    the others have modulus in [1, 2] times 10^exponent with drawn signs.
    """
    rng = rng_from_seed((0x51F, seed))
    planted = planted[:n]
    free = n - len(planted)
    lam = np.concatenate(
        [planted, rng.choice([-1.0, 1.0], free) * rng.uniform(1.0, 2.0, free) * 10.0**exponent]
    )
    u = random_unitary(rng, n)
    a = (u * lam) @ u.conj().T
    a = (a + a.conj().T) / 2.0
    truth = int(np.count_nonzero(lam < -_TAU))
    assert _ldl_negatives(a, _TAU) == truth
    spectrum = scipy.linalg.eigvalsh(a)
    assert np.count_nonzero(spectrum < -_TAU) == truth
    vals, morse = spectral._checked_end(HermitianMatrix(a), "first")
    assert morse == truth
    assert vals.tobytes() == spectrum.tobytes()


def across_minus_tau(solver):
    """``solver`` with the eigenvalue nearest -tau moved to the other side of -tau."""

    def moved(a, vectors):
        vals = solver(a, vectors).copy()
        i = int(np.argmin(np.abs(vals + _TAU)))
        vals[i] = -_TAU / 2 if vals[i] < -_TAU else -2 * _TAU
        return np.sort(vals)

    return moved


def test_sf_eigen_raises_when_the_two_counts_disagree(tmp_path, monkeypatch, capsys):
    """A values-only spectrum that puts an end eigenvalue across -tau is caught, and the CLI exits 2."""
    path = HermitianPath.from_callable(lambda s: np.diag([s - 0.5, 1.0]), num_samples=3)
    monkeypatch.setattr(spectral, "_heevr", across_minus_tau(spectral._heevr))
    message = "Morse index of the first sample is undecided: 0 eigenvalues .* against 1 negative pivots"
    with pytest.raises(ArithmeticError, match=message):
        sf_eigen(path)
    with pytest.raises(ArithmeticError, match=message):
        eigenvalue_curves(path)
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps({"schema": 1, "kind": "bvp_desuspension", "parameters": {"family": "scalar_periodic"}})
    )
    assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    assert "Morse index of the first sample is undecided" in capsys.readouterr().err


def test_graph_of_a_widely_spread_operator_keeps_every_direction():
    """[I; M] has full column rank, so no singular value of M drops a direction."""
    rel = graph_relation(np.diag([1.0, 1e9]))
    assert rel.dim == 2
    assert relation_index(rel) == 0


def test_sf_relation_with_a_steep_second_eigenvalue():
    """diag(-1 + 4s, 2e9): the graph stays two-dimensional, and the flow is 1."""

    def matrix(s: float) -> np.ndarray:
        return np.diag([-1.0 + 4.0 * s, 2e9])

    form = canonical_product_form(2)
    entries = [(float(s), form, graph_relation(matrix(float(s)))) for s in np.linspace(0, 1, 21)]
    assert sf_relation(entries, lambda s: (form, graph_relation(matrix(s)))) == 1


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
)
def test_graph_of_any_matrix_has_its_dimension_and_index(seed, shape):
    """graph(M) of a p x q matrix has dimension q and index q - p.

    The singular values of M are log-uniform in [1e-12, 1e12].
    """
    p, q = shape
    rng = rng_from_seed((0x6A2F, seed))
    r = min(p, q)
    values = 10.0 ** rng.uniform(-12.0, 12.0, r)
    m = random_unitary(rng, p)[:, :r] @ np.diag(values) @ random_unitary(rng, q)[:r, :]
    rel = graph_relation(m)
    assert rel.dim == q
    assert relation_index(rel) == q - p
