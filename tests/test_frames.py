"""Tests for the frame and gap calculus kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from maslovlab.frames import (
    RANK_TOL,
    Frame,
    HermitianMatrix,
    Projection,
    fredholm_pair_index,
    gap_delta,
    gap_hat,
    hermitian_eig,
    intersect,
    minimum_gap,
    minimum_gap_hat,
    morse_counts,
    orth_complement,
    orthonormalize,
    relative_index,
    subspace_sum,
    well_conditioned,
)
from maslovlab.sampling import random_subspace, random_unitary, rng_from_seed
from maslovlab.spectral import graph_relation, relation_index, relation_parts


def _line(theta):
    return Frame.span([np.cos(theta), np.sin(theta)])


def test_orthonormalize_zero_matrix_gives_empty_frame():
    f = orthonormalize(np.zeros((4, 3)))
    assert f.dim == 0
    assert f.ambient_dim == 4


def test_orthonormalize_drops_dependent_columns():
    v = np.array([1.0, 2.0, 0.0])
    m = np.column_stack([v, 2 * v, [0.0, 0.0, 3.0]])
    f = orthonormalize(m)
    assert f.dim == 2


def test_frame_rejects_non_orthonormal_columns():
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_projection_rejects_non_idempotent():
    with pytest.raises(ValueError):
        Projection(np.array([[1.0, 1.0], [0.0, 0.5]]))


def test_oblique_projection_accepted():
    # P projects onto span{e1} along span{(1,1)}; idempotent but not Hermitian.
    p = Projection(np.array([[1.0, -1.0], [0.0, 0.0]]))
    assert p.range().dim == 1


def test_hermitian_matrix_symmetrizes_and_gates():
    h = HermitianMatrix(np.array([[1.0, 1e-14j], [0.0, 2.0]]))
    assert np.allclose(h.matrix, h.matrix.conj().T)
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_matrix_gate_is_relative():
    # Gate: max|A - (A + A^H)/2| > 1e-12 * max(1, ||A||_2), i.e. 1e-6 at
    # ||A||_2 = 1e6; the half-defect is d/2 for an off-diagonal entry d.
    def skewed(d):
        return np.array([[1e6, d], [0.0, 0.0]], dtype=complex)

    HermitianMatrix(skewed(1.8e-6))
    with pytest.raises(ValueError, match="not Hermitian to working precision"):
        HermitianMatrix(skewed(2.2e-6))


def test_intersection_of_rotated_planes():
    rng = rng_from_seed(0)
    # Two 2-dim subspaces of C^4 sharing exactly one direction.
    shared = random_subspace(rng, 4, 1)
    a = subspace_sum(shared, random_subspace(rng, 4, 1))
    b = subspace_sum(shared, random_subspace(rng, 4, 1))
    cap = intersect(a, b)
    assert cap.dim == 1
    assert gap_delta(cap, shared) < 1e-8


def test_sum_and_complement_dimensions():
    rng = rng_from_seed(1)
    a = random_subspace(rng, 6, 2)
    b = random_subspace(rng, 6, 3)
    s = subspace_sum(a, b)
    assert s.dim == 5
    c = orth_complement(a)
    assert c.dim == 4
    assert intersect(a, c).dim == 0
    # Double complement returns the original subspace.
    assert gap_hat(orth_complement(c), a) < 1e-10


def test_gap_delta_lines_at_pi_over_6():
    a = _line(0.0)
    b = _line(np.pi / 6)
    assert gap_delta(a, b) == pytest.approx(0.5, abs=1e-12)
    assert gap_delta(b, a) == pytest.approx(0.5, abs=1e-12)


def test_gap_delta_empty_conventions():
    e = Frame.empty(3)
    f = Frame.full(3)
    assert gap_delta(e, f) == 0.0
    assert gap_delta(e, e) == 0.0
    assert gap_delta(f, e) == 1.0


def test_gap_hat_is_metric_like():
    rng = rng_from_seed(2)
    for _ in range(25):
        a = random_subspace(rng, 5, int(rng.integers(1, 5)))
        b = random_subspace(rng, 5, int(rng.integers(1, 5)))
        assert gap_hat(a, b) == pytest.approx(gap_hat(b, a), abs=1e-12)
        assert gap_hat(a, a) < 1e-10
    # gap_hat == 0 iff subspaces are equal.
    a = random_subspace(rng, 5, 2)
    u = random_unitary(rng, 2)
    same = Frame(a.matrix @ u)
    assert gap_hat(a, same) < 1e-10


def test_minimum_gap_values():
    # Lines at angle theta with trivial intersection: gamma = sin(theta).
    a = _line(0.0)
    b = _line(np.pi / 4)
    assert minimum_gap(a, b) == pytest.approx(np.sin(np.pi / 4), abs=1e-12)
    # Containment gives 1.
    plane = Frame.span([1, 0, 0], [0, 1, 0])
    line = Frame.span([1, 0, 0])
    assert minimum_gap(line, plane) == 1.0
    assert minimum_gap(Frame.empty(3), plane) == 1.0


def test_minimum_gap_positive_in_finite_dim():
    rng = rng_from_seed(3)
    for _ in range(25):
        a = random_subspace(rng, 6, int(rng.integers(1, 6)))
        b = random_subspace(rng, 6, int(rng.integers(1, 6)))
        assert minimum_gap_hat(a, b) > 0.0


def test_finite_dim_delta_estimate():
    # For equal n-dim subspaces: delta(M,N) <= 2^(n-1) n d/(1-d)^n, d = delta(N,M).
    rng = rng_from_seed(4)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        amb = int(rng.integers(2 * n, 2 * n + 4))
        m = random_subspace(rng, amb, n)
        nn = random_subspace(rng, amb, n)
        d = gap_delta(nn, m)
        if d >= 1.0:
            continue
        bound = 2.0 ** (n - 1) * n * d / (1.0 - d) ** n
        assert gap_delta(m, nn) <= bound + 1e-12
        checked += 1
    assert checked > 150


def test_dimension_stability_under_small_perturbation():
    rng = rng_from_seed(5)
    for _ in range(100):
        amb = 6
        shared_dim = int(rng.integers(0, 3))
        shared = random_subspace(rng, amb, shared_dim)
        m = subspace_sum(shared, random_subspace(rng, amb, 1))
        n = subspace_sum(shared, random_subspace(rng, amb, 1))
        gamma = minimum_gap_hat(m, n)
        if gamma < 1e-3:
            continue
        # Perturb both by rotating with a unitary close to the identity,
        # keeping the gap below gamma / 4.
        eps = 0.1 * gamma
        h = eps * np.eye(amb, dtype=complex)
        h[0, 1] = eps
        h[1, 0] = -eps
        u = np.eye(amb) + h - h.conj().T
        q, _ = np.linalg.qr(u)
        mp = Frame(q @ m.matrix)
        np_ = Frame(q @ n.matrix)
        if max(gap_hat(mp, m), gap_hat(np_, n)) >= gamma / 4:
            continue
        assert intersect(mp, np_).dim <= intersect(m, n).dim


def test_relative_index_generic_ranks():
    rng = rng_from_seed(6)
    # Orthogonal projections of ranks 3 and 1 in generic position: index 2.
    p = random_subspace(rng, 5, 3).projector()
    q = random_subspace(rng, 5, 1).projector()
    assert relative_index(Projection(p), Projection(q)) == 2
    assert relative_index(Projection(q), Projection(p)) == -2


def test_relative_index_additivity_and_antisymmetry():
    rng = rng_from_seed(7)
    for _ in range(20):
        amb = 6
        p = Projection(random_subspace(rng, amb, int(rng.integers(0, amb + 1))).projector())
        q = Projection(random_subspace(rng, amb, int(rng.integers(0, amb + 1))).projector())
        r = Projection(random_subspace(rng, amb, int(rng.integers(0, amb + 1))).projector())
        assert relative_index(p, q) + relative_index(q, r) == relative_index(p, r)
        assert relative_index(p, q) == -relative_index(q, p)


def test_fredholm_pair_index_and_basis_invariance():
    rng = rng_from_seed(8)
    a = random_subspace(rng, 6, 3)
    b = random_subspace(rng, 6, 2)
    cap, codim, index = fredholm_pair_index(a, b)
    assert (cap, codim, index) == (0, 1, -1)
    # Re-expressing the same subspaces in rotated bases changes nothing.
    ua = random_unitary(rng, 3)
    ub = random_unitary(rng, 2)
    cap2, codim2, index2 = fredholm_pair_index(Frame(a.matrix @ ua), Frame(b.matrix @ ub))
    assert (cap2, codim2, index2) == (cap, codim, index)


# Kinds of planted principal angle: log-uniform in [1e-12, 1e-1], drawn
# from the seeded generator so that the exponents spread evenly, or
# exactly 0 or pi/2.
ANGLE_KINDS = st.sampled_from(["log-uniform", "zero", "right"])


def _planted_angle(rng, kind: str) -> float:
    if kind == "log-uniform":
        return 10.0 ** rng.uniform(-12.0, -1.0)
    return 0.0 if kind == "zero" else np.pi / 2


def _off_threshold(sines) -> bool:
    """No sine within 1e-6 relative of RANK_TOL, where roundoff of order
    eps in a computed sine could decide either way."""
    return all(abs(x / RANK_TOL - 1.0) > 1e-6 for x in sines)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), data=st.data())
def test_intersect_sum_and_index_read_one_set_of_sines(seed, n, data):
    """Subspaces a, b of C^n with planted principal angles.

    Each planted angle pairs a direction of a with one of b in a plane
    of its own; the rest of C^n holds directions in both, in a only and
    in b only, so dim a and dim b range over 0..n. intersect keeps
    exactly the directions whose sine is at most RANK_TOL, the sum
    loses exactly those, and the pair index is dim a + dim b - n.
    """
    planted = data.draw(st.integers(0, n // 2), label="planted")
    rest = n - 2 * planted
    both = data.draw(st.integers(0, rest), label="both")
    only_a = data.draw(st.integers(0, rest - both), label="only_a")
    only_b = data.draw(st.integers(0, rest - both - only_a), label="only_b")
    kinds = data.draw(st.lists(ANGLE_KINDS, min_size=planted, max_size=planted))
    rng = rng_from_seed((0xF4A3, seed))
    theta = np.array([_planted_angle(rng, kind) for kind in kinds])
    assume(_off_threshold(np.sin(theta)))
    cols = np.split(random_unitary(rng, n), np.cumsum([planted, planted, both, only_a, only_b]), 1)
    first, partner, common, a_part, b_part = cols[:5]
    a = np.hstack([first, common, a_part])
    b = np.hstack([first * np.cos(theta) + partner * np.sin(theta), common, b_part])
    k, m = a.shape[1], b.shape[1]
    fa = Frame(a @ random_unitary(rng, k))
    fb = Frame(b @ random_unitary(rng, m))
    shared = both + int(np.sum(np.sin(theta) <= RANK_TOL))
    assert intersect(fa, fb).dim == intersect(fb, fa).dim == shared
    assert subspace_sum(fa, fb).dim == subspace_sum(fb, fa).dim == k + m - shared
    assert fredholm_pair_index(fa, fb) == (shared, n - k - m + shared, k + m - n)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    zeros=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_relation_index_of_a_graph_is_its_index(seed, shape, zeros):
    """graph(M) of a p x q matrix has index q - p, on every draw.

    Each planted singular value of M is 0 or log-uniform in [1e-12, 10].
    Each coordinate projection decides its image and its kernel pairs
    by one rank decision, so both projections satisfy rank-nullity.
    """
    p, q = shape
    rng = rng_from_seed((0xF4A4, seed))
    r = min(p, q)
    values = np.where(zeros[:r], 0.0, 10.0 ** rng.uniform(-12.0, 1.0, r))
    m = random_unitary(rng, p)[:, :r] @ np.diag(values) @ random_unitary(rng, q)[:r, :]
    rel = graph_relation(m)
    domain, rng_frame, kernel, indeterminate = relation_parts(rel)
    assert domain.dim + indeterminate.dim == rel.dim
    assert rng_frame.dim + kernel.dim == rel.dim
    assert relation_index(rel) == q - p


def test_well_conditioned_is_relative_with_a_floor_of_one():
    assert not well_conditioned(np.diag([1.0, 0.99e-8]))
    assert well_conditioned(np.diag([1.0, 1.01e-8]))
    assert not well_conditioned(np.diag([1e-9, 1e-18]))
    assert not well_conditioned(np.zeros((0, 0)))


def test_hermitian_eig_sorted_with_residual_gate():
    rng = rng_from_seed(9)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = (a + a.conj().T) / 2
    vals, vecs = hermitian_eig(a)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.max(np.abs(a @ vecs - vecs * vals)) < 1e-10 * max(1, np.abs(vals).max())


def test_morse_counts_signature_example():
    q = np.diag([1.0, -1.0, 0.0])
    assert morse_counts(q) == (1, 1, 1)
    assert morse_counts(np.zeros((2, 2))) == (0, 0, 2)
    # Scaled copies classify identically thanks to the relative tolerance.
    assert morse_counts(1e6 * q) == (1, 1, 1)
