"""Tests for symplectic reduction and pair-adapted decompositions."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from maslovlab.frames import (
    Frame,
    fredholm_pair_index,
    gap_hat,
    intersect,
    morse_counts,
    orthonormalize,
    subspace_sum,
)
from maslovlab.reduction import (
    check_transitivity,
    complementary_lagrangian,
    composite_coefficients,
    decomposition_from_parts,
    graph_coefficients,
    graph_coefficients_in_bases,
    intersection_form,
    intrinsic_decomposition,
    pair_decomposition,
    reduce_space,
    reduce_subspace,
    reduced_pair,
)
from maslovlab.sampling import (
    perturb_lagrangian,
    random_coisotropic,
    random_isotropic,
    random_lagrangian,
    random_lagrangian_containing,
    random_lagrangian_pair,
    random_symplectic_form,
    random_unitary,
    rng_from_seed,
)
from maslovlab.symplectic import (
    annihilator,
    classify,
    omega_matrix,
    standard_form,
)


def test_reduce_space_by_full_space_is_identity():
    f = standard_form(2)
    red = reduce_space(f, Frame.full(4))
    assert red.dim == 4
    lam = random_lagrangian(rng_from_seed(1), f)
    img = reduce_subspace(f, Frame.full(4), lam)
    back = Frame(red.representative.matrix @ img.matrix)
    assert gap_hat(back, lam) < 1e-10


def test_reduce_space_by_lagrangian_is_trivial():
    rng = rng_from_seed(2)
    f = random_symplectic_form(rng, 6)
    w = random_lagrangian(rng, f)
    red = reduce_space(f, w)
    assert red.dim == 0
    assert red.induced_form.dim == 0
    other = random_lagrangian(rng, f)
    assert reduce_subspace(f, w, other).dim == 0


def test_reduce_space_rejects_non_coisotropic():
    f = standard_form(2)
    with pytest.raises(ValueError, match="co-isotropic"):
        reduce_space(f, Frame.span([1, 0, 0, 0]))


def test_reduce_c4_explicit():
    f = standard_form(2)
    w = Frame.span([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])
    red = reduce_space(f, w)
    assert red.dim == 2
    assert gap_hat(red.representative, Frame.span([1, 0, 0, 0], [0, 0, 1, 0])) < 1e-12
    lam = Frame.span([1, 0, 0, 0], [0, 1, 0, 0])
    img = reduce_subspace(f, w, lam)
    assert img.dim == 1
    assert classify(red.induced_form, img) == "lagrangian"
    e1_coords = red.representative.matrix.conj().T @ np.array([1.0, 0, 0, 0])
    assert gap_hat(img, Frame.span(e1_coords)) < 1e-12


def test_reduction_of_lagrangian_is_lagrangian():
    rng = rng_from_seed(3)
    for dim, codim in ((6, 1), (8, 2), (8, 3)):
        f = random_symplectic_form(rng, dim)
        w = random_coisotropic(rng, f, codim)
        lam = random_lagrangian(rng, f)
        red = reduce_space(f, w)
        img = reduce_subspace(f, w, lam)
        assert img.dim == red.dim // 2
        assert classify(red.induced_form, img) == "lagrangian"


def test_reduction_preserves_isotropic():
    rng = rng_from_seed(4)
    f = random_symplectic_form(rng, 8)
    w = random_coisotropic(rng, f, 2)
    iso = random_isotropic(rng, f, 2)
    red = reduce_space(f, w)
    img = reduce_subspace(f, w, iso)
    assert classify(red.induced_form, img) in ("isotropic", "lagrangian")


def test_quotient_rule_dimensions():
    rng = rng_from_seed(5)
    for dim in (6, 8):
        f = random_symplectic_form(rng, dim)
        for codim in (1, 2, 3):
            w = random_coisotropic(rng, f, codim)
            w_ann = annihilator(f, w)
            mu = random_lagrangian(rng, f)
            assert intersect(w_ann, mu).dim == dim - subspace_sum(w, mu).dim
            seeded = random_lagrangian_containing(rng, f, Frame(w_ann.matrix[:, :1]))
            lhs = intersect(w_ann, seeded).dim
            assert lhs == dim - subspace_sum(w, seeded).dim
            assert lhs >= 1


def test_sandwiched_reductions_form_index0_pairs():
    rng = rng_from_seed(6)
    for dim, k in ((8, 1), (8, 2), (6, 2)):
        f = random_symplectic_form(rng, dim)
        iso = random_isotropic(rng, f, k)
        w = annihilator(f, iso)
        lam = random_lagrangian_containing(rng, f, iso)
        mu = random_lagrangian_containing(rng, f, iso)
        red = reduce_space(f, w)
        lam_red = reduce_subspace(f, w, lam)
        mu_red = reduce_subspace(f, w, mu)
        assert classify(red.induced_form, lam_red) == "lagrangian"
        assert classify(red.induced_form, mu_red) == "lagrangian"
        assert fredholm_pair_index(lam_red, mu_red)[2] == 0


def test_check_transitivity_trivial_cases():
    rng = rng_from_seed(7)
    f = random_symplectic_form(rng, 6)
    w = random_coisotropic(rng, f, 2)
    lam = random_lagrangian(rng, f)
    assert check_transitivity(f, w, w, lam)
    assert check_transitivity(f, w, Frame.full(6), lam)


def test_check_transitivity_nested():
    rng = rng_from_seed(8)
    for _ in range(5):
        f = random_symplectic_form(rng, 6)
        s1 = random_isotropic(rng, f, 2)
        s2 = Frame(s1.matrix[:, :1])
        w1 = annihilator(f, s1)
        w2 = annihilator(f, s2)
        lam = random_lagrangian(rng, f)
        assert check_transitivity(f, w1, w2, lam)


def test_intrinsic_decomposition_equal_pair_c2():
    f = standard_form(1)
    lam = Frame.span([1, 1])
    dec = intrinsic_decomposition(f, lam, lam, seed=3)
    assert (dec.lam0.dim, dec.v.dim, dec.lam1.dim, dec.mu1.dim) == (1, 1, 0, 0)
    assert dec.x0.dim == 2
    assert dec.x1.dim == 0
    assert np.allclose(dec.p0, np.eye(2))
    for coef in graph_coefficients(f, dec, lam, lam):
        assert np.max(np.abs(coef), initial=0.0) < 1e-10
    x0_form, lam_red, mu_red = reduced_pair(f, dec, lam, lam)
    assert x0_form.dim == 2
    assert lam_red.dim == 1
    assert gap_hat(lam_red, mu_red) < 1e-12


def test_intrinsic_decomposition_dimensions_c8():
    rng = rng_from_seed(9)
    f = random_symplectic_form(rng, 8)
    lam, mu = random_lagrangian_pair(rng, f, intersection_dim=1)
    dec = intrinsic_decomposition(f, lam, mu, seed=11)
    assert (dec.lam0.dim, dec.v.dim, dec.lam1.dim, dec.mu1.dim) == (1, 1, 3, 3)
    assert gap_hat(intersect(lam, dec.x1), dec.lam1) < 1e-8
    assert gap_hat(intersect(mu, dec.x1), dec.mu1) < 1e-8
    assert np.max(np.abs(omega_matrix(f, dec.v, dec.v))) < 1e-10


def test_intrinsic_decomposition_transversal_pair():
    rng = rng_from_seed(10)
    f = random_symplectic_form(rng, 6)
    lam, mu = random_lagrangian_pair(rng, f, intersection_dim=0)
    dec = intrinsic_decomposition(f, lam, mu)
    assert dec.lam0.dim == 0
    assert dec.v.dim == 0
    assert dec.x0.dim == 0
    assert dec.x1.dim == 6
    x0_form, lam_red, mu_red = reduced_pair(f, dec, lam, mu)
    assert x0_form.dim == 0
    assert lam_red.dim == 0
    assert mu_red.dim == 0


def test_intrinsic_decomposition_v_choice_validation():
    rng = rng_from_seed(11)
    f = random_symplectic_form(rng, 4)
    lam, mu = random_lagrangian_pair(rng, f, intersection_dim=1)
    bad = Frame(lam.matrix[:, :1])
    with pytest.raises(ValueError, match="complement"):
        intrinsic_decomposition(f, lam, mu, v_choice=bad)
    dec0 = intrinsic_decomposition(f, lam, mu, seed=1)
    dec = intrinsic_decomposition(f, lam, mu, v_choice=dec0.v)
    assert gap_hat(dec.v, dec0.v) < 1e-14


def test_reduction_by_v_plus_member_matches_projection():
    rng = rng_from_seed(12)
    f = random_symplectic_form(rng, 8)
    lam, mu = random_lagrangian_pair(rng, f, intersection_dim=2)
    dec = intrinsic_decomposition(f, lam, mu, seed=5)
    for w_between in (subspace_sum(dec.v, lam), subspace_sum(dec.v, mu)):
        assert classify(f, w_between) == "coisotropic"
        red = reduce_space(f, w_between)
        for sub in (lam, mu):
            img = reduce_subspace(f, w_between, sub)
            ambient = red.representative.matrix @ img.matrix
            through_quotient = orthonormalize(dec.p0 @ ambient)
            direct = orthonormalize(dec.p0 @ sub.matrix)
            assert through_quotient.dim == direct.dim
            assert gap_hat(through_quotient, direct) < 1e-8


def test_graph_coefficients_near_reference_pair():
    rng = rng_from_seed(13)
    f = random_symplectic_form(rng, 8)
    lam, mu = random_lagrangian_pair(rng, f, intersection_dim=2)
    dec = intrinsic_decomposition(f, lam, mu, seed=7)
    lam_s = perturb_lagrangian(rng, f, lam, 0.05)
    mu_s = perturb_lagrangian(rng, f, mu, 0.05)
    dec_s = pair_decomposition(f, dec.lam0, dec.v, lam_s, mu_s)
    a1, a2, b1, b2 = graph_coefficients(f, dec_s, lam_s, mu_s)
    assert a1.shape == (2, 2)
    assert a2.shape == (2, 2)
    assert 0 < np.linalg.norm(a1) < 1.0
    assert 0 < np.linalg.norm(b1) < 1.0
    x0_form, lam_red, mu_red = reduced_pair(f, dec_s, lam_s, mu_s)
    assert x0_form.dim == 4
    assert intersect(lam_red, mu_red).dim == intersect(lam_s, mu_s).dim


def planted_pair(rng, r: int, q: int):
    """Oblique block bases and a pair with planted graph coefficients.

    The blocks lam0, V (dimension r) and lam1, mu1 (dimension q) are the
    columns of T = U diag(d) W with d in [0.5, 2], so the block basis is
    well conditioned but not orthonormal. Returns the four bases, the
    planted (A1, A2, B1, B2), lam's graph part lam0 + V A1 + mu1 A2, and
    lam and mu.
    """
    n = 2 * (r + q)
    t = (random_unitary(rng, n) * rng.uniform(0.5, 2.0, n)) @ random_unitary(rng, n)
    l0, v, l1, m1 = np.split(t, np.cumsum([r, r, q]), axis=1)
    a1, b1 = rng.standard_normal((2, r, r)) + 1j * rng.standard_normal((2, r, r))
    a2, b2 = rng.standard_normal((2, q, r)) + 1j * rng.standard_normal((2, q, r))
    lam_graph = l0 + v @ a1 + m1 @ a2
    lam = orthonormalize(np.hstack([lam_graph, l1]))
    mu = orthonormalize(np.hstack([l0 + v @ b1 + l1 @ b2, m1]))
    return (l0, v, l1, m1), (a1, a2, b1, b2), lam_graph, lam, mu


@given(seed=st.integers(0, 2**32 - 1), r=st.integers(0, 4), q=st.integers(0, 4))
def test_graph_coefficients_in_bases_recover_planted_coefficients(seed, r, q):
    """Planted A1, A2, B1, B2 on an oblique block basis come back.

    Tilting one direction of lam off lam0 into V (+) mu1 leaves lam no
    graph over the anchor block.
    """
    assume(1 <= r + q <= 4)
    rng = rng_from_seed((0x6C0F, seed))
    (l0, v, l1, m1), planted_coefs, lam_graph, lam, mu = planted_pair(rng, r, q)
    got = graph_coefficients_in_bases(standard_form(r + q), l0, v, l1, m1, lam, mu)
    for planted, value in zip(planted_coefs, got):
        assert value.shape == planted.shape
        assert np.max(np.abs(value - planted), initial=0.0) < 1e-9
    if r:
        lam_graph[:, 0] -= l0[:, 0] - v[:, 0]
        tilted = orthonormalize(np.hstack([lam_graph, l1]))
        with pytest.raises(ArithmeticError, match="lam is not a graph over the anchor block"):
            graph_coefficients_in_bases(standard_form(r + q), l0, v, l1, m1, tilted, mu)


# The gates of graph_coefficients_in_bases, by the start of their
# messages, in the fixed order in which a stacked call runs them.
GATE_ORDER = (
    "block bases do not fill the ambient space",
    "block bases are numerically dependent",
    "lam has dimension",
    "lam is not a graph over the anchor block",
    "lam: anchor block has no right inverse",
    "lam: free directions leak",
    "mu has dimension",
    "mu is not a graph over the anchor block",
    "mu: anchor block has no right inverse",
    "mu: free directions leak",
    "reassembled graph representation misses lam",
    "reassembled graph representation misses mu",
)


def _gate(exc: Exception) -> int:
    return next(i for i, start in enumerate(GATE_ORDER) if str(exc).startswith(start))


@pytest.mark.parametrize("r, q", [(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (2, 1), (1, 2)])
def test_stacked_graph_coefficients_equal_single_calls(r, q):
    """A stack of m block bases and pairs gives, element by element, what
    m calls with one each give: r = 0 (no anchor block) and r = n (no pair
    blocks) included. A stack with failing elements raises the error of
    the first failing gate, from the earliest element that fails it."""
    rng = rng_from_seed((0x57AC, r, q))
    form = standard_form(r + q)
    drawn = [planted_pair(rng, r, q) for _ in range(4)]
    bases = [np.stack([d[0][i] for d in drawn]) for i in range(4)]
    pairs = [[d[k] for d in drawn] for k in (3, 4)]
    stacked = graph_coefficients_in_bases(form, *bases, *pairs)
    for i, (basis, _, _, lam, mu) in enumerate(drawn):
        single = graph_coefficients_in_bases(form, *basis, lam, mu)
        for value, want in zip(stacked, single):
            assert value[i].shape == want.shape
            assert np.max(np.abs(value[i] - want), initial=0.0) <= 1e-12
    # Element 1: lam swapped for mu, whose free directions leak out of
    # lam1 when there are pair blocks; element 2: lam spanned by V and
    # lam1, no graph over the anchor block when there is one.
    pairs[0][1] = pairs[1][1]
    if r:
        pairs[0][2] = orthonormalize(np.hstack([bases[1][2], bases[2][2]]))
    failures = {}
    for i in range(4):
        try:
            graph_coefficients_in_bases(form, *(b[i] for b in bases), pairs[0][i], pairs[1][i])
        except (ValueError, ArithmeticError) as exc:
            failures[i] = exc
    assert failures
    for first in range(4):
        later = sorted((i for i in failures if i >= first), key=lambda i: (_gate(failures[i]), i))
        tail = [b[first:] for b in bases] + [p[first:] for p in pairs]
        if not later:
            graph_coefficients_in_bases(form, *tail)
            continue
        with pytest.raises(type(failures[later[0]])) as raised:
            graph_coefficients_in_bases(form, *tail)
        assert str(raised.value) == str(failures[later[0]])


def _unitary_blocks(rng, r: int, q: int):
    """lam0, V, lam1, mu1 as the columns of one unitary, with a pair
    (lam, mu) that is a graph over them.

    In an orthonormal block basis, a perturbation of size delta along
    one block moves the coordinates, the kernel leak and the reassembly
    gap by about delta, so an input can pass the 1e-8 leak gate and
    fail the 1e-9 reassembly gap.
    """
    t = random_unitary(rng, 2 * (r + q))
    l0, v, l1, m1 = np.split(t, np.cumsum([r, r, q]), axis=1)
    a1, b1 = rng.standard_normal((2, r, r))
    lam = orthonormalize(np.hstack([l0 + v @ a1, l1]))
    mu = orthonormalize(np.hstack([l0 + v @ b1, m1]))
    return [l0, v, l1, m1], [lam, mu]


def _fail_dependent(basis, pair):
    basis[1] = basis[0]


def _fail_graph(basis, pair):
    pair[0] = orthonormalize(np.hstack([basis[1], basis[2]]))


def _fail_right_inverse(basis, pair):
    l0, v, l1, _ = basis
    tilt = l0 * np.array([1.0, 1e-4]) + v
    pair[0] = orthonormalize(np.hstack([tilt, l1]))


def _fail_leak(basis, pair):
    pair[0] = pair[1]


def _fail_reassembly_lam(basis, pair):
    l0, v, l1, m1 = basis
    pair[0] = orthonormalize(np.hstack([l0 + v, l1 + 4e-9 * m1]))


def _fail_reassembly_mu(basis, pair):
    l0, v, l1, m1 = basis
    pair[1] = orthonormalize(np.hstack([l0 - v, m1 + 4e-9 * l1]))


PARITY_GATES = {
    "dependent blocks": (_fail_dependent, "block bases are numerically dependent"),
    "not a graph": (_fail_graph, "lam is not a graph over the anchor block"),
    "no right inverse": (_fail_right_inverse, "lam: anchor block has no right inverse"),
    "NaN right inverse": (_fail_right_inverse, "lam: anchor block has no right inverse"),
    "leak": (_fail_leak, "lam: free directions leak"),
    "reassembly of lam": (_fail_reassembly_lam, "reassembled graph representation misses lam"),
    "reassembly of mu": (_fail_reassembly_mu, "reassembled graph representation misses mu"),
}


@pytest.mark.parametrize("index", [0, 3])
@pytest.mark.parametrize("gate", ["shape", *PARITY_GATES])
def test_each_stacked_gate_raises_what_the_single_call_raises(monkeypatch, gate, index):
    """In a stack of 4 whose only failing element is at ``index``, each
    gate raises the class and message of that element's single call.

    The shape of the block bases is one for the whole stack, so under
    the shape gate every element fails. The right inverse V S^-1 U^H of
    a block that passes the graph gate inverts it to roundoff, so that
    gate is reached through an SVD that returns singular values below
    1e-3, which only the failing element has, twice too large: for the
    single call and the stack alike. Its NaN case returns that
    element's U as NaN instead, with the singular values as they are,
    so the graph gate passes and the residual is NaN.
    """
    rng = rng_from_seed((0x6A7E, index))
    form = standard_form(3)
    drawn = [_unitary_blocks(rng, 2, 1) for _ in range(4)]
    if gate == "shape":
        for basis, _ in drawn:
            basis[3] = basis[3][:, :0]
        expected = "block bases do not fill the ambient space"
    else:
        fail, expected = PARITY_GATES[gate]
        fail(*drawn[index])
    if gate == "no right inverse":
        svd = np.linalg.svd

        def doubling_svd(a, *args, **kwargs):
            if not kwargs.get("compute_uv", True):
                return svd(a, *args, **kwargs)
            u, s, vh = svd(a, *args, **kwargs)
            return u, np.where(s < 1e-3, 2 * s, s), vh

        monkeypatch.setattr(np.linalg, "svd", doubling_svd)
    if gate == "NaN right inverse":
        svd = np.linalg.svd

        def nan_svd(a, *args, **kwargs):
            if not kwargs.get("compute_uv", True):
                return svd(a, *args, **kwargs)
            u, s, vh = svd(a, *args, **kwargs)
            small = (s < 1e-3).any(axis=-1)[..., None, None]
            return np.where(small, np.nan, u), s, vh

        monkeypatch.setattr(np.linalg, "svd", nan_svd)
    for i, (basis, pair) in enumerate(drawn):
        if i != index and gate != "shape":
            graph_coefficients_in_bases(form, *basis, *pair)
    basis, pair = drawn[index]
    with pytest.raises((ValueError, ArithmeticError)) as single:
        graph_coefficients_in_bases(form, *basis, *pair)
    assert str(single.value).startswith(expected)
    bases = [np.stack([b[k] for b, _ in drawn]) for k in range(4)]
    pairs = [[p[k] for _, p in drawn] for k in range(2)]
    with pytest.raises(type(single.value)) as stacked:
        graph_coefficients_in_bases(form, *bases, *pairs)
    assert str(stacked.value) == str(single.value)


def test_graph_coefficients_in_bases_take_lam_and_mu_as_frames():
    """lam and mu enter the reassembly gap as orthonormal bases, so they
    must come as frames: a raw basis, orthonormal or not, single or
    stacked, is refused rather than misread, and the frame of a rescaled
    basis gives the planted coefficients."""
    rng = rng_from_seed((0x0F2A, 0))
    form = standard_form(3)
    basis, planted, _, lam, mu = planted_pair(rng, 2, 1)
    doubled = 2.0 * lam.matrix
    for raw in (doubled, lam.matrix):
        with pytest.raises(TypeError, match="must be frames"):
            graph_coefficients_in_bases(form, *basis, raw, mu)
        with pytest.raises(TypeError, match="must be frames"):
            graph_coefficients_in_bases(form, *(b[None] for b in basis), raw[None], [mu])
    with pytest.raises(ValueError, match="not orthonormal"):
        Frame(doubled)
    got = graph_coefficients_in_bases(form, *basis, orthonormalize(doubled), mu)
    for want, value in zip(planted, got):
        assert np.max(np.abs(value - want), initial=0.0) < 1e-9


@given(seed=st.integers(0, 2**32 - 1), half_dim=st.integers(2, 5), cap=st.integers(0, 3))
def test_reduced_pair_spans_the_projection_onto_x0(seed, half_dim, cap):
    """reduced_pair's P0(lam) = span(lam0 + V A1) and P0(mu) = span(lam0 + V B1)
    are x0^H p0 lam and x0^H p0 mu, with the derived p0 as reference.

    The pair is drawn in C^4 to C^10 with an intersection of dimension
    0 to 3 and anchored there, then moved by 0.05 on the same anchors.
    """
    assume(cap <= half_dim)
    rng = rng_from_seed((0x5E0D, seed))
    f = random_symplectic_form(rng, 2 * half_dim)
    lam, mu = random_lagrangian_pair(rng, f, intersection_dim=cap)
    dec = intrinsic_decomposition(f, lam, mu, seed=seed)
    lam_s = perturb_lagrangian(rng, f, lam, 0.05)
    mu_s = perturb_lagrangian(rng, f, mu, 0.05)
    for local, pair in ((dec, (lam, mu)), (pair_decomposition(f, dec.lam0, dec.v, lam_s, mu_s), (lam_s, mu_s))):
        reduced = reduced_pair(f, local, *pair)[1:]
        for red, sub in zip(reduced, pair):
            want = orthonormalize(local.x0.matrix.conj().T @ local.p0 @ sub.matrix, scale_floor=1.0)
            assert red.dim == want.dim == local.lam0.dim
            assert gap_hat(red, want) < 1e-9


def test_intersection_form_kernel_counts_intersection():
    rng = rng_from_seed(14)
    f = random_symplectic_form(rng, 8)
    lam, mu = random_lagrangian_pair(rng, f, intersection_dim=2)
    dec = intrinsic_decomposition(f, lam, mu, seed=3)
    q = intersection_form(f, dec, lam, mu)
    assert np.max(np.abs(q.matrix), initial=0.0) < 1e-9
    lam_s = perturb_lagrangian(rng, f, lam, 0.08)
    dec_s = pair_decomposition(f, dec.lam0, dec.v, lam_s, mu)
    q_s = intersection_form(f, dec_s, lam_s, mu)
    _, _, zero = morse_counts(q_s.matrix)
    assert zero == intersect(lam_s, mu).dim


def test_composite_coefficients_match_direct_extraction():
    rng = rng_from_seed(15)
    for trial in range(5):
        f = random_symplectic_form(rng, 8)
        lam0, mu0 = random_lagrangian_pair(rng, f, intersection_dim=2)
        dec = intrinsic_decomposition(f, lam0, mu0, seed=trial)
        lam = perturb_lagrangian(rng, f, lam0, 0.1)
        mu = perturb_lagrangian(rng, f, mu0, 0.1)
        a1f, a2f, f_basis, g_basis = composite_coefficients(f, dec, lam, mu)
        lam1_new = intersect(annihilator(f, dec.v), lam)
        a1d, a2d, b1d, b2d = graph_coefficients_in_bases(
            f, f_basis, dec.v.matrix, lam1_new.matrix, g_basis, lam, mu
        )
        assert np.max(np.abs(b1d)) < 1e-9
        assert np.max(np.abs(b2d)) < 1e-9
        assert np.max(np.abs(a1d - a1f)) < 1e-8
        assert np.max(np.abs(a2d - a2f)) < 1e-8


def test_composite_coefficients_rejects_singular_core():
    f = standard_form(2)
    dec = decomposition_from_parts(
        f,
        Frame.span([1, 0, 0, 0]),
        Frame.span([0, 0, 1, 0]),
        Frame.span([0, 1, 0, 0]),
        Frame.span([0, 0, 0, 1]),
    )
    lam = Frame.span([1, 0, 0.3, 0], [0, 1, 0, 1.0])
    mu = Frame.span([1, 0, 0.2, 0], [0, 1, 0, 1.0])
    assert classify(f, lam) == "lagrangian"
    assert classify(f, mu) == "lagrangian"
    with pytest.raises(ArithmeticError, match="singular"):
        composite_coefficients(f, dec, lam, mu)


def test_complementary_lagrangian():
    rng = rng_from_seed(16)
    for dim, cap in ((6, 0), (6, 1), (6, 3), (8, 2)):
        f = random_symplectic_form(rng, dim)
        lam, mu = random_lagrangian_pair(rng, f, intersection_dim=cap)
        tilde = complementary_lagrangian(f, lam, mu, seed=cap)
        assert classify(f, tilde) == "lagrangian"
        assert intersect(lam, tilde).dim == 0
        assert subspace_sum(lam, tilde).dim == dim
        assert mu.dim - intersect(mu, tilde).dim == cap
