"""Tests for symplectic forms, splittings, and unitary generators."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from maslovlab import frames, sampling, symplectic
from maslovlab.frames import Frame, fredholm_pair_index, gap_delta, gap_hat
from maslovlab.sampling import (
    lagrangian_rotation,
    perturb_lagrangian,
    random_coisotropic,
    random_hermitian,
    random_isotropic,
    random_lagrangian,
    random_lagrangian_pair,
    random_subspace,
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


def _doubling_cases():
    rng = rng_from_seed(0xD0B1)
    yield "standard-C4", standard_form(2)
    yield "diagonal-C3", SymplecticForm(np.diag([2j, -1j, 1j]))
    for dim in (2, 4, 6, 8):
        yield f"random-C{dim}", random_symplectic_form(rng, dim)
    p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    yield "pulled-back-C4", transform_form(standard_form(2), p)


@pytest.mark.parametrize("name, form", list(_doubling_cases()))
def test_doubled_forms_are_direct_sums_bit_for_bit(name, form):
    """The doubled eigendata of each form of a stack is that of
    direct_sum(form, form, signs=...), bit for bit, for J (+) -J and -J (+) J.

    The stack holds the form, a decomposed multiple of it and the form
    again, so one stacked pass doubles forms with other eigendata.
    """
    stack = [form, SymplecticForm(-2.5 * form.j), form]
    vals, vecs = symplectic._doubled_eig(stack)
    assert vals.shape == (2, 3, 2 * form.dim) and vecs.shape == (2, 3, 2 * form.dim, 2 * form.dim)
    for i, summand in enumerate(stack):
        for flip, signs in enumerate([(1, -1), (-1, 1)]):
            want = direct_sum(summand, summand, signs=signs)
            assert vals[flip, i].tobytes() == want.eig[0].tobytes()
            assert vecs[flip, i].tobytes() == want.eig[1].tobytes()
            assert want.sigma_min == summand.sigma_min


def test_direct_sum_skews_blockwise_with_the_bits_of_the_whole_matrix():
    """Re-symmetrizing each block gives the bits of re-symmetrizing the block matrix."""
    rng = rng_from_seed(0xD0B2)
    a, b = random_symplectic_form(rng, 4), random_symplectic_form(rng, 2)
    for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        j = scipy.linalg.block_diag(signs[0] * a.j, signs[1] * b.j)
        assert direct_sum(a, b, signs=signs).j.tobytes() == ((j - j.conj().T) / 2.0).tobytes()


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
    monkeypatch.setattr(sampling, "hermitian_eig", counted(sampling.hermitian_eig))
    split = splitting(form)
    lam = random_lagrangian(rng, form)
    u = unitary_generator(form, lam)
    assert gap_hat(generator_to_frame(split, u), lam) < 1e-9
    random_lagrangian_pair(rng, form, 1)
    perturb_lagrangian(rng, form, lam, 0.1)
    assert calls == []
    # A rotation decomposes its own 3 x 3 flow generator H once, when it
    # is made, and nothing when it is evaluated.
    rotation = lagrangian_rotation(rng, form, lam)
    assert calls == [(3, 3)]
    rotation(0.5)
    rotation(0.75)
    assert calls == [(3, 3)]


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


def _svd_rule(j: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The stacked isotropy test by SVD alone: the reference for the certificate.

    A copy of the rule of ``isotropy_residuals`` and ``lagrangian_mask``
    with no certificate in front of it.
    """
    u, s, _ = np.linalg.svd(j @ stack, full_matrices=False)
    keep = s > frames.RANK_TOL * s[..., :1]
    q = u * keep[..., None, :]
    overlap = np.linalg.svd(q.conj().swapaxes(-1, -2) @ stack, compute_uv=False)
    residual = np.minimum(overlap[..., 0], 1.0)
    n, k = stack.shape[-2:]
    return (residual <= 10 * frames.RANK_TOL) & (k + keep.sum(axis=-1) == n)


def _conditioned_form(rng, dim: int, condition: float) -> SymplecticForm:
    """Random balanced form: -iJ has one eigenvalue of modulus 1 / condition, the others 1."""
    n = dim // 2
    moduli = np.append(np.ones(dim - 1), 1.0 / condition)
    signs = np.tile([1.0, -1.0], n)
    u = scipy.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    h = (u * (signs * moduli)) @ u.conj().T
    return SymplecticForm(1j * (h + h.conj().T) / 2.0)


def _residual(form: SymplecticForm, frame: np.ndarray) -> float:
    return float(symplectic.isotropy_residuals(form.j, frame[None])[0][0])


def _at_residual(form: SymplecticForm, lam: Frame, target: float, rng, rank_one: bool) -> np.ndarray:
    """A frame near lam whose isotropy residual is ``target`` to 1e-8 relative.

    lam is moved along one direction by a step found by secant iteration
    on the residual. With ``rank_one`` only the first column moves, along
    w with lam^H J w = i e_1, so that lam^H J lam moves by a rank-one
    matrix and the Frobenius norm of the overlap is its 2-norm to first
    order; otherwise every column moves at random.
    """
    if rank_one:
        a = lam.matrix.conj().T @ form.j
        w = a.conj().T @ np.linalg.solve(a @ a.conj().T, 1j * np.eye(lam.dim)[:, 0])
        direction = np.zeros_like(lam.matrix)
        direction[:, 0] = w
    else:
        direction = rng.standard_normal(lam.matrix.shape) + 1j * rng.standard_normal(lam.matrix.shape)
    direction /= np.linalg.norm(direction)

    def frame(eps):
        return np.linalg.qr(lam.matrix + eps * direction)[0]

    eps = [target, 2 * target]
    res = [_residual(form, frame(e)) for e in eps]
    for _ in range(30):
        if abs(res[-1] - target) <= 1e-8 * target:
            break
        slope = (res[-1] - res[-2]) / (eps[-1] - eps[-2])
        eps.append(eps[-1] + (target - res[-1]) / slope)
        res.append(_residual(form, frame(eps[-1])))
    assert abs(res[-1] - target) <= 1e-8 * target
    return frame(eps[-1])


def _mask_cases():
    """(forms, stack) cases for the certificate: one shape per stack."""
    rng = rng_from_seed(0xCE27)
    for dim in range(2, 17, 2):
        form = random_symplectic_form(rng, dim)
        lags = [random_lagrangian(rng, form).matrix for _ in range(6)]
        generic = [random_subspace(rng, dim, dim // 2).matrix for _ in range(3)]
        yield f"random-C{dim}", [form], np.stack(lags + generic)
        tol = 10 * frames.RANK_TOL
        near = [
            _at_residual(form, random_lagrangian(rng, form), tol * factor, rng, rank_one)
            for factor in (1 - 1e-3, 1 + 1e-3, 1 - 5e-7)
            for rank_one in (False, True)
        ]
        yield f"near-threshold-C{dim}", [form], np.stack(near)
        if dim >= 4:
            iso = [random_isotropic(rng, form, dim // 2 - 1).matrix for _ in range(3)]
            iso.append(random_subspace(rng, dim, dim // 2 - 1).matrix)
            yield f"isotropic-C{dim}", [form], np.stack(iso)
            coiso = [random_coisotropic(rng, form, dim // 2 - 1).matrix for _ in range(3)]
            coiso.append(random_subspace(rng, dim, dim // 2 + 1).matrix)
            yield f"coisotropic-C{dim}", [form], np.stack(coiso)
    for condition in (1e7, 3e7, 5e7, 2e8, 1e9):
        for dim in (2, 8, 16):
            form = _conditioned_form(rng, dim, condition)
            lags = [random_lagrangian(rng, form).matrix for _ in range(4)]
            generic = [random_subspace(rng, dim, dim // 2).matrix for _ in range(2)]
            yield f"condition-{condition:.0e}-C{dim}", [form], np.stack(lags + generic)
    # One stack, one form per frame, certified and uncertified forms mixed.
    forms, stack = [], []
    for condition in (1.0, 1e7, 3e7, 2e8, 1e9, 4.0):
        form = _conditioned_form(rng, 8, condition)
        for frame in (random_lagrangian(rng, form), random_subspace(rng, 8, 4)):
            forms.append(form)
            stack.append(frame.matrix)
    yield "mixed-forms-C8", forms, np.stack(stack)


MASK_CASES = {name: (forms, stack) for name, forms, stack in _mask_cases()}


@pytest.mark.parametrize("name", list(MASK_CASES))
def test_certified_mask_makes_the_svd_rule_decisions(name):
    forms, stack = MASK_CASES[name]
    j = np.stack([f.j for f in forms])
    want = _svd_rule(j, stack)
    assert np.array_equal(symplectic.lagrangian_mask(forms, stack), want)
    if name.startswith(("random", "near")):
        assert want.any() and not want.all()


def _fallback_counts(monkeypatch) -> list[int]:
    """Number of frames each call hands to the SVD rule."""
    counts = []
    residuals = symplectic.isotropy_residuals

    def counted(j, stack):
        counts.append(len(stack))
        return residuals(j, stack)

    monkeypatch.setattr(symplectic, "isotropy_residuals", counted)
    return counts


@pytest.mark.parametrize(
    "condition, certified", [(1.0, True), (1e7, True), (3e7, True), (2e8, False), (1e9, False)]
)
def test_certificate_holds_exactly_when_sigma_min_clears_twice_the_rank_cut(
    monkeypatch, condition, certified
):
    """A Lagrangian of a form with sigma_min > 2 RANK_TOL sigma_max passes without an SVD.

    At condition 3e7 in C^16 the bound must read sigma_max: read from
    ||J||_F, which is sqrt(15) sigma_max there, it would fail.
    """
    rng = rng_from_seed(0xCE28)
    form = _conditioned_form(rng, 16, condition)
    assert bool(symplectic._certain_ranks(np.abs(form.eig[0]))) is certified
    lam = generator_to_frame(splitting(form), np.eye(8))
    stack = np.stack([lam.matrix, random_subspace(rng, 16, 8).matrix])
    counts = _fallback_counts(monkeypatch)
    assert symplectic.lagrangian_mask([form], stack).tolist() == [True, False]
    # The generic frame fails the certificate and goes to the SVD rule.
    assert counts == [1 if certified else 2]


def test_residual_inside_the_margin_goes_to_the_svd_rule(monkeypatch):
    """Residuals within 1e-6 relative below 10 RANK_TOL are not certified.

    In C^2 the overlap is 1 x 1, so its Frobenius norm is the residual;
    only the margin keeps these frames from the certificate.
    """
    rng = rng_from_seed(0xCE29)
    form = random_symplectic_form(rng, 2)
    tol = 10 * frames.RANK_TOL
    frames_in = [
        _at_residual(form, random_lagrangian(rng, form), tol * (1 - 5e-7), rng, rank_one=False),
        _at_residual(form, random_lagrangian(rng, form), tol * (1 - 1e-3), rng, rank_one=False),
    ]
    counts = _fallback_counts(monkeypatch)
    assert symplectic.lagrangian_mask([form], np.stack(frames_in)).tolist() == [True, True]
    assert counts == [1]


def test_repeated_frame_goes_through_the_isotropy_kernel_once(monkeypatch):
    rng = rng_from_seed(0xCE2A)
    form, other = random_symplectic_form(rng, 6), random_symplectic_form(rng, 6)
    lams = [random_lagrangian(rng, form) for _ in range(3)]
    mu = random_lagrangian(rng, form)
    stacks = []
    mask = symplectic.lagrangian_mask

    def counted(forms, stack):
        stacks.append(len(stack))
        return mask(forms, stack)

    monkeypatch.setattr(symplectic, "lagrangian_mask", counted)
    frames_in = [sub for lam in lams for sub in (lam, mu)]
    u = symplectic.lagrangian_generators([form], frames_in)
    assert stacks == [4]
    assert u.shape == (6, 3, 3)
    assert np.array_equal(u[1], u[3]) and np.array_equal(u[1], u[5])
    assert np.array_equal(u[1], unitary_generator(form, mu))
    # Pairs are keyed by form object too: mu under another form is not
    # Lagrangian and is its own element.
    stacks.clear()
    with pytest.raises(symplectic._NotLagrangian) as err:
        symplectic.lagrangian_generators([form, form, form, other, other], [mu, lams[0], mu, mu, mu])
    assert stacks == [3] and err.value.index == 3


def test_error_names_the_first_occurrence_of_a_repeated_bad_frame():
    """The bad frame occurs as mu at s=0.5 and as lam at s=0.75."""
    form = standard_form(1)
    bad = Frame.span([1, 1j])
    good = [Frame.span([1, t]) for t in (0.0, 0.1, 0.2, 0.3, 0.4)]
    horizontal = Frame.span([1, 0])
    legs = [(good[0], horizontal), (good[1], horizontal), (good[2], bad), (bad, good[3]), (good[4], bad)]
    from maslovlab.maslov import LagrangianPairPath, PathSample

    samples = [PathSample(s, form, lam, mu) for s, (lam, mu) in zip(np.linspace(0, 1, 5), legs)]
    with pytest.raises(ValueError, match=r"sample at s=0\.500000: mu is symplectic, not lagrangian"):
        LagrangianPairPath(samples)
    with pytest.raises(symplectic._NotLagrangian) as err:
        symplectic.lagrangian_generators([form], [good[0], bad, good[1], bad])
    assert (err.value.index, err.value.kind) == (1, "symplectic")


def test_mixed_shapes_are_decided_one_by_one():
    rng = rng_from_seed(0xCE2B)
    form = random_symplectic_form(rng, 6)
    lam = random_lagrangian(rng, form)
    assert symplectic.lagrangian_generators([form], [lam, lam]).shape == (2, 3, 3)
    with pytest.raises(ValueError, match="isotropic, not lagrangian"):
        unitary_generator(form, Frame(lam.matrix[:, :2]))
    with pytest.raises(symplectic._NotLagrangian) as err:
        symplectic.lagrangian_generators([form], [lam, random_isotropic(rng, form, 2), lam])
    assert (err.value.index, err.value.kind) == (1, "isotropic")


@pytest.mark.parametrize("dim, scale", [(2, 2.5), (4, 0.6), (8, 2.0), (16, 1.0)])
def test_rotation_matches_the_matrix_exponential(dim, scale):
    rng = rng_from_seed((0xCE2C, dim))
    form = random_symplectic_form(rng, dim)
    lam = random_lagrangian(rng, form)
    state = rng.bit_generator.state
    rot = lagrangian_rotation(rng, form, lam, scale=scale)
    rng.bit_generator.state = state
    h = random_hermitian(rng, dim // 2)
    h = h / max(1.0, np.linalg.norm(h, 2))
    u = unitary_generator(form, lam)
    for s in np.linspace(0.0, 1.0, 9):
        want = generator_to_frame(splitting(form), u @ scipy.linalg.expm(1j * scale * s * h))
        assert gap_hat(rot(s), want) < 1e-12


def test_rotating_paths_evaluate_without_a_matrix_exponential(monkeypatch):
    from maslovlab.maslov import maslov_winding
    from maslovlab.sampling import rotating_pair_path

    def refused(*args, **kwargs):
        raise AssertionError("expm called")

    monkeypatch.setattr(scipy.linalg, "expm", refused)
    path = rotating_pair_path(rng_from_seed(0xCE2D), dim=6, num_samples=9)
    maslov_winding(path)
    path.evaluate(0.123)


def test_distinct_forms_are_checked_without_a_splitting_object(monkeypatch):
    """The check reads the stacked eigendata of the forms, never their splittings."""
    rng = rng_from_seed(0xCE2E)
    forms = [random_symplectic_form(rng, 6) for _ in range(4)]
    lams = [random_lagrangian(rng, form) for form in forms]
    splits = [splitting(form) for form in forms]
    fresh = [SymplecticForm(form.j) for form in forms]

    def refused(self):
        raise AssertionError("splitting read")

    monkeypatch.setattr(SymplecticForm, "_splitting", property(refused))
    u = symplectic.lagrangian_generators(fresh, lams)
    for split, generator, lam in zip(splits, u, lams):
        assert gap_hat(generator_to_frame(split, generator), lam) < 1e-12


@pytest.mark.parametrize("vals, plus, minus", [([1, 1, -1], 2, 1), ([-1, -2, -3, 1], 1, 3)])
def test_unbalanced_splitting_names_its_halves(vals, plus, minus):
    balanced = standard_form(len(vals) // 2) if len(vals) % 2 == 0 else None
    unbalanced = SymplecticForm(1j * np.diag(np.array(vals, dtype=float)))
    forms = [unbalanced] if balanced is None else [balanced, unbalanced]
    frame = Frame(np.eye(len(vals))[:, :1])
    message = f"splitting halves have different dimensions ({plus} vs {minus}); no Lagrangians exist"
    with pytest.raises(ValueError) as err:
        symplectic.lagrangian_generators(forms, [frame] * len(forms))
    assert str(err.value) == message
