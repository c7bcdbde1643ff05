"""Seeded random generators for frames, forms, and Lagrangian data.

Every generator takes a ``numpy.random.Generator`` so that callers
control reproducibility; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .frames import Frame, hermitian_eig, orthonormalize, subspace_sum
from .symplectic import (
    SymplecticForm,
    annihilator,
    generator_to_frame,
    splitting,
    standard_form,
    transform_form,
    unitary_generator,
)

__all__ = [
    "rng_from_seed",
    "random_unitary",
    "random_hermitian",
    "random_subspace",
    "random_invertible",
    "random_symplectic_form",
    "random_lagrangian",
    "random_lagrangian_pair",
    "random_isotropic",
    "random_coisotropic",
    "random_lagrangian_containing",
    "perturb_lagrangian",
    "lagrangian_rotation",
    "rotating_pair_path",
    "form_deformation",
]


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _ginibre(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(_ginibre(rng, n))
    # Fix phases so the distribution does not depend on QR conventions.
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return q


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    a = _ginibre(rng, n)
    return scale * (a + a.conj().T) / 2.0


def random_subspace(rng, ambient_dim: int, dim: int) -> Frame:
    if dim == 0:
        return Frame.empty(ambient_dim)
    return orthonormalize(_ginibre(rng, ambient_dim, dim))


def random_invertible(rng, n: int, condition_cap: float = 50.0) -> np.ndarray:
    """Random invertible matrix with singular values in [1/sqrt(c), sqrt(c)]."""
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    lo, hi = 1.0 / np.sqrt(condition_cap), np.sqrt(condition_cap)
    s = rng.uniform(lo, hi, size=n)
    return (u * s) @ v


def random_symplectic_form(rng, dim: int, standard: bool = False):
    """Random invertible skew-Hermitian form with balanced signature.

    ``dim`` must be even: Lagrangian subspaces exist only when the
    positive and negative eigenspaces of -iJ have equal dimension.
    With ``standard=True`` the flat form J_2n is returned.
    """
    if dim % 2 != 0:
        raise ValueError("dimension must be even")
    n = dim // 2
    if standard:
        return standard_form(n)
    u = random_unitary(rng, dim)
    d = np.concatenate([-rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)])
    h = (u * d) @ u.conj().T
    return SymplecticForm(1j * (h + h.conj().T) / 2.0)


def random_lagrangian(rng, form) -> Frame:
    """Random Lagrangian subspace of (C^2n, omega), uniform in the generator."""
    split = splitting(form)
    n = split.x_minus.dim
    if split.x_plus.dim != n:
        raise ValueError("unbalanced splitting admits no Lagrangians")
    return generator_to_frame(split, random_unitary(rng, n))


def random_lagrangian_pair(rng, form, intersection_dim: int = 0):
    """Pair of Lagrangians whose intersection has the prescribed dimension.

    The first Lagrangian is drawn uniformly; the second shares exactly
    ``intersection_dim`` generator eigendirections with it and is rotated
    away by angles bounded off zero elsewhere.
    """
    split = splitting(form)
    n = split.x_minus.dim
    if not 0 <= intersection_dim <= n:
        raise ValueError("intersection dimension out of range")
    lam = random_lagrangian(rng, form)
    u_lam = unitary_generator(form, lam)
    # The generators are unitary; sharing an eigendirection of
    # u_mu u_lam^-1 at eigenvalue 1 is the same as sharing an
    # intersection direction.
    angles = np.concatenate(
        [
            np.zeros(intersection_dim),
            rng.uniform(0.3, np.pi - 0.3, n - intersection_dim)
            * rng.choice([-1.0, 1.0], n - intersection_dim),
        ]
    )
    w = random_unitary(rng, n)
    rot = (w * np.exp(1j * angles)) @ w.conj().T
    mu = generator_to_frame(split, rot @ u_lam)
    return lam, mu


def random_isotropic(rng, form, dim: int) -> Frame:
    """Random isotropic subspace: a slice of a random Lagrangian."""
    lam = random_lagrangian(rng, form)
    if dim > lam.dim:
        raise ValueError("isotropic dimension exceeds n")
    return Frame(lam.matrix[:, :dim])


def random_coisotropic(rng, form, codim: int) -> Frame:
    """Random co-isotropic subspace, as the annihilator of an isotropic one."""
    return annihilator(form, random_isotropic(rng, form, codim))


def random_lagrangian_containing(rng, form, iso) -> Frame:
    """Random Lagrangian containing a given isotropic subspace.

    Reduces by iso^omega, draws a Lagrangian in the quotient and lifts
    it back alongside iso.
    """
    from .reduction import reduce_space

    red = reduce_space(form, annihilator(form, iso))
    if red.dim == 0:
        return iso
    ell = random_lagrangian(rng, red.induced_form)
    lifted = orthonormalize(red.representative.matrix @ ell.matrix)
    return subspace_sum(iso, lifted)


def perturb_lagrangian(rng, form, lam, scale: float) -> Frame:
    """Small random motion of a Lagrangian that stays Lagrangian.

    Twists the unitary generator by exp(i * scale * H) for a random
    Hermitian H of unit norm, so the result is again a generator.
    """
    split = splitting(form)
    u = unitary_generator(form, lam)
    h = random_hermitian(rng, lam.dim)
    h = h / max(1.0, np.linalg.norm(h, 2))
    return generator_to_frame(split, u @ scipy.linalg.expm(1j * scale * h))


def lagrangian_rotation(rng, form, lam, scale: float = 1.0):
    """Callable s -> Frame rotating a Lagrangian along a random flow.

    The unitary generator U0 of ``lam`` is multiplied by
    exp(i * s * scale * H) for one random Hermitian H, so the returned
    family interpolates smoothly from lam at s=0 and every member is
    Lagrangian for ``form``. Useful as the lam leg of a random pair path.

    H = V diag(d) V^H is decomposed once, by :func:`hermitian_eig`, and
    each member is the graph of U0 V diag(exp(i * scale * s * d)) V^H,
    so evaluating the family takes no matrix exponential.
    """
    split = splitting(form)
    u = unitary_generator(form, lam)
    h = random_hermitian(rng, lam.dim)
    h = h / max(1.0, np.linalg.norm(h, 2))
    d, v = hermitian_eig(h)
    uv, vh = u @ v, v.conj().T

    def at(s: float) -> Frame:
        return generator_to_frame(split, (uv * np.exp(1j * scale * s * d)) @ vh)

    return at


def rotating_pair_path(rng, dim: int = 4, num_samples: int = 33,
                       scale_lam: float = 2.0, scale_mu: float = 0.6):
    """Pair path with both legs rotating under one random form on C^dim.

    Draws the form, lam, mu and the two rotations from ``rng``, in that
    order, and samples the path on ``num_samples`` points.
    """
    from .maslov import LagrangianPairPath

    form = random_symplectic_form(rng, dim)
    lam = random_lagrangian(rng, form)
    mu = random_lagrangian(rng, form)
    rot_lam = lagrangian_rotation(rng, form, lam, scale=scale_lam)
    rot_mu = lagrangian_rotation(rng, form, mu, scale=scale_mu)
    return LagrangianPairPath.from_callable(
        lambda s: (form, rot_lam(s), rot_mu(s)), num_samples=num_samples
    )


def form_deformation(rng, form, scale: float = 0.5):
    """Pair of callables (form_at, push_at) deforming a symplectic form.

    push_at(s) = expm(s K) for one random K, and form_at(s) is the
    pushforward of ``form`` through it, so push_at(s) maps Lagrangians
    of ``form`` to Lagrangians of form_at(s) and the family satisfies
    the naturality relation push^H J(s) push = J(0).
    """
    n = form.dim
    k = _ginibre(rng, n) * (scale / np.sqrt(n))

    def push_at(s: float) -> np.ndarray:
        return scipy.linalg.expm(s * k)

    def form_at(s: float):
        return transform_form(form, push_at(s))

    return form_at, push_at
