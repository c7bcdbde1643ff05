"""Symplectic reduction of subspaces and pair-adapted decompositions.

A co-isotropic subspace W of a symplectic space carries a symplectic
quotient W / W^omega. Quotients are represented concretely by the
canonical in-space representative W intersected with the orthogonal
complement of W^omega; coordinates of a coset [x] are R^H x where R is
the representative frame, and the induced form is the compression of J
to those coordinates. This keeps every reduced object an ordinary
Frame and makes the comparison isomorphisms explicit matrices.

The second half builds, for a pair of Lagrangian subspaces (lam, mu),
the four-block decomposition

    X = lam0 (+) V (+) lam1 (+) mu1,

where lam1 = V^omega intersected with lam and mu1 = V^omega intersected
with mu, together with the graph coefficients A1, A2, B1, B2 representing

    lam = {x0 + A1 x0 + x1 + A2 x0},   mu = {y0 + B1 y0 + B2 y0 + y1}.

These coefficients localize an intersection: the induced form on
X0 = lam0 + V and the projections P0(lam), P0(mu) reproduce the pair's
intersection pattern in a space of dimension twice the anchor, which is
what the localized Maslov counting in the maslov module runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .frames import (
    RANK_TOL,
    Frame,
    HermitianMatrix,
    Projection,
    _conditioned,
    _norm2,
    exceeds_scaled_tol,
    gap_delta,
    gap_hat,
    intersect,
    orth_complement,
    orthonormalize,
    subspace_sum,
    well_conditioned,
)
from .sampling import random_unitary, rng_from_seed
from .symplectic import SymplecticForm, annihilator, classify, omega_matrix

__all__ = [
    "ReducedSpace",
    "IntrinsicDecomposition",
    "reduce_space",
    "reduce_subspace",
    "decomposition_from_parts",
    "pair_decomposition",
    "intrinsic_decomposition",
    "check_transitivity",
    "graph_coefficients",
    "graph_coefficients_in_bases",
    "composite_coefficients",
    "reduced_pair",
    "intersection_form",
    "complementary_lagrangian",
]

# Identities below ("the two reduction formulas agree", "X1 annihilates
# X0", ...) are exact statements; their numerical residuals are held to
# this slack on top of the data's scale.
_IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class ReducedSpace:
    """Symplectic quotient W/W^omega on its canonical representative.

    ``representative`` is an orthonormal frame of W - (W^omega)-part,
    i.e. W intersected with the orthogonal complement of W^omega. The
    coordinates of a coset [x], x in W, are representative^H x, and
    ``induced_form`` acts on these coordinates.
    """

    representative: Frame
    induced_form: SymplecticForm

    @property
    def dim(self) -> int:
        return self.representative.dim


def reduce_space(form: SymplecticForm, w: Frame) -> ReducedSpace:
    """Reduce the ambient space by a co-isotropic subspace W.

    The induced form omega~([x], [y]) = omega(x, y) is well defined
    because W^omega annihilates W; on representative coordinates it is
    the compression R^H J R, re-verified invertible on construction.
    """
    kind = classify(form, w)
    if kind not in ("coisotropic", "lagrangian"):
        raise ValueError(f"reduction requires a co-isotropic subspace, got {kind}")
    w_ann = annihilator(form, w)
    if w_ann.dim:
        shaved = w.matrix - w_ann.matrix @ (w_ann.matrix.conj().T @ w.matrix)
    else:
        shaved = w.matrix
    rep = orthonormalize(shaved, scale_floor=1.0)
    if rep.dim != w.dim - w_ann.dim:
        raise ArithmeticError(
            "representative of W/W^omega has unexpected dimension "
            f"{rep.dim} (expected {w.dim - w_ann.dim})"
        )
    jr = rep.matrix.conj().T @ form.j @ rep.matrix
    return ReducedSpace(rep, SymplecticForm((jr - jr.conj().T) / 2.0))


def reduce_subspace(form: SymplecticForm, w: Frame, lam: Frame) -> Frame:
    """Image of a subspace in the reduction by W, in reduced coordinates.

    Computes both expressions ((lam + W^omega) inter W) / W^omega and
    (lam inter W + W^omega) / W^omega and insists they agree; with
    W^omega inside W the two are equal by the modular law, so a
    discrepancy flags a rank decision gone wrong.
    """
    red = reduce_space(form, w)
    w_ann = annihilator(form, w)
    outer = intersect(subspace_sum(lam, w_ann), w)
    inner = subspace_sum(intersect(lam, w), w_ann)
    first = orthonormalize(
        red.representative.matrix.conj().T @ outer.matrix, scale_floor=1.0
    )
    second = orthonormalize(
        red.representative.matrix.conj().T @ inner.matrix, scale_floor=1.0
    )
    if first.dim != second.dim or gap_hat(first, second) > _IDENTITY_TOL:
        raise ArithmeticError(
            "the two reduction formulas disagree "
            f"(dims {first.dim}/{second.dim}); ranks are unreliable here"
        )
    return first


@dataclass(frozen=True)
class IntrinsicDecomposition:
    """Four-block decomposition X = lam0 (+) V (+) lam1 (+) mu1.

    Only the four blocks are stored. Frames ``x0`` of X0 = lam0 + V and
    ``x1`` of X1 = lam1 + mu1, and ``p0``, the projection onto X0 along
    X1 with its range and kernel checked against them, are worked out on
    first read. The output of :func:`intrinsic_decomposition` also has
    X1 = X0^omega, so the two are mutually annihilating symplectic
    subspaces; a container tracking a pair away from its anchors (see
    :func:`pair_decomposition`) keeps only the direct sum.
    """

    lam0: Frame
    v: Frame
    lam1: Frame
    mu1: Frame

    @cached_property
    def x0(self) -> Frame:
        return subspace_sum(self.lam0, self.v)

    @cached_property
    def x1(self) -> Frame:
        return subspace_sum(self.lam1, self.mu1)

    @cached_property
    def p0(self) -> np.ndarray:
        t = np.hstack([self.lam0.matrix, self.v.matrix, self.lam1.matrix, self.mu1.matrix])
        n, d0 = t.shape[0], self.lam0.dim + self.v.dim
        if d0 == n:
            return np.eye(n, dtype=complex)
        proj = Projection(t[:, :d0] @ np.linalg.inv(t)[:d0, :])
        if gap_hat(proj.range(), self.x0) > _IDENTITY_TOL or gap_hat(proj.kernel(), self.x1) > _IDENTITY_TOL:
            raise ArithmeticError("projection onto X0 along X1 is inconsistent")
        return proj.matrix


def decomposition_from_parts(
    form: SymplecticForm,
    lam0: Frame,
    v: Frame,
    lam1: Frame,
    mu1: Frame,
    require_annihilator: bool = True,
) -> IntrinsicDecomposition:
    """Assemble and validate the four-block container from explicit frames.

    T = [lam0 | V | lam1 | mu1] must be square and well conditioned;
    sigma_min(T) bounds the sines between the blocks from below, so X0
    and X1 then keep their dimensions. With ``require_annihilator`` X1
    must also be X0^omega; drop it only for containers tracking a pair
    away from its anchors, where the direct sum is all the graph
    calculus needs.
    """
    t = np.hstack([lam0.matrix, v.matrix, lam1.matrix, mu1.matrix])
    if t.shape[1] != form.dim:
        raise ValueError(
            f"block dimensions sum to {t.shape[1]}, ambient dimension is {form.dim}"
        )
    if t.shape[1] and not well_conditioned(t):
        raise ArithmeticError("the four blocks do not form a direct sum")
    dec = IntrinsicDecomposition(lam0, v, lam1, mu1)
    if require_annihilator and gap_hat(annihilator(form, dec.x0), dec.x1) > _IDENTITY_TOL:
        raise ArithmeticError("X1 is not the annihilator of X0")
    return dec


def pair_decomposition(
    form: SymplecticForm,
    lam0: Frame,
    v: Frame,
    lam: Frame,
    mu: Frame,
) -> IntrinsicDecomposition:
    """Decomposition adapted to (lam, mu) with prescribed anchors (lam0, V).

    The pair blocks are recomputed from the pair itself,
    lam1 = V^omega inter lam and mu1 = V^omega inter mu, so the same
    anchors can track a moving pair near a reference position. Once the
    pair leaves the anchors, X1 = lam1 + mu1 stops being the annihilator
    of X0, so only the direct sum is checked: the graph calculus needs
    nothing more.
    """
    v_ann = annihilator(form, v)
    return decomposition_from_parts(
        form, lam0, v, intersect(v_ann, lam), intersect(v_ann, mu), require_annihilator=False
    )


def intrinsic_decomposition(
    form: SymplecticForm,
    lam: Frame,
    mu: Frame,
    v_choice: Frame | None = None,
    seed: int = 0,
) -> IntrinsicDecomposition:
    """Decomposition induced by a Lagrangian pair, anchored at lam0 = lam inter mu.

    When ``v_choice`` is absent, V is a seeded random complement of
    lam + mu drawn inside its orthogonal complement and then sheared
    into lam0 to make it isotropic; the shear solves
    Z^H J Z + P K - K^H P^H = 0 with P the (invertible) pairing between
    the complement and lam0, giving K = -P^{-1} (Z^H J Z) / 2. An
    isotropic V makes the induced form on X0 the plain restriction of
    omega and the intersection form Hermitian.
    """
    return _decompose(form, lam, mu, _anchor_spaces(form, lam, mu), v_choice, seed)[0]


def _anchor_spaces(form: SymplecticForm, lam: Frame, mu: Frame) -> tuple[Frame, Frame, Frame | None]:
    """The part of an intrinsic decomposition that no complement V depends on.

    Checks lam and mu as Lagrangian and returns lam0 = lam inter mu,
    lam + mu and, when lam0 is not zero, the orthogonal complement of
    lam + mu, where the seeded complements are drawn.
    """
    for name, sub in (("lam", lam), ("mu", mu)):
        kind = classify(form, sub)
        if kind != "lagrangian":
            raise ValueError(f"{name} is {kind}, not lagrangian")
    lam0 = intersect(lam, mu)
    span = subspace_sum(lam, mu)
    return lam0, span, orth_complement(span) if lam0.dim else None


def _decompose(
    form: SymplecticForm,
    lam: Frame,
    mu: Frame,
    spaces: tuple[Frame, Frame, Frame | None],
    v_choice: Frame | None,
    seed: int,
) -> tuple[IntrinsicDecomposition, Frame]:
    """:func:`intrinsic_decomposition` on the output of :func:`_anchor_spaces` for the pair.

    Returns the decomposition and V^omega, built once on the way, so that
    the maslov anchors need not build it again.
    """
    lam0, span, comp = spaces
    r = lam0.dim
    if v_choice is not None:
        v = v_choice
        if v.dim != r:
            raise ValueError(
                f"v_choice has dimension {v.dim}, a complement of lam + mu needs {r}"
            )
        if r:
            stack = np.hstack([v.matrix, span.matrix])
            if stack.shape[1] != form.dim or not well_conditioned(stack):
                raise ValueError("v_choice is not a complement of lam + mu")
    elif r == 0:
        v = Frame.empty(form.dim)
    else:
        rng = rng_from_seed(seed)
        z = comp.matrix @ random_unitary(rng, r)
        pairing = z.conj().T @ form.j @ lam0.matrix
        gram = z.conj().T @ form.j @ z
        shear = -0.5 * np.linalg.solve(pairing, gram)
        v = orthonormalize(z + lam0.matrix @ shear)
        if v.dim != r:
            raise ArithmeticError("isotropic shear collapsed the complement")
        isotropy = np.max(np.abs(omega_matrix(form, v, v)))
        if exceeds_scaled_tol(isotropy, form.j, _IDENTITY_TOL):
            raise ArithmeticError("sheared complement failed to become isotropic")
    v_ann = annihilator(form, v)
    dec = decomposition_from_parts(form, lam0, v, intersect(v_ann, lam), intersect(v_ann, mu))
    n = lam.dim
    if dec.lam1.dim != n - r or dec.mu1.dim != n - r:
        raise ArithmeticError(
            "pair blocks have dimensions "
            f"({dec.lam1.dim}, {dec.mu1.dim}), expected ({n - r}, {n - r})"
        )
    if gap_hat(subspace_sum(lam0, dec.lam1), lam) > _IDENTITY_TOL:
        raise ArithmeticError("lam does not split as lam0 (+) lam1")
    if gap_hat(subspace_sum(lam0, dec.mu1), mu) > _IDENTITY_TOL:
        raise ArithmeticError("mu does not split as lam0 (+) mu1")
    return dec, v_ann


def check_transitivity(
    form: SymplecticForm,
    w1: Frame,
    w2: Frame,
    lam: Frame,
) -> bool:
    """Reducing by W2 and then by the image of W1 matches reducing by W1.

    Requires W1 inside W2, both co-isotropic (then W2^omega sits inside
    W1 automatically). The comparison runs through the natural
    isomorphism between W1/W1^omega and its double-quotient image, which
    on canonical representatives is the explicit matrix
    Rd^H R2^H R1; the isomorphism is checked to be symplectic and the
    two reductions of lam are compared through it.
    """
    if gap_delta(w1, w2) > _IDENTITY_TOL:
        raise ValueError("w1 is not contained in w2")
    red1 = reduce_space(form, w1)
    red2 = reduce_space(form, w2)
    r1 = red1.representative.matrix
    r2 = red2.representative.matrix
    w1_image = orthonormalize(r2.conj().T @ w1.matrix, scale_floor=1.0)
    kind = classify(red2.induced_form, w1_image)
    if kind not in ("coisotropic", "lagrangian"):
        raise ArithmeticError(f"image of w1 is {kind}, not co-isotropic")
    red_d = reduce_space(red2.induced_form, w1_image)
    rd = red_d.representative.matrix
    iso = rd.conj().T @ r2.conj().T @ r1
    induced = iso.conj().T @ red_d.induced_form.j @ iso
    defect = np.max(np.abs(induced - red1.induced_form.j), initial=0.0)
    if exceeds_scaled_tol(defect, red1.induced_form.j, _IDENTITY_TOL):
        raise ArithmeticError("natural isomorphism between quotients is not symplectic")
    twice = reduce_subspace(red2.induced_form, w1_image, reduce_subspace(form, w2, lam))
    once = reduce_subspace(form, w1, lam)
    transported = orthonormalize(iso @ once.matrix)
    return twice.dim == transported.dim and gap_hat(twice, transported) <= RANK_TOL


def _graph_block(
    coords: np.ndarray,
    dims: tuple[int, int, int, int],
    free_index: int,
    coef_indices: tuple[int, int],
    label: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for the two coefficient blocks of one graph representation, for a stack.

    ``coords`` holds, for each of m elements, the subspace basis in the
    stacked block basis; the rows split by ``dims``. The subspace must
    project onto block 0 with a kernel contained in the free block,
    which pins the coefficients uniquely. One full SVD U S V^H of block
    0 gives the invertibility gate, the right inverse V S^-1 U^H (the
    minimum-norm solution that ``lstsq`` returns) and the kernel, the
    last rows of V^H (the basis ``scipy.linalg.null_space`` returns).

    Each gate applies to the whole stack and raises as soon as any
    element fails it. The residual and leak gates pass a value only
    when it is at most the tolerance, so a NaN fails them.
    """
    m, _, k = coords.shape
    r = dims[0]
    if k != r + dims[free_index]:
        raise ValueError(
            f"{label} has dimension {k}, the graph representation needs "
            f"{r + dims[free_index]}"
        )
    edges = np.cumsum((0,) + dims)
    blocks = [coords[:, edges[i] : edges[i + 1]] for i in range(4)]
    scale = np.maximum(1.0, _norm2(coords))
    if r == 0:
        sol = np.zeros((m, k, 0), dtype=complex)
        kernel = np.broadcast_to(np.eye(k, dtype=complex), (m, k, k))
    else:
        u, s, vh = np.linalg.svd(blocks[0])
        if not _conditioned(s).all():
            raise ArithmeticError(
                f"{label} is not a graph over the anchor block "
                "(transversality to the complementary blocks fails)"
            )
        sol = (vh[:, :r].conj().swapaxes(-1, -2) / s[:, None, :]) @ u.conj().swapaxes(-1, -2)
        residual = np.abs(blocks[0] @ sol - np.eye(r)).max(axis=(-2, -1))
        if (~(residual <= _IDENTITY_TOL * scale)).any():
            raise ArithmeticError(f"{label}: anchor block has no right inverse")
        kernel = vh[:, r:].conj().swapaxes(-1, -2)
    for idx in coef_indices:
        leak = np.abs(blocks[idx] @ kernel).max(axis=(-2, -1), initial=0.0)
        if (~(leak <= _IDENTITY_TOL * scale)).any():
            raise ArithmeticError(
                f"{label}: free directions leak outside the free block; "
                "the decomposition is not adapted to this subspace"
            )
    return blocks[coef_indices[0]] @ sol, blocks[coef_indices[1]] @ sol


def _misses(basis: np.ndarray, sub: np.ndarray) -> bool:
    """Whether some element of a stack of bases does not span its subspace ``sub``.

    The rank of each basis is that of :func:`orthonormalize`; the gap of
    :func:`gap_hat` between the frames and their subspaces comes from one
    stacked SVD and is held to 1e-9.
    """
    spans = [orthonormalize(b) for b in basis]
    if any(f.dim != sub.shape[-1] for f in spans):
        return True
    u = np.stack([f.matrix for f in spans])
    gap = np.linalg.svd(u - sub @ (sub.conj().swapaxes(-1, -2) @ u), compute_uv=False)
    return bool((gap.max(axis=-1, initial=0.0) > 1e-9).any())


def _graph_coefficient_stack(
    dim: int,
    lam0_basis: np.ndarray,
    v_basis: np.ndarray,
    lam1_basis: np.ndarray,
    mu1_basis: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`graph_coefficients_in_bases` for stacks.

    Every argument is a stack of m matrices, the block bases with one
    shape each and ``lam`` and ``mu`` frame matrices; ``dim`` is the
    ambient dimension. Returns the stacked (A1, A2, B1, B2). The gates
    run in a fixed order, each over the whole stack, and the first that
    any element fails raises.
    """
    ts = np.concatenate([lam0_basis, v_basis, lam1_basis, mu1_basis], axis=-1).astype(complex)
    _, rows, cols = ts.shape
    if rows != cols or cols != dim:
        raise ValueError("block bases do not fill the ambient space")
    if not (_conditioned(np.linalg.svd(ts, compute_uv=False)) | (dim == 0)).all():
        raise ArithmeticError("block bases are numerically dependent")
    dims = tuple(b.shape[-1] for b in (lam0_basis, v_basis, lam1_basis, mu1_basis))
    c, d = np.split(np.linalg.solve(ts, np.concatenate([lam, mu], axis=-1)), [lam.shape[-1]], axis=-1)
    a1, a2 = _graph_block(c, dims, 2, (1, 3), "lam")
    b1, b2 = _graph_block(d, dims, 3, (1, 2), "mu")
    lam_rb = np.concatenate([lam0_basis + v_basis @ a1 + mu1_basis @ a2, lam1_basis], axis=-1)
    mu_rb = np.concatenate([lam0_basis + v_basis @ b1 + lam1_basis @ b2, mu1_basis], axis=-1)
    if _misses(lam_rb, lam):
        raise ArithmeticError("reassembled graph representation misses lam")
    if _misses(mu_rb, mu):
        raise ArithmeticError("reassembled graph representation misses mu")
    return a1, a2, b1, b2


def graph_coefficients_in_bases(
    form: SymplecticForm,
    lam0_basis: np.ndarray,
    v_basis: np.ndarray,
    lam1_basis: np.ndarray,
    mu1_basis: np.ndarray,
    lam: Frame | Sequence[Frame],
    mu: Frame | Sequence[Frame],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Graph coefficients of a pair in explicit (possibly oblique) bases.

    Returns matrices (A1, A2, B1, B2) with A1, B1 mapping lam0
    coordinates to V coordinates, A2 to mu1 and B2 to lam1 coordinates,
    such that lam is spanned by x0 + A1 x0 + x1 + A2 x0 and mu by
    y0 + B1 y0 + B2 y0 + y1. Both representations are reassembled and
    compared against the inputs before returning.

    The solve runs on a stack. Block bases with a leading axis of m, and
    ``lam`` and ``mu`` as sequences of m frames, give the m sets of
    coefficients stacked; 2-D bases with frames are a stack of one and
    give 2-D coefficients. ``lam`` and ``mu`` must be frames: the
    reassembly gap projects onto them as orthonormal bases.

    The gates run in a fixed order, each over the whole stack: the block
    basis square, then well conditioned; for lam and then mu, the
    dimension, the anchor-block SVD gate, the right inverse and the
    kernel leak into each coefficient block; then the reassembly rank
    and gap of lam and of mu. The first gate that any element fails
    raises, with the message a single call on that element raises; where
    several elements fail, the earliest gate decides, not the position
    in the stack.
    """
    bases = [np.asarray(b) for b in (lam0_basis, v_basis, lam1_basis, mu1_basis)]
    single = bases[0].ndim == 2
    pair = [[lam], [mu]] if single else [list(lam), list(mu)]
    if not all(isinstance(sub, Frame) for subs in pair for sub in subs):
        raise TypeError("lam and mu must be frames, one per element of stacked bases")
    if single:
        bases = [b[None] for b in bases]
    stacks = (np.stack([sub.matrix for sub in subs]) for subs in pair)
    coefs = _graph_coefficient_stack(form.dim, *bases, *stacks)
    return tuple(c[0] for c in coefs) if single else coefs


def graph_coefficients(
    form: SymplecticForm,
    dec: IntrinsicDecomposition,
    lam: Frame,
    mu: Frame,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Graph coefficients of (lam, mu) in the frames of a decomposition."""
    return graph_coefficients_in_bases(
        form,
        dec.lam0.matrix,
        dec.v.matrix,
        dec.lam1.matrix,
        dec.mu1.matrix,
        lam,
        mu,
    )


def composite_coefficients(
    form: SymplecticForm,
    dec: IntrinsicDecomposition,
    lam: Frame,
    mu: Frame,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pair coefficients over the anchor transported by mu's graph.

    Here (lam, mu) are full graphs over a reference decomposition: lam
    over lam0 + lam1 (values in V + mu1, blocks A11, A12, A21, A22) and
    mu over lam0 + mu1 (values in V + lam1, blocks B11, B12, B21, B22).
    The anchor for the pair itself is then the transported subspace
    f(lam0) with f = I + B11 + B21, a subspace of mu, with
    mu-side free block g(mu1), g = B12 + B22 + I. The coefficients of
    lam over that anchor come out in closed form:

        A1 o f = A11 - B11 + A12 B21
                 - (B12 - A12 B22)(I - A22 B22)^{-1}(A21 + A22 B21),
        A2 o f = g (I - A22 B22)^{-1}(A21 + A22 B21).

    Returns (A1f, A2f, f_basis, g_basis) where the coefficient matrices
    act from f-basis coordinates to V-frame respectively g-basis
    coordinates. Raises when I - A22 B22 is singular; no fallback is
    attempted because the closed form simply does not apply there.
    """
    r = dec.lam0.dim
    q = dec.lam1.dim
    if dec.v.dim != r or dec.mu1.dim != q:
        raise ValueError("composite route expects blocks sized (r, r, q, q)")
    ts = np.hstack([dec.lam0.matrix, dec.v.matrix, dec.lam1.matrix, dec.mu1.matrix])
    if not well_conditioned(ts):
        raise ArithmeticError("block bases are numerically dependent")
    c = np.linalg.solve(ts, lam.matrix)
    d = np.linalg.solve(ts, mu.matrix)
    c0, cv, cl, cm = c[:r], c[r : 2 * r], c[2 * r : 2 * r + q], c[2 * r + q :]
    d0, dv, dl, dm = d[:r], d[r : 2 * r], d[2 * r : 2 * r + q], d[2 * r + q :]
    cdom = np.vstack([c0, cl])
    ddom = np.vstack([d0, dm])
    for label, dom in (("lam", cdom), ("mu", ddom)):
        if dom.shape[0] != dom.shape[1] or not well_conditioned(dom):
            raise ArithmeticError(f"{label} is not a graph over its domain blocks")
    a = np.vstack([cv, cm]) @ np.linalg.inv(cdom)
    b = np.vstack([dv, dl]) @ np.linalg.inv(ddom)
    a11, a12, a21, a22 = a[:r, :r], a[:r, r:], a[r:, :r], a[r:, r:]
    b11, b12, b21, b22 = b[:r, :r], b[:r, r:], b[r:, :r], b[r:, r:]
    core = np.eye(q, dtype=complex) - a22 @ b22
    if q and not well_conditioned(core):
        raise ArithmeticError("composite route not applicable: I - A22 B22 is singular")
    t1 = np.linalg.solve(core, a21 + a22 @ b21) if q else np.zeros((0, r), dtype=complex)
    a1f = a11 - b11 + a12 @ b21 - (b12 - a12 @ b22) @ t1
    f_basis = dec.lam0.matrix + dec.v.matrix @ b11 + dec.lam1.matrix @ b21
    g_basis = dec.v.matrix @ b12 + dec.lam1.matrix @ b22 + dec.mu1.matrix
    return a1f, t1, f_basis, g_basis


def reduced_pair(
    form: SymplecticForm,
    dec: IntrinsicDecomposition,
    lam: Frame,
    mu: Frame,
) -> tuple[SymplecticForm, Frame, Frame]:
    """Project a pair onto X0 with the induced symplectic form.

    The form on X0 can be induced through either member of the pair;
    the two candidates

        omega_l(x, y) = omega(x, y) - omega(k_A x, k_A y),
        omega_r(x, y) = omega(x, y) - omega(k_B x, k_B y),

    with k_A the lift x0 -> x0 + A1 x0 (and k_B via B1), agree, and when
    lam0 annihilates either pair block they both collapse to the plain
    restriction of omega. Everything is returned in the coordinates of
    the orthonormal frame of X0: the induced form, P0(lam) and P0(mu).
    P0 maps lam onto {x0 + A1 x0}, so P0(lam) and P0(mu) are the spans
    of lam0 + V A1 and lam0 + V B1, from the coefficients solved here.
    The projected pair keeps the intersection dimension of the original.
    """
    a1, _, b1, _ = graph_coefficients(form, dec, lam, mu)
    l0b, vb = dec.lam0.matrix, dec.v.matrix
    r, rv = dec.lam0.dim, dec.v.dim
    d0 = r + rv
    if d0 == 0:
        empty = Frame.empty(0)
        return SymplecticForm(np.zeros((0, 0))), empty, empty
    f0 = np.hstack([l0b, vb])
    base = f0.conj().T @ form.j @ f0
    graph_a, graph_b = l0b + vb @ a1, l0b + vb @ b1
    zero_pad = np.zeros((form.dim, rv), dtype=complex)
    lift_a = np.hstack([graph_a, zero_pad])
    lift_b = np.hstack([graph_b, zero_pad])
    jl = base - lift_a.conj().T @ form.j @ lift_a
    jr = base - lift_b.conj().T @ form.j @ lift_b
    if exceeds_scaled_tol(np.max(np.abs(jl - jr)), jl, 1e-10):
        raise ArithmeticError("left and right induced forms on X0 disagree")
    x0h = dec.x0.matrix.conj().T
    ginv = np.linalg.inv(x0h @ f0)
    jl_x0 = ginv.conj().T @ jl @ ginv
    x0_form = SymplecticForm((jl_x0 - jl_x0.conj().T) / 2.0)
    anchors_annihilate = min(
        np.max(np.abs(omega_matrix(form, dec.lam0, dec.lam1)), initial=0.0),
        np.max(np.abs(omega_matrix(form, dec.lam0, dec.mu1)), initial=0.0),
    )
    if not exceeds_scaled_tol(anchors_annihilate, form.j, 1e-12):
        restriction = x0h @ form.j @ dec.x0.matrix
        if exceeds_scaled_tol(np.max(np.abs(jl_x0 - restriction)), jl, 1e-10):
            raise ArithmeticError(
                "induced form should equal the restriction of omega on X0 "
                "but does not"
            )
    lam_red = orthonormalize(x0h @ graph_a, scale_floor=1.0)
    mu_red = orthonormalize(x0h @ graph_b, scale_floor=1.0)
    if intersect(lam_red, mu_red).dim != intersect(lam, mu).dim:
        raise ArithmeticError("projection onto X0 changed the intersection dimension")
    return x0_form, lam_red, mu_red


def intersection_form(
    form: SymplecticForm,
    dec: IntrinsicDecomposition,
    lam: Frame,
    mu: Frame,
) -> HermitianMatrix:
    """Hermitian form Q(x, y) = omega(x, (A1 - B1) y) on lam0 coordinates.

    Defined for isotropic V. Its inertia localizes the pair: the kernel
    dimension of Q is dim(lam inter mu), and along a path the jumps of
    the positive/negative counts are exactly the Maslov counts of the
    pair near the reference position.
    """
    jscale = max(1.0, np.linalg.norm(form.j, 2))
    if dec.v.dim and np.max(np.abs(omega_matrix(form, dec.v, dec.v))) > 1e-10 * jscale:
        raise ValueError("intersection form requires isotropic V")
    a1, _, b1, _ = graph_coefficients(form, dec, lam, mu)
    diff = dec.v.matrix @ (a1 - b1)
    q = diff.conj().T @ form.j @ dec.lam0.matrix
    residual = np.max(np.abs(q - q.conj().T), initial=0.0)
    if residual > 1e-9 * jscale * max(1.0, np.linalg.norm(a1 - b1, 2)):
        raise ArithmeticError(
            f"intersection form is not Hermitian (residual {residual:.3e})"
        )
    return HermitianMatrix.from_symmetrized(q)


def complementary_lagrangian(
    form: SymplecticForm,
    lam: Frame,
    mu: Frame,
    seed: int = 0,
) -> Frame:
    """Lagrangian transversal to lam that moves mu as little as possible.

    Returns mu~ = V (+) mu1 built from the decomposition of the pair
    with isotropic V: then X = lam (+) mu~ and mu/(mu inter mu~) has
    exactly the dimension of lam inter mu.
    """
    dec = intrinsic_decomposition(form, lam, mu, seed=seed)
    result = subspace_sum(dec.v, dec.mu1)
    kind = classify(form, result)
    if kind != "lagrangian":
        raise ArithmeticError(f"complementary candidate is {kind}, not lagrangian")
    if intersect(lam, result).dim != 0:
        raise ArithmeticError("complementary candidate still meets lam")
    moved = mu.dim - intersect(mu, result).dim
    if moved != dec.lam0.dim:
        raise ArithmeticError(
            f"complementary candidate moves mu by {moved}, expected {dec.lam0.dim}"
        )
    return result
