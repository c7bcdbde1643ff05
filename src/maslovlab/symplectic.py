"""Symplectic forms on C^N and the splitting into definite subspaces.

A symplectic form is omega(x, y) = <J x, y> = y^H J x for an invertible
skew-Hermitian J. omega is linear in the first argument, conjugate
linear in the second, and omega(y, x) = -conj(omega(x, y)).

The splitting X = X^- (+) X^+ consists of the negative and positive
eigenspaces of the Hermitian matrix -iJ. The form -i*omega is negative
definite on X^-, positive definite on X^+, and the two eigenspaces are
omega-orthogonal. Every Lagrangian subspace is the graph of a unitary
generator U: X^- -> X^+ with respect to the induced definite metrics,
written as lambda = {v + U v : v in X^-}.

The splitting is read off the eigendecomposition of -iJ that every form
keeps. An eigenvector x with eigenvalue lambda has metric norm
sqrt(|lambda|), so in the bases x / sqrt(|lambda|) both definite
metrics are the identity. Generators are computed in those bases, where
a subspace is Lagrangian exactly when its generator is an ordinary
unitary matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frames import (
    RANK_TOL,
    Frame,
    _block_diag,
    exceeds_scaled_tol,
    gap_delta,
    hermitian_eig,
    intersect,
    orth_complement,
    orthonormalize,
)

__all__ = [
    "SymplecticForm",
    "SymplecticSplitting",
    "direct_sum",
    "standard_form",
    "omega_eval",
    "omega_matrix",
    "annihilator",
    "classify",
    "splitting",
    "normalize_strong",
    "unitary_generator",
    "lagrangian_generators",
    "isotropy_residuals",
    "lagrangian_mask",
    "generator_to_frame",
    "transform_form",
]


@dataclass(frozen=True)
class SymplecticForm:
    """Invertible skew-Hermitian matrix defining omega(x, y) = y^H J x.

    Construction rejects non-finite entries, symmetrizes away anti-skew
    noise below 1e-12 (relative) and rejects anything larger, as well as
    matrices whose smallest singular value is at most 1e-10 times the
    largest. The 0x0 form is allowed and represents the trivial
    symplectic space, which shows up as the reduction of a Lagrangian
    subspace by itself.

    The check runs one Hermitian eigendecomposition of H = -iJ and keeps
    it as ``eig`` (eigenvalues ascending, eigenvectors as columns). The
    singular values of J are the moduli of those eigenvalues, so the
    smallest one is kept as ``sigma_min``, and the splitting (see
    :func:`splitting`) and :func:`normalize_strong` read ``eig`` instead
    of decomposing again. The splitting is computed on first use
    and then kept with the form. :func:`direct_sum` builds a form from
    its summands' ``eig`` without decomposing at all.
    """

    j: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.j, dtype=complex)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError("form matrix must be square")
        if j.size and not np.isfinite(j).all():
            raise ValueError("form matrix has non-finite entries")
        skew = (j - j.conj().T) / 2.0
        defect = np.max(np.abs(j - skew), initial=0.0)
        if exceeds_scaled_tol(defect, j, 1e-12):
            raise ValueError(f"form matrix is not skew-Hermitian (residual {defect:.3e})")
        h = -1j * skew
        vals, vecs = hermitian_eig((h + h.conj().T) / 2.0)
        self._set(skew, vals, vecs, _sigma_min(vals))

    def _set(self, j: np.ndarray, vals: np.ndarray, vecs: np.ndarray, sigma_min: float) -> None:
        """Store J, the eigenpairs of -iJ and the sigma_min of their singular gate."""
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "eig", (vals, vecs))
        object.__setattr__(self, "sigma_min", sigma_min)

    @property
    def dim(self) -> int:
        return self.j.shape[0]

    @cached_property
    def _splitting(self) -> "SymplecticSplitting":
        # Eigenvectors of the checked Hermitian decomposition, or blocks
        # of them, are orthonormal to roundoff, as SVD columns are.
        vals, vecs = self.eig
        roots = np.sqrt(np.abs(vals))
        plus, minus = vals > 0, vals < 0
        return SymplecticSplitting(
            Frame._of_orthonormal(vecs[:, plus]),
            Frame._of_orthonormal(vecs[:, minus]),
            roots[plus],
            roots[minus],
        )


def direct_sum(*forms: SymplecticForm, signs=None) -> SymplecticForm:
    """The form sign_1 J_1 (+) ... (+) sign_k J_k on the direct sum of the spaces.

    ``signs`` holds one of +1 and -1 per summand (default all +1). The
    matrix is that of ``SymplecticForm(block_diag(...))``, bit for bit,
    and so is the singular gate, but no decomposition runs: the
    eigenpairs of -i(-J) are (-lambda, v), and those of a block-diagonal
    matrix are its blocks' eigenpairs padded with zeros. The eigenvectors
    may differ from a fresh decomposition by a unitary inside each
    eigenspace, so the splitting subspaces agree to roundoff while their
    frames need not.
    """
    signs = (1,) * len(forms) if signs is None else tuple(signs)
    if len(signs) != len(forms) or any(sign not in (1, -1) for sign in signs):
        raise ValueError("direct_sum needs one sign, +1 or -1, per summand")
    return _assembled(
        [_skew(sign * form.j) for sign, form in zip(signs, forms)],
        np.concatenate([sign * form.eig[0] for sign, form in zip(signs, forms)]),
        _block_diag([form.eig[1] for form in forms]),
    )


def _doubled_eig(forms) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of -i(J (+) -J) and -i(-J (+) J) for a stack of forms, bit for bit those of ``direct_sum``.

    The forms share one dimension N. Returns ``vals`` (2, m, 2N) and
    ``vecs`` (2, m, 2N, 2N): index 0 holds the eigenpairs that
    ``direct_sum(form, form, signs=(1, -1)).eig`` keeps, index 1 those
    of ``signs=(-1, 1)``. The eigendata is doubled in one pass: one
    stack of block-diagonal eigenvector matrices, and one stable
    ascending argsort of the doubled eigenvalues and one column take,
    the order :func:`direct_sum` takes. No doubled matrix is built and
    none is decomposed. The moduli of the eigenvalues +-lambda are those
    of the lambda, so a doubled form would pass its summand's singular
    gate.
    """
    vals = np.stack([f.eig[0] for f in forms])
    vecs = np.stack([f.eig[1] for f in forms])
    m, n = vals.shape
    both = np.zeros((1, m, 2 * n, 2 * n), dtype=complex)
    both[..., :n, :n] = both[..., n:, n:] = vecs
    signed = np.stack([np.concatenate([sign * vals, -sign * vals], axis=-1) for sign in (1, -1)])
    order = np.argsort(signed, axis=-1, kind="stable")
    return (
        np.take_along_axis(signed, order, axis=-1),
        np.take_along_axis(both, order[..., None, :], axis=-1),
    )


def _skew(j: np.ndarray) -> np.ndarray:
    """(J - J^H) / 2: the bits :class:`SymplecticForm` stores for a skew-Hermitian J, or a stack of them."""
    return (j - j.conj().swapaxes(-1, -2)) / 2.0


def _sigma_min(vals: np.ndarray) -> float:
    """sigma_min(J) from the eigenvalues of -iJ, after the singular gate."""
    moduli = np.abs(vals)
    sigma_min = float(moduli.min()) if moduli.size else 0.0
    if moduli.size and sigma_min <= 1e-10 * moduli.max():
        raise ValueError("form matrix is numerically singular (not invertible)")
    return sigma_min


def _wrapped(j: np.ndarray, vals: np.ndarray, vecs: np.ndarray, sigma_min: float) -> SymplecticForm:
    """The form with matrix J, eigenpairs (vals, vecs) of -iJ and a checked ``sigma_min``, no decomposition."""
    out = object.__new__(SymplecticForm)
    out._set(j, vals, vecs, sigma_min)
    return out


def _assembled(blocks, vals: np.ndarray, vecs: np.ndarray) -> SymplecticForm:
    """The form with block-diagonal matrix ``blocks`` and eigenpairs (vals, vecs), no decomposition.

    The columns of ``vecs`` are taken in the stable ascending order of
    ``vals``. Re-symmetrizing a block-diagonal matrix leaves its zero
    blocks as they are, so skewing each block gives the bits of skewing
    the whole matrix.
    """
    order = np.argsort(vals, kind="stable")
    return _wrapped(_block_diag(blocks), vals[order], vecs[:, order], _sigma_min(vals))


def standard_form(n: int) -> SymplecticForm:
    """Standard form J_2n = [[0, -I], [I, 0]] on C^(2n)."""
    z = np.zeros((n, n))
    eye = np.eye(n)
    return SymplecticForm(np.block([[z, -eye], [eye, z]]))


def omega_eval(form: SymplecticForm, x, y) -> complex:
    """omega(x, y) = <J x, y>."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return complex(y.conj() @ (form.j @ x))


def omega_matrix(form: SymplecticForm, a: Frame, b: Frame) -> np.ndarray:
    """Matrix of omega paired on two frames: entry [i, j] = omega(a_j, b_i).

    For coordinate vectors x (in frame a) and y (in frame b) this gives
    omega(a x, b y) = y^H M x. With a = b it is the skew-Hermitian Gram
    matrix of the restricted form.
    """
    return b.matrix.conj().T @ form.j @ a.matrix


def annihilator(form: SymplecticForm, lam: Frame) -> Frame:
    """Annihilator lambda^omega = (J lambda)^perp."""
    if lam.dim == 0:
        return Frame.full(form.dim)
    return orth_complement(orthonormalize(form.j @ lam.matrix))


def isotropy_residuals(j: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals delta(lam, lam^omega) and ranks of J lam for a stack of frames.

    ``j`` is one form matrix or a stack of m of them, ``frames`` a stack
    of m orthonormal N x k frames (k >= 1). The residual is ||Q^H lam||
    with Q an orthonormal basis of J lam after the RANK_TOL cut that
    :func:`annihilator` applies; lam^omega is the orthogonal complement
    of Q, so this is the one-sided gap from lam to its annihilator.
    """
    u, s, _ = np.linalg.svd(j @ frames, full_matrices=False)
    keep = s > RANK_TOL * s[..., :1]
    q = u * keep[..., None, :]
    overlap = np.linalg.svd(q.conj().swapaxes(-1, -2) @ frames, compute_uv=False)
    return np.minimum(overlap[..., 0], 1.0), keep.sum(axis=-1)


def lagrangian_mask(forms, frames: np.ndarray) -> np.ndarray:
    """Which frames of a stack :func:`classify` reports as 'lagrangian'.

    ``forms`` holds one form per frame, or one form shared by all of
    them, and ``frames`` is a stack of m orthonormal N x k frames
    (k >= 1). The rule is that of :func:`isotropy_residuals`: the
    residual is at most 10 ``RANK_TOL`` and k + rank J lam = N.

    Most frames pass by a certificate that needs no SVD. The singular
    values of J lam lie in [sigma_min(J), sigma_max(J)], so when the
    form has sigma_min(J) > 2 ``RANK_TOL`` sigma_max(J), the rank cut
    keeps all k of them, and Q can come from a QR factorization of
    J lam. Such a frame with 2k = N passes when ||Q^H lam||_F, which
    bounds the 2-norm residual from above, is at most
    (1 - 1e-6) 10 ``RANK_TOL``. The certificate of every form is read
    from one stack of the moduli of their eigenvalues. Every frame the
    certificate does not pass goes through the SVD rule, so each
    decision is that rule's.
    """
    n, k = frames.shape[-2:]
    shared = len(forms) == 1
    j = np.stack([f.j for f in forms])
    passed = np.zeros(len(frames), dtype=bool)
    if 2 * k == n:
        sure = _certain_ranks(np.abs(np.stack([f.eig[0] for f in forms])))
        idx = np.flatnonzero(np.broadcast_to(sure, passed.shape))
        if idx.size:
            q = np.linalg.qr((j if shared else j[idx]) @ frames[idx])[0]
            overlap = np.linalg.norm(q.conj().swapaxes(-1, -2) @ frames[idx], axis=(-2, -1))
            passed[idx] = overlap <= (1 - 1e-6) * 10 * RANK_TOL
    rest = np.flatnonzero(~passed)
    if rest.size:
        residual, rank = isotropy_residuals(j if shared else j[rest], frames[rest])
        passed[rest] = (residual <= 10 * RANK_TOL) & (k + rank == n)
    return passed


def _certain_ranks(moduli: np.ndarray) -> np.ndarray:
    """Whether rank J lam = dim lam is certain for every orthonormal frame
    lam, for each row of a stack of |eigenvalues of -iJ|.

    The moduli are the singular values of J. True when sigma_min(J) >
    2 ``RANK_TOL`` sigma_max(J); the factor 2 leaves room for roundoff
    against the rank cut of :func:`isotropy_residuals`.
    """
    return moduli.min(axis=-1) > 2 * RANK_TOL * moduli.max(axis=-1)


def classify(form: SymplecticForm, lam: Frame) -> str:
    """Position of a subspace relative to its annihilator.

    Returns one of 'lagrangian', 'isotropic', 'coisotropic', 'symplectic',
    'generic'. A Lagrangian subspace is reported as 'lagrangian' rather
    than as both isotropic and coisotropic; the zero subspace is
    'isotropic'.

    Isotropy is the one residual delta(lam, lam^omega) of
    :func:`isotropy_residuals`. When dim lam^omega = dim lam, co-isotropy
    is the same test, because the one-sided gap is symmetric between
    subspaces of equal dimension; so a Lagrangian is recognized without
    building its annihilator.
    """
    if lam.dim == 0:
        return "lagrangian" if form.dim == 0 else "isotropic"
    tol = 10 * RANK_TOL
    residual, rank = isotropy_residuals(form.j, lam.matrix[None])
    iso = residual[0] <= tol
    if iso and lam.dim + rank[0] == form.dim:
        return "lagrangian"
    ann = annihilator(form, lam)
    coiso = iso if ann.dim == lam.dim else gap_delta(ann, lam) <= tol
    if iso and coiso:
        return "lagrangian"
    if iso:
        return "isotropic"
    if coiso:
        return "coisotropic"
    if intersect(lam, ann).dim == 0:
        return "symplectic"
    return "generic"


@dataclass(frozen=True)
class SymplecticSplitting:
    """Eigenspace splitting of -iJ with the induced definite metrics.

    ``x_plus`` and ``x_minus`` are orthonormal eigenvector frames for the
    positive and negative eigenspaces, ``root_plus`` and ``root_minus``
    the square roots of the moduli of their eigenvalues. The definite
    metrics (-i*omega on X^+, +i*omega on X^-) are diagonal in these
    frames with entries root**2, so the columns of x_plus / root_plus
    and x_minus / root_minus are metric-orthonormal.
    """

    x_plus: Frame
    x_minus: Frame
    root_plus: np.ndarray
    root_minus: np.ndarray


def splitting(form: SymplecticForm) -> SymplecticSplitting:
    """Split C^N into the definite eigenspaces of -iJ.

    The eigenspaces and their eigenvalues are read off the
    eigendecomposition the form keeps from its construction
    (``form.eig``); no decomposition runs here. The form's singular gate
    already keeps every eigenvalue away from 0 relative to the largest,
    so no further threshold applies. The splitting is computed once per
    form object and kept on it, so paths that carry one form for every s
    split it once.
    """
    return form._splitting


def normalize_strong(form: SymplecticForm):
    """Polar-normalize to an equivalent form with J'^2 = -I.

    Writes J = i H with H Hermitian invertible and returns
    (J' = i sign(H), T = |H|^(1/2)) satisfying T^H J' T = J. The
    splitting eigenspaces of J' coincide with those of J.
    """
    vals, vecs = form.eig
    sign = (vecs * np.sign(vals)) @ vecs.conj().T
    t = (vecs * np.sqrt(np.abs(vals))) @ vecs.conj().T
    jn = 1j * sign
    jn = (jn - jn.conj().T) / 2.0
    return SymplecticForm(jn), t


def unitary_generator(form: SymplecticForm, lam: Frame) -> np.ndarray:
    """Coordinate matrix of the generator U: X^- -> X^+ of a Lagrangian.

    The matrix is taken in the metric-orthonormal bases of the splitting:
    it maps coordinates on x_minus / root_minus to coordinates on
    x_plus / root_plus, so that
    lam = span(x_minus / root_minus + (x_plus / root_plus) @ U). A
    subspace is Lagrangian exactly when U is unitary. This is the
    one-frame call to :func:`lagrangian_generators`, with its checks
    and errors.
    """
    return lagrangian_generators([form], [lam])[0]


class _NotLagrangian(ValueError):
    """The frame at ``index`` of a checked stack is ``kind``, not Lagrangian."""

    def __init__(self, index: int, kind: str):
        super().__init__(f"subspace is {kind}, not lagrangian")
        self.index, self.kind = index, kind


def lagrangian_generators(forms, frames) -> np.ndarray:
    """The Lagrangian check: generators (m, n, n) of m frames, each verified Lagrangian.

    ``forms`` holds one form per frame, or one form shared by all of
    them; all forms have one dimension. Each distinct (form object,
    frame object) pair is checked and solved once, and its generator is
    returned at every position where the pair occurs, so a frame that
    a stack repeats, such as a constant mu, costs one element. The
    checks run in this order:

    * every splitting is balanced; otherwise no Lagrangian exists and
      ValueError says so;
    * every frame is Lagrangian. Frames of one shape go through the
      stacked isotropy test :func:`lagrangian_mask`; :func:`classify`
      decides each frame the test rejects, and the first frame that is
      not Lagrangian raises ValueError ("subspace is {kind}, not
      lagrangian"), naming the first position where that pair occurs;
    * every generator is unitary, ||U^H U - I||_max <= 1e-10; the first
      that is not raises ArithmeticError.

    The first two are the decision; the solve and the unitarity gate are
    :func:`_generators`, which takes the checked frames with their
    forms' stacked eigendata.
    """
    shared = all(f is forms[0] for f in forms)
    # One element per distinct (form, frame) pair, in order of first
    # occurrence, so the first failing element is the first failing
    # position.
    slots: dict = {}
    first, where = [], []
    for i, frame in enumerate(frames):
        key = (id(forms[0 if shared else i]), id(frame))
        if key not in slots:
            slots[key] = len(first)
            first.append(i)
        where.append(slots[key])
    forms = forms[:1] if shared else [forms[i] for i in first]
    frames = [frames[i] for i in first]
    vals = np.stack([f.eig[0] for f in forms])
    plus = (vals > 0).sum(axis=-1)
    minus = vals.shape[-1] - plus
    if (plus != minus).any():
        i = np.flatnonzero(plus != minus)[0]
        raise ValueError(
            "splitting halves have different dimensions "
            f"({plus[i]} vs {minus[i]}); no Lagrangians exist"
        )
    mats = [f.matrix for f in frames]
    n, k = mats[0].shape
    if k and all(m.shape == (n, k) for m in mats) and vals.shape[-1] == n:
        mats = np.stack(mats)
        passed = lagrangian_mask(forms, mats)
    else:
        passed = np.zeros(len(frames), dtype=bool)
    for i in np.flatnonzero(~passed):
        kind = classify(forms[0 if shared else i], frames[i])
        if kind != "lagrangian":
            raise _NotLagrangian(first[i], kind)
    return _generators(vals, np.stack([f.eig[1] for f in forms]), np.asarray(mats))[where]


def _generators(vals: np.ndarray, vecs: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Generators (m, n, n) of a stack of m Lagrangian N x n frames, N = 2n, with the unitarity gate.

    ``vals`` (p, N) and ``vecs`` (p, N, N) stack the eigenpairs of -iJ
    that each frame's form keeps: p = m, or p = 1 for a form all the
    frames share. The frames must already be decided Lagrangian and
    each splitting balanced: this is the solve of the Lagrangian check,
    not its decision. The eigenvalues ascend, so a balanced splitting of
    C^2n has X^- in the first n eigenvector columns and X^+ in the last
    n, with roots sqrt(|eigenvalue|), the frames :func:`splitting`
    keeps; the generators are in the bases of :func:`unitary_generator`,
    with no :class:`SymplecticSplitting` per form. Every generator must
    be unitary, ||U^H U - I||_max <= 1e-10; the first that is not raises
    ArithmeticError.
    """
    half = vals.shape[-1] // 2
    roots = np.sqrt(np.abs(vals))
    root_minus, root_plus = roots[:, None, :half], roots[:, half:, None]
    c_minus = vecs[..., :half].conj().swapaxes(-1, -2) @ frames
    c_plus = vecs[..., half:].conj().swapaxes(-1, -2) @ frames
    u = np.linalg.solve(c_minus.swapaxes(-1, -2), c_plus.swapaxes(-1, -2)).swapaxes(-1, -2)
    u = root_plus * u / root_minus
    res = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))
    bad = np.flatnonzero(res > 1e-10)
    if bad.size:
        raise ArithmeticError(f"generator fails unitarity (residual {res[bad[0]]:.3e})")
    return u


def generator_to_frame(split: SymplecticSplitting, u: np.ndarray) -> Frame:
    """Lagrangian frame {v + U v : v in X^-} from a unitary generator.

    ``u`` is in the metric-orthonormal bases of :func:`unitary_generator`.
    The frame orthonormalizes the graphs of the orthonormal eigenvectors
    x_minus, whose metric coordinates are root_minus.
    """
    graph = split.x_plus.matrix @ (u * split.root_minus / split.root_plus[:, None])
    return orthonormalize(split.x_minus.matrix + graph)


def transform_form(form: SymplecticForm, l: np.ndarray) -> SymplecticForm:
    """Push a form through an invertible map: omega'(x, y) = omega(L^-1 x, L^-1 y).

    The pair (L lambda, omega') relates to (lambda, omega) by naturality:
    L^H J' L = J.
    """
    linv = np.linalg.inv(l)
    jp = linv.conj().T @ form.j @ linv
    jp = (jp - jp.conj().T) / 2.0
    return SymplecticForm(jp)
