"""Answers the benchmark checks maslovlab against, worked out apart from it.

Nothing here imports maslovlab. Each oracle is either a closed form
that follows from the standard properties of the Maslov index and of
spectral flow (normalisation, direct-sum additivity, naturality under a
change of coordinates, homotopy invariance), or a property every
correct route must have, computed with plain numpy.
"""

from __future__ import annotations

import math

import numpy as np

# Endpoint data closer than this to a crossing value has no generic
# closed form (the endpoint conventions of Mas_+ and Mas_- differ there).
GENERIC_MARGIN = 1e-6


class NoClosedForm(ValueError):
    """The input is not generic enough for the closed form to apply."""


def _multiples_passed(start: float, end: float, period: float) -> int:
    """Signed count of multiples of ``period`` passed going from start to end.

    A value rising through k*period adds one, falling through it removes
    one. Both ends must stay clear of the multiples.
    """
    for value in (start, end):
        turns = value / period
        if abs(turns - round(turns)) * period <= GENERIC_MARGIN:
            raise NoClosedForm(f"endpoint value {value!r} sits on a multiple of {period!r}")
    return math.floor(end / period) - math.floor(start / period)


def line_sum_counts(a, b, c) -> tuple[int, int]:
    """(Mas_+, Mas_-) of lam(s) = (+)_i line(a_i + b_i s) against mu = (+)_i line(c_i).

    line(t) = span{(cos t, sin t)} in C^2 with J2 = [[0, -1], [1, 0]].
    By normalisation (the path span{(1, s - 1/2)} against span{e1}
    counts (1, 1)), one line whose angle relative to its partner rises
    through a multiple of pi adds (1, 1) and one that falls through it
    adds (-1, -1). Direct-sum additivity sums the lines, and naturality
    carries the count through any change of coordinates P (or P(s)).
    Both endpoints must be transversal, so Mas_+ = Mas_-.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    total = sum(
        _multiples_passed(float(ai - ci), float(ai + bi - ci), math.pi)
        for ai, bi, ci in zip(a, b, c)
    )
    return total, total


def crossing_times(a, b, c) -> list[tuple[float, int]]:
    """(s, line index) of every crossing of the line_sum_counts path, in s order.

    Line i meets its partner where a_i + b_i s - c_i is a multiple of pi.
    """
    times = []
    for i, (ai, bi, ci) in enumerate(zip(a, b, c)):
        lo, hi = sorted((ai - ci, ai + bi - ci))
        for k in range(math.floor(lo / math.pi) + 1, math.floor(hi / math.pi) + 1):
            times.append(((k * math.pi - (ai - ci)) / bi, i))
    return sorted(times)


def close_crossings(a, b, c, num_samples: int) -> bool:
    """Whether two different lines cross inside one interval of a uniform grid."""
    cells = [(math.floor(s * (num_samples - 1)), i) for s, i in crossing_times(a, b, c)]
    return any(
        cell == next_cell and i != j for (cell, i), (next_cell, j) in zip(cells, cells[1:])
    )


def morse_spectral_flow(a_start, a_end, zero_tol: float = 1e-9) -> int:
    """Spectral flow of a Hermitian path as n_-(A(0)) - n_-(A(1)).

    In finite dimensions the net number of eigenvalues crossing from
    negative to non-negative depends only on the endpoint Morse indices.
    Both endpoints must be invertible.
    """
    counts = []
    for matrix in (a_start, a_end):
        eigs = np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))
        if np.min(np.abs(eigs)) <= zero_tol * max(1.0, np.max(np.abs(eigs))):
            raise NoClosedForm("an endpoint matrix is not invertible")
        counts.append(int(np.sum(eigs < 0)))
    return counts[0] - counts[1]


def periodic_constant_flow(c_start: float, c_end: float, multiplicity: int) -> int:
    """Spectral flow of J0 d/dt + c(s) on periodic functions on [0, 1].

    For C(s, t) = c(s) I constant in t, with J0 = -i (multiplicity 1) or
    J0 = J2 (multiplicity 2), the periodic spectrum is {c + 2 pi m}:
    J0 u' = (E - c) u has a periodic solution exactly when E - c is a
    multiple of 2 pi, with a solution space of dimension 1 for -i and 2
    for J2. An eigenvalue c + 2 pi m moves from negative to non-negative
    when c rises through -2 pi m, so the flow counts the multiples of
    2 pi that c passes, times the multiplicity.
    """
    return multiplicity * _multiples_passed(c_start, c_end, 2.0 * math.pi)


def separated_lines_flow(c_start: float, c_end: float, angle_start: float, angle_end: float) -> int:
    """Spectral flow of J2 d/dt + c(s) on [0, 1] with u(0) in line(a0), u(1) in line(a1).

    J2 u' = (E - c) u rotates u by -(E - c) over the interval, so E is
    an eigenvalue when a0 - (E - c) = a1 mod pi: the spectrum is
    {c - (a1 - a0) + m pi}, each simple. The flow counts the multiples
    of pi that c - (a1 - a0) passes.
    """
    shift = angle_end - angle_start
    return _multiples_passed(c_start - shift, c_end - shift, math.pi)


def oscillating_periodic_flow(max_amplitude: float) -> int:
    """Spectral flow of the planar periodic family with an oscillating coefficient.

    C(s, t) = O(t) + (2s - 1) I with O(t) = [[a0 cos, a2 sin], [a2 sin,
    -a1 cos]](2 pi t) and every a_i <= max_amplitude. Scaling O to zero
    is a homotopy of families. Its endpoint operators J2 d/dt + O -/+ I
    stay invertible along it when ||O(t)|| < 1, since the unperturbed
    endpoint spectra {2 pi m -/+ 1} keep distance 1 from zero. The
    Frobenius norm gives ||O(t)||^2 <= max(a0^2 + a1^2, 2 a2^2). The
    count is therefore that of zero amplitude, periodic_constant_flow(-1,
    1, 2) = 2.
    """
    bound = math.sqrt(2.0) * max_amplitude
    if bound >= 1.0:
        raise NoClosedForm(f"oscillation norm bound {bound:.3f} does not stay below 1")
    return periodic_constant_flow(-1.0, 1.0, 2)


def intersection_dim(lam, mu, rank_tol: float = 1e-8) -> int:
    """dim(lam inter mu) for two frames with orthonormal columns, from one SVD.

    With n1 + n2 columns stacked, the intersection dimension is
    n1 + n2 - rank[lam | mu].
    """
    stack = np.concatenate([np.asarray(lam), np.asarray(mu)], axis=1)
    sv = np.linalg.svd(stack, compute_uv=False)
    rank = int(np.sum(sv > rank_tol * max(1.0, sv[0])))
    return stack.shape[1] - rank


def flipping_defect(mas_plus: int, mas_minus: int, start_pair, end_pair) -> int:
    """(Mas_+ - Mas_-) - (dim(lam(0) cap mu(0)) - dim(lam(1) cap mu(1))); 0 when it holds."""
    jump = intersection_dim(*start_pair) - intersection_dim(*end_pair)
    return (mas_plus - mas_minus) - jump

