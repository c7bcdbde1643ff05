"""Evaluation and refinement of sampled Lagrangian pair paths.

:class:`Memo` evaluates a path from its samples or by one callback call
per parameter. :func:`refine` halves steps until the caller's step test
accepts them; path construction and angle-branch continuation use it,
with one depth cap and one error. Hermitian paths need neither: their
eigenvalue curves are the spectra at the samples. Both kinds of path
check their sample times with :func:`check_sample_times`.
"""

from __future__ import annotations

import bisect
import math

MOVEMENT_GATE = math.pi / 2
MAX_REFINE_DEPTH = 40


def check_sample_times(times) -> list[float]:
    """The sample times as floats, checked to run from 0 to 1 and to increase strictly."""
    times = [float(s) for s in times]
    if len(times) < 2:
        raise ValueError("a path needs at least two samples")
    if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12:
        raise ValueError("path samples must start at s=0 and end at s=1")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing")
    return times


class Memo:
    """Values of a path by parameter: its samples, then every callback value.

    The sample times must pass :func:`check_sample_times`. A
    parameter within 1e-13 of a sample reads that sample. Any other
    parameter is passed to the callback once and its value is kept, so
    refinement, bisection, finite differences and scans never evaluate
    the path twice at one parameter.
    """

    def __init__(self, times, values):
        self.times = check_sample_times(times)
        self.values = dict(zip(self.times, values))

    def evaluate(self, s: float, callback):
        """Value at s, calling ``callback`` only for a parameter not seen before."""
        s = float(s)
        hit = self.values.get(s)
        if hit is not None:
            return hit
        index = bisect.bisect_left(self.times, s - 1e-13)
        if index < len(self.times) and abs(self.times[index] - s) <= 1e-13:
            return self.values[self.times[index]]
        if callback is None:
            raise ValueError(
                f"path has no refinement callback, cannot evaluate between samples (s={s})"
            )
        value = self.values[s] = callback(s)
        return value


def refine(s_a, state_a, s_b, value_b, step, value_at, depth: int = 0) -> list:
    """Rows (s, state) on (s_a, s_b], halving every step that ``step`` rejects.

    ``step(s_a, state_a, s_b, value_b)`` returns the state at s_b reached
    from state_a, or a string saying why the step is too large. A
    rejected step is split at its midpoint, whose value comes from
    ``value_at``; the left half is continued first and the right half
    starts from the state it reaches. ``value_at`` is None for a path
    without a callback, and then a rejected step raises.
    """
    state_b = step(s_a, state_a, s_b, value_b)
    if not isinstance(state_b, str):
        return [(s_b, state_b)]
    if value_at is None:
        raise ValueError(
            f"insufficient sampling resolution: {state_b} and the path has no "
            "refinement callback"
        )
    if depth >= MAX_REFINE_DEPTH:
        raise ValueError(
            "insufficient sampling resolution: refinement depth exhausted "
            f"between s={s_a:.6f} and s={s_b:.6f}"
        )
    s_mid = 0.5 * (s_a + s_b)
    left = refine(s_a, state_a, s_mid, value_at(s_mid), step, value_at, depth + 1)
    return left + refine(s_mid, left[-1][1], s_b, value_b, step, value_at, depth + 1)
