"""Hand-worked cases for the benchmark's oracles.

Run from the repository root with ``python3 -m pytest bench/test_oracles.py``.
"""

import math

import numpy as np
import pytest

import oracles

HALF = math.atan(0.5)


@pytest.mark.parametrize(
    ("a", "b", "c", "expected"),
    [
        # span{(1, s - 1/2)} against e1, taken as a line turning at a
        # constant rate through the same angles: one rising crossing.
        ([-HALF], [2 * HALF], [0.0], (1, 1)),
        ([0.3], [-0.6], [0.0], (-1, -1)),  # falls through 0
        ([0.2], [0.5], [0.0], (0, 0)),  # stays inside (0, pi)
        ([-0.5], [4.0], [0.0], (2, 2)),  # rises through 0 and pi
        ([1.0], [1.0], [1.5], (1, 1)),  # relative angle -0.5 .. 0.5
        ([-HALF, 0.3], [2 * HALF, -0.6], [0.0, 0.0], (0, 0)),  # one up, one down
        ([-HALF, -0.5], [2 * HALF, 4.0], [0.0, 0.0], (3, 3)),  # additivity
    ],
)
def test_line_sum_counts(a, b, c, expected):
    assert oracles.line_sum_counts(a, b, c) == expected


def test_line_sum_counts_refuses_an_endpoint_crossing():
    with pytest.raises(oracles.NoClosedForm):
        oracles.line_sum_counts([0.0], [1.0], [0.0])
    with pytest.raises(oracles.NoClosedForm):
        oracles.line_sum_counts([0.5], [math.pi - 0.5], [0.0])


def test_crossing_times_and_close_crossings():
    # Line 0 rises through pi at s = 0.5; line 1 falls through 0 at s = 0.51.
    a, b, c = [math.pi - 1.0, 1.0], [2.0, -1.0 / 0.51], [0.0, 0.0]
    times = oracles.crossing_times(a, b, c)
    assert [i for _, i in times] == [0, 1]
    assert [s for s, _ in times] == pytest.approx([0.5, 0.51])
    # With 65 samples, 0.5 and 0.51 share the interval [0.5, 0.515625].
    assert oracles.close_crossings(a, b, c, 65)
    # With 129 samples they fall in [0.5, 0.5078) and [0.5078, 0.5156).
    assert not oracles.close_crossings(a, b, c, 129)
    # Two crossings of one line in one interval do not count.
    assert not oracles.close_crossings([-0.01], [math.pi + 0.02], [0.0], 2)


def test_morse_spectral_flow():
    assert oracles.morse_spectral_flow(np.diag([-1.0, 2.0]), np.diag([3.0, 2.0])) == 1
    assert oracles.morse_spectral_flow(np.diag([1.0, 1.0]), np.diag([-1.0, -2.0])) == -2
    assert oracles.morse_spectral_flow(np.diag([-1.0, 1.0]), np.diag([1.0, -1.0])) == 0
    with pytest.raises(oracles.NoClosedForm):
        oracles.morse_spectral_flow(np.diag([0.0, 1.0]), np.eye(2))


@pytest.mark.parametrize(
    ("c_start", "c_end", "multiplicity", "expected"),
    [
        (-1.0, 1.0, 1, 1),  # 2s - 1 on the scalar problem
        (-1.0, 1.0, 2, 2),  # 2s - 1 on the planar problem
        (1.0, 7.0, 1, 1),  # passes 2 pi only
        (7.0, -1.0, 1, -2),  # falls through 2 pi and 0
        (0.5, 6.0, 2, 0),  # stays inside (0, 2 pi)
        (-6.0, 6.0, 2, 2),
    ],
)
def test_periodic_constant_flow(c_start, c_end, multiplicity, expected):
    assert oracles.periodic_constant_flow(c_start, c_end, multiplicity) == expected


def test_separated_lines_flow():
    # Spectrum {s - 0.5 + m pi}: the m = 0 branch rises through 0 at s = 0.5.
    assert oracles.separated_lines_flow(0.0, 1.0, 0.0, 0.5) == 1
    # Spectrum {c - 2 + m pi} for c in [0, 1]: the branches stay in (-pi, 0) and (0, pi).
    assert oracles.separated_lines_flow(0.0, 1.0, 0.0, 2.0) == 0


def test_oscillating_periodic_flow():
    assert oracles.oscillating_periodic_flow(0.5) == 2
    with pytest.raises(oracles.NoClosedForm):
        oracles.oscillating_periodic_flow(0.8)


def test_intersection_dim_and_flipping_defect():
    e = np.eye(4, dtype=complex)
    assert oracles.intersection_dim(e[:, [0]], e[:, [0]]) == 1
    assert oracles.intersection_dim(e[:, [0]], e[:, [1]]) == 0
    tilted = (e[:, [1]] + e[:, [2]]) / math.sqrt(2.0)
    assert oracles.intersection_dim(e[:, [0, 1]], np.hstack([e[:, [0]], tilted])) == 1
    transversal = (e[:, [0]], e[:, [1]])
    touching = (e[:, [0]], e[:, [0]])
    assert oracles.flipping_defect(1, 1, transversal, transversal) == 0
    # Mas+ - Mas- = dim(start cap) - dim(end cap) = 1 - 0.
    assert oracles.flipping_defect(1, 0, touching, transversal) == 0
    assert oracles.flipping_defect(1, 1, touching, transversal) == -1
