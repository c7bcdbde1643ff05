"""The four benchmark workloads: their inputs, their items and their checks.

An item is one path or one boundary problem, run through every route
its workload names and checked against ``oracles``. ``build(seed,
calls, workdir)`` makes a workload's batch of items; it is the set-up
the benchmark times. Items call maslovlab through module attributes
(``maslov.maslov_winding``, not a name imported from it), so that the
traced run sees every call.

The callables handed to maslovlab (path callbacks, Hermitian-matrix
callbacks, BVP coefficients C(s, t)) add one to ``calls.n`` per call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import maslovlab.bvp as bvp
import maslovlab.cli as cli
import maslovlab.frames as frames
import maslovlab.maslov as maslov
import maslovlab.sampling as sampling
import maslovlab.spectral as spectral
import maslovlab.symplectic as symplectic

import oracles

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
SCALAR_J0 = np.array([[-1j]])

# pair_paths: the item seeds are fixed, see build_pair_paths.
PAIR_TAG = 0x5041
PAIR_ITEMS = 80
PAIR_SAMPLES = 65
# varying_forms
VARY_TAG = 0x5646
VARY_ITEMS = 64
VARY_SAMPLES = 65
# reduction_c16: the first paths of acceptance criterion 04, see
# build_reduction_c16.
RED_TAG = 0xAC04
RED_SEED = 0
RED_ITEMS = 12
RED_DIM = 16
RED_SAMPLES = 25
RED_SCALES = (3.0, 0.8)
# spectral_flow
SPEC_TAG = 0x5350
SPEC_MATRIX_PATHS = 48
SPEC_CONSTANT_FAMILIES = ((SCALAR_J0, 1), (SCALAR_J0, 1), (J2, 2), (J2, 2))
# Coefficients stay inside [-C_MAX, C_MAX], below the 2.2 pi where a
# parasite branch of the discretizations starts to cross zero, and at
# least C_MIN away from zero at both ends.
C_MAX = 6.0
C_MIN = 0.25
CLI_SCENARIOS = (
    ("bvp_desuspension", "scalar_periodic", oracles.periodic_constant_flow(-1.0, 1.0, 1)),
    ("bvp_desuspension", "separated_lines", oracles.separated_lines_flow(0.0, 1.0, 0.0, 0.5)),
    ("bvp_desuspension", "planar_periodic", oracles.periodic_constant_flow(-1.0, 1.0, 2)),
    # cli draws the oscillation amplitudes from [0.2, 0.5].
    ("bvp_desuspension", "seeded", oracles.oscillating_periodic_flow(0.5)),
    ("bvp_splitting", "scalar_periodic", oracles.periodic_constant_flow(-1.0, 1.0, 1)),
    ("bvp_splitting", "planar_double", oracles.periodic_constant_flow(-1.0, 1.0, 2)),
)


class Calls:
    """Number of calls maslovlab made into the benchmark's callables."""

    def __init__(self):
        self.n = 0


@dataclass(frozen=True)
class Failure:
    """An item whose routes disagreed with its oracle, or raised.

    ``known`` marks the one program fault the benchmark keeps in its
    batch on purpose (``maslov_crossings`` dropping one of two crossings
    made by different branches inside one sample interval).
    """

    message: str
    known: bool = False


def _value(route, *args, **kwargs):
    """What a route returns, or the error it raised (a gate or an identity) as text."""
    try:
        return route(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _counts(route, *args, **kwargs):
    """(mas_plus, mas_minus) of a Maslov route, or the error it raised as text."""
    result = _value(route, *args, **kwargs)
    return result if isinstance(result, str) else (result.mas_plus, result.mas_minus)


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def line_frame(angles) -> np.ndarray:
    """Columns (cos a_i, sin a_i) placed in coordinates 2i, 2i+1 of C^2k."""
    angles = np.asarray(angles, dtype=float)
    k = angles.size
    m = np.zeros((2 * k, k), dtype=complex)
    cols = np.arange(k)
    m[2 * cols, cols] = np.cos(angles)
    m[2 * cols + 1, cols] = np.sin(angles)
    return m


def draw_lines(rng, k):
    """Start angles, rates in [-1.5 pi, 1.5 pi], and partner angles of k lines."""
    return (
        rng.uniform(0.0, math.pi, k),
        rng.uniform(-1.5 * math.pi, 1.5 * math.pi, k),
        rng.uniform(0.0, math.pi, k),
    )


def draw_change(rng, n):
    """General invertible P = U diag(d) V with d in [0.5, 2]."""
    return (_unitary(rng, n) * rng.uniform(0.5, 2.0, n)) @ _unitary(rng, n)


def pulled_back_form(p) -> np.ndarray:
    """J = P^-H (+)J2 P^-1, for which P maps (+)J2 to J."""
    pinv = np.linalg.inv(p)
    j0 = scipy.linalg.block_diag(*[J2] * (p.shape[0] // 2))
    return pinv.conj().T @ j0 @ pinv


# ---------------------------------------------------------------------------
# pair_paths


@dataclass(frozen=True)
class PairPathItem:
    """lam(s) = P (+)line(a + b s) against mu = P (+)line(c), one form J for the path."""

    label: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: np.ndarray
    j: np.ndarray
    calls: Calls

    def run(self) -> Failure | None:
        expected = oracles.line_sum_counts(self.a, self.b, self.c)
        form = symplectic.SymplecticForm(self.j)
        mu = frames.orthonormalize(self.p @ line_frame(self.c))

        def callback(s):
            self.calls.n += 1
            return form, frames.orthonormalize(self.p @ line_frame(self.a + self.b * s)), mu

        path = maslov.LagrangianPairPath.from_callable(callback, PAIR_SAMPLES)
        winding = _counts(maslov.maslov_winding, path)
        crossings = _counts(maslov.maslov_crossings, path)
        if winding != expected:
            return Failure(f"{self.label}: maslov_winding gave {winding}, closed form {expected}")
        if crossings != expected:
            known = oracles.close_crossings(self.a, self.b, self.c, PAIR_SAMPLES)
            return Failure(
                f"{self.label}: maslov_crossings gave {crossings}, closed form {expected}",
                known=known,
            )
        return None


def build_pair_paths(seed: int, calls: Calls, workdir: str):
    """80 fixed paths in C^2 to C^8; ``seed`` sets only the order they run in.

    Path 31 meets the maslov_crossings fault, on every run. Whether a
    path meets it depends on all of its data, the change of coordinates
    P included, so paths drawn from ``seed`` would fail on some seeds
    and not on others. The items are therefore drawn from fixed seeds
    (PAIR_TAG, index), and the failed share is the same in every run.
    """
    items = []
    for index in range(PAIR_ITEMS):
        rng = np.random.default_rng((PAIR_TAG, index))
        k = 1 + index % 4
        a, b, c = draw_lines(rng, k)
        p = draw_change(rng, 2 * k)
        items.append(PairPathItem(f"pair_paths[{index}] C^{2 * k}", a, b, c, p, pulled_back_form(p), calls))
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


# ---------------------------------------------------------------------------
# varying_forms


@dataclass(frozen=True)
class VaryingFormItem:
    """The pair_paths family moved by P(s) = expm(sK) P, so J(s) changes with s."""

    label: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: np.ndarray
    k: np.ndarray
    calls: Calls

    def run(self) -> Failure | None:
        expected = oracles.line_sum_counts(self.a, self.b, self.c)
        mu_lines = line_frame(self.c)

        def callback(s):
            self.calls.n += 1
            ps = scipy.linalg.expm(s * self.k) @ self.p
            form = symplectic.SymplecticForm(pulled_back_form(ps))
            lam = frames.orthonormalize(ps @ line_frame(self.a + self.b * s))
            return form, lam, frames.orthonormalize(ps @ mu_lines)

        path = maslov.LagrangianPairPath.from_callable(callback, VARY_SAMPLES)
        for name, route in (("maslov_winding", maslov.maslov_winding), ("diagonal_lift", maslov.diagonal_lift)):
            got = _counts(route, path)
            if got != expected:
                return Failure(f"{self.label}: {name} gave {got}, closed form {expected}")
        return None


def build_varying_forms(seed: int, calls: Calls, workdir: str):
    items = []
    for index in range(VARY_ITEMS):
        rng = np.random.default_rng((VARY_TAG, seed, index))
        k = 1 + index % 4
        a, b, c = draw_lines(rng, k)
        p = draw_change(rng, 2 * k)
        # Mostly a rotation, with a little stretch: P(s) stays within a
        # factor e^0.6 of P's conditioning.
        h_rot, h_stretch = (h / np.linalg.norm(h, 2) for h in (_hermitian(rng, 2 * k), _hermitian(rng, 2 * k)))
        generator = 1j * h_rot + 0.3 * h_stretch
        items.append(VaryingFormItem(f"varying_forms[{index}] C^{2 * k}", a, b, c, p, generator, calls))
    return items


# ---------------------------------------------------------------------------
# reduction_c16


def draw_rotating_pair(seed: int, trial: int):
    """(form, rot_lam, rot_mu) of acceptance criterion 04's family, via maslovlab.sampling."""
    rng = sampling.rng_from_seed((RED_TAG, seed, trial))
    form = sampling.random_symplectic_form(rng, RED_DIM)
    lam = sampling.random_lagrangian(rng, form)
    mu = sampling.random_lagrangian(rng, form)
    rot_lam = sampling.lagrangian_rotation(rng, form, lam, scale=RED_SCALES[0])
    rot_mu = sampling.lagrangian_rotation(rng, form, mu, scale=RED_SCALES[1])
    return form, rot_lam, rot_mu


@dataclass(frozen=True)
class ReductionItem:
    """A generic C^16 path with both legs rotating, by winding and by reduction."""

    label: str
    seed: int
    trial: int
    calls: Calls

    def run(self) -> Failure | None:
        form, rot_lam, rot_mu = draw_rotating_pair(self.seed, self.trial)

        def callback(s):
            self.calls.n += 1
            return form, rot_lam(s), rot_mu(s)

        path = maslov.LagrangianPairPath.from_callable(callback, RED_SAMPLES)
        winding = _counts(maslov.maslov_winding, path)
        reduced = _counts(maslov.maslov_reduced, path, seed=self.trial)
        if isinstance(winding, str) or reduced != winding:
            return Failure(f"{self.label}: maslov_reduced gave {reduced}, maslov_winding {winding}")
        ends = [(smp.lam.matrix, smp.mu.matrix) for smp in (path.samples[0], path.samples[-1])]
        defect = oracles.flipping_defect(*winding, *ends)
        if defect:
            return Failure(f"{self.label}: Mas+ - Mas- misses the intersection jump by {defect}")
        return None


def build_reduction_c16(seed: int, calls: Calls, workdir: str):
    """Trials 0 to 11 of acceptance criterion 04; ``seed`` sets only their order.

    Paths drawn from ``seed`` meet a maslov_reduced fault on some seeds
    only: in 288 seeded paths (18 seeds), trial 6 of seed 116 came back
    (-1, -1) where winding and crossings give (0, 0). The failed share
    would then change with the seed. Criterion 04's own paths keep the
    family and fail on no run.
    """
    items = [
        ReductionItem(f"reduction_c16[trial {trial}]", RED_SEED, trial, calls)
        for trial in range(RED_ITEMS)
    ]
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


# ---------------------------------------------------------------------------
# spectral_flow


@dataclass(frozen=True)
class MatrixPathItem:
    """A(s) = (1 - s) A0 + s A1 by eigenvalue flow and by the graph-relation route."""

    label: str
    a_start: np.ndarray
    a_end: np.ndarray
    calls: Calls

    def run(self) -> Failure | None:
        expected = oracles.morse_spectral_flow(self.a_start, self.a_end)

        def matrix(s):
            self.calls.n += 1
            return (1.0 - s) * self.a_start + s * self.a_end

        path = spectral.HermitianPath.from_callable(matrix, num_samples=33)
        form = spectral.canonical_product_form(self.a_start.shape[0])
        entries = [
            (float(s), form, spectral.graph_relation(matrix(float(s))))
            for s in np.linspace(0.0, 1.0, 33)
        ]
        eigen = _value(spectral.sf_eigen, path)
        relation = _value(spectral.sf_relation, entries, lambda s: (form, spectral.graph_relation(matrix(s))))
        if eigen != expected or relation != expected:
            return Failure(
                f"{self.label}: sf_eigen gave {eigen}, sf_relation {relation}, Morse indices {expected}"
            )
        return None


@dataclass(frozen=True)
class ConstantBvpItem:
    """Periodic J0 u' + (alpha s + beta) u on [0, 1], by desuspension and by splitting."""

    label: str
    j0: np.ndarray
    multiplicity: int
    c_start: float
    c_end: float
    cut: float
    calls: Calls

    def run(self) -> Failure | None:
        expected = oracles.periodic_constant_flow(self.c_start, self.c_end, self.multiplicity)
        k = self.j0.shape[0]
        eye = np.eye(k)
        slope = self.c_end - self.c_start

        def coefficient(s, t):
            self.calls.n += 1
            return (self.c_start + slope * s) * eye

        family = bvp.HamiltonianFamily(k, self.j0, coefficient)
        desuspension = _value(bvp.desuspension_check, family, bvp.periodic_condition(family))
        split = _value(bvp.splitting_check, family, self.cut)
        if desuspension != (expected, expected, True) or split != (expected, expected, True):
            return Failure(
                f"{self.label}: desuspension_check gave {desuspension}, "
                f"splitting_check {split}, closed form {expected}"
            )
        return None


@dataclass(frozen=True)
class CliItem:
    """One bvp scenario of ``maslovlab run``, in process, with its report and CSV files."""

    label: str
    config: str
    out_dir: str
    expected: int

    def run(self) -> Failure | None:
        got = _value(cli.run_config, self.config, out_dir=self.out_dir)
        if isinstance(got, str):
            return Failure(f"{self.label}: {got}")
        results = got[0]["results"]
        pairs = [results.get("sf"), results.get("neg_mas", results.get("neg_mas_cut")), results.get("agree")]
        if pairs != [self.expected, self.expected, True]:
            return Failure(f"{self.label}: report gave {pairs[:2]}, closed form {self.expected}")
        with open(os.path.join(self.out_dir, "report.json")) as fh:
            if json.load(fh)["results"] != results:
                return Failure(f"{self.label}: report.json differs from the returned payload")
        for name in got[0]["files"].values():
            with open(os.path.join(self.out_dir, name)) as fh:
                if sum(1 for _ in fh) < 2:
                    return Failure(f"{self.label}: {name} has no data rows")
        return None


def _coefficient_ends(rng) -> list[tuple[float, float]]:
    """(c0, c1) of each constant family, with the batch's work held steady.

    The ODE and refinement work of a family depends on |c| and on
    whether c crosses zero, and fully drawn ends made the callback count
    of a batch swing by 20 % between seeds. So |c| stays within 0.1 of
    the middles of four equal strata of [C_MIN, C_MAX]: family i takes
    stratum i at s = 0 and stratum 3 - i at s = 1. Of the two families
    of each J0, the first crosses zero and the second does not; the
    seed draws the signs, so the direction of each crossing and the
    side of each non-crossing family.
    """
    edges = np.linspace(C_MIN, C_MAX, len(SPEC_CONSTANT_FAMILIES) + 1)
    middles = (edges[:-1] + edges[1:]) / 2.0
    ends = []
    for index, (start, end) in enumerate(zip(middles, middles[::-1])):
        sign = rng.choice([-1.0, 1.0])
        flip = -1.0 if index % 2 == 0 else 1.0
        c0 = sign * (start + rng.uniform(-0.1, 0.1))
        c1 = flip * sign * (end + rng.uniform(-0.1, 0.1))
        ends.append((float(c0), float(c1)))
    return ends


def build_spectral_flow(seed: int, calls: Calls, workdir: str):
    rng = np.random.default_rng((SPEC_TAG, seed))
    items = []
    for kind, family, expected in CLI_SCENARIOS:
        name = f"{kind}_{family}"
        config = os.path.join(workdir, f"{name}.json")
        with open(config, "w") as fh:
            json.dump({"schema": 1, "kind": kind, "seed": seed, "parameters": {"family": family}}, fh)
        items.append(CliItem(f"cli {name}", config, os.path.join(workdir, name), expected))
    ends = _coefficient_ends(rng)
    for index, ((j0, multiplicity), (c_start, c_end)) in enumerate(zip(SPEC_CONSTANT_FAMILIES, ends)):
        cut = float(rng.uniform(0.25, 0.75))
        items.append(ConstantBvpItem(
            f"constant_bvp[{index}] k={j0.shape[0]} c={c_start:.3f}..{c_end:.3f}",
            j0, multiplicity, c_start, c_end, cut, calls,
        ))
    for index in range(SPEC_MATRIX_PATHS):
        dim = 2 + index % 7
        items.append(MatrixPathItem(
            f"matrix_path[{index}] dim {dim}", _hermitian(rng, dim), _hermitian(rng, dim), calls
        ))
    # Shuffled, the short matrix-path items (the median item) are spread
    # over the round instead of meeting one stretch of machine speed.
    order = rng.permutation(len(items))
    return [items[i] for i in order]


WORKLOADS = {
    "pair_paths": build_pair_paths,
    "varying_forms": build_varying_forms,
    "reduction_c16": build_reduction_c16,
    "spectral_flow": build_spectral_flow,
}
