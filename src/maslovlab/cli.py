"""Command-line driver: scenario runs, identity suites, and data export.

Two subcommands operate on the library:

``maslovlab run CONFIG.json`` executes the single scenario described by
a JSON config file and writes a report plus CSV curve files into the
output directory. Scenario kinds: maslov_path, spectral_flow,
reduction_demo, bvp_desuspension, bvp_splitting, property_suite. The
config is validated against CONFIG_FIELDS and PARAMETER_FIELDS before
anything runs. Reports carry no timestamps or absolute paths, so the
same config with the same seed reproduces the report byte for byte.

``maslovlab verify SUITE`` runs seeded trials of one checked identity
and prints a table row (identity, anchor, trials, failures). Each suite
in SUITES is a per-trial identity: a predicate that draws trial t of
seed s and returns whether the identity held there. ``run_suite`` counts
the failed trials, and any failure makes ``verify`` exit 3.

The bvp scenarios take their integers from the cores of the public
``desuspension_check`` and ``splitting_check``, handed the path
``discretize(fam, bc, grid, num_samples)`` whose spectra they export as
eigenvalue_curves.csv, so each end operator is assembled once,
eigen-solved once (values only) and factored once. A Morse count of an
end on which the spectrum and the LDL^H factorization disagree is a
numerical gate failure (exit 2).

Exit codes: 0 success or ``--help``; 1 config or usage error, with a
message naming the offending field; 2 numerical gate failure (sampling
resolution, conditioning, or integration tolerances); 3 violation of a
checked identity, with a message naming the identity.

The environment variable MASLOVLAB_SEED, when set, overrides the seed
from configs and flags.

CSV contracts: theta_curves.csv has columns (s, branch_index, theta)
listing the continued eigenvalue-angle branches of the relative
unitary; eigenvalue_curves.csv has columns (s, eig_index, value)
listing the sorted spectrum of a Hermitian path at each of its samples,
whose spectral flow is the difference of the end Morse indices. Rows are
ordered by s, so the s column is non-decreasing. Located crossings are
embedded in the JSON report, not exported as CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bvp import (
    HamiltonianFamily,
    _desuspension_counts,
    _splitting_counts,
    discretize,
    periodic_condition,
    separated_condition,
)
from .frames import Frame, _block_diag, gap_delta, orthonormalize
from .maslov import (
    LagrangianPairPath,
    benchmark_pair_path,
    diagonal_lift,
    hormander,
    maslov_crossings,
    maslov_reduced,
    maslov_winding,
)
from .sampling import (
    form_deformation,
    lagrangian_rotation,
    random_hermitian,
    random_lagrangian,
    random_lagrangian_pair,
    random_subspace,
    random_symplectic_form,
    rng_from_seed,
    rotating_pair_path,
)
from .spectral import (
    HermitianPath,
    canonical_product_form,
    cayley,
    eigenvalue_curves,
    graph_relation,
    kernel_dim,
    sf_eigen,
    sf_relation,
)
from .symplectic import SymplecticForm, direct_sum, transform_form

__all__ = [
    "SCHEMA_VERSION",
    "CONFIG_FIELDS",
    "PARAMETER_FIELDS",
    "SUITES",
    "ConfigError",
    "InvariantViolation",
    "run_config",
    "run_suite",
    "main",
]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """A scenario config violates the schema."""


class InvariantViolation(Exception):
    """A mathematical identity the scenario checks failed to hold."""


@dataclass(frozen=True)
class _Field:
    """One parameter slot: default (None means required), check, and
    the expectation text used in error messages."""

    default: object
    check: Callable[[object], bool]
    expected: str


def _int_at_least(low: int) -> Callable[[object], bool]:
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low


def _even_int_at_least(low: int) -> Callable[[object], bool]:
    inner = _int_at_least(low)
    return lambda v: inner(v) and v % 2 == 0


def _one_of(*choices: str) -> Callable[[object], bool]:
    return lambda v: v in choices


def _open_unit_interval(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 < v < 1.0


# Top-level config fields. Unknown fields at either level are rejected
# so a typo cannot silently fall back to a default.
CONFIG_FIELDS = {
    "schema": f"integer schema version, currently {SCHEMA_VERSION}",
    "kind": "scenario kind, one of the PARAMETER_FIELDS keys",
    "seed": "optional integer >= 0, default 0",
    "parameters": "optional object whose fields depend on kind",
}

PARAMETER_FIELDS: dict[str, dict[str, _Field]] = {
    "maslov_path": {
        "family": _Field(
            "benchmark",
            _one_of("benchmark", "constant", "seeded"),
            "one of 'benchmark', 'constant', 'seeded'",
        ),
        "dim": _Field(4, _even_int_at_least(2), "even integer >= 2"),
        "num_samples": _Field(33, _int_at_least(5), "integer >= 5"),
        "method": _Field(
            "both",
            _one_of("winding", "crossing", "both"),
            "one of 'winding', 'crossing', 'both'",
        ),
    },
    "spectral_flow": {
        "dim": _Field(4, _int_at_least(1), "integer >= 1"),
        "num_samples": _Field(33, _int_at_least(5), "integer >= 5"),
    },
    "reduction_demo": {
        "dim": _Field(4, _even_int_at_least(2), "even integer >= 2"),
        "num_samples": _Field(33, _int_at_least(5), "integer >= 5"),
    },
    "bvp_desuspension": {
        "family": _Field(
            "scalar_periodic",
            _one_of("scalar_periodic", "separated_lines", "planar_periodic", "seeded"),
            "one of 'scalar_periodic', 'separated_lines', 'planar_periodic', 'seeded'",
        ),
        "grid": _Field(64, _int_at_least(7), "integer >= 7"),
        "num_samples": _Field(33, _int_at_least(5), "integer >= 5"),
    },
    "bvp_splitting": {
        "family": _Field(
            "scalar_periodic",
            _one_of("scalar_periodic", "planar_double"),
            "one of 'scalar_periodic', 'planar_double'",
        ),
        "cut": _Field(0.5, _open_unit_interval, "number strictly between 0 and 1"),
        "grid": _Field(64, _int_at_least(7), "integer >= 7"),
    },
    "property_suite": {
        "suite": _Field(None, lambda v: v in SUITES, "the name of a known suite"),
        "trials": _Field(20, _int_at_least(1), "integer >= 1"),
    },
}


def _validate_parameters(kind: str, raw: dict) -> dict:
    spec = PARAMETER_FIELDS[kind]
    for key in raw:
        if key not in spec:
            raise ConfigError(
                f"config field 'parameters.{key}': unknown parameter for "
                f"kind '{kind}' (known: {', '.join(sorted(spec))})"
            )
    out = {}
    for name, field in spec.items():
        if name not in raw:
            if field.default is None:
                raise ConfigError(
                    f"config field 'parameters.{name}': required for kind "
                    f"'{kind}', expected {field.expected}"
                )
            out[name] = field.default
            continue
        value = raw[name]
        if not field.check(value):
            raise ConfigError(
                f"config field 'parameters.{name}': expected "
                f"{field.expected}, got {value!r}"
            )
        out[name] = value
    return out


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")
    for key in raw:
        if key not in CONFIG_FIELDS:
            raise ConfigError(
                f"config field '{key}': unknown field "
                f"(known: {', '.join(sorted(CONFIG_FIELDS))})"
            )
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"config field 'schema': expected {SCHEMA_VERSION}, got {schema!r}"
        )
    kind = raw.get("kind")
    if kind not in PARAMETER_FIELDS:
        raise ConfigError(
            f"config field 'kind': expected one of "
            f"{', '.join(sorted(PARAMETER_FIELDS))}, got {kind!r}"
        )
    seed = raw.get("seed", 0)
    if not _int_at_least(0)(seed):
        raise ConfigError(f"config field 'seed': expected integer >= 0, got {seed!r}")
    params_raw = raw.get("parameters", {})
    if not isinstance(params_raw, dict):
        raise ConfigError("config field 'parameters': expected a JSON object")
    return {
        "kind": kind,
        "seed": seed,
        "parameters": _validate_parameters(kind, params_raw),
    }


# ---------------------------------------------------------------------------
# Path constructions shared by scenarios and suites


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_FORM2 = SymplecticForm(_J2)


def _line(angle: float):
    """Lagrangian line in C^2 spanned by (cos a, sin a)."""
    return orthonormalize(np.array([[np.cos(angle)], [np.sin(angle)]], dtype=complex))


def _counts(res) -> tuple[int, int]:
    return res.mas_plus, res.mas_minus


def _pair_path_for(family: str, dim: int, num_samples: int, seed: int):
    if family == "benchmark":
        return benchmark_pair_path(num_samples)
    if family == "constant":
        lam = _line(0.3)
        mu = _line(0.0)
        return LagrangianPairPath.from_callable(
            lambda s: (_FORM2, lam, mu), num_samples=num_samples
        )
    return rotating_pair_path(rng_from_seed((0xC119, seed, 0)), dim=dim,
                              num_samples=num_samples, scale_lam=2.5, scale_mu=0.7)


_THETA_HEADER = ("s", "branch_index", "theta")
_EIGEN_HEADER = ("s", "eig_index", "value")


def _curve_rows(curves: np.ndarray, header: tuple[str, str, str]):
    """Long-format CSV rows (s, index, value) of curves given as rows [s, v_1 .. v_n]."""
    rows = []
    for row in np.asarray(curves):
        s = float(row[0])
        for j, value in enumerate(row[1:]):
            rows.append((s, j, float(value)))
    return header, rows


# ---------------------------------------------------------------------------
# Scenario runners. Each returns (results, curves) where curves maps a
# CSV filename to (header, rows). Runners raise InvariantViolation when
# a checked identity fails, and let numerical gates propagate.


def _run_maslov_path(params: dict, seed: int):
    path = _pair_path_for(params["family"], params["dim"], params["num_samples"], seed)
    results = {
        "family": params["family"],
        "ambient_dim": int(path.samples[0].form.dim),
    }
    curves = {}
    counts = {}
    if params["method"] in ("winding", "both"):
        res = maslov_winding(path)
        counts["winding"] = _counts(res)
        results["mas_plus"] = res.mas_plus
        results["mas_minus"] = res.mas_minus
        curves["theta_curves.csv"] = _curve_rows(res.theta_curves, _THETA_HEADER)
    if params["method"] in ("crossing", "both"):
        res = maslov_crossings(path, seed=seed)
        counts["crossing"] = _counts(res)
        results.setdefault("mas_plus", res.mas_plus)
        results.setdefault("mas_minus", res.mas_minus)
        results["crossings"] = [
            {
                "t": float(record.t),
                "intersection_dim": int(record.intersection.dim),
                "signature": [int(part) for part in record.signature],
            }
            for record in (res.crossings or ())
        ]
    if len(counts) == 2 and counts["winding"] != counts["crossing"]:
        raise InvariantViolation(
            "winding and crossing methods must give equal Maslov counts; "
            f"got {counts['winding']} vs {counts['crossing']}"
        )
    return results, curves


def _linear_flow_routes(a_start, a_end, num_samples: int):
    """Hermitian path A(s) = (1 - s) a_start + s a_end and sf_relation of its graphs."""

    def matrix(s: float) -> np.ndarray:
        return (1.0 - s) * a_start + s * a_end

    path = HermitianPath.from_callable(matrix, num_samples=num_samples)
    form = canonical_product_form(a_start.shape[0])
    grid = np.linspace(0.0, 1.0, num_samples)
    entries = [(float(s), form, graph_relation(matrix(float(s)))) for s in grid]
    sf_rel = sf_relation(entries, lambda s: (form, graph_relation(matrix(s))))
    return path, sf_rel


def _run_spectral_flow(params: dict, seed: int):
    dim = params["dim"]
    rng = rng_from_seed((0x5F10, seed))
    a_start = random_hermitian(rng, dim)
    a_end = random_hermitian(rng, dim)
    path, sf_rel = _linear_flow_routes(a_start, a_end, params["num_samples"])
    sf = sf_eigen(path)
    if sf_rel != sf:
        raise InvariantViolation(
            "spectral flow must equal the Maslov count of the graph path "
            f"against X x {{0}}; got {sf} (eigenvalue route) vs {sf_rel} "
            "(relation route)"
        )
    eigs_start = np.sort(np.linalg.eigvalsh(a_start))
    eigs_end = np.sort(np.linalg.eigvalsh(a_end))
    results = {
        "dim": dim,
        "sf": int(sf),
        "endpoint_eigenvalues": {
            "start": [float(v) for v in eigs_start],
            "end": [float(v) for v in eigs_end],
        },
        "endpoint_kernel_dims": {
            "start": kernel_dim(eigs_start),
            "end": kernel_dim(eigs_end),
        },
    }
    curves = {"eigenvalue_curves.csv": _curve_rows(eigenvalue_curves(path), _EIGEN_HEADER)}
    return results, curves


def _run_reduction_demo(params: dict, seed: int):
    path = _pair_path_for("seeded", params["dim"], params["num_samples"], seed)
    direct = maslov_winding(path)
    try:
        reduced = maslov_reduced(path, seed=seed)
    except ArithmeticError as exc:
        raise InvariantViolation(
            f"partition independence of segmental reduction failed: {exc}"
        )
    if _counts(direct) != _counts(reduced):
        raise InvariantViolation(
            "segmental reduction must preserve the Maslov counts; got "
            f"({direct.mas_plus}, {direct.mas_minus}) direct vs "
            f"({reduced.mas_plus}, {reduced.mas_minus}) reduced"
        )
    results = {
        "ambient_dim": params["dim"],
        "mas_plus": direct.mas_plus,
        "mas_minus": direct.mas_minus,
        "agree": True,
    }
    curves = {"theta_curves.csv": _curve_rows(direct.theta_curves, _THETA_HEADER)}
    return results, curves


def _bvp_ingredients(family: str, seed: int):
    """Family and boundary condition of a bvp scenario, for both scenario kinds."""
    if family == "scalar_periodic":
        fam = HamiltonianFamily(
            1, np.array([[-1j]]), lambda s, t: np.array([[2.0 * s - 1.0]])
        )
        return fam, periodic_condition(fam)
    if family == "separated_lines":
        fam = HamiltonianFamily(2, _J2, lambda s, t: s * np.eye(2))
        return fam, separated_condition(fam, _line(0.0), _line(0.5))
    if family in ("planar_periodic", "planar_double"):
        fam = HamiltonianFamily(2, _J2, lambda s, t: (2.0 * s - 1.0) * np.eye(2))
        return fam, periodic_condition(fam)
    rng = rng_from_seed((0xB4B0, seed))
    amp = rng.uniform(0.2, 0.5, size=3)

    def coeff(s: float, t: float) -> np.ndarray:
        oscillation = np.array(
            [
                [amp[0] * np.cos(2.0 * np.pi * t), amp[2] * np.sin(2.0 * np.pi * t)],
                [amp[2] * np.sin(2.0 * np.pi * t), -amp[1] * np.cos(2.0 * np.pi * t)],
            ]
        )
        return oscillation + (2.0 * s - 1.0) * np.eye(2)

    fam = HamiltonianFamily(2, _J2, coeff)
    return fam, periodic_condition(fam)


def _run_bvp_desuspension(params: dict, seed: int):
    fam, bc = _bvp_ingredients(params["family"], seed)
    grid, num_samples = params["grid"], params["num_samples"]
    operators = discretize(fam, bc, grid, num_samples)
    sf, neg_mas, agree = _desuspension_counts(fam, bc, operators, num_samples)
    if not agree:
        raise InvariantViolation(
            "desuspension identity violated: the spectral flow of the "
            "boundary problem must equal minus the Maslov count of the "
            f"pair (boundary condition, Cauchy data); got sf={sf}, "
            f"-mas={neg_mas}"
        )
    results = {
        "family": params["family"],
        "grid": grid,
        "sf": int(sf),
        "neg_mas": int(neg_mas),
        "agree": True,
    }
    eig_curves = eigenvalue_curves(operators)
    curves = {"eigenvalue_curves.csv": _curve_rows(eig_curves, _EIGEN_HEADER)}
    return results, curves


def _run_bvp_splitting(params: dict, seed: int):
    fam, bc = _bvp_ingredients(params["family"], seed)
    # Every splitting family has the periodic condition.
    operators = discretize(fam, bc, params["grid"])
    sf_whole, neg_mas_cut, agree = _splitting_counts(fam, params["cut"], operators)
    if not agree:
        raise InvariantViolation(
            "splitting identity violated: the spectral flow over the whole "
            "interval must equal minus the Maslov count of the two Cauchy "
            f"data paths at the cut; got sf={sf_whole}, -mas={neg_mas_cut}"
        )
    results = {
        "family": params["family"],
        "cut": float(params["cut"]),
        "grid": params["grid"],
        "sf": int(sf_whole),
        "neg_mas_cut": int(neg_mas_cut),
        "agree": True,
    }
    eig_curves = eigenvalue_curves(operators)
    curves = {"eigenvalue_curves.csv": _curve_rows(eig_curves, _EIGEN_HEADER)}
    return results, curves


def _run_property_suite(params: dict, seed: int):
    name = params["suite"]
    identity = SUITES[name][0]
    failures = run_suite(name, params["trials"], seed)
    if failures:
        raise InvariantViolation(
            f"suite '{name}' violated its identity ({identity}) in "
            f"{failures} of {params['trials']} trials"
        )
    results = {
        "suite": name,
        "identity": identity,
        "trials": params["trials"],
        "failures": 0,
    }
    return results, {}


_SCENARIOS = {
    "maslov_path": _run_maslov_path,
    "spectral_flow": _run_spectral_flow,
    "reduction_demo": _run_reduction_demo,
    "bvp_desuspension": _run_bvp_desuspension,
    "bvp_splitting": _run_bvp_splitting,
    "property_suite": _run_property_suite,
}


# ---------------------------------------------------------------------------
# Verification suites. Each predicate draws one seeded trial, from
# rng_from_seed((tag, seed, trial)), and returns whether its identity held;
# run_suite counts the trials that failed. Numerical gates propagate except
# where a gate is itself the checked property.


def _suite_flipping(seed: int, trial: int) -> bool:
    path = rotating_pair_path(rng_from_seed((0xF119, seed, trial)))

    def swapped_fn(s: float):
        form, lam, mu = path.evaluate(s)
        return form, mu, lam

    swapped = LagrangianPairPath.from_callable(swapped_fn, num_samples=33)
    res = maslov_winding(path)
    res_swapped = maslov_winding(swapped)
    # Winding has checked Mas+ - Mas- = dim cap(0) - dim cap(1) at its
    # endpoint snap, so the difference carries the end dimensions.
    return res.mas_plus + res_swapped.mas_plus == res.mas_plus - res.mas_minus


def _suite_catenation(seed: int, trial: int) -> bool:
    rng = rng_from_seed((0xCA7E, seed, trial))
    path = rotating_pair_path(rng)
    split = float(rng.uniform(0.3, 0.7))
    left = LagrangianPairPath.from_callable(
        lambda s: path.callback(split * s), num_samples=17
    )
    right = LagrangianPairPath.from_callable(
        lambda s: path.callback(split + (1.0 - split) * s), num_samples=17
    )
    whole = maslov_winding(path)
    res_left = maslov_winding(left)
    res_right = maslov_winding(right)
    (left_plus, left_minus), (right_plus, right_minus) = _counts(res_left), _counts(res_right)
    return _counts(whole) == (left_plus + right_plus, left_minus + right_minus)


def _suite_direct_sum(seed: int, trial: int) -> bool:
    path_a = rotating_pair_path(rng_from_seed((0xD5A0, seed, trial)), dim=2)
    path_b = rotating_pair_path(rng_from_seed((0xD5A1, seed, trial)), dim=4)
    # Each summand carries one constant form, so the summed form is
    # built from their eigendata and split once per trial; a
    # block-diagonal array of two frames is orthonormal as it stands.
    form = direct_sum(path_a.samples[0].form, path_b.samples[0].form)

    def summed_fn(s: float):
        _, lam_a, mu_a = path_a.callback(s)
        _, lam_b, mu_b = path_b.callback(s)
        lam = Frame._of_orthonormal(_block_diag([lam_a.matrix, lam_b.matrix]))
        mu = Frame._of_orthonormal(_block_diag([mu_a.matrix, mu_b.matrix]))
        return form, lam, mu

    summed_path = LagrangianPairPath.from_callable(summed_fn, num_samples=33)
    res_a = maslov_winding(path_a)
    res_b = maslov_winding(path_b)
    res_sum = maslov_winding(summed_path)
    (a_plus, a_minus), (b_plus, b_minus) = _counts(res_a), _counts(res_b)
    return _counts(res_sum) == (a_plus + b_plus, a_minus + b_minus)


def _suite_naturality(seed: int, trial: int) -> bool:
    rng = rng_from_seed((0xA701, seed, trial))
    form = random_symplectic_form(rng, 4)
    lam = random_lagrangian(rng, form)
    mu = random_lagrangian(rng, form)
    # Both paths read one rotation per parameter, and the pushed one
    # one matrix exponential: form_at(s) would take push_at(s) again.
    rot = functools.cache(lagrangian_rotation(rng, form, lam, scale=2.0))
    _, push_at = form_deformation(rng, form, scale=0.25)
    fixed = LagrangianPairPath.from_callable(
        lambda s: (form, rot(s), mu), num_samples=65
    )

    def pushed_fn(s: float):
        push = push_at(s)
        return (
            transform_form(form, push),
            orthonormalize(push @ rot(s).matrix),
            orthonormalize(push @ mu.matrix),
        )

    pushed = LagrangianPairPath.from_callable(pushed_fn, num_samples=65)
    res_fixed = maslov_winding(fixed)
    res_pushed = maslov_winding(pushed)
    return _counts(res_fixed) == _counts(res_pushed)


def _suite_constancy(seed: int, trial: int) -> bool:
    rng = rng_from_seed((0xC057, seed, trial))
    form = random_symplectic_form(rng, 4)
    lam, mu = random_lagrangian_pair(rng, form, intersection_dim=trial % 3)
    path = LagrangianPairPath.from_callable(
        lambda s: (form, lam, mu), num_samples=5
    )
    res = maslov_winding(path)
    return _counts(res) == (0, 0)


def _suite_reduction(seed: int, trial: int) -> bool:
    path = rotating_pair_path(rng_from_seed((0x12ED, seed, trial)))
    direct = maslov_winding(path)
    try:
        reduced = maslov_reduced(path, seed=trial)
    except ArithmeticError:
        return False
    return _counts(direct) == _counts(reduced)


def _suite_diagonal(seed: int, trial: int) -> bool:
    path = rotating_pair_path(rng_from_seed((0xD1A6, seed, trial)))
    direct = maslov_winding(path)
    lifted = diagonal_lift(path)
    return _counts(direct) == _counts(lifted)


def _suite_sf_mas(seed: int, trial: int) -> bool:
    rng = rng_from_seed((0x5F3A, seed, trial))
    dim = 2 + trial % 3
    a_start = random_hermitian(rng, dim)
    a_end = random_hermitian(rng, dim)
    path, sf_rel = _linear_flow_routes(a_start, a_end, 33)
    return sf_eigen(path) == sf_rel


def _suite_hormander(seed: int, trial: int) -> bool:
    rng = rng_from_seed((0x8030, seed, trial))
    form = random_symplectic_form(rng, 4)
    lam1 = random_lagrangian(rng, form)
    lam2 = random_lagrangian(rng, form)
    mu1 = random_lagrangian(rng, form)
    mu2 = random_lagrangian(rng, form)
    try:
        forward = hormander(form, lam1, lam2, mu1, mu2, seed=trial)
        swapped = hormander(form, lam1, lam2, mu2, mu1, seed=trial + 1)
    except ArithmeticError:
        return False
    return forward == -swapped


def _suite_cayley(seed: int, trial: int) -> bool:
    rng = rng_from_seed((0xCA1E, seed, trial))
    dim = 2 + trial % 7
    matrix = random_hermitian(rng, dim)
    try:
        cayley(matrix)
    except ArithmeticError:
        return False
    return True


def _suite_gap_bound(seed: int, trial: int) -> bool:
    rng = rng_from_seed((0x6A90, seed, trial))
    ambient = int(rng.integers(2, 9))
    dim = int(rng.integers(1, min(4, ambient) + 1))
    first = random_subspace(rng, ambient, dim)
    second = random_subspace(rng, ambient, dim)
    reverse = gap_delta(second, first)
    if reverse >= 1.0:
        return True
    bound = 2.0 ** (dim - 1) * dim * reverse / (1.0 - reverse) ** dim
    return gap_delta(first, second) <= bound + 1e-12


SUITES: dict[str, tuple[str, Callable[[int, int], bool]]] = {
    "flipping": (
        "Mas+{lam,mu} + Mas+{mu,lam} = dim cap(0) - dim cap(1)",
        _suite_flipping,
    ),
    "catenation": (
        "Mas over [0,1] = Mas over [0,a] + Mas over [a,1]",
        _suite_catenation,
    ),
    "direct_sum": (
        "Mas(path_a (+) path_b) = Mas(path_a) + Mas(path_b)",
        _suite_direct_sum,
    ),
    "naturality": (
        "Mas is unchanged under symplectic pushforward of forms and legs",
        _suite_naturality,
    ),
    "constancy": (
        "constant pairs have Mas+ = Mas- = 0 at any intersection dim",
        _suite_constancy,
    ),
    "reduction": (
        "winding counts equal summed segmental reduced counts",
        _suite_reduction,
    ),
    "diagonal": (
        "Mas{lam,mu} equals the doubled-space count against the diagonal",
        _suite_diagonal,
    ),
    "sf_mas": (
        "SF of a Hermitian path = Mas-{graph A(s), X x {0}}",
        _suite_sf_mas,
    ),
    "hormander": (
        "Hor(l1,l2;m1,m2) = -Hor(l1,l2;m2,m1)",
        _suite_hormander,
    ),
    "cayley": (
        "spec((A-i)(A+i)^-1) is the image of spec(A) under z->(z-i)/(z+i)",
        _suite_cayley,
    ),
    "gap_bound": (
        "delta(M,N) <= 2^(n-1) n delta(N,M) / (1 - delta(N,M))^n",
        _suite_gap_bound,
    ),
}


def run_suite(name: str, trials: int, seed: int) -> int:
    """Run the first ``trials`` seeded trials of one suite and return how many failed."""
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    _, holds = SUITES[name]
    return sum(not holds(seed, trial) for trial in range(trials))


# ---------------------------------------------------------------------------
# Report and CSV output


def _write_curves(out_dir: str, curves: dict) -> dict:
    files = {}
    for filename, (header, rows) in curves.items():
        with open(os.path.join(out_dir, filename), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        files[filename.rsplit(".", 1)[0]] = filename
    return files


def run_config(config_path: str, out_dir: str = ".", seed_override: int | None = None):
    """Validate and execute one scenario config.

    Returns (payload, report_path) where payload is the dict written to
    report.json. Raises ConfigError, InvariantViolation, or the
    numerical-gate errors of the underlying computations.
    """
    cfg = _load_config(config_path)
    seed = cfg["seed"] if seed_override is None else seed_override
    results, curves = _SCENARIOS[cfg["kind"]](cfg["parameters"], seed)
    os.makedirs(out_dir, exist_ok=True)
    files = _write_curves(out_dir, curves)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": cfg["kind"],
        "seed": seed,
        "parameters": cfg["parameters"],
        "results": results,
        "files": files,
    }
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload, report_path


# ---------------------------------------------------------------------------
# Command-line plumbing


def _env_seed() -> int | None:
    raw = os.environ.get("MASLOVLAB_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"environment MASLOVLAB_SEED: expected an integer, got {raw!r}"
        )


_SUMMARY_KEYS = ("mas_plus", "mas_minus", "sf", "neg_mas", "neg_mas_cut",
                 "agree", "trials", "failures")


def _cmd_run(args: argparse.Namespace) -> int:
    payload, report_path = run_config(
        args.config,
        out_dir=args.out_dir,
        seed_override=_env_seed(),
    )
    results = payload["results"]
    summary = " ".join(
        f"{key}={results[key]}" for key in _SUMMARY_KEYS if key in results
    )
    print(f"{payload['kind']}: {summary}" if summary else payload["kind"])
    print(f"report: {report_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    env = _env_seed()
    if args.trials < 1:
        raise ConfigError("--trials must be a positive integer")
    failures = run_suite(args.suite, args.trials, args.seed if env is None else env)
    identity = SUITES[args.suite][0]
    width = max(len(identity), len("anchor"))
    print(f"{'identity':<12} {'anchor':<{width}} {'trials':>6} {'failures':>8}")
    print(f"{args.suite:<12} {identity:<{width}} {args.trials:>6} {failures:>8}")
    return 0 if failures == 0 else 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not 2, the gate-failure code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = _Parser(
        prog="maslovlab",
        description="Scenario runs and identity checks for Maslov index, "
        "symplectic reduction, and spectral flow computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one scenario described by a JSON config")
    p_run.add_argument("config", help="path to the scenario config file")
    p_run.add_argument(
        "--out-dir", default=".", help="directory for reports and CSV files"
    )
    p_verify = sub.add_parser("verify", help="run a seeded identity suite")
    p_verify.add_argument(
        "suite", help=f"one of: {', '.join(sorted(SUITES))}"
    )
    p_verify.add_argument(
        "--trials", type=int, default=20, help="number of seeded trials"
    )
    p_verify.add_argument(
        "--seed", type=int, default=0, help="base seed for the trials"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical gate failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
