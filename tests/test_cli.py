"""Tests for the command-line driver: config validation, scenario runs,
report determinism, CSV contracts, and the verify suites."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from maslovlab import cli
from maslovlab.cli import ConfigError, main, run_suite
from maslovlab.frames import Frame, HermitianMatrix, orthonormalize
from maslovlab.maslov import LagrangianPairPath
from maslovlab.symplectic import SymplecticForm


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Config validation


def test_rejects_wrong_schema_version(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 2, "kind": "maslov_path"})
    assert main(["run", cfg]) == 1
    assert "'schema'" in capsys.readouterr().err


def test_rejects_unknown_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "kind": "mystery"})
    assert main(["run", cfg]) == 1
    assert "'kind'" in capsys.readouterr().err


def test_rejects_unknown_top_level_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"schema": 1, "kind": "maslov_path", "note": "hi"}
    )
    assert main(["run", cfg]) == 1
    assert "'note'" in capsys.readouterr().err


def test_rejects_unknown_parameter(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "maslov_path", "parameters": {"bogus": 1}},
    )
    assert main(["run", cfg]) == 1
    assert "parameters.bogus" in capsys.readouterr().err


def test_rejects_bad_parameter_value(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "maslov_path", "parameters": {"dim": 3}},
    )
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "parameters.dim" in err and "even integer" in err


def test_rejects_missing_required_parameter(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "kind": "property_suite"})
    assert main(["run", cfg]) == 1
    assert "parameters.suite" in capsys.readouterr().err


def test_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_rejects_bad_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "kind": "maslov_path", "seed": -1})
    assert main(["run", cfg]) == 1
    assert "'seed'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Pinned scenario results


def test_benchmark_run_reports_unit_counts(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "maslov_path", "parameters": {"family": "benchmark"}},
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    report = read_report(out)
    assert report["results"]["mas_plus"] == 1
    assert report["results"]["mas_minus"] == 1
    crossings = report["results"]["crossings"]
    assert len(crossings) == 1
    assert crossings[0]["t"] == pytest.approx(0.5, abs=1e-6)
    assert crossings[0]["signature"] == [1, 0, 0]


def test_constant_path_reports_zeros(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "maslov_path", "parameters": {"family": "constant"}},
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    report = read_report(out)
    assert report["results"]["mas_plus"] == 0
    assert report["results"]["mas_minus"] == 0
    assert report["results"]["crossings"] == []


@pytest.mark.parametrize(
    "family, expected",
    [("scalar_periodic", 1), ("separated_lines", 1), ("planar_periodic", 2), ("seeded", 2)],
    ids=["scalar_periodic", "separated_lines", "planar_periodic", "seeded"],
)
def test_scalar_desuspension_report(tmp_path, family, expected):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "kind": "bvp_desuspension",
            "parameters": {"family": family},
        },
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    results = read_report(out)["results"]
    assert results["sf"] == expected
    assert results["neg_mas"] == expected
    assert results["agree"] is True
    assert (out / "eigenvalue_curves.csv").exists()


@pytest.mark.parametrize(
    "family, expected", [("scalar_periodic", 1), ("planar_double", 2)], ids=["scalar_periodic", "planar_double"]
)
def test_bvp_splitting_run(tmp_path, family, expected):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "bvp_splitting", "parameters": {"family": family, "cut": 0.4}},
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    results = read_report(out)["results"]
    assert results["sf"] == results["neg_mas_cut"] == expected
    assert results["agree"] is True


def test_spectral_flow_run(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "spectral_flow", "seed": 3, "parameters": {"dim": 3}},
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    results = read_report(out)["results"]
    assert isinstance(results["sf"], int)
    start = results["endpoint_eigenvalues"]["start"]
    assert start == sorted(start)
    assert len(start) == 3


def test_spectral_flow_kernel_dims_use_the_flow_zero_rule(tmp_path, monkeypatch):
    """An end eigenvalue of -3e-9 is zero for sf and for the reported kernel."""
    ends = iter([np.diag([-3e-9, 1.0]), np.diag([-1.0, 1.0])])
    monkeypatch.setattr(cli, "random_hermitian", lambda rng, dim: next(ends))
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "spectral_flow", "parameters": {"dim": 2}},
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    results = read_report(out)["results"]
    assert results["sf"] == -1
    assert results["endpoint_kernel_dims"] == {"start": 1, "end": 0}


def test_reduction_demo_run(tmp_path):
    cfg = write_config(tmp_path, {"schema": 1, "kind": "reduction_demo", "seed": 2})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    results = read_report(out)["results"]
    assert results["agree"] is True
    assert (out / "theta_curves.csv").exists()


def test_property_suite_run(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "kind": "property_suite",
            "parameters": {"suite": "flipping", "trials": 4},
        },
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    results = read_report(out)["results"]
    assert results["trials"] == 4
    assert results["failures"] == 0


# ---------------------------------------------------------------------------
# Determinism and seed handling


def test_same_config_and_seed_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "maslov_path", "seed": 11,
         "parameters": {"family": "seeded"}},
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out-dir", str(out_a)]) == 0
    assert main(["run", cfg, "--out-dir", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "theta_curves.csv").read_bytes() == (
        out_b / "theta_curves.csv"
    ).read_bytes()


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "maslov_path", "seed": 11,
         "parameters": {"family": "seeded"}},
    )
    out = tmp_path / "out"
    monkeypatch.setenv("MASLOVLAB_SEED", "23")
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert read_report(out)["seed"] == 23


def test_bad_env_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "kind": "maslov_path"})
    monkeypatch.setenv("MASLOVLAB_SEED", "eleven")
    assert main(["run", cfg]) == 1
    assert "MASLOVLAB_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CSV contracts


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_theta_csv_round_trip_and_monotone_s(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "maslov_path", "seed": 7,
         "parameters": {"family": "seeded", "method": "winding"}},
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    header, rows = read_csv(out / "theta_curves.csv")
    assert header == ["s", "branch_index", "theta"]
    s_vals = [float(row[0]) for row in rows]
    assert all(a <= b for a, b in zip(s_vals, s_vals[1:]))
    assert {int(row[1]) for row in rows} == {0, 1}
    for row in rows:
        float(row[2])
    assert s_vals[0] == 0.0 and s_vals[-1] == 1.0


def test_eigen_csv_contract(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "spectral_flow", "seed": 1, "parameters": {"dim": 2}},
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    header, rows = read_csv(out / "eigenvalue_curves.csv")
    assert header == ["s", "eig_index", "value"]
    s_vals = [float(row[0]) for row in rows]
    assert all(a <= b for a, b in zip(s_vals, s_vals[1:]))
    assert {int(row[1]) for row in rows} == {0, 1}


def test_report_references_curve_files(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "maslov_path",
         "parameters": {"family": "benchmark", "method": "winding"}},
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    report = read_report(out)
    assert report["files"] == {"theta_curves": "theta_curves.csv"}
    assert (out / "theta_curves.csv").exists()


# ---------------------------------------------------------------------------
# Exit-code mapping


def test_numerical_gate_maps_to_exit_2(tmp_path, monkeypatch, capsys):
    def gate_failure(params, seed):
        raise ValueError("sampling resolution exhausted")

    monkeypatch.setitem(cli._SCENARIOS, "maslov_path", gate_failure)
    cfg = write_config(tmp_path, {"schema": 1, "kind": "maslov_path"})
    assert main(["run", cfg]) == 2
    assert "numerical gate failure" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "build, name",
    [(lambda m: Frame(m[:, :1]), "frame matrix"), (HermitianMatrix, "Hermitian matrix")],
)
def test_non_finite_input_is_named_and_maps_to_exit_2(tmp_path, monkeypatch, capsys, bad, build, name):
    matrix = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        build(matrix)

    def scenario(params, seed):
        build(matrix)

    monkeypatch.setitem(cli._SCENARIOS, "maslov_path", scenario)
    cfg = write_config(tmp_path, {"schema": 1, "kind": "maslov_path"})
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "numerical gate failure" in err and f"{name} has non-finite entries" in err


def test_off_grid_non_lagrangian_value_maps_to_exit_2(tmp_path, monkeypatch, capsys):
    """The crossing of lam(s) = span{(1, s - 1/2)} against span{e1} lies
    inside the sample gap [0.4, 0.6]; the scan halves that gap at
    s = 0.5, where the callback hands back a symplectic line."""
    form = SymplecticForm(np.array([[0.0, -1.0], [1.0, 0.0]]))
    mu = Frame.span([1.0, 0.0])

    def fn(s: float):
        column = [1.0, 1j] if abs(s - 0.5) < 1e-12 else [1.0, s - 0.5]
        return form, orthonormalize(np.array(column)[:, None]), mu

    monkeypatch.setattr(cli, "_pair_path_for", lambda *args: LagrangianPairPath.from_callable(fn, 6))
    cfg = write_config(
        tmp_path, {"schema": 1, "kind": "maslov_path", "parameters": {"method": "crossing"}}
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "numerical gate failure" in err
    assert "s=0.500000: lam subspace is symplectic, not lagrangian" in err


def test_invariant_violation_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        cli.SUITES, "flipping", ("anchor text", lambda seed, trial: False)
    )
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "kind": "property_suite",
            "parameters": {"suite": "flipping", "trials": 5},
        },
    )
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "invariant violation" in err and "flipping" in err
    assert "in 5 of 5 trials" in err


# ---------------------------------------------------------------------------
# verify command


def test_verify_unknown_suite_exits_1(capsys):
    assert main(["verify", "nosuch"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_flipping_prints_table(capsys):
    assert main(["verify", "flipping", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "identity" in lines[0] and "anchor" in lines[0]
    assert "trials" in lines[0] and "failures" in lines[0]
    assert lines[1].startswith("flipping")
    assert lines[1].split()[-2:] == ["3", "0"]


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_every_suite_holds_on_two_trials(suite, capsys):
    assert main(["verify", suite, "--trials", "2"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    identity = cli.SUITES[suite][0]
    assert row.split()[0] == suite and identity in row
    assert row.split()[-2:] == ["2", "0"]


def test_verify_seed_changes_trials_not_outcome(capsys):
    assert main(["verify", "constancy", "--trials", "4", "--seed", "5"]) == 0
    assert main(["verify", "constancy", "--trials", "4", "--seed", "6"]) == 0


def test_verify_naturality_takes_one_exponential_per_parameter(monkeypatch, capsys):
    """The pushed path builds its form from the push it already has."""
    import scipy.linalg

    exponentials = []
    expm = scipy.linalg.expm

    def counted(a):
        exponentials.append(a.shape)
        return expm(a)

    paths = []
    winding = cli.maslov_winding

    def recorded(path):
        paths.append(path)
        return winding(path)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    monkeypatch.setattr(cli, "maslov_winding", recorded)
    assert main(["verify", "naturality", "--trials", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[-2:] == ["2", "0"]
    pushed = paths[1::2]
    assert len(pushed) == 2
    assert len(exponentials) == sum(len(path._memo.values) for path in pushed)


def test_verify_rejects_nonpositive_trials(capsys):
    assert main(["verify", "flipping", "--trials", "0"]) == 1
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["run"], ["verify", "flipping", "--trials", "x"], ["nosuch"], [],
     ["verify", "flipping", "--out-dir", "x"]],
    ids=["run_without_config", "non_integer_trials", "unknown_command", "no_command",
         "verify_out_dir"],
)
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_tol_rank_flag_is_a_usage_error(command, tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "kind": "maslov_path"})
    target = cfg if command == "run" else "flipping"
    with pytest.raises(SystemExit) as exc:
        main([command, target, "--tol-rank", "1e-8"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments: --tol-rank 1e-8" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "config" in capsys.readouterr().out


def test_verify_failures_exit_3(monkeypatch, capsys):
    monkeypatch.setitem(
        cli.SUITES, "flipping", ("anchor text", lambda seed, trial: trial != 0)
    )
    assert main(["verify", "flipping", "--trials", "2"]) == 3
    assert capsys.readouterr().out.strip().splitlines()[1].split()[-2:] == ["2", "1"]


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suite("nosuch", 1, 0)


def test_module_entry_point(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "maslov_path",
         "parameters": {"family": "benchmark", "method": "winding"}},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "maslovlab.cli", "run", cfg,
         "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mas_plus=1" in proc.stdout


def test_spectral_flow_run_solves_each_end_once(tmp_path, monkeypatch):
    """Each end is eigen-solved once, values only, and factored once; no sample gets eigenvectors."""
    from maslovlab import frames, spectral

    solved, factored, vector_shapes = [], [], []
    values, pivots, checked = spectral._heevr, spectral._ldl_negatives, frames.hermitian_eig

    def counted_values(a, vectors):
        assert not vectors
        solved.append(id(a) if np.shape(a) == (3, 3) else None)
        return values(a, vectors)

    def counted_pivots(a, shift):
        factored.append(id(a))
        return pivots(a, shift)

    def counted_vectors(a):
        vector_shapes.append(np.shape(a))
        return checked(a)

    monkeypatch.setattr(spectral, "_heevr", counted_values)
    monkeypatch.setattr(spectral, "_ldl_negatives", counted_pivots)
    monkeypatch.setattr(frames, "hermitian_eig", counted_vectors)
    monkeypatch.setattr(spectral, "hermitian_eig", counted_vectors)
    cfg = write_config(
        tmp_path,
        {"schema": 1, "kind": "spectral_flow", "seed": 3, "parameters": {"dim": 3}},
    )
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert len(factored) == len(set(factored)) == 2
    assert len(solved) == len(set(solved)) == 33
    assert solved[:2] == factored
    assert (3, 3) not in vector_shapes
