"""CLI surface: parsing, reports, exit codes, certificate round-trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rosenmu
from rosenmu import InputError, matrix_from_json, matrix_to_json, system_from_json, system_to_json
from rosenmu.cli import _build_parser, dumps_report, main
from rosenmu.instances import fluid_solid_instance

from conftest import GOLDEN_5X5, cgauss, random_system


@pytest.fixture
def golden_matrix_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(matrix_to_json(GOLDEN_5X5)))
    return str(path)


@pytest.fixture
def system_file(tmp_path, rng):
    sys_ = random_system(rng, r=2, n=2, d=1)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(sys_)))
    return str(path)


DIAG_SYSTEM = {
    "r": 1,
    "n": 1,
    "d": 0,
    "A": [[[2.0, 0.0]]],
    "B": [[[0.0, 0.0]]],
    "C": [[[0.0, 0.0]]],
    "P": [[[[1.0, 0.0]]]],
}


@pytest.fixture
def diag_system_file(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(DIAG_SYSTEM))
    return str(path)


def test_mu_command_golden(golden_matrix_file, capsys):
    rc = main(["mu", "--structure", "2x3,3x2", golden_matrix_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lower 3.08198" in out
    assert "upper 3.08198" in out
    assert "exact (n<=3)" in out


def test_mu_command_identity(tmp_path, capsys):
    path = tmp_path / "eye.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(2))))
    rc = main(["mu", "--structure", "2x2", str(path), "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lower"] == pytest.approx(1.0)
    assert report["upper"] == pytest.approx(1.0)


def test_mu_command_sqrt6(tmp_path, capsys):
    path = tmp_path / "offdiag.json"
    path.write_text(json.dumps(matrix_to_json(np.array([[0, 2], [3, 0]]))))
    rc = main(["mu", "--structure", "1x1,1x1", str(path), "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["upper"] == pytest.approx(np.sqrt(6), rel=1e-8)
    # the mu engine takes no seed, so the report names none
    assert list(report) == [
        "command", "structure", "lower", "upper", "exactness", "possibly_zero",
        "certificate_norm", "det_residual", "partial_isometry_defect", "delta_blocks",
    ]


def test_mu_shape_mismatch_exit_2(golden_matrix_file, capsys):
    rc = main(["mu", "--structure", "2x2,2x2", golden_matrix_file])
    assert rc == 2
    err = capsys.readouterr().err
    assert "4x4" in err and "5x5" in err


def test_backward_error_text(diag_system_file, capsys):
    rc = main(
        ["backward-error", "--lambda", "0", "--scenario", "A", diag_system_file]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "eta = 2" in out


def test_backward_error_eigenvalue_sweep(diag_system_file, capsys):
    rc = main(["sweep", "--lambda", "2", diag_system_file, "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["rows"]) == 15
    assert all(row["eta_upper"] == 0 for row in report["rows"])


def test_parser_built_once_keeps_no_lambdas_between_calls(diag_system_file, capsys):
    # main reuses one parser per process; the --lambda list of one call
    # does not leak into the next, with or without --lambda
    assert _build_parser() is _build_parser()
    for lams, want in (([], []), (["0"], [[0, 0]]), (["1,1", "0.5"], [[1, 1], [0.5, 0]]), (["2"], [[2, 0]])):
        argv = ["backward-error", "--scenario", "A", "--json", diag_system_file]
        for lam in lams:
            argv += ["--lambda", lam]
        rc = main(argv)
        captured = capsys.readouterr()
        if not lams:  # --lambda is required here
            assert rc == 2 and "--lambda" in captured.err
            continue
        assert rc == 0
        report = json.loads(captured.out)
        assert [row["lambda"] for row in report.get("results", [report])] == want
    assert main(["oracle", "--scenario", "A", "--json", "--budget", "10", "--lambda", "0.5", diag_system_file]) == 0
    assert json.loads(capsys.readouterr().out)["lambda"] == [0.5, 0]
    assert main(["oracle", "--scenario", "A", "--budget", "10", diag_system_file]) == 2


def test_round_trip_verify(system_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    rc = main(
        [
            "backward-error",
            "--lambda",
            "0.3,0.1",
            "--scenario",
            "ABP",
            system_file,
            "--output",
            str(cert),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", system_file, str(cert)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERIFIED" in out


@pytest.mark.parametrize("s", [1e14, 1e15, 1e16])
def test_certificate_at_large_scale_verifies(tmp_path, capsys, s):
    # S(lambda) scales with s and mu with 1/s: the zero and certificate
    # thresholds must scale with M, not sit at fixed levels
    sys_ = rosenmu.RosenbrockSystem([[2 * s]], [[s]], [[s]], ([[s]], [[s]]))
    system = tmp_path / "system.json"
    system.write_text(json.dumps(system_to_json(sys_)))
    cert = tmp_path / "cert.json"
    argv = ["backward-error", "--lambda", "0.5", "--scenario", "AB", "--json", str(system)]
    assert main(argv + ["--output", str(cert)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["eta_upper"] == pytest.approx(report["eta_lower"], rel=1e-8)
    assert report["possibly_infinite"] is False
    assert main(["verify", "--json", str(system), str(cert)]) == 0
    checked = json.loads(capsys.readouterr().out)
    assert checked["residual_ok"] and checked["norm_ok"]


def test_verify_rejects_tampered_certificate(system_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(
        [
            "backward-error",
            "--lambda",
            "0.3,0.1",
            "--scenario",
            "AB",
            system_file,
            "--output",
            str(cert),
        ]
    )
    doc = json.loads(cert.read_text())
    doc["claimed_eta"] = float(doc["claimed_eta"]) * 1.5
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["verify", system_file, str(cert)])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().out


def _write_verify_inputs(tmp_path, system, certificate):
    paths = tmp_path / "system.json", tmp_path / "cert.json"
    for path, doc in zip(paths, (system, certificate)):
        path.write_text(json.dumps(doc))
    return [str(path) for path in paths]


def test_verify_residual_is_relative_at_tiny_scale(tmp_path, capsys):
    # sigma_max(S) is about 3e-30: a residual of 2.2e-31 is 7% of it, far
    # above the relative tolerance, however small it is in absolute terms
    system = {
        "r": 1, "n": 1, "d": 0, "A": [[[2e-30, 0]]], "B": [[[1e-30, 0]]],
        "C": [[[1e-30, 0]]], "P": [[[[1e-30, 0]]]],
    }
    cert = {"lambda": [5e-31, 0], "scenario": "A", "delta_blocks": {"A": [[[1e-40, 0]]]}, "claimed_eta": 1e-40}
    assert main(["verify", "--json", *_write_verify_inputs(tmp_path, system, cert)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["norm_ok"] and not report["residual_ok"]
    assert report["relative_residual"] > 0.05


def test_verify_zero_certificate_at_zero_s_lambda(tmp_path, capsys):
    # S(0.5) = 0: every certificate's residual is relative to a zero scale,
    # and the zero certificate's residual 0 passes
    system = dict(DIAG_SYSTEM, A=[[[0.5, 0.0]]], P=[[[[0.0, 0.0]]]])
    cert = {"lambda": [0.5, 0], "scenario": "A", "delta_blocks": {"A": [[[0, 0]]]}, "claimed_eta": 0}
    assert main(["verify", "--json", *_write_verify_inputs(tmp_path, system, cert)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] and report["relative_residual"] == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_verify_tol_must_be_finite_and_positive_exit_2(system_file, tmp_path, capsys, tol):
    cert = tmp_path / "cert.json"
    argv = ["backward-error", "--lambda", "0.3,0.1", "--scenario", "AB", system_file]
    assert main(argv + ["--output", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", "--tol", tol, system_file, str(cert)]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert "VERIFIED" not in captured.out and "FAILED" not in captured.out


def test_verify_rejects_wrong_block_label(system_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(
        [
            "backward-error",
            "--lambda",
            "0.3,0.1",
            "--scenario",
            "AB",
            system_file,
            "--output",
            str(cert),
        ]
    )
    doc = json.loads(cert.read_text())
    doc["scenario"] = "A"  # blocks now include one the scenario forbids
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", system_file, str(cert)]) == 2


def test_report_determinism(system_file, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        main(
            [
                "backward-error",
                "--lambda",
                "0.25,-0.4",
                "--scenario",
                "BCP",
                system_file,
                "--output",
                str(out),
            ]
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_oracle_matrix_mode(tmp_path, capsys):
    path = tmp_path / "offdiag.json"
    path.write_text(json.dumps(matrix_to_json(np.array([[0, 2], [3, 0]]))))
    rc = main(
        [
            "oracle",
            "--structure",
            "1x1,1x1",
            "--budget",
            "500",
            str(path),
            "--json",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu_sampled_lower"] >= 0.95 * np.sqrt(6)


def test_oracle_system_mode(diag_system_file, capsys):
    rc = main(
        [
            "oracle",
            "--scenario",
            "A",
            "--lambda",
            "0",
            "--budget",
            "100",
            diag_system_file,
            "--json",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["eta_sampled_upper"] == pytest.approx(2.0, rel=0.02)


def test_oracle_needs_mode(diag_system_file, capsys):
    assert main(["oracle", diag_system_file]) == 2


def test_oracle_system_mode_zero_budget_exit_2(diag_system_file, capsys):
    rc = main(
        ["oracle", "--scenario", "A", "--lambda", "0", "--budget", "0", diag_system_file]
    )
    assert rc == 2
    assert "budget" in capsys.readouterr().err


def test_boolean_dimension_exit_2(diag_system_file, tmp_path, capsys):
    with open(diag_system_file) as fh:
        doc = json.load(fh)
    doc["r"] = True
    path = tmp_path / "bool_r.json"
    path.write_text(json.dumps(doc))
    rc = main(["backward-error", "--lambda", "0", "--scenario", "A", str(path)])
    assert rc == 2
    assert "system.r" in capsys.readouterr().err


def test_boolean_matrix_entry_exit_2(tmp_path, capsys):
    path = tmp_path / "bool_entry.json"
    path.write_text("[[true]]")
    assert main(["mu", "--structure", "1x1", str(path)]) == 2
    assert "matrix[0][0]" in capsys.readouterr().err


def test_bad_scenario_exit_2(diag_system_file, capsys):
    rc = main(
        ["backward-error", "--lambda", "0", "--scenario", "XYZ", diag_system_file]
    )
    assert rc == 2


def test_bad_lambda_exit_2(diag_system_file):
    rc = main(
        ["backward-error", "--lambda", "zzz", "--scenario", "A", diag_system_file]
    )
    assert rc == 2


@pytest.mark.parametrize("lam", ["nan", "inf,0"])
def test_non_finite_lambda_exit_2(diag_system_file, capsys, lam):
    assert main(["backward-error", "--scenario", "A", "--lambda", lam, diag_system_file]) == 2
    assert capsys.readouterr().err == "error: lambda must be finite\n"


def test_bad_structure_exit_2(golden_matrix_file):
    assert main(["mu", "--structure", "2x", golden_matrix_file]) == 2


def test_ragged_matrix_file_exit_2(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps([[1.0, 2.0], [3.0]]))
    assert main(["mu", "--structure", "1x1", str(path)]) == 2
    assert capsys.readouterr().err == "error: matrix[1]: row has 1 entries, expected 2\n"


def _mu_commands(matrix_file, system_file):
    return [
        ["mu", "--structure", "2x3,3x2", matrix_file],
        ["sweep", "--lambda", "0.7", system_file],
        ["backward-error", "--scenario", "AB", "--lambda", "0.7", system_file],
        # mu never runs for one block, yet the flag is still rejected
        ["backward-error", "--scenario", "A", "--lambda", "0.7", system_file],
    ]


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--seed", "-3"), ("--starts", "-1")])
def test_negative_seed_or_starts_exit_2(golden_matrix_file, diag_system_file, capsys, flag, value):
    # only the oracle takes a seed; the mu commands take neither flag
    for argv in _mu_commands(golden_matrix_file, diag_system_file):
        assert main(argv[:-1] + [flag, value, argv[-1]]) == 2, argv
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, argv
    argv = ["oracle", "--structure", "2x3,3x2", "--budget", "5", flag, value, golden_matrix_file]
    assert main(argv) == 2
    err = capsys.readouterr().err
    if flag == "--seed":
        assert "error: --seed must be nonnegative" in err
    else:
        assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("flag,value", [("--seed", "0"), ("--starts", "8"), ("--tol", "1e-8")])
def test_mu_commands_reject_removed_flags_exit_2(
    golden_matrix_file, diag_system_file, capsys, flag, value
):
    # the mu engine draws no random numbers and reads no tolerance
    for argv in _mu_commands(golden_matrix_file, diag_system_file):
        assert main(argv[:-1] + [flag, value, argv[-1]]) == 2, argv
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, argv


def test_missing_file_exit_2(capsys):
    assert main(["mu", "--structure", "1x1", "/nonexistent/m.json"]) == 2


def test_non_json_file_exit_2_names_the_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("[[1, 2], not json")
    assert main(["mu", "--structure", "1x1", str(path)]) == 2
    assert f"{path} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("2xa", "'2xa' is not of the form PxK"),
        ("2x2x2", "'2x2x2' is not of the form PxK"),
        ("0x1", "block 0: shapes must be >= 1, got (0, 1)"),
    ],
)
def test_malformed_structure_exit_2(golden_matrix_file, capsys, spec, message):
    assert main(["mu", "--structure", spec, golden_matrix_file]) == 2
    assert message in capsys.readouterr().err


def test_backward_error_text_bracket_only(tmp_path, capsys):
    # a multiplicity-2 kink at the scaling optimum keeps the 4-block bracket open
    path = tmp_path / "fluid0.json"
    path.write_text(json.dumps(system_to_json(fluid_solid_instance(0))))
    assert main(["backward-error", "--scenario", "ABCP", "--lambda", "1", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scenario ABCP  lambda = 1+0i"
    assert lines[1].startswith("eta in [0.29479963")
    assert lines[1].endswith("] (bracket_only; upper side certified)")
    assert lines[2].startswith("certificate: max block norm 0.29479963")
    assert len(lines) == 3


def test_possibly_infinite_warning_in_text_report(tmp_path, capsys):
    # entries near the double limit leave mu ~ 1e-308, below the smallest
    # normal double, so the lower bound counts as vanished and no
    # certificate is built
    big = {"r": 1, "n": 1, "d": 0, "A": [[[1e308, 0]]], "B": [[[5e307, 0]]],
           "C": [[[2.5e307, 0]]], "P": [[[[1e308, 0]]]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(big))
    assert main(["backward-error", "--scenario", "AB", "--lambda", "0", str(path)]) == 0
    out = capsys.readouterr().out
    assert "warning: mu lower bound vanished; eta possibly infinite\n" in out
    assert "certificate:" not in out


def test_rows_without_certificate_are_bracket_only(tmp_path, capsys):
    # on the near-1e308 system seven multi-block rows get a finite eta_lower
    # but no certificate, so eta_upper = inf stands for no known perturbation
    big = {"r": 1, "n": 1, "d": 0, "A": [[[1e308, 0]]], "B": [[[5e307, 0]]],
           "C": [[[2.5e307, 0]]], "P": [[[[1e308, 0]]]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(big))
    assert main(["sweep", "--lambda", "0", "--json", str(path)]) == 0
    rows = {r["scenario"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    uncertified = {name for name, r in rows.items() if r["eta_upper"] == "inf" and len(name) > 1}
    assert uncertified == {"AB", "AC", "AP", "BC", "BP", "CP", "ABP"}
    for name in uncertified:
        row = rows[name]
        assert (row["exactness"], row["certified_side"]) == ("bracket_only", "upper"), name
        assert isinstance(row["eta_lower"], float) and row["delta_blocks"] is None, name
    assert main(["backward-error", "--scenario", "AB", "--lambda", "0", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "eta in [7e+307, inf] (bracket_only; upper side certified)"


def test_infinite_eta_rendered_as_string(tmp_path, capsys):
    a0 = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    doc = {
        "r": 1,
        "n": 3,
        "d": 0,
        "A": [[[1.3, 0.0]]],
        "B": matrix_to_json(np.array([[0.0, 0.0, 1.0]])),
        "C": matrix_to_json(np.array([[1.0], [0.0], [0.0]])),
        "P": [matrix_to_json(a0)],
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    rc = main(
        ["backward-error", "--lambda", "0.8", "--scenario", "A", str(path), "--json"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["eta_upper"] == "inf"
    assert report["claimed_eta"] == "inf"
    witness = np.array(report["witness"], dtype=float)
    assert np.abs(witness).max() <= 1e-12  # the vanished inverse window
    # a certificate claiming inf cannot be verified
    cert = tmp_path / "infcert.json"
    cert.write_text(json.dumps(report))
    assert main(["verify", str(path), str(cert)]) == 2


DIAG_CERTIFICATE = {
    "lambda": [0.0, 0.0],
    "scenario": "A",
    "delta_blocks": {"A": [[[2.0, 0.0]]]},
    "claimed_eta": 2.0,
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambda", ["x", 0]),
        ("lambda", [True, False]),
        ("scenario", 5),
        ("delta_blocks", [1]),
        ("claimed_eta", "abc"),
        ("claimed_eta", [1]),
        ("claimed_eta", None),
        # integers beyond the double range
        pytest.param("claimed_eta", 10**400, id="claimed_eta-huge"),
        pytest.param("delta_blocks", {"A": [[10**400]]}, id="delta_blocks-huge"),
    ],
)
def test_verify_malformed_field_exit_2(diag_system_file, tmp_path, capsys, field, value):
    doc = dict(DIAG_CERTIFICATE, **{field: value})
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    assert main(["verify", diag_system_file, str(cert)]) == 2
    assert f"certificate.{field}" in capsys.readouterr().err


def test_lapack_failure_exit_3(golden_matrix_file, capsys, monkeypatch):
    def svd_not_converged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    # rosenmu.mu calls LAPACK's SVD as numpy.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", svd_not_converged)
    assert main(["mu", "--structure", "2x3,3x2", golden_matrix_file]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_subnormal_matrix_brackets_exit_0(tmp_path, capsys):
    # sigma_max = 1e-320 is subnormal: dividing by it must not overflow
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps([[1e-320, 0], [0, 1e-320]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["mu", "--structure", "1x1,1x1", "--json", str(path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lower"] == report["upper"] == 1e-320
    assert report["possibly_zero"] is True


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_overflowing_mu_exit_2(tmp_path, capsys, as_json):
    # every entry is finite, but mu = sigma_max(M) = 2e308 is past the double range
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([[1e308, 1e308], [1e308, 1e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["mu", "--structure", "1x1,1x1", *as_json, str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "sigma_max(M) overflows" in captured.err
    assert "nan" not in captured.out.lower()


def test_overflowing_system_names_s_lambda_exit_2(tmp_path, capsys):
    # P(0.9) = 1e308 * 0.9 + 1e308 overflows although every entry is finite
    doc = dict(DIAG_SYSTEM, d=1, P=[[[[1e308, 0.0]]], [[[1e308, 0.0]]]])
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["backward-error", "--scenario", "A", "--lambda", "0.9", str(path)])
    assert rc == 2
    assert "S(lambda) is not finite at lambda = 0.9+0i" in capsys.readouterr().err


def test_overflowing_a_minus_lambda_names_s_lambda_exit_2(tmp_path, capsys):
    # A - lambda I = 1e308 + 1e308 overflows although A and lambda are finite
    path = tmp_path / "big_a.json"
    path.write_text(json.dumps(dict(DIAG_SYSTEM, A=[[[1e308, 0.0]]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["backward-error", "--scenario", "A", "--lambda", "-1e308", str(path)])
    assert rc == 2
    assert "S(lambda) is not finite at lambda = -1e+308+0i" in capsys.readouterr().err


def test_verify_overflowing_difference_names_it_exit_2(diag_system_file, tmp_path, capsys):
    # S(lambda) and Delta S are finite; A - lambda - Delta A = -2e308 is not
    doc = dict(DIAG_CERTIFICATE, delta_blocks={"A": [[[1e308, 0.0]]]})
    doc["lambda"] = [1e308, 0.0]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["verify", diag_system_file, str(cert)])
    assert rc == 2
    assert "S(lambda) - Delta S is not finite at lambda = 1e+308+0i" in capsys.readouterr().err


# S(1e160) = [[2 - 1e160, 1], [1, 1 + 1e160]] is finite, but lambda^2 is not;
# S(1e300) is not finite
TINY_A2 = {"r": 1, "n": 1, "d": 2, "A": [[2]], "B": [[1]], "C": [[1]], "P": [[[1]], [[0]], [[1e-160]]]}
WEIGHT_OVERFLOW_1E160 = (
    "error: the weight sum_j |lambda|^j of lambda^0..lambda^2 overflows the double range "
    "at lambda = 1e+160+0i"
)
S_OVERFLOW_1E300 = (
    "error: S(lambda) is not finite at lambda = 1e+300+0i (its entries overflow the double range)"
)


@pytest.fixture
def tiny_a2_file(tmp_path):
    path = tmp_path / "tiny_a2.json"
    path.write_text(json.dumps(TINY_A2))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["backward-error", "--scenario", "P"],
        ["sweep"],
        ["oracle", "--scenario", "P", "--budget", "5"],
    ],
)
def test_overflowing_lambda_power_exit_2(tiny_a2_file, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv + ["--lambda", "1e160", tiny_a2_file])
    assert rc == 2
    assert "lambda^2 overflows" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["backward-error", "--scenario", "P"], ["sweep"]])
@pytest.mark.parametrize(
    "lambdas,message",
    [
        (["0.5", "1e160", "1e300"], WEIGHT_OVERFLOW_1E160),
        (["0.5", "1e300", "1e160"], S_OVERFLOW_1E300),
    ],
)
def test_scan_names_the_first_failing_lambda_exit_2(tiny_a2_file, capsys, command, lambdas, message):
    # the weight fails after S(lambda) is assembled, yet the earlier lambda decides
    argv = list(command)
    for lam in lambdas:
        argv += ["--lambda", lam]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv + [tiny_a2_file])
    assert rc == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["--scenario", "A", "--lambda", "0", "--lambda", "1.5"],
        ["--structure", "1x1", "--scenario", "A"],
        ["--structure", "1x1", "--lambda", "0"],
    ],
)
def test_oracle_rejects_unused_arguments_exit_2(diag_system_file, tmp_path, capsys, flags):
    # matrix mode reads the 1x1 matrix file, system mode the diagonal system
    matrix = tmp_path / "one.json"
    matrix.write_text(json.dumps([[1.0]]))
    path = str(matrix) if "--structure" in flags else diag_system_file
    assert main(["oracle", "--budget", "5"] + flags + [path]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Report bytes: matrices written in one pass, pinned CLI reports.
# ---------------------------------------------------------------------------


def _reference_dumps(obj) -> str:
    """The recursive writer report matrices went through before the one-pass path."""
    if isinstance(obj, list):
        return "[" + ", ".join(_reference_dumps(v) for v in obj) + "]" if obj else "[]"
    x = float(obj)
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _edge_matrix(rng, rows, cols):
    """Random complex matrix salted with signed zeros, integers and extreme doubles."""
    m = cgauss(rng, rows, cols)
    special = [0.0, -0.0, 1.0, -3.0, 1e-320, -1e-320, 1.7976931348623157e308,
               -1.7976931348623157e308]
    flat = m.reshape(-1)
    for k in rng.choice(flat.size, size=min(flat.size, 2 * len(special)), replace=False):
        flat[k] = complex(special[rng.integers(len(special))], special[rng.integers(len(special))])
    return m


@pytest.mark.parametrize("shape", [(1, 1), (11, 1), (1, 11), (11, 11)])
def test_matrix_report_bytes_match_reference(rng, shape):
    for _ in range(20):
        m = _edge_matrix(rng, *shape)
        assert dumps_report(m) == _reference_dumps(matrix_to_json(m))
    for z in (0.0, -0.0):
        m = np.full(shape, complex(z, -z))
        assert dumps_report(m) == _reference_dumps(matrix_to_json(m))
        assert "-0" not in dumps_report(m)
    assert dumps_report(np.full(shape, 1.0 + 2.0j)).startswith("[[[1, 2]")


def test_matrix_report_non_finite_entries_match_reference():
    m = np.array([[np.inf, complex(1.5, -np.inf)], [complex(-0.0, np.nan), 2.0]])
    listed = [[[float(e.real), float(e.imag)] for e in row] for row in m]
    assert dumps_report(m) == _reference_dumps(listed)


def test_reports_rendered_only_where_written(diag_system_file, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("rendered a form that is not written")

    argv = ["--lambda", "0.3", "--lambda", "0.7", diag_system_file]
    with monkeypatch.context() as patch:
        patch.setattr(rosenmu.cli, "_backward_error_text", refuse)
        patch.setattr(rosenmu.cli, "_sweep_text", refuse)
        assert main(["backward-error", "--scenario", "AB", "--json", *argv]) == 0
        assert main(["sweep", "--json", "--output", str(tmp_path / "s.json"), *argv]) == 0
    with monkeypatch.context() as patch:
        patch.setattr(rosenmu.cli, "dumps_report", refuse)
        assert main(["backward-error", "--scenario", "AB", *argv]) == 0
        assert main(["sweep", *argv]) == 0
    assert "scenario AB  lambda = 0.7+0i" in capsys.readouterr().out


# A system with d = 2, whose P block carries the weight sum_j |lambda|^j.
SYSTEM_D2 = {
    "r": 1, "n": 2, "d": 2, "A": [[[2, 0]]], "B": [[[1, 0], [0, 1]]], "C": [[[1, 0]], [[0, -1]]],
    "P": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0, 0], [2, 0]], [[1, 0], [0, 0]]],
          [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]],
}


def _stdout_sha256(argv, capsys) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


# The digests below pin every byte of two reports; they hold for one
# LAPACK/BLAS build (numpy 2.4, x86-64) and may need re-recording on another.
def test_backward_error_p_scan_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "system_d2.json"
    path.write_text(json.dumps(SYSTEM_D2))
    argv = ["backward-error", "--json", "--scenario", "P"]
    for k in range(25):
        argv += ["--lambda", f"{-1.2 + 0.1 * k:.2f},{0.6 - 0.05 * k:.2f}"]
    assert _stdout_sha256(argv + [str(path)], capsys) == (
        "75660684e867a07d1cd9510d6fba35809cf9641871f5142021acf6af36252e57"
    )


def test_p_scan_stacks_its_lapack_calls(tmp_path, monkeypatch, capsys):
    # 25 points, lambda = 0 an eigenvalue: one SVD of the S(lambda) stack, one
    # of the M stack and one of the residuals, and one solve, where point by
    # point takes 73 and 24
    path = tmp_path / "system_d2.json"
    path.write_text(json.dumps(SYSTEM_D2))
    argv = ["backward-error", "--json", "--scenario", "P"]
    for k in range(25):
        argv += ["--lambda", f"{-1.2 + 0.1 * k:.2f},{0.6 - 0.05 * k:.2f}"]
    calls = {"svd": 0, "solve": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert main(argv + [str(path)]) == 0
    assert calls == {"svd": 3, "solve": 1}


def test_sweep_fluid_solid_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "fluid_solid.json"
    path.write_text(json.dumps(system_to_json(fluid_solid_instance())))
    argv = ["sweep", "--json", "--lambda", "0.5", "--lambda", "1.5,0.25", str(path)]
    assert _stdout_sha256(argv, capsys) == (
        "9f10f22eb29baf227fb61bef61977d957a06c5a50fbee29d01155477e4e0e50b"
    )


# ---------------------------------------------------------------------------
# Malformed JSON never escapes as a traceback.
# ---------------------------------------------------------------------------

VALID_SYSTEM = {
    "r": 1,
    "n": 1,
    "d": 1,
    "A": [[[2.0, 0.0]]],
    "B": [[[0.5, 0.0]]],
    "C": [[[0.0, 1.0]]],
    "P": [[[[1.0, 0.0]]], [[[0.0, -1.0]]]],
}

_numbers = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 5e-324, 1e-320, 1e308, -1e308, 10**400]),
)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_entries = _numbers | st.lists(_numbers, min_size=2, max_size=2)
# numeric matrices of small shapes, entries as numbers or [re, im] pairs
_matrices = st.integers(1, 3).flatmap(
    lambda cols: st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=1, max_size=3)
)


def _mutated(valid: dict):
    """A valid document with one field replaced or dropped, or any JSON value."""
    keys = st.sampled_from(sorted(valid))
    replaced = st.builds(lambda k, v: {**valid, k: v}, keys, _json | _matrices)
    dropped = keys.map(lambda k: {key: v for key, v in valid.items() if key != k})
    return st.one_of(replaced, dropped, _json)


def _structure_for(doc) -> str:
    """A block structure that fits doc when it is a k x p array."""
    if isinstance(doc, list) and doc and isinstance(doc[0], list) and doc[0]:
        k, p = len(doc), len(doc[0])
        return "1x1,1x1" if (k, p) == (2, 2) else f"{p}x{k}"
    return "1x1"


# well-formed documents whose numbers are extreme
_odd_systems = st.builds(lambda k, v: {**VALID_SYSTEM, k: [[v]]}, st.sampled_from("ABC"), _entries)
_odd_certificates = st.builds(
    lambda lam, v, eta: {**DIAG_CERTIFICATE, "lambda": lam, "delta_blocks": {"A": [[v]]}, "claimed_eta": eta},
    st.lists(_numbers, min_size=2, max_size=2),
    _entries,
    _numbers,
)


def _rejected(parse):
    """Keep only documents that parse refuses, so no valid one runs a search."""

    def refused(doc) -> bool:
        try:
            parse(doc)
        except InputError:
            return True
        return False

    return refused


_bad_systems = _mutated(VALID_SYSTEM).filter(_rejected(system_from_json))
_bad_matrices = (_matrices | _json).filter(_rejected(lambda doc: matrix_from_json(doc, "matrix")))

# (command, document): a matrix for mu, a system for backward-error under
# scenario A, P or AB, or a certificate for verify; sweep and both oracle
# modes get malformed documents only, since a valid one costs seconds
_cases = st.one_of(
    st.tuples(st.just("mu"), _matrices | _json),
    st.tuples(st.sampled_from(["A", "P", "AB"]), _mutated(VALID_SYSTEM) | _odd_systems),
    st.tuples(st.just("verify"), _mutated(DIAG_CERTIFICATE) | _odd_certificates),
    st.tuples(st.just("sweep"), _bad_systems),
    st.tuples(st.just("oracle-system"), _bad_systems),
    st.tuples(st.just("oracle-matrix"), _bad_matrices),
)


@given(case=_cases)
@settings(max_examples=250, deadline=None)
def test_cli_fuzz_exit_codes(case):
    kind, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if kind == "mu":
            argv = ["mu", "--structure", _structure_for(doc), path]
        elif kind == "verify":
            sys_path = os.path.join(tmp, "system.json")
            with open(sys_path, "w", encoding="utf-8") as fh:
                json.dump(dict(VALID_SYSTEM, d=0, P=VALID_SYSTEM["P"][:1]), fh)
            argv = ["verify", sys_path, path]
        elif kind == "sweep":
            argv = ["sweep", "--lambda", "0.5", path]
        elif kind == "oracle-system":
            argv = ["oracle", "--scenario", "AB", "--lambda", "0.5", "--budget", "5", path]
        elif kind == "oracle-matrix":
            argv = ["oracle", "--structure", _structure_for(doc), "--budget", "5", path]
        else:
            argv = ["backward-error", "--scenario", kind, "--lambda", "0.5", path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("command", ["mu", "verify"])
@pytest.mark.parametrize(
    "content", [b"[" * 100_000, b"\xff\xfe[[1]]"], ids=["deeply-nested", "not-utf-8"]
)
def test_undecodable_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    if command == "mu":
        argv = ["mu", "--structure", "1x1", str(path)]
    else:
        system = tmp_path / "system.json"
        system.write_text(json.dumps(VALID_SYSTEM))
        argv = ["verify", str(system), str(path)]
    assert main(argv) == 2
    assert f"error: {path}" in capsys.readouterr().err


def test_json_integer_too_long_to_convert_exits_2(tmp_path, capsys):
    path = tmp_path / "bigint.json"
    path.write_text("[[" + "1" * 5000 + "]]")
    assert main(["mu", "--structure", "1x1", str(path)]) == 2
    assert f"error: {path} is not valid JSON" in capsys.readouterr().err


LONG_LIST = list(range(20_000))


@pytest.mark.parametrize(
    "site",
    ["matrix-entry", "system.r", "claimed_eta", "certificate-scenario", "scenario-argument",
     "lambda-argument", "structure-argument", "block-shape"],
)
def test_error_message_bounds_the_input_it_repeats(tmp_path, capsys, site):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(VALID_SYSTEM))
    cert = tmp_path / "cert.json"
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps([[1.0]]))
    if site == "matrix-entry":
        matrix.write_text(json.dumps([["x" * 100_000]]))
        argv = ["mu", "--structure", "1x1", str(matrix)]
    elif site == "system.r":
        system.write_text(json.dumps(dict(VALID_SYSTEM, r=LONG_LIST)))
        argv = ["sweep", "--lambda", "0.5", str(system)]
    elif site in ("claimed_eta", "certificate-scenario"):
        doc = dict(DIAG_CERTIFICATE)
        if site == "claimed_eta":
            doc["claimed_eta"] = LONG_LIST
        else:
            doc["scenario"] = "A" * 100_000
        cert.write_text(json.dumps(doc))
        argv = ["verify", str(system), str(cert)]
    elif site == "scenario-argument":
        argv = ["backward-error", "--scenario", "AB" * 25_000, "--lambda", "0", str(system)]
    elif site == "lambda-argument":
        argv = ["sweep", "--lambda", "1" * 20_000 + "x", str(system)]
    elif site == "structure-argument":
        argv = ["mu", "--structure", "1x" * 20_000, str(matrix)]
    else:
        argv = ["mu", "--structure=-" + "9" * 4_000 + "x1", str(matrix)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.encode("utf-8")) < 300, err[:400]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["oracle", "--structure", "1x1", "--budget", "x" * 50_000, "MATRIX"], "--budget"),
        (["verify", "--tol", "y" * 50_000, "SYSTEM", "CERT"], "--tol"),
        (["mu", "--structure", "1x1", "MATRIX", "z" * 50_000], "unrecognized arguments"),
    ],
    ids=["budget-value", "tol-value", "stray-argument"],
)
def test_argparse_error_bounds_the_input_it_repeats(tmp_path, capsys, argv, named):
    # argparse's own messages go through the parser's error path, not linalg.shown
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps([[1.0]]))
    files = {"MATRIX": str(matrix), "SYSTEM": str(matrix), "CERT": str(matrix)}
    assert main([files.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.encode("utf-8")) < 500, err[:600]
    assert f"error: argument {named}:" in err or f"error: {named}:" in err


@pytest.mark.parametrize("site", ["read", "write"])
def test_error_message_bounds_a_long_path(golden_matrix_file, capsys, site):
    # a path that cannot be read or written is named once, cut to its two
    # ends, and the OS reason follows without a second copy of it
    long_path = "p" * 50_000
    argv = ["mu", "--structure", "2x3,3x2"]
    argv += [long_path] if site == "read" else [golden_matrix_file, "--output", long_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot {site} {'p' * 80}...{'p' * 80}: ")
    assert len(captured.err.encode("utf-8")) < 500, captured.err[:600]


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["mu", "backward-error", "verify"])
def test_unwritable_output_exits_2_before_stdout(tmp_path, golden_matrix_file, capsys, command, target):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(DIAG_SYSTEM))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(DIAG_CERTIFICATE))
    output = str(tmp_path / "missing" / "x.json") if target == "missing-directory" else str(tmp_path)
    argv = {
        "mu": ["mu", "--structure", "2x3,3x2", golden_matrix_file],
        "backward-error": ["backward-error", "--scenario", "A", "--lambda", "0", str(system)],
        "verify": ["verify", str(system), str(cert)],
    }[command]
    if command == "verify":
        assert main(argv) == 0  # a valid certificate
        capsys.readouterr()
    assert main(argv + ["--output", output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {output}: ")


def test_sweep_independent_of_blas_threads(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(random_system(rng, r=2, n=2, d=1))))
    src = os.path.dirname(os.path.dirname(os.path.abspath(rosenmu.__file__)))
    scan = ["backward-error", "--scenario", "P"]
    for k in range(25):
        scan += ["--lambda", f"{-1.2 + 0.1 * k:.2f},{0.6 - 0.05 * k:.2f}"]
    commands = [
        ["sweep", "--lambda", "0.7"],
        ["sweep", "--lambda", "0.7", "--lambda", "-0.4,0.9", "--lambda", "1.6"],
        scan,
    ]
    outputs = {}
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for i, command in enumerate(commands):
            proc = subprocess.run(
                [sys.executable, "-m", "rosenmu.cli", *command, "--json", str(path)],
                env=env,
                capture_output=True,
                timeout=300,
                check=True,
            )
            outputs.setdefault(i, []).append(proc.stdout)
    for i, (one, four) in outputs.items():
        assert one == four, commands[i][:2]
