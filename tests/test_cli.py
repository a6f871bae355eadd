"""CLI surface: parsing, reports, exit codes, certificate round-trips."""

import json

import numpy as np
import pytest

from rosenmu import matrix_to_json, system_to_json
from rosenmu.cli import main

from conftest import GOLDEN_5X5, random_system


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


@pytest.fixture
def diag_system_file(tmp_path):
    doc = {
        "r": 1,
        "n": 1,
        "d": 0,
        "A": [[[2.0, 0.0]]],
        "B": [[[0.0, 0.0]]],
        "C": [[[0.0, 0.0]]],
        "P": [[[[1.0, 0.0]]]],
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
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
                "--seed",
                "11",
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


def test_bad_structure_exit_2(golden_matrix_file):
    assert main(["mu", "--structure", "2x", golden_matrix_file]) == 2


def test_missing_file_exit_2(capsys):
    assert main(["mu", "--structure", "1x1", "/nonexistent/m.json"]) == 2


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
