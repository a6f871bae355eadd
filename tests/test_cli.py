"""CLI surface: parsing, reports, exit codes, certificate round-trips."""

import contextlib
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


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--seed", "-3"), ("--starts", "-1")])
def test_negative_seed_or_starts_exit_2(golden_matrix_file, diag_system_file, capsys, flag, value):
    commands = [
        ["mu", "--structure", "2x3,3x2", golden_matrix_file],
        ["sweep", "--lambda", "0.7", diag_system_file],
        ["backward-error", "--scenario", "AB", "--lambda", "0.7", diag_system_file],
        # mu never runs for one block, yet the flag is still rejected
        ["backward-error", "--scenario", "A", "--lambda", "0.7", diag_system_file],
    ]
    if flag == "--seed":
        commands.append(["oracle", "--structure", "2x3,3x2", "--budget", "5", golden_matrix_file])
    for argv in commands:
        assert main(argv[:-1] + [flag, value, argv[-1]]) == 2, argv
        assert f"error: {flag} must be nonnegative" in capsys.readouterr().err, argv


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


@pytest.mark.parametrize(
    "argv",
    [
        ["backward-error", "--scenario", "P"],
        ["sweep"],
        ["oracle", "--scenario", "P", "--budget", "5"],
    ],
)
def test_overflowing_lambda_power_exit_2(tmp_path, capsys, argv):
    # S(1e160) = [[2 - 1e160, 1], [1, 1 + 1e160]] is finite, but lambda^2 is not
    path = tmp_path / "tiny_a2.json"
    path.write_text(
        json.dumps({"r": 1, "n": 1, "d": 2, "A": [[2]], "B": [[1]], "C": [[1]],
                    "P": [[[1]], [[0]], [[1e-160]]]})
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv + ["--lambda", "1e160", str(path)])
    assert rc == 2
    assert "lambda^2 overflows" in capsys.readouterr().err


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
            argv = ["mu", "--structure", _structure_for(doc), "--starts", "1", path]
        elif kind == "verify":
            sys_path = os.path.join(tmp, "system.json")
            with open(sys_path, "w", encoding="utf-8") as fh:
                json.dump(dict(VALID_SYSTEM, d=0, P=VALID_SYSTEM["P"][:1]), fh)
            argv = ["verify", sys_path, path]
        elif kind == "sweep":
            argv = ["sweep", "--lambda", "0.5", "--starts", "1", path]
        elif kind == "oracle-system":
            argv = ["oracle", "--scenario", "AB", "--lambda", "0.5", "--budget", "5", path]
        elif kind == "oracle-matrix":
            argv = ["oracle", "--structure", _structure_for(doc), "--budget", "5", path]
        else:
            argv = ["backward-error", "--scenario", kind, "--lambda", "0.5", "--starts", "1", path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)


def test_sweep_independent_of_blas_threads(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(random_system(rng, r=2, n=2, d=1))))
    src = os.path.dirname(os.path.dirname(os.path.abspath(rosenmu.__file__)))
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rosenmu.cli", "sweep", "--json", "--lambda", "0.7", str(path)],
            env=env,
            capture_output=True,
            timeout=300,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
