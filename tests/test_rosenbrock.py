"""System evaluation, eigenvalue test, unstructured error, JSON format."""

import numpy as np
import pytest
import scipy.linalg

from rosenmu import (
    InputError,
    RosenbrockSystem,
    evaluate,
    is_eigenvalue,
    system_from_json,
    system_to_json,
    unstructured_backward_error,
)
from rosenmu.rosenbrock import Scan

from conftest import cgauss, random_system


@pytest.fixture
def diag_sys():
    return RosenbrockSystem([[2]], [[0]], [[0]], ([[1]],))


def test_evaluate_diagonal(diag_sys):
    np.testing.assert_allclose(evaluate(diag_sys, 0.0), np.diag([2.0, 1.0]))


def test_evaluate_block_triangular_eigenvalue(rng):
    a = np.diag([1.5, -0.5])
    sys_ = RosenbrockSystem(a, np.zeros((2, 2)), np.zeros((2, 2)), (np.eye(2),))
    s = evaluate(sys_, 1.5)
    assert np.linalg.svd(s, compute_uv=False)[-1] == pytest.approx(0.0, abs=1e-14)


def test_evaluate_polynomial_block():
    sys_ = RosenbrockSystem(
        [[1]], [[0, 0]], [[0], [0]], (np.zeros((2, 2)), np.eye(2))
    )
    s = evaluate(sys_, 2.0)
    np.testing.assert_allclose(s[1:, 1:], 2 * np.eye(2))


def test_is_eigenvalue_diagonal(diag_sys):
    assert is_eigenvalue(diag_sys, 2.0)
    assert not is_eigenvalue(diag_sys, 0.0)


def _system_eigenvalues(sys_):
    """Eigenvalues of S(z) via companion linearization of the matrix polynomial."""
    deg = max(1, sys_.d)
    m = sys_.r + sys_.n
    coeffs = []
    for j in range(deg + 1):
        pj = np.zeros((m, m), dtype=complex)
        if j == 0:
            pj = np.block([[sys_.a, sys_.b], [sys_.c, sys_.poly_coeffs[0]]])
        else:
            if j == 1:
                pj[: sys_.r, : sys_.r] = -np.eye(sys_.r)
            if j <= sys_.d:
                pj[sys_.r :, sys_.r :] = sys_.poly_coeffs[j]
        coeffs.append(pj)
    top = np.block(
        [
            [np.zeros((m * (deg - 1), m)), np.eye(m * (deg - 1))],
            [-np.hstack(coeffs[:-1])],
        ]
    )
    lead = np.block(
        [
            [np.eye(m * (deg - 1)), np.zeros((m * (deg - 1), m))],
            [np.zeros((m, m * (deg - 1))), coeffs[-1]],
        ]
    )
    ev = scipy.linalg.eigvals(top, lead)
    return ev[np.isfinite(ev)]


def test_is_eigenvalue_matches_linearization(rng):
    for _ in range(10):
        sys_ = random_system(rng)
        eigs = _system_eigenvalues(sys_)
        for lam in eigs[:3]:
            assert is_eigenvalue(sys_, lam, tol=1e-8)
        lam_far = 10.0 + np.max(np.abs(eigs)) if eigs.size else 10.0
        assert not is_eigenvalue(sys_, lam_far)


def test_point_inverse_and_norms(rng):
    for _ in range(10):
        sys_ = random_system(rng)
        scan = Scan(sys_, [complex(*rng.standard_normal(2))])
        s = evaluate(sys_, scan.lams[0])
        np.testing.assert_array_equal(scan.s[0], s)
        sv = np.linalg.svd(s, compute_uv=False)
        smax, smin = scan.sigma_max[0], scan.sigma_min[0]
        assert (smax, smin) == (sv[0], sv[-1])
        assert not scan.eigen[0]
        inv = scan.inverse[0]
        assert np.linalg.norm(s @ inv - np.eye(len(s)), 2) <= 1e-10 * smax / smin
        assert 1.0 / smin == pytest.approx(np.linalg.svd(inv, compute_uv=False)[0], rel=1e-10)


def test_scan_leaves_no_inverse_at_eigenvalue(diag_sys):
    # lambda = 2 is an eigenvalue: its row of the stacked inverse stays zero,
    # and the solve runs on the other points only
    scan = Scan(diag_sys, [0.0, 2.0, 1.0])
    assert scan.eigen.tolist() == [False, True, False]
    assert not scan.inverse[1].any()
    np.testing.assert_allclose(scan.inverse[0], np.diag([0.5, 1.0]))
    np.testing.assert_allclose(scan.inverse[2], np.diag([1.0, 1.0]))


def test_unstructured_error_zero_at_eigenvalue(diag_sys):
    assert unstructured_backward_error(diag_sys, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_unstructured_error_diagonal_values(diag_sys):
    assert unstructured_backward_error(diag_sys, 0.0) == pytest.approx(1.0)
    assert unstructured_backward_error(diag_sys, 1.0) == pytest.approx(0.5)


def test_unstructured_error_sign(rng):
    for _ in range(10):
        sys_ = random_system(rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        eta = unstructured_backward_error(sys_, lam)
        assert eta >= 0.0
        assert (eta <= 1e-12) == is_eigenvalue(sys_, lam, tol=1e-12)


def test_evaluate_affine_in_coefficients(rng):
    sys_ = random_system(rng, r=2, n=2, d=1)
    e = cgauss(rng, 2, 2)
    bumped = RosenbrockSystem(
        sys_.a, sys_.b, sys_.c, (sys_.poly_coeffs[0] + e, sys_.poly_coeffs[1])
    )
    lam = 0.7 + 0.2j
    diff = evaluate(bumped, lam) - evaluate(sys_, lam)
    np.testing.assert_allclose(diff[2:, 2:], e)
    np.testing.assert_allclose(diff[:2, :], 0, atol=1e-15)
    np.testing.assert_allclose(diff[:, :2], 0, atol=1e-15)


def test_json_round_trip(rng):
    sys_ = random_system(rng, r=2, n=3, d=2)
    again = system_from_json(system_to_json(sys_))
    np.testing.assert_allclose(again.a, sys_.a)
    np.testing.assert_allclose(again.b, sys_.b)
    np.testing.assert_allclose(again.c, sys_.c)
    for p, q in zip(again.poly_coeffs, sys_.poly_coeffs):
        np.testing.assert_allclose(p, q)


def test_json_dimension_mismatch_names_path(rng):
    doc = system_to_json(random_system(rng, r=2, n=2, d=1))
    doc["B"] = doc["B"][:1]
    with pytest.raises(InputError, match="system.B"):
        system_from_json(doc)
    doc2 = system_to_json(random_system(rng, r=2, n=2, d=1))
    doc2["P"][1][0][0] = [1.0, 2.0, 3.0]
    with pytest.raises(InputError, match=r"system.P\[1\]"):
        system_from_json(doc2)


def test_json_missing_field():
    with pytest.raises(InputError, match="missing field"):
        system_from_json({"r": 1, "n": 1, "d": 0})


def test_dimension_validation():
    with pytest.raises(InputError, match="C must be"):
        RosenbrockSystem([[1]], [[1]], [[1], [2]], ([[1]],))
    with pytest.raises(InputError, match=r"P\[0\]"):
        RosenbrockSystem([[1]], [[1, 0]], [[1], [0]], ([[1]],))
    with pytest.raises(InputError, match=r"A must be square, got \(1, 2\)"):
        RosenbrockSystem([[1, 2]], [[1]], [[1]], ([[1]],))
    with pytest.raises(InputError, match=r"B must have 2 rows, got \(1, 1\)"):
        RosenbrockSystem(np.eye(2), [[1]], [[1, 0]], ([[1]],))
    with pytest.raises(InputError, match="poly_coeffs must contain at least A_0"):
        RosenbrockSystem([[1]], [[1]], [[1]], ())


def test_evaluate_refuses_overflowing_s_lambda():
    sys_ = RosenbrockSystem([[1]], [[1]], [[1]], ([[1e308]], [[1e308]]))
    with pytest.raises(InputError, match=r"S\(lambda\) is not finite at lambda = 0.9\+0i"):
        evaluate(sys_, 0.9)
