"""Contracts of the dense linear-algebra kernels."""

import numpy as np
import pytest

from rosenmu import (
    BlockStructure,
    InputError,
    mu_upper,
    sigma_max,
    sigma_min,
)
from rosenmu.linalg import as_matrix

from conftest import cgauss


def test_svd_identity():
    assert sigma_max(np.eye(3)) == pytest.approx(1.0)
    assert sigma_min(np.eye(3)) == pytest.approx(1.0)
    # the multiplicity of the largest singular value is counted in the mu engine
    assert mu_upper(np.eye(3), BlockStructure(((3, 3),))).multiplicity == 3


def test_svd_antidiagonal():
    m = np.array([[0, 2], [3, 0]])
    assert sigma_max(m) == pytest.approx(3.0)
    assert sigma_min(m) == pytest.approx(2.0)
    assert mu_upper(m, BlockStructure(((2, 2),))).multiplicity == 1


def test_svd_zero_matrix():
    assert sigma_max(np.zeros((2, 2))) == 0.0
    assert sigma_min(np.zeros((2, 2))) == 0.0


def test_sigma_extremes():
    assert sigma_max(np.zeros((2, 2))) == 0.0
    assert sigma_max(np.array([[0, 2], [3, 0]])) == pytest.approx(3.0)
    assert sigma_min(np.eye(2)) == pytest.approx(1.0)


def test_sigma_max_scaling(rng):
    for _ in range(20):
        m = cgauss(rng, 4, 3)
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert sigma_max(c * m) == pytest.approx(abs(c) * sigma_max(m), rel=1e-12)


def test_rejects_non_finite():
    with pytest.raises(InputError):
        sigma_min(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(InputError):
        sigma_max(np.array([[np.inf, 0], [0, 1]]))


def test_as_matrix_refuses_other_dimensions_and_empty_input():
    with pytest.raises(InputError, match="M must be 2-dimensional, got ndim=3"):
        as_matrix(np.zeros((1, 1, 1)), "M")
    with pytest.raises(InputError, match=r"matrix must be nonempty, got shape \(0, 2\)"):
        as_matrix(np.zeros((0, 2)))
