"""Dense complex linear-algebra kernels shared by the whole package.

Thin, contract-enforcing wrappers around LAPACK (via numpy): input
coercion, the extreme singular values, and linear solves and inverses
with an explicit relative singularity threshold.  All tolerances are
relative to the spectral norm with an absolute floor of ``ABS_FLOOR``.
"""

from __future__ import annotations

import numpy as np

# Absolute floor used when a matrix norm vanishes.
ABS_FLOOR = 1e-14
# Relative sigma_min threshold below which solves are refused.
SOLVE_SINGULAR_TOL = 1e-12


class InputError(ValueError):
    """Raised for malformed numeric input (wrong shape, NaN/Inf entries)."""


class NumericError(RuntimeError):
    """Raised when a dense factorization fails to converge."""


class SingularMatrixError(NumericError):
    """Raised on solves with a numerically singular coefficient matrix."""

    def __init__(self, msg: str, sigma_min: float):
        super().__init__(msg)
        self.sigma_min = sigma_min


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array and reject empty or non-finite input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        raise InputError(f"{name} must be nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InputError(f"{name} contains non-finite entries")
    return a


def sigma_max(m) -> float:
    """Largest singular value (spectral norm)."""
    a = as_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def sigma_min(m) -> float:
    """Smallest singular value."""
    a = as_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def solve(a, b) -> np.ndarray:
    """Solve ``a x = b``, refusing numerically singular systems."""
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if am.shape[0] != am.shape[1]:
        raise InputError(f"solve needs a square matrix, got {am.shape}")
    s = np.linalg.svd(am, compute_uv=False)
    if s[-1] <= SOLVE_SINGULAR_TOL * max(s[0], ABS_FLOOR):
        raise SingularMatrixError(
            f"matrix is numerically singular (sigma_min={s[-1]:.3e}, "
            f"sigma_max={s[0]:.3e})",
            sigma_min=float(s[-1]),
        )
    return np.linalg.solve(am, bm)


def inverse(a) -> np.ndarray:
    """Matrix inverse via :func:`solve` against the identity."""
    am = as_matrix(a, "a")
    return solve(am, np.eye(am.shape[0], dtype=complex))
