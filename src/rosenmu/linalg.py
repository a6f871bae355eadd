"""Dense complex linear-algebra kernels shared by the whole package.

Thin, contract-enforcing wrappers around LAPACK (via numpy): input
coercion, the extreme singular values and the package's error types.
Tolerances are relative to the spectral norm, except where they still
take the absolute floor ``ABS_FLOOR``: the eigenvalue test of S(lambda)
(:meth:`rosenmu.rosenbrock.Scan.singular`).
"""

from __future__ import annotations

import reprlib

import numpy as np

# Absolute floor used when a matrix norm vanishes.
ABS_FLOOR = 1e-14


class InputError(ValueError):
    """Raised for malformed numeric input (wrong shape, NaN/Inf entries)."""


# repr with bounded nesting, items and characters, for error messages
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel, _SHOWN.maxlist, _SHOWN.maxdict = 2, 4, 2
_SHOWN.maxstring = _SHOWN.maxother = _SHOWN.maxlong = 40


def shown(value) -> str:
    """An input value as an error message repeats it: its repr, or its type and a prefix."""
    text = _SHOWN.repr(value)
    return text if len(text) <= 80 else f"{type(value).__name__} {text[:80]}..."


class NumericError(RuntimeError):
    """Raised when a dense factorization fails to converge."""


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array and reject empty or non-finite input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        raise InputError(f"{name} must be nonempty, got shape {a.shape}")
    if not np.isfinite(a).all():
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
