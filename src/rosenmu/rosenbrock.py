"""Rosenbrock system matrices S(z) = [[A - z I, B], [C, P(z)]].

The polynomial block is P(z) = sum_j z^j A_j of degree d with n x n
coefficients.  A scalar lambda is an eigenvalue of S(z) when S(lambda) is
singular.  This module owns the system data model, its evaluation, the
record :class:`Scan` of S(lambda_k) at K points (the matrices, their
singular-value extremes, the eigenvalue test and the inverses, each
computed once in stacked LAPACK calls; a single point is the scan of one
lambda), the weight sum_j |lambda|^j of the polynomial block, the
unstructured backward error, and the JSON exchange format shared with
the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import ABS_FLOOR, InputError, as_matrix, shown

# Relative sigma_min threshold deciding "lambda is an eigenvalue".
EIGENVALUE_TOL = 1e-10
# Largest double, as a Python float so huge JSON integers compare exactly.
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass
class RosenbrockSystem:
    """System data (A, B, C, A_0..A_d) with dimensions (r, n, d)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    poly_coeffs: tuple[np.ndarray, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.a = as_matrix(self.a, "A")
        r = self.a.shape[0]
        if self.a.shape != (r, r):
            raise InputError(f"A must be square, got {self.a.shape}")
        self.b = as_matrix(self.b, "B")
        if self.b.shape[0] != r:
            raise InputError(f"B must have {r} rows, got {self.b.shape}")
        n = self.b.shape[1]
        self.c = as_matrix(self.c, "C")
        if self.c.shape != (n, r):
            raise InputError(f"C must be {n}x{r}, got {self.c.shape}")
        if not self.poly_coeffs:
            raise InputError("poly_coeffs must contain at least A_0")
        coeffs = []
        for j, ak in enumerate(self.poly_coeffs):
            ak = as_matrix(ak, f"P[{j}]")
            if ak.shape != (n, n):
                raise InputError(f"P[{j}] must be {n}x{n}, got {ak.shape}")
            coeffs.append(ak)
        self.poly_coeffs = tuple(coeffs)

    @property
    def r(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.b.shape[1]

    @property
    def d(self) -> int:
        return len(self.poly_coeffs) - 1


def _assemble(sys: RosenbrockSystem, lams: list[complex]) -> np.ndarray:
    """S(lambda_k) for every lambda_k, stacked; entries that overflow are left inf or nan."""
    r, size = sys.r, sys.r + sys.n
    z = np.array(lams, dtype=complex)[:, None, None]
    s = np.empty((len(lams), size, size), dtype=complex)
    s[:, :r, :r] = sys.a
    s[:, :r, r:] = sys.b
    s[:, r:, :r] = sys.c
    # finite data can still overflow, e.g. in the Horner sum of P(lambda)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = np.zeros_like(s[:, r:, r:])
        for ak in reversed(sys.poly_coeffs):
            acc = acc * z + ak
        s[:, r:, r:] = acc
        diag = np.arange(r)
        s[:, diag, diag] -= z[:, :, 0]  # the diagonal of A - lambda I
    return s


def _assembly_error(lam: complex, s: np.ndarray) -> InputError | None:
    """The error of a non-finite lambda or S(lambda), None when both are finite."""
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        return InputError("lambda must be finite")
    if not np.isfinite(s).all():
        return InputError(
            f"S(lambda) is not finite at lambda = {lam.real:g}{lam.imag:+g}i "
            "(its entries overflow the double range)"
        )
    return None


def evaluate(sys: RosenbrockSystem, lam: complex) -> np.ndarray:
    """Assemble the (r+n) x (r+n) matrix S(lambda)."""
    lam = complex(lam)
    s = _assemble(sys, [lam])[0]
    error = _assembly_error(lam, s)
    if error is not None:
        raise error
    return s


class Scan:
    """S(lambda_k) of one system at K points, assembled and factored in stacked calls.

    One values-only SVD gives each point's ``sigma_min``, ``sigma_max`` and
    eigenvalue test ``eigen``; one solve gives ``inverse`` at the others.
    The points run as if one after another: the first to fail, here or in
    a caller's stage (:meth:`fail`), sets ``stop``; later stages run only
    on the points before it, and :meth:`check` raises its error.
    """

    def __init__(self, sys: RosenbrockSystem, lams):
        self.sys = sys
        self.lams = [complex(lam) for lam in lams]
        self.stop, self.error = len(self.lams), None
        self.s = _assemble(sys, self.lams)
        bad = ~np.isfinite(self.s).all(axis=(1, 2))
        if bad.any():
            k = int(np.argmax(bad))
            self.fail(k, _assembly_error(self.lams[k], self.s[k]))
        sv = np.linalg.svd(self.s[: self.stop], compute_uv=False)
        self.sigma_max, self.sigma_min = sv[:, 0], sv[:, -1]
        self.eigen = self.singular(EIGENVALUE_TOL)

    def singular(self, tol: float) -> np.ndarray:
        """The eigenvalue test at each point: sigma_min(S(lambda_k)) <= tol * |S(lambda_k)|."""
        return self.sigma_min <= tol * np.maximum(self.sigma_max, ABS_FLOOR)

    def fail(self, k: int, error: Exception) -> None:
        """Record that point k failed with ``error``; later points stop running."""
        if k < self.stop:
            self.stop, self.error = k, error

    def check(self) -> None:
        """Raise the error of the first point that failed, if one did."""
        if self.error is not None:
            raise self.error

    @cached_property
    def inverse(self) -> np.ndarray:
        """S(lambda_k)^{-1} at the points before ``stop`` that are not eigenvalues."""
        inv = np.zeros_like(self.s)
        rows = [k for k in range(self.stop) if not self.eigen[k]]
        if rows:
            inv[rows] = np.linalg.solve(self.s[rows], np.eye(self.s.shape[1], dtype=complex))
        return inv


def is_eigenvalue(sys: RosenbrockSystem, lam: complex, tol: float = EIGENVALUE_TOL) -> bool:
    """True when sigma_min(S(lambda)) <= tol * |S(lambda)|."""
    scan = Scan(sys, [lam])
    scan.check()
    return bool(scan.singular(tol)[0])


def weight(lam: complex, d: int) -> float:
    """Tisseur's weight w = sum_j |lambda|^j, refused where it leaves the double range."""
    try:
        w = sum(abs(lam) ** j for j in range(d + 1))
        if math.isfinite(w):
            return w
    except OverflowError:
        pass
    raise InputError(
        f"the weight sum_j |lambda|^j of lambda^0..lambda^{d} overflows the double "
        f"range at lambda = {lam.real:g}{lam.imag:+g}i"
    )


def unstructured_backward_error(sys: RosenbrockSystem, lam: complex) -> float:
    """Backward error ignoring the zero/identity block structure.

    Equals sigma_min(S(lambda)) / (1 + |lambda| + ... + |lambda|^deg).
    Viewed as a matrix polynomial, S(z) always carries a degree-1
    coefficient (the -I_r block), so deg = max(1, d).
    """
    scan = Scan(sys, [lam])
    scan.check()
    return float(scan.sigma_min[0]) / weight(scan.lams[0], max(1, sys.d))


# ---------------------------------------------------------------------------
# JSON exchange format.
#
# A matrix is an array of rows; each entry is [re, im] (a bare number is
# accepted and read as purely real).  A system is an object with integer
# fields "r", "n", "d" and matrix fields "A", "B", "C", "P" where P is the
# array of d+1 polynomial coefficients.
# ---------------------------------------------------------------------------


def _is_number(v) -> bool:
    # JSON true/false arrive as bool, which Python counts as int; JSON
    # integers beyond the double range would overflow on conversion
    if isinstance(v, float):
        return True
    return type(v) is int and abs(v) <= _FLOAT_MAX


def _entry_from_json(entry, path: str) -> complex:
    if _is_number(entry):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(_is_number, entry)):
        return complex(entry[0], entry[1])
    raise InputError(f"{path}: expected [re, im] or a number, got {shown(entry)}")


def matrix_from_json(obj, path: str = "matrix", shape: tuple[int, int] | None = None) -> np.ndarray:
    """Parse a matrix, naming the offending path on any mismatch."""
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{path}: expected a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise InputError(f"{path}[{i}]: expected a nonempty array of entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(
                f"{path}[{i}]: row has {len(row)} entries, expected {width}"
            )
        rows.append([_entry_from_json(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    m = np.array(rows, dtype=complex)
    if shape is not None and m.shape != shape:
        raise InputError(f"{path}: expected shape {shape[0]}x{shape[1]}, got {m.shape[0]}x{m.shape[1]}")
    return as_matrix(m, path)


def matrix_to_json(m) -> list:
    a = as_matrix(m)
    return [[[float(e.real), float(e.imag)] for e in row] for row in a]


def system_from_json(obj) -> RosenbrockSystem:
    """Parse the system JSON object, validating all dimension fields."""
    if not isinstance(obj, dict):
        raise InputError("system: expected a JSON object")
    for key in ("r", "n", "d", "A", "B", "C", "P"):
        if key not in obj:
            raise InputError(f"system: missing field {key!r}")
    r, n, d = obj["r"], obj["n"], obj["d"]
    for name, val in (("r", r), ("n", n), ("d", d)):
        # type(), not isinstance(): JSON true/false arrive as bool, an int subclass
        if type(val) is not int or val < 0 or (name != "d" and val < 1):
            raise InputError(f"system.{name}: expected a positive integer, got {shown(val)}")
    a = matrix_from_json(obj["A"], "system.A", (r, r))
    b = matrix_from_json(obj["B"], "system.B", (r, n))
    c = matrix_from_json(obj["C"], "system.C", (n, r))
    if not isinstance(obj["P"], list) or len(obj["P"]) != d + 1:
        raise InputError(
            f"system.P: expected an array of {d + 1} matrices"
            + (f", got {len(obj['P'])}" if isinstance(obj["P"], list) else "")
        )
    coeffs = tuple(
        matrix_from_json(pk, f"system.P[{j}]", (n, n)) for j, pk in enumerate(obj["P"])
    )
    return RosenbrockSystem(a, b, c, coeffs)


def system_to_json(sys: RosenbrockSystem) -> dict:
    return {
        "r": sys.r,
        "n": sys.n,
        "d": sys.d,
        "A": matrix_to_json(sys.a),
        "B": matrix_to_json(sys.b),
        "C": matrix_to_json(sys.c),
        "P": [matrix_to_json(ak) for ak in sys.poly_coeffs],
    }
