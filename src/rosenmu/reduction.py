"""Reductions from (system, lambda, scenario) to mu-value problems.

Each of the 15 nonempty subsets of perturbable blocks {A, B, C, P} reduces
to a structured mu-value of a rectangular matrix M under a rectangular
block diagonal perturbation class.  One table, :func:`_place`, records
where each labelled block sits in S(lambda); ``reduce`` gathers M with it
from the inverse held by a :class:`~rosenmu.rosenbrock.Point`, which all
scenarios at that point share, and ``assemble_perturbation`` uses it to
put labelled blocks back into S(lambda), so certificates stay
self-describing.
The single-block cases (A, B, C, and P of degree zero) give 1-block
problems, whose mu-value is sigma_max(M); their closed form
1/sigma_max(M) is applied in ``backward_error``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import InputError, as_matrix, sigma_max
from .rosenbrock import Point

_BLOCK_ORDER = "ABCP"


@dataclass(frozen=True)
class Scenario:
    """Subset of the blocks A, B, C, P(z) that perturbations may touch."""

    perturb_a: bool = False
    perturb_b: bool = False
    perturb_c: bool = False
    perturb_p: bool = False

    def __post_init__(self):
        if not (self.perturb_a or self.perturb_b or self.perturb_c or self.perturb_p):
            raise InputError("scenario must perturb at least one block")

    @classmethod
    def from_string(cls, spec: str) -> "Scenario":
        s = spec.strip().upper()
        if not s or any(ch not in _BLOCK_ORDER for ch in s) or len(set(s)) != len(s):
            raise InputError(
                f"scenario must be a nonempty subset of 'ABCP', got {spec!r}"
            )
        return cls("A" in s, "B" in s, "C" in s, "P" in s)

    @property
    def name(self) -> str:
        return "".join(
            ch
            for ch, on in zip(
                _BLOCK_ORDER,
                (self.perturb_a, self.perturb_b, self.perturb_c, self.perturb_p),
            )
            if on
        )

    @property
    def size(self) -> int:
        return len(self.name)

    def includes(self, other: "Scenario") -> bool:
        return set(other.name) <= set(self.name)

    def labels(self, d: int) -> tuple[str, ...]:
        """Perturbed block labels: A, B, C in order, then A0..Ad for P(z)."""
        out = [ch for ch in self.name if ch != "P"]
        if self.perturb_p:
            out.extend(f"A{j}" for j in range(d + 1))
        return tuple(out)


def _place(label: str, r: int, n: int) -> tuple[slice, slice, int]:
    """Rows, columns and power of lambda of the block ``label`` in S(lambda)."""
    top, bottom = slice(0, r), slice(r, r + n)
    if label == "A":
        return top, top, 0
    if label == "B":
        return top, bottom, 0
    if label == "C":
        return bottom, top, 0
    if label.startswith("A") and label[1:].isdecimal():
        return bottom, bottom, int(label[1:])
    raise InputError(f"unknown block label {label!r}")


def block_shape(label: str, r: int, n: int) -> tuple[int, int]:
    """Shape of the perturbation block named A, B, C or A<j>."""
    rows, cols, _ = _place(label, r, n)
    return rows.stop - rows.start, cols.stop - cols.start


def all_scenarios() -> list[Scenario]:
    """The 15 scenarios, sorted by size then lexicographically."""
    out = []
    for size in range(1, 5):
        for combo in combinations(_BLOCK_ORDER, size):
            out.append(Scenario.from_string("".join(combo)))
    return out


@dataclass(frozen=True)
class BlockStructure:
    """Ordered block shapes (p_i, k_i) of the perturbation class."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise InputError("block structure must be nonempty")
        for i, (p, k) in enumerate(self.blocks):
            if p < 1 or k < 1:
                raise InputError(f"block {i}: shapes must be >= 1, got ({p}, {k})")
        object.__setattr__(self, "blocks", tuple((int(p), int(k)) for p, k in self.blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def p_total(self) -> int:
        return sum(p for p, _ in self.blocks)

    @property
    def k_total(self) -> int:
        return sum(k for _, k in self.blocks)

    def p_slices(self) -> list[slice]:
        out, off = [], 0
        for p, _ in self.blocks:
            out.append(slice(off, off + p))
            off += p
        return out

    def k_slices(self) -> list[slice]:
        out, off = [], 0
        for _, k in self.blocks:
            out.append(slice(off, off + k))
            off += k
        return out

    def assemble(self, blocks) -> np.ndarray:
        """Stack a block list into the dense p x k block-diagonal matrix."""
        blocks = self.check_blocks(blocks)
        delta = np.zeros((self.p_total, self.k_total), dtype=complex)
        for sp, sk, blk in zip(self.p_slices(), self.k_slices(), blocks):
            delta[sp, sk] = blk
        return delta

    def check_blocks(self, blocks) -> list[np.ndarray]:
        if len(blocks) != self.n_blocks:
            raise InputError(f"expected {self.n_blocks} blocks, got {len(blocks)}")
        out = []
        for i, ((p, k), blk) in enumerate(zip(self.blocks, blocks)):
            b = as_matrix(blk, f"block {i}")
            if b.shape != (p, k):
                raise InputError(f"block {i}: expected {p}x{k}, got {b.shape}")
            out.append(b)
        return out


@dataclass
class ReducedProblem:
    """mu-value problem (M, structure) of one scenario at one point.

    ``labels[i]`` names the block of the structured perturbation of
    S(lambda) that block i of Delta lands in: one of "A", "B", "C" or
    "A<j>" for the degree-j polynomial coefficient.  S(lambda) and its
    norms stay with the :class:`~rosenmu.rosenbrock.Point` it came from.
    """

    m: np.ndarray
    structure: BlockStructure
    labels: tuple[str, ...]
    scenario: Scenario

    def __post_init__(self):
        k, p = self.m.shape
        if (k, p) != (self.structure.k_total, self.structure.p_total):
            raise InputError(
                f"M is {k}x{p} but structure totals are "
                f"k={self.structure.k_total}, p={self.structure.p_total}"
            )
        if len(self.labels) != self.structure.n_blocks:
            raise InputError("one label per block is required")


def _power(lam: complex, j: int) -> complex:
    """lambda**j, refused with InputError where it leaves the double range."""
    try:
        power = lam**j
        if cmath.isfinite(power):
            return power
    except OverflowError:
        pass
    raise InputError(
        f"lambda^{j} overflows the double range at lambda = {lam.real:g}{lam.imag:+g}i"
    )


def _power_row(r: int, n: int, d: int, lam: complex) -> np.ndarray:
    return np.hstack([_power(lam, j) * np.eye(r + n) for j in range(d + 1)])


def reduce(point: Point, scenario: Scenario) -> ReducedProblem:
    """Reduce one scenario at a point (system, lambda) to a ReducedProblem.

    With L placing the rows and R the columns of the perturbed blocks,
    det(S - L Delta R) = det(S) det(I - Delta M) for M = R S^{-1} L.  L and
    R are 0/1 selectors, so M is gathered from S^{-1} by index: the rows at
    the blocks' columns, then the columns at their rows.  When P(z) is
    perturbed, the rows are first multiplied by [I, lambda I, ...,
    lambda^d I], and the columns of A_j are taken from the j-th copy.

    Requires S(lambda) to be invertible (``point.inverse`` raises
    :class:`SingularMatrixError` otherwise); callers short-circuit
    eigenvalues to a zero backward error before reaching this point.
    """
    lam = point.lam
    r, n, d = point.sys.r, point.sys.n, point.sys.d
    labels = scenario.labels(d)
    places = [_place(label, r, n) for label in labels]
    k_idx = np.concatenate([np.r_[cols] for _, cols, _ in places])
    p_idx = np.concatenate([np.r_[rows] + j * (r + n) for rows, _, j in places])
    m = point.inverse[k_idx]
    if scenario.perturb_p:
        m = m @ _power_row(r, n, d, lam)
    # m[:, p_idx] would be F-ordered, so products with M would sum in another order
    m = np.take(m, p_idx, axis=1)
    structure = BlockStructure(tuple(block_shape(label, r, n) for label in labels))
    return ReducedProblem(m, structure, labels, scenario)


def assemble_perturbation(
    r: int, n: int, lam: complex, labeled_blocks: dict[str, np.ndarray]
) -> np.ndarray:
    """Assemble labeled delta blocks into the dense perturbation of S(lambda).

    Each block lands where :func:`_place` puts it, times its power of lambda.
    """
    lam = complex(lam)
    delta_s = np.zeros((r + n, r + n), dtype=complex)
    for label, blk in labeled_blocks.items():
        b = as_matrix(blk, f"delta[{label}]")
        rows, cols, j = _place(label, r, n)
        target = delta_s[rows, cols]
        if b.shape != target.shape:
            p, k = target.shape
            raise InputError(f"delta[{label}]: expected {p}x{k}, got {b.shape}")
        target += _power(lam, j) * b
    return delta_s


def perturbation_norm(delta_blocks) -> float:
    """Size measure of a structured perturbation: max of block spectral norms."""
    return max(sigma_max(blk) for blk in delta_blocks)
