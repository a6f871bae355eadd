"""Reductions from (system, lambda, scenario) to mu-value problems.

Each of the 15 nonempty subsets of perturbable blocks {A, B, C, P} reduces
to a structured mu-value of a rectangular matrix M under a rectangular
block diagonal perturbation class.  The single-block cases (A, B, C, and P
of degree zero) give 1-block problems, whose mu-value is sigma_max(M);
their closed form 1/sigma_max(M) is applied in ``backward_error``.  The
reverse direction (re-assembling a block list into a structured
perturbation of S(lambda)) lives here too, so certificates stay
self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import block_diag

from .linalg import InputError, as_matrix, inverse, sigma_max
from .rosenbrock import RosenbrockSystem, evaluate

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


def block_shape(label: str, r: int, n: int) -> tuple[int, int]:
    """Shape of the perturbation block named A, B, C or A<j>."""
    return {"A": (r, r), "B": (r, n), "C": (n, r)}.get(label, (n, n))


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
    """mu-value problem (M, structure) plus the embedding back into S(lambda).

    ``labels[i]`` names the block of the structured perturbation of
    S(lambda) that block i of Delta lands in: one of "A", "B", "C" or
    "A<j>" for the degree-j polynomial coefficient.  ``inv_norm`` is
    sigma_max(S(lambda)^{-1}), the scale against which M counts as zero.
    """

    m: np.ndarray
    structure: BlockStructure
    labels: tuple[str, ...]
    scenario: Scenario
    r: int
    n: int
    d: int
    lam: complex
    inv_norm: float

    def __post_init__(self):
        k, p = self.m.shape
        if (k, p) != (self.structure.k_total, self.structure.p_total):
            raise InputError(
                f"M is {k}x{p} but structure totals are "
                f"k={self.structure.k_total}, p={self.structure.p_total}"
            )
        if len(self.labels) != self.structure.n_blocks:
            raise InputError("one label per block is required")


def build_tilde_js(r: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 distribution factors for the degree >= 1 polynomial coefficients.

    The first is the d-fold block diagonal of [0_{r,n}; I_n], the second the
    d-fold vertical stack of [0_{n,r}  I_n]; both are empty when d = 0.
    """
    j1 = np.zeros(((r + n) * d, n * d))
    j2 = np.zeros((n * d, r + n))
    for j in range(d):
        j1[j * (r + n) + r : (j + 1) * (r + n), j * n : (j + 1) * n] = np.eye(n)
        j2[j * n : (j + 1) * n, r:] = np.eye(n)
    return j1, j2


def _power_row(r: int, n: int, d: int, lam: complex) -> np.ndarray:
    return np.hstack([lam**j * np.eye(r + n) for j in range(d + 1)])


def _factors(scenario: Scenario, r: int, n: int, d: int):
    """Left/right 0/1 factors, structure and labels of a scenario.

    Column block i of the left factor places the rows of Delta_i among the
    rows of S, row block i of the right factor picks its columns, so that
    det(S - L Delta R) = 0 iff det(I - Delta R S^{-1} L) = 0.  When P(z) is
    perturbed, A_0 rides in these heads and the trailing parts distribute
    the degree >= 1 coefficients (see :func:`build_tilde_js`).
    """
    labels = scenario.labels(d)
    structure = BlockStructure(tuple(block_shape(lab, r, n) for lab in labels))
    top = np.vstack([np.eye(r), np.zeros((n, r))])  # A and B sit in the top rows
    bottom = np.vstack([np.zeros((r, n)), np.eye(n)])
    # In the P case only A_0 enters the heads; A_1..A_d go through the tilde factors.
    heads = labels[: len(labels) - d] if scenario.perturb_p else labels
    left = np.hstack([top if lab in ("A", "B") else bottom for lab in heads])
    right = np.vstack([top.T if lab in ("A", "C") else bottom.T for lab in heads])
    if scenario.perturb_p:
        j1t, j2t = build_tilde_js(r, n, d)
        left, right = block_diag(left, j1t), np.vstack([right, j2t])
    return left, right, structure, labels


def reduce(sys: RosenbrockSystem, lam: complex, scenario: Scenario) -> ReducedProblem:
    """Reduce a backward-error instance to a ReducedProblem.

    Requires S(lambda) to be invertible; callers short-circuit eigenvalues
    to a zero backward error before reaching this point.
    """
    lam = complex(lam)
    r, n, d = sys.r, sys.n, sys.d
    s_inv = inverse(evaluate(sys, lam))
    left, right, structure, labels = _factors(scenario, r, n, d)
    if scenario.perturb_p:
        m = right @ s_inv @ _power_row(r, n, d, lam) @ left
    else:
        m = right @ s_inv @ left
    return ReducedProblem(m, structure, labels, scenario, r, n, d, lam, sigma_max(s_inv))


def assemble_perturbation(
    r: int, n: int, lam: complex, labeled_blocks: dict[str, np.ndarray]
) -> np.ndarray:
    """Assemble labeled delta blocks into the dense perturbation of S(lambda).

    A, B, C land in their quadrants; each polynomial coefficient "A<j>"
    contributes lambda^j times itself to the lower-right quadrant.
    """
    lam = complex(lam)
    delta_s = np.zeros((r + n, r + n), dtype=complex)
    quadrants = {
        "A": (slice(0, r), slice(0, r)),
        "B": (slice(0, r), slice(r, r + n)),
        "C": (slice(r, r + n), slice(0, r)),
    }
    for label, blk in labeled_blocks.items():
        b = as_matrix(blk, f"delta[{label}]")
        if label not in quadrants and not (label.startswith("A") and label[1:].isdecimal()):
            raise InputError(f"unknown block label {label!r}")
        shape = block_shape(label, r, n)
        if b.shape != shape:
            raise InputError(f"delta[{label}]: expected {shape[0]}x{shape[1]}, got {b.shape}")
        if label in quadrants:
            delta_s[quadrants[label]] += b
        else:
            delta_s[r:, r:] += lam ** int(label[1:]) * b
    return delta_s


def embed(problem: ReducedProblem, delta_blocks) -> np.ndarray:
    """Map a block list for the reduced problem back to a perturbation of S."""
    blocks = problem.structure.check_blocks(delta_blocks)
    labeled: dict[str, np.ndarray] = {}
    for label, blk in zip(problem.labels, blocks):
        labeled[label] = labeled.get(label, 0) + blk
    return assemble_perturbation(problem.r, problem.n, problem.lam, labeled)


def perturbation_norm(delta_blocks) -> float:
    """Size measure of a structured perturbation: max of block spectral norms."""
    return max(sigma_max(blk) for blk in delta_blocks)
