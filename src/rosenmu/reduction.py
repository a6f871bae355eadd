"""Reductions from (system, lambda, scenario) to mu-value problems.

Each of the 15 nonempty subsets of perturbable blocks {A, B, C, P} reduces
to a structured mu-value of a rectangular matrix M under a rectangular
block diagonal perturbation class, with one block per letter.  One table,
:func:`_place`, records where each labelled block sits in S(lambda);
:func:`reduce` gathers M with it from the stacked inverses of a
:class:`~rosenmu.rosenbrock.Scan`, which all scenarios at those points
share, and ``assemble_perturbation`` uses it to put labelled blocks back
into S(lambda), so certificates stay self-describing.

The coefficients A_0..A_d of P(z) all sit at the same place, so the set
{sum_j lambda^j Delta A_j : max_j |Delta A_j| <= eps} is the ball of
radius w eps with Tisseur's weight w = sum_j |lambda|^j.  P is therefore
one n x n block whose columns of M carry the factor w, and
:func:`labeled_blocks` turns its block X back into the coefficient
perturbations Delta A_j = (conj(lambda)/|lambda|)^j X, each of norm |X|.
The single-block scenarios (A, B, C and P at every degree) give 1-block
problems, whose mu-value is sigma_max(M); their closed form
1/sigma_max(M) is applied in ``backward_error``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .linalg import InputError, as_matrix, shown, sigma_max

_BLOCK_ORDER = "ABCP"


@dataclass(frozen=True)
class Scenario:
    """Subset of the blocks A, B, C, P(z) that perturbations may touch.

    ``name`` holds its letters, e.g. "BC", which are put in ABCP order."""

    name: str

    def __post_init__(self):
        spec = self.name
        name = spec if isinstance(spec, str) else ""
        if not name or len(set(name)) != len(name) or not set(name) <= set(_BLOCK_ORDER):
            raise InputError(f"scenario must be a nonempty subset of 'ABCP', got {shown(spec)}")
        object.__setattr__(self, "name", "".join(ch for ch in _BLOCK_ORDER if ch in name))

    @classmethod
    def from_string(cls, spec: str) -> "Scenario":
        """The scenario of the letters in ``spec``, in any case and order."""
        return cls(spec.strip().upper() if isinstance(spec, str) else spec)

    @property
    def perturb_p(self) -> bool:
        return "P" in self.name

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
    if label == "P":
        return bottom, bottom, 0
    if label.startswith("A") and label[1:].isdecimal():
        return bottom, bottom, int(label[1:])
    raise InputError(f"unknown block label {shown(label)}")


def block_shape(label: str, r: int, n: int) -> tuple[int, int]:
    """Shape of the perturbation block named A, B, C, P or A<j>."""
    rows, cols, _ = _place(label, r, n)
    return rows.stop - rows.start, cols.stop - cols.start


def all_scenarios() -> list[Scenario]:
    """The 15 scenarios, sorted by size then lexicographically."""
    return [Scenario("".join(c)) for size in range(1, 5) for c in combinations(_BLOCK_ORDER, size)]


@dataclass(frozen=True)
class BlockStructure:
    """Ordered block shapes (p_i, k_i) of the perturbation class."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise InputError("block structure must be nonempty")
        for i, (p, k) in enumerate(self.blocks):
            if p < 1 or k < 1:
                raise InputError(f"block {i}: shapes must be >= 1, got ({shown(p)}, {shown(k)})")
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

    @cached_property
    def places(self) -> tuple[tuple[slice, slice], ...]:
        """Row and column slices of each block in the dense p_total x k_total Delta."""
        out, row, col = [], 0, 0
        for p, k in self.blocks:
            out.append((slice(row, row + p), slice(col, col + k)))
            row, col = row + p, col + k
        return tuple(out)

    @cached_property
    def indicators(self) -> tuple[np.ndarray, np.ndarray]:
        """0/1 matrices (n_blocks x k_total, n_blocks x p_total) of block membership.

        Row i of each marks block i's rows (first) and columns (second) of M,
        so ``E @ y`` sums y over every block at once and ``z @ E`` repeats z_i
        over block i's entries exactly (each sum has one nonzero term).
        """
        eye = np.eye(self.n_blocks)
        ks, ps = [k for _, k in self.blocks], [p for p, _ in self.blocks]
        return np.repeat(eye, ks, axis=1), np.repeat(eye, ps, axis=1)

    def check_shape(self, m: np.ndarray) -> None:
        """Refuse an M that is not k_total x p_total, naming both shapes."""
        if m.shape != (self.k_total, self.p_total):
            raise InputError(
                f"M is {m.shape[0]}x{m.shape[1]} but blocks P_i x K_i require "
                f"sum K_i x sum P_i = {self.k_total}x{self.p_total}"
            )

    def assemble(self, blocks) -> np.ndarray:
        """Stack a block list into the dense p x k block-diagonal matrix."""
        if len(blocks) != self.n_blocks:
            raise InputError(f"expected {self.n_blocks} blocks, got {len(blocks)}")
        delta = np.zeros((self.p_total, self.k_total), dtype=complex)
        for i, ((p, k), (sp, sk), blk) in enumerate(zip(self.blocks, self.places, blocks)):
            b = as_matrix(blk, f"block {i}")
            if b.shape != (p, k):
                raise InputError(f"block {i}: expected {p}x{k}, got {b.shape}")
            delta[sp, sk] = b
        return delta


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


def reduce(
    inverses: np.ndarray, weights: np.ndarray, scenario: Scenario, r: int, n: int
) -> tuple[np.ndarray, BlockStructure, tuple[str, ...]]:
    """The mu-value problems (M, structure, labels) of one scenario at K points.

    ``inverses`` stacks each S(lambda)^{-1} and ``weights`` each weight w
    (read only when P is perturbed).  With L placing the rows and R the
    columns of the perturbed blocks, det(S - L Delta R) = det(S)
    det(I - Delta M) for M = R S^{-1} L.  L and R are 0/1 selectors, so M
    is gathered from S^{-1} by index: the rows at the blocks' columns, then
    the columns at their rows.  When P(z) is perturbed, L carries w I at
    the P block, so those columns of M are multiplied by the weight w.

    ``labels[i]`` names the block of S(lambda) that block i of Delta lands
    in: one of "A", "B", "C" or "P", the weighted block of P(z) (see
    :func:`labeled_blocks`).  S(lambda) must be invertible at every point;
    callers short-circuit eigenvalues to a zero backward error first.
    """
    labels = tuple(scenario.name)
    places = [_place(label, r, n) for label in labels]
    k_idx = np.concatenate([np.arange(cols.start, cols.stop) for _, cols, _ in places])
    p_idx = np.concatenate([np.arange(rows.start, rows.stop) for rows, _, _ in places])
    # m[..., p_idx] would not be C-ordered, so products with M would sum in another order
    m = np.take(inverses[:, k_idx], p_idx, axis=2)
    if scenario.perturb_p:
        m[:, :, -n:] *= weights[:, None, None]  # P is the last block
    structure = BlockStructure(tuple(block_shape(label, r, n) for label in labels))
    return m, structure, labels


def labeled_blocks(labels, blocks, lam: complex, d: int) -> dict[str, np.ndarray]:
    """Delta blocks of a reduced problem under the labels of ``Scenario.labels(d)``.

    The weighted P block X becomes Delta A_j = (conj(lambda)/|lambda|)^j X
    for j = 0..d: each has norm |X|, and sum_j lambda^j Delta A_j = w X.
    At lambda = 0 every Delta A_j = X.
    """
    out = dict(zip(labels, blocks))
    if "P" in out:
        x = out.pop("P")
        phase = lam.conjugate() / abs(lam) if lam else 1.0
        out.update((f"A{j}", phase**j * x) for j in range(d + 1))
    return out


def assemble_perturbation(
    r: int, n: int, lam: complex, labeled_blocks: dict[str, np.ndarray]
) -> np.ndarray:
    """Assemble labeled delta blocks into the dense perturbation of S(lambda).

    Each block lands where :func:`_place` puts it, times its power of lambda.
    The labels are those of ``Scenario.labels(d)``; the reduced label P,
    whose block stands for w times itself, is refused.
    """
    lam = complex(lam)
    delta_s = np.zeros((r + n, r + n), dtype=complex)
    for label, blk in labeled_blocks.items():
        if label == "P":
            raise InputError(
                "delta[P]: the reduced P block must first be expanded into "
                "A0..Ad by labeled_blocks"
            )
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
