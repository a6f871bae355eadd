"""Independent brute-force estimators for validating the main pipeline.

``brute_force_mu`` samples random structured directions and sharpens the
best by projected eigenvalue-gradient ascent.  ``brute_force_backward_error``
is 1 / ``brute_force_mu`` on the lifted matrix R S(lambda)^{-1} L_lambda,
built from the block placement alone.  Every candidate evaluated here
corresponds to an explicitly feasible perturbation, so the returned
estimates are valid one-sided bounds no matter how well the search does.

The ascent is the one that refines the certified lower bound
(:func:`rosenmu.mu._ascend`), so on the lower side the oracle checks that
ascent only through its own starting points.  Its sampling and its lifted
matrix stay independent: nothing here calls ``reduce``, the scaling upper
bound or the kernel-direction candidates it is meant to check.

Draws are taken ``_CHUNK`` at a time: one ``standard_normal`` call fills
a chunk row by row, each row holding one draw in packed order (see
:class:`_Layout`), so the random stream is the same as drawing block by
block.  ``brute_force_mu`` evaluates a whole chunk with stacked SVDs, one
batched product and one batched ``eigvals``, and keeps only the running
best candidates.  The chunk size, not the budget, bounds the working
memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import InputError, as_matrix, sigma_max
from .mu import ASCENT_ITERS, _ascend
from .reduction import BlockStructure, Scenario, _place, _power, block_shape
from .rosenbrock import Point, RosenbrockSystem

_TINY = 1e-300
# Draws evaluated together; the chunk's arrays are the sampling phase's
# working memory whatever the budget.
_CHUNK = 512


@dataclass
class OracleEstimate:
    """Sampled lower bound on mu with the best direction found."""

    mu_sampled_lower: float
    best_direction: tuple[np.ndarray, ...]
    samples_used: int


class _Layout:
    """Packing of complex blocks into one real vector x.

    Block after block, x holds the row-major real parts of a block and
    then its imaginary parts.  ``flat`` gathers the complex entries of all
    blocks in that block order; ``blocks`` cuts them back into matrices.
    Both accept a leading stack axis.
    """

    def __init__(self, shapes):
        self.shapes = list(shapes)
        re, im, self.slices, off = [], [], [], 0
        for p, k in self.shapes:
            cnt = p * k
            re.append(np.arange(2 * off, 2 * off + cnt))
            im.append(np.arange(2 * off + cnt, 2 * off + 2 * cnt))
            self.slices.append(slice(off, off + cnt))
            off += cnt
        self.re = np.concatenate(re)
        self.im = np.concatenate(im)
        self.n_x = 2 * off

    def flat(self, x: np.ndarray) -> np.ndarray:
        return x[..., self.re] + 1j * x[..., self.im]

    def blocks(self, z: np.ndarray) -> list[np.ndarray]:
        lead = z.shape[:-1]
        return [z[..., s].reshape(*lead, p, k) for s, (p, k) in zip(self.slices, self.shapes)]


def _keep_best(top, keys: np.ndarray, rows: np.ndarray, keep: int):
    """Merge a chunk into the ``keep`` smallest keys; ties go to the earlier draw."""
    if top is not None:
        keys = np.concatenate([top[0], keys])
        rows = np.concatenate([top[1], rows])
    order = np.argsort(keys, kind="stable")[:keep]
    return keys[order], rows[order]


def _normalize(z: np.ndarray, layout: _Layout) -> np.ndarray:
    """Scale each row of block entries to unit max block norm (zero if tiny)."""
    scale = np.max([np.linalg.svd(b, compute_uv=False)[..., 0] for b in layout.blocks(z)], axis=0)
    z = z / np.maximum(scale, _TINY)[..., None]
    z[scale <= _TINY] = 0
    return z


def brute_force_mu(
    m,
    structure: BlockStructure,
    budget: int = 5000,
    seed: int = 0,
    refine_top: int = 5,
    refine_iters: int = ASCENT_ITERS,
) -> OracleEstimate:
    """Sampled lower bound on the structured mu-value.

    Draws ``budget`` complex Gaussian block directions normalized to unit
    max block norm; each yields the feasible perturbation D / lambda_e and
    hence the candidate rho(D M).  Draws are evaluated in batches of
    ``_CHUNK``, so memory stays bounded for any budget.  The best
    ``refine_top`` candidates are sharpened by projected gradient ascent of
    rho(Delta M) over blocks of spectral norm at most 1
    (:func:`rosenmu.mu._ascend`, the ascent of ``mu_lower``),
    at most ``refine_iters`` iterations each; every iterate is feasible, so
    the result stays a lower bound.
    """
    a = as_matrix(m)
    if budget < 1:
        raise InputError("budget must be >= 1")
    structure.check_shape(a)
    rng = np.random.default_rng(seed)
    if sigma_max(a) == 0.0:
        zero = tuple(np.zeros((p, k), dtype=complex) for p, k in structure.blocks)
        return OracleEstimate(0.0, zero, budget)

    layout = _Layout(structure.blocks)
    p_total, k_total = structure.p_total, structure.k_total
    # flat position in the dense Delta of each block entry, in layout order
    flat_index = np.arange(p_total * k_total).reshape(p_total, k_total)
    pos = np.concatenate(
        [flat_index[sp, sk].ravel() for sp, sk in zip(structure.p_slices(), structure.k_slices())]
    )
    # the candidates that the refinement sharpens, as in slicing a sorted list
    n_refine = len(range(budget)[:refine_top])
    keep = max(n_refine, 1)
    delta = np.zeros((min(budget, _CHUNK), p_total, k_total), dtype=complex)
    top = None
    for start in range(0, budget, _CHUNK):
        n = min(_CHUNK, budget - start)
        z = _normalize(layout.flat(rng.standard_normal((n, layout.n_x))), layout)
        # only the block positions of the Deltas are ever written; the rest stays 0
        delta[:n].reshape(n, -1)[:, pos] = z
        rho = np.abs(np.linalg.eigvals(delta[:n] @ a)).max(axis=1)
        top = _keep_best(top, -rho, z, keep)
    best_val = float(-top[0][0])
    best_blocks = layout.blocks(top[1][0])

    places = list(zip(structure.p_slices(), structure.k_slices()))
    for key, z in zip(top[0][:n_refine], top[1]):
        delta = np.zeros((p_total, k_total), dtype=complex)
        delta.reshape(-1)[pos] = z
        f, delta, _ = _ascend(a, delta, float(-key), places, refine_iters)
        if f > best_val:
            best_val, best_blocks = f, [delta[sp, sk] for sp, sk in places]

    return OracleEstimate(best_val, tuple(best_blocks), budget)


def brute_force_backward_error(
    sys: RosenbrockSystem,
    lam: complex,
    scenario: Scenario,
    budget: int = 5000,
    seed: int = 0,
    refine_top: int = 5,
    refine_iters: int = ASCENT_ITERS,
) -> float:
    """Sampled upper bound on the structured backward error, 1 / sampled mu.

    With R stacking the 0/1 column selectors of the perturbed blocks and
    L_lambda putting lambda^j I at each block's rows, a perturbation is
    Delta S = L_lambda Delta R, and det(S - Delta S) = det(S) det(I - Delta K)
    for the lifted matrix K = R S(lambda)^{-1} L_lambda.  So the sampled
    lower bound of :func:`brute_force_mu` on K, an explicit feasible
    perturbation, gives the sampled upper bound 1 / mu on the backward error
    (infinite when every sampled rho vanishes).  The blocks of K's structure
    are the scenario's blocks in label order, so a seed draws the same
    directions as sampling the blocks of S(lambda) one by one.

    K is built here by dense selector products from :func:`_place`, not
    taken from :func:`~rosenmu.reduction.reduce`: this estimator is the
    independent check of that reduction.
    """
    if budget < 1:
        raise InputError("budget must be >= 1")
    point = Point(sys, lam)
    if point.is_eigenvalue():
        return 0.0
    labels = scenario.labels(sys.d)
    places = [_place(label, sys.r, sys.n) for label in labels]
    eye = np.eye(sys.r + sys.n)
    right = np.vstack([eye[cols] for _, cols, _ in places])
    left = np.hstack([_power(point.lam, j) * eye[:, rows] for rows, _, j in places])
    structure = BlockStructure(tuple(block_shape(label, sys.r, sys.n) for label in labels))
    mu = brute_force_mu(
        right @ point.inverse @ left, structure, budget, seed, refine_top, refine_iters
    ).mu_sampled_lower
    return 1.0 / mu if mu > 0 else np.inf
