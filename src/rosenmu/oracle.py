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
a chunk, one row per draw.  Block after block, a row holds the row-major
real parts of a block and then its imaginary parts, so the random stream
is the same as drawing block by block.  Each block is cut out of the row
and written at its place in a dense chunk of Deltas
(:attr:`~rosenmu.reduction.BlockStructure.places`).  ``brute_force_mu``
evaluates a whole chunk with stacked SVDs, one batched product and one
batched ``eigvals``, and keeps only the running best Deltas.  The chunk
size, not the budget, bounds the working memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import InputError, as_matrix, sigma_max
from .mu import _ascend
from .reduction import BlockStructure, Scenario, _place, _power, block_shape
from .rosenbrock import RosenbrockSystem, Scan

_TINY = 1e-300
# Draws evaluated together; the chunk's arrays are the sampling phase's
# working memory whatever the budget.
_CHUNK = 512
# Sampled candidates that the projected ascent sharpens.
REFINE_TOP = 5


@dataclass
class OracleEstimate:
    """Sampled lower bound on mu with the best direction found."""

    mu_sampled_lower: float
    best_direction: tuple[np.ndarray, ...]
    samples_used: int


def _keep_best(top, keys: np.ndarray, rows: np.ndarray, keep: int):
    """Merge a chunk into the ``keep`` smallest keys; ties go to the earlier draw."""
    if top is not None:
        keys = np.concatenate([top[0], keys])
        rows = np.concatenate([top[1], rows])
    order = np.argsort(keys, kind="stable")[:keep]
    return keys[order], rows[order]


def brute_force_mu(
    m, structure: BlockStructure, budget: int = 5000, seed: int = 0
) -> OracleEstimate:
    """Sampled lower bound on the structured mu-value from ``budget`` draws of ``seed``.

    Draws ``budget`` complex Gaussian block directions normalized to unit
    max block norm; each yields the feasible perturbation D / lambda_e and
    hence the candidate rho(D M).  Draws are evaluated in batches of
    ``_CHUNK``, so memory stays bounded for any budget.  The best
    ``REFINE_TOP`` candidates are sharpened by projected gradient ascent of
    rho(Delta M) over blocks of spectral norm at most 1
    (:func:`rosenmu.mu._ascend`, the ascent of ``mu_lower``, with its cap
    of ``ASCENT_ITERS`` iterations); every iterate is feasible, so the
    result stays a lower bound.
    """
    a = as_matrix(m)
    if budget < 1:
        raise InputError("budget must be >= 1")
    structure.check_shape(a)
    rng = np.random.default_rng(seed)
    if sigma_max(a) == 0.0:
        zero = tuple(np.zeros((p, k), dtype=complex) for p, k in structure.blocks)
        return OracleEstimate(0.0, zero, budget)

    n_x = 2 * sum(p * k for p, k in structure.blocks)
    n_refine = min(budget, REFINE_TOP)
    keep = max(n_refine, 1)
    # only the blocks of these Deltas are ever written; the rest stays 0
    delta = np.zeros((min(budget, _CHUNK), structure.p_total, structure.k_total), dtype=complex)
    top = None
    for start in range(0, budget, _CHUNK):
        n = min(_CHUNK, budget - start)
        x, chunk = rng.standard_normal((n, n_x)), delta[:n]
        scale, off = np.zeros(n), 0
        for (p, k), (sp, sk) in zip(structure.blocks, structure.places):
            parts = x[:, off : off + 2 * p * k].reshape(n, 2, p, k)
            chunk[:, sp, sk] = parts[:, 0] + 1j * parts[:, 1]
            scale = np.maximum(scale, np.linalg.svd(chunk[:, sp, sk], compute_uv=False)[:, 0])
            off += 2 * p * k
        chunk /= np.maximum(scale, _TINY)[:, None, None]
        chunk[scale <= _TINY] = 0
        rho = np.abs(np.linalg.eigvals(chunk @ a)).max(axis=1)
        top = _keep_best(top, -rho, chunk, keep)

    best_val, best_delta = float(-top[0][0]), top[1][0]
    for key, delta in zip(top[0][:n_refine], top[1]):
        f, delta, _ = _ascend(a, delta, float(-key), structure.places)
        if f > best_val:
            best_val, best_delta = f, delta
    return OracleEstimate(
        best_val, tuple(best_delta[sp, sk] for sp, sk in structure.places), budget
    )


def brute_force_backward_error(
    sys: RosenbrockSystem, lam: complex, scenario: Scenario, budget: int = 5000, seed: int = 0
) -> float:
    """Sampled upper bound on the structured backward error, 1 / sampled mu.

    With R stacking the 0/1 column selectors of the perturbed blocks and
    L_lambda putting lambda^j I at each block's rows, a perturbation is
    Delta S = L_lambda Delta R, and det(S - Delta S) = det(S) det(I - Delta K)
    for the lifted matrix K = R S(lambda)^{-1} L_lambda.  So the sampled
    lower bound of :func:`brute_force_mu` on K with the same ``budget`` and
    ``seed``, an explicit feasible perturbation, gives the sampled upper
    bound 1 / mu on the backward error (infinite when every sampled rho
    vanishes).  The blocks of K's structure are the scenario's blocks in
    label order, so a seed draws the same directions as sampling the blocks
    of S(lambda) one by one.

    K is built here by dense selector products from :func:`_place`, not
    gathered by index as :func:`~rosenmu.reduction.reduce` gathers M from a
    scan's stacked inverses: this estimator is the independent check of
    that reduction.  Only S(lambda)^{-1} comes from the one-point
    :class:`~rosenmu.rosenbrock.Scan`.
    """
    if budget < 1:
        raise InputError("budget must be >= 1")
    scan = Scan(sys, [lam])
    scan.check()
    if scan.eigen[0]:
        return 0.0
    lam = scan.lams[0]
    labels = scenario.labels(sys.d)
    places = [_place(label, sys.r, sys.n) for label in labels]
    eye = np.eye(sys.r + sys.n)
    right = np.vstack([eye[cols] for _, cols, _ in places])
    left = np.hstack([_power(lam, j) * eye[:, rows] for rows, _, j in places])
    structure = BlockStructure(tuple(block_shape(label, sys.r, sys.n) for label in labels))
    mu = brute_force_mu(right @ scan.inverse[0] @ left, structure, budget, seed).mu_sampled_lower
    return 1.0 / mu if mu > 0 else np.inf
