"""Independent brute-force estimators for validating the main pipeline.

Random structured direction sampling, sharpened by projected
eigenvalue-gradient ascent (``brute_force_mu``) or by random descent and
simplex search (``brute_force_backward_error``).  Every candidate
evaluated here corresponds to an explicitly feasible perturbation, so the
returned estimates are valid one-sided bounds no matter how well the
search does.  Nothing in this module calls into the scaling/partial-
isometry machinery it is meant to check.

Draws are taken ``_CHUNK`` at a time: one ``standard_normal`` call fills
a chunk row by row, each row holding one draw in packed order (see
:class:`_Layout`), so the random stream is the same as drawing block by
block.  ``brute_force_mu`` evaluates a whole chunk with stacked SVDs, one
batched product and one batched ``eigvals``, and keeps only the running
best candidates.  The chunk size, not the budget, bounds the working
memory.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import minimize

from .linalg import InputError, as_matrix, sigma_max
from .reduction import BlockStructure, Scenario, _place, _power, block_shape
from .rosenbrock import Point, RosenbrockSystem

_TINY = 1e-300
_EPS = np.finfo(float).eps
# Ascent: largest step along the unit gradient, and the stop after a stall.
_STEP = 8.0
_STALL = 8
_GAIN_TOL = 1e-15
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


def _max_norm(blocks) -> np.ndarray:
    """Largest block spectral norm (per stacked draw)."""
    return np.max([np.linalg.svd(b, compute_uv=False)[..., 0] for b in blocks], axis=0)


def _keep_best(top, keys: np.ndarray, rows: np.ndarray, keep: int):
    """Merge a chunk into the ``keep`` smallest keys; ties go to the earlier draw."""
    if top is not None:
        keys = np.concatenate([top[0], keys])
        rows = np.concatenate([top[1], rows])
    order = np.argsort(keys, kind="stable")[:keep]
    return keys[order], rows[order]


def _normalize(z: np.ndarray, layout: _Layout) -> np.ndarray:
    """Scale each row of block entries to unit max block norm (zero if tiny)."""
    scale = _max_norm(layout.blocks(z))
    z = z / np.maximum(scale, _TINY)[..., None]
    z[scale <= _TINY] = 0
    return z


def brute_force_mu(
    m,
    structure: BlockStructure,
    budget: int = 5000,
    seed: int = 0,
    refine_top: int = 5,
    refine_iters: int = 1200,
) -> OracleEstimate:
    """Sampled lower bound on the structured mu-value.

    Draws ``budget`` complex Gaussian block directions normalized to unit
    max block norm; each yields the feasible perturbation D / lambda_e and
    hence the candidate rho(D M).  Draws are evaluated in batches of
    ``_CHUNK``, so memory stays bounded for any budget.  The best
    ``refine_top`` candidates are sharpened by projected gradient ascent of
    rho(Delta M) over blocks of spectral norm at most 1 (:func:`_ascend`),
    at most ``refine_iters`` iterations each; every iterate is feasible, so
    the result stays a lower bound.
    """
    a = as_matrix(m)
    if budget < 1:
        raise InputError("budget must be >= 1")
    if a.shape != (structure.k_total, structure.p_total):
        raise InputError(
            f"M is {a.shape[0]}x{a.shape[1]} but structure totals are "
            f"k={structure.k_total}, p={structure.p_total}"
        )
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
        f, delta = _ascend(a, delta, float(-key), places, refine_iters)
        if f > best_val:
            best_val, best_blocks = f, [delta[sp, sk] for sp, sk in places]

    return OracleEstimate(best_val, tuple(best_blocks), budget)


def _project(delta: np.ndarray, places) -> np.ndarray:
    """Clip each block's singular values at 1, then scale to unit max block norm.

    rho(c Delta M) = c rho(Delta M), so the scaling never lowers rho.  An
    ascent direction has a positive inner product with Delta, so a step
    from a Delta of unit max block norm keeps ``top`` away from 0.
    """
    factors = [np.linalg.svd(delta[sp, sk], full_matrices=False) for sp, sk in places]
    top = max(s[0] for _, s, _ in factors)
    out = np.zeros_like(delta)
    for (sp, sk), (u, s, vh) in zip(places, factors):
        out[sp, sk] = (u * (s / top if top < 1.0 else np.minimum(s, 1.0))) @ vh
    return out


def _unit(v: np.ndarray):
    """v scaled to unit 2-norm without overflow, or None if v is 0 or not finite."""
    top = np.abs(v).max()
    if not 0 < top < np.inf:
        return None
    # real divisions: numpy's complex division overflows at a subnormal top
    v = v.real / top + 1j * (v.imag / top)
    return v / np.linalg.norm(v)


def _ascent_direction(a: np.ndarray, w: np.ndarray, v: np.ndarray, places):
    """Unit gradient of |lam_max(Delta M)| in the blocks, or None where undefined.

    For a simple eigenvalue lam of Delta M with right and left eigenvectors
    x and y, the gradient is (lam/|lam|) y (M x)^* / conj(y^* x).  With V
    holding the right eigenvectors, y = V^{-*} e_j gives y^* x = 1.
    """
    j = int(np.argmax(np.abs(w)))
    lam = w[j]
    mx = _unit(a @ v[:, j])
    if lam == 0 or mx is None:
        return None
    u, s, vh = np.linalg.svd(v)
    # a near-singular V: lam is close to defective and y^* x ~ 0 for unit y
    if not s[-1] > _EPS * s[0]:
        return None
    y = u @ (vh[:, j] / s)
    # lam/|lam| from its angle: |lam| may be subnormal or overflow
    g = cmath.exp(1j * cmath.phase(lam)) * np.outer(y, mx.conj())
    grad = np.zeros_like(g)
    for sp, sk in places:
        grad[sp, sk] = g[sp, sk]
    # <grad, Delta> is a positive multiple of |lam|, so grad is not 0
    return grad / np.linalg.norm(grad)


def _ascend(a: np.ndarray, delta: np.ndarray, rho: float, places, iters: int):
    """Projected gradient ascent of rho(Delta M) over blocks of norm <= 1.

    Follows Guglielmi & Overton (2011) and Guglielmi, Rehman & Kressner
    (2017).  A step along :func:`_ascent_direction` is projected by
    :func:`_project` and kept only if rho rises; the step doubles after a
    kept step and halves after a rejected one.  The ascent ends after
    ``_STALL`` iterations in a row gain at most ``_GAIN_TOL`` relative,
    when the step falls below machine epsilon, after ``iters`` iterations,
    or where the gradient is undefined.  Returns the best rho and its
    Delta, the start if nothing rose.
    """
    w, v = np.linalg.eig(delta @ a)
    direction = _ascent_direction(a, w, v, places)
    step, stalled = _STEP, 0
    for _ in range(iters):
        if direction is None or step < _EPS or stalled >= _STALL:
            break
        trial = _project(delta + step * direction, places)
        w, v = np.linalg.eig(trial @ a)
        rho_t = float(np.abs(w).max())
        if rho_t > rho:
            stalled = stalled + 1 if rho_t - rho <= _GAIN_TOL * rho else 0
            delta, rho, step = trial, rho_t, min(2.0 * step, _STEP)
            direction = _ascent_direction(a, w, v, places)
        else:
            stalled, step = stalled + 1, step / 2.0
    return rho, delta


def brute_force_backward_error(
    sys: RosenbrockSystem,
    lam: complex,
    scenario: Scenario,
    budget: int = 5000,
    seed: int = 0,
    refine_top: int = 5,
    refine_iters: int = 1200,
) -> float:
    """Sampled upper bound on the structured backward error.

    Each random unit direction W in the admitted perturbation set is
    scaled onto the singularity locus by solving the pencil
    det(S(lambda) - t W(lambda)) = 0 for the smallest |t|; the minimum
    |t| over all draws is achieved by an explicit feasible perturbation.
    The best directions are sharpened by restarted simplex search.
    """
    if budget < 1:
        raise InputError("budget must be >= 1")
    point = Point(sys, lam)
    if point.is_eigenvalue():
        return 0.0
    lam, s_mat = point.lam, point.s
    labels = scenario.labels(sys.d)
    layout = _Layout(block_shape(label, sys.r, sys.n) for label in labels)
    # where each block sits in S(lambda), and its power of lambda, once per call
    places = [_place(label, sys.r, sys.n) for label in labels]
    powers = [_power(lam, j) for _, _, j in places]
    rng = np.random.default_rng(seed)
    w = np.zeros_like(s_mat)

    def feasible_size(x: np.ndarray) -> float:
        blocks = layout.blocks(layout.flat(x))
        scale = _max_norm(blocks)
        if scale <= _TINY:
            return np.inf
        w.fill(0)
        for (rows, cols, _), power, b in zip(places, powers, blocks):
            w[rows, cols] += power * (b / scale)
        # det(S - t W) = 0 at the generalized eigenvalues of the pencil (S, W).
        t = scipy.linalg.eigvals(s_mat, w)
        finite = t[np.isfinite(t)]
        return float(np.min(np.abs(finite))) if finite.size else np.inf

    n_refine = len(range(budget)[:refine_top])
    top = None
    for start in range(0, budget, _CHUNK):
        xs = rng.standard_normal((min(_CHUNK, budget - start), layout.n_x))
        top = _keep_best(top, np.array([feasible_size(x) for x in xs]), xs, max(n_refine, 1))
    best = float(top[0][0])

    for val, x in zip(top[0][:n_refine], top[1]):
        if not np.isfinite(val):
            continue
        f = float(val)
        # Cheap adaptive random descent first; simplex handles the endgame.
        step, fails = 0.4, 0
        for _ in range(2 * refine_iters):
            x2 = x + step * rng.standard_normal(x.shape)
            f2 = feasible_size(x2)
            if f2 < f:
                x, f = x2, f2
                fails = 0
            else:
                fails += 1
                if fails >= 25:
                    step *= 0.7
                    fails = 0
                    if step < 1e-8:
                        break
        for _ in range(2):
            res = minimize(
                feasible_size,
                x,
                method="Nelder-Mead",
                options=dict(
                    maxiter=refine_iters, xatol=1e-12, fatol=1e-14, adaptive=True
                ),
            )
            if float(res.fun) < f:
                f, x = float(res.fun), res.x
        best = min(best, f)
    return best
