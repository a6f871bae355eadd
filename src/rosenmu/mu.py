"""Bracketing structured mu-values of rectangular matrices.

For M (k x p) and a block structure with rectangular blocks Delta_i of
shape p_i x k_i, the structured mu-value is the reciprocal of the smallest
max-block-norm Delta with det(I - Delta M) = 0 (zero when no such Delta
exists).  The engine computes

* an upper bound: minimize sigma_max(D1(x) M D2(-x)) over block scalings
  D1(x) = diag(e^{x_i} I_{k_i}), D2(x) = diag(e^{x_i} I_{p_i}), which is
  exact when the optimum has a simple largest singular value or when the
  structure has at most three blocks.  The objective is convex in x: it is
  sigma_max(e^X N e^{-X}) for N = [[0, M], [0, 0]] and the commuting
  diagonal X = diag(x-blocks of D1, x-blocks of D2), and Sezginer & Overton
  (1990) show sigma_max(e^X N e^{-X}) is convex on such sets.  A point
  where sigma_max is simple and the gradient vanishes is therefore the
  global minimum.  Where sigma_max is simple, one SVD also gives the exact
  Hessian (Overton & Womersley 1995), and damped Newton finds that minimum
  in a few SVDs.  At a kink (a repeated sigma_max) Newton gives up, and a
  quasi-Newton (BFGS) continuation on a smooth convex surrogate follows
  the kink in and stops once a certified lower bound (the floor of the
  kernel-direction candidates below) meets it;
* a certified lower bound: sup over block-diagonal partial isometries P of
  the spectral radius rho(P M), searched by extracting P from the top
  singular subspace at the scaling optimum and refining it by projected
  eigenvalue-gradient ascent over blocks of norm at most one (_ascend,
  shared with the brute-force oracle).  A winner that the ascent produced
  is snapped to a partial isometry and evaluated once more.

Every evaluated Delta has max block norm at most one, so rho(Delta M) never
exceeds mu and every reported lower bound is mathematically valid
regardless of optimizer success.  The engine draws no random numbers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .linalg import InputError, NumericError, as_matrix, sigma_min
from .reduction import BlockStructure

# Scaling exponents are confined to a safe dynamic range for doubles.
X_BOUND = 40.0
# Relative tolerance for grouping singular values with the largest.
MULT_TOL = 1e-8
# Relative gap sigma_1 - sigma_2 up to which the top two singular pairs seed
# a rank-two kernel-direction candidate of the lower bound.
PAIR_TOL = 1e-2
# Cap on the safeguarded Newton steps of the rank-two kernel direction.
KERNEL_NEWTON_ITERS = 100
# Norm below which a vector block is treated as vanished; relative to the
# scale of M, the level below which rho(P M) or a one-block M count as zero.
TINY = 1e-14
# Relative to sigma_max(M), mu bounds at or below this level count as zero.
ZERO_TOL = 1e-12
# Stopping rules of the upper-bound search: the cap on the Newton steps and
# on the iterations of each quasi-Newton descent, and the latter's gradient
# tolerance.
BFGS_MAX_ITERS = 60
BFGS_GRAD_TOL = 1e-9
# Newton descent of the upper-bound search (see _newton): the stop on the
# Newton decrement relative to sigma_max, the Armijo constant and the number
# of trial steps (halving from the full step) before it gives up.  Smooth
# optima rarely need more than one halving; at a kink the halvings grow with
# every step, as the step overshoots the crossing of the top two singular
# values by more and more.
NEWTON_DECREMENT_TOL = 8 * np.finfo(float).eps
ARMIJO = 1e-4
NEWTON_BACKTRACKS = 4
# Norm of the gradient of log sigma_max (relative, as sigma_max may tend to
# zero) at a simple sigma_max below which a scaling is taken as the (global,
# by convexity) minimizer: it ends the upper-bound search and backs the
# exact_simple_sigma label.
STATIONARY_TOL = 1e-6
# Smoothing parameters tau of the continuation into a kink, one warm-started
# BFGS stage each on g_tau (see _smoothed_value_and_grad).  A tau above the
# relative gap between sigma_max and the floor is skipped.
SMOOTHING_TAUS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)
# Relative gap (upper - lower) / upper at which the two bounds count as met:
# mu_lower stops at a candidate whose rho comes within it of the upper bound,
# and the continuation in mu_upper stops once such a candidate exists.
CLOSE_TOL = 1e-13
# Relative bracket gap (upper - lower) / upper above which a structure with
# at most three blocks is not labelled exact_n_le_3: the theorem makes the
# upper bound exact there, but the label also needs a lower bound in the run
# that meets it.  Such a bracket is labelled as one with more blocks.
EXACT_GAP_TOL = 1e-8
# Projected ascent of rho(Delta M) (see _ascend): the largest step along the
# unit gradient, the stop after _STALL iterations in a row that gain at most
# _GAIN_TOL relative, and the cap on iterations per ascent.
_STEP = 8.0
_STALL = 8
_GAIN_TOL = 1e-15
ASCENT_ITERS = 1200
_EPS = np.finfo(float).eps


@dataclass
class PartialIsometrySet:
    """Block-diagonal candidate P with partially isometric blocks."""

    blocks: tuple[np.ndarray, ...]
    structure: BlockStructure

    def max_defect(self) -> float:
        """Largest deviation from the partial-isometry identity P P* P = P."""
        return max(float(np.linalg.norm(blk @ blk.conj().T @ blk - blk, 2)) for blk in self.blocks)


@dataclass
class MuResult:
    """Bracket lower <= upper with its certificate and the two searches' records:
    P is ``lower_bound.certificate`` and sigma_max(M) is ``upper_bound.scale``."""

    lower: float
    upper: float
    certificate_delta: tuple[np.ndarray, ...] | None
    delta_residual: float | None
    exactness: str  # exact_n_le_3 | exact_simple_sigma | bracket_only
    possibly_zero: bool
    upper_bound: UpperBound
    lower_bound: LowerBound


def _weights(structure: BlockStructure, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of D1(x) (k x k) and D2(-x) (p x p)."""
    ek, ep = structure.indicators
    return np.exp(x) @ ek, np.exp(-x) @ ep


def _scaled(m: np.ndarray, structure: BlockStructure, x: np.ndarray) -> np.ndarray:
    row, col = _weights(structure, x)
    return m * row[:, None] * col[None, :]


def _evaluate(m: np.ndarray, structure: BlockStructure, x: np.ndarray):
    """Thin SVD (u, s, vh) of D1(x) M D2(-x): the one evaluation of a scaling."""
    return np.linalg.svd(_scaled(m, structure, x), full_matrices=False)


def _branch(svd, structure: BlockStructure) -> tuple[float, np.ndarray, int]:
    """Objective value, gradient of the top singular branch, multiplicity.

    ``svd`` is an evaluation (:func:`_evaluate`).  The branch gradient
    equals the analytic gradient wherever sigma_max is simple and is a
    valid one-sided slope elsewhere.
    """
    u, s, vh = svd
    mult = int(np.count_nonzero(s[0] - s <= MULT_TOL * s[0])) if s[0] > 0 else len(s)
    ek, ep = structure.indicators
    grad = s[0] * (ek @ np.abs(u[:, 0]) ** 2 - ep @ np.abs(vh[0]) ** 2)
    return float(s[0]), grad, mult


def _branch_derivatives(
    u: np.ndarray, s: np.ndarray, vh: np.ndarray, structure: BlockStructure
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian in x of sigma_1(D1(x) M D2(-x)) at a simple sigma_1.

    u, s, vh is an evaluation (:func:`_evaluate`) of A.  sigma_1 is
    the top eigenvalue of the dilation [[0, A], [A*, 0]], whose other
    eigenvalues are +-sigma_j, with eigenvectors [u_j; +-v_j]/sqrt(2), and
    0 on the null vectors [u_j; 0] and [0; v_j] beyond the rank.  Over the
    rows R_l and the columns C_l of M that belong to block l, write
    alpha_l[j] = u_j[R_l]* u_1[R_l], beta_l[j] = v_j[C_l]* v_1[C_l] and
    t_l = alpha_l[1] + beta_l[1] = |u_1[R_l]|^2 + |v_1[C_l]|^2.  The
    gradient is sigma_1 (alpha_l[1] - beta_l[1]).  Second-order
    perturbation theory (Overton & Womersley 1995) sums over the other
    eigenvectors; pairing +sigma_j with -sigma_j, and using that the
    columns of the full U and V are orthonormal, it comes to

        H = 2 sigma_1 diag(t) - sigma_1 t t^T
            + Re sum_{1 < j <= rank} [2 sigma_1 sigma_j / (sigma_1 - sigma_j)] d_j d_j*
                                   - [2 sigma_1 sigma_j / (sigma_1 + sigma_j)] e_j e_j*

    for the vectors d_j = alpha[j] - beta[j] and e_j = alpha[j] + beta[j]
    over the blocks, so only the leading singular vectors enter.
    """
    ek, ep = structure.indicators
    r = len(s)
    u1, v1 = u[:, 0], vh[0].conj()
    alpha = ek @ (u[:, :r].conj() * u1[:, None])
    beta = ep @ (vh[:r].T * v1[:, None])
    s1, sj = float(s[0]), s[1:]
    a1, b1 = alpha[:, 1:], beta[:, 1:]
    d, e = a1 - b1, a1 + b1
    t = (alpha[:, 0] + beta[:, 0]).real
    twice = 2.0 * s1 * sj
    hess = ((d * (twice / (s1 - sj))) @ d.conj().T - (e * (twice / (s1 + sj))) @ e.conj().T).real
    hess -= s1 * np.outer(t, t)
    hess[np.diag_indices(structure.n_blocks)] += 2.0 * s1 * t
    return s1 * (alpha[:, 0] - beta[:, 0]).real, hess


def _normalized(a: np.ndarray, s0: float) -> np.ndarray:
    """a / s0 for s0 = sigma_max(a) > 0.

    Complex division by a subnormal s0 overflows, so a subnormal s0 and the
    matrix (whose entries are no larger) are first lifted by a power of two,
    which is exact and keeps every value finite.
    """
    if s0 < np.finfo(float).tiny:
        lift = 2.0**600
        return (a * lift) / (s0 * lift)
    return a / s0


def _is_stationary(mult: int, grad_norm: float | None) -> bool:
    """Simple sigma_max and a vanishing relative gradient: the convex minimum."""
    return mult == 1 and grad_norm is not None and grad_norm <= STATIONARY_TOL


def _smoothed_value_and_grad(m: np.ndarray, structure: BlockStructure, x: np.ndarray, tau: float):
    """g_tau(x) = tau log sum_j sigma_j(x)^(1/tau) and its gradient.

    The log of the Schatten-(1/tau) norm of D1(x) M D2(-x) (Nesterov 2005):
    smooth, convex in x as sigma_max is, and at most tau log(rank) above
    log sigma_max.  Its gradient sums w_j (|u_j|^2 - |v_j|^2) per block with
    softmax weights w_j proportional to (sigma_j / sigma_1)^(1/tau).
    """
    u, s, vh = _evaluate(m, structure, x)
    w = (s / s[0]) ** (1.0 / tau)
    total = float(np.sum(w))
    ek, ep = structure.indicators
    grad = ek @ (np.abs(u) ** 2 @ (w / total)) - ep @ (np.abs(vh.T) ** 2 @ (w / total))
    grad[np.abs(x) >= X_BOUND] = 0.0  # where mu_upper's clip holds x constant
    return float(np.log(s[0]) + tau * np.log(total)), grad


def _newton(a_n: np.ndarray, structure: BlockStructure, full, svd):
    """Damped Newton on sigma_max over the free exponents x[1:], from x = 0.

    ``full`` maps the free exponents to the clipped x, and ``svd`` is the
    evaluation at x = 0.  Each step solves the free block of the Hessian
    (:func:`_branch_derivatives`) by Cholesky and halves until the Armijo
    condition holds; the derivatives are formed only at accepted points.
    The descent converges where the Newton decrement -g . step = |L^-1 g|^2
    is at most NEWTON_DECREMENT_TOL sigma_max, and gives up (for the
    continuation to take over) at a repeated sigma_max, a Hessian that is
    not positive definite, NEWTON_BACKTRACKS halvings without decrease, or
    after BFGS_MAX_ITERS steps.  Returns the last x, its evaluation, its
    gradient (None where the descent gave up), the steps taken and the
    number of evaluations.
    """
    xf, evaluations = np.zeros(structure.n_blocks - 1), 1
    for steps in range(BFGS_MAX_ITERS):
        s = svd[1]
        value = float(s[0])
        if s[0] - s[1] <= MULT_TOL * s[0]:
            break
        grad, hess = _branch_derivatives(*svd, structure)
        g = grad[1:]
        try:
            chol = np.linalg.cholesky(hess[1:, 1:])
        except np.linalg.LinAlgError:
            break
        y = np.linalg.solve(chol, g)
        decrement = float(y @ y)
        if decrement <= NEWTON_DECREMENT_TOL * value:
            return full(xf), svd, grad, steps, evaluations
        step = -np.linalg.solve(chol.T, y)
        t = 1.0
        for _ in range(NEWTON_BACKTRACKS):
            trial = _evaluate(a_n, structure, full(xf + t * step))
            evaluations += 1
            if trial[1][0] <= value - ARMIJO * t * decrement:
                break
            t /= 2.0
        else:
            break
        xf, svd = xf + t * step, trial
    else:
        steps = BFGS_MAX_ITERS
    return full(xf), svd, None, steps, evaluations


@dataclass
class UpperBound:
    """mu_upper's record; mu_lower reads M / scale, its structure and svd from it."""

    value: float
    x: np.ndarray
    multiplicity: int
    grad_norm: float | None  # |gradient of log sigma_max|, None at a kink
    iterations: int  # Newton steps plus BFGS iterations
    scale: float  # sigma_max(M), by which the search normalizes M
    evaluations: int  # SVDs taken: of M, then of the scaled matrix
    svd: tuple | None  # the evaluation (u, s, vh) of M / scale at x; None for M = 0
    matrix: np.ndarray  # M / scale, validated (M itself for M = 0)
    structure: BlockStructure


def mu_upper(m, structure: BlockStructure) -> UpperBound:
    """Minimize the scaled largest singular value over block scalings.

    One thin SVD of M gives sigma_max(M), the bound for one block, and, its
    values divided by sigma_max(M), the evaluation at x = 0 where damped
    Newton starts, with the exact gradient and Hessian of the top singular
    branch (see :func:`_newton`).  The objective is convex in x (see the
    module docstring), so when Newton converges where sigma_max is simple
    and STATIONARY_TOL bounds the gradient of log sigma_max, it has found
    the global minimum, and its last evaluation is returned.

    Otherwise Newton gave up short of a kink (a repeated sigma_max) or of an
    infimum past X_BOUND, and a continuation takes over: a quasi-Newton
    (BFGS) descent with the branch gradient from x = 0, then one descent
    per tau in SMOOTHING_TAUS on g_tau, each from the last; the smallest
    sigma_max at the end of a descent is returned.  Starting from x = 0,
    not from where Newton stopped, makes the continuation's path, and so a
    kink's bound, independent of how far Newton got.  The continuation
    stops on a certified gap: after its first descent and after each stage
    that lowers sigma_max, the floor rho(P M) of mu_lower's kernel-direction
    candidates at the best x is a lower bound on mu, and once it is within
    CLOSE_TOL of sigma_max no scaling can do better.  A tau above the
    relative gap between the two is skipped.  Where the floor stays below
    (mu = 0, or mu below the scaling optimum) every tau runs.

    The first scaling exponent is frozen at zero: shifting all exponents
    together never changes the objective.  The floor and mu_lower read
    their candidates from the evaluations here, which are all its SVDs.
    """
    a = as_matrix(m)
    structure.check_shape(a)
    nb = structure.n_blocks
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    s0 = float(s[0])
    if not np.isfinite(s0):
        raise InputError("sigma_max(M) overflows the double range, so mu cannot be bracketed")
    if s0 == 0.0:
        return UpperBound(0.0, np.zeros(nb), min(a.shape), None, 0, s0, 1, None, a, structure)
    a_n, svd, evaluations = _normalized(a, s0), (u, _normalized(s, s0), vh), 1

    def full(xf: np.ndarray) -> np.ndarray:
        return np.clip(np.concatenate(([0.0], xf)), -X_BOUND, X_BOUND)

    def fg(xf: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad, _ = _branch(_evaluate(a_n, structure, full(xf)), structure)
        return value, grad[1:]

    def smoothed(xf: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
        value, grad = _smoothed_value_and_grad(a_n, structure, full(xf), tau)
        return value, grad[1:]

    def bound(x_star, svd, grad, mult, iterations) -> UpperBound:
        value = float(svd[1][0])
        grad_norm = float(np.linalg.norm(grad[1:])) / value if mult == 1 else None
        return UpperBound(
            s0 * value, x_star, mult, grad_norm, iterations, s0, evaluations, svd, a_n, structure
        )

    def descend(objective, x0: np.ndarray, args=()):
        nonlocal evaluations
        options = dict(gtol=BFGS_GRAD_TOL, maxiter=BFGS_MAX_ITERS)
        res = minimize(objective, x0, args, jac=True, method="BFGS", options=options)
        x_star = full(res.x)
        evaluations += int(res.nfev) + 1
        svd = _evaluate(a_n, structure, x_star)
        return bound(x_star, svd, *_branch(svd, structure)[1:], int(res.nit)), res.x

    def gap(bound: UpperBound) -> float:
        """Relative gap to the floor at bound.x, 0 where the floor meets it."""
        goal = _goal(bound.value, s0)
        floor = _floor(a_n, structure, bound.svd, goal)
        return 0.0 if floor >= goal else 1.0 - s0 * floor / bound.value

    if nb == 1:  # nothing to scale
        return bound(np.zeros(1), svd, *_branch(svd, structure)[1:], 0)
    x_star, svd, grad, iterations, evaluations = _newton(a_n, structure, full, svd)
    if grad is not None:
        newton = bound(x_star, svd, grad, 1, iterations)
        if _is_stationary(1, newton.grad_norm):
            return newton
    best, xf = descend(fg, np.zeros(nb - 1))
    iterations += best.iterations
    rel_gap = gap(best)
    for tau in SMOOTHING_TAUS:
        if rel_gap == 0.0:
            break
        if tau > rel_gap:
            continue
        stage, xf = descend(smoothed, xf, (tau,))
        iterations += stage.iterations
        if stage.value < best.value:
            best = stage
            rel_gap = gap(best)
    return replace(best, iterations=iterations, evaluations=evaluations)


# ---------------------------------------------------------------------------
# Lower bound machinery.
# ---------------------------------------------------------------------------


def _top_subspace_forms(u: np.ndarray, vh: np.ndarray, rank: int, structure: BlockStructure):
    """Blocks (alpha_i, beta_i) of the top-``rank`` singular subspace of an
    SVD u, vh and the Hermitian forms H_i = alpha_i* alpha_i - beta_i* beta_i."""
    u1 = u[:, :rank]
    v1 = vh[:rank].conj().T
    alphas = [u1[sk] for _, sk in structure.places]
    betas = [v1[sp] for sp, _ in structure.places]
    forms = [a.conj().T @ a - b.conj().T @ b for a, b in zip(alphas, betas)]
    return alphas, betas, forms


def _kernel_direction(forms) -> tuple[np.ndarray, float]:
    """Unit v (nearly) annihilating every quadratic form v* H_i v.

    Minimizes sum_i |v* H_i v|^2 over the unit sphere of C^r for forms of
    size r = 1 or 2 and returns the minimizer with its residual sum.  Rank
    1 is trivial and rank 2 is solved exactly by _kernel_direction_2; both
    are deterministic functions of the forms.
    """
    if forms[0].shape[0] == 1:
        v = np.ones(1, dtype=complex)
        return v, float(sum(abs(h[0, 0]) ** 2 for h in forms))
    v = _kernel_direction_2(forms)
    return v, float(sum(np.vdot(v, h @ v).real ** 2 for h in forms))


def _kernel_direction_2(forms) -> np.ndarray:
    """Global minimizer of sum_i (v* H_i v)^2 over unit v in C^2.

    With v v* = (I + s . sigma) / 2 for the Pauli matrices sigma and a unit
    s in R^3, v* H_i v = (t_i + h_i . s) / 2 where t_i = tr H_i and
    h_i = (2 Re H_i[0,1], -2 Im H_i[0,1], H_i[0,0] - H_i[1,1]).  So the task
    is to minimize |H s + t|^2 over |s| = 1, a trust-region subproblem on
    the sphere (More & Sorensen 1983; Gander, Golub & von Matt 1989).  With
    H^T H = Q diag(lam) Q^T, lam ascending, and c = Q^T H^T t, its global
    minimizer is s = -sum_j c_j / (lam_j - lam_1 + delta) q_j for the shift
    delta >= 0 at which |s| = 1.  1/|s(delta)| is concave and increasing,
    so Newton's method on 1/|s(delta)| - 1 from a shift with |s| >= 1
    climbs to the root without overshooting; bisection on the bracket
    takes over should roundoff throw a step out of it.

    The hard case is c_j = 0 on the bottom eigenvector with |s(0)| <= 1:
    there is no pole to balance and s(0) is completed to unit length along
    q_1.  It is common here, not a corner case: real forms have no sigma_y
    component, so H^T H has the kernel vector e_y and c vanishes on it.
    """
    hs = np.array(
        [[2.0 * h[0, 1].real, -2.0 * h[0, 1].imag, (h[0, 0] - h[1, 1]).real] for h in forms]
    )
    t = np.array([(h[0, 0] + h[1, 1]).real for h in forms])
    lam, q = np.linalg.eigh(hs.T @ hs)
    c = q.T @ (hs.T @ t)
    gaps = lam - lam[0]
    live = c != 0.0
    c_live, g_live = c[live], gaps[live]
    coef = np.zeros(3)
    # Term j alone has norm 1 at the shift |c_j| - gap_j, so |s| >= 1 there.
    lo = max(0.0, float(np.max(np.abs(c) - gaps)))
    if lo == 0.0 and np.sum((c_live / g_live) ** 2) <= 1.0:
        coef[live] = -c_live / g_live
        coef[0] = np.sqrt(max(0.0, 1.0 - float(coef @ coef)))
    else:
        hi = lo + float(np.linalg.norm(c))  # every term is at most c_j^2 / |c|^2 there
        delta = lo
        for _ in range(KERNEL_NEWTON_ITERS):
            w = c_live / (g_live + delta)
            n2 = float(w @ w)
            f = 1.0 / np.sqrt(n2) - 1.0
            if f >= 0.0:
                hi = delta
            else:
                lo = delta
            if abs(f) <= 4 * _EPS or hi - lo <= _EPS * hi:
                break
            step = delta - f * n2**1.5 / float(np.sum(w**2 / (g_live + delta)))
            delta = step if lo < step < hi else 0.5 * (lo + hi)
        coef[live] = -c_live / (g_live + delta)
    s = q @ coef
    s /= np.linalg.norm(s)
    # v = (cos theta/2, e^{i phi} sin theta/2) up to a phase, from whichever
    # of |v_0|^2 = (1 + s_z)/2 and |v_1|^2 = (1 - s_z)/2 is at least 1/2
    if s[2] >= 0.0:
        v0 = np.sqrt((1.0 + s[2]) / 2.0)
        return np.array([v0, complex(s[0], s[1]) / (2.0 * v0)])
    v1 = np.sqrt((1.0 - s[2]) / 2.0)
    return np.array([complex(s[0], -s[1]) / (2.0 * v1), v1])


def _rank_one(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Rank-one block left right* / (|left| |right|), zero where either dies.

    Normalized by both factors so the block is exactly partially isometric
    even when the two norms differ slightly.
    """
    nl, nr = np.linalg.norm(left), np.linalg.norm(right)
    if nl < TINY or nr < TINY:
        return np.zeros((left.size, right.size), dtype=complex)
    return np.outer(left, right.conj()) / (nl * nr)


def _kernel_candidates(a_n: np.ndarray, structure: BlockStructure, svd):
    """Lower-bound candidates from the top singular subspace of an evaluation.

    At most two candidates, built one at a time, as (Delta of rank-one
    blocks, kernel residual, rho(Delta M), eigenpairs of Delta M): one from
    the top singular pair where sigma_1 - sigma_2 > MULT_TOL sigma_1 (a
    simple sigma_max), then one from the top two pairs where
    sigma_1 - sigma_2 <= PAIR_TOL sigma_1.  A larger cluster is compressed
    to its top two pairs, so every kernel direction is a closed form of
    rank one or two.
    """
    u, s, vh = svd
    gap = s[0] - s[1] if len(s) > 1 else np.inf
    for rank, seeded in ((1, gap > MULT_TOL * s[0]), (2, gap <= PAIR_TOL * s[0])):
        if not seeded:
            continue
        alphas, betas, forms = _top_subspace_forms(u, vh, rank, structure)
        v, resid = _kernel_direction(forms)
        delta = structure.assemble([_rank_one(b @ v, al @ v) for al, b in zip(alphas, betas)])
        yield (delta, resid, *_eigs(delta, a_n))


def _goal(target: float, s0: float) -> float:
    """The rho(Delta M / s0) within CLOSE_TOL of the upper bound ``target``."""
    return target / s0 * (1 - CLOSE_TOL)


def _floor(a_n: np.ndarray, structure: BlockStructure, svd, goal: float) -> float:
    """Largest rho(P M) over the kernel candidates of an evaluation, up to goal.

    Each candidate's P is block-diagonal with blocks of norm at most one, so
    this is a certified lower bound on mu.  At the x that mu_upper returns,
    mu_lower's search reads the same candidates from the same evaluation.
    """
    floor = 0.0
    for _, _, rho, _ in _kernel_candidates(a_n, structure, svd):
        floor = max(floor, rho)
        if floor >= goal:
            break
    return floor


def _rho(p_dense: np.ndarray, m: np.ndarray) -> tuple[float, complex]:
    ev = np.linalg.eigvals(p_dense @ m)
    idx = int(np.argmax(np.abs(ev)))
    return float(abs(ev[idx])), complex(ev[idx])


def _eigs(delta: np.ndarray, a: np.ndarray):
    """rho(Delta M) with the eigenvalues and right eigenvectors of Delta M."""
    w, v = np.linalg.eig(delta @ a)
    return float(np.abs(w).max()), (w, v)


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


def _ascend(a: np.ndarray, delta: np.ndarray, rho: float, places, eig=None):
    """Projected gradient ascent of rho(Delta M) over blocks of norm <= 1.

    Follows Guglielmi & Overton (2011) and Guglielmi, Rehman & Kressner
    (2017).  ``delta`` is the dense p x k Delta with rho = rho(Delta M), and
    ``places`` holds the (row, column) slices of its blocks; ``eig`` holds
    the eigenpairs of Delta M when the caller has them.  A step along
    :func:`_ascent_direction` is projected by :func:`_project` and kept
    only if rho rises; the step doubles after a kept step and halves after
    a rejected one.  The ascent ends after ``_STALL`` iterations in a row
    gain at most ``_GAIN_TOL`` relative, when the step falls below machine
    epsilon, after ``ASCENT_ITERS`` iterations, or where the gradient is
    undefined.  Returns the best rho, its Delta (the start if nothing rose)
    and the number of iterations run.
    """
    w, v = _eigs(delta, a)[1] if eig is None else eig
    direction = _ascent_direction(a, w, v, places)
    step, stalled, used = _STEP, 0, 0
    while used < ASCENT_ITERS and direction is not None and step >= _EPS and stalled < _STALL:
        used += 1
        trial = _project(delta + step * direction, places)
        rho_t, (w, v) = _eigs(trial, a)
        if rho_t > rho:
            stalled = stalled + 1 if rho_t - rho <= _GAIN_TOL * rho else 0
            delta, rho, step = trial, rho_t, min(2.0 * step, _STEP)
            direction = _ascent_direction(a, w, v, places)
        else:
            stalled, step = stalled + 1, step / 2.0
    return rho, delta, used


def _snap_partial_isometry(blk: np.ndarray) -> np.ndarray:
    """Project a block onto the partial isometries (singular values to 0/1).

    Leaves genuine partial isometries unchanged up to roundoff.
    """
    u, s, vh = np.linalg.svd(blk, full_matrices=False)
    keep = s >= 0.5
    if not np.any(keep):
        return np.zeros_like(blk)
    return u[:, keep] @ vh[keep]


@dataclass
class LowerBound:
    value: float
    certificate: PartialIsometrySet | None
    kernel_residual: float | None
    refine_rounds: int  # iterations of _ascend over all candidates


def mu_lower(upper: UpperBound) -> LowerBound:
    """Best certified lower bound sup rho(P M) over the searched P.

    Candidates come from :func:`_kernel_candidates` of the evaluation at
    the scaling optimum that ``upper``, mu_upper's record, holds with the
    normalized M and its structure (none where M = 0).  A candidate whose
    rho comes within CLOSE_TOL of upper.value ends the search; any other is
    refined by :func:`_ascend`.  A winner the ascent produced is snapped to
    partial isometries and rho is evaluated once more: that value is the
    bound, and the snapped blocks are its certificate.  A winner taken as
    built is already a partial-isometry set and keeps its rho, so where
    mu_upper's floor met the target the bound is that floor.
    """
    if upper.scale == 0.0:
        return LowerBound(0.0, None, None, 0)
    a_n, structure, s0 = upper.matrix, upper.structure, upper.scale
    goal = _goal(upper.value, s0)
    kernel_residual = None

    best_rho, best_delta, ascended, iterations = 0.0, None, False, 0
    # built one at a time, so the search stops paying for candidates once one meets the target
    for delta, resid, rho, eig in _kernel_candidates(a_n, structure, upper.svd):
        if kernel_residual is None:
            kernel_residual = resid  # the first candidate's
        refine = rho < goal
        if refine:
            rho, delta, used = _ascend(a_n, delta, rho, structure.places, eig=eig)
            iterations += used
        if rho > best_rho:
            best_rho, best_delta, ascended = rho, delta, refine
        if best_rho >= goal:
            break

    if best_delta is None:
        return LowerBound(0.0, None, kernel_residual, iterations)
    blocks = tuple(best_delta[sp, sk] for sp, sk in structure.places)
    if ascended:
        # the ascent's blocks have norm <= 1 but need not be partial isometries
        blocks = tuple(_snap_partial_isometry(blk) for blk in blocks)
        best_rho = _rho(structure.assemble(blocks), a_n)[0]
        if best_rho <= 0.0:
            return LowerBound(0.0, None, kernel_residual, iterations)
    certificate = PartialIsometrySet(blocks, structure)
    return LowerBound(s0 * best_rho, certificate, kernel_residual, iterations)


def negligible(value: float, scale: float, rel_tol: float) -> bool:
    """value <= rel_tol * scale (scale = sigma_max(M)) or too small for 1/value."""
    return value <= max(rel_tol * scale, float(np.finfo(float).tiny))


def certificate_to_delta(pset: PartialIsometrySet, m) -> tuple[tuple[np.ndarray, ...], float]:
    """Minimal structured perturbation from a partial-isometry certificate.

    With lambda_e the dominant eigenvalue of P M, Delta = P / lambda_e has
    max block norm 1 / rho(P M) and makes I - Delta M singular.  Returns
    the blocks and the residual sigma_min(I - Delta M).  A rho(P M) that is
    negligible (TINY) relative to max |M_ij| raises NumericError; for k x p M
    that scale lies in [sigma_max(M) / sqrt(k p), sigma_max(M)] and costs no SVD.
    """
    a = as_matrix(m)
    rho, lam = _rho(pset.structure.assemble(pset.blocks), a)
    if negligible(rho, float(np.abs(a).max()), TINY):
        raise NumericError("rho(P M) vanishes; no finite perturbation exists")
    blocks = tuple(blk / lam for blk in pset.blocks)
    delta = pset.structure.assemble(blocks)
    return blocks, sigma_min(np.eye(delta.shape[0]) - delta @ a)


def mu_bracket(m, structure: BlockStructure) -> MuResult:
    """Full bracket [lower, upper] with certificates and exactness record."""
    upper = mu_upper(m, structure)  # validates M, checks the shape and the scale
    lower = mu_lower(upper)

    nb = structure.n_blocks
    if nb <= 3 and upper.value - lower.value <= EXACT_GAP_TOL * upper.value:
        exactness = "exact_n_le_3"
    elif _is_stationary(upper.multiplicity, upper.grad_norm):
        exactness = "exact_simple_sigma"
    else:
        exactness = "bracket_only"
    possibly_zero = negligible(max(lower.value, upper.value), upper.scale, ZERO_TOL)

    cert_delta = resid = None
    if lower.certificate is not None and not negligible(lower.value, upper.scale, TINY):
        cert_delta, resid = certificate_to_delta(lower.certificate, m)

    return MuResult(
        # roundoff can put the lower bound ulps above the upper one; a lower
        # bound lowered to the upper one stays valid
        lower=min(lower.value, upper.value),
        upper=upper.value,
        certificate_delta=cert_delta,
        delta_residual=resid,
        exactness=exactness,
        possibly_zero=possibly_zero,
        upper_bound=upper,
        lower_bound=lower,
    )
