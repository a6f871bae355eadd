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
  in a few SVDs.  At a kink (a repeated sigma_max) Newton gives up: short
  quasi-Newton (BFGS) bursts with a weak Wolfe line search, which keep
  descending on a nonsmooth function (Lewis & Overton 2013), bring x near
  the kink, and Newton steps on its optimality (KKT) system, for the
  multiplicity t of sigma_max and a t x t multiplier (Overton 1988; Overton
  & Womersley 1993), converge to it at one SVD per step.  The search stops
  once a certified lower bound (the floor of the kernel-direction
  candidates below) meets it;
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
from dataclasses import dataclass

import numpy as np

from .linalg import InputError, NumericError, as_matrix, sigma_min
from .reduction import BlockStructure

# Scaling exponents are confined to a safe dynamic range for doubles.
X_BOUND = 40.0
# Relative tolerance for grouping singular values with the largest.
MULT_TOL = 1e-8
# Relative gap to sigma_1 up to which singular values count as a cluster at a
# near-kink: the top two pairs seed a rank-two kernel-direction candidate of
# the lower bound where sigma_1 - sigma_2 is within it, and the KKT step of
# the upper bound takes its multiplicity from the values within it.
PAIR_TOL = 1e-2
# Cap on the safeguarded Newton steps of the rank-two kernel direction.
KERNEL_NEWTON_ITERS = 100
# Norm below which a vector block is treated as vanished; relative to the
# scale of M, the level below which rho(P M) or a one-block M count as zero.
TINY = 1e-14
# Relative to sigma_max(M), mu bounds at or below this level count as zero.
ZERO_TOL = 1e-12
# Stopping rules of the upper-bound search: the cap on the Newton steps (of
# the smooth descent, and of each run of KKT steps at a kink), the gradient
# tolerance and iterations of each quasi-Newton (BFGS) burst, and the cap on
# the bursts.
BFGS_MAX_ITERS = 60
BFGS_GRAD_TOL = 1e-9
BURST_ITERS = 10
BURSTS = 20
# Weak Wolfe line search of each burst (see _line_search): the curvature
# constant (the Armijo constant is ARMIJO below) and the cap on trial steps.
WOLFE = 0.9
LINE_TRIALS = 30
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
# Relative gap (upper - lower) / upper at which the two bounds count as met:
# mu_lower stops at a candidate whose rho comes within it of the upper bound,
# and the kink search in mu_upper stops once such a candidate exists.
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


def _cluster_model(svd, t: int, structure: BlockStructure):
    """Forms and Lagrangian Hessian of the top t singular values of an evaluation.

    ``svd`` is an evaluation (:func:`_evaluate`) of A.  Over the rows R_l and
    columns C_l of M in block l, take the t x rank Gram blocks
    alpha_l = U_t[R_l]* U[R_l] and beta_l = V_t[C_l]* V[C_l] of the top t
    singular vectors against all, and D_l = alpha_l - beta_l.  The t x t
    Hermitian forms K_l = (D_l S + S D_l) / 2 over the cluster, for
    S = diag(sigma_1..sigma_t), give its first-order change: to first order
    in a step d, sigma_1..sigma_t are the eigenvalues of S + sum_l d_l K_l
    (Overton 1988).  For a Hermitian t x t multiplier Z, W(Z) is the Hessian
    of the Lagrangian tr(Z Phi(x)), Phi the t x t matrix whose eigenvalues
    are the cluster's values to second order (Overton & Womersley 1993): the
    second derivative of the dilation [[0, A], [A*, 0]] plus the
    second-order terms over its eigenvectors [u_q; +-v_q]/sqrt(2) outside
    the cluster, weighted 1/(sigma_i -+ sigma_q) in row i of the cluster.  As in
    :func:`_branch_derivatives`, which is its case t = 1, Z = 1, the columns
    of the full U and V are orthonormal, so the null vectors beyond the rank
    cancel and the thin SVD gives W.  W(I) is the Hessian of
    sigma_1 + ... + sigma_t where sigma_t > sigma_{t+1}.  Returns the forms,
    shaped (n_blocks, t, t), and the function Z -> W(Z).
    """
    u, s, vh = svd
    ek, ep = structure.indicators
    n, (k, r), p = structure.n_blocks, u.shape, vh.shape[1]
    alpha = (ek @ (u[:, :t].conj()[:, :, None] * u[:, None, :]).reshape(k, t * r)).reshape(n, t, r)
    beta = (ep @ (vh[:t].T[:, :, None] * vh.conj().T[:, None, :]).reshape(p, t * r)).reshape(n, t, r)
    st = s[:t, None]
    both = st + st.T  # sigma_i + sigma_j
    d, e = alpha - beta, alpha + beta
    # [u_q; v_q] beyond the cluster and [u_q; -v_q] for every q: their
    # products with the first derivatives, and their weights
    pairs = np.concatenate(((st + s[t:]) / 2 * d[:, :, t:], (st - s) / 2 * e), axis=2)
    weights = np.concatenate((1.0 / (st - s[t:]), 1.0 / (st + s)), axis=1)

    def gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """[m, l] = sum over i and q of conj(a[m, i, q]) b[l, i, q]."""
        return a.conj().reshape(n, -1) @ b.reshape(n, -1).T

    def hessian(z: np.ndarray) -> np.ndarray:
        half = both / 2 * z
        terms = gram(pairs, z @ (weights * pairs)) - gram(beta, (z @ alpha) * s)
        terms -= (gram(alpha, half @ alpha) + gram(beta, half @ beta)) / 2
        w = (terms + terms.T).real
        w[np.diag_indices(n)] += np.einsum("ij,lji->l", both * z, e[:, :, :t]).real
        return w

    return both / 2 * d[:, :, :t], hessian


def _hermitian_basis(t: int) -> np.ndarray:
    """A real basis of the t x t Hermitian matrices: E_ii, then E_ij + E_ji
    and i (E_ij - E_ji) for i < j."""
    eye = np.eye(t)
    basis = [np.outer(eye[i], eye[i]) + 0j for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            unit = np.outer(eye[i], eye[j])
            basis += [unit + unit.T, 1j * (unit - unit.T)]
    return np.array(basis)


def _kkt_step(svd, structure: BlockStructure, free: np.ndarray):
    """Newton (SQP) step for sigma_max at a kink of multiplicity t.

    Solves by least squares for the step d in the exponents ``free``, omega
    and a Hermitian t x t multiplier Z with tr Z = 1 in

        W(Z0) d + [tr(Z K_l)]_l = 0,    S + sum_l d_l K_l = omega I,

    the Newton step to the minimum of sigma_max where its top t values
    coincide (Overton 1988; Overton & Womersley 1993), with the forms K_l
    and Hessian W of :func:`_cluster_model` and Z0 the least-squares
    multiplier of the first-order conditions at the current point.  The
    equations are taken against :func:`_hermitian_basis`: for real forms
    (a real M, or a diagonally rotated one) its imaginary directions drop
    out, and least squares takes Z real.  t starts at the number of singular
    values within PAIR_TOL of sigma_1, but at most 2 or the largest t with
    t(t+1)/2 <= len(free) + 1: t coinciding values of a real M impose
    t(t+1)/2 - 1 conditions on the exponents in general (t^2 - 1 for a
    complex one), so a larger multiplicity is not generic at a minimum
    (Overton 1988), while a pair whose forms have no off-diagonal part, as
    at a two-block kink, imposes one.  The cap keeps the model, whose basis
    alone holds t^4 entries, small for a wide cluster such as a near-unitary
    M's.  t falls until Z is positive semidefinite and omega <= sigma_1, as
    at a minimum; a t that splits a repeated value (MULT_TOL) is skipped.
    At t = 1 this is Newton's step on sigma_1.  Returns (d, omega), or None
    where no t qualifies.
    """
    s = svd[1]
    cap = max(2, int((np.sqrt(8 * free.size + 9) - 1) / 2))  # t(t+1)/2 <= nf + 1, or 2
    for t in range(min(cap, int(np.count_nonzero(s[0] - s <= PAIR_TOL * s[0]))), 0, -1):
        if t < len(s) and s[t - 1] - s[t] <= MULT_TOL * s[0]:
            continue
        forms, hessian = _cluster_model(svd, t, structure)
        basis = _hermitian_basis(t)
        diag = basis.diagonal(axis1=1, axis2=2).real
        trace = diag.sum(axis=1)
        g = np.einsum("pij,lji->lp", basis, forms[free]).real
        nf, q = g.shape
        z0 = np.linalg.lstsq(np.vstack((g, trace)), np.eye(nf + 1)[-1], rcond=None)[0]
        kkt = np.block([
            [hessian(np.tensordot(z0, basis, 1))[np.ix_(free, free)], np.zeros((nf, 1)), g],
            [g.T, -trace[:, None], np.zeros((q, q))],
            [np.zeros((1, nf + 1)), trace[None]],
        ])
        rhs = np.concatenate((np.zeros(nf), -diag @ s[:t], [1.0]))
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        omega, z = float(sol[nf]), np.tensordot(sol[nf + 1:], basis, 1)
        if t == 1 or (omega <= s[0] and np.linalg.eigvalsh(z)[0] >= 0.0):
            return sol[:nf], omega
    return None


@dataclass
class Burst:
    """Where a quasi-Newton burst (:func:`minimize`) ended."""

    fun: float  # the value there
    nit: int  # iterations
    nfev: int  # evaluations of the objective
    h: np.ndarray  # the inverse Hessian approximation, to start the next burst from


def _line_search(fg, x: np.ndarray, f: float, slope: float, d: np.ndarray, t: float):
    """A step t along d from x that meets the weak Wolfe conditions, or None.

    ``f`` and ``slope`` < 0 are the value and the directional derivative at x,
    and ``t`` is the first trial.  The conditions are sufficient decrease,
    f(x + t d) <= f + ARMIJO t slope, and curvature, slope(t) >= WOLFE slope,
    which a nonsmooth convex function also meets on a step across a kink
    (Lewis & Overton 2013).  Trials bracket such a step.  A trial that fails
    the first condition is a new upper end, and the next is the minimizer of
    the quadratic through the values at both ends and the slope at the lower
    one, kept a tenth of the bracket away from either end (the midpoint where
    that quadratic is not convex).  A trial that fails the second is a new
    lower end, and the next doubles it, or bisects the bracket once it has an
    upper end.  Branch slopes bound a convex function from below, so no step
    along d goes under the lower of the tangent lines at the two ends where
    they cross: once that is not below f by more than roundoff, or after
    LINE_TRIALS trials, the search gives up.  NaN values fail the first
    condition.  Returns (t, value, gradient) at the step.
    """
    lo, hi = (0.0, f, slope), None  # (t, value, slope) at the ends of the bracket
    for _ in range(LINE_TRIALS):
        ft, gt = fg(x + t * d)
        st = float(gt @ d)
        if not ft <= f + ARMIJO * t * slope:
            hi = (t, ft, st)
        elif st < WOLFE * slope:
            lo = (t, ft, st)
        else:
            return t, ft, gt
        if hi is None:
            t *= 2.0
            continue
        (t_lo, f_lo, s_lo), (t_hi, f_hi, s_hi) = lo, hi
        span = t_hi - t_lo
        if s_hi > s_lo:
            cross = min(max((f_hi - f_lo - s_hi * span) / (s_lo - s_hi), 0.0), span)
            if f_lo + s_lo * cross >= f - 4 * _EPS * abs(f):
                return None
        curv = f_hi - f_lo - s_lo * span
        if t_hi == t and curv > 0:
            t = min(max(t_lo - s_lo * span * span / (2 * curv), t_lo + span / 10), t_hi - span / 10)
        else:
            t = t_lo + span / 2
    return None


def minimize(fg, x0: np.ndarray, h0: np.ndarray | None = None, *, method: str = "BFGS") -> Burst:
    """A burst of at most BURST_ITERS BFGS iterations with a weak Wolfe line search.

    ``fg(x)`` returns the value and a gradient (at a kink, that of one
    branch); ``h0`` is the inverse Hessian approximation to start from, the
    identity by default, and ``method`` names the search for profilers.  On
    a nonsmooth function such as sigma_max at a kink, BFGS with a weak Wolfe
    line search (:func:`_line_search`) keeps descending, and its inverse
    Hessian approximation grows ill-conditioned along the directions that
    leave the kink (Lewis & Overton 2013).  The first trial step is
    min(1, 2.02 (f_prev - f) / -slope), which repeats the last decrease to
    first order (Nocedal & Wright 2006, eq. 3.60), with f_prev = f + |g| / 2
    at the start (from the identity, a step of about unit length along -g).
    The identity is scaled by s.y / y.y before its first update (Nocedal &
    Wright 2006, eq. 6.20).  Where a line search gives up the burst restarts
    from the identity, and ends where that one gives up too.  The burst also
    ends where the largest gradient entry is at most BFGS_GRAD_TOL.
    """
    nfev = 0

    def counted(x: np.ndarray):
        nonlocal nfev
        nfev += 1
        return fg(x)

    x = np.asarray(x0, dtype=float)
    identity, h = h0 is None, np.eye(x.size) if h0 is None else h0
    f, g = counted(x)
    f_prev, nit = f + float(np.linalg.norm(g)) / 2, 0
    while nit < BURST_ITERS and np.abs(g).max() > BFGS_GRAD_TOL:
        d = -h @ g
        slope = float(g @ d)
        found = None
        if slope < 0.0:
            first = 2.02 * (f - f_prev) / slope
            found = _line_search(counted, x, f, slope, d, min(1.0, first) if first > 0 else 1.0)
        if found is None:
            if identity:
                break
            identity, h = True, np.eye(x.size)
            continue
        t, f_next, g_next = found
        s, y = t * d, g_next - g
        x, f_prev, f, g, nit = x + s, f, f_next, g_next, nit + 1
        # the curvature condition makes s.y >= (1 - WOLFE) t |slope| > 0
        sy = float(s @ y)
        if identity:
            h, identity = h * (sy / float(y @ y)), False
        hy = h @ y
        h = h + (sy + float(y @ hy)) / sy**2 * np.outer(s, s)
        h = h - (np.outer(hy, s) + np.outer(s, hy)) / sy
    return Burst(float(f), nit, nfev, h)


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


def _damped_newton(xf: np.ndarray, svd, direction, evaluate, done=None):
    """Damped Newton descent on sigma_max over the free exponents xf.

    ``svd`` is the evaluation at xf, ``direction(xf, svd)`` gives a step and
    the decrease of sigma_max that it predicts (the Newton decrement), or
    None where no step is defined, and ``evaluate`` maps free exponents to
    their evaluation.  Each step halves from the full step until the Armijo
    condition holds.  The descent converges where the decrement is at most
    NEWTON_DECREMENT_TOL sigma_max, or where ``done()`` holds after a step,
    and gives up where no step is defined, after NEWTON_BACKTRACKS trial
    steps without decrease, or after BFGS_MAX_ITERS steps.  Returns the last
    xf, its evaluation, the steps taken and whether it converged.
    """
    for steps in range(BFGS_MAX_ITERS):
        value = float(svd[1][0])
        found = direction(xf, svd)
        if found is None:
            return xf, svd, steps, False
        step, decrement = found
        if decrement <= NEWTON_DECREMENT_TOL * value:
            return xf, svd, steps, True
        t = 1.0
        for _ in range(NEWTON_BACKTRACKS):
            trial = evaluate(xf + t * step)
            if trial[1][0] <= value - ARMIJO * t * decrement:
                break
            t /= 2.0
        else:
            return xf, svd, steps, False
        xf, svd = xf + t * step, trial
        if done is not None and done():
            return xf, svd, steps + 1, True
    return xf, svd, BFGS_MAX_ITERS, False


def _newton(a_n: np.ndarray, structure: BlockStructure, full, svd):
    """Damped Newton (:func:`_damped_newton`) on sigma_max over the free
    exponents x[1:], from x = 0.

    ``full`` maps the free exponents to the clipped x, and ``svd`` is the
    evaluation at x = 0.  Each step solves the free block of the Hessian
    (:func:`_branch_derivatives`) by Cholesky; its decrement is
    -g . step = |L^-1 g|^2, and the derivatives are formed only at accepted
    points.  The descent gives up (for the kink search of :func:`mu_upper`
    to take over) also at a repeated sigma_max or a Hessian that is not
    positive definite.  Returns the last x, its evaluation, its gradient
    (None where the descent gave up), the steps taken and the number of
    evaluations.
    """
    evaluations, grad = 1, None

    def direction(xf: np.ndarray, svd):
        nonlocal grad
        s = svd[1]
        if s[0] - s[1] <= MULT_TOL * s[0]:
            return None
        grad, hess = _branch_derivatives(*svd, structure)
        try:
            chol = np.linalg.cholesky(hess[1:, 1:])
        except np.linalg.LinAlgError:
            return None
        y = np.linalg.solve(chol, grad[1:])
        return -np.linalg.solve(chol.T, y), float(y @ y)

    def evaluate(xf: np.ndarray):
        nonlocal evaluations
        evaluations += 1
        return _evaluate(a_n, structure, full(xf))

    xf, svd, steps, converged = _damped_newton(
        np.zeros(structure.n_blocks - 1), svd, direction, evaluate
    )
    return full(xf), svd, grad if converged else None, steps, evaluations


@dataclass
class UpperBound:
    """mu_upper's record; mu_lower reads M / scale, its structure and svd from it."""

    value: float
    x: np.ndarray
    multiplicity: int
    grad_norm: float | None  # |gradient of log sigma_max|, None at a kink
    iterations: int  # Newton steps, BFGS iterations and KKT steps
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
    infimum past X_BOUND, and the kink search takes over from the lowest
    point so far.  Each of at most BURSTS rounds runs a quasi-Newton (BFGS)
    burst of BURST_ITERS iterations on the branch gradient (:func:`minimize`,
    with a weak Wolfe line search), which starts from the inverse Hessian
    approximation where the last burst ended, then KKT steps
    (:func:`_kkt_step`) in the damped Newton loop of :func:`_newton`: Newton
    on the optimality system at the kink's multiplicity, which converges
    fast once the burst has brought x near the kink.  Exponents held at
    the clip X_BOUND stay fixed in both.  The search stops once the KKT step
    predicts no decrease (NEWTON_DECREMENT_TOL), after a round that does not
    lower sigma_max, or on a certified gap: after each burst and each KKT
    step the floor rho(P M) of mu_lower's kernel-direction candidates at the
    lowest point is a lower bound on mu, and once it is within CLOSE_TOL of
    sigma_max no scaling can do better.  Where the floor stays below (mu = 0,
    or mu below the scaling optimum) the other stops end the search.  The
    lowest point evaluated is returned.

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

    def bound(x_star, svd, grad, mult, iterations) -> UpperBound:
        value = float(svd[1][0])
        grad_norm = float(np.linalg.norm(grad[1:])) / value if mult == 1 else None
        return UpperBound(
            s0 * value, x_star, mult, grad_norm, iterations, s0, evaluations, svd, a_n, structure
        )

    if nb == 1:  # nothing to scale
        return bound(np.zeros(1), svd, *_branch(svd, structure)[1:], 0)
    x_star, svd, grad, iterations, evaluations = _newton(a_n, structure, full, svd)
    if grad is not None:
        newton = bound(x_star, svd, grad, 1, iterations)
        if _is_stationary(1, newton.grad_norm):
            return newton
    best = (x_star, svd)  # the lowest evaluation so far and its (clipped) x

    def lowest() -> float:
        return float(best[1][1][0])

    def evaluate(xf: np.ndarray):
        nonlocal best, evaluations
        x = full(xf)
        if np.array_equal(x, best[0]):  # where each burst starts
            return best[1]
        svd = _evaluate(a_n, structure, x)
        evaluations += 1
        if svd[1][0] < lowest():
            best = (x, svd)
        return svd

    def fg(xf: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad, _ = _branch(evaluate(xf), structure)
        grad[np.abs(full(xf)) >= X_BOUND] = 0.0  # where the clip holds x constant
        return value, grad[1:]

    def closed() -> bool:
        """Whether the floor at the lowest point meets sigma_max there."""
        goal = _goal(s0 * lowest(), s0)
        return _floor(a_n, structure, best[1], goal) >= goal

    def kkt_direction(xf: np.ndarray, svd):
        """The KKT step over the exponents off the clip, where it predicts a decrease."""
        free = np.flatnonzero(np.abs(full(xf)) < X_BOUND)[1:]
        found = _kkt_step(svd, structure, free) if free.size else None
        if found is None or found[1] > svd[1][0]:
            return None
        step = np.zeros(nb - 1)
        step[free - 1] = found[0]
        return step, float(svd[1][0]) - found[1]

    h = None  # each burst starts from the last one's inverse Hessian approximation
    for _ in range(BURSTS):
        start = lowest()
        burst = minimize(fg, best[0][1:], h, method="BFGS")
        iterations, h = iterations + burst.nit, burst.h
        if closed():
            break
        *_, steps, over = _damped_newton(best[0][1:], best[1], kkt_direction, evaluate, closed)
        iterations += steps
        if over or lowest() >= start:
            break
    x_star, svd = best
    return bound(x_star, svd, *_branch(svd, structure)[1:], iterations)


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
