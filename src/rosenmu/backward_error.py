"""Structured eigenvalue backward errors of Rosenbrock system matrices.

Top-level pipeline: assemble and factor S(lambda_k) at every point of a
scan at once, into a :class:`~rosenmu.rosenbrock.Scan` shared by all 15
scenarios of a sweep; a single point is the scan of one lambda.  Exact
eigenvalues short-circuit to zero.  Each scenario then gathers M at every
other point from the stacked inverses and solves it: exactly when one
block is perturbed (A, B, C, or the weighted P block at every degree,
where mu = sigma_max(M)), from one stacked SVD of M, and by a bracket of
the mu-value per point otherwise (at most four blocks).  The result is
inverted into backward-error bounds.  The mu lower bound is the certified
side: its partial-isometry certificate converts to an explicit structured
perturbation whose max block norm realizes the backward-error upper
bound, checkable by a sigma_min residual, taken for all certified points
in one stacked SVD.  Certificates carry the coefficient blocks A0..Ad of
P(z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import InputError, NumericError, as_matrix
from .mu import TINY, ZERO_TOL, MuResult, mu_bracket, negligible
from .reduction import (
    Scenario,
    all_scenarios,
    assemble_perturbation,
    labeled_blocks,
    perturbation_norm,
    reduce,
)
from .rosenbrock import RosenbrockSystem, Scan, weight


@dataclass
class BackwardErrorResult:
    """Bracket [eta_lower, eta_upper] plus the realizing perturbation.

    The upper estimate is the certified side: when ``certificate`` is
    present, ``certificate_norm`` equals ``eta_upper`` and
    sigma_min(S(lambda) - certificate) equals ``residual``.  The lower
    estimate comes from the scaling upper bound on mu and carries no
    certificate.
    """

    scenario: Scenario
    lam: complex
    eta_lower: float
    eta_upper: float
    exactness: str
    possibly_infinite: bool = False
    delta_blocks: dict[str, np.ndarray] | None = None
    certificate: np.ndarray | None = None
    certificate_norm: float | None = None
    residual: float | None = None
    mu: MuResult | None = None
    infinite_witness: np.ndarray | None = None

    @property
    def is_exact(self) -> bool:
        return self.exactness != "bracket_only"


def _rank_one_inverse_image(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Minimal-norm Delta with Delta (H w) = w for the top right singular vector w.

    Delta = w (H w)* / |H w|^2 has spectral norm 1/sigma_max(H) and puts an
    eigenvalue one into Delta H.  Where |H w|^2 falls below the normal
    range (|H w| below about 1e-154, which the relative zero test lets
    through), Delta is divided by |H w| twice instead, so it stays finite.
    """
    hw = h @ w
    hw2 = float(np.vdot(hw, hw).real)
    if hw2 < np.finfo(float).tiny:
        hw_norm = float(np.linalg.norm(hw))
        return np.outer(w, (hw / hw_norm).conj()) / hw_norm
    return np.outer(w, hw.conj()) / hw2


# What a point of a scan may raise; it ends the scan at that point.
_POINT_ERRORS = (InputError, NumericError, np.linalg.LinAlgError)


def _scan_results(scan: Scan, scenario: Scenario) -> list[BackwardErrorResult | None]:
    """One scenario at every point of a scan before its first failure.

    M is gathered at all points at once, the one-block closed form takes one
    stacked SVD and the certificates' residuals one stacked values-only SVD.
    """
    sys, lams = scan.sys, scan.lams
    results: list[BackwardErrorResult | None] = [None] * len(lams)
    rows, weights = [], np.ones(len(lams))
    for k in range(scan.stop):
        if scan.eigen[k]:
            results[k] = BackwardErrorResult(
                scenario, lams[k], 0.0, 0.0, "exact_eigenvalue", delta_blocks={},
                certificate=np.zeros_like(scan.s[k]), certificate_norm=0.0,
                residual=float(scan.sigma_min[k]),
            )
            continue
        try:
            weights[k] = weight(lams[k], sys.d) if scenario.perturb_p else 1.0
        except InputError as exc:
            scan.fail(k, exc)
            break
        rows.append(k)
    if not rows:
        return results
    m, structure, labels = reduce(scan.inverse[rows], weights[rows], scenario, sys.r, sys.n)
    one_block = structure.n_blocks == 1
    if one_block:
        # One perturbed block (A, B, C, or the weighted P): mu degenerates
        # to sigma_max(M) and the closed form 1/sigma_max(M) applies, +inf
        # when M is zero: negligible (TINY, relative) against its bound
        # w / sigma_min(S), with w the weight of P and 1 otherwise, so the
        # test does not depend on the scale of S.  One SVD of M gives
        # sigma_max, the certificate and its norm 1/sigma_max.
        _, s, vh = np.linalg.svd(m)
    certified, perturbed = [], []
    for i, k in enumerate(rows):
        res, delta = BackwardErrorResult(scenario, lams[k], np.inf, np.inf, "exact_formula"), None
        try:
            if one_block:
                smax = float(s[i, 0])
                if negligible(smax, weights[k] / scan.sigma_min[k], TINY):
                    res.infinite_witness = m[i]
                else:
                    res.eta_lower = res.eta_upper = norm = 1.0 / smax
                    delta = [_rank_one_inverse_image(m[i], vh[i, 0].conj())]
            else:
                res.mu = mu = mu_bracket(m[i], structure)
                res.exactness = mu.exactness
                res.eta_lower = 1.0 / mu.upper if mu.upper > 0 else np.inf
                res.possibly_infinite = negligible(mu.lower, mu.upper_bound.scale, ZERO_TOL)
                if mu.certificate_delta is not None:
                    res.eta_upper = 1.0 / mu.lower
                    delta = mu.certificate_delta
                    norm = perturbation_norm(delta)
                elif mu.upper > 0:  # no perturbation realizes eta_upper = inf
                    res.exactness = "bracket_only"
            if delta is not None:
                res.delta_blocks = labeled_blocks(labels, delta, lams[k], sys.d)
                res.certificate = assemble_perturbation(sys.r, sys.n, lams[k], res.delta_blocks)
                res.certificate_norm = norm
                perturbed.append(as_matrix(scan.s[k] - res.certificate))
                certified.append(res)
        except _POINT_ERRORS as exc:
            scan.fail(k, exc)
            break
        results[k] = res
    if certified:
        residuals = np.linalg.svd(np.stack(perturbed), compute_uv=False)[:, -1]
        for res, residual in zip(certified, residuals):
            res.residual = float(residual)
    return results


def scan_backward_errors(sys: RosenbrockSystem, lams, scenarios) -> list[list[BackwardErrorResult]]:
    """Backward errors of each scenario at each lambda, in stacked LAPACK calls.

    Row k holds the results at lams[k], one per scenario.  The points are
    taken to run one after another, each through all scenarios: the error
    raised is that of the first lambda that fails, at its first failure.
    """
    scan = Scan(sys, lams)
    columns = [_scan_results(scan, scenario) for scenario in scenarios]
    scan.check()
    return [list(row) for row in zip(*columns)]


def backward_error(sys: RosenbrockSystem, lam: complex, scenario: Scenario) -> BackwardErrorResult:
    """Backward error of lambda for S(z) under one perturbation scenario."""
    return scan_backward_errors(sys, [lam], [scenario])[0][0]


def scenario_sweep(sys: RosenbrockSystem, lam: complex) -> list[BackwardErrorResult]:
    """All 15 scenarios at one point, ordered by size then lexicographically."""
    return scan_backward_errors(sys, [lam], all_scenarios())[0]
