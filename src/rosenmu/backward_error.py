"""Structured eigenvalue backward errors of Rosenbrock system matrices.

Top-level pipeline: evaluate S(lambda) once into a
:class:`~rosenmu.rosenbrock.Point` (shared by all 15 scenarios of a
sweep), short-circuit exact eigenvalues to zero, then give each scenario
one reduce and one solve at that point: exactly when one block is
perturbed (A, B, C, or the weighted P block at every degree, where
mu = sigma_max(M)), by a bracket of the mu-value otherwise (at most four
blocks).  The result is inverted into backward-error bounds.  The mu
lower bound is the certified side: its partial-isometry certificate
converts to an explicit structured perturbation whose max block norm
realizes the backward-error upper bound, checkable by a sigma_min
residual.  Certificates carry the coefficient blocks A0..Ad of P(z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ABS_FLOOR, sigma_min
from .mu import ZERO_TOL, MuResult, mu_bracket, negligible
from .reduction import (
    Scenario,
    all_scenarios,
    assemble_perturbation,
    labeled_blocks,
    perturbation_norm,
    reduce,
)
from .rosenbrock import Point, RosenbrockSystem, weight

# A 1-block M is declared exactly zero (infinite backward error) below
# this level relative to its bound w sigma_max(S(lambda)^{-1}) = w/sigma_min,
# with w the weight of the P block and 1 for A, B and C.
WITNESS_ZERO_TOL = 1e-14


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
    possibly_infinite: bool
    delta_blocks: dict[str, np.ndarray] | None
    certificate: np.ndarray | None
    certificate_norm: float | None
    residual: float | None
    mu: MuResult | None
    infinite_witness: np.ndarray | None = None

    @property
    def is_exact(self) -> bool:
        return self.exactness in (
            "exact_eigenvalue",
            "exact_formula",
            "exact_n_le_3",
            "exact_simple_sigma",
        )


def _eigenvalue_result(point: Point, scenario: Scenario):
    return BackwardErrorResult(
        scenario=scenario,
        lam=point.lam,
        eta_lower=0.0,
        eta_upper=0.0,
        exactness="exact_eigenvalue",
        possibly_infinite=False,
        delta_blocks={},
        certificate=np.zeros_like(point.s),
        certificate_norm=0.0,
        residual=point.sigma_min,
        mu=None,
    )


def _rank_one_inverse_image(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Minimal-norm Delta with Delta (H w) = w for the top right singular vector w.

    Delta = w (H w)* / |H w|^2 has spectral norm 1/sigma_max(H) and puts an
    eigenvalue one into Delta H.
    """
    hw = h @ w
    return np.outer(w, hw.conj()) / float(np.vdot(hw, hw).real)


def backward_error(sys: RosenbrockSystem, lam: complex, scenario: Scenario) -> BackwardErrorResult:
    """Backward error of lambda for S(z) under one perturbation scenario."""
    return _backward_error_at(Point(sys, lam), scenario)


def _backward_error_at(point: Point, scenario: Scenario) -> BackwardErrorResult:
    if point.is_eigenvalue():
        return _eigenvalue_result(point, scenario)

    problem = reduce(point, scenario)
    mu = delta = witness = norm = None
    possibly_infinite = False
    if problem.structure.n_blocks == 1:
        # One perturbed block (A, B, C, or the weighted P): mu degenerates
        # to sigma_max(M) and the closed form 1/sigma_max(M) applies, +inf
        # when M = 0.  One SVD of M gives sigma_max, the certificate and its
        # norm 1/sigma_max.
        exactness = "exact_formula"
        _, s, vh = np.linalg.svd(problem.m)
        smax = float(s[0])
        w = weight(point.lam, point.sys.d) if scenario.perturb_p else 1.0
        if smax <= WITNESS_ZERO_TOL * max(w * point.inv_norm, ABS_FLOOR):
            eta_lower = eta_upper = np.inf
            witness = problem.m
        else:
            eta_lower = eta_upper = norm = 1.0 / smax
            delta = [_rank_one_inverse_image(problem.m, vh[0].conj())]
    else:
        mu = mu_bracket(problem.m, problem.structure)
        exactness = mu.exactness
        eta_lower = 1.0 / mu.upper if mu.upper > 0 else np.inf
        possibly_infinite = negligible(mu.lower, mu.scale, ZERO_TOL)
        if mu.lower > 0:
            # roundoff can cross the mu bounds by ~1e-15; keep the eta interval ordered
            eta_lower = min(eta_lower, 1.0 / mu.lower)
        eta_upper = np.inf
        if mu.certificate_delta is not None and mu.lower > 0:
            eta_upper = 1.0 / mu.lower
            delta = mu.certificate_delta
            norm = perturbation_norm(delta)

    blocks = delta_s = resid = None
    if delta is not None:
        blocks = labeled_blocks(problem.labels, delta, point.lam, point.sys.d)
        delta_s = assemble_perturbation(point.sys.r, point.sys.n, point.lam, blocks)
        resid = sigma_min(point.s - delta_s)
    return BackwardErrorResult(
        scenario=scenario,
        lam=point.lam,
        eta_lower=eta_lower,
        eta_upper=eta_upper,
        exactness=exactness,
        possibly_infinite=possibly_infinite,
        delta_blocks=blocks,
        certificate=delta_s,
        certificate_norm=norm,
        residual=resid,
        mu=mu,
        infinite_witness=witness,
    )


def scenario_sweep(sys: RosenbrockSystem, lam: complex) -> list[BackwardErrorResult]:
    """All 15 scenarios at one point, ordered by size then lexicographically."""
    point = Point(sys, lam)
    return [_backward_error_at(point, scenario) for scenario in all_scenarios()]
