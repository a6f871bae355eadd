"""Structured eigenvalue backward errors of Rosenbrock system matrices.

Top-level pipeline: evaluate S(lambda) once into a
:class:`~rosenmu.rosenbrock.Point` (shared by all 15 scenarios of a
sweep), short-circuit exact eigenvalues to zero, reduce each scenario at
the point, solve it exactly when one block is
perturbed (mu = sigma_max(M)) or bracket the mu-value otherwise, and
invert the result into backward-error bounds.  The mu lower
bound is the certified side: its partial-isometry certificate converts to
an explicit structured perturbation whose max block norm realizes the
backward-error upper bound, checkable by a sigma_min residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ABS_FLOOR, sigma_max, sigma_min
from .mu import ZERO_TOL, MuResult, mu_bracket, negligible
from .reduction import (
    Scenario,
    all_scenarios,
    assemble_perturbation,
    block_shape,
    perturbation_norm,
    reduce,
)
from .rosenbrock import Point, RosenbrockSystem

# A 1-block M is declared exactly zero (infinite backward error) below
# this level relative to sigma_max(S(lambda)^{-1}) = 1/sigma_min(S(lambda)).
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


def _rank_one_inverse_image(h: np.ndarray) -> np.ndarray:
    """Minimal-norm Delta with Delta (H w) = w for the top singular pair.

    With w the top right singular vector, Delta = w (H w)* / |H w|^2 has
    spectral norm 1/sigma_max(H) and puts an eigenvalue one into Delta H.
    """
    u, s, vh = np.linalg.svd(h)
    w = vh[0].conj()
    hw = h @ w
    return np.outer(w, hw.conj()) / float(np.vdot(hw, hw).real)


def backward_error(
    sys: RosenbrockSystem,
    lam: complex,
    scenario: Scenario,
    seed_isometries=(),
) -> BackwardErrorResult:
    """Backward error of lambda for S(z) under one perturbation scenario."""
    return _backward_error_at(Point(sys, lam), scenario, seed_isometries)


def _backward_error_at(point: Point, scenario: Scenario, seed_isometries) -> BackwardErrorResult:
    if point.is_eigenvalue():
        return _eigenvalue_result(point, scenario)

    problem = reduce(point, scenario)
    mu = delta = witness = None
    possibly_infinite = False
    if problem.structure.n_blocks == 1:
        # One perturbed block (A, B, C, or P(z) of degree zero): mu
        # degenerates to sigma_max(M) and the closed form 1/sigma_max(M)
        # applies, +inf when M = 0.
        exactness = "exact_formula"
        smax = sigma_max(problem.m)
        if smax <= WITNESS_ZERO_TOL * max(point.inv_norm, ABS_FLOOR):
            eta_lower = eta_upper = np.inf
            witness = problem.m
        else:
            eta_lower = eta_upper = 1.0 / smax
            delta = [_rank_one_inverse_image(problem.m)]
    else:
        mu = mu_bracket(problem.m, problem.structure, seed_isometries)
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

    blocks = delta_s = resid = norm = None
    if delta is not None:
        blocks = dict(zip(problem.labels, delta))
        delta_s = assemble_perturbation(point.sys.r, point.sys.n, point.lam, blocks)
        resid = sigma_min(point.s - delta_s)
        norm = perturbation_norm(delta)
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


def _seed_blocks_for(labels, r: int, n: int, pool: dict[str, dict[str, np.ndarray]]):
    """Partial-isometry seeds for a scenario from its already-solved subsets.

    A certificate for a subset scenario embeds into a superset by padding
    the untouched blocks with zeros (zero blocks are partially isometric),
    and its rho value carries over, so seeded lower bounds can only match
    or improve the subset's certified bound.
    """
    shapes = {label: block_shape(label, r, n) for label in labels}
    return [
        [labeled.get(label, np.zeros(shapes[label], dtype=complex)) for label in labels]
        for labeled in pool.values()
        if set(labeled) <= set(labels)
    ]


def scenario_sweep(sys: RosenbrockSystem, lam: complex) -> list[BackwardErrorResult]:
    """All 15 scenarios, ordered by scenario size then lexicographically.

    Later (larger) scenarios reuse the certificates of their subsets as
    lower-bound seeds, which keeps the reported brackets monotone under
    scenario inclusion up to solver roundoff.
    """
    point = Point(sys, lam)
    results = []
    pool: dict[str, dict[str, np.ndarray]] = {}
    for scenario in all_scenarios():
        seeds = _seed_blocks_for(scenario.labels(sys.d), sys.r, sys.n, pool)
        res = _backward_error_at(point, scenario, seeds)
        results.append(res)
        if res.delta_blocks and res.certificate_norm and res.certificate_norm > 0:
            # Rescale the realized perturbation blocks to unit spectral norm
            # so they can seed supersets as partial isometries.
            pool[scenario.name] = {
                label: blk / sigma_max(blk)
                for label, blk in res.delta_blocks.items()
                if sigma_max(blk) > 0
            }
    return results
