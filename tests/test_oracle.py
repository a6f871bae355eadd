"""Brute-force estimators versus the certified pipeline."""

import numpy as np
import pytest
import scipy.linalg

from rosenmu import (
    BlockStructure,
    RosenbrockSystem,
    Scenario,
    all_scenarios,
    assemble_perturbation,
    backward_error,
    brute_force_backward_error,
    brute_force_mu,
    evaluate,
    mu_bracket,
    sigma_max,
)
from rosenmu import mu, oracle
from rosenmu.reduction import block_shape

from conftest import cgauss, random_structure, random_system

TWO_SCALARS = BlockStructure(((1, 1), (1, 1)))


def test_zero_matrix():
    est = brute_force_mu(np.zeros((2, 2)), TWO_SCALARS, budget=10, seed=0)
    assert est.mu_sampled_lower == 0.0


def test_sqrt6_with_small_budget():
    m = np.array([[0, 2], [3, 0]], dtype=complex)
    est = brute_force_mu(m, TWO_SCALARS, budget=1000, seed=0)
    assert est.mu_sampled_lower >= 0.99 * np.sqrt(6)
    assert est.mu_sampled_lower <= np.sqrt(6) * (1 + 1e-9)
    assert max(sigma_max(b) for b in est.best_direction) == pytest.approx(1.0)


def test_mu_sandwich(rng):
    for seed in range(4):
        structure = random_structure(rng, n_blocks=int(rng.integers(1, 4)))
        m = cgauss(rng, structure.k_total, structure.p_total)
        res = mu_bracket(m, structure)
        est = brute_force_mu(m, structure, budget=800, seed=seed)
        assert est.mu_sampled_lower <= res.upper + 1e-8


def test_backward_error_diagonal():
    sys_ = RosenbrockSystem([[2]], [[0]], [[0]], ([[1]],))
    eta = brute_force_backward_error(sys_, 0.0, Scenario.from_string("A"), budget=200, seed=1)
    assert 2.0 - 1e-9 <= eta <= 2.02


def test_backward_error_at_eigenvalue():
    sys_ = RosenbrockSystem([[2]], [[0]], [[0]], ([[1]],))
    assert brute_force_backward_error(sys_, 2.0, Scenario.from_string("A")) == 0.0


def test_backward_error_vs_pipeline(rng, monkeypatch):
    # the oracle lifts the uncollapsed A_0..A_d blocks, so on P scenarios it
    # checks the weighted P block of the reduction independently
    sys_ = random_system(rng, r=2, n=2, d=2)
    lam = 0.4 - 0.3j
    for scenario in all_scenarios():
        res = backward_error(sys_, lam, scenario)
        # a longer ascent from fewer candidates, for the oracle alone
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "REFINE_TOP", 3)
            patch.setattr(mu, "ASCENT_ITERS", 2500)
            eta_sampled = brute_force_backward_error(sys_, lam, scenario, budget=3000, seed=7)
        # a sampled upper bound cannot beat the certified lower bound, and lands on the optimum
        assert res.eta_lower * (1 - 1e-12) <= eta_sampled <= res.eta_upper * (1 + 1e-8), (
            scenario.name
        )


def test_budget_validation():
    from rosenmu import InputError

    with pytest.raises(InputError):
        brute_force_mu(np.eye(2), TWO_SCALARS, budget=0)
    sys_ = RosenbrockSystem([[2]], [[0]], [[0]], ([[1]],))
    with pytest.raises(InputError):
        brute_force_backward_error(sys_, 0.0, Scenario.from_string("A"), budget=0)


def test_refined_direction_is_feasible_and_reproduces_rho(rng):
    for seed in range(4):
        structure = random_structure(rng, n_blocks=3)
        m = cgauss(rng, structure.k_total, structure.p_total)
        est = brute_force_mu(m, structure, budget=300, seed=seed)
        assert max(sigma_max(b) for b in est.best_direction) == pytest.approx(1.0, abs=1e-12)
        rho = np.abs(np.linalg.eigvals(structure.assemble(est.best_direction) @ m)).max()
        assert rho == pytest.approx(est.mu_sampled_lower, rel=1e-12)


def test_refinement_never_lowers_the_sampled_bound(rng, monkeypatch):
    for seed in range(4):
        structure = random_structure(rng)
        m = cgauss(rng, structure.k_total, structure.p_total)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "REFINE_TOP", 0)
            sampled = brute_force_mu(m, structure, budget=300, seed=seed)
        refined = brute_force_mu(m, structure, budget=300, seed=seed)
        assert refined.mu_sampled_lower >= sampled.mu_sampled_lower


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "m, structure, want",
    [
        (np.zeros((2, 2)), TWO_SCALARS, 0.0),
        # Delta M = [[0, d1], [0, 0]] is nilpotent for every Delta: no gradient
        (np.array([[0, 1], [0, 0]]), TWO_SCALARS, 0.0),
        (np.array([[2 - 1j]]), BlockStructure(((1, 1),)), abs(2 - 1j)),
    ],
)
def test_degenerate_refinement_starts(m, structure, want):
    est = brute_force_mu(m, structure, budget=50, seed=0)
    assert est.mu_sampled_lower == pytest.approx(want, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e300, 1e-320])
def test_refinement_at_extreme_scales(scale):
    # the gradient's phase and scaling must neither overflow nor divide by a subnormal
    m = scale * np.array([[1, 2], [3, 1]], dtype=complex)
    est = brute_force_mu(m, TWO_SCALARS, budget=50, seed=0)
    assert 0 < est.mu_sampled_lower < np.inf


@pytest.mark.filterwarnings("error")
def test_refinement_when_rho_overflows():
    # mu = 2e308 is past the double range; the ascent must stop, not raise
    est = brute_force_mu(np.full((2, 2), 1e308), TWO_SCALARS, budget=50, seed=0)
    assert est.mu_sampled_lower == np.inf


def _loop_sampled_mu(m, structure, budget, seed):
    """Reference sampling phase, one draw at a time, block by block."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(budget):
        blocks = [
            rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k))
            for p, k in structure.blocks
        ]
        scale = max(np.linalg.norm(b, 2) for b in blocks)
        blocks = [b / scale for b in blocks]
        rho = float(np.max(np.abs(np.linalg.eigvals(structure.assemble(blocks) @ m))))
        if best is None or rho > best[0]:
            best = (rho, blocks)
    return best


def test_batched_sampling_matches_loop(rng, monkeypatch):
    # several chunks, the last one partial; no refinement leaves the sampled best
    monkeypatch.setattr(oracle, "REFINE_TOP", 0)
    for seed in range(3):
        structure = random_structure(rng, n_blocks=3)
        m = cgauss(rng, structure.k_total, structure.p_total)
        rho, blocks = _loop_sampled_mu(m, structure, 1100, seed)
        est = brute_force_mu(m, structure, budget=1100, seed=seed)
        assert est.mu_sampled_lower == rho
        assert all(np.array_equal(b, r) for b, r in zip(est.best_direction, blocks))


def _loop_sampled_backward_error(sys_, lam, scenario, budget, seed):
    """Reference sampling, one draw at a time: the pencil det(S - t W) = 0.

    Each unit direction W of the scenario's blocks, placed in S(lambda)
    with its powers of lambda, is scaled onto the singularity locus by the
    smallest |t| among the generalized eigenvalues of (S, W).
    """
    rng = np.random.default_rng(seed)
    s_mat = evaluate(sys_, lam)
    labels = scenario.labels(sys_.d)
    best = np.inf
    for _ in range(budget):
        blocks = []
        for label in labels:
            p, k = block_shape(label, sys_.r, sys_.n)
            blocks.append(rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k)))
        scale = max(np.linalg.norm(b, 2) for b in blocks)
        w = assemble_perturbation(
            sys_.r, sys_.n, lam, {label: b / scale for label, b in zip(labels, blocks)}
        )
        t = scipy.linalg.eigvals(s_mat, w)
        t = t[np.isfinite(t)]
        if t.size:
            best = min(best, float(np.abs(t).min()))
    return best


@pytest.mark.parametrize("d, spec", [(0, "AC"), (1, "P"), (1, "BP"), (2, "ABCP")])
def test_sampled_backward_error_matches_pencil_loop(rng, monkeypatch, d, spec):
    # with d >= 1 the A_j blocks of P overlap in S(lambda); several chunks;
    # no refinement, so both sides sample alone
    monkeypatch.setattr(oracle, "REFINE_TOP", 0)
    sys_ = random_system(rng, r=2, n=2, d=d)
    lam = 0.3 - 0.6j
    scenario = Scenario.from_string(spec)
    want = _loop_sampled_backward_error(sys_, lam, scenario, 600, seed=4)
    eta = brute_force_backward_error(sys_, lam, scenario, budget=600, seed=4)
    assert eta == pytest.approx(want, rel=1e-12)


def test_fixed_seed_estimates_are_pinned(monkeypatch):
    """Exact float.hex of fixed-seed estimates, so a rewrite of the
    sampling or the refinement cannot change results unnoticed."""
    m = np.array([[0, 2], [3, 0]], dtype=complex)
    est = brute_force_mu(m, TWO_SCALARS, budget=1000, seed=0)
    assert est.mu_sampled_lower.hex() == "0x1.3988e14092133p+1"

    # a 3-block structure of acceptance test 3g; the budget spans several chunks
    structure = BlockStructure(((1, 1), (1, 2), (2, 1)))
    m3 = cgauss(np.random.default_rng(7), structure.k_total, structure.p_total)
    est = brute_force_mu(m3, structure, budget=1500, seed=2)
    assert est.mu_sampled_lower.hex() == "0x1.ae3c7e8098cdep+1"

    sys_ = random_system(np.random.default_rng(5), r=2, n=2, d=1)
    monkeypatch.setattr(oracle, "REFINE_TOP", 2)
    monkeypatch.setattr(mu, "ASCENT_ITERS", 150)
    eta = brute_force_backward_error(
        sys_, 0.3 + 0.2j, Scenario.from_string("BP"), budget=700, seed=3
    )
    # the exact eta of this case is 1.0995711795994276
    assert float(eta).hex() == "0x1.197d7f3000f14p+0"
