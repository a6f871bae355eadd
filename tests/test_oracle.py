"""Brute-force estimators versus the certified pipeline."""

import numpy as np
import pytest

from rosenmu import (
    BlockStructure,
    MuOptions,
    RosenbrockSystem,
    Scenario,
    backward_error,
    brute_force_backward_error,
    brute_force_mu,
    mu_bracket,
    sigma_max,
)

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


def test_backward_error_vs_pipeline(rng):
    sys_ = random_system(rng, r=2, n=2, d=1)
    lam = 0.4 - 0.3j
    scenario = Scenario.from_string("ABCP")
    res = backward_error(sys_, lam, scenario, MuOptions(starts=4, refine_rounds=80))
    eta_sampled = brute_force_backward_error(
        sys_, lam, scenario, budget=3000, seed=7, refine_top=3, refine_iters=2500
    )
    # random search cannot beat the certified optimum, and should land close
    assert res.eta_upper <= eta_sampled + 1e-8
    assert eta_sampled <= 1.05 * res.eta_upper


def test_budget_validation():
    from rosenmu import InputError

    with pytest.raises(InputError):
        brute_force_mu(np.eye(2), TWO_SCALARS, budget=0)
    sys_ = RosenbrockSystem([[2]], [[0]], [[0]], ([[1]],))
    with pytest.raises(InputError):
        brute_force_backward_error(sys_, 0.0, Scenario.from_string("A"), budget=0)


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


def test_batched_sampling_matches_loop(rng):
    # several chunks, the last one partial; refine_top=0 leaves the sampled best
    for seed in range(3):
        structure = random_structure(rng, n_blocks=3)
        m = cgauss(rng, structure.k_total, structure.p_total)
        rho, blocks = _loop_sampled_mu(m, structure, 1100, seed)
        est = brute_force_mu(m, structure, budget=1100, seed=seed, refine_top=0)
        assert est.mu_sampled_lower == rho
        assert all(np.array_equal(b, r) for b, r in zip(est.best_direction, blocks))


def test_fixed_seed_estimates_are_pinned():
    """Exact float.hex of fixed-seed estimates, so a rewrite of the
    sampling or the refinement cannot change results unnoticed."""
    m = np.array([[0, 2], [3, 0]], dtype=complex)
    est = brute_force_mu(m, TWO_SCALARS, budget=1000, seed=0)
    assert est.mu_sampled_lower.hex() == "0x1.3988e14092134p+1"

    # a 3-block structure of acceptance test 3g; the budget spans several chunks
    structure = BlockStructure(((1, 1), (1, 2), (2, 1)))
    m3 = cgauss(np.random.default_rng(7), structure.k_total, structure.p_total)
    est = brute_force_mu(m3, structure, budget=1500, seed=2)
    assert est.mu_sampled_lower.hex() == "0x1.ae0378d5323dfp+1"

    sys_ = random_system(np.random.default_rng(5), r=2, n=2, d=1)
    eta = brute_force_backward_error(
        sys_, 0.3 + 0.2j, Scenario.from_string("BP"), budget=700, seed=3,
        refine_top=2, refine_iters=150,
    )
    assert float(eta).hex() == "0x1.1f2fbe632eabap+0"
