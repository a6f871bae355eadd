"""Scenario reductions: shapes, exact formulas, determinant equivalence."""

import numpy as np
import pytest

from rosenmu import (
    InputError,
    ReducedProblem,
    RosenbrockSystem,
    Scenario,
    all_scenarios,
    backward_error,
    build_tilde_js,
    embed,
    evaluate,
    perturbation_norm,
    reduce,
    sigma_max,
    sigma_min,
)

from conftest import cgauss, random_blocks, random_system


def test_tilde_js_smallest():
    j1, j2 = build_tilde_js(1, 1, 1)
    np.testing.assert_allclose(j1, [[0], [1]])
    np.testing.assert_allclose(j2, [[0, 1]])


def test_tilde_js_degree_two_pattern():
    j1, j2 = build_tilde_js(1, 1, 2)
    assert j1.shape == (4, 2)
    expected = np.zeros((4, 2))
    expected[1, 0] = 1
    expected[3, 1] = 1
    np.testing.assert_allclose(j1, expected)
    np.testing.assert_allclose(j2, [[0, 1], [0, 1]])


def test_tilde_js_degree_zero_empty():
    j1, j2 = build_tilde_js(2, 3, 0)
    assert j1.shape == (0, 0)
    assert j2.shape == (0, 5)


def test_scenario_parsing():
    s = Scenario.from_string("bc")
    assert s.name == "BC"
    assert not s.perturb_a and s.perturb_b and s.perturb_c and not s.perturb_p
    with pytest.raises(InputError):
        Scenario.from_string("")
    with pytest.raises(InputError):
        Scenario.from_string("AXB")
    with pytest.raises(InputError):
        Scenario.from_string("AA")


def test_all_scenarios_order():
    names = [s.name for s in all_scenarios()]
    assert names == [
        "A", "B", "C", "P",
        "AB", "AC", "AP", "BC", "BP", "CP",
        "ABC", "ABP", "ACP", "BCP",
        "ABCP",
    ]


def test_full_scenario_dimension_count(rng):
    sys_ = random_system(rng, r=1, n=1, d=1)
    prob = reduce(sys_, 0.3, Scenario.from_string("ABCP"))
    assert isinstance(prob, ReducedProblem)
    assert prob.m.shape == (5, 5)  # (d+2)n + 2r = 5
    assert prob.structure.blocks == ((1, 1),) * 5
    assert prob.labels == ("A", "B", "C", "A0", "A1")


def _expected_mu_shape(scenario, r, n, d):
    """Structure row/column totals implied by the perturbed block shapes."""
    p = k = 0
    if scenario.perturb_a:
        p += r
        k += r
    if scenario.perturb_b:
        p += r
        k += n
    if scenario.perturb_c:
        p += n
        k += r
    if scenario.perturb_p:
        p += (d + 1) * n
        k += (d + 1) * n
    return k, p


def test_dimension_audit_all_scenarios(rng):
    for _ in range(6):
        sys_ = random_system(rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for scenario in all_scenarios():
            red = reduce(sys_, lam, scenario)
            k, p = _expected_mu_shape(scenario, sys_.r, sys_.n, sys_.d)
            assert red.m.shape == (k, p), scenario.name
            assert red.structure.k_total == k
            assert red.structure.p_total == p
            assert len(red.labels) == red.structure.n_blocks


def test_bc_matches_printed_factors(rng):
    sys_ = random_system(rng, r=2, n=3, d=1)
    lam = 0.4 - 0.2j
    red = reduce(sys_, lam, Scenario.from_string("BC"))
    s_inv = np.linalg.inv(evaluate(sys_, lam))
    selector = np.block(
        [[np.zeros((3, 2)), np.eye(3)], [np.eye(2), np.zeros((2, 3))]]
    )
    np.testing.assert_allclose(red.m, selector @ s_inv, atol=1e-12)
    assert red.structure.blocks == ((2, 3), (3, 2))


def test_exact_formula_diagonal():
    sys_ = RosenbrockSystem([[2]], [[0]], [[0]], ([[1]],))
    red = reduce(sys_, 0.0, Scenario.from_string("A"))
    assert red.structure.blocks == ((1, 1),)
    np.testing.assert_allclose(red.m, [[0.5]])
    res = backward_error(sys_, 0.0, Scenario.from_string("A"))
    assert res.exactness == "exact_formula"
    assert res.eta_upper == pytest.approx(2.0)


def test_exact_formula_infinite_witness():
    # 4x4 system whose (1,1) inverse entry vanishes identically.
    a0 = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    sys_ = RosenbrockSystem([[1.3]], [[0, 0, 1]], [[1], [0], [0]], (a0,))
    for lam in (0.2, -0.7 + 0.4j, 2.5j):
        res = backward_error(sys_, lam, Scenario.from_string("A"))
        assert res.eta_upper == np.inf
        assert sigma_max(res.infinite_witness) <= 1e-12


def test_embed_zero_and_single_block(rng):
    sys_ = random_system(rng, r=2, n=2, d=0)
    prob = reduce(sys_, 0.1, Scenario.from_string("AB"))
    zero = embed(prob, [np.zeros((2, 2)), np.zeros((2, 2))])
    np.testing.assert_allclose(zero, 0)
    one_block = reduce(sys_, 0.1, Scenario.from_string("A"))
    e = cgauss(rng, 2, 2)
    ds = embed(one_block, [e])
    np.testing.assert_allclose(ds[:2, :2], e)
    np.testing.assert_allclose(ds[2:, :], 0)
    np.testing.assert_allclose(ds[:, 2:], 0)


def test_embed_norm_is_max_block_norm(rng):
    sys_ = random_system(rng, r=2, n=2, d=1)
    prob = reduce(sys_, 0.3, Scenario.from_string("ABCP"))
    blocks = random_blocks(rng, prob.structure)
    assert perturbation_norm(blocks) == pytest.approx(
        max(sigma_max(b) for b in blocks)
    )


def test_embed_shape_mismatch(rng):
    sys_ = random_system(rng, r=2, n=2, d=0)
    prob = reduce(sys_, 0.1, Scenario.from_string("AB"))
    with pytest.raises(InputError):
        embed(prob, [np.zeros((2, 2)), np.zeros((3, 3))])


def _det_equivalence_check(sys_, lam, scenario, rng):
    red = reduce(sys_, lam, scenario)
    blocks = random_blocks(rng, red.structure)
    delta = red.structure.assemble(blocks)
    ev = np.linalg.eigvals(delta @ red.m)
    lam_e = ev[np.argmax(np.abs(ev))]
    if abs(lam_e) < 1e-9:
        return
    delta_s = embed(red, [b / lam_e for b in blocks])
    s_mat = evaluate(sys_, lam)
    assert sigma_min(s_mat - delta_s) <= 1e-8 * sigma_max(s_mat), scenario.name


def test_determinant_equivalence_every_scenario(rng):
    for _ in range(8):
        sys_ = random_system(rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for scenario in all_scenarios():
            _det_equivalence_check(sys_, lam, scenario, rng)


def test_reduce_requires_invertible_s():
    sys_ = RosenbrockSystem([[2]], [[0]], [[0]], ([[1]],))
    from rosenmu import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        reduce(sys_, 2.0, Scenario.from_string("A"))
