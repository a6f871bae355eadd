"""Scenario reductions: shapes, exact formulas, determinant equivalence."""

import numpy as np
import pytest

from rosenmu import (
    BlockStructure,
    InputError,
    RosenbrockSystem,
    Scenario,
    all_scenarios,
    assemble_perturbation,
    backward_error,
    evaluate,
    perturbation_norm,
    sigma_max,
    sigma_min,
)
from rosenmu.reduction import labeled_blocks
from rosenmu.rosenbrock import Scan

from conftest import cgauss, random_blocks, random_structure, random_system, scan_reduce


def _selector_m(sys_, lam, scenario):
    """M = R S^{-1} L from the dense 0/1 factors, with w I at the P block of L.

    Column block i of L places the rows of Delta_i among the rows of S and
    row block i of R picks its columns.  The P block perturbs
    sum_j lam^j Delta A_j, the ball of radius w = sum_j |lam|^j, so L
    carries w there.
    """
    r, n, d = sys_.r, sys_.n, sys_.d
    s_inv = Scan(sys_, [lam]).inverse[0]
    top = np.vstack([np.eye(r), np.zeros((n, r))])
    bottom = np.vstack([np.zeros((r, n)), np.eye(n)])
    w = sum(abs(lam) ** j for j in range(d + 1))
    left = np.hstack(
        [top if lab in "AB" else bottom * (w if lab == "P" else 1) for lab in scenario.name]
    )
    right = np.vstack([top.T if lab in "AC" else bottom.T for lab in scenario.name])
    return right @ s_inv @ left


def test_gather_matches_selector_form(rng):
    for d in (0, 1, 2):
        for r, n in ((1, 1), (2, 3), (3, 2)):
            sys_ = random_system(rng, r=r, n=n, d=d)
            lams = [complex(rng.standard_normal()), complex(*rng.standard_normal(2))]
            for scenario in all_scenarios():
                ms = scan_reduce(sys_, lams, scenario)[0]
                for lam, m in zip(lams, ms):
                    ref = _selector_m(sys_, lam, scenario)
                    name = f"{scenario.name} d={d} r={r} n={n} lam={lam}"
                    assert np.array_equal(m.real, ref.real), name
                    assert np.array_equal(m.imag, ref.imag), name
                    assert m.flags.c_contiguous, name


def test_scenario_parsing():
    s = Scenario.from_string("bc")
    assert s.name == "BC"
    assert not s.perturb_p
    assert Scenario("CB") == s
    with pytest.raises(InputError):
        Scenario.from_string("")
    with pytest.raises(InputError):
        Scenario.from_string("AXB")
    with pytest.raises(InputError):
        Scenario.from_string("AA")
    with pytest.raises(InputError):
        Scenario("")


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
    m, structure, labels = scan_reduce(sys_, [0.3], Scenario.from_string("ABCP"))
    assert m.shape == (1, 4, 4)  # 2r + 2n = 4 whatever d is
    assert structure.blocks == ((1, 1),) * 4
    assert labels == ("A", "B", "C", "P")


def _expected_mu_shape(scenario, r, n):
    """Structure row/column totals implied by the perturbed block shapes."""
    p = k = 0
    if "A" in scenario.name:
        p += r
        k += r
    if "B" in scenario.name:
        p += r
        k += n
    if "C" in scenario.name:
        p += n
        k += r
    if scenario.perturb_p:
        p += n
        k += n
    return k, p


def test_dimension_audit_all_scenarios(rng):
    for _ in range(6):
        sys_ = random_system(rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for scenario in all_scenarios():
            m, structure, labels = scan_reduce(sys_, [lam], scenario)
            k, p = _expected_mu_shape(scenario, sys_.r, sys_.n)
            assert m.shape == (1, k, p), scenario.name
            assert structure.k_total == k
            assert structure.p_total == p
            assert len(labels) == structure.n_blocks


def test_bc_matches_printed_factors(rng):
    sys_ = random_system(rng, r=2, n=3, d=1)
    lam = 0.4 - 0.2j
    m, structure, _ = scan_reduce(sys_, [lam], Scenario.from_string("BC"))
    s_inv = np.linalg.inv(evaluate(sys_, lam))
    selector = np.block(
        [[np.zeros((3, 2)), np.eye(3)], [np.eye(2), np.zeros((2, 3))]]
    )
    np.testing.assert_allclose(m[0], selector @ s_inv, atol=1e-12)
    assert structure.blocks == ((2, 3), (3, 2))


def test_exact_formula_diagonal():
    sys_ = RosenbrockSystem([[2]], [[0]], [[0]], ([[1]],))
    m, structure, _ = scan_reduce(sys_, [0.0], Scenario.from_string("A"))
    assert structure.blocks == ((1, 1),)
    np.testing.assert_allclose(m[0], [[0.5]])
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
    zero = assemble_perturbation(sys_.r, sys_.n, 0.1, {"A": np.zeros((2, 2)), "B": np.zeros((2, 2))})
    np.testing.assert_array_equal(zero, 0)
    e = cgauss(rng, 2, 2)
    ds = assemble_perturbation(sys_.r, sys_.n, 0.1, {"A": e})
    np.testing.assert_array_equal(ds[:2, :2], e)
    np.testing.assert_array_equal(ds[2:, :], 0)
    np.testing.assert_array_equal(ds[:, 2:], 0)


def test_embed_norm_is_max_block_norm(rng):
    sys_ = random_system(rng, r=2, n=2, d=1)
    structure = scan_reduce(sys_, [0.3], Scenario.from_string("ABCP"))[1]
    blocks = random_blocks(rng, structure)
    assert perturbation_norm(blocks) == pytest.approx(
        max(sigma_max(b) for b in blocks)
    )


def test_embed_shape_mismatch(rng):
    sys_ = random_system(rng, r=2, n=2, d=0)
    with pytest.raises(InputError):
        assemble_perturbation(sys_.r, sys_.n, 0.1, {"A": np.zeros((2, 2)), "B": np.zeros((3, 3))})


def test_assemble_refuses_reduced_p_label(rng):
    # the reduced P block X stands for w X; placed raw at power 0 it would give X
    lam, d = 0.7 + 0.2j, 2
    x = cgauss(rng, 2, 2)
    with pytest.raises(InputError, match="labeled_blocks"):
        assemble_perturbation(1, 2, lam, {"P": x})
    delta_s = assemble_perturbation(1, 2, lam, labeled_blocks(("P",), [x], lam, d))
    w = sum(abs(lam) ** j for j in range(d + 1))
    assert np.allclose(delta_s[1:, 1:], w * x, rtol=1e-14, atol=0)
    assert not delta_s[:1].any() and not delta_s[:, :1].any()


def test_places_tile_the_block_diagonal(rng):
    for _ in range(30):
        structure = random_structure(rng, n_blocks=int(rng.integers(1, 6)), max_dim=4)
        assert structure.places is structure.places
        owner = np.full((structure.p_total, structure.k_total), -1)
        for i, ((sp, sk), shape) in enumerate(zip(structure.places, structure.blocks)):
            assert owner[sp, sk].shape == shape
            assert (owner[sp, sk] == -1).all()
            owner[sp, sk] = i
        # block i owns exactly the entries whose row and column both belong to block i
        ek, ep = structure.indicators
        on_diagonal = (ep.T @ ek) == 1.0
        row_block = np.arange(structure.n_blocks) @ ep
        np.testing.assert_array_equal(owner, np.where(on_diagonal, row_block[:, None], -1))
        blocks = random_blocks(rng, structure)
        delta = structure.assemble(blocks)
        for (sp, sk), blk in zip(structure.places, blocks):
            assert delta[sp, sk].tobytes() == blk.tobytes()
        assert not delta[~on_diagonal].any()


@pytest.mark.parametrize(
    "blocks, message",
    [
        ((), "block structure must be nonempty"),
        (((1, 2), (0, 1)), r"block 1: shapes must be >= 1, got \(0, 1\)"),
        (((2, -1),), r"block 0: shapes must be >= 1, got \(2, -1\)"),
    ],
)
def test_block_structure_refuses_empty_or_zero_shapes(blocks, message):
    with pytest.raises(InputError, match=message):
        BlockStructure(blocks)


def test_check_blocks_refuses_wrong_count_or_shape():
    structure = BlockStructure(((1, 2), (2, 1)))
    with pytest.raises(InputError, match="expected 2 blocks, got 1"):
        structure.assemble([np.zeros((1, 2))])
    with pytest.raises(InputError, match=r"block 1: expected 2x1, got \(1, 2\)"):
        structure.assemble([np.zeros((1, 2)), np.zeros((1, 2))])


def test_unknown_block_label_refused():
    with pytest.raises(InputError, match="unknown block label 'Q'"):
        assemble_perturbation(1, 1, 0.5, {"Q": [[1.0]]})
    with pytest.raises(InputError, match="unknown block label 'Ax'"):
        assemble_perturbation(1, 1, 0.5, {"Ax": [[1.0]]})


def _det_equivalence_check(sys_, lam, scenario, rng):
    ms, structure, labels = scan_reduce(sys_, [lam], scenario)
    blocks = random_blocks(rng, structure)
    delta = structure.assemble(blocks)
    ev = np.linalg.eigvals(delta @ ms[0])
    lam_e = ev[np.argmax(np.abs(ev))]
    if abs(lam_e) < 1e-9:
        return
    labeled = labeled_blocks(labels, [b / lam_e for b in blocks], lam, sys_.d)
    delta_s = assemble_perturbation(sys_.r, sys_.n, lam, labeled)
    s_mat = evaluate(sys_, lam)
    assert sigma_min(s_mat - delta_s) <= 1e-8 * sigma_max(s_mat), scenario.name


def test_determinant_equivalence_every_scenario(rng):
    for _ in range(8):
        sys_ = random_system(rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for scenario in all_scenarios():
            _det_equivalence_check(sys_, lam, scenario, rng)

