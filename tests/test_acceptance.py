"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criterion 3 bundles seven property suites (a)-(g),
each on at least 50 seeded random instances, under a shared 10-minute
budget checked at the end of the module.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from rosenmu import (
    BlockStructure,
    RosenbrockSystem,
    Scenario,
    all_scenarios,
    assemble_perturbation,
    backward_error,
    brute_force_mu,
    evaluate,
    is_eigenvalue,
    mu_bracket,
    scenario_sweep,
    sigma_max,
    sigma_min,
    system_to_json,
)
from rosenmu.cli import main as cli_main
from rosenmu.instances import fluid_solid_instance, golden_two_block_matrix
from rosenmu.mu import _branch, _evaluate
from rosenmu.reduction import labeled_blocks

from conftest import (
    GOLDEN_COMPETITOR_UPPER,
    GOLDEN_MU,
    GOLDEN_STRUCTURE,
    cgauss,
    random_blocks,
    random_structure,
    random_system,
    scan_reduce,
)

_ELAPSED: dict[str, float] = {}


@contextmanager
def criterion(label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    _ELAPSED[label] = time.perf_counter() - start
    print(f"ACCEPTANCE {label}: PASS ({_ELAPSED[label]:.1f}s)")


def test_criterion_1_golden_two_block_mu():
    with criterion("1 golden 5x5 two-block mu"):
        start = time.perf_counter()
        res = mu_bracket(golden_two_block_matrix(), GOLDEN_STRUCTURE)
        elapsed = time.perf_counter() - start
        assert abs(res.upper - GOLDEN_MU) <= 1e-4
        assert abs(res.upper - res.lower) <= 1e-6 * res.upper
        assert res.upper < GOLDEN_COMPETITOR_UPPER
        assert res.lower < GOLDEN_COMPETITOR_UPPER
        assert elapsed < 5.0


def test_criterion_2_fluid_solid_instance():
    with criterion("2 fluid-solid full-scenario pipeline"):
        sys_ = fluid_solid_instance()
        assert (sys_.r, sys_.n, sys_.d) == (3, 5, 1)
        lam = 0.7
        assert not is_eigenvalue(sys_, lam)
        rng = np.random.default_rng(99)

        res = backward_error(sys_, lam, Scenario.from_string("ABCP"))
        s_mat = evaluate(sys_, lam)
        assert res.residual <= 1e-8 * sigma_max(s_mat)
        gap = (res.mu.upper - res.mu.lower) / res.mu.upper
        print(
            f"  fluid-solid: eta in [{res.eta_lower:.9g}, {res.eta_upper:.9g}], "
            f"mu gap {gap:.2e}, flag {res.mu.exactness}"
        )
        assert gap <= 0.01
        assert res.mu.exactness in (
            "exact_simple_sigma",
            "bracket_only",
        )

        # (a) determinant equivalence for every scenario on this instance
        for scenario in all_scenarios():
            _det_equivalence(sys_, lam, scenario, rng)

        # (b) gauge invariance and homogeneity on the full-scenario reduction
        ms, structure, _ = scan_reduce(sys_, [lam], Scenario.from_string("ABCP"))
        m = ms[0]
        x = rng.uniform(-2, 2, structure.n_blocks)
        c_shift = rng.uniform(-5, 5)
        v1 = _evaluate(m, structure, x)[1][0]
        v2 = _evaluate(m, structure, x + c_shift)[1][0]
        assert abs(v1 - v2) <= 1e-9 * v1
        c = complex(rng.standard_normal(), rng.standard_normal())
        scaled = mu_bracket(c * m, structure)
        assert abs(scaled.upper - abs(c) * res.mu.upper) <= 1e-9 * scaled.upper
        assert abs(scaled.lower - abs(c) * res.mu.lower) <= 1e-9 * max(
            1.0, scaled.lower
        )

        # (c) analytic gradient where simple
        _, g, mult = _branch(_evaluate(m, structure, x), structure)
        if mult == 1:
            fd = _central_diff(m, structure, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

        # (d) bracket ordering
        assert res.mu.lower <= res.mu.upper + 1e-9 * max(1.0, res.mu.upper)

        # (f) monotonicity across the sweep
        rows = scenario_sweep(sys_, lam)
        _assert_monotone(rows)
        for row in rows:
            if row.residual is not None:
                assert row.residual <= 1e-8 * sigma_max(s_mat)

        # (g) oracle side of the sandwich
        est = brute_force_mu(m, structure, budget=2000, seed=5)
        assert est.mu_sampled_lower <= res.mu.upper + 1e-8


def _central_diff(m, structure, x, h=1e-6):
    out = np.zeros(structure.n_blocks)
    for i in range(structure.n_blocks):
        e = np.zeros(structure.n_blocks)
        e[i] = h
        out[i] = (
            _evaluate(m, structure, x + e)[1][0] - _evaluate(m, structure, x - e)[1][0]
        ) / (2 * h)
    return out


def _det_equivalence(sys_, lam, scenario, rng):
    ms, structure, labels = scan_reduce(sys_, [lam], scenario)
    blocks = random_blocks(rng, structure)
    ev = np.linalg.eigvals(structure.assemble(blocks) @ ms[0])
    lam_e = ev[np.argmax(np.abs(ev))]
    if abs(lam_e) < 1e-9:
        return
    labeled = labeled_blocks(labels, [b / lam_e for b in blocks], lam, sys_.d)
    delta_s = assemble_perturbation(sys_.r, sys_.n, lam, labeled)
    s_mat = evaluate(sys_, lam)
    assert sigma_min(s_mat - delta_s) <= 1e-8 * sigma_max(s_mat), scenario.name


def _assert_monotone(rows):
    for small in rows:
        for big in rows:
            if big is small or not set(small.scenario.name) <= set(big.scenario.name):
                continue
            assert big.eta_upper <= small.eta_upper + 1e-8, (
                small.scenario.name,
                big.scenario.name,
            )
            assert big.eta_lower <= small.eta_lower + 1e-8, (
                small.scenario.name,
                big.scenario.name,
            )


def test_criterion_3a_determinant_equivalence():
    with criterion("3a determinant equivalence, all scenarios"):
        rng = np.random.default_rng(301)
        for _ in range(50):
            sys_ = random_system(rng)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            if is_eigenvalue(sys_, lam):
                continue
            for scenario in all_scenarios():
                _det_equivalence(sys_, lam, scenario, rng)


def test_criterion_3b_gauge_and_homogeneity():
    with criterion("3b gauge invariance and homogeneity"):
        rng = np.random.default_rng(302)
        for _ in range(50):
            structure = random_structure(rng, n_blocks=int(rng.integers(1, 5)))
            m = cgauss(rng, structure.k_total, structure.p_total)
            x = rng.uniform(-2, 2, structure.n_blocks)
            shift = rng.uniform(-5, 5)
            v1 = _evaluate(m, structure, x)[1][0]
            v2 = _evaluate(m, structure, x + shift)[1][0]
            assert abs(v1 - v2) <= 1e-9 * max(1.0, v1)
            c = complex(rng.standard_normal(), rng.standard_normal())
            if abs(c) < 0.1:
                c = 1.0 + 1.0j
            base = mu_bracket(m, structure)
            scaled = mu_bracket(c * m, structure)
            assert abs(scaled.upper - abs(c) * base.upper) <= 1e-9 * max(
                1.0, scaled.upper
            )
            assert abs(scaled.lower - abs(c) * base.lower) <= 1e-9 * max(
                1.0, scaled.lower
            )


def test_criterion_3c_gradient_vs_central_differences():
    with criterion("3c analytic gradient vs central differences"):
        rng = np.random.default_rng(303)
        done = 0
        while done < 50:
            structure = random_structure(rng, n_blocks=int(rng.integers(2, 5)))
            m = cgauss(rng, structure.k_total, structure.p_total)
            x = rng.uniform(-1.5, 1.5, structure.n_blocks)
            _, g, mult = _branch(_evaluate(m, structure, x), structure)
            if mult > 1:
                continue
            fd = _central_diff(m, structure, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
            done += 1


def test_criterion_3d_bracket_ordering():
    with criterion("3d bracket ordering"):
        rng = np.random.default_rng(304)
        for _ in range(50):
            structure = random_structure(rng, n_blocks=int(rng.integers(1, 6)))
            m = cgauss(rng, structure.k_total, structure.p_total)
            res = mu_bracket(m, structure)
            assert res.lower <= res.upper + 1e-9 * max(1.0, res.upper)


def test_criterion_3e_exactness_small_block_counts():
    with criterion("3e exactness for n <= 3 blocks"):
        rng = np.random.default_rng(305)
        for _ in range(50):
            structure = random_structure(rng, n_blocks=int(rng.integers(2, 4)))
            m = cgauss(rng, structure.k_total, structure.p_total)
            res = mu_bracket(m, structure)
            assert res.upper - res.lower <= 1e-6 * max(1.0, res.upper)


def test_criterion_3f_scenario_monotonicity():
    with criterion("3f scenario monotonicity of eta brackets"):
        rng = np.random.default_rng(306)
        for _ in range(50):
            sys_ = random_system(
                rng, r=int(rng.integers(1, 3)), n=int(rng.integers(1, 3)),
                d=int(rng.integers(0, 2)),
            )
            lam = complex(rng.standard_normal(), rng.standard_normal())
            if is_eigenvalue(sys_, lam):
                continue
            _assert_monotone(scenario_sweep(sys_, lam))


def test_criterion_3g_oracle_sandwich():
    with criterion("3g oracle sandwich"):
        rng = np.random.default_rng(307)
        for trial in range(50):
            while True:
                structure = random_structure(rng, n_blocks=int(rng.integers(1, 4)))
                if structure.p_total + structure.k_total <= 8:
                    break
            m = cgauss(rng, structure.k_total, structure.p_total)
            res = mu_bracket(m, structure)
            est = brute_force_mu(m, structure, budget=5000, seed=trial)
            assert est.mu_sampled_lower <= res.upper + 1e-8
            assert est.mu_sampled_lower >= 0.98 * res.lower


def test_criterion_3_runtime_budget():
    with criterion("3 runtime budget (< 10 min)"):
        total = sum(v for k, v in _ELAPSED.items() if k.startswith("3"))
        assert total < 600.0, f"property suites took {total:.1f}s"


def test_criterion_4_closed_forms():
    with criterion("4 closed-form checks"):
        rng = np.random.default_rng(400)
        # diagonal systems: eta(lambda, A) = distance of lambda to the diagonal
        done = 0
        while done < 20:
            nd = int(rng.integers(1, 5))
            diag = rng.standard_normal(nd) + 1j * rng.standard_normal(nd)
            sys_ = RosenbrockSystem(
                np.diag(diag),
                np.zeros((nd, 2)),
                np.zeros((2, nd)),
                (np.eye(2),),
            )
            lam = complex(rng.standard_normal(), rng.standard_normal())
            if is_eigenvalue(sys_, lam):
                continue
            res = backward_error(sys_, lam, Scenario.from_string("A"))
            want = float(np.min(np.abs(diag - lam)))
            assert abs(res.eta_upper - want) <= 1e-10 * max(1.0, want)
            assert abs(res.eta_lower - want) <= 1e-10 * max(1.0, want)
            done += 1

        # the sqrt(6) two-block mu-value
        res = mu_bracket(
            np.array([[0, 2], [3, 0]], dtype=complex),
            BlockStructure(((1, 1), (1, 1))),
        )
        assert abs(res.upper - np.sqrt(6)) <= 1e-8
        assert abs(res.lower - np.sqrt(6)) <= 1e-8

        # the 4x4 system whose A-block error is infinite for every lambda
        a0 = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
        sys_inf = RosenbrockSystem(
            [[1.5 - 0.4j]], [[0, 0, 1]], [[1], [0], [0]], (a0,)
        )
        for _ in range(10):
            lam = complex(rng.standard_normal(), rng.standard_normal())
            res = backward_error(sys_inf, lam, Scenario.from_string("A"))
            assert res.eta_upper == np.inf
            assert res.eta_lower == np.inf


def test_criterion_5_certificate_round_trip(tmp_path):
    with criterion("5 certificate round-trip through the CLI"):
        rng = np.random.default_rng(500)
        scenarios = all_scenarios()
        for trial in range(100):
            sys_ = random_system(
                rng, r=int(rng.integers(1, 3)), n=int(rng.integers(1, 3)),
                d=int(rng.integers(0, 2)),
            )
            lam = complex(rng.standard_normal(), rng.standard_normal())
            scenario = scenarios[trial % len(scenarios)]
            sys_path = tmp_path / f"sys_{trial}.json"
            sys_path.write_text(json.dumps(system_to_json(sys_)))
            cert_path = tmp_path / f"cert_{trial}.json"
            rc = cli_main(
                [
                    "backward-error",
                    "--lambda",
                    f"{lam.real},{lam.imag}",
                    "--scenario",
                    scenario.name,
                    str(sys_path),
                    "--output",
                    str(cert_path),
                ]
            )
            assert rc == 0
            cert = json.loads(cert_path.read_text())
            if cert["claimed_eta"] == "inf":
                continue  # nothing realizable to verify
            rc = cli_main(["verify", str(sys_path), str(cert_path)])
            assert rc == 0, f"trial {trial} scenario {scenario.name}"
            s_mat = evaluate(sys_, lam)
            assert cert["residual"] <= 1e-8 * sigma_max(s_mat)
            claimed = float(cert["claimed_eta"])
            if cert["delta_blocks"]:
                norms = [
                    sigma_max(np.array([[complex(re, im) for re, im in row] for row in blk]))
                    for blk in cert["delta_blocks"].values()
                ]
                assert abs(max(norms) - claimed) <= 1e-9 * max(1.0, claimed)
