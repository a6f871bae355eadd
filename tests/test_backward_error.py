"""End-to-end backward errors: exact cases, sweeps, monotonicity."""

import importlib
import json
import warnings
from collections import Counter

import numpy as np
import pytest

from rosenmu import (
    NumericError,
    RosenbrockSystem,
    Scenario,
    all_scenarios,
    backward_error,
    evaluate,
    mu_bracket,
    scenario_sweep,
    sigma_max,
    system_to_json,
)
from rosenmu.backward_error import scan_backward_errors
from rosenmu.cli import main
from rosenmu.instances import fluid_solid_instance
from rosenmu.rosenbrock import Scan

from conftest import random_system, scan_reduce


@pytest.fixture
def diag_sys():
    return RosenbrockSystem([[2]], [[0]], [[0]], ([[1]],))


def test_diagonal_scenario_a(diag_sys):
    res = backward_error(diag_sys, 0.0, Scenario.from_string("A"))
    assert res.eta_lower == res.eta_upper == pytest.approx(2.0)
    np.testing.assert_allclose(res.certificate, [[2, 0], [0, 0]], atol=1e-14)
    assert res.residual <= 1e-14
    assert res.exactness == "exact_formula"


def test_eigenvalue_short_circuit(diag_sys):
    for scenario in ("A", "BC", "ABCP"):
        res = backward_error(diag_sys, 2.0, Scenario.from_string(scenario))
        assert res.eta_lower == res.eta_upper == 0.0
        assert res.exactness == "exact_eigenvalue"
        np.testing.assert_allclose(res.certificate, 0)


def test_infinite_error_flagged():
    a0 = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    sys_ = RosenbrockSystem([[1.3]], [[0, 0, 1]], [[1], [0], [0]], (a0,))
    res = backward_error(sys_, 0.8, Scenario.from_string("A"))
    assert res.eta_upper == np.inf
    assert res.eta_lower == np.inf
    assert res.certificate is None


def test_certificate_invariants(rng):
    for _ in range(6):
        sys_ = random_system(rng, r=2, n=2, d=1)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for name in ("B", "AP", "BCP", "ABCP"):
            res = backward_error(sys_, lam, Scenario.from_string(name))
            assert res.eta_lower <= res.eta_upper
            if res.certificate is None:
                continue
            s_mat = evaluate(sys_, lam)
            assert res.residual <= 1e-8 * sigma_max(s_mat)
            assert res.certificate_norm == pytest.approx(
                res.eta_upper, rel=1e-9
            )


def test_exact_vs_mu_consistency(rng):
    # Pushing the 1-block reduction of scenario A through the generic mu
    # pipeline must reproduce the closed formula.
    for _ in range(5):
        sys_ = random_system(rng, r=2, n=2, d=0)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        eta = backward_error(sys_, lam, Scenario.from_string("A")).eta_upper
        if not np.isfinite(eta):
            continue
        ms, structure, _ = scan_reduce(sys_, [lam], Scenario.from_string("A"))
        res = mu_bracket(ms[0], structure)
        assert 1.0 / res.upper == pytest.approx(eta, rel=1e-9)
        assert 1.0 / res.lower == pytest.approx(eta, rel=1e-9)


def test_sweep_at_eigenvalue(diag_sys):
    rows = scenario_sweep(diag_sys, 2.0)
    assert len(rows) == 15
    assert all(r.eta_upper == 0.0 and r.eta_lower == 0.0 for r in rows)


def test_sweep_ordering_and_monotonicity(rng):
    sys_ = random_system(rng, r=2, n=2, d=1)
    lam = 0.3 + 0.7j
    rows = scenario_sweep(sys_, lam)
    names = [r.scenario.name for r in rows]
    assert names[:4] == ["A", "B", "C", "P"]
    assert names[-1] == "ABCP"
    by_name = {r.scenario.name: r for r in rows}
    for small in rows:
        for big in rows:
            if set(small.scenario.name) <= set(big.scenario.name) and big is not small:
                assert big.eta_upper <= small.eta_upper + 1e-8
                assert big.eta_lower <= small.eta_lower + 1e-8
    # the diagonal example of the sweep contract
    assert by_name["AB"].eta_upper <= by_name["A"].eta_upper + 1e-8
    assert all(
        by_name["ABCP"].eta_upper <= r.eta_upper + 1e-8 for r in rows
    )


def test_full_scenario_finiteness_cap(rng):
    for _ in range(5):
        sys_ = random_system(rng, r=2, n=2, d=1)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        res = backward_error(sys_, lam, Scenario.from_string("ABCP"))
        cap = max(
            sigma_max(sys_.a),
            sigma_max(sys_.b),
            sigma_max(sys_.c),
            *(sigma_max(ak) for ak in sys_.poly_coeffs),
        )
        assert res.eta_upper <= cap + 1e-8


def test_diagonal_eta_is_distance_to_spectrum(rng):
    for _ in range(5):
        diag = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sys_ = RosenbrockSystem(
            np.diag(diag), np.zeros((3, 2)), np.zeros((2, 3)), (np.eye(2),)
        )
        lam = complex(rng.standard_normal(), rng.standard_normal())
        res = backward_error(sys_, lam, Scenario.from_string("A"))
        assert res.eta_upper == pytest.approx(np.min(np.abs(diag - lam)), rel=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.7, 1.7 + 0.2j])
def test_scenario_p_is_the_weighted_closed_form(tmp_path, capsys, d, lam):
    # A_0..A_d sit at one place in S(lambda), so perturbing them is one block
    # of radius w = sum_j |lambda|^j: eta = 1 / (w sigma_max(S^{-1}[P, P]))
    sys_ = random_system(np.random.default_rng(d), r=2, n=3, d=d)
    res = backward_error(sys_, lam, Scenario.from_string("P"))
    w = sum(abs(lam) ** j for j in range(d + 1))
    want = 1.0 / (w * sigma_max(Scan(sys_, [lam]).inverse[0, 2:, 2:]))
    assert res.exactness == "exact_formula"
    assert res.eta_lower == res.eta_upper == pytest.approx(want, rel=1e-12)

    system, cert = tmp_path / "system.json", tmp_path / "cert.json"
    system.write_text(json.dumps(system_to_json(sys_)))
    lam_arg = f"{complex(lam).real!r},{complex(lam).imag!r}"
    argv = ["backward-error", "--scenario", "P", "--lambda", lam_arg, "--output", str(cert)]
    assert main(argv + [str(system)]) == 0
    assert list(json.loads(cert.read_text())["delta_blocks"]) == [f"A{j}" for j in range(d + 1)]
    assert main(["verify", str(system), str(cert)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_scenario_p_infinite_at_lambda_equal_a():
    # S(A) = [[0, B], [C, P(A)]] has det -BC whatever P(A) is: the P window
    # of S^{-1} vanishes and no P perturbation makes A an eigenvalue
    sys_ = RosenbrockSystem([[0.8]], [[1.5]], [[-0.5]], ([[1.0]], [[0.3]], [[-2.0]], [[0.5]]))
    res = backward_error(sys_, 0.8, Scenario.from_string("P"))
    assert res.exactness == "exact_formula"
    assert res.eta_lower == res.eta_upper == np.inf
    assert sigma_max(res.infinite_witness) <= 1e-14


def test_one_block_eta_scales_with_the_system():
    # the zero test of a one-block M is relative to its bound w / sigma_min(S):
    # scaling S by 1e10 scales each closed-form eta by 1e10, down to where
    # sigma_max(M) is far below any absolute floor
    def etas(s):
        sys_ = RosenbrockSystem([[2 * s]], [[s]], [[s]], ([[s]], [[s]]))
        return [backward_error(sys_, 0.5, Scenario.from_string(name)) for name in "ABP"]

    for small, large in zip(etas(1e20), etas(1e30)):
        assert large.exactness == small.exactness == "exact_formula"
        assert large.eta_upper == pytest.approx(1e10 * small.eta_upper, rel=1e-12)
        assert large.eta_lower == large.eta_upper


def test_one_block_certificate_finite_where_its_norm_squared_underflows():
    # at lambda = 1e160 the A window of S^{-1} is about 1e-160: eta = 1e160
    # is finite, and |H w|^2 = 1e-320 would overflow the certificate
    sys_ = RosenbrockSystem([[2]], [[1]], [[1]], ([[1]], [[0]], [[1e-160]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = backward_error(sys_, 1e160, Scenario.from_string("A"))
    assert res.exactness == "exact_formula"
    assert res.eta_upper == pytest.approx(1e160, rel=1e-12)
    assert res.certificate_norm == res.eta_upper
    assert np.all(np.isfinite(res.certificate))


def test_fluid_solid_sweep_bounds_ordered():
    # the sweep of the pinned CLI report: mu brackets that close to roundoff
    # are reported in order, and so are the eta brackets
    rows = scan_backward_errors(fluid_solid_instance(), [0.5, 1.5 + 0.25j], all_scenarios())
    bracketed = [res for row in rows for res in row if res.mu is not None]
    assert len(bracketed) == 22
    for res in bracketed:
        assert res.mu.lower <= res.mu.upper, (res.lam, res.scenario.name)
    assert all(res.eta_lower <= res.eta_upper for row in rows for res in row)


def test_sweep_reduces_each_scenario_once(monkeypatch):
    # one S(lambda) serves all 15 scenarios; each scenario is reduced once
    calls = Counter()
    for module_name, name in (("rosenmu.rosenbrock", "_assemble"), ("rosenmu.backward_error", "reduce")):
        # rosenmu.backward_error is the function; its module holds the globals
        module = importlib.import_module(module_name)
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    scenario_sweep(fluid_solid_instance(), 0.7)
    assert calls == {"_assemble": 1, "reduce": 15}


def _hex(x):
    return None if x is None else float(x).hex()


def _bytes(a):
    return None if a is None else (a.shape, a.dtype.str, a.tobytes())


def _assert_same_row(row, alone):
    name = row.scenario.name
    assert (row.scenario, row.exactness, row.possibly_infinite) == (
        alone.scenario, alone.exactness, alone.possibly_infinite
    ), name
    assert (_hex(row.lam.real), _hex(row.lam.imag)) == (_hex(alone.lam.real), _hex(alone.lam.imag))
    assert (row.mu is None) == (alone.mu is None), name
    for field in ("eta_lower", "eta_upper", "certificate_norm", "residual"):
        assert _hex(getattr(row, field)) == _hex(getattr(alone, field)), (name, field)
    if row.mu is not None:
        assert (_hex(row.mu.lower), _hex(row.mu.upper)) == (
            _hex(alone.mu.lower), _hex(alone.mu.upper)
        ), name
    for field in ("certificate", "infinite_witness"):
        assert _bytes(getattr(row, field)) == _bytes(getattr(alone, field)), (name, field)
    assert (row.delta_blocks is None) == (alone.delta_blocks is None), name
    if row.delta_blocks is not None:
        assert row.delta_blocks.keys() == alone.delta_blocks.keys(), name
        for label, blk in row.delta_blocks.items():
            assert _bytes(blk) == _bytes(alone.delta_blocks[label]), (name, label)


def test_sweep_rows_match_standalone_backward_error(diag_sys):
    # the shared point changes no bit of any row
    sys_ = fluid_solid_instance()
    for row in scenario_sweep(sys_, 0.7):
        _assert_same_row(row, backward_error(sys_, 0.7, row.scenario))
    rows = scenario_sweep(diag_sys, 2.0)
    assert all(r.exactness == "exact_eigenvalue" for r in rows)
    for row in rows:
        _assert_same_row(row, backward_error(diag_sys, 2.0, row.scenario))


def _scan_systems(rng):
    """Two complex and one real system, r and n in 1-8, d in 0-3; the real one has B = C = 0."""
    out = []
    for real in (False, False, True):
        r, n = (int(v) for v in rng.integers(1, 9, size=2))
        d = int(rng.integers(0, 4))

        def draw(rows, cols):
            x = rng.standard_normal((rows, cols))
            return x if real else x + 1j * rng.standard_normal((rows, cols))

        b, c = (np.zeros((r, n)), np.zeros((n, r))) if real else (draw(r, n), draw(n, r))
        out.append(RosenbrockSystem(draw(r, r), b, c, tuple(draw(n, n) for _ in range(d + 1))))
    return out


@pytest.mark.parametrize("name", ["A", "B", "C", "P", "BC", "ABCP"])
def test_scan_rows_match_one_point_calls(rng, diag_sys, name):
    # a scan of K points gives the K one-point results bit for bit: the
    # eigenvalue 2 of diag_sys, the infinite witnesses of B = C = 0, and
    # lambda = 0 and -0.0 are among the points
    scenario = Scenario.from_string(name)
    scans = [(diag_sys, [2.0, complex(-0.0, 0.0)])]
    for k, sys_ in zip((25, 2, 2), _scan_systems(rng)):
        lams = [complex(*rng.uniform(-2.0, 2.0, size=2)) for _ in range(k - 2)]
        scans.append((sys_, lams + [0j, complex(-0.0, 0.0)] if k == 25 else lams + [0j]))
    for sys_, lams in scans:
        rows = scan_backward_errors(sys_, lams, [scenario])
        assert len(rows) == len(lams)
        for lam, (row,) in zip(lams, rows):
            _assert_same_row(row, backward_error(sys_, lam, scenario))


def test_multi_lambda_sweep_rows_match_one_point_sweeps(rng):
    sys_ = random_system(rng, r=2, n=2, d=1)
    lams = [complex(0.7, -0.3), complex(-0.0, 0.0)]
    for lam, rows in zip(lams, scan_backward_errors(sys_, lams, all_scenarios())):
        for row, alone in zip(rows, scenario_sweep(sys_, lam), strict=True):
            _assert_same_row(row, alone)


def _failing_mu_bracket(monkeypatch, fails):
    """Replace the pipeline's mu_bracket by one that raises at the calls ``fails`` picks.

    ``fails(n_blocks, call)`` gets the block count and the 1-based count of
    earlier calls with that many blocks, and returns the message to raise or None.
    """
    module = importlib.import_module("rosenmu.backward_error")
    calls = Counter()

    def bracket(m, structure):
        calls[structure.n_blocks] += 1
        message = fails(structure.n_blocks, calls[structure.n_blocks])
        if message is not None:
            raise NumericError(message)
        return mu_bracket(m, structure)

    monkeypatch.setattr(module, "mu_bracket", bracket)


def test_scan_failure_at_a_multi_block_point_exits_3(rng, tmp_path, capsys, monkeypatch):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(random_system(rng, r=2, n=2, d=1))))
    _failing_mu_bracket(monkeypatch, lambda nb, call: "planted at lambda_1" if call == 2 else None)
    argv = ["backward-error", "--scenario", "BC"]
    for lam in ("0.5", "0.3,-0.2", "-0.7"):
        argv += ["--lambda", lam]
    assert main(argv + [str(path)]) == 3
    assert capsys.readouterr().err == "numeric failure: planted at lambda_1\n"


def test_sweep_raises_the_failure_of_the_earliest_lambda(rng, monkeypatch):
    # AB, the first two-block scenario, fails at lambda_1 before ABCP fails at lambda_0
    def fails(n_blocks, call):
        if n_blocks == 2 and call == 2:
            return "AB at lambda_1"
        if n_blocks == 4:
            return "ABCP at lambda_0"
        return None

    _failing_mu_bracket(monkeypatch, fails)
    sys_ = random_system(rng, r=2, n=2, d=1)
    with pytest.raises(NumericError, match="^ABCP at lambda_0$"):
        scan_backward_errors(sys_, [0.5, 0.3 - 0.2j], all_scenarios())
