"""The public names, and the names the benchmark harness looks up."""

import inspect
import os

import numpy as np

import rosenmu

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_public_names_pinned():
    # a name leaves (or joins) the API only on purpose
    assert sorted(rosenmu.__all__) == [
        "BackwardErrorResult",
        "BlockStructure",
        "InputError",
        "MuResult",
        "NumericError",
        "OracleEstimate",
        "PartialIsometrySet",
        "RosenbrockSystem",
        "Scenario",
        "all_scenarios",
        "assemble_perturbation",
        "backward_error",
        "brute_force_backward_error",
        "brute_force_mu",
        "certificate_to_delta",
        "evaluate",
        "is_eigenvalue",
        "matrix_from_json",
        "matrix_to_json",
        "mu_bracket",
        "mu_lower",
        "mu_upper",
        "perturbation_norm",
        "reduce",
        "scenario_sweep",
        "sigma_max",
        "sigma_min",
        "system_from_json",
        "system_to_json",
        "unstructured_backward_error",
    ]


def test_oracles_and_certificate_conversion_take_no_test_only_options():
    # the refinement's size is a module constant, and certificate_to_delta
    # takes its scale from M
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(rosenmu.brute_force_mu) == ["m", "structure", "budget", "seed"]
    assert params(rosenmu.brute_force_backward_error) == [
        "sys", "lam", "scenario", "budget", "seed"
    ]
    assert params(rosenmu.certificate_to_delta) == ["pset", "m"]


def test_perfbench_finds_the_names_it_traces(monkeypatch):
    # perfbench imports rosenmu names and its tracer rebinds others by name
    # (mu.minimize among them); a name gone from src/ fails here
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import workloads

    assert set(workloads.WORKLOADS) == {"sweep", "mu-scalar", "oracle", "grid"}
    svd = np.linalg.svd
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert np.linalg.svd is not svd
    finally:
        tracer.uninstall()
    assert np.linalg.svd is svd
