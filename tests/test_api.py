"""The public names, and the names the benchmark harness looks up."""

import inspect
import os
import subprocess
import sys

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


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
from rosenmu import BlockStructure, mu_bracket
from rosenmu.instances import golden_two_block_matrix

golden = mu_bracket(golden_two_block_matrix(), BlockStructure(((2, 3), (3, 2))))
assert abs(golden.upper - 3.081980) < 1e-6 and golden.upper - golden.lower <= 1e-8 * golden.upper
# a two-block kink: Newton gives up and the quasi-Newton burst runs
antidiag = np.array([[0.0, 2.0], [3.0, 0.0]])
kink = mu_bracket(antidiag, BlockStructure(((1, 1), (1, 1))))
assert kink.upper_bound.multiplicity == 2
assert abs(kink.upper - 6**0.5) <= 1e-12 * 6**0.5 and kink.upper - kink.lower <= 1e-12 * kink.upper
# the only scipy entry is the None that blocks it
assert [name for name in sys.modules if name.split(".")[0] == "scipy"] == ["scipy"]
assert sys.modules["scipy"] is None
"""


def test_library_runs_without_scipy():
    # scipy is a test dependency only: the library, its kink search
    # included, imports and runs with numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(rosenmu.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
