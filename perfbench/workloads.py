"""The four benchmark workloads: seeded inputs, the timed call, checks.

Each workload provides

* ``n_tasks(seconds)``: the size of the fixed task set of one run;
* ``build(rng, n_tasks, work_dir)``: the task inputs, made only from the
  workload seed (this is the set-up that ``setup_s`` times);
* ``run(task)``: the one library call that is timed;
* ``digest(out)``: the task's exact outputs as ``float.hex`` strings;
* ``summarize(task, out)``: the correctness gate, run outside the timed
  call, plus the bracket-quality figures.

Library functions are looked up through their modules at call time, so
the wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from rosenmu.instances import fluid_solid_instance, golden_two_block_matrix
from rosenmu.linalg import ABS_FLOOR, sigma_max, sigma_min
from rosenmu.reduction import BlockStructure, assemble_perturbation, perturbation_norm
from rosenmu.rosenbrock import RosenbrockSystem, evaluate, matrix_from_json, system_to_json

BE = importlib.import_module("rosenmu.backward_error")  # the package attribute is the function
MU = importlib.import_module("rosenmu.mu")
ORACLE = importlib.import_module("rosenmu.oracle")
CLI = importlib.import_module("rosenmu.cli")  # every workload's set-up imports the CLI alike

# A bracket whose relative gap is at most this is counted as closed.
TIGHT_GAP = 1e-8
# Check tolerances, as in ``rosenmu verify`` and acceptance test 3g.
ORDER_TOL = 1e-9
RESIDUAL_TOL = 1e-8
NORM_TOL = 1e-9
ORACLE_UPPER_SLACK = 1e-8
ORACLE_LOWER_SHARE = 0.98
GOLDEN_MU = 3.081980
GOLDEN_TOL = 1e-6
# Share of --seconds that the passes over a task set fill at the seed commit.
PASS_FILL = 0.9


@dataclass
class Summary:
    """Correctness problems and bracket quality of one task's output."""

    problems: list[str] = field(default_factory=list)
    # lower/upper of every result; exact results count as 1
    ratios: list[float] = field(default_factory=list)
    # relative gaps of the results that came from a mu bracket
    gaps: list[float] = field(default_factory=list)
    oracle_ratio: float | None = None

    def bracket(self, lower: float, upper: float) -> None:
        if not lower <= upper + ORDER_TOL * max(1.0, upper):
            self.problems.append(f"bracket out of order: {lower!r} > {upper!r}")
        gap = (upper - lower) / upper if upper > 0 else 0.0
        gap = 0.0 if gap <= TIGHT_GAP else gap
        self.gaps.append(gap)
        self.ratios.append(1.0 - gap)


def _hex(x) -> str:
    return "none" if x is None else float(x).hex()


def _cgauss(rng, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def check_certificate(
    sys_: RosenbrockSystem, lam: complex, eta_lower, eta_upper, blocks, reported_norm
) -> list[str]:
    """The checks of ``rosenmu verify``, plus eta ordering and the reported norm."""
    problems = []
    if not eta_lower <= eta_upper + ORDER_TOL * max(1.0, eta_upper):
        problems.append(f"eta out of order at {lam}: {eta_lower!r} > {eta_upper!r}")
    if math.isinf(eta_upper):
        return problems  # nothing realizable to verify
    if blocks is None:
        return problems + [f"finite eta_upper without certificate at {lam}"]
    s_mat = evaluate(sys_, lam)
    delta_s = assemble_perturbation(sys_.r, sys_.n, lam, blocks)
    residual = sigma_min(s_mat - delta_s)
    if residual > RESIDUAL_TOL * max(sigma_max(s_mat), ABS_FLOOR):
        problems.append(f"certificate residual {residual:.3e} too large at {lam}")
    norm = perturbation_norm(blocks.values()) if blocks else 0.0
    if abs(norm - eta_upper) > NORM_TOL * max(1.0, eta_upper):
        problems.append(f"certificate norm {norm!r} != eta_upper {eta_upper!r} at {lam}")
    if reported_norm is None or abs(norm - reported_norm) > NORM_TOL * max(1.0, norm):
        problems.append(f"reported certificate norm {reported_norm!r} != {norm!r} at {lam}")
    return problems


def golden_problems() -> list[str]:
    """The golden 5x5 two-block mu-value, checked at set-up."""
    res = MU.mu_bracket(golden_two_block_matrix(), BlockStructure(((2, 3), (3, 2))))
    bad = [b for b in (res.lower, res.upper) if abs(b - GOLDEN_MU) > GOLDEN_TOL]
    return [f"golden 5x5 bracket [{res.lower!r}, {res.upper!r}] misses {GOLDEN_MU}"] if bad else []


class Workload:
    """Task-set sizing; subclasses add build, run, digest and summarize."""

    task_seconds: float  # about one task's time at the seed commit
    passes = 1  # passes per run: more give per-task medians, one the most inputs
    step = 1  # task sets are whole cycles of this many input strata
    min_tasks = 1

    def n_tasks(self, seconds: int) -> int:
        n = round(PASS_FILL * seconds / (self.passes * self.task_seconds))
        return max(self.min_tasks, self.step * round(n / self.step))


# ---------------------------------------------------------------------------
# sweep: all 15 scenarios on fluid-solid systems.
# ---------------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"
    task_seconds = 1.3
    min_tasks = 2
    # task 0 is the ROADMAP's seed instance at lambda = 0.7
    SEED_INSTANCE = (20240901, 0.7)

    def build(self, rng, n_tasks, work_dir):
        tasks = [(fluid_solid_instance(self.SEED_INSTANCE[0]), complex(self.SEED_INSTANCE[1]))]
        strata = n_tasks - 1
        for i in range(strata):
            # one real part per stratum of [0.2, 3.5]; every other task complex
            re = 0.2 + 3.3 * (i + rng.uniform()) / strata
            im = rng.uniform(-1.0, 1.0) if i % 2 else 0.0
            sys_ = fluid_solid_instance(int(rng.integers(0, 2**31)))
            tasks.append((sys_, complex(re, im)))
        return tasks

    def run(self, task):
        sys_, lam = task
        return BE.scenario_sweep(sys_, lam)

    def digest(self, rows):
        out = []
        for r in rows:
            out += [_hex(r.eta_lower), _hex(r.eta_upper), _hex(r.certificate_norm)]
            if r.mu is not None:
                out += [_hex(r.mu.lower), _hex(r.mu.upper)]
        return out

    def summarize(self, task, rows):
        sys_, lam = task
        s = Summary()
        if len(rows) != 15:
            s.problems.append(f"sweep returned {len(rows)} rows, expected 15")
        for r in rows:
            s.problems += check_certificate(
                sys_, lam, r.eta_lower, r.eta_upper, r.delta_blocks, r.certificate_norm
            )
            if r.mu is None:
                s.ratios.append(1.0)
            else:
                s.bracket(r.mu.lower, r.mu.upper)
        return s


# ---------------------------------------------------------------------------
# mu-scalar: mu brackets under 6-8 scalar blocks.
# ---------------------------------------------------------------------------


class MuScalar(Workload):
    name = "mu-scalar"
    task_seconds = 1.6
    step = 3
    min_tasks = 3
    # The matrices are fixed; the seed draws the coordinates they are handed
    # over in.  One mu bracket's time varies by 25-35% between random
    # matrices, so with a dozen per run the run time depended on which ones a
    # seed drew (see README.md).
    BASE_SEED = 0

    def build(self, rng, n_tasks, work_dir):
        base = np.random.default_rng(self.BASE_SEED)
        tasks = []
        for i in range(n_tasks):
            nb = 6 + i % 3  # equal shares of 6, 7 and 8 blocks
            # real M: the lower bound rarely meets the upper to 1e-13, so the
            # lower-bound search runs in full on most tasks
            m = base.standard_normal((nb, nb))
            # Phi M Phi* with Phi diagonal unitary has the same mu and the same
            # scaled singular values; only the lower bound's restarts see it
            phi = np.exp(2j * np.pi * rng.uniform(size=nb))
            tasks.append((phi[:, None] * m * phi.conj()[None, :], BlockStructure(((1, 1),) * nb)))
        return tasks

    def run(self, task):
        m, structure = task
        return MU.mu_bracket(m, structure)

    def digest(self, res):
        norm = perturbation_norm(res.certificate_delta) if res.certificate_delta else None
        return [_hex(res.lower), _hex(res.upper), _hex(norm)]

    def summarize(self, task, res):
        m, structure = task
        s = Summary()
        s.bracket(res.lower, res.upper)
        if res.certificate_delta is None:
            s.problems.append("mu bracket without certificate")
            return s
        # det(I - Delta M) = 0 and max block norm = 1/lower, as verify checks S - Delta S
        delta_m = structure.assemble(res.certificate_delta) @ m
        residual = sigma_min(np.eye(delta_m.shape[0]) - delta_m)
        if residual > RESIDUAL_TOL:
            s.problems.append(f"mu certificate residual {residual:.3e}")
        norm, want = perturbation_norm(res.certificate_delta), 1.0 / res.lower
        if abs(norm - want) > NORM_TOL * max(1.0, want):
            s.problems.append(f"mu certificate norm {norm!r} != 1/lower {want!r}")
        return s


# ---------------------------------------------------------------------------
# oracle: brute-force mu on the acceptance-test 3g distribution.
# ---------------------------------------------------------------------------


class Oracle(Workload):
    name = "oracle"
    task_seconds = 4.0
    BUDGET = 5000
    # A fixed cycle of structures from the 3g distribution (1-3 blocks, dims
    # <= 2, p + k <= 8), two of each block count; the seed draws M.  Random
    # structures made the time of a run depend on which shapes were drawn.
    STRUCTURES = [
        BlockStructure(blocks)
        for blocks in (
            ((2, 2),),
            ((1, 2), (2, 1)),
            ((1, 1), (1, 2), (2, 1)),
            ((2, 1),),
            ((2, 2), (2, 1)),
            ((1, 2), (1, 1), (1, 2)),
        )
    ]
    step = min_tasks = len(STRUCTURES)

    def build(self, rng, n_tasks, work_dir):
        tasks = []
        for i in range(n_tasks):
            structure = self.STRUCTURES[i % len(self.STRUCTURES)]
            tasks.append((_cgauss(rng, structure.k_total, structure.p_total), structure, i))
        return tasks

    def run(self, task):
        m, structure, seed = task
        return ORACLE.brute_force_mu(m, structure, budget=self.BUDGET, seed=seed)

    def digest(self, est):
        return [_hex(est.mu_sampled_lower), str(est.samples_used)]

    def summarize(self, task, est):
        m, structure, _ = task
        ref = MU.mu_bracket(m, structure)
        s = Summary()
        s.bracket(ref.lower, ref.upper)
        value = est.mu_sampled_lower
        if value > ref.upper + ORACLE_UPPER_SLACK:
            s.problems.append(f"oracle {value!r} above mu upper {ref.upper!r}")
        if value < ORACLE_LOWER_SHARE * ref.lower:
            s.problems.append(f"oracle {value!r} below {ORACLE_LOWER_SHARE} * mu lower {ref.lower!r}")
        s.oracle_ratio = value / ref.upper
        return s


# ---------------------------------------------------------------------------
# grid: the CLI scanning 25 points of a segment per call.
# ---------------------------------------------------------------------------


class Grid(Workload):
    name = "grid"
    task_seconds = 0.035
    passes = 3
    POINTS = 25
    SCENARIOS = "ABCP"
    step = len(SCENARIOS)
    min_tasks = 100  # so that 10 tasks lie beyond the p90

    def build(self, rng, n_tasks, work_dir):
        tasks = []
        for i in range(n_tasks):
            r, n = (int(v) for v in rng.integers(1, 12, size=2))
            sys_ = RosenbrockSystem(_cgauss(rng, r, r), _cgauss(rng, r, n), _cgauss(rng, n, r), (_cgauss(rng, n, n),))
            sys_path = os.path.join(work_dir, f"system_{i}.json")
            with open(sys_path, "w", encoding="utf-8") as fh:
                json.dump(system_to_json(sys_), fh)
            z0, z1 = (complex(*rng.uniform(-2.0, 2.0, size=2)) for _ in range(2))
            lams = [z0 + (z1 - z0) * t for t in np.linspace(0.0, 1.0, self.POINTS)]
            out_path = os.path.join(work_dir, f"report_{i}.json")
            argv = ["backward-error", "--json", "--output", out_path, "--scenario", self.SCENARIOS[i % len(self.SCENARIOS)]]
            for lam in lams:
                argv += ["--lambda", f"{lam.real:.17g},{lam.imag:.17g}"]
            argv.append(sys_path)
            tasks.append((argv, sys_, out_path))
        return tasks

    def run(self, task):
        argv = task[0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = CLI.main(argv)
        return code, buf.getvalue()

    @staticmethod
    def _results(stdout: str) -> list[dict]:
        return json.loads(stdout)["results"]

    @staticmethod
    def _eta(x) -> float:
        return math.inf if x == "inf" else float(x)

    def digest(self, out):
        code, stdout = out
        if code != 0:
            return [f"exit {code}"]
        return [
            _hex(self._eta(v)) if v is not None else "none"
            for r in self._results(stdout)
            for v in (r["eta_lower"], r["eta_upper"], r["certificate_norm"])
        ]

    def summarize(self, task, out):
        _, sys_, out_path = task
        code, stdout = out
        s = Summary()
        if code != 0:
            s.problems.append(f"rosenmu exited {code}")
            return s
        with open(out_path, encoding="utf-8") as fh:
            if fh.read() != stdout:
                s.problems.append("report file differs from stdout")
        results = self._results(stdout)
        if len(results) != self.POINTS:
            s.problems.append(f"{len(results)} results, expected {self.POINTS}")
        for r in results:
            lam = complex(*r["lambda"])
            raw = r["delta_blocks"]
            blocks = None if raw is None else {k: matrix_from_json(v) for k, v in raw.items()}
            s.problems += check_certificate(
                sys_, lam, self._eta(r["eta_lower"]), self._eta(r["eta_upper"]), blocks, r["certificate_norm"]
            )
            if "mu_upper" in r:
                s.bracket(r["mu_lower"], r["mu_upper"])
            else:
                s.ratios.append(1.0)
        return s


WORKLOADS = {w.name: w for w in (Sweep(), MuScalar(), Oracle(), Grid())}
