"""Command-line surface: mu, backward-error, sweep, verify, oracle.

All matrix data travels as JSON (entries are [re, im] pairs).  Reports are
emitted as text or machine-readable JSON with a fixed field order and
floats printed to 17 significant digits, so identical inputs and seeds
produce byte-identical files.  Exit codes: 0 success, 1 failed verify,
2 input error, 3 numeric failure (including LAPACK non-convergence).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .backward_error import BackwardErrorResult, backward_error, scenario_sweep
from .linalg import ABS_FLOOR, InputError, NumericError, sigma_min
from .mu import MuOptions, mu_bracket
from .oracle import brute_force_backward_error, brute_force_mu
from .reduction import (
    BlockStructure,
    Scenario,
    assemble_perturbation,
    perturbation_norm,
)
from .rosenbrock import (
    Point,
    _is_number,
    matrix_from_json,
    matrix_to_json,
    system_from_json,
)

VERIFY_TOL = 1e-8
NORM_MATCH_TOL = 1e-9


# ---------------------------------------------------------------------------
# Deterministic report serialization.
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(float(x), ".17g")


def dumps_report(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(dumps_report(v, indent) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dumps_report(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _eta_json(x: float):
    return "inf" if np.isinf(x) else float(x)


def _emit(report: dict, text: str, args) -> None:
    rendered = dumps_report(report) + "\n"
    if args.as_json:
        sys.stdout.write(rendered)
    else:
        sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)


# ---------------------------------------------------------------------------
# Argument parsing helpers.
# ---------------------------------------------------------------------------


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise InputError(f"--lambda expects re or re,im, got {text!r}")


def _parse_structure(spec: str) -> BlockStructure:
    blocks = []
    for piece in spec.split(","):
        dims = piece.lower().split("x")
        if len(dims) != 2:
            raise InputError(f"structure block {piece!r} is not of the form PxK")
        try:
            blocks.append((int(dims[0]), int(dims[1])))
        except ValueError:
            raise InputError(f"structure block {piece!r} is not of the form PxK")
    return BlockStructure(tuple(blocks))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosenmu",
        description="Structured eigenvalue backward errors of Rosenbrock "
        "system matrices and block-structured mu-values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_lambda=False):
        if needs_lambda:
            p.add_argument(
                "--lambda",
                dest="lambdas",
                action="append",
                required=True,
                metavar="RE[,IM]",
                help="evaluation point; repeatable",
            )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--starts", type=int, default=8)
        p.add_argument("--tol", type=float, default=VERIFY_TOL)
        p.add_argument("--json", action="store_true", dest="as_json")
        p.add_argument("--output", default=None)

    p_mu = sub.add_parser("mu", help="bracket the structured mu-value of a matrix")
    p_mu.add_argument("--structure", required=True, metavar="P1xK1,P2xK2,...")
    common(p_mu)
    p_mu.add_argument("matrix", help="JSON matrix file (array of rows of [re,im])")

    p_be = sub.add_parser(
        "backward-error", help="structured eigenvalue backward error of a system"
    )
    p_be.add_argument("--scenario", required=True, metavar="SUBSET_OF_ABCP")
    common(p_be, needs_lambda=True)
    p_be.add_argument("system", help="JSON system file")

    p_sw = sub.add_parser("sweep", help="backward errors for all 15 scenarios")
    common(p_sw, needs_lambda=True)
    p_sw.add_argument("system", help="JSON system file")

    p_vf = sub.add_parser("verify", help="re-check an emitted certificate file")
    p_vf.add_argument("--tol", type=float, default=VERIFY_TOL)
    p_vf.add_argument("--json", action="store_true", dest="as_json")
    p_vf.add_argument("--output", default=None)
    p_vf.add_argument("system", help="JSON system file")
    p_vf.add_argument("certificate", help="JSON certificate file")

    p_or = sub.add_parser("oracle", help="brute-force cross-checks")
    p_or.add_argument("--structure", default=None, metavar="P1xK1,...")
    p_or.add_argument("--scenario", default=None, metavar="SUBSET_OF_ABCP")
    p_or.add_argument(
        "--lambda", dest="lambdas", action="append", default=None, metavar="RE[,IM]"
    )
    p_or.add_argument("--budget", type=int, default=5000)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--json", action="store_true", dest="as_json")
    p_or.add_argument("--output", default=None)
    p_or.add_argument("input", help="JSON matrix or system file")
    return parser


# ---------------------------------------------------------------------------
# Command implementations.
# ---------------------------------------------------------------------------


def _certificate_report(res: BackwardErrorResult) -> dict:
    """Certificate document; also the machine-readable result report."""
    blocks = None
    if res.delta_blocks is not None:
        blocks = {label: matrix_to_json(blk) for label, blk in res.delta_blocks.items()}
    report = {
        "lambda": [float(res.lam.real), float(res.lam.imag)],
        "scenario": res.scenario.name,
        "delta_blocks": blocks,
        "claimed_eta": _eta_json(res.eta_upper),
        "residual": res.residual,
        "eta_lower": _eta_json(res.eta_lower),
        "eta_upper": _eta_json(res.eta_upper),
        "exactness": res.exactness,
        "certified_side": "both" if res.is_exact else "upper",
        "possibly_infinite": res.possibly_infinite,
        "certificate_norm": res.certificate_norm,
    }
    if res.mu is not None:
        report["mu_lower"] = res.mu.lower
        report["mu_upper"] = res.mu.upper
    if res.infinite_witness is not None:
        # the vanished inverse window proving no finite perturbation exists
        report["witness"] = matrix_to_json(res.infinite_witness)
    return report


def _eta_text(x: float) -> str:
    return "inf" if np.isinf(x) else format(x, ".9g")


def _backward_error_text(res: BackwardErrorResult) -> str:
    lines = [
        f"scenario {res.scenario.name}  lambda = {res.lam.real:g}{res.lam.imag:+g}i"
    ]
    if res.is_exact:
        lines.append(f"eta = {_eta_text(res.eta_upper)} ({res.exactness})")
    else:
        lines.append(
            f"eta in [{_eta_text(res.eta_lower)}, {_eta_text(res.eta_upper)}] "
            f"({res.exactness}; upper side certified)"
        )
    if res.possibly_infinite:
        lines.append("warning: mu lower bound vanished; eta possibly infinite")
    if res.residual is not None:
        lines.append(
            f"certificate: max block norm {res.certificate_norm:.9g}, "
            f"residual {res.residual:.3e}"
        )
    return "\n".join(lines) + "\n"


def _cmd_mu(args) -> int:
    structure = _parse_structure(args.structure)
    m = matrix_from_json(_load_json(args.matrix), "matrix")
    k, p = m.shape
    if (k, p) != (structure.k_total, structure.p_total):
        raise InputError(
            f"matrix is {k}x{p} but structure requires "
            f"{structure.k_total}x{structure.p_total} "
            f"(rows sum to p={structure.p_total}, cols to k={structure.k_total})"
        )
    opts = MuOptions(starts=args.starts, seed=args.seed)
    res = mu_bracket(m, structure, opts)
    defect = res.certificate_p.max_defect() if res.certificate_p else None
    report = {
        "command": "mu",
        "structure": args.structure,
        "seed": opts.seed,
        "lower": res.lower,
        "upper": res.upper,
        "exactness": res.exactness,
        "possibly_zero": res.possibly_zero,
        "certificate_norm": (
            perturbation_norm(res.certificate_delta)
            if res.certificate_delta
            else None
        ),
        "det_residual": res.delta_residual,
        "partial_isometry_defect": defect,
        "delta_blocks": (
            [matrix_to_json(blk) for blk in res.certificate_delta]
            if res.certificate_delta
            else None
        ),
    }
    tag = {
        "exact_n_le_3": "exact (n<=3)",
        "exact_simple_sigma": "exact (simple sigma)",
        "bracket_only": "bracket only",
    }[res.exactness]
    text = f"lower {res.lower:.9g}, upper {res.upper:.9g}, {tag}\n"
    if res.delta_residual is not None:
        text += (
            f"certificate: max block norm {perturbation_norm(res.certificate_delta):.9g}, "
            f"det residual {res.delta_residual:.3e}\n"
        )
    if res.possibly_zero:
        text += "warning: bracket consistent with mu = 0\n"
    _emit(report, text, args)
    return 0


def _cmd_backward_error(args) -> int:
    system = system_from_json(_load_json(args.system))
    scenario = Scenario.from_string(args.scenario)
    lambdas = [_parse_lambda(t) for t in args.lambdas]
    opts = MuOptions(starts=args.starts, seed=args.seed)
    reports, texts = [], []
    for lam in lambdas:
        res = backward_error(system, lam, scenario, opts)
        reports.append(_certificate_report(res))
        texts.append(_backward_error_text(res))
    report = reports[0] if len(reports) == 1 else {"results": reports}
    _emit(report, "".join(texts), args)
    return 0


def _cmd_sweep(args) -> int:
    system = system_from_json(_load_json(args.system))
    lambdas = [_parse_lambda(t) for t in args.lambdas]
    opts = MuOptions(starts=args.starts, seed=args.seed)
    reports, texts = [], []
    for lam in lambdas:
        rows = scenario_sweep(system, lam, opts)
        reports.append(
            {
                "lambda": [float(lam.real), float(lam.imag)],
                "rows": [_certificate_report(r) for r in rows],
            }
        )
        lines = [f"lambda = {lam.real:g}{lam.imag:+g}i"]
        lines.append(f"{'scenario':<10}{'eta_lower':>16}{'eta_upper':>16}  exactness")
        for r in rows:
            lines.append(
                f"{r.scenario.name:<10}{_eta_text(r.eta_lower):>16}"
                f"{_eta_text(r.eta_upper):>16}  {r.exactness}"
            )
        texts.append("\n".join(lines) + "\n")
    report = reports[0] if len(reports) == 1 else {"results": reports}
    _emit(report, "".join(texts), args)
    return 0


def _cmd_verify(args) -> int:
    system = system_from_json(_load_json(args.system))
    cert = _load_json(args.certificate)
    if not isinstance(cert, dict):
        raise InputError("certificate: expected a JSON object")
    for key in ("lambda", "scenario", "delta_blocks", "claimed_eta"):
        if key not in cert:
            raise InputError(f"certificate: missing field {key!r}")
    lam_field = cert["lambda"]
    if not (
        isinstance(lam_field, list) and len(lam_field) == 2 and all(map(_is_number, lam_field))
    ):
        raise InputError("certificate.lambda: expected [re, im]")
    lam = complex(float(lam_field[0]), float(lam_field[1]))
    if not isinstance(cert["scenario"], str):
        raise InputError("certificate.scenario: expected a string")
    scenario = Scenario.from_string(cert["scenario"])
    claimed = cert["claimed_eta"]
    if claimed == "inf":
        raise InputError("certificate carries no finite perturbation to verify")
    if not _is_number(claimed):
        raise InputError(f"certificate.claimed_eta: expected a number, got {claimed!r}")
    claimed = float(claimed)
    raw_blocks = cert["delta_blocks"] or {}
    if not isinstance(raw_blocks, dict):
        raise InputError("certificate.delta_blocks: expected an object or null")
    blocks = {
        label: matrix_from_json(mat, f"certificate.delta_blocks[{label}]")
        for label, mat in raw_blocks.items()
    }
    allowed = set(scenario.labels(system.d))
    for label in blocks:
        if label not in allowed:
            raise InputError(
                f"certificate.delta_blocks[{label}]: block not admitted by "
                f"scenario {scenario.name}"
            )

    point = Point(system, lam)
    delta_s = assemble_perturbation(system.r, system.n, lam, blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        perturbed = point.s - delta_s
    if not np.isfinite(perturbed).all():
        raise InputError(
            f"S(lambda) - Delta S is not finite at lambda = {lam.real:g}{lam.imag:+g}i "
            "(its entries overflow the double range)"
        )
    residual = sigma_min(perturbed)
    norm = perturbation_norm(blocks.values()) if blocks else 0.0
    scale = max(point.sigma_max, ABS_FLOOR)
    residual_ok = residual <= args.tol * scale
    norm_ok = abs(norm - claimed) <= NORM_MATCH_TOL * max(1.0, abs(claimed))
    ok = residual_ok and norm_ok
    report = {
        "command": "verify",
        "scenario": scenario.name,
        "lambda": [lam.real, lam.imag],
        "claimed_eta": claimed,
        "recomputed_norm": norm,
        "residual": residual,
        "relative_residual": residual / scale,
        "tolerance": args.tol,
        "residual_ok": residual_ok,
        "norm_ok": norm_ok,
        "verified": ok,
    }
    status = "VERIFIED" if ok else "FAILED"
    text = (
        f"{status}: residual {residual:.3e} (tol {args.tol * scale:.3e}), "
        f"norm {norm:.9g} vs claimed {claimed:.9g}\n"
    )
    _emit(report, text, args)
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    lambdas = [_parse_lambda(t) for t in args.lambdas or []]
    if args.structure:
        if args.scenario or lambdas:
            raise InputError(
                "oracle --structure (matrix mode) takes no --scenario or --lambda"
            )
        structure = _parse_structure(args.structure)
        m = matrix_from_json(_load_json(args.input), "matrix")
        est = brute_force_mu(m, structure, budget=args.budget, seed=args.seed)
        report = {
            "command": "oracle",
            "mode": "mu",
            "structure": args.structure,
            "budget": args.budget,
            "seed": args.seed,
            "mu_sampled_lower": est.mu_sampled_lower,
            "samples_used": est.samples_used,
        }
        text = f"sampled mu lower bound {est.mu_sampled_lower:.9g} ({est.samples_used} samples)\n"
    elif args.scenario and lambdas:
        if len(lambdas) > 1:
            raise InputError(f"oracle takes one --lambda, got {len(lambdas)}")
        system = system_from_json(_load_json(args.input))
        scenario = Scenario.from_string(args.scenario)
        lam = lambdas[0]
        eta = brute_force_backward_error(
            system, lam, scenario, budget=args.budget, seed=args.seed
        )
        report = {
            "command": "oracle",
            "mode": "backward-error",
            "scenario": scenario.name,
            "lambda": [lam.real, lam.imag],
            "budget": args.budget,
            "seed": args.seed,
            "eta_sampled_upper": _eta_json(eta),
        }
        text = f"sampled eta upper bound {_eta_text(eta)} ({args.budget} samples)\n"
    else:
        raise InputError(
            "oracle needs either --structure (matrix mode) or "
            "--scenario and --lambda (system mode)"
        )
    _emit(report, text, args)
    return 0


_COMMANDS = {
    "mu": _cmd_mu,
    "backward-error": _cmd_backward_error,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


_NUMBER_PAIR = r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"


def _fuse_negative_lambdas(argv: list[str]) -> list[str]:
    """Rewrite ["--lambda", "-1,2"] as ["--lambda=-1,2"].

    argparse would otherwise read a negative value with a comma as an
    unknown option flag.
    """
    import re

    pair = re.compile(rf"^{_NUMBER_PAIR}(,{_NUMBER_PAIR})?$")
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--lambda" and i + 1 < len(argv) and pair.match(argv[i + 1]):
            out.append(f"--lambda={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_negative_lambdas(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for flag in ("seed", "starts"):
            if getattr(args, flag, 0) < 0:
                raise InputError(f"--{flag} must be nonnegative, got {getattr(args, flag)}")
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
