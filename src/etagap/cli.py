"""Command-line front end.

Subcommands: ``spectrum`` (solve + validate, write the spectrum CSV),
``verify`` (full pipeline with selected checks), ``lemma31`` (seeded
property run of the sequence inequality) and ``report`` (render a summary
JSON).  Exit codes are the machine contract: 0 pass, 1 fail, 2
inconclusive-only, 3 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--resolution", type=int, nargs="+", help="cells per axis override")
    parser.add_argument("--k", help="eigenpair count override (or 'full')")
    parser.add_argument("--solve-tol", dest="solve_tol", help="residual tolerance override")
    parser.add_argument("--ortho-tol", dest="ortho_tol", help="orthonormality tolerance override")
    parser.add_argument("--seed", type=int, help="solver seed override")
    parser.add_argument("--dense", action="store_true", help="force the dense fallback solver")
    parser.add_argument("--out", help="output directory")


def _k_override(text):
    """``--k`` as "full" or a decimal integer; anything else is a config error."""
    from .errors import ConfigError

    if text is None or text == "full":
        return text
    if not (text.isascii() and text.isdigit()):
        raise ConfigError(f"--k must be 'full' or a decimal integer, got {text!r}")
    return int(text)


def _overrides_from(args) -> dict:
    checks = getattr(args, "checks", None)  # verify's --checks; the config validates the names
    ov = {
        "resolution": args.resolution,
        "k": _k_override(args.k),
        "solve_tol": args.solve_tol,
        "ortho_tol": args.ortho_tol,
        "seed": args.seed,
        "verify": [c.strip() for c in checks.split(",") if c.strip()] if checks else None,
    }
    if args.dense:
        ov["method"] = "dense"
    return ov


def _run(args, adjust=lambda cfg: None):
    """Load, override, adjust and run the scenario; an int is a failure's exit code."""
    from .errors import ConfigError, DimensionMismatch, EtagapError
    from .scenario import apply_overrides, load_config, run_scenario

    try:
        cfg = apply_overrides(load_config(args.config), _overrides_from(args))
        adjust(cfg)
        return run_scenario(cfg, output_dir=args.out)
    except (ConfigError, DimensionMismatch, FileNotFoundError, json.JSONDecodeError) as exc:
        _log(f"config error: {exc}")
        return 3
    except EtagapError as exc:
        _log(f"run failed: {type(exc).__name__}: {exc}")
        return 1


def cmd_spectrum(args) -> int:
    def spectrum_only(cfg):
        cfg.verify, cfg.theorems, cfg.oracle = [], [], None

    report = _run(args, spectrum_only)
    if isinstance(report, int):
        return report
    for name, (ok, margin) in report.validation.checks.items():
        _log(f"{'PASS' if ok else 'FAIL'} {name} (margin {margin:.3e})")
    _log(f"wrote: {', '.join(report.written)}")
    return 0 if report.validation.ok else 1


def cmd_verify(args) -> int:
    report = _run(args)
    if isinstance(report, int):
        return report
    counts = report.counts()
    _log(
        f"{report.name}: pass={counts['pass']} fail={counts['fail']} "
        f"inconclusive={counts['inconclusive']} skipped={counts['skipped']} "
        f"errors={counts['errors']}"
    )
    for err in report.errors:
        _log(f"ERROR {err}")
    _log(f"wrote: {', '.join(report.written)}")
    return report.exit_code()


def cmd_lemma31(args) -> int:
    from .bounds import lemma31_suite

    if args.trials < 1 or args.seed < 0:
        _log("usage error: lemma31 needs --trials >= 1 and --seed >= 0")
        return 3
    suite = lemma31_suite(np.random.default_rng(args.seed), args.trials)
    _log(
        f"trials={args.trials} hypothesis_satisfied={suite.hypothesis_satisfied} "
        f"counterexamples={len(suite.counterexamples)}"
    )
    for inst, res in suite.counterexamples:
        print(json.dumps({"mu": list(inst.mu), "r": list(inst.r), "s": res.s, "bound": res.bound}))
    return 0 if not suite.counterexamples else 1


def _integer(value) -> bool:
    return type(value) is int


# the "solver" keys that report renders after the method, in order: (key, type check, format)
SOLVER_FIELDS = (
    ("ordering", lambda v: type(v) is str, str),
    ("axis_ndof", lambda v: type(v) is list and all(map(_integer, v)), lambda v: " x ".join(map(str, v))),
    ("factor_nnz", _integer, str),
    ("band", _integer, str),
    ("ncv", _integer, str),
    ("op_applications", _integer, str),
    ("max_residual", lambda v: type(v) in (int, float), "{:.3e}".format),
)


def _solver_line(solver) -> str:
    """The summary's "solver" block on one line; TypeError or KeyError if it is malformed."""
    if type(solver) is not dict or type(solver["method"]) is not str:
        raise TypeError("solver must be an object with a string method")
    parts = [f"method = {solver['method']}"]
    for key, valid, fmt in SOLVER_FIELDS:
        if key in solver:
            if not valid(solver[key]):
                raise TypeError(f"solver {key} has the wrong type: {solver[key]!r}")
            parts.append(f"{key} = {fmt(solver[key])}")
    return "  solver: " + ", ".join(parts)


def cmd_report(args) -> int:
    path = Path(args.summary)
    if not path.is_file():
        _log(f"no summary file at {path}")
        return 3
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        counts = data["counts"]
        lines = [f"{data.get('name', '?')}:"] + [f"  {key}: {counts[key]}" for key in sorted(counts)]
        for tag, rep in data.get("gap_reports", {}).items():
            lines.append(f"  {tag}: C = {rep['constant']:.6g}, exponent = {rep['exponent']:.4g}")
        if "solver" in data:
            lines.append(_solver_line(data["solver"]))
        code = int(data.get("exit_code", 0))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        _log(f"malformed summary: {exc}")
        return 3
    for line in lines:
        _log(line)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="etagap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="solve and validate the low spectrum")
    p_spec.add_argument("config", help="config file path or builtin scenario name")
    _add_overrides(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_ver = sub.add_parser("verify", help="run the full verification pipeline")
    p_ver.add_argument("config", help="config file path or builtin scenario name")
    p_ver.add_argument("--checks", help="comma list from gap,yang,cor32,lemma32,parseval")
    _add_overrides(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_l31 = sub.add_parser("lemma31", help="seeded property run of the sequence inequality")
    p_l31.add_argument("--trials", type=int, default=10000)
    p_l31.add_argument("--seed", type=int, default=0)
    p_l31.set_defaults(func=cmd_lemma31)

    p_rep = sub.add_parser("report", help="render a summary JSON")
    p_rep.add_argument("summary", help="path to summary.json")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
