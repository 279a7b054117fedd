"""Command-line entry point for the experiment suite.

Subcommands: run (validate, then execute one JSON config), validate (check a
config against the package's schema.json and the rules beside it, one
problem a line), report
(tabulate the summary.json verdicts under a results directory). Only run
imports numpy and the compute modules.
Exit codes: 0 all pass thresholds met, 2 a threshold failed, 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .config import config_checksum, validate_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soficlab",
        description="Deterministic experiments on measures over sofic model spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", type=Path, help="path to an experiment JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config's seed field (refused when it has none)")
    p_run.add_argument("--budget", type=int, default=None, help="override the enumeration budget")
    p_run.add_argument("--plot", action="store_true", help="also emit SVG plots")
    p_run.add_argument("--out", type=Path, default=None, help="override the output directory")

    p_val = sub.add_parser("validate", help="check a config against the schema")
    p_val.add_argument("config", type=Path)

    p_rep = sub.add_parser("report", help="summarize results directories")
    p_rep.add_argument("results", type=Path)
    return parser


def _load_config(path: Path) -> dict:
    cfg = json.loads(path.read_text())
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    # deferred: only run needs the compute modules, and importing them loads numpy
    from .experiments import RunContext, run_experiment
    from .models import ENUM_BUDGET

    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.config}: {exc}", file=sys.stderr)
        return 1
    ctx = RunContext(
        budget=args.budget if args.budget is not None else ENUM_BUDGET,
        plot=args.plot,
        out_dir=args.out,
    )
    try:
        if args.seed is not None:
            if "seed" not in cfg:
                raise ValueError(f"--seed: the {cfg.get('experiment')} config has no seed field to override")
            cfg["seed"] = args.seed
        code = run_experiment(cfg, ctx)
    except Exception as exc:  # seed, budget and validation refusals land here
        # only under --out: a config's own out_dir may be its golden results directory
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            diag = {
                "error": str(exc),
                "type": type(exc).__name__,
                "experiment": cfg.get("experiment"),
                "config_checksum": config_checksum(cfg),
            }
            (args.out / "diagnostic.json").write_text(json.dumps(diag, sort_keys=True, indent=2) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdict = "pass" if code == 0 else "threshold failure"
    print(f"{cfg['experiment']}: {verdict} (checksum {config_checksum(cfg)})")
    return code


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.config}: {exc}", file=sys.stderr)
        return 1
    problems = validate_config(cfg)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1
    print(f"ok: {cfg['experiment']} (checksum {config_checksum(cfg)})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    root: Path = args.results
    if not root.exists():
        print(f"error: no such directory {root}", file=sys.stderr)
        return 1
    summaries = sorted(root.rglob("summary.json"))
    if not summaries:
        print(f"error: no summary.json under {root}", file=sys.stderr)
        return 1
    rows: List[tuple] = []
    for path in summaries:
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = None
        if not isinstance(data, dict) or not isinstance(data.get("experiment", "?"), str):
            rows.append((str(path.parent), "?", "unreadable"))
            continue
        verdict = "pass" if data.get("passed") else "FAIL"
        rows.append((data.get("experiment", "?"), verdict, data.get("config_checksum", "")))
    width = max(len(r[0]) for r in rows)
    for name, verdict, checksum in rows:
        print(f"{name:<{width}}  {verdict:<4}  {checksum}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
