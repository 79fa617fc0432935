"""Command-line entry point.

    blo run <config.json> [--parallel N] [--out DIR]
    blo reproduce <study> [--seed S] [--out DIR] [--idx-* PATH ...]
    blo check <config.json>

Exit codes: 0 success, 1 run/check failure, 2 config error.  The
environment variable BLO_SEED overrides every seed in play.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import parse_config
from .errors import ConfigError
from .experiments import STUDIES, build_problem, reproduce, run_experiments
from .linalg import gaussian_vector
from .problem import fd_check_gradients


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blo",
                                     description="bilevel optimization bench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the runs in a JSON config")
    p_run.add_argument("config", help="path to a JSON config file")
    p_run.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="max runs at once, one process each (default 1)")
    p_run.add_argument("--out", default="results", metavar="DIR",
                       help="output directory (default ./results)")

    p_rep = sub.add_parser("reproduce", help="run one of the pre-baked studies")
    p_rep.add_argument("study", choices=STUDIES)
    p_rep.add_argument("--seed", type=int, default=None, metavar="S")
    p_rep.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default ./results/<study>)")
    p_rep.add_argument("--idx-train", metavar="PATH")
    p_rep.add_argument("--idx-train-labels", metavar="PATH")
    p_rep.add_argument("--idx-val", metavar="PATH")
    p_rep.add_argument("--idx-val-labels", metavar="PATH")

    p_chk = sub.add_parser("check", help="finite-difference check the oracles "
                                         "of each configured problem")
    p_chk.add_argument("config", help="path to a JSON config file")
    return parser


def _env_seed() -> int | None:
    raw = os.environ.get("BLO_SEED")
    if raw is None:
        return None
    if not raw.strip().isdecimal():
        raise ConfigError(f"BLO_SEED must be an integer >= 0, got {raw!r}")
    return int(raw)


def _load_configs(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    configs = parse_config(text)
    seed = _env_seed()
    if seed is not None:
        configs = [replace(cfg, seed=seed, problem=replace(cfg.problem, seed=seed))
                   for cfg in configs]
    return configs


def _cmd_run(args) -> int:
    configs = _load_configs(args.config)
    return run_experiments(configs, args.out, parallelism=args.parallel)


def _cmd_reproduce(args) -> int:
    seed = _env_seed()
    if seed is None:
        seed = args.seed
    idx = {k: v for k, v in vars(args).items() if k.startswith("idx_") and v is not None}
    out = args.out if args.out is not None else os.path.join("results", args.study)
    return reproduce(args.study, out, seed=seed, idx=idx or None)


def _cmd_check(args) -> int:
    configs = _load_configs(args.config)
    failed = 0
    seen = set()
    for cfg in configs:
        if cfg.problem in seen:
            continue
        seen.add(cfg.problem)
        built = build_problem(cfg.problem)
        problem = built.problem
        x = gaussian_vector(problem.n, cfg.seed + 101)
        y = gaussian_vector(problem.m, cfg.seed + 202)
        if cfg.problem.family == "hypercleaning":
            # keep weights small so softmax finite differences stay tame
            y = 0.1 * y
        report = fd_check_gradients(problem, x, y, seed=cfg.seed)
        label = cfg.name or cfg.problem.family
        if report.passed:
            worst = max(report.max_rel_error.values())
            print(f"ok   {label}: max relative error {worst:.3e}")
        else:
            failed += 1
            print(f"FAIL {label}: {report}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "reproduce":
            code = _cmd_reproduce(args)
        else:
            code = _cmd_check(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
