"""Command-line benchmark driver.

Subcommands:

    run       run the configured batch and write CSV results
    sweep     run only the policies with hyperparameter grids
    oracle    print the environment's oracle quantities
    validate  check a config file and exit

Exit codes: 0 success, 1 config error, 2 run failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .environments import EnvironmentConfigError
from .harness import (
    ConfigError,
    OutputError,
    RunError,
    emit_csv,
    load_config,
    run_batch,
)
from .metrics import loss_phi
from .policies import PolicyConfigError


def _add_common_flags(sub):
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--policy", help="restrict to one policy id")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--horizon", type=int)
    sub.add_argument("--runs", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--trace", action="store_true", default=None,
                     help="emit the per-round trace CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sps-bench",
        description="Online conformal prediction benchmark harness",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "run the configured batch"),
        ("sweep", "run the hyperparameter sweeps"),
        ("oracle", "print oracle CDF quantities for the environment"),
        ("validate", "validate a config file"),
    ):
        sub = subs.add_parser(name, help=helptext)
        _add_common_flags(sub)
    return parser


def _cmd_run(cfg) -> int:
    result = run_batch(cfg)
    written = emit_csv(result, cfg)
    for name, path in sorted(written.items()):
        print(f"wrote {path}")
    for policy_id, grid_key in result.selected.items():
        if grid_key:
            print(f"selected {policy_id}: {grid_key}")
    return 0


def _cmd_sweep(cfg) -> int:
    cfg.policies = [p for p in cfg.policies if len(p.grid_points()) > 1]
    if not cfg.policies:
        raise ConfigError("no policy in the config has a parameter grid to sweep")
    return _cmd_run(cfg)


def _cmd_oracle(cfg) -> int:
    env = cfg.environment.build()
    gstar = env.oracle_cdf()
    tau_star = env.oracle_tau_star(cfg.alpha)
    lo, hi = env.dist.support
    print(f"alpha={cfg.alpha:.12g}")
    print(f"tau_star={tau_star:.12g}")
    print(f"g_at_tau_star={gstar(tau_star):.12g}")
    print(f"phi_at_tau_star={loss_phi(tau_star, gstar, cfg.loss):.12g}")
    print(f"score_range={lo:.12g},{hi:.12g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, vars(args))
        if args.command == "validate":
            print("config ok")
            return 0
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        if args.command == "oracle":
            return _cmd_oracle(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, EnvironmentConfigError, PolicyConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RunError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    except (OutputError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
