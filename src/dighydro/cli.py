"""Command-line entry point for running scenarios."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .experiments import hysteresis_sweep, run_scenario, sweep


def _common_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    if args.dt is not None:
        overrides["run.dt_s"] = str(args.dt)
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dighydro",
        description="Digital-hydraulic soft-actuator drive simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="scenario config file")
        p.add_argument("--out-dir", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override run seed")
        p.add_argument("--dt", type=float, default=None, help="override step size in seconds")

    p_run = sub.add_parser("run", help="run one scenario, write trace CSV and metrics")
    add_run_args(p_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    add_run_args(p_sweep)
    p_sweep.add_argument("--param", required=True, help="parameter as section.key, e.g. plant.kv_hp")
    p_sweep.add_argument("--values", required=True, help="comma-separated parameter values")

    # The loop depends only on the tip map and [hysteresis], not on seed or dt.
    p_hyst = sub.add_parser("hysteresis", help="emit the quasi-static pressure/tip loop")
    p_hyst.add_argument("config", help="scenario config file")
    p_hyst.add_argument("--out-dir", default=".", help="output directory (default: .)")

    p_val = sub.add_parser("validate", help="validate a scenario config file")
    p_val.add_argument("config", help="scenario config file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            trace_path, metrics_path, metrics, _ = run_scenario(
                args.config, args.out_dir, _common_overrides(args)
            )
            print(f"wrote {trace_path}")
            print(f"wrote {metrics_path}")
            print(
                f"rms_error={metrics.rms_tracking_error:.6g} "
                f"max_error={metrics.max_abs_error:.6g} settled={metrics.settled}"
            )
        elif args.command == "sweep":
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            table_path, rows = sweep(
                args.config, args.param, values, args.out_dir, _common_overrides(args)
            )
            print(f"wrote {table_path} ({len(rows)} runs)")
        elif args.command == "hysteresis":
            csv_path, area, _ = hysteresis_sweep(args.config, args.out_dir)
            print(f"wrote {csv_path}")
            print(f"loop_area={area!r} mm*Pa")
        elif args.command == "validate":
            load_config(args.config)
            print("config OK")
    except ConfigError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
