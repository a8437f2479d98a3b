"""Command-line scenario runner.

One subcommand per scenario.  Configuration comes from an optional JSON
file plus flag overrides (flags win); the fully resolved config is echoed
into every report.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import ConfigError, EnvstatError
from .report import render_csv, render_json
from .scenarios import SCENARIOS, config_section, resolve_config, run_scenario

_SCENARIO_HELP = {
    "envariance-check": "phase/swap envariance on seeded entangled states",
    "born-finegrain": "Born weights from branch counting (exact rationals)",
    "theorem-sweep": "counter-evolution restoration across ranks and unitaries",
    "canonical-count": "Boltzmann distribution from bath microstate counting",
    "spectrum-split": "barrier doublets: exact solve, grid oracle, estimate",
    "quantum-cycle": "quantum engine cycle with free-energy ledger",
    "classical-cycle": "classical one-molecule comparator ensemble",
    "full-suite": "all scenarios back to back",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envstat",
        description="Deterministic scenario runner for envariance-based "
                    "quantum statistical mechanics.")
    parser.add_argument("--version", action="version", version=f"envstat {__version__}")
    sub = parser.add_subparsers(dest="scenario", metavar="scenario")
    for name in SCENARIOS:
        p = sub.add_parser(name, help=_SCENARIO_HELP[name])
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the seed list with one seed")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), dest="fmt",
                       help="report format (default json)")
        p.add_argument("--mu", type=int, help="up-branch count (born-finegrain)")
        p.add_argument("--nu", type=int, help="down-branch count (born-finegrain)")
        p.add_argument("--L", type=float, help="box length")
        p.add_argument("--d", type=float, help="barrier width")
        p.add_argument("--U", type=float, help="barrier height (inf allowed)")
        p.add_argument("--T", type=float, help="bath temperature")
        p.add_argument("--n-trunc", type=int, help="level truncation")
    return parser


def _load_raw_config(args: argparse.Namespace) -> dict:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    else:
        raw = {}

    if "scenario" in raw and raw["scenario"] != args.scenario:
        raise ConfigError(
            f"config file names scenario {raw['scenario']!r} but the "
            f"command line asked for {args.scenario!r}")
    raw["scenario"] = args.scenario

    # flags win over the file
    if args.seed is not None:
        raw["seeds"] = [args.seed]
    engine = config_section(raw, "engine")
    for flag, key in (("L", "box_length"), ("d", "barrier_width"),
                      ("U", "barrier_height"), ("T", "temperature"),
                      ("n_trunc", "n_trunc")):
        value = getattr(args, flag)
        if value is not None:
            engine[key] = value
    if engine:
        raw["engine"] = engine
    params = config_section(raw, "params")
    for flag in ("mu", "nu"):
        value = getattr(args, flag)
        if value is not None:
            params[flag] = value
    if params:
        raw["params"] = params
    output = config_section(raw, "output")
    if args.out is not None:
        output["path"] = args.out
    if args.fmt is not None:
        output["format"] = args.fmt
    if output:
        raw["output"] = output
    return raw


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.scenario is None:
        parser.print_help()
        return 2

    try:
        cfg = resolve_config(_load_raw_config(args))
        report = run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EnvstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = render_csv(report) if cfg.output_format == "csv" else render_json(report)
    if cfg.output_path is not None:
        try:
            with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    failed = [c for c in report.checks if not c.passed]
    print(f"{report.scenario}: {len(report.checks) - len(failed)}/"
          f"{len(report.checks)} checks passed"
          + (f"; FAILED: {', '.join(c.name for c in failed)}" if failed else ""),
          file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
