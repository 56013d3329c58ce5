"""Command-line interface: scenario runner and data emitter.

Verbs::

    spincat run <config>                 execute a scenario (file or preset)
    spincat sweep <config> --axis A --values v1,v2,...
                                         one report row per axis value
    spincat presets                      list built-in scenario names
    spincat emit-preset <name>           write a preset's config for editing

``<config>`` is a path to a JSON scenario document; if no such file
exists and the argument names a built-in preset, the preset is used.
Exit codes: 0 success, 2 configuration error (with a field-path
diagnostic), 3 numeric failure (naming the failing operation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bath import ThermalConvention
from .errors import ConfigError, DomainError, NumericError, UsageError
from .evolve import MqsConvention
from .scenario import (
    SWEEP_AXES,
    _json_dumps,
    _make_dir,
    _write_atomic,
    preset_config,
    preset_names,
    run_scenario,
    sweep,
    validate_config,
)

__all__ = ["main"]


def _load_config(ref: str) -> dict:
    """Resolve a config reference: an existing file path, else a preset name."""
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except ValueError as exc:  # bad JSON, an over-long integer, or not UTF-8
            raise ConfigError(f"config {ref!r} is not valid JSON: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {ref!r}: {exc}") from exc
        return validate_config(raw)
    if ref in preset_names():
        return validate_config(preset_config(ref))
    raise ConfigError(f"no config file {ref!r} and no preset with that name; "
                      "available presets: " + ", ".join(preset_names()))


def _apply_overrides(cfg: dict, args) -> dict:
    if args.thermal_convention is not None:
        cfg["conventions"]["thermal"] = args.thermal_convention
    if args.mqs_convention is not None:
        cfg["conventions"]["mqs"] = args.mqs_convention
    return cfg


def _parse_values(text: str) -> list[float]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    values = []
    for item in items:
        try:
            values.append(float(item))
        except ValueError:
            raise ConfigError(f"cannot parse sweep value {item!r} as a number",
                              field="values") from None
    return values


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--output-dir", default=None,
                        help="directory for artifacts (overrides the config)")
    parser.add_argument("--thermal-convention", default=None,
                        choices=[c.value for c in ThermalConvention],
                        help="override the thermal-occupation convention")
    parser.add_argument("--mqs-convention", default=None,
                        choices=[c.value for c in MqsConvention],
                        help="override the superposition-target convention")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincat",
        description="Exact collective-dephasing simulator: kernels, "
                    "superposition formation, and feasibility reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("config", help="config file path or preset name")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across axis values")
    p_sweep.add_argument("config", help="base config file path or preset name")
    p_sweep.add_argument("--axis", required=True, choices=list(SWEEP_AXES),
                         help="which parameter to vary")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of axis values")
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="worker processes, at most one per point and per core "
                              "this process may use (default: CPU count)")
    _add_common(p_sweep)

    sub.add_parser("presets", help="list built-in scenario names")

    p_emit = sub.add_parser("emit-preset",
                            help="write a preset's config file for editing")
    p_emit.add_argument("name", help="preset name")
    p_emit.add_argument("--output-dir", default=".",
                        help="where to write <name>.json (default: .)")
    return parser


def _print_summary(summary: dict):
    print(json.dumps(summary, sort_keys=True))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _apply_overrides(_load_config(args.config), args)
            _print_summary(run_scenario(cfg, output_dir=args.output_dir))
        elif args.command == "sweep":
            if args.jobs < 1:
                raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
            cfg = _apply_overrides(_load_config(args.config), args)
            _print_summary(sweep(cfg, args.axis, _parse_values(args.values),
                                 jobs=args.jobs, output_dir=args.output_dir))
        elif args.command == "presets":
            for name in preset_names():
                print(name)
        elif args.command == "emit-preset":
            cfg = preset_config(args.name)
            path = os.path.join(_make_dir(args.output_dir), f"{args.name}.json")
            _write_atomic(path, _json_dumps(cfg))
            _print_summary({"preset": args.name, "path": path})
    except (ConfigError, DomainError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        op = getattr(exc, "operation", None)
        where = f" in {op}" if op else ""
        print(f"numeric error{where}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
