"""Command-line front end: simulate, sweep, endurance, calibrate.

Exit codes: 0 success, 2 configuration or usage error, 3 infeasible
result while --require-feasible is set, 4 output directory not writable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from wpcnsim.config_io import (
    _MISSION_ARTIFACTS,
    _read_config_file,
    parse_config_text,
    render_config,
    sha256_hex,
    write_manifest,
    write_mission_summary,
    write_sweep_csv,
    write_sweep_summary,
)
from wpcnsim.mission import ConfigError, ScenarioConfig, endurance, run_mission
from wpcnsim.sweep import (
    DEFAULT_CASES,
    calibrate_speed,
    calibrate_tx_power,
    efficiency,
    sweep,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

_CASES = {placement + layout: (placement, layout) for placement, layout in DEFAULT_CASES}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpcnsim",
        description=(
            "Deterministic studies of a drone that circles a hull, wirelessly "
            "charging passive sensors at stop points and collecting their packets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one mission and report its ledger")
    sim.add_argument("--config", metavar="PATH", help="key = value config file")
    sim.add_argument(
        "--out", metavar="DIR", help=f"write {', '.join(_MISSION_ARTIFACTS)}, manifest.json"
    )
    sim.add_argument("--stops", type=int, metavar="N", help="override stop count")
    sim.add_argument("--dwell", type=float, metavar="SECONDS", help="override dwell time")
    sim.add_argument("--case", choices=sorted(_CASES), help="override placement and layout")
    sim.add_argument(
        "--require-feasible",
        action="store_true",
        help="exit 3 if the mission exceeds the battery",
    )
    sim.set_defaults(handler=_cmd_simulate)

    swp = sub.add_parser("sweep", help="run the stop-count x dwell grid and write artifacts")
    swp.add_argument("--config", metavar="PATH", help="key = value config file")
    swp.add_argument("--out", metavar="DIR", default=".", help="artifact directory (default .)")
    swp.add_argument(
        "--stops-range",
        default="4:100",
        metavar="A:B",
        help="inclusive stop-count range (default 4:100)",
    )
    swp.add_argument(
        "--dwells",
        default="20,70",
        metavar="LIST",
        help="comma-separated dwell times in seconds (default 20,70)",
    )
    swp.add_argument("--case", choices=sorted(_CASES), help="restrict to one case")
    swp.add_argument(
        "--require-feasible",
        action="store_true",
        help="exit 3 if any swept cell exceeds the battery",
    )
    swp.set_defaults(handler=_cmd_sweep)

    end = sub.add_parser("endurance", help="print hover endurance on a full battery")
    end.add_argument("--config", metavar="PATH", help="key = value config file")
    end.set_defaults(handler=_cmd_endurance)

    cal = sub.add_parser("calibrate", help="solve for tx power or cruise speed")
    cal.add_argument("--config", metavar="PATH", help="key = value config file")
    cal.add_argument(
        "--packets",
        type=int,
        metavar="N",
        help="transmit power so one fresh visit yields N packets",
    )
    cal.add_argument(
        "--stops",
        type=int,
        metavar="N",
        help="cruise speed so N stops fit inside the endurance",
    )
    cal.add_argument("--dwell", type=float, metavar="SECONDS", help="dwell used with --stops")
    cal.set_defaults(handler=_cmd_calibrate)
    return parser


def _resolve_config(args) -> ScenarioConfig:
    if args.config:
        return parse_config_text(_read_config_file(args.config), source=str(args.config))
    return ScenarioConfig()


def _digest(config: ScenarioConfig) -> str:
    # hash the canonical rendering, so overrides and comments cannot alias
    return sha256_hex(render_config(config).encode("utf-8"))


def _cmd_simulate(args) -> int:
    overrides = {}
    if args.stops is not None:
        overrides["n_stops"] = args.stops
    if args.dwell is not None:
        overrides["dwell_time"] = args.dwell
    if args.case:
        overrides["placement"], overrides["layout"] = _CASES[args.case]
    # run_mission validates what the overrides make of the config
    config = replace(_resolve_config(args), **overrides)
    ledger = run_mission(config)
    print(
        f"packets {ledger.total_packets}  "
        f"energy {ledger.total_uav_energy:.9g} J  "
        f"efficiency {efficiency(ledger):.9g} pkt/kJ  "
        f"feasible {str(ledger.feasible).lower()}  "
        f"time {ledger.mission_time:.9g} s"
    )
    if args.out is not None:
        try:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            # the manifest goes until the artifacts it lists are written
            (out / "manifest.json").unlink(missing_ok=True)
            write_mission_summary(ledger, out)
            write_manifest(config, _digest(config), _MISSION_ARTIFACTS, out)
        except OSError as err:
            print(f"cannot write to {args.out}: {err}", file=sys.stderr)
            return EXIT_IO
    if args.require_feasible and not ledger.feasible:
        print(
            f"mission needs {ledger.total_uav_energy:.9g} J "
            f"but the battery holds {config.uav_battery:.9g} J",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    return EXIT_OK


def _parse_stops_range(text: str):
    head, sep, tail = text.partition(":")
    try:
        lo, hi = int(head), int(tail)
    except ValueError:
        lo, hi = 1, 0
    if not sep or lo > hi:
        raise ConfigError(
            [f"--stops-range {text!r}: expected A:B with integers A <= B"]
        )
    return tuple(range(lo, hi + 1))


def _parse_dwells(text: str):
    try:
        dwells = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(
            [f"--dwells {text!r}: expected comma-separated numbers"]
        ) from None
    # no NaN equals itself, so every NaN counts as the one value None
    if len({None if t != t else t for t in dwells}) < len(dwells):
        raise ConfigError([f"--dwells {text!r}: each dwell may appear only once"])
    return dwells


def _cmd_sweep(args) -> int:
    base = _resolve_config(args)
    stop_counts = _parse_stops_range(args.stops_range)
    dwells = _parse_dwells(args.dwells)
    cases = (_CASES[args.case],) if args.case else DEFAULT_CASES
    table = sweep(base, stop_counts, dwells, cases=cases)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").unlink(missing_ok=True)
        csv_path = write_sweep_csv(table, out)
        summary = write_sweep_summary(table, out)
        write_manifest(base, _digest(base), [csv_path.name, summary.name], out)
    except OSError as err:
        print(f"cannot write to {args.out}: {err}", file=sys.stderr)
        return EXIT_IO
    cells = table.cells.values()
    n_errors = sum(1 for cell in cells if cell.error)
    n_infeasible = sum(1 for cell in cells if not (cell.feasible or cell.error))
    print(f"{len(table.cells)} cells ({n_infeasible} infeasible, {n_errors} errors) -> {csv_path}")
    if args.require_feasible and (n_infeasible or n_errors):
        print(
            f"{n_infeasible} swept cells exceed the battery and {n_errors} are invalid",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_endurance(args) -> int:
    config = _resolve_config(args)
    seconds = endurance(config)
    print(f"{seconds:.2f} s ({seconds / 60.0:.2f} min)")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = _resolve_config(args)
    # solve every requested flag before printing, so a failure prints nothing
    lines = []
    try:
        if args.packets is not None:
            flag = "--packets"
            tx_power = calibrate_tx_power(args.packets, config)
            lines.append(f"tx_power = {tx_power:.9g} W")
        if args.stops is not None:
            flag = "--stops"
            dwell = args.dwell if args.dwell is not None else config.dwell_time
            speed = calibrate_speed(args.stops, dwell, config)
            lines.append(f"cruise_speed = {speed:.9g} m/s")
    except (ValueError, OverflowError) as err:
        print(f"calibrate: {flag}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if not lines:
        print("calibrate: pass --packets N and/or --stops N [--dwell S]", file=sys.stderr)
        return EXIT_CONFIG
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        for message in err.errors:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
