"""Flat key = value configuration files and deterministic result artifacts.

Config files hold one `key = value` per line with `#` comments; every key
has a default, so an empty file is a complete configuration. Artifacts
(sweep.csv, summary.json, manifest.json) are emitted with LF endings,
'.' decimal separators, 9-significant-digit numbers, and sorted JSON
keys, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from wpcnsim import __version__
from wpcnsim.mission import (
    ConfigError,
    MissionLedger,
    ScenarioConfig,
    _leaves,
    validate_config,
)
from wpcnsim.sweep import (
    SweepTable,
    clustering_gain_cells,
    efficiency,
    efficiency_curve,
    equal_coverage_gain,
    find_peak,
    p1_gain_cells,
)

__all__ = [
    "CONFIG_KEYS",
    "parse_config",
    "parse_config_text",
    "render_config",
    "config_echo",
    "sha256_hex",
    "write_mission_summary",
    "write_sweep_csv",
    "write_sweep_summary",
    "write_manifest",
]

# key -> (owner, type): owner is the nested dataclass ("link", "costs") or
# "" for a top-level field; the type is that of the key's default value
_SCHEMA = {
    key: (owner, type(value)) for owner, key, value in _leaves(ScenarioConfig())
}
CONFIG_KEYS = tuple(_SCHEMA)
_MODE_ALIASES = {"included-in-flight-power": "included"}


def _convert(key: str, text: str):
    kind = _SCHEMA[key][1]
    if kind is str:
        token = text.lower()
        return _MODE_ALIASES.get(token, token)
    return kind(text)


def _read_config_file(path) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as err:
        raise ConfigError([f"{path}: {err.strerror or err}"]) from err
    except UnicodeDecodeError as err:
        raise ConfigError([f"{path}: not UTF-8 text (byte {err.start})"]) from err


def parse_config(path) -> ScenarioConfig:
    """Read and validate a config file; unset keys keep their defaults."""
    return parse_config_text(_read_config_file(path), source=str(path))


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse config text, reporting every problem with its line number."""
    errors = []
    seen = {}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            errors.append(
                f"{source}:{lineno}: malformed line {raw.strip()!r}, "
                "expected 'key = value'"
            )
            continue
        if key in seen:
            errors.append(
                f"{source}:{lineno}: duplicate key {key!r} "
                f"(first set on line {seen[key]})"
            )
            continue
        seen[key] = lineno
        if key not in CONFIG_KEYS:
            errors.append(f"{source}:{lineno}: unknown key {key!r}")
            continue
        try:
            values[key] = _convert(key, value)
        except ValueError:
            kind = "integer" if _SCHEMA[key][1] is int else "number"
            errors.append(
                f"{source}:{lineno}: key {key!r}: cannot parse {value!r} as {kind}"
            )
    if errors:
        raise ConfigError(errors)
    config = _build_config(values, errors)
    if errors:
        raise ConfigError(errors)
    violations = validate_config(config)
    if violations:
        raise ConfigError(violations)
    return config


def _build_config(values: dict, errors: list) -> ScenarioConfig:
    base = ScenarioConfig()
    kwargs = {}
    for key, value in values.items():
        kwargs.setdefault(_SCHEMA[key][0], {})[key] = value
    top = kwargs.pop("", {})
    for owner, nested in kwargs.items():
        try:
            top[owner] = dataclasses.replace(getattr(base, owner), **nested)
        except ValueError as err:
            errors.append(str(err))
    return dataclasses.replace(base, **top)


def render_config(config: ScenarioConfig) -> str:
    """Canonical flat text for a config; parsing it back round-trips."""
    lines = ["# scenario configuration; omitted keys keep these values"]
    for _, key, value in _leaves(config):
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_echo(config: ScenarioConfig) -> dict:
    """Every resolved parameter exactly once, keyed like the config file."""
    return {key: value for _, key, value in _leaves(config)}


def sha256_hex(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _sig9(x: float) -> str:
    return f"{x:.9g}"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# summary.json as json.dumps(..., indent=2, sort_keys=True) lays it out: keys
# sorted, and numbers by repr, as json renders int and float
_SUMMARY = (
    '{\n  "efficiency_pkt_per_kj": %r,\n  "feasible": %s,\n  "flight_energy_j": %r,\n'
    '  "hover_energy_j": %r,\n  "mission_time_s": %r,\n  "per_sensor": %s,\n  "per_stop": %s,\n'
    '  "rx_energy_j": %r,\n  "total_packets": %r,\n  "total_uav_energy_j": %r,\n'
    '  "wpt_energy_j": %r\n}\n'
)
_SENSOR = (
    '{\n      "harvested_j": %r,\n      "packets": %r,\n      "residual_j": %r,\n'
    '      "sensor_id": %r,\n      "spent_j": %r\n    }'
)
_STOP = (
    '{\n      "charged": %s,\n      "delivered_j": %s,\n      "packets": %r,\n'
    '      "stop_id": %r\n    }'
)


def _array(items, indent: str = "    ") -> str:
    """A json array of rendered items, one per line at indent."""
    body = (",\n" + indent).join(items)
    return f"[\n{indent}{body}\n{indent[:-2]}]" if body else "[]"


def write_mission_summary(ledger: MissionLedger, out_dir) -> Path:
    """Full ledger with derived efficiency as summary.json."""
    sensors = [
        _SENSOR % (rec.harvested, rec.packets, rec.residual, rec.sensor_id, rec.spent)
        for rec in ledger.per_sensor
    ]
    item = " " * 8
    stops = [
        _STOP % (_array(map(repr, rec.charged), item), _array(map(repr, rec.delivered), item),
                 rec.packets, rec.stop_id)
        for rec in ledger.per_stop
    ]
    text = _SUMMARY % (
        efficiency(ledger), "true" if ledger.feasible else "false", ledger.flight_energy,
        ledger.hover_energy, ledger.mission_time, _array(sensors), _array(stops),
        ledger.rx_energy, ledger.total_packets, ledger.total_uav_energy, ledger.wpt_energy,
    )
    path = Path(out_dir) / "summary.json"
    # repr spells non-finite floats inf, -inf and nan, words that no key holds
    _write_text(path, text.replace("inf", "Infinity").replace("nan", "NaN"))
    return path


def write_sweep_csv(table: SweepTable, out_dir) -> Path:
    """One row per cell in axis order, 9 significant digits, LF endings.

    The efficiency column is recomputed from the rounded energy column,
    so re-deriving it from the emitted fields reproduces it exactly.
    """
    rows = ["case,layout,n_stops,dwell_s,packets,uav_energy_j,efficiency_pkt_per_kj,feasible"]
    for placement, layout in table.cases:
        for n_stops in table.stop_counts:
            for dwell in table.dwells:
                cell = table.cell(placement, layout, n_stops, dwell)
                energy_text = _sig9(cell.total_uav_energy)
                energy = float(energy_text)
                eff = cell.total_packets / (energy / 1000.0) if energy > 0 else 0.0
                rows.append(
                    f"{placement},{layout},{n_stops},{_sig9(dwell)},"
                    f"{cell.total_packets},{energy_text},{_sig9(eff)},"
                    f"{'true' if cell.feasible else 'false'}"
                )
    path = Path(out_dir) / "sweep.csv"
    _write_text(path, "\n".join(rows) + "\n")
    return path


def _ratio_stats(cell_ratios: dict) -> dict:
    ratios = list(cell_ratios.values())
    return {
        "mean": sum(ratios) / len(ratios),
        "min": min(ratios),
        "max": max(ratios),
        "n_pairs": len(ratios),
    }


def write_sweep_summary(table: SweepTable, out_dir) -> Path:
    """Axis echo, cell counts, and whichever gain metrics are computable."""
    cells = table.cells.values()
    metrics = {}
    paired = clustering_gain_cells(table)
    if paired:
        metrics["clustering_gain"] = {"basis": "p1", **_ratio_stats(paired)}
    try:
        metrics["equal_coverage_gain"] = equal_coverage_gain(table)
    except ValueError:
        pass
    facing = p1_gain_cells(table)
    if facing:
        metrics["placement_gain"] = _ratio_stats(facing)
    peaks = {}
    for placement, layout in table.cases:
        for dwell in table.dwells:
            curve = efficiency_curve(table, placement, layout, dwell)
            if len(curve) >= 3:
                idx, interior = find_peak(curve)
                peaks[f"{placement}{layout}_t{dwell:g}"] = {
                    "n_stops": curve[idx][0],
                    "efficiency_pkt_per_kj": curve[idx][1],
                    "interior": interior,
                }
    obj = {
        "axes": {
            "cases": [p + s for p, s in table.cases],
            "stop_counts": list(table.stop_counts),
            "dwells_s": list(table.dwells),
        },
        "n_cells": len(table.cells),
        "n_feasible": sum(1 for c in cells if c.feasible),
        "n_errors": sum(1 for c in cells if c.error),
        "metrics": metrics,
        "peaks": peaks,
    }
    path = Path(out_dir) / "summary.json"
    _write_json(path, obj)
    return path


def write_manifest(
    config: ScenarioConfig, digest: str, artifacts, out_dir
) -> Path:
    """Reproducibility record: tool version, resolved config, artifact names."""
    obj = {
        "tool": "wpcnsim",
        "version": __version__,
        "config": config_echo(config),
        "config_digest": digest,
        "artifacts": sorted(str(a) for a in artifacts),
    }
    path = Path(out_dir) / "manifest.json"
    _write_json(path, obj)
    return path
