"""Flat key = value configuration files and deterministic result artifacts.

Config files hold one `key = value` per line with `#` comments; every key
has a default, so an empty file is a complete configuration. Text artifacts
(sweep.csv and the summary.json and manifest.json files) are emitted with LF
endings, '.' decimals, 9-significant-digit numbers or a float's repr, and
sorted JSON keys; a mission's tables (sensors.npy, stops.npy, pairs.npy) are
little-endian structured arrays that hold the ledger's exact bits. So
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from wpcnsim import __version__
from wpcnsim.mission import (
    ConfigError,
    MissionLedger,
    ScenarioConfig,
    _TABLES,
    _leaves,
    validate_config,
)
from wpcnsim.sweep import (
    SweepTable,
    _per_kilojoule,
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
    top = {}
    for key, value in values.items():
        owner = _SCHEMA[key][0]
        if not owner:
            top[key] = value
            continue
        # one key at a time, so that every rejected link or cost key is reported
        try:
            top[owner] = dataclasses.replace(top.get(owner, getattr(base, owner)), **{key: value})
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
    import hashlib  # here, so that importing the package loads no hash library
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _sig9(x: float) -> str:
    return f"{x:.9g}"


def _dwell_text(dwell: float) -> str:
    """Nine digits of a dwell, or its repr where nine digits read back as another."""
    text = _sig9(dwell)
    return text if float(text) == dwell else repr(dwell)


def _write_json(path: Path, obj) -> None:
    with _rewrite(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# a mission's artifacts, as write_mission_summary writes them and the manifest lists them
_MISSION_ARTIFACTS = ("summary.json", *(f"{name}.npy" for name in _TABLES))


@contextmanager
def _rewrite(path: Path, mode: str, **kwargs):
    """path opened for writing and cut at the written length: over a file
    that holds data, truncating at open costs several times more."""

    def opener(name, flags):
        return os.open(name, flags & ~os.O_TRUNC, 0o666)

    with open(path, mode, opener=opener, **kwargs) as fh:
        yield fh
        fh.truncate()


def write_mission_summary(ledger: MissionLedger, out_dir) -> Path:
    """Write the ledger's scalars with derived efficiency to summary.json and
    each of its tables to <name>.npy; return the summary.json path."""
    path = Path(out_dir) / "summary.json"
    _write_json(path, {
        "efficiency_pkt_per_kj": efficiency(ledger),
        "feasible": ledger.feasible,
        "flight_energy_j": ledger.flight_energy,
        "hover_energy_j": ledger.hover_energy,
        "mission_time_s": ledger.mission_time,
        "rx_energy_j": ledger.rx_energy,
        "total_packets": ledger.total_packets,
        "total_uav_energy_j": ledger.total_uav_energy,
        "wpt_energy_j": ledger.wpt_energy,
    })
    for name in _TABLES:
        with _rewrite(path.with_name(f"{name}.npy"), "wb") as fh:
            np.save(fh, getattr(ledger, name), allow_pickle=False)
    return path


def write_sweep_csv(table: SweepTable, out_dir) -> Path:
    """One row per cell in axis order, 9 significant digits, LF endings.

    The efficiency column is recomputed from the rounded energy column,
    so re-deriving it from the emitted fields reproduces it exactly.
    """
    rows = ["case,layout,n_stops,dwell_s,packets,uav_energy_j,efficiency_pkt_per_kj,feasible"]
    for (placement, layout, n_stops, dwell), cell in table.cells.items():
        energy_text = _sig9(cell.total_uav_energy)
        energy = float(energy_text)
        eff = _per_kilojoule(cell.total_packets, energy) if energy > 0 else 0.0
        rows.append(
            f"{placement},{layout},{n_stops},{_dwell_text(dwell)},"
            f"{cell.total_packets},{energy_text},{_sig9(eff)},"
            f"{'true' if cell.feasible else 'false'}"
        )
    path = Path(out_dir) / "sweep.csv"
    with _rewrite(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
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
                peaks[f"{placement}{layout}_t{_dwell_text(dwell)}"] = {
                    "n_stops": curve[idx][0],
                    "efficiency_pkt_per_kj": curve[idx][1],
                    "interior": interior,
                }
    obj = {
        "axes": {
            "cases": [p + s for p, s in table.cases],
            "stop_counts": list(table.stop_counts),
            # json has no non-finite numbers: those take sweep.csv's spelling
            "dwells_s": [t if math.isfinite(t) else _dwell_text(t) for t in table.dwells],
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
