"""Flat key = value configuration files and deterministic result artifacts.

Config files hold one `key = value` per line with `#` comments; every key
has a default, so an empty file is a complete configuration. Artifacts
(sweep.csv, summary.json, pairs.npy, manifest.json) are emitted with LF
endings, '.' decimals, 9-significant-digit numbers, sorted JSON keys, or
exact float bits, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from contextlib import contextmanager
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np

from wpcnsim import __version__
from wpcnsim.mission import (
    ConfigError,
    MissionLedger,
    ScenarioConfig,
    SensorRecord,
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
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")


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
# a stop's entry holds integers alone; its charging pairs go to pairs.npy
_STOP = '{\n      "n_charged": %r,\n      "packets": %r,\n      "stop_id": %r\n    }'
# rows rendered and written at once, so the ledger's text is never held whole
_WRITE_BLOCK = 512
# one row per charging pair of a mission, in pairs.npy
_PAIR = np.dtype([("stop_id", "<i8"), ("sensor_id", "<i8"), ("delivered_j", "<f8")])


def _json_text(text: str) -> str:
    # repr spells non-finite floats inf, -inf and nan, words that no key holds
    return text.replace("inf", "Infinity").replace("nan", "NaN")


def _columns(ledger: MissionLedger) -> tuple:
    """The ledger's columns, laid out as mission._records reads them: a tour's
    own until its records are read, else the records' values, the pairs' as
    int64 and float64 and the rest as the records' own objects (object
    arrays), so that they render as the records would."""
    columns = vars(ledger).get("_columns")
    if columns is not None:
        return columns
    per_stop = ledger.per_stop
    charged = tuple(map(attrgetter("charged"), per_stop))
    return (
        np.fromiter(map(attrgetter("stop_id"), per_stop), object),
        np.fromiter(map(len, charged), np.int64),
        np.fromiter(map(attrgetter("packets"), per_stop), object),
        np.fromiter(chain.from_iterable(charged), np.int64),
        np.fromiter(chain.from_iterable(map(attrgetter("delivered"), per_stop)), np.float64),
        *(np.fromiter(map(attrgetter(f.name), ledger.per_sensor), object)
          for f in dataclasses.fields(SensorRecord)),
    )


def _write_rows(fh, columns, template: str, spell=str) -> None:
    """A json array at indent 4 of one entry per row of the columns, each block
    of rows rendered by one % of the template repeated, as spell(text)."""
    size = len(columns[0])
    if not size:
        fh.write("[]")
        return
    fh.write("[\n    ")
    for start in range(0, size, _WRITE_BLOCK):
        rows = zip(*(column[start : start + _WRITE_BLOCK].tolist() for column in columns))
        values = tuple(chain.from_iterable(rows))
        text = ",\n    ".join([template] * (len(values) // len(columns))) % values
        if start:
            fh.write(",\n    ")
        fh.write(spell(text))
    fh.write("\n  ]")


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
    """Write the ledger with derived efficiency to summary.json, block by block,
    and its charging pairs to pairs.npy; return the summary.json path."""
    stop_id, n_charged, stop_packets, charged, delivered, *accounts = _columns(ledger)
    sensor_id, harvested, spent, residual, packets = accounts
    # NUL, which no rendered number holds, marks the places of the two arrays
    text = _SUMMARY % (
        efficiency(ledger), "true" if ledger.feasible else "false", ledger.flight_energy,
        ledger.hover_energy, ledger.mission_time, "\0", "\0",
        ledger.rx_energy, ledger.total_packets, ledger.total_uav_energy, ledger.wpt_energy,
    )
    head, middle, tail = _json_text(text).split("\0")
    path = Path(out_dir) / "summary.json"
    with _rewrite(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        _write_rows(fh, (harvested, packets, residual, sensor_id, spent), _SENSOR, _json_text)
        fh.write(middle)
        _write_rows(fh, (n_charged, stop_packets, stop_id), _STOP)
        fh.write(tail)
    # every charging pair, by stop and then in charged order
    pairs = np.empty(charged.size, dtype=_PAIR)
    pairs["stop_id"] = np.repeat(stop_id, n_charged)
    pairs["sensor_id"], pairs["delivered_j"] = charged, delivered
    with _rewrite(path.with_name("pairs.npy"), "wb") as fh:
        np.save(fh, pairs, allow_pickle=False)
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
    path.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
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
