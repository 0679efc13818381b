"""Tracing for a measured unit: spans around the package's public calls.

`Tracer.install()` replaces public functions in the namespaces of the
modules that call them with wrappers that time each call as a span and
count its work, so the unit runs the package's own code (the CLI,
`sweep()`, `run_mission`) with the spans at the layer boundaries:

  geometry.size     mission.ellipse_from_perimeter (the cold path sizing)
  layout.sensors    mission.place_sensors_even / place_sensors_paired
  layout.stops      mission.place_stops_facing / place_stops_equal_arcs
  mission.run       mission.run_mission, sweep.run_mission (one per cell)
  mission.validate  mission.validate_config
  mission.tour      mission.simulate_tour
  sweep.table       cli.sweep
  sweep.metrics     sweep.efficiency, and the efficiency, gain and peak
                    functions the config_io writers call
  config_io.parse   cli.parse_config_text, config_io.parse_config_text
  config_io.write   cli's and config_io's artifact writers
  cli.main          cli.main

Work the package does inside those calls through private helpers is
measured by replaying a public function on the exact inputs the
wrappers captured:

  geometry.invert   `poses_at_arcs` on the arcs of every sensor field and
                    stop plan that missed its placement cache
  rf_link.matrix    `received_power` + `harvest_rate` on the stop-sensor
                    distances and incidences of every tour

The replays run in report(), after the unit's measured work: run in
between, they changed the state (the allocator's, at least) that the
next calls of the workload found, and made them faster than untraced.
So the unit's wall time is its own work plus the wrappers' cost. The
mission workloads call neither the CLI nor `sweep()`, so their cli and
sweep layers read 0.

A span is (layer, start, end, parent span, request); the request is the
mission or grid cell it serves, and a replay's parent is the span whose
inputs it replays. A layer's seconds are the sum of its spans'
durations: nested layers count in their callers' time too.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import wpcnsim.cli
from wpcnsim import config_io, mission
from wpcnsim.geometry import poses_at_arcs
from wpcnsim.rf_link import harvest_rate, received_power

# the package exports a function named sweep over its module of that name
sweep = importlib.import_module("wpcnsim.sweep")

COUNTS = (
    "geometry.size_calls",
    "geometry.invert_calls",
    "geometry.invert_arcs",
    "layout.sensors_calls",
    "layout.sensors_hits",
    "layout.stops_calls",
    "layout.stops_hits",
    "rf_link.pairs",
    "rf_link.charging_pairs",
    "mission.tour_calls",
    "mission.records",
    "mission.packets",
    "sweep.cells",
    "sweep.error_cells",
    "sweep.infeasible_cells",
    "config_io.files_written",
    "config_io.bytes_written",
)
PLACERS = (
    ("sensors", "place_sensors_even"),
    ("sensors", "place_sensors_paired"),
    ("stops", "place_stops_facing"),
    ("stops", "place_stops_equal_arcs"),
)
# config_io's bindings: the writers compute efficiency, gains and peaks
METRIC_FUNCTIONS = (
    "efficiency",
    "clustering_gain_cells",
    "p1_gain_cells",
    "equal_coverage_gain",
    "efficiency_curve",
    "find_peak",
)


class Tracer:
    """Spans and counts of one unit; kept in memory until report()."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.request = "unit"
        self.placers = {}
        # captured replay inputs, each with the (parent span, request) it came from
        self.inversions = []
        self.links = []

    @contextmanager
    def span(self, layer: str, origin=None):
        """Time a span; a replay passes the (parent, request) of its inputs."""
        index = len(self.spans)
        parent, request = origin or (self.stack[-1] if self.stack else None, self.request)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (layer, start, end, parent, request)

    def last_span(self) -> tuple:
        """(parent, request) for a replay of the call that just returned.

        Placers and simulate_tour call no wrapped function, so their own
        span is the last one opened.
        """
        return len(self.spans) - 1, self.request

    def wrap(self, module, name: str, layer: str, after=None) -> None:
        """Replace module.name by a spanned call; after(args, kwargs, result) counts."""
        original = getattr(module, name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, name, traced)

    def install(self) -> None:
        self.wrap(mission, "ellipse_from_perimeter", "geometry.size", self.sized)
        for kind, name in PLACERS:
            self.wrap_placer(kind, name)
        self.wrap(mission, "validate_config", "mission.validate")
        self.wrap(mission, "simulate_tour", "mission.tour", self.toured)
        self.wrap(mission, "run_mission", "mission.run")
        self.wrap_cells()
        self.wrap(wpcnsim.cli, "sweep", "sweep.table", self.swept)
        self.wrap(sweep, "efficiency", "sweep.metrics")
        for name in METRIC_FUNCTIONS:
            self.wrap(config_io, name, "sweep.metrics")
        self.wrap(wpcnsim.cli, "parse_config_text", "config_io.parse")
        self.wrap(config_io, "parse_config_text", "config_io.parse")
        for name in ("write_sweep_csv", "write_sweep_summary", "write_manifest"):
            self.wrap(wpcnsim.cli, name, "config_io.write", self.wrote)
        self.wrap(config_io, "write_mission_summary", "config_io.write", self.wrote)
        self.wrap(wpcnsim.cli, "main", "cli.main")

    def wrap_placer(self, kind: str, name: str) -> None:
        """A placer's span, its cache hit or miss, and on a miss its inputs to replay."""
        original = getattr(mission, name)
        self.placers[name] = original

        @functools.wraps(original)
        def traced(path, *args):
            misses = original.cache_info().misses
            with self.span(f"layout.{kind}"):
                placed = original(path, *args)
            self.counts[f"layout.{kind}_calls"] += 1
            if original.cache_info().misses == misses:
                self.counts[f"layout.{kind}_hits"] += 1
            elif placed.arc_coords.size:
                self.inversions.append((self.last_span(), path, placed.arc_coords))
            return placed

        setattr(mission, name, traced)

    def wrap_cells(self) -> None:
        """Each sweep cell's run_mission call is a request of its own."""
        self.wrap(sweep, "run_mission", "mission.run")
        traced = sweep.run_mission
        cells = 0

        @functools.wraps(traced)
        def cell(config):
            nonlocal cells
            outer, self.request = self.request, f"cell-{cells}"
            cells += 1
            try:
                return traced(config)
            finally:
                self.request = outer

        sweep.run_mission = cell

    def sized(self, args, kwargs, path) -> None:
        self.counts["geometry.size_calls"] += 1

    def toured(self, args, kwargs, ledger) -> None:
        config, _, field, plan = args
        self.counts["mission.tour_calls"] += 1
        self.counts["mission.records"] += len(ledger.per_stop) + len(ledger.per_sensor)
        self.counts["mission.packets"] += ledger.total_packets
        if plan.n_stops:
            self.links.append((self.last_span(), config.link, plan.positions, field.positions, field.normals))

    def swept(self, args, kwargs, table) -> None:
        cells = table.cells.values()
        self.counts["sweep.cells"] += len(table.cells)
        self.counts["sweep.error_cells"] += sum(1 for cell in cells if cell.error)
        self.counts["sweep.infeasible_cells"] += sum(1 for cell in cells if not cell.feasible)

    def wrote(self, args, kwargs, path) -> None:
        self.counts["config_io.files_written"] += 1
        self.counts["config_io.bytes_written"] += Path(path).stat().st_size

    def replay(self) -> None:
        """Run the captured inputs through the public functions, one span each."""
        for origin, path, arcs in self.inversions:
            with self.span("geometry.invert", origin):
                poses_at_arcs(path, arcs)
            self.counts["geometry.invert_calls"] += 1
            self.counts["geometry.invert_arcs"] += arcs.size
        for origin, link, stops, sensors, normals in self.links:
            # the stop-sensor geometry is input preparation; the span
            # covers only the rf_link calls
            delta = stops[:, None, :] - sensors[None, :, :]
            dist = np.sqrt(np.einsum("kij,kij->ki", delta, delta))
            cos_inc = np.einsum("kij,ij->ki", delta, normals) / dist
            incidence = np.arccos(np.clip(cos_inc, -1.0, 1.0))
            del delta, cos_inc
            with self.span("rf_link.matrix", origin):
                rate = harvest_rate(link, received_power(link, dist, incidence))
            self.counts["rf_link.pairs"] += rate.size
            self.counts["rf_link.charging_pairs"] += int(np.count_nonzero(rate))
        self.inversions, self.links = [], []

    def layer_seconds(self) -> dict:
        totals = {}
        for layer, start, end, _, _ in self.spans:
            totals[layer] = totals.get(layer, 0.0) + (end - start)
        return totals

    def report(self, trace_file: Path) -> dict:
        """Replay, then write the spans and counts; return what run.py reports."""
        self.replay()
        seconds = self.layer_seconds()
        t0 = self.spans[0][1] if self.spans else 0.0
        trace = {
            "span_fields": ["layer", "start_s", "end_s", "parent", "request"],
            "spans": [
                (layer, a - t0, b - t0, parent, request)
                for layer, a, b, parent, request in self.spans
            ],
            "counts": self.counts,
            "cache_info": {name: f.cache_info()._asdict() for name, f in self.placers.items()},
            "layer_seconds": seconds,
        }
        trace_file.write_text(json.dumps(trace), encoding="utf-8")
        return {"counts": self.counts, "layer_seconds": seconds}
