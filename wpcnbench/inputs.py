"""Seeded workload inputs, written as `key = value` config text.

The package sees only this text, the same format `wpcnsim simulate
--config` and `wpcnsim sweep --config` read. Generators use the standard
library's `random.Random`, whose float and choice streams are stable
across Python versions, so a seed names the same inputs everywhere.
"""

from __future__ import annotations

import random

CASES = (("p1", "s1"), ("p1", "s2"), ("p2", "s1"), ("p2", "s2"))

# Missions per measured unit (one fresh interpreter each): `wall_s` is the
# median batch time, so a batch is large enough that its mix of mission
# sizes repeats from batch to batch, and small enough that a run holds
# several batches.
BATCH = {"random-missions": 100, "large-field": 4}


def render(params: dict) -> str:
    lines = ["# generated benchmark input"]
    for key, value in params.items():
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def grid_params(seed: int) -> dict:
    """Base config of the study grid; seed 0 is the reference scenario.

    Other seeds move the link budget, battery, flight and packet prices
    and the path's aspect ratio around the reference values. The sensor
    count, perimeter and standoff stay put, so every seed sweeps the same
    776 cells at about the same cost.
    """
    if seed == 0:
        return {}
    rng = random.Random(seed)
    return {
        "tx_power": rng.uniform(2.2, 2.6),
        "uav_battery": rng.uniform(260000.0, 310000.0),
        "uav_flight_power": rng.uniform(155.0, 185.0),
        "cruise_speed": rng.uniform(5.5, 7.0),
        "e_measurement": rng.uniform(0.008, 0.012),
        "e_tx_packet": rng.uniform(0.008, 0.012),
        "e_rx_packet": rng.uniform(0.008, 0.012),
        "phase_split": rng.uniform(0.4, 0.6),
        "aspect_ratio": rng.uniform(4.5, 5.5),
        "wpt_draw_mode": rng.choice(("included", "additional")),
        "p2_phase": rng.uniform(0.0, 500.0),
    }


def _random_mission(rng: random.Random) -> dict:
    # aspect <= 5 with perimeter >= 200 keeps the minimum radius of
    # curvature above 1.9 m, clear of the 1 m default standoff
    perimeter = rng.uniform(200.0, 800.0)
    layout = rng.choice(("s1", "s2"))
    n_sensors = rng.randint(10, 400)
    if layout == "s2":
        n_sensors += n_sensors % 2
    return {
        "path_perimeter": perimeter,
        "aspect_ratio": rng.uniform(1.0, 5.0),
        "layout": layout,
        "placement": rng.choice(("p1", "p2")),
        "n_sensors": n_sensors,
        "n_stops": rng.randint(1, 200),
        "dwell_time": rng.uniform(5.0, 100.0),
        # the whole range validate_config accepts, seam included
        "p2_phase": rng.uniform(0.0, perimeter),
    }


def _large_mission(rng: random.Random, index: int) -> dict:
    placement, layout = CASES[index % len(CASES)]
    perimeter = rng.uniform(480.0, 520.0)
    return {
        "path_perimeter": perimeter,
        "aspect_ratio": rng.uniform(4.0, 6.0),
        "layout": layout,
        "placement": placement,
        "n_sensors": 5000,
        "n_stops": 1000,
        "dwell_time": 20.0,
        "p2_phase": rng.uniform(0.0, perimeter),
    }


def mission_stream(workload: str, seed: int):
    """Endless stream of mission parameters; no two share a flight path.

    Seed 0 opens with the reference scenario: all defaults on
    random-missions, the reference path on large-field.
    """
    rng = random.Random(seed)
    index = 0
    while True:
        if workload == "random-missions":
            params = {} if seed == index == 0 else _random_mission(rng)
        else:
            params = _large_mission(rng, index)
            if seed == index == 0:
                params.update(path_perimeter=500.0, aspect_ratio=5.0, p2_phase=0.0)
        yield params
        index += 1
