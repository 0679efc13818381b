"""Single-mission execution: fly the loop, hover, charge, collect.

The drone flies one full loop at cruise speed and hovers at each stop
for the dwell time. The first phase_split share of the dwell radiates
power; every sensor whose received power clears the harvest threshold
banks energy for that whole phase. The remainder of the dwell polls
exactly those sensors, which convert stored energy into measure-and-send
packet units while the drone pays a fixed receive cost per packet.

Only stop-sensor pairs within the boresight harvest reach are evaluated,
so a tour costs what its pairs in reach cost, not stops x sensors. Each
sensor's sums run over its own visits in stop order, and records list
sensors by ascending id, so repeated runs produce bit-identical ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

import numpy as np

from wpcnsim.geometry import EllipseSpec, ellipse_from_perimeter, equidistant_arcs
from wpcnsim.layout import (
    SensorField,
    StopPlan,
    place_sensors_even,
    place_sensors_paired,
    place_stops_equal_arcs,
    place_stops_facing,
)
from wpcnsim.rf_link import (
    EnergyCosts,
    LinkParams,
    harvest_rate,
    max_boresight_harvest_range,
    packets_supported,
    received_power,
)

__all__ = [
    "ScenarioConfig",
    "StopRecord",
    "SensorRecord",
    "MissionLedger",
    "ConfigError",
    "validate_config",
    "endurance",
    "max_stops",
    "run_mission",
    "simulate_tour",
]

_DEFAULT_LINK = LinkParams(
    frequency=2.3e9,
    tx_power=2.404,
    tx_gain_dbi=9.3,
    rx_gain_dbi=8.0,
    rf_dc_efficiency=0.72,
    harvest_threshold=1e-3,
    angle_exponent=1.0,
)

_DEFAULT_COSTS = EnergyCosts(e_measurement=0.01, e_tx_packet=0.01, e_rx_packet=0.01)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one mission, defaulting to the reference scenario.

    layout: "s1" evenly spread sensors, "s2" sensors in side-by-side pairs.
    placement: "p1" stops face the sensors, "p2" stops at equal arc sectors.
    wpt_draw_mode: "included" folds the power transmitter into the flight
    power draw; "additional" bills tx_power separately during charging.
    """

    link: LinkParams = _DEFAULT_LINK
    costs: EnergyCosts = _DEFAULT_COSTS
    n_sensors: int = 100
    layout: str = "s1"
    placement: str = "p1"
    n_stops: int = 100
    dwell_time: float = 20.0
    phase_split: float = 0.5
    uav_flight_power: float = 170.3
    uav_battery: float = 286200.0
    cruise_speed: float = 6.25
    path_perimeter: float = 500.0
    standoff: float = 1.0
    aspect_ratio: float = 5.0
    cluster_spacing: float = 0.1
    wpt_draw_mode: str = "included"
    p2_phase: float = 0.0


@dataclass(frozen=True)
class StopRecord:
    """What happened during one hover: who charged, what they banked, packets in."""

    stop_id: int
    charged: tuple
    delivered: tuple
    packets: int


@dataclass(frozen=True)
class SensorRecord:
    """Energy account of one sensor over the whole mission."""

    sensor_id: int
    harvested: float
    spent: float
    residual: float
    packets: int


@dataclass(frozen=True)
class MissionLedger:
    """Joule-exact accounting of one mission.

    total_uav_energy is flight + hover + wpt + rx in exactly that order;
    feasible means the total fits the battery.
    """

    total_uav_energy: float
    flight_energy: float
    hover_energy: float
    wpt_energy: float
    rx_energy: float
    per_stop: tuple
    per_sensor: tuple
    total_packets: int
    feasible: bool
    mission_time: float


class ConfigError(ValueError):
    """Invalid scenario configuration; .errors lists every violation."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = tuple(errors)


@lru_cache(maxsize=32)
def _flight_path(aspect_ratio: float, perimeter: float) -> EllipseSpec:
    return ellipse_from_perimeter(aspect_ratio, perimeter)


def _leaves(config: ScenarioConfig):
    """(owner, key, value) per config-file key; owner is "link", "costs" or ""."""
    for field in fields(config):
        value = getattr(config, field.name)
        if is_dataclass(value):
            for sub in fields(value):
                yield field.name, sub.name, getattr(value, sub.name)
        else:
            yield "", field.name, value


def _geometry(config: ScenarioConfig):
    """The flight path, sensor field and stop plan that the mission flies.

    Each stage runs once its inputs are built and its ValueError becomes one
    violation, led by the config key it names. The p2 phase is checked under
    every placement, because a sweep turns p1 bases into p2 cells.
    """
    errors = []

    def attempt(keys, build, *args):
        # keys maps the builder's parameter names to the config keys they
        # come from; a message that leads with none of them names them all
        if any(arg is None for arg in args):
            return None
        try:
            return build(*args)
        except ValueError as err:
            key = keys.get(str(err).split(" ", 1)[0], ", ".join(keys.values()))
            errors.append(f"{key}: {err}")
            return None

    path = attempt(
        {"aspect_ratio": "aspect_ratio", "target_perimeter": "path_perimeter"},
        _flight_path,
        config.aspect_ratio,
        config.path_perimeter,
    )
    if config.layout == "s1":
        field = attempt(
            {"standoff": "standoff"}, place_sensors_even, path, config.n_sensors, config.standoff
        )
    else:
        field = attempt(
            {"pair_spacing": "cluster_spacing", "standoff": "standoff"},
            place_sensors_paired,
            path,
            config.n_sensors,
            config.cluster_spacing,
            config.standoff,
        )
    phase = attempt({"phase": "p2_phase"}, equidistant_arcs, path, 1, config.p2_phase)
    plan = None
    if config.placement == "p1":
        plan = attempt({"n_stops": "n_stops"}, place_stops_facing, path, field, config.n_stops)
    elif phase is not None:
        plan = attempt(
            {"n_stops": "n_stops"}, place_stops_equal_arcs, path, config.n_stops, config.p2_phase
        )
    if errors:
        raise ConfigError(errors)
    return path, field, plan


def _value_errors(config: ScenarioConfig) -> list:
    """Violations of the rules on values: tokens, counts, signs, finite numbers and sums."""
    errors = [
        f"{key} must be finite, got {value}"
        for _, key, value in _leaves(config)
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if config.layout not in ("s1", "s2"):
        errors.append(f"layout must be s1 or s2, got {config.layout!r}")
    if config.placement not in ("p1", "p2"):
        errors.append(f"placement must be p1 or p2, got {config.placement!r}")
    if config.wpt_draw_mode not in ("included", "additional"):
        errors.append(
            f"wpt_draw_mode must be included or additional, got {config.wpt_draw_mode!r}"
        )
    if config.n_sensors < 1:
        errors.append(f"n_sensors must be >= 1, got {config.n_sensors}")
    elif config.layout == "s2" and config.n_sensors % 2:
        errors.append(f"paired layout needs an even sensor count, got {config.n_sensors}")
    if config.n_stops < 0:
        errors.append(f"n_stops must be >= 0, got {config.n_stops}")
    if not config.dwell_time > 0:
        errors.append(f"dwell_time must be > 0, got {config.dwell_time}")
    if not 0.0 < config.phase_split < 1.0:
        errors.append(f"phase_split must lie in (0, 1), got {config.phase_split}")
    if not config.uav_flight_power > 0:
        errors.append(f"uav_flight_power must be > 0, got {config.uav_flight_power}")
    if config.uav_battery < 0:
        errors.append(f"uav_battery must be >= 0, got {config.uav_battery}")
    if not config.cruise_speed > 0:
        errors.append(f"cruise_speed must be > 0, got {config.cruise_speed}")
    unit = config.costs.packet_unit
    if unit <= 0.0:
        errors.append(f"e_measurement + e_tx_packet must be > 0, got {unit}")
    if not errors:
        # finite values can still combine beyond float range: the packet
        # unit, and the energy of a mission without stops, which efficiency
        # divides by and no mission undercuts
        if unit == math.inf:
            errors.append(f"e_measurement + e_tx_packet must be finite, got {unit}")
        if config.path_perimeter > 0.0 and _energy(config, 0, 0)[-1] == 0.0:
            errors.append(
                f"uav_flight_power: {config.uav_flight_power} W over one loop of "
                f"{config.path_perimeter} m at {config.cruise_speed} m/s underflows to 0 J"
            )
    return errors


def _standoff_rate(config: ScenarioConfig) -> float:
    """Boresight harvest rate at the standoff, which no visit can beat.

    No sensor is nearer a stop than standoff; a rate beyond float range
    overflows to inf.
    """
    with np.errstate(over="ignore"):
        power = received_power(config.link, [config.standoff], [0.0])
    return float(harvest_rate(config.link, power)[0])


def _packet_bound(config: ScenarioConfig, best: float) -> list:
    """The violation of a mission that could count past 2**53 packets, if any.

    best is _standoff_rate(config); above 2**53 packets, float arithmetic
    loses whole packets.
    """
    unit = config.costs.packet_unit
    charge = config.n_sensors * config.n_stops * config.dwell_time * config.phase_split
    bound = best * charge / unit
    if bound >= 2.0**53:
        return [
            f"a mission could count up to {bound:.3g} packets of e_measurement + "
            f"e_tx_packet = {unit} J, beyond the 2**53 that floats count exactly"
        ]
    return []


def validate_config(config: ScenarioConfig) -> list:
    """Check every invariant and return all violations, not just the first.

    Once the rules on single values hold (tokens, counts, signs, finite
    numbers), the geometry is built as run_mission builds it, so the path
    limits hold against the realized path; each failing stage adds a message.
    Last, the packets a mission could count must stay exact in floats.
    """
    errors = _value_errors(config)
    if not errors:
        try:
            _geometry(config)
        except ConfigError as err:
            errors.extend(err.errors)
    if not errors:
        errors.extend(_packet_bound(config, _standoff_rate(config)))
    return errors


def endurance(config: ScenarioConfig) -> float:
    """Mission time ceiling in seconds: battery over flight power."""
    if not config.uav_flight_power > 0:
        raise ValueError(f"uav_flight_power must be > 0, got {config.uav_flight_power}")
    return config.uav_battery / config.uav_flight_power


def max_stops(config: ScenarioConfig, dwell: float) -> int:
    """Most stops that fit the battery after one full loop at cruise speed."""
    if not dwell > 0:
        raise ValueError(f"dwell must be > 0, got {dwell}")
    if not config.cruise_speed > 0:
        raise ValueError(f"cruise_speed must be > 0, got {config.cruise_speed}")
    flight = config.path_perimeter / config.cruise_speed * config.uav_flight_power
    budget = config.uav_battery - flight
    if budget < 0.0:
        return 0
    per_stop = dwell * config.uav_flight_power
    if config.wpt_draw_mode == "additional":
        per_stop += dwell * config.phase_split * config.link.tx_power
    return int(budget // per_stop)


def run_mission(config: ScenarioConfig) -> MissionLedger:
    """Build the scenario's layout and stop plan, then simulate the tour."""
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    return simulate_tour(config, *_geometry(config))


def _charging_pairs(link: LinkParams, field: SensorField, plan: StopPlan):
    """(stop, sensor, rate) of every pair that charges, by stop then sensor id.

    Only sensors within the boresight harvest reach of a stop can charge
    there, so each stop's candidates are the window |dx| <= reach on the
    sensors sorted by x; the exact budget runs on those rows alone.
    """
    order = np.argsort(field.positions[:, 0], kind="stable")
    xs = field.positions[order, 0]
    stop_xs = plan.positions[:, 0]
    span = max(np.abs(xs).max(initial=0.0), np.abs(stop_xs).max(initial=0.0))
    # the threshold test runs on a budget rounded by a few ulps of its dB
    # terms, which moves the distance where it passes by far less than the
    # 1e-6 relative slack; the window ends and the x deltas round by at most
    # an ulp of the largest coordinate, which 4 spacings cover
    reach = max_boresight_harvest_range(link) * (1.0 + 1e-6) + 4.0 * np.spacing(span)
    lo = np.searchsorted(xs, stop_xs - reach, side="left")
    counts = np.searchsorted(xs, stop_xs + reach, side="right") - lo
    stop = np.repeat(np.arange(plan.n_stops), counts)
    first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    sensor = order[first + np.arange(stop.size)]

    delta = plan.positions[stop] - field.positions[sensor]
    dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    cos_inc = np.einsum("ij,ij->i", delta, field.normals[sensor]) / dist
    incidence = np.arccos(np.clip(cos_inc, -1.0, 1.0))
    rate = harvest_rate(link, received_power(link, dist, incidence))
    charging = rate > 0.0
    stop, sensor, rate = stop[charging], sensor[charging], rate[charging]
    by_stop = np.lexsort((sensor, stop))
    return stop[by_stop], sensor[by_stop], rate[by_stop]


def _settle(sensor: np.ndarray, banked: np.ndarray, n: int, costs: EnergyCosts):
    """Settle n sensor accounts over their charging visits.

    sensor and banked are per pair, each account's visits in the order it
    was visited. Returns per-account harvested, spent and packets, and
    packets per pair.
    """
    unit = costs.packet_unit
    # an account depends only on its own visits, in order: round r
    # settles every account's r-th visit at once
    visits = np.bincount(sensor, minlength=n)
    by_sensor = np.argsort(sensor, kind="stable")
    ordinal = np.empty(sensor.size, dtype=np.int64)
    ordinal[by_sensor] = np.arange(sensor.size) - np.repeat(np.cumsum(visits) - visits, visits)
    by_round = np.argsort(ordinal, kind="stable")
    round_ends = np.cumsum(np.bincount(ordinal)).tolist()
    harvested = np.zeros(n)
    spent = np.zeros(n)
    packets = np.zeros(n, dtype=np.int64)
    pair_packets = np.zeros(sensor.size, dtype=np.int64)
    for a, b in zip([0] + round_ends, round_ends):
        pairs = by_round[a:b]
        ids = sensor[pairs]
        harvested[ids] += banked[pairs]
        count = packets_supported(harvested[ids] - spent[ids], costs)
        # spending may not push the account past what was harvested
        while True:
            over = (count > 0) & (spent[ids] + count * unit > harvested[ids])
            if not over.any():
                break
            count -= over
        spent[ids] += count * unit
        packets[ids] += count
        pair_packets[pairs] = count
    return harvested, spent, packets, pair_packets


def _energy(config: ScenarioConfig, n_stops: int, total_packets: int):
    """(flight, hover, wpt, rx, total) joules; total adds them in that order."""
    flight = config.path_perimeter / config.cruise_speed * config.uav_flight_power
    hover = (n_stops * config.dwell_time) * config.uav_flight_power
    if config.wpt_draw_mode == "additional":
        wpt = (n_stops * (config.dwell_time * config.phase_split)) * config.link.tx_power
    else:
        wpt = 0.0
    rx = total_packets * config.costs.e_rx_packet
    return flight, hover, wpt, rx, flight + hover + wpt + rx


def simulate_tour(
    config: ScenarioConfig, path: EllipseSpec, field: SensorField, plan: StopPlan
) -> MissionLedger:
    """Simulate one tour over an explicit field and stop plan.

    Lower-level entry point for handcrafted plans; run_mission is the
    usual front door. The plan places the stops and config.dwell_time
    sets how long the drone hovers at each. A stop that sits on a sensor
    raises ValueError.
    """
    k, n = plan.n_stops, field.n_sensors
    stop, sensor, rate = _charging_pairs(config.link, field, plan)
    banked = rate * (config.dwell_time * config.phase_split)
    harvested, spent, packets, pair_packets = _settle(sensor, banked, n, config.costs)

    stop_ends = np.searchsorted(stop, np.arange(1, k + 1)).tolist()
    pair_sums = [0] + np.cumsum(pair_packets).tolist()
    charged, delivered = sensor.tolist(), banked.tolist()
    per_stop = tuple(
        StopRecord(
            stop_id=j,
            charged=tuple(charged[a:b]),
            delivered=tuple(delivered[a:b]),
            packets=pair_sums[b] - pair_sums[a],
        )
        for j, (a, b) in enumerate(zip([0] + stop_ends, stop_ends))
    )
    per_sensor = tuple(
        SensorRecord(sensor_id=i, harvested=h, spent=s, residual=r, packets=p)
        for i, (h, s, r, p) in enumerate(
            zip(harvested.tolist(), spent.tolist(), (harvested - spent).tolist(), packets.tolist())
        )
    )
    total_packets = int(packets.sum())
    flight, hover, wpt, rx, total = _energy(config, k, total_packets)
    return MissionLedger(
        total_uav_energy=total,
        flight_energy=flight,
        hover_energy=hover,
        wpt_energy=wpt,
        rx_energy=rx,
        per_stop=per_stop,
        per_sensor=per_sensor,
        total_packets=total_packets,
        feasible=total <= config.uav_battery,
        mission_time=config.path_perimeter / config.cruise_speed + k * config.dwell_time,
    )
