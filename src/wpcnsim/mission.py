"""Single-mission execution: fly the loop, hover, charge, collect.

The drone flies one full loop at cruise speed and hovers at each stop
for the dwell time. The first phase_split share of the dwell radiates
power; every sensor whose received power clears the harvest threshold
banks energy for that whole phase. The remainder of the dwell polls
exactly those sensors, which convert stored energy into measure-and-send
packet units while the drone pays a fixed receive cost per packet.

validate_config, run_mission and each sweep case check and plan in one
pass, _case, which a config validated and then run takes once. Each
sensor's sums run over its own visits in stop order, and records list
sensors by ascending id, so repeated runs produce bit-identical ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import lru_cache, partial

import numpy as np

from wpcnsim.geometry import EllipseSpec, ellipse_from_perimeter, equidistant_arcs
from wpcnsim.layout import (
    SensorField,
    StopPlan,
    _facing_arcs,
    _stop_arcs_error,
    _stop_positions,
    _target_arcs,
    place_sensors_even,
    place_sensors_paired,
    place_stops_equal_arcs,  # noqa: F401 -- wpcnbench/tracing.py wraps mission's placers
    place_stops_facing,  # noqa: F401 -- wpcnbench/tracing.py wraps mission's placers
)
from wpcnsim.rf_link import (
    EnergyCosts,
    LinkParams,
    _budget,
    harvest_rate,
    max_boresight_harvest_range,
    packets_supported,
    wavelength,
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

# most candidates, over both sides' x-windows, the pair kernel evaluates at once
_BLOCK = 2**15


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


# a ledger's tables, as sensors.npy, stops.npy and pairs.npy hold them: a row
# per sensor by id, per stop in tour order, per charging pair by stop and id
_TABLES = {
    "sensors": np.dtype([("sensor_id", "<i8"), ("harvested_j", "<f8"), ("spent_j", "<f8"),
                         ("residual_j", "<f8"), ("packets", "<i8")]),
    "stops": np.dtype([("stop_id", "<i8"), ("n_charged", "<i8"), ("packets", "<i8")]),
    "pairs": np.dtype([("stop_id", "<i8"), ("sensor_id", "<i8"), ("delivered_j", "<f8")]),
}
# a scalar field's type by its annotation, which postponed evaluation leaves a string
_SCALARS = {"float": float, "int": int, "bool": bool}


@dataclass(frozen=True, eq=False)
class MissionLedger:
    """Joule-exact accounting of one mission.

    total_uav_energy is flight + hover + wpt + rx in exactly that order;
    feasible means the total fits the battery. The scalars are Python's;
    the tables are read-only arrays of _TABLES' dtypes, from anything
    np.asarray takes. == and hash compare the scalars and the tables' bytes.
    """

    total_uav_energy: float
    flight_energy: float
    hover_energy: float
    wpt_energy: float
    rx_energy: float
    sensors: np.ndarray
    stops: np.ndarray
    pairs: np.ndarray
    total_packets: int
    feasible: bool
    mission_time: float

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name in _TABLES:
                # no copy of a table of its own dtype, and the caller's stays writable
                value = np.asarray(value, _TABLES[field.name]).view()
                value.flags.writeable = False
            else:
                value = _SCALARS[field.type](value)
            object.__setattr__(self, field.name, value)

    def __reduce__(self):
        # through the constructor, so that the tables come back read-only
        return MissionLedger, tuple(getattr(self, field.name) for field in fields(self))

    def _key(self) -> tuple:
        values = (getattr(self, field.name) for field in fields(self))
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, MissionLedger) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def per_stop(self) -> tuple:
        """A StopRecord per stop, built from the tables on each read."""
        ends = np.cumsum(self.stops["n_charged"]).tolist()
        charged, delivered = self.pairs["sensor_id"].tolist(), self.pairs["delivered_j"].tolist()
        return tuple(StopRecord(i, tuple(charged[b - n:b]), tuple(delivered[b - n:b]), packets)
                     for (i, n, packets), b in zip(self.stops.tolist(), ends))

    @property
    def per_sensor(self) -> tuple:
        """A SensorRecord per sensor, built from the table on each read."""
        return tuple(SensorRecord(*row) for row in self.sensors.tolist())


class ConfigError(ValueError):
    """Invalid scenario configuration; .errors lists every violation."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = tuple(errors)


@lru_cache(maxsize=1)
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


def _stages(config: ScenarioConfig):
    """(violations, path, field, rule): a case's geometry and its stop arcs.

    Each stage runs once its inputs are built and its ValueError becomes one
    violation, led by the config key it names; a stage whose inputs failed
    is skipped and left None. rule(n_stops >= 1) gives a plan's sorted arcs.
    The p2 phase is checked under every placement, because a sweep turns p1
    bases into p2 cells.
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
    rule = None
    if config.placement == "p1" and field is not None:
        rule = partial(_facing_arcs, _target_arcs(field, path.perimeter), path.perimeter)
    elif config.placement == "p2" and phase is not None:
        rule = partial(equidistant_arcs, path, phase=config.p2_phase)
    return errors, path, field, rule


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
        # unit, the wavelength, and the energy of a mission without stops,
        # in the kilojoules that efficiency divides by and no mission undercuts
        if unit == math.inf:
            errors.append(f"e_measurement + e_tx_packet must be finite, got {unit}")
        if wavelength(config.link.frequency) == math.inf:
            errors.append(
                f"frequency: {config.link.frequency} Hz has a wavelength beyond float range"
            )
        if config.path_perimeter > 0.0 and _energy(config, 0, 0)[-1] / 1000.0 == 0.0:
            errors.append(
                f"uav_flight_power: {config.uav_flight_power} W over one loop of "
                f"{config.path_perimeter} m at {config.cruise_speed} m/s underflows to 0 kJ"
            )
        if config.link.tx_power == 0.0 < config.standoff:
            # 0 W times a gain beyond float range, where 1 W harvests inf, is NaN
            if _standoff_rate(replace(config, link=replace(config.link, tx_power=1.0))) == math.inf:
                errors.append("tx_power: 0.0 W times a boresight gain beyond float range is NaN")
    return errors


def _standoff_rate(config: ScenarioConfig) -> float:
    """Boresight harvest rate at the standoff, which no visit can beat.

    No sensor is nearer a stop than standoff; a rate beyond float range
    is inf. The standoff divides twice, as its square can underflow to 0.
    """
    return harvest_rate(config.link, _budget(config.link, config.standoff, 1.0) / config.standoff)


def _packet_bound(config: ScenarioConfig, n_stops: int, best: float) -> list:
    """The violation of an n_stops-stop mission that could count past 2**53
    packets, where float arithmetic loses whole packets, or whose efficiency
    could leave float range, if any. best is _standoff_rate(config); no
    mission spends less than a zero-stop one that receives its packets, and
    the factor 2 covers the CSV's efficiency from nine-digit energies.
    """
    unit = config.costs.packet_unit
    charge = config.n_sensors * n_stops * config.dwell_time * config.phase_split
    # no stop, nor a zero rate, charges anyone; inf times an underflowed charge is NaN
    bound = best * charge / unit if best and n_stops else 0.0
    if not bound < 2.0**53:
        return [
            f"a mission could count up to {bound:.3g} packets of e_measurement + "
            f"e_tx_packet = {unit} J, beyond the 2**53 that floats count exactly"
        ]
    kilojoules = _energy(config, 0, bound)[-1] / 1000.0
    if 2.0 * bound / kilojoules == math.inf:
        return [
            f"uav_flight_power: {config.uav_flight_power} W over one loop of "
            f"{config.path_perimeter} m at {config.cruise_speed} m/s, with the receipt of up to "
            f"{bound:.3g} packets, spends {kilojoules:.3g} kJ, too little for a finite efficiency"
        ]
    return []


def _case(base: ScenarioConfig, stop_counts, dwells):
    """(cells, path, field, plans): the checks and stop plans of one case.

    cells maps each (n_stops, dwell), in axis order, to its violations:
    its value rules; else the case's stages and its plan's violation,
    judged from the plan's arcs alone; else its packet bound. The value
    rules read a count >= 0 and a dwell in (0, inf) only to pass them, so
    those cells share one check; any other cell is checked on its own.
    plans holds one (arcs, [(key, config)...]) per stop count that keeps a
    valid cell, config being its dwell's, whose n_stops is not the cell's.
    """
    # the largest count is in range if any is, and at one cell it is the cell's own
    top = max(stop_counts)
    configs = {t: replace(base, n_stops=top, dwell_time=t) for t in dwells if 0.0 < t < math.inf}
    shared = tuple(_value_errors(next(iter(configs.values())))) if configs and top >= 0 else ()
    cells, by_stops = {}, {}
    for n in stop_counts:
        for t in dwells:
            alike = n >= 0 and t in configs
            cells[n, t] = shared if alike else _value_errors(replace(base, n_stops=n, dwell_time=t))
            if not cells[n, t]:
                by_stops.setdefault(n, []).append(((n, t), configs[t]))
    errors, path, field, rule = _stages(base) if by_stops else ([], None, None, None)
    # every cell has the base's link and standoff, which pass once the stages do
    best = _standoff_rate(base) if by_stops and not errors else None
    plans = []
    for n_stops, group in by_stops.items():
        # no rule means an input failed, so its cells take those errors
        arcs = rule(n_stops) if rule and n_stops else np.empty(0)
        violation = _stop_arcs_error(arcs)
        failed = errors + [f"n_stops: {violation}"] if violation else errors
        for key, config in group:
            cells[key] = failed or _packet_bound(config, n_stops, best)
        group = [(key, config) for key, config in group if not cells[key]]
        if group:
            plans.append((arcs, group))
    return cells, path, field, plans


_last = (None, None)  # (repr, _case result) of the last config checked, swapped whole


def _checked(config: ScenarioConfig):
    """_case at config's one cell, kept for the last config checked. The key is
    its repr, so that a -0.0 for a 0.0, or 1 for 1.0, keeps its own messages."""
    global _last
    last, checked = _last
    key = repr(config)
    if key != last:
        checked = _case(config, [config.n_stops], [config.dwell_time])
        _last = key, checked
    return checked


def validate_config(config: ScenarioConfig) -> list:
    """Check every invariant and return all violations, not just the first.

    Once the rules on single values hold (tokens, counts, signs, finite
    numbers), the geometry is built as run_mission builds it, so the path
    limits hold against the realized path; each failing stage adds a
    message. The stop plan is judged from its arcs, not inverted. Last, the
    packets a mission could count must stay exact in floats.
    """
    (errors,) = _checked(config)[0].values()
    return list(errors)


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
    # the loop, then one stop's hover and WPT at this dwell
    flight, hover, wpt, _, _ = _energy(replace(config, dwell_time=dwell), 1, 0)
    budget = config.uav_battery - flight
    if budget < 0.0:
        return 0
    return int(budget // (hover + wpt))


def run_mission(config: ScenarioConfig) -> MissionLedger:
    """Build the scenario's layout and stop plan, then simulate the tour."""
    cells, path, field, plans = _checked(config)
    (errors,) = cells.values()
    if errors:
        raise ConfigError(errors)
    ((arcs, _),) = plans
    return simulate_tour(config, path, field, StopPlan(arcs, _stop_positions(path, [arcs])))


def _runs(sizes, cap: int) -> list:
    """Bounds [0, ..., len(sizes)] of the consecutive runs of sizes, each
    summing to at most cap; an item larger than cap is a run of its own."""
    ends = np.cumsum(sizes, dtype=np.int64)
    bounds = [0]
    while bounds[-1] < ends.size:
        a = bounds[-1]
        b = int(np.searchsorted(ends, (ends[a - 1] if a else 0) + cap, side="right"))
        bounds.append(max(b, a + 1))
    return bounds


def _charging_pairs(link: LinkParams, field: SensorField, stops: np.ndarray):
    """(stop, sensor, rate) of every pair that charges, by stop then sensor id.

    stops is a (k, 2) array of stop positions; stop j is its row j.

    Only sensors within the boresight harvest reach of a stop can charge
    there. With the sensors split by side of the x-axis and each side sorted
    by x, a stop's candidates are the window |dx| <= reach on each side whose
    y-range comes within reach, so the far side of a loop drops out. Stops
    go in blocks, _runs of at most _BLOCK candidates, so the memory beyond
    the charging pairs stays bounded. The budget runs on the candidates
    within reach that face the stop alone: the others receive 0 W.
    """
    k, n = stops.shape[0], field.n_sensors
    order = np.argsort(field.positions[:, 0], kind="stable")
    lower = field.positions[order, 1] < 0.0
    order = np.concatenate((order[~lower], order[lower]))
    xs, ys, nxs, nys = np.hstack((field.positions, field.normals))[order].T.copy()
    stop_xs, stop_ys = stops.T.copy()
    span = max(np.abs(field.positions).max(initial=0.0), np.abs(stops).max(initial=0.0))
    # the threshold test runs on the budget the reach solves, a few roundings
    # apart, which moves the distance where it passes by far less than the
    # 1e-6 relative slack; the window ends and the deltas round by at most
    # an ulp of the largest coordinate, which 4 spacings cover
    reach = float(max_boresight_harvest_range(link) * (1.0 + 1e-6) + 4.0 * np.spacing(span))
    # a Python float's square overflows to inf without a warning; a square
    # below the normal floats rounds by more than the slack, so such a
    # reach culls nothing by distance
    reach_sq = max(reach * reach, np.finfo(float).tiny)
    upper = n - np.count_nonzero(lower)
    lo, counts = np.empty((2, k, 2), dtype=np.intp)
    for side, part in enumerate((slice(0, upper), slice(upper, n))):
        side_xs, side_ys = xs[part], ys[part]
        lo[:, side] = part.start + np.searchsorted(side_xs, stop_xs - reach, side="left")
        hi = part.start + np.searchsorted(side_xs, stop_xs + reach, side="right")
        # the y-range is windowed as x is, with the same slack (span takes
        # in y), so rounding cannot skip a side holding a pair within reach
        bottom, top = side_ys.min(initial=np.inf), side_ys.max(initial=-np.inf)
        near = (stop_ys - reach <= top) & (stop_ys + reach >= bottom)
        counts[:, side] = np.where(near, hi - lo[:, side], 0)
    total = counts.sum(axis=1)

    def block(a: int, b: int):
        window = counts[a:b].ravel()
        stop = np.repeat(np.arange(a, b), total[a:b])
        at = np.repeat(lo[a:b].ravel() - np.cumsum(window) + window, window) + np.arange(stop.size)
        dx = stop_xs[stop] - xs[at]
        dy = stop_ys[stop] - ys[at]
        # a square past float range is inf, beyond any finite reach
        with np.errstate(over="ignore"):
            dist_sq = dx * dx + dy * dy
            dot = dx * nxs[at] + dy * nys[at]
        # checked on every candidate: a zero square is always within reach
        if not dist_sq.all():
            raise ValueError("distance must be positive: a stop sits on a sensor")
        # a pair that faces away, at an incidence of pi/2 or more, receives 0 W
        keep = np.flatnonzero((dist_sq <= reach_sq) & (dot > 0.0))
        dist_sq = dist_sq[keep]
        cos_inc = np.minimum(dot[keep] / np.sqrt(dist_sq), 1.0)
        rate = harvest_rate(link, _budget(link, dist_sq, cos_inc))
        charging = rate > 0.0
        keep, rate = keep[charging], rate[charging]
        stop, sensor = stop[keep], order[at[keep]]
        # unique keys; a stable sort merges the runs that each window leaves
        by_stop = np.argsort((stop - a) * n + sensor, kind="stable")
        return stop[by_stop], sensor[by_stop], rate[by_stop]

    bounds = _runs(total, _BLOCK)
    # without stops, one empty block gives the outputs their dtypes
    blocks = [block(a, b) for a, b in zip(bounds, bounds[1:])] or [block(0, 0)]
    return tuple(np.concatenate(column) for column in zip(*blocks))


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
    # a stable sort's permutation is unique; on a narrow dtype it is a radix sort
    ordinal = ordinal.astype(np.min_scalar_type(ordinal.max(initial=0)))
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
    # 0 W bills 0 J, even over charging phases whose sum leaves float range
    if config.wpt_draw_mode == "additional" and config.link.tx_power:
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
    stop, sensor, rate = _charging_pairs(config.link, field, plan.positions)
    banked = rate * (config.dwell_time * config.phase_split)
    harvested, spent, packets, pair_packets = _settle(sensor, banked, n, config.costs)

    bounds = np.searchsorted(stop, np.arange(k + 1))
    stop_packets = np.diff(np.concatenate(([0], np.cumsum(pair_packets)))[bounds])
    total_packets = int(packets.sum())
    flight, hover, wpt, rx, total = _energy(config, k, total_packets)
    return MissionLedger(
        total_uav_energy=total,
        flight_energy=flight,
        hover_energy=hover,
        wpt_energy=wpt,
        rx_energy=rx,
        sensors=_table("sensors", np.arange(n), harvested, spent, harvested - spent, packets),
        stops=_table("stops", np.arange(k), np.diff(bounds), stop_packets),
        pairs=_table("pairs", stop, sensor, banked),
        total_packets=total_packets,
        feasible=total <= config.uav_battery,
        mission_time=config.path_perimeter / config.cruise_speed + k * config.dwell_time,
    )


def _table(name: str, *columns) -> np.ndarray:
    rows = np.empty(len(columns[0]), _TABLES[name])
    for field, column in zip(rows.dtype.names, columns):
        rows[field] = column
    return rows
