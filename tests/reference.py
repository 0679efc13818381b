"""Slow oracles: the scalar tour for simulate_tour, json and struct for the artifacts.

The reference tour walks the stops in tour order, each sensor in turn and
each packet one at a time, with the link budget written out in plain
`math`. It takes the package's SensorField and StopPlan as given and shares
none of the vectorized kernel, so a packet count on which both agree is
checked by two independent codes.

The reference summary builds the ledger's dict of scalars and hands it to
json's encoder, which write_mission_summary must reproduce byte for byte;
the reference sensors, stops and pairs pack the rows of sensors.npy,
stops.npy and pairs.npy from the records with `struct`, not numpy.
mission_geometry builds the path, field and plan a config's mission flies
through the public placers.
"""

import json
import math
import struct

from wpcnsim.geometry import ellipse_from_perimeter
from wpcnsim.layout import (
    place_sensors_even,
    place_sensors_paired,
    place_stops_equal_arcs,
    place_stops_facing,
)
from wpcnsim.sweep import efficiency

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def link_geometry(sensor_position, sensor_normal, hover_point):
    """Distance and incidence angle from a sensor to a hover point.

    Incidence is measured from the sensor's outward normal, in [0, pi].
    Raises ValueError if the two points coincide.
    """
    dx = float(hover_point[0]) - float(sensor_position[0])
    dy = float(hover_point[1]) - float(sensor_position[1])
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        raise ValueError("sensor and hover point are co-located")
    cos_inc = (float(sensor_normal[0]) * dx + float(sensor_normal[1]) * dy) / dist
    return dist, math.acos(min(1.0, max(-1.0, cos_inc)))


def received_power(link, dist, incidence):
    """Free-space budget with a cos^n roll-off, zero from grazing onward."""
    if incidence >= math.pi / 2.0:
        return 0.0
    lam = SPEED_OF_LIGHT / link.frequency
    fspl_db = 20.0 * math.log10(4.0 * math.pi * dist / lam)
    gain_db = link.tx_gain_dbi + link.rx_gain_dbi - fspl_db
    return link.tx_power * 10.0 ** (gain_db / 10.0) * math.cos(incidence) ** link.angle_exponent


def harvest_rate(link, power):
    """DC power banked: the rectifier's share at or above the threshold."""
    return link.rf_dc_efficiency * power if power >= link.harvest_threshold else 0.0


def mission_geometry(config):
    """(path, field, plan) of the mission of a config whose geometry builds."""
    path = ellipse_from_perimeter(config.aspect_ratio, config.path_perimeter)
    if config.layout == "s1":
        field = place_sensors_even(path, config.n_sensors, config.standoff)
    else:
        field = place_sensors_paired(
            path, config.n_sensors, config.cluster_spacing, config.standoff
        )
    if config.placement == "p1":
        plan = place_stops_facing(path, field, config.n_stops)
    else:
        plan = place_stops_equal_arcs(path, config.n_stops, config.p2_phase)
    return path, field, plan


def reference_tour(config, field, plan):
    """Per-stop (charged ids, packets) and per-sensor accounts of one tour.

    A sensor charges at a stop when its harvest rate there is positive; it
    banks that rate for the charging share of the dwell, then spends one
    packet unit at a time while the unit still fits in what it harvested.
    What is left over carries to its next visit.

    Returns (stops, sensors): stops is a list of (charged, packets) with
    charged a tuple of sensor ids in ascending order; sensors is a list
    of dicts with harvested, spent, residual and packets.
    """
    charge_time = config.dwell_time * config.phase_split
    unit = config.costs.packet_unit
    sensors = [
        {"harvested": 0.0, "spent": 0.0, "packets": 0} for _ in range(field.n_sensors)
    ]
    stops = []
    for hover in plan.positions:
        charged = []
        stop_packets = 0
        for i, account in enumerate(sensors):
            dist, incidence = link_geometry(field.positions[i], field.normals[i], hover)
            rate = harvest_rate(config.link, received_power(config.link, dist, incidence))
            if rate <= 0.0:
                continue
            charged.append(i)
            account["harvested"] += rate * charge_time
            while account["spent"] + unit <= account["harvested"]:
                account["spent"] += unit
                account["packets"] += 1
                stop_packets += 1
        stops.append((tuple(charged), stop_packets))
    for account in sensors:
        account["residual"] = account["harvested"] - account["spent"]
    return stops, sensors


def reference_summary_text(ledger):
    """summary.json's text for ledger, as json.dumps lays out its dict."""
    obj = {
        "total_packets": ledger.total_packets,
        "total_uav_energy_j": ledger.total_uav_energy,
        "flight_energy_j": ledger.flight_energy,
        "hover_energy_j": ledger.hover_energy,
        "wpt_energy_j": ledger.wpt_energy,
        "rx_energy_j": ledger.rx_energy,
        "efficiency_pkt_per_kj": efficiency(ledger),
        "feasible": ledger.feasible,
        "mission_time_s": ledger.mission_time,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def reference_sensor_bytes(ledger):
    """sensors.npy's data: (sensor_id, harvested_j, spent_j, residual_j,
    packets) per sensor, in record order, packed little-endian."""
    return b"".join(
        struct.pack("<qdddq", rec.sensor_id, rec.harvested, rec.spent, rec.residual, rec.packets)
        for rec in ledger.per_sensor
    )


def reference_stop_bytes(ledger):
    """stops.npy's data: (stop_id, n_charged, packets) per stop, in record
    order, packed little-endian."""
    return b"".join(
        struct.pack("<qqq", rec.stop_id, len(rec.charged), rec.packets)
        for rec in ledger.per_stop
    )


def reference_pair_bytes(ledger):
    """pairs.npy's data: (stop_id, sensor_id, delivered_j) per charging pair,
    by stop and then in charged order, packed little-endian."""
    return b"".join(
        struct.pack("<qqd", rec.stop_id, sensor, delivered)
        for rec in ledger.per_stop
        for sensor, delivered in zip(rec.charged, rec.delivered)
    )
