"""Slow oracles: the scalar tour for simulate_tour, json's text for summary.json.

The reference tour walks the stops in tour order, each sensor in turn and
each packet one at a time, with the link budget written out in plain
`math`. It takes the package's SensorField and StopPlan as given and shares
none of the vectorized kernel, so a packet count on which both agree is
checked by two independent codes.

The reference summary builds the ledger's dict and hands it to json's
encoder, which write_mission_summary's templates must reproduce byte for
byte.
"""

import json
import math

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
        "per_stop": [
            {
                "stop_id": rec.stop_id,
                "charged": list(rec.charged),
                "delivered_j": list(rec.delivered),
                "packets": rec.packets,
            }
            for rec in ledger.per_stop
        ],
        "per_sensor": [
            {
                "sensor_id": rec.sensor_id,
                "harvested_j": rec.harvested,
                "spent_j": rec.spent,
                "residual_j": rec.residual,
                "packets": rec.packets,
            }
            for rec in ledger.per_sensor
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
