"""The pair kernel against a dense all-pairs reference, bit for bit."""

import dataclasses

import numpy as np
import pytest

from reference import mission_geometry
from test_reference import SMALL, WINDOWS
from wpcnsim import mission
from wpcnsim.layout import SensorField
from wpcnsim.mission import ScenarioConfig
from wpcnsim.rf_link import _budget, harvest_rate, max_boresight_harvest_range


def _dense(field, stops, chunk=100):
    """Per chunk of stops, (stop, sensor, dist_sq, dot) of every stop x sensor
    pair in (stop, sensor) order, with the kernel's arithmetic."""
    k, n = stops.shape[0], field.n_sensors
    for a in range(0, k, chunk):
        b = min(a + chunk, k)
        stop, sensor = np.repeat(np.arange(a, b), n), np.tile(np.arange(n), b - a)
        dx = stops[stop, 0] - field.positions[sensor, 0]
        dy = stops[stop, 1] - field.positions[sensor, 1]
        dot = dx * field.normals[sensor, 0] + dy * field.normals[sensor, 1]
        yield stop, sensor, dx * dx + dy * dy, dot


def dense_pairs(link, field, stops):
    """(stop, sensor, rate) of every stop x sensor pair whose rate is positive,
    each pair's budget run as the kernel runs it, by stop then sensor id."""
    blocks = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    for stop, sensor, dist_sq, dot in _dense(field, stops):
        # a pair that faces away receives 0 W
        facing = dot > 0.0
        stop, sensor, dist_sq, dot = stop[facing], sensor[facing], dist_sq[facing], dot[facing]
        cos_inc = np.minimum(dot / np.sqrt(dist_sq), 1.0)
        rate = harvest_rate(link, _budget(link, dist_sq, cos_inc))
        charging = rate > 0.0
        blocks.append((stop[charging], sensor[charging], rate[charging]))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _field(positions, normals):
    n = len(positions)
    return SensorField(
        np.arange(n, dtype=float),
        np.array(positions, dtype=float).reshape(n, 2),
        np.array(normals, dtype=float).reshape(n, 2),
        np.arange(n),
    )


def _boundary():
    """(link, field, stops): a lone sensor below the x-axis that faces up, and
    stops above the axis at each float distance within 8 ulps of the
    unslacked reach, under a threshold where some of those beyond it charge."""
    field = _field([[0.0, -0.5]], [[0.0, 1.0]])
    for threshold in np.linspace(1e-3, 3e-3, 2001):
        link = dataclasses.replace(SMALL.link, harvest_threshold=float(threshold))
        raw = max_boresight_harvest_range(link)
        reach = raw + np.arange(-8, 9) * np.spacing(raw)
        stops = np.column_stack((np.zeros(reach.size), reach - 0.5))
        stop, _, _ = dense_pairs(link, field, stops)
        if (stops[stop, 1] + 0.5 > raw).any():
            return link, field, stops
    raise AssertionError("no threshold charges beyond the unslacked reach")


def _from_config(config):
    _, field, plan = mission_geometry(config)
    return config.link, field, plan.positions


def _one_side(upper):
    """The default field's sensors on one side of the x-axis, the default stops."""
    link, field, stops = _from_config(ScenarioConfig())
    side = (field.positions[:, 1] >= 0.0) == upper
    assert 0 < side.sum() < field.n_sensors
    return link, _field(field.positions[side], field.normals[side]), stops


def _default_plan():
    link, field, stops = _from_config(ScenarioConfig())
    # the stop and the sensor at arc 0 sit on the axis itself
    assert (field.positions[:, 1] == 0.0).any() and (stops[:, 1] == 0.0).any()
    return link, field, stops


KERNEL_INPUTS = {
    **{name: (lambda config=config: _from_config(config)) for name, config in WINDOWS.items()},
    "aspect-1": lambda: _from_config(dataclasses.replace(SMALL, aspect_ratio=1.0)),
    "default-plan": _default_plan,
    "all-sensors-above": lambda: _one_side(True),
    "all-sensors-below": lambda: _one_side(False),
    "reach-boundary": _boundary,
    "2000x400": lambda: _from_config(
        dataclasses.replace(ScenarioConfig(), n_sensors=2000, n_stops=400)
    ),
}


@pytest.mark.parametrize("block", [mission._BLOCK, 1, 7])
@pytest.mark.parametrize("build", KERNEL_INPUTS.values(), ids=KERNEL_INPUTS.keys())
def test_pair_kernel_equals_the_dense_reference_bit_for_bit(build, block, monkeypatch):
    monkeypatch.setattr(mission, "_BLOCK", block)
    link, field, stops = build()
    pairs = mission._charging_pairs(link, field, stops)
    reference = dense_pairs(link, field, stops)
    assert [column.dtype for column in pairs] == [column.dtype for column in reference]
    assert all(map(np.array_equal, pairs, reference))


def test_the_budget_runs_on_the_pairs_in_reach_that_face_the_stop(monkeypatch):
    link, field, stops = _from_config(
        dataclasses.replace(ScenarioConfig(), n_sensors=5000, n_stops=1000)
    )
    budgeted = []

    def spy(link, dist_sq, cos_inc):
        budgeted.append(len(dist_sq))
        return _budget(link, dist_sq, cos_inc)

    monkeypatch.setattr(mission, "_budget", spy)
    pairs = mission._charging_pairs(link, field, stops)
    raw = max_boresight_harvest_range(link)
    # no pair lies in the kernel's slack beyond the reach, so both ends count alike
    in_reach, in_slack = (
        sum(
            np.count_nonzero((dist_sq <= reach * reach) & (dot > 0.0))
            for _, _, dist_sq, dot in _dense(field, stops)
        )
        for reach in (raw, raw * (1.0 + 2e-6))
    )
    assert sum(budgeted) == in_reach == in_slack
    assert 0 < pairs[0].size < in_reach


def test_a_square_past_float_range_is_beyond_reach_without_a_warning():
    # at 1e200 m, 4 ulps of slack make the x-window wider than sqrt(float max)
    field = _field([[1e200, 1.0]], [[1.0, 0.0]])
    stops = np.array([[1e200 + 2e184, 0.0]])
    assert all(column.size == 0 for column in mission._charging_pairs(SMALL.link, field, stops))
