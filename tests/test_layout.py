"""Sensor field construction and stop planning checks."""

import numpy as np
import pytest

from wpcnsim import ellipse_from_perimeter
from wpcnsim.geometry import equidistant_arcs
from wpcnsim.layout import (
    SensorField,
    StopPlan,
    _facing_arcs,
    _stop_positions,
    _target_arcs,
    place_sensors_even,
    place_sensors_paired,
    place_stops_equal_arcs,
    place_stops_facing,
)

PATH = ellipse_from_perimeter(5.0, 500.0)


def test_even_field_spacing_and_offset():
    field = place_sensors_even(PATH, 100, standoff=1.0)
    assert field.n_sensors == 100
    gaps = np.diff(field.arc_coords)
    assert np.allclose(gaps, PATH.perimeter / 100, rtol=0, atol=1e-9)
    # each sensor sits exactly one standoff beneath its foot point
    feet = field.positions + 1.0 * field.normals
    radial = np.linalg.norm(feet - field.positions, axis=1)
    assert np.allclose(radial, 1.0, rtol=0, atol=1e-12)
    assert np.allclose(np.linalg.norm(field.normals, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(field.cluster_ids, np.arange(100))


def test_even_field_lies_inside_path():
    field = place_sensors_even(PATH, 40)
    x, y = field.positions[:, 0], field.positions[:, 1]
    a, b = PATH.semi_major, PATH.semi_minor
    assert np.all((x / a) ** 2 + (y / b) ** 2 < 1.0)


def test_paired_field_structure():
    field = place_sensors_paired(PATH, 100, pair_spacing=0.1)
    assert field.n_sensors == 100
    assert np.array_equal(field.cluster_ids, np.repeat(np.arange(50), 2))
    # pair 3 straddles its midpoint at 30 m by +-0.05 m
    assert field.arc_coords[6] == pytest.approx(3 * PATH.perimeter / 50 - 0.05, abs=1e-9)
    assert field.arc_coords[7] == pytest.approx(3 * PATH.perimeter / 50 + 0.05, abs=1e-9)
    # pair 0 wraps the seam
    assert field.arc_coords[0] == pytest.approx(PATH.perimeter - 0.05, abs=1e-9)
    assert field.arc_coords[1] == pytest.approx(0.05, abs=1e-9)


def test_paired_field_rejects_bad_counts():
    with pytest.raises(ValueError):
        place_sensors_paired(PATH, 99)
    with pytest.raises(ValueError):
        place_sensors_paired(PATH, 0)
    with pytest.raises(ValueError):
        place_sensors_paired(PATH, 4, pair_spacing=300.0)


def test_standoff_limited_by_curvature():
    rho_min = PATH.semi_minor**2 / PATH.semi_major
    with pytest.raises(ValueError):
        place_sensors_even(PATH, 10, standoff=rho_min + 0.1)
    with pytest.raises(ValueError):
        place_sensors_even(PATH, 10, standoff=0.0)


def test_facing_stops_stride_when_scarce():
    field = place_sensors_even(PATH, 100)
    plan = place_stops_facing(PATH, field, 4)
    expected = field.arc_coords[[0, 25, 50, 75]]
    assert np.allclose(plan.arc_coords, expected, rtol=0, atol=1e-9)


def test_facing_stops_hover_on_boresight():
    field = place_sensors_even(PATH, 100)
    plan = place_stops_facing(PATH, field, 100)
    assert plan.n_stops == 100
    offsets = plan.positions - field.positions
    dist = np.linalg.norm(offsets, axis=1)
    assert np.allclose(dist, 1.0, rtol=0, atol=1e-9)
    cos_inc = np.einsum("ij,ij->i", offsets / dist[:, None], field.normals)
    assert np.all(cos_inc > 1.0 - 1e-12)


def test_facing_stops_target_pair_midpoints():
    field = place_sensors_paired(PATH, 100, pair_spacing=0.1)
    plan = place_stops_facing(PATH, field, 50)
    expected = np.arange(50) * PATH.perimeter / 50
    assert np.allclose(plan.arc_coords, expected, rtol=0, atol=1e-9)


def test_facing_stops_split_gaps_when_plentiful():
    field = place_sensors_even(PATH, 10)
    plan = place_stops_facing(PATH, field, 15)
    step = PATH.perimeter / 10
    targets = np.arange(10) * step
    halves = targets[:5] + step / 2
    expected = np.sort(np.concatenate([targets, halves]))
    assert np.allclose(plan.arc_coords, expected, rtol=0, atol=1e-9)


def test_facing_stops_double_coverage():
    field = place_sensors_even(PATH, 10)
    plan = place_stops_facing(PATH, field, 20)
    gaps = np.diff(np.append(plan.arc_coords, plan.arc_coords[0] + PATH.perimeter))
    assert np.allclose(gaps, PATH.perimeter / 20, rtol=0, atol=1e-9)


def test_equal_arc_stops():
    plan = place_stops_equal_arcs(PATH, 80)
    assert plan.n_stops == 80
    gaps = np.diff(plan.arc_coords)
    assert np.allclose(gaps, PATH.perimeter / 80, rtol=0, atol=1e-9)
    assert plan.arc_coords[0] == 0.0


def test_equal_arc_stops_phase_shift():
    base = place_stops_equal_arcs(PATH, 80)
    moved = place_stops_equal_arcs(PATH, 80, phase=2.5)
    assert np.allclose(moved.arc_coords, base.arc_coords + 2.5, rtol=0, atol=1e-9)


def test_zero_stop_plans_are_empty():
    field = place_sensors_even(PATH, 10)
    for plan in (
        place_stops_facing(PATH, field, 0),
        place_stops_equal_arcs(PATH, 0),
    ):
        assert plan.n_stops == 0
        assert plan.positions.shape == (0, 2)


def test_stop_plan_rejects_unsorted_arcs():
    for arcs in ([5.0, 1.0], [3.0, 3.0]):
        with pytest.raises(ValueError, match="stop arcs must be strictly increasing"):
            StopPlan(np.array(arcs), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="inconsistent stop array shapes"):
        StopPlan(np.array([1.0, 5.0]), np.zeros((3, 2)))
    arcs, points, ids = np.zeros(2), np.zeros((2, 2)), np.zeros(2, dtype=int)
    with pytest.raises(ValueError, match="inconsistent sensor array shapes"):
        SensorField(arcs, np.zeros((2, 3)), points, ids)
    with pytest.raises(ValueError, match="inconsistent sensor array shapes"):
        SensorField(arcs, points, points, np.zeros(3, dtype=int))


def test_geometry_rejects_non_finite_positions_and_normals():
    # one such sensor made the harvest reach NaN, so the tour charged nobody
    arcs, ids = np.array([1.0, 5.0]), np.zeros(2, dtype=int)
    for bad in (np.inf, np.nan):
        spoiled = np.zeros((2, 2))
        spoiled[1, 0] = bad
        with pytest.raises(ValueError, match="stop positions must be finite"):
            StopPlan(arcs, spoiled)
        for positions, normals in ((spoiled, np.ones((2, 2))), (np.ones((2, 2)), spoiled)):
            with pytest.raises(ValueError, match="sensor positions and normals must be finite"):
                SensorField(arcs, positions, normals, ids)


def test_negative_stop_count_rejected():
    field = place_sensors_even(PATH, 10)
    with pytest.raises(ValueError):
        place_stops_facing(PATH, field, -1)
    with pytest.raises(ValueError):
        place_stops_equal_arcs(PATH, -1)


def test_layouts_are_cached():
    assert place_sensors_even(PATH, 100) is place_sensors_even(PATH, 100)
    field = place_sensors_paired(PATH, 100)
    assert place_stops_facing(PATH, field, 50) is place_stops_facing(PATH, field, 50)


def _assert_same_positions(path, arc_sets, placed):
    positions = _stop_positions(path, arc_sets)
    ends = np.cumsum([arcs.size for arcs in arc_sets]).tolist()
    assert len(positions) == ends[-1]
    for arcs, plan, a, b in zip(arc_sets, placed, [0] + ends, ends):
        assert np.array_equal(arcs, plan.arc_coords)
        assert np.array_equal(positions[a:b], plan.positions)


@pytest.mark.parametrize("aspect", [1.0, 5.0, 37.0])
def test_batched_facing_plans_match_the_placer(aspect):
    path = ellipse_from_perimeter(aspect, 321.0)
    # pair 0 straddles the seam; a wide pair spacing moves the targets off
    # the sensors' equidistant grid
    fields = [
        place_sensors_even(path, 14, standoff=0.02),
        place_sensors_paired(path, 14, pair_spacing=0.1, standoff=0.02),
        place_sensors_paired(path, 14, pair_spacing=9.0, standoff=0.02),
    ]
    for field in fields:
        m = int(field.cluster_ids.max()) + 1
        counts = range(0, 2 * m + 9)  # past 2m, where gaps take several extras
        targets = _target_arcs(field, path.perimeter)
        _assert_same_positions(
            path,
            [_facing_arcs(targets, path.perimeter, k) if k else np.empty(0) for k in counts],
            [place_stops_facing(path, field, k) for k in counts],
        )


def test_batched_equal_arc_plans_match_the_placer():
    path = ellipse_from_perimeter(3.3, 321.0)
    p = path.perimeter
    counts = [0, 1, 2, 3, 7, 50, 99, 100, 101, 1000]
    for phase in (0.0, 2.5, p / 3.0, p - 1e-9, np.nextafter(p, 0.0)):
        _assert_same_positions(
            path,
            [equidistant_arcs(path, k, phase) if k else np.empty(0) for k in counts],
            [place_stops_equal_arcs(path, k, phase) for k in counts],
        )


def test_facing_arcs_split_each_gap_as_written():
    # the per-gap rule spelled out: extra j of gap i at targets[i] + gaps[i] * j / (e_i + 1)
    path = ellipse_from_perimeter(2.7, 321.0)
    for field in (place_sensors_even(path, 13), place_sensors_paired(path, 26, pair_spacing=3.0)):
        targets = _target_arcs(field, path.perimeter)
        m = targets.size
        gaps = np.diff(np.append(targets, targets[0] + path.perimeter))
        for k in range(m + 1, 5 * m):
            extras = np.full(m, (k - m) // m)
            extras[: (k - m) % m] += 1
            parts = [targets] + [
                targets[i] + gaps[i] * np.arange(1, extras[i] + 1) / (extras[i] + 1)
                for i in range(m)
            ]
            expected = np.sort(np.concatenate(parts) % path.perimeter)
            assert np.array_equal(_facing_arcs(targets, path.perimeter, k), expected)
