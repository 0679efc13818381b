"""Geometry contracts: quadrature accuracy, arc inversion, local frames."""

import math

import numpy as np
import pytest
from scipy import integrate

from wpcnsim.geometry import (
    _arc_from_zero,
    _arc_table,
    _params_at_arcs,
    EllipseSpec,
    SurfacePose,
    arc_length,
    ellipse_from_perimeter,
    equidistant_arcs,
    link_geometry,
    offset_outward,
    point_at_arc,
    poses_at_arcs,
)

PATH = ellipse_from_perimeter(5.0, 500.0, 1e-9)
CIRCLE = EllipseSpec.from_axes(10.0, 10.0)


def quad_arc(ellipse, t0, t1):
    """Independent oracle: adaptive quadrature of the arc-length integrand."""
    a, b = ellipse.semi_major, ellipse.semi_minor
    val, err = integrate.quad(
        lambda t: math.hypot(a * math.sin(t), b * math.cos(t)),
        t0,
        t1,
        epsabs=1e-10,
        epsrel=1e-13,
        limit=400,
    )
    assert err < 1e-7
    return val


# ---------------------------------------------------------------- sizing


def test_from_perimeter_hits_target_and_aspect():
    assert abs(PATH.perimeter - 500.0) <= 1e-9 * 500.0
    assert PATH.aspect_ratio == pytest.approx(5.0, abs=1e-12)
    # re-integrated arc length against the quadrature oracle
    assert abs(quad_arc(PATH, 0.0, 2.0 * math.pi) - 500.0) <= 5e-7


def test_from_perimeter_aspect_one_is_a_circle():
    disc = ellipse_from_perimeter(1.0, 500.0, 1e-9)
    assert disc.semi_major == disc.semi_minor
    assert disc.perimeter == pytest.approx(500.0, rel=1e-9)
    assert disc.semi_major == pytest.approx(500.0 / (2.0 * math.pi), rel=1e-9)


def test_from_perimeter_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ellipse_from_perimeter(0.5, 500.0, 1e-9)
    with pytest.raises(ValueError):
        ellipse_from_perimeter(5.0, -1.0, 1e-9)
    with pytest.raises(ValueError):
        ellipse_from_perimeter(5.0, 500.0, 1e-2)
    with pytest.raises(ValueError):
        EllipseSpec.from_axes(1.0, 2.0)


# ------------------------------------------------------------ arc length


def test_arc_length_full_circle_closed_form():
    assert arc_length(CIRCLE, 0.0, 2.0 * math.pi) == pytest.approx(
        20.0 * math.pi, rel=1e-12
    )


def test_arc_length_circle_matches_r_dt():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t0, t1 = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=2))
        assert arc_length(CIRCLE, t0, t1) == pytest.approx(
            10.0 * (t1 - t0), rel=1e-12, abs=1e-12
        )


def test_arc_length_matches_quadrature_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t0, t1 = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=2))
        got = arc_length(PATH, t0, t1)
        want = quad_arc(PATH, t0, t1)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_arc_length_additivity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        t0, t1, t2 = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=3))
        whole = arc_length(PATH, t0, t2)
        split = arc_length(PATH, t0, t1) + arc_length(PATH, t1, t2)
        assert abs(split - whole) <= 1e-9 * max(whole, 1.0)


def test_arc_length_spans_multiple_turns():
    one = arc_length(PATH, 0.0, 2.0 * math.pi)
    three = arc_length(PATH, 0.0, 6.0 * math.pi)
    assert three == pytest.approx(3.0 * one, rel=1e-12)


def test_arc_length_rejects_reversed_interval():
    with pytest.raises(ValueError):
        arc_length(PATH, 1.0, 0.5)


# ---------------------------------------------------------- arc inversion


def test_point_at_arc_circle_closed_form():
    pose = point_at_arc(CIRCLE, 10.0 * math.pi / 2.0)
    assert pose.position == pytest.approx([0.0, 10.0], abs=1e-9)
    assert pose.outward_normal == pytest.approx([0.0, 1.0], abs=1e-9)
    assert pose.tangent == pytest.approx([-1.0, 0.0], abs=1e-9)


def test_point_at_arc_round_trip():
    rng = np.random.default_rng(17)
    arcs = np.concatenate(
        [[0.0, 1e-6, 499.999999], rng.uniform(0.0, PATH.perimeter, size=40)]
    )
    for s in arcs:
        pose = point_at_arc(PATH, float(s))
        t = math.atan2(
            pose.position[1] / PATH.semi_minor, pose.position[0] / PATH.semi_major
        ) % (2.0 * math.pi)
        back = arc_length(PATH, 0.0, t)
        # the recovered coordinate may wrap at the seam
        err = min(abs(back - s), abs(back - s - PATH.perimeter), abs(back - s + PATH.perimeter))
        assert err <= 1e-9


def bisect_params(ellipse, arcs):
    """Oracle: 60 halvings of [0, 2*pi] on the tabulated arc length."""
    lo = np.zeros_like(arcs)
    hi = np.full_like(arcs, 2.0 * math.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = _arc_from_zero(ellipse, mid) >= arcs
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("aspect_ratio", [1.0, 1.0 + 1e-7, 5.0, 100.0])
def test_inversion_matches_bisection(aspect_ratio):
    ellipse = ellipse_from_perimeter(aspect_ratio, 500.0, 1e-9)
    knots = _arc_table(ellipse.semi_major, ellipse.semi_minor)[:-1]
    rng = np.random.default_rng(23)
    arcs = np.concatenate(
        [
            knots,
            [0.0, np.nextafter(ellipse.perimeter, 0.0)],
            rng.uniform(0.0, ellipse.perimeter, size=2000),
        ]
    )
    t = _params_at_arcs(ellipse, arcs)
    assert np.max(np.abs(t - bisect_params(ellipse, arcs))) <= 1e-12
    back = np.array([arc_length(ellipse, 0.0, float(x)) for x in t])
    assert np.max(np.abs(back - arcs)) <= 1e-9


def test_pose_frame_invariants():
    rng = np.random.default_rng(19)
    arcs = rng.uniform(0.0, PATH.perimeter, size=64)
    positions, tangents, normals = poses_at_arcs(PATH, arcs)
    assert np.allclose(np.linalg.norm(tangents, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(np.sum(tangents * normals, axis=1))) <= 1e-12
    # outward means pointing away from the center
    assert np.all(np.sum(positions * normals, axis=1) > 0.0)


def test_point_at_arc_rejects_out_of_range():
    with pytest.raises(ValueError):
        point_at_arc(PATH, -1e-9)
    with pytest.raises(ValueError):
        point_at_arc(PATH, PATH.perimeter)


# ------------------------------------------------------------- placement


def test_equidistant_arcs_uniform_spacing_up_to_200():
    for k in range(1, 201):
        arcs = equidistant_arcs(PATH, k)
        assert arcs.shape == (k,)
        assert np.all(arcs >= 0.0) and np.all(arcs < PATH.perimeter)
        assert np.all(np.diff(arcs) > 0.0) or k == 1
        gaps = np.diff(np.concatenate([arcs, [arcs[0] + PATH.perimeter]]))
        assert np.max(np.abs(gaps - PATH.perimeter / k)) <= 1e-9


def test_equidistant_arcs_phase_examples():
    disc = ellipse_from_perimeter(1.0, 500.0, 1e-9)
    assert equidistant_arcs(disc, 1, 7.0) == pytest.approx([7.0])
    unit = EllipseSpec.from_axes(1.0, 1.0)
    assert equidistant_arcs(unit, 4) == pytest.approx(
        [0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0], rel=1e-12, abs=1e-12
    )


def test_equidistant_arcs_phase_rotates_the_pattern():
    base = equidistant_arcs(PATH, 10)
    shifted = equidistant_arcs(PATH, 10, 2.5)
    assert shifted == pytest.approx(base + 2.5, abs=1e-9)


def test_equidistant_arcs_rejects_bad_arguments():
    with pytest.raises(ValueError):
        equidistant_arcs(PATH, 0)
    with pytest.raises(ValueError):
        equidistant_arcs(PATH, 4, PATH.perimeter)


# ---------------------------------------------------------- link geometry


def test_offset_outward_circle_example():
    point = offset_outward(point_at_arc(CIRCLE, 0.0), 1.0)
    assert point == pytest.approx([11.0, 0.0], abs=1e-9)


def test_offset_outward_negative_goes_inside():
    point = offset_outward(point_at_arc(CIRCLE, 0.0), -1.0)
    assert point == pytest.approx([9.0, 0.0], abs=1e-9)


def test_link_geometry_344_triangle():
    sensor = SurfacePose(
        np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.0
    )
    dist, incidence = link_geometry(sensor, np.array([3.0, 4.0]))
    assert dist == pytest.approx(5.0, abs=1e-12)
    assert incidence == pytest.approx(math.atan2(4.0, 3.0), abs=1e-12)


def test_link_geometry_rejects_co_located_points():
    sensor = SurfacePose(
        np.array([1.0, 2.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.0
    )
    with pytest.raises(ValueError):
        link_geometry(sensor, np.array([1.0, 2.0]))
