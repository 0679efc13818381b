"""Geometry contracts: quadrature accuracy, arc inversion, local frames."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy import integrate

from wpcnsim import geometry
from wpcnsim.geometry import (
    _arc_from_zero,
    _arc_table,
    _GL_NODES,
    _GL_WEIGHTS,
    _PANELS,
    _params_at_arcs,
    _speed,
    EllipseSpec,
    ellipse_from_perimeter,
    equidistant_arcs,
    poses_at_arcs,
)

PATH = ellipse_from_perimeter(5.0, 500.0)
CIRCLE = EllipseSpec(10.0, 10.0)


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


def arc_between(ellipse, t0, t1):
    """Arc length between parameters 0 <= t0 <= t1 <= 2*pi."""
    return float(_arc_from_zero(ellipse, t1) - _arc_from_zero(ellipse, t0))


# ---------------------------------------------------------------- sizing


def test_from_perimeter_hits_target_and_aspect():
    assert abs(PATH.perimeter - 500.0) <= 1e-9 * 500.0
    assert PATH.semi_major / PATH.semi_minor == pytest.approx(5.0, abs=1e-12)
    # re-integrated arc length against the quadrature oracle
    assert abs(quad_arc(PATH, 0.0, 2.0 * math.pi) - 500.0) <= 5e-7


def test_from_perimeter_aspect_one_is_a_circle():
    disc = ellipse_from_perimeter(1.0, 500.0)
    assert disc.semi_major == disc.semi_minor
    assert disc.perimeter == pytest.approx(500.0, rel=1e-9)
    assert disc.semi_major == pytest.approx(500.0 / (2.0 * math.pi), rel=1e-9)


def test_from_perimeter_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ellipse_from_perimeter(0.5, 500.0)
    with pytest.raises(ValueError):
        ellipse_from_perimeter(5.0, -1.0)
    with pytest.raises(ValueError):
        EllipseSpec(1.0, 2.0)


def grid_arc_table(a, b):
    """Oracle: the arc table integrated on a node grid built per call."""
    edges = np.linspace(0.0, 2.0 * math.pi, _PANELS + 1)
    half = (edges[1] - edges[0]) / 2.0
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = mids[:, None] + half * _GL_NODES[None, :]
    panels = half * (_speed(a, b, nodes) * _GL_WEIGHTS).sum(axis=1)
    return np.concatenate(([0.0], np.cumsum(panels)))


def test_arc_table_matches_the_per_call_grid_bit_for_bit():
    rng = np.random.default_rng(29)
    axes = [(float(A), 1.0) for A in rng.uniform(1.0, 100.0, size=100)]
    axes += [(1.0, 1.0), (100.0, 1.0), (1.0 + 1e-7, 1.0)]
    for A, P in zip(rng.uniform(1.0, 100.0, size=100), 10.0 ** rng.uniform(0.0, 5.0, size=100)):
        path = ellipse_from_perimeter(float(A), float(P))
        axes.append((path.semi_major, path.semi_minor))
    path = ellipse_from_perimeter(1.0 + 1e-7, 500.0)
    axes.append((path.semi_major, path.semi_minor))
    assert len(axes) >= 200
    for a, b in axes:
        assert np.array_equal(_arc_table(a, b), grid_arc_table(a, b)), (a, b)


def test_gauss_legendre_literals_are_leggauss_16():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(_GL_NODES, nodes) and _GL_NODES.dtype == nodes.dtype
    assert np.array_equal(_GL_WEIGHTS, weights) and _GL_WEIGHTS.dtype == weights.dtype


def test_spec_carries_its_own_read_only_arc_table():
    path = ellipse_from_perimeter(3.0, 250.0)
    assert not path.arc_table.flags.writeable
    with pytest.raises(ValueError):
        path.arc_table[0] = 1.0
    assert np.array_equal(path.arc_table, _arc_table(path.semi_major, path.semi_minor))
    assert path.arc_table[-1] == path.perimeter

    twin = EllipseSpec(path.semi_major, path.semi_minor)
    assert twin == path and hash(twin) == hash(path)
    assert repr(path) == (
        f"EllipseSpec(semi_major={path.semi_major!r}, "
        f"semi_minor={path.semi_minor!r}, perimeter={path.perimeter!r})"
    )

    wider = dataclasses.replace(path, semi_major=2.0 * path.semi_major)
    assert np.array_equal(wider.arc_table, _arc_table(wider.semi_major, wider.semi_minor))
    assert wider.arc_table[-1] > path.arc_table[-1]

    back = pickle.loads(pickle.dumps(path))
    assert back == path
    assert np.array_equal(back.arc_table, path.arc_table)


def test_replace_works_the_perimeter_out_from_the_new_axes():
    path = ellipse_from_perimeter(3.0, 250.0)
    wider = dataclasses.replace(path, semi_major=2.0 * path.semi_major)
    assert wider.perimeter == wider.arc_table[-1]
    assert wider.perimeter > path.perimeter


def test_a_sizing_builds_two_arc_tables_and_a_spec_one(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return _arc_table(a, b)

    monkeypatch.setattr(geometry, "_arc_table", counted)
    ellipse_from_perimeter(3.3, 321.0)
    assert len(calls) == 2
    calls.clear()
    EllipseSpec(2.0, 1.0)
    assert len(calls) == 1


@pytest.mark.parametrize("axes", [(1e-170, 1e-170), (1e200, 1e200), (math.inf, 1.0)])
def test_axes_whose_arc_integral_is_zero_or_inf_are_rejected(axes):
    with pytest.raises(ValueError, match="perimeter must be positive and finite"):
        EllipseSpec(*axes)


# ------------------------------------------------------------ arc length


def test_arc_length_full_circle_closed_form():
    assert arc_between(CIRCLE, 0.0, 2.0 * math.pi) == pytest.approx(
        20.0 * math.pi, rel=1e-12
    )


def test_arc_length_circle_matches_r_dt():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t0, t1 = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=2))
        assert arc_between(CIRCLE, t0, t1) == pytest.approx(
            10.0 * (t1 - t0), rel=1e-12, abs=1e-12
        )


def test_arc_length_matches_quadrature_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t0, t1 = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=2))
        got = arc_between(PATH, t0, t1)
        want = quad_arc(PATH, t0, t1)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_arc_length_additivity():
    # a split just below a panel knot sums the partial-panel quadrature up
    # to the knot, which must equal the tabulated arc at the knot
    rng = np.random.default_rng(13)
    h = 2.0 * math.pi / 2048
    for _ in range(50):
        knot = h * int(rng.integers(1, 2048))
        t0 = float(rng.uniform(0.0, knot))
        t2 = float(rng.uniform(knot, 2.0 * math.pi))
        whole = arc_between(PATH, t0, t2)
        split = arc_between(PATH, t0, np.nextafter(knot, 0.0)) + arc_between(PATH, knot, t2)
        assert abs(split - whole) <= 1e-9 * max(whole, 1.0)


# ---------------------------------------------------------- arc inversion


def test_point_at_arc_circle_closed_form():
    positions, normals = poses_at_arcs(CIRCLE, np.array([10.0 * math.pi / 2.0]))
    assert positions[0] == pytest.approx([0.0, 10.0], abs=1e-9)
    assert normals[0] == pytest.approx([0.0, 1.0], abs=1e-9)


def test_point_at_arc_round_trip():
    rng = np.random.default_rng(17)
    arcs = np.concatenate(
        [[0.0, 1e-6, 499.999999], rng.uniform(0.0, PATH.perimeter, size=40)]
    )
    positions, _ = poses_at_arcs(PATH, arcs)
    for s, (x, y) in zip(arcs, positions):
        t = math.atan2(y / PATH.semi_minor, x / PATH.semi_major) % (2.0 * math.pi)
        back = float(_arc_from_zero(PATH, t))
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
    ellipse = ellipse_from_perimeter(aspect_ratio, 500.0)
    knots = ellipse.arc_table[:-1]
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
    back = _arc_from_zero(ellipse, t)
    assert np.max(np.abs(back - arcs)) <= 1e-9


def test_pose_frame_invariants():
    rng = np.random.default_rng(19)
    arcs = rng.uniform(0.0, PATH.perimeter, size=64)
    positions, normals = poses_at_arcs(PATH, arcs)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    # outward means pointing away from the center
    assert np.all(np.sum(positions * normals, axis=1) > 0.0)


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
    disc = ellipse_from_perimeter(1.0, 500.0)
    assert equidistant_arcs(disc, 1, 7.0) == pytest.approx([7.0])
    unit = EllipseSpec(1.0, 1.0)
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


def test_gauss_legendre_literals_are_leggauss_5():
    nodes, weights = np.polynomial.legendre.leggauss(5)
    # bit for bit: the same dtype and bytes, the sign of the middle node's 0 included
    for literal, want in ((geometry._GL5_NODES, nodes), (geometry._GL5_WEIGHTS, weights)):
        assert literal.dtype == want.dtype and literal.tobytes() == want.tobytes()


def newton_params_16(ellipse, arcs):
    """Oracle: the package's seed and three Newton steps, every partial panel
    integrated with the arc table's own 16-point rule."""
    a, b, cum = ellipse.semi_major, ellipse.semi_minor, ellipse.arc_table
    idx = np.clip(np.searchsorted(cum, arcs, side="right") - 1, 0, _PANELS - 1)
    t = (idx + (arcs - cum[idx]) / (cum[idx + 1] - cum[idx])) * (2.0 * math.pi / _PANELS)
    for _ in range(3):
        t = t - (_arc_from_zero(ellipse, t) - arcs) / _speed(a, b, t)
    return t


@pytest.mark.parametrize("aspect_ratio", [1.0, 1.0 + 1e-7, 5.0, 20.0, 100.0])
def test_five_point_newton_steps_match_the_sixteen_point_rule(aspect_ratio):
    # the partial panel is at most 2*pi/2048 rad wide: integrating it on 5
    # points moves an inverted parameter by at most 2 float spacings of 2*pi
    ellipse = ellipse_from_perimeter(aspect_ratio, 500.0)
    rng = np.random.default_rng(31)
    arcs = np.concatenate(
        [ellipse.arc_table[:-1], rng.uniform(0.0, ellipse.perimeter, size=200_000)]
    )
    worst = 0.0
    for part in np.array_split(arcs, 50):  # blocks of about 4k arcs keep the temporaries small
        moved = np.abs(_params_at_arcs(ellipse, part) - newton_params_16(ellipse, part))
        worst = max(worst, float(np.max(moved)))
    assert worst <= 2.0 * np.spacing(2.0 * math.pi), worst / np.spacing(2.0 * math.pi)


def test_inversion_evaluates_the_path_speed_at_most_18_times_per_arc(monkeypatch):
    # three Newton steps, each 5 quadrature points plus the derivative
    points = []

    def counted(a, b, t):
        points.append(np.size(t))
        return _speed(a, b, t)

    monkeypatch.setattr(geometry, "_speed", counted)
    arcs = np.random.default_rng(37).uniform(0.0, PATH.perimeter, size=1000)
    _params_at_arcs(PATH, arcs)
    assert sum(points) <= 18 * arcs.size, sum(points) / arcs.size
