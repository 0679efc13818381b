"""Planar ellipse geometry for flight paths and hull-mounted equipment.

The flight path and the hull cross-section are axis-aligned ellipses
centered on the origin. Positions are 2-D in meters; arc coordinates run
counterclockwise from the +x vertex in meters; parameters are the usual
(a cos t, b sin t) angles in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EllipseSpec", "ellipse_from_perimeter", "poses_at_arcs", "equidistant_arcs"]

_TWO_PI = 2.0 * math.pi

# Cumulative arc length is tabulated once per ellipse on a fixed panel
# grid: 2048 panels of 16-point Gauss-Legendre hold machine precision for
# any valid aspect ratio, so arc inversion integrates only partial panels.
_PANELS = 2048
# np.polynomial.legendre.leggauss(16), whose nodes and weights are exactly
# mirrored about 0: the positive half, written out so that no call needs
# numpy.polynomial imported
_GL_HALF_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL_HALF_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)
_GL_NODES = np.concatenate((-np.array(_GL_HALF_NODES[::-1]), _GL_HALF_NODES))
_GL_WEIGHTS = np.array(_GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS)
# leggauss(5), written out likewise: the rule of arc inversion's Newton steps,
# whose partial panels are at most one panel wide (see _params_at_arcs)
_GL5_NODES = np.array((-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831,
                       0.906179845938664))
_GL5_WEIGHTS = np.array((0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                         0.4786286704993663, 0.23692688505618928))
# The node grid is the same for every ellipse, so only its sin and cos and
# the panel half-width are kept, and every table is built from them.
_edges = np.linspace(0.0, _TWO_PI, _PANELS + 1)
_HALF = (_edges[1] - _edges[0]) / 2.0
_nodes = 0.5 * (_edges[:-1] + _edges[1:])[:, None] + _HALF * _GL_NODES[None, :]
_SIN, _COS = np.sin(_nodes), np.cos(_nodes)
_SIN.flags.writeable = _COS.flags.writeable = False
del _edges, _nodes
# relative tolerance of a sized perimeter; the realized default path
# (499.99999998544746 m for 500 m) depends on it
_REL_TOL = 1e-9


@dataclass(frozen=True)
class EllipseSpec:
    """Axis-aligned ellipse; its arc table is built at construction, not compared,
    and ends at its perimeter."""

    semi_major: float
    semi_minor: float
    perimeter: float = field(init=False)
    arc_table: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.semi_major >= self.semi_minor > 0.0):
            raise ValueError(
                "ellipse axes must satisfy semi_major >= semi_minor > 0, "
                f"got ({self.semi_major}, {self.semi_minor})"
            )
        with np.errstate(over="ignore"):
            table = _arc_table(self.semi_major, self.semi_minor)
        perimeter = float(table[-1])
        if not 0.0 < perimeter < math.inf:
            raise ValueError(f"perimeter must be positive and finite, got {perimeter}")
        # arc inversion divides by the path speed, which is least at t = 0
        if _speed(self.semi_major, self.semi_minor, 0.0) == 0.0:
            raise ValueError(
                f"ellipse axes ({self.semi_major}, {self.semi_minor}) are too small: "
                "the path speed at t = 0 underflows to 0"
            )
        object.__setattr__(self, "perimeter", perimeter)
        object.__setattr__(self, "arc_table", table)


def _speed(a: float, b: float, t: np.ndarray) -> np.ndarray:
    # |d/dt (a cos t, b sin t)|
    return np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)


def _arc_table(a: float, b: float) -> np.ndarray:
    """Cumulative arc length at the _PANELS + 1 parameter knots."""
    panels = _HALF * (np.sqrt((a * _SIN) ** 2 + (b * _COS) ** 2) * _GL_WEIGHTS).sum(axis=1)
    cum = np.concatenate(([0.0], np.cumsum(panels)))
    cum.flags.writeable = False
    return cum


def _arc_from_zero(
    ellipse: EllipseSpec, t: np.ndarray, nodes=_GL_NODES, weights=_GL_WEIGHTS
) -> np.ndarray:
    """Arc length from 0 to t in [0, 2*pi]: the knot below t plus the partial panel on a rule."""
    a, b = ellipse.semi_major, ellipse.semi_minor
    cum = ellipse.arc_table
    t = np.clip(np.asarray(t, dtype=float), 0.0, _TWO_PI)
    h = _TWO_PI / _PANELS
    idx = np.minimum((t / h).astype(int), _PANELS - 1)
    lo = idx * h
    half = 0.5 * (t - lo)
    mid = 0.5 * (t + lo)
    points = mid[..., None] + half[..., None] * nodes
    partial = half * (_speed(a, b, points) * weights).sum(axis=-1)
    return cum[idx] + partial


def ellipse_from_perimeter(aspect_ratio: float, target_perimeter: float) -> EllipseSpec:
    """Size an ellipse of the given aspect ratio to a target perimeter.

    Bisection runs on a scale factor applied to the unit-minor-axis shape;
    the perimeter is homogeneous in scale, so every step is arithmetic.
    It stops at the tolerance or once the midpoint no longer moves, so it
    ends for every finite target; an aspect ratio or a target whose axes
    overflow or underflow in the arc integral raises ValueError.

    Args:
        aspect_ratio: semi_major / semi_minor, must be >= 1.
        target_perimeter: required perimeter in meters, > 0.
    """
    if aspect_ratio < 1.0:
        raise ValueError(f"aspect_ratio must be >= 1, got {aspect_ratio}")
    if not target_perimeter > 0.0:
        raise ValueError(f"target_perimeter must be positive, got {target_perimeter}")

    with np.errstate(over="ignore"):
        unit = float(_arc_table(float(aspect_ratio), 1.0)[-1])
        if not math.isfinite(unit):
            raise ValueError(
                f"aspect_ratio {aspect_ratio} cannot be sized: its unit shape integrates to {unit}"
            )
        lo = 0.5 * (target_perimeter / unit)
        hi = 2.0 * (target_perimeter / unit)
        while (hi - lo) * unit > 0.25 * _REL_TOL * target_perimeter:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if mid * unit < target_perimeter:
                lo = mid
            else:
                hi = mid
        scale = 0.5 * (lo + hi)
        a, b = float(scale * aspect_ratio), float(scale)
        try:
            path = EllipseSpec(a, b)
            perimeter = path.perimeter
        except ValueError:  # axes that round to 0, integrate to 0 or inf, or are too small
            perimeter = float(_arc_table(a, b)[-1])
            if abs(perimeter - target_perimeter) <= _REL_TOL * target_perimeter:
                raise
    if not abs(perimeter - target_perimeter) <= _REL_TOL * target_perimeter:
        raise ValueError(
            f"target_perimeter {target_perimeter} cannot be sized at aspect ratio "
            f"{aspect_ratio}: the path integrates to {perimeter}"
        )
    return path


def _params_at_arcs(ellipse: EllipseSpec, arcs: np.ndarray) -> np.ndarray:
    """Invert arc coordinates in [0, perimeter] to parameters (vectorized).

    The ellipse's arc table brackets each arc in its panel, a linear seed
    inside the panel is within about 1e-4 rad for aspect ratios up to
    100, and Newton steps on _arc_from_zero(t) = s, whose derivative is
    _speed(t), square that error each time: three reach float spacing.
    The steps integrate their partial panel, at most 2*pi/2048 rad wide, with
    5 points, not the table's 16; that moves no parameter by over 2 spacings.
    """
    a, b = ellipse.semi_major, ellipse.semi_minor
    cum = ellipse.arc_table
    arcs = np.asarray(arcs, dtype=float)
    idx = np.clip(np.searchsorted(cum, arcs, side="right") - 1, 0, _PANELS - 1)
    t = (idx + (arcs - cum[idx]) / (cum[idx + 1] - cum[idx])) * (_TWO_PI / _PANELS)
    for _ in range(3):
        t = t - (_arc_from_zero(ellipse, t, _GL5_NODES, _GL5_WEIGHTS) - arcs) / _speed(a, b, t)
    return t


def poses_at_arcs(ellipse: EllipseSpec, arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions and outward normals at the given arc coordinates.

    Returns two (n, 2) arrays, one row per arc; arcs must already lie in
    [0, perimeter).
    """
    a, b = ellipse.semi_major, ellipse.semi_minor
    t = _params_at_arcs(ellipse, np.asarray(arcs, dtype=float))
    ct, st = np.cos(t), np.sin(t)
    positions = np.stack([a * ct, b * st], axis=-1)
    normals = np.stack([b * ct, a * st], axis=-1)
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    return positions, normals


def equidistant_arcs(ellipse: EllipseSpec, k: int, phase: float = 0.0) -> np.ndarray:
    """k arc coordinates spaced perimeter/k apart, rotated by phase, sorted."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = ellipse.perimeter
    if not 0.0 <= phase < p:
        raise ValueError(f"phase {phase} outside [0, {p})")
    arcs = np.mod(phase + np.arange(k) * (p / k), p)
    arcs[arcs >= p] -= p  # mod can return the modulus exactly
    return np.sort(arcs)

