"""Sensor placement on the hull and hover-stop planning on the flight path.

The hull is modeled as the inward normal offset of the flight path at the
drone's standoff distance, so every sensor sits exactly standoff meters
beneath its foot point on the path and shares that point's outward normal.
Stops always lie on the flight path itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from wpcnsim.geometry import EllipseSpec, equidistant_arcs, poses_at_arcs

__all__ = [
    "SensorField",
    "StopPlan",
    "place_sensors_even",
    "place_sensors_paired",
    "place_stops_facing",
    "place_stops_equal_arcs",
]

_TWO_PI = 2.0 * math.pi
_SEAM_SNAP = 1e-9  # m; arcs this close to the perimeter wrap to zero
# largest relative error of a realized sensor offset: on a path whose
# coordinates are too coarse for the standoff, sensors round onto or away
# from their foot points
_OFFSET_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SensorField:
    """Hull-mounted sensors in placement order with their service grouping.

    Attributes:
        arc_coords: (n,) arc of each sensor's foot point on the flight path.
        positions: (n, 2) sensor locations on the hull offset curve.
        normals: (n, 2) outward unit normals, shared with the foot points.
        cluster_ids: (n,) service group of each sensor, dense ints from 0.
    """

    arc_coords: np.ndarray
    positions: np.ndarray
    normals: np.ndarray
    cluster_ids: np.ndarray

    def __post_init__(self) -> None:
        n = self.arc_coords.shape[0]
        if self.positions.shape != (n, 2) or self.normals.shape != (n, 2):
            raise ValueError("inconsistent sensor array shapes")
        if self.cluster_ids.shape != (n,):
            raise ValueError("inconsistent sensor array shapes")
        # one non-finite coordinate would leave the whole field out of reach
        if not (np.isfinite(self.positions).all() and np.isfinite(self.normals).all()):
            raise ValueError("sensor positions and normals must be finite")
        for arr in (self.arc_coords, self.positions, self.normals, self.cluster_ids):
            arr.setflags(write=False)

    @property
    def n_sensors(self) -> int:
        return self.arc_coords.shape[0]


def _stop_arcs_error(arcs: np.ndarray) -> str:
    """The violation of a stop plan's arcs, "" when they strictly increase."""
    return "" if np.all(np.diff(arcs) > 0.0) else "stop arcs must be strictly increasing"


@dataclass(frozen=True, eq=False)
class StopPlan:
    """Hover stops on the flight path, in travel (ascending arc) order.

    Geometry only: how long the drone hovers is the mission's dwell_time,
    so one plan serves every dwell of its stop count.
    """

    arc_coords: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        k = self.arc_coords.shape[0]
        if self.positions.shape != (k, 2):
            raise ValueError("inconsistent stop array shapes")
        if not np.isfinite(self.positions).all():
            raise ValueError("stop positions must be finite")
        error = _stop_arcs_error(self.arc_coords)
        if error:
            raise ValueError(error)
        self.arc_coords.setflags(write=False)
        self.positions.setflags(write=False)

    @property
    def n_stops(self) -> int:
        return self.arc_coords.shape[0]


def _check_standoff(path: EllipseSpec, standoff: float) -> None:
    # inward offset degenerates at the minimum radius of curvature b^2/a
    rho_min = path.semi_minor**2 / path.semi_major
    if not 0.0 < standoff < rho_min:
        raise ValueError(
            f"standoff must lie in (0, {rho_min:.6g}) for this path, got {standoff}"
        )


def _field_at_arcs(
    path: EllipseSpec, arcs: np.ndarray, cluster_ids: np.ndarray, standoff: float
) -> SensorField:
    _check_standoff(path, standoff)
    feet, normals = poses_at_arcs(path, arcs)
    positions = feet - standoff * normals
    worst = float(np.abs(np.linalg.norm(feet - positions, axis=1) - standoff).max(initial=0.0))
    if worst > _OFFSET_TOL * standoff:
        raise ValueError(
            f"standoff {standoff} is below the resolution of this path's coordinates: "
            f"realized offsets are off by up to {worst:.3g}"
        )
    return SensorField(
        arc_coords=arcs,
        positions=positions,
        normals=normals,
        cluster_ids=cluster_ids,
    )


@lru_cache(maxsize=64)
def place_sensors_even(
    path: EllipseSpec, n_sensors: int, standoff: float = 1.0
) -> SensorField:
    """Sensors at equal arc spacing, each its own service group."""
    arcs = equidistant_arcs(path, n_sensors)
    return _field_at_arcs(path, arcs, np.arange(n_sensors), standoff)


@lru_cache(maxsize=64)
def place_sensors_paired(
    path: EllipseSpec, n_sensors: int, pair_spacing: float = 0.1, standoff: float = 1.0
) -> SensorField:
    """Sensors in side-by-side pairs whose midpoints sit at equal arc spacing.

    The two members of pair i straddle its midpoint at +-pair_spacing/2
    along the hull; the pair is one service group. n_sensors must be even.
    """
    if n_sensors < 2 or n_sensors % 2:
        raise ValueError(f"paired layout needs an even sensor count, got {n_sensors}")
    n_pairs = n_sensors // 2
    if not 0.0 < pair_spacing < path.perimeter / n_pairs:
        raise ValueError(f"pair_spacing {pair_spacing} does not fit {n_pairs} pairs")
    centers = equidistant_arcs(path, n_pairs)
    half = 0.5 * pair_spacing
    arcs = (np.repeat(centers, 2) + np.tile([-half, half], n_pairs)) % path.perimeter
    return _field_at_arcs(path, arcs, np.repeat(np.arange(n_pairs), 2), standoff)


def _target_arcs(field: SensorField, perimeter: float) -> np.ndarray:
    """Sorted service-target arcs: one circular-mean arc per sensor group."""
    m = int(field.cluster_ids.max()) + 1
    if m == field.n_sensors:
        return np.sort(field.arc_coords)
    theta = field.arc_coords * (_TWO_PI / perimeter)
    s = np.bincount(field.cluster_ids, weights=np.sin(theta), minlength=m)
    c = np.bincount(field.cluster_ids, weights=np.cos(theta), minlength=m)
    # libm's atan2, not numpy's, whose loop and bits vary with the CPU
    angles = np.array([math.atan2(y, x) for y, x in zip(s.tolist(), c.tolist())])
    arcs = (angles % _TWO_PI) * (perimeter / _TWO_PI)
    # a group straddling the seam averages to arc 0, not to the perimeter
    arcs = np.where(arcs > perimeter - _SEAM_SNAP, 0.0, arcs)
    return np.sort(arcs)


def _stop_positions(path: EllipseSpec, arc_sets) -> np.ndarray:
    """Stop positions of the concatenated arc sets, from one inversion of
    their union: poses_at_arcs works arc by arc, so every set gets the
    positions its own inversion would give. Every stop plan is positioned here.
    """
    union, inverse = np.unique(np.concatenate(arc_sets), return_inverse=True)
    return poses_at_arcs(path, union)[0][inverse]


def _facing_arcs(targets: np.ndarray, perimeter: float, n_stops: int) -> np.ndarray:
    """place_stops_facing's sorted stop arcs from the field's _target_arcs, n_stops >= 1."""
    m = targets.shape[0]
    if n_stops <= m:
        return targets[(np.arange(n_stops) * m) // n_stops]
    surplus = n_stops - m
    extras = np.full(m, surplus // m)
    extras[: surplus % m] += 1
    gaps = np.diff(np.append(targets, targets[0] + perimeter))
    # extra j of group i sits j / (extras[i] + 1) of the way along gap i
    group = np.repeat(np.arange(m), extras)
    j = np.arange(1, surplus + 1) - np.repeat(np.cumsum(extras) - extras, extras)
    between = targets[group] + gaps[group] * j / (extras[group] + 1)
    return np.sort(np.concatenate([targets, between]) % perimeter)


@lru_cache(maxsize=256)
def place_stops_facing(path: EllipseSpec, field: SensorField, n_stops: int) -> StopPlan:
    """Stops on the path facing the sensor groups head-on.

    With fewer stops than groups, every i-th stop serves group
    floor(i*m/k), spreading coverage evenly. With more stops than
    groups, each group keeps its facing stop and the surplus is dealt
    round-robin into the gaps between consecutive targets, splitting
    each gap into equal sub-arcs.
    """
    if n_stops < 0:
        raise ValueError(f"n_stops must be >= 0, got {n_stops}")
    targets = _target_arcs(field, path.perimeter)
    arcs = _facing_arcs(targets, path.perimeter, n_stops) if n_stops else np.empty(0)
    return StopPlan(arcs, _stop_positions(path, [arcs]))


@lru_cache(maxsize=256)
def place_stops_equal_arcs(path: EllipseSpec, n_stops: int, phase: float = 0.0) -> StopPlan:
    """Stops at equal arc spacing around the path, offset by phase meters."""
    if n_stops < 0:
        raise ValueError(f"n_stops must be >= 0, got {n_stops}")
    arcs = equidistant_arcs(path, n_stops, phase) if n_stops else np.empty(0)
    return StopPlan(arcs, _stop_positions(path, [arcs]))
