"""Free-space RF power transfer budget and packet energy arithmetic.

Power quantities are watts, energies joules, gains dBi, angles radians.
Every caller runs one budget, _budget, in linear form: a constant per link,
in Python floats, times a cosine^n receive pattern about the sensor's
outward normal over the squared distance; the transmit side is folded into
its dBi gain. Per pair it runs correctly rounded operations alone (for n in
0, 0.5, 1, 2), so its bits do not depend on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "LinkParams",
    "EnergyCosts",
    "wavelength",
    "fspl_db",
    "received_power",
    "harvest_rate",
    "packets_supported",
    "max_boresight_harvest_range",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class LinkParams:
    """One-way power transfer link between the drone and a sensor."""

    frequency: float
    tx_power: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    rf_dc_efficiency: float
    harvest_threshold: float
    angle_exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.frequency > 0.0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if self.tx_power < 0.0:
            raise ValueError(f"tx_power must be >= 0, got {self.tx_power}")
        if not 0.0 < self.rf_dc_efficiency <= 1.0:
            raise ValueError(
                f"rf_dc_efficiency must be in (0, 1], got {self.rf_dc_efficiency}"
            )
        if self.harvest_threshold < 0.0:
            raise ValueError(
                f"harvest_threshold must be >= 0, got {self.harvest_threshold}"
            )
        if self.angle_exponent < 0.0:
            raise ValueError(
                f"angle_exponent must be >= 0, got {self.angle_exponent}"
            )


@dataclass(frozen=True)
class EnergyCosts:
    """Per-packet energy prices on both ends of the data link."""

    e_measurement: float
    e_tx_packet: float
    e_rx_packet: float

    def __post_init__(self) -> None:
        for name in ("e_measurement", "e_tx_packet", "e_rx_packet"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def packet_unit(self) -> float:
        """Sensor-side energy consumed per packet (measure + transmit)."""
        return self.e_measurement + self.e_tx_packet


def wavelength(frequency: float) -> float:
    """Free-space wavelength in meters."""
    if not frequency > 0.0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    return SPEED_OF_LIGHT / frequency


def fspl_db(frequency: float, distance):
    """Free-space path loss 20*log10(4*pi*d/lambda), array-friendly in d."""
    lam = wavelength(frequency)
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive")
    loss = 20.0 * np.log10(_FOUR_PI * d / lam)
    return float(loss) if loss.ndim == 0 else loss


def _budget(params: LinkParams, dist_sq, cos_inc):
    """Received power in watts, tx_power * 10^((G_tx + G_rx)/10) * (lambda/4pi)^2
    * cos_inc^n / dist_sq; its constant, in Python floats, squares the amplitude
    gain, so it leaves float range only where the path gain at 1 m does."""
    try:
        amplitude = 10.0 ** ((params.tx_gain_dbi + params.rx_gain_dbi) / 20.0)
    except OverflowError:  # inf, as numpy gives: 0 W times it is nan, which a config rule rejects
        amplitude = math.inf
    amplitude *= wavelength(params.frequency) / _FOUR_PI
    return params.tx_power * (amplitude * amplitude) * cos_inc**params.angle_exponent / dist_sq


def received_power(params: LinkParams, distance, incidence):
    """RF power at the sensor's rectifier input, in watts.

    Args:
        params: link budget parameters.
        distance: separation in meters, > 0 (scalar or array).
        incidence: angle from the sensor's outward normal, in [0, pi].

    Incidence at or beyond pi/2 receives exactly zero; otherwise the
    budget is _budget at distance^2 and cos(incidence).
    """
    d = np.asarray(distance, dtype=float)
    inc = np.asarray(incidence, dtype=float)
    if np.any((inc < 0.0) | (inc > math.pi)):
        raise ValueError("incidence must lie in [0, pi]")
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive")
    # cut on the angle, not on cos: cos(pi/2) rounds to 6.1e-17, not zero
    power = np.where(inc < math.pi / 2.0, _budget(params, d * d, np.cos(inc).clip(0.0)), 0.0)
    return float(power) if power.ndim == 0 else power


def harvest_rate(params: LinkParams, p_received):
    """DC power banked by the sensor: eta * p at or above threshold, else 0."""
    p = np.asarray(p_received, dtype=float)
    if np.any(p < 0.0):
        raise ValueError("received power must be >= 0")
    rate = np.where(p >= params.harvest_threshold, params.rf_dc_efficiency * p, 0.0)
    return float(rate) if rate.ndim == 0 else rate


def packets_supported(stored_energy, costs: EnergyCosts):
    """Whole packets a sensor can measure and send from its stored energy.

    Array-friendly like received_power: a scalar gives an int, an array
    an int64 array of counts, one per element.
    """
    unit = costs.packet_unit
    if not unit > 0.0:
        raise ValueError("per-packet energy must be positive")
    stored = np.asarray(stored_energy, dtype=float)
    if np.any(stored < 0.0):
        raise ValueError(f"stored energy must be >= 0, got {stored.min()}")
    n = np.floor(stored / unit)
    # float floor can overshoot by one ulp; never spend more than stored
    n -= (n > 0.0) & (n * unit > stored)
    if not np.all(n < 2.0**63):
        raise ValueError(f"packet count {n.max()} does not fit int64")
    return int(n) if n.ndim == 0 else n.astype(np.int64)


def max_boresight_harvest_range(params: LinkParams) -> float:
    """Largest boresight distance at which harvesting still engages.

    No sensor farther than this from a stop can charge there, so
    simulate_tour evaluates only the stop-sensor pairs within it.
    """
    boresight = _budget(params, 1.0, 1.0)
    # a gain beyond float range is inf, and then no power is 0 * inf = nan
    if not boresight > 0.0:
        return 0.0
    if params.harvest_threshold == 0.0:
        return math.inf
    return math.sqrt(boresight / params.harvest_threshold)
