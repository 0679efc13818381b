"""Walk the power link from transmitter to harvested energy.

Prints the free-space budget at a few ranges, shows how incidence tilts
the received power, and finds the farthest boresight range that still
clears the rectifier threshold.
"""

import numpy as np

from wpcnsim import (
    LinkParams,
    ScenarioConfig,
    calibrate_tx_power,
    fspl_db,
    harvest_rate,
    max_boresight_harvest_range,
    received_power,
    wavelength,
)


def main():
    link = ScenarioConfig().link
    lam = wavelength(link.frequency)
    print(f"carrier {link.frequency / 1e9:.2f} GHz, wavelength {lam * 100:.2f} cm")
    print(f"tx {link.tx_power:.3f} W, gains {link.tx_gain_dbi:.1f} + {link.rx_gain_dbi:.1f} dBi")
    print()

    print("boresight budget vs range")
    print(f"{'d [m]':>6} {'fspl [dB]':>10} {'received [mW]':>14} {'harvest [mW]':>13}")
    for d in (0.5, 1.0, 2.0, 3.0, 3.7):
        p_rx = received_power(link, d, 0.0)
        p_dc = harvest_rate(link, p_rx)
        print(f"{d:6.1f} {fspl_db(link.frequency, d):10.2f} {p_rx * 1e3:14.3f} {p_dc * 1e3:13.3f}")
    print()

    print("incidence roll-off at 1 m")
    for deg in (0, 30, 60, 85, 90):
        p_rx = received_power(link, 1.0, np.deg2rad(deg))
        print(f"  {deg:3d} deg -> {p_rx * 1e3:7.3f} mW")
    print()

    reach = max_boresight_harvest_range(link)
    print(f"rectifier needs {link.harvest_threshold * 1e3:.1f} mW, usable out to {reach:.2f} m")

    # solve the transmit power that banks exactly five packets per fresh visit
    tx = calibrate_tx_power(5, ScenarioConfig())
    print(f"five packets per visit needs tx = {tx:.4f} W")


if __name__ == "__main__":
    main()
