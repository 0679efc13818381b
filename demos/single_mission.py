"""Fly one mission and read its energy and packet ledger.

The reference setup parks the drone at 80 stops facing an even ring of
100 sensors, dwelling 20 s at each: half the dwell charges, half collects.
"""

from dataclasses import replace

import numpy as np

from wpcnsim import ScenarioConfig, efficiency, run_mission


def describe(tag, config):
    ledger = run_mission(config)
    print(f"--- {tag} ---")
    print(f"stops {config.n_stops}, dwell {config.dwell_time:.0f} s, "
          f"mission time {ledger.mission_time:.0f} s")
    print(f"flight {ledger.flight_energy:.1f} J + hover {ledger.hover_energy:.1f} J "
          f"+ wpt {ledger.wpt_energy:.1f} J + rx {ledger.rx_energy:.1f} J "
          f"= {ledger.total_uav_energy:.1f} J")
    print(f"battery {config.uav_battery:.0f} J -> feasible {ledger.feasible}")
    counts = ledger.sensors["packets"]
    print(f"packets {ledger.total_packets} from {np.count_nonzero(counts)} sensors "
          f"(max {counts.max()} per sensor), {counts.size - np.count_nonzero(counts)} unvisited")
    residuals = ledger.sensors["residual_j"]
    print(f"stranded charge {residuals.sum():.4f} J across the field")
    print(f"efficiency {efficiency(ledger):.4f} packets per kJ")
    print()


def main():
    base = ScenarioConfig()
    describe("short dwell, many stops", replace(base, n_stops=80, dwell_time=20.0))
    describe("long dwell, few stops", replace(base, n_stops=22, dwell_time=70.0))
    # same stop budget but paired sensors: each hover now feeds two accounts
    describe("short dwell, paired field", replace(base, n_stops=80, layout="s2"))


if __name__ == "__main__":
    main()
