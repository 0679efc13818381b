"""Output checks: ledger identities, sweep.csv identities, recorded digests.

Sweep artifacts print every number to 9 significant digits, so their
sha256 is a fair golden value. A mission's summary.json prints floats at
full precision, so the recorded digest of a batch of missions covers only
their integer content (charged sensors, packets, feasibility) and the sum
of their total energies, compared to 1e-9 relative, which a kernel
rewrite correct to 1e-12 passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
ENERGY_RTOL = 1e-9


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ledger_problems(ledger) -> list:
    """Violations of the identities every mission ledger must satisfy."""
    problems = []
    total = ledger.flight_energy + ledger.hover_energy + ledger.wpt_energy + ledger.rx_energy
    if total != ledger.total_uav_energy:
        problems.append(f"total energy {ledger.total_uav_energy!r} != parts sum {total!r}")
    sensor_packets = sum(rec.packets for rec in ledger.per_sensor)
    if sensor_packets != ledger.total_packets:
        problems.append(f"sensor packets {sensor_packets} != total {ledger.total_packets}")
    stop_packets = sum(rec.packets for rec in ledger.per_stop)
    if stop_packets != ledger.total_packets:
        problems.append(f"stop packets {stop_packets} != total {ledger.total_packets}")
    for rec in ledger.per_sensor:
        if not 0.0 <= rec.spent <= rec.harvested:
            problems.append(f"sensor {rec.sensor_id}: spent {rec.spent!r} outside [0, harvested]")
        if rec.residual != rec.harvested - rec.spent:
            problems.append(f"sensor {rec.sensor_id}: residual != harvested - spent")
        if len(problems) > 10:
            break
    return problems


def mission_content(ledger) -> list:
    """A ledger's integer content: packets, feasibility and who charged where."""
    return [
        ledger.total_packets,
        ledger.feasible,
        [[list(rec.charged), rec.packets] for rec in ledger.per_stop],
        [rec.packets for rec in ledger.per_sensor],
    ]


def batch_digest(contents: list, energies: list) -> list:
    """[sha256 prefix of a batch's mission contents, sum of their total energies]."""
    blob = json.dumps(contents, separators=(",", ":")).encode("ascii")
    return [hashlib.sha256(blob).hexdigest()[:32], math.fsum(energies)]


def batch_digest_problems(got: list, want: list) -> list:
    problems = []
    if got[0] != want[0]:
        problems.append(f"integer content digest {got[0]} != recorded {want[0]}")
    if not math.isclose(got[1], want[1], rel_tol=ENERGY_RTOL, abs_tol=0.0):
        problems.append(f"total energy {got[1]!r} != recorded {want[1]!r}")
    return problems


def sweep_csv_problems(text: str, n_cells: int) -> list:
    """Row count and the per-row efficiency identity of sweep.csv."""
    rows = text.splitlines()
    problems = []
    if len(rows) != n_cells + 1:
        problems.append(f"sweep.csv has {len(rows) - 1} rows, expected {n_cells}")
    for row in rows[1:]:
        fields = row.split(",")
        if len(fields) != 8 or fields[7] not in ("true", "false"):
            problems.append(f"malformed sweep.csv row {row!r}")
            break
        packets, energy, eff = int(fields[4]), float(fields[5]), fields[6]
        if packets < 0 or not energy > 0 or eff != f"{packets / (energy / 1000.0):.9g}":
            problems.append(f"sweep.csv row breaks packets/energy/efficiency: {row!r}")
            break
    return problems
