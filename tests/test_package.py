"""The package namespace: each public name is stated once, in its module."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import wpcnsim

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = {
    "__version__",
    # geometry
    "EllipseSpec",
    "ellipse_from_perimeter",
    "equidistant_arcs",
    "poses_at_arcs",
    # layout
    "SensorField",
    "StopPlan",
    "place_sensors_even",
    "place_sensors_paired",
    "place_stops_equal_arcs",
    "place_stops_facing",
    # mission
    "ConfigError",
    "MissionLedger",
    "ScenarioConfig",
    "SensorRecord",
    "StopRecord",
    "endurance",
    "max_stops",
    "run_mission",
    "simulate_tour",
    "validate_config",
    # rf_link
    "SPEED_OF_LIGHT",
    "EnergyCosts",
    "LinkParams",
    "fspl_db",
    "harvest_rate",
    "max_boresight_harvest_range",
    "packets_supported",
    "received_power",
    "wavelength",
    # sweep
    "DEFAULT_CASES",
    "DEFAULT_DWELLS",
    "DEFAULT_STOP_COUNTS",
    "SweepCell",
    "SweepTable",
    "calibrate_speed",
    "calibrate_tx_power",
    "clustering_gain",
    "clustering_gain_cells",
    "default_sweep",
    "efficiency",
    "efficiency_curve",
    "equal_coverage_gain",
    "find_peak",
    "p1_gain_cells",
    "p1_gain_over_p2",
    "sweep",
    # config_io
    "CONFIG_KEYS",
    "parse_config",
    "parse_config_text",
    "render_config",
}


def test_package_all_is_pinned():
    assert len(wpcnsim.__all__) == len(PUBLIC_NAMES)
    assert set(wpcnsim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(wpcnsim, name)


@pytest.mark.parametrize(
    "path",
    sorted(p for part in ("src", "tests", "demos") for p in (ROOT / part).rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_source_parses_as_python_3_10(path):
    # pyproject.toml admits Python 3.10, so no file may use later syntax
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_import_loads_no_process_pool_and_no_polynomial_module():
    # only sweep(workers > 1) starts a pool, the quadrature table is literal,
    # and only sha256_hex hashes
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wpcnsim, wpcnsim.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing', "
        "'numpy.polynomial', 'hashlib', '_hashlib') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
