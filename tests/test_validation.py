"""Every config that validate_config accepts runs; every one it rejects is a ConfigError."""

import dataclasses
import functools
import math
import sys
import warnings

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from wpcnsim.cli import main
from wpcnsim.config_io import parse_config, parse_config_text
from wpcnsim.geometry import ellipse_from_perimeter
from wpcnsim.mission import ConfigError, ScenarioConfig, run_mission, validate_config
from wpcnsim.sweep import SweepCell, efficiency, sweep

DEFAULTS = ScenarioConfig()


def _override(config, **values):
    """dataclasses.replace that also reaches the link and costs keys."""
    nested = {}
    for owner in ("link", "costs"):
        part = getattr(config, owner)
        keys = [key for key in values if hasattr(part, key)]
        nested[owner] = dataclasses.replace(part, **{k: values.pop(k) for k in keys})
    return dataclasses.replace(config, **nested, **values)


# each passed the old rules, which used the nominal perimeter, let NaN
# through and bounded no packet count, and then crashed the mission with a
# bare exception
CRASH_CONFIGS = {
    "aspect-ratio-inf": {"aspect_ratio": math.inf},
    "p2-phase-at-realized-perimeter": {"placement": "p2", "p2_phase": 499.9999999999},
    "perimeter-inf": {"path_perimeter": math.inf},
    "rx-cost-nan": {"e_rx_packet": math.nan},
    "pair-spacing-at-realized-perimeter": {
        "layout": "s2",
        "n_sensors": 2,
        "cluster_spacing": 499.99999999,
    },
    "zero-packet-cost": {"e_measurement": 0.0, "e_tx_packet": 0.0},
    "tiny-packet-cost": {"e_measurement": 1e-300, "e_tx_packet": 0.0},
    "tiny-standoff": {"standoff": 1e-300},
    # finite prices and speeds whose sum or product leaves float range
    "packet-unit-overflow": {"e_measurement": 1e308, "e_tx_packet": 1e308},
    "packet-unit-overflow-tx-power": {
        "e_measurement": 1e308,
        "e_tx_packet": 1e308,
        "tx_power": 1e300,
    },
    "flight-energy-underflow": {"cruise_speed": 1e300, "uav_flight_power": 1e-300},
    # a mission energy above 0 J whose kilojoules, which efficiency divides by, are 0
    "flight-kilojoules-underflow": {"uav_flight_power": 5e-324, "n_stops": 0},
    # kilojoules above 0 that a mission's packets divide past float range
    "efficiency-overflow": {"uav_flight_power": 4e-323, "e_rx_packet": 0.0},
    "wavelength-overflow": {"frequency": 1e-308},
    # a finite wavelength so long that the free-space loss takes log10(0)
    "free-space-loss-underflow": {
        "frequency": 1.7e-300,
        "path_perimeter": 1e-14,
        "standoff": 1e-17,
    },
    # a boresight rate beyond float range, which the sweep must reject before pairing
    "link-gain-overflow": {"tx_gain_dbi": 4000.0},
    # a gain whose power of ten overflows Python's float power, not just the product
    "link-gain-pow-overflow": {"tx_gain_dbi": 7000.0},
    "tx-power-overflow": {"tx_power": 1e308, "tx_gain_dbi": 40.0},
    # an inf boresight rate times a charge that underflows to 0 is a NaN bound
    "charge-underflow": {"tx_gain_dbi": 4000.0, "dwell_time": 1e-300, "phase_split": 1e-300},
    # 0 W through a gain beyond float range: 0 * inf is a NaN received power,
    # whether the transmit gain, the receive gain or the path loss overflows
    "eirp-nan": {"tx_power": 0.0, "tx_gain_dbi": 4000.0},
    "eirp-pow-nan": {"tx_power": 0.0, "tx_gain_dbi": 7000.0},
    "link-gain-nan": {"tx_power": 0.0, "tx_gain_dbi": 3000.0, "rx_gain_dbi": 1000.0},
    "path-gain-nan": {"tx_power": 0.0, "frequency": 1e-200},
    # a sized path whose speed at t = 0, which arc inversion divides by, is 0
    "path-speed-underflow": {
        "aspect_ratio": 2.5e149,
        "path_perimeter": 1.1e-34,
        "placement": "p2",
    },
}
# the perimeter bisection never ended on these, or sized a path that
# integrates to 0 or inf
CRASH_CONFIGS.update(
    (f"perimeter-{value!r}", {"path_perimeter": value})
    for value in (5e-324, 1e-320, 1e-310, 1e300, 1e308, sys.float_info.max)
)
# the 1 m standoff is below the spacing of these paths' coordinates, so
# sensors round onto or away from their foot points
CRASH_CONFIGS.update(
    (f"perimeter-{value!r}", {"path_perimeter": value}) for value in (1e16, 1e20, 1e150)
)


@pytest.mark.parametrize("values", CRASH_CONFIGS.values(), ids=CRASH_CONFIGS.keys())
def test_crash_config_is_a_config_error(values, tmp_path, capsys):
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    with pytest.raises(ConfigError):
        parse_config_text(text)
    path = tmp_path / "crash.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("values", CRASH_CONFIGS.values(), ids=CRASH_CONFIGS.keys())
def test_crash_config_base_gives_sweep_error_cells(values):
    table = sweep(_override(DEFAULTS, **values), [4], [20.0], [("p2", "s2")])
    assert table.cell("p2", "s2", 4, 20.0).error


@pytest.mark.parametrize("key", ["link-gain-overflow", "tx-power-overflow"])
def test_zero_stop_base_with_an_overflowing_link_sweeps_to_error_cells(key, tmp_path, capsys):
    # no packets at 0 stops, so the base passes; every swept stop count fails the bound
    path = tmp_path / "base.cfg"
    values = {**CRASH_CONFIGS[key], "n_stops": 0}
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    args = ["sweep", "--config", str(path), "--stops-range", "4:5", "--out", str(tmp_path)]
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert "16 cells (0 infeasible, 16 errors)" in out and err == ""


def test_zero_watts_bill_no_wpt_over_a_dwell_beyond_float_range(tmp_path, capsys):
    # the additional mode billed inf s of charging times 0 W, which is NaN J
    values = {
        "tx_power": 0.0,
        "wpt_draw_mode": "additional",
        "n_stops": 5,
        "dwell_time": sys.float_info.max,
    }
    path = tmp_path / "dark.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    config = _override(DEFAULTS, **values)
    ledger = run_mission(config)
    assert ledger.wpt_energy == 0.0 and ledger.total_uav_energy == math.inf
    assert efficiency(ledger) == 0.0 and not ledger.feasible
    table = sweep(config, [5], [config.dwell_time], [("p1", "s1")])
    assert table.cell("p1", "s1", 5, config.dwell_time) == SweepCell(
        ledger.total_packets, ledger.total_uav_energy, efficiency(ledger), ledger.feasible
    )


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"tx_power = 2\xff\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        parse_config(path)
    assert main(["simulate", "--config", str(path)]) == 2
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_independent_geometry_violations_are_all_reported():
    errors = validate_config(dataclasses.replace(DEFAULTS, standoff=5.0, p2_phase=600.0))
    assert len(errors) == 2
    assert any("standoff" in e for e in errors)
    assert any("phase" in e for e in errors)


def test_geometry_violations_lead_with_the_config_key():
    p2 = dataclasses.replace(DEFAULTS, placement="p2", p2_phase=499.9999999999)
    assert validate_config(p2) == [
        "p2_phase: phase 499.9999999999 outside [0, 499.99999998544746)"
    ]
    paired = dataclasses.replace(DEFAULTS, layout="s2", n_sensors=2, cluster_spacing=499.99999999)
    assert validate_config(paired) == [
        "cluster_spacing: pair_spacing 499.99999999 does not fit 1 pairs"
    ]
    assert validate_config(dataclasses.replace(DEFAULTS, standoff=5.0)) == [
        "standoff: standoff must lie in (0, 4.75963) for this path, got 5.0"
    ]
    assert validate_config(dataclasses.replace(DEFAULTS, path_perimeter=-1.0)) == [
        "path_perimeter: target_perimeter must be positive, got -1.0"
    ]
    # a path that cannot be sized is the perimeter's fault, and the arc
    # integral's under- or overflow stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for perimeter in (3e-320, 3e300):
            (message,) = validate_config(dataclasses.replace(DEFAULTS, path_perimeter=perimeter))
            assert message.startswith(f"path_perimeter: target_perimeter {perimeter!r} ")
        # the unit shape of an extreme aspect ratio integrates to inf
        for aspect_ratio in (1e200, 1e300):
            (message,) = validate_config(dataclasses.replace(DEFAULTS, aspect_ratio=aspect_ratio))
            assert message.startswith(f"aspect_ratio: aspect_ratio {aspect_ratio!r} ")
    # on a huge path the standoff is below the coordinates' resolution
    (message,) = validate_config(dataclasses.replace(DEFAULTS, path_perimeter=1e20))
    assert message.startswith("standoff: standoff 1.0 ")
    assert validate_config(dataclasses.replace(DEFAULTS, path_perimeter=1e9)) == []


def test_packet_cost_rules():
    zero = _override(DEFAULTS, e_measurement=0.0, e_tx_packet=0.0)
    assert validate_config(zero) == ["e_measurement + e_tx_packet must be > 0, got 0.0"]
    # one free half of the packet unit is fine, and so is a free receive
    assert validate_config(_override(DEFAULTS, e_measurement=0.0, e_rx_packet=0.0)) == []
    tiny = _override(DEFAULTS, e_measurement=1e-300, e_tx_packet=0.0)
    (message,) = validate_config(tiny)
    assert "2**53" in message
    # 100 sensors x 100 stops x 0.1 J per boresight visit is 1e15 units of 1e-12 J
    small = _override(DEFAULTS, e_measurement=1e-12, e_tx_packet=0.0)
    assert validate_config(small) == []
    assert run_mission(small).total_packets > 0
    huge = _override(DEFAULTS, e_measurement=1e308, e_tx_packet=1e308)
    assert validate_config(huge) == ["e_measurement + e_tx_packet must be finite, got inf"]


def test_flight_energy_underflow_leads_with_the_flight_power():
    config = dataclasses.replace(DEFAULTS, cruise_speed=1e300, uav_flight_power=1e-300)
    (message,) = validate_config(config)
    assert message == (
        "uav_flight_power: 1e-300 W over one loop of 500.0 m at 1e+300 m/s underflows to 0 kJ"
    )


def test_an_efficiency_bound_counts_the_receive_cost_of_its_packets():
    free = _override(DEFAULTS, **CRASH_CONFIGS["efficiency-overflow"])
    (message,) = validate_config(free)
    assert message.startswith("uav_flight_power: 4e-323 W over one loop of 500.0 m")
    # each packet received costs the drone e_rx_packet, so the efficiency stays finite
    billed = dataclasses.replace(free, costs=DEFAULTS.costs)
    ledger = run_mission(billed)
    assert ledger.total_packets > 0 and math.isfinite(efficiency(ledger))


# --- property: acceptance and execution agree near every bound ---

_realized = functools.lru_cache(maxsize=None)(ellipse_from_perimeter)


# factors that land on, just inside and just outside a limit
_SEAM = st.sampled_from([1.0 - 1e-9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-9])
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# free, subnormal, tiny and ordinary energy prices in joules
_COST = st.sampled_from([0.01, 0.0, 5e-324, 1e-300, 1e-15, 1e-12, 0.2])
_TOP_FLOATS = [
    f.name
    for f in dataclasses.fields(ScenarioConfig)
    if isinstance(getattr(DEFAULTS, f.name), float)
]


def _near(limit, inside, nominal=None):
    """Mostly values well inside a limit, else values on its seam.

    nominal is the limit as the config states it, when the realized
    geometry moves it a little.
    """
    seams = [_SEAM.map(lambda f: f * limit)]
    if nominal is not None:
        seams.append(_SEAM.map(lambda f: f * nominal))
    return st.one_of(inside, inside, inside, *seams)


@st.composite
def configs(draw):
    aspect_ratio = draw(st.one_of(st.sampled_from([1.0, 5.0]), st.floats(1.0, 12.0)))
    perimeter = draw(st.sampled_from([500.0, 120.0, 1234.5]))
    path = _realized(aspect_ratio, perimeter)
    rho_min = path.semi_minor**2 / path.semi_major
    n_sensors = draw(st.sampled_from([1, 2, 4, 10, 40]))
    n_pairs = max(n_sensors // 2, 1)
    config = dataclasses.replace(
        DEFAULTS,
        aspect_ratio=aspect_ratio,
        path_perimeter=perimeter,
        layout=draw(st.sampled_from(["s1", "s2"])),
        placement=draw(st.sampled_from(["p1", "p2"])),
        n_sensors=n_sensors,
        n_stops=draw(st.sampled_from([0, 1, 3, 25, 180])),
        standoff=draw(_near(rho_min, st.floats(0.05, 0.9).map(lambda f: f * rho_min))),
        cluster_spacing=draw(
            _near(path.perimeter / n_pairs, st.sampled_from([0.1, 2.0]), perimeter / n_pairs)
        ),
        p2_phase=draw(_near(path.perimeter, st.floats(0.0, 0.99 * perimeter), perimeter)),
    )
    config = _override(
        config, e_measurement=draw(_COST), e_tx_packet=draw(_COST), e_rx_packet=draw(_COST)
    )
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(_TOP_FLOATS + ["e_measurement", "e_rx_packet", "tx_power"]))
        try:
            config = _override(config, **{key: draw(_NON_FINITE)})
        except ValueError:
            assume(False)  # the nested dataclass already refuses the value
    return config


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs())
def test_accepted_configs_run_and_rejected_configs_raise(config):
    errors = validate_config(config)
    event("rejected" if errors else "accepted")
    if errors:
        with pytest.raises(ConfigError) as excinfo:
            run_mission(config)
        assert excinfo.value.errors == tuple(errors)
    else:
        ledger = run_mission(config)
        assert ledger.total_packets >= 0
        assert len(ledger.per_sensor) == config.n_sensors
