"""Link budget, harvest chain, and packet arithmetic checks."""

import dataclasses
import math

import numpy as np
import pytest

import reference
from test_reference import SMALL, WINDOWS
from wpcnsim import (
    EnergyCosts,
    LinkParams,
    ScenarioConfig,
    fspl_db,
    harvest_rate,
    max_boresight_harvest_range,
    packets_supported,
    received_power,
    wavelength,
)

LINK = LinkParams(
    frequency=2.3e9,
    tx_power=2.404,
    tx_gain_dbi=9.3,
    rx_gain_dbi=8.0,
    rf_dc_efficiency=0.72,
    harvest_threshold=1e-3,
)

COSTS = EnergyCosts(e_measurement=0.01, e_tx_packet=0.01, e_rx_packet=0.01)


def test_wavelength_s_band():
    assert wavelength(2.3e9) == pytest.approx(0.130344, abs=1e-6)


def test_wavelength_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        wavelength(0.0)
    with pytest.raises(ValueError):
        wavelength(-1e9)


def test_fspl_reference_value_at_one_meter():
    assert fspl_db(2.3e9, 1.0) == pytest.approx(39.683, abs=1e-3)


def test_fspl_zero_at_lambda_over_four_pi():
    lam = wavelength(2.3e9)
    assert fspl_db(2.3e9, lam / (4.0 * math.pi)) == pytest.approx(0.0, abs=1e-9)


def test_fspl_doubling_distance_adds_six_db():
    rng = np.random.default_rng(5)
    for d in rng.uniform(0.1, 50.0, 20):
        delta = fspl_db(2.3e9, 2.0 * d) - fspl_db(2.3e9, d)
        assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-6)


def test_fspl_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        fspl_db(2.3e9, 0.0)


def test_received_power_boresight_reference():
    p = received_power(LINK, 1.0, 0.0)
    assert p == pytest.approx(13.89e-3, rel=1e-2)


def test_received_power_zero_at_grazing_and_beyond():
    assert received_power(LINK, 1.0, math.pi / 2.0) == 0.0
    assert received_power(LINK, 1.0, 2.0) == 0.0
    assert received_power(LINK, 1.0, math.pi) == 0.0


def test_received_power_rejects_bad_incidence():
    with pytest.raises(ValueError):
        received_power(LINK, 1.0, -0.1)
    with pytest.raises(ValueError):
        received_power(LINK, 1.0, math.pi + 0.1)


def test_received_power_rejects_a_zero_distance():
    with pytest.raises(ValueError, match="distance must be positive"):
        received_power(LINK, 0.0, 0.0)


def test_received_power_strictly_decreasing_in_distance():
    rng = np.random.default_rng(21)
    d = np.sort(rng.uniform(0.2, 30.0, 50))
    p = received_power(LINK, d, 0.0)
    assert isinstance(p, np.ndarray)
    assert np.all(np.diff(p) < 0.0)


def test_received_power_linear_in_tx_power():
    base = received_power(LINK, 2.5, 0.3)
    for alpha in (0.5, 2.0, 4.0):
        scaled = dataclasses.replace(LINK, tx_power=alpha * LINK.tx_power)
        assert received_power(scaled, 2.5, 0.3) == alpha * base


def test_received_power_cosine_pattern():
    inc = 0.7
    assert received_power(LINK, 1.0, inc) == pytest.approx(
        received_power(LINK, 1.0, 0.0) * math.cos(inc), rel=1e-12
    )


def test_received_power_flat_pattern_when_exponent_zero():
    flat = dataclasses.replace(LINK, angle_exponent=0.0)
    assert received_power(flat, 1.0, 1.2) == received_power(flat, 1.0, 0.0)
    assert received_power(flat, 1.0, math.pi / 2.0) == 0.0


BUDGET_LINKS = {
    "defaults": ScenarioConfig().link,
    "small": SMALL.link,
    "module": LINK,
    **{name: config.link for name, config in WINDOWS.items()},
}


@pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("link", BUDGET_LINKS.values(), ids=BUDGET_LINKS.keys())
def test_linear_budget_is_the_papers_db_budget(link, exponent):
    link = dataclasses.replace(link, angle_exponent=exponent)
    dist, inc = np.meshgrid(np.geomspace(1e-2, 1e3, 16), np.linspace(0.0, math.pi, 25))
    expected = [reference.received_power(link, d, i) for d, i in zip(dist.flat, inc.flat)]
    assert received_power(link, dist, inc).ravel().tolist() == pytest.approx(
        expected, rel=1e-12, abs=0.0
    )


def test_harvest_rate_reference_value():
    p = received_power(LINK, 1.0, 0.0)
    assert harvest_rate(LINK, p) == pytest.approx(10.0e-3, rel=1e-2)


def test_harvest_threshold_is_inclusive():
    thr = LINK.harvest_threshold
    assert harvest_rate(LINK, thr) == pytest.approx(0.72 * thr, rel=1e-12)
    assert harvest_rate(LINK, thr * (1.0 - 1e-9)) == 0.0
    assert harvest_rate(LINK, 0.0) == 0.0


def test_harvest_rate_rejects_negative_power():
    with pytest.raises(ValueError):
        harvest_rate(LINK, -1e-6)


def test_packets_supported_examples():
    assert packets_supported(0.1, COSTS) == 5
    assert packets_supported(0.02, COSTS) == 1
    assert packets_supported(0.0399, COSTS) == 1
    assert packets_supported(0.019, COSTS) == 0
    assert packets_supported(0.0, COSTS) == 0


def test_packets_never_overspend():
    rng = np.random.default_rng(17)
    unit = COSTS.packet_unit
    for stored in rng.uniform(0.0, 1.0, 200):
        n = packets_supported(stored, COSTS)
        assert n * unit <= stored
        assert stored - n * unit < unit * (1.0 + 1e-12)


def test_packets_array_form_matches_scalar_form():
    unit = COSTS.packet_unit
    whole = np.arange(1, 200) * unit
    stored = np.concatenate(
        (
            [0.0, 0.019, 0.0399, 0.1, 5e-324],
            whole,
            np.nextafter(whole, 0.0),  # one ulp below a whole packet
            np.nextafter(whole, 1.0),
            np.random.default_rng(5).uniform(0.0, 10.0, 200),
        )
    )
    counts = packets_supported(stored, COSTS)
    assert counts.dtype == np.int64 and counts.shape == stored.shape
    scalar = [packets_supported(float(x), COSTS) for x in stored]
    assert all(type(n) is int for n in scalar)
    assert counts.tolist() == scalar
    assert np.all(counts * unit <= stored)
    with pytest.raises(ValueError):
        packets_supported(np.array([0.1, -0.01]), COSTS)


def test_packets_rejects_bad_inputs():
    with pytest.raises(ValueError):
        packets_supported(-0.01, COSTS)
    with pytest.raises(ValueError):
        packets_supported(0.1, EnergyCosts(0.0, 0.0, 0.01))
    with pytest.raises(ValueError, match="does not fit int64"):
        packets_supported(np.array([1.0, 1e300]), COSTS)


def test_max_harvest_range_reference_value():
    assert max_boresight_harvest_range(LINK) == pytest.approx(3.727, rel=1e-2)


def test_max_harvest_range_consistent_with_received_power():
    d = max_boresight_harvest_range(LINK)
    assert received_power(LINK, d, 0.0) == pytest.approx(
        LINK.harvest_threshold, rel=1e-9
    )


def test_max_harvest_range_quadruple_power_doubles_reach():
    quad = dataclasses.replace(LINK, tx_power=4.0 * LINK.tx_power)
    assert max_boresight_harvest_range(quad) == pytest.approx(
        2.0 * max_boresight_harvest_range(LINK), rel=1e-12
    )


def test_max_harvest_range_degenerate_cases():
    dark = dataclasses.replace(LINK, tx_power=0.0)
    assert max_boresight_harvest_range(dark) == 0.0
    free = dataclasses.replace(LINK, harvest_threshold=0.0)
    assert max_boresight_harvest_range(free) == math.inf
    # a gain beyond float range reaches everywhere, unless nothing is sent
    loud = dataclasses.replace(LINK, tx_gain_dbi=4000.0)
    assert max_boresight_harvest_range(loud) == math.inf
    assert max_boresight_harvest_range(dataclasses.replace(loud, tx_power=0.0)) == 0.0


def test_link_params_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(LINK, frequency=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(LINK, tx_power=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(LINK, rf_dc_efficiency=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(LINK, rf_dc_efficiency=1.2)
    with pytest.raises(ValueError):
        dataclasses.replace(LINK, harvest_threshold=-1e-3)
    with pytest.raises(ValueError):
        dataclasses.replace(LINK, angle_exponent=-1.0)


def test_energy_costs_validation():
    with pytest.raises(ValueError):
        EnergyCosts(-0.01, 0.01, 0.01)
    assert COSTS.packet_unit == pytest.approx(0.02, rel=1e-15)
