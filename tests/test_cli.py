"""Config file parsing, artifact emission, and command-line behavior."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wpcnsim.cli import main
from wpcnsim.config_io import (
    _MISSION_ARTIFACTS,
    CONFIG_KEYS,
    config_echo,
    parse_config,
    parse_config_text,
    render_config,
    sha256_hex,
    write_manifest,
    write_mission_summary,
    write_sweep_csv,
    write_sweep_summary,
)
from wpcnsim.mission import ConfigError, ScenarioConfig, run_mission
from wpcnsim.sweep import sweep

DEFAULTS = ScenarioConfig()


# --- config parsing ---


def test_empty_config_is_all_defaults():
    assert parse_config_text("") == DEFAULTS


def test_partial_config_overrides_only_named_keys():
    config = parse_config_text("dwell_time = 70\nn_stops = 22\n")
    assert config.dwell_time == 70.0
    assert config.n_stops == 22
    assert config.link == DEFAULTS.link
    assert config.cruise_speed == DEFAULTS.cruise_speed


def test_comments_and_blank_lines_ignored():
    text = "# full-line comment\n\ntx_power = 3.0  # inline comment\n"
    assert parse_config_text(text).link.tx_power == 3.0


def test_wpt_draw_mode_alias_accepted():
    config = parse_config_text("wpt_draw_mode = included-in-flight-power\n")
    assert config.wpt_draw_mode == "included"


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError) as info:
        parse_config_text("tx_power = 2\nbogus_key = 1\n", source="x.cfg")
    assert any("x.cfg:2" in msg and "bogus_key" in msg for msg in info.value.errors)


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError) as info:
        parse_config_text("just some words\n", source="x.cfg")
    (msg,) = info.value.errors
    assert "x.cfg:1" in msg and "key = value" in msg


def test_duplicate_key_reports_both_lines():
    with pytest.raises(ConfigError) as info:
        parse_config_text("n_stops = 4\nn_stops = 5\n", source="x.cfg")
    (msg,) = info.value.errors
    assert "x.cfg:2" in msg and "line 1" in msg


def test_bad_integer_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config_text("n_stops = 4.5\n")
    (msg,) = info.value.errors
    assert "n_stops" in msg and "integer" in msg


def test_all_problems_reported_at_once():
    text = "bogus = 1\nn_stops = x\nlayout = s9\n"
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert len(info.value.errors) >= 2


def test_every_rejected_link_and_cost_key_is_reported():
    text = "frequency = -1\ntx_power = -1\ne_measurement = -1\ne_tx_packet = -2\n"
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert info.value.errors == (
        "frequency must be positive, got -1.0",
        "tx_power must be >= 0, got -1.0",
        "e_measurement must be >= 0, got -1.0",
        "e_tx_packet must be >= 0, got -2.0",
    )


def test_invariant_violations_surface_as_config_errors():
    with pytest.raises(ConfigError) as info:
        parse_config_text("layout = s9\n")
    assert any("layout" in msg for msg in info.value.errors)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config(tmp_path / "nope.cfg")
    assert "nope.cfg" in info.value.errors[0]


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "mission.cfg"
    path.write_text(render_config(DEFAULTS), encoding="utf-8")
    assert parse_config(path) == DEFAULTS


def test_render_parse_round_trip_on_awkward_floats():
    config = replace(
        DEFAULTS,
        link=replace(DEFAULTS.link, tx_power=2.4038175290037898, frequency=2.3217e9),
        dwell_time=33.337,
        cruise_speed=500.0 / 140.0,
    )
    assert parse_config_text(render_config(config)) == config


def test_render_parse_round_trip_seeded_numeric_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(25):
        config = replace(
            DEFAULTS,
            link=replace(
                DEFAULTS.link,
                tx_power=float(rng.uniform(0.5, 5.0)),
                rf_dc_efficiency=float(rng.uniform(0.3, 0.95)),
            ),
            dwell_time=float(rng.uniform(5.0, 100.0)),
            phase_split=float(rng.uniform(0.1, 0.9)),
            standoff=float(rng.uniform(0.5, 3.0)),
        )
        assert parse_config_text(render_config(config)) == config


def test_config_echo_lists_every_key_once():
    echo = config_echo(DEFAULTS)
    assert tuple(echo) == CONFIG_KEYS
    assert len(CONFIG_KEYS) == 25
    assert echo["tx_power"] == DEFAULTS.link.tx_power
    assert echo["e_rx_packet"] == DEFAULTS.costs.e_rx_packet
    assert echo["layout"] == DEFAULTS.layout


def test_readme_config_block_lists_every_default_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert parse_config_text(block) == DEFAULTS
    assert tuple(line.split("=", 1)[0].strip() for line in block.splitlines()) == CONFIG_KEYS


# --- artifacts ---


@pytest.fixture(scope="module")
def small_table():
    return sweep(DEFAULTS, tuple(range(4, 13)), (20.0, 70.0))


def test_sweep_csv_header_and_row_shape(tmp_path, small_table):
    path = write_sweep_csv(small_table, tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "case,layout,n_stops,dwell_s,packets,uav_energy_j,"
        "efficiency_pkt_per_kj,feasible"
    )
    assert len(lines) == 1 + 4 * 9 * 2
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[0] in {"p1", "p2"} and fields[1] in {"s1", "s2"}
        assert fields[7] in {"true", "false"}


def test_sweep_csv_reference_row(tmp_path):
    table = sweep(DEFAULTS, (80,), (20.0,), cases=(("p1", "s1"),))
    line = write_sweep_csv(table, tmp_path).read_text().splitlines()[1]
    assert line == "p1,s1,80,20,400,286108,1.39807345,true"


def test_sweep_csv_efficiency_recomputable_from_row(tmp_path, small_table):
    path = write_sweep_csv(small_table, tmp_path)
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split(",")
        packets, energy = int(fields[4]), float(fields[5])
        expected = packets / (energy / 1000.0) if energy > 0 else 0.0
        assert fields[6] == f"{expected:.9g}"


def test_sweep_csv_byte_identical_across_runs(tmp_path, small_table):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write_sweep_csv(small_table, tmp_path / "a")
    rerun = sweep(DEFAULTS, tuple(range(4, 13)), (20.0, 70.0))
    second = write_sweep_csv(rerun, tmp_path / "b")
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    assert b"\r" not in blob


def test_default_sweep_artifacts_match_golden_digests(tmp_path, default_table):
    digest = sha256_hex(render_config(DEFAULTS).encode("utf-8"))
    paths = [
        write_sweep_csv(default_table, tmp_path),
        write_sweep_summary(default_table, tmp_path),
        write_manifest(DEFAULTS, digest, ["summary.json", "sweep.csv"], tmp_path),
    ]
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == [
        "20bea6f9a386cb4b85f30dacc744b10fe2af93d6b509047f487a551251855af8",
        "0535f6dd75ec2e6919e44080782a3af259df1ea63a1678b204f99b65d991f6de",
        "1e0f9ea8b24eead2b72a2fda687e7c76ed19c8bef6373ba1cde482efc6bb4396",
    ]


def test_mission_summary_matches_ledger(tmp_path):
    ledger = run_mission(replace(DEFAULTS, n_stops=80))
    path = write_mission_summary(ledger, tmp_path)
    data = json.loads(path.read_text())
    assert data["total_packets"] == ledger.total_packets == 400
    assert data["total_uav_energy_j"] == ledger.total_uav_energy
    assert data["feasible"] is True
    assert data["efficiency_pkt_per_kj"] == pytest.approx(1.398073454779314)
    stops = np.load(path.with_name("stops.npy"), allow_pickle=False)
    sensors = np.load(path.with_name("sensors.npy"), allow_pickle=False)
    assert len(stops) == 80
    assert len(sensors) == 100
    assert stops["packets"].sum() == sensors["packets"].sum() == 400
    residual = sensors["harvested_j"] - sensors["spent_j"]
    assert sensors["residual_j"] == pytest.approx(residual, abs=1e-15)


def test_mission_summary_is_written_a_block_at_a_time(tmp_path):
    # rendered whole as json text, this 5000 x 1000 ledger's per-sensor and
    # per-stop entries and their copies peaked at 9.1 MiB
    ledger = run_mission(replace(DEFAULTS, n_sensors=5000, n_stops=1000))
    tracemalloc.start()
    try:
        write_mission_summary(ledger, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_small_ledger_written_over_a_large_ones_artifacts_leaves_its_own_bytes(tmp_path):
    small = run_mission(replace(DEFAULTS, n_stops=3))
    large = run_mission(replace(DEFAULTS, n_stops=80, n_sensors=200))
    fresh, over = tmp_path / "fresh", tmp_path / "over"
    fresh.mkdir()
    over.mkdir()
    write_mission_summary(small, fresh)
    write_mission_summary(large, over)
    for name in _MISSION_ARTIFACTS:
        assert (over / name).stat().st_size > (fresh / name).stat().st_size
    write_mission_summary(small, over)
    for name in _MISSION_ARTIFACTS:
        assert (over / name).read_bytes() == (fresh / name).read_bytes()


def test_manifest_echoes_config_and_digest(tmp_path):
    config = replace(DEFAULTS, n_stops=80)
    digest = sha256_hex(render_config(config).encode("utf-8"))
    path = write_manifest(config, digest, ["summary.json", "sweep.csv"], tmp_path)
    data = json.loads(path.read_text())
    assert data["tool"] == "wpcnsim"
    assert sorted(data["config"]) == sorted(CONFIG_KEYS)
    assert data["config"]["n_stops"] == 80
    assert data["config_digest"] == digest
    assert data["config_digest"].startswith("sha256:")
    assert data["artifacts"] == ["summary.json", "sweep.csv"]


def test_manifest_has_no_timestamps(tmp_path):
    path = write_manifest(DEFAULTS, sha256_hex(b"x"), [], tmp_path)
    again = write_manifest(DEFAULTS, sha256_hex(b"x"), [], tmp_path)
    assert path.read_bytes() == again.read_bytes()
    data = json.loads(path.read_text())
    assert set(data) == {"tool", "version", "config", "config_digest", "artifacts"}


# --- command line ---


def test_cli_endurance_line(capsys):
    assert main(["endurance"]) == 0
    assert capsys.readouterr().out == "1680.56 s (28.01 min)\n"


def test_cli_simulate_reference_mission(capsys, tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--stops", "80", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "packets 400" in stdout and "feasible true" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_packets"] == 400
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_stops"] == 80
    assert manifest["artifacts"] == ["pairs.npy", "sensors.npy", "stops.npy", "summary.json"]
    sensors = np.load(out / "sensors.npy", allow_pickle=False)
    stops = np.load(out / "stops.npy", allow_pickle=False)
    assert sensors["packets"].sum() == stops["packets"].sum() == 400


def _simulate_digests(out, names):
    return [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names]


# what numpy's run-time CPU dispatch cannot move: scalars, counts, the manifest
DISPATCH_FREE = ("summary.json", "stops.npy", "manifest.json")


def test_cli_simulate_artifacts_match_golden_digests(capsys, tmp_path):
    assert main(["simulate", "--stops", "80", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _simulate_digests(tmp_path, DISPATCH_FREE) == [
        "08f40724040414d0708a6396e2be77824a96cfd6aa635a8138f3166efd34ef27",
        "ca681fa753066bd7376de0284d9ab1caff01265907b04543b7b6ce4ad15287a2",
        "c069e9aff8cc2f1fc46c0104a695fd8e1688cea660bcf5aba29b871efb8dfab0",
    ]


def test_cli_simulate_float_tables_match_golden_digests(capsys, tmp_path):
    """The delivered and harvested energies, whose bits numpy's float64
    arccos, log10 and power loops set: these digests hold only on hosts
    that dispatch them to AVX-512, until the link budget uses correctly
    rounded operations alone (ROADMAP item 5)."""
    assert main(["simulate", "--stops", "80", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _simulate_digests(tmp_path, ("pairs.npy", "sensors.npy")) == [
        "74ca5e52096e4723e894578966bef128acca5b91cd27ab1a61ba4cb51aa7cf5a",
        "0ebf557a843b9ef516e449f72408ec49231c8d5626ab1ac6e6dd3a1537405c69",
    ]


def test_cli_simulate_dispatch_free_artifacts_hold_without_avx512(tmp_path):
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy 2, else 1.x
    avx512 = [
        f for f in umath.__cpu_dispatch__
        if ("AVX512" in f or f == "X86_V4") and umath.__cpu_features__[f]
    ]
    if not avx512:
        pytest.skip("this host dispatches no numpy loop to AVX-512")
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = []
    for leg, disabled in (("full", ""), ("no-avx512", " ".join(avx512))):
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
        out = tmp_path / leg
        args = [sys.executable, "-m", "wpcnsim", "simulate", "--stops", "80", "--out", str(out)]
        result = subprocess.run(args, env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        digests.append(_simulate_digests(out, DISPATCH_FREE))
    assert digests[0] == digests[1]


def test_cli_simulate_runs_byte_identical(capsys, tmp_path):
    for run in ("a", "b"):
        assert main(["simulate", "--stops", "80", "--out", str(tmp_path / run)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["manifest.json", "pairs.npy", "sensors.npy", "stops.npy", "summary.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--stops", "80"], ["sweep", "--stops-range", "4:6", "--dwells", "20"]],
    ids=["simulate", "sweep"],
)
def test_manifest_lists_every_file_written_beside_it(argv, capsys, tmp_path):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert manifest["artifacts"] == sorted(written)


def test_cli_simulate_case_override(capsys):
    code = main(["simulate", "--case", "p2s2", "--stops", "50"])
    assert code == 0
    assert "packets" in capsys.readouterr().out


def test_cli_require_feasible_exit_code(capsys):
    code = main(["simulate", "--stops", "80", "--dwell", "70", "--require-feasible"])
    assert code == 3
    captured = capsys.readouterr()
    assert "feasible false" in captured.out
    assert "battery" in captured.err


def test_cli_bad_config_file_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not a config line\n")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "bad.cfg:1" in capsys.readouterr().err


def test_cli_missing_config_file_exit_code(capsys, tmp_path):
    assert main(["endurance", "--config", str(tmp_path / "gone.cfg")]) == 2
    assert "gone.cfg" in capsys.readouterr().err


def test_cli_config_file_applies(capsys, tmp_path):
    path = tmp_path / "m.cfg"
    path.write_text("n_stops = 22\ndwell_time = 70\n")
    assert main(["simulate", "--config", str(path), "--require-feasible"]) == 0
    assert "feasible true" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command", [["simulate"], ["sweep", "--stops-range", "4:4"]], ids=["simulate", "sweep"]
)
def test_cli_unwritable_out_dir_exit_code(capsys, tmp_path, command):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = main([*command, "--out", str(blocker / "sub")])
    assert code == 4
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, first, second, blocked",
    [
        ("simulate", ["--stops", "20"], ["--stops", "80"], "pairs.npy"),
        ("sweep", ["--stops-range", "4:4"], ["--stops-range", "4:5"], "summary.json"),
    ],
    ids=["simulate", "sweep"],
)
def test_a_failed_write_leaves_no_manifest(capsys, tmp_path, command, first, second, blocked):
    assert main([command, *first, "--out", str(tmp_path)]) == 0
    (tmp_path / blocked).unlink()
    (tmp_path / blocked).mkdir()
    capsys.readouterr()
    # the earlier run's manifest would vouch for this run's artifacts
    assert main([command, *second, "--out", str(tmp_path)]) == 4
    assert f"cannot write to {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_cli_calibrate_power_and_speed(capsys):
    code = main(["calibrate", "--packets", "5", "--stops", "80", "--dwell", "20"])
    assert code == 0
    stdout = capsys.readouterr().out
    tx_line, speed_line = stdout.splitlines()
    tx_power = float(tx_line.split("=")[1].split()[0])
    assert tx_power == pytest.approx(2.404, rel=1e-2)
    assert speed_line == "cruise_speed = 6.25 m/s"


def test_cli_calibrate_without_task_is_usage_error(capsys):
    assert main(["calibrate"]) == 2
    assert "--packets" in capsys.readouterr().err


def test_cli_calibrate_impossible_request(capsys):
    assert main(["calibrate", "--stops", "1000", "--dwell", "20"]) == 2
    assert "endurance" in capsys.readouterr().err


def test_cli_calibrate_stops_beyond_float_range(capsys):
    assert main(["calibrate", "--stops", "1" + "0" * 400]) == 2
    assert capsys.readouterr().err.startswith("calibrate: ")


def test_cli_calibrate_packets_beyond_float_range(capsys):
    assert main(["calibrate", "--packets", "1" + "0" * 400]) == 2
    assert capsys.readouterr().err.startswith("calibrate: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--packets", "5", "--stops", "100000"], "calibrate: --stops: 100000 stops"),
        (["--packets", "5", "--stops", "1" + "0" * 400], "calibrate: --stops: int too large"),
        (["--packets", "1" + "0" * 400, "--stops", "80"], "calibrate: --packets: int too large"),
        (["--packets", "0", "--stops", "80"], "calibrate: --packets: target_packets"),
    ],
    ids=["stops-past-endurance", "stops-past-float", "packets-past-float", "packets-zero"],
)
def test_cli_calibrate_solves_every_flag_before_printing(capsys, argv, message):
    assert main(["calibrate", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_cli_sweep_writes_three_artifacts(capsys, tmp_path):
    out = tmp_path / "sw"
    code = main(
        ["sweep", "--out", str(out), "--stops-range", "4:8", "--dwells", "20"]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "summary.json", "sweep.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["axes"]["stop_counts"] == [4, 5, 6, 7, 8]
    assert summary["n_cells"] == 4 * 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["summary.json", "sweep.csv"]


def test_cli_sweep_case_filter_and_require_feasible(capsys, tmp_path):
    code = main(
        [
            "sweep",
            "--out",
            str(tmp_path),
            "--stops-range",
            "20:25",
            "--dwells",
            "70",
            "--case",
            "p1s1",
            "--require-feasible",
        ]
    )
    assert code == 3
    assert "exceed the battery" in capsys.readouterr().err
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert all(row.startswith("p1,s1,") for row in rows)
    assert any(row.endswith(",false") for row in rows)


def test_cli_sweep_reports_error_cells(capsys, tmp_path):
    args = ["--out", str(tmp_path), "--stops-range", "4:4", "--dwells", "0,20", "--case", "p1s1"]
    assert main(["sweep", *args]) == 0
    line = f"2 cells (0 infeasible, 1 errors) -> {tmp_path / 'sweep.csv'}"
    assert line in capsys.readouterr().out
    assert json.loads((tmp_path / "summary.json").read_text())["n_errors"] == 1
    assert main(["sweep", *args, "--require-feasible"]) == 3
    assert "0 swept cells exceed the battery and 1 are invalid" in capsys.readouterr().err


def test_cli_sweep_bad_axis_flags(capsys, tmp_path):
    assert main(["sweep", "--stops-range", "9", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--dwells", "a,b", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_sweep_rejects_repeated_dwells(capsys, tmp_path):
    out = tmp_path / "sw"
    args = ["sweep", "--out", str(out), "--stops-range", "4:6", "--dwells", "20,20.0"]
    assert main(args) == 2
    assert "--dwells '20,20.0': each dwell may appear only once" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_counts_every_nan_dwell_as_one_value(capsys, tmp_path):
    out = tmp_path / "sw"
    args = ["sweep", "--out", str(out), "--stops-range", "4:5", "--case", "p1s1"]
    assert main([*args, "--dwells", "nan,nan"]) == 2
    assert "--dwells 'nan,nan': each dwell may appear only once" in capsys.readouterr().err
    assert not out.exists()
    # a single NaN dwell is one value, and its cells are error cells
    assert main([*args, "--dwells", "nan"]) == 0
    assert "2 cells (0 infeasible, 2 errors)" in capsys.readouterr().out


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("dwell", ["nan", "inf"])
def test_cli_sweep_summary_spells_a_non_finite_dwell_as_the_csv_does(dwell, capsys, tmp_path):
    args = ["sweep", "--out", str(tmp_path), "--stops-range", "4:5", "--case", "p1s1"]
    assert main([*args, "--dwells", f"{dwell},20"]) == 0
    capsys.readouterr()
    summary = (tmp_path / "summary.json").read_text()
    assert json.loads(summary, parse_constant=_no_constant)["axes"]["dwells_s"] == [dwell, 20.0]
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == [dwell, "20"] * 2


@pytest.mark.parametrize("near", ["20.0000001", "20.0000000001"])
def test_cli_sweep_keeps_dwells_that_print_alike_apart(near, capsys, tmp_path):
    args = ["sweep", "--out", str(tmp_path), "--stops-range", "4:6", "--case", "p1s1"]
    assert main([*args, "--dwells", f"20,{near}"]) == 0
    capsys.readouterr()
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["20", near] * 3
    peaks = json.loads((tmp_path / "summary.json").read_text())["peaks"]
    assert sorted(peaks) == ["p1s1_t20", f"p1s1_t{near}"]


def test_cli_simulate_invalid_override_exit_code(capsys):
    assert main(["simulate", "--stops", "-5", "--dwell", "0"]) == 2
    assert capsys.readouterr().err == (
        "config error: n_stops must be >= 0, got -5\n"
        "config error: dwell_time must be > 0, got 0.0\n"
    )


def test_cli_sweep_runs_byte_identical(capsys, tmp_path):
    args = ["--stops-range", "4:6", "--dwells", "20,70"]
    assert main(["sweep", "--out", str(tmp_path / "a"), *args]) == 0
    assert main(["sweep", "--out", str(tmp_path / "b"), *args]) == 0
    capsys.readouterr()
    for name in ("sweep.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
