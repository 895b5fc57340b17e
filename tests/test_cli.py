import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from fsosim import ConstellationSpec, GroundStation, PhysicalConstants
from fsosim import cli
from fsosim.cli import ScenarioSpec, main, parse_config
from fsosim.scenario import run_scenarios
from fsosim.errors import ConfigurationError
from fsosim.links import Mode


def test_defaults_without_config():
    config = parse_config(None)
    assert config.constellation.plane_count == 24
    assert config.constellation.sats_per_plane == 66
    assert config.constellation.altitude_km == 550.0
    assert config.constellation.inclination_deg == 53.0
    assert config.constants.c_mps == 299792458.0
    assert config.constants.node_delay_ms == 10.0
    assert all(gs.range_km == 1000.0 for gs in config.stations)
    assert len(config.stations) == 8
    (scenario,) = config.scenarios
    assert (scenario.src, scenario.dst) == ("Sydney", "Sao Paulo")
    assert scenario.slot_count == 3600
    assert scenario.ranges_km == (659.5, 1319.0, 1500.0, 1700.0, 2500.0, 3500.0, 5016.0)
    assert scenario.modes == (Mode.NG, Mode.NNG)


def test_empty_file_is_full_default(tmp_path):
    f = tmp_path / "empty.yaml"
    f.write_text("")
    assert parse_config(f) == parse_config(None)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(tmp_path / "nope.yaml")


def test_unknown_top_level_key_rejected(tmp_path):
    f = tmp_path / "bad.yaml"
    f.write_text("constellation: {plane_count: 24}\nplanes: 10\n")
    with pytest.raises(ConfigurationError, match="planes"):
        parse_config(f)


def test_unknown_nested_key_rejected(tmp_path):
    f = tmp_path / "bad.yaml"
    f.write_text("constellation: {plane_countx: 24}\n")
    with pytest.raises(ConfigurationError, match="constellation.*plane_countx"):
        parse_config(f)


def test_negative_range_rejected_with_key(tmp_path):
    f = tmp_path / "bad.yaml"
    f.write_text(
        "scenarios:\n"
        "  - {src: Sydney, dst: Tokyo, ranges_km: [-5.0]}\n")
    with pytest.raises(ConfigurationError, match=r"scenarios\[0\].ranges_km"):
        parse_config(f)


def test_unknown_station_in_scenario_rejected(tmp_path):
    f = tmp_path / "bad.yaml"
    f.write_text("scenarios:\n  - {src: Sydney, dst: Atlantis}\n")
    with pytest.raises(ConfigurationError, match="Atlantis"):
        parse_config(f)


def test_invalid_mode_rejected(tmp_path):
    f = tmp_path / "bad.yaml"
    f.write_text("scenarios:\n  - {src: Sydney, dst: Tokyo, modes: [NGX]}\n")
    with pytest.raises(ConfigurationError, match="NGX"):
        parse_config(f)


def test_bad_config_exit_code(tmp_path):
    f = tmp_path / "bad.yaml"
    f.write_text("nonsense: 1\n")
    assert main(["--config", str(f), "census", "--range", "1319"]) == 2


def test_missing_config_exit_code(tmp_path):
    assert main(["--config", str(tmp_path / "none.yaml"), "census"]) == 2


def test_census_command(tmp_path):
    out = tmp_path / "out"
    code = main(["census", "--range", "659.5", "--mode", "NG",
                 "--output-dir", str(out)])
    assert code == 0
    lines = (out / "census.csv").read_text().splitlines()
    assert lines[0] == "time_s,range_km,mode,link_type,permanence,count"
    assert lines[1] == "0.000000,659.500000,NG,IntraOP,Permanent,1584"
    sidecar = json.loads((out / "census.json").read_text())
    assert sidecar["totals"]["NG@659.5km"]["total_undirected"] > 1584  # ground links too
    assert sidecar["totals"]["NG@659.5km"]["total_directed"] == \
        2 * sidecar["totals"]["NG@659.5km"]["total_undirected"]


def test_run_command_single_slot(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--src", "Sydney", "--dst", "Sao Paulo", "--range", "1700",
                 "--mode", "NNG", "--slots", "1", "--output-dir", str(out)])
    assert code == 0
    slots = (out / "slots_sydney_sao_paulo_nng_1700km.csv").read_text().splitlines()
    assert len(slots) == 2  # header + one slot
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2
    payload = json.loads((out / "summary.json").read_text())
    assert payload[0]["scenario"] == "Sydney-Sao Paulo"
    assert payload[0]["slots_with_path"] == 1


def test_flags_apply_to_config_scenarios(tmp_path, monkeypatch):
    """Without --src/--dst, --range, --mode, --slots and --slot-duration all
    apply to the config's scenarios."""
    batches = []

    def recording(engine, configs, parallelism):
        batches.append(list(configs))
        return run_scenarios(engine, configs, parallelism)

    monkeypatch.setattr(cli, "run_scenarios", recording)
    out = tmp_path / "out"
    assert main(["run", "--range", "1700", "--mode", "NNG", "--slot-duration", "5",
                 "--slots", "3", "--output-dir", str(out)]) == 0
    (slots,) = out.glob("slots_*.csv")
    assert slots.name == "slots_sydney_sao_paulo_nng_1700km.csv"
    assert len(slots.read_text().splitlines()) == 1 + 3
    ((cfg,),) = batches
    assert (cfg.lisl_range_km, cfg.mode, cfg.slot_duration_s, cfg.slot_count) == (
        1700.0, Mode.NNG, 5.0, 3)


def test_sweep_command_structure(tmp_path):
    out = tmp_path / "out"
    code = main(["sweep", "--src", "Toronto", "--dst", "Istanbul",
                 "--range", "1319", "--range", "1700", "--slots", "2",
                 "--output-dir", str(out)])
    assert code == 0
    lines = (out / "sweep_toronto_istanbul.csv").read_text().splitlines()
    assert lines[0].startswith("scenario,range_km,ng_avg_latency_ms,nng_avg_latency_ms,")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "1319.000000"
    assert lines[2].split(",")[1] == "1700.000000"


def test_sweep_rows_ascending(tmp_path):
    """A sweep writes its rows by ascending range, whatever the flag order."""
    out = tmp_path / "out"
    assert main(["sweep", "--src", "Sydney", "--dst", "Sao Paulo", "--range", "1700",
                 "--range", "1319", "--range", "5016", "--slots", "2",
                 "--output-dir", str(out)]) == 0
    rows = (out / "sweep_sydney_sao_paulo.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1319.000000", "1700.000000", "5016.000000"]
    payload = json.loads((out / "sweep_sydney_sao_paulo.json").read_text())
    assert [row["range_km"] for row in payload] == [1319.0, 1700.0, 5016.0]


def test_compare_command(tmp_path):
    out = tmp_path / "out"
    code = main(["compare", "--src", "Madrid", "--dst", "Tokyo",
                 "--range", "1700", "--slots", "2", "--output-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "compare_madrid_tokyo.json").read_text())
    assert payload[0]["ng"]["slots_with_path"] == 2
    assert payload[0]["nng"]["slots_with_path"] == 2
    assert payload[0]["latency_improvement_ms"] >= 0.0


def test_outputs_byte_reproducible(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    argv = ["run", "--src", "Sydney", "--dst", "Sao Paulo", "--range", "1319",
            "--mode", "NNG", "--slots", "3"]
    assert main(argv + ["--output-dir", str(out1)]) == 0
    assert main(argv + ["--output-dir", str(out2)]) == 0
    for name in ("slots_sydney_sao_paulo_nng_1319km.csv", "summary.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_driven_run(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "constellation:\n"
        "  phasing_offset: 15\n"
        "stations:\n"
        "  - {name: A, latitude_deg: 0.0, longitude_deg: 0.5}\n"
        "  - {name: B, latitude_deg: 0.0, longitude_deg: -0.5}\n"
        "scenarios:\n"
        "  - {src: A, dst: B, ranges_km: [659.5], modes: [NNG], slot_count: 2}\n"
        f"output_dir: {tmp_path / 'cfgout'}\n"
        "parallelism: 1\n")
    assert main(["--config", str(cfg), "run"]) == 0
    assert (tmp_path / "cfgout" / "slots_a_b_nng_659.5km.csv").exists()


def test_help_documents_config_keys(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for cls in (ConstellationSpec, PhysicalConstants, GroundStation, ScenarioSpec):
        for field in dataclasses.fields(cls):
            assert field.name in out, f"{cls.__name__}.{field.name}"
    for key in ("earth_rotation0_deg", "stations", "scenarios", "parallelism", "output_dir"):
        assert key in out


def test_in_process_calls_share_one_parser(tmp_path, monkeypatch):
    """Two calls of main in one process, with different subcommands, both
    succeed and parse their arguments with one parser."""
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert main(["census", "--range", "659.5", "--mode", "NG",
                 "--output-dir", str(tmp_path)]) == 0
    assert main(["validate"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


# The CPUs the process may run on, not all of the machine's.
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@pytest.mark.parametrize("given, resolved", [(0, USABLE_CPUS), (-1, USABLE_CPUS), (3, 3)],
                         ids=["zero", "negative", "three"])
def test_parallelism_resolved_once(tmp_path, given, resolved):
    f = tmp_path / "cfg.yaml"
    f.write_text(f"parallelism: {given}\n")
    assert parse_config(f).parallelism == resolved


@pytest.mark.parametrize("yaml_text, message", [
    ("scenarios: [{src: Sydney, dst: Tokyo, ranges_km: 1700}]",
     r"scenarios\[0\]\.ranges_km: expected a list"),
    ("scenarios: [{src: Sydney, dst: Tokyo, ranges_km: [abc]}]",
     r"scenarios\[0\]\.ranges_km\[0\]: expected float"),
    ("scenarios: [{src: Sydney, dst: Tokyo, ranges_km: []}]",
     r"scenarios\[0\]\.ranges_km: ranges must be positive"),
    ("scenarios: [{src: Sydney, dst: Tokyo, slot_count: abc}]",
     r"scenarios\[0\]\.slot_count: expected int"),
    ("scenarios: [{src: Sydney, dst: Tokyo, slot_duration_s: soon}]",
     r"scenarios\[0\]\.slot_duration_s: expected float"),
    ("scenarios: [{src: Sydney, dst: Tokyo, modes: NG}]",
     r"scenarios\[0\]\.modes: expected a list"),
    ("scenarios: [{src: Sydney, dst: Tokyo, modes: []}]", r"scenarios\[0\]\.modes"),
    ("scenarios: [{src: Sydney, dst: Tokyo, slot_count: 2.7}]",
     r"scenarios\[0\]\.slot_count: expected int, got 2\.7"),
    ("constellation: {plane_count: 24.9}", r"constellation\.plane_count: expected int"),
    ("parallelism: 1.5", r"config\.parallelism: expected int"),
    ("stations: [{name: A, latitude_deg: north}]", r"stations\[0\]\.latitude_deg: expected float"),
    ("stations: [{name: A, longitude_deg: [1]}]", r"stations\[0\]\.longitude_deg: expected float"),
    ("stations: [{name: A, range_km: far}]", r"stations\[0\]\.range_km: expected float"),
    ("output_dir:", r"config\.output_dir: expected str, got None"),
    ("stations: [{name: , latitude_deg: 0.0}]", r"stations\[0\]\.name: expected str, got None"),
    ("scenarios: [{src: [Sydney], dst: Tokyo}]",
     r"scenarios\[0\]\.src: unknown station \"\['Sydney'\]\""),
], ids=["ranges-scalar", "ranges-item", "ranges-empty", "slot-count", "slot-duration",
        "modes-scalar", "modes-empty", "slot-count-fraction", "plane-count-fraction",
        "parallelism-fraction", "latitude", "longitude", "station-range", "output-dir-null",
        "station-name-null", "endpoint-list"])
def test_unparsable_config_value_exit_code(tmp_path, capsys, yaml_text, message):
    """A value that does not parse is a configuration error naming its key."""
    f = tmp_path / "bad.yaml"
    f.write_text(yaml_text + "\n")
    assert main(["--config", str(f), "run", "--output-dir", str(tmp_path / "out")]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("yaml_text, key", [
    ("scenarios: [{{src: Sydney, dst: Tokyo, slot_duration_s: {}}}]",
     r"scenarios\[0\]\.slot_duration_s"),
    ("scenarios: [{{src: Sydney, dst: Tokyo, ranges_km: [1700, {}]}}]",
     r"scenarios\[0\]\.ranges_km\[1\]"),
    ("earth_rotation0_deg: {}", r"config\.earth_rotation0_deg"),
    ("constellation: {{altitude_km: {}}}", r"constellation\.altitude_km"),
], ids=["slot-duration", "ranges", "earth-rotation", "altitude"])
def test_non_finite_config_values_rejected(tmp_path, yaml_text, key, value):
    """NaN and infinities are configuration errors naming their key, not
    values a run would spin on."""
    f = tmp_path / "cfg.yaml"
    f.write_text(yaml_text.format(value) + "\n")
    with pytest.raises(ConfigurationError, match=key + ": expected float"):
        parse_config(f)


@pytest.mark.parametrize("argv", [
    ["run", "--src", "Sydney", "--dst", "Sao Paulo", "--mode", "NNG", "--slots", "2",
     "--range", "nan"],
    ["run", "--src", "Sydney", "--dst", "Sao Paulo", "--mode", "NNG", "--slots", "2",
     "--range", "1700", "--slot-duration", "inf"],
    ["census", "--time", "nan"],
], ids=["range", "slot-duration", "time"])
def test_non_finite_flags_exit_code(tmp_path, argv):
    """A non-finite float flag exits 2 naming the flag; run in a subprocess
    with a timeout, so that a regression fails instead of hanging."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "fsosim.cli", *argv,
                           "--output-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 2
    assert f"argument {argv[-2]}" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["24", "'24'", "24.0"], ids=["int", "int-string", "integral-float"])
def test_integer_keys_accept_integral_values(tmp_path, value):
    f = tmp_path / "cfg.yaml"
    f.write_text(f"constellation: {{plane_count: {value}}}\n"
                 f"scenarios: [{{src: Sydney, dst: Tokyo, slot_count: {value}}}]\n")
    config = parse_config(f)
    assert config.constellation.plane_count == 24
    assert config.scenarios[0].slot_count == 24


def test_validate_shell_below_occlusion_clearance_fails(tmp_path, capsys):
    """A shell below the clearance has no maximum link range: a failed check, not a crash."""
    f = tmp_path / "low.yaml"
    f.write_text("constellation: {altitude_km: 50}\n")
    assert main(["--config", str(f), "validate"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] maximum visibility-limited link range" in out
    assert "[FAIL] phasing-offset scan" in out


def test_station_named_like_a_satellite_rejected(tmp_path):
    f = tmp_path / "bad.yaml"
    f.write_text("stations:\n  - {name: x10102, latitude_deg: 0.0, longitude_deg: 0.0}\n")
    with pytest.raises(ConfigurationError, match="x10102"):
        parse_config(f)


def test_shell_beyond_two_digit_ids_exit_code(tmp_path):
    f = tmp_path / "big.yaml"
    f.write_text("constellation: {plane_count: 4, sats_per_plane: 120, phasing_offset: 0}\n")
    assert main(["--config", str(f), "run", "--slots", "1"]) == 2


@pytest.mark.parametrize("command, scenarios, message", [
    ("compare", "[{src: Sydney, dst: Tokyo, ranges_km: [1700]},"
                " {src: Sydney, dst: Tokyo, ranges_km: [5016]}]",
     r"scenarios\[1\]: Sydney -> Tokyo repeats scenarios\[0\]"),
    ("run", "[{src: Sydney, dst: Tokyo}, {src: Madrid, dst: Tokyo},"
            " {src: Sydney, dst: Tokyo}]",
     r"scenarios\[2\]: Sydney -> Tokyo repeats scenarios\[0\]"),
], ids=["compare", "run"])
def test_repeated_station_pair_exit_code(tmp_path, capsys, command, scenarios, message):
    """A station pair in two scenarios would write its files twice, the
    second over the first, or repeat its summary rows: a configuration
    error naming the later scenario, raised before any output is written."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"scenarios: {scenarios}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), command, "--slots", "2", "--output-dir", str(out)]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_reverse_station_pair_is_a_scenario_of_its_own(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenarios: [{src: Sydney, dst: Tokyo}, {src: Tokyo, dst: Sydney}]\n")
    assert [(s.src, s.dst) for s in parse_config(cfg).scenarios] == [("Sydney", "Tokyo"),
                                                                     ("Tokyo", "Sydney")]


@pytest.mark.parametrize("via", ["flags", "config"])
def test_same_source_and_destination_exit_code(tmp_path, via):
    """Rejected as a configuration error before any slot runs."""
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenarios:\n  - {src: Sydney, dst: Sydney, ranges_km: [1700.0]}\n")
    argv = (["run", "--src", "Sydney", "--dst", "Sydney", "--range", "1700"] if via == "flags"
            else ["--config", str(cfg), "run"])
    assert main(argv + ["--slots", "2", "--output-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("via", ["flags", "config"])
def test_zero_slots_exit_code(tmp_path, via):
    """--slots 0 is an invalid slot count, not a request for the default hour."""
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenarios:\n  - {src: Sydney, dst: Sao Paulo, ranges_km: [1700.0]}\n")
    argv = (["run", "--src", "Sydney", "--dst", "Sao Paulo", "--range", "1700"]
            if via == "flags" else ["--config", str(cfg), "run"])
    assert main(argv + ["--slots", "0", "--output-dir", str(out)]) == 2
    assert not list(out.glob("slots_*.csv"))


@pytest.mark.parametrize("scenario, argv, message", [
    ("ranges_km: [1700, 1700]", ["run", "--slots", "2"],
     r"scenarios\[0\]\.ranges_km: a value is given more than once"),
    ("modes: [NNG, NG, NNG]", ["run", "--slots", "2"],
     r"scenarios\[0\]\.modes: a value is given more than once"),
    ("ranges_km: [1700]", ["run", "--slots", "2", "--range", "1700", "--range", "1700.0"],
     r"--range: a value is given more than once"),
    ("ranges_km: [1700]", ["sweep", "--slots", "2", "--range", "1500", "--range", "1500"],
     r"--range: a value is given more than once"),
    ("ranges_km: [1700]", ["census", "--range", "1700", "--range", "1700"],
     r"--range: a value is given more than once"),
], ids=["config-ranges", "config-modes", "run-flag", "sweep-flag", "census-flag"])
def test_repeated_range_or_mode_exit_code(tmp_path, capsys, scenario, argv, message):
    """A range or mode given twice would run twice, overwrite its own slot
    file and repeat its summary or census rows: a configuration error
    naming its key or flag, raised before any output is written."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"scenarios:\n  - {{src: Sydney, dst: Sao Paulo, {scenario}}}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), *argv, "--output-dir", str(out)]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


STUDY_26 = (
    "scenarios:\n"
    "  - {src: Sydney, dst: Sao Paulo,"
    " ranges_km: [659.5, 1319.0, 1500.0, 1700.0, 2500.0, 3500.0, 5016.0]}\n"
    "  - {src: Toronto, dst: Istanbul, ranges_km: [1700.0, 5016.0]}\n"
    "  - {src: Madrid, dst: Tokyo, ranges_km: [5016.0, 1700.0]}\n"
    "  - {src: New York, dst: Jakarta, ranges_km: [1700.0, 5016.0]}\n")


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_batch_outputs_identical_across_parallelism(tmp_path, command):
    """The paper's 26 queries give byte-identical files on one worker and on two."""
    outputs = []
    for workers in (1, 2):
        cfg = tmp_path / f"cfg{workers}.yaml"
        cfg.write_text(STUDY_26 + f"parallelism: {workers}\n")
        out = tmp_path / f"out{workers}"
        assert main(["--config", str(cfg), command, "--slots", "6",
                     "--output-dir", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == {"run": 28, "compare": 8, "sweep": 8}[command]
    assert outputs[0] == outputs[1]
