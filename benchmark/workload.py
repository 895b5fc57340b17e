"""Runs one benchmark workload against fsosim in a fresh process.

    python3 workload.py probe <root>          time the set-up alone
    python3 workload.py run <root> <run_dir>  set up, then run the workload

`root` is the checkout that holds src/fsosim. A run reads the inputs that
run.py wrote to <run_dir>/inputs.json, repeats whole rounds of
the workload until the requested seconds have passed, and writes its
timings and outputs to <run_dir>/measure.json. With tracing on, it then
repeats the rounds with spans around fsosim's public functions.
It checks nothing: run.py checks the outputs after this process has ended.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def set_up(root: Path, earth_rotation0_deg: float = 0.0):
    """Import fsosim from the checkout and build the default shell's engine."""
    started = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import fsosim
    if Path(fsosim.__file__).resolve().parent != (root / "src" / "fsosim").resolve():
        raise SystemExit(f"imported fsosim from {fsosim.__file__}, not from {root}")
    engine = fsosim.LinkEngine(fsosim.build_constellation(fsosim.ConstellationSpec()),
                               earth_rotation0_deg=earth_rotation0_deg)
    return time.perf_counter() - started, engine


def quiet_cli(argv: list[str]) -> tuple[int, list[str]]:
    """Run the fsosim CLI in this process; return its exit code and printed lines."""
    from fsosim import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue().splitlines()


def study_round(inputs: dict, engine):
    out_dir = inputs["output_dir"]
    base = ["--config", inputs["config_path"]]
    code_census, _ = quiet_cli(base + ["census", "--time", repr(inputs["census_time_s"]),
                                       "--output-dir", out_dir])
    code_run, _ = quiet_cli(base + ["run", "--output-dir", out_dir])
    ok = code_census == 0 and code_run == 0
    return {"ok": ok, "failed": 0 if ok else inputs["ops_per_round"]}


def nng_round(inputs: dict, engine):
    from fsosim import GroundStation, Mode, ScenarioConfig, scenario
    stations = {name: GroundStation(name, lat, lon)
                for name, (lat, lon) in inputs["stations"].items()}
    cfg = ScenarioConfig(src=stations[inputs["src"]], dst=stations[inputs["dst"]],
                         lisl_range_km=inputs["range_km"], mode=Mode(inputs["mode"]),
                         slot_count=inputs["slot_count"])
    records, _summary = scenario.run_scenario(engine, cfg, 1)
    return {"ok": True, "failed": 0, "records": [
        {"slot_index": r.slot_index, "path_found": r.path_found, "latency_ms": r.latency_ms,
         "propagation_ms": r.propagation_ms, "node_delay_ms": r.node_delay_ms,
         "hop_count": r.hop_count, "path": list(r.node_sequence or ())} for r in records]}


def validate_round(inputs: dict, engine):
    code, lines = quiet_cli(["--config", inputs["config_path"], "validate"])
    checks = [line for line in lines if line.startswith("[")]
    failed = sum(1 for line in checks if line.startswith("[FAIL]"))
    if code not in (0, 3):
        failed = inputs["ops_per_round"]
    return {"ok": code == 0, "failed": failed, "exit_code": code, "lines": lines}


ROUNDS = {"study": study_round, "nng-5016": nng_round, "validate": validate_round}


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_rounds(inputs: dict, engine) -> dict:
    """Whole rounds until the requested seconds have passed; at least one."""
    round_fn = ROUNDS[inputs["workload"]]
    walls, cpus, failed, first, mismatched = [], [], 0, None, 0
    started = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            outcome = round_fn(inputs, engine)
        except Exception as exc:  # noqa: BLE001 - a crash fails the round's operations
            outcome = {"ok": False, "failed": inputs["ops_per_round"],
                       "error": traceback.format_exception_only(exc)[-1].strip()}
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        failed += outcome.pop("failed")
        if first is None:
            first = outcome
        elif outcome != first:
            mismatched += 1
        if time.perf_counter() - started >= inputs["seconds"]:
            break
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "rounds": len(walls),
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "failed": failed,
        # ru_maxrss is in KiB on Linux; children's is that of the largest reaped child.
        "peak_rss_mib": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "mismatched_rounds": mismatched,
        "outcome": first,
    }


def main(argv: list[str]) -> int:
    command, root = argv[0], Path(argv[1]).resolve()
    if command == "probe":
        print(json.dumps({"setup_s": set_up(root)[0]}))
        return 0
    run_dir = Path(argv[2])
    inputs = json.loads((run_dir / "inputs.json").read_text())
    setup_s, engine = set_up(root, inputs["earth_rotation0_deg"])
    result = {"setup_s": setup_s, "untraced": run_rounds(inputs, engine)}
    if inputs["trace"]:
        from spans import Tracer, layer_metrics
        dump_dir = run_dir / "spans"
        dump_dir.mkdir()
        tracer = Tracer(dump_dir)
        tracer.install()
        traced = run_rounds(inputs, engine)
        traced["layers"] = layer_metrics(tracer.collect(), traced["rounds"])
        traced["layers"]["trace.overhead_s"] = (
            statistics.median(traced["round_wall_s"])
            - statistics.median(result["untraced"]["round_wall_s"]))
        result["traced"] = traced
    (run_dir / "measure.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
