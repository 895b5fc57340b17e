"""Checked benchmark of fsosim: three closed-batch workloads.

    python3 benchmark/run.py --workload study|nng-5016|validate \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout that holds src/fsosim. It makes the
workload's inputs from the seed, times the set-up in fresh processes,
runs whole rounds of the workload in a fresh process for at least the
given seconds, checks every output against benchmark/reference.py and
the properties in benchmark/checks.py, writes a record under
benchmark/results/, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones.
See benchmark/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference as ref
from spans import LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STUDY_SLOTS = 10        # slots per query; >= 4, so every query starts a process pool
NNG_SLOTS = 10
SETUP_PROBES = 2        # fresh processes timing the set-up, besides the workload's own
RUN_TIMEOUT_S = 170.0
CITY_PAIRS = (("Toronto", "Istanbul"), ("Madrid", "Tokyo"), ("New York", "Jakarta"))
VALIDATE_SLOT_QUERIES = 21  # census slot-queries at t=0: 7 ranges x (NG degrees, NG and NNG totals)


def study_scenarios() -> list[dict]:
    """The paper's 26 queries as fsosim scenarios: Sydney-Sao Paulo at seven
    ranges, three more city pairs at 1,700 and 5,016 km, each under NG and NNG."""
    pairs = [("Sydney", "Sao Paulo", ref.RANGES_KM)]
    pairs += [(a, b, (1700.0, 5016.0)) for a, b in CITY_PAIRS]
    return [{"src": a, "dst": b, "ranges_km": list(ranges), "modes": ["NG", "NNG"],
             "slot_count": STUDY_SLOTS, "slot_duration_s": 1.0} for a, b, ranges in pairs]


def program_config(rotation0_deg: float, parallelism: int, scenarios=()) -> dict:
    """A complete fsosim configuration for the reference shell and stations."""
    shell = ref.Shell()
    return {
        "constellation": {
            "plane_count": shell.planes, "sats_per_plane": shell.sats_per_plane,
            "altitude_km": shell.altitude_km, "inclination_deg": shell.inclination_deg,
            "phasing_offset": shell.phasing, "raan_spread_deg": 360.0,
            "earth_radius_km": shell.earth_radius_km, "mu_km3s2": shell.mu_km3_s2},
        "constants": {
            "c_mps": ref.C_KM_PER_MS * 1e6, "earth_radius_km": shell.earth_radius_km,
            "occlusion_clearance_km": ref.OCCLUSION_CLEARANCE_KM,
            "node_delay_ms": ref.NODE_DELAY_MS},
        "earth_rotation0_deg": rotation0_deg,
        "stations": [{"name": name, "latitude_deg": lat, "longitude_deg": lon,
                      "range_km": ref.STATION_RANGE_KM}
                     for name, (lat, lon) in ref.STATIONS.items()],
        "scenarios": list(scenarios),
        "parallelism": parallelism,
    }


def make_inputs(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> dict:
    """Everything the workload process and the checks need, drawn from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    rotation0 = round(rng.uniform(0.0, 360.0), 6)
    nproc = len(os.sched_getaffinity(0))
    inputs = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "earth_rotation0_deg": rotation0, "nproc": nproc}
    config = None
    if workload == "study":
        scenarios = study_scenarios()
        queries = [{"src": sc["src"], "dst": sc["dst"], "mode": mode, "range_km": r}
                   for sc in scenarios for mode in sc["modes"] for r in sc["ranges_km"]]
        config = program_config(rotation0, nproc, scenarios)
        inputs.update(
            queries=queries, slot_count=STUDY_SLOTS,
            census_time_s=float(rng.randrange(math.ceil(ref.Shell().period_s))),
            reference_slots=[rng.randrange(STUDY_SLOTS)],
            output_dir=str(run_dir / "out"),
            ops_per_round=len(queries) * STUDY_SLOTS,
            slot_queries_per_round=len(queries) * STUDY_SLOTS)
    elif workload == "nng-5016":
        inputs.update(
            src="Sydney", dst="Sao Paulo", mode="NNG", range_km=5016.0, slot_count=NNG_SLOTS,
            stations={name: list(ref.STATIONS[name]) for name in ("Sydney", "Sao Paulo")},
            reference_slots=sorted(rng.sample(range(NNG_SLOTS), 2)),
            ops_per_round=NNG_SLOTS, slot_queries_per_round=NNG_SLOTS)
    else:
        config = program_config(rotation0, nproc)
        inputs.update(ops_per_round=checks.VALIDATE_CHECKS,
                      slot_queries_per_round=VALIDATE_SLOT_QUERIES)
    if config is not None:
        # JSON is valid YAML, so fsosim reads this file as its configuration.
        inputs["config_path"] = str(run_dir / "config.yaml")
        (run_dir / "config.yaml").write_text(json.dumps(config, indent=1))
    return inputs


def run_child(args: list[str], timeout: float) -> str:
    """Run a benchmark process as leader of a new process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "workload.py")] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark process timed out after {timeout:.0f} s: {args}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process failed ({proc.returncode}): {args}\n{err}")
    return out


def fingerprint() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a plain checkout is not a git repository
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fsosim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
            "git_sha": sha, "src_sha256": digest.hexdigest(), "machine": platform.machine()}


def end_to_end(inputs: dict, phase: dict, setup_samples: list[float]) -> dict:
    """End-to-end metrics of one untraced phase. Round times are medians, so a
    first round that fills the engine's candidate cache does not count."""
    wall = statistics.median(phase["round_wall_s"])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "cpu_s": (statistics.median(phase["round_cpu_s"]), "s"),
        "peak_rss_mib": (phase["peak_rss_mib"], "MiB"),
        "slot_queries_per_s": (inputs["slot_queries_per_round"] / wall, "1/s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(checks.CHECKS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fsosim" / "__init__.py").is_file():
        print(f"no fsosim sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    run_dir = BENCH_DIR / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    inputs = make_inputs(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    (run_dir / "inputs.json").write_text(json.dumps(inputs, indent=1))

    setup_samples = [json.loads(run_child(["probe", str(ROOT)], 60.0))["setup_s"]
                     for _ in range(SETUP_PROBES)]
    run_child(["run", str(ROOT), str(run_dir)],
              RUN_TIMEOUT_S - (time.perf_counter() - started))
    measure = json.loads((run_dir / "measure.json").read_text())
    setup_samples.append(measure["setup_s"])

    try:
        report = checks.check(args.workload, inputs, measure)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the checks
        report = checks.Report()
        report.expect(False, f"checks could not read the outputs: {exc!r}")
    phases = [measure["untraced"]] + ([measure["traced"]] if args.trace else [])
    attempted = sum(inputs["ops_per_round"] * p["rounds"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    metrics = end_to_end(inputs, measure["untraced"], setup_samples)
    layers = measure["traced"]["layers"] if args.trace else {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint(),
        "attempted": attempted, "failed": failed,
        "checks": report.checked, "check_failures": report.failures,
        "setup_samples_s": setup_samples,
        "rounds": {name: {k: v for k, v in p.items() if k not in ("outcome", "layers")}
                   for name, p in zip(("untraced", "traced"), phases)},
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
        "per_layer": layers,  # None: not exercised by this workload
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed}: {report.checked} checks, "
          f"{len(report.failures)} failed; {attempted} operations, {failed} failed")
    for message in report.failures[:20]:
        print(f"  CHECK FAILED: {message}")
    if args.trace:
        shown = {k: (0.0 if layers[k] is None else layers[k], LAYER_UNITS[k]) for k in LAYER_UNITS}
    else:
        shown = metrics
    print(json.dumps({
        "correct": not report.failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in shown.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
