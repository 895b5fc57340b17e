#!/usr/bin/env python3
"""Reproduce the full connectivity-and-latency study.

Produces, under the output directory:
  census.csv / census.json          link censuses at the seven ranges
  sweep_sydney_sao_paulo.csv/.json  permanent-only vs all-links sweep
  compare_<pair>.csv/.json          three more city pairs at 1700/5016 km

The sweep and the comparisons run as one batch on one process pool. A
full-fidelity run evaluates 3,600 one-second slots per scenario and
takes about 2.2 minutes on two cores; use --slots for a quick look.
"""
import argparse
import os
import sys
from pathlib import Path

from fsosim import DEFAULT_RANGES_KM, ScenarioConfig
from fsosim.cli import main as cli_main, parse_config, write_comparisons
from fsosim.errors import ConfigurationError

# (output kind, source, destination, ranges in km) of each comparison file.
STUDIES = (("sweep", "Sydney", "Sao Paulo", tuple(sorted(DEFAULT_RANGES_KM))),
           ("compare", "Toronto", "Istanbul", (1700.0, 5016.0)),
           ("compare", "Madrid", "Tokyo", (1700.0, 5016.0)),
           ("compare", "New York", "Jakarta", (1700.0, 5016.0)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output", default="out/full_study", help="output directory")
    parser.add_argument("--slots", type=int, default=3600, help="time slots per scenario")
    parser.add_argument("--workers", type=int, default=os.cpu_count(),
                        help="parallel slot workers")
    args = parser.parse_args()

    config_path = write_config(args.output, args.workers)
    rc = cli_main(["--config", config_path, "census", "--output-dir", args.output])
    if rc:
        return rc
    config = parse_config(config_path)
    try:
        jobs = [(kind, f"{src}-{dst}",
                 [ScenarioConfig(config.station(src), config.station(dst), r,
                                 slot_count=args.slots) for r in ranges])
                for kind, src, dst, ranges in STUDIES]
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    write_comparisons(config, jobs, Path(args.output))
    print(f"study complete under {args.output}")
    return 0


def write_config(output_dir: str, workers: int) -> str:
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, "study_config.yaml")
    with open(path, "w") as fh:
        fh.write(f"output_dir: {output_dir}\nparallelism: {workers}\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
