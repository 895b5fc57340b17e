#!/usr/bin/env python3
"""Reproduce the full connectivity-and-latency study.

Produces, under the output directory:
  census.csv / census.json          link censuses at the seven ranges
  sweep_sydney_sao_paulo.csv/.json  permanent-only vs all-links sweep
  compare_<pair>.csv/.json          three more city pairs at 1700/5016 km

A full-fidelity run evaluates 3,600 one-second slots per scenario and
takes about 7 minutes on two cores; use --slots for a quick look.
"""
import argparse
import os
import sys

from fsosim import DEFAULT_RANGES_KM
from fsosim.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output", default="out/full_study", help="output directory")
    parser.add_argument("--slots", type=int, default=3600, help="time slots per scenario")
    parser.add_argument("--workers", type=int, default=os.cpu_count(),
                        help="parallel slot workers")
    args = parser.parse_args()

    base = ["--config", write_config(args.output, args.workers)]
    rc = cli_main(base + ["census", "--output-dir", args.output])
    if rc:
        return rc
    rc = cli_main(base + ["sweep", "--src", "Sydney", "--dst", "Sao Paulo",
                          "--slots", str(args.slots), "--output-dir", args.output]
                  + ranges_flags(DEFAULT_RANGES_KM))
    if rc:
        return rc
    for src, dst in (("Toronto", "Istanbul"), ("Madrid", "Tokyo"), ("New York", "Jakarta")):
        rc = cli_main(base + ["compare", "--src", src, "--dst", dst,
                              "--slots", str(args.slots), "--output-dir", args.output]
                      + ranges_flags((1700.0, 5016.0)))
        if rc:
            return rc
    print(f"study complete under {args.output}")
    return 0


def ranges_flags(ranges) -> list[str]:
    flags: list[str] = []
    for r in ranges:
        flags += ["--range", str(r)]
    return flags


def write_config(output_dir: str, workers: int) -> str:
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, "study_config.yaml")
    with open(path, "w") as fh:
        fh.write(f"output_dir: {output_dir}\nparallelism: {workers}\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
