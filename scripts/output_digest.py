#!/usr/bin/env python3
"""Print a sha256 digest of every file the CLI writes at a fixed config.

Runs, in a temporary directory and at parallelism 1 and 2:

  fsosim census --time 1234
  fsosim run / compare / sweep     the default scenario, 6 slots
  fsosim validate                  its stdout
  scripts/run_full_study.py        --slots 12, its outputs and stdout

and on one worker, `fsosim run --slots 6` with a 5 ms node delay
(constants: {node_delay_ms: 5.0}) and 120-slot NNG runs at 5,016 km of
Sydney-Sao Paulo, the heaviest graph, where equal-latency ties are
likeliest to show, and of New York-Jakarta, where the arc bound prunes
most,

then prints one "sha256  relative-path" line per file, sorted by path, and
last the sha256 of that list. No golden digest is stored: to compare two
trees, run this once against each, e.g.

  PYTHONPATH=src python scripts/output_digest.py
  PYTHONPATH=/path/to/other/checkout/src python scripts/output_digest.py

The fsosim on PYTHONPATH wins; this checkout's src comes after it.
"""
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
STUDY = HERE / "run_full_study.py"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def produce(root: Path, env: dict) -> None:
    """Write every output under root: one subdirectory per parallelism,
    delay5 for the run with a 5 ms node delay, and nng5016 and
    nng5016-nyc-jkt for the long runs."""
    for workers in (1, 2):
        base = root / "out" / f"p{workers}"
        base.mkdir(parents=True)
        config = root / f"config{workers}.yaml"
        config.write_text(f"parallelism: {workers}\n")
        cli = [sys.executable, "-m", "fsosim.cli", "--config", str(config)]
        for command, extra in (("census", ["--time", "1234"]), ("run", ["--slots", "6"]),
                               ("compare", ["--slots", "6"]), ("sweep", ["--slots", "6"])):
            subprocess.run(cli + [command, "--output-dir", str(base / command)] + extra,
                           env=env, check=True, stdout=subprocess.DEVNULL)
        validate = subprocess.run(cli + ["validate"], env=env, check=True,
                                  capture_output=True)
        (base / "validate.stdout").write_bytes(validate.stdout)
        # Relative paths keep the study's config file and stdout free of root.
        study = subprocess.run(
            [sys.executable, str(STUDY), "--slots", "12", "--workers", str(workers),
             "--output", "study"], cwd=base, env=env, check=True, capture_output=True)
        (base / "study.stdout").write_bytes(study.stdout)
    config = root / "config_delay5.yaml"
    config.write_text("parallelism: 1\nconstants: {node_delay_ms: 5.0}\n")
    subprocess.run([sys.executable, "-m", "fsosim.cli", "--config", str(config), "run",
                    "--slots", "6", "--output-dir", str(root / "out" / "delay5" / "run")],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    config = root / "config_serial.yaml"
    config.write_text("parallelism: 1\n")
    for src, dst, name in (("Sydney", "Sao Paulo", "nng5016"),
                           ("New York", "Jakarta", "nng5016-nyc-jkt")):
        subprocess.run([sys.executable, "-m", "fsosim.cli", "--config", str(config), "run",
                        "--src", src, "--dst", dst, "--range", "5016", "--mode", "NNG",
                        "--slots", "120", "--output-dir", str(root / "out" / name / "run")],
                       env=env, check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), str(HERE.parent / "src")) if p)
    with tempfile.TemporaryDirectory(prefix="fsosim-digest-") as tmp:
        root = Path(tmp)
        produce(root, env)
        out = root / "out"
        lines = [f"{sha256(path.read_bytes())}  {path.relative_to(out).as_posix()}"
                 for path in sorted(out.rglob("*")) if path.is_file()]
    listing = "\n".join(lines) + "\n"
    sys.stdout.write(listing)
    print(f"{len(lines)} files, list sha256 {sha256(listing.encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
