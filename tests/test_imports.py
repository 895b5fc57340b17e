"""Where scipy and the process pool's modules are loaded: scipy only by
routing and component proofs, and by a process pool before it forks; the
pool's modules (concurrent.futures.process, multiprocessing) only by a
pooled run. Each check runs in a fresh interpreter, so that no other test
has loaded them first."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fsosim
from fsosim import BUNDLED_STATIONS, ScenarioConfig, run_scenario

SRC = str(Path(fsosim.__file__).resolve().parent.parent)


def run_fresh(script: str) -> str:
    """script's stdout, run by a new interpreter that imports this fsosim."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], text=True,
                          capture_output=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# Prepended to a fresh interpreter's script, indented as its body is.
POOL_MODULES = """
        import sys

        def pool_modules():
            return {m for m in sys.modules if m == "concurrent.futures.process"
                    or m.split(".")[0] == "multiprocessing"}
"""


def test_validate_and_census_load_no_scipy_and_a_pool_loads_it_before_forking(tmp_path):
    """Importing fsosim, building an engine, validate and census load no
    scipy and none of the pool's modules. A pooled run loads
    scipy.sparse.csgraph in the parent, which routes nothing itself, so it
    was loaded before the fork; and no worker imports a scipy module of its
    own."""
    run_fresh(POOL_MODULES + f"""
        import contextlib, io, sys
        import fsosim
        from fsosim import cli, scenario

        def scipy_modules():
            return {{m for m in sys.modules if m.split(".")[0] == "scipy"}}

        engine = fsosim.LinkEngine(fsosim.build_constellation(fsosim.ConstellationSpec()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate"]) == 0
            assert cli.main(["census", "--output-dir", {str(tmp_path)!r}]) == 0
        assert not scipy_modules(), sorted(scipy_modules())[:3]
        assert not pool_modules(), sorted(pool_modules())[:3]

        chunk = scenario._worker_chunk

        def checked_chunk(instants):
            before = scipy_modules()
            found = chunk(instants)
            assert scipy_modules() == before, sorted(scipy_modules() - before)[:3]
            return found

        scenario._worker_chunk = checked_chunk
        cfg = fsosim.ScenarioConfig(fsosim.BUNDLED_STATIONS[0], fsosim.BUNDLED_STATIONS[1],
                                    1700.0, slot_count=6)
        records, summary = fsosim.run_scenario(engine, cfg, parallelism=2)
        assert summary.slots_with_path == 6
        assert "scipy.sparse.csgraph" in sys.modules
        assert "concurrent.futures.process" in pool_modules()
    """)


def test_serial_routing_loads_scipy_on_first_use():
    """A serial run started with no scipy loaded routes, and gives the
    records it gives with scipy already loaded; it loads none of the pool's
    modules."""
    cfg = ScenarioConfig(BUNDLED_STATIONS[0], BUNDLED_STATIONS[1], 1700.0, slot_count=3)
    records, _ = run_scenario(fsosim.LinkEngine(fsosim.build_constellation(
        fsosim.ConstellationSpec())), cfg)
    found = run_fresh(POOL_MODULES + """
        import json, sys
        import fsosim
        assert "scipy" not in sys.modules
        engine = fsosim.LinkEngine(fsosim.build_constellation(fsosim.ConstellationSpec()))
        cfg = fsosim.ScenarioConfig(fsosim.BUNDLED_STATIONS[0], fsosim.BUNDLED_STATIONS[1],
                                    1700.0, slot_count=3)
        records, _ = fsosim.run_scenario(engine, cfg)
        assert "scipy.sparse.csgraph" in sys.modules
        assert not pool_modules(), sorted(pool_modules())[:3]
        print(json.dumps([[r.latency_ms, r.node_sequence] for r in records]))
    """)
    assert json.loads(found) == [[r.latency_ms, list(r.node_sequence)] for r in records]
