"""Cold start: each path loads only what it runs (DESIGN.md "Cold start").

Every check runs a fresh interpreter, because what matters is what a new
process imports: the command line must work where scipy is absent (the
package declares no dependencies), its serving commands must not load the
experiment drivers, and a session's forked peers — and a fleet worker
serving its first session — must import nothing, since the driver loads
their modules before it forks.  Starting a fleet loads no event loop.
The import fence of the in-process session path is
``tests/core/test_group_resolution.py::test_benchmark_imports_load_only_the_session_path``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Runs ``python -m repro`` with scipy unimportable: a ``None`` entry in
# ``sys.modules`` makes ``import scipy`` raise ModuleNotFoundError.
WITHOUT_SCIPY = (
    "import runpy, sys\n"
    "sys.modules['scipy'] = None\n"
    "sys.argv = ['repro', *sys.argv[1:]]\n"
    "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
)


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("argv", [["--help"], ["lint", "--strict", "src/"]])
def test_the_command_line_runs_without_scipy(argv):
    done = _run("-c", WITHOUT_SCIPY, *argv)
    assert done.returncode == 0, done.stderr


# Runs the command line, then reports whether the experiments were loaded.
EXPERIMENTS_LOADED = (
    "import sys\n"
    "from repro.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "except SystemExit:\n"
    "    pass\n"
    "print('repro.bench' in sys.modules)\n"
)


@pytest.mark.parametrize(
    "argv", [["serve", "--help"], ["lint", "--help"], ["fleet", "--help"]]
)
def test_serving_commands_leave_the_experiments_unloaded(argv):
    done = _run("-c", EXPERIMENTS_LOADED, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# One warm session per topology, then the same sessions again with an
# audit hook (inherited across fork) that logs every module a child
# imports.  The hook is first shown to see a child's import.
FORKED_PEERS = """
import json, os, shutil, sys, tempfile
from multiprocessing import get_context
from repro.api.queries import CountQuery
from repro.net.serve import run_distributed_session

TOPOLOGIES = [dict(transport="multiprocess", shards=2), dict(transport="socket")]

def session(topology):
    outcome = run_distributed_session(
        CountQuery(1.0, 2**-10), [i % 2 for i in range(6)], group="p64-sim",
        nb_override=16, chunk_size=8, seed="cold-start", **topology)
    assert outcome["accepted"] and outcome["byte_identical"], outcome

for topology in TOPOLOGIES:
    session(topology)

parent = os.getpid()
log = tempfile.mkdtemp()

def hook(event, args):
    if event == "import" and os.getpid() != parent:
        with open(os.path.join(log, str(os.getpid())), "a") as fh:
            fh.write(args[0] + "\\n")

sys.addaudithook(hook)

def child_imports():
    import colorsys  # noqa: F401 -- a module nothing here loaded

probe = get_context("fork").Process(target=child_imports)
probe.start()
probe.join()
seen = [line.strip() for name in os.listdir(log) for line in open(os.path.join(log, name))]
assert "colorsys" in seen, seen
for name in os.listdir(log):
    os.remove(os.path.join(log, name))

for topology in TOPOLOGIES:
    session(topology)
imported = sorted({line.strip() for name in os.listdir(log) for line in open(os.path.join(log, name))})
shutil.rmtree(log)
print(json.dumps(imported))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="peers are forked")
def test_forked_peers_import_nothing():
    done = _run("-c", FORKED_PEERS)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []


# A fresh process starts a one-front-end fleet with the audit hook on and
# serves one session through it: the worker is forked by the dispatcher
# and runs that session's analyst and peer threads, so everything its
# first session needs must have been loaded before the fork.  Nothing is
# warmed first — the dispatcher alone must do it.  The script also reports
# whether the dispatcher's own process loaded asyncio.
FLEET_WORKER = """
import json, os, shutil, sys, tempfile
from repro.api.queries import CountQuery
from repro.net.fleet import FleetConfig, FleetDispatcher, SessionRequest

parent = os.getpid()
log = tempfile.mkdtemp()

def hook(event, args):
    if event == "import" and os.getpid() != parent:
        with open(os.path.join(log, str(os.getpid())), "a") as fh:
            fh.write(args[0] + "\\n")

sys.addaudithook(hook)
config = FleetConfig(frontends=1, capacity=1, nb_override=16, chunk_size=8, timeout=30.0)
with FleetDispatcher(config) as dispatcher:
    request = SessionRequest(0, CountQuery(1.0, 2**-10), [i % 2 for i in range(6)], seed="cold-start")
    dispatcher.submit(request)
    assert dispatcher.wait(timeout=60.0), dispatcher.outcomes
    assert dispatcher.outcomes[0].status == "released", dispatcher.outcomes
    worker = str(dispatcher.workers["fe-0"].process.pid)
    with open(os.path.join(log, worker), "a") as fh:
        pass  # a worker that imported nothing left no file
imported = sorted({line.strip() for line in open(os.path.join(log, worker)) if line.strip()})
shutil.rmtree(log)
print(json.dumps({"worker": imported, "asyncio": "asyncio" in sys.modules}))
"""


@pytest.fixture(scope="module")
def fleet_worker_run():
    if not hasattr(os, "fork"):
        pytest.skip("fleet workers are forked")
    done = _run("-c", FLEET_WORKER)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_fleet_worker_first_session_imports_nothing(fleet_worker_run):
    assert fleet_worker_run["worker"] == []


def test_fleet_dispatcher_leaves_asyncio_unloaded(fleet_worker_run):
    """A front-end runs blocking threads only: starting a fleet, and
    serving a session through it, loads no event loop."""
    assert fleet_worker_run["asyncio"] is False
