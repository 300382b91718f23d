"""A process that only runs trials loads neither networkx nor numpy.

Both are declared dependencies, but only analysis and graph-export code
calls them (``Topology.to_networkx`` / ``is_connected`` / ``validate``,
the random builders, ``Network.to_graph``, ``analysis.graphs``, the
controller's derived ``topo.graph``; ``analysis.stats``) — and each
imports its library where it calls it.  Checked in a fresh interpreter
with both names poisoned in ``sys.modules`` so that any import of them
raises: the CLI still imports, and a hybrid trial still produces the
measurement pinned from the networkx-based controller.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
sys.modules["networkx"] = None
sys.modules["numpy"] = None
import json
import repro.cli
modules = len(sys.modules)
from repro.experiments.common import WithdrawalScenario
from repro.runner.jobs import RunSpec, run_trial_full
from repro.topology.builders import clique

spec = RunSpec(
    scenario_factory=WithdrawalScenario, topology_factory=clique,
    n=6, sdn_count=3, seed=7, mrai=5.0, trace_level="off",
)
m, _, _ = run_trial_full(spec)
print(json.dumps({
    "t_event": m.t_event, "t_converged": m.t_converged,
    "t_state_converged": m.t_state_converged, "t_settled": m.t_settled,
    "updates_tx": m.updates_tx, "updates_rx": m.updates_rx,
    "decision_changes": m.decision_changes, "fib_changes": m.fib_changes,
    "recomputations": m.recomputations,
    "modules": modules,
}))
"""

PINNED = {
    "t_event": 14.476032944696716,
    "t_converged": 19.624152690397814,
    "t_state_converged": 19.60415269039781,
    "t_settled": 23.46739129639284,
    "updates_tx": 55,
    "updates_rx": 55,
    "decision_changes": 18,
    "fib_changes": 24,
    "recomputations": 3,
}


def test_cli_import_and_hybrid_trial_without_networkx_or_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    modules = result.pop("modules")
    assert result == PINNED
    # `import repro.cli` loaded 681 modules with both libraries eager
    # and loads 278 without (CPython 3.11); half leaves room for other
    # interpreters' stdlib layouts.
    assert modules < 340
