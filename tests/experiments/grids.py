"""The four non-fraction sweeps at their fixture-pinned sizes.

Shared by ``test_grid_harness.py`` (bit-equality with the values
captured before the sweeps moved onto ``run_groups``) and
``tests/runner/test_equivalence.py`` (worker-count and cache
equivalence).  Not a test module.
"""

from repro.experiments.ablations import mrai_sweep, recompute_delay_sweep
from repro.experiments.placement import placement_sweep
from repro.experiments.topologies import topology_family_sweep


def _pair(key):
    """Rows comparing no SDN with ``sdn_count`` converted: two groups,
    labelled as the fixture spells tuples (JSON lists)."""
    return lambda row: [
        ([getattr(row, key), 0], row.baseline),
        ([getattr(row, key), row.sdn_count], row.deployed),
    ]


def _single(key):
    return lambda row: [(getattr(row, key), row.point)]


#: name -> (sweep, keyword arguments, trials in the grid,
#:          row -> [(group label, SweepPoint), ...])
PINNED = {
    "topology_family_sweep": (
        topology_family_sweep, dict(n=8, runs=2, mrai=5), 16,
        _pair("family"),
    ),
    "placement_sweep": (
        placement_sweep, dict(n=10, sdn_count=3, runs=2, mrai=5), 6,
        _single("strategy"),
    ),
    "mrai_sweep": (
        mrai_sweep, dict(n=6, mrai_values=(0, 5), sdn_count=3, runs=2), 8,
        _pair("mrai"),
    ),
    "recompute_delay_sweep": (
        recompute_delay_sweep,
        dict(n=6, delays=(0, 2), sdn_count=3, runs=2), 4,
        _single("delay"),
    ),
}


def group_values(name, rows):
    """Per-group convergence times and update counts, fixture-shaped."""
    groups_of = PINNED[name][3]
    return [
        {
            "label": label,
            "times": point.times,
            "updates": [r.measurement.updates_tx for r in point.runs],
        }
        for row in rows
        for label, point in groups_of(row)
    ]
