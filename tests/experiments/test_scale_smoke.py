"""Opt-in 10k-AS scale smoke: peak RSS must stay sub-linear.

The scaling chapter's claim — compact RIBs plus lean mode keep route
storage near-linear in topology size — is cheap to *state* and
expensive to *check*, so the check lives behind two gates: the ``slow``
marker and the ``REPRO_SLOW_TESTS`` environment knob.  When enabled it
runs the synthetic CAIDA hierarchy withdrawal storm at 2k and 10k ASes
(each in its own forked child, so ``ru_maxrss`` is an honest per-trial
high-water mark) and feeds both rows through
:func:`~repro.experiments.scale.check_rss_sublinear`.

Run it with::

    REPRO_SLOW_TESTS=1 PYTHONPATH=src python -m pytest -m slow tests
"""

import os

import pytest

from repro.experiments.scale import (
    check_rss_sublinear,
    run_scale_trial,
    scale_spec,
)

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW_TESTS"),
        reason="10k-AS smoke takes minutes; set REPRO_SLOW_TESTS=1 to run",
    ),
]

SIZES = (2_000, 10_000)


@pytest.fixture(scope="module")
def trial_rows():
    return [run_scale_trial(scale_spec(n)) for n in SIZES]


def test_ten_k_converges(trial_rows):
    big = trial_rows[-1]
    assert big["n"] == SIZES[-1]
    measurement = big["measurement"]
    assert measurement.convergence_time > 0.0
    assert measurement.t_settled >= measurement.t_converged
    assert measurement.updates_tx > 0
    assert big["storm_events"] > 0


def test_peak_rss_sublinear(trial_rows):
    # links grow ~16x across this 5x AS step (lateral peering mesh), so
    # the gate measures size as n + links; exceeding that ratio * 1.6
    # in RSS means compact/lean route storage regressed to super-linear.
    check_rss_sublinear(trial_rows)


def test_intern_pools_bounded_by_paths_not_routers(trial_rows):
    # interning only wins if the attribute pool grows with *distinct
    # paths*, far slower than n * prefixes; a pool rivaling the router
    # count times table size would mean interning is not deduplicating.
    big = trial_rows[-1]
    pools = big["intern_pools"]
    assert 0 < pools["path_attributes"] < big["n"] * 10
    assert 0 < pools["as_paths"] < big["n"] * 10
