"""Property suite: the controller's plain-dict graphs equal the networkx
implementation they replaced.

For any random cluster — 3-12 members, intra links flipped down and up
so sub-clusters split and re-merge, originations, external routes that
re-enter the learning member's sub-cluster or cross a different one,
equal-cost ties — the cached :class:`SwitchGraphView`, the per-prefix
AS topology graph, reverse Dijkstra's distances and successors, and the
member decisions (``egress_choice``, ``as_chain`` included) are those of
the oracle in ``tests/controller/nx_oracle.py``, after every link flip.

Examples are bounded and derandomized (same discipline as
``test_fault_properties``); ``tests/controller/test_graphs_oracle.py``
runs the same generator from fixed seeds without hypothesis.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from tests.controller.nx_oracle import check_case, random_case  # noqa: E402

pytestmark = pytest.mark.properties

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True)


@given(rng=st.randoms(use_true_random=False))
@BOUNDED
def test_plain_graphs_match_networkx_oracle(rng):
    check_case(random_case(rng))
