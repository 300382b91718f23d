"""Dashboard rendering: structure checks plus one pinned golden page.

The golden test records a fixed-seed fig2-style grid twice (wall times
pinned, clock/git/version injected) and pins the exact HTML.  The
measurement numbers inside are real simulator output — virtual-time
deterministic, identical on any machine.  Regenerate after intentional
changes with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_dashboard.py
"""

import dataclasses
import os
import pathlib

import pytest

from repro.obs.dashboard import render_dashboard
from repro.runner import execute_spec
from repro.runner.progress import SweepTiming

from ..runner.test_jobs import make_spec
from .test_registry import make_registry

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
    if not path.exists():
        pytest.fail(
            f"golden file {path} missing — regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
    assert text == path.read_text(), (
        f"{name} drifted from its golden copy; if the change is "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1 and commit"
    )


#: fig2-style grid on a 4-AS clique: (sdn_count, seed) per trial.
GRID = [(0, 100), (0, 101), (2, 2100), (2, 2101), (3, 3100), (3, 3101)]


def pinned_resources(i: int, wall: float) -> dict:
    """Machine-independent stand-in for ResourceAccounting output."""
    return {
        "gc_collections": 2 + i,
        "gc_pause_s": 0.0012,
        "cpu_user_s": round(wall * 0.9, 6),
        "cpu_sys_s": 0.002,
        "max_rss_kb": 51200 + 16 * i,
        "events_processed": 2000 + i,
        "events_per_s": 27000.5,
        "wall_by_layer_s": {
            "bgp": round(wall * 0.5, 6),
            "controller": round(wall * 0.2, 6),
            "sdn": round(wall * 0.05, 6),
            "outside_events": round(wall * 0.25, 6),
        },
    }


def record_pinned_sweep(registry, *, wall_base: float) -> int:
    """One recorded sweep of GRID with machine-independent wall times."""
    sweep_id = registry.begin_sweep(scenario="WithdrawalScenario", n_ases=4)
    walls = []
    for i, (sdn_count, seed) in enumerate(GRID):
        spec = make_spec(sdn_count=sdn_count, seed=seed)
        record = execute_spec(spec)
        wall = round(wall_base + 0.01 * i, 6)
        walls.append(wall)
        registry.record(
            spec,
            dataclasses.replace(
                record, wall_time=wall, worker="w0",
                resources=pinned_resources(i, wall),
            ),
            sweep_id=sweep_id,
        )
    registry.finish_sweep(
        sweep_id,
        SweepTiming(
            elapsed=round(sum(walls) * 0.6, 6), jobs=len(GRID), cached=0,
            failed=0, total_job_wall=round(sum(walls), 6),
            max_job_wall=max(walls), workers=2,
            cache_hits=0, cache_misses=len(GRID),
        ),
    )
    return sweep_id


@pytest.fixture(scope="module")
def recorded():
    registry = make_registry()
    record_pinned_sweep(registry, wall_base=0.05)
    record_pinned_sweep(registry, wall_base=0.06)
    return registry


class TestDashboardStructure:
    def test_self_contained_html(self, recorded):
        html = render_dashboard(recorded)
        assert html.startswith("<!DOCTYPE html>")
        assert html.endswith("</html>")
        # no external assets: everything inline (the only URL is the
        # SVG xmlns namespace, which browsers never fetch)
        assert "<script" not in html
        assert "<link" not in html
        assert 'src="http' not in html and 'href="http' not in html

    def test_sections_present(self, recorded):
        html = render_dashboard(recorded)
        assert "Convergence vs SDN fraction — WithdrawalScenario" in html
        assert "Metrics trends across sweeps" in html
        assert "Wall-time breakdown per sweep" in html
        assert "Regression gate" not in html
        assert "No regressions detected" not in html
        assert "<svg" in html

    def test_empty_registry_renders(self):
        html = render_dashboard(make_registry())
        assert html.startswith("<!DOCTYPE html>")
        assert "Regression gate" not in html

    def test_injected_provenance_shown(self, recorded):
        html = render_dashboard(recorded)
        assert "deadbee" in html
        assert "generated 2026-01-01T00:00:00Z" in html

    def test_ops_section_present(self, recorded):
        html = render_dashboard(recorded)
        assert "Ops — per-run resource accounting" in html
        assert "Ops — wall time by layer (12 run(s))" in html
        layers = html.split("Ops — wall time by layer")[1]
        assert layers.index(">bgp<") < layers.index(">controller<")


class TestAnatomySection:
    @pytest.fixture(scope="class")
    def traced(self):
        """A sweep whose runs carry spans, so the registry derives and
        stores the anatomy column for every trial."""
        registry = make_registry()
        sweep_id = registry.begin_sweep(
            scenario="WithdrawalScenario", n_ases=4
        )
        for sdn_count, seed in GRID:
            spec = make_spec(sdn_count=sdn_count, seed=seed, spans=True)
            record = execute_spec(spec)
            registry.record(
                spec,
                dataclasses.replace(record, wall_time=0.05, worker="w0"),
                sweep_id=sweep_id,
            )
        registry.finish_sweep(
            sweep_id,
            SweepTiming(
                elapsed=0.3, jobs=len(GRID), cached=0, failed=0,
                total_job_wall=0.3, max_job_wall=0.05, workers=1,
                cache_hits=0, cache_misses=len(GRID),
            ),
        )
        return registry

    def test_anatomy_chart_rendered(self, traced):
        html = render_dashboard(traced)
        assert (
            "Convergence anatomy vs SDN fraction — WithdrawalScenario"
            in html
        )
        assert "median critical-path delay by category" in html
        assert "mrai_wait" in html

    def test_no_anatomy_no_section(self, recorded):
        # the pinned fixture records span-free runs: no attribution,
        # and the section stays out instead of rendering empty axes
        html = render_dashboard(recorded)
        assert "Convergence anatomy vs SDN fraction" not in html


class TestOpsEmptyState:
    def test_pre_schema2_rows_explained(self):
        # runs exist but none carry resources (the shape of a migrated
        # pre-schema-2 registry): the Ops section says so instead of
        # vanishing
        registry = make_registry()
        spec = make_spec()
        record = execute_spec(spec)
        registry.record(spec, dataclasses.replace(record, resources=None))
        html = render_dashboard(registry)
        assert "Ops — per-run resource accounting" in html
        assert "No resource accounting recorded" in html
        assert "recorded before schema 2" in html

    def test_empty_registry_omits_ops(self):
        html = render_dashboard(make_registry())
        assert "Ops — per-run resource accounting" not in html


class TestDashboardGolden:
    def test_pinned_page(self, recorded):
        check_golden("dashboard.html", render_dashboard(recorded))
